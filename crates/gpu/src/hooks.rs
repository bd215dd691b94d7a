//! Memory-traffic hooks and the simulated physical address map.
//!
//! The functional GPU renders pixels; the *memory system* (caches, DRAM) is
//! modelled by `re-timing`. The two are connected by [`GpuHooks`]: every
//! main-memory-visible access the pipeline performs is reported through one
//! of these callbacks, carrying a synthetic physical address so that
//! set-associative caches behave realistically (spatial locality in texture
//! and parameter-buffer streams is preserved by construction).

/// Base of the vertex-buffer region (drawcall vertex data).
pub const VB_BASE: u64 = 0x1000_0000;
/// Base of the texture region (one slab per texture, see
/// [`crate::texture::TextureStore`]).
pub const TEX_BASE: u64 = 0x4000_0000;
/// Base of the Parameter Buffer region (re-used every frame, as the real
/// driver recycles the buffer between frames).
pub const PARAM_BASE: u64 = 0x8000_0000;
/// Base of the frame-buffer region (front and back buffers).
pub const FB_BASE: u64 = 0xC000_0000;

/// Granularity of a texel run ([`GpuHooks::texel_run`]): every fetch of a
/// run falls in the same aligned line of this many bytes.
pub const RUN_LINE_BYTES: u64 = 64;

/// Receiver for the pipeline's memory accesses and stage events.
///
/// All methods have empty default bodies so analyses that only need pixels
/// can pass [`NullHooks`]. Addresses are synthetic physical addresses from
/// the regions above; `bytes` is the access footprint (the cache model
/// splits it into lines).
pub trait GpuHooks {
    /// The Vertex Fetcher reads vertex attributes from a vertex buffer.
    fn vertex_fetch(&mut self, addr: u64, bytes: u32) {
        let _ = (addr, bytes);
    }
    /// The Polygon List Builder appends to the Parameter Buffer.
    fn param_write(&mut self, addr: u64, bytes: u32) {
        let _ = (addr, bytes);
    }
    /// The Tile Scheduler fetches a tile's primitive data from the
    /// Parameter Buffer (through the Tile Cache).
    fn param_read(&mut self, addr: u64, bytes: u32) {
        let _ = (addr, bytes);
    }
    /// A fragment processor samples a texel (through a Texture Cache).
    /// `unit` is the texture-cache bank (0–3, one per fragment processor).
    fn texel_fetch(&mut self, unit: u8, addr: u64, bytes: u32) {
        let _ = (unit, addr, bytes);
    }
    /// `n` back-to-back texel fetches on one `unit`, all within the
    /// [`RUN_LINE_BYTES`]-aligned line that holds `addr`, with no other
    /// access between them. The default replays them as `n`
    /// [`texel_fetch`](Self::texel_fetch) calls at `addr`; a sink can
    /// override it when it only needs the line, as a cache model does.
    fn texel_run(&mut self, unit: u8, addr: u64, bytes: u32, n: u32) {
        for _ in 0..n {
            self.texel_fetch(unit, addr, bytes);
        }
    }
    /// The Tile Flush writes a cache line of final colors to the Frame
    /// Buffer in main memory.
    fn color_flush(&mut self, addr: u64, bytes: u32) {
        let _ = (addr, bytes);
    }
    /// A fragment was shaded. `input_hash` is a 32-bit hash of the
    /// fragment's shader inputs (interpolated varyings + drawcall
    /// constants), *excluding screen coordinates* — the key used by the
    /// PFR fragment-memoization baseline (paper §V-A).
    fn fragment_shaded(&mut self, tile_id: u32, drawcall: u32, input_hash: u32) {
        let _ = (tile_id, drawcall, input_hash);
    }
}

/// A hooks sink that ignores everything (purely functional rendering).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHooks;

impl GpuHooks for NullHooks {}

/// A hooks sink that tallies bytes per stream — handy in tests and for
/// quick traffic summaries without a full cache model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingHooks {
    /// Bytes read by the Vertex Fetcher.
    pub vertex_bytes: u64,
    /// Bytes written to the Parameter Buffer.
    pub param_write_bytes: u64,
    /// Bytes read from the Parameter Buffer.
    pub param_read_bytes: u64,
    /// Bytes of texels sampled.
    pub texel_bytes: u64,
    /// Bytes of colors flushed to the Frame Buffer.
    pub color_bytes: u64,
}

impl GpuHooks for CountingHooks {
    fn vertex_fetch(&mut self, _addr: u64, bytes: u32) {
        self.vertex_bytes += bytes as u64;
    }
    fn param_write(&mut self, _addr: u64, bytes: u32) {
        self.param_write_bytes += bytes as u64;
    }
    fn param_read(&mut self, _addr: u64, bytes: u32) {
        self.param_read_bytes += bytes as u64;
    }
    fn texel_fetch(&mut self, _unit: u8, _addr: u64, bytes: u32) {
        self.texel_bytes += bytes as u64;
    }
    fn color_flush(&mut self, _addr: u64, bytes: u32) {
        self.color_bytes += bytes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let bases = [VB_BASE, TEX_BASE, PARAM_BASE, FB_BASE];
        assert!(bases.windows(2).all(|w| w[0] < w[1]), "{bases:?}");
    }

    #[test]
    fn counting_hooks_accumulate() {
        let mut h = CountingHooks::default();
        h.vertex_fetch(VB_BASE, 48);
        h.param_write(PARAM_BASE, 144);
        h.param_read(PARAM_BASE, 144);
        h.texel_fetch(2, TEX_BASE, 4);
        h.texel_run(2, TEX_BASE + 4, 4, 3);
        h.color_flush(FB_BASE, 64);
        assert_eq!(h.vertex_bytes, 48);
        assert_eq!(h.param_write_bytes, 144);
        assert_eq!(h.param_read_bytes, 144);
        assert_eq!(h.texel_bytes, 16, "a run counts as its n fetches");
        assert_eq!(h.color_bytes, 64);
    }

    #[test]
    fn null_hooks_is_a_no_op() {
        let mut h = NullHooks;
        h.vertex_fetch(0, 1); // must simply not panic
        h.color_flush(0, 1);
    }
}
