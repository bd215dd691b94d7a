//! Record/replay of pipeline memory accesses.
//!
//! The simulator renders each frame **once** and evaluates several
//! techniques simultaneously; to give every technique its own cache and
//! DRAM state, the render's access stream is recorded per tile and
//! replayed into each technique's [`re_gpu::hooks::GpuHooks`] sink —
//! skipping the replay entirely for tiles a technique eliminated, or
//! filtering the flush for Transaction Elimination.
//!
//! Two things keep replay cheap. The [`Recorder`] folds a texel fetch into
//! the event before it when both hit the same (unit,
//! [`RUN_LINE_BYTES`]-byte line): the pair becomes one
//! [`Event::TexelRun`], and later fetches of that line extend it. Replay
//! hands a run to [`GpuHooks::texel_run`], which a cache model settles
//! with one lookup plus `n − 1` certain hits, exactly as if the fetches
//! were unrolled. And [`replay_events`] is generic over the sink, so each
//! pass's replay into its memory system is monomorphized rather than
//! dispatched through `dyn GpuHooks` per event.

use re_gpu::hooks::{GpuHooks, RUN_LINE_BYTES};

/// One recorded pipeline access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Vertex attribute fetch.
    VertexFetch {
        /// Address.
        addr: u64,
        /// Footprint in bytes.
        bytes: u32,
    },
    /// Parameter Buffer append.
    ParamWrite {
        /// Address.
        addr: u64,
        /// Footprint in bytes.
        bytes: u32,
    },
    /// Parameter Buffer read.
    ParamRead {
        /// Address.
        addr: u64,
        /// Footprint in bytes.
        bytes: u32,
    },
    /// Texel fetch.
    Texel {
        /// Texture-cache bank.
        unit: u8,
        /// Address.
        addr: u64,
    },
    /// `n >= 2` consecutive texel fetches on one unit within one
    /// [`RUN_LINE_BYTES`]-byte line (see [`GpuHooks::texel_run`]).
    TexelRun {
        /// Texture-cache bank.
        unit: u8,
        /// Address of the first fetch.
        addr: u64,
        /// Fetches in the run.
        n: u32,
    },
    /// Color flush line.
    ColorFlush {
        /// Address.
        addr: u64,
        /// Footprint in bytes.
        bytes: u32,
    },
    /// Fragment shaded (memoization probe).
    FragShaded {
        /// Tile id.
        tile: u32,
        /// Drawcall index.
        drawcall: u32,
        /// 32-bit input hash.
        hash: u32,
    },
}

/// Footprint of one texel fetch: the rasterizer samples RGBA8 texels.
const TEXEL_BYTES: u32 = 4;

/// Replays a recorded event stream into `sink` — the shared primitive
/// behind [`Recorder::replay`] and the render-log evaluate stage.
/// `include_flush` gates the [`Event::ColorFlush`] events (Transaction
/// Elimination).
pub fn replay_events<S: GpuHooks + ?Sized>(events: &[Event], sink: &mut S, include_flush: bool) {
    for e in events {
        match *e {
            Event::VertexFetch { addr, bytes } => sink.vertex_fetch(addr, bytes),
            Event::ParamWrite { addr, bytes } => sink.param_write(addr, bytes),
            Event::ParamRead { addr, bytes } => sink.param_read(addr, bytes),
            Event::Texel { unit, addr } => sink.texel_fetch(unit, addr, TEXEL_BYTES),
            Event::TexelRun { unit, addr, n } => sink.texel_run(unit, addr, TEXEL_BYTES, n),
            Event::ColorFlush { addr, bytes } => {
                if include_flush {
                    sink.color_flush(addr, bytes);
                }
            }
            Event::FragShaded {
                tile,
                drawcall,
                hash,
            } => sink.fragment_shaded(tile, drawcall, hash),
        }
    }
}

/// A [`GpuHooks`] sink that records every access.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Recorded events in pipeline order.
    pub events: Vec<Event>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Clears the event log, keeping its allocation.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Replays every event into `sink`. `include_flush` gates the
    /// [`Event::ColorFlush`] events (Transaction Elimination).
    pub fn replay<S: GpuHooks + ?Sized>(&self, sink: &mut S, include_flush: bool) {
        replay_events(&self.events, sink, include_flush);
    }

    /// Iterates the fragment-input hashes recorded (for memoization).
    pub fn frag_hashes(&self) -> impl Iterator<Item = u32> + '_ {
        self.events.iter().filter_map(|e| match e {
            Event::FragShaded { hash, .. } => Some(*hash),
            _ => None,
        })
    }
}

impl GpuHooks for Recorder {
    fn vertex_fetch(&mut self, addr: u64, bytes: u32) {
        self.events.push(Event::VertexFetch { addr, bytes });
    }
    fn param_write(&mut self, addr: u64, bytes: u32) {
        self.events.push(Event::ParamWrite { addr, bytes });
    }
    fn param_read(&mut self, addr: u64, bytes: u32) {
        self.events.push(Event::ParamRead { addr, bytes });
    }
    fn texel_fetch(&mut self, unit: u8, addr: u64, _bytes: u32) {
        let same_line = |u: u8, a: u64| u == unit && a / RUN_LINE_BYTES == addr / RUN_LINE_BYTES;
        if let Some(last) = self.events.last_mut() {
            let run = match *last {
                Event::Texel { unit: u, addr: a } if same_line(u, a) => Some((a, 2)),
                Event::TexelRun {
                    unit: u,
                    addr: a,
                    n,
                } if same_line(u, a) && n < u32::MAX => Some((a, n + 1)),
                _ => None,
            };
            if let Some((addr, n)) = run {
                *last = Event::TexelRun { unit, addr, n };
                return;
            }
        }
        self.events.push(Event::Texel { unit, addr });
    }
    fn color_flush(&mut self, addr: u64, bytes: u32) {
        self.events.push(Event::ColorFlush { addr, bytes });
    }
    fn fragment_shaded(&mut self, tile_id: u32, drawcall: u32, input_hash: u32) {
        self.events.push(Event::FragShaded {
            tile: tile_id,
            drawcall,
            hash: input_hash,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_gpu::hooks::CountingHooks;

    fn sample() -> Recorder {
        let mut r = Recorder::new();
        r.vertex_fetch(0x100, 48);
        r.param_write(0x8000_0000, 96);
        r.param_read(0x8000_0000, 96);
        r.texel_fetch(2, 0x4000_0000, 4);
        r.color_flush(0xC000_0000, 64);
        r.fragment_shaded(3, 1, 0xABCD);
        r
    }

    #[test]
    fn records_in_order() {
        let r = sample();
        assert_eq!(r.events.len(), 6);
        assert_eq!(
            r.events[0],
            Event::VertexFetch {
                addr: 0x100,
                bytes: 48
            }
        );
        assert_eq!(
            r.events[5],
            Event::FragShaded {
                tile: 3,
                drawcall: 1,
                hash: 0xABCD
            }
        );
    }

    #[test]
    fn replay_reproduces_traffic() {
        let r = sample();
        let mut c = CountingHooks::default();
        r.replay(&mut c, true);
        assert_eq!(c.vertex_bytes, 48);
        assert_eq!(c.param_write_bytes, 96);
        assert_eq!(c.param_read_bytes, 96);
        assert_eq!(c.texel_bytes, 4);
        assert_eq!(c.color_bytes, 64);
    }

    #[test]
    fn replay_can_filter_flush() {
        let r = sample();
        let mut c = CountingHooks::default();
        r.replay(&mut c, false);
        assert_eq!(c.color_bytes, 0);
        assert_eq!(c.texel_bytes, 4, "other traffic untouched");
    }

    #[test]
    fn same_line_texel_fetches_fold_into_runs() {
        let mut r = Recorder::new();
        for (unit, addr) in [(0, 0), (0, 60), (0, 4), (1, 4), (1, 64), (1, 127)] {
            r.texel_fetch(unit, addr, 4);
        }
        r.vertex_fetch(0x100, 4);
        r.texel_fetch(1, 64, 4); // the event before is not a texel fetch
        let run = |unit, addr, n| Event::TexelRun { unit, addr, n };
        assert_eq!(
            r.events,
            vec![
                run(0, 0, 3),
                Event::Texel { unit: 1, addr: 4 },
                run(1, 64, 2),
                Event::VertexFetch {
                    addr: 0x100,
                    bytes: 4
                },
                Event::Texel { unit: 1, addr: 64 },
            ]
        );
        let mut c = CountingHooks::default();
        r.replay(&mut c, true);
        assert_eq!(c.texel_bytes, 7 * 4, "a run replays as its n fetches");
    }

    #[test]
    fn frag_hash_iterator() {
        let r = sample();
        assert_eq!(r.frag_hashes().collect::<Vec<_>>(), vec![0xABCD]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut r = sample();
        let cap = r.events.capacity();
        r.clear();
        assert!(r.events.is_empty());
        assert_eq!(r.events.capacity(), cap);
    }
}
