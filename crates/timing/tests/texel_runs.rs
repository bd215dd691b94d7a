//! Exactness of [`GpuHooks::texel_run`] on the memory system: a run of
//! `n` same-line texel fetches must leave every observable — the epoch
//! counters at each `take_epoch`, SRAM access counts and DRAM statistics —
//! exactly as the `n` fetches issued one by one would, for any cache
//! geometry and texture-unit count.

use proptest::prelude::*;
use re_gpu::hooks::{GpuHooks, RUN_LINE_BYTES, TEX_BASE};
use re_timing::{MemorySystem, TimingConfig};

/// One stream item: a unit, a line, a run length (0 and 1 included), the
/// byte offsets of its fetches within the line, and whether an epoch
/// boundary follows.
type Item = (u8, u64, u32, u64, u8);

/// A configuration with small, varied texture caches and L2 so that runs
/// land on cold, resident and just-evicted lines alike.
fn config(tex_sets: u32, tex_ways: u32, l2_pick: u32, units: u32) -> TimingConfig {
    let mut c = TimingConfig::mali450();
    c.texture_cache.ways = tex_ways;
    c.texture_cache.size_bytes = tex_sets * tex_ways * c.texture_cache.line_bytes;
    c.num_fragment_processors = units;
    // L2 lines of one or two run lines; 1–16 sets of 1–4 ways.
    c.l2_cache.line_bytes = 64 << (l2_pick % 2);
    c.l2_cache.ways = 1 << ((l2_pick / 2) % 3);
    c.l2_cache.size_bytes = (1 << ((l2_pick / 6) % 5)) * c.l2_cache.ways * c.l2_cache.line_bytes;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn texel_runs_equal_their_unrolled_fetches(
        tex_sets in 1u32..=8,
        tex_ways in 1u32..=4,
        l2_pick in 0u32..30,
        units in 1u32..=4,
        stream in proptest::collection::vec(
            (0u8..8, 0u64..40, 0u32..7, any::<u64>(), 0u8..4),
            1..160,
        ),
    ) {
        let cfg = config(tex_sets, tex_ways, l2_pick, units);
        let mut unrolled = MemorySystem::new(cfg);
        let mut runs = MemorySystem::new(cfg);
        let stream: Vec<Item> = stream;
        for (unit, line, n, offsets, brk) in stream {
            let base = TEX_BASE + line * RUN_LINE_BYTES;
            let addr = |k: u32| base + ((offsets >> (6 * k)) % RUN_LINE_BYTES);
            for k in 0..n {
                unrolled.texel_fetch(unit, addr(k), 4);
            }
            runs.texel_run(unit, addr(0), 4, n);
            if brk == 0 {
                prop_assert_eq!(unrolled.take_epoch(), runs.take_epoch());
            }
        }
        // Probe every line on every unit: any divergence left in LRU
        // state shows up as a different miss count.
        for unit in 0..4u8 {
            for line in 0..40u64 {
                let a = TEX_BASE + line * RUN_LINE_BYTES;
                unrolled.texel_fetch(unit, a, 4);
                runs.texel_fetch(unit, a, 4);
            }
            prop_assert_eq!(unrolled.take_epoch(), runs.take_epoch());
        }
        prop_assert_eq!(unrolled.sram_accesses(), runs.sram_accesses());
        prop_assert_eq!(unrolled.dram_stats(), runs.dram_stats());
    }
}
