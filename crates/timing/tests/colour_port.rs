//! Exactness of splitting colour traffic off a memory system.
//!
//! Stage B lets several techniques share one memory system while each
//! sends its colour flushes to a port of its own: a [`Dram`] that only
//! serves [`TrafficClass::Colors`]. The split is exact because a flush
//! touches no cache and DRAM rows are open per class:
//!
//! * one [`Dram`] fed every request equals a Dram fed the other classes
//!   plus a Colors-only port — each request's latency, the busy cycles of
//!   every epoch, and the [`DramStats`] summed with [`DramStats::merge`];
//! * one [`MemorySystem`] fed a whole hook stream equals one fed the
//!   stream without its colour flushes plus a port fed those flushes —
//!   every epoch (the port adding its colour bytes and busy cycles), the
//!   SRAM access counts, and the summed DRAM statistics.

use proptest::prelude::*;
use re_gpu::hooks::{GpuHooks, FB_BASE, PARAM_BASE, TEX_BASE, VB_BASE};
use re_timing::dram::{Dram, DramStats, TrafficClass};
use re_timing::{MemEpoch, MemorySystem, TimingConfig};

fn split_busy(d: &Dram, mark: &mut u64) -> u64 {
    let busy = d.stats().busy_cycles;
    let delta = busy - *mark;
    *mark = busy;
    delta
}

/// A Colors-only port as Stage B drives it.
struct Port {
    dram: Dram,
    bytes: u64,
    busy_mark: u64,
}

impl Port {
    fn new(cfg: TimingConfig) -> Self {
        Port {
            dram: Dram::new(cfg),
            bytes: 0,
            busy_mark: 0,
        }
    }

    /// `lane` plus what the port served since the last call.
    fn epoch(&mut self, mut lane: MemEpoch) -> MemEpoch {
        lane.color_bytes += std::mem::take(&mut self.bytes);
        lane.dram_busy_cycles += split_busy(&self.dram, &mut self.busy_mark);
        lane
    }
}

/// One hook call: `kind` picks the hook, `at` the address slot.
fn apply(sink: &mut impl GpuHooks, kind: usize, at: u64, bytes: u32) {
    match kind {
        0 => sink.vertex_fetch(VB_BASE + at * 16, bytes),
        1 => sink.param_write(PARAM_BASE + at * 32, bytes),
        2 => sink.param_read(PARAM_BASE + at * 32, bytes),
        3 => sink.texel_fetch((at % 4) as u8, TEX_BASE + at * 64, 4),
        4 => sink.texel_run((at % 4) as u8, TEX_BASE + at * 64, 4, bytes % 5),
        _ => sink.color_flush(FB_BASE + at * 64, bytes),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_colors_port_beside_a_dram_equals_one_dram(
        requests in proptest::collection::vec(
            (0usize..5, 0u64..400, 0u32..300, 0u32..6),
            1..200,
        ),
    ) {
        let cfg = TimingConfig::mali450();
        let mut whole = Dram::new(cfg);
        let mut lane = Dram::new(cfg);
        let mut port = Dram::new(cfg);
        let (mut whole_mark, mut lane_mark, mut port_mark) = (0, 0, 0);
        for &(class, slot, bytes, cut) in &requests {
            let class = TrafficClass::ALL[class];
            let addr = slot * 48;
            let expected = whole.request(class, addr, bytes);
            let served = if class == TrafficClass::Colors {
                port.request(class, addr, bytes)
            } else {
                lane.request(class, addr, bytes)
            };
            prop_assert_eq!(served, expected);
            // Epoch boundaries at random points of the stream.
            if cut == 0 {
                prop_assert_eq!(
                    split_busy(&whole, &mut whole_mark),
                    split_busy(&lane, &mut lane_mark) + split_busy(&port, &mut port_mark)
                );
            }
        }
        prop_assert_eq!(
            port.stats().bytes.iter().sum::<u64>(),
            port.stats().class_bytes(TrafficClass::Colors)
        );
        let mut summed: DramStats = *lane.stats();
        summed.merge(port.stats());
        prop_assert_eq!(&summed, whole.stats());
    }

    #[test]
    fn a_colors_port_beside_a_memory_system_equals_one_memory_system(
        calls in proptest::collection::vec(
            (0usize..6, 0u64..300, 0u32..200, 0u32..5),
            1..200,
        ),
    ) {
        let cfg = TimingConfig::mali450();
        let mut whole = MemorySystem::new(cfg);
        let mut lane = MemorySystem::new(cfg);
        let mut port = Port::new(cfg);
        for &(kind, at, bytes, cut) in &calls {
            apply(&mut whole, kind, at, bytes);
            if kind == 5 {
                port.bytes += u64::from(bytes);
                port.dram.request(TrafficClass::Colors, FB_BASE + at * 64, bytes);
            } else {
                apply(&mut lane, kind, at, bytes);
            }
            if cut == 0 {
                prop_assert_eq!(port.epoch(lane.take_epoch()), whole.take_epoch());
            }
        }
        prop_assert_eq!(port.epoch(lane.take_epoch()), whole.take_epoch());
        prop_assert_eq!(lane.sram_accesses(), whole.sram_accesses());
        let mut summed: DramStats = *lane.dram_stats();
        summed.merge(port.dram.stats());
        prop_assert_eq!(&summed, whole.dram_stats());
    }
}
