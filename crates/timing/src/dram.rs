//! Main-memory model: dual-channel LPDDR3-like bandwidth/latency sink with
//! per-stream traffic classification.
//!
//! This substitutes DRAMSim2: requests are 64-byte bursts; each burst
//! occupies the channel for `64 / bytes_per_cycle` cycles plus a small
//! controller overhead, and sees a row-buffer-dependent latency between
//! [`TimingConfig::dram_latency_min`] and `..max` (we model a row hit when
//! the burst falls in the same 2 KB row as the previous burst of the same
//! stream). Traffic is tallied per [`TrafficClass`] so Fig. 15b's
//! colors / texels / primitives split can be reported.
//!
//! [`TimingConfig::dram_latency_min`]: crate::config::TimingConfig

use crate::config::TimingConfig;

/// DRAM burst (line) size in bytes.
pub const BURST_BYTES: u64 = 64;
/// Open-row granularity in bytes.
pub const ROW_BYTES: u64 = 2048;

/// Classification of main-memory traffic, matching Fig. 15b plus the
/// geometry-side streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Color Buffer flushes to the Frame Buffer.
    Colors,
    /// Texture fetch misses.
    Texels,
    /// Parameter Buffer reads (Tile Scheduler / Tile Cache misses).
    PrimitiveReads,
    /// Parameter Buffer writes (Polygon List Builder).
    PrimitiveWrites,
    /// Vertex attribute fetches (Vertex Cache misses).
    Vertices,
}

impl TrafficClass {
    /// All classes, in reporting order.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::Colors,
        TrafficClass::Texels,
        TrafficClass::PrimitiveReads,
        TrafficClass::PrimitiveWrites,
        TrafficClass::Vertices,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::Colors => 0,
            TrafficClass::Texels => 1,
            TrafficClass::PrimitiveReads => 2,
            TrafficClass::PrimitiveWrites => 3,
            TrafficClass::Vertices => 4,
        }
    }
}

/// Cumulative DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Bytes transferred per class.
    pub bytes: [u64; 5],
    /// Bursts per class.
    pub bursts: [u64; 5],
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (activations).
    pub row_misses: u64,
    /// Channel-occupancy cycles (data transfer + controller overhead).
    pub busy_cycles: u64,
}

impl DramStats {
    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Bytes for one class.
    pub fn class_bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Field-wise sum: the statistics of one DRAM that served both
    /// request streams, provided no class appears in both (a class's open
    /// row is its own, so disjoint classes never see each other's rows).
    pub fn merge(&mut self, other: &DramStats) {
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a += b;
        }
        for (a, b) in self.bursts.iter_mut().zip(&other.bursts) {
            *a += b;
        }
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.busy_cycles += other.busy_cycles;
    }
}

/// The DRAM model.
#[derive(Debug, Clone)]
pub struct Dram {
    config: TimingConfig,
    stats: DramStats,
    /// Last open row per class (a proxy for per-bank row buffers: streams
    /// of one class are highly sequential, streams of different classes
    /// land in different banks).
    open_rows: [u64; 5],
}

impl Dram {
    /// Creates the model with all rows closed.
    pub fn new(config: TimingConfig) -> Self {
        Dram {
            config,
            stats: DramStats::default(),
            open_rows: [u64::MAX; 5],
        }
    }

    /// Services an access of `bytes` at `addr` for `class`; returns the
    /// latency in cycles seen by the requester.
    pub fn request(&mut self, class: TrafficClass, addr: u64, bytes: u32) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let i = class.index();
        let first = addr / BURST_BYTES;
        let last = (addr + bytes as u64 - 1) / BURST_BYTES;
        let mut latency = 0u64;
        for burst in first..=last {
            let row = burst * BURST_BYTES / ROW_BYTES;
            let row_hit = self.open_rows[i] == row;
            self.open_rows[i] = row;
            if row_hit {
                self.stats.row_hits += 1;
                latency = latency.max(self.config.dram_latency_min as u64);
            } else {
                self.stats.row_misses += 1;
                latency = latency.max(self.config.dram_latency_max as u64);
            }
            self.stats.bursts[i] += 1;
            // Transfer time at the configured bandwidth + fixed controller
            // overhead per burst.
            self.stats.busy_cycles += BURST_BYTES / self.config.dram_bytes_per_cycle as u64 + 2;
        }
        self.stats.bytes[i] += (last - first + 1) * BURST_BYTES;
        latency
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Clears statistics (rows stay open — state persists across frames).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(TimingConfig::mali450())
    }

    #[test]
    fn single_burst_accounting() {
        let mut d = dram();
        let lat = d.request(TrafficClass::Texels, 0, 4);
        assert_eq!(lat, 100, "first access is a row miss");
        assert_eq!(d.stats().class_bytes(TrafficClass::Texels), 64);
        assert_eq!(d.stats().bursts[TrafficClass::Texels.index()], 1);
        assert_eq!(d.stats().busy_cycles, 64 / 4 + 2);
    }

    #[test]
    fn sequential_bursts_hit_open_row() {
        let mut d = dram();
        d.request(TrafficClass::Colors, 0, 64);
        let lat = d.request(TrafficClass::Colors, 64, 64);
        assert_eq!(lat, 50, "same 2KB row → row-buffer hit");
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn classes_have_independent_rows() {
        let mut d = dram();
        d.request(TrafficClass::Colors, 0, 64);
        d.request(TrafficClass::Texels, 1 << 30, 64);
        // Colors row still open despite the intervening texel burst.
        assert_eq!(d.request(TrafficClass::Colors, 64, 64), 50);
    }

    #[test]
    fn multi_line_request_counts_all_bursts() {
        let mut d = dram();
        d.request(TrafficClass::PrimitiveWrites, 32, 100); // spans lines 0..=2
        assert_eq!(d.stats().bursts[TrafficClass::PrimitiveWrites.index()], 3);
        assert_eq!(d.stats().class_bytes(TrafficClass::PrimitiveWrites), 192);
    }

    #[test]
    fn zero_byte_request_is_free() {
        let mut d = dram();
        assert_eq!(d.request(TrafficClass::Vertices, 0, 0), 0);
        assert_eq!(d.stats().total_bytes(), 0);
    }

    #[test]
    fn total_bytes_sums_classes() {
        let mut d = dram();
        d.request(TrafficClass::Colors, 0, 64);
        d.request(TrafficClass::Texels, 4096, 64);
        assert_eq!(d.stats().total_bytes(), 128);
    }
}
