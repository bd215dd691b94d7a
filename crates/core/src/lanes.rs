//! Lanes: each distinct memory-access stream of Stage B, replayed once.
//!
//! The baseline, TE and RE techniques of one evaluation — *consumers*
//! here — replay the same recorded events into their caches until their
//! decisions part: TE never changes what the GPU fetches (it only drops
//! colour flushes), and RE fetches what the baseline fetches until its
//! first skip. A *lane* is one [`MemorySystem`] shared by the consumers
//! whose streams still agree; each tile is replayed into it once,
//! whatever the number of members.
//!
//! * **Decisions.** Before a tile replays, every consumer decides what it
//!   does with it: the baseline renders and flushes; TE renders and
//!   flushes unless [`TransactionElimination::observe_signature`]
//!   matched; RE skips when it is enabled and the tile's input signature
//!   matches, and otherwise renders and flushes.
//! * **Forks.** When a lane's members disagree on render vs. skip, the
//!   skipping members leave with a clone of the lane's memory system,
//!   taken *before* the tile replays; the rest replay the tile once. Every
//!   epoch is drained at a tile boundary, so the clone is exact. Lanes
//!   never merge again.
//! * **Colour ports.** Colour flushes bypass the lane. Each consumer owns
//!   a port, a [`Dram`] that only ever serves [`TrafficClass::Colors`].
//!   A flush touches no cache and only the Colors open row (open rows are
//!   per class), so the split is exact: a consumer's epoch is the lane's
//!   plus its port's colour bytes and channel cycles, and its final
//!   [`DramStats`] are the lane's plus the port's, field by field.
//! * **Signature Units.** One unit per OT-queue depth signs each frame
//!   for every RE consumer of that depth.
//!
//! Each consumer charges its [`Machine`] with exactly the epochs a private
//! memory system would have produced, in the same order, so every counter
//! and every f64 energy total is bit-identical to replaying the consumer
//! on its own.

use re_gpu::hooks::GpuHooks;
use re_gpu::stats::TileStats;
use re_timing::dram::{Dram, DramStats, TrafficClass};
use re_timing::{MemEpoch, MemorySystem, TimingConfig};

use crate::passes::{Machine, Section};
use crate::record::{replay_events, Event};
use crate::render::{FrameLog, TileLog};
use crate::signature::{FrameSignatures, SignatureBuffer, SignatureUnit, SignatureUnitStats};
use crate::sim::{FrameSample, RunReport, SimOptions};
use crate::te::TransactionElimination;

/// `timing` with the fields only RE reads projected out: the Signature
/// Unit's OT-queue depth and the signature-compare cost. The memory
/// system, the baseline and TE read neither, so consumers that agree on
/// the rest replay one stream.
fn lane_key(timing: &TimingConfig) -> TimingConfig {
    TimingConfig {
        ot_queue_entries: 0,
        sig_compare_cycles: 0,
        ..*timing
    }
}

/// What a consumer reads from a cell's options: cells that agree on it get
/// bit-identical output from one consumer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Key {
    Baseline(TimingConfig),
    Te(TimingConfig, usize),
    Re {
        timing: TimingConfig,
        sig_bits: u32,
        distance: usize,
        refresh_period: Option<usize>,
    },
}

/// What a consumer does with one tile.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Decision {
    Skip,
    Render { flush: bool },
}

/// Rendering Elimination's per-consumer state.
struct Re {
    /// Index of the shared Signature Unit of this consumer's OT depth.
    unit: usize,
    su_stats: SignatureUnitStats,
    sig_buffer: SignatureBuffer,
    sigs: Vec<u32>,
    tile_count: u32,
    distance: usize,
    refresh_period: Option<usize>,
    /// RE stays disabled for `distance` frames after a global-state change,
    /// because comparisons reach that far back.
    re_disabled_for: usize,
    re_enabled: bool,
    re_frames_disabled: u64,
    false_positives: u64,
    frame_skip_mark: u64,
    /// The current tile's signature verdict.
    inputs_eq: Option<bool>,
}

enum Role {
    Baseline,
    Te(TransactionElimination),
    Re(Box<Re>),
}

/// A consumer's own Colors-class DRAM (see the module docs).
struct ColorPort {
    dram: Dram,
    /// Colour bytes flushed since the last [`ColorPort::epoch`].
    bytes: u64,
    busy_mark: u64,
}

impl ColorPort {
    fn flush(&mut self, flushes: &[(u64, u32)]) {
        for &(addr, bytes) in flushes {
            self.bytes += u64::from(bytes);
            self.dram.request(TrafficClass::Colors, addr, bytes);
        }
    }

    /// `lane` plus the colour bytes and channel cycles this port served
    /// since the last call: the epoch a private memory system would have
    /// drained.
    fn epoch(&mut self, mut lane: MemEpoch) -> MemEpoch {
        let busy = self.dram.stats().busy_cycles;
        lane.color_bytes += std::mem::take(&mut self.bytes);
        lane.dram_busy_cycles += busy - self.busy_mark;
        self.busy_mark = busy;
        lane
    }
}

/// One technique's evaluation state, fed by the lane it belongs to.
struct Consumer {
    key: Key,
    tcfg: TimingConfig,
    machine: Machine<ColorPort>,
    role: Role,
    frame_raster_mark: u64,
}

impl Consumer {
    fn begin_frame(&mut self, index: usize, frame: &FrameLog, units: &[SharedUnit]) {
        self.frame_raster_mark = self.machine.raster_cycles;
        let Role::Re(re) = &mut self.role else {
            return;
        };
        re.frame_skip_mark = self.machine.tiles_skipped;
        if frame.re_unsafe {
            re.re_disabled_for = re.re_disabled_for.max(re.distance + 1);
        }
        let refresh_frame = re
            .refresh_period
            .is_some_and(|p| p > 0 && index > 0 && index.is_multiple_of(p));
        re.re_enabled = re.re_disabled_for == 0 && !refresh_frame;
        if !re.re_enabled {
            re.re_frames_disabled += 1;
        }
        // The Signature Unit overlaps with geometry; only stalls count as
        // extra time.
        let signed = &units[re.unit].frame;
        self.machine.geometry_cycles += signed.stats.stall_cycles;
        re.su_stats.merge(&signed.stats);
        re.sigs.clone_from(&signed.sigs);
    }

    fn decide(
        &mut self,
        tile_id: u32,
        tile: &TileLog,
        colors_eq_cmp: &impl Fn(usize) -> Option<bool>,
    ) -> Decision {
        match &mut self.role {
            Role::Baseline => Decision::Render { flush: true },
            Role::Te(te) => Decision::Render {
                flush: !te.observe_signature(tile_id, tile.te_sig, tile.color_bytes),
            },
            Role::Re(re) => {
                let inputs_eq = re.sig_buffer.matches(&re.sigs, tile_id);
                re.inputs_eq = Some(inputs_eq);
                self.machine.raster_cycles += self.tcfg.sig_compare_cycles;
                if re.re_enabled && inputs_eq {
                    self.machine.tiles_skipped += 1;
                    if colors_eq_cmp(re.distance) == Some(false) {
                        re.false_positives += 1;
                    }
                    Decision::Skip
                } else {
                    Decision::Render { flush: true }
                }
            }
        }
    }

    /// Charges a tile the consumer's lane just replayed (drained as
    /// `lane`); `flushes` are its colour flushes, `None` when TE elides
    /// them.
    fn charge_tile(&mut self, lane: MemEpoch, stats: &TileStats, flushes: Option<&[(u64, u32)]>) {
        let mut stats = *stats;
        match flushes {
            Some(flushes) => self.machine.mem.flush(flushes),
            None => stats.color_bytes_flushed = 0,
        }
        let epoch = self.machine.mem.epoch(lane);
        self.machine.charge_tile_epoch(&self.tcfg, &stats, &epoch);
    }

    fn end_frame(&mut self, sample: &mut FrameSample) {
        let raster = self.machine.raster_cycles - self.frame_raster_mark;
        match &mut self.role {
            Role::Baseline => sample.baseline_raster_cycles = raster,
            Role::Te(te) => te.end_frame(),
            Role::Re(re) => {
                sample.tiles_skipped = (self.machine.tiles_skipped - re.frame_skip_mark) as u32;
                sample.re_raster_cycles = raster;
                re.sig_buffer.push(std::mem::take(&mut re.sigs));
                re.re_disabled_for = re.re_disabled_for.saturating_sub(1);
            }
        }
    }

    /// Settles the consumer against its lane's memory system and writes
    /// its section of `report`.
    fn finish(mut self, lane: &MemorySystem, report: &mut RunReport) {
        let sram = lane.sram_accesses();
        let mut dram: DramStats = *lane.dram_stats();
        dram.merge(self.machine.mem.dram.stats());
        let energy = &mut self.machine.energy;
        match self.role {
            Role::Baseline => report.baseline = self.machine.settle(&sram, &dram),
            Role::Re(re) => {
                // RE hardware energy: Signature Buffer, CRC LUTs, bitmap,
                // OT queue.
                energy.add_sram(
                    re.sig_buffer.storage_bytes() as u32,
                    re.su_stats.sig_buffer_accesses + re.sig_buffer.compare_reads,
                );
                energy.add_sram(1024, re.su_stats.lut_accesses);
                energy.add_sram(
                    re.tile_count.div_ceil(8).max(1),
                    re.su_stats.bitmap_accesses,
                );
                energy.add_sram(64, re.su_stats.ot_pushes * 2); // queue push + pop
                report.re = self.machine.settle(&sram, &dram);
                report.su_stats = re.su_stats;
                report.false_positives = re.false_positives;
                report.re_frames_disabled = re.re_frames_disabled;
            }
            Role::Te(te) => {
                // TE hardware energy: CRC unit + its signature buffer.
                energy.add_sram(te.storage_bytes() as u32, te.stats.sig_buffer_accesses);
                energy.add_sram(1024, te.stats.lut_accesses);
                report.te_stats = te.stats;
                report.te = self.machine.settle(&sram, &dram);
            }
        }
    }
}

/// One memory system and the consumers whose streams it still carries.
struct Lane {
    /// The [`lane_key`] of every member.
    key: TimingConfig,
    mem: MemorySystem,
    members: Vec<usize>,
}

/// A Signature Unit shared by every RE consumer of its OT depth.
struct SharedUnit {
    depth: u32,
    tile_count: u32,
    unit: SignatureUnit,
    /// The current frame's signatures.
    frame: FrameSignatures,
}

/// Routes a replay into a lane's memory system and sets the colour
/// flushes aside for the members' ports.
struct Tap<'a> {
    mem: &'a mut MemorySystem,
    flushes: &'a mut Vec<(u64, u32)>,
}

impl GpuHooks for Tap<'_> {
    fn vertex_fetch(&mut self, addr: u64, bytes: u32) {
        self.mem.vertex_fetch(addr, bytes);
    }
    fn param_write(&mut self, addr: u64, bytes: u32) {
        self.mem.param_write(addr, bytes);
    }
    fn param_read(&mut self, addr: u64, bytes: u32) {
        self.mem.param_read(addr, bytes);
    }
    fn texel_fetch(&mut self, unit: u8, addr: u64, bytes: u32) {
        self.mem.texel_fetch(unit, addr, bytes);
    }
    fn texel_run(&mut self, unit: u8, addr: u64, bytes: u32, n: u32) {
        self.mem.texel_run(unit, addr, bytes, n);
    }
    fn color_flush(&mut self, addr: u64, bytes: u32) {
        self.flushes.push((addr, bytes));
    }
}

/// Replays `events` into `lane` once and returns the drained epoch, with
/// the colour flushes left in `flushes`.
fn replay(lane: &mut Lane, events: &[Event], flushes: &mut Vec<(u64, u32)>) -> MemEpoch {
    flushes.clear();
    let mut tap = Tap {
        mem: &mut lane.mem,
        flushes,
    };
    replay_events(events, &mut tap, true);
    lane.mem.take_epoch()
}

/// The baseline, TE and RE consumers of one render key and the lanes that
/// feed them (see the module docs). Consumers are added before the first
/// frame; each is identified by the index its `add_*` call returned.
#[derive(Default)]
pub(crate) struct Lanes {
    consumers: Vec<Consumer>,
    lanes: Vec<Lane>,
    units: Vec<SharedUnit>,
    /// Per consumer, its decision on the current tile.
    decisions: Vec<Decision>,
    /// The replayed stream's colour flushes.
    flushes: Vec<(u64, u32)>,
    tile_replays: u64,
}

impl Lanes {
    /// A baseline consumer under `opts`' timing.
    pub(crate) fn add_baseline(&mut self, opts: &SimOptions) -> usize {
        self.add(Key::Baseline(lane_key(&opts.timing)), opts, |_| {
            Role::Baseline
        })
    }

    /// A TE consumer under `opts`' timing and compare distance.
    pub(crate) fn add_te(&mut self, opts: &SimOptions, tile_count: u32) -> usize {
        let distance = opts.compare_distance;
        self.add(Key::Te(lane_key(&opts.timing), distance), opts, |_| {
            Role::Te(TransactionElimination::new(tile_count, distance))
        })
    }

    /// An RE consumer under `opts`' timing, signature width, compare
    /// distance and refresh period.
    pub(crate) fn add_re(&mut self, opts: &SimOptions, tile_count: u32) -> usize {
        let key = Key::Re {
            timing: opts.timing,
            sig_bits: opts.sig_bits,
            distance: opts.compare_distance,
            refresh_period: opts.refresh_period,
        };
        self.add(key, opts, |units| {
            let depth = opts.timing.ot_queue_entries;
            let unit = match units.iter().position(|u| u.depth == depth) {
                Some(u) => u,
                None => {
                    units.push(SharedUnit {
                        depth,
                        tile_count,
                        unit: SignatureUnit::new(depth as usize),
                        frame: FrameSignatures {
                            sigs: Vec::new(),
                            stats: SignatureUnitStats::default(),
                        },
                    });
                    units.len() - 1
                }
            };
            let distance = opts.compare_distance;
            Role::Re(Box::new(Re {
                unit,
                su_stats: SignatureUnitStats::default(),
                sig_buffer: SignatureBuffer::with_sig_bits(tile_count, distance, opts.sig_bits),
                sigs: Vec::new(),
                tile_count,
                distance,
                refresh_period: opts.refresh_period,
                re_disabled_for: 0,
                re_enabled: true,
                re_frames_disabled: 0,
                false_positives: 0,
                frame_skip_mark: 0,
                inputs_eq: None,
            }))
        })
    }

    /// The consumer keyed `key`, built with `role` on first use.
    fn add(
        &mut self,
        key: Key,
        opts: &SimOptions,
        role: impl FnOnce(&mut Vec<SharedUnit>) -> Role,
    ) -> usize {
        if let Some(c) = self.consumers.iter().position(|c| c.key == key) {
            return c;
        }
        let c = self.consumers.len();
        let lane = lane_key(&opts.timing);
        match self.lanes.iter_mut().find(|l| l.key == lane) {
            Some(l) => l.members.push(c),
            None => self.lanes.push(Lane {
                key: lane,
                mem: MemorySystem::new(opts.timing),
                members: vec![c],
            }),
        }
        let role = role(&mut self.units);
        self.consumers.push(Consumer {
            key,
            tcfg: opts.timing,
            machine: Machine::with_mem(ColorPort {
                dram: Dram::new(opts.timing),
                bytes: 0,
                busy_mark: 0,
            }),
            role,
            frame_raster_mark: 0,
        });
        self.decisions.push(Decision::Render { flush: true });
        c
    }

    /// Number of consumers.
    pub(crate) fn len(&self) -> usize {
        self.consumers.len()
    }

    /// Number of lanes: one per distinct [`lane_key`] at the start, plus
    /// one per fork since.
    #[cfg(test)]
    pub(crate) fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Consumer `c`'s pass name.
    pub(crate) fn name(&self, c: usize) -> &'static str {
        match self.consumers[c].role {
            Role::Baseline => "baseline",
            Role::Te(_) => "te",
            Role::Re(_) => "re",
        }
    }

    /// The report section consumer `c` owns.
    pub(crate) fn section(&self, c: usize) -> Section {
        match self.consumers[c].role {
            Role::Baseline => Section::Baseline,
            Role::Te(_) => Section::Te,
            Role::Re(_) => Section::Re,
        }
    }

    /// RE consumer `c`'s signature verdict on the current tile (`None`
    /// for other consumers).
    pub(crate) fn inputs_eq(&self, c: usize) -> Option<bool> {
        match &self.consumers[c].role {
            Role::Re(re) => re.inputs_eq,
            _ => None,
        }
    }

    /// Starts frame `index`: replays its geometry into every lane once,
    /// charges every consumer, and signs it once per OT depth.
    pub(crate) fn begin_frame(&mut self, index: usize, frame: &FrameLog) {
        for lane in &mut self.lanes {
            let epoch = replay(lane, &frame.geo_events, &mut self.flushes);
            for &c in &lane.members {
                let consumer = &mut self.consumers[c];
                consumer.machine.mem.flush(&self.flushes);
                let epoch = consumer.machine.mem.epoch(epoch);
                consumer
                    .machine
                    .charge_geometry_epoch(&consumer.tcfg, &frame.geo.stats, &epoch);
            }
        }
        for u in &mut self.units {
            u.frame = u.unit.process_frame(&frame.geo, u.tile_count);
        }
        for consumer in &mut self.consumers {
            consumer.begin_frame(index, frame, &self.units);
        }
    }

    /// Evaluates one tile: every consumer decides, lanes whose members
    /// disagree fork, and each lane with a rendering member replays the
    /// tile once. `colors_eq_cmp(d)` is the tile's ground-truth color
    /// equality `d` frames back (RE's false-positive check).
    pub(crate) fn tile(
        &mut self,
        tile_id: u32,
        tile: &TileLog,
        colors_eq_cmp: impl Fn(usize) -> Option<bool>,
    ) {
        for (consumer, d) in self.consumers.iter_mut().zip(&mut self.decisions) {
            *d = consumer.decide(tile_id, tile, &colors_eq_cmp);
        }
        let decisions = &self.decisions;
        for l in 0..self.lanes.len() {
            let lane = &mut self.lanes[l];
            if lane.members.iter().any(|&c| decisions[c] == Decision::Skip) {
                let (skip, render): (Vec<usize>, Vec<usize>) = lane
                    .members
                    .iter()
                    .partition(|&&c| decisions[c] == Decision::Skip);
                if render.is_empty() {
                    continue;
                }
                // Fork before the replay: the skipping members keep the
                // state the lane has between tiles.
                let fork = Lane {
                    key: lane.key,
                    mem: lane.mem.clone(),
                    members: skip,
                };
                lane.members = render;
                self.lanes.push(fork);
            }
            let lane = &mut self.lanes[l];
            let epoch = replay(lane, &tile.events, &mut self.flushes);
            self.tile_replays += 1;
            for &c in &lane.members {
                let flush = decisions[c] == Decision::Render { flush: true };
                self.consumers[c].charge_tile(
                    epoch,
                    &tile.stats,
                    flush.then_some(self.flushes.as_slice()),
                );
            }
        }
    }

    /// Ends the frame; consumer `c` writes its fields of `samples[c]`.
    pub(crate) fn end_frame(&mut self, samples: &mut [FrameSample]) {
        for (consumer, sample) in self.consumers.iter_mut().zip(samples) {
            consumer.end_frame(sample);
        }
    }

    /// Settles every consumer; consumer `c` writes its section of
    /// `reports[c]`.
    pub(crate) fn finish(self, reports: &mut [RunReport]) {
        re_obs::metrics::counter(re_obs::names::TILE_REPLAYS).add(self.tile_replays);
        let mut lane_of = vec![0; self.consumers.len()];
        for (l, lane) in self.lanes.iter().enumerate() {
            for &c in &lane.members {
                lane_of[c] = l;
            }
        }
        for ((consumer, lane), report) in self.consumers.into_iter().zip(lane_of).zip(reports) {
            consumer.finish(&self.lanes[lane].mem, report);
        }
    }
}
