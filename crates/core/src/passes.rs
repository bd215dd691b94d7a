//! Stage B of the simulator: replay a [`RenderLog`] through technique
//! passes.
//!
//! An [`EvalGroup`] drives [`TechniquePass`] objects over a recorded
//! render, frame by frame and tile by tile, for one or more cells of the
//! same render key at once: each distinct pass (keyed on the
//! [`SimOptions`] fields it reads) runs once and its results are shared
//! by every cell that agrees on those fields. [`Evaluation`] is a group of
//! one. Each pass owns its own machine state (memory system, energy
//! model, signature buffers, …) and contributes its section of the final
//! [`RunReport`]; passes never touch pixels — the ground-truth color
//! verdicts come interned from the log.
//!
//! The default stack reproduces the paper's evaluation exactly:
//!
//! 1. [`BaselinePass`] — renders everything; the denominator.
//! 2. [`RePass`] — Rendering Elimination: Signature Unit timing, Signature
//!    Buffer compares, skip decisions, false-positive cross-checks.
//! 3. [`RedundancyPass`] — ground-truth tile classification (Figs. 2, 15a);
//!    reads the RE verdict published in [`TileCtx`].
//! 4. [`TePass`] — Transaction Elimination flush elision.
//! 5. [`MemoPass`] — PFR-aided fragment memoization counters.
//!
//! # Adding a technique
//!
//! Implement [`TechniquePass`], keep any cross-frame state in your struct,
//! and either append it to the default stack or build a custom stack with
//! [`Evaluation::with_passes`]. A pass that depends on another pass's
//! per-tile verdict (as the classifier depends on RE) reads it from
//! [`TileCtx`] — order in the stack is evaluation order.

use re_gpu::stats::{GeometryStats, TileStats};
use re_timing::energy::EnergyModel;
use re_timing::{MemorySystem, TimingConfig};

use crate::memo::FragmentMemo;
use crate::record::replay_events;
use crate::redundancy::{classify, TileClassCounts};
use crate::render::{FrameLog, RenderLog, TileLog};
use crate::signature::{SignatureBuffer, SignatureUnit, SignatureUnitStats};
use crate::sim::{FrameSample, RunReport, SimOptions, TechniqueReport};
use crate::te::TransactionElimination;

/// Per-technique mutable machine state: a cache hierarchy + DRAM fed by
/// replay, an energy model, and cycle/tile accounting.
pub struct Machine {
    /// The technique's private memory system.
    pub mem: MemorySystem,
    /// The technique's energy accumulator.
    pub energy: EnergyModel,
    /// Geometry Pipeline cycles charged so far.
    pub geometry_cycles: u64,
    /// Raster Pipeline cycles charged so far.
    pub raster_cycles: u64,
    /// Tiles dispatched to the Raster Pipeline.
    pub tiles_rendered: u64,
    /// Tiles eliminated before rasterization.
    pub tiles_skipped: u64,
    /// Fragments shaded.
    pub fragments_shaded: u64,
}

impl Machine {
    /// A fresh machine under `cfg`.
    pub fn new(cfg: TimingConfig) -> Self {
        Machine {
            mem: MemorySystem::new(cfg),
            energy: EnergyModel::new(),
            geometry_cycles: 0,
            raster_cycles: 0,
            tiles_rendered: 0,
            tiles_skipped: 0,
            fragments_shaded: 0,
        }
    }

    /// Charges one frame's geometry work (call after replaying the frame's
    /// geometry events).
    pub fn charge_geometry(&mut self, cfg: &TimingConfig, g: &GeometryStats) {
        let epoch = self.mem.take_epoch();
        self.geometry_cycles += re_timing::geometry_cycles(cfg, g, &epoch);
        self.energy.add_geometry(g);
    }

    /// Charges one rendered tile (call after replaying the tile's events).
    pub fn charge_tile(&mut self, cfg: &TimingConfig, t: &TileStats) {
        let epoch = self.mem.take_epoch();
        self.raster_cycles += re_timing::raster_tile_cycles(cfg, t, &epoch);
        self.energy.add_raster(t, cfg);
        self.tiles_rendered += 1;
        self.fragments_shaded += t.fragments_shaded;
    }

    /// Settles SRAM/DRAM/leakage energy and produces the report section.
    pub fn finish(mut self) -> TechniqueReport {
        for (size, n) in self.mem.sram_accesses() {
            self.energy.add_sram(size, n);
        }
        self.energy.add_dram(self.mem.dram_stats());
        self.energy
            .add_cycles(self.geometry_cycles + self.raster_cycles);
        TechniqueReport {
            geometry_cycles: self.geometry_cycles,
            raster_cycles: self.raster_cycles,
            energy: self.energy.breakdown(),
            dram: *self.mem.dram_stats(),
            tiles_rendered: self.tiles_rendered,
            tiles_skipped: self.tiles_skipped,
            fragments_shaded: self.fragments_shaded,
        }
    }
}

/// Shared per-tile facts: ground-truth color verdicts computed by the
/// [`Evaluation`] driver, plus verdicts published by earlier passes for
/// later ones (RE's input-match feeds the redundancy classifier).
#[derive(Debug, Clone, Copy, Default)]
pub struct TileCtx {
    /// Whether the tile's colors equal those `compare_distance` frames ago
    /// (`None` while history is too short).
    pub colors_eq_cmp: Option<bool>,
    /// Whether the tile's colors equal those 1 frame ago (Fig. 2).
    pub colors_eq_d1: Option<bool>,
    /// RE's signature verdict for this tile, set by [`RePass`].
    pub inputs_eq: Option<bool>,
}

/// One technique's evaluation logic, driven tile by tile over a render log.
pub trait TechniquePass {
    /// Display name (diagnostics).
    fn name(&self) -> &'static str;

    /// Starts frame `index`: replay geometry, update per-frame state.
    fn begin_frame(&mut self, index: usize, frame: &FrameLog);

    /// Evaluates one tile. Passes run in stack order; later passes see the
    /// `ctx` fields earlier ones published.
    fn tile(&mut self, frame: &FrameLog, tile_id: u32, tile: &TileLog, ctx: &mut TileCtx);

    /// Ends the frame; contribute this frame's point of the time series.
    fn end_frame(&mut self, frame: &FrameLog, sample: &mut FrameSample);

    /// Settles totals into the report.
    fn finish(self: Box<Self>, report: &mut RunReport);
}

/// The baseline GPU: renders every tile, skips nothing.
pub struct BaselinePass {
    tcfg: TimingConfig,
    machine: Machine,
    frame_raster_mark: u64,
}

impl BaselinePass {
    /// A baseline machine under `opts`' timing config.
    pub fn new(opts: &SimOptions) -> Self {
        BaselinePass {
            tcfg: opts.timing,
            machine: Machine::new(opts.timing),
            frame_raster_mark: 0,
        }
    }
}

impl TechniquePass for BaselinePass {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn begin_frame(&mut self, _index: usize, frame: &FrameLog) {
        self.frame_raster_mark = self.machine.raster_cycles;
        replay_events(&frame.geo_events, &mut self.machine.mem, true);
        self.machine.charge_geometry(&self.tcfg, &frame.geo.stats);
    }

    fn tile(&mut self, _frame: &FrameLog, _tile_id: u32, tile: &TileLog, _ctx: &mut TileCtx) {
        replay_events(&tile.events, &mut self.machine.mem, true);
        self.machine.charge_tile(&self.tcfg, &tile.stats);
    }

    fn end_frame(&mut self, _frame: &FrameLog, sample: &mut FrameSample) {
        sample.baseline_raster_cycles = self.machine.raster_cycles - self.frame_raster_mark;
    }

    fn finish(self: Box<Self>, report: &mut RunReport) {
        report.baseline = self.machine.finish();
    }
}

/// Rendering Elimination: Signature Unit timing, Signature Buffer
/// compares, skip decisions and false-positive cross-checks.
pub struct RePass {
    tcfg: TimingConfig,
    machine: Machine,
    su: SignatureUnit,
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
    frame_raster_mark: u64,
}

impl RePass {
    /// RE state for `tile_count` tiles under `opts`.
    pub fn new(opts: &SimOptions, tile_count: u32) -> Self {
        let distance = opts.compare_distance;
        RePass {
            tcfg: opts.timing,
            machine: Machine::new(opts.timing),
            su: SignatureUnit::new(opts.timing.ot_queue_entries as usize),
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
            frame_raster_mark: 0,
        }
    }
}

impl TechniquePass for RePass {
    fn name(&self) -> &'static str {
        "re"
    }

    fn begin_frame(&mut self, index: usize, frame: &FrameLog) {
        self.frame_skip_mark = self.machine.tiles_skipped;
        self.frame_raster_mark = self.machine.raster_cycles;
        if frame.re_unsafe {
            self.re_disabled_for = self.re_disabled_for.max(self.distance + 1);
        }
        let refresh_frame = self
            .refresh_period
            .is_some_and(|p| p > 0 && index > 0 && index.is_multiple_of(p));
        self.re_enabled = self.re_disabled_for == 0 && !refresh_frame;
        if !self.re_enabled {
            self.re_frames_disabled += 1;
        }

        replay_events(&frame.geo_events, &mut self.machine.mem, true);
        self.machine.charge_geometry(&self.tcfg, &frame.geo.stats);

        // The Signature Unit overlaps with geometry; only stalls count as
        // extra time.
        let sigs = self.su.process_frame(&frame.geo, self.tile_count);
        self.machine.geometry_cycles += sigs.stats.stall_cycles;
        self.su_stats.merge(&sigs.stats);
        self.sigs = sigs.sigs;
    }

    fn tile(&mut self, _frame: &FrameLog, tile_id: u32, tile: &TileLog, ctx: &mut TileCtx) {
        let inputs_eq = self.sig_buffer.matches(&self.sigs, tile_id);
        ctx.inputs_eq = Some(inputs_eq);
        self.machine.raster_cycles += self.tcfg.sig_compare_cycles;
        if self.re_enabled && inputs_eq {
            self.machine.tiles_skipped += 1;
            if ctx.colors_eq_cmp == Some(false) {
                self.false_positives += 1;
            }
        } else {
            replay_events(&tile.events, &mut self.machine.mem, true);
            self.machine.charge_tile(&self.tcfg, &tile.stats);
        }
    }

    fn end_frame(&mut self, _frame: &FrameLog, sample: &mut FrameSample) {
        sample.tiles_skipped = (self.machine.tiles_skipped - self.frame_skip_mark) as u32;
        sample.re_raster_cycles = self.machine.raster_cycles - self.frame_raster_mark;
        self.sig_buffer.push(std::mem::take(&mut self.sigs));
        self.re_disabled_for = self.re_disabled_for.saturating_sub(1);
    }

    fn finish(mut self: Box<Self>, report: &mut RunReport) {
        // RE hardware energy: Signature Buffer, CRC LUTs, bitmap, OT queue.
        let sigbuf_bytes = self.sig_buffer.storage_bytes() as u32;
        self.machine.energy.add_sram(
            sigbuf_bytes,
            self.su_stats.sig_buffer_accesses + self.sig_buffer.compare_reads,
        );
        self.machine
            .energy
            .add_sram(1024, self.su_stats.lut_accesses);
        self.machine.energy.add_sram(
            self.tile_count.div_ceil(8).max(1),
            self.su_stats.bitmap_accesses,
        );
        self.machine
            .energy
            .add_sram(64, self.su_stats.ot_pushes * 2); // queue push + pop
        report.re = self.machine.finish();
        report.su_stats = self.su_stats;
        report.false_positives = self.false_positives;
        report.re_frames_disabled = self.re_frames_disabled;
    }
}

/// Ground-truth tile classification (Figs. 2 and 15a) — consumes the RE
/// verdict published in [`TileCtx`].
#[derive(Default)]
pub struct RedundancyPass {
    classes: TileClassCounts,
    equal_tiles_dist1: u64,
    classified_dist1: u64,
}

impl RedundancyPass {
    /// A fresh classifier.
    pub fn new() -> Self {
        RedundancyPass::default()
    }
}

impl TechniquePass for RedundancyPass {
    fn name(&self) -> &'static str {
        "redundancy"
    }

    fn begin_frame(&mut self, _index: usize, _frame: &FrameLog) {}

    fn tile(&mut self, _frame: &FrameLog, _tile_id: u32, _tile: &TileLog, ctx: &mut TileCtx) {
        if let Some(eq) = ctx.colors_eq_d1 {
            self.classified_dist1 += 1;
            if eq {
                self.equal_tiles_dist1 += 1;
            }
        }
        if let (Some(ceq), Some(ieq)) = (ctx.colors_eq_cmp, ctx.inputs_eq) {
            classify(&mut self.classes, ceq, ieq);
        }
    }

    fn end_frame(&mut self, _frame: &FrameLog, _sample: &mut FrameSample) {}

    fn finish(self: Box<Self>, report: &mut RunReport) {
        report.classes = self.classes;
        report.equal_tiles_dist1 = self.equal_tiles_dist1;
        report.classified_dist1 = self.classified_dist1;
    }
}

/// Transaction Elimination: hashes rendered colors, may drop the flush.
pub struct TePass {
    tcfg: TimingConfig,
    machine: Machine,
    te: TransactionElimination,
}

impl TePass {
    /// TE state for `tile_count` tiles under `opts`.
    pub fn new(opts: &SimOptions, tile_count: u32) -> Self {
        TePass {
            tcfg: opts.timing,
            machine: Machine::new(opts.timing),
            te: TransactionElimination::new(tile_count, opts.compare_distance),
        }
    }
}

impl TechniquePass for TePass {
    fn name(&self) -> &'static str {
        "te"
    }

    fn begin_frame(&mut self, _index: usize, frame: &FrameLog) {
        replay_events(&frame.geo_events, &mut self.machine.mem, true);
        self.machine.charge_geometry(&self.tcfg, &frame.geo.stats);
    }

    fn tile(&mut self, _frame: &FrameLog, tile_id: u32, tile: &TileLog, _ctx: &mut TileCtx) {
        let skip_flush = self
            .te
            .observe_signature(tile_id, tile.te_sig, tile.color_bytes);
        replay_events(&tile.events, &mut self.machine.mem, !skip_flush);
        let mut stats = tile.stats;
        if skip_flush {
            stats.color_bytes_flushed = 0;
        }
        self.machine.charge_tile(&self.tcfg, &stats);
    }

    fn end_frame(&mut self, _frame: &FrameLog, _sample: &mut FrameSample) {
        self.te.end_frame();
    }

    fn finish(mut self: Box<Self>, report: &mut RunReport) {
        // TE hardware energy: CRC unit + its signature buffer.
        self.machine.energy.add_sram(
            self.te.storage_bytes() as u32,
            self.te.stats.sig_buffer_accesses,
        );
        self.machine
            .energy
            .add_sram(1024, self.te.stats.lut_accesses);
        report.te_stats = self.te.stats;
        report.te = self.machine.finish();
    }
}

/// PFR-aided fragment memoization fragment counts (ISCA'14 baseline).
pub struct MemoPass {
    memo: FragmentMemo,
    current: Vec<Vec<u32>>,
}

impl MemoPass {
    /// Memoization state for `tile_count` tiles with the LUT capacity
    /// `opts.memo_kb` selects (the paper's 16 KiB by default).
    pub fn new(opts: &SimOptions, tile_count: u32) -> Self {
        MemoPass {
            memo: FragmentMemo::with_lut(crate::memo::MemoLut::with_kb(opts.memo_kb)),
            current: vec![Vec::new(); tile_count as usize],
        }
    }
}

impl TechniquePass for MemoPass {
    fn name(&self) -> &'static str {
        "memo"
    }

    fn begin_frame(&mut self, _index: usize, frame: &FrameLog) {
        self.current = vec![Vec::new(); frame.tiles.len()];
    }

    fn tile(&mut self, _frame: &FrameLog, tile_id: u32, tile: &TileLog, _ctx: &mut TileCtx) {
        self.current[tile_id as usize] = tile.frag_hashes().collect();
    }

    fn end_frame(&mut self, _frame: &FrameLog, _sample: &mut FrameSample) {
        self.memo.push_frame(std::mem::take(&mut self.current));
    }

    fn finish(mut self: Box<Self>, report: &mut RunReport) {
        self.memo.finish();
        report.memo = self.memo.stats;
    }
}

/// The paper's full evaluation stack for `opts` over `tile_count` tiles.
pub fn default_passes(opts: &SimOptions, tile_count: u32) -> Vec<Box<dyn TechniquePass>> {
    vec![
        Box::new(BaselinePass::new(opts)),
        Box::new(RePass::new(opts, tile_count)),
        Box::new(RedundancyPass::new()),
        Box::new(TePass::new(opts, tile_count)),
        Box::new(MemoPass::new(opts, tile_count)),
    ]
}

/// What a pass run reads from a cell's [`SimOptions`]: two cells of one
/// render key whose options agree on a pass's key get bit-identical output
/// from that pass, so an [`EvalGroup`] runs it once for both.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PassKey {
    /// [`BaselinePass`]: the whole timing config.
    Baseline(TimingConfig),
    /// [`RePass`] plus the [`RedundancyPass`] reading its verdicts.
    Re {
        timing: TimingConfig,
        sig_bits: u32,
        distance: usize,
        refresh_period: Option<usize>,
    },
    /// [`TePass`]: timing and compare distance.
    Te(TimingConfig, usize),
    /// [`MemoPass`]: the LUT capacity.
    Memo(u32),
    /// A caller-built stack ([`Evaluation::with_passes`]): never shared,
    /// and it owns the whole report.
    Stack,
}

/// Passes sharing one [`TileCtx`] per tile, in stack order.
struct Chain {
    key: PassKey,
    passes: Vec<Box<dyn TechniquePass>>,
    /// Compare distance of the chain's `colors_eq_cmp`.
    distance: usize,
    per_frame: Vec<FrameSample>,
}

impl Chain {
    fn new(key: PassKey, distance: usize, passes: Vec<Box<dyn TechniquePass>>) -> Self {
        Chain {
            key,
            passes,
            distance,
            per_frame: Vec::new(),
        }
    }

    /// Copies the report fields and `per_frame` fields this chain's passes
    /// own from `src` (the chain's own settled report) into `dst`.
    fn copy_section(&self, src: &RunReport, dst: &mut RunReport) {
        let frames = dst.per_frame.iter_mut().zip(&src.per_frame);
        match self.key {
            PassKey::Stack => *dst = src.clone(),
            PassKey::Baseline(_) => {
                dst.baseline = src.baseline.clone();
                for (d, s) in frames {
                    d.baseline_raster_cycles = s.baseline_raster_cycles;
                }
            }
            PassKey::Re { .. } => {
                dst.re = src.re.clone();
                dst.su_stats = src.su_stats;
                dst.false_positives = src.false_positives;
                dst.re_frames_disabled = src.re_frames_disabled;
                dst.classes = src.classes;
                dst.equal_tiles_dist1 = src.equal_tiles_dist1;
                dst.classified_dist1 = src.classified_dist1;
                for (d, s) in frames {
                    d.tiles_skipped = s.tiles_skipped;
                    d.re_raster_cycles = s.re_raster_cycles;
                }
            }
            PassKey::Te(..) => {
                dst.te = src.te.clone();
                dst.te_stats = src.te_stats;
            }
            PassKey::Memo(_) => dst.memo = src.memo,
        }
    }
}

/// Index of the chain keyed `key`, building it with `build` on first use.
fn share(
    chains: &mut Vec<Chain>,
    key: PassKey,
    distance: usize,
    build: impl FnOnce() -> Vec<Box<dyn TechniquePass>>,
) -> usize {
    if let Some(i) = chains.iter().position(|c| c.key == key) {
        return i;
    }
    chains.push(Chain::new(key, distance, build()));
    chains.len() - 1
}

/// Ground-truth color equality of tile `t` against `distance` frames ago
/// (`None` while `history` is too short).
fn colors_eq(
    history: &std::collections::VecDeque<Vec<u32>>,
    frame: &FrameLog,
    t: usize,
    distance: usize,
) -> Option<bool> {
    if history.len() < distance {
        return None;
    }
    let past = &history[history.len() - distance];
    Some(past[t] == frame.tiles[t].color_id)
}

fn empty_report(name: &str, frames: usize, tile_count: u32) -> RunReport {
    RunReport {
        name: name.to_owned(),
        frames,
        tile_count,
        baseline: TechniqueReport::default(),
        re: TechniqueReport::default(),
        te: TechniqueReport::default(),
        memo: crate::memo::MemoStats::default(),
        classes: TileClassCounts::default(),
        equal_tiles_dist1: 0,
        classified_dist1: 0,
        false_positives: 0,
        su_stats: SignatureUnitStats::default(),
        te_stats: crate::te::TeStats::default(),
        re_frames_disabled: 0,
        per_frame: vec![FrameSample::default(); frames],
    }
}

/// The Stage B driver: evaluates several cells of one render key in
/// lockstep over a single stream of [`FrameLog`]s, running each distinct
/// pass once.
///
/// Every cell's default stack is split into chains keyed on the
/// [`SimOptions`] fields their constructors read — baseline on the whole
/// timing config; RE and its classifier on timing, signature width,
/// compare distance and refresh period; TE on timing and compare
/// distance; memo on the LUT size — and cells that agree on a key share
/// that chain. One color-id history, as deep as the largest compare
/// distance, feeds every chain's [`TileCtx`]. [`finish`](Self::finish)
/// assembles one [`RunReport`] per cell from the chains it uses, each
/// section and `per_frame` field taken from the pass that owns it, so the
/// reports are bit-identical to evaluating each cell on its own.
///
/// Incremental by design — [`crate::Simulator::run`] feeds frames as Stage
/// A produces them (through [`Evaluation`], a group of one), while the
/// sweep executor drives a render key's cells from one decoded `.relog`
/// stream or one in-memory [`RenderLog`].
pub struct EvalGroup {
    tile_count: u32,
    chains: Vec<Chain>,
    /// Per cell, the indexes of the chains its report is assembled from.
    cells: Vec<Vec<usize>>,
    /// Interned color ids of the last `depth` frames.
    color_ids: std::collections::VecDeque<Vec<u32>>,
    depth: usize,
    frames: usize,
}

impl EvalGroup {
    /// A group evaluating one cell per entry of `opts` under the default
    /// (paper) pass stack. Every entry must describe the same render (the
    /// same `gpu` config, `tile_count` tiles); duplicates are allowed.
    pub fn new(opts: &[SimOptions], tile_count: u32) -> Self {
        let mut chains: Vec<Chain> = Vec::new();
        let cells = opts
            .iter()
            .map(|o| {
                let d = o.compare_distance;
                let re = PassKey::Re {
                    timing: o.timing,
                    sig_bits: o.sig_bits,
                    distance: d,
                    refresh_period: o.refresh_period,
                };
                vec![
                    share(&mut chains, PassKey::Baseline(o.timing), d, || {
                        vec![Box::new(BaselinePass::new(o))]
                    }),
                    share(&mut chains, re, d, || {
                        vec![
                            Box::new(RePass::new(o, tile_count)),
                            Box::new(RedundancyPass::new()),
                        ]
                    }),
                    share(&mut chains, PassKey::Te(o.timing, d), d, || {
                        vec![Box::new(TePass::new(o, tile_count))]
                    }),
                    share(&mut chains, PassKey::Memo(o.memo_kb), d, || {
                        vec![Box::new(MemoPass::new(o, tile_count))]
                    }),
                ]
            })
            .collect();
        EvalGroup::from_chains(tile_count, chains, cells)
    }

    /// A group of one cell over a caller-built stack whose
    /// `colors_eq_cmp` compares `compare_distance` frames back.
    fn with_stack(
        compare_distance: usize,
        tile_count: u32,
        passes: Vec<Box<dyn TechniquePass>>,
    ) -> Self {
        let chain = Chain::new(PassKey::Stack, compare_distance, passes);
        EvalGroup::from_chains(tile_count, vec![chain], vec![vec![0]])
    }

    fn from_chains(tile_count: u32, chains: Vec<Chain>, cells: Vec<Vec<usize>>) -> Self {
        let depth = chains.iter().map(|c| c.distance).max().unwrap_or(0).max(1);
        EvalGroup {
            tile_count,
            chains,
            cells,
            color_ids: std::collections::VecDeque::new(),
            depth,
            frames: 0,
        }
    }

    /// Names of the passes this group runs, one entry per distinct pass
    /// (a pass shared by several cells appears once).
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.chains
            .iter()
            .flat_map(|c| c.passes.iter().map(|p| p.name()))
            .collect()
    }

    /// Feeds one recorded frame through every distinct pass.
    ///
    /// # Panics
    /// Panics if the frame's tile count does not match the group's.
    pub fn push_frame(&mut self, frame: &FrameLog) {
        assert_eq!(
            frame.tiles.len(),
            self.tile_count as usize,
            "frame tile count mismatch"
        );
        let index = self.frames;
        for chain in &mut self.chains {
            for pass in &mut chain.passes {
                pass.begin_frame(index, frame);
            }
        }
        for t in 0..self.tile_count {
            let tile = &frame.tiles[t as usize];
            let colors_eq_d1 = colors_eq(&self.color_ids, frame, t as usize, 1);
            for chain in &mut self.chains {
                let mut ctx = TileCtx {
                    colors_eq_cmp: colors_eq(&self.color_ids, frame, t as usize, chain.distance),
                    colors_eq_d1,
                    inputs_eq: None,
                };
                for pass in &mut chain.passes {
                    pass.tile(frame, t, tile, &mut ctx);
                }
            }
        }
        for chain in &mut self.chains {
            let mut sample = FrameSample::default();
            for pass in &mut chain.passes {
                pass.end_frame(frame, &mut sample);
            }
            chain.per_frame.push(sample);
        }
        self.frames += 1;

        // Commit this frame's color ids, retiring the oldest: a distance-d
        // compare sees exactly the history a depth-d window would hold.
        if self.color_ids.len() == self.depth {
            self.color_ids.pop_front();
        }
        self.color_ids
            .push_back(frame.tiles.iter().map(|t| t.color_id).collect());
    }

    /// Settles every pass and assembles one report per cell, in the order
    /// of the options the group was built from.
    pub fn finish(self, name: &str) -> Vec<RunReport> {
        // Registry counters behind the sweep's `metrics.json`: one
        // evaluation per cell report, one execution per pass actually run.
        re_obs::metrics::counter(re_obs::names::EVALUATIONS).add(self.cells.len() as u64);
        re_obs::metrics::counter(re_obs::names::EVAL_PASSES)
            .add(self.chains.iter().map(|c| c.passes.len() as u64).sum());
        let (frames, tile_count) = (self.frames, self.tile_count);
        let settled: Vec<(Chain, RunReport)> = self
            .chains
            .into_iter()
            .map(|mut chain| {
                let mut report = empty_report(name, frames, tile_count);
                report.per_frame = std::mem::take(&mut chain.per_frame);
                for pass in std::mem::take(&mut chain.passes) {
                    pass.finish(&mut report);
                }
                (chain, report)
            })
            .collect();
        self.cells
            .iter()
            .map(|chains| {
                let mut report = empty_report(name, frames, tile_count);
                for &c in chains {
                    let (chain, src) = &settled[c];
                    chain.copy_section(src, &mut report);
                }
                report
            })
            .collect()
    }
}

/// Stage B for one cell: an [`EvalGroup`] of one.
pub struct Evaluation {
    group: EvalGroup,
}

impl Evaluation {
    /// An evaluation with the default (paper) pass stack.
    pub fn new(opts: SimOptions, tile_count: u32) -> Self {
        Evaluation {
            group: EvalGroup::new(std::slice::from_ref(&opts), tile_count),
        }
    }

    /// An evaluation over a custom pass stack (stack order = evaluation
    /// order; see the module docs on pass dependencies).
    pub fn with_passes(
        opts: SimOptions,
        tile_count: u32,
        passes: Vec<Box<dyn TechniquePass>>,
    ) -> Self {
        Evaluation {
            group: EvalGroup::with_stack(opts.compare_distance, tile_count, passes),
        }
    }

    /// Feeds one recorded frame through every pass.
    ///
    /// # Panics
    /// Panics if the frame's tile count does not match the evaluation's.
    pub fn push_frame(&mut self, frame: &FrameLog) {
        self.group.push_frame(frame);
    }

    /// Settles every pass and assembles the report.
    pub fn finish(self, name: &str) -> RunReport {
        self.group
            .finish(name)
            .pop()
            .expect("an evaluation reports on one cell")
    }
}

/// Replays a complete [`RenderLog`] once for every entry of `opts`,
/// running each distinct pass once ([`EvalGroup`]); reports come back in
/// `opts` order.
///
/// Every `opts[i].gpu` must match the geometry the log was rendered under:
/// the log *is* the render, so only evaluation-side options (timing,
/// signature width, compare distance, refresh, memo LUT) may vary.
///
/// # Panics
/// Panics if any `opts[i].gpu` differs from the log's recorded
/// configuration.
pub fn evaluate_group(log: &RenderLog, opts: &[SimOptions]) -> Vec<RunReport> {
    for o in opts {
        assert_eq!(
            o.gpu, log.config,
            "evaluation gpu config must match the render log's"
        );
    }
    let mut group = EvalGroup::new(opts, log.tile_count());
    for frame in &log.frames {
        group.push_frame(frame);
    }
    group.finish(&log.name)
}

/// Replays a complete [`RenderLog`] under `opts` — the render-once /
/// evaluate-many entry point, a group of one ([`evaluate_group`]).
///
/// # Panics
/// Panics if `opts.gpu` differs from the log's recorded configuration.
pub fn evaluate(log: &RenderLog, opts: &SimOptions) -> RunReport {
    evaluate_group(log, std::slice::from_ref(opts))
        .pop()
        .expect("one report per option set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::render_scene;
    use crate::sim::Scene;
    use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
    use re_gpu::GpuConfig;
    use re_math::{Mat4, Vec4};

    fn cfg() -> GpuConfig {
        GpuConfig {
            width: 64,
            height: 64,
            tile_size: 16,
            ..Default::default()
        }
    }

    struct Tri;
    impl Scene for Tri {
        fn frame(&mut self, _i: usize) -> FrameDesc {
            let verts = [(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5)]
                .iter()
                .map(|&(x, y)| Vertex::new(vec![Vec4::new(x, y, 0.0, 1.0), Vec4::splat(1.0)]))
                .collect();
            let mut frame = FrameDesc::new();
            frame.drawcalls.push(DrawCall {
                state: PipelineState::flat_2d(),
                constants: Mat4::IDENTITY.cols.to_vec(),
                vertices: verts,
            });
            frame
        }
        fn name(&self) -> &str {
            "tri"
        }
    }

    #[test]
    fn one_log_many_evaluations() {
        let log = render_scene(&mut Tri, cfg(), 6);
        let base_opts = SimOptions {
            gpu: cfg(),
            ..SimOptions::default()
        };
        let a = evaluate(&log, &base_opts);
        // Same log, narrower signatures and single buffering: evaluation
        // axes vary without touching the render.
        let b = evaluate(
            &log,
            &SimOptions {
                sig_bits: 8,
                compare_distance: 1,
                ..base_opts
            },
        );
        assert_eq!(a.baseline.total_cycles(), b.baseline.total_cycles());
        assert!(a.re.tiles_skipped > 0);
        assert!(b.re.tiles_skipped >= a.re.tiles_skipped, "d=1 skips sooner");
    }

    #[test]
    fn custom_stack_runs_subset() {
        let log = render_scene(&mut Tri, cfg(), 3);
        let opts = SimOptions {
            gpu: cfg(),
            ..SimOptions::default()
        };
        let mut eval = Evaluation::with_passes(
            opts,
            log.tile_count(),
            vec![Box::new(BaselinePass::new(&opts))],
        );
        for f in &log.frames {
            eval.push_frame(f);
        }
        let report = eval.finish("baseline-only");
        assert!(report.baseline.total_cycles() > 0);
        assert_eq!(report.re.total_cycles(), 0, "no RE pass in the stack");
        assert_eq!(report.classes.total(), 0);
    }

    #[test]
    fn group_runs_each_distinct_pass_once() {
        let log = render_scene(&mut Tri, cfg(), 4);
        let mut opts = Vec::new();
        for sig_bits in [16, 32] {
            for compare_distance in [1, 2] {
                opts.push(SimOptions {
                    gpu: cfg(),
                    sig_bits,
                    compare_distance,
                    ..SimOptions::default()
                });
            }
        }
        let mut group = EvalGroup::new(&opts, log.tile_count());
        let names = group.pass_names();
        let count = |name: &str| names.iter().filter(|n| **n == name).count();
        assert_eq!(
            ["baseline", "re", "redundancy", "te", "memo"].map(count),
            [1, 4, 4, 2, 1],
            "{names:?}"
        );
        // 12 pass runs where four separate evaluations would run 20.
        assert_eq!(names.len(), 12);
        for f in &log.frames {
            group.push_frame(f);
        }
        let reports = group.finish(&log.name);
        for (o, r) in opts.iter().zip(&reports) {
            assert_eq!(r, &evaluate(&log, o));
        }
    }

    #[test]
    #[should_panic(expected = "must match the render log")]
    fn mismatched_gpu_config_panics() {
        let log = render_scene(&mut Tri, cfg(), 1);
        let opts = SimOptions {
            gpu: GpuConfig {
                tile_size: 32,
                ..cfg()
            },
            ..SimOptions::default()
        };
        let _ = evaluate(&log, &opts);
    }
}
