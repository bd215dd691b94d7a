//! Stage B of the simulator: replay a [`RenderLog`] through technique
//! passes.
//!
//! An [`EvalGroup`] drives the technique passes over a recorded render,
//! frame by frame and tile by tile, for one or more cells of the same
//! render key at once, and does each piece of work once however many
//! cells share it:
//!
//! * **Lanes.** Baseline, TE and RE are the passes that replay the
//!   recorded memory accesses. Inside a group they are *consumers* of
//!   lanes: a lane is one memory system (caches and DRAM) that every
//!   consumer with the same timing config shares, and each tile is
//!   replayed into it once. Before a tile replays, each consumer decides
//!   whether it renders it; when a lane's members disagree, the skipping
//!   members fork off with a clone of the lane's memory system. Colour
//!   flushes go to a per-consumer colour port (a Colors-only DRAM), so
//!   TE, which only ever elides flushes, never leaves the baseline's lane.
//!   The lane key ignores the two timing fields only RE reads (OT depth
//!   and signature-compare cost), and one Signature Unit per OT depth
//!   signs each frame for every RE consumer. The crate-private `lanes`
//!   module states why every report stays bit-identical.
//! * **Chains.** The classifier (keyed on the RE consumer whose verdicts
//!   it reads) and memo (keyed on the LUT size) have no memory stream;
//!   each distinct one runs once.
//!
//! [`Evaluation`] is a group of one. Each part contributes its section of
//! the final [`RunReport`]; passes never touch pixels — the ground-truth
//! color verdicts come interned from the log.
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
//! and build a custom stack with [`Evaluation::with_passes`]. A pass that
//! depends on another pass's per-tile verdict (as the classifier depends
//! on RE) reads it from [`TileCtx`] — order in the stack is evaluation
//! order. [`BaselinePass`], [`RePass`] and [`TePass`] stay usable in such
//! a stack: each is a single consumer in a lane of its own, running the
//! same per-tile logic a group runs.

use re_gpu::stats::{GeometryStats, TileStats};
use re_timing::dram::DramStats;
use re_timing::energy::EnergyModel;
use re_timing::{MemEpoch, MemorySystem, TimingConfig};

use crate::lanes::Lanes;
use crate::memo::FragmentMemo;
use crate::redundancy::{classify, TileClassCounts};
use crate::render::{FrameLog, RenderLog, TileLog};
use crate::signature::SignatureUnitStats;
use crate::sim::{FrameSample, RunReport, SimOptions, TechniqueReport};

/// Per-technique mutable machine state: a memory system fed by replay, an
/// energy model, and cycle/tile accounting.
///
/// `M` is the memory system the machine drains its epochs from: a whole
/// [`MemorySystem`] by default. Inside Stage B's lanes, where one memory
/// system feeds several techniques, it is the technique's own colour
/// port, and the charge arithmetic below is shared unchanged.
pub struct Machine<M = MemorySystem> {
    /// The memory system the machine drains its epochs from.
    pub mem: M,
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
        Machine::with_mem(MemorySystem::new(cfg))
    }

    /// Charges one frame's geometry work (call after replaying the frame's
    /// geometry events).
    pub fn charge_geometry(&mut self, cfg: &TimingConfig, g: &GeometryStats) {
        let epoch = self.mem.take_epoch();
        self.charge_geometry_epoch(cfg, g, &epoch);
    }

    /// Charges one rendered tile (call after replaying the tile's events).
    pub fn charge_tile(&mut self, cfg: &TimingConfig, t: &TileStats) {
        let epoch = self.mem.take_epoch();
        self.charge_tile_epoch(cfg, t, &epoch);
    }

    /// Settles SRAM/DRAM/leakage energy and produces the report section.
    pub fn finish(self) -> TechniqueReport {
        let sram = self.mem.sram_accesses();
        let dram = *self.mem.dram_stats();
        self.settle(&sram, &dram)
    }
}

impl<M> Machine<M> {
    /// A fresh machine draining `mem`.
    pub(crate) fn with_mem(mem: M) -> Self {
        Machine {
            mem,
            energy: EnergyModel::new(),
            geometry_cycles: 0,
            raster_cycles: 0,
            tiles_rendered: 0,
            tiles_skipped: 0,
            fragments_shaded: 0,
        }
    }

    /// Charges one frame's geometry work against its drained `epoch`.
    pub(crate) fn charge_geometry_epoch(
        &mut self,
        cfg: &TimingConfig,
        g: &GeometryStats,
        epoch: &MemEpoch,
    ) {
        self.geometry_cycles += re_timing::geometry_cycles(cfg, g, epoch);
        self.energy.add_geometry(g);
    }

    /// Charges one rendered tile against its drained `epoch`.
    pub(crate) fn charge_tile_epoch(
        &mut self,
        cfg: &TimingConfig,
        t: &TileStats,
        epoch: &MemEpoch,
    ) {
        self.raster_cycles += re_timing::raster_tile_cycles(cfg, t, epoch);
        self.energy.add_raster(t, cfg);
        self.tiles_rendered += 1;
        self.fragments_shaded += t.fragments_shaded;
    }

    /// Settles SRAM/DRAM/leakage energy from the memory system's totals
    /// (`sram` as [`MemorySystem::sram_accesses`] reports them) and
    /// produces the report section.
    pub(crate) fn settle(mut self, sram: &[(u32, u64)], dram: &DramStats) -> TechniqueReport {
        for &(size, n) in sram {
            self.energy.add_sram(size, n);
        }
        self.energy.add_dram(dram);
        self.energy
            .add_cycles(self.geometry_cycles + self.raster_cycles);
        TechniqueReport {
            geometry_cycles: self.geometry_cycles,
            raster_cycles: self.raster_cycles,
            energy: self.energy.breakdown(),
            dram: *dram,
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

/// A pass that is one lane consumer in a lane of its own: the technique
/// logic is the lane consumer's, and the pass compares colors at the
/// stack's distance (`ctx.colors_eq_cmp`).
macro_rules! lane_pass {
    ($pass:ident) => {
        impl TechniquePass for $pass {
            fn name(&self) -> &'static str {
                self.0.name(0)
            }

            fn begin_frame(&mut self, index: usize, frame: &FrameLog) {
                self.0.begin_frame(index, frame);
            }

            fn tile(&mut self, _frame: &FrameLog, tile_id: u32, tile: &TileLog, ctx: &mut TileCtx) {
                let colors_eq_cmp = ctx.colors_eq_cmp;
                self.0.tile(tile_id, tile, |_| colors_eq_cmp);
                if let Some(eq) = self.0.inputs_eq(0) {
                    ctx.inputs_eq = Some(eq);
                }
            }

            fn end_frame(&mut self, _frame: &FrameLog, sample: &mut FrameSample) {
                self.0.end_frame(std::slice::from_mut(sample));
            }

            fn finish(self: Box<Self>, report: &mut RunReport) {
                self.0.finish(std::slice::from_mut(report));
            }
        }
    };
}

/// The baseline GPU: renders every tile, skips nothing.
pub struct BaselinePass(Lanes);

impl BaselinePass {
    /// A baseline machine under `opts`' timing config.
    pub fn new(opts: &SimOptions) -> Self {
        let mut lanes = Lanes::default();
        lanes.add_baseline(opts);
        BaselinePass(lanes)
    }
}

lane_pass!(BaselinePass);

/// Rendering Elimination: Signature Unit timing, Signature Buffer
/// compares, skip decisions and false-positive cross-checks.
pub struct RePass(Lanes);

impl RePass {
    /// RE state for `tile_count` tiles under `opts`.
    pub fn new(opts: &SimOptions, tile_count: u32) -> Self {
        let mut lanes = Lanes::default();
        lanes.add_re(opts, tile_count);
        RePass(lanes)
    }
}

lane_pass!(RePass);

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
pub struct TePass(Lanes);

impl TePass {
    /// TE state for `tile_count` tiles under `opts`.
    pub fn new(opts: &SimOptions, tile_count: u32) -> Self {
        let mut lanes = Lanes::default();
        lanes.add_te(opts, tile_count);
        TePass(lanes)
    }
}

lane_pass!(TePass);

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

/// The fields of a [`RunReport`] (and of its `per_frame` samples) that one
/// part of a cell's evaluation owns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Section {
    /// [`BaselinePass`]'s.
    Baseline,
    /// [`RePass`]'s.
    Re,
    /// [`TePass`]'s.
    Te,
    /// [`RedundancyPass`]'s.
    Classifier,
    /// [`MemoPass`]'s.
    Memo,
    /// A caller-built stack's: the whole report.
    Whole,
}

impl Section {
    /// Copies this section from `src` (its owner's settled report) into
    /// `dst`.
    pub(crate) fn copy(self, src: &RunReport, dst: &mut RunReport) {
        let frames = dst.per_frame.iter_mut().zip(&src.per_frame);
        match self {
            Section::Whole => *dst = src.clone(),
            Section::Baseline => {
                dst.baseline = src.baseline.clone();
                for (d, s) in frames {
                    d.baseline_raster_cycles = s.baseline_raster_cycles;
                }
            }
            Section::Re => {
                dst.re = src.re.clone();
                dst.su_stats = src.su_stats;
                dst.false_positives = src.false_positives;
                dst.re_frames_disabled = src.re_frames_disabled;
                for (d, s) in frames {
                    d.tiles_skipped = s.tiles_skipped;
                    d.re_raster_cycles = s.re_raster_cycles;
                }
            }
            Section::Te => {
                dst.te = src.te.clone();
                dst.te_stats = src.te_stats;
            }
            Section::Classifier => {
                dst.classes = src.classes;
                dst.equal_tiles_dist1 = src.equal_tiles_dist1;
                dst.classified_dist1 = src.classified_dist1;
            }
            Section::Memo => dst.memo = src.memo,
        }
    }
}

/// What a chain's passes read: two cells of one render key that agree on
/// a chain's key share it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PassKey {
    /// [`RedundancyPass`] over the verdicts of RE lane consumer `.0`.
    Classifier(usize),
    /// [`MemoPass`]: the LUT capacity.
    Memo(u32),
    /// A caller-built stack ([`Evaluation::with_passes`]): never shared,
    /// and it owns the whole report.
    Stack,
}

/// Passes without a memory stream of their own, sharing one [`TileCtx`]
/// per tile, in stack order.
struct Chain {
    key: PassKey,
    passes: Vec<Box<dyn TechniquePass>>,
    /// Compare distance of the chain's `colors_eq_cmp`.
    distance: usize,
    per_frame: Vec<FrameSample>,
}

impl Chain {
    fn section(&self) -> Section {
        match self.key {
            PassKey::Classifier(_) => Section::Classifier,
            PassKey::Memo(_) => Section::Memo,
            PassKey::Stack => Section::Whole,
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
    chains.push(Chain {
        key,
        passes: build(),
        distance,
        per_frame: Vec::new(),
    });
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

/// The parts a cell's report is assembled from.
struct Parts {
    /// Lane consumers: baseline, RE and TE.
    consumers: Vec<usize>,
    /// Chains: the classifier and memo.
    chains: Vec<usize>,
}

/// The Stage B driver: evaluates several cells of one render key in
/// lockstep over a single stream of [`FrameLog`]s, replaying each distinct
/// memory-access stream once and running each distinct pass once.
///
/// Every cell's default stack is split by what it reads. Its baseline, TE
/// and RE are consumers of the group's lanes (module `lanes`): a baseline
/// per timing config, TE per timing config and compare distance, RE per
/// timing config, signature width, compare distance and refresh period,
/// where baseline and TE ignore the two timing fields only RE reads (OT
/// depth and signature-compare cost). Consumers with one timing config
/// share one memory system — a lane — and each tile is replayed once per
/// lane until their render/skip decisions part. The classifier (keyed on
/// its RE consumer) and memo (keyed on the LUT size) run as chains of
/// passes. One color-id history, as deep as the largest compare distance,
/// feeds every verdict. [`finish`](Self::finish) assembles one
/// [`RunReport`] per cell, each section and `per_frame` field taken from
/// the part that owns it, so the reports are bit-identical to evaluating
/// each cell on its own.
///
/// Incremental by design — [`crate::Simulator::run`] feeds frames as Stage
/// A produces them (through [`Evaluation`], a group of one), while the
/// sweep executor drives a render key's cells from one decoded `.relog`
/// stream or one in-memory [`RenderLog`].
pub struct EvalGroup {
    tile_count: u32,
    lanes: Lanes,
    /// Per lane consumer, its per-frame samples.
    lane_frames: Vec<Vec<FrameSample>>,
    chains: Vec<Chain>,
    cells: Vec<Parts>,
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
        let mut lanes = Lanes::default();
        let mut chains: Vec<Chain> = Vec::new();
        let cells = opts
            .iter()
            .map(|o| {
                let d = o.compare_distance;
                let re = lanes.add_re(o, tile_count);
                Parts {
                    consumers: vec![lanes.add_baseline(o), re, lanes.add_te(o, tile_count)],
                    chains: vec![
                        share(&mut chains, PassKey::Classifier(re), d, || {
                            vec![Box::new(RedundancyPass::new())]
                        }),
                        share(&mut chains, PassKey::Memo(o.memo_kb), d, || {
                            vec![Box::new(MemoPass::new(o, tile_count))]
                        }),
                    ],
                }
            })
            .collect();
        EvalGroup::from_parts(tile_count, lanes, chains, cells)
    }

    /// A group of one cell over a caller-built stack whose
    /// `colors_eq_cmp` compares `compare_distance` frames back.
    fn with_stack(
        compare_distance: usize,
        tile_count: u32,
        passes: Vec<Box<dyn TechniquePass>>,
    ) -> Self {
        let mut chains = Vec::new();
        let chain = share(&mut chains, PassKey::Stack, compare_distance, || passes);
        let cells = vec![Parts {
            consumers: Vec::new(),
            chains: vec![chain],
        }];
        EvalGroup::from_parts(tile_count, Lanes::default(), chains, cells)
    }

    fn from_parts(tile_count: u32, lanes: Lanes, chains: Vec<Chain>, cells: Vec<Parts>) -> Self {
        let depth = chains.iter().map(|c| c.distance).max().unwrap_or(0).max(1);
        EvalGroup {
            tile_count,
            lane_frames: vec![Vec::new(); lanes.len()],
            lanes,
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
        (0..self.lanes.len())
            .map(|c| self.lanes.name(c))
            .chain(
                self.chains
                    .iter()
                    .flat_map(|c| c.passes.iter().map(|p| p.name())),
            )
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
        self.lanes.begin_frame(index, frame);
        for chain in &mut self.chains {
            for pass in &mut chain.passes {
                pass.begin_frame(index, frame);
            }
        }
        let history = &self.color_ids;
        for t in 0..self.tile_count {
            let tile = &frame.tiles[t as usize];
            self.lanes
                .tile(t, tile, |d| colors_eq(history, frame, t as usize, d));
            let colors_eq_d1 = colors_eq(history, frame, t as usize, 1);
            for chain in &mut self.chains {
                let mut ctx = TileCtx {
                    colors_eq_cmp: colors_eq(history, frame, t as usize, chain.distance),
                    colors_eq_d1,
                    inputs_eq: match chain.key {
                        PassKey::Classifier(re) => self.lanes.inputs_eq(re),
                        _ => None,
                    },
                };
                for pass in &mut chain.passes {
                    pass.tile(frame, t, tile, &mut ctx);
                }
            }
        }
        let mut samples = vec![FrameSample::default(); self.lanes.len()];
        self.lanes.end_frame(&mut samples);
        for (frames, sample) in self.lane_frames.iter_mut().zip(samples) {
            frames.push(sample);
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
        re_obs::metrics::counter(re_obs::names::EVAL_PASSES).add(self.pass_names().len() as u64);
        let (frames, tile_count) = (self.frames, self.tile_count);
        let report_over = |per_frame: Vec<FrameSample>| RunReport {
            per_frame,
            ..empty_report(name, frames, tile_count)
        };
        let sections: Vec<Section> = (0..self.lanes.len())
            .map(|c| self.lanes.section(c))
            .collect();
        let mut lane_reports: Vec<RunReport> =
            self.lane_frames.into_iter().map(report_over).collect();
        self.lanes.finish(&mut lane_reports);
        let chain_reports: Vec<(Section, RunReport)> = self
            .chains
            .into_iter()
            .map(|chain| {
                let section = chain.section();
                let mut report = report_over(chain.per_frame);
                for pass in chain.passes {
                    pass.finish(&mut report);
                }
                (section, report)
            })
            .collect();
        self.cells
            .iter()
            .map(|parts| {
                let mut report = empty_report(name, frames, tile_count);
                for &c in &parts.consumers {
                    sections[c].copy(&lane_reports[c], &mut report);
                }
                for &c in &parts.chains {
                    let (section, src) = &chain_reports[c];
                    section.copy(src, &mut report);
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

    /// Triangles `step` apart each frame: the tiles they cross change
    /// signature every frame, the empty ones keep theirs.
    struct Drift {
        tris: Vec<[f32; 6]>,
        step: f32,
    }

    impl Scene for Drift {
        fn frame(&mut self, index: usize) -> FrameDesc {
            let shift = self.step * index as f32;
            let mut frame = FrameDesc::new();
            for (k, pos) in self.tris.iter().enumerate() {
                let c = Vec4::new(0.3 + 0.2 * k as f32, 0.6, 0.9, 1.0);
                let vertices = (0..3)
                    .map(|v| {
                        let p = Vec4::new(pos[2 * v] + shift, pos[2 * v + 1], 0.0, 1.0);
                        Vertex::new(vec![p, c])
                    })
                    .collect();
                frame.drawcalls.push(DrawCall {
                    state: PipelineState::flat_2d(),
                    constants: Mat4::IDENTITY.cols.to_vec(),
                    vertices,
                });
            }
            frame
        }
        fn name(&self) -> &str {
            "drift"
        }
    }

    fn drift() -> Drift {
        Drift {
            tris: vec![
                [-0.9, -0.9, -0.4, -0.9, -0.7, -0.2],
                [-0.8, 0.1, -0.1, 0.2, -0.5, 0.8],
            ],
            step: 0.07,
        }
    }

    fn run(group: &mut EvalGroup, log: &RenderLog) {
        for f in &log.frames {
            group.push_frame(f);
        }
    }

    #[test]
    fn lanes_fork_when_skip_decisions_part() {
        // A one-bit signature collides on about half of the tiles a
        // 32-bit one tells apart: the two RE consumers leave the
        // baseline's lane, and then each other's.
        let log = render_scene(&mut drift(), cfg(), 8);
        let opts: Vec<SimOptions> = [1, 32]
            .map(|sig_bits| SimOptions {
                gpu: cfg(),
                sig_bits,
                ..SimOptions::default()
            })
            .to_vec();
        let mut group = EvalGroup::new(&opts, log.tile_count());
        assert_eq!(group.lanes.lane_count(), 1, "one timing config, one lane");
        run(&mut group, &log);
        assert_eq!(
            group.lanes.lane_count(),
            3,
            "baseline and TE, RE at 1 bit, RE at 32 bits"
        );
        let reports = group.finish(&log.name);
        assert!(reports[0].re.tiles_skipped > reports[1].re.tiles_skipped);
        assert!(reports[1].re.tiles_skipped > 0);
        for (o, r) in opts.iter().zip(&reports) {
            assert_eq!(r, &evaluate(&log, o));
            let mut alone =
                Evaluation::with_passes(*o, log.tile_count(), default_passes(o, log.tile_count()));
            for f in &log.frames {
                alone.push_frame(f);
            }
            assert_eq!(r, &alone.finish(&log.name));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Baseline, TE and the memory system read neither the OT depth
        /// nor the signature-compare cost, so lanes are keyed without
        /// them: perturbing only those two fields leaves the baseline and
        /// TE sections bit-identical, changes no lane, and lets one group
        /// share its baseline and TE between both settings.
        #[test]
        fn lanes_ignore_the_fields_only_re_reads(
            step in 0.0f32..0.2,
            sig_bits in 1u32..=32,
            compare_distance in 1usize..=3,
            ot_depth in 1u32..=32,
            sig_compare_cycles in 0u64..=16,
        ) {
            let log = render_scene(&mut Drift { step, ..drift() }, cfg(), 6);
            let base = SimOptions {
                gpu: cfg(),
                sig_bits,
                compare_distance,
                ..SimOptions::default()
            };
            let mut perturbed = base;
            perturbed.timing.set_ot_depth(ot_depth);
            perturbed.timing.sig_compare_cycles = sig_compare_cycles;

            let mut lanes = Vec::new();
            let mut reports = Vec::new();
            for o in [base, perturbed] {
                let mut group = EvalGroup::new(&[o], log.tile_count());
                run(&mut group, &log);
                lanes.push(group.lanes.lane_count());
                reports.push(group.finish(&log.name).remove(0));
            }
            proptest::prop_assert_eq!(lanes[0], lanes[1]);
            let (a, b) = (&reports[0], &reports[1]);
            proptest::prop_assert_eq!(&a.baseline, &b.baseline);
            proptest::prop_assert_eq!(&a.te, &b.te);
            proptest::prop_assert_eq!(a.te_stats, b.te_stats);
            for (fa, fb) in a.per_frame.iter().zip(&b.per_frame) {
                proptest::prop_assert_eq!(fa.baseline_raster_cycles, fb.baseline_raster_cycles);
            }

            let both = EvalGroup::new(&[base, perturbed], log.tile_count());
            let names = both.pass_names();
            let count = |name: &str| names.iter().filter(|n| **n == name).count();
            proptest::prop_assert_eq!(count("baseline"), 1);
            proptest::prop_assert_eq!(count("te"), 1);
            proptest::prop_assert_eq!(both.lanes.lane_count(), 1);
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
