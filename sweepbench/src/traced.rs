//! The traced run: the sweep's work replayed on one thread, with a span
//! around every call into a layer's public functions.
//!
//! The replica does what the default executor does for one worker —
//! annotate the plan with cached `.relog`s, open the store, capture the
//! scenes still to render, then per render key either stream the cached
//! artifact through Stage B once per cell, or render it, persist the
//! `.relog` and evaluate each cell from memory, committing every cell to
//! the store — but calls the layers directly so each call can be timed.
//! Stage B runs the default pass stack, each pass wrapped in a
//! [`TimedPass`] adapter, through [`Evaluation::with_passes`].
//!
//! The replica runs twice per round, once without spans, so the tracing
//! overhead is measured on identical work. Spans nest: a span's *self* time is its duration minus the time of the
//! spans opened inside it, so `eval` self time is the driver's share of
//! Stage B and the `eval.<pass>` spans are the passes'.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Cursor;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use re_core::passes::{default_passes, TileCtx};
use re_core::relog::{self, Compression, RelogReader};
use re_core::render::{FrameLog, RenderLog, TileLog};
use re_core::sim::FrameSample;
use re_core::{Evaluation, RunReport, SimOptions, TechniquePass};
use re_sweep::{Cell, CellRecord, RenderLogCache, ResultStore, SweepPlan, TraceCache};

/// Span names, one per layer boundary the replica crosses.
pub const CAPTURE: &str = "capture";
pub const RENDER: &str = "render";
pub const RELOG_ENCODE: &str = "relog.encode";
pub const RELOG_WRITE: &str = "relog.write";
pub const RELOG_READ: &str = "relog.read";
pub const RELOG_DECODE: &str = "relog.decode";
pub const EVAL: &str = "eval";
pub const STORE: &str = "store";

/// Which sweep axes each default pass reads, by pass name. Cells whose
/// values agree on these axes (under one render key) must produce the
/// same report section from that pass.
pub const PASS_READS: [(&str, &[&str]); 5] = [
    ("baseline", &["l2_kb"]),
    (
        "re",
        &[
            "sig_bits",
            "compare_distance",
            "refresh_period",
            "ot_depth",
            "l2_kb",
            "sig_compare_cycles",
        ],
    ),
    ("redundancy", &["sig_bits", "compare_distance"]),
    ("te", &["l2_kb", "compare_distance"]),
    ("memo", &["memo_kb"]),
];

/// Open spans and accumulated self time per span name. A disabled tracer
/// records nothing: the same replica then runs untraced, and the wall
/// time difference between the two runs is the tracing overhead.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    stack: Vec<(&'static str, Instant, Duration)>,
    self_time: BTreeMap<&'static str, Duration>,
}

type Shared<T> = Rc<RefCell<T>>;

/// Runs `f` inside a span named `name`.
fn span<R>(tracer: &Shared<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !tracer.borrow().enabled {
        return f();
    }
    tracer
        .borrow_mut()
        .stack
        .push((name, Instant::now(), Duration::ZERO));
    let out = f();
    let mut t = tracer.borrow_mut();
    let (name, start, children) = t.stack.pop().expect("span stack underflow");
    let total = start.elapsed();
    *t.self_time.entry(name).or_default() += total.saturating_sub(children);
    if let Some(parent) = t.stack.last_mut() {
        parent.2 += total;
    }
    out
}

/// Work counts the replica takes at the layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub rasters: u64,
    pub render_events: u64,
    pub written_bytes: u64,
    pub read_bytes: u64,
    pub frames_decoded: u64,
    pub pass_runs: u64,
    /// Events walked by `record::replay_events` inside the passes.
    pub events_replayed: u64,
}

/// How a pass feeds recorded events into its memory system.
#[derive(Clone, Copy, PartialEq)]
enum Replays {
    /// Every geometry and tile event (baseline, TE).
    All,
    /// Geometry events, and tile events except the tiles RE skips.
    UnlessSkipped,
    /// None (classifier, memoization).
    Nothing,
}

/// A pass wrapped in a span, counting the events it replays.
struct TimedPass {
    inner: Box<dyn TechniquePass>,
    span: &'static str,
    replays: Replays,
    /// Events of this frame's tiles whose signatures matched: RE skips
    /// them only when it is enabled for the frame, which shows as a
    /// non-zero skip count in the frame's sample.
    matched_events: u64,
    tracer: Shared<Tracer>,
    counts: Shared<Counts>,
}

impl TechniquePass for TimedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin_frame(&mut self, index: usize, frame: &FrameLog) {
        span(&self.tracer, self.span, || {
            self.inner.begin_frame(index, frame)
        });
        if self.replays != Replays::Nothing {
            self.counts.borrow_mut().events_replayed += frame.geo_events.len() as u64;
        }
    }

    fn tile(&mut self, frame: &FrameLog, tile_id: u32, tile: &TileLog, ctx: &mut TileCtx) {
        span(&self.tracer, self.span, || {
            self.inner.tile(frame, tile_id, tile, ctx)
        });
        let n = tile.events.len() as u64;
        match self.replays {
            Replays::All => self.counts.borrow_mut().events_replayed += n,
            Replays::UnlessSkipped if ctx.inputs_eq == Some(true) => self.matched_events += n,
            Replays::UnlessSkipped => self.counts.borrow_mut().events_replayed += n,
            Replays::Nothing => {}
        }
    }

    fn end_frame(&mut self, frame: &FrameLog, sample: &mut FrameSample) {
        span(&self.tracer, self.span, || {
            self.inner.end_frame(frame, sample)
        });
        if self.replays == Replays::UnlessSkipped && sample.tiles_skipped == 0 {
            self.counts.borrow_mut().events_replayed += self.matched_events;
        }
        self.matched_events = 0;
    }

    fn finish(self: Box<Self>, report: &mut RunReport) {
        let TimedPass {
            inner,
            span: name,
            tracer,
            ..
        } = *self;
        span(&tracer, name, || inner.finish(report));
    }
}

/// The default pass stack, each pass wrapped in a [`TimedPass`].
fn timed_passes(
    opts: &SimOptions,
    tile_count: u32,
    tracer: &Shared<Tracer>,
    counts: &Shared<Counts>,
) -> Vec<Box<dyn TechniquePass>> {
    default_passes(opts, tile_count)
        .into_iter()
        .map(|inner| {
            let (span, replays) = match inner.name() {
                "baseline" => ("eval.baseline", Replays::All),
                "re" => ("eval.re", Replays::UnlessSkipped),
                "redundancy" => ("eval.redundancy", Replays::Nothing),
                "te" => ("eval.te", Replays::All),
                "memo" => ("eval.memo", Replays::Nothing),
                other => panic!("unknown default pass `{other}`"),
            };
            counts.borrow_mut().pass_runs += 1;
            Box::new(TimedPass {
                inner,
                span,
                replays,
                matched_events: 0,
                tracer: Rc::clone(tracer),
                counts: Rc::clone(counts),
            }) as Box<dyn TechniquePass>
        })
        .collect()
}

/// What one traced replica run produced.
pub struct Replica {
    /// Wall time from plan compilation to the written `results.csv`.
    pub wall: Duration,
    /// Self time per span name.
    pub self_time: BTreeMap<&'static str, Duration>,
    pub counts: Counts,
    /// Every cell with its full report, in cell-id order.
    pub reports: Vec<(Cell, RunReport)>,
    /// The store's `results.csv`.
    pub csv: String,
    /// Bytes of `.retrace` the sweep-time capture wrote.
    pub capture_bytes: u64,
    /// The `.relog` artifact of every render key, in plan order.
    pub artifacts: Vec<PathBuf>,
}

/// Runs the replica of the sweep `argv` describes, with spans recorded
/// when `traced` is set.
pub fn run(argv: &[String], traced: bool) -> Result<Replica, String> {
    let args = crate::sweep::parse_run(argv)?;
    let log_dir = args
        .opts
        .log_dir
        .clone()
        .ok_or("the replica needs a .relog cache")?;
    let compression = if args.opts.relog_compress {
        Compression::Lzss
    } else {
        Compression::None
    };
    let tracer: Shared<Tracer> = Rc::new(RefCell::new(Tracer {
        enabled: traced,
        ..Tracer::default()
    }));
    let counts: Shared<Counts> = Rc::default();
    let t = &tracer;
    let io = |e: std::io::Error| e.to_string();

    let start = Instant::now();
    let mut plan = SweepPlan::compile(&args.grid);
    let log_cache = RenderLogCache::new(Some(log_dir.clone()));
    span(t, RELOG_READ, || plan.attach_cached_logs(&log_cache));
    for job in plan.render_jobs() {
        if let Some(path) = &job.cached_log {
            counts.borrow_mut().read_bytes += file_len(path);
        }
    }
    let (store, existing) =
        span(t, STORE, || ResultStore::open_for_plan(&args.out, &plan)).map_err(io)?;
    if !existing.is_empty() {
        return Err(format!("{} is not a fresh store", args.out.display()));
    }

    let capture_cfg = re_gpu::GpuConfig {
        width: plan.width(),
        height: plan.height(),
        ..re_gpu::GpuConfig::default()
    };
    let mut trace_cache = TraceCache::new(args.opts.trace_dir.clone());
    let mut traces = HashMap::new();
    for alias in plan.pending_scene_aliases() {
        let trace = span(t, CAPTURE, || {
            trace_cache.get(alias, plan.frames(), capture_cfg)
        })
        .map_err(io)?;
        traces.insert(alias, trace);
    }

    let mut reports: Vec<(Cell, RunReport)> = Vec::with_capacity(plan.cell_count());
    let mut artifacts = Vec::with_capacity(plan.render_job_count());
    for (index, job) in plan.render_jobs().iter().enumerate() {
        let cells: Vec<Cell> = plan
            .eval_jobs()
            .iter()
            .filter(|e| e.render_job == index)
            .map(|e| e.cell)
            .collect();
        let path = log_dir.join(RenderLogCache::file_key(&job.key));
        let log: Option<RenderLog> = if job.cached_log.is_some() {
            None
        } else {
            let trace = traces
                .get(job.key.scene())
                .ok_or("scene was not captured")?;
            let before = re_gpu::raster_invocations();
            let log = span(t, RENDER, || re_sweep::render_key_log(trace, &job.key));
            let mut c = counts.borrow_mut();
            c.rasters += re_gpu::raster_invocations() - before;
            c.render_events += log_events(&log);
            drop(c);
            let bytes = span(t, RELOG_ENCODE, || relog::encode_with(&log, compression));
            span(t, RELOG_WRITE, || -> std::io::Result<()> {
                std::fs::create_dir_all(&log_dir)?;
                let tmp = path.with_extension("relog.tmp");
                std::fs::write(&tmp, &bytes)?;
                std::fs::rename(&tmp, &path)
            })
            .map_err(io)?;
            counts.borrow_mut().written_bytes += bytes.len() as u64;
            Some(log)
        };
        for cell in cells {
            let opts = cell.point.sim_options();
            let report = match &log {
                Some(log) => evaluate_log(t, &counts, log, &opts),
                None => evaluate_artifact(t, &counts, &path, &opts)?,
            };
            span(t, STORE, || {
                store.record(&CellRecord::from_run(&cell, &report))
            })
            .map_err(io)?;
            reports.push((cell, report));
        }
        artifacts.push(path);
    }
    reports.sort_by_key(|(cell, _)| cell.id);
    let records: Vec<CellRecord> = reports
        .iter()
        .map(|(c, r)| CellRecord::from_run(c, r))
        .collect();
    let csv_path = span(t, STORE, || store.write_csv(&records)).map_err(io)?;
    let wall = start.elapsed();

    let capture_bytes = args.opts.trace_dir.as_deref().map_or(0, |dir| {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "retrace"))
                    .map(|e| file_len(&e.path()))
                    .sum()
            })
            .unwrap_or(0)
    });
    let csv = std::fs::read_to_string(&csv_path).map_err(io)?;
    let self_time = std::mem::take(&mut tracer.borrow_mut().self_time);
    let counts = counts.borrow().clone();
    Ok(Replica {
        wall,
        self_time,
        counts,
        reports,
        csv,
        capture_bytes,
        artifacts,
    })
}

/// Stage B over an in-memory log (a freshly rendered key).
fn evaluate_log(
    t: &Shared<Tracer>,
    counts: &Shared<Counts>,
    log: &RenderLog,
    opts: &SimOptions,
) -> RunReport {
    assert_eq!(
        opts.gpu, log.config,
        "evaluation gpu config must match the render log's"
    );
    let mut eval = span(t, EVAL, || {
        Evaluation::with_passes(
            *opts,
            log.tile_count(),
            timed_passes(opts, log.tile_count(), t, counts),
        )
    });
    for frame in &log.frames {
        span(t, EVAL, || eval.push_frame(frame));
    }
    span(t, EVAL, || eval.finish(&log.name))
}

/// Stage B over a cached `.relog`: read the file, then decode and evaluate
/// it frame by frame.
fn evaluate_artifact(
    t: &Shared<Tracer>,
    counts: &Shared<Counts>,
    path: &std::path::Path,
    opts: &SimOptions,
) -> Result<RunReport, String> {
    let bytes = span(t, RELOG_READ, || std::fs::read(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    counts.borrow_mut().read_bytes += bytes.len() as u64;
    let mut reader = span(t, RELOG_DECODE, || {
        RelogReader::new(Cursor::new(bytes.as_slice()))
    })
    .map_err(|e| format!("{}: {e}", path.display()))?;
    if reader.config() != opts.gpu {
        return Err(format!(
            "{} was recorded under another configuration",
            path.display()
        ));
    }
    let tiles = reader.config().tile_count();
    let mut eval = span(t, EVAL, || {
        Evaluation::with_passes(*opts, tiles, timed_passes(opts, tiles, t, counts))
    });
    while let Some(frame) = span(t, RELOG_DECODE, || reader.next_frame())
        .map_err(|e| format!("{}: {e}", path.display()))?
    {
        counts.borrow_mut().frames_decoded += 1;
        span(t, EVAL, || eval.push_frame(&frame));
    }
    let name = reader.name().to_owned();
    Ok(span(t, EVAL, || eval.finish(&name)))
}

/// Events a log records, geometry and tile streams together.
fn log_events(log: &RenderLog) -> u64 {
    log.frames
        .iter()
        .map(|f| f.geo_events.len() + f.tiles.iter().map(|t| t.events.len()).sum::<usize>())
        .sum::<usize>() as u64
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The report section a pass contributes, in a comparable form.
fn pass_section(pass: &str, r: &RunReport) -> String {
    match pass {
        "baseline" => format!(
            "{:?} {:?}",
            r.baseline,
            r.per_frame
                .iter()
                .map(|f| f.baseline_raster_cycles)
                .collect::<Vec<_>>()
        ),
        "re" => format!(
            "{:?} {:?} {} {} {:?}",
            r.re,
            r.su_stats,
            r.false_positives,
            r.re_frames_disabled,
            r.per_frame
                .iter()
                .map(|f| (f.tiles_skipped, f.re_raster_cycles))
                .collect::<Vec<_>>()
        ),
        "redundancy" => format!(
            "{:?} {} {}",
            r.classes, r.equal_tiles_dist1, r.classified_dist1
        ),
        "te" => format!("{:?} {:?}", r.te, r.te_stats),
        "memo" => format!("{:?}", r.memo),
        other => panic!("unknown pass `{other}`"),
    }
}

/// Pass runs whose (render key, axes the pass reads) repeats an earlier
/// run, and how many of those repeats produced a different report section
/// than the first run of their projection (which must be none).
#[derive(Debug, Default)]
pub struct PassDedup {
    pub runs: u64,
    pub redundant: u64,
    pub mismatched: u64,
}

/// Projects every cell onto each pass's declared axes and checks that
/// equal projections carry equal report sections.
pub fn pass_dedup(reports: &[(Cell, RunReport)]) -> PassDedup {
    let mut out = PassDedup::default();
    for (pass, reads) in PASS_READS {
        let axes: Vec<usize> = reads
            .iter()
            .map(|name| {
                re_sweep::axis::by_name(name).unwrap_or_else(|| panic!("unknown axis `{name}`"))
            })
            .collect();
        let mut first: HashMap<(String, Vec<u64>), String> = HashMap::new();
        for (cell, report) in reports {
            out.runs += 1;
            let key = (
                RenderLogCache::file_key(&cell.render_key()),
                axes.iter().map(|&a| cell.point.get(a)).collect(),
            );
            let section = pass_section(pass, report);
            match first.get(&key) {
                Some(seen) => {
                    out.redundant += 1;
                    out.mismatched += u64::from(*seen != section);
                }
                None => {
                    first.insert(key, section);
                }
            }
        }
    }
    out
}

/// Shares of the event stream: texel fetches, and texel fetches that hit
/// the same (unit, cache line) as the event just before them.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventShares {
    pub events: u64,
    pub texels: u64,
    pub texel_repeats: u64,
}

impl EventShares {
    /// Adds one log's event streams (each tile's, and each frame's
    /// geometry stream, are separate sequences).
    pub fn add(&mut self, log: &RenderLog, line_bytes: u64) {
        for frame in &log.frames {
            self.add_stream(&frame.geo_events, line_bytes);
            for tile in &frame.tiles {
                self.add_stream(&tile.events, line_bytes);
            }
        }
    }

    fn add_stream(&mut self, events: &[re_core::record::Event], line_bytes: u64) {
        use re_core::record::Event;
        let mut prev: Option<(u8, u64)> = None;
        for e in events {
            self.events += 1;
            prev = match *e {
                Event::Texel { unit, addr } => {
                    let line = (unit, addr / line_bytes);
                    self.texels += 1;
                    self.texel_repeats += u64::from(prev == Some(line));
                    Some(line)
                }
                _ => None,
            };
        }
    }
}

/// Nanoseconds per event of replaying `log` into a fresh memory system
/// through `record::replay_events` (median of `reps` replays).
pub fn timing_ns_per_event(log: &RenderLog, opts: &SimOptions, reps: usize) -> f64 {
    let events = log_events(log);
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let mut mem = re_timing::MemorySystem::new(opts.timing);
            let start = Instant::now();
            for frame in &log.frames {
                re_core::record::replay_events(&frame.geo_events, &mut mem, true);
                for tile in &frame.tiles {
                    re_core::record::replay_events(&tile.events, &mut mem, true);
                }
            }
            std::hint::black_box(&mem);
            start.elapsed().as_nanos() as f64 / events.max(1) as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_core::record::Event;

    #[test]
    fn a_texel_repeat_is_the_same_unit_and_line_as_the_event_before() {
        let texel = |unit, addr| Event::Texel { unit, addr };
        let stream = [
            texel(0, 0),
            texel(0, 60), // same unit, same 64-byte line: repeat
            texel(1, 60), // other unit: not a repeat
            texel(1, 64), // next line: not a repeat
            Event::VertexFetch { addr: 64, bytes: 4 },
            texel(1, 64),  // the event before is not a texel fetch
            texel(1, 127), // repeat
        ];
        let mut shares = EventShares::default();
        shares.add_stream(&stream, 64);
        assert_eq!(
            (shares.events, shares.texels, shares.texel_repeats),
            (7, 6, 2)
        );
    }
}
