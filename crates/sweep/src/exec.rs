//! Plan execution: the [`Executor`] trait, its in-process
//! [`ThreadExecutor`], and the [`SweepObserver`] progress-event channel.
//!
//! An executor takes a compiled [`SweepPlan`] plus the captured traces and
//! runs the plan's jobs, returning outcomes in cell-id order. The contract
//! every implementation must keep:
//!
//! * **render-once** — with grouping, each [`crate::plan::RenderJob`] runs
//!   Stage A exactly once and its log is shared by the job's eval cells;
//! * **deterministic output** — outcomes are returned in cell-id order and
//!   each report is a pure function of the cell, so results are
//!   byte-identical across worker counts, scheduling, and executors.
//!
//! [`ThreadExecutor`] is the std-thread work-stealing implementation (the
//! engine's default); an async executor is the planned second
//! implementation — the plan/executor split is exactly that seam.
//!
//! Progress is reported through [`SweepObserver`] events instead of
//! hardwired `eprintln!`: the CLI installs [`StderrObserver`] (the classic
//! `[sweep] …` lines) plus a [`crate::events::JsonlObserver`] writing the
//! machine-readable `events.jsonl`, embedders can install their own, and
//! [`NullObserver`] silences everything (what `quiet` does).
//!
//! Events carry timing payloads (durations, worker ids) and the executor
//! emits a periodic [`SweepEvent::Progress`] heartbeat, so an observer
//! stream is enough to reconstruct where wall-clock went — that is what
//! `sweep profile` does ([`crate::profile`]). The same stage timings are
//! recorded into the [`re_obs`] registry histograms
//! (`sweep.stage.*`), and cache traffic into its counters
//! (`sweep.relog.*`, `sweep.artifacts.*`).

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use re_core::render::RenderLog;
use re_core::RunReport;
use re_obs::names;
use re_obs::Stopwatch;
use re_trace::Trace;

use crate::engine::{render_key_log_parallel, run_cell, CellOutcome};
use crate::grid::Cell;
use crate::plan::{ShardSpec, SweepPlan};
use crate::pool;

/// One progress event of a running sweep.
///
/// Events carry every number an observer could want to display, so
/// observers stay stateless formatters.
#[derive(Debug, Clone)]
pub enum SweepEvent<'a> {
    /// A workload's trace is being captured (or loaded from the cache).
    CaptureStart {
        /// Workload alias.
        scene: &'static str,
        /// Frames captured.
        frames: usize,
    },
    /// A workload's trace is ready.
    CaptureDone {
        /// Workload alias.
        scene: &'static str,
        /// Frames captured.
        frames: usize,
        /// Capture (or cache-load) duration.
        duration: Duration,
    },
    /// A grouped execution is starting: `cells` eval jobs share
    /// `render_jobs` Stage A renders.
    GroupStart {
        /// Eval jobs in the plan.
        cells: usize,
        /// Render jobs in the plan.
        render_jobs: usize,
        /// Worker threads executing the plan.
        workers: usize,
        /// Which shard of the full plan this is (`None` = unsharded).
        shard: Option<ShardSpec>,
    },
    /// A render job is starting Stage A.
    RenderStart {
        /// Workload alias of the render key.
        scene: &'static str,
        /// Tile edge of the render key.
        tile_size: u32,
        /// Worker running the render.
        worker: usize,
    },
    /// A render job finished Stage A.
    RenderDone {
        /// Workload alias of the render key.
        scene: &'static str,
        /// Tile edge of the render key.
        tile_size: u32,
        /// Worker that ran the render.
        worker: usize,
        /// Frames rendered.
        frames: usize,
        /// Stage A duration.
        duration: Duration,
    },
    /// One chunk of a frame-parallel Stage A render finished. Emitted
    /// after the whole render completes (one event per chunk, in chunk
    /// order, right before the job's [`RenderDone`](Self::RenderDone)) —
    /// the per-chunk durations are what `sweep profile` computes
    /// parallel efficiency from. Serial renders emit none.
    RenderChunkDone {
        /// Workload alias of the render key.
        scene: &'static str,
        /// Tile edge of the render key.
        tile_size: u32,
        /// Worker that owned the render job.
        worker: usize,
        /// Chunk index (0-based, frame order).
        chunk: usize,
        /// Chunks the render was split into.
        chunks: usize,
        /// Frames this chunk rendered.
        frames: usize,
        /// The chunk's render duration.
        duration: Duration,
    },
    /// A render job is satisfied by a cached `.relog`: its cells replay
    /// the artifact from disk and Stage A never runs (emitted once per
    /// job, by the first worker to reach it).
    RenderLogReplay {
        /// Workload alias of the render key.
        scene: &'static str,
        /// Tile edge of the render key.
        tile_size: u32,
        /// Worker that reached the job first.
        worker: usize,
    },
    /// A freshly rendered log was persisted to the render-log cache;
    /// future resumes and re-executions of this key will skip Stage A.
    RenderLogSaved {
        /// Workload alias of the render key.
        scene: &'static str,
        /// Tile edge of the render key.
        tile_size: u32,
        /// Size of the artifact on disk.
        bytes: u64,
    },
    /// One cell's Stage B (and store commit) finished. Chattier than
    /// [`CellDone`](Self::CellDone) — this is the per-cell timing record
    /// the run log and `sweep profile` are built from; the stderr
    /// observer ignores it.
    EvalDone {
        /// The cell's stable id.
        cell: usize,
        /// The cell's workload alias.
        scene: &'static str,
        /// Worker that evaluated the cell.
        worker: usize,
        /// Whether Stage B streamed a cached `.relog` (true) or evaluated
        /// in memory (false).
        replayed: bool,
        /// Evaluation duration. Cells evaluated together as one group
        /// each carry the group's time divided by its cell count, so the
        /// per-cell values still sum to the Stage B busy time. For a
        /// replayed cell this includes the artifact's disk read; for the
        /// ungrouped per-cell path it is the whole monolithic (render +
        /// evaluate) pipeline.
        eval: Duration,
        /// Store-commit (`on_done`) duration.
        store: Duration,
    },
    /// One cell finished.
    CellDone {
        /// Cells finished so far (this execution).
        done: usize,
        /// Cells in this execution.
        total: usize,
        /// The cell's human-readable label.
        label: &'a str,
        /// Mean completion rate since the execution started.
        cells_per_sec: f64,
        /// Time since the execution started.
        elapsed: Duration,
        /// Estimated time to completion, from the rate over the last few
        /// completions (windowed, so it tracks the current mix of cheap
        /// and expensive cells instead of the since-start mean). `None`
        /// until enough completions have accumulated.
        eta: Option<Duration>,
    },
    /// Periodic heartbeat (and one final tick when the execution ends),
    /// emitted by a watchdog thread even while every worker is busy
    /// inside a long render — this is what keeps `events.jsonl` alive
    /// for tailing tools.
    Progress {
        /// Cells finished so far (this execution).
        done: usize,
        /// Cells in this execution.
        total: usize,
        /// Time since the execution started.
        elapsed: Duration,
        /// Mean completion rate since the execution started.
        cells_per_sec: f64,
        /// Windowed ETA (see [`CellDone::eta`](Self::CellDone)).
        eta: Option<Duration>,
    },
    /// A store run found `resumed` cells already complete and will run the
    /// remaining `pending`.
    StoreResume {
        /// Cells already in the store.
        resumed: usize,
        /// Cells left to run.
        pending: usize,
    },
}

/// Receives [`SweepEvent`]s from a running sweep.
///
/// Carried in [`crate::SweepOptions`]; must be `Send + Sync` because
/// workers emit events concurrently.
pub trait SweepObserver: Send + Sync {
    /// Called for every event, possibly from multiple threads at once.
    fn on_event(&self, event: &SweepEvent<'_>);
}

/// Formats a duration as compact seconds (`12.3s`, `0.4s`).
fn fmt_secs(d: Duration) -> String {
    format!("{:.1}s", d.as_secs_f64())
}

/// Formats an optional ETA (`eta 12.3s` / `eta -`).
fn fmt_eta(eta: Option<Duration>) -> String {
    match eta {
        Some(d) => format!("eta {}", fmt_secs(d)),
        None => "eta -".to_string(),
    }
}

/// The classic stderr progress lines (`[sweep] …`) — the default observer
/// of a non-quiet sweep.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrObserver;

impl SweepObserver for StderrObserver {
    fn on_event(&self, event: &SweepEvent<'_>) {
        match *event {
            SweepEvent::CaptureStart { scene, frames } => {
                eprintln!("[sweep] capturing {scene} ({frames} frames)…");
            }
            SweepEvent::CaptureDone {
                scene, duration, ..
            } => {
                eprintln!("[sweep] captured {scene} in {}", fmt_secs(duration));
            }
            SweepEvent::GroupStart {
                cells,
                render_jobs,
                workers,
                shard,
            } => {
                let shard = match shard {
                    Some(s) => format!(", shard {s}"),
                    None => String::new(),
                };
                eprintln!(
                    "[sweep] render grouping: {cells} cells share {render_jobs} render keys \
                     ({workers} workers{shard})"
                );
            }
            SweepEvent::RenderStart {
                scene, tile_size, ..
            } => {
                eprintln!("[sweep] rendering {scene} ts{tile_size}…");
            }
            SweepEvent::RenderDone {
                scene,
                tile_size,
                duration,
                ..
            } => {
                eprintln!(
                    "[sweep] rendered {scene} ts{tile_size} in {}",
                    fmt_secs(duration)
                );
            }
            SweepEvent::RenderChunkDone {
                scene,
                tile_size,
                chunk,
                chunks,
                frames,
                duration,
                ..
            } => {
                eprintln!(
                    "[sweep]   {scene} ts{tile_size} chunk {}/{chunks} ({frames} frames) in {}",
                    chunk + 1,
                    fmt_secs(duration)
                );
            }
            SweepEvent::RenderLogReplay {
                scene, tile_size, ..
            } => {
                eprintln!("[sweep] replaying cached render log for {scene} ts{tile_size}");
            }
            SweepEvent::RenderLogSaved {
                scene,
                tile_size,
                bytes,
            } => {
                eprintln!("[sweep] cached render log for {scene} ts{tile_size} ({bytes} bytes)");
            }
            // Per-cell timing detail is for the run log, not the terminal.
            SweepEvent::EvalDone { .. } => {}
            SweepEvent::CellDone {
                done,
                total,
                label,
                cells_per_sec,
                elapsed,
                eta,
            } => {
                eprintln!(
                    "[sweep] {done}/{total} {label}  ({cells_per_sec:.2} cells/s, {} elapsed, {})",
                    fmt_secs(elapsed),
                    fmt_eta(eta),
                );
            }
            SweepEvent::Progress {
                done,
                total,
                cells_per_sec,
                eta,
                ..
            } => {
                eprintln!(
                    "[sweep] progress: {done}/{total} cells ({cells_per_sec:.2} cells/s, {})",
                    fmt_eta(eta),
                );
            }
            SweepEvent::StoreResume { resumed, pending } => {
                eprintln!("[sweep] resuming: {resumed} cells already complete, {pending} to run");
            }
        }
    }
}

/// Swallows every event (what `quiet` installs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SweepObserver for NullObserver {
    fn on_event(&self, _event: &SweepEvent<'_>) {}
}

/// Fans every event out to each observer in order — how the CLI runs the
/// stderr lines and the `events.jsonl` stream side by side.
pub struct MultiObserver(Vec<Arc<dyn SweepObserver>>);

impl MultiObserver {
    /// An observer forwarding to every entry of `observers`.
    pub fn new(observers: Vec<Arc<dyn SweepObserver>>) -> Self {
        MultiObserver(observers)
    }
}

impl SweepObserver for MultiObserver {
    fn on_event(&self, event: &SweepEvent<'_>) {
        for o in &self.0 {
            o.on_event(event);
        }
    }
}

/// Runs a [`SweepPlan`]'s jobs against already-captured traces.
///
/// `on_done` is invoked from worker context as each cell completes (the
/// store's commit hook); outcomes come back in cell-id order regardless of
/// scheduling.
pub trait Executor {
    /// Executes every job of `plan` and returns one outcome per eval job,
    /// in cell-id order.
    fn execute(
        &self,
        plan: &SweepPlan,
        traces: &HashMap<&'static str, Arc<Trace>>,
        observer: &dyn SweepObserver,
        on_done: &(dyn Fn(&Cell, &RunReport) + Sync),
    ) -> Vec<CellOutcome>;
}

/// Completion timestamps kept for the windowed ETA.
const ETA_WINDOW: usize = 16;

/// Progress accounting shared by the workers of one execution.
struct Progress<'o> {
    done: AtomicUsize,
    total: usize,
    start: Instant,
    observer: &'o dyn SweepObserver,
    /// Completion instants of the last [`ETA_WINDOW`] cells.
    window: Mutex<std::collections::VecDeque<Instant>>,
}

impl<'o> Progress<'o> {
    fn new(total: usize, observer: &'o dyn SweepObserver) -> Self {
        Progress {
            done: AtomicUsize::new(0),
            total,
            start: Instant::now(),
            observer,
            window: Mutex::new(std::collections::VecDeque::with_capacity(ETA_WINDOW + 1)),
        }
    }

    /// Mean completion rate since the start.
    fn mean_rate(&self, done: usize) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        if secs > 0.0 {
            done as f64 / secs
        } else {
            0.0
        }
    }

    /// ETA from the rate over the completions still in the window. `None`
    /// until two completions exist (no rate yet); `Some(0)` when done.
    fn eta(&self, done: usize) -> Option<Duration> {
        let remaining = self.total.saturating_sub(done);
        if remaining == 0 {
            return Some(Duration::ZERO);
        }
        let window = self.window.lock().expect("eta window poisoned");
        let (first, last) = (window.front()?, window.back()?);
        if window.len() < 2 {
            return None;
        }
        let span = last.duration_since(*first).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        let rate = (window.len() - 1) as f64 / span;
        Some(Duration::from_secs_f64(remaining as f64 / rate))
    }

    fn cell_done(&self, label: &str) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut window = self.window.lock().expect("eta window poisoned");
            window.push_back(Instant::now());
            if window.len() > ETA_WINDOW {
                window.pop_front();
            }
        }
        self.observer.on_event(&SweepEvent::CellDone {
            done,
            total: self.total,
            label,
            cells_per_sec: self.mean_rate(done),
            elapsed: self.start.elapsed(),
            eta: self.eta(done),
        });
    }

    /// Emits one [`SweepEvent::Progress`] heartbeat.
    fn tick(&self) {
        let done = self.done.load(Ordering::Relaxed);
        self.observer.on_event(&SweepEvent::Progress {
            done,
            total: self.total,
            elapsed: self.start.elapsed(),
            cells_per_sec: self.mean_rate(done),
            eta: self.eta(done),
        });
    }
}

/// A render job's shared state: the lazily built in-memory log plus the
/// number of cell groups still due to evaluate the job (the log is dropped
/// with the last one). A cached job's groups stream its `.relog` instead
/// and only fill the log when the artifact fails and the key is rendered.
struct GroupSlot {
    log: Mutex<Option<Arc<RenderLog>>>,
    remaining: AtomicUsize,
    /// Whether the one-per-job replay event was already emitted.
    replay_announced: AtomicBool,
}

/// The std-thread work-stealing executor (the engine's default).
///
/// The Stage B unit is a **cell group**: the cells of one render job,
/// evaluated together by [`re_core::EvalGroup`] in one pass over the
/// job's frames, so each distinct technique pass runs once per group and
/// each frame is decoded once. When the plan has fewer render jobs than
/// workers, a job's cells split into at most ⌈workers / jobs⌉ groups so
/// every worker has work. Groups are seeded round-robin over the
/// work-stealing [`pool`], so different workers tend to reach different
/// render jobs first and Stage A parallelizes across keys; within a job,
/// the first group renders (holding only that job's lock) and any other
/// group evaluates the shared log, which is freed as its last group
/// finishes. A group commits its cells in cell-id order, and outcomes
/// come back in cell-id order.
///
/// Render jobs a cached `.relog` satisfies ([`RenderJob::cached_log`])
/// never run Stage A at all: each of their groups opens the artifact once
/// and streams it through [`re_core::relog::RelogReader`], frame by frame,
/// holding at most one frame in memory. If the stream fails partway, the
/// group renders the key and evaluates from memory instead; none of its
/// cells was committed yet. With [`log_dir`](Self::log_dir) set, jobs
/// that *do* render persist their log on completion, so the next
/// execution of the same keys is raster-free.
///
/// [`RenderJob::cached_log`]: crate::plan::RenderJob::cached_log
#[derive(Debug, Clone)]
pub struct ThreadExecutor {
    /// Worker threads; 0 means [`pool::default_workers`].
    pub workers: usize,
    /// Render each key once and share the log across its cells (the
    /// default). Disable to rebuild Stage A per cell — only useful for
    /// baselining and equivalence tests (cached logs are ignored too: the
    /// per-cell path measures the full monolithic pipeline).
    pub group_renders: bool,
    /// Directory to persist freshly rendered `.relog` artifacts into
    /// (`None` = don't write). Writes are best-effort: a full disk costs
    /// the cache entry, never the sweep.
    pub log_dir: Option<std::path::PathBuf>,
    /// Threads one Stage A render may spread its frames over
    /// ([`render_key_log_parallel`] — output stays bit-identical at any
    /// setting). 0 means match the executor's worker count, 1 forces
    /// serial Stage A. The budget is divided by the number of renders in
    /// flight, so concurrent keys split the machine instead of
    /// oversubscribing it.
    pub render_workers: usize,
    /// Persist `.relog` artifacts LZSS-compressed (`RELOG002`) instead of
    /// stored (`RELOG001`). Replay reads both framings transparently.
    pub relog_compress: bool,
    /// Interval of the [`SweepEvent::Progress`] heartbeat (`None` =
    /// disabled). A watchdog thread emits the event even while every
    /// worker is busy, plus one final tick as the execution ends.
    pub heartbeat: Option<Duration>,
}

impl Default for ThreadExecutor {
    fn default() -> Self {
        ThreadExecutor {
            workers: 0,
            group_renders: true,
            log_dir: None,
            render_workers: 0,
            relog_compress: false,
            heartbeat: Some(Duration::from_secs(10)),
        }
    }
}

impl ThreadExecutor {
    fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            pool::default_workers()
        } else {
            self.workers
        }
    }

    /// Runs `body` with the heartbeat watchdog alive (see
    /// [`run_with_heartbeat`]).
    fn with_heartbeat<R>(&self, progress: &Progress<'_>, body: impl FnOnce() -> R) -> R {
        run_with_heartbeat(self.heartbeat, progress, body)
    }
}

/// Runs `body` with the heartbeat watchdog alive (when enabled and there
/// is work): ticks every `interval`, plus a final tick after `body`
/// returns so every execution's event stream ends with a `done == total`
/// progress record. Shared by every executor implementation.
fn run_with_heartbeat<R>(
    heartbeat: Option<Duration>,
    progress: &Progress<'_>,
    body: impl FnOnce() -> R,
) -> R {
    let Some(interval) = heartbeat else {
        return body();
    };
    if progress.total == 0 {
        return body();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let ticker = s.spawn(|| {
            // Poll well under the interval so shutdown is prompt.
            let poll = interval
                .max(Duration::from_millis(1))
                .min(Duration::from_millis(25));
            let mut since = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(poll);
                if since.elapsed() >= interval {
                    progress.tick();
                    since = Instant::now();
                }
            }
            progress.tick();
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        let _ = ticker.join();
        out
    })
}

impl Executor for ThreadExecutor {
    fn execute(
        &self,
        plan: &SweepPlan,
        traces: &HashMap<&'static str, Arc<Trace>>,
        observer: &dyn SweepObserver,
        on_done: &(dyn Fn(&Cell, &RunReport) + Sync),
    ) -> Vec<CellOutcome> {
        let jobs = plan.eval_jobs().to_vec();
        let workers = self.effective_workers().clamp(1, jobs.len().max(1));
        let progress = Progress::new(jobs.len(), observer);

        // Stage histograms and cache counters, resolved once per
        // execution so workers never touch the registry lock.
        let eval_hist = re_obs::metrics::histogram(names::STAGE_EVAL);
        let store_hist = re_obs::metrics::histogram(names::STAGE_STORE);

        if !self.group_renders {
            return self.with_heartbeat(&progress, || {
                pool::run_indexed(jobs, workers, |worker, _i, job| {
                    let trace = &traces[job.cell.scene()];
                    // The monolithic path has no render/evaluate split to
                    // time separately; the whole pipeline lands in the
                    // eval stage.
                    let sw = Stopwatch::start();
                    let report = run_cell(trace, &job.cell);
                    let eval = sw.elapsed();
                    eval_hist.record(eval);
                    let sw = Stopwatch::start();
                    on_done(&job.cell, &report);
                    let store = sw.elapsed();
                    store_hist.record(store);
                    observer.on_event(&SweepEvent::EvalDone {
                        cell: job.cell.id,
                        scene: job.cell.scene(),
                        worker,
                        replayed: false,
                        eval,
                        store,
                    });
                    progress.cell_done(&job.cell.label());
                    CellOutcome {
                        cell: job.cell,
                        report,
                    }
                })
            });
        }

        // The Stage B units: each render job's cells, split so a grid with
        // fewer keys than workers still keeps every worker busy.
        let groups = cell_groups(plan, workers);
        // One slot per render job, indexed by the job's plan position.
        let mut slots: Vec<GroupSlot> = plan
            .render_jobs()
            .iter()
            .map(|_| GroupSlot {
                log: Mutex::new(None),
                remaining: AtomicUsize::new(0),
                replay_announced: AtomicBool::new(false),
            })
            .collect();
        for g in &groups {
            *slots[g.render_job].remaining.get_mut() += 1;
        }
        observer.on_event(&SweepEvent::GroupStart {
            cells: jobs.len(),
            render_jobs: slots.len(),
            workers,
            shard: plan.shard_spec(),
        });
        let replay_hist = re_obs::metrics::histogram(names::STAGE_REPLAY);
        let relog_replays = re_obs::metrics::counter(names::RELOG_REPLAYS);
        let bytes_read = re_obs::metrics::counter(names::ARTIFACT_BYTES_READ);
        let stage_a = StageA::new(
            traces,
            observer,
            self.log_dir.clone(),
            self.relog_compress,
            self.render_workers,
            workers,
        );

        // The render job's shared in-memory log: the first group to need it
        // renders (holding only that job's lock), later groups reuse it.
        let job_log = |render_job: usize, worker: usize| -> Arc<RenderLog> {
            let job = &plan.render_jobs()[render_job];
            let mut guard = slots[render_job].log.lock().expect("group slot poisoned");
            if let Some(log) = guard.as_ref() {
                return Arc::clone(log);
            }
            // A satisfied job renders only because its artifact failed;
            // it keeps the cache entry it has.
            let (log, _) = stage_a.render(&job.key, worker, job.cached_log.is_none());
            *guard = Some(Arc::clone(&log));
            log
        };

        let per_group = self.with_heartbeat(&progress, || {
            pool::run_indexed(groups, workers, |worker, _i, group| {
                let render_job = &plan.render_jobs()[group.render_job];
                let key = &render_job.key;
                let slot = &slots[group.render_job];
                let opts: Vec<re_core::SimOptions> =
                    group.cells.iter().map(|c| c.point.sim_options()).collect();

                // Satisfied job: stream the cached artifact once for the
                // whole group instead of rendering — frame by frame, so
                // memory stays bounded to one frame per worker.
                let mut streamed = None;
                if let Some(path) = &render_job.cached_log {
                    if !slot.replay_announced.swap(true, Ordering::Relaxed) {
                        observer.on_event(&SweepEvent::RenderLogReplay {
                            scene: key.scene(),
                            tile_size: key.tile_size(),
                            worker,
                        });
                    }
                    let sw = Stopwatch::start();
                    // The artifact was validated when the plan was
                    // annotated, so a failure here means it changed
                    // underneath us — fall back to rendering the key; no
                    // cell of the group was committed yet.
                    if let Ok(reports) = re_core::relog::RelogReader::open(path)
                        .and_then(|mut r| re_core::relog::evaluate_reader_group(&mut r, &opts))
                    {
                        relog_replays.incr();
                        bytes_read.add(std::fs::metadata(path).map_or(0, |m| m.len()));
                        streamed = Some((reports, sw.elapsed()));
                    }
                }
                let replayed = streamed.is_some();
                let (reports, eval) = streamed.unwrap_or_else(|| {
                    let log = job_log(group.render_job, worker);
                    let sw = Stopwatch::start();
                    let reports = re_core::evaluate_group(&log, &opts);
                    (reports, sw.elapsed())
                });
                // Last group of the job: free the log's memory early instead
                // of keeping every job's log alive until the sweep ends.
                if slot.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    *slot.log.lock().expect("group slot poisoned") = None;
                }

                // Commit in cell-id order, each cell charged an equal share
                // of the group's Stage B time.
                let stage_hist = if replayed { &replay_hist } else { &eval_hist };
                let shares = split_duration(eval, group.cells.len());
                group
                    .cells
                    .into_iter()
                    .zip(reports)
                    .zip(shares)
                    .map(|((cell, report), eval)| {
                        stage_hist.record(eval);
                        let sw = Stopwatch::start();
                        on_done(&cell, &report);
                        let store = sw.elapsed();
                        store_hist.record(store);
                        observer.on_event(&SweepEvent::EvalDone {
                            cell: cell.id,
                            scene: key.scene(),
                            worker,
                            replayed,
                            eval,
                            store,
                        });
                        progress.cell_done(&cell.label());
                        CellOutcome { cell, report }
                    })
                    .collect::<Vec<_>>()
            })
        });
        let mut outcomes: Vec<CellOutcome> = per_group.into_iter().flatten().collect();
        outcomes.sort_by_key(|o| o.cell.id);
        outcomes
    }
}

/// Stage A of one execution, shared by both executors: renders a key on
/// demand and persists its log into the `.relog` cache.
struct StageA<'a> {
    traces: &'a HashMap<&'static str, Arc<Trace>>,
    observer: &'a dyn SweepObserver,
    log_cache: crate::artifacts::RenderLogCache,
    compress: bool,
    /// Threads one render may spread its frames over, divided among the
    /// renders in flight: a single hot key fans its frames over every
    /// render worker, while many concurrent keys parallelize across keys
    /// first. Any split is exact (stitching is chunking-invariant), so the
    /// adaptive budget never perturbs results.
    budget: usize,
    active: AtomicUsize,
}

impl<'a> StageA<'a> {
    /// `render_workers` as in [`ThreadExecutor::render_workers`] (0 =
    /// match the `workers` of the execution).
    fn new(
        traces: &'a HashMap<&'static str, Arc<Trace>>,
        observer: &'a dyn SweepObserver,
        log_dir: Option<PathBuf>,
        compress: bool,
        render_workers: usize,
        workers: usize,
    ) -> Self {
        StageA {
            traces,
            observer,
            log_cache: crate::artifacts::RenderLogCache::new(log_dir).with_compression(
                if compress {
                    re_core::relog::Compression::Lzss
                } else {
                    re_core::relog::Compression::None
                },
            ),
            compress,
            budget: if render_workers == 0 {
                workers
            } else {
                render_workers
            },
            active: AtomicUsize::new(0),
        }
    }

    /// Renders `key` and, with `persist`, stores the log in the cache
    /// (best-effort: the cache is an optimization, never a failure
    /// source). Returns the log and the stored artifact's path.
    fn render(
        &self,
        key: &crate::grid::RenderKey,
        worker: usize,
        persist: bool,
    ) -> (Arc<RenderLog>, Option<PathBuf>) {
        let observer = self.observer;
        observer.on_event(&SweepEvent::RenderStart {
            scene: key.scene(),
            tile_size: key.tile_size(),
            worker,
        });
        let trace = match self.traces.get(key.scene()) {
            Some(t) => Arc::clone(t),
            // Traces are only captured for unsatisfied jobs; if a satisfied
            // job's artifact just vanished, capture its trace on the fly.
            None => Arc::new(
                crate::artifacts::capture_alias(
                    key.scene(),
                    key.frames(),
                    re_gpu::GpuConfig {
                        width: key.gpu_config().width,
                        height: key.gpu_config().height,
                        ..re_gpu::GpuConfig::default()
                    },
                )
                .expect("workload aliases in a plan are known"),
            ),
        };
        let in_flight = self.active.fetch_add(1, Ordering::AcqRel) + 1;
        let budget = (self.budget / in_flight).max(1);
        let sw = Stopwatch::start();
        let rendered = render_key_log_parallel(&trace, key, budget);
        self.active.fetch_sub(1, Ordering::AcqRel);
        let duration = sw.elapsed();
        re_obs::metrics::histogram(names::STAGE_RENDER).record(duration);
        re_obs::metrics::counter(names::RENDER_FRAME_CHUNKS).add(rendered.chunks.len() as u64);
        re_obs::metrics::histogram(names::RENDER_STITCH_NS).record(rendered.stitch);
        if rendered.chunks.len() > 1 {
            for t in &rendered.chunks {
                observer.on_event(&SweepEvent::RenderChunkDone {
                    scene: key.scene(),
                    tile_size: key.tile_size(),
                    worker,
                    chunk: t.chunk,
                    chunks: rendered.chunks.len(),
                    frames: t.frames,
                    duration: t.duration,
                });
            }
        }
        let log = Arc::new(rendered.log);
        observer.on_event(&SweepEvent::RenderDone {
            scene: key.scene(),
            tile_size: key.tile_size(),
            worker,
            frames: key.frames(),
            duration,
        });
        let mut stored = None;
        if persist {
            if let Ok(Some(path)) = self.log_cache.store(key, &log) {
                let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                re_obs::metrics::counter(names::RELOG_SAVES).incr();
                re_obs::metrics::counter(names::ARTIFACT_BYTES_WRITTEN).add(bytes);
                if self.compress {
                    re_obs::metrics::counter(names::RELOG_COMPRESSED_BYTES).add(bytes);
                }
                observer.on_event(&SweepEvent::RenderLogSaved {
                    scene: key.scene(),
                    tile_size: key.tile_size(),
                    bytes,
                });
                stored = Some(path);
            }
        }
        (log, stored)
    }
}

/// A Stage B unit of [`ThreadExecutor`]: cells of one render job,
/// evaluated together in one pass over the job's log.
struct CellGroup {
    render_job: usize,
    /// The cells, ascending by id.
    cells: Vec<Cell>,
}

/// Splits `plan`'s cells into [`CellGroup`]s: one per render job, except
/// that with fewer jobs than `workers` each job's cells split into at most
/// ⌈workers / jobs⌉ contiguous groups, so a one-key grid still uses every
/// worker.
fn cell_groups(plan: &SweepPlan, workers: usize) -> Vec<CellGroup> {
    let mut per_job: Vec<Vec<Cell>> = vec![Vec::new(); plan.render_jobs().len()];
    for job in plan.eval_jobs() {
        per_job[job.render_job].push(job.cell);
    }
    let splits = workers.div_ceil(per_job.len().max(1)).max(1);
    per_job
        .into_iter()
        .enumerate()
        .flat_map(|(render_job, cells)| {
            let size = cells.len().div_ceil(splits).max(1);
            cells
                .chunks(size)
                .map(|c| CellGroup {
                    render_job,
                    cells: c.to_vec(),
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// `total` split into `n` shares that sum to it exactly (the first
/// `total % n` nanoseconds go one each to the first shares).
fn split_duration(total: Duration, n: usize) -> Vec<Duration> {
    let n = n.max(1) as u128;
    let nanos = total.as_nanos();
    (0..n)
        .map(|i| {
            let share = nanos / n + u128::from(i < nanos % n);
            Duration::from_nanos(share as u64)
        })
        .collect()
}

/// Cross-execution render deduplication: a process-wide registry of render
/// keys whose Stage A is currently running in *some* execution, so
/// concurrent plans sharing a key rasterize it once between them.
///
/// The `sweep serve` daemon keeps one registry per process and hands it to
/// every [`AsyncExecutor`]: the first execution to reach a key becomes the
/// **leader** (renders, persists the `.relog` artifact, publishes its
/// path); executions reaching the key while that render runs become
/// **followers** and block until the artifact is published, then load it
/// instead of rendering. Keys are registered under their cache file name
/// ([`crate::artifacts::RenderLogCache::file_key`]), which encodes the full
/// render identity (scene, frames, screen, tile size, binning).
///
/// A finished key is removed from the registry — later executions find the
/// persisted artifact through the regular cache lookup instead.
#[derive(Debug, Default)]
pub struct InFlightRenders {
    flights: Mutex<HashMap<String, Arc<Flight>>>,
}

#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

#[derive(Debug)]
enum FlightState {
    Rendering,
    Done(Option<PathBuf>),
}

/// The outcome of [`InFlightRenders::begin`].
pub enum FlightClaim {
    /// No other execution is rendering the key: this caller renders it and
    /// must publish the outcome through [`FlightLease::finish`]. Dropping
    /// the lease unfinished publishes `None`, so followers never hang on a
    /// leader that failed or panicked.
    Leader(FlightLease),
    /// Another execution is already rendering the key;
    /// [`FlightWait::wait`] blocks until it publishes.
    Follower(FlightWait),
}

/// The leader's obligation to publish a render's outcome (see
/// [`FlightClaim::Leader`]).
pub struct FlightLease {
    registry: Arc<InFlightRenders>,
    key: String,
    flight: Arc<Flight>,
    finished: bool,
}

/// A follower's handle on a render another execution is running (see
/// [`FlightClaim::Follower`]).
pub struct FlightWait {
    flight: Arc<Flight>,
}

impl InFlightRenders {
    /// A fresh shared registry.
    pub fn new() -> Arc<Self> {
        Arc::new(InFlightRenders::default())
    }

    /// Claims `key`: [`FlightClaim::Leader`] when nobody is rendering it
    /// (the caller now owns the render), [`FlightClaim::Follower`] when a
    /// render is already in flight.
    pub fn begin(self: &Arc<Self>, key: &str) -> FlightClaim {
        let mut flights = self.flights.lock().expect("flights poisoned");
        if let Some(f) = flights.get(key) {
            return FlightClaim::Follower(FlightWait {
                flight: Arc::clone(f),
            });
        }
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState::Rendering),
            done: Condvar::new(),
        });
        flights.insert(key.to_string(), Arc::clone(&flight));
        FlightClaim::Leader(FlightLease {
            registry: Arc::clone(self),
            key: key.to_string(),
            flight,
            finished: false,
        })
    }

    /// Render keys currently in flight (for status displays).
    pub fn len(&self) -> usize {
        self.flights.lock().expect("flights poisoned").len()
    }

    /// Whether no render is currently in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl FlightLease {
    /// Publishes the render's outcome to every follower: the path of the
    /// persisted `.relog` artifact, or `None` when the render could not be
    /// persisted (followers then render the key themselves).
    pub fn finish(mut self, artifact: Option<PathBuf>) {
        self.publish(artifact);
    }

    fn publish(&mut self, artifact: Option<PathBuf>) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.registry
            .flights
            .lock()
            .expect("flights poisoned")
            .remove(&self.key);
        *self.flight.state.lock().expect("flight poisoned") = FlightState::Done(artifact);
        self.flight.done.notify_all();
    }
}

impl Drop for FlightLease {
    fn drop(&mut self) {
        self.publish(None);
    }
}

impl FlightWait {
    /// Blocks until the leader publishes, then returns the artifact path
    /// (`None` when the leader could not persist one — the caller renders
    /// the key itself).
    pub fn wait(&self) -> Option<PathBuf> {
        let mut state = self.flight.state.lock().expect("flight poisoned");
        loop {
            match &*state {
                FlightState::Done(p) => return p.clone(),
                FlightState::Rendering => {
                    state = self.flight.done.wait(state).expect("flight poisoned")
                }
            }
        }
    }
}

/// One render job's prefetched artifact bytes.
struct PrefetchSlot {
    bytes: Mutex<Option<Arc<Vec<u8>>>>,
    ready: Condvar,
    failed: AtomicBool,
}

/// Book-keeping of the replay-prefetch thread.
struct IoState {
    /// Per render job: whether its artifact read has started.
    read: Vec<bool>,
    /// Jobs a worker is blocked on (served before speculation and outside
    /// the window, so a waiting worker can never deadlock against it).
    demanded: VecDeque<usize>,
    /// Next index into the satisfied-job list to speculate on.
    next: usize,
    /// Artifacts read but not yet fully consumed (bounds memory).
    outstanding: usize,
}

/// The [`AsyncExecutor`]'s replay pipeline: a dedicated I/O thread reads
/// `.relog` artifacts ahead of the workers, which decode and evaluate from
/// memory — replay disk reads overlap evaluation instead of serializing
/// with it inside each worker.
struct Prefetcher {
    slots: Vec<PrefetchSlot>,
    state: Mutex<IoState>,
    io_wake: Condvar,
    window: usize,
}

impl Prefetcher {
    fn new(render_jobs: usize, window: usize) -> Self {
        Prefetcher {
            slots: (0..render_jobs)
                .map(|_| PrefetchSlot {
                    bytes: Mutex::new(None),
                    ready: Condvar::new(),
                    failed: AtomicBool::new(false),
                })
                .collect(),
            state: Mutex::new(IoState {
                read: vec![false; render_jobs],
                demanded: VecDeque::new(),
                next: 0,
                outstanding: 0,
            }),
            io_wake: Condvar::new(),
            window: window.max(1),
        }
    }

    /// The I/O thread body: reads every satisfied job's artifact, demanded
    /// jobs first, then speculatively in plan order while fewer than
    /// `window` read artifacts await consumption.
    fn run_io(&self, plan: &SweepPlan, satisfied: &[usize]) {
        let mut reads = 0;
        while reads < satisfied.len() {
            let job = {
                let mut st = self.state.lock().expect("prefetch state poisoned");
                loop {
                    let demanded = loop {
                        match st.demanded.pop_front() {
                            Some(j) if !st.read[j] => break Some(j),
                            Some(_) => continue,
                            None => break None,
                        }
                    };
                    if let Some(j) = demanded {
                        break j;
                    }
                    while st.next < satisfied.len() && st.read[satisfied[st.next]] {
                        st.next += 1;
                    }
                    if st.next < satisfied.len() && st.outstanding < self.window {
                        let j = satisfied[st.next];
                        st.next += 1;
                        break j;
                    }
                    st = self.io_wake.wait(st).expect("prefetch state poisoned");
                }
            };
            {
                let mut st = self.state.lock().expect("prefetch state poisoned");
                st.read[job] = true;
                st.outstanding += 1;
            }
            let path = plan.render_jobs()[job]
                .cached_log
                .as_ref()
                .expect("satisfied jobs carry a cached log");
            match std::fs::read(path) {
                Ok(b) => {
                    let slot = &self.slots[job];
                    *slot.bytes.lock().expect("prefetch slot poisoned") = Some(Arc::new(b));
                    slot.ready.notify_all();
                }
                Err(_) => {
                    // The artifact vanished or the read failed: publish the
                    // failure so waiting cells fall back to rendering.
                    let slot = &self.slots[job];
                    slot.failed.store(true, Ordering::Release);
                    slot.ready.notify_all();
                }
            }
            reads += 1;
        }
    }

    /// A cell's view of its job's artifact bytes: demands the read if it
    /// has not started, blocks until the bytes (shared by every cell of
    /// the job) are ready, and returns `None` when the read failed.
    fn take(&self, job: usize) -> Option<Arc<Vec<u8>>> {
        let slot = &self.slots[job];
        let mut bytes = slot.bytes.lock().expect("prefetch slot poisoned");
        if bytes.is_none() && !slot.failed.load(Ordering::Acquire) {
            {
                let mut st = self.state.lock().expect("prefetch state poisoned");
                if !st.read[job] {
                    st.demanded.push_back(job);
                    self.io_wake.notify_one();
                }
            }
            while bytes.is_none() && !slot.failed.load(Ordering::Acquire) {
                bytes = slot.ready.wait(bytes).expect("prefetch slot poisoned");
            }
        }
        bytes.clone()
    }

    /// Releases a fully evaluated job's bytes and lets speculation advance.
    fn consume(&self, job: usize) {
        *self.slots[job]
            .bytes
            .lock()
            .expect("prefetch slot poisoned") = None;
        let mut st = self.state.lock().expect("prefetch state poisoned");
        st.outstanding = st.outstanding.saturating_sub(1);
        self.io_wake.notify_one();
    }
}

/// The overlapped-pipeline executor behind `sweep serve` — the planned
/// second [`Executor`] implementation on the plan/executor seam.
///
/// Two things distinguish it from [`ThreadExecutor`]:
///
/// * **Overlapped replay I/O.** Render jobs satisfied by a cached `.relog`
///   are read by a dedicated prefetch thread (`Prefetcher`) — demanded
///   reads first, then speculative read-ahead bounded by
///   [`prefetch`](Self::prefetch) — while workers decode and evaluate the
///   bytes from memory. Workers never block on disk unless the artifact
///   genuinely is not read yet.
/// * **Cross-execution render dedup.** With a shared
///   [`InFlightRenders`] registry ([`in_flight`](Self::in_flight)),
///   concurrent executions (the daemon's queued submissions) rasterize
///   each render key once between them: the leader renders and persists,
///   followers wait and load the artifact. A late cache lookup also
///   catches artifacts persisted after this plan was compiled.
///
/// Renders are always grouped (one Stage A per render key shared by its
/// cells); outcomes keep the executor contract — cell-id order,
/// bit-identical to [`ThreadExecutor`]'s at any worker count.
#[derive(Debug, Clone)]
pub struct AsyncExecutor {
    /// Worker threads; 0 means [`pool::default_workers`].
    pub workers: usize,
    /// Directory of the `.relog` artifact cache — both where freshly
    /// rendered logs are persisted and where the late lookup and in-flight
    /// followers load from (`None` disables persistence and makes every
    /// follower re-render).
    pub log_dir: Option<PathBuf>,
    /// Stage A frame-parallel budget (same semantics as
    /// [`ThreadExecutor::render_workers`]).
    pub render_workers: usize,
    /// Persist `.relog` artifacts LZSS-compressed.
    pub relog_compress: bool,
    /// Interval of the [`SweepEvent::Progress`] heartbeat (`None` =
    /// disabled).
    pub heartbeat: Option<Duration>,
    /// Replay artifacts the prefetch thread may hold in memory awaiting
    /// consumption (speculative read-ahead window; demanded reads bypass
    /// it). Clamped to at least 1.
    pub prefetch: usize,
    /// Shared cross-execution render registry (`None` = dedup only against
    /// the disk cache).
    pub in_flight: Option<Arc<InFlightRenders>>,
}

impl Default for AsyncExecutor {
    fn default() -> Self {
        AsyncExecutor {
            workers: 0,
            log_dir: None,
            render_workers: 0,
            relog_compress: false,
            heartbeat: Some(Duration::from_secs(10)),
            prefetch: 3,
            in_flight: None,
        }
    }
}

impl Executor for AsyncExecutor {
    fn execute(
        &self,
        plan: &SweepPlan,
        traces: &HashMap<&'static str, Arc<Trace>>,
        observer: &dyn SweepObserver,
        on_done: &(dyn Fn(&Cell, &RunReport) + Sync),
    ) -> Vec<CellOutcome> {
        let jobs = plan.eval_jobs().to_vec();
        let workers = if self.workers == 0 {
            pool::default_workers()
        } else {
            self.workers
        }
        .clamp(1, jobs.len().max(1));
        let progress = Progress::new(jobs.len(), observer);

        let slots: Vec<GroupSlot> = plan
            .render_jobs()
            .iter()
            .map(|rj| GroupSlot {
                log: Mutex::new(None),
                remaining: AtomicUsize::new(rj.cells.len()),
                replay_announced: AtomicBool::new(false),
            })
            .collect();
        observer.on_event(&SweepEvent::GroupStart {
            cells: jobs.len(),
            render_jobs: slots.len(),
            workers,
            shard: plan.shard_spec(),
        });
        let eval_hist = re_obs::metrics::histogram(names::STAGE_EVAL);
        let store_hist = re_obs::metrics::histogram(names::STAGE_STORE);
        let replay_hist = re_obs::metrics::histogram(names::STAGE_REPLAY);
        let relog_replays = re_obs::metrics::counter(names::RELOG_REPLAYS);
        let bytes_read = re_obs::metrics::counter(names::ARTIFACT_BYTES_READ);
        let inflight_hits = re_obs::metrics::counter(names::SERVE_DEDUP_INFLIGHT);
        let stage_a = StageA::new(
            traces,
            observer,
            self.log_dir.clone(),
            self.relog_compress,
            self.render_workers,
            workers,
        );

        // Loads a persisted artifact into a shared in-memory log (the
        // follower / late-lookup path). Invalid artifacts return `None`.
        let load_artifact = |path: &std::path::Path| -> Option<Arc<RenderLog>> {
            let log = re_core::relog::load(path).ok()?;
            bytes_read.add(std::fs::metadata(path).map_or(0, |m| m.len()));
            Some(Arc::new(log))
        };

        let satisfied: Vec<usize> = plan
            .render_jobs()
            .iter()
            .enumerate()
            .filter(|(_, rj)| rj.cached_log.is_some())
            .map(|(i, _)| i)
            .collect();
        let pre = Prefetcher::new(plan.render_jobs().len(), self.prefetch);

        run_with_heartbeat(self.heartbeat, &progress, || {
            std::thread::scope(|scope| {
                scope.spawn(|| pre.run_io(plan, &satisfied));
                pool::run_indexed(jobs, workers, |worker, _i, job| {
                    let render_job = &plan.render_jobs()[job.render_job];
                    let key = &render_job.key;
                    let slot = &slots[job.render_job];
                    let opts = job.cell.point.sim_options();

                    // The last cell of a job frees its shared state (the
                    // in-memory log and the prefetched bytes) early.
                    let finish_job = || {
                        if slot.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            *slot.log.lock().expect("group slot poisoned") = None;
                            if render_job.cached_log.is_some() {
                                pre.consume(job.render_job);
                            }
                        }
                    };

                    // Satisfied job: evaluate the prefetched bytes (the
                    // disk read already happened on the I/O thread).
                    if render_job.cached_log.is_some() {
                        if let Some(bytes) = pre.take(job.render_job) {
                            if !slot.replay_announced.swap(true, Ordering::Relaxed) {
                                observer.on_event(&SweepEvent::RenderLogReplay {
                                    scene: key.scene(),
                                    tile_size: key.tile_size(),
                                    worker,
                                });
                            }
                            let sw = Stopwatch::start();
                            let streamed =
                                re_core::relog::RelogReader::new(std::io::Cursor::new(&bytes[..]))
                                    .and_then(|mut r| {
                                        re_core::relog::evaluate_reader(&mut r, &opts)
                                    });
                            if let Ok(report) = streamed {
                                let eval = sw.elapsed();
                                replay_hist.record(eval);
                                relog_replays.incr();
                                bytes_read.add(bytes.len() as u64);
                                let sw = Stopwatch::start();
                                on_done(&job.cell, &report);
                                let store = sw.elapsed();
                                store_hist.record(store);
                                observer.on_event(&SweepEvent::EvalDone {
                                    cell: job.cell.id,
                                    scene: key.scene(),
                                    worker,
                                    replayed: true,
                                    eval,
                                    store,
                                });
                                progress.cell_done(&job.cell.label());
                                finish_job();
                                return CellOutcome {
                                    cell: job.cell,
                                    report,
                                };
                            }
                        }
                        // Read or decode failure: the artifact changed
                        // underneath us — render the key like any other job.
                    }

                    let log = {
                        let mut guard = slot.log.lock().expect("group slot poisoned");
                        match guard.as_ref() {
                            Some(log) => Arc::clone(log),
                            None => {
                                // Late cache lookup: another execution may
                                // have persisted this key after this plan
                                // was annotated.
                                let built = if let Some(log) = stage_a
                                    .log_cache
                                    .lookup(key)
                                    .and_then(|p| load_artifact(&p))
                                {
                                    if !slot.replay_announced.swap(true, Ordering::Relaxed) {
                                        observer.on_event(&SweepEvent::RenderLogReplay {
                                            scene: key.scene(),
                                            tile_size: key.tile_size(),
                                            worker,
                                        });
                                    }
                                    log
                                } else if let Some(flights) = &self.in_flight {
                                    match flights
                                        .begin(&crate::artifacts::RenderLogCache::file_key(key))
                                    {
                                        FlightClaim::Leader(lease) => {
                                            let (log, stored) = stage_a.render(key, worker, true);
                                            lease.finish(stored);
                                            log
                                        }
                                        FlightClaim::Follower(waiter) => {
                                            match waiter.wait().and_then(|p| load_artifact(&p)) {
                                                Some(log) => {
                                                    inflight_hits.incr();
                                                    if !slot
                                                        .replay_announced
                                                        .swap(true, Ordering::Relaxed)
                                                    {
                                                        observer.on_event(
                                                            &SweepEvent::RenderLogReplay {
                                                                scene: key.scene(),
                                                                tile_size: key.tile_size(),
                                                                worker,
                                                            },
                                                        );
                                                    }
                                                    log
                                                }
                                                // The leader could not
                                                // persist: render locally.
                                                None => stage_a.render(key, worker, true).0,
                                            }
                                        }
                                    }
                                } else {
                                    stage_a.render(key, worker, true).0
                                };
                                *guard = Some(Arc::clone(&built));
                                built
                            }
                        }
                    };
                    let sw = Stopwatch::start();
                    let report = re_core::evaluate(&log, &opts);
                    let eval = sw.elapsed();
                    eval_hist.record(eval);
                    drop(log);
                    let sw = Stopwatch::start();
                    on_done(&job.cell, &report);
                    let store = sw.elapsed();
                    store_hist.record(store);
                    observer.on_event(&SweepEvent::EvalDone {
                        cell: job.cell.id,
                        scene: key.scene(),
                        worker,
                        replayed: false,
                        eval,
                        store,
                    });
                    progress.cell_done(&job.cell.label());
                    finish_job();
                    CellOutcome {
                        cell: job.cell,
                        report,
                    }
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis;
    use crate::engine::capture_traces;
    use crate::grid::ExperimentGrid;
    use crate::SweepOptions;

    fn tiny_grid() -> ExperimentGrid {
        let mut g = ExperimentGrid::default()
            .with_scenes(&["ccs"])
            .with_axis(axis::SIG_BITS, vec![16, 32]);
        g.frames = 2;
        g.width = 128;
        g.height = 64;
        g
    }

    /// Collects events (thread-safely) for assertions.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<String>>);

    impl SweepObserver for Recorder {
        fn on_event(&self, event: &SweepEvent<'_>) {
            let tag = match event {
                SweepEvent::CaptureStart { scene, .. } => format!("capture:{scene}"),
                SweepEvent::CaptureDone { scene, .. } => format!("captured:{scene}"),
                SweepEvent::GroupStart {
                    cells,
                    render_jobs,
                    workers,
                    shard,
                } => {
                    format!(
                        "group:{cells}/{render_jobs}:w{workers}{}",
                        match shard {
                            Some(s) => format!(":{s}"),
                            None => String::new(),
                        }
                    )
                }
                SweepEvent::RenderStart { scene, .. } => format!("render:{scene}"),
                SweepEvent::RenderDone { scene, .. } => format!("rendered:{scene}"),
                SweepEvent::RenderChunkDone {
                    scene,
                    chunk,
                    chunks,
                    ..
                } => format!("chunk:{scene}:{chunk}/{chunks}"),
                SweepEvent::RenderLogReplay { scene, .. } => format!("replay:{scene}"),
                SweepEvent::RenderLogSaved { scene, .. } => format!("logsaved:{scene}"),
                SweepEvent::EvalDone { cell, replayed, .. } => {
                    format!("eval:{cell}:{replayed}")
                }
                SweepEvent::CellDone { done, total, .. } => format!("done:{done}/{total}"),
                SweepEvent::Progress { done, total, .. } => format!("progress:{done}/{total}"),
                SweepEvent::StoreResume { resumed, pending } => {
                    format!("resume:{resumed}+{pending}")
                }
            };
            self.0.lock().unwrap().push(tag);
        }
    }

    #[test]
    fn thread_executor_runs_a_plan_and_reports_events() {
        let grid = tiny_grid();
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_traces(&grid, &opts).expect("capture");
        let recorder = Recorder::default();
        let count = AtomicUsize::new(0);
        let exec = ThreadExecutor {
            workers: 2,
            ..ThreadExecutor::default()
        };
        let outcomes = exec.execute(&plan, &traces, &recorder, &|_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(outcomes.len(), 2);
        assert_eq!(count.load(Ordering::Relaxed), 2);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.cell.id, i);
        }
        let events = recorder.0.into_inner().unwrap();
        assert!(events.contains(&"group:2/1:w2".to_string()), "{events:?}");
        // One render (one key), two cell completions, two eval records.
        assert_eq!(events.iter().filter(|e| *e == "render:ccs").count(), 1);
        assert_eq!(events.iter().filter(|e| *e == "rendered:ccs").count(), 1);
        assert!(events.contains(&"done:2/2".to_string()), "{events:?}");
        assert!(events.contains(&"eval:0:false".to_string()), "{events:?}");
        assert!(events.contains(&"eval:1:false".to_string()), "{events:?}");
        // The final heartbeat tick always fires, with everything done.
        assert!(events.contains(&"progress:2/2".to_string()), "{events:?}");
    }

    #[test]
    fn heartbeat_interval_ticks_during_execution() {
        let grid = tiny_grid();
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_traces(&grid, &opts).expect("capture");
        let recorder = Recorder::default();
        let exec = ThreadExecutor {
            workers: 1,
            heartbeat: Some(Duration::from_millis(1)),
            ..ThreadExecutor::default()
        };
        exec.execute(&plan, &traces, &recorder, &|_, _| {});
        let events = recorder.0.into_inner().unwrap();
        let ticks = events.iter().filter(|e| e.starts_with("progress:")).count();
        assert!(ticks >= 1, "{events:?}");
    }

    #[test]
    fn disabled_heartbeat_emits_no_progress() {
        let grid = tiny_grid();
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_traces(&grid, &opts).expect("capture");
        let recorder = Recorder::default();
        let exec = ThreadExecutor {
            workers: 2,
            heartbeat: None,
            ..ThreadExecutor::default()
        };
        exec.execute(&plan, &traces, &recorder, &|_, _| {});
        let events = recorder.0.into_inner().unwrap();
        assert!(
            !events.iter().any(|e| e.starts_with("progress:")),
            "{events:?}"
        );
    }

    #[test]
    fn frame_parallel_stage_a_emits_chunk_events_and_matches_serial() {
        let mut grid = tiny_grid();
        grid.frames = 6;
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_traces(&grid, &opts).expect("capture");
        let run = |render_workers| {
            let recorder = Recorder::default();
            let outcomes = ThreadExecutor {
                workers: 2,
                render_workers,
                ..ThreadExecutor::default()
            }
            .execute(&plan, &traces, &recorder, &|_, _| {});
            (outcomes, recorder.0.into_inner().unwrap())
        };
        let (serial, serial_events) = run(1);
        let (parallel, parallel_events) = run(4);
        // Serial Stage A emits no chunk events; the 4-way render splits its
        // single key's 6 frames into 4 chunks, announced before RenderDone.
        assert!(
            !serial_events.iter().any(|e| e.starts_with("chunk:")),
            "{serial_events:?}"
        );
        for chunk in 0..4 {
            assert!(
                parallel_events.contains(&format!("chunk:ccs:{chunk}/4")),
                "{parallel_events:?}"
            );
        }
        // Outcomes are bit-identical regardless of the render budget.
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.report, b.report, "cell {}", a.cell.id);
        }
    }

    #[test]
    fn grouped_and_per_cell_executors_agree() {
        let grid = tiny_grid();
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_traces(&grid, &opts).expect("capture");
        let run = |group_renders| {
            ThreadExecutor {
                workers: 2,
                group_renders,
                ..ThreadExecutor::default()
            }
            .execute(&plan, &traces, &NullObserver, &|_, _| {})
        };
        let (grouped, per_cell) = (run(true), run(false));
        assert_eq!(grouped.len(), per_cell.len());
        for (a, b) in grouped.iter().zip(&per_cell) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn cell_groups_split_only_when_keys_are_fewer_than_workers() {
        let mut grid = ExperimentGrid::default()
            .with_scenes(&["ccs", "tib"])
            .with_axis(axis::SIG_BITS, vec![8, 16, 32])
            .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
        grid.frames = 2;
        let plan = SweepPlan::compile(&grid);
        let shape = |workers| {
            cell_groups(&plan, workers)
                .iter()
                .map(|g| {
                    (
                        g.render_job,
                        g.cells.iter().map(|c| c.id).collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        // As many keys as workers or more: one group per key.
        for workers in [1, 2] {
            let groups = shape(workers);
            assert_eq!(groups.len(), 2, "{groups:?}");
            for (job, cells) in &groups {
                assert_eq!(cells, &plan.render_jobs()[*job].cells);
            }
        }
        // Fewer keys than workers: at most ⌈workers / keys⌉ groups per key,
        // together covering each key's cells in id order.
        for workers in [3, 4, 5, 12] {
            let groups = shape(workers);
            let splits = workers.div_ceil(2);
            for (job, rj) in plan.render_jobs().iter().enumerate() {
                let mine: Vec<&Vec<usize>> = groups
                    .iter()
                    .filter(|(j, _)| *j == job)
                    .map(|(_, c)| c)
                    .collect();
                assert!(mine.len() > 1 && mine.len() <= splits, "{groups:?}");
                let joined: Vec<usize> = mine.into_iter().flatten().copied().collect();
                assert_eq!(joined, rj.cells);
            }
        }
    }

    #[test]
    fn split_duration_shares_sum_exactly() {
        let shares = split_duration(Duration::from_nanos(1_000_000_007), 3);
        assert_eq!(
            shares.iter().sum::<Duration>(),
            Duration::from_nanos(1_000_000_007)
        );
        assert_eq!(shares[0], Duration::from_nanos(333_333_336));
        assert_eq!(shares[2], Duration::from_nanos(333_333_335));
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("re_exec_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn async_executor_matches_thread_executor_cold_and_warm() {
        let grid = tiny_grid();
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_traces(&grid, &opts).expect("capture");
        let reference = ThreadExecutor {
            workers: 2,
            ..ThreadExecutor::default()
        }
        .execute(&plan, &traces, &NullObserver, &|_, _| {});

        // Cold: no artifacts yet, the async executor renders and persists.
        let dir = tmp_dir("async_cold");
        let exec = AsyncExecutor {
            workers: 2,
            log_dir: Some(dir.clone()),
            heartbeat: None,
            ..AsyncExecutor::default()
        };
        let recorder = Recorder::default();
        let cold = exec.execute(&plan, &traces, &recorder, &|_, _| {});
        assert_eq!(cold.len(), reference.len());
        for (a, b) in cold.iter().zip(&reference) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.report, b.report, "cold cell {}", a.cell.id);
        }
        let events = recorder.0.into_inner().unwrap();
        assert_eq!(events.iter().filter(|e| *e == "render:ccs").count(), 1);

        // Warm: annotate the plan against the now-populated cache — every
        // cell replays through the prefetch pipeline, nothing renders.
        let mut warm_plan = plan.clone();
        warm_plan.attach_cached_logs(&crate::artifacts::RenderLogCache::new(Some(dir.clone())));
        let recorder = Recorder::default();
        let warm = exec.execute(&warm_plan, &traces, &recorder, &|_, _| {});
        assert_eq!(warm.len(), reference.len());
        for (a, b) in warm.iter().zip(&reference) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.report, b.report, "warm cell {}", a.cell.id);
        }
        let events = recorder.0.into_inner().unwrap();
        assert!(
            !events.iter().any(|e| e.starts_with("render:")),
            "warm run must not render: {events:?}"
        );
        assert!(events.contains(&"eval:0:true".to_string()), "{events:?}");
        assert!(events.contains(&"eval:1:true".to_string()), "{events:?}");

        // A vanished artifact falls back to rendering, same results.
        for entry in std::fs::read_dir(&dir).expect("ls") {
            let _ = std::fs::remove_file(entry.expect("entry").path());
        }
        let recorder = Recorder::default();
        let refetched = exec.execute(&warm_plan, &traces, &recorder, &|_, _| {});
        for (a, b) in refetched.iter().zip(&reference) {
            assert_eq!(a.report, b.report, "refetch cell {}", a.cell.id);
        }
        let events = recorder.0.into_inner().unwrap();
        assert_eq!(events.iter().filter(|e| *e == "render:ccs").count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_groups_match_per_cell_and_fall_back_to_one_render() {
        let mut grid = ExperimentGrid::default()
            .with_scenes(&["ccs", "tib"])
            .with_axis(axis::SIG_BITS, vec![16, 32])
            .with_axis(axis::COMPARE_DISTANCE, vec![1, 2])
            .with_axis(axis::MEMO_KB, vec![4, 16]);
        grid.frames = 3;
        grid.width = 96;
        grid.height = 64;
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_traces(&grid, &opts).expect("capture");
        let reference = ThreadExecutor {
            workers: 2,
            group_renders: false,
            heartbeat: None,
            ..ThreadExecutor::default()
        }
        .execute(&plan, &traces, &NullObserver, &|_, _| {});

        let dir = tmp_dir("warm_groups");
        let exec = |workers| ThreadExecutor {
            workers,
            log_dir: Some(dir.clone()),
            heartbeat: None,
            ..ThreadExecutor::default()
        };
        let same = |outcomes: &[CellOutcome], what: &str| {
            assert_eq!(outcomes.len(), reference.len());
            for (a, b) in outcomes.iter().zip(&reference) {
                assert_eq!(a.cell, b.cell);
                assert_eq!(a.report, b.report, "{what} cell {}", a.cell.id);
            }
        };
        // Cold: renders both keys once, persists them.
        same(
            &exec(2).execute(&plan, &traces, &NullObserver, &|_, _| {}),
            "cold",
        );
        let mut warm_plan = plan.clone();
        let cache = crate::artifacts::RenderLogCache::new(Some(dir.clone()));
        assert_eq!(warm_plan.attach_cached_logs(&cache), 2);

        // Warm, one group per key and split groups: nothing renders, every
        // cell replays, and commits arrive in cell-id order within a group.
        for workers in [1, 2, 5] {
            let recorder = Recorder::default();
            let committed = Mutex::new(Vec::new());
            let warm = exec(workers).execute(&warm_plan, &traces, &recorder, &|c, _| {
                committed.lock().unwrap().push(c.id);
            });
            same(&warm, &format!("warm w{workers}"));
            let events = recorder.0.into_inner().unwrap();
            assert!(
                !events.iter().any(|e| e.starts_with("render:")),
                "{events:?}"
            );
            for cell in 0..reference.len() {
                assert!(events.contains(&format!("eval:{cell}:true")), "{events:?}");
            }
            if workers == 1 {
                assert_eq!(
                    committed.into_inner().unwrap(),
                    plan.render_jobs()[0]
                        .cells
                        .iter()
                        .chain(&plan.render_jobs()[1].cells)
                        .copied()
                        .collect::<Vec<_>>()
                );
            }
        }

        // An artifact that breaks partway through the stream: each key is
        // rendered once (shared by its split groups), and the reports
        // still match.
        for job in warm_plan.render_jobs() {
            let path = job.cached_log.as_ref().expect("cached");
            let len = std::fs::metadata(path).expect("stat").len();
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .expect("open");
            file.set_len(len - 16).expect("truncate");
        }
        let recorder = Recorder::default();
        same(
            &exec(4).execute(&warm_plan, &traces, &recorder, &|_, _| {}),
            "fallback",
        );
        let events = recorder.0.into_inner().unwrap();
        for scene in ["ccs", "tib"] {
            let renders = events
                .iter()
                .filter(|e| **e == format!("render:{scene}"))
                .count();
            assert_eq!(renders, 1, "{events:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inflight_follower_reuses_the_leaders_artifact() {
        let grid = tiny_grid();
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_traces(&grid, &opts).expect("capture");
        let reference = ThreadExecutor {
            workers: 1,
            ..ThreadExecutor::default()
        }
        .execute(&plan, &traces, &NullObserver, &|_, _| {});

        let dir = tmp_dir("async_inflight");
        let registry = InFlightRenders::new();
        let key = plan.render_jobs()[0].key;
        let file_key = crate::artifacts::RenderLogCache::file_key(&key);

        // The test thread plays the leader deterministically: claim the
        // key, *then* start an execution that must become a follower.
        let lease = match registry.begin(&file_key) {
            FlightClaim::Leader(l) => l,
            FlightClaim::Follower(_) => panic!("fresh registry must grant leadership"),
        };
        assert_eq!(registry.len(), 1);

        let recorder = Recorder::default();
        let follower = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                AsyncExecutor {
                    workers: 2,
                    log_dir: Some(dir.clone()),
                    heartbeat: None,
                    in_flight: Some(Arc::clone(&registry)),
                    ..AsyncExecutor::default()
                }
                .execute(&plan, &traces, &recorder, &|_, _| {})
            });
            // Publish the artifact the follower is waiting for.
            let cache = crate::artifacts::RenderLogCache::new(Some(dir.clone()));
            let log = crate::engine::render_key_log(&traces[key.scene()], &key);
            let path = cache.store(&key, &log).expect("store").expect("path");
            lease.finish(Some(path));
            handle.join().expect("follower execution")
        });
        assert!(registry.is_empty(), "finished flights are deregistered");
        for (a, b) in follower.iter().zip(&reference) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.report, b.report, "cell {}", a.cell.id);
        }
        let events = recorder.0.into_inner().unwrap();
        assert!(
            !events.iter().any(|e| e.starts_with("render:")),
            "the follower must not rasterize: {events:?}"
        );
        assert!(
            events.contains(&"replay:ccs".to_string()),
            "the follower announces the reuse: {events:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_lease_unblocks_followers_with_none() {
        let registry = InFlightRenders::new();
        let lease = match registry.begin("k") {
            FlightClaim::Leader(l) => l,
            FlightClaim::Follower(_) => panic!("fresh registry must grant leadership"),
        };
        let waiter = match registry.begin("k") {
            FlightClaim::Follower(w) => w,
            FlightClaim::Leader(_) => panic!("second claim must follow"),
        };
        let handle = std::thread::spawn(move || waiter.wait());
        // The leader dies without publishing (panic, I/O error, …): the
        // drop guard must release the follower rather than hang it.
        drop(lease);
        assert_eq!(handle.join().expect("waiter"), None);
        assert!(registry.is_empty(), "aborted flights are deregistered");
        // The key is claimable again afterwards.
        assert!(matches!(registry.begin("k"), FlightClaim::Leader(_)));
    }

    #[test]
    fn multi_observer_fans_out() {
        let a = Arc::new(Recorder::default());
        let b = Arc::new(Recorder::default());
        let multi = MultiObserver::new(vec![
            Arc::clone(&a) as Arc<dyn SweepObserver>,
            Arc::clone(&b) as Arc<dyn SweepObserver>,
        ]);
        multi.on_event(&SweepEvent::StoreResume {
            resumed: 1,
            pending: 2,
        });
        assert_eq!(*a.0.lock().unwrap(), vec!["resume:1+2".to_string()]);
        assert_eq!(*b.0.lock().unwrap(), vec!["resume:1+2".to_string()]);
    }
}
