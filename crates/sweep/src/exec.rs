//! Plan execution: the [`ThreadExecutor`] and the [`SweepObserver`]
//! progress-event channel.
//!
//! The executor takes a compiled [`SweepPlan`] plus the captured traces and
//! runs the plan's jobs, returning outcomes in cell-id order. Its contract:
//!
//! * **render-once** — each [`crate::plan::RenderJob`] runs Stage A at
//!   most once (never, when a cached `.relog` satisfies it) and its log is
//!   shared by the job's eval cells;
//! * **deterministic output** — outcomes are returned in cell-id order and
//!   each report is a pure function of the cell, so results are
//!   byte-identical across worker counts and scheduling, and to the
//!   per-cell reference [`crate::engine::run_cell`].
//!
//! Every caller runs on it: the one-shot CLI, the `sweep serve` daemon and
//! the bench harness.
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

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use re_core::render::RenderLog;
use re_core::RunReport;
use re_obs::names;
use re_obs::Stopwatch;
use re_trace::Trace;

use crate::engine::{render_key_log_parallel, CellOutcome};
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
        /// replayed cell this includes the artifact's disk read.
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

/// The std-thread work-stealing executor every sweep runs on.
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
    /// Worker threads; 0 means [`pool::default_workers`]. An execution
    /// never starts more threads than it has cell groups.
    pub workers: usize,
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
    /// Persist `.relog` frame records LZSS-compressed (when smaller)
    /// instead of stored. Replay reads either transparently.
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
            log_dir: None,
            render_workers: 0,
            relog_compress: false,
            heartbeat: Some(Duration::from_secs(10)),
        }
    }
}

impl ThreadExecutor {
    /// Runs `body` with the heartbeat watchdog alive (when enabled and there
    /// is work): ticks every interval, plus a final tick after `body`
    /// returns so every execution's event stream ends with a `done == total`
    /// progress record.
    fn with_heartbeat<R>(&self, progress: &Progress<'_>, body: impl FnOnce() -> R) -> R {
        let Some(interval) = self.heartbeat else {
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

    /// Executes every job of `plan` against already-captured traces and
    /// returns one outcome per eval job, in cell-id order.
    ///
    /// `on_done` is invoked from worker context as each cell completes (the
    /// store's commit hook).
    pub fn execute(
        &self,
        plan: &SweepPlan,
        traces: &HashMap<&'static str, Arc<Trace>>,
        observer: &dyn SweepObserver,
        on_done: &(dyn Fn(&Cell, &RunReport) + Sync),
    ) -> Vec<CellOutcome> {
        let jobs = plan.eval_jobs();
        let requested = match self.workers {
            0 => pool::default_workers(),
            n => n,
        };
        // The Stage B units: each render job's cells, split so a grid with
        // fewer keys than workers still keeps every worker busy. The pool
        // runs one thread per group at most, so that is the real count.
        let groups = cell_groups(plan, requested.clamp(1, jobs.len().max(1)));
        let workers = requested.clamp(1, groups.len().max(1));
        let progress = Progress::new(jobs.len(), observer);

        // Stage histograms and cache counters, resolved once per
        // execution so workers never touch the registry lock.
        let eval_hist = re_obs::metrics::histogram(names::STAGE_EVAL);
        let store_hist = re_obs::metrics::histogram(names::STAGE_STORE);
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
            let log = stage_a.render(&job.key, worker, job.cached_log.is_none());
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

/// Stage A of one execution: renders a key on demand and persists its log
/// into the `.relog` cache.
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
    /// source).
    fn render(&self, key: &crate::grid::RenderKey, worker: usize, persist: bool) -> Arc<RenderLog> {
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
            }
        }
        log
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis;
    use crate::engine::{capture_plan_traces, capture_traces};
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

    /// The per-cell reference outcomes of `plan`: every cell through
    /// [`crate::engine::run_cell`], rendering its key again each time.
    fn per_cell_reference(
        plan: &SweepPlan,
        traces: &HashMap<&'static str, Arc<Trace>>,
    ) -> Vec<CellOutcome> {
        plan.eval_jobs()
            .iter()
            .map(|j| CellOutcome {
                cell: j.cell,
                report: crate::engine::run_cell(&traces[j.cell.scene()], &j.cell),
            })
            .collect()
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
        let grouped = ThreadExecutor {
            workers: 2,
            ..ThreadExecutor::default()
        }
        .execute(&plan, &traces, &NullObserver, &|_, _| {});
        let per_cell = per_cell_reference(&plan, &traces);
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
    fn group_start_reports_the_threads_the_groups_can_use() {
        // Keys with (3, 1, 1) cells at five workers: ⌈5 / 3⌉ = 2 splits
        // give 2 + 1 + 1 = 4 cell groups, so only four threads run.
        let mut grid = ExperimentGrid::default()
            .with_scenes(&["ccs", "tib", "abi"])
            .with_axis(axis::SIG_BITS, vec![8, 16, 32]);
        grid.frames = 2;
        grid.width = 64;
        grid.height = 32;
        let full = SweepPlan::compile(&grid);
        let dropped: std::collections::HashSet<usize> = full.render_jobs()[1..]
            .iter()
            .flat_map(|rj| rj.cells[..2].iter().copied())
            .collect();
        let plan = full.without_cells(&dropped);
        let shape: Vec<usize> = plan.render_jobs().iter().map(|rj| rj.cells.len()).collect();
        assert_eq!(shape, [3, 1, 1]);
        assert_eq!(cell_groups(&plan, 5).len(), 4);

        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_plan_traces(&plan, &opts).expect("capture");
        let recorder = Recorder::default();
        let outcomes = ThreadExecutor {
            workers: 5,
            heartbeat: None,
            ..ThreadExecutor::default()
        }
        .execute(&plan, &traces, &recorder, &|_, _| {});
        assert_eq!(outcomes.len(), 5);
        let events = recorder.0.into_inner().unwrap();
        assert!(events.contains(&"group:5/3:w4".to_string()), "{events:?}");
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
        let reference = per_cell_reference(&plan, &traces);

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

        // Artifacts that vanish after the plan was annotated: the plan
        // captured no trace for a satisfied key, so each key captures its
        // scene on the fly and renders once; the reports still match.
        for entry in std::fs::read_dir(&dir).expect("ls") {
            std::fs::remove_file(entry.expect("entry").path()).expect("rm");
        }
        let recorder = Recorder::default();
        same(
            &exec(4).execute(&warm_plan, &HashMap::new(), &recorder, &|_, _| {}),
            "vanished",
        );
        let events = recorder.0.into_inner().unwrap();
        for scene in ["ccs", "tib"] {
            let renders = events
                .iter()
                .filter(|e| **e == format!("render:{scene}"))
                .count();
            assert_eq!(renders, 1, "{events:?}");
        }
        assert!(
            !events
                .iter()
                .any(|e| e.starts_with("eval:") && e.ends_with(":true")),
            "{events:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
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
