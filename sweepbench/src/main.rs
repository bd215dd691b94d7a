//! The sweep benchmark.
//!
//! ```text
//! sweepbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` it sets the workload up
//! (seeded capture, and on `suite_warm_eval` a cache fill) three or more
//! times, then runs the workload's sweep back to back — a closed loop of
//! one sweep at a time on the default worker pool, after one untimed
//! warm-up sweep — until `S` seconds of sweeping are measured, and prints
//! the end-to-end metrics: medians over the sweeps, timed in CPU seconds
//! (see `sweep.rs`). With
//! `--trace 1` it sets up once and runs rounds of one end-to-end sweep
//! plus the one-thread replica untraced and traced (`traced.rs`), printing
//! the per-layer metrics. Either way
//! the last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it is the run's provenance.
//! See `README.md` beside this file.

mod check;
mod provenance;
mod stats;
mod sweep;
mod traced;
mod workload;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use re_sweep::SweepPlan;
use re_trace::Trace;

use check::Gate;
use provenance::{quote, Provenance};
use stats::{median, upper_quartile};
use workload::Workload;

/// Where runs keep their scratch files and the ledger (relative to the
/// repository root the benchmark runs from).
const WORK_ROOT: &str = ".bench_work";

/// Setup repeats at least this often (its median is `setup_s`), and
/// keeps repeating, up to [`SETUP_MAX_REPS`], while the repeats have
/// taken less than [`SETUP_MIN_SECONDS`] — a cheap setup needs more
/// samples for a steady median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_SECONDS: f64 = 3.0;

/// Fewest timed sweeps per end-to-end run.
const MIN_SWEEPS: usize = 5;

/// Untimed sweeps before the timed loop.
const WARMUP_SWEEPS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((flag, rest)) if flag == sweep::CHILD_FLAG => sweep::child_main(rest),
        _ => run(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = check::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not a number"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("--seconds: `{value}` is not a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let work = Path::new(WORK_ROOT).join(format!(
        "{}-seed{}-trace{}-{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let outcome = if args.trace {
        traced_run(&args, &work)
    } else {
        end_to_end_run(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, gate, provenance) = outcome?;

    let mut result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.correct(),
        gate.attempted.max(1),
        gate.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        result.push_str(&format!(
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(m.name),
            quote(m.unit)
        ));
    }
    result.push_str("}}");
    let provenance = provenance.to_json();
    let ledger = Path::new(WORK_ROOT).join("ledger.jsonl");
    let line = format!("{{\"provenance\": {provenance}, \"result\": {result}}}\n");
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&ledger)
        .and_then(|mut f| f.write_all(line.as_bytes()))
    {
        eprintln!(
            "[sweepbench] warning: cannot append to {}: {e}",
            ledger.display()
        );
    }
    println!("{{\"provenance\": {provenance}}}");
    println!("{result}");
    Ok(())
}

/// What setup leaves for the timed sweeps.
struct Setup {
    /// Import directory holding the seeded `trace:w-*` windows.
    imports: PathBuf,
    /// The filled `.relog` cache (warm workload only).
    cache: Option<PathBuf>,
    /// The cache fill's `results.csv` (warm workload only).
    cold_csv: Option<String>,
    /// The captured windows, in scene order.
    traces: Vec<Trace>,
    /// Seconds the seeded capture took.
    capture_s: f64,
    /// Bytes of `.retrace` the seeded capture wrote.
    capture_bytes: u64,
}

/// Captures the seeded windows and, on the warm workload, fills the
/// `.relog` cache with one cold sweep. Returns the products and the CPU
/// seconds the whole setup took: this process's and the fill sweep's.
fn setup(w: &Workload, seed: u64, dir: &Path, gate: &mut Gate) -> Result<(Setup, f64), String> {
    let start = Instant::now();
    let cpu_start = sweep::process_cpu_s();
    let (imports, traces) = w.capture_windows(seed, dir)?;
    let capture_s = start.elapsed().as_secs_f64();
    let mut fill_cpu_s = 0.0;
    let capture_bytes = sweep::dir_bytes(&dir.join("captures"));
    let (cache, cold_csv) = if w.warm {
        let fill = sweep::run(&w.sweep_argv(&dir.join("fill"), &imports))?;
        fill_cpu_s = fill.process_cpu_s;
        let plan = plan_of(&w.sweep_argv(&fill.out, &imports))?;
        let want = check::expected_rasters(&plan);
        gate.require(fill.rasters == want, || {
            format!(
                "cache fill rasterized {} times, expected {want}",
                fill.rasters
            )
        });
        (Some(fill.out.join("traces")), Some(fill.csv))
    } else {
        (None, None)
    };
    let took = sweep::process_cpu_s() - cpu_start + fill_cpu_s;
    Ok((
        Setup {
            imports,
            cache,
            cold_csv,
            traces,
            capture_s,
            capture_bytes,
        },
        took,
    ))
}

fn plan_of(argv: &[String]) -> Result<SweepPlan, String> {
    Ok(SweepPlan::compile(&sweep::parse_run(argv)?.grid))
}

/// The argument vector of a timed sweep into `out`.
fn timed_argv(w: &Workload, setup: &Setup, out: &Path) -> Vec<String> {
    let mut argv = w.sweep_argv(out, &setup.imports);
    if let Some(cache) = &setup.cache {
        argv.push("--trace-dir".into());
        argv.push(cache.display().to_string());
    }
    argv
}

/// Checks shared by both modes, run once the sweeps are done: the
/// default seed's committed rows, re-simulated sample cells, and the two
/// self-tests.
fn final_checks(
    args: &Args,
    setup: &Setup,
    plan: &SweepPlan,
    reference: &str,
    records: &[re_sweep::CellRecord],
    gate: &mut Gate,
) -> Result<(), String> {
    let w = &args.workload;
    if args.seed == check::DEFAULT_SEED {
        let expected = check::expected_csv(w.name).ok_or("no expected rows for this workload")?;
        gate.compare_csv("committed expected rows", expected, reference);
    }
    let axes = re_sweep::csv_axes(records);
    for cell in check::sampled_cells(plan, args.seed) {
        let scene = w
            .scenes
            .iter()
            .position(|a| cell.scene().ends_with(&Workload::import_name(a)))
            .ok_or_else(|| format!("cell scene `{}` is not a seeded window", cell.scene()))?;
        let simulated = check::simulated_row(&cell, &setup.traces[scene], &axes);
        let swept = records
            .iter()
            .find(|r| r.id == cell.id)
            .map(|r| r.csv_row(&axes))
            .unwrap_or_default();
        gate.attempted += 1;
        if simulated != swept {
            gate.failed += 1;
            eprintln!(
                "[sweepbench] cell {} differs from Simulator::run",
                cell.label()
            );
        }
    }
    gate.require(check::perturbed_row_is_caught(reference), || {
        "self-test: a perturbed expected row went unnoticed".into()
    });
    if let Err(e) = check::seed_purity(w, args.seed) {
        gate.require(false, || format!("self-test: seed purity: {e}"));
    }
    Ok(())
}

/// Keeps the run's reference `results.csv` beside the ledger, as
/// `.bench_work/results/<workload>-seed<N>.csv` (the source of the
/// committed expected rows).
fn keep_results(args: &Args, csv: &str) {
    let dir = Path::new(WORK_ROOT).join("results");
    let path = dir.join(format!("{}-seed{}.csv", args.workload.name, args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, csv)) {
        eprintln!("[sweepbench] warning: cannot keep {}: {e}", path.display());
    }
}

/// Model metrics of a sweep's records: the geometric-mean RE speedup and
/// the mean RE energy saving.
fn model_metrics(records: &[re_sweep::CellRecord]) -> [Metric; 2] {
    let speedup = stats::geomean(records.iter().map(|r| r.speedup()));
    let saving = records
        .iter()
        .map(|r| 100.0 * (1.0 - r.re_energy_pj / r.baseline_energy_pj))
        .sum::<f64>()
        / records.len().max(1) as f64;
    [
        metric("model.re_speedup", speedup, "x"),
        metric("model.re_energy_saving_pct", saving, "%"),
    ]
}

type Outcome = Result<(Vec<Metric>, Gate, Provenance), String>;

/// `--trace 0`: the end-to-end metrics.
fn end_to_end_run(args: &Args, work: &Path) -> Outcome {
    let w = &args.workload;
    let mut gate = Gate::default();
    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUP_MAX_REPS);
    let mut last = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        let rep = setup_s.len();
        let dir = work.join(format!("setup-{rep}"));
        let (products, took) = setup(w, args.seed, &dir, &mut gate)?;
        setup_s.push(took);
        // Earlier caches are not used again; their imports stay, because
        // the scene registry keeps the first path each window was
        // installed from.
        if let Some(Setup {
            cache: Some(cache), ..
        }) = last.replace(products)
        {
            let _ = std::fs::remove_dir_all(cache.parent().expect("cache lives in a store"));
        }
    }
    let setup = last.expect("at least one setup");

    let plan = plan_of(&timed_argv(w, &setup, &work.join("rep-0")))?;
    let want_rasters = if w.warm {
        0
    } else {
        check::expected_rasters(&plan)
    };
    let mut reference = setup.cold_csv.clone();
    let (mut rate, mut first, mut rss, mut disk) = (vec![], vec![], vec![], vec![]);
    let (mut wall_rate, mut wall_first, mut steal) = (vec![], vec![], vec![]);
    let mut timed = 0.0;
    let mut records = Vec::new();
    // Sweep 0 warms the page cache and the allocator up and is checked
    // like the rest, but not timed.
    for i in 0.. {
        if timed >= args.seconds && rate.len() >= MIN_SWEEPS {
            break;
        }
        let out = work.join(format!("rep-{i}"));
        let host_before = sweep::host_ticks();
        let run = sweep::run(&timed_argv(w, &setup, &out))?;
        let host_after = sweep::host_ticks();
        let wall = run.wall.as_secs_f64();
        let steal_pct = pct_of(host_after.0 - host_before.0, host_after.1 - host_before.1);
        eprintln!(
            "[sweepbench] sweep {i}{}: {:.3} s wall, {:.3} s CPU, {:.3} cells per CPU second, first cell {:.3} s CPU, host steal {steal_pct:.1}%",
            if i < WARMUP_SWEEPS { " (warm-up)" } else { "" },
            wall,
            run.cpu_s,
            run.cells as f64 / run.cpu_s,
            run.first_cell_cpu_s,
        );
        if i >= WARMUP_SWEEPS {
            timed += wall;
            rate.push(run.cells as f64 / run.cpu_s);
            first.push(run.first_cell_cpu_s);
            wall_rate.push(run.cells as f64 / wall);
            wall_first.push(run.first_cell.as_secs_f64());
            steal.push(steal_pct);
            rss.push(run.peak_rss_mb);
            let cache = setup
                .cache
                .clone()
                .unwrap_or_else(|| run.out.join("traces"));
            disk.push(sweep::dir_bytes(&cache) as f64 / 1e6);
        }
        gate.require(run.rasters == want_rasters, || {
            format!(
                "sweep rasterized {} times, expected {want_rasters}",
                run.rasters
            )
        });
        gate.check_sweep(&mut reference, "timed sweep", &run.csv);
        records = run.records;
        let _ = std::fs::remove_dir_all(&out);
    }
    let reference = reference.expect("at least one sweep ran");
    final_checks(args, &setup, &plan, &reference, &records, &mut gate)?;
    keep_results(args, &reference);

    let samples = vec![
        ("cells_per_cpu_s", rate.clone()),
        ("first_cell_cpu_s", first.clone()),
        ("setup_s", setup_s.clone()),
        ("peak_rss_mb", rss.clone()),
        ("sweep.cells_per_wall_s", wall_rate),
        ("sweep.first_cell_wall_s", wall_first),
        ("host.steal_pct", steal),
    ];
    let attempted = gate.attempted.max(1) as f64;
    let mut metrics = vec![
        // The median sweep's throughput: a sweep slowed by a burst of
        // host load moves it less than it moves a mean.
        metric("cells_per_cpu_s", median(&mut rate), "1/s"),
        metric("first_cell_cpu_s", median(&mut first), "s"),
        metric("setup_s", median(&mut setup_s), "s"),
        // Two workers hold two keys' logs at once, and which two overlap
        // varies from sweep to sweep: a sweep's peak takes one of a few
        // values. The upper quartile keeps to the higher ones, as a peak
        // over the timed region should, without the rare spike a maximum
        // would report.
        metric("peak_rss_mb", upper_quartile(&mut rss), "MB"),
        metric("disk_mb", median(&mut disk), "MB"),
        metric(
            "cell_pass_pct",
            100.0 * (attempted - gate.failed as f64) / attempted,
            "%",
        ),
    ];
    metrics.extend(model_metrics(&records));
    let provenance = Provenance {
        workload: w.name,
        seed: args.seed,
        trace: false,
        grid_spec: plan.spec().to_owned(),
        plan_fingerprint: plan.fingerprint(),
        cells: plan.cell_count(),
        samples,
    };
    Ok((metrics, gate, provenance))
}

/// `--trace 1`: the per-layer metrics from the traced replica.
fn traced_run(args: &Args, work: &Path) -> Outcome {
    let w = &args.workload;
    let mut gate = Gate::default();
    let (setup, _) = setup(w, args.seed, &work.join("setup"), &mut gate)?;
    let plan = plan_of(&timed_argv(w, &setup, &work.join("x")))?;
    let mut reference = setup.cold_csv.clone();

    let start = Instant::now();
    let mut span_samples: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let (mut busy, mut coverage, mut overhead) = (vec![], vec![], vec![]);
    let (mut wall_rate, mut wall_first, mut steal) = (vec![], vec![], vec![]);
    let mut replica = None;
    let mut round = 0;
    while replica.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        // The end-to-end shape (default workers): its run log gives the
        // executor's busy share.
        let host_before = sweep::host_ticks();
        let e2e = sweep::run(&timed_argv(w, &setup, &work.join(format!("e2e-{round}"))))?;
        let host_after = sweep::host_ticks();
        wall_rate.push(e2e.cells as f64 / e2e.wall.as_secs_f64());
        wall_first.push(e2e.first_cell.as_secs_f64());
        steal.push(pct_of(
            host_after.0 - host_before.0,
            host_after.1 - host_before.1,
        ));
        gate.check_sweep(&mut reference, "end-to-end sweep", &e2e.csv);
        let events = re_sweep::read_events(e2e.out.join(re_sweep::EVENTS_FILE))
            .map_err(|e| e.to_string())?;
        busy.push(busy_pct(&events));
        let _ = std::fs::remove_dir_all(&e2e.out);

        // The replica traced and untraced, alternating which runs first.
        // The traced one goes first in round 0, so memory the process
        // touches for the first time is charged to tracing, never hidden.
        if let Some((_, dir)) = replica.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut replica_run = |traced: bool| -> Result<(traced::Replica, PathBuf), String> {
            let kind = if traced { "traced" } else { "untraced" };
            let out = work.join(format!("{kind}-{round}"));
            let rep = traced::run(&timed_argv(w, &setup, &out), traced)?;
            gate.check_sweep(&mut reference, &format!("{kind} replica"), &rep.csv);
            Ok((rep, out))
        };
        let (plain, rep) = if round % 2 == 0 {
            let rep = replica_run(true)?;
            (replica_run(false)?, rep)
        } else {
            let plain = replica_run(false)?;
            (plain, replica_run(true)?)
        };
        let _ = std::fs::remove_dir_all(&plain.1);
        let (rep, out) = rep;
        let wall = rep.wall.as_secs_f64();
        let untraced = plain.0.wall.as_secs_f64();
        let covered: f64 = rep.self_time.values().map(|d| d.as_secs_f64()).sum();
        coverage.push(100.0 * covered / wall);
        overhead.push(100.0 * (wall - untraced) / untraced);
        for (name, d) in &rep.self_time {
            span_samples.entry(name).or_default().push(d.as_secs_f64());
        }
        replica = Some((rep, out));
        round += 1;
    }
    let (rep, _) = replica.expect("at least one traced round");
    let reference = reference.expect("at least one sweep ran");
    let records: Vec<re_sweep::CellRecord> = rep
        .reports
        .iter()
        .map(|(c, r)| re_sweep::CellRecord::from_run(c, r))
        .collect();
    final_checks(args, &setup, &plan, &reference, &records, &mut gate)?;

    let dedup = traced::pass_dedup(&rep.reports);
    gate.require(dedup.mismatched == 0, || {
        format!(
            "{} pass run(s) sharing a (render key, read axes) projection produced a different report section",
            dedup.mismatched
        )
    });
    gate.require(rep.counts.pass_runs == dedup.runs, || {
        "pass-run count mismatch".into()
    });

    let line_bytes = u64::from(re_timing::TimingConfig::mali450().texture_cache.line_bytes);
    let mut shares = traced::EventShares::default();
    let mut timing_ns = 0.0;
    for (i, path) in rep.artifacts.iter().enumerate() {
        let log = re_core::relog::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        shares.add(&log, line_bytes);
        if i == 0 {
            timing_ns =
                traced::timing_ns_per_event(&log, &plan.eval_jobs()[0].cell.point.sim_options(), 3);
        }
    }

    let mut s = |name: &str| span_samples.get_mut(name).map_or(0.0, |v| median(v));
    let c = &rep.counts;
    let eval_names = [
        "eval.baseline",
        "eval.re",
        "eval.redundancy",
        "eval.te",
        "eval.memo",
    ];
    let pass_s: Vec<f64> = eval_names.iter().map(|n| s(n)).collect();
    let driver_s = s(traced::EVAL);
    let eval_total = pass_s.iter().sum::<f64>() + driver_s;
    let render_s = s(traced::RENDER);
    let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e9 / n as f64 };
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let metrics = vec![
        metric("capture.s", setup.capture_s + s(traced::CAPTURE), "s"),
        metric(
            "capture.mb",
            mb(setup.capture_bytes + rep.capture_bytes),
            "MB",
        ),
        metric("render.s", render_s, "s"),
        metric("render.rasters", c.rasters as f64, "count"),
        metric("render.ns_per_raster", per(render_s, c.rasters), "ns"),
        metric("render.events", c.render_events as f64, "count"),
        metric("relog.encode_s", s(traced::RELOG_ENCODE), "s"),
        metric("relog.write_s", s(traced::RELOG_WRITE), "s"),
        metric("relog.written_mb", mb(c.written_bytes), "MB"),
        metric("relog.read_s", s(traced::RELOG_READ), "s"),
        metric("relog.decode_s", s(traced::RELOG_DECODE), "s"),
        metric("relog.read_mb", mb(c.read_bytes), "MB"),
        metric("relog.frames_decoded", c.frames_decoded as f64, "count"),
        metric("eval.baseline.s", pass_s[0], "s"),
        metric("eval.re.s", pass_s[1], "s"),
        metric("eval.redundancy.s", pass_s[2], "s"),
        metric("eval.te.s", pass_s[3], "s"),
        metric("eval.memo.s", pass_s[4], "s"),
        metric("eval.driver.s", driver_s, "s"),
        metric("eval.pass_runs", c.pass_runs as f64, "count"),
        metric(
            "eval.redundant_pass_share",
            pct_of(dedup.redundant, dedup.runs),
            "%",
        ),
        metric("eval.events_replayed", c.events_replayed as f64, "count"),
        metric(
            "eval.ns_per_event",
            per(eval_total, c.events_replayed),
            "ns",
        ),
        metric(
            "events.texel_share",
            pct_of(shares.texels, shares.events),
            "%",
        ),
        metric(
            "events.texel_repeat_share",
            pct_of(shares.texel_repeats, shares.events),
            "%",
        ),
        metric("timing.ns_per_event", timing_ns, "ns"),
        metric(
            "model.dram_mb.baseline",
            mb(records.iter().map(|r| r.baseline_dram_bytes).sum()),
            "MB",
        ),
        metric(
            "model.dram_mb.re",
            mb(records.iter().map(|r| r.re_dram_bytes).sum()),
            "MB",
        ),
        metric("store.s", s(traced::STORE), "s"),
        metric("exec.busy_pct", median(&mut busy), "%"),
        metric("sweep.cells_per_wall_s", median(&mut wall_rate), "1/s"),
        metric("sweep.first_cell_wall_s", median(&mut wall_first), "s"),
        metric("host.steal_pct", median(&mut steal), "%"),
        metric("trace.coverage_pct", median(&mut coverage), "%"),
        metric("trace.overhead_pct", median(&mut overhead), "%"),
    ];
    let provenance = Provenance {
        workload: w.name,
        seed: args.seed,
        trace: true,
        grid_spec: plan.spec().to_owned(),
        plan_fingerprint: plan.fingerprint(),
        cells: plan.cell_count(),
        samples: vec![
            ("trace.overhead_pct", overhead.clone()),
            ("exec.busy_pct", busy.clone()),
        ],
    };
    Ok((metrics, gate, provenance))
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
fn pct_of(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

/// Share of the workers' wall time spent busy (render, eval, store), from
/// a sweep's run log.
fn busy_pct(events: &[re_sweep::EventRecord]) -> f64 {
    let profile = re_sweep::Profile::from_events(events);
    let workers = events
        .iter()
        .find_map(|e| match e {
            re_sweep::EventRecord::GroupStart { workers, .. } => Some(*workers),
            _ => None,
        })
        .unwrap_or(1);
    let busy: u64 = profile.workers.iter().map(|w| w.busy_ns).sum();
    100.0 * busy as f64 / (profile.wall_ns.max(1) * workers.max(1)) as f64
}
