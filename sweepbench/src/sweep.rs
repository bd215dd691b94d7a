//! One sweep, run the way `sweep --out DIR` runs it: in a process of its
//! own, the argument vector goes through the CLI parser, the store and
//! `events.jsonl` are on, and the default worker count (one per hardware
//! thread) executes the plan. [`run`] spawns that process — this binary
//! in its `--sweep-child` mode, [`child_main`] — and waits for
//! it, so every sweep starts from a fresh address space and the peak
//! resident set is the sweep's own.
//!
//! Besides wall time the child reports the CPU time its threads used
//! ([`process_cpu_s`]). The kernel leaves out of it the time the host ran
//! someone else on our virtual CPUs (steal time), which on a shared host
//! comes in spells of minutes and can move a whole run's wall time by a
//! third.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use re_sweep::cli::{self, Command};
use re_sweep::exec::{SweepEvent, SweepObserver};
use re_sweep::{CellRecord, JsonlObserver, MultiObserver, SweepPlan};

/// The flag that selects the child mode.
pub const CHILD_FLAG: &str = "--sweep-child";

/// What one timed sweep produced.
pub struct SweepRun {
    /// Wall time of `run_plan_with_store`.
    pub wall: Duration,
    /// CPU seconds the sweep process used in `run_plan_with_store`.
    pub cpu_s: f64,
    /// From the start of the sweep until the first cell was committed.
    pub first_cell: Duration,
    /// CPU seconds the sweep process used until the first cell was
    /// committed.
    pub first_cell_cpu_s: f64,
    /// CPU seconds the sweep process used from its start to its end.
    pub process_cpu_s: f64,
    /// Peak resident set over the sweep, in MB (see [`peak_rss_reset`]).
    pub peak_rss_mb: f64,
    /// Raster invocations the sweep performed.
    pub rasters: u64,
    /// Cells in the plan.
    pub cells: usize,
    /// The store's `results.csv`.
    pub csv: String,
    /// Every cell record, in cell-id order.
    pub records: Vec<CellRecord>,
    /// The store directory.
    pub out: PathBuf,
}

/// Records when the first cell's store commit finished, in wall time and
/// in the process's CPU time.
struct FirstCommit(Mutex<Option<(Instant, f64)>>);

impl SweepObserver for FirstCommit {
    fn on_event(&self, event: &SweepEvent<'_>) {
        if let SweepEvent::EvalDone { .. } = event {
            let mut first = self.0.lock().expect("first-commit lock poisoned");
            first.get_or_insert_with(|| (Instant::now(), process_cpu_s()));
        }
    }
}

/// Parses a `sweep` argument vector into its run arguments.
pub fn parse_run(argv: &[String]) -> Result<re_sweep::cli::RunArgs, String> {
    match cli::parse(argv)? {
        Command::Run(args) => Ok(*args),
        _ => Err("benchmark argv must describe a sweep run".into()),
    }
}

/// Runs one sweep described by `argv` (a `sweep` argument vector) in a
/// child process and collects what it produced.
pub fn run(argv: &[String]) -> Result<SweepRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg(CHILD_FLAG)
        .args(argv)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a sweep process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("sweep process failed ({})", out.status));
    }
    let line = stdout.lines().last().unwrap_or_default();
    let v = re_sweep::json::Json::parse(line).map_err(|e| format!("sweep process output: {e}"))?;
    let num = |key: &str| {
        v.get(key)
            .and_then(|x| x.as_f64())
            .ok_or_else(|| format!("sweep process output lacks `{key}`"))
    };
    let dir = PathBuf::from(
        v.get("out")
            .and_then(|x| x.as_str())
            .ok_or("sweep process output lacks `out`")?,
    );
    let csv_path = dir.join("results.csv");
    Ok(SweepRun {
        wall: Duration::from_secs_f64(num("wall_s")?),
        cpu_s: num("cpu_s")?,
        first_cell: Duration::from_secs_f64(num("first_cell_s")?),
        first_cell_cpu_s: num("first_cell_cpu_s")?,
        process_cpu_s: num("process_cpu_s")?,
        peak_rss_mb: num("peak_rss_mb")?,
        rasters: num("rasters")? as u64,
        cells: num("cells")? as usize,
        csv: std::fs::read_to_string(&csv_path)
            .map_err(|e| format!("{}: {e}", csv_path.display()))?,
        records: re_sweep::read_records(&dir).map_err(|e| format!("{}: {e}", dir.display()))?,
        out: dir,
    })
}

/// The child mode: runs the sweep in this process and prints what
/// [`run`] collects as one JSON line.
pub fn child_main(argv: &[String]) -> Result<(), String> {
    let mut args = parse_run(argv)?;
    let plan = SweepPlan::compile(&args.grid);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let jsonl = Arc::new(
        JsonlObserver::append(args.out.join(re_sweep::EVENTS_FILE), None)
            .map_err(|e| format!("events.jsonl: {e}"))?,
    );
    let first = Arc::new(FirstCommit(Mutex::new(None)));
    args.opts.observer = Some(Arc::new(MultiObserver::new(vec![
        args.opts.effective_observer(),
        Arc::clone(&jsonl) as _,
        Arc::clone(&first) as _,
    ])));

    if !peak_rss_reset() {
        eprintln!("[sweepbench] warning: cannot reset VmHWM; peak RSS covers the whole process");
    }
    let rasters_before = re_gpu::raster_invocations();
    let start = Instant::now();
    let cpu_start = process_cpu_s();
    re_sweep::run_plan_with_store(&plan, &args.opts, &args.out)
        .map_err(|e| format!("sweep {}: {e}", args.out.display()))?;
    let wall = start.elapsed();
    let cpu = process_cpu_s() - cpu_start;
    let rasters = re_gpu::raster_invocations() - rasters_before;
    let peak = peak_rss_mb();
    jsonl
        .finish_with_rasters("complete", Some(rasters))
        .map_err(|e| format!("events.jsonl: {e}"))?;
    let (first_cell, first_cell_cpu) = first
        .0
        .lock()
        .expect("first-commit lock poisoned")
        .map_or((wall, cpu), |(t, c)| {
            (t.duration_since(start), c - cpu_start)
        });
    println!(
        "{{\"wall_s\": {}, \"cpu_s\": {cpu}, \"first_cell_s\": {}, \"first_cell_cpu_s\": {first_cell_cpu}, \"process_cpu_s\": {}, \"peak_rss_mb\": {peak}, \"rasters\": {rasters}, \"cells\": {}, \"out\": {}}}",
        wall.as_secs_f64(),
        first_cell.as_secs_f64(),
        process_cpu_s(),
        plan.cell_count(),
        crate::provenance::quote(&args.out.display().to_string())
    );
    Ok(())
}

/// CPU seconds (user plus system) this process's threads have used, the
/// exited ones included: `CLOCK_PROCESS_CPUTIME_ID`, which the kernel
/// keeps to the nanosecond and without steal time.
#[allow(unsafe_code)]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } != 0 {
        return 0.0;
    }
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// The host's steal and total time so far, summed over every CPU, in
/// clock ticks: the `cpu` line of `/proc/stat` (zeros when unavailable).
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user).
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Resets the kernel's resident-set high-water mark of this process, so
/// the next [`peak_rss_mb`] covers only what follows. Returns whether the
/// reset worked.
pub fn peak_rss_reset() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process in MB (0 when `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
