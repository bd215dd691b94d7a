//! The per-cell oracle: the grouped executor against `run_cell`.
//!
//! `run_cell` is the monolithic reference — it renders a cell's key and
//! evaluates that one cell, with no sharing between cells. The executor
//! renders each key once and evaluates a key's cells together as cell
//! groups, in memory on a cold run and by streaming the cached `.relog`
//! on a warm one. Both must produce a `results.csv` byte-identical to the
//! one built from per-cell records, on grids whose every non-scene axis
//! is evaluation-side (many cells per key, so grouping really shares).

use std::path::PathBuf;

use re_sweep::{
    axis, pool, render_csv, run_cell, CellRecord, ExperimentGrid, RenderLogCache, SweepOptions,
    SweepPlan,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("re_oracle_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_grid() -> ExperimentGrid {
    let mut g = ExperimentGrid::default().with_scenes(&["ccs", "tib"]);
    g.frames = 3;
    g.width = 128;
    g.height = 64;
    g
}

/// Runs `grid` through the per-cell reference, cold in memory and warm
/// over a filled `.relog` cache, and asserts all three CSVs agree.
fn assert_grouped_matches_per_cell(grid: &ExperimentGrid, tag: &str) {
    let dir = tmp_dir(tag);
    let quiet = SweepOptions {
        workers: 2,
        quiet: true,
        ..SweepOptions::default()
    };

    let traces = re_sweep::capture_traces(grid, &quiet).expect("capture");
    let per_cell: Vec<CellRecord> = pool::run_indexed(grid.cells(), 2, |_, _, cell| {
        CellRecord::from_run(&cell, &run_cell(&traces[cell.scene()], &cell))
    });
    let oracle = render_csv(&per_cell);

    // Cold, in memory: each key renders once, its cells share the log.
    let cold: Vec<CellRecord> = re_sweep::run_grid(grid, &quiet)
        .expect("cold run")
        .iter()
        .map(|o| CellRecord::from_run(&o.cell, &o.report))
        .collect();
    assert_eq!(render_csv(&cold), oracle, "cold grouped CSV");

    // Warm, through a store: fill the cache, then every key streams it.
    let with_logs = SweepOptions {
        log_dir: Some(dir.join("logs")),
        ..quiet
    };
    re_sweep::run_grid(grid, &with_logs).expect("cache fill");
    let mut plan = SweepPlan::compile(grid);
    let cached = plan.attach_cached_logs(&RenderLogCache::new(with_logs.log_dir.clone()));
    assert_eq!(cached, plan.render_job_count(), "cache fully warm");
    let summary =
        re_sweep::run_grid_with_store(grid, &with_logs, dir.join("store")).expect("warm run");
    assert_eq!(summary.ran, grid.cell_count());
    assert_eq!(
        std::fs::read_to_string(&summary.csv_path).expect("results.csv"),
        oracle,
        "warm grouped CSV"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The mini-sweep grid: 32 cells over 2 render keys.
#[test]
fn mini_sweep_grid_matches_the_per_cell_reference() {
    let grid = base_grid()
        .with_axis(axis::SIG_BITS, vec![16, 32])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2])
        .with_axis(axis::SIG_COMPARE_CYCLES, vec![2, 4])
        .with_axis(axis::MEMO_KB, vec![4, 16]);
    assert_eq!(grid.cell_count(), 32);
    assert_grouped_matches_per_cell(&grid, "mini");
}

/// Every evaluation axis at two values: 128 cells per render key.
#[test]
fn every_eval_axis_grid_matches_the_per_cell_reference() {
    let grid = base_grid()
        .with_axis(axis::SIG_BITS, vec![16, 32])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2])
        .with_axis(axis::REFRESH_PERIOD, vec![0, 3])
        .with_axis(axis::OT_DEPTH, vec![4, 16])
        .with_axis(axis::L2_KB, vec![64, 256])
        .with_axis(axis::SIG_COMPARE_CYCLES, vec![2, 4])
        .with_axis(axis::MEMO_KB, vec![4, 16]);
    assert_eq!(grid.cell_count(), 256);
    for axis in [
        axis::SIG_BITS,
        axis::COMPARE_DISTANCE,
        axis::REFRESH_PERIOD,
        axis::OT_DEPTH,
        axis::L2_KB,
        axis::SIG_COMPARE_CYCLES,
        axis::MEMO_KB,
    ] {
        assert_eq!(
            re_sweep::AXES[axis].class,
            re_sweep::AxisClass::Eval,
            "{}",
            re_sweep::AXES[axis].name
        );
    }
    assert_grouped_matches_per_cell(&grid, "every_eval");
}
