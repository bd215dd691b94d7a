//! The render-once contract of sweep grouping — and of sharding.
//!
//! A sweep over evaluation-only axes must rasterize each (scene, tile
//! size, binning) render key **exactly once** — asserted here via
//! `re_gpu`'s process-wide raster-invocation counter — while producing a
//! `results.csv` byte-identical to the per-cell reference (`run_cell`,
//! which renders the key again for every cell). Sharding partitions the plan *by render key*, so each shard
//! must rasterize exactly its own keys once and nothing else.
//!
//! The counter is process-global, so this file holds a single test: other
//! tests rasterizing concurrently in the same binary would pollute the
//! deltas.

use re_sweep::{
    axis, pool, render_csv, run_cell, CellOutcome, CellRecord, ExperimentGrid, SweepOptions,
    SweepPlan,
};

#[test]
fn grouped_sweep_rasterizes_each_render_key_exactly_once() {
    // 2 scenes × (2 sig_bits × 2 distances × 2 sig-compare costs × 2 memo
    // capacities) = 32 cells, but only 2 render keys: every axis except
    // the scene is evaluation-side.
    let mut grid = ExperimentGrid::default()
        .with_scenes(&["ccs", "tib"])
        .with_axis(axis::SIG_BITS, vec![16, 32])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2])
        .with_axis(axis::SIG_COMPARE_CYCLES, vec![2, 4])
        .with_axis(axis::MEMO_KB, vec![4, 16]);
    grid.frames = 3;
    grid.width = 128;
    grid.height = 64;
    let cells = grid.cell_count();
    assert_eq!(cells, 32);
    let tile_count = (128 / 16) * (64 / 16); // 32 tiles per frame
    let per_render = grid.frames as u64 * tile_count;

    // Trace capture rasterizes nothing (geometry-only command capture), but
    // run it outside the measured windows anyway so both paths start from
    // the same in-memory traces via the disk cache.
    let trace_dir = std::env::temp_dir().join(format!("re_render_once_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&trace_dir);
    let opts = SweepOptions {
        workers: 2,
        quiet: true,
        trace_dir: Some(trace_dir.clone()),
        ..SweepOptions::default()
    };
    let traces = re_sweep::capture_traces(&grid, &opts).expect("capture");

    // Grouped: exactly one Stage A render per render key.
    let before = re_gpu::raster_invocations();
    let grouped = re_sweep::run_grid(&grid, &opts).expect("grouped sweep");
    let grouped_rasters = re_gpu::raster_invocations() - before;
    assert_eq!(
        grouped_rasters,
        2 * per_render,
        "grouping must rasterize each of the 2 render keys exactly once"
    );

    // Per-cell reference: one render per cell.
    let before = re_gpu::raster_invocations();
    let per_cell = pool::run_indexed(grid.cells(), 2, |_, _, cell| CellOutcome {
        cell,
        report: run_cell(&traces[cell.scene()], &cell),
    });
    let per_cell_rasters = re_gpu::raster_invocations() - before;
    assert_eq!(per_cell_rasters, cells as u64 * per_render);

    // And the results — down to the rendered CSV — are byte-identical.
    let csv_of = |outcomes: &[CellOutcome]| {
        let records: Vec<CellRecord> = outcomes
            .iter()
            .map(|o| CellRecord::from_run(&o.cell, &o.report))
            .collect();
        render_csv(&records)
    };
    assert_eq!(csv_of(&grouped), csv_of(&per_cell));
    for (a, b) in grouped.iter().zip(&per_cell) {
        assert_eq!(a.report, b.report, "cell {}", a.cell.id);
    }

    // Sharding by render key: each of two shards rasterizes exactly its
    // own keys once (here: one key each), and together they cover the
    // grid with the same per-cell reports as the unsharded run.
    let plan = SweepPlan::compile(&grid);
    assert_eq!(plan.render_job_count(), 2);
    let mut shard_outcomes = Vec::new();
    for k in 0..2 {
        let shard = plan.shard(k, 2).expect("shard");
        let before = re_gpu::raster_invocations();
        let outcomes = re_sweep::run_plan(&shard, &opts).expect("shard sweep");
        let shard_rasters = re_gpu::raster_invocations() - before;
        assert_eq!(
            shard_rasters,
            shard.render_job_count() as u64 * per_render,
            "shard {k} must rasterize exactly its own render keys once"
        );
        assert_eq!(outcomes.len(), shard.cell_count());
        shard_outcomes.extend(outcomes);
    }
    shard_outcomes.sort_by_key(|o| o.cell.id);
    assert_eq!(shard_outcomes.len(), cells);
    for (a, b) in shard_outcomes.iter().zip(&grouped) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.report, b.report, "cell {}", a.cell.id);
    }

    // ---- render-log cache: a warm --log-dir skips Stage A entirely ----
    let log_dir = trace_dir.join("logs");
    let with_logs = SweepOptions {
        log_dir: Some(log_dir.clone()),
        ..opts.clone()
    };

    // Cold pass: still one raster per key, and the artifacts get written.
    let before = re_gpu::raster_invocations();
    let cold = re_sweep::run_grid(&grid, &with_logs).expect("cold log-dir sweep");
    assert_eq!(re_gpu::raster_invocations() - before, 2 * per_render);
    assert_eq!(
        std::fs::read_dir(&log_dir).unwrap().count(),
        2,
        "one .relog per render key"
    );

    // Warm pass: **zero** raster invocations — every key replays its
    // cached log — and the results are byte-identical to the grouped run.
    let before = re_gpu::raster_invocations();
    let warm = re_sweep::run_grid(&grid, &with_logs).expect("warm log-dir sweep");
    assert_eq!(
        re_gpu::raster_invocations() - before,
        0,
        "a warm render-log cache must not rasterize anything"
    );
    assert_eq!(csv_of(&warm), csv_of(&grouped));
    for ((a, b), c) in warm.iter().zip(&cold).zip(&grouped) {
        assert_eq!(a.report, b.report, "cell {}", a.cell.id);
        assert_eq!(a.report, c.report, "cell {}", a.cell.id);
    }

    // A warm store-backed resume is raster-free too: fresh store, cached
    // logs — every cell "runs" but Stage A never does.
    let store_dir = trace_dir.join("store");
    let before = re_gpu::raster_invocations();
    let summary = re_sweep::run_grid_with_store(&grid, &with_logs, &store_dir).expect("store run");
    assert_eq!(summary.ran, cells);
    assert_eq!(re_gpu::raster_invocations() - before, 0);
    assert_eq!(
        std::fs::read_to_string(&summary.csv_path).unwrap(),
        csv_of(&grouped)
    );

    // Corrupting one artifact silently re-renders exactly that key (and
    // repairs the cache); the other key still replays from disk.
    let corrupt = std::fs::read_dir(&log_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with("ccs"))
        .expect("ccs artifact");
    let mut bytes = std::fs::read(&corrupt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&corrupt, &bytes).unwrap();
    let before = re_gpu::raster_invocations();
    let repaired = re_sweep::run_grid(&grid, &with_logs).expect("repair sweep");
    assert_eq!(
        re_gpu::raster_invocations() - before,
        per_render,
        "only the corrupt key re-renders"
    );
    assert_eq!(csv_of(&repaired), csv_of(&grouped));
    let before = re_gpu::raster_invocations();
    let _ = re_sweep::run_grid(&grid, &with_logs).expect("rewarmed sweep");
    assert_eq!(
        re_gpu::raster_invocations() - before,
        0,
        "the re-render must repair the cache"
    );

    let _ = std::fs::remove_dir_all(&trace_dir);
}
