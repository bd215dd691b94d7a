//! Vector-family golden CSV: the committed fixture pins `results.csv`
//! for a grid over the three vector scenes, byte for byte.
//!
//! The pin must hold across worker counts and with `.relog` artifacts
//! under both compression settings (`--relog-compress on|off`), cold and
//! warm — the same determinism contract the paper suite has, extended to
//! the software vector path. Regenerate the fixture (after an *intentional* output
//! change) with:
//!
//! ```text
//! RE_BLESS=1 cargo test -p re-sweep --test vector_golden
//! ```

use re_sweep::{CellRecord, ExperimentGrid, SweepOptions};

const GOLDEN: &str = include_str!("fixtures/golden_vector.csv");

/// `--scenes vui,vdoc,vmap --frames 30 --width 128 --height 64`, every
/// other axis at its default. 30 frames reaches each scene's animated
/// regime (the caret blinks from frame 9, the document scrolls from 22,
/// the map pans from 18) — fewer frames would pin three still images.
fn vector_grid() -> ExperimentGrid {
    let mut g = ExperimentGrid::default().with_scenes(&["vui", "vdoc", "vmap"]);
    g.frames = 30;
    g.width = 128;
    g.height = 64;
    g
}

fn csv_for(opts: &SweepOptions) -> String {
    let outcomes = re_sweep::run_grid(&vector_grid(), opts).expect("sweep");
    let records: Vec<CellRecord> = outcomes
        .iter()
        .map(|o| CellRecord::from_run(&o.cell, &o.report))
        .collect();
    re_sweep::render_csv(&records)
}

#[test]
fn vector_results_match_the_fixture_across_workers_and_relog_framings() {
    let reference = csv_for(&SweepOptions {
        workers: 1,
        quiet: true,
        ..SweepOptions::default()
    });
    if std::env::var_os("RE_BLESS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/golden_vector.csv"
        );
        std::fs::write(path, &reference).expect("bless fixture");
    }
    assert_eq!(
        reference, GOLDEN,
        "serial vector-family results.csv must match the committed fixture"
    );

    // Worker count must not perturb a byte.
    let parallel = csv_for(&SweepOptions {
        workers: 4,
        quiet: true,
        ..SweepOptions::default()
    });
    assert_eq!(parallel, GOLDEN, "4-worker run diverged from the fixture");

    // Both .relog framings, cold (renders + writes artifacts) and warm
    // (evaluates entirely from decoded artifacts).
    for compress in [false, true] {
        let dir = std::env::temp_dir().join(format!(
            "re_vector_golden_{compress}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            workers: 2,
            quiet: true,
            log_dir: Some(dir.clone()),
            relog_compress: compress,
            ..SweepOptions::default()
        };
        assert_eq!(
            csv_for(&opts),
            GOLDEN,
            "cold run diverged (relog-compress={compress})"
        );
        assert_eq!(
            csv_for(&opts),
            GOLDEN,
            "warm replay diverged (relog-compress={compress})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn vector_scenes_produce_distinct_redundancy_profiles() {
    // The three scenes exist to cover different coherence regimes; if two
    // ever collapse to the same skip rate the family lost its point.
    let outcomes = re_sweep::run_grid(
        &vector_grid(),
        &SweepOptions {
            workers: 2,
            quiet: true,
            ..SweepOptions::default()
        },
    )
    .expect("sweep");
    let mut skip: Vec<(String, f64)> = outcomes
        .iter()
        .map(|o| {
            let r = CellRecord::from_run(&o.cell, &o.report);
            (r.scene().to_string(), r.skip_pct())
        })
        .collect();
    skip.sort_by(|a, b| a.1.total_cmp(&b.1));
    for pair in skip.windows(2) {
        assert!(
            (pair[0].1 - pair[1].1).abs() > 0.5,
            "vector scenes {} and {} have near-identical skip rates ({:.2}% vs {:.2}%)",
            pair[0].0,
            pair[1].0,
            pair[0].1,
            pair[1].1
        );
    }
}
