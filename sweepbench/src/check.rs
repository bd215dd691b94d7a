//! The correctness gate. Every run checks, for its seed:
//!
//! * every timed sweep's `results.csv` against a reference, row by row —
//!   on the warm workload the cold CSV setup produced, on the cold ones
//!   the run's first sweep — and, for the default seed, the reference
//!   against the rows committed under `expected/`;
//! * a seeded sample of cells against a per-cell `Simulator::run` over the
//!   captured `re_trace::TraceScene`, the monolithic reference path;
//! * raster counts: frames × tiles summed over the rendered keys when
//!   cold, zero when warm;
//! * two self-tests: a perturbed expected row is caught, and a capture of
//!   frames `[s, s+n)` equals that slice of a longer capture for every
//!   scene used.
//!
//! A cell whose row differs counts as failed; any other broken check makes
//! the run incorrect.

use re_core::Simulator;
use re_sweep::{Cell, CellRecord, SweepPlan};
use re_trace::{Trace, TraceScene};

use crate::workload::{capture_window, Workload};

/// The seed whose expected rows are committed.
pub const DEFAULT_SEED: u64 = 1;

/// Cells per run checked against a per-cell `Simulator::run`.
const SAMPLED_CELLS: usize = 2;

/// The committed `results.csv` of a workload at [`DEFAULT_SEED`].
pub fn expected_csv(workload: &str) -> Option<&'static str> {
    match workload {
        "suite_warm_eval" => Some(include_str!("../expected/suite_warm_eval.csv")),
        "suite_cold_render" => Some(include_str!("../expected/suite_cold_render.csv")),
        "vector_cold" => Some(include_str!("../expected/vector_cold.csv")),
        _ => None,
    }
}

/// Accumulated verdicts of one run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Cells checked.
    pub attempted: u64,
    /// Cells whose output differed from the reference.
    pub failed: u64,
    /// Checks that broke, one line each.
    pub problems: Vec<String>,
}

impl Gate {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Records a check that must hold.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("[sweepbench] check failed: {what}");
            self.problems.push(what);
        }
    }

    /// Checks one sweep's CSV against `reference`; the first sweep of a
    /// run without one becomes the reference.
    pub fn check_sweep(&mut self, reference: &mut Option<String>, what: &str, csv: &str) {
        match reference {
            Some(r) => self.compare_csv(what, r, csv),
            None => {
                self.attempted += csv.lines().count().saturating_sub(1) as u64;
                *reference = Some(csv.to_owned());
            }
        }
    }

    /// Compares one sweep's CSV with the reference, counting its cells.
    pub fn compare_csv(&mut self, what: &str, reference: &str, actual: &str) {
        let cells = actual.lines().count().saturating_sub(1) as u64;
        let bad = row_mismatches(reference, actual);
        self.attempted += cells;
        self.failed += bad.min(cells.max(1));
        if bad > 0 {
            eprintln!("[sweepbench] {what}: {bad} row(s) differ from the reference");
        }
    }
}

/// Rows of `actual` that differ from `expected` (a header mismatch fails
/// every row; missing or extra rows count too).
pub fn row_mismatches(expected: &str, actual: &str) -> u64 {
    let (mut exp, mut act) = (expected.lines(), actual.lines());
    if exp.next() != act.next() {
        return expected.lines().count().max(actual.lines().count()) as u64;
    }
    let (exp, act): (Vec<&str>, Vec<&str>) = (exp.collect(), act.collect());
    let differing = exp.iter().zip(&act).filter(|(e, a)| e != a).count();
    (differing + exp.len().abs_diff(act.len())) as u64
}

/// Self-test: changing one value of one row of `csv` must be caught as
/// exactly one failed row.
pub fn perturbed_row_is_caught(csv: &str) -> bool {
    let mut lines: Vec<String> = csv.lines().map(str::to_owned).collect();
    if lines.len() < 2 {
        return false;
    }
    let row = lines.len() / 2;
    let last = lines[row].pop().expect("CSV rows are non-empty");
    lines[row].push(if last == '0' { '1' } else { '0' });
    let perturbed = lines.join("\n") + "\n";
    row_mismatches(csv, &perturbed) == 1 && row_mismatches(csv, csv) == 0
}

/// Self-test: each scene's seeded window equals the matching slice of a
/// capture that starts at frame 0.
pub fn seed_purity(workload: &Workload, seed: u64) -> Result<(), String> {
    let cfg = workload.capture_config();
    for (i, alias) in workload.scenes.iter().enumerate() {
        let start = Workload::window_start(seed, i);
        let window = capture_window(alias, start, workload.frames, cfg)?;
        let long = capture_window(alias, 0, start + workload.frames, cfg)?;
        if window.textures != long.textures || window.frames[..] != long.frames[start..] {
            return Err(format!(
                "{alias}: frames [{start}, +{}) depend on the frames before them",
                workload.frames
            ));
        }
    }
    Ok(())
}

/// Raster invocations a cold execution of `plan` must perform.
pub fn expected_rasters(plan: &SweepPlan) -> u64 {
    plan.render_jobs()
        .iter()
        .map(|j| j.key.frames() as u64 * u64::from(j.key.gpu_config().tile_count()))
        .sum()
}

/// A seeded choice of cells to re-simulate.
pub fn sampled_cells(plan: &SweepPlan, seed: u64) -> Vec<Cell> {
    let jobs = plan.eval_jobs();
    let mut picks: Vec<usize> = (0..SAMPLED_CELLS as u64)
        .map(|k| {
            (seed
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(k * 7919)
                % jobs.len() as u64) as usize
        })
        .collect();
    picks.sort_unstable();
    picks.dedup();
    picks.into_iter().map(|i| jobs[i].cell).collect()
}

/// The CSV row of `cell` computed by a per-cell `Simulator::run` over the
/// captured trace of its scene.
pub fn simulated_row(cell: &Cell, trace: &Trace, axes: &[re_sweep::AxisId]) -> String {
    let mut scene = TraceScene::with_name(trace.clone(), cell.scene());
    let mut sim = Simulator::new(cell.point.sim_options());
    let report = sim.run(&mut scene, cell.point.frames);
    CellRecord::from_run(cell, &report).csv_row(axes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn a_perturbed_expected_row_is_caught() {
        for w in WORKLOADS {
            let csv = expected_csv(w.name).expect("every workload has expected rows");
            assert!(
                csv.lines().count() > 1,
                "{}: expected rows are committed",
                w.name
            );
            assert!(perturbed_row_is_caught(csv), "{}", w.name);
        }
    }

    #[test]
    fn row_mismatches_counts_missing_and_extra_rows() {
        let csv = "h\na\nb\nc\n";
        assert_eq!(row_mismatches(csv, csv), 0);
        assert_eq!(row_mismatches(csv, "h\na\nb\n"), 1);
        assert_eq!(row_mismatches(csv, "h\na\nx\nc\nd\n"), 2);
        assert_eq!(row_mismatches(csv, "g\na\nb\nc\n"), 4);
    }

    #[test]
    fn seeded_windows_are_slices_of_longer_captures() {
        for w in WORKLOADS {
            for seed in [0, DEFAULT_SEED, 17] {
                seed_purity(&w, seed).unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            }
        }
    }
}
