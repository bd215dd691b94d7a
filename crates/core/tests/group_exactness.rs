//! Exactness of grouped Stage B: an [`EvalGroup`] over several option
//! sets of one render key runs each distinct pass once, replays each
//! distinct memory-access stream once (its baseline, TE and RE share a
//! cache hierarchy until their skip decisions part), and every report it
//! assembles must be bit-identical to evaluating that option set on its
//! own.
//!
//! The property draws random small scenes and random vectors of 1–6
//! [`SimOptions`] that vary every evaluation-side field (signature width,
//! compare distance, refresh period, L2 size, OT depth, signature-compare
//! cost, memo LUT size), with duplicate entries mixed in. Each grouped
//! report is checked against three single-cell references: `evaluate`,
//! a one-chain [`Evaluation::with_passes`] over [`default_passes`] (the
//! whole stack sharing one tile context, no pass shared between cells),
//! and the streamed `.relog` group.
//!
//! A second property biases the draws towards forks in the middle of a
//! frame: signatures of 1–3 bits collide on some tiles and not others,
//! and `re_unsafe` frames and refresh periods switch RE off and on, so RE
//! leaves the baseline's stream, and other RE widths' streams, at
//! different tiles.

use proptest::prelude::*;
use re_core::passes::default_passes;
use re_core::{
    evaluate, evaluate_group, relog, render_scene, EvalGroup, Evaluation, RelogReader, Scene,
    SimOptions,
};
use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
use re_gpu::GpuConfig;
use re_math::{Mat4, Vec4};
use re_timing::TimingConfig;

/// Flat triangles, each shifting right every `period` frames (0 = static).
#[derive(Clone)]
struct Tris {
    tris: Vec<([f32; 6], u32)>,
    unsafe_every: u32,
}

impl Scene for Tris {
    fn frame(&mut self, index: usize) -> FrameDesc {
        let mut vertices = Vec::new();
        for (k, (pos, period)) in self.tris.iter().enumerate() {
            let shift = if *period == 0 {
                0.0
            } else {
                0.06 * ((index as u32 / period) as f32)
            };
            let c = Vec4::new(0.2 + 0.15 * k as f32, 0.5, 0.9 - 0.1 * k as f32, 1.0);
            for v in 0..3 {
                vertices.push(Vertex::new(vec![
                    Vec4::new(pos[2 * v] + shift, pos[2 * v + 1], 0.0, 1.0),
                    c,
                ]));
            }
        }
        let mut frame = FrameDesc::new();
        frame.drawcalls.push(DrawCall {
            state: PipelineState::flat_2d(),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices,
        });
        frame.re_unsafe = self.unsafe_every > 0 && (index as u32).is_multiple_of(self.unsafe_every);
        frame
    }

    fn name(&self) -> &str {
        "tris"
    }
}

fn gpu() -> GpuConfig {
    GpuConfig {
        width: 64,
        height: 48,
        tile_size: 16,
        ..Default::default()
    }
}

/// One option set from raw draws; `timing_pick` packs L2 size, OT depth
/// and signature-compare cost (the vendored proptest caps tuples at six).
fn option_set(
    sig_bits: u32,
    compare_distance: usize,
    refresh_pick: usize,
    timing_pick: usize,
    memo_pick: usize,
) -> SimOptions {
    let mut o = SimOptions {
        gpu: gpu(),
        sig_bits,
        compare_distance,
        refresh_period: [None, Some(2), Some(3)][refresh_pick % 3],
        memo_kb: [1u32, 4, 16][memo_pick % 3],
        ..SimOptions::default()
    };
    o.timing.set_l2_kb([16u32, 256][timing_pick % 2]);
    o.timing.set_ot_depth([2u32, 16][(timing_pick / 2) % 2]);
    o.timing.sig_compare_cycles = [0u64, 4][(timing_pick / 4) % 2];
    o
}

fn arb_option() -> impl Strategy<Value = (u32, usize, usize, usize, usize, usize)> {
    (
        1u32..=32,
        1usize..=3,
        0usize..3,
        0usize..8,
        0usize..3,
        0usize..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grouped_reports_equal_separate_evaluations(
        tris in proptest::collection::vec(
            (proptest::array::uniform6(-1.0f32..1.0), 0u32..4),
            1..4,
        ),
        unsafe_pick in 0u32..3,
        frames in 3usize..7,
        draws in proptest::collection::vec(arb_option(), 1..7),
    ) {
        let mut scene = Tris { tris, unsafe_every: [0, 0, 4][unsafe_pick as usize] };
        let log = render_scene(&mut scene, gpu(), frames);
        let tiles = log.tile_count();

        // A draw whose last pick is 0 repeats an earlier entry verbatim.
        let mut opts: Vec<SimOptions> = Vec::new();
        for (i, &(bits, d, refresh, timing, memo, dup)) in draws.iter().enumerate() {
            if dup == 0 && i > 0 {
                opts.push(opts[(bits as usize) % i]);
            } else {
                opts.push(option_set(bits, d, refresh, timing, memo));
            }
        }

        let grouped = evaluate_group(&log, &opts);
        prop_assert_eq!(grouped.len(), opts.len());
        let bytes = relog::encode(&log);
        let mut reader = RelogReader::new(bytes.as_slice()).expect("header");
        let streamed = relog::evaluate_reader_group(&mut reader, &opts).expect("stream");
        prop_assert_eq!(&streamed, &grouped);

        for (o, report) in opts.iter().zip(&grouped) {
            prop_assert_eq!(report, &evaluate(&log, o));
            let mut one_chain = Evaluation::with_passes(*o, tiles, default_passes(o, tiles));
            for f in &log.frames {
                one_chain.push_frame(f);
            }
            prop_assert_eq!(report, &one_chain.finish(&log.name));
        }

        // Each pass runs once per distinct value of what it reads.
        let group = EvalGroup::new(&opts, tiles);
        let names = group.pass_names();
        let count = |name: &str| names.iter().filter(|n| **n == name).count();
        let distinct = |key: &dyn Fn(&SimOptions) -> String| {
            let mut keys: Vec<String> = opts.iter().map(key).collect();
            keys.sort();
            keys.dedup();
            keys.len()
        };
        // Baseline and TE read neither the OT depth nor the
        // signature-compare cost.
        let lane_timing = |o: &SimOptions| {
            let t = TimingConfig { ot_queue_entries: 0, sig_compare_cycles: 0, ..o.timing };
            format!("{t:?}")
        };
        prop_assert_eq!(count("baseline"), distinct(&lane_timing));
        let re_key = |o: &SimOptions| {
            format!("{:?} {} {} {:?}", o.timing, o.sig_bits, o.compare_distance, o.refresh_period)
        };
        prop_assert_eq!(count("re"), distinct(&re_key));
        prop_assert_eq!(count("redundancy"), distinct(&re_key));
        prop_assert_eq!(
            count("te"),
            distinct(&|o| format!("{} {}", lane_timing(o), o.compare_distance))
        );
        prop_assert_eq!(count("memo"), distinct(&|o| o.memo_kb.to_string()));
    }

    #[test]
    fn grouped_reports_are_exact_when_lanes_fork_mid_frame(
        tris in proptest::collection::vec(
            (proptest::array::uniform6(-1.0f32..1.0), 0u32..4),
            1..5,
        ),
        unsafe_every in 2u32..5,
        frames in 4usize..9,
        draws in proptest::collection::vec(
            (1u32..=3, 1usize..=3, 0usize..3, 0usize..8),
            2..7,
        ),
    ) {
        let mut scene = Tris { tris, unsafe_every };
        let log = render_scene(&mut scene, gpu(), frames);
        let tiles = log.tile_count();
        let opts: Vec<SimOptions> = draws
            .iter()
            .map(|&(bits, d, refresh, timing)| option_set(bits, d, refresh, timing, 0))
            .collect();

        let grouped = evaluate_group(&log, &opts);
        for (o, report) in opts.iter().zip(&grouped) {
            prop_assert_eq!(report, &evaluate(&log, o));
            let mut one_chain = Evaluation::with_passes(*o, tiles, default_passes(o, tiles));
            for f in &log.frames {
                one_chain.push_frame(f);
            }
            prop_assert_eq!(report, &one_chain.finish(&log.name));
        }
    }
}
