//! Exactness of texel runs end to end: Stage A folds same-line texel
//! fetches into [`Event::TexelRun`]s, and replaying them must be
//! indistinguishable from replaying every fetch.
//!
//! Both properties draw random textured scenes (quads with random
//! placement, UV scale, filter and animation over a random-size texture).
//!
//! * Against the rasterizer's raw stream: a memory system fed every hook
//!   call while the frame renders, and one fed the [`Recorder`]'s replay
//!   of the same calls, agree at every tile boundary, on any cache
//!   geometry. This catches a recorder that merges what it must not.
//!   Rendered tiles sample on one unit, so a third property drives the
//!   same comparison with random hook streams that interleave units,
//!   lines and other traffic.
//! * Against the unrolled log: [`evaluate_group`] over random vectors of
//!   [`SimOptions`] reports bit for bit what it reports on the same log
//!   with every run unrolled into single [`Event::Texel`]s.

use proptest::prelude::*;
use re_core::record::{Event, Recorder};
use re_core::render::RenderLog;
use re_core::{evaluate_group, render_scene, Scene, SimOptions};
use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
use re_gpu::hooks::{GpuHooks, RUN_LINE_BYTES, TEX_BASE, VB_BASE};
use re_gpu::texture::{Filter, TextureId, TextureStore};
use re_gpu::{Gpu, GpuConfig};
use re_math::{Color, Mat4, Vec4};
use re_timing::{MemorySystem, TimingConfig};

/// Textured quads: `(x, y, size, uv_scale)` each, moving right every
/// `period` frames (0 = static).
#[derive(Clone)]
struct Quads {
    quads: Vec<([f32; 4], u32)>,
    texture_size: (u32, u32),
    nearest: bool,
    texture: Option<TextureId>,
}

impl Quads {
    fn new(quads: Vec<((f32, f32, f32, f32), u32)>, texture_size: (u32, u32), nearest: u8) -> Self {
        Quads {
            quads: quads
                .into_iter()
                .map(|((x, y, s, uv), p)| ([x, y, s, uv], p))
                .collect(),
            texture_size,
            nearest: nearest == 1,
            texture: None,
        }
    }
}

impl Scene for Quads {
    fn init(&mut self, textures: &mut TextureStore) {
        let (w, h) = self.texture_size;
        self.texture = Some(textures.upload_with(w, h, |x, y| {
            Color::new((x * 37) as u8, (y * 53) as u8, (x ^ y) as u8, 255)
        }));
    }

    fn frame(&mut self, index: usize) -> FrameDesc {
        let mut state = PipelineState::sprite_2d(self.texture.expect("init before frame"));
        if self.nearest {
            state.filter = Filter::Nearest;
        }
        let mut vertices = Vec::new();
        for &([x, y, size, uv], period) in &self.quads {
            let steps = (index as u32).checked_div(period).unwrap_or(0);
            let x = x + 0.05 * steps as f32;
            let corner = |dx: f32, dy: f32| {
                Vertex::new(vec![
                    Vec4::new(x + dx * size, y + dy * size, 0.2, 1.0),
                    Vec4::splat(1.0),
                    Vec4::new(dx * uv, dy * uv, 0.0, 0.0),
                ])
            };
            for (dx, dy) in [(0., 0.), (1., 0.), (1., 1.), (0., 0.), (1., 1.), (0., 1.)] {
                vertices.push(corner(dx, dy));
            }
        }
        let mut frame = FrameDesc::new();
        frame.drawcalls.push(DrawCall {
            state,
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices,
        });
        frame
    }

    fn name(&self) -> &str {
        "quads"
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

/// `log` with every texel run replaced by its fetches, one event each.
fn unrolled(log: &RenderLog) -> RenderLog {
    let unroll = |events: &mut Vec<Event>| {
        *events = events
            .iter()
            .flat_map(|&e| match e {
                Event::TexelRun { unit, addr, n } => vec![Event::Texel { unit, addr }; n as usize],
                e => vec![e],
            })
            .collect();
    };
    let mut out = log.clone();
    for frame in &mut out.frames {
        unroll(&mut frame.geo_events);
        for tile in &mut frame.tiles {
            unroll(&mut tile.events);
        }
    }
    out
}

/// Texel fetches a log's events stand for, runs counted by length.
fn fetches(log: &RenderLog) -> u64 {
    let tiles = log.frames.iter().flat_map(|f| &f.tiles);
    tiles
        .flat_map(|t| &t.events)
        .map(|e| match *e {
            Event::Texel { .. } => 1,
            Event::TexelRun { n, .. } => u64::from(n),
            _ => 0,
        })
        .sum()
}

/// Forwards every hook call to a memory system and a recorder alike.
struct Tee<'a>(&'a mut MemorySystem, &'a mut Recorder);

impl GpuHooks for Tee<'_> {
    fn vertex_fetch(&mut self, addr: u64, bytes: u32) {
        self.0.vertex_fetch(addr, bytes);
        self.1.vertex_fetch(addr, bytes);
    }
    fn param_write(&mut self, addr: u64, bytes: u32) {
        self.0.param_write(addr, bytes);
        self.1.param_write(addr, bytes);
    }
    fn param_read(&mut self, addr: u64, bytes: u32) {
        self.0.param_read(addr, bytes);
        self.1.param_read(addr, bytes);
    }
    fn texel_fetch(&mut self, unit: u8, addr: u64, bytes: u32) {
        self.0.texel_fetch(unit, addr, bytes);
        self.1.texel_fetch(unit, addr, bytes);
    }
    fn color_flush(&mut self, addr: u64, bytes: u32) {
        self.0.color_flush(addr, bytes);
        self.1.color_flush(addr, bytes);
    }
    fn fragment_shaded(&mut self, tile_id: u32, drawcall: u32, input_hash: u32) {
        self.1.fragment_shaded(tile_id, drawcall, input_hash);
    }
}

fn option_set(sig_bits: u32, distance: usize, l2_pick: usize, memo_pick: usize) -> SimOptions {
    let mut o = SimOptions {
        gpu: gpu(),
        sig_bits,
        compare_distance: distance,
        memo_kb: [1u32, 16][memo_pick % 2],
        ..SimOptions::default()
    };
    o.timing.set_l2_kb([16u32, 256][l2_pick % 2]);
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn evaluation_with_runs_equals_evaluation_unrolled(
        quads in proptest::collection::vec(
            (
                (-1.0f32..0.5, -1.0f32..0.5, 0.2f32..1.2, 0.25f32..6.0),
                0u32..3,
            ),
            1..4,
        ),
        texture_side in (1u32..48, 1u32..48),
        nearest in 0u8..2,
        frames in 2usize..5,
        draws in proptest::collection::vec((1u32..=32, 1usize..=2, 0usize..2, 0usize..2), 1..4),
    ) {
        let mut scene = Quads::new(quads, texture_side, nearest);
        let log = render_scene(&mut scene, gpu(), frames);
        let plain = unrolled(&log);

        let recorded: u64 = log
            .frames
            .iter()
            .flat_map(|f| &f.tiles)
            .map(|t| t.stats.texel_fetches)
            .sum();
        prop_assert_eq!(fetches(&log), recorded, "runs count every fetch");
        prop_assert_eq!(fetches(&plain), recorded);
        // Bilinear samples fetch 2×2 texels back to back, so they record
        // runs; nearest samples are one fetch between fragment events.
        let runs = log
            .frames
            .iter()
            .flat_map(|f| &f.tiles)
            .flat_map(|t| &t.events)
            .filter(|e| matches!(e, Event::TexelRun { .. }))
            .count();
        prop_assert_eq!(runs > 0, !scene.nearest, "{} runs", runs);

        let opts: Vec<SimOptions> = draws
            .into_iter()
            .map(|(bits, d, l2, memo)| option_set(bits, d, l2, memo))
            .collect();
        prop_assert_eq!(evaluate_group(&log, &opts), evaluate_group(&plain, &opts));
    }

    #[test]
    fn recorded_runs_replay_like_the_raw_fetch_stream(
        quads in proptest::collection::vec(
            (
                (-1.0f32..0.5, -1.0f32..0.5, 0.2f32..1.2, 0.25f32..6.0),
                0u32..3,
            ),
            1..4,
        ),
        texture_side in (1u32..48, 1u32..48),
        nearest in 0u8..2,
        frames in 1usize..4,
        tex_cache in (1u32..=8, 1u32..=4),
        l2_kb in 0usize..2,
    ) {
        let mut scene = Quads::new(quads, texture_side, nearest);
        let mut timing = TimingConfig::mali450();
        let (sets, ways) = tex_cache;
        timing.texture_cache.ways = ways;
        timing.texture_cache.size_bytes = sets * ways * timing.texture_cache.line_bytes;
        timing.set_l2_kb([16u32, 256][l2_kb]);
        let (mut raw, mut replayed) = (MemorySystem::new(timing), MemorySystem::new(timing));
        let mut recorder = Recorder::new();

        let mut gpu = Gpu::new(gpu());
        scene.init(gpu.textures_mut());
        for index in 0..frames {
            let desc = scene.frame(index);
            let geo = gpu.run_geometry(&desc, &mut Tee(&mut raw, &mut recorder));
            recorder.replay(&mut replayed, true);
            prop_assert_eq!(raw.take_epoch(), replayed.take_epoch());
            for tile in 0..gpu.tile_count() {
                recorder.clear();
                gpu.rasterize_tile(&desc, &geo, tile, &mut Tee(&mut raw, &mut recorder));
                recorder.replay(&mut replayed, true);
                prop_assert_eq!(raw.take_epoch(), replayed.take_epoch(), "tile {}", tile);
            }
            recorder.clear();
            gpu.end_frame();
        }
        prop_assert_eq!(raw.sram_accesses(), replayed.sram_accesses());
        prop_assert_eq!(raw.dram_stats(), replayed.dram_stats());
    }

    #[test]
    fn recorder_replays_random_hook_streams_exactly(
        stream in proptest::collection::vec((0u8..8, 0u8..4, 0u64..12, 0u64..64), 1..200),
        tex_cache in (1u32..=4, 1u32..=4),
    ) {
        let mut timing = TimingConfig::mali450();
        let (sets, ways) = tex_cache;
        timing.texture_cache.ways = ways;
        timing.texture_cache.size_bytes = sets * ways * timing.texture_cache.line_bytes;
        timing.num_fragment_processors = 4;
        let (mut raw, mut replayed) = (MemorySystem::new(timing), MemorySystem::new(timing));
        let mut recorder = Recorder::new();
        // Kind 0: a vertex fetch between texel fetches; kind 1: a tile
        // boundary; otherwise a texel fetch.
        for (kind, unit, line, offset) in stream {
            let mut tee = Tee(&mut raw, &mut recorder);
            match kind {
                0 => tee.vertex_fetch(VB_BASE + line * RUN_LINE_BYTES, 16),
                1 => {
                    recorder.replay(&mut replayed, true);
                    recorder.clear();
                    prop_assert_eq!(raw.take_epoch(), replayed.take_epoch());
                }
                _ => tee.texel_fetch(unit, TEX_BASE + line * RUN_LINE_BYTES + offset, 4),
            }
        }
        recorder.replay(&mut replayed, true);
        prop_assert_eq!(raw.take_epoch(), replayed.take_epoch());
        prop_assert_eq!(raw.sram_accesses(), replayed.sram_accesses());
        prop_assert_eq!(raw.dram_stats(), replayed.dram_stats());
    }
}
