//! The three benchmark workloads and their seeded inputs.
//!
//! A workload is a scene list, a screen, a frame count and the sweep axis
//! flags of its grid. The seed picks, for every scene, the first frame of
//! the window that gets captured; the scene generators are pure functions
//! of the frame index, so the seed changes the inputs and never which
//! code runs. The captured windows reach the program the way an external
//! capture would: as `.retrace` files installed with `sweep import`, named
//! on the grid as `trace:w-<alias>`.

use std::path::{Path, PathBuf};

use re_core::Scene;
use re_gpu::api::FrameDesc;
use re_gpu::texture::TextureStore;
use re_gpu::GpuConfig;
use re_trace::Trace;

/// Frames the seeded window start may range over. The scenes move in
/// cycles (`abi` and `tib` repeat every 40 frames, `coc` every 48, and
/// `vdoc`/`vmap` alternate still and moving phases), and a window that
/// straddles a phase change measures a different tile redundancy. A short
/// span keeps every seed's windows inside the same phases, so the seed
/// changes the frames but not the kind of work.
const WINDOW_SPAN: u64 = 6;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Builtin scene aliases whose windows are captured.
    pub scenes: &'static [&'static str],
    /// Screen width in pixels.
    pub width: u32,
    /// Screen height in pixels.
    pub height: u32,
    /// Frames per window (and per cell).
    pub frames: usize,
    /// The grid's axis flags, exactly as a user passes them to `sweep`.
    pub axes: &'static [&'static str],
    /// Whether setup fills the `.relog` cache so the timed sweep replays
    /// every artifact (warm) or the timed sweep starts from nothing (cold).
    pub warm: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "suite_warm_eval",
        scenes: &re_workloads::ALIASES,
        width: 192,
        height: 128,
        frames: 8,
        axes: &["--sig-bits", "16,32", "--distances", "1,2"],
        warm: true,
    },
    Workload {
        name: "suite_cold_render",
        scenes: &re_workloads::ALIASES,
        width: 160,
        height: 96,
        frames: 8,
        axes: &["--tile-sizes", "16,32", "--binning", "bbox,exact"],
        warm: false,
    },
    Workload {
        name: "vector_cold",
        scenes: &re_workloads::source::VECTOR_ALIASES,
        width: 256,
        height: 160,
        frames: 12,
        axes: &["--tile-sizes", "8,16,32", "--binning", "bbox,exact"],
        warm: false,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The capture-time GPU configuration (screen only, as `sweep` uses).
    pub fn capture_config(&self) -> GpuConfig {
        GpuConfig {
            width: self.width,
            height: self.height,
            ..GpuConfig::default()
        }
    }

    /// The short import name of a scene's window (`w-ccs`).
    pub fn import_name(alias: &str) -> String {
        format!("w-{alias}")
    }

    /// The `--scenes` value naming every imported window.
    pub fn scene_list(&self) -> String {
        let names: Vec<String> = self
            .scenes
            .iter()
            .map(|a| {
                format!(
                    "{}{}",
                    re_workloads::source::TRACE_PREFIX,
                    Self::import_name(a)
                )
            })
            .collect();
        names.join(",")
    }

    /// The `sweep` argument vector of this workload's grid, run against
    /// the store `out` with imports from `imports` (no program name).
    pub fn sweep_argv(&self, out: &Path, imports: &Path) -> Vec<String> {
        let mut argv: Vec<String> = vec![
            "--out".into(),
            out.display().to_string(),
            "--import-dir".into(),
            imports.display().to_string(),
            "--scenes".into(),
            self.scene_list(),
            "--frames".into(),
            self.frames.to_string(),
            "--width".into(),
            self.width.to_string(),
            "--height".into(),
            self.height.to_string(),
            "--quiet".into(),
            // One render thread per key. By default a key rendered while
            // the other workers evaluate fans its frames out over every
            // worker, so two workers run three or four threads on two
            // hardware threads and the timings follow the scheduler.
            "--render-workers".into(),
            "1".into(),
        ];
        argv.extend(self.axes.iter().map(|s| s.to_string()));
        argv
    }

    /// The first frame of `scene_index`'s window under `seed`.
    pub fn window_start(seed: u64, scene_index: usize) -> usize {
        (splitmix64(seed ^ (scene_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % WINDOW_SPAN)
            as usize
    }

    /// Captures every scene's seeded window, writes each as a `.retrace`
    /// under `dir/captures` and installs it into `dir/imports`. Returns the
    /// import directory and the captures, keyed by builtin alias.
    pub fn capture_windows(&self, seed: u64, dir: &Path) -> Result<(PathBuf, Vec<Trace>), String> {
        let captures = dir.join("captures");
        let imports = dir.join("imports");
        std::fs::create_dir_all(&captures).map_err(|e| format!("{}: {e}", captures.display()))?;
        let mut traces = Vec::with_capacity(self.scenes.len());
        for (i, alias) in self.scenes.iter().enumerate() {
            let trace = capture_window(
                alias,
                Self::window_start(seed, i),
                self.frames,
                self.capture_config(),
            )?;
            let name = Self::import_name(alias);
            let path = captures.join(format!("{name}.retrace"));
            trace
                .save(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            re_sweep::importer::import_file(&path, Some(&name), &imports)?;
            traces.push(trace);
        }
        Ok((imports, traces))
    }
}

/// A scene viewed from frame `start` on: frame `i` is the inner scene's
/// frame `start + i`.
pub struct Window {
    inner: Box<dyn Scene>,
    start: usize,
}

impl Scene for Window {
    fn init(&mut self, textures: &mut TextureStore) {
        self.inner.init(textures);
    }

    fn frame(&mut self, index: usize) -> FrameDesc {
        self.inner.frame(self.start + index)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Captures frames `[start, start + frames)` of a builtin scene.
pub fn capture_window(
    alias: &str,
    start: usize,
    frames: usize,
    cfg: GpuConfig,
) -> Result<Trace, String> {
    let inner = re_workloads::source::builtin_scene(alias)
        .ok_or_else(|| format!("unknown builtin scene `{alias}`"))?;
    Ok(re_trace::capture(&mut Window { inner, start }, cfg, frames))
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
