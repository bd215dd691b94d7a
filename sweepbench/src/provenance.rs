//! Where a result came from: host, toolchain, sources and inputs. Every
//! run prints this beside its metrics and appends both to the ledger
//! (`.bench_work/ledger.jsonl`).

use std::fmt::Write as _;
use std::path::Path;

/// Sources whose bytes the source fingerprint covers.
const SOURCES: [&str; 6] = [
    "Cargo.toml",
    "Cargo.lock",
    "crates",
    "vendor",
    "src",
    "sweepbench",
];

/// The provenance fields of one result.
pub struct Provenance {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub grid_spec: String,
    pub plan_fingerprint: u64,
    pub cells: usize,
    /// The per-sweep (or per-round) samples behind each timed metric.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Provenance {
    /// The provenance as a JSON object, host fields included.
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut out = String::from("{");
        let mut field = |key: &str, value: String| {
            if out.len() > 1 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{key}\": {value}");
        };
        field("workload", quote(self.workload));
        field("seed", self.seed.to_string());
        field("trace", self.trace.to_string());
        field("nproc", nproc.to_string());
        field("cpu_model", quote(&cpu_model()));
        field("rustc", quote(env!("SWEEPBENCH_RUSTC")));
        field("commit", quote(&commit()));
        field(
            "source_fingerprint",
            quote(&format!("{:016x}", source_fingerprint())),
        );
        field("grid_spec", quote(&self.grid_spec));
        field(
            "plan_fingerprint",
            quote(&format!("{:016x}", self.plan_fingerprint)),
        );
        field("cells", self.cells.to_string());
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, xs)| {
                let xs: Vec<String> = xs.iter().map(f64::to_string).collect();
                format!("{}: [{}]", quote(name), xs.join(", "))
            })
            .collect();
        field("samples", format!("{{{}}}", samples.join(", ")));
        out.push('}');
        out
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The git commit of the checkout, when it is a git work tree of its own.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout; see source_fingerprint)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
}

/// FNV-1a over the relative path and bytes of every source file, in path
/// order — identifies the code even where no git metadata exists.
fn source_fingerprint() -> u64 {
    let mut files = Vec::new();
    for root in SOURCES {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for path in files {
        eat(path.to_string_lossy().as_bytes());
        eat(&std::fs::read(&path).unwrap_or_default());
    }
    h
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        if name == "target" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        collect(&p, out);
    }
}
