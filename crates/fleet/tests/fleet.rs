//! End-to-end fleet tests: the real `sweep` binary driving real worker
//! processes (and a real in-process daemon), with the PR's headline
//! contract — a fleet whose shard is SIGKILLed mid-run still produces a
//! merged `results.csv` byte-identical to the unsharded run, and a warm
//! fleet over a shared artifact cache performs zero raster invocations.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use re_serve::{Client, Daemon, Request, ServeConfig};

const BIN: &str = env!("CARGO_BIN_EXE_sweep");

/// The test grid: 2 render keys (ccs, tib — one tile size), 8 cells.
const GRID: &[&str] = &[
    "--frames",
    "3",
    "--width",
    "128",
    "--height",
    "64",
    "--scenes",
    "ccs,tib",
    "--sig-bits",
    "16,32",
    "--distances",
    "1,2",
];

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "re-fleet-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn run(cmd: &mut Command) -> Output {
    let output = cmd.output().expect("spawn sweep");
    assert!(
        output.status.success(),
        "`{cmd:?}` failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    output
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Runs the unsharded golden sweep and returns its `results.csv` bytes.
fn golden_csv(dir: &Path) -> Vec<u8> {
    run(Command::new(BIN)
        .args(GRID)
        .args(["--quiet", "--workers", "2", "--out"])
        .arg(dir));
    std::fs::read(dir.join("results.csv")).expect("golden results.csv")
}

#[test]
fn fleet_retries_a_killed_shard_and_merges_byte_identically() {
    let base = tmp_dir("kill");
    let golden = golden_csv(&base.join("golden"));

    // 3 local shards over 2 render keys (shard 3 is legitimately empty);
    // shard index 1's first worker is SIGKILLed as soon as it is mid-run.
    let root = base.join("fleet");
    let output = run(Command::new(BIN)
        .arg("fleet")
        .args([
            "--local-procs",
            "3",
            "--poll-ms",
            "25",
            "--max-retries",
            "2",
        ])
        .args(GRID)
        .args(["--quiet", "--out"])
        .arg(&root)
        .env("RE_FLEET_KILL_ONCE", "1"));

    let merged = std::fs::read(root.join("merged").join("results.csv")).expect("merged csv");
    assert_eq!(
        merged, golden,
        "merged results.csv must be byte-identical to the unsharded run"
    );
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("raster invocations this run:"),
        "fleet must report its raster total:\n{stderr}"
    );

    // The manifest records the relaunch and the completed partition.
    let manifest = re_fleet::Manifest::load(&root)
        .expect("manifest readable")
        .expect("manifest written");
    assert!(manifest.merged, "manifest must record the merge");
    assert_eq!(manifest.shards.len(), 3);
    assert!(
        manifest.shards[1].attempts >= 2,
        "the killed shard must have been relaunched: {:?}",
        manifest.shards[1]
    );
    assert!(
        manifest.shards.iter().all(|s| s.state == "done"),
        "{:?}",
        manifest.shards
    );
    assert_eq!(manifest.shards[2].cells, 0, "2 keys over 3 shards");

    // A warm fleet over the first fleet's artifact cache replays every
    // render key: zero raster invocations, same bytes.
    let cache = root.join("cache");
    let warm_root = base.join("fleet-warm");
    let output = run(Command::new(BIN)
        .arg("fleet")
        .args(["--local-procs", "3", "--poll-ms", "25"])
        .args(GRID)
        .args(["--quiet", "--trace-dir"])
        .arg(&cache)
        .arg("--log-dir")
        .arg(&cache)
        .arg("--out")
        .arg(&warm_root));
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("raster invocations this run: 0"),
        "warm fleet must not rasterize:\n{stderr}"
    );
    let warm = std::fs::read(warm_root.join("merged").join("results.csv")).expect("warm csv");
    assert_eq!(warm, golden);
}

#[test]
fn fleet_daemon_backend_merges_byte_identically() {
    let base = tmp_dir("daemon");
    let golden = golden_csv(&base.join("golden"));

    // A real daemon on an ephemeral port, serving from its own root.
    let daemon = Daemon::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        root: base.join("serve-root"),
        workers: 2,
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || daemon.run(None).expect("daemon run"));

    // Shard 1 runs locally, shard 2 on the daemon.
    let root = base.join("fleet");
    run(Command::new(BIN)
        .arg("fleet")
        .args(["--local-procs", "1", "--daemon", &addr, "--poll-ms", "25"])
        .args(GRID)
        .args(["--quiet", "--out"])
        .arg(&root));

    let merged = std::fs::read(root.join("merged").join("results.csv")).expect("merged csv");
    assert_eq!(
        merged, golden,
        "local + daemon shards must merge to the unsharded bytes"
    );
    let manifest = re_fleet::Manifest::load(&root)
        .expect("manifest readable")
        .expect("manifest written");
    assert_eq!(
        manifest.shards[1].backend,
        re_fleet::Backend::Daemon(addr.clone())
    );
    assert!(manifest.shards[1].job.is_some(), "daemon job id recorded");

    let mut client = Client::connect(&addr).expect("connect");
    let _ = client.request(&Request::Shutdown);
    handle.join().expect("daemon thread");
}

#[test]
fn dry_run_prints_the_partition_without_launching() {
    let base = tmp_dir("dry");
    let root = base.join("fleet");
    let output = run(Command::new(BIN)
        .arg("fleet")
        .args(["--dry-run", "--local-procs", "2", "--daemon", "127.0.0.1:1"])
        .args(GRID)
        .args(["--out"])
        .arg(&root));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("3 shard(s)"), "{stdout}");
    assert!(stdout.contains("shard 1/3"), "{stdout}");
    assert!(stdout.contains("daemon 127.0.0.1:1"), "{stdout}");
    assert!(stdout.contains("(empty)"), "2 keys over 3 shards\n{stdout}");
    assert!(!root.exists(), "--dry-run must not touch the fleet root");
}
