//! Cross-process determinism of the `hycap` binary: two separate processes
//! running the same `measure … --metrics PATH` must print byte-identical
//! reports and write byte-identical metrics snapshots.
//!
//! Within one process every `HashMap` shares a hasher seed, so in-process
//! determinism tests cannot see a result that depends on `HashMap`
//! iteration order. std's `RandomState` reseeds per process, so two
//! processes can: any such order leaking into a λ, a counter or the
//! snapshot's layout shows up here as a byte difference.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hycap");

/// Snapshots live under `target/reports/` next to the other CLI artifacts.
fn report_dir() -> PathBuf {
    let target = Path::new(BIN)
        .ancestors()
        .nth(2)
        .expect("bin lives under target/<profile>/");
    let dir = target.join("reports");
    std::fs::create_dir_all(&dir).expect("create report dir");
    dir
}

/// A scenario with both paths live: n = 1296 gives scheme B a non-empty
/// backbone.
const MEASURE_ARGS: &str = "measure --alpha 0.25 --m 1 --r 0 --k 0.5 --phi 0 \
                            --n 1296 --slots 60 --seed 2010 --threads 2 --metrics";

/// Runs `hycap measure` and returns (stdout, snapshot bytes).
fn measure_once(metrics: &Path) -> (Vec<u8>, Vec<u8>) {
    std::fs::remove_file(metrics).ok();
    let out = Command::new(BIN)
        .args(MEASURE_ARGS.split_whitespace())
        .arg(metrics)
        .output()
        .expect("spawn hycap binary");
    assert!(
        out.status.success(),
        "hycap measure failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snapshot = std::fs::read(metrics).expect("metrics snapshot written");
    (out.stdout, snapshot)
}

#[test]
fn two_processes_print_and_snapshot_identical_bytes() {
    let metrics = report_dir().join(format!("cross-process-{}.json", std::process::id()));
    let (stdout_a, snap_a) = measure_once(&metrics);
    let (stdout_b, snap_b) = measure_once(&metrics);
    std::fs::remove_file(&metrics).ok();
    let text = String::from_utf8_lossy(&stdout_a);
    assert!(
        text.contains("infrastructure path"),
        "unexpected report:\n{text}"
    );
    assert!(
        stdout_a == stdout_b,
        "stdout differs between processes:\n--- first\n{text}\n--- second\n{}",
        String::from_utf8_lossy(&stdout_b)
    );
    assert!(
        snap_a == snap_b,
        "metrics snapshot differs between processes:\n--- first\n{}\n--- second\n{}",
        String::from_utf8_lossy(&snap_a),
        String::from_utf8_lossy(&snap_b)
    );
}
