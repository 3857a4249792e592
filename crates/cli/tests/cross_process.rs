//! Cross-process determinism of the `hycap` binary: two separate processes
//! running the same `measure`, `sweep`, `degrade` or `flows … --metrics
//! PATH` must print byte-identical reports and write byte-identical metrics
//! snapshots.
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

/// A two-point sweep through the slot-sharded counter engine.
const SWEEP_ARGS: &str = "sweep --alpha 0.25 --m 1 --r 0 --k 0.75 --phi 0 \
                          --ns 100,200 --slots 40 --seed 7 --threads 2 --metrics";

/// A fault-free baseline plus a faulted run (crashes and Bernoulli
/// outages), both slot-sharded on the pool.
const DEGRADE_ARGS: &str = "degrade --alpha 0.25 --m 1 --r 0 --k 0.75 --phi 0 \
                            --n 150 --fail-frac 0.3 --outage-p 0.1 --slots 40 \
                            --seed 7 --threads 2 --metrics";

/// A two-point load ladder of finite flows over scheme A relay chains and
/// scheme B, demand-paced, with an elephant/mice size mix.
const FLOWS_ARGS: &str = "flows --alpha 0.25 --m 1 --r 0 --k 0.75 --phi 0 \
                          --n 200 --loads 0.001,0.004 --horizon 200 --seed 3 \
                          --mice 1 --elephants 5 --elephant-frac 0.3 --metrics";

/// Runs `hycap <args> <metrics>` and returns (stdout, snapshot bytes).
fn run_once(args: &str, metrics: &Path) -> (Vec<u8>, Vec<u8>) {
    std::fs::remove_file(metrics).ok();
    let out = Command::new(BIN)
        .args(args.split_whitespace())
        .arg(metrics)
        .output()
        .expect("spawn hycap binary");
    assert!(
        out.status.success(),
        "hycap {args} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snapshot = std::fs::read(metrics).expect("metrics snapshot written");
    (out.stdout, snapshot)
}

/// Two processes of `hycap <args>`: same stdout, same snapshot bytes.
fn assert_two_processes_identical(name: &str, args: &str, expect: &str) {
    let metrics = report_dir().join(format!("cross-process-{name}-{}.json", std::process::id()));
    let (stdout_a, snap_a) = run_once(args, &metrics);
    let (stdout_b, snap_b) = run_once(args, &metrics);
    std::fs::remove_file(&metrics).ok();
    let text = String::from_utf8_lossy(&stdout_a);
    assert!(text.contains(expect), "unexpected {name} report:\n{text}");
    assert!(
        stdout_a == stdout_b,
        "{name} stdout differs between processes:\n--- first\n{text}\n--- second\n{}",
        String::from_utf8_lossy(&stdout_b)
    );
    assert!(
        snap_a == snap_b,
        "{name} metrics snapshot differs between processes:\n--- first\n{}\n--- second\n{}",
        String::from_utf8_lossy(&snap_a),
        String::from_utf8_lossy(&snap_b)
    );
}

#[test]
fn two_processes_print_and_snapshot_identical_bytes() {
    assert_two_processes_identical("measure", MEASURE_ARGS, "infrastructure path");
}

#[test]
fn two_sweep_processes_print_and_snapshot_identical_bytes() {
    assert_two_processes_identical("sweep", SWEEP_ARGS, "metrics:");
}

#[test]
fn two_degrade_processes_print_and_snapshot_identical_bytes() {
    assert_two_processes_identical("degrade", DEGRADE_ARGS, "faults:");
}

#[test]
fn two_flows_processes_print_and_snapshot_identical_bytes() {
    assert_two_processes_identical("flows", FLOWS_ARGS, "fct vs load");
}
