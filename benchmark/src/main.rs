//! End-to-end and per-layer benchmark of the hycap reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <table1_quick|scale_1e5|flows_servable|sweep_cached> \
//!     [--seed 2010] [--seconds 10] [--trace 0|1]
//! ```
//!
//! `--trace 0` times the plain path: set-up is repeated and its median
//! reported, then the task repeats as often as fits in `--seconds` (at
//! least once) and the median repetition is reported. `--trace 1` runs the task once untraced, then
//! a replica of it built from the layers' public functions with a timer
//! around every call, and reports the per-layer split. Human-readable
//! lines go first; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod adapter;
mod stats;
mod traced;
mod workloads;

use stats::{median, quantile, Digest};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Outcome, Workload};

/// Working space inside the benchmark's own directory (result caches,
/// recorded digests).
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("work")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2010u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Digest of this executable, so recorded output digests are compared
/// only between runs of the same build.
fn build_id() -> u64 {
    let mut d = Digest::default();
    if let Ok(bytes) = std::env::current_exe().and_then(std::fs::read) {
        d.bytes(&bytes);
    }
    d.value()
}

/// Checks `digest` against the one recorded by an earlier run of the same
/// build, workload and seed, recording it on first sight. Returns the
/// recorded digest when it differs.
fn check_recorded_digest(workload: Workload, seed: u64, digest: u64) -> Option<u64> {
    let dir = work_dir().join("digests");
    let path = dir.join(format!("{}-{seed}-{:016x}", workload.name(), build_id()));
    match std::fs::read_to_string(&path) {
        Ok(s) => {
            let recorded = u64::from_str_radix(s.trim(), 16).ok()?;
            (recorded != digest).then_some(recorded)
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, format!("{digest:016x}\n"));
            None
        }
    }
}

/// Verdict on a set of task outcomes: every check passed, nothing failed,
/// and every digest agrees with the others and with earlier runs.
pub(crate) fn verdict(workload: Workload, seed: u64, outs: &[Outcome]) -> bool {
    let mut correct = true;
    for o in outs {
        for p in &o.problems {
            println!("CHECK FAILED: {p}");
            correct = false;
        }
        correct &= o.failed == 0;
    }
    let first = outs[0].digest();
    if outs.iter().any(|o| o.digest() != first) {
        println!("CHECK FAILED: output digest differs between repetitions");
        correct = false;
    }
    if let Some(recorded) = check_recorded_digest(workload, seed, first) {
        println!("CHECK FAILED: output digest {first:016x} != {recorded:016x} recorded by an earlier run");
        correct = false;
    }
    println!(
        "digest: {first:016x} ({} repetition(s) agree: {})",
        outs.len(),
        correct
    );
    correct
}

fn print_metric(name: &str, values: &[f64], unit: &str) {
    println!(
        "{name} = {:.6} {unit} (median of {}; q1 {:.6}, q3 {:.6})",
        median(values),
        values.len(),
        quantile(values, 0.25),
        quantile(values, 0.75)
    );
}

fn end_to_end(args: &Args, threads: usize) -> (bool, u64, u64, Vec<(String, f64, &'static str)>) {
    let w = args.workload;
    let work = work_dir();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..w.setup_reps() {
        drop(prepared.take());
        let start = Instant::now();
        let p = w.setup(args.seed, threads, &work);
        setup_s.push(start.elapsed().as_secs_f64());
        match p {
            Ok(p) => prepared = Some(p),
            Err(e) => {
                println!("CHECK FAILED: set-up: {e}");
                return (false, 1, 1, Vec::new());
            }
        }
    }
    let prepared = prepared.expect("at least one set-up");

    // Repeat the task while another repetition, as long as the last one,
    // still ends within the budget (always at least one).
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut outs: Vec<Outcome> = Vec::new();
    let mut last = Duration::ZERO;
    while outs.is_empty() || start.elapsed() + last <= budget {
        let t = Instant::now();
        outs.push(prepared.run(outs.len()));
        last = t.elapsed();
    }
    drop(prepared);

    let wall: Vec<f64> = outs.iter().map(|o| o.wall_s).collect();
    let node_slots: Vec<f64> = outs.iter().map(|o| o.node_slots / o.wall_s).collect();
    let events: Vec<f64> = outs.iter().map(|o| o.events / o.wall_s).collect();
    let rss = stats::peak_rss_mib();
    let attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    let correct = verdict(w, args.seed, &outs);

    print_metric("wall_s", &wall, "s");
    print_metric("setup_s", &setup_s, "s");
    print_metric("node_slots_per_s", &node_slots, "1/s");
    print_metric("events_per_s", &events, "1/s");
    println!("peak_rss_mib = {rss:.3} MiB (process high-water mark; one workload per process)");
    println!(
        "fail_share = {} ({failed} of {attempted} operations failed)",
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(fit) = outs[0].fit_err_max {
        println!(
            "fit_err_max = {fit:.6} (largest |fitted - theory| exponent; reported, not gated)"
        );
    }
    let metrics = vec![
        ("wall_s".to_string(), median(&wall), "s"),
        ("setup_s".to_string(), median(&setup_s), "s"),
        ("node_slots_per_s".to_string(), median(&node_slots), "1/s"),
        ("events_per_s".to_string(), median(&events), "1/s"),
        ("peak_rss_mib".to_string(), rss, "MiB"),
    ];
    (correct, attempted, failed.min(attempted), metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = adapter::nproc();
    println!(
        "workload: {} | seed {} | trace {} | available parallelism {threads}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("switched on: {}", args.workload.record(threads));
    let (correct, attempted, failed, metrics) = if args.trace {
        traced::run(args.workload, args.seed, threads, &work_dir())
    } else {
        end_to_end(&args, threads)
    };
    println!(
        "{}",
        stats::result_json(correct, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
