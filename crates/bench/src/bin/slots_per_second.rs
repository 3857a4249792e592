//! Fluid-engine throughput of the slot-sharded parallel path.
//!
//! Measures scheme-A slots/second at n ∈ {10³, 10⁴} for a 1-thread pool
//! and a pool sized to `available_parallelism`, cross-checks that every
//! configuration produces a bit-identical report, and writes the numbers
//! to `target/reports/BENCH_PR4.json`. On a single-core host the two
//! configurations coincide and the recorded speedup is honestly ~1×.
//!
//! ```text
//! cargo run -p hycap-bench --release --bin slots_per_second [--quick]
//! ```

use hycap_bench::report;
use hycap_infra::BaseStations;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeAPlan, TrafficMatrix};
use hycap_sim::{FluidEngine, FluidReport, FluidRun, HybridNetwork, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 2010;
const SLOT_SEED: u64 = 0xBE7C;
const K: usize = 16;

struct Row {
    n: usize,
    threads: usize,
    slots: usize,
    seconds: f64,
    slots_per_second: f64,
    speedup_vs_1: f64,
    bit_identical_to_1_thread: bool,
}

fn setup(n: usize) -> (HybridNetwork, SchemeAPlan) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let config = PopulationConfig::builder(n)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(K, 1.0);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let plan = SchemeAPlan::build(&homes, &traffic, (n as f64).powf(0.25));
    (HybridNetwork::with_infrastructure(pop, bs), plan)
}

fn run_config(
    net: &HybridNetwork,
    plan: &SchemeAPlan,
    slots: usize,
    threads: usize,
) -> (FluidReport, f64) {
    let engine = FluidEngine::default();
    let pool = WorkerPool::new(threads);
    let run = |slots| {
        let run = FluidRun::counter(net, plan, slots, SLOT_SEED).pool(&pool);
        engine.measure(run, &mut Observer::noop())
    };
    // Warm the pool threads before timing.
    let _ = run(slots.min(8)).expect("warm-up run");
    let start = Instant::now();
    let report = run(slots).expect("timed run").into_base();
    (report, start.elapsed().as_secs_f64())
}

fn main() {
    let quick = report::quick_flag();
    let max_threads = WorkerPool::default_threads();
    let mut thread_counts = vec![1];
    if max_threads > 1 {
        thread_counts.push(max_threads);
    }
    let configs: &[(usize, usize)] = if quick {
        &[(1_000, 40), (10_000, 10)]
    } else {
        &[(1_000, 400), (10_000, 60)]
    };

    let mut rows: Vec<Row> = Vec::new();
    for &(n, slots) in configs {
        let (net, plan) = setup(n);
        let mut baseline: Option<(FluidReport, f64)> = None;
        for &threads in &thread_counts {
            let (report, seconds) = run_config(&net, &plan, slots, threads);
            let (base_report, base_secs) = baseline.get_or_insert((report.clone(), seconds));
            rows.push(Row {
                n,
                threads,
                slots,
                seconds,
                slots_per_second: slots as f64 / seconds,
                speedup_vs_1: *base_secs / seconds,
                bit_identical_to_1_thread: report == *base_report,
            });
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"hycap-bench/1\",");
    let _ = writeln!(json, "  \"bench\": \"slots_per_second\",");
    let _ = writeln!(json, "  \"engine\": \"fluid scheme A, slot-sharded\",");
    let _ = writeln!(json, "  \"available_parallelism\": {max_threads},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"threads\": {}, \"slots\": {}, \"seconds\": {:.6}, \
             \"slots_per_second\": {:.3}, \"speedup_vs_1\": {:.3}, \
             \"bit_identical_to_1_thread\": {}}}{comma}",
            r.n,
            r.threads,
            r.slots,
            r.seconds,
            r.slots_per_second,
            r.speedup_vs_1,
            r.bit_identical_to_1_thread,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let path = report::write_json("BENCH_PR4", &json).expect("write BENCH_PR4.json");

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.threads.to_string(),
                r.slots.to_string(),
                format!("{:.3}", r.seconds),
                format!("{:.1}", r.slots_per_second),
                format!("{:.2}x", r.speedup_vs_1),
                r.bit_identical_to_1_thread.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::ascii_table(
            &[
                "n",
                "threads",
                "slots",
                "seconds",
                "slots/s",
                "speedup vs 1",
                "bit-identical",
            ],
            &table_rows,
        )
    );
    println!("available_parallelism = {max_threads}");
    println!("wrote {}", path.display());

    assert!(
        rows.iter().all(|r| r.bit_identical_to_1_thread),
        "thread counts disagreed on the measured report"
    );
}
