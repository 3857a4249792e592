//! Thread-count determinism of the slot-sharded fluid engines.
//!
//! The contract under test: for every scheme (A, B), fault-free and
//! faulted, counter runs sharded on a pool produce **bit-identical**
//! reports and merged metrics snapshots at 1, 2, 4 and 7 worker threads,
//! and all of them equal the inline (one-chunk) counter run. Streamed runs,
//! which build the spatial index chunk by chunk instead of indexing a
//! materialized snapshot, equal it too. This is what makes `--threads` a
//! pure throughput knob: parallelism can never change a measured number.

use hycap_infra::BaseStations;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::Observer;
use hycap_routing::{SchemeAPlan, SchemeBPlan, TrafficMatrix};
use hycap_sim::{
    DegradedFluidReport, FaultSchedule, FluidEngine, FluidPlan, FluidRun, HybridNetwork,
    OutagePolicy, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xD0_0D;
const SLOT_SEED: u64 = 0x5107;
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// A hybrid network with a deterministic regular BS grid, plus the plans.
fn hybrid_setup(
    n: usize,
    k: usize,
    cells_per_side: usize,
) -> (HybridNetwork, SchemeBPlan, SchemeAPlan) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let config = PopulationConfig::builder(n)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(k, 1.0);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let plan_b = SchemeBPlan::build(&homes, &traffic, &bs, cells_per_side);
    let plan_a = SchemeAPlan::build(&homes, &traffic, (n as f64).powf(0.25));
    (HybridNetwork::with_infrastructure(pop, bs), plan_b, plan_a)
}

/// A schedule exercising scripted crashes, a repair and transient outages.
fn faulty_schedule() -> FaultSchedule {
    FaultSchedule::empty()
        .crash_bs(0, 0)
        .crash_bs(40, 1)
        .crash_bs(90, 2)
        .repair_bs(130, 1)
        .with_bernoulli_bs_outage(0.02, 7)
}

/// A run measured under a recording observer: the report with its fault
/// accounting, and the merged snapshot JSON.
fn observed(run: FluidRun<'_>) -> (DegradedFluidReport, String) {
    let outcome = FluidEngine::default()
        .measure(run, &mut Observer::recording().with_probes())
        .unwrap();
    let snapshot = outcome.snapshot.as_ref().expect("observed run").to_json();
    (outcome.degraded().clone(), snapshot)
}

/// Bit-identity of two observed runs: reports (including the float bits
/// and fault accounting) and snapshot bytes.
fn assert_same(
    got: &(DegradedFluidReport, String),
    want: &(DegradedFluidReport, String),
    what: &str,
) {
    let (g, w) = (&got.0, &want.0);
    assert_eq!(g, w, "report drifted: {what}");
    assert_eq!(g.base.lambda.to_bits(), w.base.lambda.to_bits(), "{what}");
    assert_eq!(
        g.base.lambda_typical.to_bits(),
        w.base.lambda_typical.to_bits(),
        "{what}"
    );
    assert_eq!(g.k_alive_mean.to_bits(), w.k_alive_mean.to_bits(), "{what}");
    assert_eq!(got.1, want.1, "snapshot drifted: {what}");
}

/// The fault settings every comparison runs under.
fn fault_cases() -> [Option<OutagePolicy>; 3] {
    [
        None,
        Some(OutagePolicy::RadioOff),
        Some(OutagePolicy::OccupySpectrum),
    ]
}

fn with_faults<'a>(
    run: FluidRun<'a>,
    schedule: &'a FaultSchedule,
    policy: Option<OutagePolicy>,
) -> FluidRun<'a> {
    match policy {
        Some(policy) => run.faults(schedule, policy),
        None => run,
    }
}

#[test]
fn counter_runs_bit_identical_across_thread_counts() {
    let slots = 200;
    let (net, plan_b, plan_a) = hybrid_setup(200, 16, 2);
    let schedule = faulty_schedule();
    let plans: [(&str, FluidPlan<'_>); 2] = [("A", (&plan_a).into()), ("B", (&plan_b).into())];
    for (scheme, plan) in plans {
        for policy in fault_cases() {
            let counter = || {
                with_faults(
                    FluidRun::counter(&net, plan, slots, SLOT_SEED),
                    &schedule,
                    policy,
                )
            };
            let reference = observed(counter());
            for threads in THREADS {
                let pool = WorkerPool::new(threads);
                let what = format!("scheme {scheme} at {threads} threads ({policy:?})");
                assert_same(&observed(counter().pool(&pool)), &reference, &what);
            }
        }
    }
}

/// Streamed runs never materialize the full snapshot, yet must reproduce
/// the materialized counter run bit for bit — reports *and* metrics
/// snapshots — for both schemes, fault-free at several chunk sizes
/// (smaller than, equal to and larger than the node count) and under both
/// outage policies.
#[test]
fn streamed_bit_identical_to_counter() {
    let slots = 150;
    let (net, plan_b, plan_a) = hybrid_setup(200, 16, 2);
    let schedule = faulty_schedule();
    let plans: [(&str, FluidPlan<'_>); 2] = [("A", (&plan_a).into()), ("B", (&plan_b).into())];
    for (scheme, plan) in plans {
        for policy in fault_cases() {
            let reference = observed(with_faults(
                FluidRun::counter(&net, plan, slots, SLOT_SEED),
                &schedule,
                policy,
            ));
            let chunks: &[usize] = if policy.is_none() {
                &[1, 37, 216, 4096]
            } else {
                &[64]
            };
            for &chunk in chunks {
                let streamed = FluidRun::streamed(&net, plan, slots, SLOT_SEED, chunk);
                let what = format!("scheme {scheme} at chunk {chunk} ({policy:?})");
                assert_same(
                    &observed(with_faults(streamed, &schedule, policy)),
                    &reference,
                    &what,
                );
            }
        }
    }
}

/// An empty fault schedule takes the fault-free path, sharded or streamed.
#[test]
fn empty_schedule_matches_fault_free() {
    let slots = 150;
    let (net, plan, _) = hybrid_setup(200, 16, 2);
    let empty = FaultSchedule::empty();
    let pool = WorkerPool::new(3);
    let plain = observed(FluidRun::counter(&net, &plan, slots, SLOT_SEED).pool(&pool));
    let faulted = observed(
        FluidRun::counter(&net, &plan, slots, SLOT_SEED)
            .pool(&pool)
            .faults(&empty, OutagePolicy::RadioOff),
    );
    assert_same(&faulted, &plain, "empty schedule on the pool");
    let streamed = observed(
        FluidRun::streamed(&net, &plan, slots, SLOT_SEED, 50)
            .faults(&empty, OutagePolicy::RadioOff),
    );
    assert_same(&streamed, &plain, "empty schedule streamed");
    assert_eq!(faulted.0.k_alive_mean, 16.0);
    assert_eq!(faulted.0.outage_slots, 0);
    assert_eq!(faulted.0.tally.scripted_total(), 0);
}

/// Chunk size zero is a parameter error, not a hang.
#[test]
fn streamed_rejects_zero_chunk() {
    let (net, _, plan) = hybrid_setup(50, 4, 2);
    let err = FluidEngine::default()
        .measure_scheme_a_streamed(&net, &plan, 10, SLOT_SEED, 0)
        .unwrap_err();
    assert!(err.to_string().contains("chunk"), "{err}");
}

#[test]
fn counter_run_rejects_history_dependent_mobility() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let config = PopulationConfig::builder(120)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::TetheredWalk { step_frac: 0.1 })
        .build();
    let pop = Population::generate(&config, &mut rng);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(120, &mut rng);
    let plan = SchemeAPlan::build(&homes, &traffic, (120f64).powf(0.25));
    let net = HybridNetwork::ad_hoc(pop);
    let err = FluidEngine::default()
        .measure(
            FluidRun::counter(&net, &plan, 50, SLOT_SEED),
            &mut Observer::noop(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("counter"), "{err}");
}
