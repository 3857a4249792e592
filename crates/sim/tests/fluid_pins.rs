//! Bit-pins of the fluid engine's run matrix.
//!
//! `fixtures/fluid_pins.txt` records, for every combination of scheme
//! {A, B} × position source {sequential RNG walk, counter stream inline,
//! counter stream on a 3-thread pool, streamed with chunk 7} × faults
//! {none, scripted crash/repair + Bernoulli outages under `RadioOff`, the
//! same under `OccupySpectrum`}, plus static-mobility rows (where the
//! schedule memo engages), empty-schedule rows and slot-capped budget rows:
//!
//! * the `to_bits` of `lambda`, `lambda_typical`,
//!   `scheduled_pairs_per_slot` and `k_alive_mean`;
//! * the bottleneck, the outage/flow accounting and the fault tally;
//! * an FNV-1a digest of the observed `hycap-metrics/1` snapshot JSON.
//!
//! Any refactor of the slot loop, the fan-out or the finalizers must
//! reproduce every line; a deliberate seed break re-records the fixture
//! and says so. Every row also checks that the unobserved run returns the
//! same report as the observed one.

use hycap_infra::BaseStations;
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::{Observer, Snapshot};
use hycap_routing::{SchemeAPlan, SchemeBPlan, TrafficMatrix};
use hycap_sim::{
    Budgeted, DegradedFluidReport, FaultSchedule, FluidEngine, FluidOutcome, FluidPlan, FluidRun,
    HybridNetwork, OutagePolicy, RunBudget, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = include_str!("fixtures/fluid_pins.txt");
const N: usize = 200;
const K: usize = 16;
const SLOTS: usize = 40;
const SLOT_SEED: u64 = 0xF1_0D;
const CHUNK: usize = 7;
const THREADS: usize = 3;

#[derive(Clone, Copy, Debug)]
enum Scheme {
    A,
    B,
}

#[derive(Clone, Copy, Debug)]
enum Source {
    Walk,
    Counter,
    Pool,
    Streamed,
}

#[derive(Clone, Copy, Debug)]
enum Faults {
    None,
    Empty,
    Scripted(OutagePolicy),
}

struct Setup {
    net: HybridNetwork,
    plan_a: SchemeAPlan,
    plan_b: SchemeBPlan,
    rng: StdRng,
}

fn setup(mobility: MobilityKind) -> Setup {
    let mut rng = StdRng::seed_from_u64(0x9_1205);
    let config = PopulationConfig::builder(N)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(mobility)
        .build();
    let pop = Population::generate(&config, &mut rng);
    let bs = BaseStations::generate_regular(K, 1.0);
    let homes = pop.home_points().points().to_vec();
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    let plan_a = SchemeAPlan::build(&homes, &traffic, (N as f64).powf(0.25));
    let plan_b = SchemeBPlan::build(&homes, &traffic, &bs, 2);
    Setup {
        net: HybridNetwork::with_infrastructure(pop, bs),
        plan_a,
        plan_b,
        rng,
    }
}

/// Scripted crashes (one whole 2×2 BS group among them) and a repair,
/// overlapping per-slot Bernoulli outages.
fn schedule() -> FaultSchedule {
    FaultSchedule::empty()
        .crash_bs(3, 0)
        .crash_bs(11, 5)
        .crash_bs(12, 1)
        .crash_bs(13, 4)
        .crash_bs(20, 9)
        .repair_bs(30, 9)
        .with_bernoulli_bs_outage(0.2, 9)
}

/// FNV-1a over the snapshot's JSON bytes.
fn digest(snap: &Snapshot) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in snap.to_json().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn render(label: &str, r: &DegradedFluidReport, snap: &Snapshot) -> String {
    format!(
        "{label} | {:016x} {:016x} {:016x} {:016x} | {:?} | slots {} out {} infra {} fb {} dead {} | {:?} | {}",
        r.base.lambda.to_bits(),
        r.base.lambda_typical.to_bits(),
        r.base.scheduled_pairs_per_slot.to_bits(),
        r.k_alive_mean.to_bits(),
        r.base.bottleneck,
        r.base.slots,
        r.outage_slots,
        r.infra_flows,
        r.fallback_flows,
        r.dead_groups,
        r.tally,
        digest(snap),
    )
}

/// One matrix cell: a run of `scheme` from `source` under `faults`, with
/// an optional budget.
fn measure(
    mobility: MobilityKind,
    scheme: Scheme,
    source: Source,
    faults: Faults,
    budget: Option<RunBudget>,
    observed: bool,
) -> FluidOutcome {
    let mut s = setup(mobility);
    let pool = WorkerPool::new(THREADS);
    let schedule = match faults {
        Faults::Scripted(_) => schedule(),
        _ => FaultSchedule::empty(),
    };
    let plan: FluidPlan<'_> = match scheme {
        Scheme::A => (&s.plan_a).into(),
        Scheme::B => (&s.plan_b).into(),
    };
    let e = FluidEngine::default();
    let finish = |run: FluidRun<'_, StdRng>| {
        let run = match faults {
            Faults::None => run,
            Faults::Empty => run.faults(&schedule, OutagePolicy::RadioOff),
            Faults::Scripted(policy) => run.faults(&schedule, policy),
        };
        let run = match budget {
            Some(b) => run.budget(b),
            None => run,
        };
        let mut obs = Observer::recording().with_probes();
        let outcome = if observed {
            e.measure(run, &mut obs)
        } else {
            e.measure(run, &mut Observer::noop())
        }
        .unwrap();
        match source {
            // A walk records into the caller's observer.
            Source::Walk if observed => FluidOutcome {
                snapshot: Some(obs.snapshot()),
                ..outcome
            },
            _ => outcome,
        }
    };
    match source {
        Source::Walk => finish(FluidRun::walk(&mut s.net, plan, SLOTS, &mut s.rng)),
        Source::Counter => finish(FluidRun::counter(&s.net, plan, SLOTS, SLOT_SEED)),
        Source::Pool => finish(FluidRun::counter(&s.net, plan, SLOTS, SLOT_SEED).pool(&pool)),
        Source::Streamed => finish(FluidRun::streamed(&s.net, plan, SLOTS, SLOT_SEED, CHUNK)),
    }
}

/// One matrix cell, observed and unobserved: the pinned line, after
/// checking that observation did not change the report.
fn cell(
    mobility: MobilityKind,
    scheme: Scheme,
    source: Source,
    faults: Faults,
    budget: Option<RunBudget>,
) -> String {
    let observed = measure(mobility, scheme, source, faults, budget, true);
    let plain = measure(mobility, scheme, source, faults, budget, false);
    let label = match budget {
        None => format!("{mobility:?} {scheme:?} {source:?} {faults:?}"),
        Some(_) => {
            let Budgeted::Interrupted {
                completed_slots,
                requested_slots,
                exceeded,
                ..
            } = observed.report
            else {
                panic!("a 10-slot cap on a {SLOTS}-slot run must interrupt");
            };
            format!("budget {scheme:?} cap 10: {completed_slots}/{requested_slots} {exceeded:?}")
        }
    };
    assert_eq!(
        observed.report, plain.report,
        "{label}: observation changed the report"
    );
    assert!(plain.snapshot.is_none(), "{label}");
    let snap = observed.snapshot.as_ref().expect("observed run");
    render(&label, observed.degraded(), snap)
}

fn lines() -> Vec<String> {
    let mut out = Vec::new();
    let iid = MobilityKind::IidStationary;
    let faults = [
        Faults::None,
        Faults::Scripted(OutagePolicy::RadioOff),
        Faults::Scripted(OutagePolicy::OccupySpectrum),
    ];
    for scheme in [Scheme::A, Scheme::B] {
        for source in [
            Source::Walk,
            Source::Counter,
            Source::Pool,
            Source::Streamed,
        ] {
            for f in faults {
                out.push(cell(iid, scheme, source, f, None));
            }
        }
        for source in [Source::Walk, Source::Counter, Source::Pool] {
            out.push(cell(iid, scheme, source, Faults::Empty, None));
        }
        for source in [Source::Walk, Source::Counter, Source::Pool] {
            for f in [Faults::None, Faults::Scripted(OutagePolicy::RadioOff)] {
                out.push(cell(MobilityKind::Static, scheme, source, f, None));
            }
        }
    }
    for scheme in [Scheme::A, Scheme::B] {
        let cap = RunBudget::unlimited().with_max_slots(10);
        out.push(cell(iid, scheme, Source::Counter, Faults::None, Some(cap)));
    }
    out
}

#[test]
fn fluid_run_matrix_matches_pinned_bits() {
    let got = lines();
    let want: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mismatches: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g.as_str() != **w)
        .map(|(g, w)| format!("  want {w}\n   got {g}"))
        .collect();
    assert!(
        got.len() == want.len() && mismatches.is_empty(),
        "fluid run matrix drifted from the pinned bits ({} rows, {} pinned, {} differ):\n{}\nfull output:\n{}",
        got.len(),
        want.len(),
        mismatches.len(),
        mismatches.join("\n"),
        got.join("\n")
    );
}
