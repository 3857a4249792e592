//! Bit-pins of the packet engine's steady-state run matrix.
//!
//! `fixtures/packet_pins.txt` records, for every combination of route
//! {direct chains, chains over materialized scheme-A relays, scheme A with
//! any-member relaying, scheme B, scheme B with an empty fault schedule,
//! scheme B under scripted crashes/repairs, wire faults and Bernoulli
//! outages with `RadioOff`, the same under `OccupySpectrum`, scheme C} ×
//! pacing {legacy, demand with each of the four `(skip, active_set)`
//! combinations} × mobility {i.i.d. stationary, static}, plus clock origins
//! past 2³², λ = 0, λ = 1.5 (some slots inject twice) and slot-cap budget
//! cuts:
//!
//! * every `PacketStats` field (f64 fields via `to_bits`);
//! * scheme B's degradation accounting and fault tally on the faulted and
//!   empty-schedule rows;
//! * an FNV-1a digest of the observed `hycap-metrics/1` snapshot JSON with
//!   the span section stripped (span names and timings are not part of the
//!   pin). Scheme C rows pin the statistics only (`-`).
//!
//! A budget-cut row pins the error text instead of the statistics, plus
//! the partial snapshot's digest.
//!
//! Any refactor of the steady-state runs must reproduce every line; a
//! deliberate seed break re-records the fixture and says so. Every row also
//! checks that the unobserved run returns the same result as the observed
//! one.

use hycap_geom::{Point, Torus};
use hycap_infra::{BaseStations, CellularLayout};
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::{MemorySink, MetricsSink, Observer};
use hycap_routing::{SchemeAPlan, SchemeBPlan, SchemeCPlan, TrafficMatrix};
use hycap_sim::{
    FaultSchedule, FlowOutcome, FlowRun, HybridNetwork, OutagePolicy, Pacing, PacketEngine,
    PacketStats, RunBudget, Steady,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = include_str!("fixtures/packet_pins.txt");
const N: usize = 40;
const K: usize = 16;
const SLOTS: usize = 1000;
const LAMBDA: f64 = 0.004;
const PACING_SEED: u64 = 0x57_EAD1;
const BIG_BASE_SLOT: u64 = (1 << 32) + 7;

#[derive(Clone, Copy, Debug)]
enum Route {
    Chains,
    Relays,
    SchemeA,
    SchemeB,
    SchemeBEmpty,
    SchemeBFaulted(OutagePolicy),
    SchemeC,
}

impl Route {
    /// Whether the row pins scheme B's degradation accounting.
    fn degrades(self) -> bool {
        matches!(self, Route::SchemeBEmpty | Route::SchemeBFaulted(_))
    }
}

#[derive(Clone, Copy, Debug)]
enum Pace {
    Legacy,
    Demand { skip: bool, active_set: bool },
}

impl Pace {
    fn pacing(self) -> Pacing {
        match self {
            Pace::Legacy => Pacing::Legacy,
            Pace::Demand { skip, active_set } => Pacing::Demand {
                seed: PACING_SEED,
                skip,
                active_set,
            },
        }
    }
}

const FAST: Pace = Pace::Demand {
    skip: true,
    active_set: true,
};

struct Setup {
    net: HybridNetwork,
    traffic: TrafficMatrix,
    plan_a: SchemeAPlan,
    plan_b: SchemeBPlan,
    rng: StdRng,
}

fn setup(mobility: MobilityKind) -> Setup {
    let mut rng = StdRng::seed_from_u64(0x9_AC4E);
    let config = PopulationConfig::builder(N)
        .alpha(0.0)
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
        traffic,
        plan_a,
        plan_b,
        rng,
    }
}

/// Two clustered cells of mobile stations and the TDMA layout over them.
fn cellular() -> (SchemeCPlan, CellularLayout, TrafficMatrix) {
    let mut rng = StdRng::seed_from_u64(0xC_E11);
    let centers = vec![Point::new(0.25, 0.25), Point::new(0.75, 0.75)];
    let radius = 0.1;
    let mut positions = Vec::with_capacity(N);
    let mut cluster_of = Vec::with_capacity(N);
    for i in 0..N {
        let c = i % 2;
        cluster_of.push(c);
        positions.push(Torus::UNIT.sample_in_disk(&mut rng, centers[c], radius * 0.9));
    }
    let layout = CellularLayout::build(&centers, radius, 20);
    let traffic = TrafficMatrix::permutation(N, &mut rng);
    let plan = SchemeCPlan::build(&positions, &cluster_of, &layout, &traffic);
    (plan, layout, traffic)
}

/// Scripted crashes (one whole 2×2 BS group among them), a repair, a
/// degraded and a cut wire, overlapping per-slot Bernoulli outages.
fn schedule() -> FaultSchedule {
    FaultSchedule::empty()
        .crash_bs(3, 0)
        .degrade_wire(10, 2, 10, 0.5)
        .cut_wire(15, 3, 12)
        .crash_bs(30, 5)
        .crash_bs(31, 1)
        .crash_bs(32, 4)
        .crash_bs(50, 9)
        .repair_bs(90, 9)
        .with_bernoulli_bs_outage(0.1, 9)
}

/// What a run produced, or the error of a cut run.
type RunResult = Result<FlowOutcome<PacketStats>, String>;

/// One run of `route` at rate `lambda` over `slots` slots on a fresh setup
/// under `engine`, recording into `obs`.
fn run<S: MetricsSink>(
    engine: &PacketEngine,
    mobility: MobilityKind,
    route: Route,
    lambda: f64,
    slots: usize,
    obs: &mut Observer<S>,
) -> RunResult {
    let mut s = setup(mobility);
    let (plan_c, layout, traffic_c) = cellular();
    let direct: Vec<Vec<usize>> = s.traffic.pairs().map(|(a, b)| vec![a, b]).collect();
    let relays = match route {
        Route::Relays => s.plan_a.materialize_relays(&s.traffic, &mut s.rng),
        _ => Vec::new(),
    };
    let (faults, empty) = (schedule(), FaultSchedule::empty());
    let load = Steady::new(lambda, slots);
    let (net, rng) = (&mut s.net, &mut s.rng);
    let run = match route {
        Route::Chains => FlowRun::chains(net, &direct, &load, rng),
        Route::Relays => FlowRun::chains(net, &relays, &load, rng),
        Route::SchemeA => FlowRun::scheme_a(net, &s.plan_a, &s.traffic, &load, rng),
        Route::SchemeB => FlowRun::scheme_b(net, &s.plan_b, &load, rng),
        Route::SchemeBEmpty => {
            FlowRun::scheme_b(net, &s.plan_b, &load, rng).faults(&empty, OutagePolicy::RadioOff)
        }
        Route::SchemeBFaulted(policy) => {
            FlowRun::scheme_b(net, &s.plan_b, &load, rng).faults(&faults, policy)
        }
        Route::SchemeC => {
            let run = FlowRun::scheme_c(&plan_c, &layout, &traffic_c, 1.0, &load);
            return engine.run_flows(run, obs).map_err(|e| e.to_string());
        }
    };
    engine.run_flows(run, obs).map_err(|e| e.to_string())
}

/// FNV-1a over the snapshot's JSON bytes, span section excluded.
fn digest(obs: &Observer<MemorySink>) -> String {
    let json = obs.snapshot().to_json();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut in_spans = false;
    for line in json.lines() {
        if line.starts_with("  \"spans\": {") {
            in_spans = !line.ends_with("},");
            continue;
        }
        if in_spans {
            in_spans = line != "  },";
            continue;
        }
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn render(label: &str, route: Route, result: &RunResult, digest: &str) -> String {
    let body = match result {
        Err(e) => format!("error: {e}"),
        Ok(FlowOutcome {
            stats: s,
            degraded: d,
            ..
        }) => {
            let stats = format!(
                "injected {} delivered {} backlog {} throughput {:016x} delay {:016x} slots {}",
                s.injected,
                s.delivered,
                s.backlog,
                s.throughput_per_node.to_bits(),
                s.mean_delay.to_bits(),
                s.slots,
            );
            let degraded = match d {
                Some(d) if route.degrades() => {
                    assert_eq!(
                        d.infra_delivered + d.fallback_delivered,
                        s.delivered,
                        "{label}: delivery accounting differs from the stats"
                    );
                    format!(
                        "infra {} fb {} lost {} stalled {} alive {:016x} out {} | {:?}",
                        d.infra_delivered,
                        d.fallback_delivered,
                        d.lost_uplink_contacts,
                        d.backbone_stalled_slots,
                        d.k_alive_mean.to_bits(),
                        d.outage_slots,
                        d.tally,
                    )
                }
                _ => "-".to_string(),
            };
            format!("{stats} | {degraded}")
        }
    };
    format!("{label} | {body} | {digest}")
}

/// One matrix cell, observed and unobserved: the pinned line, after
/// checking that observation did not change the result.
fn cell(
    label: String,
    engine: PacketEngine,
    mobility: MobilityKind,
    route: Route,
    lambda: f64,
    slots: usize,
) -> String {
    let mut obs = Observer::recording().with_probes();
    let observed = run(&engine, mobility, route, lambda, slots, &mut obs);
    let plain = run(
        &engine,
        mobility,
        route,
        lambda,
        slots,
        &mut Observer::noop(),
    );
    assert_eq!(
        format!("{observed:?}"),
        format!("{plain:?}"),
        "{label}: observation changed the result"
    );
    assert!(obs.is_clean(), "{label}: {:?}", obs.violations());
    let digest = match route {
        Route::SchemeC => "-".to_string(),
        _ => digest(&obs),
    };
    render(&label, route, &observed, &digest)
}

const ROUTES: [Route; 8] = [
    Route::Chains,
    Route::Relays,
    Route::SchemeA,
    Route::SchemeB,
    Route::SchemeBEmpty,
    Route::SchemeBFaulted(OutagePolicy::RadioOff),
    Route::SchemeBFaulted(OutagePolicy::OccupySpectrum),
    Route::SchemeC,
];

fn lines() -> Vec<String> {
    let mut out = Vec::new();
    let paces = [
        Pace::Legacy,
        Pace::Demand {
            skip: false,
            active_set: false,
        },
        Pace::Demand {
            skip: false,
            active_set: true,
        },
        Pace::Demand {
            skip: true,
            active_set: false,
        },
        FAST,
    ];
    let iid = MobilityKind::IidStationary;
    for mobility in [iid, MobilityKind::Static] {
        for route in ROUTES {
            for pace in paces {
                let engine = PacketEngine::default().with_pacing(pace.pacing());
                let label = format!("{mobility:?} {route:?} {pace:?}");
                out.push(cell(label, engine, mobility, route, LAMBDA, SLOTS));
            }
        }
    }
    let far = [
        Route::Chains,
        Route::SchemeA,
        Route::SchemeBFaulted(OutagePolicy::RadioOff),
        Route::SchemeC,
    ];
    for route in far {
        let engine = PacketEngine::default()
            .with_pacing(FAST.pacing())
            .with_base_slot(BIG_BASE_SLOT);
        let label = format!("base {BIG_BASE_SLOT} {route:?} {FAST:?}");
        out.push(cell(label, engine, iid, route, LAMBDA, SLOTS));
    }
    for (lambda, slots) in [(0.0, SLOTS), (1.5, 200)] {
        for route in [
            Route::Chains,
            Route::SchemeA,
            Route::SchemeB,
            Route::SchemeC,
        ] {
            for pace in [Pace::Legacy, FAST] {
                let engine = PacketEngine::default().with_pacing(pace.pacing());
                let label = format!("lambda {lambda} {route:?} {pace:?}");
                out.push(cell(label, engine, iid, route, lambda, slots));
            }
        }
    }
    let cap = RunBudget::unlimited().with_max_slots(600);
    for route in [Route::Chains, Route::SchemeBFaulted(OutagePolicy::RadioOff)] {
        for pace in [Pace::Legacy, FAST] {
            let engine = PacketEngine::default()
                .with_pacing(pace.pacing())
                .with_run_budget(cap);
            let label = format!("budget cap 600 {route:?} {pace:?}");
            out.push(cell(label, engine, iid, route, LAMBDA, SLOTS));
        }
    }
    out
}

#[test]
fn packet_run_matrix_matches_pinned_bits() {
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
        "packet run matrix drifted from the pinned bits ({} rows, {} pinned, {} differ):\n{}\nfull output:\n{}",
        got.len(),
        want.len(),
        mismatches.len(),
        mismatches.join("\n"),
        got.join("\n")
    );
}
