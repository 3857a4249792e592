//! Bit-pins of the flow engine's run matrix.
//!
//! `fixtures/flow_pins.txt` records, for every combination of route
//! {direct chains, scheme A relays, scheme B, scheme B under scripted
//! crashes/repairs, wire faults and Bernoulli outages with `RadioOff`, the
//! same under `OccupySpectrum`, scheme B with an empty fault schedule,
//! scheme C} × pacing {legacy, demand with each of the four `(skip,
//! active_set)` combinations} × mobility {i.i.d. stationary, static}, plus
//! clock origins past 2³² and run-budget cuts:
//!
//! * every `FlowRunStats` field (f64 fields via `to_bits`);
//! * the `PacingTrace`;
//! * scheme B's degradation accounting and fault tally (a fault-free
//!   scheme-B run reports every BS alive and every packet delivered over the
//!   infrastructure);
//! * an FNV-1a digest of the observed `hycap-metrics/1` snapshot JSON with
//!   the span lines stripped (span names are not part of the pin).
//!
//! A budget-cut row pins the error text instead of the statistics, plus
//! the partial snapshot's digest.
//!
//! Any refactor of the event loop must reproduce every line; a deliberate
//! seed break re-records the fixture and says so. Every row also checks
//! that the unobserved run returns the same result as the observed one.

use hycap_geom::{Point, Torus};
use hycap_infra::{BaseStations, CellularLayout};
use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
use hycap_obs::{MemorySink, MetricsSink, Observer};
use hycap_routing::{SchemeAPlan, SchemeBPlan, SchemeCPlan, TrafficMatrix};
use hycap_sim::{
    FaultSchedule, FlowOutcome, FlowRun, FlowSizes, FlowWorkload, HybridNetwork, OutagePolicy,
    Pacing, PacketEngine, RunBudget,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = include_str!("fixtures/flow_pins.txt");
const N: usize = 40;
const K: usize = 16;
const HORIZON: usize = 1000;
const PACING_SEED: u64 = 0xF1_0E;
const BIG_BASE_SLOT: u64 = (1 << 32) + 7;

#[derive(Clone, Copy, Debug)]
enum Route {
    Chains,
    SchemeA,
    SchemeB,
    SchemeBFaulted(OutagePolicy),
    SchemeBEmpty,
    SchemeC,
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

struct Setup {
    net: HybridNetwork,
    traffic: TrafficMatrix,
    plan_a: SchemeAPlan,
    plan_b: SchemeBPlan,
    rng: StdRng,
}

fn setup(mobility: MobilityKind) -> Setup {
    let mut rng = StdRng::seed_from_u64(0xF_1005);
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

fn workload() -> FlowWorkload {
    FlowWorkload::poisson(0.0003, 2, HORIZON)
        .with_sizes(FlowSizes::ElephantMice {
            mice: 1,
            elephants: 6,
            elephant_frac: 0.2,
        })
        .with_window(2)
        .with_seed(0x5EED)
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
type RunResult = Result<FlowOutcome, String>;

/// One run of `route` on a fresh setup under `engine`, recording into `obs`.
fn run<S: MetricsSink>(
    engine: &PacketEngine,
    mobility: MobilityKind,
    route: Route,
    obs: &mut Observer<S>,
) -> RunResult {
    let mut s = setup(mobility);
    let w = workload();
    let (plan_c, layout, traffic_c) = cellular();
    let chains: Vec<Vec<usize>> = s.traffic.pairs().map(|(a, b)| vec![a, b]).collect();
    let faults = schedule();
    let empty = FaultSchedule::empty();
    let run = match route {
        Route::Chains => FlowRun::chains(&mut s.net, &chains, &w, &mut s.rng),
        Route::SchemeA => FlowRun::scheme_a(&mut s.net, &s.plan_a, &s.traffic, &w, &mut s.rng),
        Route::SchemeB => FlowRun::scheme_b(&mut s.net, &s.plan_b, &w, &mut s.rng),
        Route::SchemeBFaulted(policy) => {
            FlowRun::scheme_b(&mut s.net, &s.plan_b, &w, &mut s.rng).faults(&faults, policy)
        }
        Route::SchemeBEmpty => FlowRun::scheme_b(&mut s.net, &s.plan_b, &w, &mut s.rng)
            .faults(&empty, OutagePolicy::RadioOff),
        Route::SchemeC => FlowRun::scheme_c(&plan_c, &layout, &traffic_c, 1.0, &w),
    };
    engine.run_flows(run, obs).map_err(|e| e.to_string())
}

/// FNV-1a over the snapshot's JSON bytes, span lines excluded.
fn digest(obs: &Observer<MemorySink>) -> String {
    let json = obs.snapshot().to_json();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in json.lines().filter(|l| !l.contains("\"total_micros\"")) {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn opt_bits(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{:016x}", v.to_bits()))
}

fn render(label: &str, result: &RunResult, digest: &str) -> String {
    let body = match result {
        Err(e) => format!("error: {e}"),
        Ok(FlowOutcome {
            stats: s,
            trace: t,
            degraded: d,
        }) => {
            let stats = format!(
                "started {} completed {} injected {} delivered {} backlog {} fct {:016x} p50 {} p99 {} delay {:016x} slots {} events {}",
                s.flows_started,
                s.flows_completed,
                s.packets_injected,
                s.packets_delivered,
                s.backlog,
                s.mean_fct.to_bits(),
                opt_bits(s.fct_p50),
                opt_bits(s.fct_p99),
                s.mean_delay.to_bits(),
                s.slots,
                s.events,
            );
            let trace = format!(
                "trace {} idle {} ff {}",
                t.slots, t.idle_slots, t.fast_forwarded
            );
            let degraded = match d {
                None => "-".to_string(),
                Some(d) => {
                    assert_eq!(
                        d.infra_delivered + d.fallback_delivered,
                        s.packets_delivered,
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
            };
            format!("{stats} | {trace} | {degraded}")
        }
    };
    format!("{label} | {body} | {digest}")
}

/// One matrix cell, observed and unobserved: the pinned line, after
/// checking that observation did not change the result.
fn cell(label: String, engine: PacketEngine, mobility: MobilityKind, route: Route) -> String {
    let mut obs = Observer::recording().with_probes();
    let observed = run(&engine, mobility, route, &mut obs);
    let plain = run(&engine, mobility, route, &mut Observer::noop());
    assert_eq!(
        format!("{observed:?}"),
        format!("{plain:?}"),
        "{label}: observation changed the result"
    );
    render(&label, &observed, &digest(&obs))
}

const ROUTES: [Route; 7] = [
    Route::Chains,
    Route::SchemeA,
    Route::SchemeB,
    Route::SchemeBFaulted(OutagePolicy::RadioOff),
    Route::SchemeBFaulted(OutagePolicy::OccupySpectrum),
    Route::SchemeBEmpty,
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
        Pace::Demand {
            skip: true,
            active_set: true,
        },
    ];
    for mobility in [MobilityKind::IidStationary, MobilityKind::Static] {
        for route in ROUTES {
            for pace in paces {
                let engine = PacketEngine::default().with_pacing(pace.pacing());
                let label = format!("{mobility:?} {route:?} {pace:?}");
                out.push(cell(label, engine, mobility, route));
            }
        }
    }
    let fast = Pace::Demand {
        skip: true,
        active_set: true,
    };
    for route in [
        Route::SchemeA,
        Route::SchemeBFaulted(OutagePolicy::RadioOff),
    ] {
        let engine = PacketEngine::default()
            .with_pacing(fast.pacing())
            .with_base_slot(BIG_BASE_SLOT);
        let label = format!("base {BIG_BASE_SLOT} {route:?} {fast:?}");
        out.push(cell(label, engine, MobilityKind::IidStationary, route));
    }
    let cap = RunBudget::unlimited().with_max_slots(600);
    for route in ROUTES {
        let engine = PacketEngine::default()
            .with_pacing(fast.pacing())
            .with_run_budget(cap);
        let label = format!("budget cap 600 {route:?} {fast:?}");
        out.push(cell(label, engine, MobilityKind::IidStationary, route));
    }
    out
}

#[test]
fn flow_run_matrix_matches_pinned_bits() {
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
        "flow run matrix drifted from the pinned bits ({} rows, {} pinned, {} differ):\n{}\nfull output:\n{}",
        got.len(),
        want.len(),
        mismatches.len(),
        mismatches.join("\n"),
        got.join("\n")
    );
}
