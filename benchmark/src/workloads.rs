//! The four workloads on the plain path: probes off, result cache cold
//! (or, for `sweep_cached`, a fresh directory per pass), no checkpoint,
//! tracing off. Each workload splits into a set-up step, which `main`
//! times several times, and a timed task, which checks its own outputs.

use crate::adapter::{self, MobilityRegime};
use crate::stats::Digest;
use hycap::{ModelExponents, Scenario};
use hycap_mobility::MobilityKind;
use hycap_routing::{SchemeAPlan, SchemeBPlan};
use hycap_sim::{FlowWorkload, FluidEngine, HybridNetwork, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Fourth root of the `scale_1e5` point: `n = 18⁴ = 104 976`.
pub const SCALE_M: usize = 18;
/// Streaming chunk of the `scale` ladder (64 Ki points).
pub const SCALE_CHUNK: usize = 65_536;
/// Slots per scheme in one `scale_1e5` task.
pub const SCALE_SLOTS: usize = 20;
/// `flows_servable` network size, arrival rate (per pair per slot) and
/// horizon.
pub const FLOWS_N: usize = 1296;
pub const FLOWS_RATE: f64 = 5e-5;
pub const FLOWS_HORIZON: usize = 8000;
/// `sweep_cached` ladder and slots.
pub const SWEEP_NS: [usize; 5] = [1296, 2401, 4096, 6561, 10000];
pub const SWEEP_SLOTS: usize = 600;
/// Domain separator between the scenario seed and the demand-pacing slot
/// stream of `Scenario::measure_flows`.
pub const FLOW_PACING_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The quick-scale `n` ladders `experiments::run_table1` sweeps, in
/// Table I row order: fourth powers for the strong rows (integral
/// `f = n^¼`), the generic geometric ladder for the `M = ½` row, and fifth
/// powers for the clustered `M = 0.2` rows. The measured rows must come
/// back on exactly these.
pub const TABLE1_LADDERS: [&[usize]; 5] = [
    &[256, 625, 1296, 2401, 4096],
    &[256, 625, 1296, 2401, 4096],
    &[200, 400, 800, 1600, 3200],
    &[243, 1024, 3125],
    &[243, 1024, 3125],
];

/// Strong mobility with BSs: `α = ¼, M = 1, R = 0, K = ½, φ = 0`.
pub fn strong_with_bs() -> ModelExponents {
    ModelExponents::new(0.25, 1.0, 0.0, 0.5, 0.0).expect("valid Table I exponents")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Quick,
    Scale1e5,
    FlowsServable,
    SweepCached,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table1Quick,
        Workload::Scale1e5,
        Workload::FlowsServable,
        Workload::SweepCached,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Quick => "table1_quick",
            Workload::Scale1e5 => "scale_1e5",
            Workload::FlowsServable => "flows_servable",
            Workload::SweepCached => "sweep_cached",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many times set-up is repeated to take its median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Scale1e5 => 5,
            Workload::Table1Quick => 11,
            Workload::FlowsServable => 101,
            Workload::SweepCached => 21,
        }
    }

    /// What the timed task switches on; a configuration difference shows
    /// here and is never booked as a speed-up.
    pub fn record(self, threads: usize) -> String {
        match self {
            Workload::Table1Quick => format!(
                "engine=sequential-rng fluid (scheme A/B/B-clusters) + analytic (scheme C, clustered multihop); \
                 scale=quick; probes=off; schedule_memo=engine default (no fluid run here has static positions); \
                 threads={threads} (pool fan-out per ladder point); chunk=n/a; cache=none; checkpoint=none"
            ),
            Workload::Scale1e5 => format!(
                "engine=streamed fluid scheme A + B (n={}, k={}, f={}, 2x2 B split); probes=off; \
                 schedule_memo=n/a (mobile); threads=1; chunk={SCALE_CHUNK}; slots={SCALE_SLOTS} per scheme; \
                 cache=none; checkpoint=none",
                SCALE_M.pow(4),
                SCALE_M.pow(2),
                SCALE_M
            ),
            Workload::FlowsServable => format!(
                "engine=event-queue flows, demand pacing (skip=on, active_set=on), scheme A + B; \
                 n={FLOWS_N}; poisson {FLOWS_RATE} per pair per slot, 1-packet flows, window 8; \
                 horizon={FLOWS_HORIZON}; probes=off; schedule_memo=n/a; threads=1; cache=none; checkpoint=none"
            ),
            Workload::SweepCached => format!(
                "engine=slot-sharded counter fluid (measure_par) scheme A + B; n={SWEEP_NS:?}; \
                 slots={SWEEP_SLOTS}; probes=off; schedule_memo=n/a (mobile); threads={threads}; \
                 cache=cold pass into a fresh directory, then warm pass; checkpoint=none"
            ),
        }
    }
}

/// What one timed task produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host seconds of the timed section.
    pub wall_s: f64,
    /// The bits of every λ and flow statistic, in output order.
    pub values: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, human-readable.
    pub problems: Vec<String>,
    /// Σ n × simulated slots (from the workload spec).
    pub node_slots: f64,
    /// Engine events: queue events drained by the flow engine; on the
    /// fluid engines, which have no queue, one slot boundary per
    /// simulated slot of every measurement.
    pub events: f64,
    /// Largest |fitted − theory| exponent, where the workload fits.
    pub fit_err_max: Option<f64>,
}

impl Outcome {
    /// Digest over [`Outcome::values`].
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for &v in &self.values {
            d.u64(v);
        }
        d.value()
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }
}

fn lambda_ok(l: f64) -> bool {
    l.is_finite() && l >= 0.0
}

/// A workload after set-up: the inputs the timed task needs.
pub enum Prepared {
    Table1 {
        pool: WorkerPool,
        seed: u64,
        /// Fluid measurements per rep of each row (0 for analytic rows).
        fluid_runs: [usize; 5],
    },
    Scale(Box<ScaleInputs>),
    Flows {
        scenario: Scenario,
        workload: FlowWorkload,
        /// Flows the workload's arrival process generates within the
        /// horizon; both paths must start exactly these.
        arrivals: u64,
    },
    Sweep {
        pool: WorkerPool,
        scenarios: Vec<Scenario>,
        work_dir: PathBuf,
    },
}

/// The `scale_1e5` network and plans, built up front.
pub struct ScaleInputs {
    pub net: HybridNetwork,
    pub plan_a: SchemeAPlan,
    pub plan_b: SchemeBPlan,
    pub seed: u64,
    pub engine: FluidEngine,
}

/// Per-point seed convention shared with the Table I experiments and `scale`.
pub fn point_seed(seed: u64, n: usize) -> u64 {
    seed.wrapping_add((n as u64) << 8)
        .wrapping_mul(adapter::SEED_MIX)
}

/// Builds the `scale_1e5` inputs, calling `lap` after each layer's step
/// (population, scheme A plan, scheme B plan) so a traced run can time
/// them.
pub fn scale_inputs(seed: u64, mut lap: impl FnMut(&'static str)) -> ScaleInputs {
    let m = SCALE_M;
    let n = m.pow(4);
    let seed = point_seed(seed, n);
    let (pop, mut rng) = adapter::uniform_population(n, seed);
    let bs = adapter::regular_bs(m * m);
    let traffic = adapter::permutation(n, &mut rng);
    lap("mobility.generate_s");
    let homes = pop.home_points().points();
    let plan_a = adapter::plan_a(homes, &traffic, m as f64);
    lap("routing.plan_a_s");
    let plan_b = adapter::plan_b(homes, &traffic, &bs, 2);
    lap("routing.plan_b_s");
    ScaleInputs {
        net: adapter::hybrid(pop, bs),
        plan_a,
        plan_b,
        seed,
        engine: adapter::fluid_engine(),
    }
}

/// The `flows_servable` scenario and flow workload.
pub fn flows_inputs(seed: u64) -> (Scenario, FlowWorkload) {
    let scenario = adapter::scenario(
        strong_with_bs(),
        FLOWS_N,
        MobilityKind::IidStationary,
        true,
        Some(2),
        seed,
    );
    let workload = FlowWorkload::poisson(FLOWS_RATE, 1, FLOWS_HORIZON).with_seed(seed);
    (scenario, workload)
}

/// The `sweep_cached` scenarios, as `hycap sweep` builds them.
pub fn sweep_scenarios(seed: u64) -> Vec<Scenario> {
    SWEEP_NS
        .iter()
        .map(|&n| {
            adapter::scenario(
                strong_with_bs(),
                n,
                MobilityKind::IidStationary,
                true,
                None,
                seed,
            )
        })
        .collect()
}

impl Workload {
    /// The set-up step: everything before the first timed measurement
    /// call. Besides what the task keeps (pool, plans, scenarios), it
    /// generates every network the task will measure — population, BSs and
    /// traffic — and checks those inputs, so the cost of building them
    /// shows here as well as inside the timed calls that rebuild them.
    pub fn setup(
        self,
        seed: u64,
        threads: usize,
        work_dir: &std::path::Path,
    ) -> Result<Prepared, String> {
        Ok(match self {
            Workload::Table1Quick => {
                let mut fluid_runs = [0; 5];
                for ((row, ladder), runs) in adapter::table1_rows()
                    .into_iter()
                    .zip(TABLE1_LADDERS)
                    .zip(&mut fluid_runs)
                {
                    let (_, exps, with_bs, mobility) = row;
                    for &n in ladder {
                        let sc = adapter::scenario(exps, n, mobility, with_bs, Some(2), seed);
                        check_inputs(&sc, with_bs)?;
                        *runs = match (adapter::regime(&sc), with_bs) {
                            (Some(MobilityRegime::Strong), true) => 2,
                            (Some(MobilityRegime::Strong), false) | (None, _) => 1,
                            (Some(MobilityRegime::Weak), true) => 1,
                            _ => 0,
                        };
                    }
                }
                Prepared::Table1 {
                    pool: adapter::pool(threads),
                    seed,
                    fluid_runs,
                }
            }
            Workload::Scale1e5 => Prepared::Scale(Box::new(scale_inputs(seed, |_| {}))),
            Workload::FlowsServable => {
                let (scenario, workload) = flows_inputs(seed);
                check_inputs(&scenario, true)?;
                let arrivals = adapter::flow_arrivals(&workload, FLOWS_N);
                if arrivals == 0 {
                    return Err("flow workload generates no arrivals".into());
                }
                Prepared::Flows {
                    scenario,
                    workload,
                    arrivals,
                }
            }
            Workload::SweepCached => {
                let scenarios = sweep_scenarios(seed);
                for sc in &scenarios {
                    check_inputs(sc, true)?;
                }
                Prepared::Sweep {
                    pool: adapter::pool(threads),
                    scenarios,
                    work_dir: work_dir.to_path_buf(),
                }
            }
        })
    }
}

/// Realizes `sc` and checks what it generates: `n` mobile stations, a
/// traffic permutation over all of them, and base stations when the
/// scenario has infrastructure.
fn check_inputs(sc: &Scenario, with_bs: bool) -> Result<(), String> {
    let n = sc.n();
    let r = adapter::realize(sc);
    if r.net.n() != n || r.traffic.len() != n {
        return Err(format!(
            "n = {n}: realized {} nodes and {} traffic pairs",
            r.net.n(),
            r.traffic.len()
        ));
    }
    if with_bs && r.net.k() == 0 {
        return Err(format!("n = {n}: no base stations realized"));
    }
    Ok(())
}

impl Prepared {
    /// Runs the timed task once; `iteration` names its cache directory.
    pub fn run(&self, iteration: usize) -> Outcome {
        match self {
            Prepared::Table1 {
                pool,
                seed,
                fluid_runs,
            } => run_table1(pool, *seed, fluid_runs),
            Prepared::Scale(inputs) => run_scale(inputs),
            Prepared::Flows {
                scenario,
                workload,
                arrivals,
            } => run_flows(scenario, workload, *arrivals),
            Prepared::Sweep {
                pool,
                scenarios,
                work_dir,
            } => run_sweep(
                pool,
                scenarios,
                &work_dir.join(format!("sweep-cache-{iteration}")),
            ),
        }
    }
}

fn run_table1(pool: &WorkerPool, seed: u64, fluid_runs: &[usize; 5]) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let rows = catch_unwind(AssertUnwindSafe(|| {
        adapter::table1_rows()
            .iter()
            .map(|row| adapter::table1_row(row, seed, pool))
            .collect::<Vec<_>>()
    }));
    out.wall_s = start.elapsed().as_secs_f64();
    let Ok(rows) = rows else {
        out.attempted = 1;
        out.fail(1, "Table I run panicked".into());
        return out;
    };
    let (slots, reps) = adapter::table1_slots_reps();
    let mut fit_err: f64 = 0.0;
    for ((row, &runs), ladder) in rows.iter().zip(fluid_runs).zip(TABLE1_LADDERS) {
        out.node_slots += (runs * reps * slots * ladder.iter().sum::<usize>()) as f64;
        out.events += (runs * reps * slots * ladder.len()) as f64;
        for comp in &row.components {
            if comp.ns != ladder {
                out.problems.push(format!(
                    "{} / {}: ladder {:?}",
                    row.label, comp.name, comp.ns
                ));
            }
            let terms = comp.lambdas.len() as u64;
            out.attempted += terms;
            let bad = comp.lambdas.iter().filter(|&&l| !lambda_ok(l)).count() as u64;
            if bad > 0 {
                out.fail(
                    bad,
                    format!(
                        "{} / {}: {bad} non-finite or negative λ",
                        row.label, comp.name
                    ),
                );
            }
            out.values.extend(comp.lambdas.iter().map(|l| l.to_bits()));
            match &comp.fit {
                Some(_) => fit_err = fit_err.max(comp.slope_error().abs()),
                None => out.fail(
                    terms - bad,
                    format!("{} / {}: no fit", row.label, comp.name),
                ),
            }
        }
    }
    out.fit_err_max = Some(fit_err);
    out
}

fn run_scale(inputs: &ScaleInputs) -> Outcome {
    let mut out = Outcome {
        attempted: 2,
        ..Outcome::default()
    };
    let n = inputs.net.n();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let a = adapter::streamed_a(
            &inputs.engine,
            &inputs.net,
            &inputs.plan_a,
            SCALE_SLOTS,
            inputs.seed,
            SCALE_CHUNK,
        );
        let b = adapter::streamed_b(
            &inputs.engine,
            &inputs.net,
            &inputs.plan_b,
            SCALE_SLOTS,
            inputs.seed,
            SCALE_CHUNK,
        );
        (a, b)
    }));
    out.wall_s = start.elapsed().as_secs_f64();
    out.node_slots = (2 * n * SCALE_SLOTS) as f64;
    out.events = (2 * SCALE_SLOTS) as f64;
    let Ok((a, b)) = result else {
        out.fail(2, "streamed run panicked".into());
        return out;
    };
    for (name, r) in [("scheme A", a), ("scheme B", b)] {
        match r {
            Ok(r) => {
                if !lambda_ok(r.lambda) || !lambda_ok(r.lambda_typical) {
                    out.fail(1, format!("{name}: non-finite or negative λ"));
                }
                out.values.extend(
                    [r.lambda, r.lambda_typical, r.scheduled_pairs_per_slot].map(f64::to_bits),
                );
            }
            Err(e) => out.fail(1, format!("{name}: {e}")),
        }
    }
    out
}

fn run_flows(scenario: &Scenario, workload: &FlowWorkload, arrivals: u64) -> Outcome {
    let mut out = Outcome {
        attempted: 2,
        ..Outcome::default()
    };
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        adapter::measure_flows(scenario, workload)
    }));
    out.wall_s = start.elapsed().as_secs_f64();
    let report = match result {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            out.fail(2, format!("measure_flows: {e}"));
            return out;
        }
        Err(_) => {
            out.fail(2, "measure_flows panicked".into());
            return out;
        }
    };
    for (name, stats, trace) in [
        ("scheme A", report.flows_mobility, report.pacing_mobility),
        ("scheme B", report.flows_infra, report.pacing_infra),
    ] {
        let (Some(s), Some(t)) = (stats, trace) else {
            out.fail(1, format!("{name}: path did not run"));
            continue;
        };
        out.node_slots += (FLOWS_N * s.slots) as f64;
        out.events += s.events as f64;
        flow_values(&mut out.values, &s, &t);
        if s.flows_completed > s.flows_started {
            out.fail(
                1,
                format!(
                    "{name}: {} completed > {} started",
                    s.flows_completed, s.flows_started
                ),
            );
        } else if s.flows_completed != s.packets_delivered {
            out.fail(
                1,
                format!(
                    "{name}: single-packet flows but {} completed != {} delivered",
                    s.flows_completed, s.packets_delivered
                ),
            );
        } else if s.slots != FLOWS_HORIZON || s.flows_started != arrivals {
            out.fail(
                1,
                format!(
                    "{name}: {} slots, {} flows started of {arrivals} arrivals",
                    s.slots, s.flows_started
                ),
            );
        }
    }
    out
}

/// Appends every field of one flow path's statistics and pacing trace.
pub fn flow_values(v: &mut Vec<u64>, s: &hycap_sim::FlowRunStats, t: &hycap_sim::PacingTrace) {
    v.extend([
        s.flows_started,
        s.flows_completed,
        s.packets_injected,
        s.packets_delivered,
        s.backlog,
        s.slots as u64,
        s.events,
        t.slots,
        t.idle_slots,
        t.fast_forwarded,
        s.mean_fct.to_bits(),
        opt_bits(s.fct_p50),
        opt_bits(s.fct_p99),
        s.mean_delay.to_bits(),
    ]);
}

/// `None` as a NaN pattern no engine produces.
fn opt_bits(v: Option<f64>) -> u64 {
    v.map_or(u64::MAX, f64::to_bits)
}

/// Appends every λ of a scenario report.
pub fn report_values(v: &mut Vec<u64>, r: &hycap::ScenarioReport) {
    v.extend([
        opt_bits(r.lambda_mobility),
        opt_bits(r.lambda_infra),
        opt_bits(r.lambda_mobility_typical),
        opt_bits(r.lambda_infra_typical),
        r.lambda.to_bits(),
    ]);
}

/// `hycap sweep`'s fit input: the larger typical term per point.
pub fn sweep_typical(r: &hycap::ScenarioReport) -> f64 {
    r.lambda_mobility_typical
        .unwrap_or(0.0)
        .max(r.lambda_infra_typical.unwrap_or(0.0))
}

fn run_sweep(pool: &WorkerPool, scenarios: &[Scenario], dir: &std::path::Path) -> Outcome {
    let points = scenarios.len() as u64;
    let mut out = Outcome {
        attempted: 2 * points,
        ..Outcome::default()
    };
    let _ = std::fs::remove_dir_all(dir);
    let cache = match adapter::open_cache(dir) {
        Ok(c) => c,
        Err(e) => {
            out.fail(2 * points, format!("open cache: {e}"));
            return out;
        }
    };
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let cold: Vec<_> = scenarios
            .iter()
            .map(|sc| adapter::measure_par_cached(sc, SWEEP_SLOTS, pool, &cache))
            .collect();
        let hits_before = cache.stats().hits;
        let warm: Vec<_> = scenarios
            .iter()
            .map(|sc| adapter::measure_par_cached(sc, SWEEP_SLOTS, pool, &cache))
            .collect();
        (cold, warm, cache.stats().hits - hits_before)
    }));
    out.wall_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    let Ok((cold, warm, warm_hits)) = result else {
        out.fail(2 * points, "sweep panicked".into());
        return out;
    };
    if warm_hits != points {
        out.fail(
            points - warm_hits.min(points),
            format!("warm pass hit {warm_hits}/{points}"),
        );
    }
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut theory = None;
    for ((sc, c), w) in scenarios.iter().zip(cold).zip(warm) {
        let (c, w) = match (c, w) {
            (Ok(c), Ok(w)) => (c, w),
            (c, w) => {
                let errs = [c.err(), w.err()];
                for e in errs.into_iter().flatten() {
                    out.fail(1, format!("n = {}: {e}", sc.n()));
                }
                continue;
            }
        };
        if !lambda_ok(c.lambda) {
            out.fail(1, format!("n = {}: non-finite or negative λ", sc.n()));
        }
        let (mut vc, mut vw) = (Vec::new(), Vec::new());
        report_values(&mut vc, &c);
        report_values(&mut vw, &w);
        if vc != vw {
            out.fail(1, format!("n = {}: warm report differs from cold", sc.n()));
        }
        out.values.extend(vc);
        out.node_slots += (2 * sc.n() * SWEEP_SLOTS) as f64;
        out.events += (2 * SWEEP_SLOTS) as f64;
        xs.push(sc.n() as f64);
        ys.push(sweep_typical(&c));
        theory = c.theory.map(|t| t.poly);
    }
    match (adapter::fit_loglog(&xs, &ys), theory) {
        (Ok(fit), Some(t)) if xs.len() == scenarios.len() => {
            out.fit_err_max = Some((fit.slope - t).abs());
        }
        _ => out.problems.push("sweep: no exponent fit".into()),
    }
    out
}
