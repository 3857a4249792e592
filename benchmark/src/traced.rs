//! The traced run: the task once untraced, then a replica of it built from
//! the layers' public functions with a timer around every call into a
//! layer. A replica whose outputs differ from the untraced run's is
//! unfaithful; its layer numbers are withheld, the end-to-end check still
//! stands. Spans live only in this file — nothing inside the program is
//! instrumented.

use crate::adapter::{self, MobilityRegime};
use crate::workloads::{self, Outcome, Prepared, Workload};
use hycap::ModelExponents;
use hycap_mobility::MobilityKind;
use hycap_sim::WorkerPool;
use hycap_wireless::SlotWorkspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("mobility.sample_ms_per_slot", "ms"),
    ("mobility.sample_passes", "passes"),
    ("geom.index_build_ms_per_slot", "ms"),
    ("wireless.sstar_ms_per_slot", "ms"),
    ("wireless.pairs_per_slot", "pairs"),
    ("sim.fluid.account_ms_per_slot", "ms"),
    ("mobility.generate_s", "s"),
    ("routing.plan_a_s", "s"),
    ("routing.plan_b_s", "s"),
    ("obs.probe_overhead_share", "ratio"),
    ("core.realize_s", "s"),
    ("routing.plan_s", "s"),
    ("routing.analytic_s", "s"),
    ("sim.fluid.scheme_a_s", "s"),
    ("sim.fluid.scheme_b_s", "s"),
    ("sim.fluid.scheme_b_clusters_s", "s"),
    ("sim.fluid.us_per_node_slot", "us"),
    ("sim.pool.busy_share", "ratio"),
    ("sim.pool.critical_path_s", "s"),
    ("sim.flows.scheme_a_s", "s"),
    ("sim.flows.scheme_b_s", "s"),
    ("sim.flows.ms_per_slot", "ms"),
    ("sim.events.drained", "count"),
    ("sim.events.us_per_event", "us"),
    ("sim.pacing.idle_share", "ratio"),
    ("sim.pacing.fast_forwarded", "slots"),
    ("sim.flows.completion", "ratio"),
    ("sim.flows.fct_p50_slots", "slots"),
    ("sim.flows.fct_p99_slots", "slots"),
    ("sim.pool.scaling_efficiency", "ratio"),
    ("sim.fluid.par_cold_s", "s"),
    ("sim.cache.put_us", "us"),
    ("sim.cache.get_us", "us"),
    ("sim.cache.bytes_written", "bytes"),
    ("sim.cache.bytes_read", "bytes"),
    ("sim.cache.warm_hit_ratio", "ratio"),
    ("sim.sweep.fit_err_max", "exponent"),
    ("trace.overhead_share", "ratio"),
];

/// Per-layer numbers of one replica.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Host seconds of a replica that redoes the whole task, priced
    /// against the untraced task as `trace.overhead_share`.
    replica_wall: Option<f64>,
    /// `Some(why)` when the replica's outputs differ from the untraced run.
    unfaithful: Option<String>,
}

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, v);
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Times `f`, adding its seconds to `acc`.
fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let v = f();
    *acc += secs(start.elapsed());
    v
}

/// Runs the traced mode of `w`: returns `(correct, attempted, failed,
/// per-layer metrics)`.
pub fn run(
    w: Workload,
    seed: u64,
    threads: usize,
    work: &Path,
) -> (bool, u64, u64, Vec<(String, f64, &'static str)>) {
    let prepared = match w.setup(seed, threads, work) {
        Ok(p) => p,
        Err(e) => {
            println!("CHECK FAILED: set-up: {e}");
            return (false, 1, 1, Vec::new());
        }
    };
    let untraced = prepared.run(0);
    let mut layers = match &prepared {
        Prepared::Table1 { pool, .. } => table1(pool, seed, &untraced),
        Prepared::Scale(inputs) => scale(seed, inputs, &untraced),
        Prepared::Flows { .. } => flows(seed, &untraced),
        Prepared::Sweep {
            pool,
            scenarios,
            work_dir,
        } => sweep(
            pool,
            scenarios,
            &work_dir.join("sweep-cache-traced"),
            &untraced,
        ),
    };
    // The untraced task runs again after the replica, and the faster of
    // its two runs prices the tracing, so first-run warm-up is not booked
    // as negative overhead.
    let mut untraced_runs = vec![untraced];
    if let Some(replica) = layers.replica_wall {
        let again = prepared.run(1);
        let base = again.wall_s.min(untraced_runs[0].wall_s);
        layers.set("trace.overhead_share", replica / base - 1.0);
        untraced_runs.push(again);
    }
    let correct = crate::verdict(w, seed, &untraced_runs);
    let attempted: u64 = untraced_runs.iter().map(|o| o.attempted).sum();
    let failed: u64 = untraced_runs.iter().map(|o| o.failed).sum();
    let mut metrics = Vec::new();
    match &layers.unfaithful {
        Some(why) => println!("replica unfaithful ({why}); per-layer numbers withheld"),
        None => {
            for (name, unit) in PER_LAYER {
                match layers.values.get(name) {
                    Some(&v) => {
                        println!("{name} = {v:.6} {unit}");
                        metrics.push((name.to_string(), v, unit));
                    }
                    None => {
                        println!("{name} = 0 {unit} (layer not exercised by {})", w.name());
                        metrics.push((name.to_string(), 0.0, unit));
                    }
                }
            }
        }
    }
    (correct, attempted, failed.min(attempted), metrics)
}

// ---------------------------------------------------------------- Table I

/// Span totals of one ladder point.
#[derive(Default, Clone, Copy)]
struct PointSpans {
    realize: f64,
    plan: f64,
    analytic: f64,
    scheme_a: f64,
    scheme_b: f64,
    scheme_b_clusters: f64,
    point: f64,
    /// Σ n × slots over the point's fluid engine calls.
    node_slots: f64,
}

/// One Table I ladder point, rebuilt from `Scenario::realize`, the plan
/// builders and the fluid engine exactly as `run_table1_row` measures it
/// (cache off), with a span around every layer call.
fn table1_point(
    exps: ModelExponents,
    with_bs: bool,
    mobility: MobilityKind,
    regime: Option<MobilityRegime>,
    n: usize,
    seed: u64,
) -> ((f64, f64), PointSpans) {
    let (slots, reps) = adapter::table1_slots_reps();
    let mut sp = PointSpans::default();
    let start = Instant::now();
    let (mut acc_m, mut used_m, mut acc_i, mut used_i) = (0.0, 0usize, 0.0, 0usize);
    for rep in 0..reps {
        let seed = seed
            .wrapping_add((n as u64) << 8)
            .wrapping_add(rep as u64)
            .wrapping_mul(adapter::SEED_MIX);
        let (mut lm, mut li) = (None, None);
        if regime == Some(MobilityRegime::Weak) && !with_bs {
            let (pop, traffic, m) = span(&mut sp.realize, || {
                let params = exps.realize(n);
                let mut rng = StdRng::seed_from_u64(seed);
                let pop = adapter::clustered_population(&exps, n, params.m, params.r, &mut rng);
                let traffic = adapter::permutation(n, &mut rng);
                (pop, traffic, params.m)
            });
            let plan = span(&mut sp.plan, || adapter::multihop_plan(&pop, &traffic, m));
            lm = Some(span(&mut sp.analytic, || adapter::multihop_rate(&plan)));
        } else {
            let sc = adapter::scenario(exps, n, mobility, with_bs, Some(2), seed);
            let r = span(&mut sp.realize, || adapter::realize(&sc));
            let (mut net, traffic, params, mut rng) = (r.net, r.traffic, r.params, r.rng);
            let engine = adapter::fluid_engine();
            let homes = net.population().home_points().points().to_vec();
            match regime {
                Some(MobilityRegime::Strong) | None => {
                    let plan = span(&mut sp.plan, || {
                        adapter::plan_a(&homes, &traffic, params.f.max(1.0))
                    });
                    let rep = span(&mut sp.scheme_a, || {
                        adapter::fluid_a(&engine, &mut net, &plan, slots, &mut rng)
                    });
                    sp.node_slots += (n * slots) as f64;
                    lm = Some(rep.lambda_typical);
                    if with_bs && regime.is_some() {
                        let bs = net.base_stations().expect("with_bs").clone();
                        let plan = span(&mut sp.plan, || adapter::plan_b(&homes, &traffic, &bs, 2));
                        let rep = span(&mut sp.scheme_b, || {
                            adapter::fluid_b(&engine, &mut net, &plan, slots, &mut rng)
                        });
                        sp.node_slots += (n * slots) as f64;
                        li = Some(rep.lambda_typical);
                    }
                }
                Some(MobilityRegime::Weak) => {
                    if with_bs {
                        let bs = net.base_stations().expect("with_bs").clone();
                        let centers = net.population().home_points().centers().to_vec();
                        let plan = span(&mut sp.plan, || {
                            adapter::plan_b_clusters(&homes, &traffic, &bs, &centers)
                        });
                        let range = params.r * (params.m as f64 / n as f64).sqrt();
                        let engine = adapter::fluid_engine_with_range(range.max(1e-6));
                        let rep = span(&mut sp.scheme_b_clusters, || {
                            adapter::fluid_b(&engine, &mut net, &plan, slots, &mut rng)
                        });
                        sp.node_slots += (n * slots) as f64;
                        li = Some(rep.lambda_typical);
                    }
                }
                Some(MobilityRegime::Trivial) => {
                    if with_bs {
                        let (plan, backbone) = span(&mut sp.plan, || {
                            adapter::scheme_c_plan(&net, &traffic, params.k, params.c)
                        });
                        let (_, typical) = span(&mut sp.analytic, || {
                            adapter::scheme_c_rates(&plan, &backbone, &traffic)
                        });
                        li = Some(typical);
                    }
                }
            }
        }
        if let Some(l) = lm.filter(|&l| l > 0.0) {
            acc_m += l;
            used_m += 1;
        }
        if let Some(l) = li.filter(|&l| l > 0.0) {
            acc_i += l;
            used_i += 1;
        }
    }
    let mean = |acc: f64, used: usize| if used > 0 { acc / used as f64 } else { 0.0 };
    sp.point = secs(start.elapsed());
    ((mean(acc_m, used_m), mean(acc_i, used_i)), sp)
}

fn table1(pool: &WorkerPool, seed: u64, untraced: &Outcome) -> Layers {
    let mut layers = Layers::default();
    let mut values = Vec::new();
    let mut total = PointSpans::default();
    let (mut replica_wall, mut critical) = (0.0, 0.0);
    for (row, ladder) in adapter::table1_rows()
        .into_iter()
        .zip(workloads::TABLE1_LADDERS)
    {
        let (_, exps, with_bs, mobility) = row;
        let ns = ladder.to_vec();
        let regime = adapter::regime(&adapter::scenario(
            exps,
            ns[0],
            mobility,
            with_bs,
            Some(2),
            seed,
        ));
        let start = Instant::now();
        let points = pool.map(ns, move |n| {
            table1_point(exps, with_bs, mobility, regime, n, seed)
        });
        replica_wall += secs(start.elapsed());
        let mut slowest: f64 = 0.0;
        for (_, sp) in &points {
            slowest = slowest.max(sp.point);
            total.realize += sp.realize;
            total.plan += sp.plan;
            total.analytic += sp.analytic;
            total.scheme_a += sp.scheme_a;
            total.scheme_b += sp.scheme_b;
            total.scheme_b_clusters += sp.scheme_b_clusters;
            total.point += sp.point;
            total.node_slots += sp.node_slots;
        }
        critical += slowest;
        // The components `run_table1_row` reports for this row, in order:
        // `false` picks the mobility term, `true` the infrastructure term.
        let terms: &[bool] = match (regime, with_bs) {
            (Some(MobilityRegime::Strong), true) => &[false, true],
            (Some(MobilityRegime::Strong), false) | (None, _) | (Some(_), false) => &[false],
            (Some(_), true) => &[true],
        };
        for &infra in terms {
            values.extend(
                points
                    .iter()
                    .map(|((m, i), _)| if infra { i.to_bits() } else { m.to_bits() }),
            );
        }
    }
    if values != untraced.values {
        layers.unfaithful = Some("replica λ differ from run_table1_row".into());
    }
    let threads = pool.threads() as f64;
    layers.set("core.realize_s", total.realize);
    layers.set("routing.plan_s", total.plan);
    layers.set("routing.analytic_s", total.analytic);
    layers.set("sim.fluid.scheme_a_s", total.scheme_a);
    layers.set("sim.fluid.scheme_b_s", total.scheme_b);
    layers.set("sim.fluid.scheme_b_clusters_s", total.scheme_b_clusters);
    let engine_s = total.scheme_a + total.scheme_b + total.scheme_b_clusters;
    layers.set(
        "sim.fluid.us_per_node_slot",
        engine_s / total.node_slots * 1e6,
    );
    layers.set(
        "sim.pool.busy_share",
        total.point / (threads * replica_wall),
    );
    layers.set("sim.pool.critical_path_s", critical);
    layers.set("sim.sweep.fit_err_max", untraced.fit_err_max.unwrap_or(0.0));
    layers.replica_wall = Some(replica_wall);
    layers
}

// -------------------------------------------------------------- scale_1e5

/// Span totals of the streamed slot-loop replica.
#[derive(Default)]
struct SlotSpans {
    sample: f64,
    index_self: f64,
    sstar: f64,
    pairs: usize,
    streamed_points: usize,
    wall: f64,
}

/// Replays the streamed engine's slot loop — `Population::slot_stream` +
/// `next_chunk`, `SpatialHash::try_rebuild_streamed`, then
/// `SStarScheduler::schedule_prebuilt_masked_into` — without scheme
/// accounting. With `timed` off the same loop runs without span clocks,
/// which prices the tracing itself.
fn slot_replica(inputs: &workloads::ScaleInputs, timed: bool) -> Result<SlotSpans, String> {
    let net = &inputs.net;
    let n = net.n();
    let total = net.total_nodes();
    let chunk = workloads::SCALE_CHUNK;
    let (scheduler, range, radius) = adapter::sstar_for(&inputs.engine, n);
    let mut ws = SlotWorkspace::new();
    let mut pairs = Vec::new();
    let mut buf = Vec::new();
    let mut sp = SlotSpans::default();
    let clock = || timed.then(Instant::now);
    let lap = |t: Option<Instant>| t.map_or(0.0, |t| secs(t.elapsed()));
    let start = Instant::now();
    for slot in 0..workloads::SCALE_SLOTS {
        let mut sample = 0.0;
        let mut streamed = 0;
        let t = clock();
        adapter::rebuild_streamed(&mut ws, total, radius, |emit| {
            let mut stream = adapter::slot_stream(net, inputs.seed, slot as u64);
            loop {
                let t = clock();
                let got = stream.next_chunk(chunk, &mut buf);
                sample += lap(t);
                if got == 0 {
                    break;
                }
                streamed += got;
                emit(&buf);
            }
            for tail in adapter::bs_positions(net).chunks(chunk) {
                streamed += tail.len();
                emit(tail);
            }
        })
        .map_err(|e| e.to_string())?;
        sp.index_self += lap(t) - sample;
        sp.sample += sample;
        sp.streamed_points += streamed;
        let t = clock();
        adapter::schedule_prebuilt(&scheduler, range, &mut ws, &mut pairs);
        sp.sstar += lap(t);
        sp.pairs += pairs.len();
    }
    sp.wall = secs(start.elapsed());
    Ok(sp)
}

/// One streamed scheme A + B call pair, plain or observed (probes armed):
/// its seconds and the bits of both reports, as the untraced run digests
/// them.
fn engine_pair(inputs: &workloads::ScaleInputs, observe: bool) -> (f64, Vec<u64>) {
    let (engine, net, slots, seed, chunk) = (
        &inputs.engine,
        &inputs.net,
        workloads::SCALE_SLOTS,
        inputs.seed,
        workloads::SCALE_CHUNK,
    );
    let start = Instant::now();
    let reports = if observe {
        [
            adapter::streamed_a_observed(engine, net, &inputs.plan_a, slots, seed, chunk),
            adapter::streamed_b_observed(engine, net, &inputs.plan_b, slots, seed, chunk),
        ]
    } else {
        [
            adapter::streamed_a(engine, net, &inputs.plan_a, slots, seed, chunk),
            adapter::streamed_b(engine, net, &inputs.plan_b, slots, seed, chunk),
        ]
    };
    let secs = secs(start.elapsed());
    let bits = reports
        .iter()
        .flatten()
        .flat_map(|r| [r.lambda, r.lambda_typical, r.scheduled_pairs_per_slot].map(f64::to_bits))
        .collect();
    (secs, bits)
}

fn scale(seed: u64, inputs: &workloads::ScaleInputs, untraced: &Outcome) -> Layers {
    let mut layers = Layers::default();
    // Set-up, layer by layer.
    let mut last = Instant::now();
    let traced_inputs = workloads::scale_inputs(seed, |name| {
        layers.set(name, secs(last.elapsed()));
        last = Instant::now();
    });
    drop(traced_inputs);

    // Four measurements alternate twice — plain replica, timed replica,
    // plain engine call, observed engine call — and the faster run of each
    // is kept, so warm-up and drift land on no side in particular.
    let slots = workloads::SCALE_SLOTS;
    let mut plain_wall = f64::INFINITY;
    let mut timed: Option<SlotSpans> = None;
    let (mut engine_s, mut observed_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        let (plain, t) = match (slot_replica(inputs, false), slot_replica(inputs, true)) {
            (Ok(p), Ok(t)) => (p, t),
            (Err(e), _) | (_, Err(e)) => {
                layers.unfaithful = Some(format!("replica failed: {e}"));
                return layers;
            }
        };
        plain_wall = plain_wall.min(plain.wall);
        if timed.as_ref().is_none_or(|best| t.wall < best.wall) {
            timed = Some(t);
        }
        for (observe, best) in [(false, &mut engine_s), (true, &mut observed_s)] {
            let (secs, bits) = engine_pair(inputs, observe);
            *best = best.min(secs);
            if bits != untraced.values {
                layers.unfaithful = Some(format!(
                    "{} engine call differs from the untraced run",
                    if observe { "observed" } else { "plain" }
                ));
            }
        }
    }
    let timed = timed.expect("two replica runs");
    layers.set("obs.probe_overhead_share", observed_s / engine_s - 1.0);
    let per_slot = |s: f64| s / slots as f64 * 1e3;
    let pairs_per_slot = timed.pairs as f64 / slots as f64;
    // The engine reports pairs per slot for scheme A (index 2) and B (5).
    for idx in [2, 5] {
        if untraced.values.get(idx) != Some(&pairs_per_slot.to_bits()) {
            layers.unfaithful = Some(format!(
                "replica schedules {pairs_per_slot} pairs per slot, the engine {:?}",
                untraced.values.get(idx).map(|&b| f64::from_bits(b))
            ));
        }
    }
    let engine_ms_per_slot = per_slot(engine_s) / 2.0;
    let layer_ms = per_slot(timed.sample + timed.index_self + timed.sstar);
    layers.set("mobility.sample_ms_per_slot", per_slot(timed.sample));
    layers.set(
        "mobility.sample_passes",
        timed.streamed_points as f64 / (slots * inputs.net.total_nodes()) as f64,
    );
    layers.set("geom.index_build_ms_per_slot", per_slot(timed.index_self));
    layers.set("wireless.sstar_ms_per_slot", per_slot(timed.sstar));
    layers.set("wireless.pairs_per_slot", pairs_per_slot);
    layers.set(
        "sim.fluid.account_ms_per_slot",
        engine_ms_per_slot - layer_ms,
    );
    layers.set("trace.overhead_share", timed.wall / plain_wall - 1.0);
    layers
}

// --------------------------------------------------------- flows_servable

fn flows(seed: u64, untraced: &Outcome) -> Layers {
    let mut layers = Layers::default();
    let (sc, wl) = workloads::flows_inputs(seed);
    let start = Instant::now();
    let mut realize = 0.0;
    let mut plan = 0.0;
    let (mut fa, mut fb) = (0.0, 0.0);
    let result = (|| -> Result<_, adapter::HycapError> {
        let r = span(&mut realize, || adapter::realize(&sc));
        let (mut net, traffic, params, mut rng) = (r.net, r.traffic, r.params, r.rng);
        let engine = adapter::packet_engine(seed ^ workloads::FLOW_PACING_SALT)?;
        let homes = net.population().home_points().points().to_vec();
        let plan_a = span(&mut plan, || {
            adapter::plan_a(&homes, &traffic, params.f.max(1.0))
        });
        let a = span(&mut fa, || {
            adapter::flows_a(&engine, &mut net, &plan_a, &traffic, &wl, &mut rng)
        })?;
        let bs = net
            .base_stations()
            .expect("scenario has base stations")
            .clone();
        let plan_b = span(&mut plan, || adapter::plan_b(&homes, &traffic, &bs, 2));
        let b = span(&mut fb, || {
            adapter::flows_b(&engine, &mut net, &plan_b, &wl, &mut rng)
        })?;
        Ok([a, b])
    })();
    let wall = secs(start.elapsed());
    let paths = match result {
        Ok(p) => p,
        Err(e) => {
            layers.unfaithful = Some(format!("replica failed: {e}"));
            return layers;
        }
    };
    let mut values = Vec::new();
    for (s, t) in &paths {
        workloads::flow_values(&mut values, s, t);
    }
    if values != untraced.values {
        layers.unfaithful = Some("replica flow statistics differ from measure_flows".into());
    }
    let sum = |f: &dyn Fn(&(hycap_sim::FlowRunStats, hycap_sim::PacingTrace)) -> f64| {
        paths.iter().map(f).sum::<f64>()
    };
    let slots = sum(&|(s, _)| s.slots as f64);
    let events = sum(&|(s, _)| s.events as f64);
    let started = sum(&|(s, _)| s.flows_started as f64);
    let completed = sum(&|(s, _)| s.flows_completed as f64);
    let worst = |f: &dyn Fn(&hycap_sim::FlowRunStats) -> Option<f64>| {
        paths.iter().filter_map(|(s, _)| f(s)).fold(0.0, f64::max)
    };
    layers.set("core.realize_s", realize);
    layers.set("routing.plan_s", plan);
    layers.set("sim.flows.scheme_a_s", fa);
    layers.set("sim.flows.scheme_b_s", fb);
    layers.set("sim.flows.ms_per_slot", (fa + fb) / slots * 1e3);
    layers.set("sim.events.drained", events);
    layers.set("sim.events.us_per_event", (fa + fb) / events * 1e6);
    layers.set(
        "sim.pacing.idle_share",
        sum(&|(_, t)| t.idle_slots as f64) / slots,
    );
    layers.set(
        "sim.pacing.fast_forwarded",
        sum(&|(_, t)| t.fast_forwarded as f64),
    );
    layers.set("sim.flows.completion", completed / started.max(1.0));
    layers.set("sim.flows.fct_p50_slots", worst(&|s| s.fct_p50));
    layers.set("sim.flows.fct_p99_slots", worst(&|s| s.fct_p99));
    layers.replica_wall = Some(wall);
    layers
}

// ----------------------------------------------------------- sweep_cached

fn sweep(
    pool: &WorkerPool,
    scenarios: &[hycap::Scenario],
    dir: &Path,
    untraced: &Outcome,
) -> Layers {
    let mut layers = Layers::default();
    let slots = workloads::SWEEP_SLOTS;
    let _ = std::fs::remove_dir_all(dir);
    let cache = match adapter::open_cache(dir) {
        Ok(c) => c,
        Err(e) => {
            layers.unfaithful = Some(format!("open cache: {e}"));
            return layers;
        }
    };
    let (mut put_s, mut cold_s) = (0.0, 0.0);
    let mut values = Vec::new();
    let mut cold_reports = Vec::new();
    let mut problems = Vec::new();
    let start = Instant::now();
    for sc in scenarios {
        let key = adapter::par_cache_key(sc, slots);
        if adapter::cache_get(&cache, &key).is_some() {
            problems.push(format!("n = {}: cold pass hit a fresh cache", sc.n()));
        }
        let report = match span(&mut cold_s, || adapter::measure_par(sc, slots, pool)) {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("n = {}: {e}", sc.n()));
                continue;
            }
        };
        if let Err(e) = span(&mut put_s, || adapter::cache_put(&cache, &key, &report)) {
            problems.push(format!("n = {}: store: {e}", sc.n()));
        }
        workloads::report_values(&mut values, &report);
        cold_reports.push(report);
    }
    let mut warm_get_s = 0.0;
    let mut warm_hits = 0;
    for (sc, cold) in scenarios.iter().zip(&cold_reports) {
        let key = adapter::par_cache_key(sc, slots);
        match span(&mut warm_get_s, || adapter::cache_get(&cache, &key)) {
            Some(w) if &w == cold => warm_hits += 1,
            Some(_) => problems.push(format!("n = {}: warm entry differs", sc.n())),
            None => problems.push(format!("n = {}: warm miss", sc.n())),
        }
    }
    let replica_wall = secs(start.elapsed());
    let cache_stats = cache.stats();
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);

    // Thread scaling: the cold compute again on a one-worker pool.
    let single = adapter::pool(1);
    let mut single_s = 0.0;
    let mut single_values = Vec::new();
    for sc in scenarios {
        match span(&mut single_s, || adapter::measure_par(sc, slots, &single)) {
            Ok(r) => workloads::report_values(&mut single_values, &r),
            Err(e) => problems.push(format!("n = {}: one-thread run: {e}", sc.n())),
        }
    }
    if single_values != values {
        problems.push("one-thread pool gives different reports".into());
    }
    if values != untraced.values {
        problems.push("replica λ differ from measure_par_cached".into());
    }
    if !problems.is_empty() {
        layers.unfaithful = Some(problems.join("; "));
    }
    let points = scenarios.len() as f64;
    let threads = pool.threads() as f64;
    layers.set("sim.pool.scaling_efficiency", single_s / (threads * cold_s));
    layers.set("sim.fluid.par_cold_s", cold_s);
    layers.set("sim.cache.put_us", put_s / points * 1e6);
    layers.set("sim.cache.get_us", warm_get_s / points * 1e6);
    layers.set("sim.cache.bytes_written", cache_stats.bytes_written as f64);
    layers.set("sim.cache.bytes_read", cache_stats.bytes_read as f64);
    layers.set("sim.cache.warm_hit_ratio", f64::from(warm_hits) / points);
    layers.set("sim.sweep.fit_err_max", untraced.fit_err_max.unwrap_or(0.0));
    layers.replica_wall = Some(replica_wall);
    layers
}
