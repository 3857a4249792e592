//! The one adapter between the benchmark and the hycap engines.
//!
//! Every call into an engine entry point — the Table I experiments, `Scenario`,
//! the plan builders, the fluid and flow engines, the result cache and the
//! `mobility`/`geom`/`wireless` slot primitives — goes through a function
//! here. When an entry point is renamed or folded into another, only this
//! file changes; the workloads and the traced replicas keep their shape.

use hycap::{ModelExponents, Realization, Scenario, ScenarioReport};
use hycap_bench::experiments::{run_table1_row, table1_exponents, RowResult, Scale};
use hycap_geom::{clamp_index_radius, Point};
use hycap_infra::{Backbone, BaseStations, CellularLayout};
use hycap_mobility::{
    ClusteredModel, Kernel, MobilityKind, Population, PopulationConfig, SlotPositionStream,
};
use hycap_routing::{
    clustered_connectivity_range, SchemeAPlan, SchemeBPlan, SchemeCPlan, StaticMultihopPlan,
    TrafficMatrix,
};
use hycap_sim::{
    FlowRunStats, FlowWorkload, FluidEngine, FluidReport, HybridNetwork, Pacing, PacingTrace,
    PacketEngine, ResultCache, WorkerPool,
};
use hycap_wireless::{SStarScheduler, ScheduledPair, SlotWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use hycap::{FlowScenarioReport, MobilityRegime};
pub use hycap_infra::HycapError;
pub use hycap_sim::fit_loglog;

/// The multiplicative seed mix the Table I experiments and the `scale` ladder
/// use to derive per-point seeds (splitmix64's golden-ratio constant).
pub const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// `Scenario`'s protocol defaults (`Δ = 0.5`, `c_T = 0.4`), which the
/// traced replicas need because they rebuild the engines themselves.
pub const DELTA: f64 = 0.5;
/// See [`DELTA`].
pub const C_T: f64 = 0.4;

// ---------------------------------------------------------------- Table I

/// The five Table I rows as `experiments::table1_exponents` defines them.
pub fn table1_rows() -> [(&'static str, ModelExponents, bool, MobilityKind); 5] {
    table1_exponents()
}

/// One Table I row at quick scale on `pool` (the body of
/// `experiments::run_table1`, minus its private pool).
pub fn table1_row(
    row: &(&'static str, ModelExponents, bool, MobilityKind),
    seed: u64,
    pool: &WorkerPool,
) -> RowResult {
    let (label, exps, with_bs, mobility) = *row;
    run_table1_row(label, exps, with_bs, mobility, Scale::Quick, seed, pool)
}

/// Quick-scale Monte-Carlo slots and repetitions per ladder point.
pub fn table1_slots_reps() -> (usize, usize) {
    (Scale::Quick.slots(), Scale::Quick.reps())
}

/// Spawns a worker pool of `threads` workers.
pub fn pool(threads: usize) -> WorkerPool {
    WorkerPool::new(threads)
}

/// One worker per available core.
pub fn nproc() -> usize {
    WorkerPool::default_threads()
}

// --------------------------------------------------------------- Scenario

/// A scenario builder with the knobs the workloads set.
pub fn scenario(
    exps: ModelExponents,
    n: usize,
    mobility: MobilityKind,
    with_bs: bool,
    scheme_b_cells: Option<usize>,
    seed: u64,
) -> Scenario {
    let mut b = Scenario::builder(exps, n).mobility(mobility).seed(seed);
    if let Some(cells) = scheme_b_cells {
        b = b.scheme_b_cells(cells);
    }
    if !with_bs {
        b = b.without_bs();
    }
    b.build()
}

/// Regime of a scenario (`None` on boundary parameters).
pub fn regime(sc: &Scenario) -> Option<MobilityRegime> {
    sc.regime().ok()
}

/// Realizes population, base stations and traffic.
pub fn realize(sc: &Scenario) -> Realization {
    sc.realize()
}

/// `Scenario::measure_flows`: both flow paths of the regime dispatch.
pub fn measure_flows(
    sc: &Scenario,
    workload: &FlowWorkload,
) -> Result<FlowScenarioReport, HycapError> {
    sc.measure_flows(workload)
}

/// Flows `workload` generates over `pairs` traffic pairs within its
/// horizon.
pub fn flow_arrivals(workload: &FlowWorkload, pairs: usize) -> u64 {
    workload.specs(pairs).len() as u64
}

/// The slot-sharded counter engine, no cache.
pub fn measure_par(
    sc: &Scenario,
    slots: usize,
    pool: &WorkerPool,
) -> Result<ScenarioReport, HycapError> {
    sc.measure_par(slots, pool)
}

/// The slot-sharded counter engine behind the result cache.
pub fn measure_par_cached(
    sc: &Scenario,
    slots: usize,
    pool: &WorkerPool,
    cache: &ResultCache,
) -> Result<ScenarioReport, HycapError> {
    sc.measure_par_cached(slots, pool, cache)
}

/// The cache key `measure_par_cached` stores under.
pub fn par_cache_key(sc: &Scenario, slots: usize) -> String {
    sc.cache_key("measure_par", slots)
}

/// Opens (creating) a result cache directory.
pub fn open_cache(dir: &std::path::Path) -> Result<ResultCache, HycapError> {
    ResultCache::open(dir)
}

/// A cache lookup decoded as a scenario report.
pub fn cache_get(cache: &ResultCache, key: &str) -> Option<ScenarioReport> {
    cache.get(key, ScenarioReport::from_cache_entry)
}

/// Stores a scenario report.
pub fn cache_put(
    cache: &ResultCache,
    key: &str,
    report: &ScenarioReport,
) -> Result<(), HycapError> {
    cache.put(key, &report.to_cache_entry())
}

// ------------------------------------------------- populations and plans

/// An i.i.d.-stationary uniform population of `n` nodes at `α = ¼`
/// (the `scale` ladder's row), with the RNG positioned after it.
pub fn uniform_population(n: usize, seed: u64) -> (Population, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PopulationConfig::builder(n)
        .alpha(0.25)
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::IidStationary)
        .build();
    let pop = Population::generate(&config, &mut rng);
    (pop, rng)
}

/// A static clustered population for the Corollary 3 row.
pub fn clustered_population(
    exps: &ModelExponents,
    n: usize,
    m: usize,
    r: f64,
    rng: &mut StdRng,
) -> Population {
    let config = PopulationConfig::builder(n)
        .alpha(exps.alpha)
        .clusters(ClusteredModel::explicit(m, r))
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::Static)
        .build();
    Population::generate(&config, rng)
}

/// `k` base stations on a regular grid with unit wire bandwidth.
pub fn regular_bs(k: usize) -> BaseStations {
    BaseStations::generate_regular(k, 1.0)
}

/// Permutation traffic.
pub fn permutation(n: usize, rng: &mut StdRng) -> TrafficMatrix {
    TrafficMatrix::permutation(n, rng)
}

/// A network with infrastructure.
pub fn hybrid(pop: Population, bs: BaseStations) -> HybridNetwork {
    HybridNetwork::with_infrastructure(pop, bs)
}

/// Scheme A plan at grid resolution `f`.
pub fn plan_a(homes: &[Point], traffic: &TrafficMatrix, f: f64) -> SchemeAPlan {
    SchemeAPlan::build(homes, traffic, f)
}

/// Scheme B plan on a `cells × cells` squarelet split.
pub fn plan_b(
    homes: &[Point],
    traffic: &TrafficMatrix,
    bs: &BaseStations,
    cells: usize,
) -> SchemeBPlan {
    SchemeBPlan::build(homes, traffic, bs, cells)
}

/// Scheme B plan grouped by clusters (weak regime).
pub fn plan_b_clusters(
    homes: &[Point],
    traffic: &TrafficMatrix,
    bs: &BaseStations,
    centers: &[Point],
) -> SchemeBPlan {
    SchemeBPlan::by_clusters(homes, traffic, bs, centers)
}

/// Scheme C (trivial regime): cellular layout, plan and backbone, then
/// the analytic `(λ, λ_typical)`.
pub fn scheme_c_plan(
    net: &HybridNetwork,
    traffic: &TrafficMatrix,
    k: usize,
    c: f64,
) -> (SchemeCPlan, Backbone) {
    let hp = net.population().home_points();
    let homes = hp.points();
    let centers = hp.centers();
    let radius = hp.radius().max(1e-3);
    let layout = CellularLayout::build(centers, radius, k.max(centers.len()));
    let plan = SchemeCPlan::build(homes, hp.cluster_of(), &layout, traffic);
    let backbone = Backbone::new(layout.total_cells().max(1), c);
    (plan, backbone)
}

/// Scheme C's analytic `(λ, λ_typical)`.
pub fn scheme_c_rates(
    plan: &SchemeCPlan,
    backbone: &Backbone,
    traffic: &TrafficMatrix,
) -> (f64, f64) {
    (
        plan.analytic_rate_with_traffic(backbone, traffic),
        plan.typical_rate_with_traffic(backbone, traffic),
    )
}

/// Clustered static multihop plan at the Lemma 10 connectivity range.
pub fn multihop_plan(pop: &Population, traffic: &TrafficMatrix, m: usize) -> StaticMultihopPlan {
    let cell_len = clustered_connectivity_range(m.max(2));
    StaticMultihopPlan::build_with_cell_len(pop.positions(), traffic, cell_len)
}

/// The multihop plan's TDMA rate at reuse 9.
pub fn multihop_rate(plan: &StaticMultihopPlan) -> f64 {
    plan.analytic_rate(9)
}

// ------------------------------------------------------------ fluid engine

/// The fluid engine at the scenario defaults.
pub fn fluid_engine() -> FluidEngine {
    FluidEngine::new(DELTA, C_T)
}

/// The fluid engine with an explicit transmission range (the weak-regime
/// override `Scenario` applies to scheme B by clusters).
pub fn fluid_engine_with_range(range: f64) -> FluidEngine {
    fluid_engine().with_range(range)
}

/// Sequential-RNG scheme A.
pub fn fluid_a(
    engine: &FluidEngine,
    net: &mut HybridNetwork,
    plan: &SchemeAPlan,
    slots: usize,
    rng: &mut StdRng,
) -> FluidReport {
    engine.measure_scheme_a(net, plan, slots, rng)
}

/// Sequential-RNG scheme B.
pub fn fluid_b(
    engine: &FluidEngine,
    net: &mut HybridNetwork,
    plan: &SchemeBPlan,
    slots: usize,
    rng: &mut StdRng,
) -> FluidReport {
    engine.measure_scheme_b(net, plan, slots, rng)
}

/// Plain streamed scheme A (no probes, no observer).
pub fn streamed_a(
    engine: &FluidEngine,
    net: &HybridNetwork,
    plan: &SchemeAPlan,
    slots: usize,
    seed: u64,
    chunk: usize,
) -> Result<FluidReport, HycapError> {
    engine.measure_scheme_a_streamed(net, plan, slots, seed, chunk)
}

/// Plain streamed scheme B.
pub fn streamed_b(
    engine: &FluidEngine,
    net: &HybridNetwork,
    plan: &SchemeBPlan,
    slots: usize,
    seed: u64,
    chunk: usize,
) -> Result<FluidReport, HycapError> {
    engine.measure_scheme_b_streamed(net, plan, slots, seed, chunk)
}

/// Observed streamed scheme A: recording observer with the feasibility
/// probe armed on every slot.
pub fn streamed_a_observed(
    engine: &FluidEngine,
    net: &HybridNetwork,
    plan: &SchemeAPlan,
    slots: usize,
    seed: u64,
    chunk: usize,
) -> Result<FluidReport, HycapError> {
    Ok(engine
        .measure_scheme_a_streamed_observed(net, plan, slots, seed, chunk)?
        .0)
}

/// Observed streamed scheme B.
pub fn streamed_b_observed(
    engine: &FluidEngine,
    net: &HybridNetwork,
    plan: &SchemeBPlan,
    slots: usize,
    seed: u64,
    chunk: usize,
) -> Result<FluidReport, HycapError> {
    Ok(engine
        .measure_scheme_b_streamed_observed(net, plan, slots, seed, chunk)?
        .0)
}

// ------------------------------------------------------------- flow engine

/// The packet engine under the demand pacing `Scenario::measure_flows`
/// selects for counter-samplable mobility.
pub fn packet_engine(pacing_seed: u64) -> Result<PacketEngine, HycapError> {
    Ok(
        PacketEngine::try_new(DELTA, C_T)?.with_pacing(Pacing::Demand {
            seed: pacing_seed,
            skip: true,
            active_set: true,
        }),
    )
}

/// Scheme A relay-chain flows.
pub fn flows_a(
    engine: &PacketEngine,
    net: &mut HybridNetwork,
    plan: &SchemeAPlan,
    traffic: &TrafficMatrix,
    workload: &FlowWorkload,
    rng: &mut StdRng,
) -> Result<(FlowRunStats, PacingTrace), HycapError> {
    engine.run_flows_scheme_a_traced_observed(
        net,
        plan,
        traffic,
        workload,
        rng,
        &mut hycap_obs::Observer::noop(),
    )
}

/// Scheme B infrastructure flows.
pub fn flows_b(
    engine: &PacketEngine,
    net: &mut HybridNetwork,
    plan: &SchemeBPlan,
    workload: &FlowWorkload,
    rng: &mut StdRng,
) -> Result<(FlowRunStats, PacingTrace), HycapError> {
    engine.run_flows_scheme_b_traced_observed(
        net,
        plan,
        workload,
        rng,
        &mut hycap_obs::Observer::noop(),
    )
}

// --------------------------------------------------- streamed slot pieces

/// The S* scheduler and index sizing the streamed fluid engine uses for
/// `n` mobile stations: `(scheduler, range, index radius)`.
pub fn sstar_for(engine: &FluidEngine, n: usize) -> (SStarScheduler, f64, f64) {
    let scheduler = SStarScheduler::new(engine.delta());
    let range = engine.range_for(n);
    let radius = clamp_index_radius(scheduler.protocol().guard_radius(range));
    (scheduler, range, radius)
}

/// The counter-based position stream of one slot's mobile stations.
pub fn slot_stream(net: &HybridNetwork, seed: u64, slot: u64) -> SlotPositionStream<'_> {
    net.population().slot_stream(seed, slot)
}

/// The static base-station positions (the tail of every slot snapshot).
pub fn bs_positions(net: &HybridNetwork) -> &[Point] {
    net.base_stations().map_or(&[], |bs| bs.positions())
}

/// `SpatialHash::try_rebuild_streamed` on the workspace's index.
pub fn rebuild_streamed(
    ws: &mut SlotWorkspace,
    len: usize,
    radius: f64,
    stream: impl FnMut(&mut dyn FnMut(&[Point])),
) -> Result<(), HycapError> {
    ws.hash_mut().try_rebuild_streamed(len, radius, stream)
}

/// S* over the prebuilt index.
pub fn schedule_prebuilt(
    scheduler: &SStarScheduler,
    range: f64,
    ws: &mut SlotWorkspace,
    out: &mut Vec<ScheduledPair>,
) {
    scheduler.schedule_prebuilt_masked_into(range, None, ws, out);
}
