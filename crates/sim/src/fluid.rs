//! The fluid (flow-level) capacity engine.
//!
//! For a compiled routing plan, the per-node capacity is the largest uniform
//! rate `λ` such that no resource is overloaded: every squarelet edge,
//! access group and backbone wire must serve its flows. The engine measures
//! each wireless resource's *service rate* — how many `S*`-scheduled pairs
//! can move its traffic per slot — by Monte-Carlo slot sampling, then takes
//! the bottleneck ratio
//!
//! ```text
//! λ = min over resources   service_rate(resource) / load(resource)
//! ```
//!
//! This is exactly the computation behind Lemma 5 (`Θ(1/f)` for scheme A)
//! and Theorem 5 (`Θ(min(k²c/n, k/n))` for scheme B), with the ergodic
//! averages replaced by finite-sample estimates. The packet-level engine
//! ([`crate::packet`]) validates these estimates with real queues.
//!
//! Every measurement is one [`FluidRun`] handed to [`FluidEngine::measure`]:
//! a plan ([`FluidPlan`]), a slot count and a position source, plus an
//! optional [`WorkerPool`], [`RunBudget`] and fault schedule. One slot loop
//! serves every run; the source decides how a slot gets its positions:
//!
//! * [`FluidRun::walk`] advances the mobility in slot order from a caller
//!   RNG. It works for every trajectory model and runs inline as one chunk.
//! * [`FluidRun::counter`] replays slot `s` from the counter stream
//!   `(seed, s)`. That needs *counter-samplable* mobility (i.i.d. or static —
//!   see [`HybridNetwork::counter_samplable`]), and in exchange the slot
//!   range shards into contiguous chunks, one per pool thread.
//! * [`FluidRun::streamed`] draws the same counter positions `chunk` points
//!   at a time straight into the spatial index, so no step materializes the
//!   `n + k` snapshot.
//!
//! Every per-chunk accumulator holds integer-valued counts (exactly
//! representable in `f64`), chunks reduce in slot order, and snapshots
//! merge partition-independently — so counter and streamed runs report
//! bit-identical numbers and merged metrics at 1, 2 and N threads.

use crate::budget::{BudgetExceeded, BudgetMeter, Budgeted, RunBudget};
use crate::faults::{FaultInjector, FaultSchedule, FaultTally, OutagePolicy};
use crate::pool::{chunk_ranges, WorkerPool};
use crate::HybridNetwork;
use hycap_errors::HycapError;
use hycap_geom::{clamp_index_radius, Cell, SquareGrid};
use hycap_infra::{Backbone, LinkMask};
use hycap_obs::{MetricsSink, Observer, Snapshot, SpanTimer};
use hycap_routing::{EdgeKey, SchemeAPlan, SchemeBPlan, TrafficMatrix, TwoHopPlan};
use hycap_wireless::{
    critical_range, schedule_memoized_observed, schedule_observed, schedule_prebuilt_observed,
    SStarScheduler, ScheduleMemo, ScheduledPair, Scheduler, SlotWorkspace,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// What limited the measured capacity.
#[derive(Debug, Clone, PartialEq)]
pub enum Bottleneck {
    /// A squarelet edge of scheme A (by canonical edge key).
    WirelessEdge(EdgeKey),
    /// The access phase of scheme B in the given group.
    Access(usize),
    /// The wired backbone (phase II of scheme B).
    Backbone,
    /// A resource with offered load received no service during the sample —
    /// the estimate is 0 and more slots (or a denser network) are needed.
    Starved,
    /// No resource was loaded (e.g. empty traffic).
    Unconstrained,
}

/// The result of a fluid capacity measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidReport {
    /// Measured per-node capacity (units of the wireless bandwidth `W = 1`):
    /// the **minimum** service/load ratio over loaded resources — the rate
    /// every flow can sustain simultaneously.
    pub lambda: f64,
    /// The **median** service/load ratio over loaded wireless resources
    /// (still capped by the backbone where applicable). The min and the
    /// median share the same Θ order asymptotically (Lemma 1 makes all
    /// squarelets statistically alike), but the min carries a heavy
    /// finite-sample tail penalty; exponent fits should use this field.
    pub lambda_typical: f64,
    /// The limiting resource.
    pub bottleneck: Bottleneck,
    /// Slots sampled.
    pub slots: usize,
    /// Mean number of `S*`-scheduled pairs per slot (a load-independent
    /// wellness indicator: `Θ(n)` in uniformly dense networks by Lemma 3).
    pub scheduled_pairs_per_slot: f64,
}

/// A fluid measurement with its fault accounting: the (possibly degraded)
/// capacity plus per-cause accounting of what the faults did to the run.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedFluidReport {
    /// The measurement itself. Without faults, or with an empty fault
    /// schedule, this is the fault-free report.
    pub base: FluidReport,
    /// Mean alive-BS count over the sampled slots (`k` when nothing failed).
    pub k_alive_mean: f64,
    /// Slots during which at least one BS was down.
    pub outage_slots: usize,
    /// Scheme-B flows still riding the infrastructure at end of run
    /// (classified against the durable, scripted fault state). Equals the
    /// plan's flow count for scheme A or an empty schedule.
    pub infra_flows: usize,
    /// Scheme-B flows re-routed to the ad-hoc fallback because their source
    /// or destination BS group was fully dead. Always 0 for scheme A.
    pub fallback_flows: usize,
    /// BS groups that lost every base station. Always 0 for scheme A.
    pub dead_groups: usize,
    /// What the injector applied during the run, by cause.
    pub tally: FaultTally,
}

impl DegradedFluidReport {
    /// Fraction of flows on the ad-hoc fallback, in `[0, 1]`.
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.infra_flows + self.fallback_flows;
        if total == 0 {
            return 0.0;
        }
        self.fallback_flows as f64 / total as f64
    }
}

/// Two-hop relay (Grossglauser–Tse) measurement: per-flow rates are spread
/// out, so the report keeps distribution summaries rather than a single
/// bottleneck.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoHopReport {
    /// Mean per-flow rate `min(µ(s,r), µ(r,d))/2`.
    pub mean_rate: f64,
    /// 10th-percentile per-flow rate.
    pub p10_rate: f64,
    /// Number of flows measured.
    pub flows: usize,
    /// Slots sampled.
    pub slots: usize,
}

/// The routing plan a [`FluidRun`] measures.
#[derive(Debug, Clone, Copy)]
pub enum FluidPlan<'a> {
    /// Scheme A (Lemma 5): MS–MS contacts serve the squarelet edge joining
    /// the pair's home squarelets, against the plan's edge loads.
    A(&'a SchemeAPlan),
    /// Scheme B (Theorem 5): MS–BS contacts serve the BS's group when the
    /// MS is homed there; phase II is bounded by the backbone wires.
    B(&'a SchemeBPlan),
}

impl<'a> From<&'a SchemeAPlan> for FluidPlan<'a> {
    fn from(plan: &'a SchemeAPlan) -> Self {
        FluidPlan::A(plan)
    }
}

impl<'a> From<&'a SchemeBPlan> for FluidPlan<'a> {
    fn from(plan: &'a SchemeBPlan) -> Self {
        FluidPlan::B(plan)
    }
}

/// Where a run's slot positions come from.
enum Source<'a, R: ?Sized> {
    Walk(&'a mut HybridNetwork, &'a mut R),
    Sharded(&'a HybridNetwork, Sharded),
}

/// The counter-based sources, which may split the slot range into chunks.
#[derive(Debug, Clone, Copy)]
enum Sharded {
    Counter { seed: u64 },
    Streamed { seed: u64, chunk: usize },
}

/// One fluid measurement: plan, slot count and position source, plus an
/// optional worker pool, run budget and fault schedule. Build it with
/// [`FluidRun::walk`], [`FluidRun::counter`] or [`FluidRun::streamed`] and
/// run it with [`FluidEngine::measure`].
///
/// The RNG type parameter only matters for walks; the counter-based
/// constructors fix it to [`StdRng`], which they never draw from.
pub struct FluidRun<'a, R: ?Sized = StdRng> {
    spec: RunSpec<'a>,
    source: Source<'a, R>,
    pool: Option<&'a WorkerPool>,
}

/// What a run measures, independent of where its positions come from.
struct RunSpec<'a> {
    plan: FluidPlan<'a>,
    slots: usize,
    budget: Option<RunBudget>,
    faults: Option<(&'a FaultSchedule, OutagePolicy)>,
}

impl<'a, R: Rng + ?Sized> FluidRun<'a, R> {
    /// A run that advances `net`'s mobility in slot order from `rng`. Works
    /// for every trajectory model, including history-dependent ones, and
    /// leaves `net` at its last sampled slot. Cannot take a pool.
    pub fn walk(
        net: &'a mut HybridNetwork,
        plan: impl Into<FluidPlan<'a>>,
        slots: usize,
        rng: &'a mut R,
    ) -> Self {
        Self::new(plan.into(), slots, Source::Walk(net, rng))
    }
}

impl<'a> FluidRun<'a> {
    /// A run whose slot `s` positions come from the counter stream
    /// `SlotRng::new(seed, s)`, so the result depends only on `(net, plan,
    /// slots, seed)`. With a pool the slot range splits into contiguous
    /// chunks, one per thread; the report is bit-identical at every pool
    /// size and without one. `net` is never mutated.
    pub fn counter(
        net: &'a HybridNetwork,
        plan: impl Into<FluidPlan<'a>>,
        slots: usize,
        seed: u64,
    ) -> Self {
        let source = Source::Sharded(net, Sharded::Counter { seed });
        Self::new(plan.into(), slots, source)
    }

    /// A counter run that streams each slot's positions `chunk` points at a
    /// time straight into the spatial index instead of materializing the
    /// `n + k` snapshot: bit-identical to [`FluidRun::counter`] in `O(n)`
    /// index memory plus `O(chunk)` scratch. The schedule memo never engages.
    pub fn streamed(
        net: &'a HybridNetwork,
        plan: impl Into<FluidPlan<'a>>,
        slots: usize,
        seed: u64,
        chunk: usize,
    ) -> Self {
        let source = Source::Sharded(net, Sharded::Streamed { seed, chunk });
        Self::new(plan.into(), slots, source)
    }
}

impl<'a, R: ?Sized> FluidRun<'a, R> {
    fn new(plan: FluidPlan<'a>, slots: usize, source: Source<'a, R>) -> Self {
        FluidRun {
            spec: RunSpec {
                plan,
                slots,
                budget: None,
                faults: None,
            },
            source,
            pool: None,
        }
    }

    /// Shards a counter or streamed run across `pool`, one contiguous slot
    /// chunk per thread, reduced in slot order.
    pub fn pool(mut self, pool: &'a WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Runs under `budget`. Within budget the outcome is
    /// [`Budgeted::Complete`] and bit-identical to the unbudgeted run; an
    /// exhausted budget yields [`Budgeted::Interrupted`] with a best-effort
    /// partial report normalized over the slots that completed.
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.spec.budget = Some(budget);
        self
    }

    /// Injects `schedule`'s faults, with outages under `policy`. Scheme A
    /// feels them only through the spectrum; scheme B credits only live BSs,
    /// re-classifies flows via [`SchemeBPlan::degrade`] and bounds phase II
    /// by the surviving wires (`k → k_alive`). An empty schedule runs the
    /// fault-free path bit for bit.
    pub fn faults(mut self, schedule: &'a FaultSchedule, policy: OutagePolicy) -> Self {
        self.spec.faults = Some((schedule, policy));
        self
    }
}

/// What [`FluidEngine::measure`] returns.
#[derive(Debug, Clone)]
pub struct FluidOutcome {
    /// The measurement with its fault accounting; a run without faults
    /// reports every BS alive and every flow on its plan.
    /// [`Budgeted::Interrupted`] when the run budget tripped.
    pub report: Budgeted<DegradedFluidReport>,
    /// The merged `hycap-metrics/1` snapshot of a counter or streamed run
    /// measured under an active observer; `None` otherwise.
    pub snapshot: Option<Snapshot>,
}

impl FluidOutcome {
    /// The measurement and its fault accounting, complete or partial.
    pub fn degraded(&self) -> &DegradedFluidReport {
        self.report.report()
    }

    /// The fluid report, complete or partial.
    pub fn into_base(self) -> FluidReport {
        match self.report {
            Budgeted::Complete(r) | Budgeted::Interrupted { partial: r, .. } => r.base,
        }
    }
}

/// The fluid capacity engine: `S*` scheduling with guard factor `Δ` and
/// range constant `c_T` (`R_T = c_T/√n`).
///
/// The defaults `Δ = 0.5`, `c_T = 0.4` maximize the `S*` activity constant
/// `Θ(c_T²)·e^{-π(1+Δ)²c_T²}` (Lemma 3) so finite networks yield
/// well-conditioned estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidEngine {
    delta: f64,
    c_t: f64,
    range_override: Option<f64>,
    memoize: bool,
}

impl FluidEngine {
    /// Creates an engine with explicit protocol parameters.
    pub fn new(delta: f64, c_t: f64) -> Self {
        assert!(
            c_t > 0.0 && c_t.is_finite(),
            "c_T must be positive, got {c_t}"
        );
        assert!(
            delta >= 0.0 && delta.is_finite(),
            "Δ must be non-negative, got {delta}"
        );
        FluidEngine {
            delta,
            c_t,
            range_override: None,
            memoize: true,
        }
    }

    /// Disables the static-position schedule memo ([`ScheduleMemo`]).
    ///
    /// Memoization is on by default and bit-identical to recomputation (it
    /// only engages when [`HybridNetwork::positions_static`] holds, and
    /// invalidates on every alive-mask change); this switch exists so the
    /// cache bench can measure the speedup and *assert* that identity
    /// rather than trust it.
    pub fn without_schedule_memo(mut self) -> Self {
        self.memoize = false;
        self
    }

    /// Overrides the transmission range with an explicit value instead of
    /// the default `c_T/√n`.
    ///
    /// The override implements Table I's *optimal transmission range*
    /// column: `c_T/√n` is only optimal in uniformly dense networks
    /// (Theorem 2); the weak regime needs `Θ(r√(m/n))` — the inverse of the
    /// in-cluster node density — or the `S*` guard zones are never clear
    /// and every link starves (the `R_T` ablation bench quantifies this).
    ///
    /// # Panics
    ///
    /// Panics if `range` is not positive.
    pub fn with_range(mut self, range: f64) -> Self {
        assert!(
            range.is_finite() && range > 0.0,
            "range override must be positive, got {range}"
        );
        self.range_override = Some(range);
        self
    }

    /// The transmission range used for `n` mobile stations.
    pub fn range_for(&self, n: usize) -> f64 {
        self.range_override
            .unwrap_or_else(|| critical_range(n, self.c_t))
    }

    /// The guard factor `Δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The range constant `c_T`.
    pub fn c_t(&self) -> f64 {
        self.c_t
    }

    /// Measures one [`FluidRun`].
    ///
    /// A walk records its schedule metrics, probes and run-level metrics
    /// into `obs`. Counter and streamed runs may fan out across threads, so
    /// when `obs` is active each chunk records into its own recording
    /// observer with probes armed; their merge in slot order, then the
    /// run-level metrics, comes back as [`FluidOutcome::snapshot`] (byte-equal
    /// at every pool size) and `obs` is left untouched. Observation never
    /// changes a report.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `slots == 0`, a streamed chunk
    /// is 0, a walk is given a pool, or a counter/streamed run's mobility
    /// is not counter-samplable (history-dependent models must walk);
    /// [`HycapError::MissingInfrastructure`] for scheme B without base
    /// stations; schedule validation errors from [`FaultInjector::new`].
    pub fn measure<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        run: FluidRun<'_, R>,
        obs: &mut Observer<S>,
    ) -> Result<FluidOutcome, HycapError> {
        let FluidRun { spec, source, pool } = run;
        if spec.slots == 0 {
            return Err(HycapError::invalid("slots", "need at least one slot"));
        }
        match source {
            Source::Walk(_, _) if pool.is_some() => Err(HycapError::invalid(
                "pool",
                "a walk advances mobility in slot order and cannot be sharded; \
                 use a counter or streamed run",
            )),
            Source::Walk(net, rng) => self.walk(net, rng, spec, obs),
            Source::Sharded(net, source) => self.sharded(net, source, pool, spec, obs.active()),
        }
    }

    /// Measures scheme A over a walk of `net`'s mobility from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn measure_scheme_a<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        rng: &mut R,
    ) -> FluidReport {
        let outcome = self.measure(FluidRun::walk(net, plan, slots, rng), &mut Observer::noop());
        outcome.unwrap_or_else(|e| panic!("{e}")).into_base()
    }

    /// Measures scheme B over a walk of `net`'s mobility from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or the network has no base stations.
    pub fn measure_scheme_b<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        rng: &mut R,
    ) -> FluidReport {
        let outcome = self.measure(FluidRun::walk(net, plan, slots, rng), &mut Observer::noop());
        outcome.unwrap_or_else(|e| panic!("{e}")).into_base()
    }

    /// Streamed scheme A: [`FluidRun::streamed`] without an observer.
    /// Errors as [`FluidEngine::measure`].
    pub fn measure_scheme_a_streamed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
        chunk: usize,
    ) -> Result<FluidReport, HycapError> {
        let run = FluidRun::streamed(net, plan, slots, seed, chunk);
        Ok(self.measure(run, &mut Observer::noop())?.into_base())
    }

    /// Streamed scheme B: [`FluidRun::streamed`] without an observer.
    /// Errors as [`FluidEngine::measure`].
    pub fn measure_scheme_b_streamed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        seed: u64,
        chunk: usize,
    ) -> Result<FluidReport, HycapError> {
        let run = FluidRun::streamed(net, plan, slots, seed, chunk);
        Ok(self.measure(run, &mut Observer::noop())?.into_base())
    }

    /// Streamed scheme A with the feasibility probe armed on every slot,
    /// returning the report and its `hycap-metrics/1` snapshot. Errors as
    /// [`FluidEngine::measure`].
    pub fn measure_scheme_a_streamed_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
        chunk: usize,
    ) -> Result<(FluidReport, Snapshot), HycapError> {
        let run = FluidRun::streamed(net, plan, slots, seed, chunk);
        observed(self.measure(run, &mut Observer::recording().with_probes()))
    }

    /// Streamed scheme B with the feasibility probe armed on every slot,
    /// returning the report and its `hycap-metrics/1` snapshot. Errors as
    /// [`FluidEngine::measure`].
    pub fn measure_scheme_b_streamed_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        seed: u64,
        chunk: usize,
    ) -> Result<(FluidReport, Snapshot), HycapError> {
        let run = FluidRun::streamed(net, plan, slots, seed, chunk);
        observed(self.measure(run, &mut Observer::recording().with_probes()))
    }

    /// Measures the two-hop relay baseline: per-flow rate is the minimum of
    /// the two hop link capacities, halved for the relay's receive/send
    /// split.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn measure_two_hop<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &TwoHopPlan,
        traffic: &TrafficMatrix,
        slots: usize,
        rng: &mut R,
    ) -> TwoHopReport {
        assert!(slots > 0, "need at least one slot");
        let n = net.n();
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        // `(link, (flow, hop))` for both hops of every flow, sorted by link.
        let mut watchers = Vec::with_capacity(2 * traffic.len());
        for (s, d) in traffic.pairs() {
            let r = plan.relay_of(s);
            let h1 = if s < r { (s, r) } else { (r, s) };
            let h2 = if r < d { (r, d) } else { (d, r) };
            watchers.push((h1, (s, 0)));
            watchers.push((h2, (s, 1)));
        }
        watchers.sort_by_key(|&(link, _)| link);
        // Scheduled slots per flow and hop.
        let mut hop_counts = vec![[0.0f64; 2]; traffic.len()];
        let mut buf = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        for _ in 0..slots {
            net.advance_into(rng, &mut buf);
            scheduler.schedule_into(&buf, range, &mut ws, &mut pairs);
            for &pair in &pairs {
                if pair.a >= n || pair.b >= n {
                    continue;
                }
                let link = (pair.a, pair.b);
                let first = watchers.partition_point(|&(l, _)| l < link);
                for &(_, (flow, hop)) in watchers[first..].iter().take_while(|&&(l, _)| l == link) {
                    hop_counts[flow][hop] += 1.0;
                }
            }
        }
        let mut rates: Vec<f64> = traffic
            .pairs()
            .map(|(s, _)| 0.5 * hop_counts[s][0].min(hop_counts[s][1]) / slots as f64)
            .collect();
        rates.sort_by(f64::total_cmp);
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let p10 = rates[rates.len() / 10];
        TwoHopReport {
            mean_rate: mean,
            p10_rate: p10,
            flows: rates.len(),
            slots,
        }
    }

    /// A walk: one chunk on the caller's thread over the caller's network,
    /// recording into `obs`.
    fn walk<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        rng: &mut R,
        spec: RunSpec<'_>,
        obs: &mut Observer<S>,
    ) -> Result<FluidOutcome, HycapError> {
        match spec.plan {
            FluidPlan::A(plan) => {
                self.walk_chunk(Run::<SchemeA>::new(net, plan, &spec)?, net, rng, obs)
            }
            FluidPlan::B(plan) => {
                self.walk_chunk(Run::<SchemeB>::new(net, plan, &spec)?, net, rng, obs)
            }
        }
    }

    fn walk_chunk<C: Scheme, R: Rng + ?Sized, S: MetricsSink>(
        &self,
        run: Run<'_, C>,
        net: &mut HybridNetwork,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<FluidOutcome, HycapError> {
        let chunk = run.chunk(0..run.slots);
        let out = self.run_chunk(Positions::Walk(net, rng), &*run.scheme, chunk, obs)?;
        run.finish(vec![out], obs)
    }

    /// A counter or streamed run. It does not depend on the caller's RNG
    /// or sink type, so it is compiled once rather than per caller.
    fn sharded(
        &self,
        net: &HybridNetwork,
        source: Sharded,
        pool: Option<&WorkerPool>,
        spec: RunSpec<'_>,
        observe: bool,
    ) -> Result<FluidOutcome, HycapError> {
        if !net.counter_samplable() {
            return Err(HycapError::invalid(
                "mobility",
                "counter-based sampling requires an i.i.d.-per-slot or static \
                 mobility model (slot positions must not depend on history)",
            ));
        }
        if let Sharded::Streamed { chunk: 0, .. } = source {
            return Err(HycapError::invalid("chunk", "need a positive chunk size"));
        }
        match spec.plan {
            FluidPlan::A(plan) => {
                let run = Run::<SchemeA>::new(net, plan, &spec)?;
                self.fan_out(net, run, source, pool, observe)
            }
            FluidPlan::B(plan) => {
                let run = Run::<SchemeB>::new(net, plan, &spec)?;
                self.fan_out(net, run, source, pool, observe)
            }
        }
    }

    /// Runs a counter or streamed run's chunks — inline in order without a
    /// pool, one job per chunk on `pool` otherwise (results come back in
    /// chunk order either way) — and reduces them. Each pooled job owns a
    /// clone of `net`.
    fn fan_out<C: Scheme>(
        &self,
        net: &HybridNetwork,
        run: Run<'_, C>,
        source: Sharded,
        pool: Option<&WorkerPool>,
        observe: bool,
    ) -> Result<FluidOutcome, HycapError> {
        let chunks = chunk_ranges(run.slots, pool.map_or(1, WorkerPool::threads))
            .into_iter()
            .map(|slots| run.chunk(slots));
        let outs: Result<Vec<ChunkOut>, HycapError> = match pool {
            None => chunks
                .map(|chunk| {
                    self.sharded_chunk(Cow::Borrowed(net), &*run.scheme, source, chunk, observe)
                })
                .collect(),
            Some(pool) => {
                let engine = *self;
                let jobs: Vec<_> = chunks
                    .map(|chunk| {
                        let net = net.clone();
                        let scheme = Arc::clone(&run.scheme);
                        move || {
                            engine.sharded_chunk(Cow::Owned(net), &*scheme, source, chunk, observe)
                        }
                    })
                    .collect();
                pool.run(jobs).into_iter().collect()
            }
        };
        // Observed chunks carry snapshots, which `finish` merges under a
        // fresh recording observer of its own.
        run.finish(outs?, &mut Observer::noop())
    }

    /// One chunk of a counter or streamed run, under its own recording
    /// observer when `observe` is set. A counter chunk advances its own
    /// copy of the network; a streamed one only reads it.
    fn sharded_chunk<C: Scheme>(
        &self,
        net: Cow<'_, HybridNetwork>,
        scheme: &C,
        source: Sharded,
        chunk: Chunk,
        observe: bool,
    ) -> Result<ChunkOut, HycapError> {
        let mut owned;
        let positions: Positions<'_, StdRng> = match source {
            Sharded::Counter { seed } => {
                owned = net.into_owned();
                Positions::Counter(&mut owned, seed)
            }
            Sharded::Streamed { seed, chunk } => Positions::Streamed(&net, seed, chunk),
        };
        if !observe {
            return self.run_chunk(positions, scheme, chunk, &mut Observer::noop());
        }
        let mut obs = Observer::recording().with_probes();
        let out = self.run_chunk(positions, scheme, chunk, &mut obs)?;
        Ok(ChunkOut {
            snapshot: Some(obs.snapshot()),
            ..out
        })
    }

    /// The slot loop. Every run, whatever its source, scheme, pool, budget
    /// or faults, samples its slots here: charge the budget, advance the
    /// fault injector and mask dead BSs, get the slot's positions from the
    /// source, schedule them (through the static-position memo when it
    /// applies), and credit each scheduled pair to the scheme's resources.
    fn run_chunk<C: Scheme, R: Rng + ?Sized, S: MetricsSink>(
        &self,
        mut positions: Positions<'_, R>,
        scheme: &C,
        mut chunk: Chunk,
        obs: &mut Observer<S>,
    ) -> Result<ChunkOut, HycapError> {
        let net = positions.net();
        let (n, k, total) = (net.n(), net.k(), net.total_nodes());
        let streamed = matches!(positions, Positions::Streamed(..));
        // Sound only over frozen positions; the memo re-checks the alive
        // mask itself, so fault transitions invalidate it per slot.
        let mut memo =
            (self.memoize && !streamed && net.positions_static()).then(ScheduleMemo::new);
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        let index_radius = clamp_index_radius(scheduler.protocol().guard_radius(range));
        let mut acc = SlotAcc::new(scheme.resources());
        let mut buf = Vec::new();
        let mut alive = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        for slot in chunk.slots.clone() {
            if let Some(meter) = &chunk.meter {
                if !meter.charge_slot() {
                    break;
                }
            }
            let alive_mask = match chunk.faults.as_mut() {
                Some((injector, policy)) => {
                    injector.advance_to(slot);
                    injector.fill_alive(n, *policy, &mut alive);
                    let alive_now = injector.alive_count();
                    acc.alive_sum += alive_now;
                    if alive_now < k {
                        acc.outage_slots += 1;
                    }
                    Some(alive.as_slice())
                }
                None => None,
            };
            let id = slot as u64;
            match &mut positions {
                Positions::Walk(net, rng) => net.advance_into(&mut **rng, &mut buf),
                Positions::Counter(net, seed) => net.advance_slot_into(*seed, id, &mut buf),
                Positions::Streamed(net, seed, chunk) => {
                    ws.hash_mut()
                        .try_rebuild_streamed(total, index_radius, |emit| {
                            net.stream_slot_positions(*seed, id, *chunk, &mut buf, emit)
                        })?;
                }
            }
            match memo.as_mut() {
                _ if streamed => schedule_prebuilt_observed(
                    &scheduler, range, alive_mask, id, &mut ws, &mut pairs, obs,
                ),
                Some(memo) => schedule_memoized_observed(
                    memo, &scheduler, &buf, range, alive_mask, id, &mut ws, &mut pairs, obs,
                ),
                None => schedule_observed(
                    &scheduler, &buf, range, alive_mask, id, &mut ws, &mut pairs, obs,
                ),
            }
            acc.total_pairs += pairs.len();
            let mask = chunk.faults.as_ref().map(|(injector, _)| injector.mask());
            for &pair in &pairs {
                if let Some(resource) = scheme.credit(pair, mask) {
                    acc.service[resource] += 1.0;
                    acc.credited += 1;
                }
            }
            acc.slots_done += 1;
        }
        Ok(ChunkOut {
            acc,
            injector: chunk.faults.map(|(injector, _)| injector),
            snapshot: None,
        })
    }
}

impl Default for FluidEngine {
    fn default() -> Self {
        FluidEngine::new(0.5, 0.4)
    }
}

/// The report and snapshot of a run measured under an active observer.
fn observed(
    outcome: Result<FluidOutcome, HycapError>,
) -> Result<(FluidReport, Snapshot), HycapError> {
    let mut outcome = outcome?;
    let snapshot = outcome.snapshot.take().expect("observed run");
    Ok((outcome.into_base(), snapshot))
}

/// How one chunk gets its slot positions.
enum Positions<'n, R: ?Sized> {
    /// Advance the caller's network from the caller's RNG.
    Walk(&'n mut HybridNetwork, &'n mut R),
    /// Replay `(seed, slot)` counter streams into this chunk's network.
    Counter(&'n mut HybridNetwork, u64),
    /// Stream `(seed, slot)` positions `chunk` at a time into the index.
    Streamed(&'n HybridNetwork, u64, usize),
}

impl<R: ?Sized> Positions<'_, R> {
    fn net(&self) -> &HybridNetwork {
        match self {
            Positions::Walk(net, _) | Positions::Counter(net, _) => net,
            Positions::Streamed(net, ..) => net,
        }
    }
}

/// One contiguous chunk of a run: its slot range, its fault replay (an
/// injector already sought to the chunk start) and the run's shared budget
/// meter.
struct Chunk {
    slots: Range<usize>,
    faults: Option<(FaultInjector, OutagePolicy)>,
    meter: Option<BudgetMeter>,
}

/// What a chunk hands back for the in-order reduction.
struct ChunkOut {
    acc: SlotAcc,
    /// The chunk's injector at its last slot; the last chunk's carries the
    /// end-of-run fault state.
    injector: Option<FaultInjector>,
    snapshot: Option<Snapshot>,
}

/// Per-chunk tallies. Every field is a sum of per-slot contributions
/// (service counts are integer-valued f64s well below 2^53), so
/// [`SlotAcc::absorb`] over any contiguous partition reproduces the
/// sequential totals exactly — this is what makes sharded runs
/// bit-identical to the single-chunk run.
#[derive(Debug, Default)]
struct SlotAcc {
    /// Contacts credited to each resource, indexed by [`Scheme::credit`].
    service: Vec<f64>,
    total_pairs: usize,
    credited: u64,
    alive_sum: usize,
    outage_slots: usize,
    /// Slots this chunk actually processed: equals the chunk length unless
    /// a run budget cut the loop short.
    slots_done: u64,
}

impl SlotAcc {
    fn new(resources: usize) -> Self {
        SlotAcc {
            service: vec![0.0; resources],
            ..SlotAcc::default()
        }
    }

    fn absorb(&mut self, other: SlotAcc) {
        debug_assert_eq!(self.service.len(), other.service.len());
        for (mine, theirs) in self.service.iter_mut().zip(&other.service) {
            *mine += theirs;
        }
        self.total_pairs += other.total_pairs;
        self.credited += other.credited;
        self.alive_sum += other.alive_sum;
        self.outage_slots += other.outage_slots;
        self.slots_done += other.slots_done;
    }
}

/// A run's scheme plus what its chunks and its reduction share.
struct Run<'a, C: Scheme> {
    plan: &'a C::Plan,
    scheme: Arc<C>,
    k: usize,
    slots: usize,
    /// The validated schedule, `None` when there is nothing to inject.
    faults: Option<(Arc<FaultSchedule>, OutagePolicy)>,
    meter: Option<BudgetMeter>,
    timer: SpanTimer,
}

impl<'a, C: Scheme> Run<'a, C> {
    fn new(net: &HybridNetwork, plan: &'a C::Plan, spec: &RunSpec<'_>) -> Result<Self, HycapError> {
        let scheme = C::new(net, plan)?;
        let k = net.k();
        let faults = match spec.faults {
            Some((schedule, policy)) => {
                FaultInjector::new(k, schedule)?;
                // An empty schedule takes the fault-free path bit for bit.
                (!schedule.is_empty()).then(|| (Arc::new(schedule.clone()), policy))
            }
            None => None,
        };
        Ok(Run {
            plan,
            scheme: Arc::new(scheme),
            k,
            slots: spec.slots,
            faults,
            meter: spec.budget.map(|b| b.meter()),
            timer: SpanTimer::start(),
        })
    }

    /// The chunk over `slots`, its injector sought to the chunk start.
    fn chunk(&self, slots: Range<usize>) -> Chunk {
        Chunk {
            faults: self.faults.as_ref().map(|(schedule, policy)| {
                let mut injector =
                    FaultInjector::new(self.k, schedule).expect("schedule validated in Run::new");
                injector.seek(slots.start);
                (injector, *policy)
            }),
            meter: self.meter.clone(),
            slots,
        }
    }

    /// Reduces the chunks in slot order and finalizes once: into `obs`
    /// when the chunks carry no snapshots, else under a fresh recording
    /// observer whose snapshot is merged after theirs.
    fn finish<S: MetricsSink>(
        self,
        outs: Vec<ChunkOut>,
        obs: &mut Observer<S>,
    ) -> Result<FluidOutcome, HycapError> {
        let mut acc = SlotAcc::new(self.scheme.resources());
        let mut tally = FaultTally::default();
        let mut end_injector = None;
        let mut merged: Option<Snapshot> = None;
        for out in outs {
            acc.absorb(out.acc);
            if let Some(injector) = out.injector {
                tally.absorb(&injector.tally());
                end_injector = Some(injector);
            }
            if let Some(snap) = out.snapshot {
                merged.get_or_insert_with(Snapshot::default).merge(&snap);
            }
        }
        let cut = self
            .meter
            .as_ref()
            .and_then(|m| m.exceeded().map(|e| (acc.slots_done, e)));
        let end = RunEnd {
            // A partial report normalizes by the slots that actually ran,
            // so its per-slot rates stay meaningful estimates.
            slots: cut.map_or(self.slots, |_| acc.slots_done.max(1) as usize),
            acc,
            faults: end_injector.map(|injector| (injector, tally)),
            cut,
            micros: self.timer.elapsed_micros(),
        };
        let (report, snapshot) = match merged {
            Some(mut snap) => {
                let mut fin = Observer::recording().with_probes();
                let report = self.finalize(&end, &mut fin)?;
                snap.merge(&fin.snapshot());
                (report, Some(snap))
            }
            None => (self.finalize(&end, obs)?, None),
        };
        let report = match cut {
            None => Budgeted::Complete(report),
            Some((completed_slots, exceeded)) => Budgeted::Interrupted {
                partial: report,
                completed_slots,
                requested_slots: self.slots as u64,
                exceeded,
            },
        };
        Ok(FluidOutcome { report, snapshot })
    }

    /// The scheme's finalizer, plus the counters that mark an interrupted
    /// run so consumers can tell a partial report apart.
    fn finalize<S: MetricsSink>(
        &self,
        end: &RunEnd,
        obs: &mut Observer<S>,
    ) -> Result<DegradedFluidReport, HycapError> {
        let report = self.scheme.finalize(self.plan, end, obs)?;
        if let Some((completed, _)) = end.cut {
            let [interrupted, completed_slots] = C::CUT_COUNTERS;
            obs.sink.counter(interrupted, 1);
            obs.sink.counter(completed_slots, completed);
        }
        Ok(report)
    }
}

/// A run's reduced state, as the finalizers see it.
struct RunEnd {
    acc: SlotAcc,
    /// Slots the report normalizes by: the requested count, or the
    /// completed count when the budget cut the run short.
    slots: usize,
    /// The end-of-run injector and the tally summed over chunks; `None`
    /// on fault-free runs.
    faults: Option<(FaultInjector, FaultTally)>,
    /// `(completed_slots, axis)` when the budget tripped.
    cut: Option<(u64, BudgetExceeded)>,
    /// Run time up to the reduction, for the run span.
    micros: u64,
}

impl RunEnd {
    fn report(&self, (lambda, lambda_typical, bottleneck): (f64, f64, Bottleneck)) -> FluidReport {
        FluidReport {
            lambda,
            lambda_typical,
            bottleneck,
            slots: self.slots,
            scheduled_pairs_per_slot: self.acc.total_pairs as f64 / self.slots as f64,
        }
    }

    /// `base` with the run's fault accounting: the measured alive-BS mean,
    /// outages and tally of a faulted run, all `k` BSs alive otherwise.
    /// Every one of the plan's `flows` rides the infrastructure.
    fn degraded(&self, base: FluidReport, k: usize, flows: usize) -> DegradedFluidReport {
        let (k_alive_mean, tally) = match &self.faults {
            Some((_, tally)) => (self.acc.alive_sum as f64 / self.slots as f64, *tally),
            None => (k as f64, FaultTally::default()),
        };
        DegradedFluidReport {
            base,
            k_alive_mean,
            outage_slots: self.acc.outage_slots,
            infra_flows: flows,
            fallback_flows: 0,
            dead_groups: 0,
            tally,
        }
    }
}

/// Per-scheme accounting behind the slot loop: which resource a scheduled
/// pair serves, and how the reduced tallies become a report. A new routing
/// scheme is one more implementation.
trait Scheme: Sized + Send + Sync + 'static {
    type Plan;

    /// The `interrupted` and `completed_slots` counters of a budget cut.
    const CUT_COUNTERS: [&'static str; 2];

    /// The accounting for `plan` on `net`.
    fn new(net: &HybridNetwork, plan: &Self::Plan) -> Result<Self, HycapError>;

    /// Length of [`SlotAcc::service`].
    fn resources(&self) -> usize;

    /// The resource `pair` serves, if any. `mask` is the slot's fault mask
    /// on faulted runs.
    fn credit(&self, pair: ScheduledPair, mask: Option<&LinkMask>) -> Option<usize>;

    /// The report, run-level probes and metrics from the reduced tallies.
    fn finalize<S: MetricsSink>(
        &self,
        plan: &Self::Plan,
        end: &RunEnd,
        obs: &mut Observer<S>,
    ) -> Result<DegradedFluidReport, HycapError>;
}

/// Scheme A accounting: MS–MS contacts credit the squarelet edge joining
/// the pair's home squarelets, in [`edge_slot`] order.
struct SchemeA {
    n: usize,
    k: usize,
    grid: SquareGrid,
    /// Home squarelet index of each mobile station.
    home_cell: Vec<u32>,
}

impl Scheme for SchemeA {
    type Plan = SchemeAPlan;
    const CUT_COUNTERS: [&'static str; 2] = [
        "fluid.scheme_a.interrupted",
        "fluid.scheme_a.completed_slots",
    ];

    fn new(net: &HybridNetwork, plan: &SchemeAPlan) -> Result<Self, HycapError> {
        let grid = *plan.grid();
        let home_cell = net
            .population()
            .home_points()
            .points()
            .iter()
            .map(|&p| u32::try_from(grid.cell_of(p).index()).expect("squarelet count fits u32"))
            .collect();
        Ok(SchemeA {
            n: net.n(),
            k: net.k(),
            grid,
            home_cell,
        })
    }

    fn resources(&self) -> usize {
        3 * self.grid.cell_count()
    }

    fn credit(&self, pair: ScheduledPair, _mask: Option<&LinkMask>) -> Option<usize> {
        if pair.a >= self.n || pair.b >= self.n {
            return None; // MS–BS contacts do not serve scheme A
        }
        let cell = |node: usize| self.grid.cell_from_index(self.home_cell[node] as usize);
        edge_slot(&self.grid, cell(pair.a), cell(pair.b))
    }

    fn finalize<S: MetricsSink>(
        &self,
        plan: &SchemeAPlan,
        end: &RunEnd,
        obs: &mut Observer<S>,
    ) -> Result<DegradedFluidReport, HycapError> {
        let base = end.report(scheme_a_bottleneck(plan, end.slots, &end.acc.service));
        match &end.faults {
            None => {
                if obs.sink.enabled() {
                    obs.sink.counter("fluid.scheme_a.runs", 1);
                    obs.sink.counter("fluid.scheme_a.slots", end.slots as u64);
                    obs.sink
                        .counter("fluid.scheme_a.credited_contacts", end.acc.credited);
                    obs.sink.observe("fluid.scheme_a.lambda", base.lambda);
                    obs.sink
                        .observe("fluid.scheme_a.lambda_typical", base.lambda_typical);
                    obs.sink.span("fluid.measure_scheme_a", end.micros);
                }
            }
            Some((injector, tally)) => {
                if let Some(probes) = obs.probes_mut() {
                    probes.fault_tally(
                        "fluid scheme A injector",
                        self.k,
                        injector.scripted_mask().alive_count(),
                        injector.alive_count(),
                        tally.bs_crashes + tally.bs_repairs,
                        tally.bernoulli_bs_outages,
                    );
                }
                if obs.sink.enabled() {
                    obs.sink.counter("fluid.scheme_a.faulted_runs", 1);
                    obs.sink
                        .counter("fluid.scheme_a.outage_slots", end.acc.outage_slots as u64);
                }
            }
        }
        Ok(end.degraded(base, self.k, plan.paths().len()))
    }
}

/// Scheme B accounting: MS–BS contacts with a live BS credit the BS's group
/// when the MS is homed in that group.
struct SchemeB {
    n: usize,
    k: usize,
    bandwidth: f64,
    /// Group of each mobile station / base station (`usize::MAX`: none).
    ms_group: Vec<usize>,
    bs_group: Vec<usize>,
    groups: usize,
}

impl Scheme for SchemeB {
    type Plan = SchemeBPlan;
    const CUT_COUNTERS: [&'static str; 2] = [
        "fluid.scheme_b.interrupted",
        "fluid.scheme_b.completed_slots",
    ];

    fn new(net: &HybridNetwork, plan: &SchemeBPlan) -> Result<Self, HycapError> {
        let Some(bs) = net.base_stations() else {
            return Err(HycapError::MissingInfrastructure("scheme B"));
        };
        let (n, k) = (net.n(), net.k());
        let mut ms_group = vec![usize::MAX; n];
        let mut bs_group = vec![usize::MAX; k];
        for g in 0..plan.group_count() {
            for &i in plan.ms_members(g) {
                ms_group[i] = g;
            }
            for &b in plan.bs_members(g) {
                bs_group[b] = g;
            }
        }
        Ok(SchemeB {
            n,
            k,
            bandwidth: bs.bandwidth(),
            ms_group,
            bs_group,
            groups: plan.group_count(),
        })
    }

    fn resources(&self) -> usize {
        self.groups
    }

    fn credit(&self, pair: ScheduledPair, mask: Option<&LinkMask>) -> Option<usize> {
        let n = self.n;
        let (ms, bs) = if pair.a < n && pair.b >= n {
            (pair.a, pair.b - n)
        } else if pair.b < n && pair.a >= n {
            (pair.b, pair.a - n)
        } else {
            return None;
        };
        // Under OccupySpectrum a dead BS can still be scheduled; it serves
        // nothing. Under RadioOff it is never scheduled.
        if mask.is_some_and(|mask| !mask.bs_alive(bs)) {
            return None;
        }
        let g = self.bs_group[bs];
        (g != usize::MAX && self.ms_group[ms] == g).then_some(g)
    }

    fn finalize<S: MetricsSink>(
        &self,
        plan: &SchemeBPlan,
        end: &RunEnd,
        obs: &mut Observer<S>,
    ) -> Result<DegradedFluidReport, HycapError> {
        let backbone = Backbone::new(self.k, self.bandwidth);
        let report = match &end.faults {
            None => {
                let backbone_rate = plan.backbone_load().max_uniform_rate(&backbone);
                let base = end.report(scheme_b_bottleneck(
                    plan.access_load(),
                    &end.acc.service,
                    end.slots,
                    backbone_rate,
                ));
                if let Some(probes) = obs.probes_mut() {
                    // Theorem 5 wire feasibility: at the granted rate, each
                    // group pair's backbone traffic fits its wires; λ never
                    // exceeds the backbone-feasible rate.
                    let load = plan.backbone_load();
                    for ((s, d), count) in load.flows() {
                        let wires = (load.group_size(s) * load.group_size(d)) as f64;
                        probes.rate_budget(
                            "scheme B backbone pair",
                            base.lambda * count,
                            backbone.edge_bandwidth() * wires,
                        );
                    }
                    if backbone_rate.is_finite() {
                        probes.rate_budget(
                            "scheme B lambda vs backbone",
                            base.lambda,
                            backbone_rate,
                        );
                    }
                }
                if obs.sink.enabled() {
                    obs.sink.counter("fluid.scheme_b.runs", 1);
                    obs.sink.counter("fluid.scheme_b.slots", end.slots as u64);
                    obs.sink
                        .counter("fluid.scheme_b.access_contacts", end.acc.credited);
                    obs.sink.observe("fluid.scheme_b.lambda", base.lambda);
                    obs.sink
                        .observe("fluid.scheme_b.lambda_typical", base.lambda_typical);
                    if backbone_rate.is_finite() {
                        obs.sink
                            .observe("fluid.scheme_b.backbone_rate", backbone_rate);
                    }
                    obs.sink.span("fluid.measure_scheme_b", end.micros);
                }
                end.degraded(base, self.k, plan.flows().len())
            }
            Some((injector, tally)) => {
                // Classify flows against the durable fault state: transient
                // Bernoulli outages eat into measured service, scripted
                // deaths re-route the plan.
                let scripted = injector.scripted_mask();
                let alive_bs: Vec<bool> = (0..self.k).map(|b| scripted.bs_alive(b)).collect();
                let degraded = plan.degrade(&alive_bs)?;
                let members: Vec<Vec<usize>> = (0..degraded.group_count())
                    .map(|g| degraded.alive_bs_members(g).to_vec())
                    .collect();
                let backbone_rate = degraded
                    .backbone_load()
                    .max_uniform_rate_masked(&backbone, scripted, &members)?;
                let base = end.report(scheme_b_bottleneck(
                    degraded.access_load(),
                    &end.acc.service,
                    end.slots,
                    backbone_rate,
                ));
                if let Some(probes) = obs.probes_mut() {
                    // Masked Theorem 5 feasibility: each surviving group
                    // pair's traffic at rate λ fits the *effective* wire
                    // bandwidth left by the durable fault state.
                    for ((s, d), count) in degraded.backbone_load().flows() {
                        let mut eff_wires = 0.0;
                        for &a in &members[s] {
                            for &b in &members[d] {
                                eff_wires += scripted.wire_factor(a, b);
                            }
                        }
                        probes.rate_budget(
                            "degraded scheme B backbone pair",
                            base.lambda * count,
                            self.bandwidth * eff_wires,
                        );
                    }
                    if backbone_rate.is_finite() {
                        probes.rate_budget(
                            "degraded scheme B lambda vs backbone",
                            base.lambda,
                            backbone_rate,
                        );
                    }
                    probes.fault_tally(
                        "fluid scheme B injector",
                        self.k,
                        scripted.alive_count(),
                        injector.alive_count(),
                        tally.bs_crashes + tally.bs_repairs,
                        tally.bernoulli_bs_outages,
                    );
                }
                if obs.sink.enabled() {
                    obs.sink.counter("fluid.scheme_b.faulted_runs", 1);
                    obs.sink
                        .counter("fluid.scheme_b.outage_slots", end.acc.outage_slots as u64);
                    obs.sink.counter(
                        "fluid.scheme_b.fallback_flows",
                        degraded.fallback_flows().len() as u64,
                    );
                }
                DegradedFluidReport {
                    infra_flows: degraded.infra_flows().len(),
                    fallback_flows: degraded.fallback_flows().len(),
                    dead_groups: degraded.dead_groups().len(),
                    ..end.degraded(base, self.k, 0)
                }
            }
        };
        Ok(report)
    }
}

/// Median of a mutable slice (0 for an empty slice).
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Dense slot of the scheme-A squarelet edge joining cells `a` and `b` in
/// [`SlotAcc::service`], or `None` when the cells are neither equal nor
/// edge-adjacent (such contacts serve no scheme-A hop).
///
/// Cell `c` owns three slots: `3c` for its self edge, `3c + 1` for the edge
/// to its `col + 1` neighbour and `3c + 2` for the edge to its `row + 1`
/// neighbour (torus-wrapped). The slot depends only on the unordered pair,
/// as [`hycap_routing::edge_key`] does, so on 1- and 2-wide grids, where
/// the wrap makes the `±1` neighbours of a cell coincide, both directions
/// of an aliased edge land in one slot, exactly as they share one key.
fn edge_slot(grid: &SquareGrid, a: Cell, b: Cell) -> Option<usize> {
    if a == b {
        return Some(3 * a.index());
    }
    let s = grid.cells_per_side();
    let next = |i: usize| if i + 1 == s { 0 } else { i + 1 };
    let forward = |from: Cell, to: Cell| {
        if from.row() == to.row() && next(from.col()) == to.col() {
            Some(3 * from.index() + 1)
        } else if from.col() == to.col() && next(from.row()) == to.row() {
            Some(3 * from.index() + 2)
        } else {
            None
        }
    };
    let (lo, hi) = if a.index() <= b.index() {
        (a, b)
    } else {
        (b, a)
    };
    forward(lo, hi).or_else(|| forward(hi, lo))
}

/// Scheme A bottleneck scan over the plan's edge loads. Returns
/// `(lambda, lambda_typical, bottleneck)`. The loads iterate in key order,
/// so the strict `<` reports the smallest edge key among tied minima.
fn scheme_a_bottleneck(
    plan: &SchemeAPlan,
    slots: usize,
    service: &[f64],
) -> (f64, f64, Bottleneck) {
    let grid = plan.grid();
    let mut lambda = f64::INFINITY;
    let mut bottleneck = Bottleneck::Unconstrained;
    let mut ratios = Vec::with_capacity(plan.edge_load().len());
    for (&edge, &load) in plan.edge_load() {
        let (a, b) = (grid.cell_from_index(edge.0), grid.cell_from_index(edge.1));
        let served = edge_slot(grid, a, b).map_or(0.0, |e| service[e]);
        let rate = served / slots as f64;
        let this = rate / load;
        ratios.push(this);
        if rate == 0.0 {
            lambda = 0.0;
            bottleneck = Bottleneck::Starved;
            continue;
        }
        if this < lambda {
            lambda = this;
            bottleneck = Bottleneck::WirelessEdge(edge);
        }
    }
    if lambda.is_infinite() {
        lambda = 0.0;
    }
    (lambda, median(&mut ratios), bottleneck)
}

/// Scheme B bottleneck scan: the backbone rate seeds λ, then each loaded
/// access group may lower it. Returns `(lambda, lambda_typical, bottleneck)`.
fn scheme_b_bottleneck(
    access_load: &[f64],
    service: &[f64],
    slots: usize,
    backbone_rate: f64,
) -> (f64, f64, Bottleneck) {
    let mut lambda = backbone_rate;
    let mut bottleneck = if lambda.is_finite() {
        Bottleneck::Backbone
    } else {
        Bottleneck::Unconstrained
    };
    let mut ratios = Vec::with_capacity(access_load.len());
    for (g, &load) in access_load.iter().enumerate() {
        if load == 0.0 {
            continue;
        }
        let rate = service[g] / slots as f64;
        let this = rate / load;
        ratios.push(this);
        if rate == 0.0 {
            lambda = 0.0;
            bottleneck = Bottleneck::Starved;
            continue;
        }
        if this < lambda {
            lambda = this;
            bottleneck = Bottleneck::Access(g);
        }
    }
    if lambda.is_infinite() {
        lambda = 0.0;
        bottleneck = Bottleneck::Unconstrained;
    }
    let lambda_typical = if ratios.is_empty() {
        lambda
    } else {
        median(&mut ratios).min(backbone_rate)
    };
    (lambda, lambda_typical, bottleneck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycap_infra::BaseStations;
    use hycap_mobility::{ClusteredModel, Kernel, MobilityKind, Population, PopulationConfig};
    use hycap_routing::edge_key;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn uniform_net(n: usize, seed: u64) -> (HybridNetwork, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PopulationConfig::builder(n)
            .alpha(0.25)
            .clusters(ClusteredModel::uniform())
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::IidStationary)
            .build();
        let pop = Population::generate(&config, &mut rng);
        (HybridNetwork::ad_hoc(pop), rng)
    }

    /// The dense edge tally against the keyed map it replaced, on grids
    /// small enough that the torus wrap aliases `±x` / `±y` neighbours.
    #[test]
    fn dense_edge_tally_matches_keyed_map() {
        for side in [1usize, 2, 3] {
            let grid = SquareGrid::with_cells_per_side(side);
            let cells: Vec<Cell> = grid.cells().collect();
            let mut rng = StdRng::seed_from_u64(0xED6E + side as u64);
            let mut keyed: BTreeMap<EdgeKey, f64> = BTreeMap::new();
            let mut dense = SlotAcc::new(3 * grid.cell_count());
            for _ in 0..500 {
                let ca = cells[rng.gen_range(0..cells.len())];
                let cb = cells[rng.gen_range(0..cells.len())];
                if ca == cb || grid.manhattan(ca, cb) == 1 {
                    *keyed.entry(edge_key(ca, cb)).or_insert(0.0) += 1.0;
                }
                if let Some(e) = edge_slot(&grid, ca, cb) {
                    dense.service[e] += 1.0;
                }
            }
            // Every same-or-adjacent key owns a slot of its own, and only
            // those keys have one.
            let mut owner: BTreeMap<usize, EdgeKey> = BTreeMap::new();
            for &a in &cells {
                for &b in &cells {
                    let key = edge_key(a, b);
                    let adjacent = a == b || grid.manhattan(a, b) == 1;
                    assert_eq!(edge_slot(&grid, a, b), edge_slot(&grid, b, a));
                    match edge_slot(&grid, a, b) {
                        Some(e) => {
                            assert!(adjacent, "side {side}: {key:?}");
                            assert_eq!(*owner.entry(e).or_insert(key), key, "side {side}");
                            let want = keyed.get(&key).copied().unwrap_or(0.0);
                            assert_eq!(dense.service[e].to_bits(), want.to_bits());
                        }
                        None => assert!(!adjacent, "side {side}: {key:?}"),
                    }
                }
            }
            let total: f64 = dense.service.iter().sum();
            assert_eq!(total, keyed.values().sum::<f64>(), "side {side}");
            // Merging chunk tallies adds slot by slot.
            let mut merged = SlotAcc::new(3 * grid.cell_count());
            merged.absorb(dense);
            for (&(lo, hi), &count) in &keyed {
                let (a, b) = (grid.cell_from_index(lo), grid.cell_from_index(hi));
                let e = edge_slot(&grid, a, b).expect("credited keys have slots");
                assert_eq!(merged.service[e].to_bits(), count.to_bits());
            }
        }
    }

    #[test]
    fn scheme_a_yields_positive_capacity() {
        let (mut net, mut rng) = uniform_net(600, 1);
        let f = (600f64).powf(0.25);
        let traffic = TrafficMatrix::permutation(600, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let engine = FluidEngine::default();
        let report = engine.measure_scheme_a(&mut net, &plan, 400, &mut rng);
        assert!(
            report.lambda > 0.0,
            "lambda 0, bottleneck {:?}, pairs/slot {}",
            report.bottleneck,
            report.scheduled_pairs_per_slot
        );
        assert!(report.scheduled_pairs_per_slot > 1.0);
    }

    #[test]
    fn scheme_b_yields_positive_capacity() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = PopulationConfig::builder(400)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(64, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(400, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let mut net = HybridNetwork::with_infrastructure(pop, bs);
        let engine = FluidEngine::default();
        let report = engine.measure_scheme_b(&mut net, &plan, 400, &mut rng);
        assert!(
            report.lambda > 0.0,
            "lambda 0, bottleneck {:?}",
            report.bottleneck
        );
    }

    #[test]
    fn scheme_b_backbone_limited_when_c_tiny() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = PopulationConfig::builder(300)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(64, 1e-6);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(300, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let mut net = HybridNetwork::with_infrastructure(pop, bs);
        let report = FluidEngine::default().measure_scheme_b(&mut net, &plan, 200, &mut rng);
        assert_eq!(report.bottleneck, Bottleneck::Backbone);
        assert!(report.lambda > 0.0 && report.lambda < 1e-4);
    }

    #[test]
    fn two_hop_beats_scheme_a_in_dense_full_mobility() {
        // f = Θ(1): two-hop achieves Θ(1) while scheme A's grid degenerates.
        let mut rng = StdRng::seed_from_u64(4);
        let config = PopulationConfig::builder(200)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let mut net = HybridNetwork::ad_hoc(pop);
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let plan = TwoHopPlan::build(&traffic, &mut rng);
        let report =
            FluidEngine::default().measure_two_hop(&mut net, &plan, &traffic, 600, &mut rng);
        assert!(report.mean_rate > 0.0, "two-hop starved");
        assert_eq!(report.flows, 200);
    }

    #[test]
    fn budgeted_within_budget_is_bit_identical() {
        let (net, mut rng) = uniform_net(200, 21);
        let f = (200f64).powf(0.25);
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let engine = FluidEngine::default();
        let run = || FluidRun::counter(&net, &plan, 60, 9);
        let plain = engine.measure(run(), &mut Observer::noop()).unwrap();
        let budgeted = engine
            .measure(run().budget(RunBudget::unlimited()), &mut Observer::noop())
            .unwrap();
        assert!(budgeted.report.is_complete());
        assert_eq!(budgeted.report, plain.report);
        assert_eq!(
            budgeted.into_base().lambda.to_bits(),
            plain.into_base().lambda.to_bits()
        );
    }

    #[test]
    fn static_schedule_memo_is_bit_identical() {
        // Static mobility engages the Level-2 schedule memo on every slot;
        // the run must be bit-identical to the memo-free engine, report and
        // observed snapshot alike, including under fault-driven mask churn.
        let mut rng = StdRng::seed_from_u64(77);
        let config = PopulationConfig::builder(220)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::Static)
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(16, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(220, &mut rng);
        let plan_a = SchemeAPlan::build(&homes, &traffic, (220f64).powf(0.25));
        let plan_b = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let net = HybridNetwork::with_infrastructure(pop, bs);
        assert!(net.positions_static());
        let on = FluidEngine::default();
        let off = on.without_schedule_memo();
        // Fault churn: scripted crash/repair plus per-slot Bernoulli
        // outage masks — the memo must invalidate on every transition.
        let schedule = FaultSchedule::empty()
            .crash_bs(10, 0)
            .repair_bs(40, 0)
            .with_bernoulli_bs_outage(0.2, 9);
        let compare = |with_memo: FluidRun<'_>, without: FluidRun<'_>| {
            let a = on
                .measure(with_memo, &mut Observer::recording().with_probes())
                .unwrap();
            let b = off
                .measure(without, &mut Observer::recording().with_probes())
                .unwrap();
            assert_eq!(a.report, b.report);
            assert_eq!(
                a.degraded().base.lambda.to_bits(),
                b.degraded().base.lambda.to_bits()
            );
            assert_eq!(
                a.snapshot.expect("observed").to_json(),
                b.snapshot.expect("observed").to_json()
            );
        };
        let plain = || FluidRun::counter(&net, &plan_a, 80, 5);
        compare(plain(), plain());
        let faulted =
            || FluidRun::counter(&net, &plan_b, 60, 5).faults(&schedule, OutagePolicy::RadioOff);
        compare(faulted(), faulted());
    }

    #[test]
    fn budgeted_slot_cap_interrupts_with_partial_report() {
        let (net, mut rng) = uniform_net(200, 22);
        let f = (200f64).powf(0.25);
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let engine = FluidEngine::default();
        let budget = RunBudget::unlimited().with_max_slots(10);
        let outcome = engine
            .measure(
                FluidRun::counter(&net, &plan, 100, 9).budget(budget),
                &mut Observer::recording().with_probes(),
            )
            .unwrap();
        let snap = outcome.snapshot.expect("observed");
        let Budgeted::Interrupted {
            partial,
            completed_slots,
            requested_slots,
            exceeded,
        } = outcome.report
        else {
            panic!("slot cap of 10 on a 100-slot run must interrupt");
        };
        assert_eq!(completed_slots, 10);
        assert_eq!(requested_slots, 100);
        assert_eq!(exceeded, BudgetExceeded::Slots);
        // Partial report normalizes by the completed slots.
        assert_eq!(partial.base.slots, 10);
        assert_eq!(snap.counter("fluid.scheme_a.interrupted"), 1);
        assert_eq!(snap.counter("fluid.scheme_a.completed_slots"), 10);
        // The typed unwrap maps to exit code 4.
        let err = Budgeted::Interrupted {
            partial,
            completed_slots,
            requested_slots,
            exceeded,
        }
        .into_complete("fluid scheme A")
        .unwrap_err();
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn scheme_b_budgeted_event_free_axes_complete() {
        let mut rng = StdRng::seed_from_u64(23);
        let config = PopulationConfig::builder(200)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::IidStationary)
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(16, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let net = HybridNetwork::with_infrastructure(pop, bs);
        let engine = FluidEngine::default();
        let run = || FluidRun::counter(&net, &plan, 40, 3);
        let plain = engine.measure(run(), &mut Observer::noop()).unwrap();
        let budgeted = engine
            .measure(
                run().budget(RunBudget::unlimited().with_max_slots(40)),
                &mut Observer::noop(),
            )
            .unwrap();
        assert!(
            budgeted.report.is_complete(),
            "cap equal to slots must complete"
        );
        assert_eq!(
            budgeted.into_base().lambda.to_bits(),
            plain.into_base().lambda.to_bits()
        );
    }

    #[test]
    fn walk_rejects_pool_and_counter_rejects_walk_only_mobility() {
        let (mut net, mut rng) = uniform_net(60, 24);
        let traffic = TrafficMatrix::permutation(60, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, 2.0);
        let engine = FluidEngine::default();
        let pool = WorkerPool::new(2);
        let err = engine
            .measure(
                FluidRun::walk(&mut net, &plan, 10, &mut rng).pool(&pool),
                &mut Observer::noop(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("pool"), "{err}");
        let err = engine
            .measure(
                FluidRun::streamed(&net, &plan, 10, 1, 0),
                &mut Observer::noop(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("chunk"), "{err}");
    }

    #[test]
    fn engine_accessors() {
        let e = FluidEngine::new(1.0, 0.3);
        assert_eq!(e.delta(), 1.0);
        assert_eq!(e.c_t(), 0.3);
        assert!((e.range_for(900) - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires base stations")]
    fn scheme_b_requires_bs() {
        let (mut net, mut rng) = uniform_net(50, 5);
        let traffic = TrafficMatrix::permutation(50, &mut rng);
        let bs = BaseStations::generate_regular(4, 1.0);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 2);
        let _ = FluidEngine::default().measure_scheme_b(&mut net, &plan, 10, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let (mut net, mut rng) = uniform_net(50, 6);
        let traffic = TrafficMatrix::permutation(50, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, 2.0);
        let _ = FluidEngine::default().measure_scheme_a(&mut net, &plan, 0, &mut rng);
    }
}
