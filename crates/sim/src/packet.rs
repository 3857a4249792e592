//! The packet-level (slotted queueing) capacity engine.
//!
//! Where the fluid engine reasons about average service rates, this engine
//! runs the network "for real": sources inject packets, relays buffer them
//! ("buffering at intermediate nodes when awaiting transmission",
//! Definition 5), and a flow's packets advance only when the `S*` scheduler
//! activates the pair holding its next hop. Capacity is the stability
//! boundary of steady injection at rate `λ`, found by bisection
//! ([`PacketEngine::find_capacity`]).
//!
//! Packets have size `W/2`, so one scheduled pair moves one packet in each
//! direction per slot (the Definition 10 equal two-way bandwidth split).
//!
//! This module holds the engine's configuration (protocol constants,
//! [`Pacing`], clock origin, run budget) and the statistics types; every
//! run, steady or finite-flow, is one [`FlowRun`](crate::FlowRun) through
//! the event loop of [`PacketEngine::run_flows`] (`flows.rs`).

use crate::budget::RunBudget;
use crate::events::EventQueue;
use crate::pool::WorkerPool;
use crate::HybridNetwork;
use hycap_errors::HycapError;
use hycap_obs::{MetricsSink, Observer};
use std::ops::Range;

/// Statistics of one packet-level run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketStats {
    /// Packets injected by all sources.
    pub injected: u64,
    /// Packets delivered to their destinations.
    pub delivered: u64,
    /// Delivered packets per slot per node (the empirical per-node
    /// throughput, in packets of size `W/2`).
    pub throughput_per_node: f64,
    /// Mean slots from injection to delivery, over delivered packets.
    pub mean_delay: f64,
    /// Packets still buffered at the end of the run.
    pub backlog: u64,
    /// Slots simulated.
    pub slots: usize,
}

impl PacketStats {
    /// Delivery ratio `delivered/injected` (1.0 for an idle run).
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Builds stats from raw totals, guarding the derived metrics against
    /// empty-run poisoning: `mean_delay` is `0.0` when nothing was
    /// delivered and `throughput_per_node` is `0.0` on a degenerate
    /// `slots`/`nodes` denominator, so NaN/inf never leak into
    /// `hycap-metrics/1` JSON snapshots.
    pub fn from_totals(
        injected: u64,
        delivered: u64,
        delay_sum: u64,
        backlog: u64,
        slots: usize,
        nodes: usize,
    ) -> Self {
        PacketStats {
            injected,
            delivered,
            throughput_per_node: if slots == 0 || nodes == 0 {
                0.0
            } else {
                delivered as f64 / (slots as f64 * nodes as f64)
            },
            mean_delay: if delivered == 0 {
                0.0
            } else {
                delay_sum as f64 / delivered as f64
            },
            backlog,
            slots,
        }
    }
}

/// How a run paces its slot loop.
///
/// See DESIGN.md §15 ("Demand-driven slot anatomy") for the full
/// soundness argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Walk every slot and advance mobility through the run's sequential
    /// RNG stream — the historical engine, bit-identical to every
    /// pre-demand seed pin.
    Legacy,
    /// Demand-driven: mobility is sampled counter-style from
    /// `(seed, slot)` and the heavy slot body (mobility + scheduling +
    /// transmission) runs only on slots that hold queued traffic. Requires
    /// counter-samplable mobility
    /// ([`HybridNetwork::counter_samplable`]); statistics are a pure
    /// function of `seed` and the workload, independent of `skip` and
    /// `active_set`.
    Demand {
        /// Seed of the counter-based mobility stream. Independent of the
        /// run's `rng` argument, which demand runs use only for
        /// non-mobility draws (e.g. relay materialization).
        seed: u64,
        /// Fast-forward stretches of idle slots in bulk through
        /// `EventQueue::skip_boundaries` instead of walking them one
        /// boundary at a time. `false` is the `--no-skip` reference walk:
        /// same slot-by-slot decisions, every boundary materialized.
        /// Statistics and snapshots are bit-identical either way (pinned
        /// by the `pacing_identity` suite).
        skip: bool,
        /// Restrict `S*` enumeration on active slots of finite-flow chains
        /// runs to the nodes adjacent to queued packets
        /// ([`hycap_wireless::SStarScheduler::schedule_active_into`]);
        /// steady runs always schedule the full network. `false` schedules
        /// the full network on every active slot — the reference the
        /// active-set path is pinned against. Packet motion and
        /// [`crate::FlowRunStats`] are identical either way; snapshots
        /// record the reduction under `schedule.active_nodes`.
        active_set: bool,
    },
}

/// Slot-pacing accounting of one demand-paced run, reported in every
/// [`FlowOutcome`](crate::FlowOutcome) so benches and the CLI can show how
/// much of the horizon was actually worked.
///
/// Identical between `skip` and `--no-skip` runs of the same workload
/// (only `fast_forwarded` differs): idleness is a property of the traffic,
/// not of how the engine walks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacingTrace {
    /// Slots the run simulated (or was cut off at, under a budget).
    pub slots: u64,
    /// Slots whose heavy body (mobility + scheduling + transmission) was
    /// gated off because no packet was queued.
    pub idle_slots: u64,
    /// Idle slot boundaries fast-forwarded in bulk rather than walked
    /// (always `<= idle_slots`; `0` when `skip` is off or pacing is
    /// legacy).
    pub fast_forwarded: u64,
}

impl PacingTrace {
    /// Fraction of simulated slots that were idle, in `[0, 1]` (`0.0` for
    /// an empty run).
    pub fn skip_ratio(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.idle_slots as f64 / self.slots as f64
        }
    }
}

/// The packet-level engine (same protocol parameters as the fluid engine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketEngine {
    pub(crate) delta: f64,
    pub(crate) c_t: f64,
    pub(crate) base_slot: u64,
    pub(crate) budget: Option<RunBudget>,
    pub(crate) pacing: Pacing,
}

impl PacketEngine {
    /// Creates an engine with guard factor `Δ` and range constant `c_T`.
    ///
    /// This is the panicking convenience for hand-written parameters; code
    /// handling untrusted input (the CLI, config files) should use
    /// [`PacketEngine::try_new`] and surface the typed error instead.
    ///
    /// # Panics
    ///
    /// Panics if `c_T` is not positive and finite or `Δ` is not
    /// non-negative and finite.
    pub fn new(delta: f64, c_t: f64) -> Self {
        match Self::try_new(delta, c_t) {
            Ok(engine) => engine,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`PacketEngine::new`]: validates `Δ` and `c_T` and returns
    /// a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] if `c_T` is not positive and finite
    /// or `Δ` is not non-negative and finite.
    pub fn try_new(delta: f64, c_t: f64) -> Result<Self, HycapError> {
        if !(c_t > 0.0 && c_t.is_finite()) {
            return Err(HycapError::invalid(
                "c_T",
                format!("c_T must be positive and finite, got {c_t}"),
            ));
        }
        if !(delta >= 0.0 && delta.is_finite()) {
            return Err(HycapError::invalid(
                "delta",
                format!("Δ must be non-negative and finite, got {delta}"),
            ));
        }
        Ok(PacketEngine {
            delta,
            c_t,
            base_slot: 0,
            budget: None,
            pacing: Pacing::Legacy,
        })
    }

    /// Returns a copy of this engine with an explicit slot pacing.
    pub fn with_pacing(mut self, pacing: Pacing) -> Self {
        self.pacing = pacing;
        self
    }

    /// Returns a copy of this engine running demand-driven pacing with all
    /// optimizations on: idle-slot fast-forward and active-set scheduling,
    /// with mobility sampled counter-style from `seed`.
    ///
    /// Equivalent to `with_pacing(Pacing::Demand { seed, skip: true,
    /// active_set: true })`.
    pub fn with_demand_pacing(self, seed: u64) -> Self {
        self.with_pacing(Pacing::Demand {
            seed,
            skip: true,
            active_set: true,
        })
    }

    /// The slot pacing runs of this engine use ([`Pacing::Legacy`] unless
    /// overridden).
    pub fn pacing(&self) -> Pacing {
        self.pacing
    }

    /// The demand parameters `(seed, skip, active_set)` when this engine is
    /// demand-paced, after validating that `net` supports counter-based
    /// slot sampling (skipping under the sequential mobility stream would
    /// desynchronize every later slot).
    pub(crate) fn demand_params(
        &self,
        net: &HybridNetwork,
    ) -> Result<Option<(u64, bool, bool)>, HycapError> {
        match self.pacing {
            Pacing::Legacy => Ok(None),
            Pacing::Demand {
                seed,
                skip,
                active_set,
            } => {
                if !net.counter_samplable() {
                    return Err(HycapError::invalid(
                        "pacing",
                        "demand pacing requires counter-samplable mobility \
                         (i.i.d. stationary or static); history-dependent \
                         models must run legacy pacing",
                    ));
                }
                Ok(Some((seed, skip, active_set)))
            }
        }
    }

    /// Returns a copy of this engine whose runs start at absolute slot
    /// `base_slot` instead of 0.
    ///
    /// Timestamps and delays are computed on the absolute slot index;
    /// scheduling and TDMA phases use the relative index, so the dynamics
    /// are unchanged — only the clock origin moves. This exercises the
    /// 64-bit timestamp path (the pre-refactor engine stored `slot as u32`
    /// and wrapped past 2³² slots).
    pub fn with_base_slot(mut self, base_slot: u64) -> Self {
        self.base_slot = base_slot;
        self
    }

    /// The absolute slot index at which runs start (0 unless overridden by
    /// [`PacketEngine::with_base_slot`]).
    pub fn base_slot(&self) -> u64 {
        self.base_slot
    }

    /// Returns a copy of this engine with a run budget armed. Every
    /// event-core run started by this engine gets its **own** fresh meter
    /// (the budget bounds one run, not the engine's lifetime): the run's
    /// drain loop stops at the first exhausted axis.
    ///
    /// On exhaustion, [`PacketEngine::run_flows`] fails with
    /// [`hycap_errors::HycapError::Interrupted`] (CLI exit code 4) and the
    /// partial tallies stay visible in the run's `hycap-metrics/1` snapshot
    /// under `*.interrupted` / `*.completed_slots`.
    ///
    /// A budget that never trips leaves every statistic bit-identical to an
    /// unbudgeted run.
    pub fn with_run_budget(mut self, budget: RunBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The armed run budget, if any.
    pub fn run_budget(&self) -> Option<RunBudget> {
        self.budget
    }

    /// Builds the event queue for one run, armed with a fresh meter for
    /// this engine's budget (unlimited budgets stay unarmed so the hot pop
    /// path skips the atomics).
    pub(crate) fn event_queue(&self) -> EventQueue {
        let mut events = EventQueue::new();
        if let Some(b) = self.budget {
            if !b.is_unlimited() {
                events.set_budget(b.meter());
            }
        }
        events
    }

    /// Runs one packet-level replication per seed on `pool`, returning the
    /// results in seed order.
    ///
    /// Queue dynamics are inherently sequential in the slot index, so unlike
    /// the fluid engine the packet engine does not shard a single run;
    /// instead whole replications (independent seeds) are the unit of
    /// parallelism. `f` receives a copy of this engine plus the seed and
    /// typically builds its network and RNG from the seed, so the result
    /// vector is a pure function of `seeds` regardless of thread count.
    pub fn run_replications<T, F>(&self, seeds: &[u64], pool: &WorkerPool, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(PacketEngine, u64) -> T + Send + Sync + 'static,
    {
        let engine = *self;
        let f = std::sync::Arc::new(f);
        pool.run(
            seeds
                .iter()
                .map(|&seed| {
                    let f = std::sync::Arc::clone(&f);
                    move || f(engine, seed)
                })
                .collect(),
        )
    }

    /// Bisects for the stability boundary: the largest `λ` in `bracket`
    /// whose probe run keeps its delivery ratio at or above `threshold`,
    /// after `iters` halvings. `probe(engine, λ, obs)` runs one steady run
    /// at rate `λ` — typically [`PacketEngine::run_flows`] over a
    /// [`Steady`](crate::Steady) workload on a freshly built network, so
    /// probes are comparable — and returns its statistics. The bisection
    /// adds a convergence metric (`packet.bisect.iterations`) and records
    /// the final boundary (`packet.bisect.capacity`).
    ///
    /// `threshold` should be below 1 with slack for packets legitimately in
    /// flight at the end of the run (mean delay / slots); `0.6`–`0.85` works
    /// well in practice.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] on an empty bisection interval or
    /// `threshold ∉ (0, 1]`, and any error of a probe run.
    pub fn find_capacity<S: MetricsSink>(
        &self,
        bracket: Range<f64>,
        iters: usize,
        threshold: f64,
        obs: &mut Observer<S>,
        mut probe: impl FnMut(&PacketEngine, f64, &mut Observer<S>) -> Result<PacketStats, HycapError>,
    ) -> Result<f64, HycapError> {
        let Range {
            start: mut lo,
            end: mut hi,
        } = bracket;
        if !(lo >= 0.0 && hi > lo) {
            return Err(HycapError::invalid(
                "interval",
                format!("invalid bisection interval [{lo}, {hi}]"),
            ));
        }
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(HycapError::invalid(
                "threshold",
                format!("threshold must be in (0, 1], got {threshold}"),
            ));
        }
        for _ in 0..iters {
            let mid = 0.5 * (lo + hi);
            if probe(self, mid, obs)?.delivery_ratio() >= threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        if obs.sink.enabled() {
            obs.sink.counter("packet.bisect.iterations", iters as u64);
            obs.sink.observe("packet.bisect.capacity", lo);
        }
        Ok(lo)
    }
}

impl Default for PacketEngine {
    fn default() -> Self {
        PacketEngine::new(0.5, 0.4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowRun, Steady};
    use hycap_infra::BaseStations;
    use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
    use hycap_routing::{SchemeAPlan, SchemeBPlan, TrafficMatrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_net(n: usize, seed: u64) -> (HybridNetwork, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PopulationConfig::builder(n)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::IidStationary)
            .build();
        let pop = Population::generate(&config, &mut rng);
        (HybridNetwork::ad_hoc(pop), rng)
    }

    /// A steady run's statistics.
    fn steady(
        engine: &PacketEngine,
        run: FlowRun<'_, StdRng, Steady>,
    ) -> Result<PacketStats, HycapError> {
        engine
            .run_flows(run, &mut Observer::noop())
            .map(|o| o.stats)
    }

    /// Steady chains over `net` at `lambda` for `slots` slots.
    fn chains(
        engine: &PacketEngine,
        net: &mut HybridNetwork,
        chains: &[Vec<usize>],
        lambda: f64,
        slots: usize,
        rng: &mut StdRng,
    ) -> Result<PacketStats, HycapError> {
        let load = Steady::new(lambda, slots);
        steady(engine, FlowRun::chains(net, chains, &load, rng))
    }

    #[test]
    fn zero_rate_run_is_clean() {
        let (mut net, mut rng) = dense_net(50, 1);
        let direct = vec![vec![0, 1]; 1];
        let stats = chains(
            &PacketEngine::default(),
            &mut net,
            &direct,
            0.0,
            50,
            &mut rng,
        )
        .unwrap();
        assert_eq!(stats.injected, 0);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.backlog, 0);
        // Empty runs must not poison derived metrics: 0.0, not NaN, so
        // nothing non-finite leaks into hycap-metrics/1 snapshots.
        assert_eq!(stats.mean_delay, 0.0);
        assert_eq!(stats.throughput_per_node, 0.0);
        assert_eq!(stats.delivery_ratio(), 1.0);
    }

    #[test]
    fn budgeted_chains_run_interrupts_with_exit_code_4() {
        let (mut net, mut rng) = dense_net(50, 1);
        let direct = vec![vec![0, 1]; 1];
        let engine =
            PacketEngine::default().with_run_budget(RunBudget::unlimited().with_max_slots(10));
        let err = chains(&engine, &mut net, &direct, 0.1, 100, &mut rng).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        let msg = err.to_string();
        assert!(msg.contains("10/100"), "{msg}");
        assert!(msg.contains("slot budget"), "{msg}");
    }

    #[test]
    fn budget_that_never_trips_is_bit_identical() {
        let direct = vec![vec![0, 1]; 1];
        let (mut net_a, mut rng_a) = dense_net(50, 4);
        let plain = chains(
            &PacketEngine::default(),
            &mut net_a,
            &direct,
            0.1,
            50,
            &mut rng_a,
        );
        let (mut net_b, mut rng_b) = dense_net(50, 4);
        let engine =
            PacketEngine::default().with_run_budget(RunBudget::unlimited().with_max_slots(50));
        let budgeted = chains(&engine, &mut net_b, &direct, 0.1, 50, &mut rng_b);
        assert_eq!(plain.unwrap(), budgeted.unwrap());
    }

    #[test]
    fn steady_fast_forward_stops_at_each_injection_slot() {
        // λ = 0.01 injects once every 100 slots: idle stretches between
        // injections are skipped, and every injection slot still runs.
        let direct = vec![vec![0, 1], vec![2, 3]];
        let run = |skip: bool| {
            let (mut net, mut rng) = dense_net(50, 9);
            let load = Steady::new(0.01, 1000);
            let engine = PacketEngine::default().with_pacing(Pacing::Demand {
                seed: 3,
                skip,
                active_set: false,
            });
            let run = FlowRun::chains(&mut net, &direct, &load, &mut rng);
            engine.run_flows(run, &mut Observer::noop()).unwrap()
        };
        let (walked, skipped) = (run(false), run(true));
        assert_eq!(walked.stats.injected, 20);
        assert!(walked.stats.delivered > 0, "{:?}", walked.stats);
        assert_eq!(walked.stats, skipped.stats);
        assert_eq!(walked.trace.idle_slots, skipped.trace.idle_slots);
        assert_eq!(walked.trace.fast_forwarded, 0);
        assert!(skipped.trace.fast_forwarded > 0, "{:?}", skipped.trace);
    }

    #[test]
    fn low_rate_direct_chains_deliver() {
        let (mut net, mut rng) = dense_net(100, 2);
        let traffic = TrafficMatrix::permutation(100, &mut rng);
        let direct: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        // Direct-pair link capacity is ~πc_T²·e^{-π(1+Δ)²c_T²}/n ≈ 0.0016
        // per slot; inject well below it.
        let engine = PacketEngine::default();
        let stats = chains(&engine, &mut net, &direct, 0.0004, 6000, &mut rng).unwrap();
        assert!(stats.injected > 0);
        assert!(
            stats.delivery_ratio() > 0.5,
            "delivery ratio {} (delivered {}, injected {})",
            stats.delivery_ratio(),
            stats.delivered,
            stats.injected
        );
        assert!(stats.mean_delay > 0.0);
    }

    #[test]
    fn overload_grows_backlog() {
        let (mut net, mut rng) = dense_net(100, 3);
        let traffic = TrafficMatrix::permutation(100, &mut rng);
        let direct: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        let engine = PacketEngine::default();
        let stats = chains(&engine, &mut net, &direct, 0.5, 400, &mut rng).unwrap();
        assert!(
            stats.delivery_ratio() < 0.5,
            "overload delivered too much: {}",
            stats.delivery_ratio()
        );
        assert!(stats.backlog > stats.delivered);
    }

    #[test]
    fn multihop_chains_route_through_relays() {
        let (mut net, mut rng) = dense_net(120, 4);
        let traffic = TrafficMatrix::permutation(120, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, 2.0);
        let relays = plan.materialize_relays(&traffic, &mut rng);
        let engine = PacketEngine::default();
        let stats = chains(&engine, &mut net, &relays, 0.001, 3000, &mut rng).unwrap();
        assert!(
            stats.delivered > 0,
            "nothing delivered through relay chains"
        );
    }

    #[test]
    fn scheme_b_packets_flow_end_to_end() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = PopulationConfig::builder(150)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(16, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(150, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let mut net = HybridNetwork::with_infrastructure(pop, bs);
        let load = Steady::new(0.002, 2500);
        let run = FlowRun::scheme_b(&mut net, &plan, &load, &mut rng);
        let stats = steady(&PacketEngine::default(), run).unwrap();
        assert!(stats.injected > 0);
        assert!(
            stats.delivered > 0,
            "scheme B delivered nothing (backlog {})",
            stats.backlog
        );
    }

    #[test]
    fn find_capacity_brackets_stability() {
        let mut rng = StdRng::seed_from_u64(6);
        let traffic = TrafficMatrix::permutation(80, &mut rng);
        let direct: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        let config = PopulationConfig::builder(80)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let cap = PacketEngine::default()
            .find_capacity(
                0.0..0.02,
                5,
                0.6,
                &mut Observer::noop(),
                |engine, lambda, obs| {
                    let mut net = HybridNetwork::ad_hoc(Population::generate(&config, &mut rng));
                    let load = Steady::new(lambda, 3000);
                    let run = FlowRun::chains(&mut net, &direct, &load, &mut rng);
                    engine.run_flows(run, obs).map(|o| o.stats)
                },
            )
            .unwrap();
        assert!(cap > 0.0, "capacity collapsed to zero");
        assert!(cap < 0.02, "capacity did not separate from the bracket top");
    }

    #[test]
    fn short_chain_rejected() {
        let (mut net, mut rng) = dense_net(10, 7);
        let short = vec![vec![0]];
        let err = chains(
            &PacketEngine::default(),
            &mut net,
            &short,
            0.1,
            10,
            &mut rng,
        )
        .unwrap_err();
        assert!(
            matches!(err, HycapError::InvalidParameter { name: "chains", .. }),
            "unexpected error {err:?}"
        );
        assert!(err.to_string().contains("at least two nodes"));
    }

    #[test]
    fn bad_run_parameters_are_typed_errors() {
        let (mut net, mut rng) = dense_net(10, 8);
        let direct = vec![vec![0, 1]];
        let engine = PacketEngine::default();
        assert!(matches!(
            chains(&engine, &mut net, &direct, 0.1, 0, &mut rng),
            Err(HycapError::InvalidParameter { name: "slots", .. })
        ));
        for lambda in [-0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                chains(&engine, &mut net, &direct, lambda, 10, &mut rng),
                Err(HycapError::InvalidParameter { name: "lambda", .. })
            ));
        }
        let unreachable =
            |_: &PacketEngine, _: f64, _: &mut Observer<_>| -> Result<PacketStats, HycapError> {
                unreachable!("bisection must not start")
            };
        assert!(matches!(
            engine.find_capacity(0.5..0.5, 3, 0.6, &mut Observer::noop(), unreachable),
            Err(HycapError::InvalidParameter {
                name: "interval",
                ..
            })
        ));
        assert!(matches!(
            engine.find_capacity(0.0..0.5, 3, 1.5, &mut Observer::noop(), unreachable),
            Err(HycapError::InvalidParameter {
                name: "threshold",
                ..
            })
        ));
    }

    mod scheme_c {
        use super::*;
        use hycap_geom::{Point, Torus};
        use hycap_infra::CellularLayout;
        use hycap_routing::SchemeCPlan;

        fn setup(n: usize, seed: u64) -> (SchemeCPlan, CellularLayout, TrafficMatrix) {
            let mut rng = StdRng::seed_from_u64(seed);
            let torus = Torus::UNIT;
            let centers = vec![Point::new(0.25, 0.25), Point::new(0.75, 0.75)];
            let radius = 0.1;
            let mut positions = Vec::with_capacity(n);
            let mut cluster_of = Vec::with_capacity(n);
            for i in 0..n {
                let c = i % 2;
                cluster_of.push(c);
                positions.push(torus.sample_in_disk(&mut rng, centers[c], radius * 0.9));
            }
            let layout = CellularLayout::build(&centers, radius, 20);
            let traffic = TrafficMatrix::permutation(n, &mut rng);
            let plan = SchemeCPlan::build(&positions, &cluster_of, &layout, &traffic);
            (plan, layout, traffic)
        }

        /// Steady scheme C at `lambda` for `slots` slots over wires of
        /// bandwidth `c`.
        fn run(
            (plan, layout, traffic): &(SchemeCPlan, CellularLayout, TrafficMatrix),
            c: f64,
            lambda: f64,
            slots: usize,
        ) -> PacketStats {
            let load = Steady::new(lambda, slots);
            let run = FlowRun::scheme_c(plan, layout, traffic, c, &load);
            steady(&PacketEngine::default(), run).unwrap()
        }

        #[test]
        fn scheme_c_tdma_delivers_below_analytic_rate() {
            let setup = setup(120, 31);
            let backbone = hycap_infra::Backbone::new(setup.1.total_cells(), 1.0);
            let analytic = setup.0.analytic_rate_with_traffic(&backbone, &setup.2);
            if analytic == 0.0 {
                return; // an uncovered endpoint in this draw; nothing to check
            }
            let low = run(&setup, 1.0, 0.3 * analytic, 4000);
            assert!(low.injected > 0);
            assert!(
                low.delivery_ratio() > 0.7,
                "below-capacity run failed to deliver: ratio {} (analytic {analytic})",
                low.delivery_ratio()
            );
        }

        #[test]
        fn scheme_c_tdma_saturates_above_capacity() {
            let setup = setup(120, 32);
            let backbone = hycap_infra::Backbone::new(setup.1.total_cells(), 1.0);
            let analytic = setup.0.analytic_rate_with_traffic(&backbone, &setup.2);
            if analytic == 0.0 {
                return;
            }
            let high = run(&setup, 1.0, 30.0 * analytic, 1500);
            assert!(
                high.delivery_ratio() < 0.7,
                "over-capacity run delivered too much: {}",
                high.delivery_ratio()
            );
            assert!(high.backlog > 0);
        }

        #[test]
        fn scheme_c_tdma_is_deterministic() {
            let setup = setup(60, 33);
            let a = run(&setup, 1.0, 0.01, 500);
            let b = run(&setup, 1.0, 0.01, 500);
            assert!(
                a.injected > 0,
                "rate too low to exercise the TDMA machinery"
            );
            assert_eq!(a, b);
        }

        #[test]
        fn scheme_c_zero_rate_is_clean() {
            let stats = run(&setup(40, 34), 1.0, 0.0, 100);
            assert_eq!(stats.injected, 0);
            assert_eq!(stats.delivered, 0);
            assert_eq!(stats.backlog, 0);
        }
    }

    mod scheme_a {
        use super::*;

        fn setup(n: usize, seed: u64) -> (HybridNetwork, SchemeAPlan, TrafficMatrix, StdRng) {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = PopulationConfig::builder(n)
                .alpha(0.25)
                .kernel(Kernel::uniform_disk(1.0))
                .build();
            let pop = Population::generate(&config, &mut rng);
            let homes = pop.home_points().points().to_vec();
            let traffic = TrafficMatrix::permutation(n, &mut rng);
            let plan = SchemeAPlan::build(&homes, &traffic, (n as f64).powf(0.25));
            (HybridNetwork::ad_hoc(pop), plan, traffic, rng)
        }

        /// Steady scheme A (any-member relaying) at `lambda`.
        fn run(
            net: &mut HybridNetwork,
            plan: &SchemeAPlan,
            traffic: &TrafficMatrix,
            lambda: f64,
            slots: usize,
            rng: &mut StdRng,
        ) -> PacketStats {
            let load = Steady::new(lambda, slots);
            let run = FlowRun::scheme_a(net, plan, traffic, &load, rng);
            steady(&PacketEngine::default(), run).unwrap()
        }

        #[test]
        fn scheme_a_packets_deliver_at_low_load() {
            let (mut net, plan, traffic, mut rng) = setup(150, 41);
            let stats = run(&mut net, &plan, &traffic, 0.0008, 3000, &mut rng);
            assert!(stats.injected > 0);
            assert!(
                stats.delivery_ratio() > 0.5,
                "low-load scheme A delivered only {:.2}",
                stats.delivery_ratio()
            );
            assert!(stats.mean_delay > 0.0);
        }

        #[test]
        fn scheme_a_saturates_under_overload() {
            let (mut net, plan, traffic, mut rng) = setup(150, 42);
            let low = run(&mut net, &plan, &traffic, 0.001, 1500, &mut rng);
            let high = run(&mut net, &plan, &traffic, 0.1, 1500, &mut rng);
            // 100x the injection must collapse the delivery ratio: the
            // delivered *rate* is capped by the scheme's capacity.
            assert!(high.injected > 50 * low.injected);
            assert!(
                high.delivery_ratio() < 0.3 * low.delivery_ratio(),
                "no saturation: ratios {:.3} -> {:.3}",
                low.delivery_ratio(),
                high.delivery_ratio()
            );
            assert!(high.backlog > low.backlog);
        }

        #[test]
        fn any_member_relaying_beats_pinned_chains() {
            // The faithful Definition 11 semantics (any next-cell member
            // relays) must outperform pinned relay chains at equal load.
            let (mut net, plan, traffic, mut rng) = setup(200, 43);
            let lambda = 0.002;
            let cell_routes = run(&mut net, &plan, &traffic, lambda, 2000, &mut rng);
            let relays = plan.materialize_relays(&traffic, &mut rng);
            let engine = PacketEngine::default();
            let pinned = chains(&engine, &mut net, &relays, lambda, 2000, &mut rng).unwrap();
            assert!(
                cell_routes.delivered > pinned.delivered,
                "cell routes {} <= pinned {}",
                cell_routes.delivered,
                pinned.delivered
            );
        }

        #[test]
        fn scheme_a_zero_rate_clean() {
            let (mut net, plan, traffic, mut rng) = setup(50, 44);
            let stats = run(&mut net, &plan, &traffic, 0.0, 100, &mut rng);
            assert_eq!(stats.injected, 0);
            assert_eq!(stats.delivered, 0);
            assert_eq!(stats.backlog, 0);
        }
    }
}
