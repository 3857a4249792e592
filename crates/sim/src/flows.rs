//! Packet-level runs on top of the discrete-event core.
//!
//! Every packet-level run is one [`FlowRun`] handed to
//! [`PacketEngine::run_flows`]: a route, the [`Workload`] its sources inject
//! and, for scheme B, an optional fault schedule. The workload is one of
//! two kinds:
//!
//! * a [`FlowWorkload`] of **finite flows**: each traffic pair carries a
//!   sequence of flows — arrivals drawn from a Poisson or deterministic
//!   process, sizes from a fixed or elephant/mice mix — and every flow
//!   pushes its packets through a per-flow FIFO with a window limit, so
//!   flow-completion time (FCT) and per-packet delay become first-class
//!   measurements ([`FlowRunStats`]);
//! * [`Steady`] open-loop injection of `λ` packets per pair per slot, whose
//!   stability boundary is the capacity [`PacketEngine::find_capacity`]
//!   bisects for ([`PacketStats`]).
//!
//! The route says how packets cross the network:
//!
//! * [`FlowRun::chains`] pushes each pair's packets along a fixed node
//!   chain, longest-queue-first across the chains that watch a scheduled
//!   link;
//! * [`FlowRun::scheme_a`] relays along scheme A's plan: steady traffic
//!   hands a packet to any node homed in the next squarelet (Definition
//!   11), finite flows run one materialized relay chain per pair;
//! * [`FlowRun::scheme_b`] runs uplink → wired backbone → downlink; under
//!   [`FlowRun::faults`] dead-BS contacts are wasted, the backbone drains
//!   over surviving wires and flows of a dead group fall back to direct
//!   contacts;
//! * [`FlowRun::scheme_c`] runs scheme C's deterministic cellular TDMA
//!   sweep and draws no mobility.
//!
//! One event loop serves every run. It owns injection and admission,
//! delivery and FCT, the demand-pacing idle test and fast-forward, the run
//! budget and the finalizer. A private `Route` trait owns what differs per
//! scheme: the hop queues and in-flight lists, where a landed packet goes,
//! how one slot's schedule is served, and the route's metric names. The
//! workload decides, once per run, the few places where steady runs differ
//! from flow runs: a steady run lands a hand-off in the slot that sent it
//! (a flow run lands it at `t + 1`), schedules the full network on active
//! slots, fast-forwards only up to its next injection slot and queues
//! nothing but slot boundaries.
//!
//! Everything drains one [`EventQueue`](crate::EventQueue) in strict
//! `(time, class, key, seq)` order:
//!
//! * [`Event::Arrival`] carries the *flow instance* id (an index into the
//!   generated [`FlowSpec`] list) and admits the first window of packets;
//! * [`Event::HopComplete`] carries the *pair* (route) id — the in-transit
//!   packet itself is popped FIFO from the pair's transit list, so batches
//!   of same-slot completions stay in transmission order;
//! * [`Event::SlotBoundary`] injects steady traffic, advances mobility,
//!   runs the `S*` scheduler (or the TDMA/backbone machinery) and
//!   transmits;
//! * [`Event::FlowDone`] records the FCT after everything else in the slot.
//!
//! The workloads themselves (in `workload.rs`) are drawn from counter-based
//! streams independent of the mobility RNG, so the same workload can be
//! replayed against any mobility draw.

use crate::budget;
use crate::events::{Event, EventList, EventQueue, Time};
use crate::faults::{FaultInjector, FaultSchedule, FaultTally, OutagePolicy};
use crate::packet::{Pacing, PacingTrace, PacketEngine, PacketStats};
use crate::workload::sealed::{Injection, Report};
use crate::workload::{FlowSpec, FlowWorkload, Steady, Workload};
use crate::HybridNetwork;
use hycap_errors::HycapError;
use hycap_infra::CellularLayout;
use hycap_obs::{MetricsSink, Observer, SpanTimer};
use hycap_routing::{SchemeAPlan, SchemeBPlan, SchemeCPlan, TrafficMatrix};
use hycap_wireless::{
    critical_range, schedule_active_observed, schedule_observed, SStarScheduler, ScheduledPair,
    SlotWorkspace,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Statistics of one flow-level run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRunStats {
    /// Flows that arrived during the run.
    pub flows_started: u64,
    /// Flows whose last packet was delivered.
    pub flows_completed: u64,
    /// Packets admitted into the network (window-gated).
    pub packets_injected: u64,
    /// Packets delivered end to end.
    pub packets_delivered: u64,
    /// Packets still buffered at the end of the run.
    pub backlog: u64,
    /// Mean flow-completion time in slots over completed flows (0 when
    /// nothing completed).
    pub mean_fct: f64,
    /// Median FCT in slots (nearest-rank; `None` when nothing completed,
    /// so an idle run cannot masquerade as a 0-slot FCT).
    pub fct_p50: Option<f64>,
    /// 99th-percentile FCT in slots (nearest-rank; `None` when nothing
    /// completed).
    pub fct_p99: Option<f64>,
    /// Mean per-packet delay in slots over delivered packets (0 when
    /// nothing was delivered).
    pub mean_delay: f64,
    /// Slots simulated.
    pub slots: usize,
    /// Events drained from the queue (the bench's events/sec numerator).
    pub events: u64,
}

impl FlowRunStats {
    /// Fraction of started flows that completed (1.0 for an idle run).
    pub fn completion_ratio(&self) -> f64 {
        if self.flows_started == 0 {
            1.0
        } else {
            self.flows_completed as f64 / self.flows_started as f64
        }
    }
}

/// Scheme B's degradation accounting for one run. A run without faults, or
/// with an empty fault schedule, reports every BS alive and every packet
/// delivered over the infrastructure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedFlowStats {
    /// Packets delivered over the infrastructure (downlink contacts).
    pub infra_delivered: u64,
    /// Packets delivered by the ad-hoc fallback (direct source–destination
    /// contacts of flows whose BS group was fully dead).
    pub fallback_delivered: u64,
    /// Scheduled MS–BS contacts wasted on a dead BS (only possible under
    /// [`OutagePolicy::OccupySpectrum`]).
    pub lost_uplink_contacts: u64,
    /// Flow-slots in which backbone traffic was pending between two alive
    /// groups with zero surviving wire bandwidth.
    pub backbone_stalled_slots: u64,
    /// Mean alive-BS count over the run (`k` when nothing failed).
    pub k_alive_mean: f64,
    /// Slots during which at least one BS was down.
    pub outage_slots: usize,
    /// What the injector applied during the run, by cause.
    pub tally: FaultTally,
}

impl DegradedFlowStats {
    /// Fraction of delivered packets that rode the ad-hoc fallback.
    pub fn fallback_share(&self) -> f64 {
        let delivered = self.infra_delivered + self.fallback_delivered;
        if delivered == 0 {
            return 0.0;
        }
        self.fallback_delivered as f64 / delivered as f64
    }
}

/// What [`PacketEngine::run_flows`] returns. `T` is the statistics the
/// run's [`Workload`] reports: [`FlowRunStats`] for finite flows,
/// [`PacketStats`] for [`Steady`] injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOutcome<T = FlowRunStats> {
    /// The run's statistics.
    pub stats: T,
    /// Slot-pacing accounting (all zeros except `slots` under
    /// [`Pacing::Legacy`]).
    pub trace: PacingTrace,
    /// Scheme B's degradation accounting; `None` for the other routes.
    pub degraded: Option<DegradedFlowStats>,
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// A packet in the network: its flow instance (its pair, under steady
/// traffic) and its injection slot.
type Packet = (u32, Time);
type Queue = VecDeque<Packet>;

/// Per-flow progress: packets admitted, packets delivered, packets in the
/// network right now (admitted − delivered).
#[derive(Debug, Clone, Copy, Default)]
struct FlowState {
    admitted: u64,
    delivered: u64,
    in_network: u64,
}

/// The packet bookkeeping of one run: run totals, plus the flow specs,
/// per-flow progress and FCTs of a finite-flow run.
struct Ledger {
    specs: Vec<FlowSpec>,
    flows: Vec<FlowState>,
    window: u64,
    started: u64,
    injected: u64,
    delivered: u64,
    delay_sum: u64,
    fcts: Vec<u64>,
}

impl Ledger {
    fn new(specs: Vec<FlowSpec>, window: u64) -> Self {
        Ledger {
            flows: vec![FlowState::default(); specs.len()],
            specs,
            window,
            started: 0,
            injected: 0,
            delivered: 0,
            delay_sum: 0,
            fcts: Vec::new(),
        }
    }

    /// Admits as many of `flow`'s pending packets as the window allows into
    /// `queue`, stamped `now`.
    fn admit(&mut self, flow: u32, queue: &mut Queue, now: Time) {
        let size = self.specs[flow as usize].size;
        let st = &mut self.flows[flow as usize];
        while st.admitted < size && st.in_network < self.window {
            queue.push_back((flow, now));
            st.admitted += 1;
            st.in_network += 1;
            self.injected += 1;
        }
    }

    /// Injects `count` steady packets of pair `p` into `queue`, stamped
    /// `now`.
    fn inject(&mut self, p: usize, count: u64, queue: &mut Queue, now: Time) {
        queue.extend((0..count).map(|_| (p as u32, now)));
        self.injected += count;
    }

    /// Books `packet` delivered at `now` in the run totals.
    fn book(&mut self, (_, ts): Packet, now: Time) {
        self.delivered += 1;
        self.delay_sum += now - ts;
    }

    /// Books a flow's `packet` delivered at `now`; `true` when it was its
    /// flow's last.
    fn deliver(&mut self, packet: Packet, now: Time) -> bool {
        self.book(packet, now);
        let (flow, _) = packet;
        let st = &mut self.flows[flow as usize];
        st.delivered += 1;
        st.in_network -= 1;
        st.delivered == self.specs[flow as usize].size
    }

    /// The run's steady statistics over `slots` slots and `pairs` pairs.
    fn packet_stats(&self, slots: usize, pairs: usize) -> PacketStats {
        let backlog = self.injected - self.delivered;
        let (injected, delivered) = (self.injected, self.delivered);
        PacketStats::from_totals(injected, delivered, self.delay_sum, backlog, slots, pairs)
    }

    /// The run's flow statistics over `slots` slots and `events` drained
    /// events.
    fn into_stats(mut self, slots: usize, events: u64) -> FlowRunStats {
        self.fcts.sort_unstable();
        let fcts = &self.fcts;
        FlowRunStats {
            flows_started: self.started,
            flows_completed: fcts.len() as u64,
            packets_injected: self.injected,
            packets_delivered: self.delivered,
            backlog: self.injected - self.delivered,
            mean_fct: if fcts.is_empty() {
                0.0
            } else {
                fcts.iter().sum::<u64>() as f64 / fcts.len() as f64
            },
            fct_p50: (!fcts.is_empty()).then(|| percentile(fcts, 0.50)),
            fct_p99: (!fcts.is_empty()).then(|| percentile(fcts, 0.99)),
            mean_delay: if self.delivered == 0 {
                0.0
            } else {
                self.delay_sum as f64 / self.delivered as f64
            },
            slots,
            events,
        }
    }
}

/// Steady injection. Every covered pair would keep its own fractional
/// accumulator, but each starts at 0 and adds the same `λ` per slot, so one
/// scalar holds all of them bit for bit.
struct Accumulator {
    lambda: f64,
    acc: f64,
}

impl Accumulator {
    /// Steps one slot: the packets each covered pair injects in it.
    fn step(&mut self) -> u64 {
        self.acc += self.lambda;
        let mut count = 0;
        while self.acc >= 1.0 {
            self.acc -= 1.0;
            count += 1;
        }
        count
    }

    /// Steps through at most `max` slots that inject nothing, returning how
    /// many it passed: fewer than `max` means the next slot injects.
    fn quiet(&mut self, max: u64) -> u64 {
        let mut passed = 0;
        while passed < max && self.acc + self.lambda < 1.0 {
            self.acc += self.lambda;
            passed += 1;
        }
        passed
    }
}

/// Where the packets a route sends this slot go.
struct Tx<'q> {
    events: &'q mut EventQueue,
    t: Time,
    /// Steady runs land a hand-off in the slot that sent it, so a packet
    /// may cross several hops in one slot and a delivery's delay is
    /// `slot − stamp`; flow runs land it at `t + 1` through
    /// [`Event::HopComplete`].
    same_slot: bool,
    /// The packets same-slot hand-offs delivered this slot.
    delivered: &'q mut Vec<Packet>,
}

impl Tx<'_> {
    /// Hands pair `p`'s `packet` over `hop`: in flight on `wire` until
    /// `t + 1`, or returned to land at once.
    fn send(
        &mut self,
        wire: &mut EventList<Packet>,
        packet: Packet,
        p: usize,
        hop: usize,
    ) -> Option<Packet> {
        if self.same_slot {
            return Some(packet);
        }
        wire.push(packet);
        let (flow, hop) = (p as u32, hop as u32);
        self.events
            .push(self.t + 1, Event::HopComplete { flow, hop });
        None
    }
}

/// The hop pipeline schemes B and C share: packets wait at the source, go
/// up (hop 0) into the backbone queue, over the wire (hop 1) into the
/// destination queue and down (hop 2) to the destination. Scheme B's ad-hoc
/// fallback sends straight from the source to the destination (hop 3).
struct Stages {
    at_src: Vec<Queue>,
    at_backbone: Vec<Queue>,
    at_dst: Vec<Queue>,
    transit: Vec<[EventList<Packet>; 3]>,
    /// Hop 3 in flight, per pair; allocated only for a faulted scheme B.
    fallback: Vec<EventList<Packet>>,
    /// Packets delivered down (hop 2) and over the fallback (hop 3).
    landed: [u64; 2],
    /// One wire-budget accumulator per distinct `(source, destination)`
    /// group pair, shared by every flow on it; `wire_of[p]` indexes flow
    /// `p`'s.
    wire_of: Vec<u32>,
    wire_budget: Vec<f64>,
}

impl Stages {
    /// Stages for one flow per entry of `groups`, flow `p` running between
    /// the groups (or cells) `groups[p]`, with the fallback hop when
    /// `fallback`.
    fn new(groups: &[(usize, usize)], fallback: bool) -> Self {
        let n = groups.len();
        let mut distinct = groups.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let wire_of = groups
            .iter()
            .map(|g| distinct.binary_search(g).expect("listed") as u32)
            .collect();
        Stages {
            at_src: vec![VecDeque::new(); n],
            at_backbone: vec![VecDeque::new(); n],
            at_dst: vec![VecDeque::new(); n],
            transit: (0..n)
                .map(|_| std::array::from_fn(|_| EventList::new()))
                .collect(),
            fallback: match fallback {
                true => (0..n).map(|_| EventList::new()).collect(),
                false => Vec::new(),
            },
            landed: [0; 2],
            wire_of,
            wire_budget: vec![0.0; distinct.len()],
        }
    }

    /// Places pair `p`'s `packet` that crossed `hop`: queued for the next
    /// hop, or returned once at the destination.
    fn arrive(&mut self, p: usize, hop: usize, packet: Packet) -> Option<Packet> {
        match hop {
            0 => self.at_backbone[p].push_back(packet),
            1 => self.at_dst[p].push_back(packet),
            _ => {
                self.landed[hop - 2] += 1;
                return Some(packet);
            }
        }
        None
    }

    /// The in-flight list of pair `p`'s `hop`.
    fn wire(&mut self, p: usize, hop: usize) -> &mut EventList<Packet> {
        match hop {
            3 => &mut self.fallback[p],
            _ => &mut self.transit[p][hop],
        }
    }

    /// Lands the packet pair `p` sent over `hop` last slot.
    fn land(&mut self, p: usize, hop: usize) -> Option<Packet> {
        let entry = self.wire(p, hop).pop_front().expect("in-transit packet");
        self.arrive(p, hop, entry)
    }

    /// Sends pair `p`'s `packet` over `hop`.
    fn send(&mut self, tx: &mut Tx, p: usize, hop: usize, packet: Packet) {
        if let Some(packet) = tx.send(self.wire(p, hop), packet, p, hop) {
            tx.delivered.extend(self.arrive(p, hop, packet));
        }
    }

    /// Sends one of pair `p`'s source packets up; `false` when none waits.
    fn uplink(&mut self, p: usize, tx: &mut Tx) -> bool {
        let Some(entry) = self.at_src[p].pop_front() else {
            return false;
        };
        self.send(tx, p, 0, entry);
        true
    }

    /// Sends one packet down to the pair in `candidates` with the longest
    /// destination queue (the first wins ties).
    fn downlink(&mut self, candidates: &[usize], tx: &mut Tx) {
        let mut best: Option<usize> = None;
        for &p in candidates {
            let len = self.at_dst[p].len();
            if len > 0 && best.is_none_or(|b| len > self.at_dst[b].len()) {
                best = Some(p);
            }
        }
        if let Some(p) = best {
            let entry = self.at_dst[p].pop_front().expect("nonempty");
            self.send(tx, p, 2, entry);
        }
    }

    /// Moves pair `p`'s backbone queue onto the wire: all of it within one
    /// group (`rate` is `None`), otherwise one packet per whole unit of the
    /// group pair's shared budget after accruing `rate` to it. Every
    /// backlogged flow of a group pair accrues its own `rate` each slot.
    fn drain(&mut self, p: usize, rate: Option<f64>, tx: &mut Tx) {
        let queued = self.at_backbone[p].len();
        let count = match rate {
            None => queued,
            Some(rate) => {
                let budget = &mut self.wire_budget[self.wire_of[p] as usize];
                *budget += rate;
                let mut count = 0;
                while *budget >= 1.0 && count < queued {
                    *budget -= 1.0;
                    count += 1;
                }
                count
            }
        };
        for _ in 0..count {
            let entry = self.at_backbone[p].pop_front().expect("nonempty");
            self.send(tx, p, 1, entry);
        }
    }

    /// Packets queued or in flight.
    fn held(&self) -> u64 {
        let queued = [&self.at_src, &self.at_backbone, &self.at_dst]
            .into_iter()
            .flatten()
            .map(VecDeque::len);
        let flying = self.transit.iter().flatten().chain(&self.fallback);
        queued.chain(flying.map(EventList::len)).sum::<usize>() as u64
    }
}

/// The family a route reports under: its error and probe labels, its span
/// and its `flows.<route>.*` (finite flows) or `packet.<route>.*` (steady
/// traffic) metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Chains,
    /// Scheme A's any-member relaying (steady traffic only).
    SchemeA,
    SchemeB,
    /// Scheme B under a non-empty fault schedule, which reports its
    /// degradation accounting in place of the run totals.
    SchemeBFaulted,
    SchemeC,
}

/// The `$name` metric of family `$family`, under `packet.` when `$steady`
/// and `flows.` otherwise.
macro_rules! metric {
    ($family:expr, $steady:expr, $name:literal) => {
        match ($family, $steady) {
            (Family::Chains, false) => concat!("flows.chains.", $name),
            (Family::Chains, true) => concat!("packet.chains.", $name),
            (Family::SchemeA, _) => concat!("packet.scheme_a.", $name),
            (Family::SchemeB | Family::SchemeBFaulted, false) => concat!("flows.scheme_b.", $name),
            (Family::SchemeB | Family::SchemeBFaulted, true) => concat!("packet.scheme_b.", $name),
            (Family::SchemeC, false) => concat!("flows.scheme_c.", $name),
            (Family::SchemeC, true) => concat!("packet.scheme_c.", $name),
        }
    };
}

impl Family {
    /// `(error label, probe label, span)` of a steady or a flow run.
    fn labels(self, steady: bool) -> [&'static str; 3] {
        match (self, steady) {
            (Family::Chains, false) => ["flow chains run", "flow chains", "packet.run_flows"],
            (Family::Chains, true) => ["packet chains run", "packet chains", "packet.run_chains"],
            (Family::SchemeA, _) => [
                "packet scheme A run",
                "packet scheme A",
                "packet.run_scheme_a",
            ],
            (Family::SchemeB, false) => [
                "flow scheme B run",
                "flow scheme B",
                "packet.run_flows_scheme_b",
            ],
            (Family::SchemeB, true) => [
                "packet scheme B run",
                "packet scheme B",
                "packet.run_scheme_b",
            ],
            (Family::SchemeBFaulted, false) => [
                "faulted flow scheme B run",
                "flow scheme B faulted",
                "packet.run_flows_scheme_b_faulted",
            ],
            (Family::SchemeBFaulted, true) => [
                "faulted packet scheme B run",
                "packet scheme B faulted",
                "packet.run_scheme_b_faulted",
            ],
            (Family::SchemeC, false) => [
                "flow scheme C run",
                "flow scheme C",
                "packet.run_flows_scheme_c",
            ],
            (Family::SchemeC, true) => [
                "packet scheme C run",
                "packet scheme C",
                "packet.run_scheme_c",
            ],
        }
    }
}

/// The per-scheme half of a run: hop queues, in-flight lists and slot
/// service. The event loop in [`PacketEngine::run_flows`] owns the rest.
trait Route {
    /// The family this route reports under.
    fn family(&self) -> Family;

    /// Traffic pairs, each with its own source queue.
    fn pairs(&self) -> usize;

    /// Whether pair `p` injects at all (scheme C skips sources outside
    /// every cell).
    fn covers(&self, _p: usize) -> bool {
        true
    }

    /// Hands pair `p`'s source queue to `fill`, which admits packets.
    fn refill(&mut self, p: usize, fill: impl FnOnce(&mut Queue));

    /// Lands the packet pair `p` sent over `hop` last slot: queues it for
    /// its next hop, or returns it once it reached its destination.
    fn land(&mut self, p: usize, hop: usize) -> Option<Packet>;

    /// Packets queued or in flight (the conservation probe's `stored`).
    fn held(&self) -> u64;

    /// Whether idle slots must still [`Route::tick`] (a fault clock).
    fn clocked(&self) -> bool {
        false
    }

    /// Steps the route's clock to relative slot `rel`; `active` when the
    /// slot will be served.
    fn tick(&mut self, _rel: usize, _active: bool) {}

    /// The nodes `S*` is restricted to this slot, for an active-set route.
    fn active_nodes(&mut self) -> Option<&[usize]> {
        None
    }

    /// The `MS ++ BS` liveness mask to schedule under, if any.
    fn alive(&self) -> Option<&[bool]> {
        None
    }

    /// Serves relative slot `rel` from the scheduled `pairs` (empty for a
    /// route without positions), sending through `tx`.
    fn serve(&mut self, rel: usize, pairs: &[ScheduledPair], tx: &mut Tx);

    /// Route-specific end-of-run metrics and probes (under the steady
    /// names when `steady`), and scheme B's degradation accounting.
    fn finish<S: MetricsSink>(
        &self,
        _horizon: usize,
        _steady: bool,
        _obs: &mut Observer<S>,
    ) -> Option<DegradedFlowStats> {
        None
    }
}

/// Relay chains: pair `p`'s packets walk `chains[p]`.
struct Chains<'a> {
    chains: Cow<'a, [Vec<usize>]>,
    /// `((u, v), (p, h))` for every hop `h` of chain `p` going `u → v`,
    /// sorted by link and in chain order within one link.
    watchers: Vec<((usize, usize), (usize, usize))>,
    /// `queues[p][h]`: packets waiting at chain position `h`;
    /// `transit[p][h]`: packets in flight over hop `h`.
    queues: Vec<Vec<Queue>>,
    transit: Vec<Vec<EventList<Packet>>>,
    /// Active-set upkeep (only with `active_set` on): `node_load[u]` counts
    /// the non-empty hop queues incident on node `u`, and `active_nodes`
    /// holds the nodes with load > 0 in ascending order.
    active_set: bool,
    node_load: Vec<u32>,
    active_nodes: BTreeSet<usize>,
    active_buf: Vec<usize>,
}

impl<'a> Chains<'a> {
    fn new(chains: Cow<'a, [Vec<usize>]>, active_set: bool) -> Result<Self, HycapError> {
        if let Some((p, chain)) = chains.iter().enumerate().find(|(_, c)| c.len() < 2) {
            let detail = format!(
                "chain {p} must have at least two nodes, got {}",
                chain.len()
            );
            return Err(HycapError::invalid("chains", detail));
        }
        let mut watchers = Vec::new();
        for (p, chain) in chains.iter().enumerate() {
            for (h, w) in chain.windows(2).enumerate() {
                watchers.push(((w[0], w[1]), (p, h)));
            }
        }
        // Stable: the watchers of one link keep chain order (the LQF tie-break).
        watchers.sort_by_key(|&(link, _)| link);
        let nodes = if active_set {
            chains.iter().flatten().max().map_or(1, |&u| u + 1)
        } else {
            0
        };
        Ok(Chains {
            watchers,
            queues: chains
                .iter()
                .map(|c| vec![VecDeque::new(); c.len() - 1])
                .collect(),
            transit: chains
                .iter()
                .map(|c| (1..c.len()).map(|_| EventList::new()).collect())
                .collect(),
            chains,
            active_set,
            node_load: vec![0; nodes],
            active_nodes: BTreeSet::new(),
            active_buf: Vec::new(),
        })
    }

    /// Bumps the load of both endpoints of hop `h` of chain `p` after its
    /// queue went empty → non-empty (`up`), or drops it after the reverse.
    fn hop_load(&mut self, p: usize, h: usize, up: bool) {
        for x in [self.chains[p][h], self.chains[p][h + 1]] {
            if up {
                self.node_load[x] += 1;
                if self.node_load[x] == 1 {
                    self.active_nodes.insert(x);
                }
            } else {
                self.node_load[x] -= 1;
                if self.node_load[x] == 0 {
                    self.active_nodes.remove(&x);
                }
            }
        }
    }

    /// Places chain `p`'s `packet` that crossed hop `h`: queued at chain
    /// position `h + 1`, or returned at the destination.
    fn arrive(&mut self, p: usize, h: usize, packet: Packet) -> Option<Packet> {
        if h + 1 == self.queues[p].len() {
            return Some(packet);
        }
        let was_empty = self.queues[p][h + 1].is_empty();
        self.queues[p][h + 1].push_back(packet);
        if self.active_set && was_empty {
            self.hop_load(p, h + 1, true);
        }
        None
    }
}

impl Route for Chains<'_> {
    fn family(&self) -> Family {
        Family::Chains
    }

    fn pairs(&self) -> usize {
        self.chains.len()
    }

    fn refill(&mut self, p: usize, fill: impl FnOnce(&mut Queue)) {
        let was_empty = self.queues[p][0].is_empty();
        fill(&mut self.queues[p][0]);
        if self.active_set && was_empty && !self.queues[p][0].is_empty() {
            self.hop_load(p, 0, true);
        }
    }

    fn land(&mut self, p: usize, h: usize) -> Option<Packet> {
        let entry = self.transit[p][h].pop_front().expect("in-transit packet");
        self.arrive(p, h, entry)
    }

    fn held(&self) -> u64 {
        let queued = self.queues.iter().flatten().map(VecDeque::len);
        let flying = self.transit.iter().flatten().map(EventList::len);
        queued.chain(flying).sum::<usize>() as u64
    }

    fn active_nodes(&mut self) -> Option<&[usize]> {
        if !self.active_set {
            return None;
        }
        self.active_buf.clear();
        self.active_buf.extend(self.active_nodes.iter().copied());
        Some(&self.active_buf)
    }

    /// Each scheduled pair serves both directions: across the chains
    /// watching the link, the longest non-empty hop queue (the first wins
    /// ties) sends one packet.
    fn serve(&mut self, _rel: usize, pairs: &[ScheduledPair], tx: &mut Tx) {
        for &pair in pairs {
            for link in [(pair.a, pair.b), (pair.b, pair.a)] {
                let first = self.watchers.partition_point(|&(l, _)| l < link);
                let mut best: Option<(usize, usize, usize)> = None;
                for &(_, (p, h)) in self.watchers[first..]
                    .iter()
                    .take_while(|&&(l, _)| l == link)
                {
                    let len = self.queues[p][h].len();
                    if len > 0 && best.is_none_or(|(_, _, bl)| len > bl) {
                        best = Some((p, h, len));
                    }
                }
                let Some((p, h, _)) = best else {
                    continue;
                };
                let entry = self.queues[p][h].pop_front().expect("nonempty");
                if self.active_set && self.queues[p][h].is_empty() {
                    self.hop_load(p, h, false);
                }
                if let Some(entry) = tx.send(&mut self.transit[p][h], entry, p, h) {
                    tx.delivered.extend(self.arrive(p, h, entry));
                }
            }
        }
    }
}

/// Scheme A's any-member relaying (Definition 11), for steady traffic: a
/// packet at squarelet `h` of its pair's path may be handed to **any** node
/// homed in squarelet `h + 1`, and any holder delivers on meeting the
/// destination. Pinning one relay per cell instead (as a materialized chain
/// does) throttles each hop to a single pair's `Θ(f²/n)` link capacity and
/// undersells the scheme by `Θ(f)`. Every hand-off lands in the slot that
/// made it, so nothing is ever in flight.
struct Relay {
    /// Per pair: its path's squarelets as flat cell indices.
    paths: Vec<Vec<usize>>,
    dst: Vec<usize>,
    home_cell: Vec<usize>,
    /// `holdings[u]`: the packets node `u` holds, by `(pair, hop)`. The
    /// longest-queue scan breaks ties in key order.
    holdings: Vec<BTreeMap<(usize, usize), Queue>>,
    /// Packets held, counted up on injection and down on delivery (the
    /// queue-stability probe's signed backlog).
    backlog: i64,
}

impl Relay {
    fn new(
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        traffic: &TrafficMatrix,
    ) -> Result<Self, HycapError> {
        let n = net.n();
        for (what, left) in [
            (
                "scheme A plan path count and network node count",
                plan.paths().len(),
            ),
            ("traffic pair count and network node count", traffic.len()),
        ] {
            if left != n {
                return Err(HycapError::Mismatch {
                    what,
                    left,
                    right: n,
                });
            }
        }
        let grid = *plan.grid();
        let homes = net.population().home_points().points();
        Ok(Relay {
            paths: plan
                .paths()
                .iter()
                .map(|p| p.cells().iter().map(|c| c.index()).collect())
                .collect(),
            dst: traffic.pairs().map(|(_, d)| d).collect(),
            home_cell: homes.iter().map(|&h| grid.cell_of(h).index()).collect(),
            holdings: vec![BTreeMap::new(); n],
            backlog: 0,
        })
    }
}

impl Route for Relay {
    fn family(&self) -> Family {
        Family::SchemeA
    }

    fn pairs(&self) -> usize {
        self.holdings.len()
    }

    fn refill(&mut self, p: usize, fill: impl FnOnce(&mut Queue)) {
        let queue = self.holdings[p].entry((p, 0)).or_default();
        let before = queue.len();
        fill(queue);
        self.backlog += (queue.len() - before) as i64;
    }

    fn land(&mut self, _p: usize, _hop: usize) -> Option<Packet> {
        unreachable!("any-member relaying lands every hand-off in its slot")
    }

    fn held(&self) -> u64 {
        let held = self.holdings.iter().flat_map(BTreeMap::values);
        held.map(VecDeque::len).sum::<usize>() as u64
    }

    /// Each scheduled MS pair serves both directions: of the packets `u`
    /// holds that `v` may take — `v` is the destination, or homed in the
    /// next squarelet before the last — the longest queue sends one.
    fn serve(&mut self, _rel: usize, pairs: &[ScheduledPair], tx: &mut Tx) {
        debug_assert!(tx.same_slot, "any-member relaying runs steady traffic");
        let n = self.holdings.len();
        for &pair in pairs {
            if pair.a >= n || pair.b >= n {
                continue;
            }
            for (u, v) in [(pair.a, pair.b), (pair.b, pair.a)] {
                let mut best: Option<((usize, usize), usize, bool)> = None;
                for (&(p, h), q) in &self.holdings[u] {
                    let path = &self.paths[p];
                    let (eligible, deliver) = if v == self.dst[p] {
                        (true, true)
                    } else if h + 1 >= path.len() {
                        (false, false)
                    } else {
                        (self.home_cell[v] == path[h + 1] && v != u, false)
                    };
                    if eligible && !q.is_empty() && best.is_none_or(|(_, len, _)| q.len() > len) {
                        best = Some(((p, h), q.len(), deliver));
                    }
                }
                let Some((key @ (p, h), _, deliver)) = best else {
                    continue;
                };
                let queue = self.holdings[u].get_mut(&key).expect("listed");
                let entry = queue.pop_front().expect("nonempty");
                if deliver {
                    self.backlog -= 1;
                    tx.delivered.push(entry);
                } else {
                    self.holdings[v]
                        .entry((p, h + 1))
                        .or_default()
                        .push_back(entry);
                }
            }
        }
    }

    fn finish<S: MetricsSink>(
        &self,
        _horizon: usize,
        _steady: bool,
        obs: &mut Observer<S>,
    ) -> Option<DegradedFlowStats> {
        if let Some(probes) = obs.probes_mut() {
            probes.queue_stability("packet scheme A", None, self.backlog);
        }
        None
    }
}

/// The fault state of a scheme-B run under a non-empty schedule.
struct BFaults {
    injector: FaultInjector,
    policy: OutagePolicy,
    /// The `MS ++ BS` liveness vector of the current active slot.
    alive: Vec<bool>,
    alive_per_group: Vec<usize>,
    alive_sum: usize,
}

/// Scheme B: uplink over a scheduled MS–group-BS contact, backbone at the
/// group pair's wire rate, downlink over a scheduled destination contact.
/// Pair `p`'s source is node `p`.
struct SchemeB<'a> {
    plan: &'a SchemeBPlan,
    n: usize,
    k: usize,
    c: f64,
    ms_group: Vec<usize>,
    bs_group: Vec<usize>,
    flows_by_dst: Vec<Vec<usize>>,
    stages: Stages,
    acct: DegradedFlowStats,
    faults: Option<BFaults>,
}

impl<'a> SchemeB<'a> {
    fn new(
        net: &HybridNetwork,
        plan: &'a SchemeBPlan,
        faults: Option<(&FaultSchedule, OutagePolicy)>,
    ) -> Result<Self, HycapError> {
        let (n, k) = (net.n(), net.k());
        let Some(bs) = net.base_stations() else {
            return Err(HycapError::MissingInfrastructure("scheme B flows"));
        };
        if plan.flows().len() != n {
            return Err(HycapError::Mismatch {
                what: "scheme B plan flow count and network node count",
                left: plan.flows().len(),
                right: n,
            });
        }
        let gc = plan.group_count();
        let faults = match faults {
            Some((schedule, policy)) if !schedule.is_empty() => Some(BFaults {
                injector: FaultInjector::new(k, schedule)?,
                policy,
                alive: Vec::new(),
                alive_per_group: vec![0; gc],
                alive_sum: 0,
            }),
            _ => None,
        };
        let mut ms_group = vec![usize::MAX; n];
        let mut bs_group = vec![usize::MAX; k];
        for g in 0..gc {
            plan.ms_members(g).iter().for_each(|&i| ms_group[i] = g);
            plan.bs_members(g).iter().for_each(|&b| bs_group[b] = g);
        }
        let mut flows_by_dst: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (p, fl) in plan.flows().iter().enumerate() {
            flows_by_dst[fl.dst].push(p);
        }
        let groups: Vec<_> = plan
            .flows()
            .iter()
            .map(|fl| (fl.src_group, fl.dst_group))
            .collect();
        Ok(SchemeB {
            plan,
            n,
            k,
            c: bs.bandwidth(),
            ms_group,
            bs_group,
            flows_by_dst,
            stages: Stages::new(&groups, faults.is_some()),
            acct: DegradedFlowStats {
                infra_delivered: 0,
                fallback_delivered: 0,
                lost_uplink_contacts: 0,
                backbone_stalled_slots: 0,
                k_alive_mean: k as f64,
                outage_slots: 0,
                tally: FaultTally::default(),
            },
            faults,
        })
    }

    /// Whether group `g` has no alive BS this slot (never without faults).
    fn group_dead(&self, g: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.alive_per_group[g] == 0)
    }

    /// Whether pair `p` rides the ad-hoc fallback this slot: its source or
    /// destination group is fully dead.
    fn fallback_active(&self, p: usize) -> bool {
        let fl = &self.plan.flows()[p];
        self.group_dead(fl.src_group) || self.group_dead(fl.dst_group)
    }

    /// A direct MS–MS contact `a`–`b`: a fallback flow between the two
    /// sends one packet per direction (hop 3).
    fn serve_fallback(&mut self, a: usize, b: usize, tx: &mut Tx) {
        for (u, v) in [(a, b), (b, a)] {
            if self.plan.flows()[u].dst != v || !self.fallback_active(u) {
                continue;
            }
            if let Some(entry) = self.stages.at_src[u].pop_front() {
                self.stages.send(tx, u, 3, entry);
            }
        }
    }

    /// The wire units between groups `gs` and `gd` this slot.
    fn wires(&self, gs: usize, gd: usize) -> f64 {
        let Some(f) = &self.faults else {
            return (self.plan.bs_count()[gs] * self.plan.bs_count()[gd]) as f64;
        };
        let mask = f.injector.mask();
        let mut eff = 0.0f64;
        for &a in self.plan.bs_members(gs) {
            for &b in self.plan.bs_members(gd) {
                eff += mask.wire_factor(a, b);
            }
        }
        eff
    }
}

impl Route for SchemeB<'_> {
    fn family(&self) -> Family {
        if self.faults.is_some() {
            Family::SchemeBFaulted
        } else {
            Family::SchemeB
        }
    }

    fn pairs(&self) -> usize {
        self.n
    }

    fn refill(&mut self, p: usize, fill: impl FnOnce(&mut Queue)) {
        fill(&mut self.stages.at_src[p]);
    }

    fn land(&mut self, p: usize, hop: usize) -> Option<Packet> {
        self.stages.land(p, hop)
    }

    fn held(&self) -> u64 {
        self.stages.held()
    }

    fn clocked(&self) -> bool {
        self.faults.is_some()
    }

    /// Advances the fault clock and books the mask-level accounting (alive
    /// mean, outage slots) on every slot, idle or not; an active slot also
    /// fills the liveness vector and the per-group alive counts.
    fn tick(&mut self, rel: usize, active: bool) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        f.injector.advance_to(rel);
        let alive_now = f.injector.mask().alive_count();
        f.alive_sum += alive_now;
        if alive_now < self.k {
            self.acct.outage_slots += 1;
        }
        if active {
            f.injector.fill_alive(self.n, f.policy, &mut f.alive);
            f.alive_per_group.iter_mut().for_each(|x| *x = 0);
            for (b, &g) in self.bs_group.iter().enumerate() {
                if f.injector.mask().bs_alive(b) && g != usize::MAX {
                    f.alive_per_group[g] += 1;
                }
            }
        }
    }

    fn alive(&self) -> Option<&[bool]> {
        self.faults.as_ref().map(|f| f.alive.as_slice())
    }

    fn serve(&mut self, _rel: usize, pairs: &[ScheduledPair], tx: &mut Tx) {
        let n = self.n;
        for &pair in pairs {
            let (ms, bsid) = if pair.a < n && pair.b >= n {
                (pair.a, pair.b - n)
            } else if pair.b < n && pair.a >= n {
                (pair.b, pair.a - n)
            } else {
                if pair.a < n && pair.b < n && self.faults.is_some() {
                    self.serve_fallback(pair.a, pair.b, tx);
                }
                continue;
            };
            if let Some(f) = &self.faults {
                if !f.injector.mask().bs_alive(bsid) {
                    self.acct.lost_uplink_contacts += 1;
                    continue;
                }
            }
            let g = self.bs_group[bsid];
            if g == usize::MAX || self.ms_group[ms] != g {
                continue;
            }
            // Fallback flows keep their packets at the source.
            if !self.fallback_active(ms) {
                self.stages.uplink(ms, tx);
            }
            self.stages.downlink(&self.flows_by_dst[ms], tx);
        }
        let load_groups = self.plan.backbone_load().group_count().max(1) as f64;
        for p in 0..n {
            if self.stages.at_backbone[p].is_empty() {
                continue;
            }
            let fl = &self.plan.flows()[p];
            let (gs, gd) = (fl.src_group, fl.dst_group);
            if self.group_dead(gs) || self.group_dead(gd) {
                continue; // packets wait at the dead group
            }
            let rate = if gs == gd {
                None
            } else {
                let wires = self.wires(gs, gd);
                if wires == 0.0 {
                    // Nothing accrues; a faulted run books the stall.
                    if self.faults.is_some() {
                        self.acct.backbone_stalled_slots += 1;
                    }
                    continue;
                }
                Some(self.c * wires / load_groups)
            };
            self.stages.drain(p, rate, tx);
        }
    }

    fn finish<S: MetricsSink>(
        &self,
        horizon: usize,
        steady: bool,
        obs: &mut Observer<S>,
    ) -> Option<DegradedFlowStats> {
        let [infra_delivered, fallback_delivered] = self.stages.landed;
        let acct = DegradedFlowStats {
            infra_delivered,
            fallback_delivered,
            ..self.acct
        };
        let Some(f) = &self.faults else {
            return Some(acct);
        };
        let tally = f.injector.tally();
        let acct = DegradedFlowStats {
            k_alive_mean: f.alive_sum as f64 / horizon as f64,
            tally,
            ..acct
        };
        if let Some(probes) = obs.probes_mut() {
            let label = if steady {
                "packet scheme B injector"
            } else {
                "flow scheme B injector"
            };
            probes.fault_tally(
                label,
                self.k,
                f.injector.scripted_mask().alive_count(),
                f.injector.alive_count(),
                tally.bs_crashes + tally.bs_repairs,
                tally.bernoulli_bs_outages,
            );
        }
        let sink = &mut obs.sink;
        if sink.enabled() {
            let family = Family::SchemeB;
            sink.counter(
                metric!(family, steady, "lost_uplink_contacts"),
                acct.lost_uplink_contacts,
            );
            sink.counter(
                metric!(family, steady, "backbone_stalled_slots"),
                acct.backbone_stalled_slots,
            );
            sink.counter(
                metric!(family, steady, "fallback_delivered"),
                acct.fallback_delivered,
            );
            sink.observe(metric!(family, steady, "k_alive_mean"), acct.k_alive_mean);
        }
        Some(acct)
    }
}

/// Scheme C's deterministic TDMA: an active cell serves one uplink
/// (round-robin over its member sources) and one downlink (longest queue
/// across its destination pairs) per slot; every cell pair has one wire of
/// bandwidth `c`.
struct SchemeC<'a> {
    plan: &'a SchemeCPlan,
    c: f64,
    /// Per cell: its own TDMA group and its cluster's group count.
    cell_group: Vec<(usize, usize)>,
    members: Vec<Vec<usize>>,
    flows_by_dst_cell: Vec<Vec<usize>>,
    cells: Vec<(usize, usize)>,
    stages: Stages,
    uplink_rr: Vec<usize>,
}

impl<'a> SchemeC<'a> {
    fn new(
        plan: &'a SchemeCPlan,
        layout: &CellularLayout,
        traffic: &TrafficMatrix,
        c: f64,
    ) -> Result<Self, HycapError> {
        if !(c > 0.0 && c.is_finite()) {
            let detail = format!("wire bandwidth must be positive, got {c}");
            return Err(HycapError::invalid("c", detail));
        }
        let cell_group: Vec<(usize, usize)> = layout
            .clusters()
            .iter()
            .flat_map(|cl| {
                cl.groups()[..cl.cell_count()]
                    .iter()
                    .map(|&g| (g, cl.group_count().max(1)))
            })
            .collect();
        if plan.cell_members().len() != cell_group.len() {
            return Err(HycapError::Mismatch {
                what: "scheme C plan and layout cell count",
                left: plan.cell_members().len(),
                right: cell_group.len(),
            });
        }
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); cell_group.len()];
        let mut flows_by_dst_cell: Vec<Vec<usize>> = vec![Vec::new(); cell_group.len()];
        let mut cells = Vec::with_capacity(traffic.len());
        for (p, (_, d)) in traffic.pairs().enumerate() {
            let (cs, cd) = (plan.serving_cell(p), plan.serving_cell(d));
            if cs != usize::MAX {
                members[cs].push(p);
            }
            if cd != usize::MAX {
                flows_by_dst_cell[cd].push(p);
            }
            cells.push((cs, cd));
        }
        Ok(SchemeC {
            plan,
            c,
            uplink_rr: vec![0; cell_group.len()],
            cell_group,
            members,
            flows_by_dst_cell,
            stages: Stages::new(&cells, false),
            cells,
        })
    }
}

impl Route for SchemeC<'_> {
    fn family(&self) -> Family {
        Family::SchemeC
    }

    fn pairs(&self) -> usize {
        self.cells.len()
    }

    /// Uncovered sources inject nothing.
    fn covers(&self, p: usize) -> bool {
        self.plan.serving_cell(p) != usize::MAX
    }

    fn refill(&mut self, p: usize, fill: impl FnOnce(&mut Queue)) {
        fill(&mut self.stages.at_src[p]);
    }

    fn land(&mut self, p: usize, hop: usize) -> Option<Packet> {
        self.stages.land(p, hop)
    }

    fn held(&self) -> u64 {
        self.stages.held()
    }

    /// In every cluster, cells of group `rel mod groups` are active.
    fn serve(&mut self, rel: usize, _pairs: &[ScheduledPair], tx: &mut Tx) {
        for (cell, &(group, groups)) in self.cell_group.iter().enumerate() {
            if group % groups != rel % groups {
                continue;
            }
            let mem = &self.members[cell];
            for probe in 0..mem.len() {
                let p = mem[(self.uplink_rr[cell] + probe) % mem.len()];
                if self.stages.uplink(p, tx) {
                    self.uplink_rr[cell] = (self.uplink_rr[cell] + probe + 1) % mem.len();
                    break;
                }
            }
            self.stages.downlink(&self.flows_by_dst_cell[cell], tx);
        }
        for p in 0..self.cells.len() {
            if !self.stages.at_backbone[p].is_empty() {
                let (cs, cd) = self.cells[p];
                self.stages.drain(p, (cs != cd).then_some(self.c), tx);
            }
        }
    }
}

/// Which route a [`FlowRun`] drives over its network.
enum RouteSpec<'a> {
    Chains(&'a [Vec<usize>]),
    SchemeA(&'a SchemeAPlan, &'a TrafficMatrix),
    SchemeB(&'a SchemeBPlan),
    SchemeC(&'a SchemeCPlan, &'a CellularLayout, &'a TrafficMatrix, f64),
}

/// One packet-level run: a route, a [`Workload`] ([`FlowWorkload`] or
/// [`Steady`]) and, for scheme B, an optional fault schedule. Build it with
/// [`FlowRun::chains`], [`FlowRun::scheme_a`], [`FlowRun::scheme_b`] or
/// [`FlowRun::scheme_c`] and run it with [`PacketEngine::run_flows`].
///
/// The RNG type parameter only matters for routes over a mobile network;
/// [`FlowRun::scheme_c`] fixes it to [`StdRng`], which it never draws from.
pub struct FlowRun<'a, R: ?Sized = StdRng, W = FlowWorkload> {
    route: RouteSpec<'a>,
    /// The network whose mobility the route rides, and the RNG legacy
    /// pacing advances it from (`None` for scheme C).
    mobility: Option<(&'a mut HybridNetwork, &'a mut R)>,
    workload: W,
    faults: Option<(&'a FaultSchedule, OutagePolicy)>,
}

impl<'a, R: Rng + ?Sized, W: Workload> FlowRun<'a, R, W> {
    /// Traffic over relay chains: `chains[p]` is pair `p`'s node sequence
    /// `[source, …, destination]`. Pair `p`'s packets walk it FIFO within
    /// each hop queue, longest-queue-first across the chains watching a
    /// scheduled link.
    pub fn chains(
        net: &'a mut HybridNetwork,
        chains: &'a [Vec<usize>],
        workload: &W,
        rng: &'a mut R,
    ) -> Self {
        Self::new(RouteSpec::Chains(chains), Some((net, rng)), workload)
    }

    /// Traffic under scheme A's plan. [`Steady`] traffic relays faithfully
    /// (Definition 11): a packet may be handed to any node homed in the
    /// next squarelet of its path, and any holder delivers on meeting the
    /// destination. Finite flows run one relay chain per pair, materialized
    /// from `rng`, as [`FlowRun::chains`] — the conservative flow-level
    /// model.
    pub fn scheme_a(
        net: &'a mut HybridNetwork,
        plan: &'a SchemeAPlan,
        traffic: &'a TrafficMatrix,
        workload: &W,
        rng: &'a mut R,
    ) -> Self {
        Self::new(
            RouteSpec::SchemeA(plan, traffic),
            Some((net, rng)),
            workload,
        )
    }

    /// Traffic end to end over scheme B: uplink (hop 0, a scheduled
    /// MS–group-BS contact), backbone (hop 1) and downlink (hop 2, a
    /// scheduled destination contact, longest-queue-first across pairs).
    /// Each slot, every backlogged flow on a group pair adds
    /// `c·N_b(src)·N_b(dst)/G` to the pair's shared wire budget (`G` the
    /// backbone load's group count), and the flow moves one packet per
    /// whole unit. Pair `p`'s source is node `p`. Active slots always
    /// schedule the full network.
    pub fn scheme_b(
        net: &'a mut HybridNetwork,
        plan: &'a SchemeBPlan,
        workload: &W,
        rng: &'a mut R,
    ) -> Self {
        Self::new(RouteSpec::SchemeB(plan), Some((net, rng)), workload)
    }
}

impl<'a, W: Workload> FlowRun<'a, StdRng, W> {
    /// Traffic over scheme C's deterministic TDMA (Definition 13): uplink
    /// (hop 0, round-robin over an active cell's member sources), backbone
    /// (hop 1: each slot, every backlogged flow on a cell pair adds `c` to
    /// the pair's shared wire budget), downlink (hop 2, longest-queue-first
    /// across destination pairs of an active cell). Uncovered sources
    /// inject nothing. Nodes are static in the trivial regime (Theorem 8),
    /// so the run draws no mobility and demand pacing needs no
    /// counter-samplable stream.
    pub fn scheme_c(
        plan: &'a SchemeCPlan,
        layout: &'a CellularLayout,
        traffic: &'a TrafficMatrix,
        c: f64,
        workload: &W,
    ) -> Self {
        Self::new(RouteSpec::SchemeC(plan, layout, traffic, c), None, workload)
    }
}

impl<'a, R: ?Sized, W: Copy> FlowRun<'a, R, W> {
    fn new(
        route: RouteSpec<'a>,
        mobility: Option<(&'a mut HybridNetwork, &'a mut R)>,
        workload: &W,
    ) -> Self {
        FlowRun {
            route,
            mobility,
            workload: *workload,
            faults: None,
        }
    }

    /// Injects `schedule`'s faults into a scheme-B run, with outages under
    /// `policy` and graceful degradation: the `S*` schedule honours the
    /// policy (dead BSs vanish from the spectrum or keep blocking it while
    /// serving nothing), dead-BS contacts are wasted, flows whose source or
    /// destination group is fully dead hold packets at the source and
    /// deliver over direct contacts (the ad-hoc fallback, hop 3), and the
    /// backbone drains over surviving wires only. Packets held at a group
    /// that dies wait in place for a repair. Idle slots still advance the
    /// fault clock, one slot at a time even when fast-forwarded. An empty
    /// schedule runs the fault-free path bit for bit.
    pub fn faults(mut self, schedule: &'a FaultSchedule, policy: OutagePolicy) -> Self {
        self.faults = Some((schedule, policy));
        self
    }
}

impl PacketEngine {
    /// Runs `run`'s workload over its route.
    ///
    /// Under [`Pacing::Demand`] the heavy slot body (mobility, scheduling,
    /// transmission) runs only on slots with packets in the network; with
    /// `skip` on, idle stretches are fast-forwarded through
    /// [`EventQueue::skip_boundaries`] so they are still charged to the run
    /// budget and counted in [`FlowRunStats::events`]. With `active_set` on,
    /// active slots of a finite-flow chains run schedule only the nodes
    /// adjacent to queued packets
    /// ([`SStarScheduler::schedule_active_into`]). Results are bit-identical
    /// across all four demand flag combinations.
    ///
    /// The observer receives per-slot schedule metrics, the route's
    /// `flows.<route>.*` (finite flows: plus per-packet delay and per-flow
    /// FCT histograms, `flows.delay` and `flows.fct`) or `packet.<route>.*`
    /// (steady traffic) counters and end-of-run flow conservation.
    /// Observation never draws from the run's RNG, so results are
    /// bit-identical for any observer.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] if the workload is invalid, a chain
    /// is shorter than 2, scheme C's `c` is not positive, faults are given
    /// to a route other than scheme B, or demand pacing is requested on a
    /// network without counter-samplable mobility;
    /// [`HycapError::MissingInfrastructure`] for scheme B without base
    /// stations; [`HycapError::Mismatch`] when a plan disagrees with the
    /// network or layout; schedule validation errors from
    /// [`FaultInjector::new`]; [`HycapError::Interrupted`] when the run
    /// budget trips (the partial counters stay in the snapshot).
    pub fn run_flows<R: Rng + ?Sized, W: Workload, S: MetricsSink>(
        &self,
        run: FlowRun<'_, R, W>,
        obs: &mut Observer<S>,
    ) -> Result<FlowOutcome<W::Stats>, HycapError> {
        let FlowRun {
            route,
            mobility,
            workload,
            faults,
        } = run;
        if faults.is_some() && !matches!(route, RouteSpec::SchemeB(_)) {
            return Err(HycapError::invalid(
                "faults",
                "only scheme B flow runs take a fault schedule",
            ));
        }
        let injection = workload.injection();
        injection.validate()?;
        // Scheme C draws no mobility, so its demand pacing needs no
        // counter-samplable stream.
        let demand = match (&mobility, self.pacing) {
            (Some((net, _)), _) => self.demand_params(net)?,
            (
                None,
                Pacing::Demand {
                    seed,
                    skip,
                    active_set,
                },
            ) => Some((seed, skip, active_set)),
            (None, Pacing::Legacy) => None,
        };
        let steady = matches!(injection, Injection::Steady(_));
        let active_set = !steady && matches!(demand, Some((_, _, true)));
        let (outcome, packets) = match (route, mobility) {
            (RouteSpec::SchemeC(plan, layout, traffic, c), _) => {
                let route = SchemeC::new(plan, layout, traffic, c)?;
                self.drive::<_, R, _>(route, None, demand, injection, obs)
            }
            (RouteSpec::Chains(chains), Some(mobility)) => {
                let route = Chains::new(Cow::Borrowed(chains), active_set)?;
                self.drive(route, Some(mobility), demand, injection, obs)
            }
            (RouteSpec::SchemeA(plan, traffic), Some((net, rng))) if steady => {
                let route = Relay::new(net, plan, traffic)?;
                self.drive(route, Some((net, rng)), demand, injection, obs)
            }
            (RouteSpec::SchemeA(plan, traffic), Some((net, rng))) => {
                let chains = plan.materialize_relays(traffic, rng);
                let route = Chains::new(Cow::Owned(chains), active_set)?;
                self.drive(route, Some((net, rng)), demand, injection, obs)
            }
            (RouteSpec::SchemeB(plan), Some((net, rng))) => {
                let route = SchemeB::new(net, plan, faults)?;
                self.drive(route, Some((net, rng)), demand, injection, obs)
            }
            (_, None) => unreachable!("only scheme C runs without a network"),
        }?;
        Ok(FlowOutcome {
            stats: W::Stats::report(outcome.stats, packets),
            trace: outcome.trace,
            degraded: outcome.degraded,
        })
    }

    /// [`PacketEngine::run_flows`] over [`FlowRun::scheme_a`], returning the
    /// statistics and the pacing trace.
    ///
    /// # Errors
    ///
    /// As [`PacketEngine::run_flows`].
    pub fn run_flows_scheme_a_traced_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeAPlan,
        traffic: &TrafficMatrix,
        workload: &FlowWorkload,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<(FlowRunStats, PacingTrace), HycapError> {
        let run = FlowRun::scheme_a(net, plan, traffic, workload, rng);
        self.run_flows(run, obs).map(|o| (o.stats, o.trace))
    }

    /// [`PacketEngine::run_flows`] over [`FlowRun::scheme_b`], returning the
    /// statistics and the pacing trace.
    ///
    /// # Errors
    ///
    /// As [`PacketEngine::run_flows`].
    pub fn run_flows_scheme_b_traced_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        workload: &FlowWorkload,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<(FlowRunStats, PacingTrace), HycapError> {
        let run = FlowRun::scheme_b(net, plan, workload, rng);
        self.run_flows(run, obs).map(|o| (o.stats, o.trace))
    }

    /// The event loop every run drains, returning the flow outcome and the
    /// steady statistics. `mobility` is `None` for a route without
    /// positions (scheme C); `demand` is `(seed, skip, active_set)` under
    /// demand pacing.
    fn drive<Rt: Route, R: Rng + ?Sized, S: MetricsSink>(
        &self,
        mut route: Rt,
        mut mobility: Option<(&mut HybridNetwork, &mut R)>,
        demand: Option<(u64, bool, bool)>,
        injection: Injection,
        obs: &mut Observer<S>,
    ) -> Result<(FlowOutcome, PacketStats), HycapError> {
        let timer = SpanTimer::start();
        let family = route.family();
        let (horizon, specs, window, mut steady) = match injection {
            Injection::Flows(w) => (w.horizon, w.specs(route.pairs()), w.window, None),
            Injection::Steady(Steady { lambda, slots }) => {
                let acc = Accumulator { lambda, acc: 0.0 };
                (slots, Vec::new(), 0, Some(acc))
            }
        };
        let is_steady = steady.is_some();
        let [what, probe, span] = family.labels(is_steady);
        let skip = matches!(demand, Some((_, true, _)));
        if specs.len() > u32::MAX as usize {
            let detail = format!(
                "workload generates {} flows; at most 2^32 supported",
                specs.len()
            );
            return Err(HycapError::invalid("workload", detail));
        }
        let mut events = self.event_queue();
        for (id, spec) in specs.iter().enumerate() {
            if route.covers(spec.pair) {
                events.push(spec.arrival, Event::Arrival { flow: id as u32 });
            }
        }
        events.push(0, Event::SlotBoundary { slot: 0 });
        let mut ledger = Ledger::new(specs, window);
        let range = mobility
            .as_ref()
            .map_or(0.0, |(net, _)| critical_range(net.n(), self.c_t));
        let scheduler = SStarScheduler::new(self.delta);
        let (mut buf, mut ws, mut pairs) = (Vec::new(), SlotWorkspace::new(), Vec::new());
        let mut landed = Vec::new();
        let mut trace = PacingTrace {
            slots: horizon as u64,
            ..PacingTrace::default()
        };
        while let Some((t, ev)) = events.pop() {
            match ev {
                Event::Arrival { flow } => {
                    ledger.started += 1;
                    let p = ledger.specs[flow as usize].pair;
                    route.refill(p, |q| ledger.admit(flow, q, t));
                }
                Event::HopComplete { flow: pair, hop } => {
                    let p = pair as usize;
                    let Some(packet @ (flow, ts)) = route.land(p, hop as usize) else {
                        continue;
                    };
                    if obs.sink.enabled() {
                        obs.sink.observe("flows.delay", (t - ts) as f64);
                    }
                    if ledger.deliver(packet, t) {
                        events.push(t, Event::FlowDone { flow });
                    } else {
                        route.refill(p, |q| ledger.admit(flow, q, t));
                    }
                }
                Event::SlotBoundary { slot } => {
                    let rel = slot as usize;
                    let count = steady.as_mut().map_or(0, Accumulator::step);
                    if count > 0 {
                        for p in 0..route.pairs() {
                            if route.covers(p) {
                                route.refill(p, |q| ledger.inject(p, count, q, t));
                            }
                        }
                    }
                    // The one idle test: at a boundary every packet sent last
                    // slot has landed (HopComplete drains before
                    // SlotBoundary; a steady run lands hand-offs within their
                    // slot), so with every injected packet delivered no queue
                    // holds anything.
                    let idle = demand.is_some() && ledger.injected == ledger.delivered;
                    route.tick(rel, !idle);
                    if idle {
                        trace.idle_slots += 1;
                    } else {
                        if let Some((net, rng)) = mobility.as_mut() {
                            match demand {
                                Some((seed, ..)) => {
                                    net.advance_slot_into(seed, self.base_slot + slot, &mut buf)
                                }
                                None => net.advance_into(&mut **rng, &mut buf),
                            }
                            let (ws, pairs) = (&mut ws, &mut pairs);
                            match route.active_nodes() {
                                Some(nodes) => schedule_active_observed(
                                    &scheduler, &buf, range, nodes, slot, ws, pairs, obs,
                                ),
                                None => {
                                    let alive = route.alive();
                                    schedule_observed(
                                        &scheduler, &buf, range, alive, slot, ws, pairs, obs,
                                    )
                                }
                            }
                        }
                        let mut tx = Tx {
                            events: &mut events,
                            t,
                            same_slot: is_steady,
                            delivered: &mut landed,
                        };
                        route.serve(rel, &pairs, &mut tx);
                        for packet in landed.drain(..) {
                            ledger.book(packet, t);
                        }
                    }
                    if rel + 1 < horizon {
                        if idle && skip {
                            let (events, steady) = (&mut events, steady.as_mut());
                            let ff = fast_forward(&mut route, events, steady, t, rel, horizon);
                            trace.idle_slots += ff;
                            trace.fast_forwarded += ff;
                        } else {
                            events.push(t + 1, Event::SlotBoundary { slot: slot + 1 });
                        }
                    }
                }
                Event::FlowDone { flow } => {
                    let fct = t - ledger.specs[flow as usize].arrival;
                    ledger.fcts.push(fct);
                    if obs.sink.enabled() {
                        obs.sink.observe("flows.fct", fct as f64);
                    }
                }
            }
        }
        if let Some(exceeded) = events.interrupted() {
            let completed = events.budget_slots_completed();
            let sink = &mut obs.sink;
            if sink.enabled() {
                sink.counter(metric!(family, is_steady, "interrupted"), 1);
                sink.counter(metric!(family, is_steady, "completed_slots"), completed);
                if is_steady {
                    sink.counter(metric!(family, true, "injected"), ledger.injected);
                    sink.counter(metric!(family, true, "delivered"), ledger.delivered);
                } else {
                    sink.counter(metric!(family, false, "started"), ledger.started);
                    let done = ledger.fcts.len() as u64;
                    sink.counter(metric!(family, false, "completed"), done);
                }
            }
            return Err(budget::interrupted_error(
                what,
                completed,
                horizon as u64,
                exceeded,
            ));
        }
        let packets = ledger.packet_stats(horizon, route.pairs());
        let stats = ledger.into_stats(horizon, events.drained());
        if let Some(probes) = obs.probes_mut() {
            let (injected, delivered) = (stats.packets_injected, stats.packets_delivered);
            probes.flow_conservation(probe, None, injected, delivered, route.held());
        }
        let degraded = route.finish(horizon, is_steady, obs);
        let sink = &mut obs.sink;
        if sink.enabled() {
            if family == Family::SchemeBFaulted {
                sink.counter(metric!(family, is_steady, "faulted_runs"), 1);
            } else {
                sink.counter(metric!(family, is_steady, "runs"), 1);
                let (injected, delivered) = (stats.packets_injected, stats.packets_delivered);
                sink.counter(metric!(family, is_steady, "injected"), injected);
                sink.counter(metric!(family, is_steady, "delivered"), delivered);
                if is_steady {
                    let throughput = packets.throughput_per_node;
                    sink.observe(metric!(family, true, "throughput"), throughput);
                } else {
                    sink.counter(metric!(family, false, "started"), stats.flows_started);
                    let done = stats.flows_completed;
                    sink.counter(metric!(family, false, "completed"), done);
                }
            }
            if demand.is_some() && !is_steady {
                // `fast_forwarded` is deliberately NOT snapshotted: it is the
                // one counter allowed to differ between a skip run and its
                // `--no-skip` reference walk.
                sink.counter(metric!(family, false, "idle_slots"), trace.idle_slots);
            }
            sink.span(span, timer.elapsed_micros());
        }
        let outcome = FlowOutcome {
            stats,
            trace,
            degraded,
        };
        Ok((outcome, packets))
    }
}

/// Fast-forwards from the idle boundary at relative slot `rel` (which must
/// satisfy `rel + 1 < horizon`) to the next pending event or, under steady
/// traffic, the next slot that injects — or to the end of the run when
/// neither falls inside the horizon. Every boundary jumped over is provably
/// idle (the queue holds nothing earlier than the target, no packet is
/// injected before it, and an idle boundary's only effect is pushing its
/// successor), so it is skipped through [`EventQueue::skip_boundaries`]:
/// charged to the run budget and counted as drained, never materialized.
/// The steady accumulator steps once per skipped slot and a clocked route
/// ticks once per skipped slot, so both match a `--no-skip` walk. Pushes
/// the target boundary when one remains inside the horizon, and returns the
/// number of boundaries fast-forwarded.
fn fast_forward<Rt: Route>(
    route: &mut Rt,
    events: &mut EventQueue,
    steady: Option<&mut Accumulator>,
    t: Time,
    rel: usize,
    horizon: usize,
) -> u64 {
    let mut jump = match events.peek_time() {
        Some(te) => te.max(t + 1) - t,
        None => (horizon - rel) as u64,
    };
    if let Some(acc) = steady {
        jump = acc.quiet(jump - 1) + 1;
    }
    let (count, target) = if rel + jump as usize >= horizon {
        ((horizon - 1 - rel) as u64, None)
    } else {
        (jump - 1, Some(t + jump))
    };
    if route.clocked() {
        for r in rel + 1..=rel + count as usize {
            if events.skip_boundaries(1) == 0 {
                break;
            }
            route.tick(r, false);
        }
    } else {
        events.skip_boundaries(count);
    }
    if let Some(target) = target {
        events.push(target, Event::SlotBoundary { slot: target });
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycap_infra::BaseStations;
    use hycap_mobility::{Kernel, MobilityKind, Population, PopulationConfig};
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

    /// A scheme-B network of `n` nodes over `k` regular BSs in `cells`²
    /// groups.
    fn scheme_b_net(
        n: usize,
        k: usize,
        cells: usize,
        seed: u64,
    ) -> (HybridNetwork, SchemeBPlan, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PopulationConfig::builder(n)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(k, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(n, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, cells);
        (HybridNetwork::with_infrastructure(pop, bs), plan, rng)
    }

    fn run(engine: &PacketEngine, run: FlowRun<'_>) -> Result<FlowOutcome, HycapError> {
        engine.run_flows(run, &mut Observer::noop())
    }

    #[test]
    fn chains_flows_complete_at_low_load() {
        let (mut net, mut rng) = dense_net(80, 21);
        let traffic = TrafficMatrix::permutation(80, &mut rng);
        let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        let w = FlowWorkload::deterministic(2500, 2, 5000).with_seed(3);
        let out = run(
            &PacketEngine::default(),
            FlowRun::chains(&mut net, &chains, &w, &mut rng),
        )
        .unwrap();
        let stats = out.stats;
        assert_eq!(stats.flows_started, 160);
        assert!(stats.flows_completed > 0, "no flow completed: {stats:?}");
        assert!(stats.mean_fct > 0.0);
        assert!(stats.fct_p99.unwrap() >= stats.fct_p50.unwrap());
        assert_eq!(
            stats.packets_injected,
            stats.packets_delivered + stats.backlog
        );
        assert!(stats.events as usize >= w.horizon);
        assert!(out.degraded.is_none(), "chains carry no fault accounting");
    }

    #[test]
    fn demand_pacing_is_invariant_under_skip_and_active_set() {
        let traffic = {
            let (_, mut rng) = dense_net(80, 21);
            TrafficMatrix::permutation(80, &mut rng)
        };
        let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        let w = FlowWorkload::poisson(0.0004, 3, 5000).with_seed(3);
        let mut results = Vec::new();
        for (skip, active_set) in [(false, false), (false, true), (true, false), (true, true)] {
            let (mut net, mut rng) = dense_net(80, 21);
            let engine = PacketEngine::default().with_pacing(Pacing::Demand {
                seed: 99,
                skip,
                active_set,
            });
            let FlowOutcome { stats, trace, .. } =
                run(&engine, FlowRun::chains(&mut net, &chains, &w, &mut rng)).unwrap();
            if !skip {
                assert_eq!(trace.fast_forwarded, 0, "no-skip walked every boundary");
            } else {
                assert!(trace.fast_forwarded > 0, "low load must fast-forward");
            }
            results.push((stats, trace.idle_slots));
        }
        assert!(results[0].0.flows_completed > 0, "{:?}", results[0].0);
        for r in &results[1..] {
            assert_eq!(r.0, results[0].0, "stats must not depend on pacing flags");
            assert_eq!(r.1, results[0].1, "idleness is a property of the traffic");
        }
    }

    #[test]
    fn demand_pacing_rejects_history_dependent_mobility() {
        let mut rng = StdRng::seed_from_u64(30);
        let config = PopulationConfig::builder(40)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::TetheredWalk { step_frac: 0.01 })
            .build();
        let pop = Population::generate(&config, &mut rng);
        let mut net = HybridNetwork::ad_hoc(pop);
        let chains = vec![vec![0, 1]];
        let w = FlowWorkload::poisson(0.001, 2, 100);
        let engine = PacketEngine::default().with_demand_pacing(7);
        let err = run(&engine, FlowRun::chains(&mut net, &chains, &w, &mut rng)).unwrap_err();
        assert!(matches!(err, HycapError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn window_gates_admission() {
        let (mut net, mut rng) = dense_net(40, 22);
        let chains = vec![vec![0, 1]];
        // One giant flow, window 1: at most one packet in flight, so
        // injected counts deliveries + the single in-flight packet.
        let w = FlowWorkload::deterministic(10_000, 500, 2000).with_window(1);
        let engine = PacketEngine::default();
        let stats = run(&engine, FlowRun::chains(&mut net, &chains, &w, &mut rng))
            .unwrap()
            .stats;
        assert_eq!(stats.flows_started, 1);
        assert!(stats.packets_injected <= stats.packets_delivered + 1);
    }

    #[test]
    fn empty_workload_is_clean() {
        let (mut net, mut rng) = dense_net(30, 23);
        let chains = vec![vec![0, 1]];
        let w = FlowWorkload::poisson(0.0, 4, 200);
        let engine = PacketEngine::default();
        let stats = run(&engine, FlowRun::chains(&mut net, &chains, &w, &mut rng))
            .unwrap()
            .stats;
        assert_eq!(stats.flows_started, 0);
        assert_eq!(stats.packets_injected, 0);
        assert_eq!(stats.mean_fct, 0.0);
        assert!(stats.fct_p50.is_none());
        assert_eq!(stats.mean_delay, 0.0);
        assert_eq!(stats.completion_ratio(), 1.0);
        assert_eq!(stats.slots, 200);
    }

    #[test]
    fn short_chains_and_misplaced_faults_are_rejected() {
        let (mut net, mut rng) = dense_net(30, 23);
        let w = FlowWorkload::poisson(0.01, 1, 50);
        let engine = PacketEngine::default();
        let short = vec![vec![0, 1], vec![2]];
        let err = run(&engine, FlowRun::chains(&mut net, &short, &w, &mut rng)).unwrap_err();
        assert!(err.to_string().contains("chain 1"), "{err}");
        let chains = vec![vec![0, 1]];
        let schedule = FaultSchedule::empty().crash_bs(0, 0);
        let faulted = FlowRun::chains(&mut net, &chains, &w, &mut rng)
            .faults(&schedule, OutagePolicy::RadioOff);
        let err = run(&engine, faulted).unwrap_err();
        assert!(
            matches!(err, HycapError::InvalidParameter { name: "faults", .. }),
            "{err}"
        );
    }

    #[test]
    fn budget_cut_runs_report_the_flows_completed_so_far() {
        use crate::budget::RunBudget;
        let (mut net, mut rng) = dense_net(80, 21);
        let traffic = TrafficMatrix::permutation(80, &mut rng);
        let chains: Vec<Vec<usize>> = traffic.pairs().map(|(s, d)| vec![s, d]).collect();
        let w = FlowWorkload::deterministic(500, 1, 5000).with_seed(3);
        let engine =
            PacketEngine::default().with_run_budget(RunBudget::unlimited().with_max_slots(2500));
        let mut obs = Observer::recording();
        let run = FlowRun::chains(&mut net, &chains, &w, &mut rng);
        let err = engine.run_flows(run, &mut obs).unwrap_err();
        assert!(matches!(err, HycapError::Interrupted { .. }), "{err}");
        let snap = obs.snapshot();
        let fcts = snap.histogram("flows.fct").map_or(0, |h| h.count());
        assert!(fcts > 0, "the cut must come after some flows completed");
        assert_eq!(snap.counter("flows.chains.completed"), fcts);
        assert_eq!(snap.counter("flows.chains.completed_slots"), 2500);
    }

    #[test]
    fn scheme_b_flows_run_end_to_end() {
        let (mut net, plan, mut rng) = scheme_b_net(150, 16, 4, 24);
        let w = FlowWorkload::deterministic(1500, 2, 3000).with_seed(9);
        let out = run(
            &PacketEngine::default(),
            FlowRun::scheme_b(&mut net, &plan, &w, &mut rng),
        )
        .unwrap();
        let stats = out.stats;
        assert_eq!(stats.flows_started, 300);
        assert!(stats.packets_delivered > 0, "{stats:?}");
        assert_eq!(
            stats.packets_injected,
            stats.packets_delivered + stats.backlog
        );
        let degraded = out.degraded.expect("scheme B reports its accounting");
        assert_eq!(degraded.infra_delivered, stats.packets_delivered);
        assert_eq!(degraded.k_alive_mean, 16.0);
        assert_eq!(degraded.fallback_share(), 0.0);
    }

    #[test]
    fn scheme_c_flows_are_deterministic() {
        use hycap_geom::{Point, Torus};
        let mut rng = StdRng::seed_from_u64(25);
        let torus = Torus::UNIT;
        let centers = vec![Point::new(0.25, 0.25), Point::new(0.75, 0.75)];
        let radius = 0.1;
        let n = 60;
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
        let w = FlowWorkload::poisson(0.002, 3, 1000).with_seed(5);
        let engine = PacketEngine::default();
        let a = run(
            &engine,
            FlowRun::scheme_c(&plan, &layout, &traffic, 1.0, &w),
        )
        .unwrap();
        let b = run(
            &engine,
            FlowRun::scheme_c(&plan, &layout, &traffic, 1.0, &w),
        )
        .unwrap();
        assert!(a.stats.flows_started > 0);
        assert!(a.stats.packets_delivered > 0, "{a:?}");
        assert_eq!(a, b);
        let err = run(
            &engine,
            FlowRun::scheme_c(&plan, &layout, &traffic, 0.0, &w),
        )
        .unwrap_err();
        assert!(
            matches!(err, HycapError::InvalidParameter { name: "c", .. }),
            "{err}"
        );
    }

    #[test]
    fn faulted_scheme_b_flows_degrade_under_crashes() {
        let (mut net, plan, mut rng) = scheme_b_net(120, 9, 3, 27);
        let schedule = FaultSchedule::empty().crash_bs(0, 0).crash_bs(0, 1);
        let w = FlowWorkload::deterministic(900, 2, 1800).with_seed(4);
        let faulted = FlowRun::scheme_b(&mut net, &plan, &w, &mut rng)
            .faults(&schedule, OutagePolicy::RadioOff);
        let out = run(&PacketEngine::default(), faulted).unwrap();
        let (base, degraded) = (out.stats, out.degraded.unwrap());
        assert_eq!(degraded.outage_slots, 1800);
        assert!(degraded.k_alive_mean < 9.0);
        assert_eq!(base.packets_injected, base.packets_delivered + base.backlog);
        assert_eq!(
            degraded.infra_delivered + degraded.fallback_delivered,
            base.packets_delivered
        );
    }
}
