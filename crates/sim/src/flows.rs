//! Flow-level workloads on top of the discrete-event core.
//!
//! The steady-state entry points in `packet.rs` measure open-loop injection
//! at a fixed rate `λ` forever. This module adds the missing half of the
//! story: **finite flows**. Each traffic pair carries a sequence of flows —
//! arrivals drawn from a Poisson or deterministic process, sizes from a
//! fixed or elephant/mice mix — and every flow pushes its packets through a
//! per-flow FIFO with a window limit, so flow-completion time (FCT) and
//! per-packet delay become first-class measurements.
//!
//! Every flow run is one [`FlowRun`] handed to [`PacketEngine::run_flows`]:
//! a route, a [`FlowWorkload`] and, for scheme B, an optional fault
//! schedule. The route says how packets cross the network:
//!
//! * [`FlowRun::chains`] pushes each pair's packets along a fixed node
//!   chain, one hop per slot, longest-queue-first across the chains that
//!   watch a scheduled link;
//! * [`FlowRun::scheme_a`] materializes one relay chain per pair from
//!   scheme A's plan and runs those chains;
//! * [`FlowRun::scheme_b`] runs uplink → wired backbone → downlink; under
//!   [`FlowRun::faults`] dead-BS contacts are wasted, the backbone drains
//!   over surviving wires and flows of a dead group fall back to direct
//!   contacts;
//! * [`FlowRun::scheme_c`] runs scheme C's deterministic cellular TDMA
//!   sweep and draws no mobility.
//!
//! One event loop serves every route. It owns spec generation, admission,
//! delivery and FCT, the demand-pacing idle test and fast-forward, the run
//! budget and the finalizer. A private `Route` trait owns what differs per
//! scheme: the hop queues and in-flight lists, where a landed packet goes,
//! how one slot's schedule is served, and the route's metric names.
//!
//! Everything drains one [`EventQueue`](crate::EventQueue) in strict
//! `(time, class, key, seq)` order:
//!
//! * [`Event::Arrival`] carries the *flow instance* id (an index into the
//!   generated [`FlowSpec`] list) and admits the first window of packets;
//! * [`Event::HopComplete`] carries the *pair* (route) id — the in-transit
//!   packet itself is popped FIFO from the pair's transit list, so batches
//!   of same-slot completions stay in transmission order;
//! * [`Event::SlotBoundary`] advances mobility, runs the `S*` scheduler (or
//!   the TDMA/backbone machinery) and transmits;
//! * [`Event::FlowDone`] records the FCT after everything else in the slot.
//!
//! The workload itself ([`FlowWorkload`], in `workload.rs`) is drawn from
//! counter-based streams independent of the mobility RNG, so the same
//! workload can be replayed against any mobility draw.

use crate::budget;
use crate::events::{Event, EventList, EventQueue, Time};
use crate::faults::{FaultInjector, FaultSchedule, FaultTally, OutagePolicy};
use crate::packet::{Pacing, PacingTrace, PacketEngine};
use crate::workload::{FlowSpec, FlowWorkload};
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
use std::collections::{BTreeSet, VecDeque};

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

/// Scheme B's degradation accounting for one flow run. A run without faults,
/// or with an empty fault schedule, reports every BS alive and every packet
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

/// What [`PacketEngine::run_flows`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOutcome {
    /// The run's flow statistics.
    pub stats: FlowRunStats,
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

/// A packet in the network: its flow instance and admission slot.
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

/// The flow bookkeeping of one run: specs, per-flow progress, run totals
/// and the FCTs recorded so far.
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

    /// Books `packet` delivered at `now`; `true` when it was its flow's last.
    fn deliver(&mut self, (flow, ts): Packet, now: Time) -> bool {
        self.delivered += 1;
        self.delay_sum += now - ts;
        let st = &mut self.flows[flow as usize];
        st.delivered += 1;
        st.in_network -= 1;
        st.delivered == self.specs[flow as usize].size
    }

    /// The run's statistics over `slots` slots and `events` drained events.
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

/// Puts pair `p`'s `packet` in flight over `hop` (onto `wire`): it lands at
/// `t + 1`.
fn send(
    wire: &mut EventList<Packet>,
    packet: Packet,
    events: &mut EventQueue,
    t: Time,
    p: usize,
    hop: u32,
) {
    wire.push(packet);
    let flow = p as u32;
    events.push(t + 1, Event::HopComplete { flow, hop });
}

/// The three-hop pipeline schemes B and C share: packets wait at the
/// source, go up (hop 0) into the backbone queue, over the wire (hop 1) into
/// the destination queue and down (hop 2) to the destination.
struct Stages {
    at_src: Vec<Queue>,
    at_backbone: Vec<Queue>,
    at_dst: Vec<Queue>,
    transit: Vec<[EventList<Packet>; 3]>,
    /// One wire-budget accumulator per distinct `(source, destination)`
    /// group pair, shared by every flow on it; `wire_of[p]` indexes flow
    /// `p`'s.
    wire_of: Vec<u32>,
    wire_budget: Vec<f64>,
}

impl Stages {
    /// Stages for one flow per entry of `groups`, flow `p` running between
    /// the groups (or cells) `groups[p]`.
    fn new(groups: &[(usize, usize)]) -> Self {
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
            wire_of,
            wire_budget: vec![0.0; distinct.len()],
        }
    }

    /// Lands pair `p`'s packet from `hop` (0–2): queued for the next hop, or
    /// returned once down at the destination.
    fn land(&mut self, p: usize, hop: usize) -> Option<Packet> {
        let entry = self.transit[p][hop].pop_front().expect("in-transit packet");
        match hop {
            0 => self.at_backbone[p].push_back(entry),
            1 => self.at_dst[p].push_back(entry),
            _ => return Some(entry),
        }
        None
    }

    /// Sends one of pair `p`'s source packets up; `false` when none waits.
    fn uplink(&mut self, p: usize, t: Time, events: &mut EventQueue) -> bool {
        let Some(entry) = self.at_src[p].pop_front() else {
            return false;
        };
        send(&mut self.transit[p][0], entry, events, t, p, 0);
        true
    }

    /// Sends one packet down to the pair in `candidates` with the longest
    /// destination queue (the first wins ties).
    fn downlink(&mut self, candidates: &[usize], t: Time, events: &mut EventQueue) {
        let mut best: Option<usize> = None;
        for &p in candidates {
            let len = self.at_dst[p].len();
            if len > 0 && best.is_none_or(|b| len > self.at_dst[b].len()) {
                best = Some(p);
            }
        }
        if let Some(p) = best {
            let entry = self.at_dst[p].pop_front().expect("nonempty");
            send(&mut self.transit[p][2], entry, events, t, p, 2);
        }
    }

    /// Moves pair `p`'s backbone queue onto the wire: all of it within one
    /// group (`rate` is `None`), otherwise one packet per whole unit of the
    /// group pair's budget after accruing `rate`.
    fn drain(&mut self, p: usize, rate: Option<f64>, t: Time, events: &mut EventQueue) {
        let (queue, wire) = (&mut self.at_backbone[p], &mut self.transit[p][1]);
        let Some(rate) = rate else {
            while let Some(entry) = queue.pop_front() {
                send(wire, entry, events, t, p, 1);
            }
            return;
        };
        let budget = &mut self.wire_budget[self.wire_of[p] as usize];
        *budget += rate;
        while *budget >= 1.0 {
            let Some(entry) = queue.pop_front() else {
                break;
            };
            *budget -= 1.0;
            send(wire, entry, events, t, p, 1);
        }
    }
}

/// The family a route reports under: its error and probe labels, its span
/// and its `flows.<route>.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Chains,
    SchemeB,
    /// Scheme B under a non-empty fault schedule, which reports its
    /// degradation accounting in place of the run totals.
    SchemeBFaulted,
    SchemeC,
}

/// The `flows.<route>.$name` metric of family `$family`.
macro_rules! metric {
    ($family:expr, $name:literal) => {
        match $family {
            Family::Chains => concat!("flows.chains.", $name),
            Family::SchemeB | Family::SchemeBFaulted => concat!("flows.scheme_b.", $name),
            Family::SchemeC => concat!("flows.scheme_c.", $name),
        }
    };
}

impl Family {
    /// `(error label, probe label, span)`.
    fn labels(self) -> [&'static str; 3] {
        match self {
            Family::Chains => ["flow chains run", "flow chains", "packet.run_flows"],
            Family::SchemeB => [
                "flow scheme B run",
                "flow scheme B",
                "packet.run_flows_scheme_b",
            ],
            Family::SchemeBFaulted => [
                "faulted flow scheme B run",
                "flow scheme B faulted",
                "packet.run_flows_scheme_b_faulted",
            ],
            Family::SchemeC => [
                "flow scheme C run",
                "flow scheme C",
                "packet.run_flows_scheme_c",
            ],
        }
    }
}

/// The per-scheme half of a flow run: hop queues, in-flight lists and slot
/// service. The event loop in [`PacketEngine::run_flows`] owns the rest.
trait Route {
    /// The family this route reports under.
    fn family(&self) -> Family;

    /// Traffic pairs, each with its own source queue.
    fn pairs(&self) -> usize;

    /// Whether pair `p` starts flows at all (scheme C skips sources outside
    /// every cell).
    fn covers(&self, _p: usize) -> bool {
        true
    }

    /// Hands pair `p`'s source queue to `fill`, which admits packets.
    fn refill(&mut self, p: usize, fill: impl FnOnce(&mut Queue));

    /// Lands the packet pair `p` sent over `hop` last slot: queues it for
    /// its next hop, or returns it once it reached its destination.
    fn land(&mut self, p: usize, hop: usize) -> Option<Packet>;

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

    /// Serves relative slot `rel` at time `t` from the scheduled `pairs`
    /// (empty for a route without positions).
    fn serve(&mut self, t: Time, rel: usize, pairs: &[ScheduledPair], events: &mut EventQueue);

    /// Route-specific end-of-run metrics and probes, and scheme B's
    /// degradation accounting.
    fn finish<S: MetricsSink>(
        &self,
        _horizon: usize,
        _obs: &mut Observer<S>,
    ) -> Option<DegradedFlowStats> {
        None
    }
}

/// Relay chains: pair `p`'s packets walk `chains[p]`, one hop per slot.
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
        if h + 1 == self.queues[p].len() {
            return Some(entry);
        }
        let was_empty = self.queues[p][h + 1].is_empty();
        self.queues[p][h + 1].push_back(entry);
        if self.active_set && was_empty {
            self.hop_load(p, h + 1, true);
        }
        None
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
    fn serve(&mut self, t: Time, _rel: usize, pairs: &[ScheduledPair], events: &mut EventQueue) {
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
                send(&mut self.transit[p][h], entry, events, t, p, h as u32);
            }
        }
    }
}

/// The fault state of a scheme-B run under a non-empty schedule.
struct BFaults {
    injector: FaultInjector,
    policy: OutagePolicy,
    /// The `MS ++ BS` liveness vector of the current active slot.
    alive: Vec<bool>,
    alive_per_group: Vec<usize>,
    /// Packets in flight over the ad-hoc fallback (hop 3), per pair.
    fallback: Vec<EventList<Packet>>,
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
                fallback: (0..n).map(|_| EventList::new()).collect(),
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
            stages: Stages::new(&groups),
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
    fn serve_fallback(&mut self, a: usize, b: usize, t: Time, events: &mut EventQueue) {
        for (u, v) in [(a, b), (b, a)] {
            if self.plan.flows()[u].dst != v || !self.fallback_active(u) {
                continue;
            }
            if let Some(entry) = self.stages.at_src[u].pop_front() {
                let f = self.faults.as_mut().expect("fallback runs under faults");
                send(&mut f.fallback[u], entry, events, t, u, 3);
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
        match hop {
            2 => self.acct.infra_delivered += 1,
            3 => {
                self.acct.fallback_delivered += 1;
                let f = self.faults.as_mut().expect("fallback runs under faults");
                return f.fallback[p].pop_front();
            }
            _ => {}
        }
        self.stages.land(p, hop)
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

    fn serve(&mut self, t: Time, _rel: usize, pairs: &[ScheduledPair], events: &mut EventQueue) {
        let n = self.n;
        for &pair in pairs {
            let (ms, bsid) = if pair.a < n && pair.b >= n {
                (pair.a, pair.b - n)
            } else if pair.b < n && pair.a >= n {
                (pair.b, pair.a - n)
            } else {
                if pair.a < n && pair.b < n && self.faults.is_some() {
                    self.serve_fallback(pair.a, pair.b, t, events);
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
                self.stages.uplink(ms, t, events);
            }
            self.stages.downlink(&self.flows_by_dst[ms], t, events);
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
            self.stages.drain(p, rate, t, events);
        }
    }

    fn finish<S: MetricsSink>(
        &self,
        horizon: usize,
        obs: &mut Observer<S>,
    ) -> Option<DegradedFlowStats> {
        let Some(f) = &self.faults else {
            return Some(self.acct);
        };
        let tally = f.injector.tally();
        let acct = DegradedFlowStats {
            k_alive_mean: f.alive_sum as f64 / horizon as f64,
            tally,
            ..self.acct
        };
        if let Some(probes) = obs.probes_mut() {
            probes.fault_tally(
                "flow scheme B injector",
                self.k,
                f.injector.scripted_mask().alive_count(),
                f.injector.alive_count(),
                tally.bs_crashes + tally.bs_repairs,
                tally.bernoulli_bs_outages,
            );
        }
        let sink = &mut obs.sink;
        if sink.enabled() {
            sink.counter(
                "flows.scheme_b.lost_uplink_contacts",
                acct.lost_uplink_contacts,
            );
            sink.counter(
                "flows.scheme_b.backbone_stalled_slots",
                acct.backbone_stalled_slots,
            );
            sink.counter("flows.scheme_b.fallback_delivered", acct.fallback_delivered);
            sink.observe("flows.scheme_b.k_alive_mean", acct.k_alive_mean);
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
            stages: Stages::new(&cells),
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

    /// Uncovered sources inject nothing, as in the steady engine.
    fn covers(&self, p: usize) -> bool {
        self.plan.serving_cell(p) != usize::MAX
    }

    fn refill(&mut self, p: usize, fill: impl FnOnce(&mut Queue)) {
        fill(&mut self.stages.at_src[p]);
    }

    fn land(&mut self, p: usize, hop: usize) -> Option<Packet> {
        self.stages.land(p, hop)
    }

    /// In every cluster, cells of group `rel mod groups` are active.
    fn serve(&mut self, t: Time, rel: usize, _pairs: &[ScheduledPair], events: &mut EventQueue) {
        for (cell, &(group, groups)) in self.cell_group.iter().enumerate() {
            if group % groups != rel % groups {
                continue;
            }
            let mem = &self.members[cell];
            for probe in 0..mem.len() {
                if self
                    .stages
                    .uplink(mem[(self.uplink_rr[cell] + probe) % mem.len()], t, events)
                {
                    self.uplink_rr[cell] = (self.uplink_rr[cell] + probe + 1) % mem.len();
                    break;
                }
            }
            self.stages
                .downlink(&self.flows_by_dst_cell[cell], t, events);
        }
        for p in 0..self.cells.len() {
            if !self.stages.at_backbone[p].is_empty() {
                let (cs, cd) = self.cells[p];
                self.stages
                    .drain(p, (cs != cd).then_some(self.c), t, events);
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

/// One finite-flow run: a route, a [`FlowWorkload`] and, for scheme B, an
/// optional fault schedule. Build it with [`FlowRun::chains`],
/// [`FlowRun::scheme_a`], [`FlowRun::scheme_b`] or [`FlowRun::scheme_c`] and
/// run it with [`PacketEngine::run_flows`].
///
/// The RNG type parameter only matters for routes over a mobile network;
/// [`FlowRun::scheme_c`] fixes it to [`StdRng`], which it never draws from.
pub struct FlowRun<'a, R: ?Sized = StdRng> {
    route: RouteSpec<'a>,
    /// The network whose mobility the route rides, and the RNG legacy
    /// pacing advances it from (`None` for scheme C).
    mobility: Option<(&'a mut HybridNetwork, &'a mut R)>,
    workload: FlowWorkload,
    faults: Option<(&'a FaultSchedule, OutagePolicy)>,
}

impl<'a, R: Rng + ?Sized> FlowRun<'a, R> {
    /// Flows over relay chains (the flow-level counterpart of
    /// [`PacketEngine::run_chains`]): `chains[p]` is pair `p`'s node
    /// sequence `[source, …, destination]`. Flows of pair `p` push their
    /// packets along it, one hop per slot, FIFO within each hop queue and
    /// longest-queue-first across the flows watching a scheduled link (the
    /// steady-state engine's discipline).
    pub fn chains(
        net: &'a mut HybridNetwork,
        chains: &'a [Vec<usize>],
        workload: &FlowWorkload,
        rng: &'a mut R,
    ) -> Self {
        Self::new(RouteSpec::Chains(chains), Some((net, rng)), workload)
    }

    /// Flows under scheme A's plan: one relay chain per pair is
    /// materialized from `rng`, then run as [`FlowRun::chains`]. (The
    /// steady-state [`PacketEngine::run_scheme_a`] keeps the faithful
    /// any-member relaying; pinned chains are the conservative flow-level
    /// model.)
    pub fn scheme_a(
        net: &'a mut HybridNetwork,
        plan: &'a SchemeAPlan,
        traffic: &'a TrafficMatrix,
        workload: &FlowWorkload,
        rng: &'a mut R,
    ) -> Self {
        Self::new(
            RouteSpec::SchemeA(plan, traffic),
            Some((net, rng)),
            workload,
        )
    }

    /// Flows end to end over scheme B: uplink (hop 0, a scheduled
    /// MS–group-BS contact), backbone (hop 1, wire budget
    /// `c·N_b(src)·N_b(dst)` per group pair per slot) and downlink (hop 2, a
    /// scheduled destination contact, longest-queue-first across pairs).
    /// Pair `p`'s source is node `p`, as in the steady-state engine. Active
    /// slots always schedule the full network.
    pub fn scheme_b(
        net: &'a mut HybridNetwork,
        plan: &'a SchemeBPlan,
        workload: &FlowWorkload,
        rng: &'a mut R,
    ) -> Self {
        Self::new(RouteSpec::SchemeB(plan), Some((net, rng)), workload)
    }
}

impl<'a> FlowRun<'a> {
    /// Flows over scheme C's deterministic TDMA: uplink (hop 0, round-robin
    /// over an active cell's member sources), backbone (hop 1, one wire of
    /// bandwidth `c` per cell pair per slot), downlink (hop 2,
    /// longest-queue-first across destination pairs of an active cell).
    /// Uncovered sources start no flows. The run draws no mobility, so
    /// demand pacing needs no counter-samplable stream.
    pub fn scheme_c(
        plan: &'a SchemeCPlan,
        layout: &'a CellularLayout,
        traffic: &'a TrafficMatrix,
        c: f64,
        workload: &FlowWorkload,
    ) -> Self {
        Self::new(RouteSpec::SchemeC(plan, layout, traffic, c), None, workload)
    }
}

impl<'a, R: ?Sized> FlowRun<'a, R> {
    fn new(
        route: RouteSpec<'a>,
        mobility: Option<(&'a mut HybridNetwork, &'a mut R)>,
        workload: &FlowWorkload,
    ) -> Self {
        let workload = *workload;
        FlowRun {
            route,
            mobility,
            workload,
            faults: None,
        }
    }

    /// Injects `schedule`'s faults into a scheme-B run, with outages under
    /// `policy` and the graceful degradation of
    /// [`PacketEngine::run_scheme_b_with_faults`]: dead-BS contacts are
    /// wasted, flows whose source or destination group is fully dead hold
    /// packets at the source and deliver over direct contacts (the ad-hoc
    /// fallback, hop 3), and the backbone drains over surviving wires only.
    /// Idle slots still advance the fault clock, one slot at a time even
    /// when fast-forwarded. An empty schedule runs the fault-free path bit
    /// for bit.
    pub fn faults(mut self, schedule: &'a FaultSchedule, policy: OutagePolicy) -> Self {
        self.faults = Some((schedule, policy));
        self
    }
}

impl PacketEngine {
    /// Runs a finite-flow workload over `run`'s route.
    ///
    /// Under [`Pacing::Demand`] the heavy slot body (mobility, scheduling,
    /// transmission) runs only on slots with packets in the network; with
    /// `skip` on, idle stretches are fast-forwarded through
    /// [`EventQueue::skip_boundaries`] so they are still charged to the run
    /// budget and counted in [`FlowRunStats::events`]. With `active_set` on,
    /// active slots of a chains run schedule only the nodes adjacent to
    /// queued packets ([`SStarScheduler::schedule_active_into`]). Results are
    /// bit-identical across all four demand flag combinations.
    ///
    /// The observer receives per-slot schedule metrics, per-packet delay and
    /// per-flow FCT histograms (`flows.delay`, `flows.fct`), the route's
    /// `flows.<route>.*` counters and end-of-run flow conservation.
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
    pub fn run_flows<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        run: FlowRun<'_, R>,
        obs: &mut Observer<S>,
    ) -> Result<FlowOutcome, HycapError> {
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
        let w = &workload;
        w.validate()?;
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
        let active_set = matches!(demand, Some((_, _, true)));
        match (route, mobility) {
            (RouteSpec::SchemeC(plan, layout, traffic, c), _) => {
                let route = SchemeC::new(plan, layout, traffic, c)?;
                self.drive::<_, R, _>(route, None, demand, w, obs)
            }
            (RouteSpec::Chains(chains), Some(mobility)) => {
                let route = Chains::new(Cow::Borrowed(chains), active_set)?;
                self.drive(route, Some(mobility), demand, w, obs)
            }
            (RouteSpec::SchemeA(plan, traffic), Some((net, rng))) => {
                let chains = plan.materialize_relays(traffic, rng);
                let route = Chains::new(Cow::Owned(chains), active_set)?;
                self.drive(route, Some((net, rng)), demand, w, obs)
            }
            (RouteSpec::SchemeB(plan), Some((net, rng))) => {
                let route = SchemeB::new(net, plan, faults)?;
                self.drive(route, Some((net, rng)), demand, w, obs)
            }
            (_, None) => unreachable!("only scheme C runs without a network"),
        }
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

    /// The event loop every flow run drains. `mobility` is `None` for a
    /// route without positions (scheme C); `demand` is `(seed, skip,
    /// active_set)` under demand pacing.
    fn drive<Rt: Route, R: Rng + ?Sized, S: MetricsSink>(
        &self,
        mut route: Rt,
        mut mobility: Option<(&mut HybridNetwork, &mut R)>,
        demand: Option<(u64, bool, bool)>,
        workload: &FlowWorkload,
        obs: &mut Observer<S>,
    ) -> Result<FlowOutcome, HycapError> {
        let timer = SpanTimer::start();
        let family = route.family();
        let [what, probe, span] = family.labels();
        let skip = matches!(demand, Some((_, true, _)));
        let specs = workload.specs(route.pairs());
        if specs.len() > u32::MAX as usize {
            let detail = format!(
                "workload generates {} flows; at most 2^32 supported",
                specs.len()
            );
            return Err(HycapError::invalid("workload", detail));
        }
        let horizon = workload.horizon;
        let mut events = self.event_queue();
        for (id, spec) in specs.iter().enumerate() {
            if route.covers(spec.pair) {
                events.push(spec.arrival, Event::Arrival { flow: id as u32 });
            }
        }
        events.push(0, Event::SlotBoundary { slot: 0 });
        let mut ledger = Ledger::new(specs, workload.window);
        let range = mobility
            .as_ref()
            .map_or(0.0, |(net, _)| critical_range(net.n(), self.c_t));
        let scheduler = SStarScheduler::new(self.delta);
        let (mut buf, mut ws, mut pairs) = (Vec::new(), SlotWorkspace::new(), Vec::new());
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
                    // The one idle test: at a boundary every packet sent last
                    // slot has landed (HopComplete drains before
                    // SlotBoundary), so with every injected packet delivered
                    // no queue holds anything.
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
                        route.serve(t, rel, &pairs, &mut events);
                    }
                    if rel + 1 < horizon {
                        if idle && skip {
                            let ff = fast_forward(&mut route, &mut events, t, rel, horizon);
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
                sink.counter(metric!(family, "interrupted"), 1);
                sink.counter(metric!(family, "completed_slots"), completed);
                sink.counter(metric!(family, "started"), ledger.started);
                sink.counter(metric!(family, "completed"), ledger.fcts.len() as u64);
            }
            return Err(budget::interrupted_error(
                what,
                completed,
                horizon as u64,
                exceeded,
            ));
        }
        let stats = ledger.into_stats(horizon, events.drained());
        if let Some(probes) = obs.probes_mut() {
            let (injected, delivered) = (stats.packets_injected, stats.packets_delivered);
            probes.flow_conservation(probe, None, injected, delivered, stats.backlog);
        }
        let degraded = route.finish(horizon, obs);
        let sink = &mut obs.sink;
        if sink.enabled() {
            if family == Family::SchemeBFaulted {
                sink.counter("flows.scheme_b.faulted_runs", 1);
            } else {
                sink.counter(metric!(family, "runs"), 1);
                sink.counter(metric!(family, "started"), stats.flows_started);
                sink.counter(metric!(family, "completed"), stats.flows_completed);
                sink.counter(metric!(family, "injected"), stats.packets_injected);
                sink.counter(metric!(family, "delivered"), stats.packets_delivered);
            }
            if demand.is_some() {
                // `fast_forwarded` is deliberately NOT snapshotted: it is the
                // one counter allowed to differ between a skip run and its
                // `--no-skip` reference walk.
                sink.counter(metric!(family, "idle_slots"), trace.idle_slots);
            }
            sink.span(span, timer.elapsed_micros());
        }
        Ok(FlowOutcome {
            stats,
            trace,
            degraded,
        })
    }
}

/// Fast-forwards from the idle boundary at relative slot `rel` (which must
/// satisfy `rel + 1 < horizon`) to the next pending event — or to the end
/// of the run when the queue is empty or the next event falls beyond the
/// horizon. Every boundary jumped over is provably idle (the queue holds
/// nothing earlier than the target, and an idle boundary's only effect is
/// pushing its successor), so it is skipped through
/// [`EventQueue::skip_boundaries`]: charged to the run budget and counted as
/// drained, never materialized. A clocked route still ticks once per
/// skipped slot, so its clock matches a `--no-skip` walk. Pushes the target
/// boundary when one remains inside the horizon, and returns the number of
/// boundaries fast-forwarded.
fn fast_forward<Rt: Route>(
    route: &mut Rt,
    events: &mut EventQueue,
    t: Time,
    rel: usize,
    horizon: usize,
) -> u64 {
    let jump = match events.peek_time() {
        Some(te) => te.max(t + 1) - t,
        None => (horizon - rel) as u64,
    };
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
