//! The BRISA dissemination state machine.
//!
//! [`BrisaCore`] implements the protocol of Section II. This file holds a
//! node's state and its entry points; the rules live in child modules, in
//! the paper's order: the structure's emergence (`emergence.rs`), parent
//! selection and position over [`crate::cycle`]'s rules (`position.rs`),
//! the repair under churn (`repair.rs`), and gap and edge recovery
//! (`recovery.rs`). It is a sans-IO state machine; the `node` module
//! composes it with HyParView into a runnable simulator protocol, and the
//! unit tests below drive it directly.

use crate::buffer::MessageBuffer;
use crate::config::BrisaConfig;
use crate::cycle::CycleState;
use crate::links::Links;
use crate::message::{BrisaMsg, BrisaSink};
use crate::parent::{CandidateSet, NeighborTelemetry};
use crate::stats::BrisaStats;
use brisa_simnet::{NodeId, SimDuration, SimTime};
use brisa_telemetry::{Counter, EventKind as TelEventKind, Histo, Telemetry};

#[path = "emergence.rs"]
mod emergence;
#[path = "position.rs"]
mod position;
#[path = "recovery.rs"]
mod recovery;
#[path = "repair.rs"]
mod repair;
use repair::Loss;
pub use repair::{RepairKind, HARD_REPAIR_RETRY, SOFT_REPAIR_TIMEOUT};

/// Pre-resolved observability handles for the tree-health counters the
/// hot paths bump. Boxed, and only built when
/// [`BrisaCore::set_telemetry`] attaches an enabled registry; strictly
/// out-of-band either way — recording never feeds back into protocol
/// decisions (enforced by the fingerprint tests in
/// `tests/integration_telemetry.rs`).
#[derive(Debug)]
struct CoreTel {
    tel: Telemetry,
    delivered: Counter,
    adopts: Counter,
    deactivations: Counter,
    orphans: Counter,
    orphan_heals: Counter,
    soft_repairs: Counter,
    hard_repairs: Counter,
    gap_requests: Counter,
    retransmits_served: Counter,
    edges_advertised: Counter,
    seq_refused: Counter,
    orphan_us: Histo,
    parent_count: Histo,
}

/// The BRISA protocol state for one node.
#[derive(Debug)]
pub struct BrisaCore {
    me: NodeId,
    cfg: BrisaConfig,
    cycle: CycleState,
    links: Links,
    candidates: CandidateSet,
    buffer: MessageBuffer,
    stats: BrisaStats,
    is_source: bool,
    next_seq: u64,
    highest_seq_seen: Option<u64>,
    started_at: Option<SimTime>,
    pending_repair: Option<(SimTime, RepairKind)>,
    last_repair_attempt: Option<SimTime>,
    last_gap_request: Option<SimTime>,
    /// Gap requests issued since the ledger's cursor (its `low()`, the
    /// contiguous delivered prefix) last advanced; drives the exponential
    /// retry backoff.
    gap_attempts: u32,
    /// Last time stream data arrived from a current parent, an `Edge`
    /// arrived, or a parent was adopted. Drives the staleness test of the
    /// fresh-feeder path and the silent-parent rule.
    last_parent_delivery: Option<SimTime>,
    /// Last time any stream data moved through this node (reception or
    /// publish). Gates the stream-edge advertisement: quiet for
    /// `EDGE_QUIET_AFTER` means the tail may be hiding a hole.
    last_data_at: Option<SimTime>,
    /// Observability handles, `None` unless an enabled registry is
    /// attached: 8 B in every node's slot instead of fifteen handles.
    tel: Option<Box<CoreTel>>,
}

impl BrisaCore {
    /// Creates the state machine for node `me`.
    pub fn new(me: NodeId, cfg: BrisaConfig) -> Self {
        BrisaCore {
            me,
            cycle: CycleState::for_mode(cfg.mode),
            links: Links::new(),
            candidates: CandidateSet::new(),
            buffer: MessageBuffer::new(cfg.buffer_size),
            stats: BrisaStats::with_tracking(cfg.tracking),
            cfg,
            is_source: false,
            next_seq: 0,
            highest_seq_seen: None,
            started_at: None,
            pending_repair: None,
            last_repair_attempt: None,
            last_gap_request: None,
            gap_attempts: 0,
            last_parent_delivery: None,
            last_data_at: None,
            tel: None,
        }
    }

    /// Attaches an observability registry, resolving the counter handles
    /// the hot paths bump. Telemetry is strictly out-of-band: it records
    /// what the protocol did and never influences what it does.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.is_enabled().then(|| {
            Box::new(CoreTel {
                delivered: tel.counter("brisa.delivered"),
                adopts: tel.counter("brisa.adopts"),
                deactivations: tel.counter("brisa.deactivations_sent"),
                orphans: tel.counter("brisa.orphans"),
                orphan_heals: tel.counter("brisa.orphan_heals"),
                soft_repairs: tel.counter("brisa.soft_repairs"),
                hard_repairs: tel.counter("brisa.hard_repairs"),
                gap_requests: tel.counter("brisa.gap_requests"),
                retransmits_served: tel.counter("brisa.retransmissions_served"),
                edges_advertised: tel.counter("brisa.edges_advertised"),
                seq_refused: tel.counter("brisa.seq_refused"),
                orphan_us: tel.histogram("brisa.orphan_us"),
                parent_count: tel.histogram("brisa.parent_count"),
                tel: tel.clone(),
            })
        });
    }

    /// Runs `f` on the observability handles, if a registry is attached.
    #[inline]
    fn with_tel(&self, f: impl FnOnce(&CoreTel)) {
        if let Some(tel) = &self.tel {
            f(tel);
        }
    }

    /// Records a flight-recorder event for this node (no-op when no
    /// registry is attached).
    fn tel_event(&self, now: SimTime, kind: TelEventKind, a: u64, b: u64) {
        self.with_tel(|t| t.tel.event(now.as_micros(), self.me.0, kind, a, b));
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The configuration in force.
    pub fn config(&self) -> &BrisaConfig {
        &self.cfg
    }

    /// Marks this node as the stream source (root of the structure).
    pub fn mark_source(&mut self) {
        self.is_source = true;
        self.cycle.set_root(self.me);
    }

    /// True if this node is the stream source.
    pub fn is_source(&self) -> bool {
        self.is_source
    }

    /// Records the time the node started executing (used to advertise uptime
    /// for the gerontocratic strategy).
    pub fn note_started(&mut self, now: SimTime) {
        self.started_at = Some(now);
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &BrisaStats {
        &self.stats
    }

    /// Rough memory footprint of the dissemination state in bytes (inline
    /// struct plus owned heap at its allocated capacity: the delivery
    /// ledger, repair timelines, the retransmission buffer's record ring,
    /// the link table once it outgrows its inline storage, the candidate
    /// set and this node's own path). Summed across nodes by the
    /// scale-mode bytes-per-node accounting.
    pub fn approx_state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.stats.delivery.heap_bytes()
            + (self.stats.parents_lost.capacity() + self.stats.orphaned.capacity())
                * std::mem::size_of::<SimTime>()
            + (self.stats.soft_repair_delays_us.capacity()
                + self.stats.hard_repair_delays_us.capacity())
                * std::mem::size_of::<u64>()
            + self.buffer.approx_heap_bytes()
            + self.links.approx_heap_bytes()
            + self.candidates.approx_heap_bytes()
            + self.cycle.approx_heap_bytes()
    }

    /// Link state (parents, children, activation flags).
    pub fn links(&self) -> &Links {
        &self.links
    }

    /// Current parents.
    pub fn parents(&self) -> Vec<NodeId> {
        self.links.parents().collect()
    }

    /// Current children (the node's degree in the emerged structure).
    pub fn children(&self) -> Vec<NodeId> {
        self.links.children().collect()
    }

    /// Depth of this node in the emerged structure (hops from the source),
    /// if it has positioned itself.
    pub fn depth(&self) -> Option<usize> {
        self.cycle.position()
    }

    /// True if a repair (soft or hard) is currently in progress.
    pub fn repair_pending(&self) -> bool {
        self.pending_repair.is_some()
    }

    /// A new overlay neighbor appeared (HyParView `NeighborUp`). Links to
    /// new nodes start active in both directions.
    pub fn on_neighbor_up(&mut self, peer: NodeId) {
        if peer != self.me {
            self.links.neighbor_up(peer);
        }
    }

    /// An overlay neighbor disappeared (failure detected by the PSS). If the
    /// neighbor was a parent, the repair procedure of Section II-F runs.
    ///
    /// Like every entry point that can emit traffic, this hands its effects
    /// to the caller's [`BrisaSink`] as it produces them: the simulator
    /// stack writes them straight into its command buffer, and a
    /// `Vec<BrisaAction>` records them.
    pub fn on_neighbor_down(&mut self, now: SimTime, peer: NodeId, out: &mut impl BrisaSink) {
        self.candidates.remove(peer);
        if self.links.neighbor_down(peer) {
            self.lose_parent(now, peer, Loss::LinkDown, out);
        }
    }

    /// Publishes the next stream message (source only). The first call
    /// doubles as the bootstrap flood that seeds the structure.
    pub fn publish(&mut self, now: SimTime, payload_bytes: usize, out: &mut impl BrisaSink) {
        assert!(self.is_source, "only the source publishes stream messages");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.with_tel(|t| t.delivered.inc());
        self.stats.delivery.record(seq, now);
        self.see(seq);
        self.last_data_at = Some(now);
        self.buffer.insert(seq, payload_bytes);
        out.deliver(seq);
        self.relay(now, seq, payload_bytes, None, out);
    }

    /// Handles a BRISA message from `from`, handing what it causes to
    /// `out`. `telemetry` provides link measurements (RTT from the PSS
    /// keep-alives) for the delay-aware strategy.
    pub fn handle(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: BrisaMsg,
        telemetry: &dyn NeighborTelemetry,
        out: &mut impl BrisaSink,
    ) {
        match msg {
            BrisaMsg::Data(data) => self.handle_data(now, from, data, telemetry, out),
            BrisaMsg::Deactivate { symmetric } => self.handle_deactivate(now, from, symmetric, out),
            BrisaMsg::Activate => self.answer_activate(now, from, out),
            BrisaMsg::ReactivationOrder => self.lose_parent(now, from, Loss::Order, out),
            BrisaMsg::Retransmit { from_seq, to_seq } => {
                self.handle_retransmit(now, from, from_seq, to_seq, out)
            }
            BrisaMsg::Edge { highest } => self.handle_edge(now, from, highest, out),
        }
    }

    /// The periodic tick, driven by the embedding stack's timer: the tail
    /// of loss recovery (`recover_tail`: the stream edge's advertisement
    /// and the tail-end gap request), then the repair's supervision
    /// (`drop_silent_parent`, `supervise_repair`).
    pub fn repair_tick(&mut self, now: SimTime, out: &mut impl BrisaSink) {
        self.recover_tail(now, out);
        self.drop_silent_parent(now, out);
        self.supervise_repair(now, out);
    }

    /// True once [`Self::repair_tick`] has something it could act on; while
    /// it is false the tick does nothing at all. One clause per thing the
    /// tick reads:
    /// - the stream's edge, for the edge advertisement and the tail-end gap
    ///   request (data, an `Edge` or `publish` sets it);
    /// - a parent, for `drop_silent_parent` (implied by the edge: only data
    ///   adopts);
    /// - a pending repair, for `supervise_repair` (a `ReactivationOrder`
    ///   starts one on a node that has seen nothing).
    ///
    /// Monotone: the edge is never forgotten, and a pending repair ends only
    /// in an adoption (the source never has one). So the embedding stack
    /// arms the tick once, when this turns true, and never has to ask
    /// whether it is armed.
    pub fn wants_repair_tick(&self) -> bool {
        self.highest_seq_seen.is_some()
            || self.pending_repair.is_some()
            || self.links.parent_count() > 0
    }

    /// How long after `now` a tick that starts now first runs: on the grid
    /// a tick armed at start would run on, `started_at + k ×
    /// repair_tick_period` with k ≥ 1, at its first instant after `now` —
    /// or at `now` itself, if it is on the grid and `ticks_after` says the
    /// callback being run is ordered before this node's tick at one
    /// instant.
    pub(crate) fn first_repair_tick(&self, now: SimTime, ticks_after: bool) -> SimDuration {
        let period = self.cfg.repair_tick_period.as_micros().max(1);
        let since = now
            .saturating_since(self.started_at.unwrap_or(SimTime::ZERO))
            .as_micros();
        let k = since / period;
        let next = if k >= 1 && since.is_multiple_of(period) && ticks_after {
            k
        } else {
            k + 1
        };
        SimDuration::from_micros(next * period - since)
    }
}

#[cfg(test)]
mod tests {
    use super::recovery::{EDGE_QUIET_AFTER, GAP_RETRY};
    use super::*;
    use crate::config::{ParentStrategy, StructureMode};
    use crate::cycle::CycleGuard;
    use crate::message::{BrisaAction, DataMsg};
    use crate::parent::NoTelemetry;
    use brisa_simnet::delivery::WINDOW;
    use brisa_simnet::SimDuration;
    use std::collections::{HashMap, VecDeque};

    /// Runs one core entry point against a fresh action vector and returns
    /// what it appended.
    fn acts(f: impl FnOnce(&mut Vec<BrisaAction>)) -> Vec<BrisaAction> {
        let mut actions = Vec::new();
        f(&mut actions);
        actions
    }

    /// Instant-delivery harness driving a set of BrisaCore instances over a
    /// fixed topology (no membership protocol involved).
    struct Mesh {
        nodes: HashMap<NodeId, BrisaCore>,
        /// (from, to, msg) queue; FIFO order defines arrival order.
        queue: VecDeque<(NodeId, NodeId, BrisaMsg)>,
        now: SimTime,
        /// Per-hop delay applied each time the queue is drained one step.
        hop_delay: SimDuration,
    }

    impl Mesh {
        fn new(cfg: &BrisaConfig, topology: &[(u32, u32)], n: u32) -> Self {
            let mut nodes: HashMap<NodeId, BrisaCore> = (0..n)
                .map(|i| (NodeId(i), BrisaCore::new(NodeId(i), cfg.clone())))
                .collect();
            for (a, b) in topology {
                nodes
                    .get_mut(&NodeId(*a))
                    .unwrap()
                    .on_neighbor_up(NodeId(*b));
                nodes
                    .get_mut(&NodeId(*b))
                    .unwrap()
                    .on_neighbor_up(NodeId(*a));
            }
            for (id, node) in nodes.iter_mut() {
                node.note_started(SimTime::ZERO);
                if *id == NodeId(0) {
                    node.mark_source();
                }
            }
            Mesh {
                nodes,
                queue: VecDeque::new(),
                now: SimTime::ZERO,
                hop_delay: SimDuration::from_millis(1),
            }
        }

        fn publish(&mut self, payload: usize) {
            self.now += self.hop_delay;
            let source = self.nodes.get_mut(&NodeId(0)).unwrap();
            let actions = acts(|a| source.publish(self.now, payload, a));
            self.enqueue(NodeId(0), actions);
            self.drain();
        }

        fn enqueue(&mut self, from: NodeId, effects: Vec<BrisaAction>) {
            for a in effects {
                if let BrisaAction::Send { to, msg } = a {
                    self.queue.push_back((from, to, msg));
                }
            }
        }

        fn drain(&mut self) {
            let mut steps = 0;
            while let Some((from, to, msg)) = self.queue.pop_front() {
                steps += 1;
                assert!(steps < 1_000_000, "mesh did not quiesce");
                self.now += self.hop_delay;
                if !self.nodes.contains_key(&to) {
                    continue; // crashed node
                }
                let node = self.nodes.get_mut(&to).unwrap();
                let actions = acts(|a| node.handle(self.now, from, msg, &NoTelemetry, a));
                self.enqueue(to, actions);
            }
        }

        /// Delivers `msg` from `from` to `to`, then whatever it causes.
        fn send(&mut self, from: NodeId, to: NodeId, msg: BrisaMsg) {
            self.queue.push_back((from, to, msg));
            self.drain();
        }

        /// Runs every node's repair tick once per tick period for `span`,
        /// in identifier order, delivering what each round causes.
        fn tick_for(&mut self, span: SimDuration) {
            let period = self.node(0).config().repair_tick_period;
            let mut ids: Vec<NodeId> = self.nodes.keys().copied().collect();
            ids.sort();
            let end = self.now + span;
            while self.now < end {
                self.now += period;
                for &id in &ids {
                    let node = self.nodes.get_mut(&id).unwrap();
                    let actions = acts(|a| node.repair_tick(self.now, a));
                    self.enqueue(id, actions);
                }
                self.drain();
            }
        }

        fn crash(&mut self, id: NodeId) {
            self.nodes.remove(&id);
            self.now += self.hop_delay;
            let survivors: Vec<NodeId> = self.nodes.keys().copied().collect();
            for s in survivors {
                let node = self.nodes.get_mut(&s).unwrap();
                if node.links().is_neighbor(id) {
                    let actions = acts(|a| node.on_neighbor_down(self.now, id, a));
                    self.enqueue(s, actions);
                }
            }
            self.drain();
        }

        fn node(&self, id: u32) -> &BrisaCore {
            &self.nodes[&NodeId(id)]
        }

        /// Checks that following parents from every node reaches the source
        /// without revisiting a node (i.e. the structure is acyclic and
        /// rooted).
        fn assert_rooted(&self) {
            for (id, node) in &self.nodes {
                if node.is_source() {
                    continue;
                }
                let mut cur = *id;
                let mut hops = 0;
                loop {
                    let parents = self.nodes[&cur].parents();
                    assert!(
                        !parents.is_empty(),
                        "{cur} has no parent while walking up from {id}"
                    );
                    cur = parents[0];
                    hops += 1;
                    assert!(
                        hops <= self.nodes.len(),
                        "cycle detected walking up from {id}"
                    );
                    if self.nodes[&cur].is_source() {
                        break;
                    }
                }
            }
        }
    }

    /// A clique over `n` nodes.
    fn clique(n: u32) -> Vec<(u32, u32)> {
        let mut t = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                t.push((i, j));
            }
        }
        t
    }

    #[test]
    fn tree_emerges_and_eliminates_duplicates() {
        let cfg = BrisaConfig::default();
        let mut mesh = Mesh::new(&cfg, &clique(6), 6);
        mesh.publish(100); // bootstrap flood
        let bootstrap_dups: u64 = (1..6)
            .map(|i| mesh.node(i).stats().delivery.duplicates())
            .sum();
        assert!(
            bootstrap_dups > 0,
            "the flood necessarily causes duplicates"
        );
        mesh.assert_rooted();
        for i in 1..6 {
            assert_eq!(
                mesh.node(i).parents().len(),
                1,
                "tree keeps exactly one parent"
            );
        }
        // Subsequent messages travel the tree: no further duplicates.
        for _ in 0..10 {
            mesh.publish(100);
        }
        let later_dups: u64 = (1..6)
            .map(|i| mesh.node(i).stats().delivery.duplicates())
            .sum();
        assert_eq!(
            later_dups, bootstrap_dups,
            "no duplicates after the tree stabilises"
        );
        for i in 1..6 {
            assert_eq!(
                mesh.node(i).stats().delivery.delivered(),
                11,
                "every message delivered"
            );
        }
    }

    #[test]
    fn construction_time_is_recorded() {
        let cfg = BrisaConfig::default();
        let mut mesh = Mesh::new(&cfg, &clique(5), 5);
        mesh.publish(10);
        for i in 1..5 {
            let st = mesh.node(i).stats();
            assert!(
                st.first_deactivation.is_some(),
                "node {i} sent deactivations"
            );
            assert!(
                st.construction_done.is_some(),
                "node {i} finished construction"
            );
            assert!(st.construction_time().unwrap() >= SimDuration::ZERO);
        }
    }

    /// A layered overlay: source 0; nodes 1, 2 and 3 its neighbours, one
    /// hop down; and nodes 4–9 each the neighbour of two of them, two
    /// hops down. Every node hears the source's flood first from the
    /// layer above, so a DAG node on the second layer has two strictly
    /// shallower senders, and one on the first layer only the source.
    fn layered() -> Vec<(u32, u32)> {
        let mut t = vec![(0, 1), (0, 2), (0, 3)];
        for (node, (a, b)) in (4..).zip([(1, 2), (2, 3), (1, 3), (1, 2), (2, 3), (1, 3)]) {
            t.extend([(a, node), (b, node)]);
        }
        t
    }

    #[test]
    fn dag_mode_collects_multiple_parents() {
        let cfg = BrisaConfig::dag(2, ParentStrategy::FirstComeFirstPicked);
        let mut mesh = Mesh::new(&cfg, &layered(), 10);
        for _ in 0..3 {
            mesh.publish(50);
        }
        for i in 1..10 {
            let (depth, parents) = if i <= 3 { (1, 1) } else { (2, 2) };
            assert_eq!(mesh.node(i).depth(), Some(depth), "node {i}");
            assert_eq!(mesh.node(i).parents().len(), parents, "node {i}");
        }
        mesh.assert_rooted();
        // Once the DAG has stabilised, duplicates per message are bounded by
        // the extra parent: at most one duplicate per message per node.
        let before: Vec<u64> = (1..10)
            .map(|i| mesh.node(i).stats().delivery.duplicates())
            .collect();
        let extra_msgs = 10u64;
        for _ in 0..extra_msgs {
            mesh.publish(50);
        }
        for (idx, i) in (1..10).enumerate() {
            let added = mesh.node(i).stats().delivery.duplicates() - before[idx];
            assert!(
                added <= extra_msgs,
                "node {i} saw {added} duplicates over {extra_msgs} stabilised messages"
            );
        }
    }

    #[test]
    fn source_deactivates_inbound_traffic() {
        // A source that receives stream data (e.g. from a neighbor whose
        // parent is elsewhere in the overlay) tells the sender to stop: the
        // root needs no inbound links.
        let cfg = BrisaConfig::default();
        let mut source = BrisaCore::new(NodeId(0), cfg);
        source.mark_source();
        source.note_started(SimTime::ZERO);
        source.on_neighbor_up(NodeId(1));
        let _ = acts(|a| source.publish(SimTime::from_millis(1), 10, a));
        let actions = acts(|a| {
            source.handle(
                SimTime::from_millis(5),
                NodeId(1),
                BrisaMsg::data(DataMsg {
                    seq: 0,
                    payload_bytes: 10,
                    guard: CycleGuard::Path(vec![NodeId(0), NodeId(1)].into()),
                    sender_uptime_secs: 0,
                    sender_load: 0,
                }),
                &NoTelemetry,
                a,
            )
        });
        assert!(actions.iter().any(|a| matches!(
            a,
            BrisaAction::Send {
                to: NodeId(1),
                msg: BrisaMsg::Deactivate { .. }
            }
        )));
        assert_eq!(source.links().inbound_active_count(), 0);
        assert_eq!(source.parents().len(), 0);
        assert_eq!(source.stats().delivery.duplicates(), 1);
    }

    #[test]
    fn ineligible_sender_is_deactivated_not_adopted() {
        let cfg = BrisaConfig::default();
        let mut core = BrisaCore::new(NodeId(5), cfg);
        core.note_started(SimTime::ZERO);
        core.on_neighbor_up(NodeId(1));
        // The sender's path already contains us: adopting it would create a
        // cycle.
        let msg = BrisaMsg::data(DataMsg {
            seq: 0,
            payload_bytes: 10,
            guard: CycleGuard::Path(vec![NodeId(0), NodeId(5), NodeId(1)].into()),
            sender_uptime_secs: 0,
            sender_load: 0,
        });
        let actions =
            acts(|a| core.handle(SimTime::from_millis(1), NodeId(1), msg, &NoTelemetry, a));
        assert!(core.parents().is_empty());
        assert!(actions.iter().any(|a| matches!(
            a,
            BrisaAction::Send {
                to: NodeId(1),
                msg: BrisaMsg::Deactivate { .. }
            }
        )));
        // Still delivered to the application exactly once.
        assert_eq!(core.stats().delivery.delivered(), 1);
    }

    #[test]
    fn duplicate_triggers_deactivation_and_symmetric_optimisation() {
        let cfg = BrisaConfig::default();
        let mut core = BrisaCore::new(NodeId(9), cfg);
        core.note_started(SimTime::ZERO);
        core.on_neighbor_up(NodeId(1));
        core.on_neighbor_up(NodeId(2));
        let data = |from_path: Vec<NodeId>| {
            BrisaMsg::data(DataMsg {
                seq: 0,
                payload_bytes: 10,
                guard: CycleGuard::Path(from_path.into()),
                sender_uptime_secs: 0,
                sender_load: 0,
            })
        };
        let a1 = acts(|a| {
            core.handle(
                SimTime::from_millis(1),
                NodeId(1),
                data(vec![NodeId(0), NodeId(1)]),
                &NoTelemetry,
                a,
            )
        });
        assert_eq!(core.parents(), vec![NodeId(1)]);
        assert!(a1
            .iter()
            .any(|a| matches!(a, BrisaAction::Deliver { seq: 0 })));
        let a2 = acts(|a| {
            core.handle(
                SimTime::from_millis(2),
                NodeId(2),
                data(vec![NodeId(0), NodeId(2)]),
                &NoTelemetry,
                a,
            )
        });
        // First-come keeps node 1; node 2 is deactivated, and thanks to the
        // symmetric optimisation we also stop relaying to node 2.
        assert_eq!(core.parents(), vec![NodeId(1)]);
        assert!(a2.iter().any(|a| matches!(
            a,
            BrisaAction::Send {
                to: NodeId(2),
                msg: BrisaMsg::Deactivate { .. }
            }
        )));
        assert!(!core.links().is_outbound_active(NodeId(2)));
        assert_eq!(core.stats().delivery.duplicates(), 1);
    }

    #[test]
    fn delay_aware_strategy_switches_to_faster_parent() {
        struct Rtt;
        impl NeighborTelemetry for Rtt {
            fn rtt(&self, peer: NodeId) -> Option<SimDuration> {
                match peer.0 {
                    1 => Some(SimDuration::from_millis(80)),
                    2 => Some(SimDuration::from_millis(5)),
                    _ => None,
                }
            }
        }
        let cfg = BrisaConfig::tree(ParentStrategy::DelayAware);
        let mut core = BrisaCore::new(NodeId(9), cfg);
        core.note_started(SimTime::ZERO);
        core.on_neighbor_up(NodeId(1));
        core.on_neighbor_up(NodeId(2));
        let data = |path: Vec<NodeId>| {
            BrisaMsg::data(DataMsg {
                seq: 0,
                payload_bytes: 10,
                guard: CycleGuard::Path(path.into()),
                sender_uptime_secs: 0,
                sender_load: 0,
            })
        };
        acts(|a| {
            core.handle(
                SimTime::from_millis(1),
                NodeId(1),
                data(vec![NodeId(0), NodeId(1)]),
                &Rtt,
                a,
            )
        });
        assert_eq!(core.parents(), vec![NodeId(1)]);
        let actions = acts(|a| {
            core.handle(
                SimTime::from_millis(2),
                NodeId(2),
                data(vec![NodeId(0), NodeId(2)]),
                &Rtt,
                a,
            )
        });
        // The slower first parent is displaced by the faster duplicate sender.
        assert_eq!(core.parents(), vec![NodeId(2)]);
        assert!(actions.iter().any(|a| matches!(
            a,
            BrisaAction::Send {
                to: NodeId(1),
                msg: BrisaMsg::Deactivate { .. }
            }
        )));
    }

    #[test]
    fn parent_failure_with_alternative_neighbor_uses_soft_repair() {
        let cfg = BrisaConfig::default();
        let mut mesh = Mesh::new(&cfg, &clique(6), 6);
        for _ in 0..3 {
            mesh.publish(10);
        }
        mesh.assert_rooted();
        // Fail the parent of some non-source node that has other neighbors.
        let victim = mesh.node(3).parents()[0];
        if victim == NodeId(0) {
            // Failing the source would stop the stream; pick a different test
            // subject in that case.
            return;
        }
        mesh.crash(victim);
        // Keep the stream alive so selection can complete.
        for _ in 0..3 {
            mesh.publish(10);
        }
        mesh.assert_rooted();
        let total_soft: u64 = mesh.nodes.values().map(|n| n.stats().soft_repairs).sum();
        let total_orphans: usize = mesh.nodes.values().map(|n| n.stats().orphaned.len()).sum();
        assert!(total_orphans > 0, "the crash orphaned someone");
        assert!(total_soft > 0, "in a clique every orphan repairs softly");
        // All messages are eventually delivered everywhere despite the crash.
        for (_, node) in mesh.nodes.iter().filter(|(_, n)| !n.is_source()) {
            assert_eq!(
                node.stats().delivery.delivered(),
                6,
                "no message lost across the repair"
            );
        }
    }

    #[test]
    fn isolated_pair_falls_back_to_hard_repair_path() {
        // Topology: 0 (source) - 1 - 2 - 3 in a line; node 3's only neighbor
        // is node 2, and node 2's parent is node 1. When node 1 fails, node 2
        // has only its child (3) left -> hard repair with a re-activation
        // order propagated to 3.
        let cfg = BrisaConfig::default();
        let mut mesh = Mesh::new(&cfg, &[(0, 1), (1, 2), (2, 3)], 4);
        for _ in 0..2 {
            mesh.publish(10);
        }
        assert_eq!(mesh.node(2).parents(), vec![NodeId(1)]);
        assert_eq!(mesh.node(3).parents(), vec![NodeId(2)]);
        mesh.crash(NodeId(1));
        let st2 = mesh.node(2).stats();
        assert_eq!(st2.orphaned.len(), 1);
        assert!(
            st2.reactivation_orders_sent >= 1,
            "hard repair orders the child to re-activate"
        );
        assert!(
            mesh.node(2).repair_pending(),
            "no replacement parent exists in this topology"
        );
    }

    #[test]
    fn retransmission_recovers_missed_messages() {
        let cfg = BrisaConfig::default();
        // Parent (node 0, source) and child (node 1), plus node 2 connected
        // to both: 2's parent will be 0 or 1.
        let mut mesh = Mesh::new(&cfg, &clique(3), 3);
        for _ in 0..5 {
            mesh.publish(10);
        }
        mesh.assert_rooted();
        // Detach node 2 from its parent by failing it, but only if the parent
        // is node 1 (so the source keeps publishing).
        if mesh.node(2).parents() == vec![NodeId(1)] {
            mesh.crash(NodeId(1));
            // Publish more; node 2 repairs onto the source and must recover
            // anything missed plus receive the new messages.
            for _ in 0..5 {
                mesh.publish(10);
            }
            assert_eq!(mesh.node(2).stats().delivery.delivered(), 10);
            assert!(mesh.node(2).stats().soft_repairs + mesh.node(2).stats().hard_repairs >= 1);
        }
    }

    #[test]
    fn gap_in_stream_triggers_rate_limited_retransmit_request() {
        let cfg = BrisaConfig::default();
        let mut core = BrisaCore::new(NodeId(9), cfg);
        core.note_started(SimTime::ZERO);
        core.on_neighbor_up(NodeId(1));
        let data = |seq: u64| {
            BrisaMsg::data(DataMsg {
                seq,
                payload_bytes: 10,
                guard: CycleGuard::Path(vec![NodeId(0), NodeId(1)].into()),
                sender_uptime_secs: 0,
                sender_load: 0,
            })
        };
        let retransmits = |actions: &[BrisaAction]| -> Vec<(u64, u64)> {
            actions
                .iter()
                .filter_map(|a| match a {
                    BrisaAction::Send {
                        msg: BrisaMsg::Retransmit { from_seq, to_seq },
                        ..
                    } => Some((*from_seq, *to_seq)),
                    _ => None,
                })
                .collect()
        };
        // Seq 0 delivered in order: no gap, no request.
        let a0 =
            acts(|a| core.handle(SimTime::from_millis(1), NodeId(1), data(0), &NoTelemetry, a));
        assert!(retransmits(&a0).is_empty());
        // Seq 3 arrives: 1 and 2 are missing -> one request covering the gap.
        let a3 =
            acts(|a| core.handle(SimTime::from_millis(5), NodeId(1), data(3), &NoTelemetry, a));
        assert_eq!(retransmits(&a3), vec![(1, 3)]);
        assert_eq!(core.stats().gap_retransmit_requests, 1);
        // Another newer message within the retry window: rate-limited.
        let a4 =
            acts(|a| core.handle(SimTime::from_millis(9), NodeId(1), data(4), &NoTelemetry, a));
        assert!(retransmits(&a4).is_empty());
        // The gap persists: the maintenance tick re-requests from the
        // parent once the backed-off retry interval (doubled after the
        // first fruitless attempt) has elapsed.
        let early = acts(|a| core.repair_tick(SimTime::from_millis(5) + GAP_RETRY, a));
        assert!(
            retransmits(&early).is_empty(),
            "the second attempt backs off beyond the base interval"
        );
        let tick = acts(|a| core.repair_tick(SimTime::from_millis(5) + GAP_RETRY * 2, a));
        assert_eq!(retransmits(&tick), vec![(1, 4)]);
        // The retransmitted messages close the gap; the detector goes quiet.
        for seq in [1, 2] {
            let _ =
                acts(|a| core.handle(SimTime::from_secs(2), NodeId(1), data(seq), &NoTelemetry, a));
        }
        let quiet = acts(|a| core.repair_tick(SimTime::from_secs(10), a));
        assert!(retransmits(&quiet).is_empty());
        assert_eq!(core.stats().delivery.delivered(), 5);
        assert_eq!(core.stats().gap_retransmit_requests, 2);
    }

    /// A hole at the stream's tail is invisible to the data-driven gap
    /// detector (nothing later ever arrives to reveal it); an [`Edge`]
    /// advertisement from upstream turns it into a known, requestable gap.
    #[test]
    fn edge_advertisement_reveals_a_tail_hole() {
        let cfg = BrisaConfig::default();
        let mut core = BrisaCore::new(NodeId(9), cfg);
        core.note_started(SimTime::ZERO);
        core.on_neighbor_up(NodeId(1));
        for seq in 0..3 {
            let _ = acts(|a| {
                core.handle(
                    SimTime::from_millis(seq * 10),
                    NodeId(1),
                    BrisaMsg::data(DataMsg {
                        seq,
                        payload_bytes: 10,
                        guard: CycleGuard::Path(vec![NodeId(0), NodeId(1)].into()),
                        sender_uptime_secs: 0,
                        sender_load: 0,
                    }),
                    &NoTelemetry,
                    a,
                )
            });
        }
        // Seq 3 (the stream's last message) was lost on our link; nothing
        // reveals it, so the repair tick alone requests nothing.
        let blind = acts(|a| core.repair_tick(SimTime::from_secs(5), a));
        assert!(
            !blind.iter().any(|a| matches!(
                a,
                BrisaAction::Send {
                    msg: BrisaMsg::Retransmit { .. },
                    ..
                }
            )),
            "no known gap yet — the tail hole is invisible"
        );
        // The parent's edge advertisement makes the hole a known gap.
        let revealed = acts(|a| {
            core.handle(
                SimTime::from_secs(6),
                NodeId(1),
                BrisaMsg::Edge { highest: 3 },
                &NoTelemetry,
                a,
            )
        });
        let requested: Vec<(u64, u64)> = revealed
            .iter()
            .filter_map(|a| match a {
                BrisaAction::Send {
                    to: NodeId(1),
                    msg: BrisaMsg::Retransmit { from_seq, to_seq },
                } => Some((*from_seq, *to_seq)),
                _ => None,
            })
            .collect();
        assert_eq!(requested, vec![(3, 3)]);
        // A caught-up node ignores further advertisements.
        let _ = acts(|a| {
            core.handle(
                SimTime::from_secs(7),
                NodeId(1),
                BrisaMsg::data(DataMsg {
                    seq: 3,
                    payload_bytes: 10,
                    guard: CycleGuard::Path(vec![NodeId(0), NodeId(1)].into()),
                    sender_uptime_secs: 0,
                    sender_load: 0,
                }),
                &NoTelemetry,
                a,
            )
        });
        let settled = acts(|a| {
            core.handle(
                SimTime::from_secs(20),
                NodeId(1),
                BrisaMsg::Edge { highest: 3 },
                &NoTelemetry,
                a,
            )
        });
        assert!(settled.is_empty(), "caught up — nothing to request");
        assert_eq!(core.stats().delivery.delivered(), 4);
    }

    /// Sequence numbers off the wire are bounded by the ledger's window. A
    /// fresh node sent `Edge { highest: u64::MAX }`, and a node on the
    /// stream then sent `Data { seq: 2^40 }` and the same edge, deliver
    /// nothing, request nothing, never advertise either number to their
    /// children and grow no state; each is counted as refused. Inside the
    /// window an edge still opens a gap from the ledger's cursor, whose size
    /// cannot overflow.
    #[test]
    fn hostile_max_edge_saturates_the_gap_size() {
        let mut core = BrisaCore::new(NodeId(9), BrisaConfig::default());
        core.note_started(SimTime::ZERO);
        core.on_neighbor_up(NodeId(1));
        let data = |seq| {
            BrisaMsg::data(DataMsg {
                seq,
                payload_bytes: 10,
                guard: CycleGuard::Path(vec![NodeId(0), NodeId(1)].into()),
                sender_uptime_secs: 0,
                sender_load: 0,
            })
        };
        let edge = || BrisaMsg::Edge { highest: u64::MAX };
        let fresh = acts(|a| core.handle(SimTime::ZERO, NodeId(1), edge(), &NoTelemetry, a));
        assert!(fresh.is_empty(), "{fresh:?}");
        assert_eq!(
            core.stats().delivery.low(),
            0,
            "a refused edge anchors nothing"
        );
        for seq in 0..3 {
            let _ = acts(|a| core.handle(SimTime::ZERO, NodeId(1), data(seq), &NoTelemetry, a));
        }
        let bytes = core.approx_state_bytes();
        let mut hostile =
            acts(|a| core.handle(SimTime::ZERO, NodeId(1), data(1 << 40), &NoTelemetry, a));
        hostile.extend(acts(|a| {
            core.handle(SimTime::from_secs(1), NodeId(1), edge(), &NoTelemetry, a)
        }));
        // A quiet repair tick advertises the edge this node believes in.
        hostile.extend(acts(|a| core.repair_tick(SimTime::from_secs(60), a)));
        assert!(
            hostile.iter().all(|a| match a {
                BrisaAction::Send {
                    msg: BrisaMsg::Edge { highest },
                    ..
                } => *highest == 2,
                _ => false,
            }),
            "{hostile:?}"
        );
        assert_eq!(core.stats().delivery.refused(), 3);
        assert_eq!(core.stats().delivery.delivered(), 3);
        assert_eq!(core.approx_state_bytes(), bytes, "no state grew");

        let past = BrisaMsg::Edge {
            highest: 3 + WINDOW,
        };
        let refused =
            acts(|a| core.handle(SimTime::from_secs(62), NodeId(1), past, &NoTelemetry, a));
        assert!(refused.is_empty(), "{refused:?}");
        let edge = BrisaMsg::Edge {
            highest: 2 + WINDOW,
        };
        let asked = acts(|a| core.handle(SimTime::from_secs(62), NodeId(1), edge, &NoTelemetry, a));
        assert_eq!(
            asked,
            vec![BrisaAction::Send {
                to: NodeId(1),
                msg: BrisaMsg::Retransmit {
                    from_seq: 3,
                    to_seq: 2 + WINDOW,
                },
            }]
        );
    }

    /// Nothing freezes the window: a fresh core whose first message lies
    /// three windows into the stream anchors there and delivers, and a core
    /// with a hole no peer refills gives the hole up and goes on delivering
    /// past it.
    #[test]
    fn the_window_follows_a_late_joiner_and_a_stream_past_a_permanent_hole() {
        let data = |seq| {
            BrisaMsg::data(DataMsg {
                seq,
                payload_bytes: 10,
                guard: CycleGuard::Path(vec![NodeId(0), NodeId(1)].into()),
                sender_uptime_secs: 0,
                sender_load: 0,
            })
        };
        let delivered = |actions: &[BrisaAction]| -> Vec<u64> {
            actions
                .iter()
                .filter_map(|a| match a {
                    BrisaAction::Deliver { seq } => Some(*seq),
                    _ => None,
                })
                .collect()
        };
        let core = || {
            let mut core = BrisaCore::new(NodeId(9), BrisaConfig::default());
            core.note_started(SimTime::ZERO);
            core.on_neighbor_up(NodeId(1));
            core
        };

        let mut joiner = core();
        let first = 3 * WINDOW;
        let a = acts(|a| joiner.handle(SimTime::ZERO, NodeId(1), data(first), &NoTelemetry, a));
        assert_eq!(delivered(&a), vec![first]);
        assert!(a.contains(&BrisaAction::Send {
            to: NodeId(1),
            msg: BrisaMsg::Retransmit {
                from_seq: first - 64,
                to_seq: first,
            },
        }));
        let a = acts(|a| joiner.handle(SimTime::ZERO, NodeId(1), data(first + 1), &NoTelemetry, a));
        assert_eq!(delivered(&a), vec![first + 1]);
        assert_eq!(joiner.stats().delivery.refused(), 0);

        let mut holed = core();
        let mut count = 0;
        for seq in (0..=5 + WINDOW).filter(|&s| s != 5) {
            let now = SimTime::from_millis(seq);
            let a = acts(|a| holed.handle(now, NodeId(1), data(seq), &NoTelemetry, a));
            count += delivered(&a).len() as u64;
        }
        assert_eq!(count, 5 + WINDOW, "everything but the hole, 5 + WINDOW too");
        assert_eq!(holed.stats().delivery.low(), 6 + WINDOW);
        assert_eq!(holed.stats().delivery.refused(), 0);
    }

    /// The advertisement itself is quiescence-gated: a relay streams data
    /// without edge chatter, and starts advertising to its children only
    /// once the data path has been quiet for [`EDGE_QUIET_AFTER`].
    #[test]
    fn edge_advertisement_waits_for_quiescence() {
        let cfg = BrisaConfig::default();
        let mut source = BrisaCore::new(NodeId(0), cfg);
        source.mark_source();
        source.note_started(SimTime::ZERO);
        source.on_neighbor_up(NodeId(1));
        let _ = acts(|a| source.publish(SimTime::from_millis(100), 10, a));
        let edges = |actions: &[BrisaAction]| -> Vec<u64> {
            actions
                .iter()
                .filter_map(|a| match a {
                    BrisaAction::Send {
                        msg: BrisaMsg::Edge { highest },
                        ..
                    } => Some(*highest),
                    _ => None,
                })
                .collect()
        };
        // Mid-stream (data just moved): silent.
        let busy = acts(|a| source.repair_tick(SimTime::from_millis(200), a));
        assert!(edges(&busy).is_empty(), "data is flowing — no edge chatter");
        // Quiet past the threshold: the edge goes out to every child.
        let quiet = acts(|a| source.repair_tick(SimTime::from_millis(100) + EDGE_QUIET_AFTER, a));
        assert_eq!(edges(&quiet), vec![0]);
    }

    #[test]
    fn retransmit_request_is_served_from_buffer() {
        let cfg = BrisaConfig::default();
        let mut source = BrisaCore::new(NodeId(0), cfg);
        source.mark_source();
        source.note_started(SimTime::ZERO);
        source.on_neighbor_up(NodeId(1));
        for i in 0..4 {
            let _ = acts(|a| source.publish(SimTime::from_millis(i), 10, a));
        }
        let served = acts(|a| {
            source.handle(
                SimTime::from_secs(1),
                NodeId(1),
                BrisaMsg::Retransmit {
                    from_seq: 1,
                    to_seq: 2,
                },
                &NoTelemetry,
                a,
            )
        });
        let seqs: Vec<u64> = served
            .iter()
            .filter_map(|a| match a {
                BrisaAction::Send {
                    to: NodeId(1),
                    msg: BrisaMsg::Data(d),
                } => Some(d.seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(source.stats().retransmissions_served, 2);
    }

    #[test]
    fn gerontocratic_prefers_older_sender() {
        let cfg = BrisaConfig::tree(ParentStrategy::Gerontocratic);
        let mut core = BrisaCore::new(NodeId(9), cfg);
        core.note_started(SimTime::ZERO);
        core.on_neighbor_up(NodeId(1));
        core.on_neighbor_up(NodeId(2));
        let data = |path: Vec<NodeId>, uptime: u32| {
            BrisaMsg::data(DataMsg {
                seq: 0,
                payload_bytes: 10,
                guard: CycleGuard::Path(path.into()),
                sender_uptime_secs: uptime,
                sender_load: 0,
            })
        };
        acts(|a| {
            core.handle(
                SimTime::from_millis(1),
                NodeId(1),
                data(vec![NodeId(0), NodeId(1)], 10),
                &NoTelemetry,
                a,
            )
        });
        acts(|a| {
            core.handle(
                SimTime::from_millis(2),
                NodeId(2),
                data(vec![NodeId(0), NodeId(2)], 500),
                &NoTelemetry,
                a,
            )
        });
        assert_eq!(core.parents(), vec![NodeId(2)], "older sender wins");
    }

    #[test]
    fn activate_reenables_outbound_relay() {
        let cfg = BrisaConfig::default();
        let mut core = BrisaCore::new(NodeId(5), cfg);
        core.note_started(SimTime::ZERO);
        core.on_neighbor_up(NodeId(1));
        core.on_neighbor_up(NodeId(2));
        let _ = acts(|a| {
            core.handle(
                SimTime::from_millis(1),
                NodeId(2),
                BrisaMsg::Deactivate { symmetric: false },
                &NoTelemetry,
                a,
            )
        });
        assert!(!core.links().is_outbound_active(NodeId(2)));
        let _ = acts(|a| {
            core.handle(
                SimTime::from_millis(2),
                NodeId(2),
                BrisaMsg::Activate,
                &NoTelemetry,
                a,
            )
        });
        assert!(core.links().is_outbound_active(NodeId(2)));
    }

    /// Data message `seq` from a sender whose guard is `guard`.
    fn data_with(seq: u64, guard: CycleGuard) -> BrisaMsg {
        BrisaMsg::data(DataMsg {
            seq,
            payload_bytes: 10,
            guard,
            sender_uptime_secs: 0,
            sender_load: 0,
        })
    }

    /// One line per action, in emission order: `deliver 1`, `3 data 1`,
    /// `2 Activate`.
    fn show(actions: &[BrisaAction]) -> Vec<String> {
        actions
            .iter()
            .map(|a| match a {
                BrisaAction::Deliver { seq } => format!("deliver {seq}"),
                BrisaAction::Send {
                    to,
                    msg: BrisaMsg::Data(d),
                } => format!("{} data {}", to.0, d.seq),
                BrisaAction::Send { to, msg } => format!("{} {msg:?}", to.0),
            })
            .collect()
    }

    /// Node 9 in a tree, neighbours 1, 2 and 3, after seq 0: parent 1,
    /// child 3, and 2 a non-child neighbour (it asked 9 to stop relaying).
    /// With `alternative` false, 2 is not a neighbour at all.
    fn tree_child_of_1(alternative: bool) -> BrisaCore {
        let mut core = BrisaCore::new(NodeId(9), BrisaConfig::default());
        core.note_started(SimTime::ZERO);
        let peers: &[u32] = if alternative { &[1, 2, 3] } else { &[1, 3] };
        for &p in peers {
            core.on_neighbor_up(NodeId(p));
        }
        let seq0 = data_with(0, CycleGuard::Path(vec![NodeId(0), NodeId(1)].into()));
        let _ = acts(|a| core.handle(SimTime::from_millis(1), NodeId(1), seq0, &NoTelemetry, a));
        if alternative {
            let stop = BrisaMsg::Deactivate { symmetric: false };
            let _ =
                acts(|a| core.handle(SimTime::from_millis(2), NodeId(2), stop, &NoTelemetry, a));
        }
        assert_eq!(core.parents(), vec![NodeId(1)]);
        assert_eq!(core.children(), vec![NodeId(3)]);
        core
    }

    /// The repair bookkeeping a parent-loss entry leaves behind.
    fn repair_record(core: &BrisaCore) -> (usize, usize, Option<(SimTime, RepairKind)>) {
        (
            core.stats().parents_lost.len(),
            core.stats().orphaned.len(),
            core.pending_repair,
        )
    }

    const T: SimTime = SimTime::from_millis(10);

    #[test]
    fn link_down_of_the_only_parent_starts_a_soft_repair() {
        let mut core = tree_child_of_1(true);
        let a = acts(|a| core.on_neighbor_down(T, NodeId(1), a));
        assert_eq!(show(&a), ["2 Activate"]);
        assert_eq!(repair_record(&core), (1, 1, Some((T, RepairKind::Soft))));
    }

    #[test]
    fn symmetric_deactivate_from_the_parent_is_a_parent_loss() {
        let mut core = tree_child_of_1(true);
        let stop = BrisaMsg::Deactivate { symmetric: true };
        let a = acts(|a| core.handle(T, NodeId(1), stop, &NoTelemetry, a));
        // The parent stopped relaying, so it is no child either: it is
        // activated along with 2.
        assert_eq!(show(&a), ["1 Activate", "2 Activate"]);
        assert_eq!(repair_record(&core), (1, 1, Some((T, RepairKind::Soft))));
    }

    #[test]
    fn a_cycle_through_the_parent_orphans_without_counting_a_loss() {
        let mut core = tree_child_of_1(true);
        let looped = data_with(
            1,
            CycleGuard::Path(vec![NodeId(0), NodeId(9), NodeId(1)].into()),
        );
        let a = acts(|a| core.handle(T, NodeId(1), looped, &NoTelemetry, a));
        assert_eq!(
            show(&a),
            [
                "deliver 1",
                "1 Deactivate { symmetric: false }",
                "2 Activate",
                "3 data 1",
            ]
        );
        assert_eq!(repair_record(&core), (0, 1, Some((T, RepairKind::Soft))));
    }

    #[test]
    fn a_reactivation_order_with_an_alternative_activates_it() {
        let mut core = tree_child_of_1(true);
        let order = BrisaMsg::ReactivationOrder;
        let a = acts(|a| core.handle(T, NodeId(1), order, &NoTelemetry, a));
        assert_eq!(show(&a), ["2 Activate"]);
        assert_eq!(repair_record(&core), (0, 0, Some((T, RepairKind::Soft))));
        assert!(core.parents().is_empty());
        assert_eq!(core.depth(), Some(2), "a soft repair keeps the position");
    }

    #[test]
    fn a_reactivation_order_without_an_alternative_cascades() {
        let mut core = tree_child_of_1(false);
        let order = BrisaMsg::ReactivationOrder;
        let a = acts(|a| core.handle(T, NodeId(1), order, &NoTelemetry, a));
        // Every neighbour is activated, the order goes on to the child it
        // had before, never back to the sender.
        assert_eq!(
            show(&a),
            ["1 Activate", "3 Activate", "3 ReactivationOrder"]
        );
        assert_eq!(repair_record(&core), (0, 0, Some((T, RepairKind::Hard))));
        assert_eq!(core.stats().reactivation_orders_sent, 1);
        assert_eq!(core.depth(), None, "a hard repair forgets the position");

        // A second order finds the repair pending: it keeps its kind and
        // its start.
        let later = T + SimDuration::from_millis(5);
        let _ = acts(|a| core.on_neighbor_down(later, NodeId(3), a));
        let _ = acts(|a| {
            core.handle(
                later,
                NodeId(1),
                BrisaMsg::ReactivationOrder,
                &NoTelemetry,
                a,
            )
        });
        assert_eq!(repair_record(&core), (0, 0, Some((T, RepairKind::Hard))));
    }

    #[test]
    fn a_reactivation_order_to_a_dag_node_keeping_a_parent_starts_no_repair() {
        let mut core = BrisaCore::new(
            NodeId(9),
            BrisaConfig::dag(2, ParentStrategy::FirstComeFirstPicked),
        );
        core.note_started(SimTime::ZERO);
        for p in [1, 2, 3] {
            core.on_neighbor_up(NodeId(p));
        }
        for (at, from) in [(1, 1), (2, 2)] {
            let seq0 = data_with(0, CycleGuard::Depth(1));
            let _ = acts(|a| {
                core.handle(
                    SimTime::from_millis(at),
                    NodeId(from),
                    seq0,
                    &NoTelemetry,
                    a,
                )
            });
        }
        assert_eq!(core.parents(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(core.children(), vec![NodeId(3)]);
        let order = BrisaMsg::ReactivationOrder;
        let a = acts(|a| core.handle(T, NodeId(1), order, &NoTelemetry, a));
        // The remaining parent is a non-child neighbour: it is activated.
        assert_eq!(show(&a), ["2 Activate"]);
        assert_eq!(repair_record(&core), (0, 0, None));
        assert_eq!(core.parents(), vec![NodeId(2)]);
    }

    /// Node 9 in a DAG of two parents, neighbours 1, 2 and 12, after seq 0
    /// from 1 at depth 1: parent 1, depth 2, children 2 and 12.
    fn dag_child_of_1() -> BrisaCore {
        let cfg = BrisaConfig::dag(2, ParentStrategy::FirstComeFirstPicked);
        let mut core = BrisaCore::new(NodeId(9), cfg);
        core.note_started(SimTime::ZERO);
        for p in [1, 2, 12] {
            core.on_neighbor_up(NodeId(p));
        }
        let seq0 = data_with(0, CycleGuard::Depth(1));
        let _ = acts(|a| core.handle(SimTime::from_millis(1), NodeId(1), seq0, &NoTelemetry, a));
        assert_eq!((core.parents(), core.depth()), (vec![NodeId(1)], Some(2)));
        core
    }

    /// What node 9 of [`dag_child_of_1`] does with seq 1 from `from` at
    /// `depth`, and its parents and depth after.
    fn dag_admission(
        mut core: BrisaCore,
        from: u32,
        depth: u32,
    ) -> (Vec<String>, Vec<NodeId>, Option<usize>) {
        let seq1 = data_with(1, CycleGuard::Depth(depth));
        let a = acts(|a| core.handle(T, NodeId(from), seq1, &NoTelemetry, a));
        (show(&a), core.parents(), core.depth())
    }

    /// Node 9 of [`dag_child_of_1`] after 12 asked it to stop relaying, so
    /// 12 is a neighbour but no child: the soft repair's alternative.
    fn dag_child_of_1_beside_12() -> BrisaCore {
        let mut core = dag_child_of_1();
        let stop = BrisaMsg::Deactivate { symmetric: false };
        let _ = acts(|a| core.handle(T, NodeId(12), stop, &NoTelemetry, a));
        core
    }

    /// Section II-G's admission: a strictly shallower sender is adopted,
    /// and the depth stays; one at the node's own depth is refused, from
    /// a lower identifier or a higher one, and by an orphan too; a deeper
    /// one is refused.
    #[test]
    fn a_dag_node_admits_only_a_strictly_shallower_sender() {
        let p = |ids: &[u32]| ids.iter().copied().map(NodeId).collect::<Vec<_>>();
        let refused = |sender: u32, relayed_to: [&str; 2]| {
            vec![
                "deliver 1".to_string(),
                format!("{sender} Deactivate {{ symmetric: false }}"),
                format!("{} data 1", relayed_to[0]),
                format!("{} data 1", relayed_to[1]),
            ]
        };
        assert_eq!(
            dag_admission(dag_child_of_1(), 12, 0),
            (
                vec!["deliver 1".into(), "1 data 1".into(), "2 data 1".into()],
                p(&[1, 12]),
                Some(2)
            )
        );
        assert_eq!(
            dag_admission(dag_child_of_1(), 2, 2),
            (refused(2, ["1", "12"]), p(&[1]), Some(2))
        );
        assert_eq!(
            dag_admission(dag_child_of_1(), 12, 2),
            (refused(12, ["1", "2"]), p(&[1]), Some(2))
        );
        assert_eq!(
            dag_admission(dag_child_of_1(), 2, 3),
            (refused(2, ["1", "12"]), p(&[1]), Some(2))
        );
        // An orphan that kept its depth (a soft repair through 12) refuses
        // 12 at its own depth; the repair stays pending, and escalates.
        let mut orphan = dag_child_of_1_beside_12();
        let a = acts(|a| orphan.on_neighbor_down(T, NodeId(1), a));
        assert_eq!(show(&a), ["12 Activate"]);
        let (actions, parents, depth) = dag_admission(orphan, 12, 2);
        assert_eq!(
            actions,
            [
                "deliver 1",
                "12 Deactivate { symmetric: false }",
                "2 data 1"
            ]
        );
        assert_eq!((parents, depth), (vec![], Some(2)));
    }

    /// The rule that admits a parent keeps it: a DAG parent whose label is
    /// no longer shallower than this node's is dropped as a cycle, as a
    /// tree parent whose path runs through the node is
    /// (`a_cycle_through_the_parent_orphans_without_counting_a_loss`). The
    /// node keeps its depth and repairs.
    #[test]
    fn a_dag_parent_that_moved_deeper_is_lost_as_a_cycle() {
        let mut core = dag_child_of_1_beside_12();
        let seq1 = data_with(1, CycleGuard::Depth(6));
        let a = acts(|a| core.handle(T, NodeId(1), seq1, &NoTelemetry, a));
        assert_eq!(
            show(&a),
            [
                "deliver 1",
                "1 Deactivate { symmetric: false }",
                "12 Activate",
                "2 data 1",
            ]
        );
        assert_eq!(repair_record(&core), (0, 1, Some((T, RepairKind::Soft))));
        assert_eq!((core.parents(), core.depth()), (vec![], Some(2)));
    }

    /// The deaf tail: after its last message, node 3's parent stops
    /// counting it as a child, so neither the stream's tail nor its edge
    /// reaches it again, while node 2 holds the tail. Node 3 takes the
    /// silence for a lost parent, repairs through 2 and recovers the tail.
    #[test]
    fn a_node_its_parent_forgot_recovers_the_tail_from_a_neighbour() {
        let cfg = BrisaConfig::default();
        let mut mesh = Mesh::new(&cfg, &[(0, 1), (0, 2), (1, 3), (2, 3)], 4);
        for _ in 0..3 {
            mesh.publish(10);
        }
        let parent = mesh.node(3).parents()[0];
        mesh.send(NodeId(3), parent, BrisaMsg::Deactivate { symmetric: false });
        for _ in 0..3 {
            mesh.publish(10);
        }
        assert_eq!(mesh.node(3).stats().delivery.delivered(), 3, "deaf");
        mesh.tick_for(SimDuration::from_secs(10));
        let deaf = mesh.node(3).stats();
        assert_eq!(deaf.delivery.delivered(), 6, "the tail is recovered");
        assert_eq!((deaf.parents_lost.len(), deaf.soft_repairs), (1, 1));
        mesh.assert_rooted();
    }

    /// The silence limit's derivation: a parent whose data stopped at `t`
    /// and whose first two `Edge`s are lost is still a parent when the
    /// third arrives at its latest, `t + EDGE_QUIET_AFTER + 3 ticks`; once
    /// it falls silent for the whole limit after that, it is lost.
    #[test]
    fn a_parent_that_loses_two_edges_in_a_row_is_kept() {
        let mut core = tree_child_of_1(true);
        let tick = core.config().repair_tick_period;
        let mut now = SimTime::from_millis(1);
        let third_edge = now + EDGE_QUIET_AFTER + tick * 3;
        let mut run_until = |core: &mut BrisaCore, until: SimTime| {
            while now + tick <= until {
                now += tick;
                let _ = acts(|a| core.repair_tick(now, a));
            }
        };
        run_until(&mut core, third_edge);
        let edge = BrisaMsg::Edge { highest: 0 };
        let _ = acts(|a| core.handle(third_edge, NodeId(1), edge, &NoTelemetry, a));
        let limit = EDGE_QUIET_AFTER + tick * repair::PARENT_SILENT_TICKS;
        run_until(&mut core, third_edge + (limit - tick));
        assert_eq!(core.parents(), vec![NodeId(1)]);
        assert!(core.stats().parents_lost.is_empty());

        let a = acts(|a| core.repair_tick(third_edge + limit, a));
        // The tick still tells its child the edge, then repairs.
        assert_eq!(show(&a), ["3 Edge { highest: 0 }", "2 Activate"]);
        assert_eq!(
            repair_record(&core),
            (1, 1, Some((third_edge + limit, RepairKind::Soft)))
        );
    }

    #[test]
    fn target_parents_reflected_in_mode() {
        let t = BrisaCore::new(NodeId(0), BrisaConfig::default());
        assert_eq!(t.config().mode, StructureMode::Tree);
        let d = BrisaCore::new(NodeId(0), BrisaConfig::dag(3, ParentStrategy::DelayAware));
        assert_eq!(d.config().mode.target_parents(), 3);
    }

    #[test]
    fn footprint_counts_the_ledgers_inline_bytes_once() {
        // A fresh core owns no ledger heap, so its footprint is the inline
        // struct (ledger and histogram included) plus the other owned heap.
        let core = BrisaCore::new(NodeId(0), BrisaConfig::default());
        assert_eq!(
            core.approx_state_bytes(),
            std::mem::size_of::<BrisaCore>()
                + core.buffer.approx_heap_bytes()
                + core.links.approx_heap_bytes()
                + core.candidates.approx_heap_bytes()
                + core.cycle.approx_heap_bytes()
        );
    }
}
