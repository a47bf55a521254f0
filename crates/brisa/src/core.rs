//! The BRISA dissemination state machine.
//!
//! [`BrisaCore`] implements the protocol of Section II: the bootstrap flood
//! of the first stream message, the emergence of a tree or DAG through link
//! deactivation, cycle prevention, the parent selection strategies, and the
//! soft/hard repair mechanisms used under churn. It is a sans-IO state
//! machine; the `node` module composes it with HyParView into a runnable
//! simulator protocol, and the unit tests below drive it directly.

use crate::buffer::MessageBuffer;
use crate::config::{BrisaConfig, ParentStrategy};
use crate::cycle::{CycleGuard, CycleState};
use crate::links::Links;
use crate::message::{BrisaMsg, BrisaSink, DataMsg};
use crate::parent::{CandidateSet, NeighborTelemetry};
use crate::stats::BrisaStats;
use brisa_simnet::{NodeId, SimDuration, SimTime};
use brisa_telemetry::{Counter, EventKind as TelEventKind, Histo, Telemetry};
use std::sync::Arc;

/// How long a node waits for a soft repair to produce a parent before
/// escalating to the hard (flooding) repair.
pub const SOFT_REPAIR_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Minimum interval between successive hard-repair re-attempts while a node
/// remains orphaned.
pub const HARD_REPAIR_RETRY: SimDuration = SimDuration::from_secs(2);
/// Base interval between successive retransmission requests for the same
/// delivery gap (steady-state loss recovery, Section II-F's buffer-based
/// compensation applied outside the repair path). Short enough that a node
/// behind a healed partition catches up within a few stream intervals,
/// long enough that a single loss costs one request, not a burst. Requests
/// that make no progress back off exponentially (doubling per fruitless
/// attempt, capped at 32× this base), so a hole nobody can fill anymore —
/// evicted from every upstream buffer — decays to background noise instead
/// of soliciting the same retransmissions forever.
pub const GAP_RETRY: SimDuration = SimDuration::from_millis(500);
/// Cap on the exponential gap-retry backoff (`GAP_RETRY << GAP_BACKOFF_MAX`).
pub const GAP_BACKOFF_MAX: u32 = 5;
/// A parenthood is considered *stale* when no stream data has arrived from
/// any parent for this long (ten intervals at the paper's 5 msg/s rate).
/// A first reception from a non-parent while the parents are stale is
/// recovery evidence, not a surplus link — see the fresh-feeder path in
/// `handle_data`.
pub const PARENT_STALE_AFTER: SimDuration = SimDuration::from_secs(2);
/// How long the data path must be quiet (no reception or publish) before a
/// node starts advertising its stream edge to children on the repair tick.
/// While data flows, later messages reveal holes on their own; the
/// advertisement exists for the tail of the stream, where a lost final
/// message is followed by nothing and would otherwise stay invisible
/// forever. Gating on quiescence keeps the advertisement free in steady
/// state (one stream interval at 5 msg/s is 200 ms, well under this).
pub const EDGE_QUIET_AFTER: SimDuration = SimDuration::from_secs(1);

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

/// Classification of an ongoing parent-recovery procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// A replacement parent candidate existed in the active view; only its
    /// inbound link had to be re-activated.
    Soft,
    /// No replacement existed: the node re-bootstrapped by flooding,
    /// forgetting its position and propagating a re-activation order down
    /// its sub-tree.
    Hard,
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
    /// Last time stream data arrived from a current parent (or a parent was
    /// adopted). Drives the staleness test of the fresh-feeder path.
    last_parent_delivery: Option<SimTime>,
    /// Last time any stream data moved through this node (reception or
    /// publish). Gates the stream-edge advertisement: quiet for
    /// [`EDGE_QUIET_AFTER`] means the tail may be hiding a hole.
    last_data_at: Option<SimTime>,
    /// Observability handles, `None` unless an enabled registry is
    /// attached: 8 B in every node's slot instead of fourteen handles.
    tel: Option<Box<CoreTel>>,
}

impl BrisaCore {
    /// Creates the state machine for node `me`.
    pub fn new(me: NodeId, cfg: BrisaConfig) -> Self {
        let cycle = if cfg.mode.is_tree() {
            CycleState::tree()
        } else {
            CycleState::dag()
        };
        let buffer = MessageBuffer::new(cfg.buffer_size);
        let stats = BrisaStats::with_tracking(cfg.tracking);
        BrisaCore {
            me,
            cfg,
            cycle,
            links: Links::new(),
            candidates: CandidateSet::new(),
            buffer,
            stats,
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

    /// Marks this node orphaned in the observability layer (counter plus
    /// flight-recorder event). Called wherever the protocol bookkeeping
    /// pushes onto `stats.orphaned`.
    fn tel_orphaned(&self, now: SimTime, lost_parent: NodeId) {
        self.with_tel(|t| t.orphans.inc());
        self.tel_event(now, TelEventKind::Orphan, lost_parent.0 as u64, 0);
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
    /// the link table, the candidate set and this node's own path). Summed
    /// across nodes by the scale-mode bytes-per-node accounting.
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

    // ------------------------------------------------------------------
    // Membership events
    // ------------------------------------------------------------------

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
        let was_parent = self.links.neighbor_down(peer);
        if was_parent && !self.is_source {
            self.stats.parents_lost.push(now);
            if self.links.parent_count() == 0 {
                self.stats.orphaned.push(now);
                self.tel_orphaned(now, peer);
                self.start_repair(now, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Stream injection (source only)
    // ------------------------------------------------------------------

    /// Publishes the next stream message (source only). The first call
    /// doubles as the bootstrap flood that seeds the structure.
    pub fn publish(&mut self, now: SimTime, payload_bytes: usize, out: &mut impl BrisaSink) {
        assert!(self.is_source, "only the source publishes stream messages");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.with_tel(|t| t.delivered.inc());
        self.stats.delivery.record(seq, now);
        self.highest_seq_seen = Some(self.highest_seq_seen.map_or(seq, |h| h.max(seq)));
        self.last_data_at = Some(now);
        self.buffer.insert(seq, payload_bytes);
        out.deliver(seq);
        self.relay(now, seq, payload_bytes, None, out);
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

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
            BrisaMsg::Deactivate { symmetric } => {
                self.links.deactivate_outbound(from);
                // A symmetric deactivation means the sender also stopped
                // relaying to us. If we considered it a parent, that
                // parenthood is dead — clinging to it would starve this
                // node silently (no data, no link-down, no gap evidence),
                // so treat it as a parent loss and repair.
                if symmetric && !self.is_source && self.links.is_parent(from) {
                    self.links.drop_parent(from);
                    self.stats.parents_lost.push(now);
                    if self.links.parent_count() == 0 {
                        self.stats.orphaned.push(now);
                        self.tel_orphaned(now, from);
                        self.start_repair(now, out);
                    }
                }
            }
            BrisaMsg::Activate => {
                self.links.reactivate_outbound(from);
                // Answer with the most recent buffered message so a
                // recovering orphan can adopt a parent (and then request the
                // rest of the gap) without waiting for the next injection.
                //
                // Only nodes with an upstream of their own may answer: a
                // node that is itself orphaned (or mid-repair) answering
                // with stale buffered data advertises itself as a parent
                // while disconnected. Two simultaneous orphans Activating
                // each other would then *mutually adopt* — a parent cycle
                // with no path to the source that no fresh data ever
                // enters, so the path-embedding cycle detection never
                // fires and the whole subtree below wedges silently
                // (reproduced at every mass-crash scale; ~12 % of
                // survivors at 10 000 nodes before this guard). The link
                // reactivation above still happens, so whichever orphan
                // recovers first relays fresh data to the other and
                // adoption proceeds through the normal first-reception
                // path.
                // The answer is also gated on still *knowing* the
                // requester: if our membership layer already evicted it,
                // the `reactivate_outbound` above was a no-op, so we would
                // hand it adoption bait and then never relay a single
                // message to it — the child wedges on a parent that is
                // healthy but link-less towards it (the dominant residual
                // wedge class after mass crashes: stale asymmetric views).
                let has_upstream = self.is_source
                    || (self.links.parent_count() > 0 && self.pending_repair.is_none());
                let latest = (has_upstream && self.links.is_neighbor(from))
                    .then(|| self.buffer.highest_seq().and_then(|s| self.buffer.get(s)))
                    .flatten();
                if let Some(m) = latest {
                    out.send(
                        from,
                        BrisaMsg::data(self.data_msg(now, m.seq, m.payload_bytes)),
                    );
                }
            }
            BrisaMsg::ReactivationOrder => self.handle_reactivation_order(now, from, out),
            BrisaMsg::DepthUpdate { depth } => self.handle_depth_update(from, depth, out),
            BrisaMsg::Retransmit { from_seq, to_seq } => {
                self.handle_retransmit(now, from, from_seq, to_seq, out)
            }
            BrisaMsg::Edge { highest } => self.handle_edge(now, from, highest, out),
        }
    }

    /// A stream-edge advertisement from an upstream node: anything between
    /// our contiguous prefix and the advertised edge is now a *known* gap,
    /// so the regular rate-limited retransmission path can close it — this
    /// is how a message lost at the stream's tail (which no later data ever
    /// reveals) gets repaired.
    fn handle_edge(&mut self, now: SimTime, from: NodeId, highest: u64, out: &mut impl BrisaSink) {
        if self.is_source || !self.admits(highest) {
            return;
        }
        // A node that has never delivered anchors exactly like the data
        // path: only what an upstream buffer could still serve is treated
        // as a recoverable gap.
        self.stats
            .delivery
            .anchor(highest.saturating_sub(self.cfg.buffer_size as u64));
        self.highest_seq_seen = Some(self.highest_seq_seen.map_or(highest, |h| h.max(highest)));
        if self.known_gap() && self.pending_repair.is_none() {
            self.request_gap(now, from, out);
        }
    }

    fn handle_data(
        &mut self,
        now: SimTime,
        from: NodeId,
        data: Arc<DataMsg>,
        telemetry: &dyn NeighborTelemetry,
        out: &mut impl BrisaSink,
    ) {
        // A node that has never delivered anything anchors its contiguous
        // prefix one buffer window below the first message it sees: a
        // joiner arriving mid-stream must not treat history that is long
        // evicted from every buffer as a recoverable gap, but everything a
        // peer could still serve — including seq 0 when an original node's
        // first reception arrives ahead of a lost bootstrap copy — remains
        // requestable. Only then is the number held to the window, so a
        // joiner is admitted however far into the stream it arrives.
        if !self.is_source {
            self.stats
                .delivery
                .anchor(data.seq.saturating_sub(self.cfg.buffer_size as u64));
        }
        if !self.admits(data.seq) {
            return;
        }
        // The sender is (re)observed as a parent candidate. Only the
        // delay-aware strategy ever ranks by RTT, so only it pays for the
        // membership layer's lookup.
        let rtt = match self.cfg.strategy {
            ParentStrategy::DelayAware => telemetry.rtt(from),
            _ => None,
        };
        self.candidates
            .observe(from, now, rtt, data.sender_uptime_secs, data.sender_load);
        self.highest_seq_seen = Some(self.highest_seq_seen.map_or(data.seq, |h| h.max(data.seq)));
        self.last_data_at = Some(now);
        let low = self.stats.delivery.low();
        let first = self.stats.delivery.record(data.seq, now);
        if first {
            self.with_tel(|t| t.delivered.inc());
            out.deliver(data.seq);
            self.buffer.insert(data.seq, data.payload_bytes);
            if self.stats.delivery.low() != low {
                self.gap_attempts = 0;
            }
        }

        if self.is_source {
            // The source never needs inbound stream traffic.
            self.deactivate(now, from, out);
            return;
        }

        // Steady-state loss recovery: a sequence number ahead of the
        // contiguous delivered prefix reveals a hole (a message lost on the
        // wire, or everything missed behind a healed partition). Ask the
        // sender — it relayed the newer message, so its buffer covers the
        // gap or soon will — rate-limited so one hole costs one request.
        // While a repair is pending, the adoption path issues the request
        // instead.
        if self.stats.delivery.low() < data.seq && self.pending_repair.is_none() {
            self.request_gap(now, from, out);
        }

        // Parent machinery.
        let adoptable = self.can_adopt(from, &data.guard);
        if self.links.is_parent(from) {
            self.last_parent_delivery = Some(now);
            // A message from a current parent whose path contains us reveals
            // a cycle (Section II-D) and forces a re-selection. With depth
            // labels a parent that moved deeper is not a cycle: the paper's
            // rule is that the child simply moves one level further down.
            let cycle_detected = matches!(
                (&self.cycle, &data.guard),
                (CycleState::Path(_), CycleGuard::Path(p)) if p.contains(&self.me)
            );
            if !cycle_detected {
                self.update_position(&data.guard, out);
            } else {
                self.deactivate(now, from, out);
                if self.links.parent_count() == 0 {
                    self.stats.orphaned.push(now);
                    self.tel_orphaned(now, from);
                    self.start_repair(now, out);
                }
            }
        } else if adoptable && self.links.parent_count() < self.cfg.mode.target_parents() {
            // A free parent slot: adopt this sender.
            self.adopt(now, from, out);
            self.update_position(&data.guard, out);
        } else if !adoptable {
            // The sender cannot be a parent; stop it from relaying to us.
            self.deactivate(now, from, out);
        } else if data.seq == 0 || self.pending_repair.is_some() {
            // Duplicate of the bootstrap flood (or a reception while a repair
            // is in progress): run the parent selection strategy over the
            // current parents plus this candidate (Figure 3). Strategy-driven
            // switches are confined to structure-formation time; switching an
            // established tree on in-flight (possibly stale) path metadata
            // can stitch a cycle out of two concurrent switches.
            self.consider_replacement(now, from, &data.guard, out);
        } else if first && self.parents_stale(now) {
            // A *first* reception from a surplus sender while no parent has
            // delivered anything for PARENT_STALE_AFTER: the incumbent
            // parenthood is dead weight (its upstream chain is broken in a
            // way no local signal reports — alive parent, silent link) and
            // this sender is provably connected to fresh data. Deactivating
            // it here is how a mass-crash recovery deadlocks globally:
            // after a 50 % correlated failure the healed nodes around the
            // source relay new sequence numbers into the wedged region,
            // and every wedged node used to answer with `Deactivate` in
            // favour of its stale parent — silencing the only live feeder
            // (reproduced at 20k/100k nodes: the source lost every
            // outbound link within a second of the crash and the stream
            // died at the crash sequence number overlay-wide). Instead:
            // re-parent onto the sender when it sits strictly closer to
            // the source (the same upward guard as `consider_replacement`,
            // so concurrent switches cannot stitch a cycle); otherwise
            // leave the link active and let a genuine duplicate prune it
            // later.
            self.adopt_fresh_feeder(now, from, &data.guard, out);
        } else if !first {
            // Steady-state duplicate: keep the incumbent parents and silence
            // the surplus sender. Deactivation is *duplicate-triggered*
            // (Section II-C): a first reception from a surplus sender is a
            // latency race, not redundancy — the sender is ahead of our
            // parents for this message. Deactivating on firsts silences
            // live feeders one message at a time, which is how the
            // mass-crash recovery deadlock above started; leaving the link
            // active costs at most a few extra duplicates until the
            // sender's copy loses a race and the link prunes normally.
            self.deactivate_surplus(now, from, out);
        }

        // Relay the payload once, to every outbound-active neighbor except
        // the sender, carrying our own position metadata.
        if first && !self.cycle.is_unset() {
            self.relay(now, data.seq, data.payload_bytes, Some(from), out);
        }
    }

    fn handle_reactivation_order(&mut self, now: SimTime, from: NodeId, out: &mut impl BrisaSink) {
        if self.is_source {
            return;
        }
        let children: Vec<NodeId> = self.links.children().collect();
        let alternatives: Vec<NodeId> = self
            .links
            .neighbors()
            .filter(|&n| n != from && !children.contains(&n))
            .collect();
        if !alternatives.is_empty() {
            // We can replace the ordering parent locally: re-activate the
            // inbound links of the alternatives and let the normal selection
            // adopt whichever relays next. The previous parent may become a
            // child (role exchange, Section II-F).
            if self.links.is_parent(from) {
                self.links.drop_parent(from);
            }
            if self.links.parent_count() == 0 {
                self.pending_repair.get_or_insert((now, RepairKind::Soft));
            }
            for n in alternatives {
                self.links.reactivate_inbound(n);
                out.send(n, BrisaMsg::Activate);
            }
        } else {
            // Cascade: behave exactly like the orphan that sent the order.
            // The re-activation order is forwarded only to the children we
            // had *before* dropping the ordering parent, so two nodes never
            // bounce orders back and forth.
            if self.links.is_parent(from) {
                self.links.drop_parent(from);
            }
            if self.links.parent_count() == 0 {
                self.pending_repair.get_or_insert((now, RepairKind::Hard));
                self.last_repair_attempt = Some(now);
            }
            self.cycle.reset();
            self.links.reactivate_all_inbound();
            for n in self.links.neighbors() {
                out.send(n, BrisaMsg::Activate);
            }
            for c in children {
                self.stats.reactivation_orders_sent += 1;
                out.send(c, BrisaMsg::ReactivationOrder);
            }
        }
    }

    fn handle_depth_update(&mut self, from: NodeId, depth: u32, out: &mut impl BrisaSink) {
        if self.cfg.mode.is_tree() || !self.links.is_parent(from) {
            return;
        }
        if self
            .cycle
            .position_after(self.me, &CycleGuard::Depth(depth))
        {
            self.push_depth_update(out);
        }
    }

    fn handle_retransmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        from_seq: u64,
        to_seq: u64,
        out: &mut impl BrisaSink,
    ) {
        let missing = self.buffer.range(from_seq, to_seq);
        for m in &missing {
            self.stats.retransmissions_served += 1;
            self.with_tel(|t| t.retransmits_served.inc());
            out.send(
                from,
                BrisaMsg::data(self.data_msg(now, m.seq, m.payload_bytes)),
            );
        }
        if !missing.is_empty() {
            self.tel_event(
                now,
                TelEventKind::RetransmitServed,
                from.0 as u64,
                missing.len() as u64,
            );
        }
    }

    /// The message this node sends for stream message `seq`: the payload
    /// as received, the metadata this node's own — its position, uptime
    /// and load. The guard shares the node's path, so building the message
    /// copies no path.
    fn data_msg(&self, now: SimTime, seq: u64, payload_bytes: usize) -> DataMsg {
        DataMsg {
            seq,
            payload_bytes,
            guard: self.cycle.outgoing_guard(self.me),
            sender_uptime_secs: self.uptime_secs(now),
            sender_load: self.links.degree().min(u16::MAX as usize) as u16,
        }
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    /// Whether `from` may be adopted as a new parent right now.
    ///
    /// The sender must be a *current overlay neighbor*: the dissemination
    /// structure is embedded in the overlay, and a sender we no longer hold
    /// a membership link to will never put us back among its outbound-active
    /// children — adopting it (e.g. from the data burst answering a repair
    /// `Activate` that crossed paths with our eviction from the sender's
    /// view) would leave this node with a parent that never relays again, a
    /// silent permanent starvation. The simulator's seeded schedules do not
    /// produce that interleaving; the live runtime's wall-clock ones do.
    ///
    /// Beyond that — tree mode: exactly the path-embedding check. DAG mode:
    /// the sender's depth must be strictly smaller, or equal with a
    /// deterministic identifier tie-break. The tie-break prevents two
    /// equal-depth nodes from adopting each other based on in-flight
    /// (stale) depth labels, which would create a two-node cycle the
    /// approximate scheme could not detect.
    fn can_adopt(&self, from: NodeId, guard: &CycleGuard) -> bool {
        if !self.links.is_neighbor(from) {
            return false;
        }
        match (&self.cycle, guard) {
            (CycleState::Depth(my_depth), CycleGuard::Depth(sender_depth)) => match my_depth {
                None => true,
                Some(d) => {
                    // Equal-depth senders are adoptable with a deterministic
                    // identifier tie-break, or unconditionally when the node
                    // is orphaned: adopting then moves this node one level
                    // deeper, so the new parent cannot simultaneously adopt
                    // it back.
                    sender_depth < d
                        || (sender_depth == d
                            && (from.0 < self.me.0 || self.links.parent_count() == 0))
                }
            },
            _ => self.cycle.permits(self.me, guard),
        }
    }

    fn uptime_secs(&self, now: SimTime) -> u32 {
        self.started_at
            .map(|s| now.saturating_since(s).as_secs_f64() as u32)
            .unwrap_or(0)
    }

    /// True if `seq`, read off the wire, lies inside the ledger's window. A
    /// number outside it is counted and its message dropped before it
    /// touches any state: it could only come from a faulty or hostile peer,
    /// and letting it reach `highest_seq_seen` would make it a gap to
    /// request and an edge to advertise.
    fn admits(&mut self, seq: u64) -> bool {
        let inside = self.stats.delivery.admit(seq);
        if !inside {
            self.with_tel(|t| t.seq_refused.inc());
        }
        inside
    }

    /// True if messages between the ledger's cursor and the highest
    /// sequence number seen are known to be missing.
    fn known_gap(&self) -> bool {
        self.highest_seq_seen
            .is_some_and(|h| self.stats.delivery.low() <= h)
    }

    /// Requests retransmission of the known delivery gap from the ledger's
    /// cursor to `highest_seq_seen` from `target`, rate-limited with
    /// exponential backoff while no progress is made (see [`GAP_RETRY`]).
    fn request_gap(&mut self, now: SimTime, target: NodeId, out: &mut impl BrisaSink) {
        let backoff = GAP_RETRY * (1u64 << self.gap_attempts.min(GAP_BACKOFF_MAX));
        let due = self
            .last_gap_request
            .is_none_or(|t| now.saturating_since(t) >= backoff);
        if !due {
            return;
        }
        let Some(highest) = self.highest_seq_seen else {
            return;
        };
        let low = self.stats.delivery.low();
        if low > highest {
            return;
        }
        self.last_gap_request = Some(now);
        self.gap_attempts += 1;
        self.stats.gap_retransmit_requests += 1;
        self.with_tel(|t| t.gap_requests.inc());
        self.tel_event(now, TelEventKind::GapDetected, low, highest - low + 1);
        self.tel_event(now, TelEventKind::RetransmitSent, target.0 as u64, low);
        out.send(
            target,
            BrisaMsg::Retransmit {
                from_seq: low,
                to_seq: highest,
            },
        );
    }

    /// Updates our own position after delivering from (or switching to) an
    /// accepted parent and propagates depth changes to children in DAG mode.
    fn update_position(&mut self, guard: &CycleGuard, out: &mut impl BrisaSink) {
        let changed = self.cycle.position_after(self.me, guard);
        if changed && !self.cfg.mode.is_tree() {
            self.push_depth_update(out);
        }
    }

    fn push_depth_update(&mut self, out: &mut impl BrisaSink) {
        if let Some(depth) = self.cycle.position() {
            for c in self.links.children() {
                out.send(
                    c,
                    BrisaMsg::DepthUpdate {
                        depth: depth as u32,
                    },
                );
            }
        }
    }

    /// Adopts `from` as a parent, completing any pending repair and asking
    /// the new parent for messages missed in the meantime.
    fn adopt(&mut self, now: SimTime, from: NodeId, out: &mut impl BrisaSink) {
        self.links.adopt_parent(from);
        self.last_parent_delivery = Some(now);
        self.with_tel(|t| {
            t.adopts.inc();
            t.parent_count.record(self.links.parent_count() as u64);
        });
        self.tel_event(
            now,
            TelEventKind::Adopt,
            from.0 as u64,
            self.links.parent_count() as u64,
        );
        if let Some((started, kind)) = self.pending_repair.take() {
            let delay = now.saturating_since(started).as_micros();
            self.with_tel(|t| {
                t.orphan_heals.inc();
                t.orphan_us.record(delay);
            });
            self.tel_event(now, TelEventKind::OrphanHealed, from.0 as u64, delay);
            match kind {
                RepairKind::Soft => {
                    self.stats.soft_repairs += 1;
                    self.with_tel(|t| t.soft_repairs.inc());
                    self.stats.soft_repair_delays_us.push(delay);
                }
                RepairKind::Hard => {
                    self.stats.hard_repairs += 1;
                    self.with_tel(|t| t.hard_repairs.inc());
                    self.stats.hard_repair_delays_us.push(delay);
                }
            }
            // Recover anything we missed while orphaned, starting from the
            // first hole in the delivered sequence (the adoption itself may
            // already have been triggered by a newer message). The
            // steady-state gap detector is told about this request so its
            // rate limit covers the adoption burst too.
            self.last_gap_request = Some(now);
            out.send(
                from,
                BrisaMsg::Retransmit {
                    from_seq: self.stats.delivery.low(),
                    to_seq: u64::MAX,
                },
            );
        }
        self.check_construction(now);
    }

    /// Sends a deactivation for the inbound link from `peer` and updates the
    /// construction-time bookkeeping.
    fn deactivate(&mut self, now: SimTime, peer: NodeId, out: &mut impl BrisaSink) {
        self.deactivate_flagged(now, peer, false, out);
    }

    /// [`Self::deactivate`] with an explicit symmetric flag: `symmetric`
    /// is set by the caller that *also* deactivates its own outbound link
    /// towards `peer` (Section II-E), telling the peer both directions are
    /// dead.
    fn deactivate_flagged(
        &mut self,
        now: SimTime,
        peer: NodeId,
        symmetric: bool,
        out: &mut impl BrisaSink,
    ) {
        self.links.deactivate_inbound(peer);
        self.with_tel(|t| t.deactivations.inc());
        self.tel_event(now, TelEventKind::Deactivate, peer.0 as u64, 0);
        if self.stats.first_deactivation.is_none() {
            self.stats.first_deactivation = Some(now);
        }
        out.send(peer, BrisaMsg::Deactivate { symmetric });
        self.check_construction(now);
    }

    /// Runs the parent selection strategy over the current parents plus the
    /// duplicate sender `from`, deactivating whichever link loses
    /// (Figure 3).
    fn consider_replacement(
        &mut self,
        now: SimTime,
        from: NodeId,
        guard: &CycleGuard,
        out: &mut impl BrisaSink,
    ) {
        let target = self.cfg.mode.target_parents();
        // Replacing an existing parent is only considered when the candidate
        // sits strictly closer to the source than we do. Without this guard
        // two neighbors that mutually prefer each other (low RTT, high
        // uptime, ...) could re-parent onto one another concurrently — each
        // decision individually passes the cycle check against the other's
        // pre-switch metadata — and stitch a cycle that starves both
        // sub-trees.
        let sender_depth = match &guard {
            CycleGuard::Path(p) => p.len().saturating_sub(1),
            CycleGuard::Depth(d) => *d as usize,
        };
        let upward = match self.cycle.position() {
            None => true,
            Some(pos) => sender_depth < pos,
        };
        let mut pool: Vec<NodeId> = self.links.parents().collect();
        if !pool.contains(&from) {
            pool.push(from);
        }
        let selected = self.candidates.select(self.cfg.strategy, &pool, target);
        if upward && selected.contains(&from) {
            // `from` displaces the worst current parent(s).
            let losers: Vec<NodeId> = self
                .links
                .parents()
                .filter(|p| !selected.contains(p))
                .collect();
            for loser in losers {
                self.deactivate(now, loser, out);
            }
            self.adopt(now, from, out);
            // Our position now follows the new parent; children are updated
            // through the guards of the messages we relay next (tree mode)
            // or an explicit depth update (DAG mode).
            self.update_position(guard, out);
        } else {
            self.deactivate_surplus(now, from, out);
        }
    }

    /// Deactivates the inbound link from `from`, a surplus sender. In a
    /// first-come first-picked tree this is a symmetric deactivation
    /// (Section II-E): we cannot be `from`'s parent either, so we stop
    /// relaying to it without waiting for its deactivation — and say so on
    /// the wire, so a stale parenthood on the other side dies with the link.
    fn deactivate_surplus(&mut self, now: SimTime, from: NodeId, out: &mut impl BrisaSink) {
        let symmetric =
            self.cfg.strategy == ParentStrategy::FirstComeFirstPicked && self.cfg.mode.is_tree();
        self.deactivate_flagged(now, from, symmetric, out);
        if symmetric {
            self.links.deactivate_outbound(from);
        }
    }

    /// True if no current parent has delivered stream data (nor been
    /// adopted) within [`PARENT_STALE_AFTER`].
    fn parents_stale(&self, now: SimTime) -> bool {
        self.last_parent_delivery
            .is_none_or(|t| now.saturating_since(t) >= PARENT_STALE_AFTER)
    }

    /// Re-parents onto `from` — a sender that just delivered a *first*
    /// reception while every incumbent parent was silent past the staleness
    /// window — when it sits strictly closer to the source than our own
    /// position (the anti-cycle upward guard of
    /// [`Self::consider_replacement`]). When the sender is not upward the
    /// link is simply left active: it keeps feeding us while the stale
    /// chain recovers, and an eventual true duplicate prunes it through
    /// the normal path.
    fn adopt_fresh_feeder(
        &mut self,
        now: SimTime,
        from: NodeId,
        guard: &CycleGuard,
        out: &mut impl BrisaSink,
    ) {
        let sender_depth = match guard {
            CycleGuard::Path(p) => p.len().saturating_sub(1),
            CycleGuard::Depth(d) => *d as usize,
        };
        let upward = match self.cycle.position() {
            None => true,
            Some(pos) => sender_depth < pos,
        };
        if !upward {
            return;
        }
        let losers: Vec<NodeId> = self.links.parents().filter(|p| *p != from).collect();
        for loser in losers {
            self.deactivate(now, loser, out);
        }
        self.adopt(now, from, out);
        self.update_position(guard, out);
    }

    /// Starts the repair procedure after losing every parent: soft repair if
    /// any non-child neighbor can take over, hard repair (flood fallback plus
    /// re-activation orders) otherwise.
    fn start_repair(&mut self, now: SimTime, out: &mut impl BrisaSink) {
        let children: Vec<NodeId> = self.links.children().collect();
        let non_children: Vec<NodeId> = self
            .links
            .neighbors()
            .filter(|n| !children.contains(n))
            .collect();
        self.last_repair_attempt = Some(now);
        if !non_children.is_empty() {
            self.pending_repair = Some((now, RepairKind::Soft));
            for n in non_children {
                self.links.reactivate_inbound(n);
                out.send(n, BrisaMsg::Activate);
            }
        } else {
            self.pending_repair = Some((now, RepairKind::Hard));
            self.hard_repair_actions(out);
        }
    }

    /// Performs the hard-repair steps of Section II-F: forget the position,
    /// re-activate every inbound link, and propagate a re-activation order to
    /// the children so the sub-tree re-bootstraps over flooding.
    fn hard_repair_actions(&mut self, out: &mut impl BrisaSink) {
        self.cycle.reset();
        self.links.reactivate_all_inbound();
        for n in self.links.neighbors() {
            out.send(n, BrisaMsg::Activate);
        }
        for c in self.links.children() {
            self.stats.reactivation_orders_sent += 1;
            out.send(c, BrisaMsg::ReactivationOrder);
        }
    }

    /// Periodic repair supervision, driven by the embedding stack's timer.
    ///
    /// Soft repairs that have not produced a parent within
    /// [`SOFT_REPAIR_TIMEOUT`] escalate to a hard repair (this covers the
    /// case where all the re-activated neighbors turn out to be descendants
    /// of the orphan, so no upstream traffic can ever reach it). Hard repairs
    /// are re-attempted every [`HARD_REPAIR_RETRY`] while the node remains
    /// orphaned, e.g. when the overlay itself is still being repaired by the
    /// PSS.
    pub fn repair_tick(&mut self, now: SimTime, out: &mut impl BrisaSink) {
        // Stream-edge advertisement: once the data path has gone quiet
        // (the stream's tail, or an outage), tell the children where the
        // edge is, so a hole *after* their last reception — invisible to
        // the data-driven detector — becomes a known, requestable gap.
        // While data flows this stays silent: later messages reveal holes
        // on their own.
        if let Some(highest) = self.highest_seq_seen {
            let quiet = self
                .last_data_at
                .is_none_or(|t| now.saturating_since(t) >= EDGE_QUIET_AFTER);
            if quiet {
                let mut advertised = 0u64;
                for child in self.links.children() {
                    advertised += 1;
                    out.send(child, BrisaMsg::Edge { highest });
                }
                if advertised > 0 {
                    self.with_tel(|t| t.edges_advertised.add(advertised));
                    self.tel_event(now, TelEventKind::EdgeAdvertised, highest, advertised);
                }
            }
        }
        // Tail-end loss recovery: when a known delivery gap persists (the
        // retransmission itself was lost, or an upstream node is still
        // catching up after a partition healed), keep re-requesting it from
        // a parent until it closes. Data receptions drive the detector in
        // steady state; this tick covers the case where nothing arrives at
        // all anymore.
        if self.pending_repair.is_none() && !self.is_source {
            let parent = self.links.parents().next();
            if let Some(parent) = parent.filter(|_| self.known_gap()) {
                self.request_gap(now, parent, out);
            }
        }
        let Some((started, kind)) = self.pending_repair else {
            return;
        };
        if self.links.parent_count() > 0 || self.is_source {
            self.pending_repair = None;
            return;
        }
        let since_last = self
            .last_repair_attempt
            .map(|t| now.saturating_since(t))
            .unwrap_or(SimDuration::ZERO);
        match kind {
            RepairKind::Soft => {
                if now.saturating_since(started) >= SOFT_REPAIR_TIMEOUT {
                    self.pending_repair = Some((started, RepairKind::Hard));
                    self.last_repair_attempt = Some(now);
                    self.hard_repair_actions(out);
                }
            }
            RepairKind::Hard => {
                if since_last >= HARD_REPAIR_RETRY {
                    self.last_repair_attempt = Some(now);
                    self.hard_repair_actions(out);
                }
            }
        }
    }

    /// Sends stream message `seq` to every outbound-active neighbor except
    /// `exclude`, carrying this node's own position metadata. The copy is
    /// built once, on the first recipient, and shared by all of them — so
    /// an interior node allocates exactly one message and a leaf, which has
    /// nobody to relay to, none.
    fn relay(
        &self,
        now: SimTime,
        seq: u64,
        payload_bytes: usize,
        exclude: Option<NodeId>,
        out: &mut impl BrisaSink,
    ) {
        let mut shared: Option<Arc<DataMsg>> = None;
        for peer in self.links.outbound_active() {
            if Some(peer) == exclude {
                continue;
            }
            let copy =
                shared.get_or_insert_with(|| Arc::new(self.data_msg(now, seq, payload_bytes)));
            out.send(peer, BrisaMsg::Data(Arc::clone(copy)));
        }
    }

    fn check_construction(&mut self, now: SimTime) {
        if self.stats.first_deactivation.is_some()
            && self.stats.construction_done.is_none()
            && self.links.inbound_active_count() <= self.cfg.mode.target_parents()
        {
            self.stats.construction_done = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StructureMode;
    use crate::cycle::CycleGuard;
    use crate::message::BrisaAction;
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

    #[test]
    fn dag_mode_collects_multiple_parents() {
        let cfg = BrisaConfig::dag(2, ParentStrategy::FirstComeFirstPicked);
        let mut mesh = Mesh::new(&cfg, &clique(8), 8);
        for _ in 0..3 {
            mesh.publish(50);
        }
        let multi = (1..8)
            .filter(|&i| mesh.node(i).parents().len() == 2)
            .count();
        assert!(
            multi >= 5,
            "most nodes should find two parents, got {multi}"
        );
        for i in 1..8 {
            let p = mesh.node(i).parents().len();
            assert!((1..=2).contains(&p), "parent count within bounds, got {p}");
            assert!(mesh.node(i).depth().is_some());
        }
        // Once the DAG has stabilised, duplicates per message are bounded by
        // the extra parent: at most one duplicate per message per node.
        let before: Vec<u64> = (1..8)
            .map(|i| mesh.node(i).stats().delivery.duplicates())
            .collect();
        let extra_msgs = 10u64;
        for _ in 0..extra_msgs {
            mesh.publish(50);
        }
        for (idx, i) in (1..8).enumerate() {
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
    fn dag_depth_update_propagates_to_children() {
        let cfg = BrisaConfig::dag(2, ParentStrategy::FirstComeFirstPicked);
        let mut core = BrisaCore::new(NodeId(5), cfg);
        core.note_started(SimTime::ZERO);
        core.on_neighbor_up(NodeId(1));
        core.on_neighbor_up(NodeId(7)); // will remain a child
        let d = BrisaMsg::data(DataMsg {
            seq: 0,
            payload_bytes: 10,
            guard: CycleGuard::Depth(1),
            sender_uptime_secs: 0,
            sender_load: 0,
        });
        let _ = acts(|a| core.handle(SimTime::from_millis(1), NodeId(1), d, &NoTelemetry, a));
        assert_eq!(core.depth(), Some(2));
        // The parent moves deeper and tells us.
        let actions = acts(|a| {
            core.handle(
                SimTime::from_millis(3),
                NodeId(1),
                BrisaMsg::DepthUpdate { depth: 4 },
                &NoTelemetry,
                a,
            )
        });
        assert_eq!(core.depth(), Some(5));
        assert!(actions.iter().any(|a| matches!(
            a,
            BrisaAction::Send {
                to: NodeId(7),
                msg: BrisaMsg::DepthUpdate { depth: 5 }
            }
        )));
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
