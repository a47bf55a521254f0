//! HyParView: a reactive peer sampling service.
//!
//! HyParView (Leitão, Pereira, Rodrigues, DSN 2007) maintains two views at
//! each node: a small *active view* of neighbors, connected through
//! monitored (TCP) connections and kept symmetric, and a larger *passive
//! view* refreshed by periodic shuffles and used as a reservoir of
//! replacement nodes. The active view only changes reactively — upon
//! failures or joins — which is the stability property BRISA builds on.
//!
//! This implementation is a sans-IO state machine: every input hands its
//! effects, in order, to an [`HpvSink`] the embedding protocol stack
//! supplies — the stack's own adapter over its simulator context, or a
//! plain `Vec<HpvOut>` in tests.
//! It includes the *expansion factor* extension described in Section II-A of
//! the BRISA paper: the active view may grow up to
//! `active_size * expansion_factor` before additions force evictions, and
//! evictions in that band do not trigger replacements, which avoids the
//! chain reactions otherwise caused by bootstrap join storms.
//!
//! Keep-alives are the overlay's background hum — a handful per node per
//! period, most of what a large simulation executes — so everything they
//! touch is a small vector searched linearly and nothing on their path
//! allocates or hashes: the per-peer records (`rtt`, `neighbor_since`), the
//! outstanding probes and the pending neighbor requests are each bounded by
//! the active view (or three periods of probes). Only a shuffle allocates,
//! for the samples it puts on the wire.

mod config;
mod messages;
#[cfg(test)]
mod oracle;

pub use config::HyParViewConfig;
pub use messages::{HpvMsg, HpvOut, HpvSink, HPV_HEADER_BYTES};

use crate::view::BoundedView;
use brisa_simnet::{NodeId, SimDuration, SimTime};
use rand::rngs::SmallRng;

/// Counters describing membership activity, used by the evaluation harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HpvStats {
    /// Joins this node served as contact or forwarded.
    pub joins_seen: u64,
    /// Active-view entries evicted to make room for new ones.
    pub evictions: u64,
    /// Passive-view entries promoted into the active view.
    pub promotions: u64,
    /// Shuffles initiated.
    pub shuffles_started: u64,
    /// Neighbor requests rejected by this node.
    pub neighbor_rejections: u64,
    /// Keep-alive probes rejected (with a `Disconnect`) because the prober
    /// was not in the active view — each one is a half-open link healed.
    pub half_open_rejections: u64,
}

/// What keep-alives and view changes have recorded about one peer. A record
/// exists while either field is set: `since` follows active-view membership
/// exactly; `rtt` is written by any acknowledged probe — including one whose
/// peer left the view while the probe was in flight — and dropped with the
/// record when the peer next leaves the active view.
#[derive(Debug, Clone, Copy)]
struct PeerRecord {
    peer: NodeId,
    /// When the peer entered the active view, while it is in it.
    since: Option<SimTime>,
    /// Last measured round-trip time.
    rtt: Option<SimDuration>,
}

/// An outstanding keep-alive probe.
#[derive(Debug, Clone, Copy)]
struct Probe {
    nonce: u64,
    peer: NodeId,
    sent_at: SimTime,
}

/// The HyParView membership state machine for one node.
#[derive(Debug)]
pub struct HyParView {
    me: NodeId,
    cfg: HyParViewConfig,
    active: BoundedView,
    passive: BoundedView,
    /// Per-peer measurements, a view's worth of records.
    peers: Vec<PeerRecord>,
    /// Outstanding keep-alive probes: a view's worth, three periods' worth
    /// at most when acknowledgements are being lost.
    pending_probes: Vec<Probe>,
    /// Passive nodes we have asked to become neighbors and are waiting on.
    pending_neighbor: Vec<NodeId>,
    next_nonce: u64,
    last_shuffle_sample: Vec<NodeId>,
    stats: HpvStats,
    /// Observability handles, `None` unless an enabled registry is
    /// attached: 8 B in every node's slot instead of four handles.
    tel: Option<Box<HpvTel>>,
}

/// Pre-resolved observability handles for the membership layer. Boxed,
/// and only built when [`HyParView::set_telemetry`] attaches an enabled
/// registry; strictly out-of-band either way.
#[derive(Debug)]
struct HpvTel {
    tel: brisa_telemetry::Telemetry,
    shuffles: brisa_telemetry::Counter,
    active_view: brisa_telemetry::Histo,
    passive_view: brisa_telemetry::Histo,
}

impl HyParView {
    /// Creates the state machine for node `me`.
    pub fn new(me: NodeId, cfg: HyParViewConfig) -> Self {
        let active = BoundedView::new(cfg.max_active());
        let passive = BoundedView::new(cfg.passive_size);
        HyParView {
            me,
            cfg,
            active,
            passive,
            peers: Vec::new(),
            pending_probes: Vec::new(),
            pending_neighbor: Vec::new(),
            next_nonce: 0,
            last_shuffle_sample: Vec::new(),
            stats: HpvStats::default(),
            tel: None,
        }
    }

    /// Attaches an observability registry, resolving the handles the
    /// shuffle path records into. Strictly out-of-band: telemetry never
    /// influences view management.
    pub fn set_telemetry(&mut self, tel: &brisa_telemetry::Telemetry) {
        self.tel = tel.is_enabled().then(|| {
            Box::new(HpvTel {
                shuffles: tel.counter("hpv.shuffles"),
                active_view: tel.histogram("hpv.active_view_size"),
                passive_view: tel.histogram("hpv.passive_view_size"),
                tel: tel.clone(),
            })
        });
    }

    /// Records one shuffle-cadence observation (counter, view-size
    /// histograms and a flight-recorder event). The embedding stack calls
    /// this from its shuffle timer, where the current time is known.
    pub fn note_shuffle(&mut self, now: SimTime) {
        let Some(tel) = &self.tel else { return };
        let active = self.active.len() as u64;
        let passive = self.passive.len() as u64;
        tel.shuffles.inc();
        tel.active_view.record(active);
        tel.passive_view.record(passive);
        tel.tel.event(
            now.as_micros(),
            self.me.0,
            brisa_telemetry::EventKind::ShuffleTick,
            active,
            passive,
        );
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The protocol configuration.
    pub fn config(&self) -> &HyParViewConfig {
        &self.cfg
    }

    /// The current active view (this node's neighbors).
    pub fn active_view(&self) -> &[NodeId] {
        self.active.as_slice()
    }

    /// The current passive view.
    pub fn passive_view(&self) -> &[NodeId] {
        self.passive.as_slice()
    }

    /// True if `peer` is in the active view.
    pub fn is_neighbor(&self, peer: NodeId) -> bool {
        self.active.contains(peer)
    }

    fn record(&self, peer: NodeId) -> Option<&PeerRecord> {
        self.peers.iter().find(|r| r.peer == peer)
    }

    /// The record of `peer`, created empty if there is none.
    fn record_mut(&mut self, peer: NodeId) -> &mut PeerRecord {
        let pos = match self.peers.iter().position(|r| r.peer == peer) {
            Some(pos) => pos,
            None => {
                self.peers.push(PeerRecord {
                    peer,
                    since: None,
                    rtt: None,
                });
                self.peers.len() - 1
            }
        };
        &mut self.peers[pos]
    }

    /// Last measured round-trip time to `peer`, if a keep-alive probe has
    /// completed.
    pub fn rtt_to(&self, peer: NodeId) -> Option<SimDuration> {
        self.record(peer).and_then(|r| r.rtt)
    }

    /// Time at which `peer` became a neighbor, if it currently is one.
    pub fn neighbor_since(&self, peer: NodeId) -> Option<SimTime> {
        self.record(peer).and_then(|r| r.since)
    }

    /// Memory footprint of this membership state machine in bytes: the
    /// inline struct plus every owned vector at its capacity. The HyParView
    /// term of the scale-mode bytes-per-node accounting.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + (self.active.allocated()
                + self.passive.allocated()
                + self.last_shuffle_sample.capacity()
                + self.pending_neighbor.capacity())
                * size_of::<NodeId>()
            + self.peers.capacity() * size_of::<PeerRecord>()
            + self.pending_probes.capacity() * size_of::<Probe>()
    }

    /// Membership activity counters.
    pub fn stats(&self) -> &HpvStats {
        &self.stats
    }

    /// Joins the overlay through `contact`. The contact is optimistically
    /// added to the active view; the `Join` message triggers `ForwardJoin`
    /// random walks that advertise this node across the overlay.
    pub fn join(&mut self, now: SimTime, contact: NodeId, out: &mut impl HpvSink) {
        self.add_active(contact, now, out);
        out.send(contact, HpvMsg::Join);
    }

    /// Handles a protocol message from `from`.
    pub fn handle(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: HpvMsg,
        rng: &mut SmallRng,
        out: &mut impl HpvSink,
    ) {
        match msg {
            HpvMsg::Join => self.on_join(now, from, out),
            HpvMsg::ForwardJoin { new_node, ttl } => {
                self.on_forward_join(now, from, new_node, ttl, rng, out)
            }
            HpvMsg::Neighbor { high_priority } => self.on_neighbor(now, from, high_priority, out),
            HpvMsg::NeighborReply { accepted } => {
                self.on_neighbor_reply(now, from, accepted, rng, out)
            }
            HpvMsg::Disconnect => self.on_disconnect(now, from, rng, out),
            HpvMsg::Shuffle { origin, nodes, ttl } => {
                self.on_shuffle(from, origin, nodes, ttl, rng, out)
            }
            HpvMsg::ShuffleReply { nodes } => {
                let mut sent = std::mem::take(&mut self.last_shuffle_sample);
                self.integrate_passive(&nodes, &sent, rng);
                // Consumed, but the buffer serves the next shuffle.
                sent.clear();
                self.last_shuffle_sample = sent;
            }
            HpvMsg::KeepAlive { nonce } => {
                if self.active.contains(from) {
                    out.send(from, HpvMsg::KeepAliveAck { nonce });
                } else {
                    // A probe from a node that is not a neighbor reveals a
                    // half-open link: the prober holds us in its active view
                    // but we dropped it (an eviction whose Disconnect it
                    // re-added us over, a crossed handshake). Acking would
                    // keep the prober convinced the link is live even though
                    // we will never eager-push to it — with an unlucky view
                    // a node can end up *fully* half-open and permanently
                    // deaf to the stream (observed at million-node scale:
                    // ~1 node in 10⁵ bootstraps into exactly that state).
                    // Reply Disconnect so the prober drops the dead edge and
                    // promotes a replacement from its passive view.
                    self.stats.half_open_rejections += 1;
                    out.send(from, HpvMsg::Disconnect);
                }
            }
            HpvMsg::KeepAliveAck { nonce } => {
                if let Some(pos) = self.pending_probes.iter().position(|p| p.nonce == nonce) {
                    let probe = self.pending_probes.swap_remove(pos);
                    if probe.peer == from {
                        self.record_mut(from).rtt = Some(now.saturating_since(probe.sent_at));
                    }
                }
            }
        }
    }

    /// Reacts to connection-level failure detection for `peer`: the peer is
    /// dropped from both views and, if the active view fell below its target
    /// size, a passive node is promoted (reactive repair).
    pub fn link_down(
        &mut self,
        now: SimTime,
        peer: NodeId,
        rng: &mut SmallRng,
        out: &mut impl HpvSink,
    ) {
        self.passive.remove(peer);
        self.pending_neighbor.retain(|&p| p != peer);
        if self.active.contains(peer) {
            self.remove_active(peer, false, out);
            self.maybe_promote(now, rng, out);
        }
    }

    /// Periodic keep-alive tick: probes every active-view member. The
    /// resulting acknowledgements update [`HyParView::rtt_to`].
    pub fn keepalive_tick(&mut self, now: SimTime, out: &mut impl HpvSink) {
        // Drop probes that never got an acknowledgement (the probe or its
        // ack was lost on the wire, or the peer is gone): without this the
        // table grows by one entry per unanswered probe for the lifetime of
        // the node. Three periods is far beyond any plausible RTT.
        let stale_after = self.cfg.keepalive_period * 3;
        self.pending_probes
            .retain(|p| now.saturating_since(p.sent_at) < stale_after);
        for &peer in self.active.as_slice() {
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            self.pending_probes.push(Probe {
                nonce,
                peer,
                sent_at: now,
            });
            out.send(peer, HpvMsg::KeepAlive { nonce });
        }
    }

    /// Periodic passive-view shuffle tick.
    pub fn shuffle_tick(&mut self, rng: &mut SmallRng, out: &mut impl HpvSink) {
        let Some(target) = self.active.random(rng) else {
            return;
        };
        // The one allocation of a shuffle: the vector that goes on the wire
        // (both samples are shuffled in its tail).
        let mut sample = Vec::with_capacity(1 + self.active.len() + self.passive.len());
        sample.push(self.me);
        self.active
            .sample_into(rng, self.cfg.shuffle_active, &mut sample);
        self.passive
            .sample_into(rng, self.cfg.shuffle_passive, &mut sample);
        sample.dedup();
        self.last_shuffle_sample.clear();
        self.last_shuffle_sample.extend_from_slice(&sample);
        self.stats.shuffles_started += 1;
        out.send(
            target,
            HpvMsg::Shuffle {
                origin: self.me,
                nodes: sample,
                ttl: self.cfg.shuffle_ttl,
            },
        );
    }

    // ------------------------------------------------------------------
    // Message handlers
    // ------------------------------------------------------------------

    fn on_join(&mut self, now: SimTime, new_node: NodeId, out: &mut impl HpvSink) {
        self.stats.joins_seen += 1;
        self.add_active(new_node, now, out);
        for &n in self.active.as_slice() {
            if n != new_node {
                out.send(
                    n,
                    HpvMsg::ForwardJoin {
                        new_node,
                        ttl: self.cfg.arwl,
                    },
                );
            }
        }
    }

    fn on_forward_join(
        &mut self,
        now: SimTime,
        sender: NodeId,
        new_node: NodeId,
        ttl: u8,
        rng: &mut SmallRng,
        out: &mut impl HpvSink,
    ) {
        self.stats.joins_seen += 1;
        if new_node == self.me {
            return;
        }
        if ttl == 0 || self.active.len() <= 1 {
            self.adopt_joiner(now, new_node, out);
            return;
        }
        if ttl == self.cfg.prwl {
            self.add_passive(new_node, rng);
        }
        let exclude = [sender, new_node, self.me];
        match self.active.random_excluding(rng, &exclude) {
            Some(next) => out.send(
                next,
                HpvMsg::ForwardJoin {
                    new_node,
                    ttl: ttl - 1,
                },
            ),
            None => self.adopt_joiner(now, new_node, out),
        }
    }

    /// End of a `ForwardJoin` walk: take the joiner as a neighbor.
    fn adopt_joiner(&mut self, now: SimTime, new_node: NodeId, out: &mut impl HpvSink) {
        if !self.active.contains(new_node) {
            self.add_active(new_node, now, out);
            out.send(
                new_node,
                HpvMsg::Neighbor {
                    high_priority: true,
                },
            );
        }
    }

    fn on_neighbor(
        &mut self,
        now: SimTime,
        from: NodeId,
        high_priority: bool,
        out: &mut impl HpvSink,
    ) {
        let accepted = high_priority || self.active.len() < self.cfg.max_active();
        if accepted {
            self.add_active(from, now, out);
        } else {
            self.stats.neighbor_rejections += 1;
        }
        out.send(from, HpvMsg::NeighborReply { accepted });
    }

    fn on_neighbor_reply(
        &mut self,
        now: SimTime,
        from: NodeId,
        accepted: bool,
        rng: &mut SmallRng,
        out: &mut impl HpvSink,
    ) {
        self.pending_neighbor.retain(|&p| p != from);
        if accepted {
            self.add_active(from, now, out);
        } else {
            // The candidate refused: put it back in the passive view and try
            // another one (not the same candidate again) if we are still
            // short of neighbors.
            self.add_passive(from, rng);
            self.maybe_promote_excluding(now, rng, &[from], out);
        }
    }

    fn on_disconnect(
        &mut self,
        now: SimTime,
        from: NodeId,
        rng: &mut SmallRng,
        out: &mut impl HpvSink,
    ) {
        if self.active.contains(from) {
            self.remove_active(from, true, out);
            // Only replace if we fell below the target size: evictions in the
            // expansion band do not cause replacements (BRISA §II-A).
            self.maybe_promote(now, rng, out);
        }
    }

    fn on_shuffle(
        &mut self,
        sender: NodeId,
        origin: NodeId,
        nodes: Vec<NodeId>,
        ttl: u8,
        rng: &mut SmallRng,
        out: &mut impl HpvSink,
    ) {
        let ttl = ttl.saturating_sub(1);
        if ttl > 0 && self.active.len() > 1 {
            let exclude = [sender, origin, self.me];
            if let Some(next) = self.active.random_excluding(rng, &exclude) {
                out.send(next, HpvMsg::Shuffle { origin, nodes, ttl });
                return;
            }
        }
        // End of the walk: answer the origin with a sample of our passive
        // view and integrate the received sample.
        if origin != self.me {
            let reply = self.passive.sample(rng, nodes.len().max(1));
            out.send(origin, HpvMsg::ShuffleReply { nodes: reply });
        }
        self.integrate_passive(&nodes, &[], rng);
    }

    // ------------------------------------------------------------------
    // View maintenance
    // ------------------------------------------------------------------

    fn add_active(&mut self, peer: NodeId, now: SimTime, out: &mut impl HpvSink) -> bool {
        if peer == self.me || self.active.contains(peer) {
            return false;
        }
        if self.active.len() >= self.cfg.max_active() {
            // Drop a member to make room (it is moved to the passive view and
            // informed through a Disconnect). The position is derived from
            // the eviction counter, which spreads evictions across the view
            // deterministically without needing an RNG here.
            let idx = (self.stats.evictions as usize) % self.active.len();
            let victim = self.active.as_slice()[idx];
            self.stats.evictions += 1;
            out.send(victim, HpvMsg::Disconnect);
            self.remove_active(victim, true, out);
        }
        self.passive.remove(peer);
        self.active.push_unbounded(peer);
        self.record_mut(peer).since = Some(now);
        out.open_connection(peer);
        out.neighbor_up(peer);
        true
    }

    fn remove_active(&mut self, peer: NodeId, to_passive: bool, out: &mut impl HpvSink) {
        if self.active.remove(peer) {
            self.peers.retain(|r| r.peer != peer);
            out.close_connection(peer);
            out.neighbor_down(peer);
            if to_passive {
                self.passive.push_unique(peer);
            }
        }
    }

    fn add_passive(&mut self, peer: NodeId, rng: &mut SmallRng) {
        if peer == self.me || self.active.contains(peer) || self.passive.contains(peer) {
            return;
        }
        if self.passive.is_full() {
            self.passive.drop_random(rng);
        }
        self.passive.push_unique(peer);
    }

    fn integrate_passive(&mut self, nodes: &[NodeId], sent: &[NodeId], rng: &mut SmallRng) {
        for &n in nodes {
            if n == self.me || self.active.contains(n) || self.passive.contains(n) {
                continue;
            }
            if self.passive.is_full() {
                // Prefer discarding entries we just sent to the peer.
                let dropped = sent
                    .iter()
                    .copied()
                    .find(|s| self.passive.contains(*s))
                    .map(|s| self.passive.remove(s))
                    .unwrap_or(false);
                if !dropped {
                    self.passive.drop_random(rng);
                }
            }
            self.passive.push_unique(n);
        }
    }

    /// Promotes a passive node if the active view is below its target size.
    fn maybe_promote(&mut self, now: SimTime, rng: &mut SmallRng, out: &mut impl HpvSink) {
        self.maybe_promote_excluding(now, rng, &[], out);
    }

    /// As [`Self::maybe_promote`] but additionally excluding `extra`
    /// candidates (used to avoid immediately retrying a node that just
    /// rejected a neighbor request).
    fn maybe_promote_excluding(
        &mut self,
        _now: SimTime,
        rng: &mut SmallRng,
        extra: &[NodeId],
        out: &mut impl HpvSink,
    ) {
        if self.active.len() >= self.cfg.active_size {
            return;
        }
        let pending = &self.pending_neighbor;
        let candidate = self
            .passive
            .random_where(rng, |n| !pending.contains(&n) && !extra.contains(&n));
        if let Some(candidate) = candidate {
            self.passive.remove(candidate);
            self.pending_neighbor.push(candidate);
            self.stats.promotions += 1;
            let high_priority = self.active.is_empty();
            out.open_connection(candidate);
            out.send(candidate, HpvMsg::Neighbor { high_priority });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::HashHyParView;
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use std::collections::{HashMap, VecDeque};

    /// A tiny in-memory harness that runs a set of HyParView instances to
    /// quiescence by delivering messages instantly. Connection-level events
    /// are ignored (no failures are injected unless a test does so by hand).
    struct Harness {
        nodes: HashMap<NodeId, HyParView>,
        rng: SmallRng,
        queue: VecDeque<(NodeId, NodeId, HpvMsg)>,
        now: SimTime,
    }

    impl Harness {
        fn new(n: u32, cfg: HyParViewConfig) -> Self {
            let mut nodes = HashMap::new();
            for i in 0..n {
                nodes.insert(NodeId(i), HyParView::new(NodeId(i), cfg.clone()));
            }
            Harness {
                nodes,
                rng: SmallRng::seed_from_u64(99),
                queue: VecDeque::new(),
                now: SimTime::ZERO,
            }
        }

        fn enqueue(&mut self, from: NodeId, outs: Vec<HpvOut>) {
            for o in outs {
                if let HpvOut::Send { to, msg } = o {
                    self.queue.push_back((from, to, msg));
                }
            }
        }

        fn join_all(&mut self) {
            // Node 0 is the seed; everyone else joins through it, mirroring
            // the bootstrap of the paper's experiments.
            let ids: Vec<NodeId> = (0..self.nodes.len() as u32).map(NodeId).collect();
            for &id in ids.iter().skip(1) {
                let mut outs = Vec::new();
                self.nodes
                    .get_mut(&id)
                    .unwrap()
                    .join(self.now, NodeId(0), &mut outs);
                self.enqueue(id, outs);
                self.drain();
            }
        }

        fn drain(&mut self) {
            let mut steps = 0;
            while let Some((from, to, msg)) = self.queue.pop_front() {
                steps += 1;
                assert!(steps < 1_000_000, "harness did not quiesce");
                let mut outs = Vec::new();
                let node = self.nodes.get_mut(&to).unwrap();
                node.handle(self.now, from, msg, &mut self.rng, &mut outs);
                self.enqueue(to, outs);
            }
        }
    }

    #[test]
    fn two_node_join_is_symmetric() {
        let mut h = Harness::new(2, HyParViewConfig::default());
        h.join_all();
        assert_eq!(h.nodes[&NodeId(1)].active_view(), &[NodeId(0)]);
        assert_eq!(h.nodes[&NodeId(0)].active_view(), &[NodeId(1)]);
    }

    #[test]
    fn views_are_symmetric_and_bounded_after_bootstrap() {
        let cfg = HyParViewConfig::with_active_size(4);
        let n = 64;
        let mut h = Harness::new(n, cfg.clone());
        h.join_all();
        for (id, node) in &h.nodes {
            assert!(
                node.active_view().len() <= cfg.max_active(),
                "{id} active view exceeds the expansion bound"
            );
            assert!(!node.active_view().contains(id), "no self-loops");
            for peer in node.active_view() {
                assert!(
                    h.nodes[peer].is_neighbor(*id),
                    "link {id}<->{peer} is not symmetric"
                );
            }
        }
        // Every node (except possibly the seed) should have at least one neighbor.
        for (id, node) in &h.nodes {
            assert!(
                !node.active_view().is_empty(),
                "{id} has an empty active view"
            );
        }
    }

    #[test]
    fn overlay_is_connected_after_bootstrap() {
        let cfg = HyParViewConfig::with_active_size(4);
        let n = 128u32;
        let mut h = Harness::new(n, cfg);
        h.join_all();
        // BFS over the union of active views.
        let mut visited = vec![false; n as usize];
        let mut stack = vec![NodeId(0)];
        visited[0] = true;
        while let Some(cur) = stack.pop() {
            for &peer in h.nodes[&cur].active_view() {
                if !visited[peer.index()] {
                    visited[peer.index()] = true;
                    stack.push(peer);
                }
            }
        }
        assert!(visited.iter().all(|&v| v), "overlay must be connected");
    }

    #[test]
    fn passive_views_fill_up() {
        let cfg = HyParViewConfig::with_active_size(4);
        let mut h = Harness::new(64, cfg);
        h.join_all();
        // Run a few shuffle rounds.
        for _ in 0..5 {
            let ids: Vec<NodeId> = h.nodes.keys().copied().collect();
            for id in ids {
                let mut outs = Vec::new();
                let mut rng = SmallRng::seed_from_u64(id.0 as u64);
                h.nodes
                    .get_mut(&id)
                    .unwrap()
                    .shuffle_tick(&mut rng, &mut outs);
                h.enqueue(id, outs);
                h.drain();
            }
        }
        let with_passive = h
            .nodes
            .values()
            .filter(|n| !n.passive_view().is_empty())
            .count();
        assert!(
            with_passive > 56,
            "most nodes should have non-empty passive views, got {with_passive}"
        );
        // Passive views never contain the node itself or active neighbors.
        for (id, node) in &h.nodes {
            for p in node.passive_view() {
                assert_ne!(p, id);
                assert!(!node.is_neighbor(*p));
            }
        }
    }

    #[test]
    fn link_down_promotes_replacement_from_passive() {
        let cfg = HyParViewConfig::with_active_size(2);
        let mut h = Harness::new(16, cfg);
        h.join_all();
        // Pick a node with a non-empty passive view and fail one neighbor.
        let id = h
            .nodes
            .values()
            .find(|n| !n.passive_view().is_empty() && !n.active_view().is_empty())
            .map(|n| n.id())
            .expect("some node has both views non-empty");
        let failed = h.nodes[&id].active_view()[0];
        let before = h.nodes[&id].active_view().len();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut outs = Vec::new();
        h.nodes
            .get_mut(&id)
            .unwrap()
            .link_down(SimTime::from_secs(1), failed, &mut rng, &mut outs);
        assert!(!h.nodes[&id].is_neighbor(failed));
        // A Neighbor request to a passive candidate must have been issued
        // when the view dropped below target.
        let issued_neighbor = outs.iter().any(|o| {
            matches!(
                o,
                HpvOut::Send {
                    msg: HpvMsg::Neighbor { .. },
                    ..
                }
            )
        });
        if before <= h.nodes[&id].config().active_size {
            assert!(issued_neighbor, "expected a promotion attempt");
        }
        h.enqueue(id, outs);
        h.drain();
        assert!(
            !h.nodes[&id].active_view().is_empty(),
            "node should regain neighbors after repair"
        );
    }

    #[test]
    fn keepalive_measures_rtt() {
        let mut h = Harness::new(2, HyParViewConfig::default());
        h.join_all();
        let mut outs = Vec::new();
        h.nodes
            .get_mut(&NodeId(0))
            .unwrap()
            .keepalive_tick(SimTime::from_secs(1), &mut outs);
        // Manually deliver with a later "now" to simulate network delay.
        let mut replies = Vec::new();
        for o in outs {
            if let HpvOut::Send { to, msg } = o {
                let mut rng = SmallRng::seed_from_u64(1);
                let mut r = Vec::new();
                h.nodes.get_mut(&to).unwrap().handle(
                    SimTime::from_millis(1005),
                    NodeId(0),
                    msg,
                    &mut rng,
                    &mut r,
                );
                replies.extend(r.into_iter().map(|o| (to, o)));
            }
        }
        for (from, o) in replies {
            if let HpvOut::Send { to, msg } = o {
                assert_eq!(to, NodeId(0));
                let mut rng = SmallRng::seed_from_u64(2);
                h.nodes.get_mut(&NodeId(0)).unwrap().handle(
                    SimTime::from_millis(1010),
                    from,
                    msg,
                    &mut rng,
                    &mut Vec::new(),
                );
            }
        }
        let rtt = h.nodes[&NodeId(0)].rtt_to(NodeId(1)).expect("rtt measured");
        assert_eq!(rtt, SimDuration::from_millis(10));
    }

    #[test]
    fn keepalive_from_non_neighbor_heals_the_half_open_link() {
        // A holds B in its active view, but B does not know A — the
        // half-open state that leaves A deaf to eager push. A's probe must
        // come back as a Disconnect, after which A drops the dead edge.
        let mut h = Harness::new(2, HyParViewConfig::default());
        let mut rng = SmallRng::seed_from_u64(7);
        let a = NodeId(0);
        let b = NodeId(1);
        // A adds B unilaterally (as an optimistic join/handshake would).
        h.nodes
            .get_mut(&a)
            .unwrap()
            .join(SimTime::ZERO, b, &mut Vec::new());
        assert!(h.nodes[&a].active_view().contains(&b));
        assert!(!h.nodes[&b].active_view().contains(&a));
        // A probes; B (which never integrated A) must reject, not ack.
        let mut probes = Vec::new();
        h.nodes
            .get_mut(&a)
            .unwrap()
            .keepalive_tick(SimTime::from_secs(1), &mut probes);
        let mut disconnects = 0;
        for o in probes {
            if let HpvOut::Send { to, msg } = o {
                assert_eq!(to, b);
                let mut replies = Vec::new();
                h.nodes.get_mut(&b).unwrap().handle(
                    SimTime::from_secs(1),
                    a,
                    msg,
                    &mut rng,
                    &mut replies,
                );
                for r in replies {
                    if let HpvOut::Send { to, msg } = r {
                        assert_eq!(to, a);
                        assert_eq!(
                            msg,
                            HpvMsg::Disconnect,
                            "non-neighbor probe must be rejected"
                        );
                        disconnects += 1;
                        h.nodes.get_mut(&a).unwrap().handle(
                            SimTime::from_secs(1),
                            b,
                            msg,
                            &mut rng,
                            &mut Vec::new(),
                        );
                    }
                }
            }
        }
        assert_eq!(disconnects, 1);
        assert_eq!(h.nodes[&b].stats().half_open_rejections, 1);
        assert!(
            !h.nodes[&a].active_view().contains(&b),
            "the prober must drop the half-open edge"
        );
    }

    #[test]
    fn neighbor_rejection_triggers_retry() {
        let cfg = HyParViewConfig::with_active_size(1).expansion_factor(1);
        let mut a = HyParView::new(NodeId(0), cfg.clone());
        let mut rng = SmallRng::seed_from_u64(5);
        // Give A two passive candidates and no neighbors.
        a.add_passive(NodeId(1), &mut rng);
        a.add_passive(NodeId(2), &mut rng);
        let mut out = Vec::new();
        a.maybe_promote(SimTime::ZERO, &mut rng, &mut out);
        let first = out
            .iter()
            .find_map(|o| match o {
                HpvOut::Send {
                    to,
                    msg: HpvMsg::Neighbor { .. },
                } => Some(*to),
                _ => None,
            })
            .expect("promotion attempt");
        // The candidate rejects; A must try the other one.
        let mut retry = Vec::new();
        a.handle(
            SimTime::from_secs(1),
            first,
            HpvMsg::NeighborReply { accepted: false },
            &mut rng,
            &mut retry,
        );
        let second = retry
            .iter()
            .find_map(|o| match o {
                HpvOut::Send {
                    to,
                    msg: HpvMsg::Neighbor { .. },
                } => Some(*to),
                _ => None,
            })
            .expect("retry after rejection");
        assert_ne!(first, second);
    }

    #[test]
    fn eviction_keeps_view_within_expansion_bound() {
        let cfg = HyParViewConfig::with_active_size(2).expansion_factor(2);
        let mut node = HyParView::new(NodeId(0), cfg.clone());
        let mut out = Vec::new();
        for i in 1..=10u32 {
            node.add_active(NodeId(i), SimTime::ZERO, &mut out);
        }
        assert!(node.active_view().len() <= cfg.max_active());
        // Evictions emitted Disconnect messages.
        let disconnects = out
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    HpvOut::Send {
                        msg: HpvMsg::Disconnect,
                        ..
                    }
                )
            })
            .count();
        assert!(disconnects >= 10 - cfg.max_active());
        assert!(node.stats().evictions as usize >= 10 - cfg.max_active());
    }

    #[test]
    fn disconnect_below_target_promotes_but_expansion_band_does_not() {
        let cfg = HyParViewConfig::with_active_size(2).expansion_factor(2);
        let mut node = HyParView::new(NodeId(0), cfg);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut out = Vec::new();
        for i in 1..=4u32 {
            node.add_active(NodeId(i), SimTime::ZERO, &mut out);
        }
        node.add_passive(NodeId(99), &mut rng);
        // Dropping from 4 (expansion band) to 3: no promotion.
        let mut outs = Vec::new();
        node.handle(
            SimTime::ZERO,
            NodeId(1),
            HpvMsg::Disconnect,
            &mut rng,
            &mut outs,
        );
        assert!(
            !outs.iter().any(|o| matches!(
                o,
                HpvOut::Send {
                    msg: HpvMsg::Neighbor { .. },
                    ..
                }
            )),
            "no replacement while in the expansion band"
        );
        // Drop to 2 then to 1 (< target 2): promotion must fire.
        outs.clear();
        for peer in [NodeId(2), NodeId(3)] {
            node.handle(SimTime::ZERO, peer, HpvMsg::Disconnect, &mut rng, &mut outs);
        }
        assert!(
            outs.iter().any(|o| matches!(
                o,
                HpvOut::Send {
                    msg: HpvMsg::Neighbor { .. },
                    ..
                }
            )),
            "replacement expected below the target size"
        );
    }

    #[test]
    fn forward_join_at_ttl_zero_adds_new_node() {
        let cfg = HyParViewConfig::with_active_size(4);
        let mut node = HyParView::new(NodeId(5), cfg);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = Vec::new();
        node.add_active(NodeId(1), SimTime::ZERO, &mut out);
        node.add_active(NodeId(2), SimTime::ZERO, &mut out);
        let mut outs = Vec::new();
        node.handle(
            SimTime::ZERO,
            NodeId(1),
            HpvMsg::ForwardJoin {
                new_node: NodeId(9),
                ttl: 0,
            },
            &mut rng,
            &mut outs,
        );
        assert!(node.is_neighbor(NodeId(9)));
        assert!(outs.iter().any(|o| matches!(
            o,
            HpvOut::Send {
                to: NodeId(9),
                msg: HpvMsg::Neighbor {
                    high_priority: true
                }
            }
        )));
    }

    #[test]
    fn forward_join_with_ttl_forwards_and_fills_passive() {
        let cfg = HyParViewConfig::default(); // prwl = 3
        let mut node = HyParView::new(NodeId(5), cfg);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = Vec::new();
        node.add_active(NodeId(1), SimTime::ZERO, &mut out);
        node.add_active(NodeId(2), SimTime::ZERO, &mut out);
        node.add_active(NodeId(3), SimTime::ZERO, &mut out);
        let mut outs = Vec::new();
        node.handle(
            SimTime::ZERO,
            NodeId(1),
            HpvMsg::ForwardJoin {
                new_node: NodeId(9),
                ttl: 3,
            },
            &mut rng,
            &mut outs,
        );
        assert!(
            node.passive_view().contains(&NodeId(9)),
            "ttl == prwl adds to passive"
        );
        assert!(!node.is_neighbor(NodeId(9)));
        let forwarded = outs.iter().any(|o| {
            matches!(
                o,
                HpvOut::Send {
                    msg: HpvMsg::ForwardJoin {
                        new_node: NodeId(9),
                        ttl: 2
                    },
                    ..
                }
            )
        });
        assert!(forwarded, "walk must continue with decremented ttl");
    }

    #[test]
    fn shuffle_reply_integrates_new_nodes() {
        let cfg = HyParViewConfig::default();
        let mut node = HyParView::new(NodeId(0), cfg);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = Vec::new();
        node.add_active(NodeId(1), SimTime::ZERO, &mut out);
        node.shuffle_tick(&mut rng, &mut Vec::new());
        let mut outs = Vec::new();
        node.handle(
            SimTime::ZERO,
            NodeId(1),
            HpvMsg::ShuffleReply {
                nodes: vec![NodeId(7), NodeId(8), NodeId(1), NodeId(0)],
            },
            &mut rng,
            &mut outs,
        );
        assert!(outs.is_empty());
        assert!(node.passive_view().contains(&NodeId(7)));
        assert!(node.passive_view().contains(&NodeId(8)));
        assert!(
            !node.passive_view().contains(&NodeId(0)),
            "self never enters passive"
        );
        assert!(
            !node.passive_view().contains(&NodeId(1)),
            "neighbors never enter passive"
        );
    }

    /// One scripted input to a single HyParView instance.
    #[derive(Debug, Clone)]
    enum Input {
        Join(u32),
        Msg(u32, HpvMsg),
        /// Acknowledge the `k`-th probe still outstanding (modulo their
        /// number), from its peer or — `true` — from somebody else.
        Ack(usize, bool),
        LinkDown(u32),
        KeepaliveTick,
        ShuffleTick,
        Advance(u64),
    }

    fn input_strategy() -> impl Strategy<Value = Input> {
        let peer = || 1u32..20;
        let nodes = || proptest::collection::vec(0u32..40, 0..6);
        prop_oneof![
            1 => peer().prop_map(Input::Join),
            2 => peer().prop_map(|p| Input::Msg(p, HpvMsg::Join)),
            3 => (peer(), 1u32..40, 0u8..7).prop_map(|(p, n, ttl)| Input::Msg(
                p,
                HpvMsg::ForwardJoin { new_node: NodeId(n), ttl },
            )),
            3 => (peer(), any::<bool>())
                .prop_map(|(p, high_priority)| Input::Msg(p, HpvMsg::Neighbor { high_priority })),
            3 => (peer(), any::<bool>())
                .prop_map(|(p, accepted)| Input::Msg(p, HpvMsg::NeighborReply { accepted })),
            3 => peer().prop_map(|p| Input::Msg(p, HpvMsg::Disconnect)),
            2 => (peer(), 0u32..40, nodes(), 0u8..5).prop_map(|(p, o, n, ttl)| Input::Msg(
                p,
                HpvMsg::Shuffle {
                    origin: NodeId(o),
                    nodes: n.into_iter().map(NodeId).collect(),
                    ttl,
                },
            )),
            2 => (peer(), nodes()).prop_map(|(p, n)| Input::Msg(
                p,
                HpvMsg::ShuffleReply { nodes: n.into_iter().map(NodeId).collect() },
            )),
            2 => (peer(), 0u64..64).prop_map(|(p, nonce)| Input::Msg(p, HpvMsg::KeepAlive { nonce })),
            1 => (peer(), 0u64..64)
                .prop_map(|(p, nonce)| Input::Msg(p, HpvMsg::KeepAliveAck { nonce })),
            6 => (0usize..32, any::<bool>()).prop_map(|(k, wrong)| Input::Ack(k, wrong)),
            3 => peer().prop_map(Input::LinkDown),
            4 => Just(Input::KeepaliveTick),
            2 => Just(Input::ShuffleTick),
            4 => prop_oneof![0u64..5_000, 500_000u64..3_000_000].prop_map(Input::Advance),
        ]
    }

    /// Feeds `inputs` to a vector-backed node and returns everything it
    /// emitted. With `oracle`, the hash-table implementation runs in
    /// lockstep on an identically seeded RNG and every effect, view, table
    /// lookup, counter and RNG draw is compared after every input.
    fn run_inputs(inputs: &[Input], cfg: &HyParViewConfig, oracle: bool) -> Vec<HpvOut> {
        let me = NodeId(0);
        let mut new = HyParView::new(me, cfg.clone());
        let mut old = oracle.then(|| HashHyParView::new(me, cfg.clone()));
        let (mut new_rng, mut old_rng) = (SmallRng::seed_from_u64(5), SmallRng::seed_from_u64(5));
        let mut now = SimTime::ZERO;
        let mut probes: Vec<(NodeId, u64)> = Vec::new();
        let mut all = Vec::new();
        for input in inputs {
            let mut outs = Vec::new();
            let expected = match input.clone() {
                Input::Join(c) => {
                    new.join(now, NodeId(c), &mut outs);
                    old.as_mut().map(|o| o.join(now, NodeId(c)))
                }
                Input::Msg(from, msg) => {
                    new.handle(now, NodeId(from), msg.clone(), &mut new_rng, &mut outs);
                    old.as_mut()
                        .map(|o| o.handle(now, NodeId(from), msg, &mut old_rng))
                }
                Input::Ack(k, wrong) => {
                    if probes.is_empty() {
                        continue;
                    }
                    let (peer, nonce) = probes.swap_remove(k % probes.len());
                    let from = if wrong { NodeId(peer.0 + 1) } else { peer };
                    let msg = HpvMsg::KeepAliveAck { nonce };
                    new.handle(now, from, msg.clone(), &mut new_rng, &mut outs);
                    old.as_mut().map(|o| o.handle(now, from, msg, &mut old_rng))
                }
                Input::LinkDown(p) => {
                    new.link_down(now, NodeId(p), &mut new_rng, &mut outs);
                    old.as_mut()
                        .map(|o| o.link_down(now, NodeId(p), &mut old_rng))
                }
                Input::KeepaliveTick => {
                    new.keepalive_tick(now, &mut outs);
                    old.as_mut().map(|o| o.keepalive_tick(now))
                }
                Input::ShuffleTick => {
                    new.shuffle_tick(&mut new_rng, &mut outs);
                    old.as_mut().map(|o| o.shuffle_tick(&mut old_rng))
                }
                Input::Advance(us) => {
                    now += SimDuration::from_micros(us);
                    continue;
                }
            };
            for o in &outs {
                if let HpvOut::Send {
                    to,
                    msg: HpvMsg::KeepAlive { nonce },
                } = o
                {
                    probes.push((*to, *nonce));
                }
            }
            if let (Some(old), Some(expected)) = (&old, expected) {
                assert_eq!(outs, expected, "effects of {input:?}");
                assert_eq!(new.active_view(), old.active_view());
                assert_eq!(new.passive_view(), old.passive_view());
                assert_eq!(new.stats(), old.stats());
                for p in (0..41).map(NodeId) {
                    assert_eq!(new.rtt_to(p), old.rtt_to(p), "rtt to {p}");
                    assert_eq!(new.neighbor_since(p), old.neighbor_since(p));
                    assert_eq!(new.is_neighbor(p), old.is_neighbor(p));
                }
            }
            all.extend(outs);
        }
        if old.is_some() {
            assert_eq!(
                new_rng.next_u64(),
                old_rng.next_u64(),
                "RNG streams diverged"
            );
        }
        // The tables stay bounded by what is live, not by the history.
        assert!(new.pending_probes.len() <= 3 * cfg.max_active() + probes.len());
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The vector-backed state machine is the hash-table one: same
        /// effects in the same order, same views, same measurements, same
        /// RNG consumption, for arbitrary well-formed input sequences —
        /// including acknowledgements that arrive after their peer left the
        /// view, from the wrong sender, or never.
        #[test]
        fn vector_tables_match_the_hash_table_oracle(
            inputs in proptest::collection::vec(input_strategy(), 1..250),
            active_size in 1usize..4,
            passive_size in 2usize..8,
        ) {
            let cfg = HyParViewConfig {
                passive_size,
                ..HyParViewConfig::with_active_size(active_size)
            };
            run_inputs(&inputs, &cfg, true);
        }

        /// Two runs of one input sequence in one process emit identical
        /// effect sequences: nothing on any path iterates a randomly seeded
        /// hash table (the pending-neighbor set used to be one).
        #[test]
        fn same_inputs_same_outputs_within_one_process(
            inputs in proptest::collection::vec(input_strategy(), 1..250),
        ) {
            let cfg = HyParViewConfig {
                passive_size: 4,
                ..HyParViewConfig::with_active_size(2)
            };
            prop_assert_eq!(run_inputs(&inputs, &cfg, false), run_inputs(&inputs, &cfg, false));
        }
    }
}
