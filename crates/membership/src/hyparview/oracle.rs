//! The hash-table HyParView as it stood before the vector-backed rewrite,
//! kept as the differential oracle: `rtt`, `neighbor_since`,
//! `pending_probes` and `pending_neighbor` in `std` hash tables, every call
//! returning a fresh `Vec<HpvOut>`. Telemetry and byte accounting are
//! stripped (they never influenced a decision); every protocol line is
//! verbatim. `super::tests` drives it in lockstep with [`super::HyParView`]
//! over random message sequences.

use super::{
    HpvMsg, HpvOut, HpvStats, HyParViewConfig, ARWL, PRWL, SHUFFLE_ACTIVE, SHUFFLE_PASSIVE,
    SHUFFLE_TTL,
};
use crate::view::BoundedView;
use brisa_simnet::{NodeId, SimDuration, SimTime};
use rand::rngs::SmallRng;
use std::collections::{HashMap, HashSet};

#[derive(Debug)]
pub(super) struct HashHyParView {
    me: NodeId,
    cfg: HyParViewConfig,
    active: BoundedView,
    passive: BoundedView,
    /// Round-trip times measured through keep-alive probes.
    rtt: HashMap<NodeId, SimDuration>,
    /// When each current neighbor entered the active view.
    neighbor_since: HashMap<NodeId, SimTime>,
    /// Outstanding keep-alive probes: nonce -> (peer, send time).
    pending_probes: HashMap<u64, (NodeId, SimTime)>,
    /// Passive nodes we have asked to become neighbors and are waiting on.
    pending_neighbor: HashSet<NodeId>,
    next_nonce: u64,
    last_shuffle_sample: Vec<NodeId>,
    stats: HpvStats,
}

impl HashHyParView {
    /// Creates the state machine for node `me`.
    pub fn new(me: NodeId, cfg: HyParViewConfig) -> Self {
        let active = BoundedView::new(cfg.max_active());
        let passive = BoundedView::new(cfg.passive_size);
        HashHyParView {
            me,
            cfg,
            active,
            passive,
            rtt: HashMap::new(),
            neighbor_since: HashMap::new(),
            pending_probes: HashMap::new(),
            pending_neighbor: HashSet::new(),
            next_nonce: 0,
            last_shuffle_sample: Vec::new(),
            stats: HpvStats::default(),
        }
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

    /// Last measured round-trip time to `peer`, if a keep-alive probe has
    /// completed.
    pub fn rtt_to(&self, peer: NodeId) -> Option<SimDuration> {
        self.rtt.get(&peer).copied()
    }

    /// Time at which `peer` became a neighbor, if it currently is one.
    pub fn neighbor_since(&self, peer: NodeId) -> Option<SimTime> {
        self.neighbor_since.get(&peer).copied()
    }

    /// Membership activity counters.
    pub fn stats(&self) -> &HpvStats {
        &self.stats
    }

    /// Joins the overlay through `contact`. The contact is optimistically
    /// added to the active view; the `Join` message triggers `ForwardJoin`
    /// random walks that advertise this node across the overlay.
    pub fn join(&mut self, now: SimTime, contact: NodeId) -> Vec<HpvOut> {
        let mut out = Vec::new();
        self.add_active(contact, now, &mut out);
        out.push(HpvOut::Send {
            to: contact,
            msg: HpvMsg::Join,
        });
        out
    }

    /// Handles a protocol message from `from`.
    pub fn handle(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: HpvMsg,
        rng: &mut SmallRng,
    ) -> Vec<HpvOut> {
        let mut out = Vec::new();
        match msg {
            HpvMsg::Join => self.on_join(now, from, &mut out),
            HpvMsg::ForwardJoin { new_node, ttl } => {
                self.on_forward_join(now, from, new_node, ttl, rng, &mut out)
            }
            HpvMsg::Neighbor { high_priority } => {
                self.on_neighbor(now, from, high_priority, &mut out)
            }
            HpvMsg::NeighborReply { accepted } => {
                self.on_neighbor_reply(now, from, accepted, rng, &mut out)
            }
            HpvMsg::Disconnect => self.on_disconnect(now, from, rng, &mut out),
            HpvMsg::Shuffle { origin, nodes, ttl } => {
                self.on_shuffle(from, origin, nodes, ttl, rng, &mut out)
            }
            HpvMsg::ShuffleReply { nodes } => {
                let sent = std::mem::take(&mut self.last_shuffle_sample);
                self.integrate_passive(&nodes, &sent, rng);
            }
            HpvMsg::KeepAlive { nonce } => {
                if self.active.contains(from) {
                    out.push(HpvOut::Send {
                        to: from,
                        msg: HpvMsg::KeepAliveAck { nonce },
                    });
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
                    out.push(HpvOut::Send {
                        to: from,
                        msg: HpvMsg::Disconnect,
                    });
                }
            }
            HpvMsg::KeepAliveAck { nonce } => {
                if let Some((peer, sent_at)) = self.pending_probes.remove(&nonce) {
                    if peer == from {
                        self.rtt.insert(peer, now.saturating_since(sent_at));
                    }
                }
            }
        }
        out
    }

    /// Reacts to connection-level failure detection for `peer`: the peer is
    /// dropped from both views and, if the active view fell below its target
    /// size, a passive node is promoted (reactive repair).
    pub fn link_down(&mut self, now: SimTime, peer: NodeId, rng: &mut SmallRng) -> Vec<HpvOut> {
        let mut out = Vec::new();
        self.passive.remove(peer);
        self.pending_neighbor.remove(&peer);
        if self.active.contains(peer) {
            self.remove_active(peer, false, &mut out);
            self.maybe_promote(now, rng, &mut out);
        }
        out
    }

    /// Periodic keep-alive tick: probes every active-view member. The
    /// resulting acknowledgements update `rtt_to`.
    pub fn keepalive_tick(&mut self, now: SimTime) -> Vec<HpvOut> {
        let mut out = Vec::new();
        // Drop probes that never got an acknowledgement (the probe or its
        // ack was lost on the wire, or the peer is gone): without this the
        // table grows by one entry per unanswered probe for the lifetime of
        // the node. Three periods is far beyond any plausible RTT.
        let stale_after = self.cfg.keepalive_period * 3;
        self.pending_probes
            .retain(|_, (_, sent_at)| now.saturating_since(*sent_at) < stale_after);
        let members: Vec<NodeId> = self.active.iter().collect();
        for peer in members {
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            self.pending_probes.insert(nonce, (peer, now));
            out.push(HpvOut::Send {
                to: peer,
                msg: HpvMsg::KeepAlive { nonce },
            });
        }
        out
    }

    /// Periodic passive-view shuffle tick.
    pub fn shuffle_tick(&mut self, rng: &mut SmallRng) -> Vec<HpvOut> {
        let mut out = Vec::new();
        let Some(target) = self.active.random(rng) else {
            return out;
        };
        let mut sample = vec![self.me];
        sample.extend(self.active.sample(rng, SHUFFLE_ACTIVE));
        sample.extend(self.passive.sample(rng, SHUFFLE_PASSIVE));
        sample.dedup();
        self.last_shuffle_sample = sample.clone();
        self.stats.shuffles_started += 1;
        out.push(HpvOut::Send {
            to: target,
            msg: HpvMsg::Shuffle {
                origin: self.me,
                nodes: sample,
                ttl: SHUFFLE_TTL,
            },
        });
        out
    }

    // ------------------------------------------------------------------
    // Message handlers
    // ------------------------------------------------------------------

    fn on_join(&mut self, now: SimTime, new_node: NodeId, out: &mut Vec<HpvOut>) {
        self.stats.joins_seen += 1;
        self.add_active(new_node, now, out);
        let others: Vec<NodeId> = self.active.iter().filter(|&n| n != new_node).collect();
        for n in others {
            out.push(HpvOut::Send {
                to: n,
                msg: HpvMsg::ForwardJoin {
                    new_node,
                    ttl: ARWL,
                },
            });
        }
    }

    fn on_forward_join(
        &mut self,
        now: SimTime,
        sender: NodeId,
        new_node: NodeId,
        ttl: u8,
        rng: &mut SmallRng,
        out: &mut Vec<HpvOut>,
    ) {
        self.stats.joins_seen += 1;
        if new_node == self.me {
            return;
        }
        if ttl == 0 || self.active.len() <= 1 {
            if !self.active.contains(new_node) {
                self.add_active(new_node, now, out);
                out.push(HpvOut::Send {
                    to: new_node,
                    msg: HpvMsg::Neighbor {
                        high_priority: true,
                    },
                });
            }
            return;
        }
        if ttl == PRWL {
            self.add_passive(new_node, rng);
        }
        let exclude = [sender, new_node, self.me];
        match self.active.random_excluding(rng, &exclude) {
            Some(next) => out.push(HpvOut::Send {
                to: next,
                msg: HpvMsg::ForwardJoin {
                    new_node,
                    ttl: ttl - 1,
                },
            }),
            None => {
                if !self.active.contains(new_node) {
                    self.add_active(new_node, now, out);
                    out.push(HpvOut::Send {
                        to: new_node,
                        msg: HpvMsg::Neighbor {
                            high_priority: true,
                        },
                    });
                }
            }
        }
    }

    fn on_neighbor(
        &mut self,
        now: SimTime,
        from: NodeId,
        high_priority: bool,
        out: &mut Vec<HpvOut>,
    ) {
        if high_priority || self.active.len() < self.cfg.max_active() {
            self.add_active(from, now, out);
            out.push(HpvOut::Send {
                to: from,
                msg: HpvMsg::NeighborReply { accepted: true },
            });
        } else {
            self.stats.neighbor_rejections += 1;
            out.push(HpvOut::Send {
                to: from,
                msg: HpvMsg::NeighborReply { accepted: false },
            });
        }
    }

    fn on_neighbor_reply(
        &mut self,
        now: SimTime,
        from: NodeId,
        accepted: bool,
        rng: &mut SmallRng,
        out: &mut Vec<HpvOut>,
    ) {
        self.pending_neighbor.remove(&from);
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
        out: &mut Vec<HpvOut>,
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
        out: &mut Vec<HpvOut>,
    ) {
        let ttl = ttl.saturating_sub(1);
        if ttl > 0 && self.active.len() > 1 {
            let exclude = [sender, origin, self.me];
            if let Some(next) = self.active.random_excluding(rng, &exclude) {
                out.push(HpvOut::Send {
                    to: next,
                    msg: HpvMsg::Shuffle { origin, nodes, ttl },
                });
                return;
            }
        }
        // End of the walk: answer the origin with a sample of our passive
        // view and integrate the received sample.
        if origin != self.me {
            let reply = self.passive.sample(rng, nodes.len().max(1));
            out.push(HpvOut::Send {
                to: origin,
                msg: HpvMsg::ShuffleReply { nodes: reply },
            });
        }
        self.integrate_passive(&nodes, &[], rng);
    }

    // ------------------------------------------------------------------
    // View maintenance
    // ------------------------------------------------------------------

    fn add_active(&mut self, peer: NodeId, now: SimTime, out: &mut Vec<HpvOut>) -> bool {
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
            out.push(HpvOut::Send {
                to: victim,
                msg: HpvMsg::Disconnect,
            });
            self.remove_active(victim, true, out);
        }
        self.passive.remove(peer);
        self.active.push_unbounded(peer);
        self.neighbor_since.insert(peer, now);
        out.push(HpvOut::OpenConnection(peer));
        out.push(HpvOut::NeighborUp(peer));
        true
    }

    fn remove_active(&mut self, peer: NodeId, to_passive: bool, out: &mut Vec<HpvOut>) {
        if self.active.remove(peer) {
            self.neighbor_since.remove(&peer);
            self.rtt.remove(&peer);
            out.push(HpvOut::CloseConnection(peer));
            out.push(HpvOut::NeighborDown(peer));
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
    fn maybe_promote(&mut self, now: SimTime, rng: &mut SmallRng, out: &mut Vec<HpvOut>) {
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
        out: &mut Vec<HpvOut>,
    ) {
        if self.active.len() >= self.cfg.active_size {
            return;
        }
        let mut pending: Vec<NodeId> = self.pending_neighbor.iter().copied().collect();
        pending.extend_from_slice(extra);
        let candidate = self.passive.random_excluding(rng, &pending);
        if let Some(candidate) = candidate {
            self.passive.remove(candidate);
            self.pending_neighbor.insert(candidate);
            self.stats.promotions += 1;
            let high_priority = self.active.is_empty();
            out.push(HpvOut::OpenConnection(candidate));
            out.push(HpvOut::Send {
                to: candidate,
                msg: HpvMsg::Neighbor { high_priority },
            });
        }
    }
}
