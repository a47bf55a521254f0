//! TAG: tree-assisted gossip (Liu & Zhou, 2006).
//!
//! The hybrid baseline the paper compares BRISA against (Section III-D).
//! Nodes are organised in a linked list sorted by join time, with pointers
//! to predecessors and successors up to two hops away. A joining node
//! traverses the list backwards — one connection round-trip per hop — until
//! it finds a suitable parent, and picks `k` random peers met during the
//! traversal as its gossip overlay. Dissemination is *pull based*: nodes
//! periodically pull missing messages from their parent and pre-fetch from
//! gossip partners, which adds round-trips (and therefore latency) compared
//! to BRISA's push.
//!
//! Upon a parent failure the node walks the list again to find a
//! replacement; when the list itself is broken at the node's position (its
//! predecessor failed too) the repair is classified as *hard* and starts
//! from a farther live pointer, which is what Figure 14 measures.

use brisa_simnet::{
    Context, DeliveryLog, NodeId, Protocol, SimDuration, SimTime, TimerTag, WireSize,
};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Timer for the periodic pull.
const TIMER_PULL: u16 = 1;

/// Maximum children a node accepts before the traversal moves on.
const MAX_CHILDREN: usize = 4;
/// Maximum number of hops a join/repair traversal walks backwards.
const TRAVERSE_HOPS: usize = 6;
/// Number of gossip partners picked during the traversal.
const GOSSIP_PEERS: usize = 2;
/// Pull period (parent and gossip partners are polled at this rate).
const PULL_PERIOD: SimDuration = SimDuration::from_millis(400);
/// Maximum messages returned by one pull reply.
const PULL_BATCH: usize = 64;

/// Messages of the TAG protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum TagMsg {
    /// A joining node announces itself to the current list tail.
    JoinReq,
    /// The tail accepts the joiner and tells it its list predecessors.
    JoinAck {
        /// The joiner's new 1-hop predecessor (the sender).
        prev1: NodeId,
        /// The joiner's new 2-hop predecessor.
        prev2: Option<NodeId>,
    },
    /// Informs a node that a new tail joined two hops after it.
    UpdateNext2 {
        /// The new 2-hop successor.
        next2: NodeId,
    },
    /// Traversal probe: "could you be my parent?".
    Probe,
    /// Probe answer with the information the traversal needs.
    ProbeReply {
        /// The replier's own predecessor (the next traversal hop).
        prev: Option<NodeId>,
        /// How many children the replier currently serves.
        children: usize,
    },
    /// Attach to the receiver as a child.
    Attach,
    /// Attach accepted.
    AttachAck,
    /// Establish a gossip partnership.
    PeerLink,
    /// Pull request: "send me what I am missing above this sequence number".
    Pull {
        /// Highest contiguous sequence number the requester holds.
        have_max: Option<u64>,
    },
    /// Pull answer.
    PullData {
        /// `(seq, payload_bytes)` pairs.
        messages: Vec<(u64, usize)>,
    },
}

impl WireSize for TagMsg {
    fn wire_size(&self) -> usize {
        match self {
            TagMsg::JoinReq
            | TagMsg::Probe
            | TagMsg::Attach
            | TagMsg::AttachAck
            | TagMsg::PeerLink => 8,
            TagMsg::JoinAck { .. } => 8 + 2 * NodeId::WIRE_SIZE,
            TagMsg::UpdateNext2 { .. } => 8 + NodeId::WIRE_SIZE,
            TagMsg::ProbeReply { .. } => 8 + NodeId::WIRE_SIZE + 4,
            TagMsg::Pull { .. } => 16,
            TagMsg::PullData { messages } => {
                8 + messages.iter().map(|(_, p)| 16 + p).sum::<usize>()
            }
        }
    }
}

/// Statistics specific to the TAG baseline (beyond plain delivery counts).
#[derive(Debug, Clone, Default)]
pub struct TagStats {
    /// Time the node started joining.
    pub join_started: Option<SimTime>,
    /// Time the node settled its position (parent attached).
    pub settled_at: Option<SimTime>,
    /// Completed parent recoveries classified as soft (list intact).
    pub soft_repairs: u64,
    /// Completed parent recoveries classified as hard (list broken at this
    /// node's position).
    pub hard_repairs: u64,
    /// Recovery delays (microseconds) for soft repairs.
    pub soft_repair_delays_us: Vec<u64>,
    /// Recovery delays (microseconds) for hard repairs.
    pub hard_repair_delays_us: Vec<u64>,
    /// Number of traversal probes sent (join + repairs).
    pub probes_sent: u64,
}

impl TagStats {
    /// Construction time: from join start to the settled position.
    pub fn construction_time(&self) -> Option<SimDuration> {
        match (self.join_started, self.settled_at) {
            (Some(a), Some(b)) if b >= a => Some(b - a),
            _ => None,
        }
    }
}

/// What an ongoing traversal is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraversalGoal {
    Join,
    Repair { hard: bool, started: SimTime },
}

/// A node running the TAG protocol.
pub struct TagNode {
    /// The node to contact when joining (the most recently joined node);
    /// `None` for the first node, which is also the stream source.
    contact: Option<NodeId>,
    prev1: Option<NodeId>,
    prev2: Option<NodeId>,
    next1: Option<NodeId>,
    next2: Option<NodeId>,
    parent: Option<NodeId>,
    children: BTreeSet<NodeId>,
    gossip: BTreeSet<NodeId>,
    store: BTreeMap<u64, usize>,
    delivery: DeliveryLog,
    stats: TagStats,
    next_seq: u64,
    /// Ongoing traversal: remaining hops, best candidate so far and goal.
    traversal: Option<(usize, Vec<NodeId>, TraversalGoal)>,
}

impl TagNode {
    /// Creates a node. `contact` must be the previously joined node so the
    /// list stays sorted by join time (`None` for the first node).
    pub fn new(contact: Option<NodeId>) -> Self {
        TagNode {
            contact,
            prev1: None,
            prev2: None,
            next1: None,
            next2: None,
            parent: None,
            children: BTreeSet::new(),
            gossip: BTreeSet::new(),
            store: BTreeMap::new(),
            delivery: DeliveryLog::default(),
            stats: TagStats::default(),
            next_seq: 0,
            traversal: None,
        }
    }

    /// Delivery ledger.
    pub fn delivery(&self) -> &DeliveryLog {
        &self.delivery
    }

    /// TAG-specific statistics (construction time, repairs).
    pub fn tag_stats(&self) -> &TagStats {
        &self.stats
    }

    /// The node's parent, if attached.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The node's children.
    pub fn children(&self) -> Vec<NodeId> {
        self.children.iter().copied().collect()
    }

    /// Publishes the next stream message (source only). TAG is pull-based:
    /// the message is stored locally and propagates when children and gossip
    /// partners pull.
    pub fn publish(&mut self, ctx: &mut Context<'_, TagMsg>, payload_bytes: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.delivery.record(seq, ctx.now());
        self.store.insert(seq, payload_bytes);
    }

    fn start_traversal(
        &mut self,
        ctx: &mut Context<'_, TagMsg>,
        from: NodeId,
        goal: TraversalGoal,
    ) {
        self.traversal = Some((TRAVERSE_HOPS, Vec::new(), goal));
        self.stats.probes_sent += 1;
        ctx.send(from, TagMsg::Probe);
    }

    fn finish_attach(&mut self, ctx: &mut Context<'_, TagMsg>, parent: NodeId) {
        self.parent = Some(parent);
        ctx.open_connection(parent);
        ctx.send(parent, TagMsg::Attach);
    }
}

impl Protocol for TagNode {
    type Message = TagMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, TagMsg>) {
        let off = SimDuration::from_micros(ctx.rng().gen_range(0..PULL_PERIOD.as_micros()));
        ctx.set_timer(off, TimerTag::of_kind(TIMER_PULL));
        match self.contact {
            None => {
                // First node: root of the tree and head of the list.
                self.stats.join_started = Some(ctx.now());
                self.stats.settled_at = Some(ctx.now());
            }
            Some(contact) => {
                self.stats.join_started = Some(ctx.now());
                ctx.open_connection(contact);
                ctx.send(contact, TagMsg::JoinReq);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, TagMsg>, from: NodeId, msg: TagMsg) {
        match msg {
            TagMsg::JoinReq => {
                // We are the current tail: the joiner becomes our successor.
                self.next1 = Some(from);
                ctx.open_connection(from);
                if let Some(prev) = self.prev1 {
                    ctx.send(prev, TagMsg::UpdateNext2 { next2: from });
                }
                ctx.send(
                    from,
                    TagMsg::JoinAck {
                        prev1: ctx.id(),
                        prev2: self.prev1,
                    },
                );
            }
            TagMsg::JoinAck { prev1, prev2 } => {
                self.prev1 = Some(prev1);
                self.prev2 = prev2;
                // Traverse the list backwards to find a parent, starting at
                // our predecessor.
                self.start_traversal(ctx, prev1, TraversalGoal::Join);
            }
            TagMsg::UpdateNext2 { next2 } => {
                self.next2 = Some(next2);
            }
            TagMsg::Probe => {
                let reply = TagMsg::ProbeReply {
                    prev: self.prev1,
                    children: self.children.len(),
                };
                ctx.send(from, reply);
            }
            TagMsg::ProbeReply { prev, children } => {
                let Some((hops_left, mut met, goal)) = self.traversal.take() else {
                    return;
                };
                met.push(from);
                let suitable = children < MAX_CHILDREN;
                let next_hop = prev
                    .filter(|&p| p != ctx.id())
                    .filter(|_| !suitable && hops_left > 0);
                if let Some(next) = next_hop {
                    self.stats.probes_sent += 1;
                    self.traversal = Some((hops_left - 1, met, goal));
                    ctx.send(next, TagMsg::Probe);
                } else {
                    // Settle here: attach to the best node met (the current
                    // one if suitable, otherwise the least loaded we saw —
                    // we only have the last one's counter, so take it).
                    let parent = from;
                    self.finish_attach(ctx, parent);
                    // Pick gossip partners among the nodes met.
                    let mut pool: Vec<NodeId> = met.into_iter().filter(|&n| n != parent).collect();
                    pool.shuffle(ctx.rng());
                    for p in pool.into_iter().take(GOSSIP_PEERS) {
                        self.gossip.insert(p);
                        ctx.open_connection(p);
                        ctx.send(p, TagMsg::PeerLink);
                    }
                    self.traversal = Some((0, Vec::new(), goal));
                }
            }
            TagMsg::Attach => {
                self.children.insert(from);
                ctx.open_connection(from);
                ctx.send(from, TagMsg::AttachAck);
            }
            TagMsg::AttachAck => {
                if self.parent != Some(from) {
                    return;
                }
                if let Some((_, _, goal)) = self.traversal.take() {
                    match goal {
                        TraversalGoal::Join => {
                            if self.stats.settled_at.is_none() {
                                self.stats.settled_at = Some(ctx.now());
                            }
                        }
                        TraversalGoal::Repair { hard, started } => {
                            let delay = ctx.now().saturating_since(started).as_micros();
                            if hard {
                                self.stats.hard_repairs += 1;
                                self.stats.hard_repair_delays_us.push(delay);
                            } else {
                                self.stats.soft_repairs += 1;
                                self.stats.soft_repair_delays_us.push(delay);
                            }
                        }
                    }
                }
                // Catch up immediately rather than waiting for the next pull.
                ctx.send(
                    from,
                    TagMsg::Pull {
                        have_max: self.delivery.low().checked_sub(1),
                    },
                );
            }
            TagMsg::PeerLink => {
                self.gossip.insert(from);
                ctx.open_connection(from);
            }
            TagMsg::Pull { have_max } => {
                let start = have_max.map_or(0, |h| h + 1);
                let messages: Vec<(u64, usize)> = self
                    .store
                    .range(start..)
                    .take(PULL_BATCH)
                    .map(|(&s, &p)| (s, p))
                    .collect();
                if !messages.is_empty() {
                    ctx.send(from, TagMsg::PullData { messages });
                }
            }
            TagMsg::PullData { messages } => {
                for (seq, payload) in messages {
                    if self.delivery.record(seq, ctx.now()) {
                        self.store.insert(seq, payload);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TagMsg>, tag: TimerTag) {
        if tag.kind != TIMER_PULL {
            return;
        }
        // The store holds exactly the ledger's deliveries, so the top of
        // its contiguous prefix is the ledger's cursor less one.
        let have = self.delivery.low().checked_sub(1);
        if let Some(parent) = self.parent {
            ctx.send(parent, TagMsg::Pull { have_max: have });
        }
        // Pre-fetch from one gossip partner as well.
        let partners: Vec<NodeId> = self.gossip.iter().copied().collect();
        if let Some(&peer) = partners.as_slice().choose(ctx.rng()) {
            ctx.send(peer, TagMsg::Pull { have_max: have });
        }
        ctx.set_timer(PULL_PERIOD, TimerTag::of_kind(TIMER_PULL));
    }

    fn on_link_down(&mut self, ctx: &mut Context<'_, TagMsg>, peer: NodeId) {
        self.children.remove(&peer);
        self.gossip.remove(&peer);
        let was_parent = self.parent == Some(peer);
        let list_broken = self.prev1 == Some(peer);
        if self.prev1 == Some(peer) {
            self.prev1 = self.prev2.take();
        }
        if self.prev2 == Some(peer) {
            self.prev2 = None;
        }
        if self.next1 == Some(peer) {
            self.next1 = self.next2.take();
        }
        if self.next2 == Some(peer) {
            self.next2 = None;
        }
        if !was_parent {
            return;
        }
        self.parent = None;
        // Find a live entry point for the repair traversal: the list
        // predecessor if the list survived, otherwise a farther pointer or a
        // gossip partner (hard repair).
        let hard = list_broken;
        let entry = self
            .prev1
            .or(self.prev2)
            .or(self.next1)
            .or_else(|| self.gossip.iter().next().copied())
            .or_else(|| self.children.iter().next().copied());
        if let Some(entry) = entry {
            let goal = TraversalGoal::Repair {
                hard,
                started: ctx.now(),
            };
            self.start_traversal(ctx, entry, goal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa_simnet::latency::ClusterLatency;
    use brisa_simnet::{Network, NetworkConfig, SimTime};

    fn build(n: u32) -> (Network<TagNode>, Vec<NodeId>) {
        let mut net: Network<TagNode> = Network::new(
            NetworkConfig::default(),
            Box::new(ClusterLatency::default()),
        );
        let mut ids: Vec<NodeId> = Vec::new();
        for i in 0..n {
            let contact = ids.last().copied();
            let at = SimTime::from_millis(20 * i as u64);
            ids.push(net.add_node_at(at, move |_| TagNode::new(contact)));
        }
        net.run_until(SimTime::from_secs(20));
        (net, ids)
    }

    #[test]
    fn tag_builds_a_tree_and_pull_disseminates() {
        let (mut net, ids) = build(40);
        // Every node settled and has a parent (except the root).
        for (i, &id) in ids.iter().enumerate() {
            let node = net.node(id).unwrap();
            assert!(node.tag_stats().settled_at.is_some(), "node {i} settled");
            if i > 0 {
                assert!(node.parent().is_some(), "node {i} attached to a parent");
            }
        }
        let source = ids[0];
        for _ in 0..5 {
            net.invoke(source, |n, ctx| n.publish(ctx, 512));
            net.run_for(SimDuration::from_millis(200));
        }
        // Pull-based dissemination needs several pull periods to drain.
        net.run_for(SimDuration::from_secs(30));
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                net.node(id).unwrap().delivery().delivered(),
                5,
                "node {i} delivered all"
            );
        }
    }

    #[test]
    fn parent_failure_triggers_repair_with_measured_delay() {
        let (mut net, ids) = build(30);
        let source = ids[0];
        for _ in 0..3 {
            net.invoke(source, |n, ctx| n.publish(ctx, 128));
            net.run_for(SimDuration::from_millis(200));
        }
        net.run_for(SimDuration::from_secs(10));
        // Crash a node that has children (not the source).
        let victim = ids
            .iter()
            .skip(1)
            .copied()
            .find(|&id| !net.node(id).unwrap().children().is_empty())
            .expect("some interior node exists");
        net.crash(victim);
        net.run_for(SimDuration::from_secs(20));
        let repaired: u64 = ids
            .iter()
            .filter(|&&id| id != victim)
            .map(|&id| {
                let s = net.node(id).unwrap().tag_stats();
                s.soft_repairs + s.hard_repairs
            })
            .sum();
        assert!(
            repaired >= 1,
            "orphaned children re-attach after the failure"
        );
        // The stream keeps flowing afterwards.
        for _ in 0..2 {
            net.invoke(source, |n, ctx| n.publish(ctx, 128));
            net.run_for(SimDuration::from_millis(200));
        }
        net.run_for(SimDuration::from_secs(30));
        for &id in ids.iter().filter(|&&id| id != victim) {
            let delivered = net.node(id).unwrap().delivery().delivered();
            assert_eq!(delivered, 5, "node {id} caught up after the repair");
        }
    }
}
