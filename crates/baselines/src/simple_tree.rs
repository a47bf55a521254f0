//! SimpleTree: a centrally-constructed random tree.
//!
//! The efficiency end of the design spectrum (Section III-D): a centralized
//! coordinator assigns every joining node a parent picked uniformly at
//! random among previously joined nodes, which trivially avoids cycles.
//! Dissemination pushes messages down the tree links immediately, which
//! minimises latency. The protocol has no provision for failures or churn.

use brisa_simnet::{Context, DeliveryLog, NodeId, Protocol, TimerTag, WireSize};
use rand::Rng;
use std::collections::BTreeSet;

/// Messages of the SimpleTree protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeMsg {
    /// Sent by a joining node to the coordinator.
    JoinRequest,
    /// Coordinator's answer: attach to `parent`.
    AssignParent {
        /// The assigned parent.
        parent: NodeId,
    },
    /// Sent by a new node to its assigned parent.
    AttachChild,
    /// A stream message pushed down the tree.
    Data {
        /// Sequence number.
        seq: u64,
        /// Payload size in bytes.
        payload_bytes: usize,
    },
}

impl WireSize for TreeMsg {
    fn wire_size(&self) -> usize {
        match self {
            TreeMsg::JoinRequest => 8,
            TreeMsg::AssignParent { .. } => 8 + NodeId::WIRE_SIZE,
            TreeMsg::AttachChild => 8,
            TreeMsg::Data { payload_bytes, .. } => 16 + payload_bytes,
        }
    }
}

/// A node of the SimpleTree baseline. The coordinator (and tree root /
/// stream source) is the node created without a coordinator reference.
pub struct SimpleTreeNode {
    /// Coordinator to contact when joining; `None` if this node *is* the
    /// coordinator.
    coordinator: Option<NodeId>,
    /// Registry of joined nodes (coordinator only).
    registry: Vec<NodeId>,
    parent: Option<NodeId>,
    children: BTreeSet<NodeId>,
    delivery: DeliveryLog,
    next_seq: u64,
}

impl SimpleTreeNode {
    /// Creates a node. Pass `None` for the coordinator/root node.
    pub fn new(coordinator: Option<NodeId>) -> Self {
        SimpleTreeNode {
            coordinator,
            registry: Vec::new(),
            parent: None,
            children: BTreeSet::new(),
            delivery: DeliveryLog::default(),
            next_seq: 0,
        }
    }

    /// Delivery ledger.
    pub fn delivery(&self) -> &DeliveryLog {
        &self.delivery
    }

    /// The node's parent in the tree, if assigned.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The node's children.
    pub fn children(&self) -> Vec<NodeId> {
        self.children.iter().copied().collect()
    }

    /// Publishes the next stream message (root only) by pushing it to every
    /// child.
    pub fn publish(&mut self, ctx: &mut Context<'_, TreeMsg>, payload_bytes: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.delivery.record(seq, ctx.now());
        for &c in &self.children {
            ctx.send(c, TreeMsg::Data { seq, payload_bytes });
        }
    }
}

impl Protocol for SimpleTreeNode {
    type Message = TreeMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, TreeMsg>) {
        if let Some(coord) = self.coordinator {
            ctx.send(coord, TreeMsg::JoinRequest);
        } else {
            // The coordinator registers itself as the first possible parent.
            self.registry.push(ctx.id());
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, TreeMsg>, from: NodeId, msg: TreeMsg) {
        match msg {
            TreeMsg::JoinRequest => {
                // Coordinator: pick a random previously joined node as parent.
                let idx = ctx.rng().gen_range(0..self.registry.len().max(1));
                let parent = *self.registry.get(idx).unwrap_or(&ctx.id());
                self.registry.push(from);
                ctx.send(from, TreeMsg::AssignParent { parent });
            }
            TreeMsg::AssignParent { parent } => {
                self.parent = Some(parent);
                if parent == ctx.id() {
                    return;
                }
                ctx.send(parent, TreeMsg::AttachChild);
            }
            TreeMsg::AttachChild => {
                self.children.insert(from);
            }
            TreeMsg::Data { seq, payload_bytes } => {
                if self.delivery.record(seq, ctx.now()) {
                    for &c in &self.children {
                        if c != from {
                            ctx.send(c, TreeMsg::Data { seq, payload_bytes });
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, TreeMsg>, _tag: TimerTag) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa_simnet::latency::ClusterLatency;
    use brisa_simnet::{Network, NetworkConfig, SimDuration, SimTime};

    #[test]
    fn centralized_tree_disseminates_without_duplicates() {
        let mut net: Network<SimpleTreeNode> = Network::new(
            NetworkConfig::default(),
            Box::new(ClusterLatency::default()),
        );
        let root = net.add_node(|_| SimpleTreeNode::new(None));
        let mut ids = vec![root];
        for i in 1..50u64 {
            ids.push(net.add_node_at(SimTime::from_millis(5 * i), move |_| {
                SimpleTreeNode::new(Some(root))
            }));
        }
        net.run_until(SimTime::from_secs(5));
        for _ in 0..10 {
            net.invoke(root, |n, ctx| n.publish(ctx, 1024));
            net.run_for(SimDuration::from_millis(200));
        }
        net.run_for(SimDuration::from_secs(2));
        for &id in &ids {
            let s = net.node(id).unwrap().delivery();
            assert_eq!(s.delivered(), 10, "node {id} delivered everything");
            assert_eq!(s.duplicates(), 0, "a tree never produces duplicates");
        }
        // Every non-root node has a parent; the root is everyone's ancestor.
        for &id in ids.iter().skip(1) {
            assert!(net.node(id).unwrap().parent().is_some());
        }
    }
}
