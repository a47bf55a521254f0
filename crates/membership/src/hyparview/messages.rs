//! HyParView wire messages.

use brisa_simnet::{NodeId, WireSize};
use serde::{Deserialize, Serialize};

/// Fixed per-message overhead (type tag + framing) charged for every
/// HyParView control message.
pub const HPV_HEADER_BYTES: usize = 8;

/// Messages exchanged by the HyParView membership protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HpvMsg {
    /// A new node announces itself to its contact node.
    Join,
    /// The contact node propagates the join through the overlay as a random
    /// walk of length `ttl`.
    ForwardJoin {
        /// The joining node.
        new_node: NodeId,
        /// Remaining hops of the random walk.
        ttl: u8,
    },
    /// Request to establish a (bidirectional) neighbor link.
    Neighbor {
        /// High-priority requests (sent by nodes whose active view is empty)
        /// must be accepted.
        high_priority: bool,
    },
    /// Answer to a [`HpvMsg::Neighbor`] request.
    NeighborReply {
        /// Whether the requester was added to the replier's active view.
        accepted: bool,
    },
    /// The sender removed the receiver from its active view.
    Disconnect,
    /// Passive-view shuffle random walk.
    Shuffle {
        /// Node that initiated the shuffle (replies go directly to it).
        origin: NodeId,
        /// Sample of the origin's views (plus the origin itself).
        nodes: Vec<NodeId>,
        /// Remaining hops of the random walk.
        ttl: u8,
    },
    /// Direct answer to a shuffle, carrying a sample of the replier's
    /// passive view.
    ShuffleReply {
        /// The sample.
        nodes: Vec<NodeId>,
    },
    /// Keep-alive probe; also used to measure round-trip times, which BRISA's
    /// delay-aware parent selection consumes.
    KeepAlive {
        /// Correlates the probe with its acknowledgement.
        nonce: u64,
    },
    /// Keep-alive acknowledgement.
    KeepAliveAck {
        /// Echoed nonce.
        nonce: u64,
    },
}

impl WireSize for HpvMsg {
    fn wire_size(&self) -> usize {
        let body = match self {
            HpvMsg::Join => 0,
            HpvMsg::ForwardJoin { .. } => NodeId::WIRE_SIZE + 1,
            HpvMsg::Neighbor { .. } => 1,
            HpvMsg::NeighborReply { .. } => 1,
            HpvMsg::Disconnect => 0,
            // Node lists carry an explicit u16 count so a decoder does not
            // have to infer the length from the frame size (matches
            // `runtime::wire` byte for byte).
            HpvMsg::Shuffle { nodes, .. } => {
                NodeId::WIRE_SIZE + 1 + 2 + nodes.len() * NodeId::WIRE_SIZE
            }
            HpvMsg::ShuffleReply { nodes } => 2 + nodes.len() * NodeId::WIRE_SIZE,
            HpvMsg::KeepAlive { .. } | HpvMsg::KeepAliveAck { .. } => 8,
        };
        HPV_HEADER_BYTES + body
    }
}

/// Where the HyParView state machine puts its effects.
///
/// The state machine is sans-IO: handling an input calls these methods, in
/// the order the effects must take place, and the embedding protocol stack
/// translates each into a simulator command (or, in a real deployment, a
/// socket operation) or a notification to the layer above. Handing effects
/// over one by one, instead of returning a list, is what keeps a keep-alive
/// free of heap allocations.
pub trait HpvSink {
    /// Send `msg` to `to`.
    fn send(&mut self, to: NodeId, msg: HpvMsg);
    /// Open a monitored connection to `peer` (failure detection).
    fn open_connection(&mut self, peer: NodeId);
    /// Close the monitored connection to `peer`.
    fn close_connection(&mut self, peer: NodeId);
    /// `peer` entered the active view.
    fn neighbor_up(&mut self, peer: NodeId);
    /// `peer` left the active view.
    fn neighbor_down(&mut self, peer: NodeId);
}

/// One recorded effect of the HyParView state machine: what a
/// `Vec<HpvOut>` used as an [`HpvSink`] collects, for tests and tools that
/// want to look at the effects instead of executing them.
#[derive(Debug, Clone, PartialEq)]
pub enum HpvOut {
    /// Send `msg` to `to`.
    Send {
        /// Destination.
        to: NodeId,
        /// Message to send.
        msg: HpvMsg,
    },
    /// Open a monitored connection to `peer` (failure detection).
    OpenConnection(NodeId),
    /// Close the monitored connection to `peer`.
    CloseConnection(NodeId),
    /// `peer` entered the active view.
    NeighborUp(NodeId),
    /// `peer` left the active view.
    NeighborDown(NodeId),
}

impl HpvSink for Vec<HpvOut> {
    fn send(&mut self, to: NodeId, msg: HpvMsg) {
        self.push(HpvOut::Send { to, msg });
    }
    fn open_connection(&mut self, peer: NodeId) {
        self.push(HpvOut::OpenConnection(peer));
    }
    fn close_connection(&mut self, peer: NodeId) {
        self.push(HpvOut::CloseConnection(peer));
    }
    fn neighbor_up(&mut self, peer: NodeId) {
        self.push(HpvOut::NeighborUp(peer));
    }
    fn neighbor_down(&mut self, peer: NodeId) {
        self.push(HpvOut::NeighborDown(peer));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_scale_with_content() {
        assert_eq!(HpvMsg::Join.wire_size(), HPV_HEADER_BYTES);
        assert_eq!(
            HpvMsg::ForwardJoin {
                new_node: NodeId(1),
                ttl: 3
            }
            .wire_size(),
            HPV_HEADER_BYTES + 7
        );
        let small = HpvMsg::Shuffle {
            origin: NodeId(0),
            nodes: vec![NodeId(1)],
            ttl: 2,
        };
        let big = HpvMsg::Shuffle {
            origin: NodeId(0),
            nodes: vec![NodeId(1), NodeId(2), NodeId(3)],
            ttl: 2,
        };
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(
            HpvMsg::KeepAlive { nonce: 1 }.wire_size(),
            HpvMsg::KeepAliveAck { nonce: 1 }.wire_size()
        );
    }
}
