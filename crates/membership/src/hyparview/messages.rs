//! HyParView wire messages.

use brisa_simnet::wire::{Reader, Sink, WireCodec, WireError};
use brisa_simnet::NodeId;
use serde::{Deserialize, Serialize};

/// Size of a HyParView frame's fixed header (length prefix, version,
/// protocol, kind and one reserved byte): what a body-less message costs.
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

/// Frame protocol byte of HyParView messages.
const PROTO: u8 = 0;

/// Kind tags of the HyParView variants.
mod kind {
    pub const JOIN: u8 = 0;
    pub const FORWARD_JOIN: u8 = 1;
    pub const NEIGHBOR: u8 = 2;
    pub const NEIGHBOR_REPLY: u8 = 3;
    pub const DISCONNECT: u8 = 4;
    pub const SHUFFLE: u8 = 5;
    pub const SHUFFLE_REPLY: u8 = 6;
    pub const KEEP_ALIVE: u8 = 7;
    pub const KEEP_ALIVE_ACK: u8 = 8;
}

/// Protocol byte, kind tag and one reserved byte: pads the header to
/// [`HPV_HEADER_BYTES`].
fn head<S: Sink>(out: &mut S, kind: u8) -> &mut S {
    out.put(&[PROTO, kind, 0])
}

impl WireCodec for HpvMsg {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        out.frame(|out| match self {
            HpvMsg::Join => head(out, kind::JOIN),
            HpvMsg::ForwardJoin { new_node, ttl } => {
                head(out, kind::FORWARD_JOIN).node(*new_node).u8(*ttl)
            }
            HpvMsg::Neighbor { high_priority } => {
                head(out, kind::NEIGHBOR).u8(*high_priority as u8)
            }
            HpvMsg::NeighborReply { accepted } => {
                head(out, kind::NEIGHBOR_REPLY).u8(*accepted as u8)
            }
            HpvMsg::Disconnect => head(out, kind::DISCONNECT),
            HpvMsg::Shuffle { origin, nodes, ttl } => {
                head(out, kind::SHUFFLE).node(*origin).u8(*ttl).nodes(nodes)
            }
            HpvMsg::ShuffleReply { nodes } => head(out, kind::SHUFFLE_REPLY).nodes(nodes),
            HpvMsg::KeepAlive { nonce } => head(out, kind::KEEP_ALIVE).u64(*nonce),
            HpvMsg::KeepAliveAck { nonce } => head(out, kind::KEEP_ALIVE_ACK).u64(*nonce),
        });
    }

    fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let (tag, mut r) = Reader::open(frame, PROTO)?;
        r.u8()?; // reserved
        let msg = match tag {
            kind::JOIN => HpvMsg::Join,
            kind::FORWARD_JOIN => HpvMsg::ForwardJoin {
                new_node: r.node()?,
                ttl: r.u8()?,
            },
            kind::NEIGHBOR => HpvMsg::Neighbor {
                high_priority: r.u8()? != 0,
            },
            kind::NEIGHBOR_REPLY => HpvMsg::NeighborReply {
                accepted: r.u8()? != 0,
            },
            kind::DISCONNECT => HpvMsg::Disconnect,
            kind::SHUFFLE => HpvMsg::Shuffle {
                origin: r.node()?,
                ttl: r.u8()?,
                nodes: r.nodes()?,
            },
            kind::SHUFFLE_REPLY => HpvMsg::ShuffleReply { nodes: r.nodes()? },
            kind::KEEP_ALIVE => HpvMsg::KeepAlive { nonce: r.u64()? },
            kind::KEEP_ALIVE_ACK => HpvMsg::KeepAliveAck { nonce: r.u64()? },
            other => {
                return Err(WireError::BadKind {
                    proto: PROTO,
                    kind: other,
                })
            }
        };
        r.done()?;
        Ok(msg)
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
    use brisa_simnet::WireSize;

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
