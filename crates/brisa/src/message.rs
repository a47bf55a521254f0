//! BRISA wire messages.

use crate::cycle::CycleGuard;
use brisa_simnet::NodeId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Size of a BRISA frame's fixed header (length prefix, version, protocol,
/// kind, stream id and one reserved byte): what a body-less message costs.
pub const BRISA_HEADER_BYTES: usize = 16;

/// A stream data message as relayed between nodes.
///
/// The payload itself is an opaque bit string in the paper's evaluation, so
/// only its size is carried here; the encoder writes that many filler bytes
/// after the header, the metadata and the guard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataMsg {
    /// Sequence number of the message within the stream (0-based).
    pub seq: u64,
    /// Application payload size in bytes.
    pub payload_bytes: usize,
    /// Cycle-prevention metadata: the sender's path from the source (tree
    /// mode) or the sender's depth (DAG mode).
    pub guard: CycleGuard,
    /// Uptime of the sender in simulated seconds, used by the gerontocratic
    /// parent selection strategy.
    pub sender_uptime_secs: u32,
    /// Number of children the sender currently serves, used by the
    /// load-balancing parent selection strategy.
    pub sender_load: u16,
}

/// Messages exchanged by the BRISA dissemination layer.
///
/// The data variant is reference-counted: relaying a stream message to `k`
/// children builds the [`DataMsg`] (guard, metadata, payload accounting)
/// once and fans it out with `k` cheap `Arc` clones, instead of cloning the
/// whole message — including the path-embedding vector — per child. The
/// simulator still charges the full
/// [`WireSize`](brisa_simnet::WireSize) per transmission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BrisaMsg {
    /// A stream message (possibly the bootstrap flood of the first one).
    Data(Arc<DataMsg>),
    /// "Stop relaying stream data to me": the receiver marks its outgoing
    /// link towards the sender as inactive.
    Deactivate {
        /// True when the sender *also* deactivated its own outgoing link
        /// towards the receiver (the symmetric deactivation optimisation of
        /// Section II-E). The flag makes the optimisation sound: a receiver
        /// that considered the sender its parent learns the parenthood is
        /// dead — without it the reverse link dies silently and a stale
        /// parent pointer starves the receiver for good (an interleaving
        /// the live runtime's wall-clock schedules actually produce).
        symmetric: bool,
    },
    /// "Resume relaying stream data to me": the receiver marks its outgoing
    /// link towards the sender as active again (used by the repair
    /// mechanisms).
    Activate,
    /// Hard-repair propagation: the sender (a parent that became an orphan
    /// and re-bootstrapped) asks the receiver (one of its children) to
    /// re-activate its own inbound links, and to propagate further down if
    /// it cannot find a replacement parent in its active view.
    ReactivationOrder,
    /// Request retransmission of buffered messages with sequence numbers in
    /// `[from_seq, to_seq]` (inclusive), sent to a newly adopted parent
    /// after a repair.
    Retransmit {
        /// First missing sequence number.
        from_seq: u64,
        /// Last sequence number known to exist.
        to_seq: u64,
    },
    /// Stream-edge advertisement, sent to children on the repair tick once
    /// the sender's data path has gone quiet. Gap detection is data-driven
    /// (a hole is revealed by a *later* message), which leaves one blind
    /// spot: a message lost at the stream's tail is followed by nothing, so
    /// the victim never learns it exists. Advertising the edge closes the
    /// blind spot — a receiver behind the advertised edge treats it as a
    /// known gap and re-requests from the advertiser's buffer.
    Edge {
        /// Highest sequence number the sender has seen.
        highest: u64,
    },
}

impl BrisaMsg {
    /// Wraps a freshly built [`DataMsg`] into the shared-payload variant.
    pub fn data(msg: DataMsg) -> Self {
        BrisaMsg::Data(Arc::new(msg))
    }

    /// Convenience accessor for the data payload.
    pub fn as_data(&self) -> Option<&DataMsg> {
        match self {
            BrisaMsg::Data(d) => Some(d),
            _ => None,
        }
    }
}

/// An action produced by the BRISA state machine, to be executed by the
/// embedding stack.
#[derive(Debug, Clone, PartialEq)]
pub enum BrisaAction {
    /// Send `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// Message.
        msg: BrisaMsg,
    },
    /// The stream message with this sequence number was delivered to the
    /// application for the first time.
    Deliver {
        /// Sequence number delivered.
        seq: u64,
    },
}

/// Where [`crate::BrisaCore`]'s entry points put their effects, in the
/// order the core produces them: the dissemination layer's side of the
/// same seam [`brisa_membership::HpvSink`] is for the membership layer.
/// A `Vec<BrisaAction>` records them; [`crate::BrisaNode`] writes each
/// send straight into the simulator's command buffer.
pub trait BrisaSink {
    /// Send `msg` to `to`.
    fn send(&mut self, to: NodeId, msg: BrisaMsg);
    /// The stream message `seq` was delivered to the application for the
    /// first time.
    fn deliver(&mut self, seq: u64);
}

impl BrisaSink for Vec<BrisaAction> {
    fn send(&mut self, to: NodeId, msg: BrisaMsg) {
        self.push(BrisaAction::Send { to, msg });
    }

    fn deliver(&mut self, seq: u64) {
        self.push(BrisaAction::Deliver { seq });
    }
}

/// Convenience filter: the destinations and messages of all `Send` actions.
pub fn sends(actions: &[BrisaAction]) -> Vec<(NodeId, &BrisaMsg)> {
    actions
        .iter()
        .filter_map(|a| match a {
            BrisaAction::Send { to, msg } => Some((*to, msg)),
            BrisaAction::Deliver { .. } => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa_simnet::WireSize;

    fn data(seq: u64, payload: usize, guard: CycleGuard) -> DataMsg {
        DataMsg {
            seq,
            payload_bytes: payload,
            guard,
            sender_uptime_secs: 0,
            sender_load: 0,
        }
    }

    #[test]
    fn data_wire_size_includes_payload_and_guard() {
        let small = BrisaMsg::data(data(0, 1024, CycleGuard::Depth(3)));
        let big = BrisaMsg::data(data(0, 10 * 1024, CycleGuard::Depth(3)));
        assert_eq!(big.wire_size() - small.wire_size(), 9 * 1024);
        let path_guard = BrisaMsg::data(data(
            0,
            1024,
            CycleGuard::Path(vec![NodeId(0), NodeId(1), NodeId(2)].into()),
        ));
        // A 3-hop path guard (kind + count + entries) replaces the 5-byte
        // depth guard (kind + u32).
        assert_eq!(
            path_guard.wire_size() - small.wire_size(),
            (1 + 2 + 3 * NodeId::WIRE_SIZE) - 5
        );
    }

    #[test]
    fn control_messages_are_small() {
        assert!(BrisaMsg::Deactivate { symmetric: true }.wire_size() <= 2 * BRISA_HEADER_BYTES);
        assert!(BrisaMsg::Activate.wire_size() <= 2 * BRISA_HEADER_BYTES);
        assert!(BrisaMsg::ReactivationOrder.wire_size() <= 2 * BRISA_HEADER_BYTES);
        assert_eq!(
            BrisaMsg::Retransmit {
                from_seq: 1,
                to_seq: 5
            }
            .wire_size(),
            BRISA_HEADER_BYTES + 16
        );
    }

    #[test]
    fn as_data_and_sends_helpers() {
        let d = BrisaMsg::data(data(7, 10, CycleGuard::Depth(0)));
        assert_eq!(d.as_data().unwrap().seq, 7);
        assert!(BrisaMsg::Activate.as_data().is_none());
        let actions = vec![
            BrisaAction::Send {
                to: NodeId(1),
                msg: BrisaMsg::Deactivate { symmetric: false },
            },
            BrisaAction::Deliver { seq: 3 },
            BrisaAction::Send {
                to: NodeId(2),
                msg: BrisaMsg::Activate,
            },
        ];
        let s = sends(&actions);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].0, NodeId(1));
        assert_eq!(s[1].0, NodeId(2));
    }
}
