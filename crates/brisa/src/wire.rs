//! BRISA's frames: the one encoder and decoder of [`BrisaMsg`] (and of the
//! [`CycleGuard`] its data messages carry) and of the stack's [`StackMsg`].
//!
//! A BRISA frame's header tail is a `u64` stream identifier (always 0
//! while the stack carries a single stream) and one reserved byte, which
//! makes the fixed header [`BRISA_HEADER_BYTES`](crate::BRISA_HEADER_BYTES).
//! [`DataMsg`] payloads are opaque in the protocol (only their size is
//! carried in the struct); the encoder writes `payload_bytes` of a
//! deterministic filler, so live transports move — and live benches
//! measure — real full-size frames. Decoding validates the length and
//! recovers the size, not the pattern.

use crate::cycle::CycleGuard;
use crate::message::{BrisaMsg, DataMsg};
use crate::node::StackMsg;
use brisa_membership::HpvMsg;
use brisa_simnet::wire::{Reader, Sink, WireCodec, WireError};
use brisa_simnet::NodeId;
use std::sync::Arc;

/// Frame protocol byte of BRISA messages.
const PROTO: u8 = 1;

/// Kind tags of the BRISA variants. Tag 4 is unassigned: it carried a
/// retired message, and a frame of that kind is rejected like any other
/// unknown one.
mod kind {
    pub const DATA: u8 = 0;
    pub const DEACTIVATE: u8 = 1;
    pub const ACTIVATE: u8 = 2;
    pub const REACTIVATION_ORDER: u8 = 3;
    pub const RETRANSMIT: u8 = 5;
    pub const EDGE: u8 = 6;
}

/// Kind tags of the cycle guards.
mod guard_kind {
    pub const PATH: u8 = 1;
    pub const DEPTH: u8 = 2;
}

/// Protocol byte, kind tag and the header tail.
fn head<S: Sink>(out: &mut S, kind: u8) -> &mut S {
    out.put(&[PROTO, kind])
        .u64(0) // stream identifier: a single stream for now
        .u8(0) // reserved
}

impl CycleGuard {
    /// Writes the guard: a kind byte, then the path as a node list or the
    /// depth as a `u32`.
    pub(crate) fn encode_into<'s, S: Sink>(&self, out: &'s mut S) -> &'s mut S {
        match self {
            CycleGuard::Path(path) => out.u8(guard_kind::PATH).nodes(path),
            CycleGuard::Depth(d) => out.u8(guard_kind::DEPTH).u32(*d),
        }
    }

    /// Reads a guard. A path is never empty (it ends at its sender), and
    /// an empty one would place its receiver at the root.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            guard_kind::PATH => {
                let path: Arc<[NodeId]> = r.nodes()?;
                if path.is_empty() {
                    return Err(WireError::Corrupt("empty cycle-guard path"));
                }
                Ok(CycleGuard::Path(path))
            }
            guard_kind::DEPTH => Ok(CycleGuard::Depth(r.u32()?)),
            _ => Err(WireError::Corrupt("unknown cycle-guard kind")),
        }
    }
}

impl WireCodec for BrisaMsg {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        out.frame(|out| match self {
            BrisaMsg::Data(d) => {
                let payload = u32::try_from(d.payload_bytes).expect("payload too large to encode");
                head(out, kind::DATA)
                    .u64(d.seq)
                    .u32(payload)
                    .u32(d.sender_uptime_secs)
                    .u16(d.sender_load);
                d.guard.encode_into(out).filler(d.seq, d.payload_bytes)
            }
            BrisaMsg::Deactivate { symmetric } => head(out, kind::DEACTIVATE).u8(*symmetric as u8),
            BrisaMsg::Activate => head(out, kind::ACTIVATE),
            BrisaMsg::ReactivationOrder => head(out, kind::REACTIVATION_ORDER),
            BrisaMsg::Retransmit { from_seq, to_seq } => {
                head(out, kind::RETRANSMIT).u64(*from_seq).u64(*to_seq)
            }
            BrisaMsg::Edge { highest } => head(out, kind::EDGE).u64(*highest),
        });
    }

    fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let (tag, mut r) = Reader::open(frame, PROTO)?;
        r.u64()?; // stream identifier
        r.u8()?; // reserved
        let msg = match tag {
            kind::DATA => {
                let seq = r.u64()?;
                let payload_bytes = r.u32()? as usize;
                let sender_uptime_secs = r.u32()?;
                let sender_load = r.u16()?;
                let guard = CycleGuard::decode(&mut r)?;
                // The payload pattern is opaque; only its length matters.
                r.take(payload_bytes)?;
                BrisaMsg::data(DataMsg {
                    seq,
                    payload_bytes,
                    guard,
                    sender_uptime_secs,
                    sender_load,
                })
            }
            kind::DEACTIVATE => BrisaMsg::Deactivate {
                symmetric: r.u8()? != 0,
            },
            kind::ACTIVATE => BrisaMsg::Activate,
            kind::REACTIVATION_ORDER => BrisaMsg::ReactivationOrder,
            kind::RETRANSMIT => BrisaMsg::Retransmit {
                from_seq: r.u64()?,
                to_seq: r.u64()?,
            },
            kind::EDGE => BrisaMsg::Edge { highest: r.u64()? },
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

impl WireCodec for StackMsg {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        match self {
            StackMsg::Hpv(m) => m.encode_into(out),
            StackMsg::Brisa(m) => m.encode_into(out),
        }
    }

    fn decode(frame: &[u8]) -> Result<Self, WireError> {
        // A frame that is not HyParView's is BRISA's or nobody's; each
        // decoder validates the whole header itself.
        match HpvMsg::decode(frame) {
            Err(WireError::BadProto(_)) => BrisaMsg::decode(frame).map(StackMsg::Brisa),
            hpv => hpv.map(StackMsg::Hpv),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa_simnet::WireSize;

    /// One representative value per variant of every message type the stack
    /// carries, each with the byte count its frame must have. The counts are
    /// literals on purpose: the encoder is the only description of the
    /// layout, so this table is what notices a change to it.
    fn stack_specimens() -> Vec<(StackMsg, usize)> {
        let data = |seq, payload_bytes, guard, sender_uptime_secs, sender_load| {
            StackMsg::Brisa(BrisaMsg::data(DataMsg {
                seq,
                payload_bytes,
                guard,
                sender_uptime_secs,
                sender_load,
            }))
        };
        vec![
            (StackMsg::Hpv(HpvMsg::Join), 8),
            (
                StackMsg::Hpv(HpvMsg::ForwardJoin {
                    new_node: NodeId(7),
                    ttl: 3,
                }),
                15,
            ),
            (
                StackMsg::Hpv(HpvMsg::Neighbor {
                    high_priority: true,
                }),
                9,
            ),
            (StackMsg::Hpv(HpvMsg::NeighborReply { accepted: false }), 9),
            (StackMsg::Hpv(HpvMsg::Disconnect), 8),
            (
                StackMsg::Hpv(HpvMsg::Shuffle {
                    origin: NodeId(1),
                    nodes: vec![NodeId(2), NodeId(3), NodeId(4)],
                    ttl: 2,
                }),
                35,
            ),
            (
                StackMsg::Hpv(HpvMsg::ShuffleReply {
                    nodes: vec![NodeId(9)],
                }),
                16,
            ),
            (StackMsg::Hpv(HpvMsg::KeepAlive { nonce: 0xDEAD }), 16),
            (StackMsg::Hpv(HpvMsg::KeepAliveAck { nonce: 0xBEEF }), 16),
            (
                data(
                    42,
                    1024,
                    CycleGuard::Path(vec![NodeId(0), NodeId(5)].into()),
                    17,
                    3,
                ),
                1073,
            ),
            (data(0, 0, CycleGuard::Depth(6), 0, 0), 39),
            (
                StackMsg::Brisa(BrisaMsg::Deactivate { symmetric: true }),
                17,
            ),
            (
                StackMsg::Brisa(BrisaMsg::Deactivate { symmetric: false }),
                17,
            ),
            (StackMsg::Brisa(BrisaMsg::Activate), 16),
            (StackMsg::Brisa(BrisaMsg::ReactivationOrder), 16),
            (
                StackMsg::Brisa(BrisaMsg::Retransmit {
                    from_seq: 10,
                    to_seq: 20,
                }),
                32,
            ),
            (StackMsg::Brisa(BrisaMsg::Edge { highest: 599 }), 24),
            // Edge cases: empty node lists.
            (
                StackMsg::Hpv(HpvMsg::Shuffle {
                    origin: NodeId(0),
                    nodes: vec![],
                    ttl: 0,
                }),
                17,
            ),
            (StackMsg::Hpv(HpvMsg::ShuffleReply { nodes: vec![] }), 10),
        ]
    }

    #[test]
    fn stack_roundtrip_every_variant() {
        for (msg, _) in stack_specimens() {
            let frame = msg.encode();
            let back = StackMsg::decode(&frame).expect("decode");
            assert_eq!(back, msg);
            // Re-encoding the decoded value is bit-identical.
            assert_eq!(back.encode(), frame);
        }
    }

    /// `wire_size()` — the encoder over the byte counter — is the length of
    /// the frame the encoder writes, and both are the pinned count.
    #[test]
    fn wire_size_is_encoded_len_for_every_variant() {
        for (msg, bytes) in stack_specimens() {
            assert_eq!(msg.wire_size(), bytes, "wire_size drift for {msg:?}");
            assert_eq!(msg.encode().len(), bytes, "frame length drift for {msg:?}");
        }
    }

    #[test]
    fn truncation_never_panics_and_always_errs() {
        for (msg, _) in stack_specimens() {
            let frame = msg.encode();
            for cut in 0..frame.len() {
                assert!(
                    StackMsg::decode(&frame[..cut]).is_err(),
                    "truncated frame (cut at {cut}) decoded for {msg:?}"
                );
            }
        }
    }

    #[test]
    fn header_corruption_is_rejected() {
        use brisa_simnet::wire::WIRE_VERSION;
        let frame = StackMsg::Hpv(HpvMsg::KeepAlive { nonce: 1 }).encode();
        // Version skew.
        let mut bad = frame.clone();
        bad[4] = WIRE_VERSION + 1;
        assert_eq!(
            StackMsg::decode(&bad),
            Err(WireError::BadVersion(WIRE_VERSION + 1))
        );
        // Unknown protocol, and the retired Cyclon byte.
        for proto in [99, 2] {
            let mut bad = frame.clone();
            bad[5] = proto;
            assert_eq!(StackMsg::decode(&bad), Err(WireError::BadProto(proto)));
        }
        // Unknown kind.
        let mut bad = frame.clone();
        bad[6] = 200;
        assert!(matches!(
            StackMsg::decode(&bad),
            Err(WireError::BadKind { kind: 200, .. })
        ));
        // Length prefix mismatch.
        let mut bad = frame.clone();
        bad[0] ^= 1;
        assert!(StackMsg::decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = frame.clone();
        bad.push(0);
        assert!(StackMsg::decode(&bad).is_err());
    }

    /// Kind tag 4 is unassigned: outside input carrying it is refused, and
    /// every assigned tag keeps its byte.
    #[test]
    fn the_unassigned_kind_is_rejected() {
        let mut frame = StackMsg::Brisa(BrisaMsg::Activate).encode();
        assert_eq!((frame[5], frame[6]), (PROTO, kind::ACTIVATE));
        frame[6] = 4;
        assert_eq!(
            StackMsg::decode(&frame),
            Err(WireError::BadKind {
                proto: PROTO,
                kind: 4
            })
        );
        let tags = [
            kind::DATA,
            kind::DEACTIVATE,
            kind::ACTIVATE,
            kind::REACTIVATION_ORDER,
            kind::RETRANSMIT,
            kind::EDGE,
        ];
        assert_eq!(tags, [0, 1, 2, 3, 5, 6]);
    }

    /// No sender builds an empty path, and one that decoded would place
    /// its receiver at the root: the frame is refused.
    #[test]
    fn an_empty_path_is_rejected() {
        let frame = StackMsg::Brisa(BrisaMsg::data(DataMsg {
            seq: 1,
            payload_bytes: 3,
            guard: CycleGuard::Path(Arc::from([])),
            sender_uptime_secs: 1,
            sender_load: 1,
        }))
        .encode();
        assert_eq!(
            StackMsg::decode(&frame),
            Err(WireError::Corrupt("empty cycle-guard path"))
        );
    }

    #[test]
    fn data_payload_bytes_are_materialised() {
        let msg = BrisaMsg::data(DataMsg {
            seq: 9,
            payload_bytes: 300,
            guard: CycleGuard::Depth(1),
            sender_uptime_secs: 0,
            sender_load: 0,
        });
        let frame = msg.encode();
        assert_eq!(frame.len(), msg.wire_size());
        // The last 300 bytes are the deterministic pattern, across the
        // encoder's 256-byte period.
        let tail = &frame[frame.len() - 300..];
        for (i, &b) in tail.iter().enumerate() {
            assert_eq!(b, 9 ^ (i as u8).wrapping_mul(31));
        }
    }
}
