//! Property tests of the wire codec: arbitrary [`StackMsg`] values
//! roundtrip bit-identically, `wire_size()` is the encoded length, and no
//! truncation or byte corruption can make the decoder panic.

use brisa::{BrisaMsg, CycleGuard, DataMsg, StackMsg};
use brisa_membership::HpvMsg;
use brisa_runtime::wire::WireCodec;
use brisa_simnet::{NodeId, WireSize};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::Union;

fn node() -> impl Strategy<Value = NodeId> + 'static {
    (0u32..100_000).prop_map(NodeId)
}

fn guard() -> Union<CycleGuard> {
    prop_oneof![
        vec(node(), 1..12).prop_map(|path| CycleGuard::Path(path.into())),
        (0u32..1000).prop_map(CycleGuard::Depth),
    ]
}

fn hpv() -> Union<StackMsg> {
    prop_oneof![
        Just(StackMsg::Hpv(HpvMsg::Join)),
        (node(), 0u8..16)
            .prop_map(|(new_node, ttl)| StackMsg::Hpv(HpvMsg::ForwardJoin { new_node, ttl })),
        any::<bool>().prop_map(|high_priority| StackMsg::Hpv(HpvMsg::Neighbor { high_priority })),
        any::<bool>().prop_map(|accepted| StackMsg::Hpv(HpvMsg::NeighborReply { accepted })),
        Just(StackMsg::Hpv(HpvMsg::Disconnect)),
        (node(), vec(node(), 0..16), 0u8..16)
            .prop_map(|(origin, nodes, ttl)| StackMsg::Hpv(HpvMsg::Shuffle { origin, nodes, ttl })),
        vec(node(), 0..16).prop_map(|nodes| StackMsg::Hpv(HpvMsg::ShuffleReply { nodes })),
        any::<u64>().prop_map(|nonce| StackMsg::Hpv(HpvMsg::KeepAlive { nonce })),
        any::<u64>().prop_map(|nonce| StackMsg::Hpv(HpvMsg::KeepAliveAck { nonce })),
    ]
}

fn brisa() -> Union<StackMsg> {
    prop_oneof![
        (
            (any::<u64>(), 0usize..4096),
            (0u32..100_000, 0u16..500),
            guard()
        )
            .prop_map(
                |((seq, payload_bytes), (sender_uptime_secs, sender_load), guard)| {
                    StackMsg::Brisa(BrisaMsg::data(DataMsg {
                        seq,
                        payload_bytes,
                        guard,
                        sender_uptime_secs,
                        sender_load,
                    }))
                }
            ),
        any::<bool>().prop_map(|symmetric| StackMsg::Brisa(BrisaMsg::Deactivate { symmetric })),
        Just(StackMsg::Brisa(BrisaMsg::Activate)),
        Just(StackMsg::Brisa(BrisaMsg::ReactivationOrder)),
        (any::<u64>(), any::<u64>()).prop_map(|(from_seq, to_seq)| StackMsg::Brisa(
            BrisaMsg::Retransmit { from_seq, to_seq }
        )),
        any::<u64>().prop_map(|highest| StackMsg::Brisa(BrisaMsg::Edge { highest })),
    ]
}

fn stack_msg() -> Union<StackMsg> {
    prop_oneof![hpv(), brisa()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Encode → decode is the identity, re-encoding is bit-identical, and
    /// the encoded length is exactly `wire_size()`.
    #[test]
    fn roundtrip_is_bit_identical(msg in stack_msg()) {
        let frame = msg.encode();
        prop_assert_eq!(frame.len(), msg.wire_size());
        let back = StackMsg::decode(&frame).expect("well-formed frame decodes");
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(back.encode(), frame);
    }

    /// Every proper prefix of a frame is rejected — with an error, not a
    /// panic.
    #[test]
    fn truncation_is_rejected(msg in stack_msg(), frac in 0.0f64..1.0) {
        let frame = msg.encode();
        let cut = ((frame.len() as f64) * frac) as usize; // always < len
        prop_assert!(StackMsg::decode(&frame[..cut]).is_err());
    }

    /// Flipping any single byte never panics the decoder. (It may still
    /// decode — flips in reserved bytes, the payload pattern or value
    /// fields produce a different but well-formed message.)
    #[test]
    fn corruption_never_panics(msg in stack_msg(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut frame = msg.encode();
        let pos = ((frame.len() as f64) * pos_frac) as usize;
        frame[pos] ^= 1 << bit;
        if let Ok(decoded) = StackMsg::decode(&frame) {
            // A surviving frame must still be internally consistent.
            let _ = decoded.encode();
        }
    }

    /// Garbage of any length never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in vec(any::<u8>(), 0..64)) {
        let _ = StackMsg::decode(&bytes);
    }
}
