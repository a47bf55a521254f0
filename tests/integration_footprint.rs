//! The footprint gate: what one simulated node holds on the Streaming path.
//!
//! BRISA's efficiency argument is that a node's dissemination state is
//! small — a short buffer of recent messages, its parents, a path bounded
//! by the tree height — and the scale workloads pay every byte of it once
//! per node. This binary pins the per-structure sizes that make it so and
//! the accounted bytes per node of a 1 000-node run of `sim-scale`'s
//! scenario (DESIGN.md, "What a streaming node holds"). Each assertion
//! names the structure that regressed.

use brisa::{BrisaCore, BrisaNode, MessageBuffer};
use brisa_bench::{BrisaScenario, BrisaStackConfig};
use brisa_membership::HyParView;
use brisa_simnet::{DeliveryLog, DeliveryTracking, NodeId, SimTime};
use brisa_workloads::{scenarios, IntoRunSpec, Runner};
use std::mem::size_of;

/// `Footprint::bytes_per_node()` of [`scale_run`] before the per-node
/// diet (16-byte ring records, a 64-bit histogram inline in every ledger,
/// a per-node action vector, bandwidth and FIFO-clock side tables), read
/// with this binary: 6 623 192 B over 1 000 nodes, of which the event
/// queue, sized by the simulation and not by a node, is 2 268 896.
const BEFORE_BYTES_PER_NODE: f64 = 6_623.2;

/// `sim-scale`'s scenario (5 000 nodes, 50 messages, Streaming results) at
/// 1 000 nodes.
fn scale_run() -> brisa_simnet::Footprint {
    let sc: BrisaScenario = scenarios::scale_no_fault(1_000);
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let result = Runner::<BrisaNode>::new(&cfg, &sc.run_spec()).run();
    let summary = result.streaming.expect("a Streaming run");
    assert_eq!(summary.got, summary.expected, "every message delivered");
    summary.footprint
}

#[test]
fn a_retransmission_record_is_eight_bytes() {
    let mut ring = MessageBuffer::new(64);
    for seq in 0..200 {
        ring.insert(seq, 1024);
    }
    assert_eq!(ring.len(), 64);
    assert_eq!(ring.approx_heap_bytes(), 8 * 64, "the ring's heap");
}

#[test]
fn a_streaming_ledger_holds_a_32_bit_histogram_and_no_times() {
    let mut log = DeliveryLog::new(DeliveryTracking::Counters {
        stream_start_us: 0,
        interval_us: 200_000,
    });
    for seq in 0..50 {
        log.record(seq, SimTime::from_micros(seq * 200_000 + 1_500));
    }
    assert_eq!(log.latency_hist().count(), 50);
    // Cursor, counters and bitmap header (96 B), the publish schedule and
    // the mode's tag (24 B), and the histogram: 64 buckets of 32 bits plus
    // a 64-bit count, sum and maximum, at most 300 B.
    let inline = size_of::<DeliveryLog>();
    assert!(inline <= 96 + 24 + 300, "the ledger is {inline} B inline");
    assert!(
        log.heap_bytes() <= 32,
        "the bitmap's first allocation and no times vector: {} B",
        log.heap_bytes()
    );
}

#[test]
fn a_brisa_node_is_its_two_layers_and_its_contact() {
    // No action buffer: the core's effects go straight into the
    // simulator's command buffer.
    assert_eq!(
        size_of::<BrisaNode>(),
        size_of::<HyParView>() + size_of::<BrisaCore>() + size_of::<Option<NodeId>>(),
    );
}

#[test]
fn telemetry_handles_cost_one_pointer_per_layer_when_telemetry_is_off() {
    // Boxed and absent unless a registry is attached: BRISA's fourteen
    // handles (112 B inline before) and HyParView's four (32 B) are one
    // 8-byte `Option<Box<_>>` each, so every node's slot is 128 B (two
    // cache lines) shorter. The event loop prefetches the whole slot.
    let core = size_of::<BrisaCore>();
    let hpv = size_of::<HyParView>();
    assert!(
        core <= 912,
        "BrisaCore is {core} B inline (1 016 with inline handles)"
    );
    assert!(
        hpv <= 296,
        "HyParView is {hpv} B inline (320 with inline handles)"
    );
}

#[test]
fn sim_scale_bytes_per_node_are_900_below_the_old_reading() {
    let f = scale_run();
    let per_node = f.bytes_per_node();
    assert!(
        per_node <= BEFORE_BYTES_PER_NODE - 900.0,
        "{per_node:.1} B per node against {BEFORE_BYTES_PER_NODE} before the diet: {f:?}"
    );
}
