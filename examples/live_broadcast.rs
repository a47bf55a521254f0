//! Live broadcast over real TCP sockets.
//!
//! Boots a 32-node BRISA cluster on `127.0.0.1` — every node on the
//! reactor's worker threads, every link a real socket, every message a
//! codec frame — publishes a short stream from node 0 and prints the
//! injection-to-delivery latency percentiles.
//!
//! ```sh
//! cargo run --release --example live_broadcast
//! ```

use brisa::{BrisaConfig, BrisaNode};
use brisa_membership::HyParViewConfig;
use brisa_metrics::percentile::percentile_of_sorted;
use brisa_metrics::PercentileSummary;
use brisa_runtime::{Cluster, ClusterConfig};
use brisa_workloads::{BrisaStackConfig, Population};
use std::time::Duration;

const NODES: u32 = 32;
const MESSAGES: u64 = 20;
const PAYLOAD: usize = 1024;

fn main() {
    println!("=== live_broadcast — {NODES} BRISA nodes over TCP on 127.0.0.1\n");

    let cfg = ClusterConfig {
        nodes: NODES,
        seed: 0xB215A,
        ..Default::default()
    };
    let stack = BrisaStackConfig {
        hpv: HyParViewConfig::with_active_size(4),
        brisa: BrisaConfig::default(),
    };
    let mut cluster: Cluster<BrisaNode> =
        Cluster::launch(&cfg, &stack).expect("bind listeners and launch nodes");
    println!("cluster up: {} nodes, overlay forming...", cluster.alive());
    cluster.run_for(Duration::from_millis(500));

    println!(
        "publishing {MESSAGES} x {PAYLOAD} B from {}...",
        cluster.source()
    );
    for _ in 0..MESSAGES {
        cluster.publish(PAYLOAD);
        cluster.run_for(Duration::from_millis(40));
    }
    let complete = cluster.wait_for_delivery(MESSAGES, Duration::from_secs(30));
    let result = cluster.stop_and_collect();

    println!(
        "\ndelivery rate: {:.1}% ({} nodes x {} messages{})",
        result.delivery_rate() * 100.0,
        NODES - 1,
        MESSAGES,
        if complete { "" } else { " — INCOMPLETE" },
    );
    let (frames, bytes) = result.frames_and_bytes_out();
    println!(
        "traffic: {frames} frames, {:.2} MB through the wire codec",
        bytes as f64 / 1.0e6
    );

    let samples = result.view().latencies_ms(Population::Survivors);
    let summary = PercentileSummary::from_samples(samples.iter().copied());
    println!(
        "\ndelivery latency over {} (node, message) pairs:",
        summary.count
    );
    for (level, value) in summary.levels() {
        println!("  p{level:<4} {value:>8.3} ms");
    }
    println!("  p99  {:>8.3} ms", percentile_of_sorted(&samples, 99.0));
    println!("  mean {:>8.3} ms", summary.mean);

    result
        .check_delivery_invariants()
        .expect("live trace passes the delivery invariants");
    println!("\ndelivery invariants: clean");
}
