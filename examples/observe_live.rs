//! Live cluster observability: a 32-node TCP cluster with an enabled
//! telemetry handle, narrated once per second from the registry.
//!
//! The telemetry subsystem (crates/telemetry) is strictly out-of-band —
//! the cluster behaves bit-identically with the handle disabled — so this
//! example is purely additive observation: while a stream disseminates,
//! every second it reads the registry's counters and gauges and prints
//! deliveries/s, the outstanding orphan count, reactor inbox depths and
//! backpressure stalls. At the end it prints a registry snapshot line and
//! a sample of the flight recorder's structured events.
//!
//! ```sh
//! cargo run --release --example observe_live
//! ```

use brisa::{BrisaConfig, BrisaNode};
use brisa_membership::HyParViewConfig;
use brisa_runtime::{Cluster, ClusterConfig, RuntimeConfig};
use brisa_telemetry::Telemetry;
use brisa_workloads::BrisaStackConfig;
use std::time::Duration;

const NODES: u32 = 32;
const MESSAGES: u64 = 40;
const PAYLOAD: usize = 512;
const WORKERS: usize = 4;

/// Sum of a per-worker gauge family (`reactor.w{i}.<leaf>`).
fn worker_sum(tel: &Telemetry, leaf: &str) -> u64 {
    (0..WORKERS)
        .map(|i| tel.gauge(&format!("reactor.w{i}.{leaf}")).get())
        .sum()
}

fn main() {
    println!("=== observe_live — {NODES} BRISA nodes over TCP, telemetry attached\n");

    let telemetry = Telemetry::enabled();
    let cfg = ClusterConfig {
        nodes: NODES,
        seed: 0xB215A,
        runtime: RuntimeConfig {
            workers: WORKERS,
            ..RuntimeConfig::default()
        },
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let stack = BrisaStackConfig {
        hpv: HyParViewConfig::with_active_size(4),
        brisa: BrisaConfig::default(),
    };
    let mut cluster: Cluster<BrisaNode> =
        Cluster::launch(&cfg, &stack).expect("bind listeners and launch nodes");
    println!(
        "cluster up: {} nodes, overlay forming...\n",
        cluster.alive()
    );
    cluster.run_for(Duration::from_secs(1));

    // Publish at ~4/s while the ticker below narrates the registry.
    println!("  sec | deliveries/s | orphans | inbox depth | bp stalls | links reaped");
    println!("  ----+--------------+---------+-------------+-----------+-------------");
    let mut published = 0u64;
    let mut last_delivered = telemetry.counter("brisa.delivered").get();
    for sec in 1..=12u64 {
        for _ in 0..4 {
            if published < MESSAGES {
                cluster.publish(PAYLOAD);
                published += 1;
            }
            cluster.run_for(Duration::from_millis(250));
        }
        cluster.publish_telemetry();
        let delivered = telemetry.counter("brisa.delivered").get();
        let orphans = telemetry
            .counter("brisa.orphans")
            .get()
            .saturating_sub(telemetry.counter("brisa.orphan_heals").get());
        println!(
            "  {sec:3} | {:12} | {orphans:7} | {:11} | {:9} | {:12}",
            delivered - last_delivered,
            worker_sum(&telemetry, "inbox_depth"),
            telemetry.counter("reactor.backpressure_stalls").get(),
            telemetry.counter("reactor.links_reaped").get(),
        );
        last_delivered = delivered;
    }

    let complete = cluster.wait_for_delivery(MESSAGES, Duration::from_secs(30));
    let result = cluster.stop_and_collect();
    println!(
        "\ndelivery rate: {:.1}%{}",
        result.delivery_rate() * 100.0,
        if complete { "" } else { " — INCOMPLETE" },
    );

    // The registry snapshot is one JSON line — what bench_soak's ticker
    // appends to TELEMETRY_SOAK.jsonl every second.
    println!(
        "\nregistry snapshot:\n{}",
        telemetry.snapshot_jsonl(u64::MAX)
    );

    // And the flight recorder holds the structured event history (ring-
    // bounded per shard); show the last few.
    let events = telemetry.dump_events_jsonl(0);
    let lines: Vec<&str> = events.lines().collect();
    println!(
        "\nflight recorder: {} events retained; last 5:",
        lines.len()
    );
    for line in lines.iter().rev().take(5).rev() {
        println!("  {line}");
    }
}
