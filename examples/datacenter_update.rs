//! Datacenter software-update push: disseminate a large payload to every
//! machine with minimal duplicate traffic, and compare BRISA against naive
//! flooding and SimpleGossip on the same cluster.
//!
//! This mirrors the paper's second motivating workload (software updates in
//! a datacenter infrastructure).
//!
//! Run with: `cargo run -p brisa-bench --release --example datacenter_update`

use brisa_workloads::{
    run_brisa, run_flood, run_simple_gossip, BaselineScenario, BrisaScenario, StreamSpec, Testbed,
};

fn main() {
    let nodes = 128u32;
    // One "update" = 50 chunks of 50 KB pushed at 5 chunks/s.
    let stream = StreamSpec {
        messages: 50,
        rate_per_sec: 5.0,
        payload_bytes: 50 * 1024,
    };

    println!(
        "pushing a {} MB update to {} machines\n",
        50 * 50 / 1024,
        nodes
    );

    let brisa_sc = BrisaScenario {
        nodes,
        view_size: 4,
        stream,
        testbed: Testbed::Cluster,
        ..Default::default()
    };
    let brisa_run = run_brisa(&brisa_sc);
    let baseline_sc = BaselineScenario {
        nodes,
        view_size: 4,
        stream,
        ..Default::default()
    };
    let flood = run_flood(&baseline_sc);
    let gossip = run_simple_gossip(&baseline_sc);

    for (label, run) in [
        ("BRISA tree  ", &brisa_run),
        ("flooding    ", &flood),
        ("SimpleGossip", &gossip),
    ] {
        println!(
            "{label} : completeness {:.1}% | total data sent across the cluster {:.0} MB",
            run.completeness() * 100.0,
            run.mean_uploaded_mb() * run.nodes.len() as f64
        );
    }
    println!();
    println!("every protocol delivers the update everywhere; BRISA does it with one copy");
    println!("per machine plus a one-off bootstrap flood, while flooding and gossip pay a");
    println!("duplicate factor proportional to the view size / fanout.");
}
