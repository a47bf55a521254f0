//! Quickstart: run a small BRISA experiment through the generic engine and
//! inspect the emerged dissemination tree.
//!
//! This is the smallest end-to-end use of the public experiment API:
//! describe the run with a [`BrisaScenario`], execute it with [`run_brisa`]
//! (`Runner::<BrisaNode>` in one line), and read per-node metrics off the
//! `EngineResult`'s `NodeOutcome`s. The same engine drives every experiment
//! of `brisa-bench`'s `repro`.
//!
//! Run with: `cargo run -p brisa-bench --release --example quickstart`

use brisa_simnet::SimDuration;
use brisa_workloads::{run_brisa, BrisaScenario, StreamSpec};

fn main() {
    // 1. Describe the experiment: 32 nodes on the cluster testbed, twenty
    //    1 KB messages at 5/s, no churn.
    let scenario = BrisaScenario {
        nodes: 32,
        view_size: 4,
        stream: StreamSpec {
            messages: 20,
            rate_per_sec: 5.0,
            payload_bytes: 1024,
        },
        bootstrap: SimDuration::from_secs(20),
        drain: SimDuration::from_secs(5),
        ..Default::default()
    };

    // 2. Run it. Bootstrap, stream injection and metric collection all
    //    happen inside the generic engine.
    let result = run_brisa(&scenario);

    // 3. Inspect what emerged.
    println!("node  parent  depth  children  delivered  dup/msg");
    for n in &result.nodes {
        let report = &n.report;
        println!(
            "{:>4}  {:>6}  {:>5}  {:>8}  {:>9}  {:>7.2}",
            n.id.to_string(),
            report
                .parents
                .first()
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into()),
            report
                .depth
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            report.degree,
            report.delivered,
            report.duplicates_per_message,
        );
    }
    let total_dup: f64 = result
        .nodes
        .iter()
        .map(|n| n.report.duplicates_per_message * n.report.delivered as f64)
        .sum();
    println!(
        "\n{} nodes, {} messages, completeness {:.1}%, ~{:.0} duplicate receptions in total",
        scenario.nodes,
        result.messages_published,
        result.completeness() * 100.0,
        total_dup
    );
    println!("(duplicates stem from the bootstrap flood of the first message only)");
    assert!(
        result.structure().is_acyclic(),
        "the emerged structure must be a tree"
    );
}
