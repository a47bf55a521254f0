//! Media streaming over a wide-area overlay: a DAG with two parents keeps
//! the stream flowing through individual parent failures without waiting for
//! a repair, at the cost of one controlled duplicate per message.
//!
//! This mirrors the motivation of the paper's introduction (dissemination of
//! digital media / news feeds on the Internet) and Section II-G.
//!
//! Run with: `cargo run -p brisa-bench --release --example media_stream`

use brisa::{ParentStrategy, StructureMode};
use brisa_metrics::PercentileSummary;
use brisa_simnet::SimDuration;
use brisa_workloads::{run_brisa, BrisaScenario, ChurnSpec, StreamSpec, Testbed};

fn main() {
    let base = BrisaScenario {
        nodes: 96,
        view_size: 8,
        strategy: ParentStrategy::DelayAware,
        testbed: Testbed::PlanetLab,
        stream: StreamSpec {
            messages: 150,
            rate_per_sec: 5.0,
            payload_bytes: 10 * 1024,
        },
        churn: Some(ChurnSpec {
            rate_percent: 5.0,
            interval: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(30),
        }),
        bootstrap: SimDuration::from_secs(40),
        drain: SimDuration::from_secs(20),
        ..Default::default()
    };

    println!("streaming 10 KB chunks at 5/s over PlanetLab latencies, 5% churn per 10s\n");
    for (label, mode) in [
        ("tree (1 parent)", StructureMode::Tree),
        ("DAG (2 parents)", StructureMode::Dag { parents: 2 }),
    ] {
        let sc = BrisaScenario {
            mode,
            ..base.clone()
        };
        let result = run_brisa(&sc);
        let churn = result.churn_report(&sc.churn.expect("churn phase configured"));
        let delay =
            PercentileSummary::from_samples(result.nodes.iter().filter_map(|n| n.routing_delay_ms));
        let down = PercentileSummary::from_samples(
            result.non_source().map(|n| n.bandwidth.diss_down_kbps),
        );
        println!("{label}:");
        println!(
            "  completeness {:.1}% | orphans/min {:.1} | soft repairs {:.0}%",
            result.completeness() * 100.0,
            churn.orphans_per_min,
            churn.soft_pct
        );
        println!(
            "  chunk delay p50/p90 = {:.0}/{:.0} ms | download p50 = {:.0} KB/s",
            delay.p50, delay.p90, down.p50
        );
        println!();
    }
    println!("the DAG trades ~2x download for near-zero orphaning: viewers keep playing");
    println!("through churn, while the tree depends on (fast but visible) repairs.");
}
