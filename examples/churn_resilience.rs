//! Churn resilience: reproduce, at example scale, the Table I experiment —
//! how the emerged tree and a 2-parent DAG behave while 5% of the nodes are
//! replaced every minute.
//!
//! The two structure cells are independent simulations, so this example
//! also demonstrates the parallel sweep API: `run_matrix` fans the cells
//! across threads and returns results in cell order, bit-identical to a
//! sequential loop.
//!
//! Run with: `cargo run -p brisa-bench --release --example churn_resilience`

use brisa::StructureMode;
use brisa_simnet::SimDuration;
use brisa_workloads::{run_brisa, run_matrix, BrisaScenario, ChurnSpec, StreamSpec};

fn main() {
    let churn = ChurnSpec {
        rate_percent: 5.0,
        interval: SimDuration::from_secs(30),
        duration: SimDuration::from_secs(120),
    };
    let base = BrisaScenario {
        nodes: 96,
        view_size: 4,
        stream: StreamSpec {
            messages: 300,
            rate_per_sec: 5.0,
            payload_bytes: 1024,
        },
        churn: Some(churn),
        bootstrap: SimDuration::from_secs(40),
        drain: SimDuration::from_secs(30),
        ..Default::default()
    };

    let cells = [
        ("Tree", StructureMode::Tree),
        ("DAG, 2 parents", StructureMode::Dag { parents: 2 }),
    ]
    .map(|(label, mode)| {
        (
            label,
            BrisaScenario {
                mode,
                ..base.clone()
            },
        )
    });

    println!("96 nodes, 5% churn per 30 s for 2 minutes, 1 KB messages at 5/s\n");
    println!(
        "{:<16} {:>16} {:>12} {:>12} {:>12} {:>14}",
        "structure", "parents lost/min", "orphans/min", "% soft", "% hard", "completeness %"
    );
    let results = run_matrix(&cells, |_, (_, sc)| run_brisa(sc));
    for ((label, _), result) in cells.iter().zip(&results) {
        let churn = result.churn_report(&churn);
        println!(
            "{:<16} {:>16.1} {:>12.1} {:>12.1} {:>12.1} {:>14.1}",
            label,
            churn.parents_lost_per_min,
            churn.orphans_per_min,
            churn.soft_pct,
            churn.hard_pct,
            result.completeness() * 100.0
        );
    }
    println!();
    println!("as in Table I of the paper: the DAG loses parents more often (it has more of");
    println!("them) but is almost never fully disconnected, and nearly all disconnections");
    println!("are repaired with the cheap soft mechanism.");
}
