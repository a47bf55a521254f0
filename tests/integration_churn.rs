//! Integration tests of BRISA's behaviour under churn (Table I / Figure 14
//! territory): repairs complete, the stream keeps flowing, and DAGs orphan
//! far less often than trees.

use brisa::StructureMode;
use brisa_simnet::SimDuration;
use brisa_workloads::{run_brisa, BrisaScenario, ChurnSpec, StreamSpec};

fn churn_spec(rate_percent: f64) -> ChurnSpec {
    ChurnSpec {
        rate_percent,
        interval: SimDuration::from_secs(10),
        duration: SimDuration::from_secs(40),
    }
}

fn churn_scenario(nodes: u32, rate_percent: f64, mode: StructureMode) -> BrisaScenario {
    BrisaScenario {
        nodes,
        view_size: 4,
        mode,
        stream: StreamSpec {
            messages: 60,
            rate_per_sec: 5.0,
            payload_bytes: 256,
        },
        churn: Some(churn_spec(rate_percent)),
        bootstrap: SimDuration::from_secs(25),
        drain: SimDuration::from_secs(20),
        ..Default::default()
    }
}

#[test]
fn tree_under_churn_repairs_and_keeps_delivering() {
    let sc = churn_scenario(64, 5.0, StructureMode::Tree);
    let result = run_brisa(&sc);
    let churn = result.churn_report(&churn_spec(5.0));
    assert!(churn.failures_injected > 0);
    assert!(churn.parents_lost_per_min > 0.0, "failures cost parents");
    assert!(
        churn.soft_repairs + churn.hard_repairs > 0,
        "orphans repaired their connectivity"
    );
    assert!(
        result.completeness() > 0.85,
        "original nodes still deliver (completeness {})",
        result.completeness()
    );
    // Repair delays were recorded for the repairs that happened.
    assert_eq!(
        churn.soft_delays_ms.len() as u64 + churn.hard_delays_ms.len() as u64,
        churn.soft_repairs + churn.hard_repairs
    );
}

#[test]
fn dag_orphans_less_than_tree_under_equal_churn() {
    let tree = run_brisa(&churn_scenario(64, 5.0, StructureMode::Tree));
    let dag = run_brisa(&churn_scenario(64, 5.0, StructureMode::Dag { parents: 2 }));
    let tree_churn = tree.churn_report(&churn_spec(5.0));
    let dag_churn = dag.churn_report(&churn_spec(5.0));
    // The headline claim of Table I: multiple parents drastically reduce
    // orphaning even though more parent links are lost overall.
    assert!(
        dag_churn.orphans_per_min <= tree_churn.orphans_per_min,
        "DAG orphans/min ({}) must not exceed the tree's ({})",
        dag_churn.orphans_per_min,
        tree_churn.orphans_per_min
    );
    assert!(
        dag_churn.parents_lost_per_min >= tree_churn.orphans_per_min,
        "DAGs hold more parent links overall"
    );
}

#[test]
fn soft_repairs_dominate_in_well_connected_overlays() {
    let sc = churn_scenario(96, 3.0, StructureMode::Tree);
    let result = run_brisa(&sc);
    let churn = result.churn_report(&churn_spec(3.0));
    if churn.soft_repairs + churn.hard_repairs >= 5 {
        assert!(
            churn.soft_pct >= 50.0,
            "most disconnections repair softly (got {:.0}% soft)",
            churn.soft_pct
        );
    }
}

#[test]
fn late_joiners_attach_and_receive_the_tail_of_the_stream() {
    let sc = churn_scenario(48, 5.0, StructureMode::Tree);
    let result = run_brisa(&sc);
    let late: Vec<_> = result
        .nodes
        .iter()
        .filter(|n| n.id.0 >= result.original_nodes)
        .collect();
    assert!(!late.is_empty(), "churn joins added nodes");
    let attached = late
        .iter()
        .filter(|n| !n.report.parents.is_empty() || n.report.delivered > 0)
        .count();
    assert!(
        attached * 2 >= late.len(),
        "most late joiners attached to the structure ({attached}/{})",
        late.len()
    );
}
