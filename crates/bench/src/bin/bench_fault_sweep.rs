//! Fault sweep: BRISA's reliability under adversarial network conditions.
//!
//! Two sweeps, both driven through the generic engine with the full online
//! invariant suite active:
//!
//! 1. **loss** — delivery rate and recovery traffic vs. per-link Bernoulli
//!    loss (0 % control to 5 %), at the paper's streaming rate. The
//!    acceptance bar: >= 99 % delivery at 1 % loss through the gossip
//!    substrate's gap-recovery retransmissions.
//! 2. **partition** — a quarter of the population cut from the source for
//!    5/10/20 s (5/10 at quick scale) and then healed: per-duration
//!    delivery rate, worst island reconnect time (first post-heal
//!    delivery) and worst catch-up time (island fully recovered).
//!
//! Every run must pass the online invariant checker — adversity is exactly
//! where fault-layer bugs would hide.
//!
//! Results go to `BENCH_PR3.json` (override with `BRISA_BENCH_OUT`); the
//! schema is documented in DESIGN.md. CI uploads the file as an artifact.

use brisa::BrisaNode;
use brisa_bench::{banner, run_matrix, BrisaScenario, BrisaStackConfig, EngineResult, Scale};
use brisa_simnet::{SimDuration, SimTime};
use brisa_workloads::{scenarios, IntoRunSpec, InvariantSuite, Runner};
use std::fmt::Write as _;

/// Runs one cell with the online invariant suite and asserts cleanliness.
fn run_checked_cell(sc: &BrisaScenario) -> EngineResult {
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let mut suite = InvariantSuite::standard(Some(sc.brisa_config().mode.target_parents()));
    let result = Runner::<BrisaNode>::new(&cfg, &sc.run_spec())
        .invariants(&mut suite)
        .run();
    suite.assert_clean();
    result
}

struct LossRow {
    loss_rate: f64,
    delivery: f64,
    lost: u64,
    gap_requests: u64,
    retransmissions: u64,
}

struct PartitionRow {
    duration_secs: f64,
    delivery: f64,
    cut: u64,
    reconnect_secs: f64,
    catch_up_secs: f64,
}

/// Aggregate recovery traffic: `(gap requests issued, retransmissions
/// served)` over all live nodes.
fn recovery_traffic(r: &EngineResult) -> (u64, u64) {
    r.nodes.iter().fold((0, 0), |(req, served), n| {
        (
            req + n.report.repairs.gap_requests,
            served + n.report.repairs.retransmissions_served,
        )
    })
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "bench_fault_sweep",
        "delivery and repair under loss and partitions (invariant-checked, both schedulers)",
        scale,
    );

    // --- Loss sweep.
    let loss_cells = scenarios::fault_loss_sweep(scale);
    let loss_results = run_matrix(&loss_cells, |_, (_, sc)| run_checked_cell(sc));
    let mut loss_rows = Vec::new();
    println!("loss sweep ({} nodes):", loss_cells[0].1.nodes);
    println!("  loss%   delivery%   lost msgs");
    for ((loss_rate, _), r) in loss_cells.iter().zip(&loss_results) {
        let (gap_requests, retransmissions) = recovery_traffic(r);
        let row = LossRow {
            loss_rate: *loss_rate,
            delivery: r.delivery_rate(),
            lost: r.net_stats.messages_lost_to_faults,
            gap_requests,
            retransmissions,
        };
        println!(
            "  {:>5.1}   {:>8.3}%   {:>9}   ({} gap requests, {} retransmissions served)",
            row.loss_rate * 100.0,
            row.delivery * 100.0,
            row.lost,
            row.gap_requests,
            row.retransmissions
        );
        loss_rows.push(row);
    }
    let one_pct = loss_rows
        .iter()
        .find(|r| (r.loss_rate - 0.01).abs() < 1e-12)
        .expect("1% cell in the sweep");
    let target_met = one_pct.delivery >= 0.99;
    println!(
        "  acceptance: delivery at 1% loss = {:.3}% (target >= 99%): {}",
        one_pct.delivery * 100.0,
        if target_met { "met" } else { "NOT MET" }
    );

    // --- Partition sweep.
    let partition_cells = scenarios::fault_partition_sweep(scale);
    let partition_results = run_matrix(&partition_cells, |_, (_, sc)| run_checked_cell(sc));
    let mut partition_rows = Vec::new();
    println!();
    println!(
        "partition sweep ({} nodes, 25% island):",
        partition_cells[0].1.nodes
    );
    println!("  cut(s)   delivery%   cut msgs   reconnect(s)   catch-up(s)");
    for ((duration, sc), r) in partition_cells.iter().zip(&partition_results) {
        let phase = sc.faults.partition.expect("partition cell");
        let island = phase.island(sc.nodes);
        let stream_start = r.churn_window.0;
        let heal = stream_start + phase.start_after + *duration;
        let first_post_heal_seq = r
            .publish_times
            .iter()
            .position(|t| *t >= heal)
            .expect("stream outlasts the heal") as u64;
        let mut reconnect = SimDuration::ZERO;
        let mut catch_up = SimDuration::ZERO;
        for id in &island {
            let Some(node) = r.nodes.iter().find(|n| n.id == *id) else {
                continue;
            };
            let first_after = node
                .report
                .first_delivery
                .iter()
                .filter(|(seq, _)| *seq >= first_post_heal_seq)
                .map(|(_, t)| *t)
                .min()
                .unwrap_or(SimTime::ZERO + SimDuration::from_secs(3600));
            reconnect = reconnect.max(first_after.saturating_since(heal));
            // Catch-up: when the holes opened by the cut closed — the last
            // first-delivery of a message published *before* the heal.
            // (Messages delivered in order pre-partition have timestamps
            // before the heal and saturate to zero.)
            let holes_closed = node
                .report
                .first_delivery
                .iter()
                .filter(|(seq, _)| *seq < first_post_heal_seq)
                .map(|(_, t)| *t)
                .max()
                .unwrap_or(SimTime::ZERO);
            catch_up = catch_up.max(holes_closed.saturating_since(heal));
        }
        let row = PartitionRow {
            duration_secs: duration.as_secs_f64(),
            delivery: r.delivery_rate(),
            cut: r.net_stats.messages_cut_by_partition,
            reconnect_secs: reconnect.as_secs_f64(),
            catch_up_secs: catch_up.as_secs_f64(),
        };
        println!(
            "  {:>6.0}   {:>8.3}%   {:>8}   {:>12.3}   {:>11.3}",
            row.duration_secs,
            row.delivery * 100.0,
            row.cut,
            row.reconnect_secs,
            row.catch_up_secs
        );
        partition_rows.push(row);
    }

    // --- JSON artifact.
    let mut loss_json = String::new();
    for (i, row) in loss_rows.iter().enumerate() {
        if i > 0 {
            loss_json.push_str(",\n");
        }
        write!(
            loss_json,
            r#"    {{"loss_rate": {:.4}, "delivery_rate": {:.6}, "messages_lost_to_faults": {}, "gap_requests": {}, "retransmissions_served": {}}}"#,
            row.loss_rate, row.delivery, row.lost, row.gap_requests, row.retransmissions
        )
        .unwrap();
    }
    let mut partition_json = String::new();
    for (i, row) in partition_rows.iter().enumerate() {
        if i > 0 {
            partition_json.push_str(",\n");
        }
        write!(
            partition_json,
            r#"    {{"partition_secs": {:.1}, "delivery_rate": {:.6}, "messages_cut": {}, "reconnect_secs": {:.3}, "catch_up_secs": {:.3}}}"#,
            row.duration_secs, row.delivery, row.cut, row.reconnect_secs, row.catch_up_secs
        )
        .unwrap();
    }
    let json = format!(
        r#"{{
  "schema": "brisa-bench-pr3/v1",
  "generated_by": "bench_fault_sweep",
  "scale": "{scale:?}",
  "invariants": {{"suite": ["no-duplicate-delivery", "tree-validity", "link-clock-monotonicity"], "violations": 0}},
  "loss_sweep": [
{loss_json}
  ],
  "partition_sweep": [
{partition_json}
  ],
  "acceptance": {{"loss_1pct_delivery": {:.6}, "target": 0.99, "target_met": {target_met}}}
}}
"#,
        one_pct.delivery,
    );
    let out_path =
        std::env::var("BRISA_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR3.json".to_string());
    std::fs::write(&out_path, json).expect("write bench result file");
    println!();
    println!("wrote {out_path}");
    assert!(target_met, "acceptance bar not met: 1% loss delivery");
}
