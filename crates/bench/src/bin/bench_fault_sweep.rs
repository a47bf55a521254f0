//! Fault sweep: BRISA's reliability under adversarial network conditions.
//!
//! Two sweeps, both driven through the generic engine with the full online
//! invariant suite active:
//!
//! 1. **loss** — delivery rate and recovery traffic vs. per-link Bernoulli
//!    loss (0 % control to 5 %), at the paper's streaming rate, recovered
//!    through the gossip substrate's gap-recovery retransmissions.
//! 2. **partition** — a quarter of the population cut from the source for
//!    5/10/20 s (5/10 at quick scale) and then healed: per-duration
//!    delivery rate, worst island reconnect time (first post-heal
//!    delivery) and worst catch-up time (island fully recovered).
//!
//! Every run must pass the online invariant checker — adversity is exactly
//! where fault-layer bugs would hide — and deliver at least
//! [`DELIVERY_FLOOR`] ([`BEYOND_BUFFER_FLOOR`] for a cut that outlasts the
//! retransmission buffer); the binary asserts both.

use brisa::BrisaNode;
use brisa_bench::{run_matrix, BrisaScenario, BrisaStackConfig, EngineResult, Scale};
use brisa_simnet::{SimDuration, SimTime};
use brisa_workloads::{scenarios, IntoRunSpec, InvariantSuite, Population, Runner};

/// Delivery floor of every loss cell and of every partition cell whose cut
/// fits the retransmission buffer. All of them read 1.0 at both scales, so
/// the floor has headroom for a seed change, not for a recovery regression.
const DELIVERY_FLOOR: f64 = 0.99;

/// Floor of a partition cell whose cut publishes more messages than
/// `BrisaConfig::buffer_size` holds: gap recovery cannot reach behind the
/// buffer, so the island loses part of the cut by design. One such cell
/// exists (20 s at full scale: 100 messages against a 64-message buffer)
/// and reads 0.9206.
const BEYOND_BUFFER_FLOOR: f64 = 0.90;

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

fn main() {
    let scale = Scale::from_env();
    println!(
        "=== bench_fault_sweep — delivery and repair under loss and partitions \
         (invariant-checked), scale {scale:?}\n"
    );

    // --- Loss sweep.
    let loss_cells = scenarios::fault_loss_sweep(scale);
    let loss_results = run_matrix(&loss_cells, |_, (_, sc)| run_checked_cell(sc));
    println!("loss sweep ({} nodes):", loss_cells[0].1.nodes);
    println!("  loss%   delivery%   lost msgs");
    for ((loss_rate, _), r) in loss_cells.iter().zip(&loss_results) {
        let recovery = r.view().recovery(Population::All);
        println!(
            "  {:>5.1}   {:>8.3}%   {:>9}   ({} gap requests, {} retransmissions served)",
            loss_rate * 100.0,
            r.delivery_rate() * 100.0,
            r.net_stats.messages_lost_to_faults,
            recovery.gap_requests,
            recovery.retransmissions_served,
        );
        assert!(
            r.delivery_rate() >= DELIVERY_FLOOR,
            "delivery {:.6} at {:.1}% loss is below the {DELIVERY_FLOOR} floor",
            r.delivery_rate(),
            loss_rate * 100.0
        );
    }

    // --- Partition sweep.
    let partition_cells = scenarios::fault_partition_sweep(scale);
    let partition_results = run_matrix(&partition_cells, |_, (_, sc)| run_checked_cell(sc));
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
        println!(
            "  {:>6.0}   {:>8.3}%   {:>8}   {:>12.3}   {:>11.3}",
            duration.as_secs_f64(),
            r.delivery_rate() * 100.0,
            r.net_stats.messages_cut_by_partition,
            reconnect.as_secs_f64(),
            catch_up.as_secs_f64()
        );
        let cut_messages = sc.stream.rate_per_sec * duration.as_secs_f64();
        let floor = if cut_messages <= sc.brisa_config().buffer_size as f64 {
            DELIVERY_FLOOR
        } else {
            BEYOND_BUFFER_FLOOR
        };
        assert!(
            r.delivery_rate() >= floor,
            "delivery {:.6} after a {:.0}s partition is below the {floor} floor",
            r.delivery_rate(),
            duration.as_secs_f64()
        );
    }
    println!();
    println!("bench_fault_sweep: every cell invariant-clean and at or above its delivery floor");
}
