//! Integration tests of the fault-injection subsystem and the online
//! invariant checker: zero-rate faults are bit-identical to a fault-free
//! run, BRISA survives per-link loss via gossip-substrate gap recovery,
//! and a partition-then-heal scenario reconnects — all under the online
//! invariant suite.

use brisa::BrisaNode;
use brisa_simnet::SimDuration;
use brisa_workloads::{
    scenarios, BrisaScenario, BrisaStackConfig, EngineResult, FaultSpec, IntoRunSpec,
    InvariantSuite, Population, Runner, StreamSpec,
};

fn stack_config(sc: &BrisaScenario) -> BrisaStackConfig {
    BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    }
}

/// Satellite: `FaultSpec::default()` (zero-rate faults) must be
/// bit-identical to a run without the fault layer — the injection layer is
/// pay-for-what-you-use.
#[test]
fn zero_rate_faults_are_bit_identical_to_fault_free() {
    let base = BrisaScenario {
        stream: StreamSpec::short(8, 256),
        ..BrisaScenario::small_test(32)
    };
    let cfg = stack_config(&base);
    let mut plain_spec = base.run_spec();
    plain_spec.faults = FaultSpec::default();
    assert!(plain_spec.faults.is_inert());
    let plain = Runner::<BrisaNode>::new(&cfg, &plain_spec).run();
    // Same scenario, fault layer engaged with explicit zero rates.
    let mut zero_spec = base.run_spec();
    zero_spec.faults = FaultSpec {
        loss_rate: 0.0,
        jitter: SimDuration::ZERO,
        latency_factor: 1.0,
        partition: None,
    };
    let zero = Runner::<BrisaNode>::new(&cfg, &zero_spec).run();
    assert_eq!(
        plain.fingerprint(),
        zero.fingerprint(),
        "zero-rate fault injection must not perturb the run in any way"
    );
    assert_eq!(plain.net_stats.messages_lost_to_faults, 0);
    assert_eq!(plain.net_stats.messages_cut_by_partition, 0);
}

/// Acceptance: a BRISA run at 1 % per-link loss still reaches >= 99 %
/// delivery through the gap-recovery retransmissions of the gossip
/// substrate, under the full online invariant suite.
#[test]
fn one_percent_loss_still_delivers_99_percent_on_both_schedulers() {
    let sc = BrisaScenario {
        stream: StreamSpec {
            messages: 40,
            rate_per_sec: 5.0,
            payload_bytes: 512,
        },
        faults: FaultSpec::loss(0.01),
        drain: SimDuration::from_secs(20),
        ..BrisaScenario::small_test(48)
    };
    let cfg = stack_config(&sc);
    let mut suite = InvariantSuite::standard(Some(1));
    let r = Runner::<BrisaNode>::new(&cfg, &sc.run_spec())
        .invariants(&mut suite)
        .run();
    suite.assert_clean();
    assert!(suite.checks_run() > 0);
    assert!(
        r.net_stats.messages_lost_to_faults > 0,
        "1% loss over a full run must lose messages"
    );
    let rate = r.delivery_rate();
    assert!(rate >= 0.99, "delivery rate {rate:.4} under 1% loss");
}

/// Acceptance: the 10 s partition-then-heal scenario reconnects — every
/// island node delivers messages published after the heal, the whole run
/// stays invariant-clean, and the delivery holes opened by the cut are
/// repaired through retransmissions.
#[test]
fn partition_then_heal_reconnects_the_tree() {
    let (duration, sc) = scenarios::fault_partition_sweep(scenarios::Scale::Quick)
        .into_iter()
        .find(|(d, _)| *d == SimDuration::from_secs(10))
        .expect("10s partition scenario exists");
    let phase = sc.faults.partition.expect("partition configured");
    let cfg = stack_config(&sc);
    let mut suite = InvariantSuite::standard(Some(1));
    let r = Runner::<BrisaNode>::new(&cfg, &sc.run_spec())
        .invariants(&mut suite)
        .run();
    suite.assert_clean();

    assert!(
        r.net_stats.messages_cut_by_partition > 0,
        "the cut must actually blackhole traffic"
    );
    let island = phase.island(sc.nodes);
    let stream_start = r.churn_window.0;
    let heal = stream_start + phase.start_after + duration;
    // Messages published after the heal must reach every island node: the
    // tree reconnected. Also measure how quickly it did.
    let first_post_heal_seq = r
        .publish_times
        .iter()
        .position(|t| *t >= heal)
        .expect("stream outlasts the heal") as u64;
    let mut worst_reconnect = SimDuration::ZERO;
    for id in &island {
        let node = r
            .nodes
            .iter()
            .find(|n| n.id == *id)
            .expect("island nodes are alive (no churn in this scenario)");
        let reconnect_at = node
            .report
            .first_delivery
            .iter()
            .filter(|(seq, _)| *seq >= first_post_heal_seq)
            .map(|(_, t)| *t)
            .min();
        let reconnect_at = reconnect_at
            .unwrap_or_else(|| panic!("island node {id} never delivered after the heal"));
        worst_reconnect = worst_reconnect.max(reconnect_at.saturating_since(heal));
        // The island also caught up on the messages it missed during the
        // cut (gap recovery from the surviving parents' buffers).
        assert!(
            node.report.delivered >= r.messages_published - 1,
            "island node {id} delivered {}/{} — holes were not repaired",
            node.report.delivered,
            r.messages_published
        );
    }
    assert!(
        worst_reconnect <= SimDuration::from_secs(10),
        "slowest island reconnect took {worst_reconnect}"
    );
    // Main-side nodes were never cut: full delivery there.
    let view = r.view();
    for (id, report) in view.members(Population::Eligible) {
        if !island.contains(&id) {
            assert_eq!(
                report.delivered, r.messages_published,
                "main-side node {id} must not miss anything",
            );
        }
    }
}

/// The online invariant suite stays clean on a churn-heavy run too (the
/// checks run during repairs, not just in steady state) — and a vacuous
/// suite would be caught by `checks_run`.
#[test]
fn invariants_hold_during_churn_with_faults() {
    use brisa_workloads::ChurnSpec;
    let sc = BrisaScenario {
        churn: Some(ChurnSpec {
            rate_percent: 5.0,
            interval: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(40),
        }),
        faults: FaultSpec::loss(0.005),
        stream: StreamSpec {
            messages: 50,
            rate_per_sec: 5.0,
            payload_bytes: 128,
        },
        ..BrisaScenario::small_test(48)
    };
    let cfg = stack_config(&sc);
    let mut suite = InvariantSuite::standard(Some(1));
    let r = Runner::<BrisaNode>::new(&cfg, &sc.run_spec())
        .invariants(&mut suite)
        .run();
    suite.assert_clean();
    assert!(suite.checks_run() > 50, "checked after every schedule step");
    assert!(r.failures_injected > 0);
    assert!(r.net_stats.messages_lost_to_faults > 0);
}

/// Latency degradation and jitter slow the stream down but lose nothing:
/// delivery stays complete, dissemination gets measurably slower.
#[test]
fn jitter_and_degradation_slow_but_do_not_lose() {
    let base = BrisaScenario {
        stream: StreamSpec::short(10, 256),
        ..BrisaScenario::small_test(32)
    };
    let cfg = stack_config(&base);
    let nominal = Runner::<BrisaNode>::new(&cfg, &base.run_spec()).run();
    let degraded_sc = BrisaScenario {
        faults: FaultSpec {
            jitter: SimDuration::from_millis(5),
            latency_factor: 4.0,
            ..Default::default()
        },
        ..base
    };
    let degraded =
        Runner::<BrisaNode>::new(&stack_config(&degraded_sc), &degraded_sc.run_spec()).run();
    assert_eq!(degraded.net_stats.messages_lost_to_faults, 0);
    assert!(
        (degraded.delivery_rate() - 1.0).abs() < 1e-9,
        "nothing lost"
    );
    let mean_delay = |r: &EngineResult| {
        let v: Vec<f64> = r.nodes.iter().filter_map(|n| n.routing_delay_ms).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    assert!(
        mean_delay(&degraded) > mean_delay(&nominal),
        "a 4x degraded network must be slower ({:.3}ms vs {:.3}ms)",
        mean_delay(&degraded),
        mean_delay(&nominal)
    );
}
