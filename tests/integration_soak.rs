//! Integration tests of the chaos-soak machinery: the live fault layer,
//! the kill → restart → rejoin lifecycle, and the live chaos runner.
//!
//! Wall-clock runs are not bit-reproducible, so — like the runtime
//! integration tests — these assert the properties any healthy run must
//! show: full delivery through injected loss, contiguous-suffix
//! catch-up after a restart (buffer anchoring), and clean online
//! invariant sweeps, with deadlines generous enough for a loaded CI box.

use brisa::{BrisaConfig, BrisaNode};
use brisa_membership::HyParViewConfig;
use brisa_runtime::{run_chaos, Cluster, ClusterConfig, SoakConfig};
use brisa_simnet::{NodeId, SimDuration};
use brisa_workloads::chaos::ChaosSchedule;
use brisa_workloads::{
    BrisaStackConfig, FaultSpec, Population, ScaleEvent, ScaleEventKind, StreamSpec,
};
use std::time::Duration;

fn stack_config(active_size: usize) -> BrisaStackConfig {
    BrisaStackConfig {
        hpv: HyParViewConfig::with_active_size(active_size),
        brisa: BrisaConfig::default(),
    }
}

/// Keeps the stream flowing until every live non-source node has the full
/// stream (BRISA's gap detector is data-driven: a hole is only visible
/// once a later message arrives), up to `max_messages`. Returns the number
/// published.
fn publish_until_complete(
    cluster: &mut Cluster<BrisaNode>,
    mut published: u64,
    payload: usize,
    max_messages: u64,
) -> u64 {
    while !cluster.wait_for_delivery(published, Duration::from_secs(5)) && published < max_messages
    {
        cluster.publish(payload);
        published += 1;
    }
    assert!(
        cluster.wait_for_delivery(published, Duration::from_secs(60)),
        "stream never completed at {published} messages"
    );
    published
}

/// The loss acceptance bar: a live cluster whose fault layer is set to
/// 1 % per-link loss still reaches 100 % delivery — the runtime mirror of
/// the sim fault sweep's headline row — and the layer demonstrably dropped
/// real frames to get there.
#[test]
fn shim_loss_cluster_delivers_everything() {
    let cfg = ClusterConfig {
        nodes: 12,
        seed: 0x50AC,
        ..Default::default()
    };
    let mut cluster: Cluster<BrisaNode> = Cluster::launch(&cfg, &stack_config(4)).expect("launch");
    cluster.run_for(Duration::from_millis(500));
    cluster
        .shim()
        .set_link_faults(FaultSpec::loss(0.01).link_faults());

    let mut published = 0u64;
    for _ in 0..20 {
        cluster.publish(512);
        published += 1;
        cluster.run_for(Duration::from_millis(40));
    }
    let published = publish_until_complete(&mut cluster, published, 512, 60);
    let stats = cluster.shim().stats();
    let result = cluster.stop_and_collect();

    assert_eq!(result.messages_published, published);
    assert_eq!(result.delivery_rate(), 1.0, "loss must be fully repaired");
    assert_eq!(result.completeness(), 1.0);
    result
        .check_delivery_invariants()
        .expect("clean live trace");
    assert!(
        stats.frames_lost > 0,
        "1% loss over {} frames never dropped anything — the layer is inert",
        stats.frames_passed
    );
}

/// Kill → restart → rejoin: the restarted node comes back under the same
/// identifier with empty state, rejoins through the contact, and catches
/// up to a **contiguous suffix** of the stream (buffer anchoring: once it
/// anchors, gap recovery closes every hole behind the live edge — no
/// mid-suffix holes allowed). Survivors deliver everything.
#[test]
fn restart_rejoins_and_catches_up_contiguously() {
    let cfg = ClusterConfig {
        nodes: 12,
        seed: 0x2E57A27,
        ..Default::default()
    };
    let mut cluster: Cluster<BrisaNode> = Cluster::launch(&cfg, &stack_config(4)).expect("launch");
    cluster.run_for(Duration::from_millis(500));

    let mut published = 0u64;
    for _ in 0..5 {
        cluster.publish(256);
        published += 1;
        cluster.run_for(Duration::from_millis(40));
    }
    assert!(cluster.wait_for_delivery(published, Duration::from_secs(60)));

    let victim = NodeId(5);
    cluster.kill(victim);
    assert!(!cluster.is_alive(victim));
    for _ in 0..5 {
        cluster.publish(256);
        published += 1;
        cluster.run_for(Duration::from_millis(100));
    }
    cluster.restart(victim).expect("reattach + respawn");
    assert!(cluster.is_alive(victim));
    // Give the rejoin a moment, then keep the stream flowing until every
    // live node — the reborn victim included — has caught up to the edge.
    cluster.run_for(Duration::from_millis(700));
    let deadline = std::time::Instant::now() + Duration::from_secs(90);
    let (published, victim_seqs) = loop {
        cluster.publish(256);
        published += 1;
        cluster.run_for(Duration::from_millis(150));
        let reports = cluster.snapshot_reports();
        let victim_seqs: Vec<u64> = reports
            .iter()
            .find(|(id, _)| *id == victim)
            .map(|(_, r)| r.first_delivery.iter().map(|&(s, _)| s).collect())
            .unwrap_or_default();
        let everyone_at_edge = reports
            .iter()
            .filter(|(id, _)| *id != cluster.source() && *id != victim)
            .all(|(_, r)| r.delivered == published);
        if everyone_at_edge && victim_seqs.last() == Some(&(published - 1)) {
            break (published, victim_seqs);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "victim never caught up: {victim_seqs:?} of {published}"
        );
    };

    // Buffer anchoring: the victim's post-rebirth deliveries are one
    // gapless run ending at the live edge.
    assert!(!victim_seqs.is_empty(), "the reborn node delivered nothing");
    let anchor = victim_seqs[0];
    let expected: Vec<u64> = (anchor..published).collect();
    assert_eq!(
        victim_seqs, expected,
        "the reborn node's deliveries must be a contiguous suffix"
    );

    let result = cluster.stop_and_collect();
    assert_eq!(result.ever_killed, vec![victim.0]);
    let survivors = result.view().tally(Population::Survivors);
    assert_eq!(
        survivors.delivery_rate(),
        1.0,
        "never-killed nodes deliver everything"
    );
    assert_eq!(survivors.completeness(), 1.0);
    result
        .check_delivery_invariants()
        .expect("clean live trace");
}

/// The same lifecycle, watched from the socket side: the restart re-binds
/// the node's advertised listener address (`TcpMesh::rebind_listener`) and
/// the peers' writers re-dial it with bounded backoff, so the reborn node
/// both receives and is reachable again.
#[test]
fn tcp_restart_rebinds_the_listener_and_recovers() {
    let cfg = ClusterConfig {
        nodes: 8,
        seed: 0x7C9,
        ..Default::default()
    };
    let mut cluster: Cluster<BrisaNode> = Cluster::launch(&cfg, &stack_config(4)).expect("launch");
    cluster.run_for(Duration::from_millis(600));

    let mut published = 0u64;
    for _ in 0..4 {
        cluster.publish(512);
        published += 1;
        cluster.run_for(Duration::from_millis(60));
    }
    assert!(cluster.wait_for_delivery(published, Duration::from_secs(60)));

    let victim = NodeId(3);
    cluster.kill(victim);
    for _ in 0..4 {
        cluster.publish(512);
        published += 1;
        cluster.run_for(Duration::from_millis(150));
    }
    cluster.restart(victim).expect("listener re-bind + respawn");
    cluster.run_for(Duration::from_millis(700));

    // Keep the stream alive until the reborn node is demonstrably back in
    // the dissemination structure (delivering at the live edge).
    let deadline = std::time::Instant::now() + Duration::from_secs(90);
    loop {
        cluster.publish(512);
        published += 1;
        cluster.run_for(Duration::from_millis(200));
        let back = cluster
            .snapshot_reports()
            .iter()
            .find(|(id, _)| *id == victim)
            .map(|(_, r)| r.first_delivery.last().map(|&(s, _)| s) == Some(published - 1))
            .unwrap_or(false);
        if back {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "reborn TCP node never rejoined the stream"
        );
    }
    let published = publish_until_complete_survivors(&mut cluster, published, victim);

    let result = cluster.stop_and_collect();
    assert_eq!(result.messages_published, published);
    let survivors = result.view().tally(Population::Survivors);
    assert_eq!(survivors.delivery_rate(), 1.0);
    assert_eq!(
        result
            .nodes
            .iter()
            .map(|n| n.stats.decode_errors)
            .sum::<u64>(),
        0,
        "no frame failed to decode across the restart"
    );
    result
        .check_delivery_invariants()
        .expect("clean live trace");
}

/// Like [`publish_until_complete`] but requires only the never-killed
/// nodes to reach the full stream.
fn publish_until_complete_survivors(
    cluster: &mut Cluster<BrisaNode>,
    mut published: u64,
    victim: NodeId,
) -> u64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(90);
    loop {
        let done = cluster
            .snapshot_reports()
            .iter()
            .filter(|(id, _)| *id != cluster.source() && *id != victim)
            .all(|(_, r)| r.delivered == published);
        if done {
            return published;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "survivors never completed at {published}"
        );
        cluster.publish(512);
        published += 1;
        cluster.run_for(Duration::from_millis(150));
    }
}

/// The library entry point end to end: `run_chaos` replays a scripted
/// schedule (1 % loss + a kill and its delayed restart) against a live
/// cluster, sweeps invariants online, and comes back clean with the
/// survivors fully served.
#[test]
fn run_chaos_replays_a_schedule_cleanly() {
    let mut schedule = ChaosSchedule::named("test_combined");
    schedule.faults = FaultSpec::loss(0.005);
    schedule.events = vec![
        ScaleEvent {
            after: SimDuration::from_millis(600),
            kind: ScaleEventKind::Kill { node: 7 },
        },
        ScaleEvent {
            after: SimDuration::from_millis(1500),
            kind: ScaleEventKind::Restart { node: 7 },
        },
    ];
    let cfg = SoakConfig {
        nodes: 10,
        seed: 0xC4A05,
        stream: StreamSpec::short(15, 256),
        bootstrap: Duration::from_secs(1),
        drain: Duration::from_secs(15),
        sweep_interval: Duration::from_millis(500),
        ..SoakConfig::default()
    };
    let outcome =
        run_chaos::<BrisaNode>(&cfg, &stack_config(4), &schedule).expect("soak run launches");

    assert!(
        outcome.violations.is_empty(),
        "online invariant sweeps tripped:\n  {}",
        outcome.violations.join("\n  ")
    );
    assert!(outcome.sweeps > 0, "no sweep ever ran");
    assert_eq!(outcome.restarted, vec![7]);
    assert_eq!(outcome.result.ever_killed, vec![7]);
    let survivors = outcome.result.view().tally(Population::Survivors);
    let survivors = survivors.delivery_rate();
    assert!(
        survivors >= 0.99,
        "survivor delivery {survivors} under scripted chaos"
    );
    outcome
        .result
        .check_delivery_invariants()
        .expect("clean live trace");
}
