//! Integration tests of the live runtime: the sans-IO stack executing in
//! wall-clock time over TCP on `127.0.0.1`.
//!
//! Wall-clock runs are not bit-reproducible, so these tests assert the
//! properties that *must* hold on any healthy run — 100% delivery, no
//! duplicate deliveries, sim/live agreement on the delivery outcome — with
//! deadlines generous enough for a loaded CI box.

use brisa::{BrisaConfig, BrisaNode};
use brisa_membership::{HpvMsg, HyParViewConfig};
use brisa_runtime::tcp::TcpMesh;
use brisa_runtime::{Cluster, ClusterConfig, ReactorPool, RuntimeConfig, WallClock};
use brisa_simnet::{Context, NodeId, Protocol, SimDuration, TimerTag};
use brisa_workloads::{
    BrisaScenario, BrisaStackConfig, EngineResult, IntoRunSpec, Runner, StreamSpec,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn stack_config(active_size: usize) -> BrisaStackConfig {
    BrisaStackConfig {
        hpv: HyParViewConfig::with_active_size(active_size),
        brisa: BrisaConfig::default(),
    }
}

/// Publishes `messages` payloads at a steady cadence and waits until every
/// node delivered them all (or the deadline passes).
fn drive_stream(
    cluster: &mut Cluster<BrisaNode>,
    messages: u64,
    payload: usize,
    deadline: Duration,
) -> bool {
    for _ in 0..messages {
        cluster.publish(payload);
        cluster.run_for(Duration::from_millis(40));
    }
    cluster.wait_for_delivery(messages, deadline)
}

/// The acceptance bar: a ≥16-node cluster on real TCP sockets delivers
/// 100% of the stream.
#[test]
fn tcp_cluster_delivers_everything() {
    let cfg = ClusterConfig {
        nodes: 16,
        seed: 7,
        ..Default::default()
    };
    let mut cluster: Cluster<BrisaNode> =
        Cluster::launch(&cfg, &stack_config(4)).expect("bind + launch");
    // Let the overlay and the first dissemination structure form.
    cluster.run_for(Duration::from_millis(500));
    let complete = drive_stream(&mut cluster, 8, 1024, Duration::from_secs(60));
    let result = cluster.stop_and_collect();
    assert!(
        complete,
        "stream did not complete: rate={} fp={}",
        result.delivery_rate(),
        result.delivery_fingerprint()
    );
    assert_eq!(result.nodes.len(), 16);
    assert_eq!(
        result.delivery_rate(),
        1.0,
        "every node delivers everything"
    );
    assert_eq!(result.completeness(), 1.0);
    // Zero duplicate deliveries + structurally sane delivery records,
    // checked with the engine's own invariant logic applied offline.
    result
        .check_delivery_invariants()
        .expect("live trace passes the delivery invariants");
    // Real traffic moved through the codec.
    let (frames, bytes) = result.frames_and_bytes_out();
    assert!(frames > 0 && bytes > 0);
    assert_eq!(
        result
            .nodes
            .iter()
            .map(|n| n.stats.decode_errors)
            .sum::<u64>(),
        0,
        "no frame failed to decode"
    );
}

/// Extracts the per-node delivered-sequence sets of a simulated run.
fn sim_delivered_sets(r: &EngineResult) -> BTreeMap<u32, Vec<u64>> {
    r.nodes
        .iter()
        .map(|n| {
            (
                n.id.0,
                n.report.first_delivery.iter().map(|&(s, _)| s).collect(),
            )
        })
        .collect()
}

/// The same broadcast scenario on the sim engine and on the live runtime
/// produces the same delivery outcome: identical delivery sets and
/// zero duplicate deliveries on both sides.
#[test]
fn sim_and_live_agree_on_the_delivery_outcome() {
    const NODES: u32 = 12;
    const MESSAGES: u64 = 5;
    const PAYLOAD: usize = 256;

    // Simulated run.
    let scenario = BrisaScenario {
        nodes: NODES,
        stream: StreamSpec::short(MESSAGES, PAYLOAD),
        bootstrap: SimDuration::from_secs(20),
        drain: SimDuration::from_secs(10),
        ..Default::default()
    };
    let spec = scenario.run_spec();
    let sim = Runner::<BrisaNode>::new(&stack_config(4), &spec).run();
    assert_eq!(sim.messages_published, MESSAGES);

    // Live run.
    let cfg = ClusterConfig {
        nodes: NODES,
        seed: scenario.seed,
        ..Default::default()
    };
    let mut cluster: Cluster<BrisaNode> = Cluster::launch(&cfg, &stack_config(4)).expect("launch");
    cluster.run_for(Duration::from_millis(400));
    let complete = drive_stream(&mut cluster, MESSAGES, PAYLOAD, Duration::from_secs(60));
    let live = cluster.stop_and_collect();
    assert!(
        complete,
        "live stream incomplete: {}",
        live.delivery_fingerprint()
    );

    // Same delivery sets, node by node.
    assert_eq!(sim_delivered_sets(&sim), live.delivered_sets());
    // Zero duplicate deliveries on both sides: each node's first-delivery
    // records are exactly its delivered count, one per sequence number.
    for n in &sim.nodes {
        assert_eq!(n.report.first_delivery.len() as u64, n.report.delivered);
        let uniq: BTreeSet<u64> = n.report.first_delivery.iter().map(|&(s, _)| s).collect();
        assert_eq!(
            uniq.len() as u64,
            n.report.delivered,
            "sim node {} duplicated",
            n.id
        );
    }
    live.check_delivery_invariants()
        .expect("live trace passes the delivery invariants");
}

/// Killing a node mid-stream: surviving nodes repair over live TCP links
/// (link-down → HyParView → BRISA repair → gap retransmission) and still
/// deliver the whole stream.
///
/// BRISA's gap recovery is data-driven — a hole is detected when a *later*
/// message arrives — so, like the sim engine's churn runs ("the stream
/// keeps flowing for the whole churn window so repairs complete through
/// regular traffic"), the stream must keep flowing until the structure has
/// re-stabilised: a message lost in a parent-switch window with nothing
/// published after it would be an invisible tail gap by design.
#[test]
fn loopback_cluster_survives_a_kill_mid_stream() {
    let cfg = ClusterConfig {
        nodes: 16,
        seed: 11,
        ..Default::default()
    };
    let mut cluster: Cluster<BrisaNode> = Cluster::launch(&cfg, &stack_config(4)).expect("launch");
    cluster.run_for(Duration::from_millis(500));
    for _ in 0..3 {
        cluster.publish(512);
        cluster.run_for(Duration::from_millis(40));
    }
    assert!(cluster.wait_for_delivery(3, Duration::from_secs(60)));

    // Kill a relay (a node currently serving children), not just a leaf.
    let victim = cluster
        .snapshot_reports()
        .iter()
        .find(|(id, r)| *id != cluster.source() && r.degree > 0)
        .map(|(id, _)| *id)
        .unwrap_or(NodeId(1));
    cluster.kill(victim);

    // Publish through the repair window (soft repair escalates after 2s,
    // hard repairs retry every 2s), then keep the stream alive until every
    // survivor has caught up — each new message reveals any remaining gap
    // to the maintenance-tick re-requests.
    let mut published = 3u64;
    for _ in 0..3 {
        cluster.publish(512);
        published += 1;
        cluster.run_for(Duration::from_millis(300));
    }
    while !cluster.wait_for_delivery(published, Duration::from_secs(5)) && published < 20 {
        cluster.publish(512);
        published += 1;
    }
    let complete = cluster.wait_for_delivery(published, Duration::from_secs(60));
    let result = cluster.stop_and_collect();
    assert!(
        complete,
        "survivors did not recover the stream: {}",
        result.delivery_fingerprint()
    );
    assert_eq!(result.nodes.len(), 15, "the victim is excluded");
    assert_eq!(result.delivery_rate(), 1.0);
    result
        .check_delivery_invariants()
        .expect("clean live trace");
}

// ---------------------------------------------------------------------------
// Connection-level link-down probing
// ---------------------------------------------------------------------------

/// Everything a probe node observed, shared with the test body.
#[derive(Default)]
struct ProbeLog {
    messages: Vec<(NodeId, u64)>,
    link_downs: Vec<NodeId>,
}

/// What a probe asks failure detection to watch about its peer.
#[derive(Clone, Copy)]
enum Interest {
    /// Opens a connection to the peer and keeps it open.
    Monitor,
    /// Only sends: never opens a connection.
    SendOnly,
    /// Opens a connection, sends, then closes the connection again.
    Withdrawn,
}

/// A minimal protocol that sends one keep-alive to a peer, under the given
/// interest, and records what comes back. Runs over the real stack codec
/// so the TCP path is exercised end to end.
struct Probe {
    peer: Option<(NodeId, Interest)>,
    log: Arc<Mutex<ProbeLog>>,
}

impl Protocol for Probe {
    type Message = brisa::StackMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let Some((peer, interest)) = self.peer else {
            return;
        };
        if !matches!(interest, Interest::SendOnly) {
            ctx.open_connection(peer);
        }
        ctx.send(peer, brisa::StackMsg::Hpv(HpvMsg::KeepAlive { nonce: 99 }));
        if matches!(interest, Interest::Withdrawn) {
            ctx.close_connection(peer);
        }
    }

    fn on_message(
        &mut self,
        _ctx: &mut Context<'_, Self::Message>,
        from: NodeId,
        msg: Self::Message,
    ) {
        if let brisa::StackMsg::Hpv(HpvMsg::KeepAlive { nonce }) = msg {
            self.log.lock().unwrap().messages.push((from, nonce));
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Message>, _tag: TimerTag) {}

    fn on_link_down(&mut self, _ctx: &mut Context<'_, Self::Message>, peer: NodeId) {
        self.log.lock().unwrap().link_downs.push(peer);
    }
}

/// TCP failure detection surfaces as `on_link_down`, and only where it was
/// asked for: when node 1 stops, node 0, which keeps a connection open to
/// it, hears about it. Node 2, which only sent to it, and node 3, which
/// opened a connection and closed it again, hear nothing, although the
/// outbound link of each sees the same EOF.
#[test]
fn tcp_link_down_reaches_the_protocol() {
    let mesh = TcpMesh::bind(4).expect("bind");
    let cfg = RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    };
    let mut pool: ReactorPool<Probe> = ReactorPool::new(WallClock::new(), &cfg);
    let logs: Vec<_> = (0..4)
        .map(|_| Arc::new(Mutex::new(ProbeLog::default())))
        .collect();
    let interests = [
        Some(Interest::Monitor),
        None,
        Some(Interest::SendOnly),
        Some(Interest::Withdrawn),
    ];
    for (i, interest) in interests.into_iter().enumerate() {
        let id = NodeId(i as u32);
        let probe = Probe {
            peer: interest.map(|interest| (NodeId(1), interest)),
            log: Arc::clone(&logs[i]),
        };
        pool.add_listener(id, mesh.take_listener(id), mesh.addrs());
        pool.start_node(id, probe, 1);
    }

    // Every keep-alive reaches node 1 over a real socket.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while logs[1].lock().unwrap().messages.len() < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "keep-alives never arrived"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut heard = logs[1].lock().unwrap().messages.clone();
    heard.sort();
    assert_eq!(heard, [(NodeId(0), 99), (NodeId(2), 99), (NodeId(3), 99)]);

    // Stop node 1; node 0 must observe the link going down.
    let stopped = pool
        .stop_node(NodeId(1))
        .recv_timeout(Duration::from_secs(10))
        .expect("reactor worker unresponsive");
    assert!(stopped.is_some(), "node 1 returns its final state");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while logs[0].lock().unwrap().link_downs.is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "link-down never surfaced"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The three outbound links share one worker and saw their EOFs
    // together; give the other two time to have surfaced anything.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(logs[0].lock().unwrap().link_downs, [NodeId(1)]);
    for unmonitored in [2, 3] {
        assert!(
            logs[unmonitored].lock().unwrap().link_downs.is_empty(),
            "node {unmonitored} never monitored node 1, yet heard it go down"
        );
    }
    pool.shutdown();
}
