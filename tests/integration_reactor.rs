//! Integration tests of the sharded reactor itself: crash isolation
//! inside a shard, clean shutdown (threads joined, sockets closed, ports
//! reusable), and a 256-node TCP smoke run — a cluster size the old
//! thread-per-node executor could not reasonably carry. The connection
//! table's own rules are tested in virtual time beside it
//! (`crates/runtime/src/reactor/io.rs`); these run on real sockets.

use brisa::{BrisaConfig, BrisaMsg, BrisaNode, CycleGuard, DataMsg, StackMsg};
use brisa_membership::{HpvMsg, HyParViewConfig};
use brisa_runtime::reactor::ReactorPool;
use brisa_runtime::tcp::TcpMesh;
use brisa_runtime::wire::MAX_FRAME_BYTES;
use brisa_runtime::{Cluster, ClusterConfig, RuntimeConfig, ShimControl, WallClock};
use brisa_runtime::{WireCodec, WIRE_VERSION};
use brisa_simnet::{
    Context, NodeId, PartitionMode, PartitionSpec, Protocol, SimDuration, TimerTag,
};
use brisa_telemetry::Telemetry;
use brisa_workloads::{
    BrisaScenario, BrisaStackConfig, BuildCtx, DisseminationProtocol, IntoRunSpec, Population,
    Runner, StreamSpec,
};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A minimal protocol that records every keep-alive it hears.
struct Echo {
    log: Arc<Mutex<Vec<(NodeId, u64)>>>,
}

impl Protocol for Echo {
    type Message = StackMsg;

    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Message>) {}

    fn on_message(
        &mut self,
        _ctx: &mut Context<'_, Self::Message>,
        from: NodeId,
        msg: Self::Message,
    ) {
        if let StackMsg::Hpv(HpvMsg::KeepAlive { nonce }) = msg {
            self.log.lock().unwrap().push((from, nonce));
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Message>, _tag: TimerTag) {}

    fn on_link_down(&mut self, _ctx: &mut Context<'_, Self::Message>, _peer: NodeId) {}
}

/// The reactor's `CONNECT_TIMEOUT`: how long a connect may stay in flight,
/// and an accepted connection may stay silent.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

fn keepalive(nonce: u64) -> StackMsg {
    StackMsg::Hpv(HpvMsg::KeepAlive { nonce })
}

/// Waits until `pred` holds or the deadline passes.
fn wait_until(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    pred()
}

/// A panicking protocol callback poisons only its own node: shard
/// siblings (here: *every* node shares the single worker) keep
/// processing messages, and a later stop of the poisoned node reports the
/// crash instead of hanging or taking the worker down.
#[test]
fn panicking_node_does_not_stall_shard_siblings() {
    let mesh = TcpMesh::bind(3).expect("bind");
    let cfg = RuntimeConfig {
        workers: 1, // force all three nodes onto one shard
    };
    let pool: ReactorPool<Echo> = ReactorPool::new(WallClock::new(), &cfg);
    let logs: Vec<_> = (0..3).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    for i in 0..3u32 {
        pool.add_listener(NodeId(i), mesh.take_listener(NodeId(i)), mesh.addrs());
        let proto = Echo {
            log: Arc::clone(&logs[i as usize]),
        };
        pool.start_node(NodeId(i), proto, 1);
    }

    // Sanity: traffic flows on the shared shard.
    pool.invoke(NodeId(0), |_p, ctx| ctx.send(NodeId(1), keepalive(1)));
    assert!(
        wait_until(Duration::from_secs(5), || !logs[1]
            .lock()
            .unwrap()
            .is_empty()),
        "pre-crash traffic never arrived"
    );

    // Node 1 crashes inside a protocol callback...
    pool.invoke(NodeId(1), |_p, _ctx| panic!("injected node crash"));
    // ...and its shard siblings keep working: 0 → 2 still flows.
    pool.invoke(NodeId(0), |_p, ctx| ctx.send(NodeId(2), keepalive(2)));
    assert!(
        wait_until(Duration::from_secs(5), || !logs[2]
            .lock()
            .unwrap()
            .is_empty()),
        "sibling stalled after a shard-mate panicked"
    );

    // The poisoned node is gone (its stop reports the crash), the healthy
    // ones still return their state.
    let crashed = pool
        .stop_node(NodeId(1))
        .recv_timeout(Duration::from_secs(5))
        .expect("worker alive");
    assert!(crashed.is_none(), "a panicked node has no final state");
    for id in [NodeId(0), NodeId(2)] {
        let fine = pool
            .stop_node(id)
            .recv_timeout(Duration::from_secs(5))
            .expect("worker alive");
        assert!(fine.is_some(), "healthy node {id:?} must survive");
    }
}

/// Shutdown is total: `ReactorPool::shutdown` returns only after every
/// worker thread joined, and every socket the pool owned —
/// listeners included — is closed, so all ports rebind immediately.
#[test]
fn shutdown_joins_workers_and_releases_every_port() {
    const NODES: u32 = 8;
    let mesh = TcpMesh::bind(NODES as usize).expect("bind");
    let cfg = RuntimeConfig { workers: 2 };
    let mut pool: ReactorPool<Echo> = ReactorPool::new(WallClock::new(), &cfg);
    let logs: Vec<_> = (0..NODES)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    for i in 0..NODES {
        pool.add_listener(NodeId(i), mesh.take_listener(NodeId(i)), mesh.addrs());
        let proto = Echo {
            log: Arc::clone(&logs[i as usize]),
        };
        pool.start_node(NodeId(i), proto, 1);
    }
    // Real sockets carried traffic: a ring of keep-alives.
    for i in 0..NODES {
        let to = NodeId((i + 1) % NODES);
        pool.invoke(NodeId(i), move |_p, ctx| ctx.send(to, keepalive(i as u64)));
    }
    assert!(
        wait_until(Duration::from_secs(10), || logs
            .iter()
            .all(|l| !l.lock().unwrap().is_empty())),
        "ring traffic incomplete"
    );

    // `shutdown` joins every worker internally; when it returns, nothing
    // of the pool is left running.
    pool.shutdown();

    // Every port is free again — inbound connections, outbound streams and
    // listeners were all closed with the workers. A leaked fd would hold
    // its listener's port and fail this bind.
    for i in 0..NODES {
        let addr = mesh.addr(NodeId(i));
        let rebound = (0..50).find_map(|_| {
            TcpListener::bind(addr).ok().or_else(|| {
                std::thread::sleep(Duration::from_millis(20));
                None
            })
        });
        assert!(rebound.is_some(), "port of node {i} never came free");
    }
}

/// Arms one 300 ms timer in `on_start`, tagged with its incarnation, and
/// records `(incarnation that fired, incarnation that armed)`.
struct Incarnation {
    n: u64,
    fired: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl Protocol for Incarnation {
    type Message = StackMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        ctx.set_timer(SimDuration::from_millis(300), TimerTag::new(0, self.n));
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, StackMsg>, _from: NodeId, _msg: StackMsg) {}
    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Message>, tag: TimerTag) {
        self.fired.lock().unwrap().push((self.n, tag.data));
    }
    fn on_link_down(&mut self, _ctx: &mut Context<'_, Self::Message>, _peer: NodeId) {}
}

/// A stopped node's deadlines die with it: the incarnation restarted under
/// the same identifier must not be handed its predecessor's timers. (Every
/// periodic timer of the deployed stack re-arms itself, so one inherited
/// tick would run shuffle / keep-alive / repair at twice the configured
/// rate for the rest of the run.)
#[test]
fn a_restarted_node_does_not_inherit_its_predecessors_timers() {
    let mesh = TcpMesh::bind(1).expect("bind");
    let cfg = RuntimeConfig { workers: 1 };
    let pool: ReactorPool<Incarnation> = ReactorPool::new(WallClock::new(), &cfg);
    let fired = Arc::new(Mutex::new(Vec::new()));
    let id = NodeId(0);
    let start = |n| {
        let proto = Incarnation {
            n,
            fired: Arc::clone(&fired),
        };
        let listener = if n == 1 {
            mesh.take_listener(id)
        } else {
            mesh.rebind_listener(id).expect("rebind")
        };
        pool.add_listener(id, listener, mesh.addrs());
        pool.start_node(id, proto, 1);
    };
    start(1);
    std::thread::sleep(Duration::from_millis(50));
    let first = pool.stop_node(id).recv_timeout(Duration::from_secs(5));
    assert!(matches!(first, Ok(Some(_))), "incarnation 1 stops cleanly");
    std::thread::sleep(Duration::from_millis(50));
    start(2);
    // Incarnation 1's timer was due at 300 ms, incarnation 2's at 400 ms.
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(*fired.lock().unwrap(), vec![(2, 2)]);
}

/// A frame parked for a `Delay` cut belongs to the node that sent it: if
/// that node is killed before the heal, the frame is never sent, while a
/// surviving sender's frame is released at the heal.
#[test]
fn a_frame_held_by_a_node_killed_before_the_heal_is_never_sent() {
    let clock = WallClock::new();
    let mesh = TcpMesh::bind(3).expect("bind");
    let cfg = RuntimeConfig { workers: 1 };
    let pool: ReactorPool<Echo> = ReactorPool::new(clock, &cfg);
    let shim = pool.shim();
    let logs: Vec<_> = (0..3).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    for i in 0..3u32 {
        pool.add_listener(NodeId(i), mesh.take_listener(NodeId(i)), mesh.addrs());
        let proto = Echo {
            log: Arc::clone(&logs[i as usize]),
        };
        pool.start_node(NodeId(i), proto, 1);
    }
    // Node 2 is cut away from senders 0 and 1 until the heal.
    let now = clock.now();
    let heal = now + SimDuration::from_millis(200);
    shim.add_partition(PartitionSpec::new(
        vec![NodeId(2)],
        now,
        heal,
        PartitionMode::Delay,
    ));
    pool.invoke(NodeId(0), |_p, ctx| ctx.send(NodeId(2), keepalive(10)));
    pool.invoke(NodeId(1), |_p, ctx| ctx.send(NodeId(2), keepalive(11)));
    let killed = pool
        .stop_node(NodeId(0))
        .recv_timeout(Duration::from_secs(5));
    assert!(
        matches!(killed, Ok(Some(_))),
        "node 0 stops before the heal"
    );
    assert!(clock.now() < heal, "the kill must land inside the window");
    assert_eq!(shim.stats().frames_delayed, 2, "both frames were parked");

    assert!(
        wait_until(Duration::from_secs(5), || !logs[2]
            .lock()
            .unwrap()
            .is_empty()),
        "the survivor's frame was never released"
    );
    assert!(clock.now() >= heal, "released no earlier than the heal");
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(*logs[2].lock().unwrap(), vec![(NodeId(1), 11)]);
}

/// The reap counter surfaces organically on a collected cluster result:
/// shuffle traffic creates unmonitored links that go idle past the
/// reactor's 3 s cut-off and are closed by its sweep, visible cluster-wide
/// as `LiveResult::links_reaped`.
#[test]
fn live_result_reports_reaps_and_redials() {
    const NODES: u32 = 12;
    let cfg = ClusterConfig {
        nodes: NODES,
        seed: 0xB215A,
        ..Default::default()
    };
    let stack = BrisaStackConfig {
        hpv: HyParViewConfig {
            // Fast shuffles: each one dials a mostly-fresh passive peer,
            // creating the unmonitored links the reap sweep exists for.
            shuffle_period: brisa_simnet::SimDuration::from_secs(1),
            ..HyParViewConfig::default()
        },
        brisa: BrisaConfig::default(),
    };
    let mut cluster: Cluster<BrisaNode> = Cluster::launch(&cfg, &stack).expect("launch");
    cluster.run_for(Duration::from_secs(2));
    cluster.publish(128);
    // Let shuffle links go idle past the cut-off and the ~1 s reap sweep
    // pass over them a few times.
    cluster.run_for(Duration::from_secs(4));
    let result = cluster.stop_and_collect();
    assert!(
        result.links_reaped() >= 1,
        "no idle link was reaped (links_reaped = {})",
        result.links_reaped()
    );
}

/// An idle link costs the loop nothing: on a settled 64-node TCP cluster
/// that publishes nothing, the worker iterates only when something
/// happened. Every iteration but the idle park is the return of a wait that
/// reported a due timer, a readable socket or a wake, so over one second
/// the iteration count (the `reactor.poll_iter_us` sample count) stays
/// under timers fired + frames received + inbox messages + a constant for
/// the parks and the few shuffle connections opened and reaped meanwhile —
/// whatever the number of descriptors held open. A loop that spun on a
/// timeout rounded down to zero, or on a writable socket with nothing to
/// write, would exceed it a hundredfold.
#[test]
fn idle_loop_iterations_are_bounded_by_events_not_by_open_links() {
    const NODES: u32 = 64;
    /// Ten idle parks a second, plus up to four readiness reports in the
    /// life of a connection that carry no frame (the listener, the
    /// handshake, the goodbye, the EOF).
    const SLACK: u64 = 200;
    let telemetry = Telemetry::enabled();
    let cfg = ClusterConfig {
        nodes: NODES,
        seed: 0xB215A,
        runtime: RuntimeConfig { workers: 1 },
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let stack = BrisaStackConfig {
        hpv: HyParViewConfig::default(),
        brisa: BrisaConfig::default(),
    };
    let cluster: Cluster<BrisaNode> = Cluster::launch(&cfg, &stack).expect("launch");
    cluster.run_for(Duration::from_secs(3));

    let iterations = telemetry.histogram("reactor.poll_iter_us");
    let inbox_batch = telemetry.histogram("reactor.inbox_batch");
    let timers = telemetry.counter("reactor.timers_fired");
    let frames = telemetry.counter("reactor.frames_in");
    let inbox_messages = || (inbox_batch.mean() * inbox_batch.count() as f64).round() as u64;
    let before = (
        iterations.count(),
        timers.get(),
        frames.get(),
        inbox_messages(),
    );
    cluster.run_for(Duration::from_secs(1));
    let after = (
        iterations.count(),
        timers.get(),
        frames.get(),
        inbox_messages(),
    );
    let registered = telemetry.gauge("reactor.w0.fds").get();
    cluster.stop_and_collect();

    let iterated = after.0 - before.0;
    let events = (after.1 - before.1) + (after.2 - before.2) + (after.3 - before.3);
    assert!(
        registered > 4 * NODES as u64,
        "the cluster holds its overlay links open ({registered} descriptors registered)"
    );
    assert!(iterated > 0 && events > 0, "the window saw a live cluster");
    assert!(
        iterated <= events + SLACK,
        "{iterated} iterations in 1 s against {events} events \
         ({} timers, {} frames, {} inbox messages) with {registered} descriptors registered",
        after.1 - before.1,
        after.2 - before.2,
        after.3 - before.3,
    );
}

/// Hostile bytes at the edge the readiness set guards. Four raw
/// connections to a live node's listener — a handshake of the wrong wire
/// version, a length prefix past the frame ceiling, a frame cut short by a
/// close, and one that never says anything — panic nothing. The first
/// three are dropped and leave the registered-descriptor count, and the
/// cluster delivers a message published meanwhile to every node. The silent
/// one is closed by the reactor itself, unasked, once the handshake
/// deadline (`CONNECT_TIMEOUT` after its accept) has passed.
#[test]
fn hostile_peers_are_dropped_and_the_cluster_still_delivers() {
    const NODES: u32 = 12;
    const VICTIM: NodeId = NodeId(5);
    /// An identifier no node carries, so dropping the impostor's
    /// connection cannot pass for the death of a real neighbour.
    const NOBODY: u32 = 9_999;
    let telemetry = Telemetry::enabled();
    let cfg = RuntimeConfig { workers: 1 };
    let stack = BrisaStackConfig {
        hpv: HyParViewConfig {
            // No shuffle connections come and go under the count.
            shuffle_period: SimDuration::from_secs(3_600),
            ..HyParViewConfig::default()
        },
        brisa: BrisaConfig::default(),
    };
    let mesh = TcpMesh::bind(NODES as usize).expect("bind");
    let mut pool: ReactorPool<BrisaNode> = ReactorPool::with_telemetry(
        ShimControl::new(0, WallClock::new()),
        &cfg,
        telemetry.clone(),
    );
    for i in 0..NODES {
        let id = NodeId(i);
        pool.add_listener(id, mesh.take_listener(id), mesh.addrs());
        let bctx = BuildCtx {
            index: i,
            population: NODES,
            contact: (i > 0).then_some(NodeId(0)),
            prev: i.checked_sub(1).map(NodeId),
            is_source: i == 0,
        };
        let node = BrisaNode::build(&stack, id, &bctx);
        pool.start_node(id, node, 0xB215A);
        std::thread::sleep(Duration::from_millis(2));
    }

    // The settled overlay holds a steady set of descriptors: steady for
    // longer than the 3 s idle cut-off and its 1 s sweep, so the join-time
    // walk links are gone before the count is taken.
    let registered = telemetry.gauge("reactor.w0.fds");
    let mut base = 0;
    let mut steady_since = Instant::now();
    assert!(
        wait_until(Duration::from_secs(30), || {
            let now = registered.get();
            if now != base {
                base = now;
                steady_since = Instant::now();
            }
            steady_since.elapsed() >= Duration::from_secs(5)
        }),
        "registered descriptors never settled (last {base})"
    );

    let hello = |version: u8| {
        let mut bytes = vec![version];
        bytes.extend_from_slice(&NOBODY.to_le_bytes());
        bytes
    };
    let connect = || {
        let stream = TcpStream::connect(mesh.addr(VICTIM)).expect("connect to the victim");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
    };
    let mut wrong_version = connect();
    let mut oversize = connect();
    let mut truncated = connect();
    // Well inside the handshake deadline, so no reap races the count.
    assert!(
        wait_until(CONNECT_TIMEOUT, || registered.get() == base + 3),
        "three accepted connections join the set ({} over {base})",
        registered.get()
    );

    wrong_version
        .write_all(&hello(WIRE_VERSION + 1))
        .expect("write");
    oversize.write_all(&hello(WIRE_VERSION)).expect("write");
    oversize
        .write_all(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes())
        .expect("write");
    truncated.write_all(&hello(WIRE_VERSION)).expect("write");
    truncated.write_all(&100u32.to_le_bytes()).expect("write");
    truncated.write_all(&[0xAB; 10]).expect("write");
    drop(truncated);
    // The reactor hangs up on the two it can tell are corrupt...
    let mut probe = [0u8; 1];
    for refused in [&mut wrong_version, &mut oversize] {
        assert!(
            matches!(refused.read(&mut probe), Ok(0) | Err(_)),
            "a corrupt stream is closed, not answered"
        );
    }
    // ...and all three leave the set.
    assert!(
        wait_until(Duration::from_secs(10), || registered.get() == base),
        "three dropped connections leave the set ({} over {base})",
        registered.get()
    );

    let delivered = telemetry.counter("brisa.delivered");
    let already = delivered.get();
    pool.invoke(NodeId(0), |node, ctx| node.publish_message(ctx, 256));
    assert!(
        wait_until(Duration::from_secs(30), || {
            delivered.get() - already >= NODES as u64
        }),
        "only {} of {NODES} nodes delivered",
        delivered.get() - already
    );

    // A peer that connects and never says hello holds a descriptor only
    // until the handshake deadline: the reactor hangs up on it.
    let mut silent = connect();
    let connected = Instant::now();
    assert!(
        wait_until(CONNECT_TIMEOUT, || registered.get() == base + 1),
        "the silent connection joins the set ({} over {base})",
        registered.get()
    );
    let bound = CONNECT_TIMEOUT + Duration::from_secs(2);
    silent.set_read_timeout(Some(bound)).expect("read timeout");
    let eof = silent.read(&mut probe);
    assert!(
        matches!(&eof, Ok(0))
            || matches!(&eof, Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset),
        "the silent connection was not closed within {bound:?}: {eof:?}"
    );
    assert!(connected.elapsed() <= bound, "closed only after {bound:?}");
    assert!(
        wait_until(Duration::from_secs(1), || registered.get() == base),
        "the silent connection leaves the set ({} over {base})",
        registered.get()
    );
    assert_eq!(telemetry.counter("reactor.node_panics").get(), 0);
    for i in 0..NODES {
        let (node, _stats) = pool
            .stop_node(NodeId(i))
            .recv_timeout(Duration::from_secs(10))
            .expect("worker alive")
            .expect("node alive");
        assert_eq!(node.report().delivered, 1, "node {i}");
    }
    pool.shutdown();
}

/// One well-formed frame with an implausible sequence number. A raw peer
/// says hello to a live node on the stream and sends `Data { seq: 2^40 }`,
/// which used to make the delivery ledger ask for a 128 GiB bitmap and
/// abort the process. The number lies past the ledger's window, so the node
/// drops the frame before it touches any state, and `brisa.seq_refused`
/// counts it. The peer then repeats a number the node has, which the node
/// answers with a `Deactivate` to an identifier no node carries: a dial
/// that fails, not a worker that dies. The process stays up, and a message
/// published afterwards reaches every node.
#[test]
fn an_implausible_sequence_number_is_refused_and_the_cluster_still_delivers() {
    const NODES: u32 = 8;
    const VICTIM: NodeId = NodeId(3);
    const NOBODY: u32 = 9_999;
    let telemetry = Telemetry::enabled();
    let cfg = RuntimeConfig { workers: 1 };
    let stack = BrisaStackConfig {
        hpv: HyParViewConfig::default(),
        brisa: BrisaConfig::default(),
    };
    let mesh = TcpMesh::bind(NODES as usize).expect("bind");
    let mut pool: ReactorPool<BrisaNode> = ReactorPool::with_telemetry(
        ShimControl::new(0, WallClock::new()),
        &cfg,
        telemetry.clone(),
    );
    for i in 0..NODES {
        let id = NodeId(i);
        pool.add_listener(id, mesh.take_listener(id), mesh.addrs());
        let bctx = BuildCtx {
            index: i,
            population: NODES,
            contact: (i > 0).then_some(NodeId(0)),
            prev: i.checked_sub(1).map(NodeId),
            is_source: i == 0,
        };
        pool.start_node(id, BrisaNode::build(&stack, id, &bctx), 0xB215A);
        std::thread::sleep(Duration::from_millis(2));
    }
    // Every join has long completed: a publish floods a whole overlay.
    std::thread::sleep(Duration::from_secs(2));
    let delivered = telemetry.counter("brisa.delivered");
    let publish = |pool: &mut ReactorPool<BrisaNode>| {
        let already = delivered.get();
        pool.invoke(NodeId(0), |node, ctx| node.publish_message(ctx, 256));
        assert!(
            wait_until(Duration::from_secs(30), || {
                delivered.get() - already >= NODES as u64
            }),
            "only {} of {NODES} nodes delivered",
            delivered.get() - already
        );
    };
    publish(&mut pool);

    let mut peer = TcpStream::connect(mesh.addr(VICTIM)).expect("connect to the victim");
    let mut hello = vec![WIRE_VERSION];
    hello.extend_from_slice(&NOBODY.to_le_bytes());
    peer.write_all(&hello).expect("hello");
    let frame = |seq| {
        StackMsg::Brisa(BrisaMsg::data(DataMsg {
            seq,
            payload_bytes: 256,
            guard: CycleGuard::Path(vec![NodeId(0), NodeId(NOBODY)].into()),
            sender_uptime_secs: 0,
            sender_load: 0,
        }))
        .encode()
    };
    peer.write_all(&frame(1 << 40)).expect("frame");
    let refused = telemetry.counter("brisa.seq_refused");
    assert!(
        wait_until(Duration::from_secs(10), || refused.get() == 1),
        "the frame was not refused ({} refusals)",
        refused.get()
    );
    peer.write_all(&frame(0)).expect("frame");
    let recorder = telemetry.recorder().expect("telemetry is enabled");
    assert!(
        wait_until(Duration::from_secs(10), || {
            recorder.events_since(0).iter().any(|e| {
                e.kind == brisa_telemetry::EventKind::DialFailed
                    && e.node == VICTIM.0
                    && e.a == u64::from(NOBODY)
            })
        }),
        "the victim never failed to dial the peer back"
    );
    // The failed dial is retried on its backoff, and the retry counted.
    let redials = telemetry.counter("reactor.redials");
    assert!(wait_until(Duration::from_secs(10), || redials.get() >= 1));

    publish(&mut pool);
    drop(peer);
    assert_eq!(telemetry.counter("reactor.node_panics").get(), 0);
    for i in 0..NODES {
        let (node, stats) = pool
            .stop_node(NodeId(i))
            .recv_timeout(Duration::from_secs(10))
            .expect("worker alive")
            .expect("node alive");
        let ledger = &node.brisa().stats().delivery;
        assert_eq!(ledger.delivered(), 2, "node {i}");
        assert_eq!(ledger.refused(), u64::from(NodeId(i) == VICTIM), "node {i}");
        assert!(
            NodeId(i) != VICTIM || stats.redials >= 1,
            "no re-dial counted"
        );
    }
    pool.shutdown();
}

/// 256 live TCP nodes on one reactor pool — every node delivers the
/// whole stream exactly once (zero duplicate deliveries).
#[test]
fn tcp_256_nodes_deliver_exactly_once() {
    const NODES: u32 = 256;
    const MESSAGES: u64 = 3;
    let cfg = ClusterConfig {
        nodes: NODES,
        seed: 0xB215A,
        ..Default::default()
    };
    let stack = BrisaStackConfig {
        hpv: HyParViewConfig::default(),
        brisa: BrisaConfig::default(),
    };
    let mut cluster: Cluster<BrisaNode> = Cluster::launch(&cfg, &stack).expect("launch");
    // Let the overlay and dissemination structure form across 256 nodes.
    cluster.run_for(Duration::from_secs(2));
    for _ in 0..MESSAGES {
        cluster.publish(256);
        cluster.run_for(Duration::from_millis(50));
    }
    let complete = cluster.wait_for_delivery(MESSAGES, Duration::from_secs(120));
    let result = cluster.stop_and_collect();
    assert!(
        complete,
        "stream incomplete at 256 nodes: {}",
        result.delivery_fingerprint()
    );
    assert_eq!(result.nodes.len(), NODES as usize);
    assert_eq!(result.delivery_rate(), 1.0);
    // Zero duplicates: every node's delivered set is exactly the published
    // sequence numbers, each once (delivered_sets yields first-delivery
    // records; the invariant check rejects duplicate records).
    result
        .check_delivery_invariants()
        .expect("clean delivery records");
    let expected: BTreeSet<u64> = (0..MESSAGES).collect();
    for (id, seqs) in result.view().delivered_sets(Population::All) {
        assert_eq!(seqs.len() as u64, MESSAGES, "node {id} delivered set size");
        assert_eq!(
            seqs.iter().copied().collect::<BTreeSet<u64>>(),
            expected,
            "node {id} delivered each sequence exactly once"
        );
    }
}

/// The reactor's scale row: 1000 live TCP nodes (listeners and sockets) on
/// one reactor pool deliver the whole stream, and every node's delivered
/// set equals the sim engine's prediction of the same scenario. Needs
/// ~11k file descriptors, ten times the usual soft limit, so only the
/// `scale-nightly` job runs it (`ulimit -Sn 32768`, `-- --ignored`).
#[test]
#[ignore = "1000 TCP nodes need ~11k fds (ulimit -Sn 32768); run by scale-nightly"]
fn tcp_1000_nodes_match_the_sim_delivered_sets() {
    const NODES: u32 = 1000;
    const MESSAGES: u64 = 20;
    const PAYLOAD: usize = 1024;
    const SEED: u64 = 0xB215A;
    let stack = BrisaStackConfig {
        hpv: HyParViewConfig::with_active_size(4),
        brisa: BrisaConfig::default(),
    };

    let scenario = BrisaScenario {
        nodes: NODES,
        seed: SEED,
        stream: StreamSpec::short(MESSAGES, PAYLOAD),
        bootstrap: SimDuration::from_secs(20),
        drain: SimDuration::from_secs(10),
        ..Default::default()
    };
    let sim = Runner::<BrisaNode>::new(&stack, &scenario.run_spec()).run();
    let sim_sets = sim.view().delivered_sets(Population::All);

    // Mirror the sim's bootstrap schedule: joins staggered over the first
    // half of the bootstrap window, then the overlay settles through the
    // second half. The default 2 ms launch stagger is a join storm at this
    // population — a thousand joins funnel through the contact node, whose
    // active view thrashes until the overlay fragments.
    let half_bootstrap = Duration::from_secs(10);
    let cfg = ClusterConfig {
        nodes: NODES,
        seed: SEED,
        join_stagger: half_bootstrap / NODES,
        ..Default::default()
    };
    let mut cluster: Cluster<BrisaNode> = Cluster::launch(&cfg, &stack).expect("launch");
    cluster.run_for(half_bootstrap);
    for _ in 0..MESSAGES {
        cluster.publish(PAYLOAD);
        cluster.run_for(Duration::from_millis(10));
    }
    let complete = cluster.wait_for_delivery(MESSAGES, Duration::from_secs(300));
    let result = cluster.stop_and_collect();
    assert!(
        complete && result.delivery_rate() == 1.0,
        "stream incomplete at {NODES} TCP nodes (rate {})",
        result.delivery_rate()
    );
    result
        .check_delivery_invariants()
        .expect("live trace passes the delivery invariants");
    assert_eq!(
        sim_sets,
        result.view().delivered_sets(Population::All),
        "live delivered sets diverge from the sim prediction (live fp {})",
        result.delivery_fingerprint()
    );
}
