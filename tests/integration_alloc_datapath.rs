//! Allocation budget of the BRISA data path, counted.
//!
//! The paper's efficiency argument is that once the structure has emerged a
//! stream message costs a node one reception, one duplicate check and one
//! relay. This binary installs a counting `#[global_allocator]` and drives a
//! `BrisaCore` through the steady state of an emerged tree, its effects
//! recorded into one reused `Vec<BrisaAction>` sink (as `BrisaNode` writes
//! them into the simulator's reused command buffer), asserting the budget
//! per message:
//!
//! * a first reception from the parent at a **leaf**: 0 allocations;
//! * at an **interior** node with `k` children: exactly 1 (the relayed
//!   `Arc<DataMsg>`, shared by the `k` sends; its guard shares the node's
//!   path);
//! * a **duplicate**, from the parent or from a surplus sender: 0;
//! * a sequence number **past the ledger's window** (`low` plus
//!   `delivery::WINDOW` and up, as in `Data { seq: 2^40 }` or
//!   `Edge { highest: u64::MAX }`): 0, refused before it touches any state.
//!
//! The window starts past warm-up (the retransmission ring full, the action
//! vector and the delivery ledger grown): the ledger is the one structure
//! on the path that still grows with the stream, amortised — a bitmap word
//! per 64 messages, and under `DeliveryTracking::Full` 8 bytes per message,
//! until its storage slides behind the cursor two `delivery::WINDOW`s
//! back — and the measured window sits between two of its doublings.
//!
//! The control plane underneath has a budget too — keep-alives are most of
//! what a large overlay executes — and the second half of this file counts
//! it on a warmed-up `HyParView` (views populated, every small vector grown
//! to its working size) and through a whole `BrisaNode` callback:
//!
//! * `KeepAlive`, `KeepAliveAck`, `keepalive_tick`, a forwarded
//!   `ForwardJoin`, `Neighbor` / `NeighborReply`, `Disconnect` (with or
//!   without a promotion), a forwarded `Shuffle`, `ShuffleReply`: 0;
//! * `shuffle_tick`: exactly 1, the vector the `Shuffle` carries;
//! * a `Shuffle` at the end of its walk: exactly 1, the vector the
//!   `ShuffleReply` carries.
//!
//! The counter is per thread, so the test harness's own threads do not
//! leak into a measurement.

use brisa::{
    BrisaAction, BrisaConfig, BrisaCore, BrisaMsg, BrisaNode, CycleGuard, DataMsg, NoTelemetry,
    ParentStrategy, StackMsg, TIMER_KEEPALIVE,
};
use brisa_membership::{HpvMsg, HpvSink, HyParView, HyParViewConfig};
use brisa_simnet::{
    Command, Context, DeliveryLog, NodeId, Protocol, SimDuration, SimTime, TimerTag,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor can run after its own teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, with the caller's `realloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread performs while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const PARENT: NodeId = NodeId(1);
const WARM_UP: u64 = 1100;
const WINDOW: u64 = 200;

/// Node 0 in an emerged structure: neighbors 1–4, node 1 its parent, the
/// next `children` neighbors its children, the rest silenced (they sent
/// `Deactivate`, as a neighbor with another parent does). Returns the core
/// past warm-up, its reused action vector, and the next sequence number.
fn emerged(cfg: BrisaConfig, children: u32) -> (BrisaCore, Vec<BrisaAction>, u64) {
    let mut core = BrisaCore::new(NodeId(0), cfg);
    core.note_started(SimTime::ZERO);
    let mut actions = Vec::new();
    for peer in (1..=4).map(NodeId) {
        core.on_neighbor_up(peer);
    }
    for peer in (2 + children..=4).map(NodeId) {
        let stop = BrisaMsg::Deactivate { symmetric: false };
        core.handle(SimTime::ZERO, peer, stop, &NoTelemetry, &mut actions);
    }
    for seq in 0..WARM_UP {
        let msg = from_parent(&core, seq);
        core.handle(at(seq), PARENT, msg, &NoTelemetry, &mut actions);
        actions.clear();
    }
    assert_eq!(core.parents(), vec![PARENT]);
    assert_eq!(core.children().len(), children as usize);
    (core, actions, WARM_UP)
}

fn at(seq: u64) -> SimTime {
    SimTime::from_millis(5 * seq)
}

/// Stream message `seq` as the parent relays it, in the mode `core` runs.
fn from_parent(core: &BrisaCore, seq: u64) -> BrisaMsg {
    let guard = if core.config().mode.is_tree() {
        CycleGuard::Path(Arc::from([NodeId(9), NodeId(5), PARENT]))
    } else {
        CycleGuard::Depth(2)
    };
    BrisaMsg::data(DataMsg {
        seq,
        payload_bytes: 1024,
        guard,
        sender_uptime_secs: 30,
        sender_load: 3,
    })
}

/// Feeds `WINDOW` in-order first receptions from the parent and returns
/// the allocation count of each `handle` call (message construction, the
/// sender's cost, stays outside the count).
fn steady_state_counts(cfg: BrisaConfig, children: u32) -> Vec<u64> {
    let (mut core, mut actions, next) = emerged(cfg, children);
    (next..next + WINDOW)
        .map(|seq| {
            let msg = from_parent(&core, seq);
            let n = allocations_during(|| {
                core.handle(at(seq), PARENT, msg, &NoTelemetry, &mut actions);
            });
            let sends = actions
                .iter()
                .filter(|a| matches!(a, BrisaAction::Send { .. }))
                .count();
            assert_eq!(sends, children as usize, "one copy per child, seq {seq}");
            assert!(actions.contains(&BrisaAction::Deliver { seq }));
            actions.clear();
            n
        })
        .collect()
}

fn configs() -> Vec<(&'static str, BrisaConfig)> {
    let sized = |buffer_size| BrisaConfig {
        buffer_size,
        ..BrisaConfig::default()
    };
    vec![
        ("tree, buffer 64", sized(64)),
        ("tree, buffer 600", sized(600)),
        (
            "tree, delay-aware",
            BrisaConfig::tree(ParentStrategy::DelayAware),
        ),
        (
            "dag(2)",
            BrisaConfig::dag(2, ParentStrategy::FirstComeFirstPicked),
        ),
    ]
}

#[test]
fn the_counter_sees_an_allocation() {
    let n = allocations_during(|| drop(std::hint::black_box(Box::new(7u64))));
    assert_eq!(n, 1, "the zero counts below would be vacuous");
}

#[test]
fn a_leaf_allocates_nothing_per_first_reception() {
    for (label, cfg) in configs() {
        let counts = steady_state_counts(cfg, 0);
        assert!(
            counts.iter().all(|&n| n == 0),
            "{label}: a leaf allocated on the data path: {counts:?}"
        );
    }
}

#[test]
fn an_interior_node_allocates_only_the_relayed_copy() {
    for (label, cfg) in configs() {
        for children in 1..=3 {
            let counts = steady_state_counts(cfg.clone(), children);
            assert!(
                counts.iter().all(|&n| n == 1),
                "{label}, {children} children: expected exactly the one relayed message \
                 per reception: {counts:?}"
            );
        }
    }
}

#[test]
fn a_duplicate_allocates_nothing() {
    for (label, cfg) in configs() {
        let (mut core, mut actions, next) = emerged(cfg, 2);
        // The parent repeats the newest message (a retransmission crossing
        // the original, say): known, dropped, no relay.
        let again = from_parent(&core, next - 1);
        let n = allocations_during(|| {
            core.handle(at(next), PARENT, again, &NoTelemetry, &mut actions);
        });
        assert_eq!(n, 0, "{label}: duplicate from the parent");
        assert!(actions.is_empty(), "{label}: a duplicate is not relayed");
        // A surplus sender repeats it too: it is told to stop (tree) or
        // taken as the second parent (DAG) — bookkeeping in place either way.
        let surplus = NodeId(2);
        let again = from_parent(&core, next - 1);
        let n = allocations_during(|| {
            core.handle(at(next), surplus, again, &NoTelemetry, &mut actions);
        });
        assert_eq!(n, 0, "{label}: duplicate from a surplus sender");
        assert_eq!(core.stats().delivery.duplicates(), 2);
    }
}

#[test]
fn a_sequence_number_past_the_window_allocates_nothing() {
    let mut log = DeliveryLog::default();
    log.record(0, SimTime::ZERO);
    let n = allocations_during(|| assert!(!log.record(1 << 40, SimTime::ZERO)));
    assert_eq!(
        (n, log.delivered(), log.refused()),
        (0, 1, 1),
        "a ledger on the stream"
    );

    for (label, cfg) in configs() {
        let (mut core, mut actions, _) = emerged(cfg, 2);
        let hostile = from_parent(&core, 1 << 40);
        let n = allocations_during(|| {
            core.handle(at(WARM_UP), PARENT, hostile, &NoTelemetry, &mut actions);
            let edge = BrisaMsg::Edge { highest: u64::MAX };
            core.handle(at(WARM_UP), PARENT, edge, &NoTelemetry, &mut actions);
        });
        assert_eq!(n, 0, "{label}");
        assert!(
            actions.is_empty(),
            "{label}: refused, not relayed or requested"
        );
        assert_eq!(core.stats().delivery.refused(), 2, "{label}");
    }
}

// ---------------------------------------------------------------------
// The control plane
// ---------------------------------------------------------------------

/// A sink that executes nothing and allocates nothing: it keeps the last
/// message (so a test can answer it) and counts the rest.
#[derive(Default)]
struct Tally {
    sends: usize,
    last: Option<(NodeId, HpvMsg)>,
    view_changes: usize,
}

impl HpvSink for Tally {
    fn send(&mut self, to: NodeId, msg: HpvMsg) {
        self.sends += 1;
        self.last = Some((to, msg));
    }
    fn open_connection(&mut self, _peer: NodeId) {}
    fn close_connection(&mut self, _peer: NodeId) {}
    fn neighbor_up(&mut self, _peer: NodeId) {
        self.view_changes += 1;
    }
    fn neighbor_down(&mut self, _peer: NodeId) {
        self.view_changes += 1;
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Node 0 with neighbors 1–5 (one above the target of 4, inside the
/// expansion band), a full passive view, and every per-peer vector grown
/// by a few rounds of ordinary life: keep-alives answered and unanswered,
/// a neighbor gained and lost, a promotion requested and refused.
fn warmed_up_hyparview() -> (HyParView, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut node = HyParView::new(NodeId(0), HyParViewConfig::with_active_size(4));
    let mut sink = Tally::default();
    let neighbor = HpvMsg::Neighbor {
        high_priority: true,
    };
    for peer in (1..=7).map(NodeId) {
        node.handle(secs(0), peer, neighbor.clone(), &mut rng, &mut sink);
    }
    for peer in (100..140).map(NodeId) {
        let nodes = vec![peer];
        node.handle(
            secs(0),
            NodeId(1),
            HpvMsg::ShuffleReply { nodes },
            &mut rng,
            &mut sink,
        );
    }
    // Down to three neighbors: the Disconnects below the target each ask a
    // passive node to step in; refuse them all so the requests stay pending
    // and the retry path has run.
    for peer in (4..=7).map(NodeId) {
        node.handle(secs(1), peer, HpvMsg::Disconnect, &mut rng, &mut sink);
        if let Some((candidate, HpvMsg::Neighbor { .. })) = sink.last.take() {
            let no = HpvMsg::NeighborReply { accepted: false };
            node.handle(secs(1), candidate, no, &mut rng, &mut sink);
        }
    }
    for peer in (4..=5).map(NodeId) {
        node.handle(secs(2), peer, neighbor.clone(), &mut rng, &mut sink);
    }
    // Keep-alive rounds: two unanswered (the probe table reaches its
    // three-period ceiling), then answered ones.
    for round in 0..6u64 {
        node.keepalive_tick(secs(10 + 2 * round), &mut sink);
        if round >= 2 {
            let (peer, probe) = sink.last.take().expect("a probe was sent");
            if let HpvMsg::KeepAlive { nonce } = probe {
                let ack = HpvMsg::KeepAliveAck { nonce };
                node.handle(secs(10 + 2 * round), peer, ack, &mut rng, &mut sink);
            }
        }
    }
    node.shuffle_tick(&mut rng, &mut sink);
    // Top the reservoir back up after the promotions drew from it.
    for peer in (200..210).map(NodeId) {
        let nodes = vec![peer];
        node.handle(
            secs(22),
            NodeId(1),
            HpvMsg::ShuffleReply { nodes },
            &mut rng,
            &mut sink,
        );
    }
    assert_eq!(node.active_view().len(), 5);
    assert_eq!(node.passive_view().len(), node.config().passive_size);
    (node, rng)
}

/// Allocations of one `handle` call on a fresh copy of the warmed-up node
/// (message construction, the sender's cost, stays outside the count), and
/// the sink as the call left it.
fn handle_cost(from: NodeId, msg: HpvMsg) -> (u64, Tally, HyParView) {
    let (mut node, mut rng) = warmed_up_hyparview();
    let mut sink = Tally::default();
    let n = allocations_during(|| node.handle(secs(30), from, msg, &mut rng, &mut sink));
    (n, sink, node)
}

#[test]
fn keepalives_allocate_nothing() {
    let (n, sink, _) = handle_cost(NodeId(1), HpvMsg::KeepAlive { nonce: 7 });
    assert_eq!(
        (n, sink.sends),
        (0, 1),
        "probe from a neighbor: acknowledged"
    );
    let (n, sink, _) = handle_cost(NodeId(99), HpvMsg::KeepAlive { nonce: 7 });
    assert_eq!((n, sink.sends), (0, 1), "probe from a stranger: Disconnect");

    let (mut node, mut rng) = warmed_up_hyparview();
    let mut sink = Tally::default();
    let n = allocations_during(|| node.keepalive_tick(secs(30), &mut sink));
    assert_eq!((n, sink.sends), (0, 5), "one probe per neighbor");
    let (peer, probe) = sink.last.take().unwrap();
    let HpvMsg::KeepAlive { nonce } = probe else {
        panic!("{probe:?}");
    };
    let ack = HpvMsg::KeepAliveAck { nonce };
    let n = allocations_during(|| node.handle(secs(31), peer, ack, &mut rng, &mut sink));
    assert_eq!(n, 0, "acknowledgement");
    assert_eq!(node.rtt_to(peer), Some(SimDuration::from_secs(1)));
}

#[test]
fn view_maintenance_allocates_nothing() {
    let walk = HpvMsg::ForwardJoin {
        new_node: NodeId(50),
        ttl: 3,
    };
    let (n, sink, node) = handle_cost(NodeId(1), walk);
    assert_eq!((n, sink.sends, sink.view_changes), (0, 1, 0), "forwarded");
    assert!(node.passive_view().contains(&NodeId(50)), "ttl == prwl");

    let ask = HpvMsg::Neighbor {
        high_priority: false,
    };
    let (n, sink, node) = handle_cost(NodeId(60), ask);
    assert_eq!((n, sink.view_changes), (0, 1), "Neighbor accepted");
    assert!(node.is_neighbor(NodeId(60)));

    let yes = HpvMsg::NeighborReply { accepted: true };
    let (n, _, node) = handle_cost(NodeId(61), yes);
    assert_eq!(n, 0, "NeighborReply accepted");
    assert!(node.is_neighbor(NodeId(61)));

    // 5 -> 4 neighbors stays at the target: no replacement is sought.
    let (n, sink, _) = handle_cost(NodeId(1), HpvMsg::Disconnect);
    assert_eq!((n, sink.sends, sink.view_changes), (0, 0, 1));
    // 4 -> 3 falls below it: a passive node is asked in, still in place.
    let (mut node, mut rng) = warmed_up_hyparview();
    let mut sink = Tally::default();
    node.handle(secs(30), NodeId(1), HpvMsg::Disconnect, &mut rng, &mut sink);
    let n = allocations_during(|| {
        node.handle(secs(30), NodeId(2), HpvMsg::Disconnect, &mut rng, &mut sink)
    });
    assert_eq!(n, 0, "Disconnect with promotion");
    assert!(matches!(sink.last, Some((_, HpvMsg::Neighbor { .. }))));
    let no = HpvMsg::NeighborReply { accepted: false };
    let (candidate, _) = sink.last.take().unwrap();
    let n = allocations_during(|| node.handle(secs(30), candidate, no, &mut rng, &mut sink));
    assert_eq!(n, 0, "NeighborReply refused, next candidate asked");
    assert!(matches!(sink.last, Some((_, HpvMsg::Neighbor { .. }))));
}

#[test]
fn a_shuffle_allocates_only_what_goes_on_the_wire() {
    let (mut node, mut rng) = warmed_up_hyparview();
    let mut sink = Tally::default();
    let n = allocations_during(|| node.shuffle_tick(&mut rng, &mut sink));
    assert_eq!(n, 1, "shuffle_tick: the Shuffle's node list");
    let Some((_, HpvMsg::Shuffle { nodes, .. })) = sink.last.take() else {
        panic!("no shuffle sent");
    };
    assert_eq!(nodes.len(), 1 + 3 + 4, "self + active + passive samples");

    let walking = |ttl| HpvMsg::Shuffle {
        origin: NodeId(70),
        nodes: vec![NodeId(70), NodeId(71), NodeId(72)],
        ttl,
    };
    let (n, sink, _) = handle_cost(NodeId(1), walking(3));
    assert_eq!(n, 0, "Shuffle mid-walk: forwarded as it came");
    assert!(matches!(
        sink.last,
        Some((_, HpvMsg::Shuffle { ttl: 2, .. }))
    ));
    let (n, sink, _) = handle_cost(NodeId(1), walking(1));
    assert_eq!(
        n, 1,
        "Shuffle at the end of its walk: the reply's node list"
    );
    assert!(matches!(
        sink.last,
        Some((NodeId(70), HpvMsg::ShuffleReply { .. }))
    ));

    let reply = HpvMsg::ShuffleReply {
        nodes: vec![NodeId(80), NodeId(81), NodeId(82)],
    };
    let (n, _, node) = handle_cost(NodeId(1), reply);
    assert_eq!(n, 0, "ShuffleReply");
    assert!(node.passive_view().contains(&NodeId(80)));
}

#[test]
fn a_whole_stack_callback_allocates_nothing_for_a_keepalive() {
    // The same budget one level up: `BrisaNode` hands HyParView a sink over
    // the simulator's command buffer, so a probe costs the node nothing but
    // the command it pushes into storage the driver already owns.
    let hpv = HyParViewConfig::with_active_size(4);
    let mut node = BrisaNode::new(NodeId(0), hpv, BrisaConfig::default(), None);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut commands: Vec<Command<StackMsg>> = Vec::with_capacity(64);
    let mut deliver = |node: &mut BrisaNode, at: SimTime, from: NodeId, msg: HpvMsg| {
        commands.clear();
        let mut ctx = Context::external(at, NodeId(0), &mut rng, &mut commands);
        let n = allocations_during(|| node.on_message(&mut ctx, from, StackMsg::Hpv(msg)));
        (n, commands.len())
    };
    let neighbor = HpvMsg::Neighbor {
        high_priority: true,
    };
    for peer in (1..=4).map(NodeId) {
        deliver(&mut node, secs(0), peer, neighbor.clone());
    }
    let probe = HpvMsg::KeepAlive { nonce: 1 };
    assert_eq!(deliver(&mut node, secs(1), NodeId(2), probe), (0, 1));

    let mut tick = |node: &mut BrisaNode, at: SimTime| {
        commands.clear();
        let mut ctx = Context::external(at, NodeId(0), &mut rng, &mut commands);
        let tag = TimerTag::of_kind(TIMER_KEEPALIVE);
        let n = allocations_during(|| node.on_timer(&mut ctx, tag));
        (n, commands.len())
    };
    // Nobody answers: the probe table grows to its three-period ceiling,
    // after which a tick drops as many stale probes as it adds.
    for round in 1..=4 {
        tick(&mut node, secs(2 * round));
    }
    // Four probes plus the re-armed timer.
    assert_eq!(tick(&mut node, secs(10)), (0, 5));
}
