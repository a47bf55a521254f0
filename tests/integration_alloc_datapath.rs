//! Allocation budget of the BRISA data path, counted.
//!
//! The paper's efficiency argument is that once the structure has emerged a
//! stream message costs a node one reception, one duplicate check and one
//! relay. This binary installs a counting `#[global_allocator]` and drives a
//! `BrisaCore` the way `BrisaNode` does — one reused action vector — through
//! the steady state of an emerged tree, asserting the budget per message:
//!
//! * a first reception from the parent at a **leaf**: 0 allocations;
//! * at an **interior** node with `k` children: exactly 1 (the relayed
//!   `Arc<DataMsg>`, shared by the `k` sends; its guard shares the node's
//!   path);
//! * a **duplicate**, from the parent or from a surplus sender: 0.
//!
//! The window starts past warm-up (the retransmission ring full, the action
//! vector and the delivery ledger grown): the ledger is the one structure
//! on the path that still grows with the stream, amortised — a bitmap word
//! per 64 messages, and under `DeliveryTracking::Full` 8 bytes per message —
//! and the window sits between two of its doublings.
//!
//! The counter is per thread, so the test harness's own threads do not
//! leak into a measurement.

use brisa::{
    BrisaAction, BrisaConfig, BrisaCore, BrisaMsg, CycleGuard, DataMsg, NoTelemetry, ParentStrategy,
};
use brisa_simnet::{NodeId, SimTime};
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
        assert_eq!(core.stats().duplicates, 2);
    }
}
