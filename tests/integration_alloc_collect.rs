//! One copy of the delivery record, counted.
//!
//! The paper's latency and routing-delay figures are computed from every
//! (node, message) first-delivery time, so a Classic run must hand that
//! record over — but it need not hold it more than once. This binary
//! installs a counting `#[global_allocator]` that keeps the live heap bytes
//! and their peak, runs a 300-node, 200-message Classic
//! `Runner::<BrisaNode>` shaped like the `sim-stream` benchmark workload,
//! and checks:
//!
//! * every report's `first_delivery` is allocated at its length;
//! * `fingerprint()` is one allocation, of at least its final length;
//! * the run's peak live heap is at most the same spec's Streaming peak,
//!   plus what the Full ledgers hold, plus one copy of the record and a
//!   tenth of one. A collect that keeps the ledgers alive while it builds
//!   the reports, or reports with growth slack, holds more.
//!
//! The counters are per thread, so the test harness's other threads do
//! not leak into a measurement; the runs use the sequential driver, which
//! runs on the calling thread.

use brisa::BrisaNode;
use brisa_simnet::{DeliveryLog, DeliveryTracking, SimDuration, SimTime};
use brisa_workloads::{
    BrisaScenario, BrisaStackConfig, EngineResult, IntoRunSpec, ResultMode, Runner, StreamSpec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Books one allocation or reallocation of `size` bytes that changes this
/// thread's live bytes by `delta`.
fn book(size: usize, delta: isize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    grow(delta);
}

fn grow(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s without destructors, so touching them neither
// allocates nor can run after their own teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size(), layout.size() as isize);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(new_size, new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`, with the caller's `realloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocated on this thread: allocations and reallocations, the
/// largest single request, and the peak of live bytes above where they
/// stood when it started.
struct Usage {
    allocations: u64,
    largest: usize,
    peak_bytes: usize,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    let allocations = ALLOCATIONS.with(Cell::get);
    LARGEST.with(|l| l.set(0));
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    let out = f();
    let usage = Usage {
        allocations: ALLOCATIONS.with(Cell::get) - allocations,
        largest: LARGEST.with(Cell::get),
        peak_bytes: (PEAK.with(Cell::get) - live) as usize,
    };
    (out, usage)
}

const NODES: u32 = 300;
const MESSAGES: u64 = 200;

/// `sim-stream`'s shape at a test's size: view 4, 1 KiB payloads at
/// 200/s, a 20 s bootstrap and a 3 s drain.
fn scenario(results: ResultMode) -> BrisaScenario {
    BrisaScenario {
        nodes: NODES,
        view_size: 4,
        seed: 1,
        stream: StreamSpec {
            messages: MESSAGES,
            rate_per_sec: 200.0,
            payload_bytes: 1024,
        },
        bootstrap: SimDuration::from_secs(20),
        drain: SimDuration::from_secs(3),
        results,
        ..Default::default()
    }
}

fn run(results: ResultMode) -> (EngineResult, Usage) {
    let sc = scenario(results);
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let spec = sc.run_spec();
    measure(|| Runner::<BrisaNode>::new(&cfg, &spec).run())
}

/// What one node's Full ledger holds on the heap once it has recorded the
/// whole stream in order.
fn full_ledger_bytes() -> usize {
    let mut log = DeliveryLog::new(DeliveryTracking::Full);
    for seq in 0..MESSAGES {
        log.record(seq, SimTime::from_micros(seq));
    }
    log.heap_bytes()
}

#[test]
fn a_classic_run_holds_the_delivery_record_once() {
    let (classic, classic_usage) = run(ResultMode::Classic);
    let (streaming, streaming_usage) = run(ResultMode::Streaming);
    assert_eq!(classic.nodes.len(), NODES as usize, "no node crashed");
    assert_eq!(
        streaming.streaming.as_ref().map(|s| s.eligible),
        Some(u64::from(NODES) - 1)
    );

    let entries: usize = classic
        .nodes
        .iter()
        .map(|n| n.report.first_delivery.len())
        .sum();
    assert_eq!(
        entries,
        NODES as usize * MESSAGES as usize,
        "every pair delivered"
    );
    for n in &classic.nodes {
        let fd = &n.report.first_delivery;
        assert_eq!(
            fd.capacity(),
            fd.len(),
            "{:?}'s record has growth slack",
            n.id
        );
    }

    let record = entries * std::mem::size_of::<(u64, SimTime)>();
    let ledgers = classic.nodes.len() * full_ledger_bytes();
    let bound = streaming_usage.peak_bytes + ledgers + record * 11 / 10;
    eprintln!(
        "peak live heap: Classic {} B, Streaming {} B; Full ledgers {ledgers} B, record {record} B, \
         bound {bound} B",
        classic_usage.peak_bytes, streaming_usage.peak_bytes,
    );
    assert!(
        classic_usage.peak_bytes <= bound,
        "a Classic run peaked at {} B, above Streaming's {} B + the ledgers' {ledgers} B + one \
         record's {record} B and a tenth",
        classic_usage.peak_bytes,
        streaming_usage.peak_bytes,
    );
}

#[test]
fn a_fingerprint_is_one_allocation_of_its_length() {
    let (classic, _) = run(ResultMode::Classic);
    let (fingerprint, usage) = measure(|| classic.fingerprint());
    // Every entry is written as `(seq, µs)` with a separator: no less than
    // eight bytes.
    let entries = NODES as usize * MESSAGES as usize;
    assert!(fingerprint.len() > 8 * entries, "the record is in it");
    assert_eq!(usage.allocations, 1, "allocations made by fingerprint()");
    assert!(
        usage.largest >= fingerprint.len(),
        "its one allocation holds {} B of a {} B fingerprint",
        usage.largest,
        fingerprint.len()
    );
}
