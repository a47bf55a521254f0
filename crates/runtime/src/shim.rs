//! The transport fault shim: `simnet::faults` semantics over a real
//! transport.
//!
//! [`FaultShim`] decorates any [`Transport`] and applies the same three
//! fault families as the simulator's fault layer — per-link Bernoulli
//! loss, uniform per-message jitter, and timed partitions — by drawing
//! from the **same counter-based split-seed PRF**
//! ([`brisa_simnet::FaultPrf`]): for one master seed, the `n`-th fault
//! draw on directed link `from → to` is the same number in a simulated
//! run and a live one, so a `FaultSpec`/`PartitionPhase` schedule means
//! the same thing in both worlds.
//!
//! The routing pipeline mirrors `FaultLayer::route` decision for
//! decision:
//!
//! 1. **Cut dominates.** Traffic crossing an active partition never
//!    consumes loss or jitter draws (so a partition cannot perturb the
//!    draw streams of uncut links). `Drop` cuts discard the frame;
//!    `Delay` cuts hold it and release it at the heal instant.
//! 2. **Loss draw first, then jitter draw**, in the sim's order, so the
//!    two worlds consume identical counter sequences per link.
//! 3. `latency_factor` is a *simulator-only* knob — it scales the
//!    modelled link latency, and a live link's latency is whatever the
//!    real network does — so the shim treats any factor as `1.0`.
//!
//! `Delay`-cut release semantics are **aligned** between the two worlds:
//! a frame sent during the window arrives at `max(send + link latency,
//! heal)`. The sim charges its modelled latency from the send instant
//! with the heal as a floor; the shim releases the frame at the heal
//! instant and the real transport adds its (loopback-scale) transit. A
//! frame sent close enough to the heal that its flight straddles it is
//! unaffected in both worlds.
//!
//! Partitions do **not** tear down connections (same as the sim), but
//! connection *attempts* across an active cut fail after the configured
//! detection delay ([`RuntimeConfig::detection_delay`]) — the live
//! counterpart of the sim's `failure_detection_delay`, pinned equal by
//! default in `config`'s unit tests. The failure is synthesized locally;
//! the attempt never reaches the inner transport, exactly as a SYN lost
//! inside the partition.
//!
//! Per-destination FIFO is preserved across delayed and undelayed
//! frames: once a frame to `d` is scheduled for a future release, every
//! later frame to `d` releases no earlier (the sim's per-link FIFO
//! clocks give the same guarantee).

use crate::clock::WallClock;
use crate::config::RuntimeConfig;
use crate::transport::{FrameSink, NetEvent, Transport};
use brisa_simnet::{FaultPrf, LinkFaults, NodeId, PartitionMode, PartitionSpec};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Counters of everything the shim did to traffic, cluster-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShimStats {
    /// Frames passed through untouched.
    pub frames_passed: u64,
    /// Frames dropped by per-link Bernoulli loss.
    pub frames_lost: u64,
    /// Frames dropped by an active `Drop` partition cut.
    pub frames_cut: u64,
    /// Frames held back (jitter or a `Delay` cut) and released later.
    pub frames_delayed: u64,
    /// Link-down events synthesized for connection attempts across an
    /// active cut.
    pub linkdowns_synthesized: u64,
}

#[derive(Default)]
struct StatsCells {
    passed: AtomicU64,
    lost: AtomicU64,
    cut: AtomicU64,
    delayed: AtomicU64,
    linkdowns: AtomicU64,
}

/// The mutable fault profile shared by every node's shim.
struct ShimState {
    link: LinkFaults,
    partitions: Vec<PartitionSpec>,
}

/// Cluster-wide control plane of the fault shim: one instance is shared
/// (cloned) across all nodes, so flipping the profile or installing a
/// partition affects every link at once — the live counterpart of
/// `Network::set_link_faults` / `Network::add_partition`.
#[derive(Clone)]
pub struct ShimControl {
    state: Arc<Mutex<ShimState>>,
    prf: FaultPrf,
    clock: WallClock,
    cfg: RuntimeConfig,
    stats: Arc<StatsCells>,
}

impl ShimControl {
    /// A control plane drawing from `master_seed`'s fault stream, with an
    /// inert profile and default timings. `clock` must be the cluster's
    /// clock — partition windows are expressed in its time base.
    pub fn new(master_seed: u64, clock: WallClock) -> Self {
        Self::with_runtime(master_seed, clock, RuntimeConfig::default())
    }

    /// Like [`ShimControl::new`], with explicit runtime timings (the
    /// cluster passes its own [`RuntimeConfig`] so the shim's synthetic
    /// detection delay matches the transport's real one).
    pub fn with_runtime(master_seed: u64, clock: WallClock, cfg: RuntimeConfig) -> Self {
        ShimControl {
            state: Arc::new(Mutex::new(ShimState {
                link: LinkFaults::default(),
                partitions: Vec::new(),
            })),
            prf: FaultPrf::new(master_seed),
            clock,
            cfg,
            stats: Arc::new(StatsCells::default()),
        }
    }

    /// Replaces the live per-link stochastic profile.
    pub fn set_link_faults(&self, link: LinkFaults) {
        self.state.lock().unwrap().link = link;
    }

    /// Installs an additional timed partition.
    pub fn add_partition(&self, spec: PartitionSpec) {
        self.state.lock().unwrap().partitions.push(spec);
    }

    /// Snapshot of the cluster-wide shim counters.
    pub fn stats(&self) -> ShimStats {
        ShimStats {
            frames_passed: self.stats.passed.load(Ordering::Relaxed),
            frames_lost: self.stats.lost.load(Ordering::Relaxed),
            frames_cut: self.stats.cut.load(Ordering::Relaxed),
            frames_delayed: self.stats.delayed.load(Ordering::Relaxed),
            linkdowns_synthesized: self.stats.linkdowns.load(Ordering::Relaxed),
        }
    }

    /// Wraps `me`'s transport in a fault shim. `sink` must be a clone of
    /// the node's inbound sink — the shim delivers synthesized link-down
    /// events (failed connection attempts across a cut) through it.
    pub fn wrap(
        &self,
        me: NodeId,
        inner: Box<dyn Transport>,
        sink: Box<dyn FrameSink>,
    ) -> FaultShim {
        let inner = Arc::new(Mutex::new(inner));
        let pump = Pump::spawn(me, Arc::clone(&inner), sink);
        FaultShim {
            me,
            ctl: self.clone(),
            counters: HashMap::new(),
            release_floor: HashMap::new(),
            inner,
            pump,
        }
    }
}

/// What the delay pump does when an entry comes due.
enum PumpAction {
    /// Release a held frame to the inner transport.
    Frame { to: NodeId, frame: Vec<u8> },
    /// Deliver a synthesized link-down into the local executor.
    LinkDown { peer: NodeId },
}

struct PumpEntry {
    at: Instant,
    seq: u64,
    action: PumpAction,
}

impl PartialEq for PumpEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for PumpEntry {}
impl Ord for PumpEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for PumpEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct PumpState {
    heap: BinaryHeap<Reverse<PumpEntry>>,
    seq: u64,
    stopping: bool,
}

/// The per-node delay pump: one thread releasing held frames at their
/// scheduled instants, `(at, seq)`-ordered like the executor's timer heap.
struct Pump {
    shared: Arc<(Mutex<PumpState>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Pump {
    fn spawn(me: NodeId, inner: Arc<Mutex<Box<dyn Transport>>>, sink: Box<dyn FrameSink>) -> Self {
        let shared = Arc::new((
            Mutex::new(PumpState {
                heap: BinaryHeap::new(),
                seq: 0,
                stopping: false,
            }),
            Condvar::new(),
        ));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("brisa-shim-{}", me.0))
            .spawn(move || pump_main(thread_shared, inner, sink))
            .expect("spawn shim pump thread");
        Pump {
            shared,
            handle: Some(handle),
        }
    }

    fn push(&self, at: Instant, action: PumpAction) {
        let (lock, cv) = &*self.shared;
        let mut st = lock.lock().unwrap();
        let seq = st.seq;
        st.seq += 1;
        st.heap.push(Reverse(PumpEntry { at, seq, action }));
        cv.notify_one();
    }

    fn stop(&mut self) {
        let (lock, cv) = &*self.shared;
        {
            let mut st = lock.lock().unwrap();
            st.stopping = true;
            // Pending entries die with the shim: a killed node's in-flight
            // delayed traffic is gone, like the sim dropping events of a
            // crashed node.
            st.heap.clear();
            cv.notify_one();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn pump_main(
    shared: Arc<(Mutex<PumpState>, Condvar)>,
    inner: Arc<Mutex<Box<dyn Transport>>>,
    mut sink: Box<dyn FrameSink>,
) {
    let (lock, cv) = &*shared;
    let mut st = lock.lock().unwrap();
    loop {
        if st.stopping {
            return;
        }
        let now = Instant::now();
        let due = matches!(st.heap.peek(), Some(Reverse(e)) if e.at <= now);
        if due {
            let Reverse(entry) = st.heap.pop().expect("peeked entry");
            drop(st);
            match entry.action {
                PumpAction::Frame { to, frame } => inner.lock().unwrap().send(to, frame),
                PumpAction::LinkDown { peer } => {
                    sink.deliver(NetEvent::LinkDown { peer });
                }
            }
            st = lock.lock().unwrap();
            continue;
        }
        st = match st.heap.peek() {
            Some(Reverse(e)) => {
                let wait = e.at.saturating_duration_since(now);
                cv.wait_timeout(st, wait).unwrap().0
            }
            None => cv.wait(st).unwrap(),
        };
    }
}

/// One node's fault-injecting view of the interconnect (see the module
/// docs for the exact semantics). Created through [`ShimControl::wrap`].
pub struct FaultShim {
    me: NodeId,
    ctl: ShimControl,
    /// Per-destination fault-draw counters for links `me → to`; together
    /// the per-node maps partition the sim's per-link counter table.
    counters: HashMap<u32, u64>,
    /// Per-destination FIFO floor: the latest scheduled release among
    /// frames still held for that destination.
    release_floor: HashMap<u32, Instant>,
    inner: Arc<Mutex<Box<dyn Transport>>>,
    pump: Pump,
}

impl FaultShim {
    /// The next uniform draw in `[0, 1)` on link `me → to` — same PRF,
    /// same counter discipline as `FaultLayer::unit_draw`.
    fn unit_draw(&mut self, to: NodeId) -> f64 {
        let n = self.counters.entry(to.0).or_insert(0);
        *n += 1;
        self.ctl.prf.unit_draw(self.me, to, *n)
    }

    /// Schedules `frame` for release at `at` (or the destination's FIFO
    /// floor, whichever is later) and advances the floor.
    fn hold(&mut self, to: NodeId, frame: Vec<u8>, at: Instant) {
        let at = match self.release_floor.get(&to.0) {
            Some(&floor) => at.max(floor),
            None => at,
        };
        self.release_floor.insert(to.0, at);
        self.ctl.stats.delayed.fetch_add(1, Ordering::Relaxed);
        self.pump.push(at, PumpAction::Frame { to, frame });
    }
}

impl Transport for FaultShim {
    fn send(&mut self, to: NodeId, frame: Vec<u8>) {
        let now = self.ctl.clock.now();
        // Read the profile under the lock, act outside it. Expired
        // partitions are retired time-driven, like the sim layer.
        let (link, cut) = {
            let mut st = self.ctl.state.lock().unwrap();
            if st.partitions.iter().any(|p| now >= p.end) {
                st.partitions.retain(|p| now < p.end);
            }
            let cut = st
                .partitions
                .iter()
                .find(|p| p.cuts(now, self.me, to))
                .map(|p| (p.mode, p.end));
            (st.link.clone(), cut)
        };
        // A cut dominates the stochastic profile: partitioned traffic
        // never consumes loss or jitter draws.
        if let Some((mode, heal)) = cut {
            match mode {
                PartitionMode::Drop => {
                    self.ctl.stats.cut.fetch_add(1, Ordering::Relaxed);
                }
                PartitionMode::Delay => {
                    let at = self.ctl.clock.instant_at(heal);
                    self.hold(to, frame, at);
                }
            }
            return;
        }
        let mut extra = Duration::ZERO;
        if !link.is_inert() {
            if link.loss_rate > 0.0 && self.unit_draw(to) < link.loss_rate {
                self.ctl.stats.lost.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // `latency_factor` scales the *modelled* latency and has no
            // live counterpart; only jitter adds real delay here.
            if !link.jitter.is_zero() {
                let micros = link.jitter.as_micros() as f64 * self.unit_draw(to);
                extra = Duration::from_micros(micros.round() as u64);
            }
        }
        let now_i = Instant::now();
        let floor_blocks = matches!(self.release_floor.get(&to.0), Some(&f) if f > now_i);
        if extra.is_zero() && !floor_blocks {
            self.ctl.stats.passed.fetch_add(1, Ordering::Relaxed);
            self.inner.lock().unwrap().send(to, frame);
        } else {
            self.hold(to, frame, now_i + extra);
        }
    }

    fn open_connection(&mut self, peer: NodeId) {
        let now = self.ctl.clock.now();
        let cut = {
            let st = self.ctl.state.lock().unwrap();
            st.partitions.iter().any(|p| p.cuts(now, self.me, peer))
        };
        if cut {
            // A connection attempt across an active cut fails after the
            // detection delay and never reaches the wire, like the sim's
            // treatment of connecting to an unreachable peer.
            self.ctl.stats.linkdowns.fetch_add(1, Ordering::Relaxed);
            self.pump.push(
                Instant::now() + self.ctl.cfg.detection_delay,
                PumpAction::LinkDown { peer },
            );
        } else {
            self.inner.lock().unwrap().open_connection(peer);
        }
    }

    fn close_connection(&mut self, peer: NodeId) {
        self.inner.lock().unwrap().close_connection(peer);
    }

    fn shutdown(&mut self) {
        self.pump.stop();
        self.inner.lock().unwrap().shutdown();
    }
}

impl Drop for FaultShim {
    fn drop(&mut self) {
        if self.pump.handle.is_some() {
            self.pump.stop();
        }
    }
}

/// Extends [`SimDuration`]-based jitter bounds checking in tests.
#[cfg(test)]
mod tests {
    use super::*;
    use brisa_simnet::SimDuration;
    use std::sync::mpsc;

    struct RecordingTransport {
        tx: mpsc::Sender<(NodeId, Vec<u8>, Instant)>,
        opened: mpsc::Sender<NodeId>,
    }

    impl Transport for RecordingTransport {
        fn send(&mut self, to: NodeId, frame: Vec<u8>) {
            let _ = self.tx.send((to, frame, Instant::now()));
        }
        fn open_connection(&mut self, peer: NodeId) {
            let _ = self.opened.send(peer);
        }
        fn close_connection(&mut self, _peer: NodeId) {}
        fn shutdown(&mut self) {}
    }

    struct TestSink(mpsc::Sender<NetEvent>);
    impl FrameSink for TestSink {
        fn deliver(&mut self, event: NetEvent) -> bool {
            self.0.send(event).is_ok()
        }
        fn box_clone(&self) -> Box<dyn FrameSink> {
            Box::new(TestSink(self.0.clone()))
        }
    }

    #[allow(clippy::type_complexity)]
    fn shim_under_test(
        ctl: &ShimControl,
        me: NodeId,
    ) -> (
        FaultShim,
        mpsc::Receiver<(NodeId, Vec<u8>, Instant)>,
        mpsc::Receiver<NodeId>,
        mpsc::Receiver<NetEvent>,
    ) {
        let (tx, rx) = mpsc::channel();
        let (otx, orx) = mpsc::channel();
        let (stx, srx) = mpsc::channel();
        let inner = Box::new(RecordingTransport { tx, opened: otx });
        let shim = ctl.wrap(me, inner, Box::new(TestSink(stx)));
        (shim, rx, orx, srx)
    }

    #[test]
    fn inert_profile_passes_everything_through() {
        let ctl = ShimControl::new(7, WallClock::new());
        let (mut shim, rx, _orx, _srx) = shim_under_test(&ctl, NodeId(0));
        for i in 0..50u8 {
            shim.send(NodeId(1), vec![i]);
        }
        for i in 0..50u8 {
            let (to, frame, _) = rx.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(to, NodeId(1));
            assert_eq!(frame, vec![i]);
        }
        let stats = ctl.stats();
        assert_eq!(stats.frames_passed, 50);
        assert_eq!(
            stats.frames_lost + stats.frames_cut + stats.frames_delayed,
            0
        );
        shim.shutdown();
    }

    #[test]
    fn loss_decisions_match_the_sim_prf() {
        // The shim must drop exactly the transmissions the sim's fault
        // layer would: replay the PRF by hand and compare per-frame fate.
        let seed = 0xB215A;
        let loss = LinkFaults {
            loss_rate: 0.25,
            ..Default::default()
        };
        let ctl = ShimControl::new(seed, WallClock::new());
        ctl.set_link_faults(loss.clone());
        let (mut shim, rx, _orx, _srx) = shim_under_test(&ctl, NodeId(0));
        let total = 400u64;
        for i in 0..total {
            shim.send(NodeId(1), i.to_le_bytes().to_vec());
        }
        shim.shutdown();
        let mut arrived = Vec::new();
        while let Ok((_, frame, _)) = rx.try_recv() {
            arrived.push(u64::from_le_bytes(frame.try_into().unwrap()));
        }
        let prf = FaultPrf::new(seed);
        let expected: Vec<u64> = (0..total)
            .filter(|i| prf.unit_draw(NodeId(0), NodeId(1), i + 1) >= loss.loss_rate)
            .collect();
        assert_eq!(arrived, expected, "live loss fate must equal sim fate");
        assert_eq!(ctl.stats().frames_lost, total - expected.len() as u64);
    }

    #[test]
    fn drop_partition_cuts_and_heals() {
        let clock = WallClock::new();
        let ctl = ShimControl::new(3, clock);
        let start = clock.now();
        ctl.add_partition(PartitionSpec::new(
            vec![NodeId(1)],
            start,
            start + SimDuration::from_millis(80),
            PartitionMode::Drop,
        ));
        let (mut shim, rx, _orx, _srx) = shim_under_test(&ctl, NodeId(0));
        shim.send(NodeId(1), vec![1]); // cross-cut: dropped
        shim.send(NodeId(2), vec![2]); // same side: passes
        let (to, _, _) = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(to, NodeId(2));
        std::thread::sleep(Duration::from_millis(100));
        shim.send(NodeId(1), vec![3]); // healed: passes
        let (to, frame, _) = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((to, frame), (NodeId(1), vec![3]));
        assert_eq!(ctl.stats().frames_cut, 1);
        shim.shutdown();
    }

    #[test]
    fn delay_partition_releases_at_heal_in_order() {
        let clock = WallClock::new();
        let ctl = ShimControl::new(3, clock);
        let start = clock.now();
        let heal = start + SimDuration::from_millis(120);
        ctl.add_partition(PartitionSpec::new(
            vec![NodeId(1)],
            start,
            heal,
            PartitionMode::Delay,
        ));
        let (mut shim, rx, _orx, _srx) = shim_under_test(&ctl, NodeId(0));
        let held_at = Instant::now();
        shim.send(NodeId(1), vec![1]);
        shim.send(NodeId(1), vec![2]);
        let (_, f1, t1) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let (_, f2, t2) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(f1, vec![1]);
        assert_eq!(f2, vec![2]);
        assert!(t2 >= t1, "per-destination FIFO preserved through the hold");
        assert!(
            t1.duration_since(held_at) >= Duration::from_millis(100),
            "released no earlier than the heal instant"
        );
        assert_eq!(ctl.stats().frames_delayed, 2);
        shim.shutdown();
    }

    #[test]
    fn jitter_delays_but_keeps_fifo() {
        let ctl = ShimControl::new(11, WallClock::new());
        ctl.set_link_faults(LinkFaults {
            jitter: SimDuration::from_millis(30),
            ..Default::default()
        });
        let (mut shim, rx, _orx, _srx) = shim_under_test(&ctl, NodeId(0));
        let sent_at = Instant::now();
        for i in 0..20u8 {
            shim.send(NodeId(1), vec![i]);
        }
        let mut releases = Vec::new();
        for _ in 0..20 {
            let (_, frame, at) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            releases.push((frame[0], at));
        }
        let order: Vec<u8> = releases.iter().map(|(b, _)| *b).collect();
        assert_eq!(order, (0..20).collect::<Vec<u8>>(), "FIFO per destination");
        assert!(releases
            .iter()
            .all(|(_, at)| at.duration_since(sent_at) <= Duration::from_millis(500)));
        shim.shutdown();
    }

    #[test]
    fn open_across_cut_synthesizes_linkdown() {
        let clock = WallClock::new();
        let ctl = ShimControl::new(5, clock);
        let start = clock.now();
        ctl.add_partition(PartitionSpec::new(
            vec![NodeId(1)],
            start,
            start + SimDuration::from_secs(30),
            PartitionMode::Drop,
        ));
        let (mut shim, _rx, orx, srx) = shim_under_test(&ctl, NodeId(0));
        let asked = Instant::now();
        shim.open_connection(NodeId(1)); // cross-cut: fails after delay
        shim.open_connection(NodeId(2)); // same side: forwarded
        assert_eq!(orx.recv_timeout(Duration::from_secs(1)).unwrap(), NodeId(2));
        match srx.recv_timeout(Duration::from_secs(2)).unwrap() {
            NetEvent::LinkDown { peer } => assert_eq!(peer, NodeId(1)),
            other => panic!("expected synthesized link-down, got {other:?}"),
        }
        assert!(
            asked.elapsed() >= RuntimeConfig::default().detection_delay,
            "failure surfaces only after the configured detection delay"
        );
        assert!(
            orx.try_recv().is_err(),
            "cut attempt never reaches the wire"
        );
        assert_eq!(ctl.stats().linkdowns_synthesized, 1);
        shim.shutdown();
    }
}
