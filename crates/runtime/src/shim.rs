//! The live fault model: the simulator's [`FaultLayer`] on the reactor's
//! own deadlines.
//!
//! There is no second fault implementation. A live cluster shares one
//! [`FaultLayer`] — the very type the simulator routes every message
//! through — behind [`ShimControl`], and the reactor asks it for a verdict
//! at the two places a protocol touches the network:
//!
//! * **`Command::Send`** calls `FaultLayer::route(me, to, now, ZERO)`. With
//!   zero modelled latency the simulator's formula *is* the live rule: a
//!   `Drop` cut or a lost Bernoulli draw discards the frame; a `Delay` cut
//!   answers `max(now, heal)`, the heal instant; jitter answers
//!   `now + draw`; `latency_factor` scales nothing (a live link's latency is
//!   whatever the real network does). Cut-dominates, the loss-then-jitter
//!   draw order and the per-link counter discipline are therefore not
//!   mirrored but shared: for one master seed, the `n`-th draw on directed
//!   link `from → to` is the same number in a simulated run and a live one.
//!   A verdict in the future parks the frame on the worker's timer heap
//!   (the *held frame* timer kind) and the socket adds its transit on
//!   release, so a frame sent during a `Delay` window arrives at
//!   `max(send + link latency, heal)` in both worlds.
//! * **`Command::OpenConnection`** asks `FaultLayer::is_cut`. Partitions do
//!   not tear down connections (same as the sim), but an *attempt* across
//!   an active cut never reaches the connection table — a SYN lost inside
//!   the partition — and surfaces as `on_link_down` after the simulator's
//!   `NetworkConfig::failure_detection_delay` (the *cut open* timer kind).
//!
//! Both kinds sit on the same `(deadline, seq)` heap as protocol timers, so
//! no thread, queue or lock exists for them; they die with the node that
//! owns them, like everything else on that heap.
//!
//! Per-destination FIFO is preserved across held and unheld frames: while
//! any frame to `d` is parked, every later frame to `d` parks too and
//! releases no earlier (the sim's per-link FIFO clocks give the same
//! guarantee).
//!
//! An inert layer (no profile, no partition) costs a send one flag read:
//! the lock is taken only while adversity is installed.

use crate::clock::WallClock;
use brisa_simnet::faults::{FaultConfig, FaultLayer, Routed};
use brisa_simnet::{LinkFaults, NetworkConfig, NodeId, PartitionSpec, SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// How long a connection attempt across an active cut takes to surface as
/// a link-down: the simulator's failure-detection delay itself.
pub(crate) fn detection_delay() -> Duration {
    Duration::from_micros(NetworkConfig::default().failure_detection_delay.as_micros())
}

/// Counters of everything the fault layer did to live traffic,
/// cluster-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShimStats {
    /// Frames the layer was consulted on and let through untouched (an
    /// inert layer is not consulted).
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

struct Shared {
    layer: Mutex<FaultLayer>,
    /// `!layer.is_inert()`: lets the send path skip the lock while nothing
    /// is installed. Stored (`Release`) under the lock by whoever changed the
    /// layer, loaded (`Acquire`) by senders; the layer itself is only ever
    /// read under its mutex, so the flag publishes no data of its own.
    active: AtomicBool,
    stats: StatsCells,
}

/// What the fault layer decided for one live frame.
pub(crate) enum Fate {
    /// Hand it to the connection table now.
    Pass,
    /// Park it until this cluster time (or the destination's FIFO floor,
    /// whichever is later).
    Hold(SimTime),
    /// Lost or cut; already counted.
    Dropped,
}

/// Cluster-wide control plane of the fault model: one instance is shared
/// (cloned) by the reactor's workers and the driver, so flipping the
/// profile or installing a partition affects every link at once — the live
/// counterpart of `Network::set_link_faults` / `Network::add_partition`.
#[derive(Clone)]
pub struct ShimControl {
    shared: Arc<Shared>,
    clock: WallClock,
}

impl ShimControl {
    /// An inert control plane drawing from `master_seed`'s fault stream.
    /// `clock` is the cluster's clock — partition windows are expressed in
    /// its time base.
    pub fn new(master_seed: u64, clock: WallClock) -> Self {
        ShimControl {
            shared: Arc::new(Shared {
                layer: Mutex::new(FaultLayer::new(master_seed, FaultConfig::default())),
                active: AtomicBool::new(false),
                stats: StatsCells::default(),
            }),
            clock,
        }
    }

    /// The cluster clock partition windows are read against.
    pub fn clock(&self) -> &WallClock {
        &self.clock
    }

    fn layer(&self) -> MutexGuard<'_, FaultLayer> {
        self.shared
            .layer
            .lock()
            .expect("a thread panicked while holding the fault layer")
    }

    /// Runs `f` on the layer and republishes its inert flag.
    fn update<R>(&self, f: impl FnOnce(&mut FaultLayer) -> R) -> R {
        let mut layer = self.layer();
        let out = f(&mut layer);
        self.shared
            .active
            .store(!layer.is_inert(), Ordering::Release);
        out
    }

    /// Replaces the live per-link stochastic profile.
    pub fn set_link_faults(&self, link: LinkFaults) {
        self.update(|layer| layer.set_link_faults(link));
    }

    /// Installs an additional timed partition.
    pub fn add_partition(&self, spec: PartitionSpec) {
        self.update(|layer| layer.add_partition(spec));
    }

    /// Forgets every draw counter involving `node`, both directions — the
    /// simulator's crash rule, so a restarted node's links draw from `1`.
    pub fn prune(&self, node: NodeId) {
        self.layer().prune(node);
    }

    /// Snapshot of the cluster-wide counters.
    pub fn stats(&self) -> ShimStats {
        let s = &self.shared.stats;
        ShimStats {
            frames_passed: s.passed.load(Ordering::Relaxed),
            frames_lost: s.lost.load(Ordering::Relaxed),
            frames_cut: s.cut.load(Ordering::Relaxed),
            frames_delayed: s.delayed.load(Ordering::Relaxed),
            linkdowns_synthesized: s.linkdowns.load(Ordering::Relaxed),
        }
    }

    fn is_active(&self) -> bool {
        self.shared.active.load(Ordering::Acquire)
    }

    /// The fate of one frame `from → to` sent at `now`. `behind_held` says
    /// earlier frames to `to` are still parked, so this one must queue
    /// behind them whatever the layer answers.
    pub(crate) fn route(&self, from: NodeId, to: NodeId, now: SimTime, behind_held: bool) -> Fate {
        let verdict = if self.is_active() {
            // `update`: retiring the last expired partition, which `route`
            // does, turns the layer inert.
            self.update(|layer| layer.route(from, to, now, SimDuration::ZERO))
        } else if behind_held {
            Routed::Deliver(now)
        } else {
            return Fate::Pass;
        };
        let stats = &self.shared.stats;
        let (cell, fate) = match verdict {
            Routed::LostToFaults => (&stats.lost, Fate::Dropped),
            Routed::CutByPartition => (&stats.cut, Fate::Dropped),
            Routed::Deliver(at) if at > now || behind_held => (&stats.delayed, Fate::Hold(at)),
            Routed::Deliver(_) => (&stats.passed, Fate::Pass),
        };
        cell.fetch_add(1, Ordering::Relaxed);
        fate
    }

    /// True (and counted) if an active partition separates `from` and
    /// `peer` at `now`: the attempt must fail locally, never reaching the
    /// connection table.
    pub(crate) fn cuts_open(&self, from: NodeId, peer: NodeId, now: SimTime) -> bool {
        let cut = self.is_active() && self.layer().is_cut(now, from, peer);
        if cut {
            self.shared.stats.linkdowns.fetch_add(1, Ordering::Relaxed);
        }
        cut
    }
}

/// The fault model's behaviours, observed where they take effect: a
/// one-worker [`ReactorPool`](crate::reactor::ReactorPool) over a
/// [`TcpMesh`](crate::tcp::TcpMesh) with a recording protocol.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::reactor::ReactorPool;
    use crate::tcp::TcpMesh;
    use brisa::StackMsg;
    use brisa_membership::HpvMsg;
    use brisa_simnet::{Context, FaultPrf, PartitionMode, Protocol, TimerTag};
    use std::time::Instant;

    /// What one node heard: keep-alive nonces and link-downs, with the
    /// instant each reached the protocol.
    #[derive(Default)]
    struct Heard {
        frames: Vec<(NodeId, u64, Instant)>,
        downs: Vec<(NodeId, Instant)>,
    }

    struct Recorder(Arc<Mutex<Heard>>);

    impl Protocol for Recorder {
        type Message = StackMsg;

        fn on_start(&mut self, _ctx: &mut Context<'_, StackMsg>) {}

        fn on_message(&mut self, _ctx: &mut Context<'_, StackMsg>, from: NodeId, msg: StackMsg) {
            if let StackMsg::Hpv(HpvMsg::KeepAlive { nonce }) = msg {
                let mut heard = self.0.lock().unwrap();
                heard.frames.push((from, nonce, Instant::now()));
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, StackMsg>, _tag: TimerTag) {}

        fn on_link_down(&mut self, _ctx: &mut Context<'_, StackMsg>, peer: NodeId) {
            self.0.lock().unwrap().downs.push((peer, Instant::now()));
        }
    }

    struct Rig {
        pool: ReactorPool<Recorder>,
        heard: Vec<Arc<Mutex<Heard>>>,
    }

    impl Rig {
        /// `nodes` recorders on one worker, all behind `ctl`.
        fn new(ctl: &ShimControl, nodes: u32) -> Rig {
            let mesh = TcpMesh::bind(nodes as usize).expect("bind");
            let cfg = RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            };
            let pool = ReactorPool::with_telemetry(
                ctl.clone(),
                &cfg,
                brisa_telemetry::Telemetry::disabled(),
            );
            let heard: Vec<_> = (0..nodes).map(|_| Arc::default()).collect();
            for i in 0..nodes {
                let id = NodeId(i);
                pool.add_listener(id, mesh.take_listener(id), mesh.addrs());
                pool.start_node(id, Recorder(Arc::clone(&heard[i as usize])), 1);
            }
            Rig { pool, heard }
        }

        /// Node 0 sends the keep-alives `nonces` to `to`, in one callback.
        fn send(&self, to: u32, nonces: std::ops::Range<u64>) {
            self.pool.invoke(NodeId(0), move |_p, ctx| {
                for nonce in nonces {
                    ctx.send(NodeId(to), StackMsg::Hpv(HpvMsg::KeepAlive { nonce }));
                }
            });
        }

        /// Waits until `node` heard `n` frames (or two seconds pass) and
        /// returns them.
        fn frames(&self, node: u32, n: usize) -> Vec<(NodeId, u64, Instant)> {
            self.wait(|| self.heard[node as usize].lock().unwrap().frames.len() >= n);
            self.heard[node as usize].lock().unwrap().frames.clone()
        }

        fn downs(&self, node: u32) -> Vec<(NodeId, Instant)> {
            self.heard[node as usize].lock().unwrap().downs.clone()
        }

        fn wait(&self, mut pred: impl FnMut() -> bool) -> bool {
            let end = Instant::now() + Duration::from_secs(2);
            while !pred() && Instant::now() < end {
                std::thread::sleep(Duration::from_millis(2));
            }
            pred()
        }
    }

    fn nonces(frames: &[(NodeId, u64, Instant)]) -> Vec<u64> {
        frames.iter().map(|(_, nonce, _)| *nonce).collect()
    }

    #[test]
    fn inert_profile_passes_everything_through() {
        let ctl = ShimControl::new(7, WallClock::new());
        let rig = Rig::new(&ctl, 2);
        rig.send(1, 0..50);
        let got = rig.frames(1, 50);
        assert_eq!(nonces(&got), (0..50).collect::<Vec<u64>>());
        assert!(got.iter().all(|(from, _, _)| *from == NodeId(0)));
        assert_eq!(ctl.stats(), ShimStats::default(), "an inert layer is free");
    }

    #[test]
    fn loss_decisions_match_the_sim_prf() {
        // A live cluster must drop exactly the transmissions a simulated
        // one would: replay the PRF by hand and compare per-frame fate.
        let seed = 0xB215A;
        let loss_rate = 0.25;
        let ctl = ShimControl::new(seed, WallClock::new());
        ctl.set_link_faults(LinkFaults {
            loss_rate,
            ..Default::default()
        });
        let rig = Rig::new(&ctl, 2);
        let total = 400u64;
        let prf = FaultPrf::new(seed);
        let expected: Vec<u64> = (0..total)
            .filter(|i| prf.unit_draw(NodeId(0), NodeId(1), i + 1) >= loss_rate)
            .collect();
        rig.send(1, 0..total);
        // Node 0 has run the callback once every frame has a fate; node 1
        // has then heard every survivor once it heard as many as passed.
        assert!(rig.wait(|| {
            let stats = ctl.stats();
            stats.frames_passed + stats.frames_lost == total
        }));
        let stats = ctl.stats();
        assert_eq!(stats.frames_lost, total - expected.len() as u64);
        assert_eq!(stats.frames_passed, expected.len() as u64);
        let got = rig.frames(1, stats.frames_passed as usize);
        assert_eq!(nonces(&got), expected, "live loss fate must equal sim fate");
    }

    #[test]
    fn drop_partition_cuts_and_heals() {
        let clock = WallClock::new();
        let ctl = ShimControl::new(3, clock);
        let rig = Rig::new(&ctl, 3);
        let start = clock.now();
        ctl.add_partition(PartitionSpec::new(
            vec![NodeId(1)],
            start,
            start + SimDuration::from_millis(80),
            PartitionMode::Drop,
        ));
        rig.send(1, 1..2); // cross-cut: dropped
        rig.send(2, 2..3); // same side: passes
        assert_eq!(nonces(&rig.frames(2, 1)), vec![2]);
        std::thread::sleep(Duration::from_millis(100));
        rig.send(1, 3..4); // healed: passes
        assert_eq!(nonces(&rig.frames(1, 1)), vec![3]);
        assert_eq!(ctl.stats().frames_cut, 1);
    }

    #[test]
    fn delay_partition_releases_at_heal_in_order() {
        let clock = WallClock::new();
        let ctl = ShimControl::new(3, clock);
        let rig = Rig::new(&ctl, 2);
        let start = clock.now();
        let heal = start + SimDuration::from_millis(120);
        ctl.add_partition(PartitionSpec::new(
            vec![NodeId(1)],
            start,
            heal,
            PartitionMode::Delay,
        ));
        rig.send(1, 1..3);
        let got = rig.frames(1, 2);
        assert_eq!(nonces(&got), vec![1, 2], "FIFO through the hold");
        assert!(
            got[0].2 >= clock.instant_at(heal),
            "released no earlier than the heal instant"
        );
        assert_eq!(ctl.stats().frames_delayed, 2);
    }

    #[test]
    fn jitter_delays_but_keeps_fifo() {
        let ctl = ShimControl::new(11, WallClock::new());
        ctl.set_link_faults(LinkFaults {
            jitter: SimDuration::from_millis(30),
            ..Default::default()
        });
        let rig = Rig::new(&ctl, 2);
        let sent_at = Instant::now();
        rig.send(1, 0..20);
        let got = rig.frames(1, 20);
        assert_eq!(
            nonces(&got),
            (0..20).collect::<Vec<u64>>(),
            "FIFO per destination"
        );
        assert!(got
            .iter()
            .all(|(_, _, at)| at.duration_since(sent_at) <= Duration::from_millis(500)));
        assert!(
            ctl.stats().frames_delayed > 0,
            "30 ms of jitter held nothing"
        );
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
        let rig = Rig::new(&ctl, 3);
        let asked = Instant::now();
        rig.pool.invoke(NodeId(0), |_p, ctx| {
            ctx.open_connection(NodeId(1)); // cross-cut: fails after the delay
            ctx.open_connection(NodeId(2)); // same side: registered
        });
        assert!(rig.wait(|| !rig.downs(0).is_empty()));
        let (peer, at) = rig.downs(0)[0];
        assert_eq!(peer, NodeId(1));
        assert!(
            at.duration_since(asked) >= detection_delay(),
            "failure surfaces only after the detection delay"
        );
        assert_eq!(ctl.stats().linkdowns_synthesized, 1);
        // The same-side open registered with its peer: stopping that peer
        // reports it. The cut one never did: stopping node 1 is silent.
        let _ = rig.pool.stop_node(NodeId(2)).recv();
        assert!(rig.wait(|| rig.downs(0).len() == 2));
        let _ = rig.pool.stop_node(NodeId(1)).recv();
        std::thread::sleep(Duration::from_millis(50));
        let peers: Vec<NodeId> = rig.downs(0).iter().map(|(p, _)| *p).collect();
        assert_eq!(peers, vec![NodeId(1), NodeId(2)]);
    }
}
