//! The cluster harness: boots N live nodes over TCP on `127.0.0.1`, drives
//! a broadcast workload and collects per-node reports.
//!
//! This is the live counterpart of `workloads::engine::Runner`: it
//! builds nodes through the same [`DisseminationProtocol`] trait (same
//! [`BuildCtx`] shape: node 0 is the source and contact point), publishes
//! through `publish_message`, and collects the same
//! [`NodeReport`]s into a [`LiveResult`] whose
//! `delivery_rate()`/`completeness()` are computed with the sim engine's
//! formulas — a simulated and a live run of one scenario are directly
//! comparable.
//!
//! All nodes share one [`ReactorPool`]: `runtime.workers` threads carry
//! the whole cluster regardless of its size, so a 1000-node TCP overlay
//! costs the same thread count as a 16-node one.

use crate::clock::WallClock;
use crate::config::RuntimeConfig;
use crate::reactor::ReactorPool;
use crate::report::{LiveNode, LiveResult};
use crate::shim::ShimControl;
use crate::tcp::TcpMesh;
use crate::wire::WireCodec;
use brisa_simnet::{NodeId, SimTime};
use brisa_telemetry::{EventKind as TelEventKind, Telemetry};
use brisa_workloads::{BuildCtx, DisseminationProtocol, NodeReport};
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The interconnect a cluster runs on. There is one: TCP. The type and
/// [`ClusterConfig::transport`] remain because callers written when there
/// was a choice still name them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Real TCP sockets on `127.0.0.1`.
    #[default]
    Tcp,
}

/// Parameters of a live cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (node 0 is the source and contact point).
    pub nodes: u32,
    /// The interconnect, which is always TCP; kept so existing callers
    /// still compile.
    pub transport: TransportKind,
    /// Base seed for the per-node deterministic RNGs and for the fault
    /// layer's draw stream ([`Cluster::shim`]).
    pub seed: u64,
    /// Pause between consecutive node launches. A small stagger mimics a
    /// deployment script bringing nodes up one by one and keeps the
    /// contact node from absorbing every join in the same instant.
    pub join_stagger: Duration,
    /// Extra interconnect capacity beyond `nodes`, reserved for
    /// mid-run joiners ([`Cluster::join_node`] — flash crowds in chaos
    /// scripts). Joins past the reserve panic.
    pub reserve: u32,
    /// Reactor sizing (worker count, idle-link cut-off).
    pub runtime: RuntimeConfig,
    /// Telemetry handle threaded into the reactor pool and every node's
    /// protocol [`Context`](brisa_simnet::Context). Disabled by default;
    /// an enabled handle is strictly out-of-band — it never alters
    /// protocol behaviour.
    pub telemetry: Telemetry,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 8,
            transport: TransportKind::Tcp,
            seed: 42,
            join_stagger: Duration::from_millis(2),
            reserve: 0,
            runtime: RuntimeConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// A running live cluster of `P` nodes.
pub struct Cluster<P: DisseminationProtocol>
where
    P: Send + 'static,
    P::Message: WireCodec,
{
    pool: ReactorPool<P>,
    /// Whether the slot's node is currently started (false after a kill).
    alive: Vec<bool>,
    source: NodeId,
    original_nodes: u32,
    publish_times: Vec<SimTime>,
    /// The bound interconnect, retained for the cluster's lifetime so
    /// killed nodes can rebind and reserved slots can join mid-run.
    mesh: TcpMesh,
    proto_cfg: P::Config,
    seed: u64,
    /// Total interconnect capacity (`nodes + reserve`).
    capacity: u32,
    /// Identifier the next [`Cluster::join_node`] will use.
    next_join: u32,
    /// Every node that was killed at least once, restarted or not —
    /// excluded from the survivor metrics of the final result.
    ever_killed: BTreeSet<u32>,
    telemetry: Telemetry,
}

impl<P> Cluster<P>
where
    P: DisseminationProtocol + Send + 'static,
    P::Message: WireCodec,
{
    /// Boots a cluster: binds the interconnect, spawns the reactor pool,
    /// builds every node through [`DisseminationProtocol::build`] and
    /// starts it on its shard. Returns once every node is started.
    pub fn launch(cfg: &ClusterConfig, proto_cfg: &P::Config) -> std::io::Result<Self> {
        let n = cfg.nodes.max(1);
        let capacity = n + cfg.reserve;
        // The interconnect is fully pre-bound — reserved slots included —
        // before any node starts, so the earliest join already finds its
        // contact reachable.
        let mesh = TcpMesh::bind(capacity as usize)?;
        let pool = ReactorPool::with_telemetry(
            ShimControl::new(cfg.seed, WallClock::new()),
            &cfg.runtime,
            cfg.telemetry.clone(),
        );

        let mut cluster = Cluster {
            pool,
            alive: vec![false; n as usize],
            source: NodeId(0),
            original_nodes: n,
            publish_times: Vec::new(),
            mesh,
            proto_cfg: proto_cfg.clone(),
            seed: cfg.seed,
            capacity,
            next_join: n,
            ever_killed: BTreeSet::new(),
            telemetry: cfg.telemetry.clone(),
        };

        // Start the nodes, source first; each later node gets the source
        // as its contact.
        let mut prev = None;
        for i in 0..n {
            let id = NodeId(i);
            let bctx = BuildCtx {
                index: i,
                population: n,
                contact: (i > 0).then_some(cluster.source),
                prev,
                is_source: i == 0,
            };
            let proto = P::build(proto_cfg, id, &bctx);
            cluster.attach(id, true)?;
            cluster.pool.start_node(id, proto, cfg.seed);
            cluster.alive[id.index()] = true;
            prev = Some(id);
            if !cfg.join_stagger.is_zero() && i + 1 < n {
                std::thread::sleep(cfg.join_stagger);
            }
        }

        Ok(cluster)
    }

    /// Hands `id`'s listener to its shard. `fresh` selects first-time
    /// attachment (pre-bound listener) vs the restart path (rebind of the
    /// advertised address).
    fn attach(&self, id: NodeId, fresh: bool) -> std::io::Result<()> {
        let listener = if fresh {
            self.mesh.take_listener(id)
        } else {
            self.mesh.rebind_listener(id)?
        };
        self.pool.add_listener(id, listener, self.mesh.addrs());
        Ok(())
    }

    /// The stream source (node 0).
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The cluster's wall clock (microseconds since launch, as `SimTime`).
    pub fn now(&self) -> SimTime {
        self.clock().now()
    }

    /// The shared wall clock itself, for converting schedule times into
    /// real deadlines.
    pub fn clock(&self) -> &WallClock {
        self.pool.clock()
    }

    /// Messages published so far.
    pub fn published(&self) -> u64 {
        self.publish_times.len() as u64
    }

    /// Number of nodes currently started.
    pub fn alive(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Publishes the next stream message at the source and records the
    /// injection time. Panics if the source was killed — a phantom publish
    /// would silently skew every delivery metric downstream.
    pub fn publish(&mut self, payload_bytes: usize) {
        assert!(
            self.alive[self.source.index()],
            "publish through a killed source"
        );
        self.publish_times.push(self.now());
        self.pool.invoke(self.source, move |p, ctx| {
            p.publish_message(ctx, payload_bytes)
        });
    }

    /// Lets the cluster run for `d` of wall time.
    pub fn run_for(&self, d: Duration) {
        std::thread::sleep(d);
    }

    /// The fault-model control plane: inert until a profile or a partition
    /// is installed through it, at which point every node's sends and opens
    /// meet `simnet::faults` semantics drawn from this cluster's seed.
    pub fn shim(&self) -> &ShimControl {
        self.pool.shim()
    }

    /// The telemetry handle this cluster was launched with.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Publishes cluster-level gauges into the telemetry registry: the
    /// fault layer's counters plus the live node count. No-op on a disabled
    /// handle. Call from a periodic ticker or before snapshotting.
    pub fn publish_telemetry(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .gauge("cluster.alive_nodes")
            .set(self.alive() as u64);
        self.telemetry
            .gauge("cluster.published")
            .set(self.published());
        let s = self.shim().stats();
        self.telemetry
            .gauge("shim.frames_passed")
            .set(s.frames_passed);
        self.telemetry.gauge("shim.frames_lost").set(s.frames_lost);
        self.telemetry.gauge("shim.frames_cut").set(s.frames_cut);
        self.telemetry
            .gauge("shim.frames_delayed")
            .set(s.frames_delayed);
        self.telemetry
            .gauge("shim.linkdowns_synthesized")
            .set(s.linkdowns_synthesized);
    }

    /// True if `id` is currently started.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive.get(id.index()).copied().unwrap_or(false)
    }

    /// Nodes killed at least once over the run so far (restarted or not).
    pub fn ever_killed(&self) -> Vec<u32> {
        self.ever_killed.iter().copied().collect()
    }

    /// Stops `id` (fail-stop from the peers' point of view: its sockets
    /// close and monitored connections surface link-downs). The node
    /// is excluded from the survivor metrics of the final result, like a
    /// crashed simulator node.
    pub fn kill(&mut self, id: NodeId) {
        if !self.is_alive(id) {
            return;
        }
        self.alive[id.index()] = false;
        self.ever_killed.insert(id.0);
        self.telemetry
            .event(self.now().as_micros(), id.0, TelEventKind::Crash, 0, 0);
        // Wait for the shard to confirm; a `None` reply means the node
        // already crashed (panicked) — same outcome, already torn down.
        let _ = self
            .pool
            .stop_node(id)
            .recv_timeout(Duration::from_secs(10));
        // The simulator's crash rule: the victim's fault-draw counters go,
        // both directions, so its next incarnation's links draw from 1.
        self.shim().prune(id);
    }

    /// Restarts a previously killed node under the same identifier with
    /// **empty protocol state** — the crash-recovery path. The node
    /// re-attaches to the interconnect (same advertised address), rejoins
    /// through the source contact and must catch up on the stream through
    /// the protocol's own repair machinery (buffer anchoring).
    pub fn restart(&mut self, id: NodeId) -> std::io::Result<()> {
        assert!(id != self.source, "cannot restart the source");
        assert!(!self.is_alive(id), "restart of a running node");
        self.attach(id, false)?;
        let bctx = BuildCtx {
            index: id.0,
            population: self.original_nodes,
            contact: Some(self.source),
            prev: None,
            is_source: false,
        };
        let proto = P::build(&self.proto_cfg, id, &bctx);
        self.pool.start_node(id, proto, self.seed);
        self.alive[id.index()] = true;
        self.telemetry
            .event(self.now().as_micros(), id.0, TelEventKind::Restart, 0, 0);
        Ok(())
    }

    /// Starts one fresh node in the next reserved interconnect slot
    /// (identifier `>= nodes`, so it is excluded from delivery eligibility
    /// exactly like a sim-side mid-run joiner) and returns its identifier.
    /// Panics once the reserve is exhausted.
    pub fn join_node(&mut self) -> NodeId {
        assert!(
            self.next_join < self.capacity,
            "interconnect reserve exhausted"
        );
        let id = NodeId(self.next_join);
        self.next_join += 1;
        self.attach(id, true)
            .expect("fresh slots use the pre-bound listener");
        let bctx = BuildCtx {
            index: id.0,
            population: self.original_nodes,
            contact: Some(self.source),
            prev: None,
            is_source: false,
        };
        let proto = P::build(&self.proto_cfg, id, &bctx);
        debug_assert_eq!(self.alive.len(), id.index());
        self.pool.start_node(id, proto, self.seed);
        self.alive.push(true);
        id
    }

    /// Snapshots every started node's report, in node order. Runs on the
    /// nodes' own shards (consistent with their protocol state), so this
    /// can be called mid-stream. A node that panicked since the last call
    /// is silently absent (its invoke is dropped by its shard).
    pub fn snapshot_reports(&self) -> Vec<(NodeId, NodeReport)> {
        let (tx, rx) = mpsc::channel::<(NodeId, NodeReport)>();
        let mut expected = 0;
        for (idx, started) in self.alive.iter().enumerate() {
            if !started {
                continue;
            }
            let tx = tx.clone();
            let id = NodeId(idx as u32);
            self.pool.invoke(id, move |p, _ctx| {
                let _ = tx.send((id, p.report()));
            });
            expected += 1;
        }
        drop(tx);
        let mut reports = Vec::with_capacity(expected);
        while let Ok(r) = rx.recv_timeout(Duration::from_secs(10)) {
            reports.push(r);
        }
        reports.sort_by_key(|(id, _)| *id);
        reports
    }

    /// Polls until every live non-source node has delivered `expected`
    /// messages, or `deadline` of wall time elapsed. Returns whether the
    /// target was reached. A node whose report snapshot timed out counts as
    /// not done — a wedged shard must fail the wait, not vanish from it.
    pub fn wait_for_delivery(&self, expected: u64, deadline: Duration) -> bool {
        let end = Instant::now() + deadline;
        loop {
            let reports = self.snapshot_reports();
            let done = reports.len() == self.alive()
                && reports
                    .iter()
                    .filter(|(id, _)| *id != self.source)
                    .all(|(_, r)| r.delivered >= expected);
            if done {
                return true;
            }
            if Instant::now() >= end {
                return false;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Stops every node, shuts the reactor pool down and assembles the
    /// final [`LiveResult`]. A node that panicked mid-run yields no
    /// [`LiveNode`] and is accounted like a killed one.
    pub fn stop_and_collect(mut self) -> LiveResult {
        // Ask every shard to stop its nodes; collect the replies after all
        // stops are queued so shards drain in parallel.
        let mut stops = Vec::new();
        for (idx, started) in self.alive.iter().enumerate() {
            if *started {
                let id = NodeId(idx as u32);
                stops.push((id, self.pool.stop_node(id)));
            }
        }
        let mut nodes = Vec::new();
        for (id, reply) in stops {
            match reply.recv_timeout(Duration::from_secs(10)) {
                Ok(Some((proto, stats))) => nodes.push(LiveNode {
                    id,
                    report: proto.report(),
                    stats,
                }),
                // Poisoned (panicked) or unresponsive: excluded from the
                // survivor metrics like any other dead node.
                Ok(None) | Err(_) => {
                    self.ever_killed.insert(id.0);
                }
            }
        }
        self.pool.shutdown();
        nodes.sort_by_key(|n| n.id);
        // Elapsed time is measured on the cluster clock (the epoch every
        // node stamps its telemetry against), so no report timestamp can
        // exceed it.
        let wall_elapsed = Duration::from_micros(self.now().as_micros());
        LiveResult {
            protocol: P::protocol_name(),
            source: self.source,
            original_nodes: self.original_nodes,
            messages_published: self.publish_times.len() as u64,
            publish_times: self.publish_times,
            nodes,
            wall_elapsed,
            ever_killed: self.ever_killed.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa::StackMsg;
    use brisa_membership::HpvMsg;
    use brisa_simnet::{Context, FaultPrf, LinkFaults, Protocol, TimerTag};
    use std::sync::{Arc, Mutex};

    /// `(receiver, sender)` of every frame any node heard.
    type Heard = Arc<Mutex<Vec<(NodeId, NodeId)>>>;

    /// Two nodes, one frame at a time: `v` pings `p` whenever it starts,
    /// the source `p` pings `v` whenever it publishes.
    struct Pinger {
        me: NodeId,
        peer: NodeId,
        is_source: bool,
        heard: Heard,
    }

    impl Pinger {
        fn ping(&self, ctx: &mut Context<'_, StackMsg>) {
            ctx.send(self.peer, StackMsg::Hpv(HpvMsg::KeepAlive { nonce: 0 }));
        }
    }

    impl Protocol for Pinger {
        type Message = StackMsg;

        fn on_start(&mut self, ctx: &mut Context<'_, StackMsg>) {
            if !self.is_source {
                self.ping(ctx);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, StackMsg>, from: NodeId, _msg: StackMsg) {
            self.heard.lock().unwrap().push((self.me, from));
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, StackMsg>, _tag: TimerTag) {}
    }

    impl DisseminationProtocol for Pinger {
        type Config = Heard;

        fn protocol_name() -> &'static str {
            "pinger"
        }
        fn build(heard: &Heard, id: NodeId, bctx: &BuildCtx) -> Self {
            Pinger {
                me: id,
                peer: NodeId(1 - id.0),
                is_source: bctx.is_source,
                heard: Arc::clone(heard),
            }
        }
        fn publish_message(&mut self, ctx: &mut Context<'_, StackMsg>, _payload_bytes: usize) {
            self.ping(ctx);
        }
        fn report(&self) -> NodeReport {
            NodeReport::default()
        }
    }

    /// One crash rule for draw counters, the simulator's: a kill forgets
    /// the victim's counters in *both* directions, so after a restart the
    /// first draw on `v → p` and on `p → v` is draw 1 again.
    #[test]
    fn kill_prunes_the_victims_draw_counters_in_both_directions() {
        let (p, v) = (NodeId(0), NodeId(1));
        let loss_rate = 0.5;
        // A seed on which draw 1 passes and draw 2 is lost, both ways: a
        // surviving counter would show as a lost ping.
        let seed = (0u64..)
            .find(|&seed| {
                let prf = FaultPrf::new(seed);
                [(v, p), (p, v)].iter().all(|&(a, b)| {
                    prf.unit_draw(a, b, 1) >= loss_rate && prf.unit_draw(a, b, 2) < loss_rate
                })
            })
            .expect("one seed in sixteen qualifies");
        let cfg = ClusterConfig {
            nodes: 2,
            seed,
            ..Default::default()
        };
        let heard = Heard::default();
        let mut cluster: Cluster<Pinger> = Cluster::launch(&cfg, &heard).expect("launch");
        let count = |to: NodeId, from: NodeId| {
            let heard = heard.lock().unwrap();
            heard.iter().filter(|&&pair| pair == (to, from)).count()
        };
        let wait_for = |to: NodeId, from: NodeId, n: usize| {
            let end = Instant::now() + Duration::from_secs(2);
            while count(to, from) < n && Instant::now() < end {
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(count(to, from), n, "pings {from:?} -> {to:?}");
        };
        wait_for(p, v, 1); // launch: inert layer, no draw taken
        cluster.shim().set_link_faults(LinkFaults {
            loss_rate,
            ..Default::default()
        });
        for round in 1..=2 {
            cluster.kill(v);
            cluster.restart(v).expect("restart");
            wait_for(p, v, 1 + round); // v -> p took draw 1
            cluster.publish(0);
            wait_for(v, p, round); // p -> v took draw 1
        }
        assert_eq!(cluster.shim().stats().frames_lost, 0);
        cluster.stop_and_collect();
    }
}
