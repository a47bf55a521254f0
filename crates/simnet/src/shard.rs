//! The sharded deterministic simulation: `k` cores in lock-step epochs.
//!
//! [`ShardedNetwork`] partitions the nodes of one simulation across `k`
//! [`Core`]s by id ([`Strided`] placement: `owner(id) = id % k`) and runs
//! each core's event queue on its own worker thread, in lock-step epochs.
//! The result is **bit-identical** to the sequential [`crate::Network`] run
//! with the same seed: every protocol callback sees the same RNG stream,
//! the same message order and the same timestamps. How an event is
//! processed is [`crate::core`]'s business and the entry points are
//! [`Driver`]'s; this module holds what `k ≥ 2` cores add — the placement,
//! the boundary drain and the epoch loop. With `k = 1` none of it runs:
//! the one core is driven by the same loop as [`crate::Network`], on the
//! calling thread.
//!
//! # Why determinism holds
//!
//! Three mechanisms combine:
//!
//! 1. **Lane-key event priorities** (see [`crate::sched`]). Every event's
//!    priority is `(causing_node << 32) | cause_counter`, drawn from the
//!    causing node's own counter. Priorities are globally unique, so
//!    `(time, prio)` is already a total order over all events of a run —
//!    the order cross-shard deliveries are appended to a mailbox is
//!    irrelevant, because the destination queue re-establishes the exact
//!    sequential order from the key alone.
//!
//! 2. **Conservative lookahead windows.** Cross-shard influence travels
//!    only through messages, and every message takes at least
//!    [`crate::latency::LatencyModel::min_latency`] (scaled down by the
//!    live `latency_factor` when it shrinks latencies). Each epoch, all
//!    shards agree on the global minimum pending timestamp `m` and process
//!    only events with `t ≤ m + L − 1µs`; any event a remote shard could
//!    still produce lands at `≥ m + L`, strictly beyond the window. The
//!    windows are therefore causally closed, and mailbox exchange happens
//!    at a barrier between windows. Models that cannot promise a positive
//!    bound (`min_latency() == 0`) are refused.
//!
//! 3. **A sequential boundary drain.** Driver operations (`invoke`,
//!    `crash`, `add_node`) happen between `run_until` calls, at the
//!    current instant. Events at exactly that instant — starts, zero-delay
//!    timers, crashes — can interleave with each other in prio order *and
//!    mutate shared state* (a crash flips liveness on all shards), so the
//!    driver drains that single instant sequentially, merging the
//!    per-shard queue heads by priority, before the threaded epochs begin.
//!
//! Per-shard state that must agree with the sequential run is either
//! *owned* (protocol state, RNG, FIFO clocks and fault counters of a
//! node's outgoing links live only on its owner shard) or *replicated
//! with deterministic updates* (liveness flips only in the boundary
//! drain; adjacency mutations are mirrored to the other endpoint's shard
//! at the epoch barrier, where they are reads-free until the next
//! boundary).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use crate::core::{Core, Placement, Relay};
use crate::event::EventKind;
use crate::latency::LatencyModel;
use crate::network::{Driver, NetworkConfig};
use crate::node::NodeId;
use crate::protocol::Protocol;
use crate::time::{SimDuration, SimTime};

/// The placement of shard `shard` of `shards`: it owns the ids with
/// `id % shards == shard`, densely at `id / shards`.
#[derive(Debug, Clone, Copy)]
pub struct Strided {
    shard: usize,
    shards: usize,
}

impl Placement for Strided {
    const SOLE: bool = false;

    fn owns(self, id: NodeId) -> bool {
        id.index() % self.shards == self.shard
    }

    fn local(self, id: NodeId) -> usize {
        id.index() / self.shards
    }

    fn home(self, id: NodeId) -> usize {
        id.index() % self.shards
    }
}

/// A deterministic simulation sharded across worker threads: `k` cores
/// with [`Strided`] placement, advanced in lock-step epochs whose width is
/// the latency model's lower bound, and bit-identical to [`crate::Network`]
/// with the same configuration and seed.
///
/// With two or more shards the latency model must promise a positive
/// [`LatencyModel::min_latency`] (`run_until` panics if that bound, scaled
/// by the live `latency_factor`, is below 1 µs). One shard has no such
/// restriction: it runs the same loop as [`crate::Network`], on the
/// calling thread.
pub type ShardedNetwork<P> = Driver<P, Strided>;

impl<P: Protocol> Driver<P, Strided> {
    /// Creates a sharded network. `shards` must be at least 1; the latency
    /// model is shared (it is sampled under each shard's own node RNGs).
    pub fn new(config: NetworkConfig, latency: Arc<dyn LatencyModel>, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        let placements = (0..shards).map(|shard| Strided { shard, shards });
        Self::with_placements(config, latency, placements.collect())
    }
}

impl<P: Protocol + Send, Pl: Placement> Driver<P, Pl>
where
    P::Message: Send,
{
    /// The epoch lookahead: the latency model's hard lower bound, shrunk
    /// by the live `latency_factor` when it compresses latencies (the
    /// fault layer rounds exactly like this, and rounding is monotone, so
    /// the result remains a true lower bound on every delivery delay).
    fn lookahead(&self) -> SimDuration {
        let base = self.cores[0].latency.min_latency();
        let factor = self.cores[0].faults.latency_factor();
        if factor < 1.0 {
            let scaled = (base.as_micros() as f64 * factor.max(0.0)).round() as u64;
            SimDuration::from_micros(scaled)
        } else {
            base
        }
    }

    /// [`Driver::run_until`] for two or more cores: the boundary drain,
    /// then threaded epochs up to `deadline`.
    ///
    /// # Panics
    ///
    /// If the effective lookahead is below 1 µs — a latency model without
    /// a positive `min_latency` (or a `latency_factor` that erases it)
    /// admits zero-delay cross-shard causality, which only a single core
    /// can honour.
    pub(crate) fn run_epochs_until(&mut self, deadline: SimTime) {
        assert!(deadline >= self.now(), "deadline is in the past");
        self.drain_boundary();
        let lookahead = self.lookahead();
        assert!(
            lookahead >= SimDuration::from_micros(1),
            "sharded runs need a positive minimum latency \
             (LatencyModel::min_latency × latency_factor ≥ 1µs); \
             use the sequential driver for this model"
        );
        let shards = self.cores.len();
        let mins: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let inboxes: Vec<Mutex<Vec<Relay<P::Message>>>> =
            (0..shards).map(|_| Mutex::new(Vec::new())).collect();
        let barrier = Barrier::new(shards);
        std::thread::scope(|scope| {
            for (shard, core) in self.cores.iter_mut().enumerate() {
                let (mins, inboxes, barrier) = (&mins, &inboxes, &barrier);
                scope.spawn(move || {
                    core.run_epochs(shard, deadline, lookahead, mins, inboxes, barrier)
                });
            }
        });
    }

    /// Sequentially drains every event at exactly the current instant —
    /// crashes, starts of nodes added "now", zero-delay timers — merging
    /// the per-shard queue heads in global priority order, exactly as one
    /// queue would pop them. Loops until the instant is dry (processing
    /// can mint more same-instant events).
    fn drain_boundary(&mut self) {
        let boundary = self.now();
        let mut held = Vec::with_capacity(self.cores.len());
        loop {
            // Pop each shard's head if it sits at the boundary instant,
            // keep the one with the lowest priority and push the others
            // back (priorities are preserved, and they alone determine
            // order).
            for (s, core) in self.cores.iter_mut().enumerate() {
                if core.queue.peek_time() == Some(boundary) {
                    held.push((s, core.queue.pop().expect("peeked event must exist")));
                }
            }
            let Some(first) = (0..held.len()).min_by_key(|&i| held[i].1.prio) else {
                break;
            };
            let (winner, ev) = held.swap_remove(first);
            for (s, other) in held.drain(..) {
                self.cores[s].queue.push(other.time, other.prio, other.item);
            }
            self.cores[winner].stats.events_processed += 1;
            match ev.item {
                // A crash flips liveness and prunes link state on every
                // shard; the victim's owner also schedules the link-downs.
                EventKind::Crash { node } => {
                    for core in self.cores.iter_mut() {
                        core.apply_crash(node);
                    }
                }
                other => self.cores[winner].process(other),
            }
            self.route_outboxes();
        }
    }
}

impl<P: Protocol, Pl: Placement> Core<P, Pl> {
    /// The threaded epoch loop of shard `shard`. All shards execute
    /// identical control flow: publish local minimum, agree on the global
    /// minimum at a barrier, process the causally closed window, exchange
    /// mailboxes at a second barrier, drain the own inbox, repeat.
    fn run_epochs(
        &mut self,
        shard: usize,
        deadline: SimTime,
        lookahead: SimDuration,
        mins: &[AtomicU64],
        inboxes: &[Mutex<Vec<Relay<P::Message>>>],
        barrier: &Barrier,
    ) {
        loop {
            let local_min = self.queue.peek_time().map_or(u64::MAX, SimTime::as_micros);
            mins[shard].store(local_min, Ordering::SeqCst);
            barrier.wait();
            let global_min = mins
                .iter()
                .map(|m| m.load(Ordering::SeqCst))
                .min()
                .expect("at least one shard");
            if global_min > deadline.as_micros() {
                // Every shard computes the same global minimum, so every
                // shard exits here in the same round: no barrier skew.
                break;
            }
            let window_end = global_min
                .saturating_add(lookahead.as_micros())
                .saturating_sub(1);
            self.run_to(deadline.min(SimTime::from_micros(window_end)));
            for (dest, inbox) in inboxes.iter().enumerate() {
                if !self.outbox[dest].is_empty() {
                    inbox
                        .lock()
                        .expect("inbox lock")
                        .append(&mut self.outbox[dest]);
                }
            }
            barrier.wait();
            let inbox = std::mem::take(&mut *inboxes[shard].lock().expect("inbox lock"));
            for relay in inbox {
                self.apply_relay(relay);
            }
        }
        self.now = deadline;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimerTag;
    use crate::faults::{FaultConfig, LinkFaults, PartitionMode, PartitionSpec};
    use crate::latency::{ClusterLatency, FixedLatency};
    use crate::network::Network;
    use crate::protocol::{Context, WireSize};
    use rand::Rng;

    /// A chatty protocol that exercises every divergence-prone path: RNG
    /// draws in callbacks, fan-out sends, timers, connection churn.
    #[derive(Debug)]
    struct Chat {
        peers: Vec<NodeId>,
        log: Vec<(NodeId, u8, SimTime)>,
        downs: Vec<(NodeId, SimTime)>,
        timers: u32,
    }

    #[derive(Debug, Clone)]
    struct Msg(u8);
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            64
        }
    }

    impl Chat {
        fn new(peers: Vec<NodeId>) -> Self {
            Chat {
                peers,
                log: Vec::new(),
                downs: Vec::new(),
                timers: 0,
            }
        }
    }

    impl Protocol for Chat {
        type Message = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for &p in &self.peers {
                ctx.open_connection(p);
            }
            if let Some(&first) = self.peers.first() {
                ctx.send(first, Msg(3));
            }
            ctx.set_timer(SimDuration::from_millis(40), TimerTag::of_kind(1));
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            self.log.push((from, msg.0, ctx.now()));
            if msg.0 > 0 && !self.peers.is_empty() {
                let idx = ctx.rng().gen_range(0..self.peers.len());
                let target = self.peers[idx];
                ctx.send(target, Msg(msg.0 - 1));
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _tag: TimerTag) {
            self.timers += 1;
            if self.timers <= 3 && !self.peers.is_empty() {
                let idx = ctx.rng().gen_range(0..self.peers.len());
                let target = self.peers[idx];
                ctx.send(target, Msg(2));
                ctx.set_timer(SimDuration::from_millis(40), TimerTag::of_kind(1));
            }
        }

        fn on_link_down(&mut self, ctx: &mut Context<'_, Msg>, peer: NodeId) {
            self.downs.push((peer, ctx.now()));
        }
    }

    fn ring_peers(i: u32, n: u32) -> Vec<NodeId> {
        vec![
            NodeId((i + 1) % n),
            NodeId((i + 2) % n),
            NodeId((i + n - 1) % n),
        ]
    }

    /// Every observable of a run: stats, per-node state and bandwidth,
    /// FIFO link clocks.
    fn fingerprint<Pl: Placement>(net: &Driver<Chat, Pl>, n: u32) -> String {
        let mut out = format!("{:?}\n", net.stats());
        let bw = net.bandwidth();
        for i in 0..n {
            let id = NodeId(i);
            out.push_str(&format!("{} alive={}", i, net.is_alive(id)));
            if let Some(p) = net.node(id) {
                out.push_str(&format!(
                    " log={:?} downs={:?} timers={}",
                    p.log, p.downs, p.timers
                ));
            }
            if let Some(bw) = bw.node(id) {
                out.push_str(&format!(" bw={:?}", bw));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:?}", net.link_clock_entries()));
        out
    }

    /// The scripted scenario, against either instance of the driver:
    /// staggered joins, ring gossip with RNG-picked forwards, invoked
    /// bursts, mid-run fault profile swap, a partition window,
    /// same-boundary crashes, connects to dead peers.
    fn drive<Pl: Placement>(net: &mut Driver<Chat, Pl>, n: u32) -> String {
        let send = |net: &mut Driver<Chat, Pl>, id: u32, to: u32, v: u8| {
            net.invoke(NodeId(id), |_p, ctx| ctx.send(NodeId(to), Msg(v)));
        };
        for i in 0..n {
            let peers = ring_peers(i, n);
            if i % 3 == 2 {
                net.add_node_at(SimTime::from_millis(5 * i as u64), |_| Chat::new(peers));
            } else {
                net.add_node(|_| Chat::new(peers));
            }
        }
        net.run_until(SimTime::from_millis(100));
        send(net, 0, n / 2, 4);
        send(net, 1, n - 1, 5);
        net.run_until(SimTime::from_millis(200));
        net.set_link_faults(LinkFaults {
            loss_rate: 0.1,
            jitter: SimDuration::from_micros(300),
            latency_factor: 0.5,
        });
        send(net, 2, 0, 6);
        net.run_until(SimTime::from_millis(300));
        net.add_partition(PartitionSpec::new(
            vec![NodeId(1), NodeId(4)],
            SimTime::from_millis(300),
            SimTime::from_millis(450),
            PartitionMode::Drop,
        ));
        net.run_until(SimTime::from_millis(400));
        // Two same-boundary crashes, one of which the other's incoming
        // lists reference — application order must follow lane priority.
        net.crash(NodeId(3));
        net.crash(NodeId(n - 2));
        send(net, 0, 3, 2); // still alive until the boundary
        net.run_until(SimTime::from_millis(600));
        // A node that connects to the dead peers after the fact.
        net.add_node(|_| Chat::new(vec![NodeId(3), NodeId(0)]));
        net.run_until(SimTime::from_millis(900));
        net.crash(NodeId(0));
        net.run_until(SimTime::from_millis(1200));
        fingerprint(net, n + 1)
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        let n = 11;
        let mut seq: Network<Chat> = Network::new(
            NetworkConfig::default(),
            Box::new(ClusterLatency::default()),
        );
        let expected = drive(&mut seq, n);
        for shards in [1, 2, 3, 4, 7] {
            let mut sharded: ShardedNetwork<Chat> = ShardedNetwork::new(
                NetworkConfig::default(),
                Arc::new(ClusterLatency::default()),
                shards,
            );
            let got = drive(&mut sharded, n);
            assert_eq!(expected, got, "sharded({shards}) diverged from sequential");
        }

        // One shard is the sequential loop, so it takes what only that loop
        // can: a model without lookahead.
        let zero = || FixedLatency::new(SimDuration::ZERO);
        let mut seq: Network<Chat> = Network::new(NetworkConfig::default(), Box::new(zero()));
        let mut one: ShardedNetwork<Chat> =
            ShardedNetwork::new(NetworkConfig::default(), Arc::new(zero()), 1);
        assert_eq!(drive(&mut seq, n), drive(&mut one, n));
    }

    #[test]
    fn sharded_with_configured_faults_matches_sequential() {
        // Faults active from construction (loss + delay partition),
        // exercising the per-shard fault replicas from the first event.
        let faults = FaultConfig {
            link: LinkFaults {
                loss_rate: 0.15,
                latency_factor: 1.5,
                ..Default::default()
            },
            partitions: vec![PartitionSpec::new(
                vec![NodeId(2)],
                SimTime::from_millis(50),
                SimTime::from_millis(150),
                PartitionMode::Delay,
            )],
        };
        let cfg = NetworkConfig {
            faults,
            ..NetworkConfig::default()
        };
        let n = 9;
        let mut seq: Network<Chat> = Network::new(cfg.clone(), Box::new(ClusterLatency::default()));
        let expected = drive(&mut seq, n);
        for shards in [2, 5] {
            let mut sharded: ShardedNetwork<Chat> =
                ShardedNetwork::new(cfg.clone(), Arc::new(ClusterLatency::default()), shards);
            assert_eq!(expected, drive(&mut sharded, n), "shards={shards}");
        }
    }

    /// Consuming a finished simulation yields exactly its live nodes'
    /// states, in ascending id order with the crashed ones skipped, and the
    /// same `(id, state)` sequence under either placement.
    #[test]
    fn into_live_nodes_is_ascending_live_and_placement_blind() {
        let n = 11;
        let states = |nodes: &mut dyn Iterator<Item = (NodeId, Chat)>| {
            nodes
                .map(|(id, p)| (id, format!("{p:?}")))
                .collect::<Vec<_>>()
        };
        let mut seq: Network<Chat> = Network::new(
            NetworkConfig::default(),
            Box::new(ClusterLatency::default()),
        );
        drive(&mut seq, n);
        let alive = seq.alive_ids();
        let live: Vec<_> = alive
            .iter()
            .map(|&id| (id, format!("{:?}", seq.node(id).expect("alive"))))
            .collect();
        // `drive` crashes three of its n + 1 nodes.
        assert_eq!(alive.len(), n as usize - 2);
        assert!(alive.windows(2).all(|w| w[0] < w[1]));
        for crashed in [0, 3, n - 2] {
            assert!(!alive.contains(&NodeId(crashed)));
        }
        assert_eq!(states(&mut seq.into_live_nodes()), live);
        for shards in [2, 3, 7] {
            let mut sharded: ShardedNetwork<Chat> = ShardedNetwork::new(
                NetworkConfig::default(),
                Arc::new(ClusterLatency::default()),
                shards,
            );
            drive(&mut sharded, n);
            let got = states(&mut sharded.into_live_nodes());
            assert_eq!(got, live, "sharded({shards}) yields another sequence");
        }
    }

    #[test]
    fn more_shards_than_nodes_is_fine() {
        let n = 3;
        let mut seq: Network<Chat> = Network::new(
            NetworkConfig::default(),
            Box::new(ClusterLatency::default()),
        );
        let expected = drive(&mut seq, n);
        let mut sharded: ShardedNetwork<Chat> = ShardedNetwork::new(
            NetworkConfig::default(),
            Arc::new(ClusterLatency::default()),
            16,
        );
        assert_eq!(expected, drive(&mut sharded, n));
    }

    #[test]
    #[should_panic(expected = "positive minimum latency")]
    fn zero_lookahead_model_is_refused() {
        // FixedLatency(0) has min_latency 0: only a single core can
        // honour zero-delay sends between any two nodes.
        let mut net: ShardedNetwork<Chat> = ShardedNetwork::new(
            NetworkConfig::default(),
            Arc::new(FixedLatency::new(SimDuration::ZERO)),
            2,
        );
        net.add_node(|_| Chat::new(vec![]));
        net.run_until(SimTime::from_secs(1));
    }

    #[test]
    fn merged_accessors_cover_all_nodes() {
        let mut net: ShardedNetwork<Chat> = ShardedNetwork::new(
            NetworkConfig::default(),
            Arc::new(ClusterLatency::default()),
            3,
        );
        for i in 0..7u32 {
            net.add_node(|_| Chat::new(ring_peers(i, 7)));
        }
        net.run_until(SimTime::from_millis(500));
        assert_eq!(net.node_count(), 7);
        assert_eq!(net.alive_ids().len(), 7);
        let bw = net.bandwidth();
        assert_eq!(bw.iter().count(), 7);
        assert!(bw.total_uploaded() > 0);
        // No faults configured: every sent byte is either delivered or
        // dropped on a dead/unstarted destination (all messages 64 bytes).
        assert_eq!(
            bw.total_uploaded(),
            bw.total_downloaded() + net.stats().messages_dropped * 64
        );
        let fp = net.footprint();
        assert_eq!(fp.nodes, 7);
        assert!(fp.total_bytes() > 0);
        assert!(net.typical_latency(NodeId(0), NodeId(1)) > SimDuration::ZERO);
    }
}
