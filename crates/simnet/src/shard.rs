//! The sharded deterministic simulation driver.
//!
//! [`ShardedNetwork`] partitions the nodes of one simulation across `k`
//! shards by id (`owner(id) = id % k`) and runs each shard's event queue on
//! its own worker thread, in lock-step epochs. The result is **bit-identical**
//! to the sequential [`crate::Network`] run with the same seed: every
//! protocol callback sees the same RNG stream, the same message order and
//! the same timestamps.
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
//!    timers, pending crashes — can interleave with each other in
//!    prio order *and mutate shared state* (a crash flips liveness on all
//!    shards), so the driver drains that single instant sequentially,
//!    merging the per-shard queue heads and the pending crash list by
//!    priority, before the threaded epochs begin.
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

use crate::bandwidth::{BandwidthMeter, Direction};
use crate::event::{EventKind, EventQueue};
use crate::faults::{FaultLayer, LinkFaults, PartitionSpec, Routed};
use crate::latency::LatencyModel;
use crate::links::{Adjacency, LinkClocks};
use crate::network::{event_record_size, Footprint, NetStats, NetworkConfig};
use crate::node::NodeId;
use crate::protocol::{Command, Context, Protocol, WireSize};
use crate::seed::split_mix64;
use crate::time::{SimDuration, SimTime};
use brisa_telemetry::EventKind as TelEventKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cross-shard mailbox item: either an event for the destination shard's
/// queue or an adjacency mirror notification (every mutation of an edge
/// whose endpoints live on different shards is replayed on the other
/// endpoint's shard, so `incoming_of` and `clear_outgoing` stay exact).
enum Relay<M> {
    Event {
        time: SimTime,
        prio: u64,
        kind: EventKind<M>,
    },
    Open {
        owner: NodeId,
        peer: NodeId,
    },
    Close {
        owner: NodeId,
        peer: NodeId,
    },
}

/// Protocol state of one owned node (dense, indexed by `id / shards`).
struct ShardSlot<P> {
    proto: P,
    rng: SmallRng,
    started: bool,
    /// Per-node cause counter for lane-key priorities; identical to the
    /// sequential driver's counter because every draw for this lane happens
    /// on this shard, in the same causal order.
    lane_seq: u32,
}

/// One shard: the slice of nodes it owns plus replicas of the shared
/// state its events read.
struct ShardCore<P: Protocol> {
    shard: usize,
    shards: usize,
    config: NetworkConfig,
    latency: Arc<dyn LatencyModel + Send + Sync>,
    now: SimTime,
    queue: EventQueue<P::Message>,
    /// Owned nodes, dense at `id / shards`.
    slots: Vec<ShardSlot<P>>,
    /// Replicated liveness for *all* nodes; flips only in the boundary
    /// drain, so mid-epoch reads are stable and identical on every shard.
    alive: Vec<bool>,
    /// Global-id-space adjacency. Out-lists of owned nodes are
    /// authoritative; edges with a remote endpoint are mirrored onto that
    /// endpoint's shard so its reverse index stays exact.
    connections: Adjacency,
    /// FIFO clocks of owned senders (a sender's clocks live only here).
    link_clock: LinkClocks,
    /// Fault-layer replica. Draw counters are per directed link and only
    /// bumped on the sender's shard, so replicas never disagree on a draw.
    faults: FaultLayer,
    bandwidth: BandwidthMeter,
    stats: NetStats,
    command_buf: Vec<Command<P::Message>>,
    /// Per-destination-shard outbound relays, exchanged at the epoch
    /// barrier (drained immediately by the driver during boundary drains).
    outbox: Vec<Vec<Relay<P::Message>>>,
}

impl<P: Protocol> ShardCore<P> {
    fn new(
        shard: usize,
        shards: usize,
        config: &NetworkConfig,
        latency: Arc<dyn LatencyModel + Send + Sync>,
    ) -> Self {
        ShardCore {
            shard,
            shards,
            config: config.clone(),
            latency,
            now: SimTime::ZERO,
            queue: EventQueue::new(config.scheduler, false),
            slots: Vec::new(),
            alive: Vec::new(),
            connections: Adjacency::default(),
            link_clock: LinkClocks::default(),
            faults: FaultLayer::new(config.seed, config.faults.clone()),
            bandwidth: BandwidthMeter::with_mode(config.meter),
            stats: NetStats::default(),
            command_buf: Vec::new(),
            outbox: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    fn owns(&self, id: NodeId) -> bool {
        id.index() % self.shards == self.shard
    }

    fn shard_of(&self, id: NodeId) -> usize {
        id.index() % self.shards
    }

    fn is_alive(&self, id: NodeId) -> bool {
        self.alive.get(id.index()).copied().unwrap_or(false)
    }

    fn set_alive(&mut self, id: NodeId, val: bool) {
        if self.alive.len() <= id.index() {
            self.alive.resize(id.index() + 1, false);
        }
        self.alive[id.index()] = val;
    }

    fn started(&self, id: NodeId) -> bool {
        self.slots
            .get(id.index() / self.shards)
            .map(|s| s.started)
            .unwrap_or(false)
    }

    /// Registers a node owned by another shard (liveness replica only).
    fn register_remote(&mut self, id: NodeId) {
        self.set_alive(id, true);
    }

    /// Adds a node this shard owns; mirrors
    /// `Network::add_node_with_seed` exactly.
    fn add_owned(
        &mut self,
        id: NodeId,
        start: SimTime,
        seed: u64,
        build: impl FnOnce(NodeId) -> P,
    ) {
        assert_eq!(
            id.index() / self.shards,
            self.slots.len(),
            "node ids must be added densely"
        );
        self.slots.push(ShardSlot {
            proto: build(id),
            rng: SmallRng::seed_from_u64(seed),
            started: false,
            lane_seq: 0,
        });
        self.set_alive(id, true);
        self.bandwidth.ensure(id);
        let prio = self.lane_key(id);
        self.queue.push(start, prio, EventKind::Start { node: id });
    }

    /// Identical to `Network::lane_key`: the causing node's id in the high
    /// bits, its cause counter in the low bits. Only ever called for lanes
    /// this shard owns (every event's cause is processed on its owner).
    fn lane_key(&mut self, lane: NodeId) -> u64 {
        let hi = (lane.0 as u64) << 32;
        if lane.index() % self.shards == self.shard {
            if let Some(slot) = self.slots.get_mut(lane.index() / self.shards) {
                let key = hi | slot.lane_seq as u64;
                slot.lane_seq = slot.lane_seq.wrapping_add(1);
                return key;
            }
        }
        hi
    }

    /// Applies one mailbox item delivered at an epoch barrier (or routed
    /// directly by the driver during a boundary drain).
    fn apply_relay(&mut self, relay: Relay<P::Message>) {
        match relay {
            Relay::Event { time, prio, kind } => self.queue.push(time, prio, kind),
            Relay::Open { owner, peer } => self.connections.insert(owner, peer),
            Relay::Close { owner, peer } => self.connections.remove(owner, peer),
        }
    }

    /// Processes one event; the body mirrors `Network::process` with
    /// cross-shard edge mutations mirrored through the outbox.
    fn process(&mut self, kind: EventKind<P::Message>) {
        match kind {
            EventKind::Start { node } => {
                if !self.is_alive(node) {
                    return;
                }
                self.slots[node.index() / self.shards].started = true;
                self.dispatch(node, |proto, ctx| proto.on_start(ctx));
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                size,
            } => {
                if !self.is_alive(to) || !self.started(to) {
                    self.stats.messages_dropped += 1;
                    return;
                }
                self.bandwidth
                    .record(to, Direction::Download, size, self.now);
                self.stats.messages_delivered += 1;
                self.dispatch(to, |proto, ctx| proto.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, tag } => {
                if !self.is_alive(node) {
                    return;
                }
                self.dispatch(node, |proto, ctx| proto.on_timer(ctx, tag));
            }
            EventKind::LinkDown { node, peer } => {
                if !self.is_alive(node) || !self.connections.contains(node, peer) {
                    return;
                }
                self.connections.remove(node, peer);
                if !self.owns(peer) {
                    let dest = self.shard_of(peer);
                    self.outbox[dest].push(Relay::Close { owner: node, peer });
                }
                self.dispatch(node, |proto, ctx| proto.on_link_down(ctx, peer));
            }
            EventKind::Crash { .. } => {
                // Crashes never enter a shard queue: the driver applies
                // them in the boundary drain.
                debug_assert!(false, "crash event in a shard queue");
            }
        }
    }

    fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Context<'_, P::Message>)) {
        let slot = &mut self.slots[id.index() / self.shards];
        let mut commands = std::mem::take(&mut self.command_buf);
        commands.clear();
        {
            let mut ctx = Context {
                now: self.now,
                id,
                rng: &mut slot.rng,
                commands: &mut commands,
                telemetry: &self.config.telemetry,
            };
            f(&mut slot.proto, &mut ctx);
        }
        let drained = self.apply_commands(id, commands);
        self.command_buf = drained;
    }

    /// Mirrors `Network::apply_commands`, routing cross-shard deliveries
    /// and edge mirrors through the outbox.
    fn apply_commands(
        &mut self,
        origin: NodeId,
        mut commands: Vec<Command<P::Message>>,
    ) -> Vec<Command<P::Message>> {
        for cmd in commands.drain(..) {
            match cmd {
                Command::Send { to, msg } => {
                    let size = msg.wire_size();
                    self.stats.messages_sent += 1;
                    self.bandwidth
                        .record(origin, Direction::Upload, size, self.now);
                    let latency = {
                        let rng = &mut self.slots[origin.index() / self.shards].rng;
                        self.latency.sample(origin, to, rng)
                    };
                    let mut deliver_at = self.now + latency;
                    if !self.faults.is_inert() {
                        match self.faults.route(origin, to, self.now, latency) {
                            Routed::Deliver(at) => deliver_at = at,
                            Routed::LostToFaults => {
                                self.stats.messages_lost_to_faults += 1;
                                continue;
                            }
                            Routed::CutByPartition => {
                                self.stats.messages_cut_by_partition += 1;
                                continue;
                            }
                        }
                    }
                    if self.config.fifo_links && self.is_alive(to) {
                        deliver_at = self.link_clock.stamp(origin, to, self.now, deliver_at);
                    }
                    let prio = self.lane_key(origin);
                    let kind = EventKind::Deliver {
                        from: origin,
                        to,
                        msg,
                        size,
                    };
                    if self.owns(to) {
                        self.queue.push(deliver_at, prio, kind);
                    } else {
                        let dest = self.shard_of(to);
                        self.outbox[dest].push(Relay::Event {
                            time: deliver_at,
                            prio,
                            kind,
                        });
                    }
                }
                Command::SetTimer { delay, tag } => {
                    let prio = self.lane_key(origin);
                    self.queue.push(
                        self.now + delay,
                        prio,
                        EventKind::Timer { node: origin, tag },
                    );
                }
                Command::OpenConnection { peer } => {
                    self.connections.insert(origin, peer);
                    if !self.owns(peer) {
                        let dest = self.shard_of(peer);
                        self.outbox[dest].push(Relay::Open {
                            owner: origin,
                            peer,
                        });
                    }
                    if !self.is_alive(peer)
                        || (!self.faults.is_inert() && self.faults.is_cut(self.now, origin, peer))
                    {
                        let prio = self.lane_key(origin);
                        self.queue.push(
                            self.now + self.config.failure_detection_delay,
                            prio,
                            EventKind::LinkDown { node: origin, peer },
                        );
                    }
                }
                Command::CloseConnection { peer } => {
                    self.connections.remove(origin, peer);
                    if !self.owns(peer) {
                        let dest = self.shard_of(peer);
                        self.outbox[dest].push(Relay::Close {
                            owner: origin,
                            peer,
                        });
                    }
                }
            }
        }
        commands
    }

    /// The threaded epoch loop of one shard. All shards execute identical
    /// control flow: publish local minimum, agree on the global minimum at
    /// a barrier, process the causally closed window, exchange mailboxes
    /// at a second barrier, drain the own inbox, repeat.
    fn run_epochs(
        &mut self,
        deadline_us: u64,
        lookahead_us: u64,
        mins: &[AtomicU64],
        inboxes: &[Mutex<Vec<Relay<P::Message>>>],
        barrier: &Barrier,
    ) {
        loop {
            let local_min = self
                .queue
                .peek_time()
                .map(|t| t.as_micros())
                .unwrap_or(u64::MAX);
            mins[self.shard].store(local_min, Ordering::SeqCst);
            barrier.wait();
            let global_min = mins
                .iter()
                .map(|m| m.load(Ordering::SeqCst))
                .min()
                .expect("at least one shard");
            if global_min > deadline_us {
                // Every shard computes the same global minimum, so every
                // shard exits here in the same round: no barrier skew.
                break;
            }
            let bound = SimTime::from_micros(
                deadline_us.min(global_min.saturating_add(lookahead_us).saturating_sub(1)),
            );
            while let Some(t) = self.queue.peek_time() {
                if t > bound {
                    break;
                }
                let ev = self.queue.pop().expect("peeked event must exist");
                self.now = ev.time;
                self.stats.events_processed += 1;
                self.process(ev.item);
            }
            for (dest, inbox) in inboxes.iter().enumerate() {
                if dest == self.shard || self.outbox[dest].is_empty() {
                    continue;
                }
                inbox
                    .lock()
                    .expect("inbox lock")
                    .append(&mut self.outbox[dest]);
            }
            barrier.wait();
            let inbox = std::mem::take(&mut *inboxes[self.shard].lock().expect("inbox lock"));
            for relay in inbox {
                self.apply_relay(relay);
            }
        }
    }

    fn footprint(&self) -> Footprint {
        let slot_overhead = std::mem::size_of::<ShardSlot<P>>() - std::mem::size_of::<P>();
        Footprint {
            nodes: self.slots.len(),
            node_state_bytes: self
                .slots
                .iter()
                .map(|n| n.proto.approx_state_bytes() + slot_overhead)
                .sum::<usize>()
                + self.alive.capacity(),
            queue_bytes: self.queue.len() * (event_record_size::<P>() + 24),
            adjacency_bytes: self.connections.approx_bytes(),
            link_clock_bytes: self.link_clock.approx_bytes(),
            bandwidth_bytes: self.bandwidth.approx_bytes(),
        }
    }
}

/// A deterministic simulation sharded across worker threads.
///
/// Drop-in alternative to [`crate::Network`] for the boundary-driven
/// experiment harness: nodes are added, invoked and crashed between
/// `run_until` calls, and every observable — stats, per-node state, FIFO
/// clocks, bandwidth — is bit-identical to the sequential run with the
/// same configuration and seed.
///
/// Differences from [`crate::Network`]:
///
/// * The latency model is shared by all shards and must promise a positive
///   [`LatencyModel::min_latency`]; `run_until` panics otherwise.
/// * Scheduler operation traces ([`NetworkConfig::trace_events`]) are not
///   supported (each shard has its own queue, so a single interleaved
///   trace does not exist); construction panics if requested.
/// * Crashes are applied at `run_until` boundaries (the harness only
///   crashes there); there is no `schedule_crash`.
pub struct ShardedNetwork<P: Protocol> {
    config: NetworkConfig,
    cores: Vec<ShardCore<P>>,
    latency: Arc<dyn LatencyModel + Send + Sync>,
    now: SimTime,
    node_count: usize,
    master_rng: SmallRng,
    reference_rng: SmallRng,
    /// Driver liveness mirror (flips at crash application, like every
    /// shard replica).
    alive: Vec<bool>,
    /// Crashes requested since the last boundary: `(lane prio, victim)`.
    /// The prio is drawn at `crash()` call time, exactly when the
    /// sequential driver draws it for the crash event push.
    pending_crashes: Vec<(u64, NodeId)>,
    /// Live `latency_factor`, tracked so the epoch lookahead can shrink
    /// with it (a factor below 1 compresses every sampled latency).
    link_factor: f64,
    /// Crash applications, counted as processed events like the
    /// sequential driver's crash-event pops.
    crash_events: u64,
}

impl<P: Protocol + Send> ShardedNetwork<P>
where
    P::Message: Send,
{
    /// Creates a sharded network. `shards` must be at least 1; the latency
    /// model is shared (it is sampled under each shard's own node RNGs).
    ///
    /// # Panics
    ///
    /// If `config.trace_events` is set (unsupported, see type docs).
    pub fn new(
        config: NetworkConfig,
        latency: Arc<dyn LatencyModel + Send + Sync>,
        shards: usize,
    ) -> Self {
        assert!(shards >= 1, "at least one shard");
        assert!(
            !config.trace_events,
            "scheduler traces are not supported by the sharded driver"
        );
        let master_rng = SmallRng::seed_from_u64(config.seed);
        let reference_rng = SmallRng::seed_from_u64(split_mix64(config.seed, 0x0DD5_EED5));
        let cores = (0..shards)
            .map(|s| ShardCore::new(s, shards, &config, Arc::clone(&latency)))
            .collect();
        let link_factor = config.faults.link.latency_factor;
        ShardedNetwork {
            config,
            cores,
            latency,
            now: SimTime::ZERO,
            node_count: 0,
            master_rng,
            reference_rng,
            alive: Vec::new(),
            pending_crashes: Vec::new(),
            link_factor,
            crash_events: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes ever added (dead or alive).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// True if `id` exists and has not crashed.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive.get(id.index()).copied().unwrap_or(false)
    }

    /// Iterator over the identifiers of all live nodes, ascending.
    pub fn alive_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, alive)| **alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Identifiers of all live nodes, collected into a fresh vector.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.alive_iter().collect()
    }

    /// Immutable access to the protocol state of `id`.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        let owner = id.index() % self.cores.len();
        self.cores[owner]
            .slots
            .get(id.index() / self.cores.len())
            .map(|s| &s.proto)
    }

    /// Mutable access to the protocol state of `id` (harness hook).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut P> {
        let shards = self.cores.len();
        let owner = id.index() % shards;
        self.cores[owner]
            .slots
            .get_mut(id.index() / shards)
            .map(|s| &mut s.proto)
    }

    /// Adds a node immediately (its `on_start` runs at the current time).
    pub fn add_node(&mut self, build: impl FnOnce(NodeId) -> P) -> NodeId {
        self.add_node_at(self.now, build)
    }

    /// Adds a node whose `on_start` runs at `start`. Seeds are drawn from
    /// the master RNG in global add order, so per-node streams match the
    /// sequential run exactly.
    pub fn add_node_at(&mut self, start: SimTime, build: impl FnOnce(NodeId) -> P) -> NodeId {
        assert!(start >= self.now, "cannot start a node in the past");
        let id = NodeId(self.node_count as u32);
        let seed: u64 = self.master_rng.gen();
        self.node_count += 1;
        self.alive.push(true);
        let owner = id.index() % self.cores.len();
        for (s, core) in self.cores.iter_mut().enumerate() {
            if s != owner {
                core.register_remote(id);
            }
        }
        self.cores[owner].add_owned(id, start, seed, build);
        id
    }

    /// Crashes `id` at the current instant (fail-stop), applied in the
    /// next `run_until`'s boundary drain. Like the sequential driver, the
    /// node stays alive (and invokable) until the crash event's instant is
    /// processed; the lane-key draw happens now, at push time.
    pub fn crash(&mut self, id: NodeId) {
        let owner = id.index() % self.cores.len();
        let prio = self.cores[owner].lane_key(id);
        self.pending_crashes.push((prio, id));
    }

    /// Runs an application-level closure against a node through the
    /// simulator (see [`crate::Network::invoke`]). Ignored for dead or
    /// not-yet-started nodes.
    pub fn invoke(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Context<'_, P::Message>)) {
        if !self.is_alive(id) {
            return;
        }
        let owner = id.index() % self.cores.len();
        if !self.cores[owner].started(id) {
            return;
        }
        self.cores[owner].now = self.now;
        self.cores[owner].dispatch(id, f);
        self.route_outboxes();
    }

    /// Replaces the live per-link fault profile on every shard.
    pub fn set_link_faults(&mut self, link: LinkFaults) {
        self.link_factor = link.latency_factor;
        for core in &mut self.cores {
            core.faults.set_link_faults(link.clone());
        }
    }

    /// Installs a timed partition at runtime on every shard.
    pub fn add_partition(&mut self, spec: PartitionSpec) {
        assert!(spec.end > self.now, "partition healed in the past");
        self.config.telemetry.event(
            self.now.as_micros(),
            u32::MAX,
            TelEventKind::PartitionApply,
            spec.start.as_micros(),
            spec.end.as_micros(),
        );
        for core in &mut self.cores {
            core.faults.add_partition(spec.clone());
        }
    }

    /// The epoch lookahead: the latency model's hard lower bound, shrunk
    /// by the live `latency_factor` when it compresses latencies (the
    /// fault layer rounds exactly like this, and rounding is monotone, so
    /// the result remains a true lower bound on every delivery delay).
    fn lookahead(&self) -> SimDuration {
        let base = self.latency.min_latency();
        if self.link_factor < 1.0 {
            let scaled = (base.as_micros() as f64 * self.link_factor.max(0.0)).round() as u64;
            SimDuration::from_micros(scaled)
        } else {
            base
        }
    }

    /// Processes events until `deadline`, then sets the clock to it.
    ///
    /// # Panics
    ///
    /// If the effective lookahead is below 1 µs — a latency model without
    /// a positive `min_latency` (or a `latency_factor` that erases it)
    /// admits zero-delay cross-shard causality, which only the sequential
    /// driver can honour.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        assert!(deadline >= self.now, "deadline is in the past");
        self.drain_boundary();
        let lookahead = self.lookahead();
        assert!(
            lookahead >= SimDuration::from_micros(1),
            "sharded runs need a positive minimum latency \
             (LatencyModel::min_latency × latency_factor ≥ 1µs); \
             use the sequential driver for this model"
        );
        let deadline_us = deadline.as_micros();
        let lookahead_us = lookahead.as_micros();
        let shards = self.cores.len();
        let mins: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let inboxes: Vec<Mutex<Vec<Relay<P::Message>>>> =
            (0..shards).map(|_| Mutex::new(Vec::new())).collect();
        let barrier = Barrier::new(shards);
        std::thread::scope(|scope| {
            for core in self.cores.iter_mut() {
                let mins = &mins;
                let inboxes = &inboxes;
                let barrier = &barrier;
                scope.spawn(move || {
                    core.run_epochs(deadline_us, lookahead_us, mins, inboxes, barrier)
                });
            }
        });
        self.now = deadline;
        for core in &mut self.cores {
            core.now = deadline;
        }
        self.publish_telemetry();
        self.now
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) -> SimTime {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    /// Sequentially drains every event at exactly the current instant —
    /// pending crashes, starts of nodes added "now", zero-delay timers —
    /// merging the per-shard queue heads with the pending crash list in
    /// global priority order, exactly as the sequential queue would pop
    /// them. Loops until the instant is dry (processing can mint more
    /// same-instant events).
    fn drain_boundary(&mut self) {
        let boundary = self.now;
        self.pending_crashes.sort_by_key(|&(prio, _)| prio);
        let crashes = std::mem::take(&mut self.pending_crashes);
        let mut crash_idx = 0;
        loop {
            // Pop each shard's head if it sits at the boundary instant.
            let shards = self.cores.len();
            let mut held = Vec::with_capacity(shards);
            for s in 0..shards {
                if self.cores[s].queue.peek_time() == Some(boundary) {
                    let ev = self.cores[s].queue.pop().expect("peeked event must exist");
                    held.push((s, ev));
                }
            }
            let event_best = held
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, ev))| ev.prio)
                .map(|(i, (_, ev))| (i, ev.prio));
            let crash_best = crashes.get(crash_idx).map(|&(prio, _)| prio);
            let winner_is_crash = match (event_best, crash_best) {
                (None, None) => {
                    debug_assert!(held.is_empty());
                    break;
                }
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (Some((_, ep)), Some(cp)) => cp < ep,
            };
            if winner_is_crash {
                // Push every held head back (priorities are preserved, and
                // they alone determine order) and apply the crash.
                for (s, ev) in held {
                    self.cores[s].queue.push(ev.time, ev.prio, ev.item);
                }
                let (_, victim) = crashes[crash_idx];
                crash_idx += 1;
                self.apply_crash(victim);
            } else {
                let (win, _) = event_best.expect("event winner");
                let mut winner = None;
                for (i, (s, ev)) in held.into_iter().enumerate() {
                    if i == win {
                        winner = Some((s, ev));
                    } else {
                        self.cores[s].queue.push(ev.time, ev.prio, ev.item);
                    }
                }
                let (s, ev) = winner.expect("winner held");
                self.cores[s].now = boundary;
                self.cores[s].stats.events_processed += 1;
                self.cores[s].process(ev.item);
                self.route_outboxes();
            }
        }
    }

    /// Applies one crash: mirrors `Network::process_crash`, with the lane
    /// draws on the victim's owner shard and the liveness flip + prunes
    /// replicated everywhere.
    fn apply_crash(&mut self, victim: NodeId) {
        self.crash_events += 1;
        if !self.is_alive(victim) {
            return;
        }
        self.alive[victim.index()] = false;
        let shards = self.cores.len();
        let owner = victim.index() % shards;
        let detect_at = self.now + self.config.failure_detection_delay;
        // The victim's shard holds the authoritative reverse index (every
        // remote edge towards the victim was mirrored here).
        let notified: Vec<NodeId> = self.cores[owner].connections.incoming_of(victim).to_vec();
        for peer in notified {
            let prio = self.cores[owner].lane_key(victim);
            let dest = peer.index() % shards;
            self.cores[dest].queue.push(
                detect_at,
                prio,
                EventKind::LinkDown {
                    node: peer,
                    peer: victim,
                },
            );
        }
        for core in &mut self.cores {
            core.set_alive(victim, false);
            core.connections.clear_outgoing(victim);
            core.link_clock.clear(victim);
            core.faults.prune(victim);
        }
    }

    /// Routes every pending outbox relay directly (single-threaded; used
    /// by the boundary drain and `invoke`, where the driver holds all
    /// shards).
    fn route_outboxes(&mut self) {
        let shards = self.cores.len();
        for s in 0..shards {
            for d in 0..shards {
                if d == s {
                    continue;
                }
                let relays = std::mem::take(&mut self.cores[s].outbox[d]);
                for relay in relays {
                    self.cores[d].apply_relay(relay);
                }
            }
        }
    }

    /// Merged simulator statistics (sums across shards, plus crash
    /// applications counted as processed events like the sequential
    /// driver's crash-event pops).
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats {
            events_processed: self.crash_events,
            ..NetStats::default()
        };
        for core in &self.cores {
            total.messages_sent += core.stats.messages_sent;
            total.messages_delivered += core.stats.messages_delivered;
            total.messages_dropped += core.stats.messages_dropped;
            total.messages_lost_to_faults += core.stats.messages_lost_to_faults;
            total.messages_cut_by_partition += core.stats.messages_cut_by_partition;
            total.events_processed += core.stats.events_processed;
        }
        total
    }

    /// Merged bandwidth meter. Each node's counters live entirely on its
    /// owner shard (uploads are recorded sender-side, downloads
    /// destination-side), so the merge is a disjoint union.
    pub fn bandwidth(&self) -> BandwidthMeter {
        let mut merged = BandwidthMeter::with_mode(self.config.meter);
        for core in &self.cores {
            merged.absorb(&core.bandwidth);
        }
        merged
    }

    /// Snapshot of every tracked FIFO link clock, in `(sender, dest)`
    /// order. A sender's clocks live only on its owner shard, so the
    /// merge is a sort of disjoint per-shard snapshots.
    pub fn link_clock_entries(&self) -> Vec<(NodeId, NodeId, SimTime)> {
        let mut all: Vec<(NodeId, NodeId, SimTime)> = self
            .cores
            .iter()
            .flat_map(|c| c.link_clock.entries())
            .collect();
        all.sort_unstable_by_key(|&(s, d, _)| (s, d));
        all
    }

    /// Number of directed FIFO link clocks currently tracked.
    pub fn tracked_link_clocks(&self) -> usize {
        self.cores
            .iter()
            .map(|c| c.link_clock.tracked_links())
            .sum()
    }

    /// Number of pending events across all shard queues.
    pub fn pending_events(&self) -> usize {
        self.cores.iter().map(|c| c.queue.len()).sum()
    }

    /// Accounting-based memory footprint, summed across shards.
    pub fn footprint(&self) -> Footprint {
        let mut total = Footprint::default();
        for core in &self.cores {
            let f = core.footprint();
            total.node_state_bytes += f.node_state_bytes;
            total.queue_bytes += f.queue_bytes;
            total.adjacency_bytes += f.adjacency_bytes;
            total.link_clock_bytes += f.link_clock_bytes;
            total.bandwidth_bytes += f.bandwidth_bytes;
        }
        total.nodes = self.node_count;
        total
    }

    /// One-way "typical" latency between a pair (see
    /// [`crate::Network::typical_latency`]); draws from the driver's own
    /// reference RNG, never a node stream.
    pub fn typical_latency(&mut self, src: NodeId, dst: NodeId) -> SimDuration {
        let rng = &mut self.reference_rng;
        self.latency.typical(src, dst, rng)
    }

    /// Publishes merged simulator health plus one per-shard occupancy
    /// census record per `run_until`. Out-of-band: reads only.
    fn publish_telemetry(&self) {
        let tel = &self.config.telemetry;
        if !tel.is_enabled() {
            return;
        }
        let stats = self.stats();
        tel.gauge("sim.sched_occupancy")
            .set(self.pending_events() as u64);
        tel.gauge("sim.events_processed")
            .set(stats.events_processed);
        tel.gauge("sim.messages_delivered")
            .set(stats.messages_delivered);
        tel.gauge("sim.now_us").set(self.now.as_micros());
        tel.gauge("sim.shards").set(self.cores.len() as u64);
        for (s, core) in self.cores.iter().enumerate() {
            // Reuses the reactor's queue-census taxonomy: `node` is the
            // shard index, `a` its queue occupancy, `b` events processed.
            tel.event_on_shard(
                s,
                self.now.as_micros(),
                s as u32,
                TelEventKind::WriteQueueDepth,
                core.queue.len() as u64,
                core.stats.events_processed,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimerTag;
    use crate::faults::{FaultConfig, PartitionMode};
    use crate::latency::{ClusterLatency, FixedLatency};
    use crate::network::Network;
    use crate::sched::SchedulerKind;

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

    /// Drives a scripted scenario against either driver and fingerprints
    /// every observable.
    trait Driver {
        fn add(&mut self, at: Option<SimTime>, peers: Vec<NodeId>) -> NodeId;
        fn run_until(&mut self, t: SimTime);
        fn invoke_send(&mut self, id: NodeId, to: NodeId, v: u8);
        fn crash(&mut self, id: NodeId);
        fn set_faults(&mut self, link: LinkFaults);
        fn partition(&mut self, spec: PartitionSpec);
        fn fingerprint(&self, n: u32) -> String;
    }

    impl Driver for Network<Chat> {
        fn add(&mut self, at: Option<SimTime>, peers: Vec<NodeId>) -> NodeId {
            match at {
                Some(t) => self.add_node_at(t, move |_| Chat::new(peers)),
                None => self.add_node(move |_| Chat::new(peers)),
            }
        }
        fn run_until(&mut self, t: SimTime) {
            Network::run_until(self, t);
        }
        fn invoke_send(&mut self, id: NodeId, to: NodeId, v: u8) {
            self.invoke(id, |_p, ctx| ctx.send(to, Msg(v)));
        }
        fn crash(&mut self, id: NodeId) {
            Network::crash(self, id);
        }
        fn set_faults(&mut self, link: LinkFaults) {
            self.set_link_faults(link);
        }
        fn partition(&mut self, spec: PartitionSpec) {
            self.add_partition(spec);
        }
        fn fingerprint(&self, n: u32) -> String {
            let mut out = String::new();
            let stats = self.stats();
            out.push_str(&format!("{stats:?}\n"));
            for i in 0..n {
                let id = NodeId(i);
                out.push_str(&format!("{} alive={}", i, self.is_alive(id)));
                if let Some(p) = self.node(id) {
                    out.push_str(&format!(
                        " log={:?} downs={:?} timers={}",
                        p.log, p.downs, p.timers
                    ));
                }
                if let Some(bw) = self.bandwidth().node(id) {
                    out.push_str(&format!(" bw={:?}", bw));
                }
                out.push('\n');
            }
            out.push_str(&format!("{:?}", self.link_clock_entries()));
            out
        }
    }

    impl Driver for ShardedNetwork<Chat> {
        fn add(&mut self, at: Option<SimTime>, peers: Vec<NodeId>) -> NodeId {
            match at {
                Some(t) => self.add_node_at(t, move |_| Chat::new(peers)),
                None => self.add_node(move |_| Chat::new(peers)),
            }
        }
        fn run_until(&mut self, t: SimTime) {
            ShardedNetwork::run_until(self, t);
        }
        fn invoke_send(&mut self, id: NodeId, to: NodeId, v: u8) {
            self.invoke(id, |_p, ctx| ctx.send(to, Msg(v)));
        }
        fn crash(&mut self, id: NodeId) {
            ShardedNetwork::crash(self, id);
        }
        fn set_faults(&mut self, link: LinkFaults) {
            self.set_link_faults(link);
        }
        fn partition(&mut self, spec: PartitionSpec) {
            self.add_partition(spec);
        }
        fn fingerprint(&self, n: u32) -> String {
            let mut out = String::new();
            let stats = self.stats();
            out.push_str(&format!("{stats:?}\n"));
            let merged_bw = self.bandwidth();
            for i in 0..n {
                let id = NodeId(i);
                out.push_str(&format!("{} alive={}", i, self.is_alive(id)));
                if let Some(p) = self.node(id) {
                    out.push_str(&format!(
                        " log={:?} downs={:?} timers={}",
                        p.log, p.downs, p.timers
                    ));
                }
                if let Some(bw) = merged_bw.node(id) {
                    out.push_str(&format!(" bw={:?}", bw));
                }
                out.push('\n');
            }
            out.push_str(&format!("{:?}", self.link_clock_entries()));
            out
        }
    }

    /// The scripted scenario: staggered joins, ring gossip with RNG-picked
    /// forwards, invoked bursts, mid-run fault profile swap, a partition
    /// window, same-boundary crashes, connects to dead peers.
    fn drive(net: &mut dyn Driver, n: u32) -> String {
        for i in 0..n {
            let at = (i % 3 == 2).then(|| SimTime::from_millis(5 * i as u64));
            net.add(at, ring_peers(i, n));
        }
        net.run_until(SimTime::from_millis(100));
        net.invoke_send(NodeId(0), NodeId(n / 2), 4);
        net.invoke_send(NodeId(1), NodeId(n - 1), 5);
        net.run_until(SimTime::from_millis(200));
        net.set_faults(LinkFaults {
            loss_rate: 0.1,
            jitter: SimDuration::from_micros(300),
            latency_factor: 0.5,
        });
        net.invoke_send(NodeId(2), NodeId(0), 6);
        net.run_until(SimTime::from_millis(300));
        net.partition(PartitionSpec::new(
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
        net.invoke_send(NodeId(0), NodeId(3), 2); // still alive until the boundary
        net.run_until(SimTime::from_millis(600));
        // A node that connects to the dead peers after the fact.
        net.add(None, vec![NodeId(3), NodeId(0)]);
        net.run_until(SimTime::from_millis(900));
        net.crash(NodeId(0));
        net.run_until(SimTime::from_millis(1200));
        net.fingerprint(n + 1)
    }

    fn config(scheduler: SchedulerKind) -> NetworkConfig {
        NetworkConfig {
            scheduler,
            ..NetworkConfig::default()
        }
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        for scheduler in [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap] {
            let n = 11;
            let mut seq: Network<Chat> =
                Network::new(config(scheduler), Box::new(ClusterLatency::default()));
            let expected = drive(&mut seq, n);
            for shards in [1, 2, 3, 4, 7] {
                let mut sharded: ShardedNetwork<Chat> = ShardedNetwork::new(
                    config(scheduler),
                    Arc::new(ClusterLatency::default()),
                    shards,
                );
                let got = drive(&mut sharded, n);
                assert_eq!(
                    expected, got,
                    "sharded({shards}) diverged from sequential under {scheduler:?}"
                );
            }
        }
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
        // FixedLatency(0) has min_latency 0: only the sequential driver
        // can honour zero-delay cross-shard sends.
        let mut net: ShardedNetwork<Chat> = ShardedNetwork::new(
            NetworkConfig::default(),
            Arc::new(FixedLatency::new(SimDuration::ZERO)),
            2,
        );
        net.add_node(|_| Chat::new(vec![]));
        net.run_until(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "scheduler traces")]
    fn event_traces_are_refused() {
        let cfg = NetworkConfig {
            trace_events: true,
            ..NetworkConfig::default()
        };
        let _net: ShardedNetwork<Chat> =
            ShardedNetwork::new(cfg, Arc::new(ClusterLatency::default()), 2);
    }

    #[test]
    fn merged_accessors_cover_all_nodes() {
        let mut net: ShardedNetwork<Chat> = ShardedNetwork::new(
            NetworkConfig::default(),
            Arc::new(ClusterLatency::default()),
            3,
        );
        for i in 0..7u32 {
            net.add(None, ring_peers(i, 7));
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
