//! The simulation driver: configuration, counters and the one set of entry
//! points ([`Driver`]) shared by the sequential [`Network`] and the sharded
//! [`crate::ShardedNetwork`]. How an event is processed lives in
//! [`crate::core`]; how several cores advance together, in [`crate::shard`].

use std::sync::Arc;

use crate::bandwidth::BandwidthMeter;
use crate::core::{Core, NodeSlot, Placement, Whole};
use crate::event::EventKind;
use crate::faults::{FaultConfig, LinkFaults, PartitionSpec};
use crate::latency::LatencyModel;
use crate::node::NodeId;
use crate::protocol::{Context, Protocol};
use crate::seed::split_mix64;
use crate::time::{SimDuration, SimTime};
use brisa_telemetry::{EventKind as TelEventKind, Telemetry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Delay between a peer crashing, or a connection attempt failing, and
/// the connected node's `on_link_down`: the keep-alive / TCP-level failure
/// detection period of the prototype. The live runtime surfaces a connect
/// across a partition cut after this same delay.
pub const FAILURE_DETECTION_DELAY: SimDuration = SimDuration::from_millis(200);

/// Static configuration of a simulation run. Every directed link is FIFO
/// (messages between the same pair never overtake each other), as TCP
/// connections are.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Master seed; every per-node RNG is derived from it.
    pub seed: u64,
    /// Deterministic fault injection (per-link loss, latency degradation,
    /// timed partitions). Inert by default, in which case the fault layer
    /// costs a single branch per message and the run is bit-identical to
    /// one without the layer. See [`crate::faults`].
    pub faults: FaultConfig,
    /// Observability handle exposed to protocol callbacks and fed with
    /// simulator-level health (scheduler occupancy, events processed,
    /// partition windows). Disabled by default; strictly out-of-band — a
    /// run with any telemetry setting is bit-identical to a run with none
    /// (enforced by the fingerprint tests).
    pub telemetry: Telemetry,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            seed: 0xB215A,
            faults: FaultConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Counters describing what the simulator itself observed.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Messages handed to the network layer.
    pub messages_sent: u64,
    /// Messages delivered to a live destination.
    pub messages_delivered: u64,
    /// Messages dropped because the destination was dead at delivery time.
    pub messages_dropped: u64,
    /// Messages lost to the fault layer's per-link Bernoulli loss. Disjoint
    /// from [`NetStats::messages_dropped`]: a faulted message never reaches
    /// delivery, a dropped one reached a dead destination.
    pub messages_lost_to_faults: u64,
    /// Messages discarded because an active partition cut sender from
    /// receiver ([`crate::faults::PartitionMode::Drop`]).
    pub messages_cut_by_partition: u64,
    /// Events processed so far.
    pub events_processed: u64,
}

/// A deterministic discrete-event simulation: one or more event-processing
/// cores behind one set of entry points.
///
/// Two instantiations exist. [`Network`] is a single core that owns every
/// node. [`crate::ShardedNetwork`] partitions the nodes across `k` cores and
/// runs them on worker threads in lock-step epochs; with the same
/// configuration and seed it is bit-identical to [`Network`] in every
/// observable — stats, per-node state, FIFO clocks, bandwidth.
///
/// Nodes are added, invoked and crashed between `run_until` calls, at the
/// current instant. Runs are fully deterministic: the same seed, latency
/// model and sequence of calls produce bit-identical executions.
pub struct Driver<P: Protocol, Pl: Placement> {
    /// One core per placement instance; between two runs their clocks
    /// agree.
    pub(crate) cores: Cores<Core<P, Pl>>,
    master_rng: SmallRng,
    /// Dedicated RNG for reference-latency queries ([`Self::typical_latency`]).
    /// Derived once from the master seed, *not* from `master_rng`: drawing
    /// reference latencies must never reorder the seeds of nodes added
    /// afterwards.
    reference_rng: SmallRng,
}

/// The cores of one simulation, as a slice. A single core is held inline,
/// so the sequential simulator reaches it without an indirection and one
/// allocation fewer. (Its peak memory no longer hangs on that allocation:
/// see [`Driver::reserve_nodes`] and DESIGN.md, "The simulator core and its
/// two instances".)
pub(crate) enum Cores<C> {
    One(C),
    Many(Vec<C>),
}

impl<C> Cores<C> {
    fn into_vec(self) -> Vec<C> {
        match self {
            Cores::One(core) => vec![core],
            Cores::Many(cores) => cores,
        }
    }
}

impl<C> std::ops::Deref for Cores<C> {
    type Target = [C];

    fn deref(&self) -> &[C] {
        match self {
            Cores::One(core) => std::slice::from_ref(core),
            Cores::Many(cores) => cores,
        }
    }
}

impl<C> std::ops::DerefMut for Cores<C> {
    fn deref_mut(&mut self) -> &mut [C] {
        match self {
            Cores::One(core) => std::slice::from_mut(core),
            Cores::Many(cores) => cores,
        }
    }
}

/// The sequential discrete-event network simulator: one core that owns
/// every node and the whole event queue, run on the calling thread.
pub type Network<P> = Driver<P, Whole>;

impl<P: Protocol> Driver<P, Whole> {
    /// Creates a network with the given configuration and latency model.
    pub fn new(config: NetworkConfig, latency: Box<dyn LatencyModel>) -> Self {
        Self::with_placements(config, latency.into(), vec![Whole])
    }
}

impl<P: Protocol, Pl: Placement> Driver<P, Pl> {
    /// Creates a simulation with one core per placement.
    pub(crate) fn with_placements(
        config: NetworkConfig,
        latency: Arc<dyn LatencyModel>,
        placements: Vec<Pl>,
    ) -> Self {
        let count = placements.len();
        let core = |place| Core::new(place, count, &config, Arc::clone(&latency));
        Driver {
            master_rng: SmallRng::seed_from_u64(config.seed),
            reference_rng: SmallRng::seed_from_u64(split_mix64(config.seed, 0x0DD5_EED5)),
            cores: match placements[..] {
                [place] => Cores::One(core(place)),
                _ => Cores::Many(placements.into_iter().map(core).collect()),
            },
        }
    }

    /// The core that owns `id`.
    fn home(&self, id: NodeId) -> usize {
        self.cores[0].place().home(id)
    }

    /// Replaces the live per-link fault profile (loss rate, jitter, latency
    /// degradation), effective for every message sent from now on.
    /// Experiment harnesses use this to switch faults on at a scheduled
    /// point of the run (e.g. stream start).
    pub fn set_link_faults(&mut self, link: LinkFaults) {
        for core in self.cores.iter_mut() {
            core.faults.set_link_faults(link.clone());
        }
    }

    /// Installs a timed partition at runtime, in addition to any configured
    /// through [`NetworkConfig::faults`]. The window may start immediately;
    /// it must not lie entirely in the past.
    pub fn add_partition(&mut self, spec: PartitionSpec) {
        assert!(spec.end > self.now(), "partition healed in the past");
        self.cores[0].config.telemetry.event(
            self.now().as_micros(),
            u32::MAX,
            TelEventKind::PartitionApply,
            spec.start.as_micros(),
            spec.end.as_micros(),
        );
        for core in self.cores.iter_mut() {
            core.faults.add_partition(spec.clone());
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.cores[0].now
    }

    /// Simulator-level statistics, summed over the cores.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for core in self.cores.iter() {
            total.messages_sent += core.stats.messages_sent;
            total.messages_delivered += core.stats.messages_delivered;
            total.messages_dropped += core.stats.messages_dropped;
            total.messages_lost_to_faults += core.stats.messages_lost_to_faults;
            total.messages_cut_by_partition += core.stats.messages_cut_by_partition;
            total.events_processed += core.stats.events_processed;
        }
        total
    }

    /// A reading of every node's byte totals so far, dead nodes included.
    /// Each node's totals live in its slot on the core that owns it
    /// (uploads are counted sender-side, downloads destination-side).
    pub fn bandwidth(&self) -> BandwidthMeter {
        BandwidthMeter::from_totals(
            self.ids()
                .map(|id| self.cores[self.home(id)].bandwidth(id))
                .collect(),
        )
    }

    /// Every id ever added, in ascending order.
    fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Inline bytes of one node's slot: the protocol state `P` plus the
    /// simulator's own per-node bookkeeping (RNG, flags, lane counter, byte
    /// totals, the FIFO clock table's header). [`Footprint::node_state_bytes`]
    /// is at least this per node.
    pub fn slot_bytes() -> usize {
        std::mem::size_of::<NodeSlot<P>>()
    }

    /// Number of nodes ever added (dead or alive).
    pub fn node_count(&self) -> usize {
        self.cores.iter().map(Core::node_count).sum()
    }

    /// True if `id` exists and has not crashed.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.cores[self.home(id)].is_alive(id)
    }

    /// Iterator over the identifiers of all live nodes, in ascending order.
    /// Allocation-free; prefer this over [`Self::alive_ids`] in hot loops.
    pub fn alive_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids().filter(|&id| self.is_alive(id))
    }

    /// Identifiers of all live nodes, collected into a fresh vector.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.alive_iter().collect()
    }

    /// Immutable access to the protocol state of `id`.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.cores[self.home(id)].node(id)
    }

    /// Makes room for `additional` more nodes on every core, so adding them
    /// never reallocates a node vector. A run that knows its population
    /// calls this once, before its first node.
    pub fn reserve_nodes(&mut self, additional: usize) {
        let per_core = additional.div_ceil(self.cores.len());
        for core in self.cores.iter_mut() {
            core.reserve_nodes(per_core);
        }
    }

    /// Consumes the finished simulation into the protocol states of its
    /// live nodes, in ascending id order, under either placement. Queues
    /// and link tables are freed first; each state is then handed
    /// over in its turn, so a caller that drops one before taking the next
    /// never holds a node it is done with.
    pub fn into_live_nodes(self) -> impl Iterator<Item = (NodeId, P)> {
        let place = self.cores[0].place();
        let count = self.node_count() as u32;
        let mut cores: Vec<_> = self
            .cores
            .into_vec()
            .into_iter()
            .map(Core::into_nodes)
            .collect();
        // Each core holds its ids in ascending local order, so taking the
        // next state of the id's home core walks every core in step.
        (0..count).map(NodeId).filter_map(move |id| {
            let state = cores[place.home(id)].next();
            state
                .expect("every added id has a slot")
                .map(|proto| (id, proto))
        })
    }

    /// Adds a node immediately. The builder receives the identifier the node
    /// will use; the node's `on_start` runs at the current simulation time.
    pub fn add_node(&mut self, build: impl FnOnce(NodeId) -> P) -> NodeId {
        self.add_node_at(self.now(), build)
    }

    /// Adds a node whose `on_start` runs at `start` (which must not be in
    /// the past). Seeds are drawn from the master RNG in global add order,
    /// so a node's RNG stream does not depend on which core owns it.
    pub fn add_node_at(&mut self, start: SimTime, build: impl FnOnce(NodeId) -> P) -> NodeId {
        assert!(start >= self.now(), "cannot start a node in the past");
        let id = NodeId(self.node_count() as u32);
        let seed: u64 = self.master_rng.gen();
        let owner = self.home(id);
        for (c, core) in self.cores.iter_mut().enumerate() {
            if c != owner {
                core.register_remote(id);
            }
        }
        self.cores[owner].register(id, start, seed, build);
        id
    }

    /// Crashes `id` at the current instant (fail-stop): the node stays alive
    /// (and invokable) until the next run processes that instant. Connected
    /// peers learn about it after the configured failure-detection delay.
    pub fn crash(&mut self, id: NodeId) {
        let owner = self.home(id);
        let core = &mut self.cores[owner];
        let prio = core.lane_key(id);
        core.queue
            .push(core.now, prio, EventKind::Crash { node: id });
    }

    /// Runs an application-level closure against a node *through the
    /// simulator*, so that any commands it issues (sends, timers) are
    /// processed normally. This is how experiment harnesses inject stream
    /// messages at the source node. Ignored for nodes that are dead or whose
    /// `on_start` has not yet run (a node that has not joined cannot
    /// originate traffic, exactly like `Deliver` refuses them input).
    pub fn invoke(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Context<'_, P::Message>)) {
        let owner = self.home(id);
        if !self.cores[owner].is_started(id) {
            return;
        }
        self.cores[owner].dispatch(id, f);
        self.route_outboxes();
    }

    /// Hands every relay waiting in a core's outbox to the core it is for.
    /// For the single-threaded stretches of a run, where the driver holds
    /// all cores; during epochs the cores exchange relays themselves.
    pub(crate) fn route_outboxes(&mut self) {
        for from in 0..self.cores.len() {
            for to in 0..self.cores.len() {
                if self.cores[from].outbox[to].is_empty() {
                    continue;
                }
                for relay in std::mem::take(&mut self.cores[from].outbox[to]) {
                    self.cores[to].apply_relay(relay);
                }
            }
        }
    }

    /// Processes events until the queues are empty or `deadline` is reached,
    /// then sets the clock to `deadline`. Returns the new current time.
    ///
    /// # Panics
    ///
    /// With more than one core, if the effective lookahead is below 1 µs
    /// (see [`crate::ShardedNetwork`]).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime
    where
        P: Send,
        P::Message: Send,
    {
        // One core needs no epochs: it is the plain event loop, on the
        // calling thread, whatever its placement type.
        if Pl::SOLE || self.cores.len() == 1 {
            self.cores[0].run_to(deadline);
        } else {
            self.run_epochs_until(deadline);
        }
        self.publish_telemetry();
        self.now()
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) -> SimTime
    where
        P: Send,
        P::Message: Send,
    {
        let deadline = self.now() + d;
        self.run_until(deadline)
    }

    /// Publishes simulator health to an attached telemetry registry, once
    /// per `run_*` call — with several cores, also one occupancy census
    /// record per core. Out-of-band by construction: it only *reads*
    /// simulator state, so enabled and disabled runs stay bit-identical.
    fn publish_telemetry(&self) {
        let tel = &self.cores[0].config.telemetry;
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
        tel.gauge("sim.now_us").set(self.now().as_micros());
        if self.cores.len() == 1 {
            return;
        }
        tel.gauge("sim.shards").set(self.cores.len() as u64);
        for (s, core) in self.cores.iter().enumerate() {
            // Reuses the reactor's queue-census taxonomy: `node` is the
            // shard index, `a` its queue occupancy, `b` events processed.
            tel.event_on_shard(
                s,
                self.now().as_micros(),
                s as u32,
                TelEventKind::WriteQueueDepth,
                core.queue.len() as u64,
                core.stats.events_processed,
            );
        }
    }

    /// Number of pending events (mostly useful in tests).
    pub fn pending_events(&self) -> usize {
        self.cores.iter().map(|c| c.queue.len()).sum()
    }

    /// Number of directed FIFO link clocks currently tracked: the links
    /// with a message in flight, plus clocks that expired since their
    /// sender last sent (a sender drops those on its next send). Exposed so
    /// tests can assert the table stays bounded by what is live.
    pub fn tracked_link_clocks(&self) -> usize {
        self.ids()
            .map(|id| self.cores[self.home(id)].link_clocks(id).count())
            .sum()
    }

    /// Snapshot of every tracked FIFO link clock as `(sender, dest, last
    /// scheduled arrival)`, in `(sender, dest)` order. Diagnostic hook for
    /// the online invariant checkers (per-link clocks must be monotone over
    /// a run). A sender's clocks live in its slot, on the core that owns
    /// it.
    pub fn link_clock_entries(&self) -> Vec<(NodeId, NodeId, SimTime)> {
        let mut all = Vec::new();
        for sender in self.ids() {
            let first = all.len();
            let clocks = self.cores[self.home(sender)].link_clocks(sender);
            all.extend(clocks.map(|(dest, clock)| (sender, dest, clock)));
            all[first..].sort_unstable_by_key(|&(_, dest, _)| dest);
        }
        all
    }

    /// The accounting-based memory footprint of the simulation right now
    /// (see [`Footprint`]). O(nodes); intended for end-of-run sampling by
    /// the scale benches, not for the event loop.
    pub fn footprint(&self) -> Footprint {
        let mut total = Footprint::default();
        for core in self.cores.iter() {
            let f = core.footprint();
            total.nodes += f.nodes;
            total.node_state_bytes += f.node_state_bytes;
            total.queue_bytes += f.queue_bytes;
            total.adjacency_bytes += f.adjacency_bytes;
            total.link_clock_bytes += f.link_clock_bytes;
        }
        total
    }

    /// One-way "typical" latency between a pair according to the latency
    /// model, used as the point-to-point reference series in Figure 9.
    ///
    /// Draws from a dedicated reference RNG (derived once from the master
    /// seed), never from the master RNG: calling this must not reorder the
    /// seeds of nodes added afterwards.
    pub fn typical_latency(&mut self, src: NodeId, dst: NodeId) -> SimDuration {
        self.cores[0]
            .latency
            .typical(src, dst, &mut self.reference_rng)
    }
}

/// Accounting-based memory footprint of a simulation, split by component.
///
/// This is the "peak RSS proxy" of the scale benches: instead of asking the
/// OS (noisy, allocator-dependent), every dense structure reports the bytes
/// its capacities occupy and every protocol stack estimates its own state
/// through [`Protocol::approx_state_bytes`]. Sampled at collect time, when
/// the per-node ledgers and link tables are at their largest.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Nodes ever added (dead slots included — their storage remains).
    pub nodes: usize,
    /// Sum of the per-node protocol-state estimates plus the slot overhead
    /// (RNG, flags, lane counter, byte totals, the FIFO clock table's
    /// header): at least [`Driver::slot_bytes`] per node.
    pub node_state_bytes: usize,
    /// What the event queue holds from the allocator (its buckets and
    /// lists at capacity, not just the pending entries).
    pub queue_bytes: usize,
    /// Connection table (adjacency vectors + reverse index).
    pub adjacency_bytes: usize,
    /// What the per-node FIFO link clock tables hold on the heap.
    pub link_clock_bytes: usize,
}

impl Footprint {
    /// Total accounted bytes.
    pub fn total_bytes(&self) -> usize {
        self.node_state_bytes + self.queue_bytes + self.adjacency_bytes + self.link_clock_bytes
    }

    /// Accounted bytes per node ever added.
    pub fn bytes_per_node(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimerTag;
    use crate::latency::FixedLatency;
    use crate::protocol::WireSize;

    /// A tiny ping protocol used to exercise the simulator.
    #[derive(Debug)]
    struct Pinger {
        peer: Option<NodeId>,
        received: Vec<(NodeId, u8, SimTime)>,
        timer_fired: u32,
        link_down: Vec<NodeId>,
    }

    #[derive(Debug, Clone)]
    struct Ping(u8);
    impl WireSize for Ping {
        fn wire_size(&self) -> usize {
            100
        }
    }

    impl Pinger {
        fn new(peer: Option<NodeId>) -> Self {
            Pinger {
                peer,
                received: Vec::new(),
                timer_fired: 0,
                link_down: Vec::new(),
            }
        }
    }

    impl Protocol for Pinger {
        type Message = Ping;

        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            if let Some(peer) = self.peer {
                ctx.open_connection(peer);
                ctx.send(peer, Ping(1));
                ctx.set_timer(SimDuration::from_millis(50), TimerTag::of_kind(1));
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
            self.received.push((from, msg.0, ctx.now()));
            if msg.0 == 1 {
                ctx.send(from, Ping(2));
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, Ping>, _tag: TimerTag) {
            self.timer_fired += 1;
        }

        fn on_link_down(&mut self, _ctx: &mut Context<'_, Ping>, peer: NodeId) {
            self.link_down.push(peer);
        }
    }

    fn fixed_net(ms: u64) -> Network<Pinger> {
        Network::new(
            NetworkConfig::default(),
            Box::new(FixedLatency::new(SimDuration::from_millis(ms))),
        )
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut net = fixed_net(10);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(1));
        // a received the ping at t=10ms, b received the pong at t=20ms.
        let a_state = net.node(a).unwrap();
        let b_state = net.node(b).unwrap();
        assert_eq!(a_state.received.len(), 1);
        assert_eq!(a_state.received[0].1, 1);
        assert_eq!(a_state.received[0].2, SimTime::from_millis(10));
        assert_eq!(b_state.received.len(), 1);
        assert_eq!(b_state.received[0].1, 2);
        assert_eq!(b_state.received[0].2, SimTime::from_millis(20));
        assert_eq!(b_state.timer_fired, 1);
        assert_eq!(net.stats().messages_sent, 2);
        assert_eq!(net.stats().messages_delivered, 2);
    }

    #[test]
    fn bandwidth_is_accounted_both_ways() {
        let mut net = fixed_net(5);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(1));
        let bw = net.bandwidth();
        assert_eq!(bw.node(b).unwrap().upload_total, 100);
        assert_eq!(bw.node(b).unwrap().download_total, 100);
        assert_eq!(bw.node(a).unwrap().upload_total, 100);
        assert_eq!(bw.node(a).unwrap().download_total, 100);
    }

    #[test]
    fn crash_drops_messages_and_notifies_connected_peer() {
        let mut net = fixed_net(10);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        // Crash `a` immediately: b's ping (in flight) is dropped and b is
        // notified of the broken link after the detection delay.
        net.crash(a);
        net.run_until(SimTime::from_secs(2));
        assert!(!net.is_alive(a));
        assert!(net.is_alive(b));
        assert_eq!(net.node(a).unwrap().received.len(), 0);
        assert_eq!(net.node(b).unwrap().link_down, vec![a]);
        assert_eq!(net.stats().messages_dropped, 1);
        // A dead-destination drop is not a fault-layer loss: the counters
        // are disjoint.
        assert_eq!(net.stats().messages_lost_to_faults, 0);
        assert_eq!(net.stats().messages_cut_by_partition, 0);
        assert_eq!(net.alive_ids(), vec![b]);
        assert_eq!(net.alive_iter().collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = || {
            let mut net = fixed_net(3);
            let a = net.add_node(|_| Pinger::new(None));
            let _b = net.add_node(move |_| Pinger::new(Some(a)));
            net.run_until(SimTime::from_secs(1));
            net.stats().clone()
        };
        let s1 = run();
        let s2 = run();
        assert_eq!(s1.messages_sent, s2.messages_sent);
        assert_eq!(s1.events_processed, s2.events_processed);
    }

    #[test]
    fn invoke_routes_commands_through_simulator() {
        let mut net = fixed_net(1);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(|_| Pinger::new(None));
        net.run_until(SimTime::from_millis(1));
        net.invoke(b, |_proto, ctx| {
            ctx.send(a, Ping(7));
        });
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.node(a).unwrap().received.len(), 1);
        assert_eq!(net.node(a).unwrap().received[0].1, 7);
    }

    #[test]
    fn invoke_before_start_is_ignored() {
        let mut net = fixed_net(1);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node_at(SimTime::from_secs(5), |_| Pinger::new(None));
        net.run_until(SimTime::from_millis(1));
        // b exists and is alive, but its on_start has not run yet: a harness
        // must not be able to inject traffic through it.
        assert!(net.is_alive(b));
        net.invoke(b, |_proto, ctx| {
            ctx.send(a, Ping(9));
        });
        net.run_until(SimTime::from_secs(10));
        assert_eq!(
            net.node(a).unwrap().received.len(),
            0,
            "publish into an unstarted node must be dropped"
        );
        // After on_start has run, the same invoke goes through.
        net.invoke(b, |_proto, ctx| {
            ctx.send(a, Ping(9));
        });
        net.run_until(SimTime::from_secs(11));
        assert_eq!(net.node(a).unwrap().received.len(), 1);
    }

    #[test]
    fn fifo_ordering_is_preserved_per_link() {
        // With FIFO links, a burst of messages sent back-to-back arrives in
        // order even though individual latency samples could reorder them.
        let mut net: Network<Pinger> = Network::new(
            NetworkConfig::default(),
            Box::new(crate::latency::ClusterLatency::default()),
        );
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(|_| Pinger::new(None));
        net.run_until(SimTime::from_millis(1));
        net.invoke(b, |_p, ctx| {
            for i in 0..20u8 {
                ctx.send(a, Ping(i));
            }
        });
        net.run_until(SimTime::from_secs(1));
        let seq: Vec<u8> = net.node(a).unwrap().received.iter().map(|r| r.1).collect();
        assert_eq!(seq, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn delayed_start_defers_on_start() {
        let mut net = fixed_net(1);
        let a = net.add_node(|_| Pinger::new(None));
        let _b = net.add_node_at(SimTime::from_secs(5), move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(4));
        assert_eq!(net.node(a).unwrap().received.len(), 0);
        net.run_until(SimTime::from_secs(6));
        assert_eq!(net.node(a).unwrap().received.len(), 1);
    }

    #[test]
    fn crash_prunes_link_clocks() {
        let mut net = fixed_net(1);
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        let c = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(1));
        // a<->b and a<->c exchanged messages: 4 directed clocks, all long
        // expired, none swept yet — no sender has sent since.
        assert_eq!(net.tracked_link_clocks(), 4);
        // a's next send sweeps its expired clocks; only the link with a
        // message in flight stays tracked.
        let links = |net: &Network<Pinger>| -> Vec<(NodeId, NodeId)> {
            let clocks = net.link_clock_entries();
            clocks.iter().map(|&(s, d, _)| (s, d)).collect()
        };
        net.invoke(a, |_p, ctx| ctx.send(c, Ping(9)));
        assert_eq!(links(&net), vec![(a, c), (b, a), (c, a)]);
        net.crash(b);
        net.run_until(SimTime::from_secs(2));
        // The crashed sender's clocks are gone; a -> c and c -> a remain.
        assert_eq!(links(&net), vec![(a, c), (c, a)]);
        // Senders that have not yet detected the failure keep relaying to
        // the dead peer. Such a send stamps a clock like any other (its
        // delivery is dropped on arrival) and sweeps a's expired a -> c.
        net.invoke(a, |_p, ctx| ctx.send(b, Ping(9)));
        assert_eq!(links(&net), vec![(a, b), (c, a)]);
        // The clock towards the dead peer is gone after a's next send past
        // that delivery.
        net.run_until(SimTime::from_secs(3));
        net.invoke(a, |_p, ctx| ctx.send(c, Ping(9)));
        assert_eq!(
            links(&net),
            vec![(a, c), (c, a)],
            "a clock towards a dead peer outlives its last delivery by one send at most"
        );
        net.crash(a);
        net.crash(c);
        net.run_until(SimTime::from_secs(4));
        assert_eq!(net.tracked_link_clocks(), 0);
    }

    #[test]
    fn connecting_to_dead_peer_reports_link_down() {
        let mut net = fixed_net(1);
        let a = net.add_node(|_| Pinger::new(None));
        net.run_until(SimTime::from_millis(1));
        net.crash(a);
        net.run_until(SimTime::from_millis(2));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.node(b).unwrap().link_down, vec![a]);
    }

    /// A latency model whose `typical` falls back to the default (sampling)
    /// implementation — the case where drawing reference latencies from the
    /// master RNG would perturb the seeds of nodes added afterwards.
    struct JitterLatency;
    impl LatencyModel for JitterLatency {
        fn sample(&self, _src: NodeId, _dst: NodeId, rng: &mut SmallRng) -> SimDuration {
            SimDuration::from_micros(rng.gen_range(100..=10_000))
        }
    }

    #[test]
    fn typical_latency_does_not_perturb_node_seeds() {
        let run = |probe_reference_latency: bool| {
            let mut net: Network<Pinger> =
                Network::new(NetworkConfig::default(), Box::new(JitterLatency));
            let a = net.add_node(|_| Pinger::new(None));
            if probe_reference_latency {
                // Draw a pile of reference latencies between adding nodes.
                for _ in 0..17 {
                    net.typical_latency(a, NodeId(99));
                }
            }
            let _b = net.add_node(move |_| Pinger::new(Some(a)));
            net.run_until(SimTime::from_secs(1));
            net.node(a).unwrap().received[0].2
        };
        assert_eq!(
            run(false),
            run(true),
            "reference-latency queries must not reorder node seeds"
        );
    }

    /// The absolute event order of a small run with sampled latencies and
    /// a crash, as the timing wheel and the binary heap it replaced both
    /// produced it (recorded on 2bcadee, where the two were compared).
    #[test]
    fn schedulers_run_identically() {
        let mut net: Network<Pinger> = Network::new(
            NetworkConfig::default(),
            Box::new(crate::latency::ClusterLatency::default()),
        );
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        let c = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_millis(500));
        net.crash(b);
        net.run_until(SimTime::from_secs(2));
        let stats = net.stats();
        assert_eq!(stats.events_processed, 10);
        assert_eq!(stats.messages_delivered, 4);
        assert_eq!(
            format!(
                "{:?} {:?}",
                net.node(a).unwrap().received,
                net.node(c).unwrap().received
            ),
            "[(NodeId(1), 1, SimTime(337)), (NodeId(2), 1, SimTime(344))] \
             [(NodeId(0), 2, SimTime(631))]"
        );
    }

    #[test]
    fn footprint_books_what_the_queue_holds() {
        let mut net = fixed_net(10);
        let a = net.add_node(|_| Pinger::new(None));
        for _ in 0..200 {
            net.add_node(move |_| Pinger::new(Some(a)));
        }
        net.run_until(SimTime::from_millis(5));
        assert!(net.pending_events() > 0);
        assert_eq!(
            net.footprint().queue_bytes,
            net.cores[0].queue.allocated_bytes()
        );
    }

    #[test]
    fn bernoulli_loss_is_counted_separately_from_drops() {
        use crate::faults::{FaultConfig, LinkFaults};
        let run = |loss_rate: f64| {
            let mut net: Network<Pinger> = Network::new(
                NetworkConfig {
                    faults: FaultConfig {
                        link: LinkFaults {
                            loss_rate,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                    ..Default::default()
                },
                Box::new(FixedLatency::new(SimDuration::from_millis(1))),
            );
            let a = net.add_node(|_| Pinger::new(None));
            let b = net.add_node(|_| Pinger::new(None));
            net.run_until(SimTime::from_millis(1));
            net.invoke(b, |_p, ctx| {
                for _ in 0..200u8 {
                    // Ping(0) draws no reply from the receiver, so exactly
                    // 200 messages cross the wire.
                    ctx.send(a, Ping(0));
                }
            });
            net.run_until(SimTime::from_secs(1));
            (net.stats().clone(), net.node(a).unwrap().received.len())
        };
        let (stats, received) = run(0.2);
        assert!(
            stats.messages_lost_to_faults > 0,
            "20% loss over 200 sends must lose something"
        );
        assert_eq!(
            stats.messages_dropped, 0,
            "fault losses are not dead-destination drops"
        );
        assert_eq!(stats.messages_cut_by_partition, 0);
        assert_eq!(
            stats.messages_delivered + stats.messages_lost_to_faults,
            stats.messages_sent,
            "every sent message is either delivered or lost"
        );
        assert_eq!(received as u64, stats.messages_delivered);
        // Deterministic: the same seed reproduces the exact loss pattern.
        let (again, _) = run(0.2);
        assert_eq!(stats.messages_lost_to_faults, again.messages_lost_to_faults);
        assert_eq!(stats.events_processed, again.events_processed);
    }

    /// An *active but harmless* fault layer (zero loss, empty-island
    /// partition) must be bit-identical to no fault layer at all: the layer
    /// takes no draws and shifts no timestamps.
    #[test]
    fn harmless_fault_layer_is_bit_identical_to_none() {
        use crate::faults::{FaultConfig, PartitionMode, PartitionSpec};
        let run = |faults: FaultConfig| {
            let mut net: Network<Pinger> = Network::new(
                NetworkConfig {
                    faults,
                    ..Default::default()
                },
                Box::new(crate::latency::ClusterLatency::default()),
            );
            let a = net.add_node(|_| Pinger::new(None));
            let _b = net.add_node(move |_| Pinger::new(Some(a)));
            let _c = net.add_node(move |_| Pinger::new(Some(a)));
            net.run_until(SimTime::from_secs(1));
            format!(
                "{:?}{:?}",
                net.node(a).unwrap().received,
                net.stats().events_processed
            )
        };
        let empty_island = FaultConfig {
            partitions: vec![PartitionSpec::new(
                Vec::new(),
                SimTime::ZERO,
                SimTime::from_secs(10),
                PartitionMode::Drop,
            )],
            ..Default::default()
        };
        assert_eq!(run(FaultConfig::default()), run(empty_island));
    }

    #[test]
    fn partition_blackholes_and_heals() {
        use crate::faults::{FaultConfig, PartitionMode, PartitionSpec};
        let island_node = NodeId(1);
        let mut net: Network<Pinger> = Network::new(
            NetworkConfig {
                faults: FaultConfig {
                    partitions: vec![PartitionSpec::new(
                        vec![island_node],
                        SimTime::from_secs(2),
                        SimTime::from_secs(4),
                        PartitionMode::Drop,
                    )],
                    ..Default::default()
                },
                ..Default::default()
            },
            Box::new(FixedLatency::new(SimDuration::from_millis(1))),
        );
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(|_| Pinger::new(None));
        assert_eq!(b, island_node);
        net.run_until(SimTime::from_secs(1));
        // Before the window: delivered. (Ping values != 1 draw no reply.)
        net.invoke(a, |_p, ctx| ctx.send(b, Ping(0)));
        net.run_until(SimTime::from_secs(3));
        assert_eq!(net.node(b).unwrap().received.len(), 1);
        // Inside the window: cross-cut traffic is cut, both directions.
        net.invoke(a, |_p, ctx| ctx.send(b, Ping(2)));
        net.invoke(b, |_p, ctx| ctx.send(a, Ping(3)));
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.node(b).unwrap().received.len(), 1);
        assert_eq!(net.node(a).unwrap().received.len(), 0);
        assert_eq!(net.stats().messages_cut_by_partition, 2);
        assert_eq!(net.stats().messages_lost_to_faults, 0);
        // After heal: traffic flows again.
        net.invoke(a, |_p, ctx| ctx.send(b, Ping(4)));
        net.run_until(SimTime::from_secs(6));
        assert_eq!(net.node(b).unwrap().received.len(), 2);
        // No connections were torn down by the partition: the model is an
        // outage shorter than the transport time-out.
        assert!(net.node(a).unwrap().link_down.is_empty());
        assert!(net.node(b).unwrap().link_down.is_empty());
    }

    #[test]
    fn delaying_partition_holds_traffic_until_heal() {
        use crate::faults::{FaultConfig, PartitionMode, PartitionSpec};
        let heal = SimTime::from_secs(4);
        let mut net: Network<Pinger> = Network::new(
            NetworkConfig {
                faults: FaultConfig {
                    partitions: vec![PartitionSpec::new(
                        vec![NodeId(1)],
                        SimTime::from_secs(2),
                        heal,
                        PartitionMode::Delay,
                    )],
                    ..Default::default()
                },
                ..Default::default()
            },
            Box::new(FixedLatency::new(SimDuration::from_millis(1))),
        );
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(|_| Pinger::new(None));
        net.run_until(SimTime::from_secs(3));
        net.invoke(a, |_p, ctx| ctx.send(b, Ping(9)));
        net.run_until(SimTime::from_secs(10));
        let received = &net.node(b).unwrap().received;
        assert_eq!(received.len(), 1);
        assert_eq!(
            received[0].2, heal,
            "held back until the heal instant (latency charged from the send)"
        );
        assert_eq!(net.stats().messages_cut_by_partition, 0);
    }

    #[test]
    fn connecting_across_an_active_cut_reports_link_down() {
        use crate::faults::{FaultConfig, PartitionMode, PartitionSpec};
        let mut net: Network<Pinger> = Network::new(
            NetworkConfig {
                faults: FaultConfig {
                    partitions: vec![PartitionSpec::new(
                        vec![NodeId(1)],
                        SimTime::ZERO,
                        SimTime::from_secs(60),
                        PartitionMode::Drop,
                    )],
                    ..Default::default()
                },
                ..Default::default()
            },
            Box::new(FixedLatency::new(SimDuration::from_millis(1))),
        );
        let a = net.add_node(|_| Pinger::new(None));
        let b = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(2));
        assert_eq!(
            net.node(b).unwrap().link_down,
            vec![a],
            "the blackholed handshake times out like a dead-peer connect"
        );
    }
}
