//! The simulation driver.
//!
//! A [`Network`] owns every node (an instance of a type implementing
//! [`Protocol`]), the event queue, the latency model and the bandwidth
//! meter, and advances simulated time by processing events in order.
//!
//! Runs are fully deterministic: the same seed, latency model and sequence
//! of `add_node` / `schedule_crash` calls produce bit-identical executions.
//!
//! The hot path is built on dense, index-addressed state (see
//! [`crate::sched`] for the timing-wheel event queue and [`crate::links`]
//! for the adjacency/link-clock vectors); the steady-state event loop does
//! not allocate per event.

use crate::bandwidth::{BandwidthMeter, Direction, MeterMode};
use crate::event::{EventKind, EventQueue};
use crate::faults::{FaultConfig, FaultLayer, LinkFaults, PartitionSpec, Routed};
use crate::latency::LatencyModel;
use crate::links::{Adjacency, LinkClocks};
use crate::node::NodeId;
use crate::protocol::{Command, Context, Protocol, WireSize};
use crate::sched::{SchedulerKind, TraceOp};
use crate::seed::split_mix64;
use crate::time::{SimDuration, SimTime};
use brisa_telemetry::{EventKind as TelEventKind, Telemetry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Static configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Master seed; every per-node RNG is derived from it.
    pub seed: u64,
    /// Delay between a peer crashing and connected nodes receiving the
    /// corresponding `on_link_down` callback. Models the keep-alive /
    /// TCP-level failure detection period of the prototype.
    pub failure_detection_delay: SimDuration,
    /// Enforce FIFO ordering on each directed link (messages between the
    /// same pair never overtake each other), as TCP connections do.
    pub fifo_links: bool,
    /// Which event-queue implementation to use. The timing wheel is the
    /// default; the binary heap is kept as the reference baseline for
    /// benches and equivalence tests. Both produce bit-identical runs.
    pub scheduler: SchedulerKind,
    /// Record every scheduler push/pop so benches can replay the exact
    /// operation sequence through a queue in isolation (see
    /// [`Network::take_event_trace`]). Off by default; costs one branch per
    /// operation when off.
    pub trace_events: bool,
    /// Deterministic fault injection (per-link loss, latency degradation,
    /// timed partitions). Inert by default, in which case the fault layer
    /// costs a single branch per message and the run is bit-identical to
    /// one without the layer. See [`crate::faults`].
    pub faults: FaultConfig,
    /// Bandwidth retention: per-second buckets (default) or totals only
    /// (scale mode — per-second history would cost `16 bytes × simulated
    /// seconds` per node and nothing in the streaming result path reads
    /// it). Totals are identical in both modes.
    pub meter: MeterMode,
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
            failure_detection_delay: SimDuration::from_millis(200),
            fifo_links: true,
            scheduler: SchedulerKind::default(),
            trace_events: false,
            faults: FaultConfig::default(),
            meter: MeterMode::default(),
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

struct NodeSlot<P> {
    proto: P,
    rng: SmallRng,
    alive: bool,
    started: bool,
    /// Per-node cause counter for lane-key event priorities: the n-th event
    /// *caused* by this node gets priority `(id << 32) | n`. Together with
    /// the event time this forms a globally unique key that depends only on
    /// the node's own processing history — not on global push order — which
    /// is what makes the sharded driver's event order identical to the
    /// sequential one.
    lane_seq: u32,
}

/// The discrete-event network simulator.
pub struct Network<P: Protocol> {
    config: NetworkConfig,
    latency: Box<dyn LatencyModel>,
    now: SimTime,
    queue: EventQueue<P::Message>,
    nodes: Vec<NodeSlot<P>>,
    master_rng: SmallRng,
    /// Dedicated RNG for reference-latency queries ([`Self::typical_latency`]).
    /// Derived once from the master seed, *not* from `master_rng`: drawing
    /// reference latencies must never reorder the seeds of nodes added
    /// afterwards.
    reference_rng: SmallRng,
    bandwidth: BandwidthMeter,
    /// Open connections as per-node sorted adjacency vectors (plus a
    /// reverse index), iterated in fixed `NodeId` order so the simulation is
    /// bit-identical no matter which thread runs it.
    connections: Adjacency,
    /// Per directed pair with a message in flight, the time the last one is
    /// scheduled to arrive (used to enforce FIFO ordering).
    link_clock: LinkClocks,
    stats: NetStats,
    /// Fault-injection layer, consulted between command drain and delivery
    /// scheduling. Inert by default (one branch per send).
    faults: FaultLayer,
    command_buf: Vec<Command<P::Message>>,
    /// Reused buffer for the peers notified by `process_crash`.
    crash_buf: Vec<NodeId>,
}

impl<P: Protocol> Network<P> {
    /// Creates a network with the given configuration and latency model.
    pub fn new(config: NetworkConfig, latency: Box<dyn LatencyModel>) -> Self {
        let master_rng = SmallRng::seed_from_u64(config.seed);
        let reference_rng = SmallRng::seed_from_u64(split_mix64(config.seed, 0x0DD5_EED5));
        let queue = EventQueue::new(config.scheduler, config.trace_events);
        let faults = FaultLayer::new(config.seed, config.faults.clone());
        let bandwidth = BandwidthMeter::with_mode(config.meter);
        Network {
            config,
            latency,
            now: SimTime::ZERO,
            queue,
            nodes: Vec::new(),
            master_rng,
            reference_rng,
            bandwidth,
            connections: Adjacency::default(),
            link_clock: LinkClocks::default(),
            stats: NetStats::default(),
            faults,
            command_buf: Vec::new(),
            crash_buf: Vec::new(),
        }
    }

    /// Replaces the live per-link fault profile (loss rate, jitter, latency
    /// degradation), effective for every message sent from now on.
    /// Experiment harnesses use this to switch faults on at a scheduled
    /// point of the run (e.g. stream start).
    pub fn set_link_faults(&mut self, link: LinkFaults) {
        self.faults.set_link_faults(link);
    }

    /// Installs a timed partition at runtime, in addition to any configured
    /// through [`NetworkConfig::faults`]. The window may start immediately;
    /// it must not lie entirely in the past.
    pub fn add_partition(&mut self, spec: PartitionSpec) {
        assert!(spec.end > self.now, "partition healed in the past");
        self.config.telemetry.event(
            self.now.as_micros(),
            u32::MAX,
            TelEventKind::PartitionApply,
            spec.start.as_micros(),
            spec.end.as_micros(),
        );
        self.faults.add_partition(spec);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Simulator-level statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The bandwidth meter.
    pub fn bandwidth(&self) -> &BandwidthMeter {
        &self.bandwidth
    }

    /// Number of nodes ever added (dead or alive).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// True if `id` exists and has not crashed.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).map(|n| n.alive).unwrap_or(false)
    }

    /// Iterator over the identifiers of all live nodes, in ascending order.
    /// Allocation-free; prefer this over [`Self::alive_ids`] in hot loops.
    pub fn alive_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Identifiers of all live nodes, collected into a fresh vector.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.alive_iter().collect()
    }

    /// Immutable access to the protocol state of `id`.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.nodes.get(id.index()).map(|n| &n.proto)
    }

    /// Mutable access to the protocol state of `id`. Intended for experiment
    /// harnesses (e.g. to inject an application-level publish); protocol
    /// logic itself should only run through simulator callbacks.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut P> {
        self.nodes.get_mut(id.index()).map(|n| &mut n.proto)
    }

    /// Adds a node immediately. The builder receives the identifier the node
    /// will use; the node's `on_start` runs at the current simulation time.
    pub fn add_node(&mut self, build: impl FnOnce(NodeId) -> P) -> NodeId {
        self.add_node_at(self.now, build)
    }

    /// Adds a node whose `on_start` runs at `start` (which must not be in
    /// the past).
    pub fn add_node_at(&mut self, start: SimTime, build: impl FnOnce(NodeId) -> P) -> NodeId {
        assert!(start >= self.now, "cannot start a node in the past");
        let id = NodeId(self.nodes.len() as u32);
        let seed: u64 = self.master_rng.gen();
        self.add_node_with_seed(id, start, seed, build);
        id
    }

    /// Adds a node with an explicit identifier and RNG seed. This is the
    /// seam the sharded driver uses: it draws seeds from its own master RNG
    /// in global `add_node` order and hands each shard the `(id, seed)`
    /// pair, so per-node streams match the sequential run exactly.
    pub(crate) fn add_node_with_seed(
        &mut self,
        id: NodeId,
        start: SimTime,
        seed: u64,
        build: impl FnOnce(NodeId) -> P,
    ) {
        assert_eq!(
            id.index(),
            self.nodes.len(),
            "node ids must be added densely"
        );
        self.nodes.push(NodeSlot {
            proto: build(id),
            rng: SmallRng::seed_from_u64(seed),
            alive: true,
            started: false,
            lane_seq: 0,
        });
        self.bandwidth.ensure(id);
        let prio = self.lane_key(id);
        self.queue.push(start, prio, EventKind::Start { node: id });
    }

    /// Draws the next lane-key priority for an event caused by `lane`: the
    /// causing node's id in the high 32 bits, its cause counter in the low
    /// 32. Unknown lanes (e.g. a crash scheduled for a node never added)
    /// get counter 0 — such events are ignored at processing time anyway.
    fn lane_key(&mut self, lane: NodeId) -> u64 {
        let hi = (lane.0 as u64) << 32;
        match self.nodes.get_mut(lane.index()) {
            Some(slot) => {
                let key = hi | slot.lane_seq as u64;
                slot.lane_seq = slot.lane_seq.wrapping_add(1);
                key
            }
            None => hi,
        }
    }

    /// Crashes `id` immediately (fail-stop). Connected peers learn about it
    /// after the configured failure-detection delay.
    pub fn crash(&mut self, id: NodeId) {
        let at = self.now;
        let prio = self.lane_key(id);
        self.queue.push(at, prio, EventKind::Crash { node: id });
    }

    /// Schedules a crash of `id` at time `at`.
    pub fn schedule_crash(&mut self, id: NodeId, at: SimTime) {
        assert!(at >= self.now, "cannot schedule a crash in the past");
        let prio = self.lane_key(id);
        self.queue.push(at, prio, EventKind::Crash { node: id });
    }

    /// Runs an application-level closure against a node *through the
    /// simulator*, so that any commands it issues (sends, timers) are
    /// processed normally. This is how experiment harnesses inject stream
    /// messages at the source node. Ignored for nodes that are dead or whose
    /// `on_start` has not yet run (a node that has not joined cannot
    /// originate traffic, exactly like `Deliver` refuses them input).
    pub fn invoke(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Context<'_, P::Message>)) {
        if !self.is_alive(id) || !self.nodes[id.index()].started {
            return;
        }
        self.dispatch(id, f);
    }

    /// Processes events until the queue is empty or `deadline` is reached.
    /// Returns the time of the last processed event.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let ev = self.queue.pop().expect("peeked event must exist");
            self.now = ev.time;
            self.stats.events_processed += 1;
            self.process(ev.item);
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.publish_telemetry();
        self.now
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) -> SimTime {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    /// Runs until no events remain or `max` is reached. Useful for letting a
    /// dissemination quiesce.
    pub fn run_to_quiescence(&mut self, max: SimTime) -> SimTime {
        while let Some(t) = self.queue.peek_time() {
            if t > max {
                break;
            }
            let ev = self.queue.pop().expect("peeked event must exist");
            self.now = ev.time;
            self.stats.events_processed += 1;
            self.process(ev.item);
        }
        self.publish_telemetry();
        self.now
    }

    /// Publishes simulator health to an attached telemetry registry, once
    /// per `run_*` call. Out-of-band by construction: it only *reads*
    /// simulator state, so enabled and disabled runs stay bit-identical.
    fn publish_telemetry(&self) {
        let tel = &self.config.telemetry;
        if !tel.is_enabled() {
            return;
        }
        tel.gauge("sim.sched_occupancy")
            .set(self.queue.len() as u64);
        tel.gauge("sim.events_processed")
            .set(self.stats.events_processed);
        tel.gauge("sim.messages_delivered")
            .set(self.stats.messages_delivered);
        tel.gauge("sim.now_us").set(self.now.as_micros());
    }

    /// Number of pending events (mostly useful in tests).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn process(&mut self, kind: EventKind<P::Message>) {
        match kind {
            EventKind::Start { node } => {
                if !self.is_alive(node) {
                    return;
                }
                self.nodes[node.index()].started = true;
                self.dispatch(node, |proto, ctx| proto.on_start(ctx));
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                size,
            } => {
                if !self.is_alive(to) || !self.nodes[to.index()].started {
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
                // Only notify if the connection is still considered open.
                if !self.is_alive(node) || !self.connections.contains(node, peer) {
                    return;
                }
                self.connections.remove(node, peer);
                self.dispatch(node, |proto, ctx| proto.on_link_down(ctx, peer));
            }
            EventKind::Crash { node } => self.process_crash(node),
        }
    }

    fn process_crash(&mut self, node: NodeId) {
        if !self.is_alive(node) {
            return;
        }
        self.nodes[node.index()].alive = false;
        // Peers with an open connection to the crashed node detect the
        // failure after the detection delay. The reverse adjacency index
        // yields them directly in O(degree); the buffer is reused across
        // crashes.
        let detect_at = self.now + self.config.failure_detection_delay;
        self.crash_buf.clear();
        self.crash_buf
            .extend_from_slice(self.connections.incoming_of(node));
        for i in 0..self.crash_buf.len() {
            let owner = self.crash_buf[i];
            // The crashed node is the lane: `incoming_of` yields owners in
            // ascending id order, so these draws are a deterministic
            // function of the crash itself.
            let prio = self.lane_key(node);
            self.queue.push(
                detect_at,
                prio,
                EventKind::LinkDown {
                    node: owner,
                    peer: node,
                },
            );
        }
        // Drop the crashed node's own connections, FIFO link clocks and
        // fault-layer draw counters so long churn runs do not accumulate
        // state for dead nodes.
        self.connections.clear_outgoing(node);
        self.link_clock.clear(node);
        self.faults.prune(node);
    }

    /// Number of directed FIFO link clocks currently tracked: the links
    /// with a message in flight, plus clocks that expired since their
    /// sender last sent (a sender drops those on its next send). Exposed so
    /// tests can assert the table stays bounded by what is live.
    pub fn tracked_link_clocks(&self) -> usize {
        self.link_clock.tracked_links()
    }

    /// Snapshot of every tracked FIFO link clock as `(sender, dest, last
    /// scheduled arrival)`, in `(sender, dest)` order. Diagnostic hook for
    /// the online invariant checkers (per-link clocks must be monotone over
    /// a run).
    pub fn link_clock_entries(&self) -> Vec<(NodeId, NodeId, SimTime)> {
        self.link_clock.entries()
    }

    /// Takes the recorded scheduler operation trace. Empty unless
    /// [`NetworkConfig::trace_events`] was set; intended for benches that
    /// replay real workloads through a scheduler in isolation.
    pub fn take_event_trace(&mut self) -> Vec<TraceOp> {
        self.queue.take_trace()
    }

    fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Context<'_, P::Message>)) {
        let slot = &mut self.nodes[id.index()];
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

    /// Applies the commands a callback issued. Commands are consumed by
    /// value: a `Send` moves its message straight into the event queue, so
    /// fanning a payload out to many peers costs whatever the protocol paid
    /// to build each message (an `Arc` clone for BRISA data) and nothing
    /// more. Returns the emptied vector for reuse.
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
                        let rng = &mut self.nodes[origin.index()].rng;
                        self.latency.sample(origin, to, rng)
                    };
                    // The fault layer sits between command drain and
                    // delivery scheduling. The sender has already paid the
                    // upload bandwidth: a lost message went onto the wire,
                    // it just never arrives. Loss/jitter draws come from the
                    // layer's own per-link split-seed PRF, so the node RNG
                    // stream above is identical with or without faults.
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
                    // FIFO clocks are only kept towards live destinations:
                    // a delivery to a dead node is dropped on arrival, so its
                    // ordering is irrelevant. The failure-detection window,
                    // where senders still relay to a crashed peer, hits
                    // exactly this path.
                    if self.config.fifo_links && self.is_alive(to) {
                        deliver_at = self.link_clock.stamp(origin, to, self.now, deliver_at);
                    }
                    let prio = self.lane_key(origin);
                    self.queue.push(
                        deliver_at,
                        prio,
                        EventKind::Deliver {
                            from: origin,
                            to,
                            msg,
                            size,
                        },
                    );
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
                    // Connecting to a node that is already dead — or across
                    // an active partition cut, whose handshake traffic is
                    // blackholed — fails after the detection delay, like a
                    // TCP connect timeout.
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
                }
            }
        }
        commands
    }

    /// The accounting-based memory footprint of the simulation right now
    /// (see [`Footprint`]). O(nodes); intended for end-of-run sampling by
    /// the scale benches, not for the event loop.
    pub fn footprint(&self) -> Footprint {
        let slot_overhead = std::mem::size_of::<NodeSlot<P>>() - std::mem::size_of::<P>();
        Footprint {
            nodes: self.nodes.len(),
            node_state_bytes: self
                .nodes
                .iter()
                .map(|n| n.proto.approx_state_bytes() + slot_overhead)
                .sum(),
            // Each pending entry carries the event record plus its
            // `(time, prio, sequence)` sort key.
            queue_bytes: self.queue.len() * (event_record_size::<P>() + 24),
            adjacency_bytes: self.connections.approx_bytes(),
            link_clock_bytes: self.link_clock.approx_bytes(),
            bandwidth_bytes: self.bandwidth.approx_bytes(),
        }
    }

    /// One-way "typical" latency between a pair according to the latency
    /// model, used as the point-to-point reference series in Figure 9.
    ///
    /// Draws from a dedicated reference RNG (derived once from the master
    /// seed), never from the master RNG: calling this must not reorder the
    /// seeds of nodes added afterwards.
    pub fn typical_latency(&mut self, src: NodeId, dst: NodeId) -> SimDuration {
        let rng = &mut self.reference_rng;
        self.latency.typical(src, dst, rng)
    }
}

/// Size in bytes of one in-queue event record for protocol `P` (the
/// payload the schedulers actually move). Exposed for benches that replay
/// scheduler traces with realistically sized entries.
pub fn event_record_size<P: Protocol>() -> usize {
    std::mem::size_of::<EventKind<P::Message>>()
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
    /// (RNG, flags).
    pub node_state_bytes: usize,
    /// Pending event records in the scheduler.
    pub queue_bytes: usize,
    /// Connection table (adjacency vectors + reverse index).
    pub adjacency_bytes: usize,
    /// FIFO link clocks.
    pub link_clock_bytes: usize,
    /// Bandwidth meter (totals, and per-second buckets if retained).
    pub bandwidth_bytes: usize,
}

impl Footprint {
    /// Total accounted bytes.
    pub fn total_bytes(&self) -> usize {
        self.node_state_bytes
            + self.queue_bytes
            + self.adjacency_bytes
            + self.link_clock_bytes
            + self.bandwidth_bytes
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
        // the dead peer; those sends skip the FIFO stamp altogether.
        net.invoke(a, |_p, ctx| ctx.send(b, Ping(9)));
        net.run_until(SimTime::from_secs(3));
        assert_eq!(
            links(&net),
            vec![(a, c), (c, a)],
            "sends to a dead peer leave no clock behind"
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

    #[test]
    fn schedulers_run_identically() {
        let run = |scheduler: SchedulerKind| {
            let mut net: Network<Pinger> = Network::new(
                NetworkConfig {
                    scheduler,
                    ..Default::default()
                },
                Box::new(crate::latency::ClusterLatency::default()),
            );
            let a = net.add_node(|_| Pinger::new(None));
            let b = net.add_node(move |_| Pinger::new(Some(a)));
            let c = net.add_node(move |_| Pinger::new(Some(a)));
            net.run_until(SimTime::from_millis(500));
            net.crash(b);
            net.run_until(SimTime::from_secs(2));
            (
                net.stats().clone(),
                net.node(a).unwrap().received.clone(),
                net.node(c).unwrap().received.clone(),
            )
        };
        let (wheel_stats, wheel_a, wheel_c) = run(SchedulerKind::TimingWheel);
        let (heap_stats, heap_a, heap_c) = run(SchedulerKind::BinaryHeap);
        assert_eq!(wheel_stats.events_processed, heap_stats.events_processed);
        assert_eq!(
            wheel_stats.messages_delivered,
            heap_stats.messages_delivered
        );
        assert_eq!(
            format!("{wheel_a:?}{wheel_c:?}"),
            format!("{heap_a:?}{heap_c:?}")
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

    #[test]
    fn event_trace_capture() {
        let mut net: Network<Pinger> = Network::new(
            NetworkConfig {
                trace_events: true,
                ..Default::default()
            },
            Box::new(FixedLatency::new(SimDuration::from_millis(1))),
        );
        let a = net.add_node(|_| Pinger::new(None));
        let _b = net.add_node(move |_| Pinger::new(Some(a)));
        net.run_until(SimTime::from_secs(1));
        let trace = net.take_event_trace();
        let pushes = trace
            .iter()
            .filter(|op| matches!(op, TraceOp::Push(_)))
            .count();
        let pops = trace.iter().filter(|op| matches!(op, TraceOp::Pop)).count();
        assert_eq!(pops as u64, net.stats().events_processed);
        assert!(pushes >= pops);
    }
}
