//! The event-processing core: how one simulation event is handled, written
//! once.
//!
//! A [`Core`] owns a set of nodes (instances of a type implementing
//! [`Protocol`]) with their event queue, link state and fault layer, and
//! processes events in `(time, priority)` order. It is parameterised only
//! by a [`Placement`]: which node ids this core owns and where an event
//! for a node it does not own goes. The sequential
//! [`crate::Network`] is one core that owns everything ([`Whole`]); the
//! sharded [`crate::ShardedNetwork`] is `k` cores with
//! [`crate::shard::Strided`] placement plus the epoch loop of
//! [`crate::shard`].
//!
//! The hot path is built on dense, index-addressed state (see
//! [`crate::sched`] for the timing-wheel event queue and [`crate::links`]
//! for the adjacency vectors); everything the simulator keeps per node —
//! RNG, lane counter, byte totals, FIFO clocks — lives in that node's slot,
//! so a send touches one slot and no side table. The steady-state event
//! loop does not allocate per event. Under [`Whole`] every ownership test
//! is a constant, so the outbox and the relay pushes compile away.

use std::sync::Arc;

use crate::bandwidth::NodeBandwidth;
use crate::event::{EventKind, EventQueue};
use crate::faults::{FaultLayer, Routed};
use crate::latency::LatencyModel;
use crate::links::{ensure_len, Adjacency, FifoClocks};
use crate::network::{Footprint, NetStats, NetworkConfig};
use crate::node::NodeId;
use crate::protocol::{Command, Context, Protocol, WireSize};
use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Which node ids one event-processing core owns, and where the rest live.
///
/// Two implementations exist: [`Whole`] (the sequential simulator) and
/// [`crate::Strided`] (one shard of the sharded simulator).
pub trait Placement: Copy + Send + 'static {
    /// True if a simulation with this placement always has exactly one
    /// core, which lets the compiler drop the multi-core machinery.
    const SOLE: bool;

    /// True if the core with this placement owns `id`.
    fn owns(self, id: NodeId) -> bool;

    /// Index of an owned `id` in the core's dense node vector.
    fn local(self, id: NodeId) -> usize;

    /// Index, among the cores of one simulation, of the core that owns
    /// `id`.
    fn home(self, id: NodeId) -> usize;
}

/// The placement that owns every id: local index = id, nothing is remote.
#[derive(Debug, Clone, Copy)]
pub struct Whole;

impl Placement for Whole {
    const SOLE: bool = true;

    #[inline(always)]
    fn owns(self, _id: NodeId) -> bool {
        true
    }

    #[inline(always)]
    fn local(self, id: NodeId) -> usize {
        id.index()
    }

    #[inline(always)]
    fn home(self, _id: NodeId) -> usize {
        0
    }
}

/// What one core hands another: an event for a node the sender does not
/// own, or an adjacency mirror notification (every mutation of an edge
/// whose endpoints live on different cores is replayed on the other
/// endpoint's core, so `incoming_of` and `clear_outgoing` stay exact).
pub(crate) enum Relay<M> {
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

pub(crate) struct NodeSlot<P> {
    proto: P,
    rng: SmallRng,
    alive: bool,
    started: bool,
    /// Per-node cause counter for lane-key event priorities: the n-th event
    /// *caused* by this node gets priority `(id << 32) | n`. Together with
    /// the event time this forms a globally unique key that depends only on
    /// the node's own processing history — not on global push order — which
    /// is what makes a sharded run's event order identical to the
    /// sequential one. Every draw for a lane happens on the core that owns
    /// it.
    lane_seq: u32,
    /// Bytes this node has sent (counted at the send) and received
    /// (counted at the delivery).
    bytes: NodeBandwidth,
    /// FIFO clocks of this node's links with a message in flight.
    clocks: FifoClocks,
}

impl<P> NodeSlot<P> {
    /// The next lane-key priority for an event this node `id` causes.
    #[inline]
    fn lane_key(&mut self, id: NodeId) -> u64 {
        let key = ((id.0 as u64) << 32) | self.lane_seq as u64;
        self.lane_seq = self.lane_seq.wrapping_add(1);
        key
    }
}

/// How many pops ahead of the event being processed the loop looks for the
/// node to prefetch: 1 is the very next event. The event loop is bound by
/// the first touch of each event's node slot, not by work. Distance 2 lost
/// to 1 head to head (1 of 6 pairs), and so did a look-ahead past the
/// staged bucket (DESIGN.md, "Memory latency: the look-ahead prefetch",
/// has the distance × lines sweep).
const LOOKAHEAD: usize = 1;

/// Asks the CPU to bring every cache line `slot` spans into L1: the whole
/// slot, because the first 8 or 12 lines alone measured a third and two
/// thirds of the gain. A hint: nothing is read, so no simulated state can
/// change; a no-op off x86-64.
#[inline(always)]
fn prefetch<T>(slot: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let start = (slot as *const T).cast::<i8>();
        let skew = start as usize % LINE;
        let first = start.wrapping_sub(skew);
        for line in 0..(skew + std::mem::size_of::<T>()).div_ceil(LINE) {
            // SAFETY: a prefetch never faults and reads nothing the program
            // can observe; every line lies inside `slot` anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(line * LINE)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = slot;
}

/// One event-processing core (see the module docs).
pub(crate) struct Core<P: Protocol, Pl> {
    place: Pl,
    pub config: NetworkConfig,
    pub latency: Arc<dyn LatencyModel>,
    pub now: SimTime,
    pub queue: EventQueue<P::Message>,
    /// Owned nodes, dense at `place.local(id)`. A node's liveness is its
    /// slot's flag.
    nodes: Vec<NodeSlot<P>>,
    /// Replica of the liveness flags of the nodes *other* cores own,
    /// indexed by id (a send asks about its destination); always empty
    /// under [`Whole`]. Liveness flips only where all cores of a
    /// simulation can be flipped together — in the boundary drain — so
    /// reads are stable and identical on every core.
    remote_alive: Vec<bool>,
    /// Open connections as per-node sorted adjacency vectors (plus a
    /// reverse index) over the global id space, iterated in fixed `NodeId`
    /// order so the simulation is bit-identical no matter which thread
    /// runs it. Out-lists of owned nodes are authoritative; edges with a
    /// remote endpoint are mirrored onto that endpoint's core.
    connections: Adjacency,
    pub stats: NetStats,
    /// Fault-injection layer, consulted between command drain and delivery
    /// scheduling. Inert by default (one branch per send). Draw counters
    /// are per directed link and only bumped on the sender's core, so the
    /// replicas of a sharded simulation never disagree on a draw.
    pub faults: FaultLayer,
    command_buf: Vec<Command<P::Message>>,
    /// Reused buffer for the peers notified by `apply_crash`.
    crash_buf: Vec<NodeId>,
    /// Relays for the other cores, indexed by [`Placement::home`]; always
    /// empty under [`Whole`].
    pub outbox: Vec<Vec<Relay<P::Message>>>,
}

impl<P: Protocol, Pl: Placement> Core<P, Pl> {
    /// Creates one of the `cores` cores of a simulation.
    pub fn new(
        place: Pl,
        cores: usize,
        config: &NetworkConfig,
        latency: Arc<dyn LatencyModel>,
    ) -> Self {
        Core {
            place,
            config: config.clone(),
            latency,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            remote_alive: Vec::new(),
            connections: Adjacency::default(),
            stats: NetStats::default(),
            faults: FaultLayer::new(config.seed, config.faults.clone()),
            command_buf: Vec::new(),
            crash_buf: Vec::new(),
            outbox: (0..cores).map(|_| Vec::new()).collect(),
        }
    }

    pub fn place(&self) -> Pl {
        self.place
    }

    /// Nodes ever added to this core.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// True if `id` — owned or not — exists and has not crashed.
    pub fn is_alive(&self, id: NodeId) -> bool {
        if self.place.owns(id) {
            self.nodes
                .get(self.place.local(id))
                .is_some_and(|n| n.alive)
        } else {
            self.remote_alive.get(id.index()).is_some_and(|&a| a)
        }
    }

    /// True if the owned node `id` is alive and its `on_start` has run.
    pub fn is_started(&self, id: NodeId) -> bool {
        self.is_alive(id) && self.nodes[self.place.local(id)].started
    }

    /// Protocol state of an owned node.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.nodes.get(self.place.local(id)).map(|n| &n.proto)
    }

    /// Makes room for `additional` more owned nodes at once, so registering
    /// them never moves the node vector.
    pub fn reserve_nodes(&mut self, additional: usize) {
        self.nodes.reserve_exact(additional);
    }

    /// Byte totals of the owned node `id`.
    pub fn bandwidth(&self, id: NodeId) -> NodeBandwidth {
        self.nodes[self.place.local(id)].bytes
    }

    /// FIFO clocks of the owned node `id`, as `(dest, clock)` in first-send
    /// order.
    pub fn link_clocks(&self, id: NodeId) -> impl Iterator<Item = (NodeId, SimTime)> + '_ {
        self.nodes[self.place.local(id)].clocks.iter()
    }

    /// Consumes the core into its owned nodes' protocol states in local
    /// order, `None` for a crashed one. Everything else the core held is
    /// freed on return.
    pub fn into_nodes(self) -> impl Iterator<Item = Option<P>> {
        self.nodes
            .into_iter()
            .map(|slot| slot.alive.then_some(slot.proto))
    }

    /// Registers a node another core owns.
    pub fn register_remote(&mut self, id: NodeId) {
        ensure_len(&mut self.remote_alive, id.index());
        self.remote_alive[id.index()] = true;
    }

    /// Registers the next node this core owns: `on_start` runs at `start`,
    /// its RNG stream is seeded with `seed`.
    pub fn register(
        &mut self,
        id: NodeId,
        start: SimTime,
        seed: u64,
        build: impl FnOnce(NodeId) -> P,
    ) {
        assert_eq!(
            self.place.local(id),
            self.nodes.len(),
            "node ids must be added densely"
        );
        self.nodes.push(NodeSlot {
            proto: build(id),
            rng: SmallRng::seed_from_u64(seed),
            alive: true,
            started: false,
            lane_seq: 0,
            bytes: NodeBandwidth::default(),
            clocks: FifoClocks::default(),
        });
        let prio = self.lane_key(id);
        self.queue.push(start, prio, EventKind::Start { node: id });
    }

    /// Draws the next lane-key priority for an event caused by the owned
    /// node `lane`: its id in the high 32 bits, its cause counter in the
    /// low 32. A lane never added (a crash requested for an unknown id)
    /// gets counter 0 — such events are ignored at processing time anyway.
    pub fn lane_key(&mut self, lane: NodeId) -> u64 {
        debug_assert!(self.place.owns(lane));
        match self.nodes.get_mut(self.place.local(lane)) {
            Some(slot) => slot.lane_key(lane),
            None => (lane.0 as u64) << 32,
        }
    }

    /// Schedules an event for `target` on whichever core owns it.
    fn push_for(&mut self, target: NodeId, time: SimTime, prio: u64, kind: EventKind<P::Message>) {
        if self.place.owns(target) {
            self.queue.push(time, prio, kind);
        } else {
            self.outbox[self.place.home(target)].push(Relay::Event { time, prio, kind });
        }
    }

    /// Tells `peer`'s core about a change to an edge towards it.
    fn mirror(&mut self, peer: NodeId, relay: Relay<P::Message>) {
        if !self.place.owns(peer) {
            self.outbox[self.place.home(peer)].push(relay);
        }
    }

    /// Applies what another core relayed here.
    pub fn apply_relay(&mut self, relay: Relay<P::Message>) {
        match relay {
            Relay::Event { time, prio, kind } => self.queue.push(time, prio, kind),
            Relay::Open { owner, peer } => self.connections.insert(owner, peer),
            Relay::Close { owner, peer } => self.connections.remove(owner, peer),
        }
    }

    /// Processes every queued event up to and including `deadline`, then
    /// sets the clock to it. Before each event is processed, the slot of
    /// the node the next one will touch is prefetched (see
    /// [`LOOKAHEAD`]), so its cache misses overlap this event's work.
    pub fn run_to(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let ev = self.queue.pop().expect("peeked event must exist");
            self.now = ev.time;
            self.stats.events_processed += 1;
            if let Some(slot) = self.upcoming_slot() {
                prefetch(slot);
            }
            self.process(ev.item);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// The owned slot that the event [`LOOKAHEAD`] pops ahead will touch,
    /// if the wheel can see that event and it has one: a `Crash`, a node
    /// another core owns and a lane never added have none.
    fn upcoming_slot(&self) -> Option<&NodeSlot<P>> {
        let target = match self.queue.upcoming(LOOKAHEAD - 1)? {
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { node, .. }
            | EventKind::Start { node }
            | EventKind::LinkDown { node, .. } => *node,
            EventKind::Crash { .. } => return None,
        };
        if !self.place.owns(target) {
            return None;
        }
        self.nodes.get(self.place.local(target))
    }

    pub fn process(&mut self, kind: EventKind<P::Message>) {
        match kind {
            EventKind::Start { node } => {
                if !self.is_alive(node) {
                    return;
                }
                self.nodes[self.place.local(node)].started = true;
                self.dispatch(node, |proto, ctx| proto.on_start(ctx));
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                size,
            } => {
                if !self.is_started(to) {
                    self.stats.messages_dropped += 1;
                    return;
                }
                self.nodes[self.place.local(to)].bytes.download_total += size as u64;
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
                self.mirror(peer, Relay::Close { owner: node, peer });
                self.dispatch(node, |proto, ctx| proto.on_link_down(ctx, peer));
            }
            // A crash is only ever requested for the current instant,
            // between two runs, so a simulation with several cores meets
            // this event in its boundary drain, which applies it to all of
            // them; here it reaches the one core there is.
            EventKind::Crash { node } => self.apply_crash(node),
        }
    }

    /// Applies the crash of `victim` (fail-stop) to this core. Every core
    /// of a simulation applies it, at the same point of the event order.
    pub fn apply_crash(&mut self, victim: NodeId) {
        if !self.is_alive(victim) {
            return;
        }
        if self.place.owns(victim) {
            let slot = &mut self.nodes[self.place.local(victim)];
            slot.alive = false;
            // It will never send again.
            slot.clocks.clear();
            // Peers with an open connection to the crashed node detect the
            // failure after the detection delay. The owner's reverse
            // adjacency index (every remote edge towards the victim was
            // mirrored here) yields them directly in O(degree); the buffer
            // is reused across crashes.
            let detect_at = self.now + self.config.failure_detection_delay;
            let mut notified = std::mem::take(&mut self.crash_buf);
            notified.clear();
            notified.extend_from_slice(self.connections.incoming_of(victim));
            for &owner in &notified {
                // The crashed node is the lane: `incoming_of` yields owners
                // in ascending id order, so these draws are a deterministic
                // function of the crash itself.
                let prio = self.lane_key(victim);
                let down = EventKind::LinkDown {
                    node: owner,
                    peer: victim,
                };
                self.push_for(owner, detect_at, prio, down);
            }
            self.crash_buf = notified;
        } else {
            self.remote_alive[victim.index()] = false;
        }
        // Drop the crashed node's own connections and fault-layer draw
        // counters so long churn runs do not accumulate state for dead
        // nodes.
        self.connections.clear_outgoing(victim);
        self.faults.prune(victim);
    }

    /// Runs `f` against the owned node `id` and applies the commands it
    /// issues.
    pub fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Context<'_, P::Message>)) {
        let slot = &mut self.nodes[self.place.local(id)];
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
                    let latency = {
                        let slot = &mut self.nodes[self.place.local(origin)];
                        slot.bytes.upload_total += size as u64;
                        self.latency.sample(origin, to, &mut slot.rng)
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
                    let fifo = self.config.fifo_links && self.is_alive(to);
                    let slot = &mut self.nodes[self.place.local(origin)];
                    if fifo {
                        deliver_at = slot.clocks.stamp(to, self.now, deliver_at);
                    }
                    let prio = slot.lane_key(origin);
                    let deliver = EventKind::Deliver {
                        from: origin,
                        to,
                        msg,
                        size,
                    };
                    self.push_for(to, deliver_at, prio, deliver);
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
                    self.mirror(
                        peer,
                        Relay::Open {
                            owner: origin,
                            peer,
                        },
                    );
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
                    self.mirror(
                        peer,
                        Relay::Close {
                            owner: origin,
                            peer,
                        },
                    );
                }
            }
        }
        commands
    }

    /// This core's share of the simulation's [`Footprint`].
    pub fn footprint(&self) -> Footprint {
        let slot_overhead = std::mem::size_of::<NodeSlot<P>>() - std::mem::size_of::<P>();
        Footprint {
            nodes: self.nodes.len(),
            node_state_bytes: self
                .nodes
                .iter()
                .map(|n| n.proto.approx_state_bytes() + slot_overhead)
                .sum::<usize>()
                + self.remote_alive.capacity(),
            queue_bytes: self.queue.allocated_bytes(),
            adjacency_bytes: self.connections.approx_bytes(),
            link_clock_bytes: self.nodes.iter().map(|n| n.clocks.heap_bytes()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    //! The look-ahead prefetch at its edges: what `upcoming_slot` names
    //! after each pop, and that a run through `run_to` delivers exactly
    //! what the same events processed one by one deliver.

    use super::*;
    use crate::event::TimerTag;
    use crate::latency::FixedLatency;
    use crate::shard::Strided;
    use crate::time::SimDuration;

    /// Sends one message to each of `sends` on start; logs what arrives.
    #[derive(Debug, Default)]
    struct Log {
        sends: Vec<NodeId>,
        got: Vec<(NodeId, SimTime)>,
    }

    impl Protocol for Log {
        type Message = ();

        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            for &to in &self.sends {
                ctx.send(to, ());
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, ()>, from: NodeId, _msg: ()) {
            self.got.push((from, ctx.now()));
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _tag: TimerTag) {}
    }

    const MS: SimTime = SimTime::from_millis(1);

    /// A core of `place` (one of `cores`) over 1 ms links, with the owned
    /// nodes `nodes` (id, destinations) started at 0 and `remote`
    /// registered as other cores' nodes.
    fn core<Pl: Placement>(
        place: Pl,
        cores: usize,
        nodes: &[(u32, &[u32])],
        remote: &[u32],
    ) -> Core<Log, Pl> {
        let latency = Arc::new(FixedLatency::new(SimDuration::from_millis(1)));
        let mut core = Core::new(place, cores, &NetworkConfig::default(), latency);
        for &(id, sends) in nodes {
            let sends = sends.iter().map(|&d| NodeId(d)).collect();
            core.register(NodeId(id), SimTime::ZERO, id as u64, |_| Log {
                sends,
                got: Vec::new(),
            });
        }
        for &id in remote {
            core.register_remote(NodeId(id));
        }
        core
    }

    /// Local index of the slot `upcoming_slot` names, if any.
    fn upcoming<Pl: Placement>(core: &Core<Log, Pl>) -> Option<usize> {
        let base = core.nodes.as_ptr();
        core.upcoming_slot()
            .map(|slot| (slot as *const NodeSlot<Log>).addr() - base.addr())
            .map(|bytes| bytes / std::mem::size_of::<NodeSlot<Log>>())
    }

    /// Processes every event up to `deadline` the way `run_to` does,
    /// recording the look-ahead after each pop.
    fn step_to<Pl: Placement>(core: &mut Core<Log, Pl>, deadline: SimTime) -> Vec<Option<usize>> {
        let mut seen = Vec::new();
        while core.queue.peek_time().is_some_and(|t| t <= deadline) {
            let ev = core.queue.pop().expect("peeked");
            core.now = ev.time;
            seen.push(upcoming(core));
            core.process(ev.item);
        }
        seen
    }

    /// Per owned node, in local order: (sender, arrival) of each message.
    type Received = Vec<Vec<(NodeId, SimTime)>>;

    /// What every owned node received.
    fn delivered<Pl: Placement>(core: &Core<Log, Pl>) -> Received {
        core.nodes.iter().map(|n| n.proto.got.clone()).collect()
    }

    /// Builds two copies with `build`, steps one and runs the other with
    /// `run_to`, checks they deliver the same, and returns the look-ahead
    /// sequence and the deliveries.
    fn both<Pl: Placement>(
        build: impl Fn() -> Core<Log, Pl>,
        deadline: SimTime,
    ) -> (Vec<Option<usize>>, Received) {
        let mut stepped = build();
        let seen = step_to(&mut stepped, deadline);
        let mut run = build();
        run.run_to(deadline);
        assert_eq!(delivered(&stepped), delivered(&run));
        assert_eq!(run.stats.events_processed, seen.len() as u64);
        (seen, delivered(&run))
    }

    #[test]
    fn the_last_event_alone_in_the_wheel_names_no_slot() {
        // Start 0 (start 1 staged behind it), start 1 (nothing staged),
        // then node 0's message to node 1, alone in the wheel.
        let (seen, got) = both(|| core(Whole, 1, &[(0, &[1]), (1, &[])], &[]), MS);
        assert_eq!(seen, vec![Some(1), None, None]);
        assert_eq!(got, vec![vec![], vec![(NodeId(0), MS)]]);
    }

    #[test]
    fn a_crash_next_names_no_slot() {
        let build = || {
            let mut c = core(Whole, 1, &[(0, &[1]), (1, &[])], &[]);
            let prio = c.lane_key(NodeId(1));
            c.queue
                .push(SimTime::ZERO, prio, EventKind::Crash { node: NodeId(1) });
            c
        };
        // Start 0, start 1 (the crash staged behind it), the crash of 1,
        // the message to 1 (dropped).
        let (seen, got) = both(build, MS);
        assert_eq!(seen, vec![Some(1), None, None, None]);
        assert_eq!(got, vec![vec![], vec![]]);
    }

    #[test]
    fn a_node_another_shard_owns_names_no_slot() {
        // Shard 0 of 3 owns ids 0 and 3 (local 0 and 1); node 0 writes to
        // 3 and to 1, which shard 1 owns. An event for id 1 sits in this
        // queue 1 µs past the deadline, staged behind the message to 3:
        // the look-ahead sees it and must not name local slot 0 (= 1 / 3).
        let build = || {
            let place = Strided {
                shard: 0,
                shards: 3,
            };
            let mut c = core(place, 3, &[(0, &[3, 1]), (3, &[])], &[1, 2]);
            let prio = c.lane_key(NodeId(0));
            let tick = EventKind::Timer {
                node: NodeId(1),
                tag: TimerTag::of_kind(0),
            };
            c.queue.push(SimTime::from_micros(1_001), prio, tick);
            c
        };
        let (seen, got) = both(build, MS);
        assert_eq!(seen, vec![Some(1), None, None]);
        assert_eq!(got, vec![vec![], vec![(NodeId(0), MS)]]);
        let mut c = build();
        c.run_to(MS);
        assert!(matches!(
            c.outbox[1].as_slice(),
            [Relay::Event {
                kind: EventKind::Deliver { to: NodeId(1), .. },
                ..
            }]
        ));
    }

    #[test]
    fn a_lane_never_added_names_no_slot() {
        // Node 0 writes to node 1 and then to id 7, which was never added:
        // the message to 7 is staged behind the one to 1.
        let (seen, got) = both(|| core(Whole, 1, &[(0, &[1, 7]), (1, &[])], &[]), MS);
        assert_eq!(seen, vec![Some(1), None, None, None]);
        assert_eq!(got, vec![vec![], vec![(NodeId(0), MS)]]);
    }
}
