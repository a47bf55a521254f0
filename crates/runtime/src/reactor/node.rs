//! The protocol half of a shard: its resident nodes, their timer heap and
//! the dispatch of their callbacks.
//!
//! The semantics match the simulator's: protocols see
//! `on_start`/`on_message`/`on_timer`/`on_link_down` through
//! [`Context::external`], RNGs derive from `split_mix64(seed, node)`.
//! The commands a callback emits become socket commands on a list the
//! core owns — `Send` and `OpenConnection` by way of the cluster's fault
//! layer, which is the simulator's own — and the worker hands that list to
//! its own connection table after every inbox message, timer batch and
//! readiness batch: same thread, no lock, no wake. Every deadline is a
//! `SimTime` read off the [`Clock`] the core is handed, so its tests run
//! over the in-memory wire in virtual time.
//!
//! **Crash isolation:** every protocol callback runs under
//! `catch_unwind`. A panicking node is poisoned — removed from its shard,
//! its sockets closed so peers observe a link-down — while its shard
//! siblings keep running; the panic never takes down the worker.

use super::io::{IoCmd, LinkTable, Sockets, Upcall};
use crate::clock::Clock;
use crate::report::RuntimeStats;
use crate::shim::{Fate, ShimControl};
use crate::wire::WireCodec;
use brisa_simnet::seed::split_mix64;
use brisa_simnet::{
    Command, Context, NodeId, Protocol, SimTime, TimerTag, FAILURE_DETECTION_DELAY,
};
use brisa_telemetry::{Counter, EventKind as TelEventKind, Histo, Telemetry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A protocol the reactor can run: one whose messages have a wire codec.
pub(super) trait WireProtocol: Protocol<Message: WireCodec> {}
impl<P: Protocol<Message: WireCodec>> WireProtocol for P {}

/// What a timer deadline triggers when it fires.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    /// A protocol timer of a resident node. The tag is kept as its
    /// `(kind, data)` fields: `TimerTag` has no order to derive from.
    Proto { node: u32, tag: (u16, u64) },
    /// A scheduled re-dial of the `owner → peer` outbound link.
    Redial { owner: u32, peer: u32 },
    /// A frame the fault layer held back (jitter, or a `Delay` cut until
    /// its heal), released onto the `from → to` link.
    Held {
        from: u32,
        to: NodeId,
        frame: Vec<u8>,
    },
    /// `node`'s connection attempt across an active cut, surfacing as a
    /// link-down once the detection delay has passed.
    CutOpen { node: u32, peer: NodeId },
}

impl TimerKind {
    /// The node whose stop cancels this deadline.
    fn owner(&self) -> u32 {
        match *self {
            TimerKind::Proto { node, .. } | TimerKind::CutOpen { node, .. } => node,
            TimerKind::Redial { owner, .. } => owner,
            TimerKind::Held { from, .. } => from,
        }
    }
}

/// A pending deadline. `seq` is unique, so the derived order is `(at, seq)`
/// and never reaches `kind`: same-instant timers fire in insertion order —
/// the simulator's tie-break, preserved per shard.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    at: SimTime,
    seq: u64,
    kind: TimerKind,
}

/// The shard's deadlines, all kinds on one heap.
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<Reverse<TimerEntry>>,
    seq: u64,
}

impl Timers {
    fn push(&mut self, at: SimTime, kind: TimerKind) {
        self.heap.push(Reverse(TimerEntry {
            at,
            seq: self.seq,
            kind,
        }));
        self.seq += 1;
    }
}

/// One resident node: protocol state, RNG and stats.
struct NodeSlot<P: Protocol> {
    id: NodeId,
    proto: P,
    rng: SmallRng,
    stats: RuntimeStats,
    /// Per destination with frames parked on the timer heap: the latest
    /// release among them and how many. A later frame to that destination
    /// parks behind them, so a hold never reorders a link.
    held: HashMap<u32, (SimTime, usize)>,
}

/// Pre-resolved observability handles of one reactor shard. All no-ops
/// when the pool was built without telemetry.
pub(super) struct ReactorTel {
    tel: Telemetry,
    links_reaped: Counter,
    redials: Counter,
    node_panics: Counter,
    backpressure_stalls: Counter,
    /// Deadlines popped off the shard's heap, protocol and re-dial alike.
    timers_fired: Counter,
    /// Frames decoded and handed to a resident node.
    frames_in: Counter,
    pub(super) poll_iter_us: Histo,
    pub(super) inbox_batch: Histo,
}

impl ReactorTel {
    fn new(tel: &Telemetry) -> Self {
        ReactorTel {
            links_reaped: tel.counter("reactor.links_reaped"),
            redials: tel.counter("reactor.redials"),
            node_panics: tel.counter("reactor.node_panics"),
            backpressure_stalls: tel.counter("reactor.backpressure_stalls"),
            timers_fired: tel.counter("reactor.timers_fired"),
            frames_in: tel.counter("reactor.frames_in"),
            poll_iter_us: tel.histogram("reactor.poll_iter_us"),
            inbox_batch: tel.histogram("reactor.inbox_batch"),
            tel: tel.clone(),
        }
    }
}

/// The protocol-facing half of a shard: nodes, their merged timer heap,
/// and the dispatch/poison machinery.
pub(super) struct ProtoCore<P: Protocol, C> {
    /// The cluster's fault layer.
    shim: ShimControl,
    /// The one time source: every dispatch, deadline and table call reads it.
    clock: C,
    nodes: HashMap<u32, NodeSlot<P>>,
    /// Nodes removed by a panic; a later `Stop` replies `None` for them.
    poisoned: BTreeSet<u32>,
    timers: Timers,
    commands: Vec<Command<P::Message>>,
    /// Socket commands for the shard's connection table, in emission
    /// order; the worker hands them over after every unit of work.
    io_cmds: VecDeque<IoCmd>,
    /// What the connection table reports, handed on after each table call.
    pub(super) upcalls: Vec<Upcall>,
    /// This shard's index in the pool (flight-recorder shard pinning).
    shard: usize,
    /// Observability handles; the handle itself is also exposed to every
    /// protocol callback through the dispatch context.
    pub(super) rtel: ReactorTel,
}

impl<P: WireProtocol, C: Clock> ProtoCore<P, C> {
    pub(super) fn new(shim: ShimControl, clock: C, shard: usize, telemetry: &Telemetry) -> Self {
        ProtoCore {
            shim,
            clock,
            nodes: HashMap::new(),
            poisoned: BTreeSet::new(),
            timers: Timers::default(),
            commands: Vec::new(),
            io_cmds: VecDeque::new(),
            upcalls: Vec::new(),
            shard,
            rtel: ReactorTel::new(telemetry),
        }
    }

    /// Nodes resident on the shard.
    pub(super) fn resident(&self) -> usize {
        self.nodes.len()
    }

    /// Records a flight-recorder event about `node`, stamped with the
    /// shard clock and pinned to this shard's ring. No-op when the pool
    /// runs without telemetry.
    pub(super) fn tel_event(&self, node: u32, kind: TelEventKind, a: u64, b: u64) {
        if self.rtel.tel.is_enabled() {
            let now = self.clock.now().as_micros();
            self.rtel
                .tel
                .event_on_shard(self.shard, now, node, kind, a, b);
        }
    }

    /// Runs one protocol callback for `id` under `catch_unwind` and drains
    /// the commands it emitted. A panic poisons the node: it is removed
    /// from the shard and its sockets closed (peers see a link-down),
    /// while shard siblings continue untouched.
    /// The clock is read once per callback: that is its `Context::now()`,
    /// a delivery's timestamp, and the base of the deadlines it sets.
    pub(super) fn dispatch(
        &mut self,
        id: u32,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>),
    ) {
        let Some(slot) = self.nodes.get_mut(&id) else {
            return;
        };
        let mut commands = std::mem::take(&mut self.commands);
        let now = self.clock.now();
        let telemetry = &self.rtel.tel;
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = Context::external_with_telemetry(
                now,
                slot.id,
                &mut slot.rng,
                &mut commands,
                telemetry,
            );
            f(&mut slot.proto, &mut ctx);
        }))
        .is_err();
        if panicked {
            commands.clear();
            self.commands = commands;
            self.poison(id);
            return;
        }
        for cmd in commands.drain(..) {
            match cmd {
                Command::Send { to, msg } => {
                    let frame = msg.encode();
                    slot.stats.frames_out += 1;
                    slot.stats.bytes_out += frame.len() as u64;
                    // The one fault decision, the simulator's. Inert (and
                    // nothing parked for `to`), it is `Pass` off a flag read.
                    let behind_held = slot.held.contains_key(&to.0);
                    match self.shim.route(slot.id, to, now, behind_held) {
                        Fate::Pass => self.io_cmds.push_back(IoCmd::Send {
                            from: slot.id,
                            to,
                            frame,
                        }),
                        Fate::Dropped => {}
                        Fate::Hold(until) => {
                            let (latest, parked) = slot.held.entry(to.0).or_insert((until, 0));
                            *latest = until.max(*latest);
                            *parked += 1;
                            let from = id;
                            self.timers
                                .push(*latest, TimerKind::Held { from, to, frame });
                        }
                    }
                }
                Command::SetTimer { delay, tag } => {
                    let tag = (tag.kind, tag.data);
                    self.timers
                        .push(now + delay, TimerKind::Proto { node: id, tag })
                }
                // An attempt across an active cut never reaches the wire:
                // it fails locally after the detection delay, like the
                // simulator's connect to an unreachable peer.
                Command::OpenConnection { peer } if self.shim.cuts_open(slot.id, peer, now) => {
                    let at = now + FAILURE_DETECTION_DELAY;
                    self.timers.push(at, TimerKind::CutOpen { node: id, peer })
                }
                Command::OpenConnection { peer } => self.io_cmds.push_back(IoCmd::Open {
                    from: slot.id,
                    peer,
                }),
                Command::CloseConnection { peer } => self.io_cmds.push_back(IoCmd::Close {
                    from: slot.id,
                    peer,
                }),
            }
        }
        self.commands = commands;
    }

    /// Cancels every deadline `id` owns — protocol timers, held frames,
    /// failed opens, re-dials. They must not outlive the node: a restart
    /// under the same identifier would be handed its predecessor's.
    fn purge_timers(&mut self, id: u32) {
        self.timers.heap.retain(|Reverse(e)| e.kind.owner() != id);
    }

    /// Removes a panicked node. Its protocol state is dropped (a crashed
    /// node has no report), its sockets closed so peers detect the failure
    /// exactly as they would a kill.
    fn poison(&mut self, id: u32) {
        if let Some(slot) = self.nodes.remove(&id) {
            self.purge_timers(id);
            self.rtel.node_panics.inc();
            self.tel_event(id, TelEventKind::NodePanic, 0, 0);
            self.poisoned.insert(id);
            self.io_cmds.push_back(IoCmd::CloseNode { node: slot.id });
        }
    }

    /// A complete frame from `from` arrived for resident node `id`.
    fn on_frame(&mut self, id: u32, from: NodeId, frame: &[u8]) {
        let Some(slot) = self.nodes.get_mut(&id) else {
            return;
        };
        match P::Message::decode(frame) {
            Ok(msg) => {
                slot.stats.frames_in += 1;
                slot.stats.bytes_in += frame.len() as u64;
                self.rtel.frames_in.inc();
                self.dispatch(id, move |p, ctx| p.on_message(ctx, from, msg));
            }
            Err(_) => slot.stats.decode_errors += 1,
        }
    }

    /// Hands what the connection table reported to the nodes, in order.
    /// A reap, a re-dial and a stall are also counted.
    pub(super) fn take_upcalls<S: Sockets>(&mut self, table: &LinkTable<S>) {
        let mut upcalls = std::mem::take(&mut self.upcalls);
        for upcall in upcalls.drain(..) {
            match upcall {
                Upcall::Frame(owner, from, at) => self.on_frame(owner, from, table.frame(at)),
                Upcall::LinkDown { owner, peer } => {
                    self.dispatch(owner, move |p, ctx| p.on_link_down(ctx, peer))
                }
                Upcall::Redial { owner, peer, at } => {
                    self.timers.push(at, TimerKind::Redial { owner, peer })
                }
                Upcall::Event(node, kind, a, b) => {
                    let stats = self.nodes.get_mut(&node).map(|slot| &mut slot.stats);
                    match (kind, stats) {
                        (TelEventKind::LinkReap, Some(stats)) => stats.links_reaped += 1,
                        (TelEventKind::Redial, Some(stats)) => stats.redials += 1,
                        _ => {}
                    }
                    match kind {
                        TelEventKind::LinkReap => self.rtel.links_reaped.inc(),
                        TelEventKind::Redial => self.rtel.redials.inc(),
                        TelEventKind::BackpressureStall => self.rtel.backpressure_stalls.inc(),
                        _ => {}
                    }
                    self.tel_event(node, kind, a, b);
                }
            }
        }
        self.upcalls = upcalls;
    }

    /// Executes the socket commands the nodes queued, and those their
    /// upcalls queue in turn, until none are left: a link that fails
    /// reports a link-down, and its handler may send again.
    pub(super) fn run_cmds<S: Sockets>(&mut self, table: &mut LinkTable<S>) {
        while let Some(cmd) = self.io_cmds.pop_front() {
            table.command(self.clock.now(), cmd, &mut self.upcalls);
            self.take_upcalls(table);
        }
    }

    pub(super) fn start_node(&mut self, id: NodeId, proto: P, seed: u64) {
        let rng = SmallRng::seed_from_u64(split_mix64(seed, id.0 as u64));
        self.nodes.insert(
            id.0,
            NodeSlot {
                id,
                proto,
                rng,
                stats: RuntimeStats::default(),
                held: HashMap::new(),
            },
        );
        // A restart under the same identifier clears the old poison.
        self.poisoned.remove(&id.0);
        self.dispatch(id.0, |p, ctx| p.on_start(ctx));
    }

    pub(super) fn stop_node(&mut self, id: u32) -> Option<(P, RuntimeStats)> {
        let slot = self.nodes.remove(&id)?;
        self.purge_timers(id);
        self.io_cmds.push_back(IoCmd::CloseNode { node: slot.id });
        Some((slot.proto, slot.stats))
    }

    /// Fires every due deadline; a re-dial goes to the connection table.
    pub(super) fn fire_due_timers<S: Sockets>(&mut self, table: &mut LinkTable<S>) {
        loop {
            let now = self.clock.now();
            let due = matches!(self.timers.heap.peek(), Some(Reverse(e)) if e.at <= now);
            if !due {
                return;
            }
            let Reverse(entry) = self.timers.heap.pop().expect("peeked entry");
            self.rtel.timers_fired.inc();
            match entry.kind {
                TimerKind::Proto { node, tag } => {
                    if let Some(slot) = self.nodes.get_mut(&node) {
                        slot.stats.timers_fired += 1;
                        let tag = TimerTag::new(tag.0, tag.1);
                        self.dispatch(node, move |p, ctx| p.on_timer(ctx, tag));
                    }
                }
                TimerKind::Redial { owner, peer } => {
                    table.redial(now, &mut self.upcalls, owner, peer);
                    self.take_upcalls(table);
                }
                TimerKind::Held { from, to, frame } => {
                    if let Some(slot) = self.nodes.get_mut(&from) {
                        // One frame fewer parked for `to`; at none, `to`
                        // leaves the map.
                        if let Entry::Occupied(mut held) = slot.held.entry(to.0) {
                            held.get_mut().1 -= 1;
                            if held.get().1 == 0 {
                                held.remove();
                            }
                        }
                        self.io_cmds.push_back(IoCmd::Send {
                            from: slot.id,
                            to,
                            frame,
                        });
                    }
                }
                TimerKind::CutOpen { node, peer } => {
                    self.dispatch(node, move |p, ctx| p.on_link_down(ctx, peer));
                }
            }
        }
    }

    /// The earliest deadline on the heap, if any.
    pub(super) fn next_deadline(&self) -> Option<SimTime> {
        self.timers.heap.peek().map(|Reverse(e)| e.at)
    }
}

#[cfg(test)]
mod tests {
    //! A shard's protocol half and a real connection table over the
    //! in-memory wire, on a clock the test advances: nodes 0, 1 and 2 are
    //! resident, each listening at its own address.

    use super::*;
    use crate::reactor::fake::{Fake, Listening, Net};
    use crate::reactor::io::Ready;
    use brisa::StackMsg;
    use brisa_membership::HpvMsg;
    use brisa_simnet::{PartitionMode, PartitionSpec, SimDuration};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use std::sync::Arc;

    #[derive(Clone, Default)]
    struct Manual(Rc<Cell<SimTime>>);

    impl Clock for Manual {
        fn now(&self) -> SimTime {
            self.0.get()
        }
    }

    #[derive(Debug, PartialEq)]
    enum Heard {
        Timer(u64),
        Frame(NodeId, u64),
        Down(NodeId),
    }

    /// What the nodes heard: when (the callback's `now`), who, and what.
    type Log = Rc<RefCell<Vec<(SimTime, u32, Heard)>>>;

    struct Probe(Log);

    impl Probe {
        fn hear(&self, ctx: &Context<'_, StackMsg>, heard: Heard) {
            self.0.borrow_mut().push((ctx.now(), ctx.id().0, heard));
        }
    }

    impl Protocol for Probe {
        type Message = StackMsg;

        fn on_start(&mut self, _ctx: &mut Context<'_, StackMsg>) {}

        fn on_message(&mut self, ctx: &mut Context<'_, StackMsg>, from: NodeId, msg: StackMsg) {
            if let StackMsg::Hpv(HpvMsg::KeepAlive { nonce }) = msg {
                self.hear(ctx, Heard::Frame(from, nonce));
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, StackMsg>, tag: TimerTag) {
            self.hear(ctx, Heard::Timer(tag.data));
        }

        fn on_link_down(&mut self, ctx: &mut Context<'_, StackMsg>, peer: NodeId) {
            self.hear(ctx, Heard::Down(peer));
        }
    }

    struct Rig {
        wire: Net,
        table: LinkTable<Fake>,
        core: ProtoCore<Probe, Manual>,
        clock: Manual,
        shim: ShimControl,
        log: Log,
    }

    impl Rig {
        fn new() -> Rig {
            let (wire, clock, log) = (Net::default(), Manual::default(), Log::default());
            let shim = ShimControl::new(1, Default::default());
            let mut table = LinkTable::new(Fake(wire.clone()), SimTime::ZERO);
            let tel = Telemetry::disabled();
            let mut core = ProtoCore::new(shim.clone(), clock.clone(), 0, &tel);
            let addrs = Arc::new(vec![0, 1, 2]);
            for i in 0..3 {
                table.add_listener(NodeId(i), Listening(wire.clone(), i), addrs.clone());
                core.start_node(NodeId(i), Probe(log.clone()), 1);
            }
            Rig {
                wire,
                table,
                core,
                clock,
                shim,
                log,
            }
        }

        /// Moves the clock to `t` without running the loop.
        fn set(&self, t: SimTime) {
            self.clock.0.set(t);
        }

        /// One worker iteration at `t`: due deadlines, then the wire's
        /// readiness until a connect is decided, accepted and read.
        fn at(&mut self, t: SimTime) {
            self.set(t);
            self.core.fire_due_timers(&mut self.table);
            self.core.run_cmds(&mut self.table);
            for _ in 0..3 {
                let ready = self.wire.borrow().ready();
                for (token, readable, writable) in ready {
                    let ev = Ready {
                        token,
                        readable,
                        writable,
                    };
                    self.table.on_ready(t, ev, &mut self.core.upcalls);
                    self.core.take_upcalls(&self.table);
                }
                self.core.run_cmds(&mut self.table);
            }
        }

        /// Runs `f` as a callback of `node` now, as an `Invoke` would.
        fn on(&mut self, node: u32, f: impl FnOnce(&mut Context<'_, StackMsg>)) {
            self.core.dispatch(node, |_, ctx| f(ctx));
            self.core.run_cmds(&mut self.table);
        }

        /// Node 0 sends keep-alive `nonce` to `to`.
        fn send(&mut self, to: u32, nonce: u64) {
            let msg = StackMsg::Hpv(HpvMsg::KeepAlive { nonce });
            self.on(0, |ctx| ctx.send(NodeId(to), msg));
        }

        /// What the nodes heard since the last call.
        fn heard(&self) -> Vec<(SimTime, u32, Heard)> {
            self.log.borrow_mut().drain(..).collect()
        }

        /// Node 0's parked frames, per destination.
        fn held(&self) -> Vec<(u32, (SimTime, usize))> {
            let mut held: Vec<_> = self.core.nodes[&0].held.clone().into_iter().collect();
            held.sort();
            held
        }

        /// Installs a partition isolating `island` over `[start, end)`.
        fn cut(&self, island: u32, start: SimTime, end: SimTime, mode: PartitionMode) {
            let spec = PartitionSpec::new(vec![NodeId(island)], start, end, mode);
            self.shim.add_partition(spec);
        }
    }

    fn ms(t: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(t)
    }

    /// One microsecond before `t`.
    fn before(t: SimTime) -> SimTime {
        SimTime::from_micros(t.as_micros() - 1)
    }

    fn tag(data: u64) -> TimerTag {
        TimerTag::new(1, data)
    }

    #[test]
    fn a_timer_fires_at_its_deadline_and_same_instant_timers_in_insertion_order() {
        let mut rig = Rig::new();
        let delay = SimDuration::from_millis(7);
        rig.at(ms(3));
        rig.on(0, |ctx| {
            ctx.set_timer(delay, tag(1));
            ctx.set_timer(delay, tag(2));
        });
        rig.on(1, |ctx| ctx.set_timer(delay, tag(3)));
        rig.on(0, |ctx| ctx.set_timer(SimDuration::from_millis(2), tag(4)));
        assert_eq!(rig.core.next_deadline(), Some(ms(5)));
        rig.at(before(ms(5)));
        assert!(rig.heard().is_empty());
        rig.at(ms(5));
        assert_eq!(rig.heard(), [(ms(5), 0, Heard::Timer(4))]);
        rig.at(before(ms(10)));
        assert!(rig.heard().is_empty());
        rig.at(ms(10));
        let due =
            [(0, 1), (0, 2), (1, 3)].map(|(node, t): (u32, u64)| (ms(10), node, Heard::Timer(t)));
        assert_eq!(rig.heard(), due);
        // Found late, a deadline fires on the first pass after it, at that
        // pass's time.
        rig.on(0, |ctx| ctx.set_timer(delay, tag(5)));
        rig.at(ms(25));
        assert_eq!(rig.heard(), [(ms(25), 0, Heard::Timer(5))]);
        assert_eq!(rig.core.next_deadline(), None);
    }

    #[test]
    fn a_stop_cancels_every_kind_of_deadline_its_node_owns() {
        let mut rig = Rig::new();
        rig.cut(1, ms(0), ms(1_000), PartitionMode::Delay);
        rig.on(0, |ctx| {
            ctx.set_timer(SimDuration::from_millis(10), tag(1));
            ctx.open_connection(NodeId(1));
        });
        rig.send(1, 1);
        // Node 5 has no address: the dial fails at once and backs off.
        rig.send(5, 2);
        let mut kinds: Vec<_> = rig.core.timers.heap.iter().map(|e| &e.0.kind).collect();
        kinds.sort();
        let names = kinds.iter().map(|kind| match kind {
            TimerKind::Proto { .. } => "proto",
            TimerKind::Redial { .. } => "redial",
            TimerKind::Held { .. } => "held",
            TimerKind::CutOpen { .. } => "cut open",
        });
        let names: Vec<_> = names.collect();
        assert_eq!(names, ["proto", "redial", "held", "cut open"]);
        assert!(rig.core.stop_node(0).is_some());
        assert_eq!(rig.core.next_deadline(), None);
        // The restarted node hears nothing of its predecessor's, and node 1
        // never receives the held frame.
        rig.core.start_node(NodeId(0), Probe(rig.log.clone()), 1);
        for t in [10, 25, 200, 1_000, 2_000] {
            rig.at(ms(t));
        }
        assert!(rig.heard().is_empty());
    }

    #[test]
    fn held_frames_leave_at_the_heal_in_send_order_and_later_ones_queue_behind() {
        let mut rig = Rig::new();
        rig.cut(1, ms(0), ms(100), PartitionMode::Delay);
        rig.cut(2, ms(0), ms(200), PartitionMode::Delay);
        for (to, nonce) in [(1, 1), (2, 2), (1, 3)] {
            rig.send(to, nonce);
        }
        assert_eq!(rig.held(), [(1, (ms(100), 2)), (2, (ms(200), 1))]);
        rig.at(before(ms(100)));
        assert!(rig.heard().is_empty());
        // Healed, but frames to node 1 are still parked: this one parks
        // behind them.
        rig.set(ms(100));
        rig.send(1, 4);
        assert_eq!(rig.held(), [(1, (ms(100), 3)), (2, (ms(200), 1))]);
        rig.at(ms(100));
        let to_1 = [1, 3, 4].map(|nonce| (ms(100), 1, Heard::Frame(NodeId(0), nonce)));
        assert_eq!(rig.heard(), to_1);
        // Node 1's releases touched only node 1's count.
        assert_eq!(rig.held(), [(2, (ms(200), 1))]);
        rig.at(ms(200));
        assert_eq!(rig.heard(), [(ms(200), 2, Heard::Frame(NodeId(0), 2))]);
        assert!(rig.held().is_empty());
        // Nothing parked any more: the next frame goes straight out.
        rig.send(1, 5);
        rig.at(ms(201));
        assert_eq!(rig.heard(), [(ms(201), 1, Heard::Frame(NodeId(0), 5))]);
        assert_eq!(rig.shim.stats().frames_delayed, 4);
    }

    #[test]
    fn an_open_across_a_cut_is_a_link_down_one_detection_delay_later() {
        let mut rig = Rig::new();
        rig.cut(1, ms(0), ms(30_000), PartitionMode::Drop);
        rig.at(ms(5));
        rig.on(0, |ctx| ctx.open_connection(NodeId(1)));
        let down = ms(5) + FAILURE_DETECTION_DELAY;
        rig.at(before(down));
        assert!(rig.heard().is_empty());
        rig.at(down);
        assert_eq!(rig.heard(), [(down, 0, Heard::Down(NodeId(1)))]);
        assert_eq!(rig.shim.stats().linkdowns_synthesized, 1);
    }
}
