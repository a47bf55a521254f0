//! The sharded reactor: N nodes multiplexed per worker thread.
//!
//! A small pool of **reactor workers** executes every live node: a node is
//! pinned to the shard `id % workers`, and each worker is one thread
//! running one loop that merges
//!
//! * the worker's **inbox** (a mutex-protected queue of control messages
//!   from the pool — start, stop, invoke, listener registration — woken
//!   through a socket pair),
//! * the **timer heap** — the simulator's `(deadline, insertion-seq)`
//!   discipline, one heap per shard holding every resident node's timers,
//!   the connection table's re-dial deadlines *and* what the fault layer
//!   defers (held frames, failed opens across a cut — see [`crate::shim`]),
//! * and **socket readiness** from one `epoll` instance per worker
//!   (hand-rolled FFI — the vendored-deps constraint rules out mio):
//!   non-blocking listeners, inbound frame reassembly, outbound connects
//!   and outbound write flushing all run on the worker that owns the node.
//!   A descriptor is registered once, where it is born — a listener at
//!   `AddListener`, an inbound connection at `accept`, an outbound one
//!   when its connect starts, the wake socket when the worker is spawned —
//!   and leaves the set when it is dropped, so a link that carries nothing
//!   costs the loop nothing.
//!
//! The semantics match the simulator's: protocols see
//! `on_start`/`on_message`/`on_timer`/`on_link_down` through
//! [`Context::external`], RNGs derive from `split_mix64(seed, node)`.
//! The commands a callback emits become socket commands on a list the
//! shard's protocol half owns — `Send` and `OpenConnection` by way of the
//! cluster's fault layer, which is the simulator's own — and the worker
//! hands that list to its own connection table after every inbox message,
//! timer batch and readiness batch: same thread, no lock, no wake.
//!
//! **Crash isolation:** every protocol callback runs under
//! `catch_unwind`. A panicking node is poisoned — removed from its shard,
//! its sockets closed so peers observe a link-down — while its shard
//! siblings keep running; the panic never takes down the worker.
//!
//! **TCP under the reactor** (see [`crate::tcp`] for the mesh): sockets
//! are owned by the worker loop, never shared. An outbound connect is
//! started non-blocking and registered for writability; the socket turning
//! writable decides it, and the handshake follows on the same iteration. A
//! connect still pending after `CONNECT_TIMEOUT` is failed by the
//! connection table's sweep. Retry pacing (initial-dial retries, the 50 → 800 ms reconnect
//! backoff) lives on the worker's timer heap, so a slow peer never stalls
//! frame traffic. Backpressure is per-link: frames queue in the link's
//! outbound buffer until the socket drains. Reads are level-triggered and
//! always armed; write interest is on while a connect is in flight and
//! afterwards only when a flush hits `WouldBlock`, off again when the
//! queue empties, so an idle writable socket never wakes the loop.
//! Protocol-level flow control is the stack's own (BRISA's per-round
//! fan-out), exactly as in the simulator.
//!
//! Three files: `sys` holds the readiness set and all of the reactor's FFI,
//! `io` the connection table, and this one the worker loop and the pool.
//! The table decides and the worker does the I/O: the table's `Sockets`
//! are the readiness set, its clock the shard's, and its `Upcall`s reach
//! the nodes through the worker; its tests drive it in virtual time.

use crate::clock::WallClock;
use crate::config::RuntimeConfig;
use crate::report::RuntimeStats;
use crate::shim::{detection_delay, Fate, ShimControl};
use crate::wire::WireCodec;
use brisa_simnet::seed::split_mix64;
use brisa_simnet::{Command, Context, NodeId, Protocol, TimerTag};
use brisa_telemetry::{Counter, EventKind as TelEventKind, Histo, Telemetry};
use io::{IoCmd, LinkTable, Upcall};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod io;
mod sys;

/// Longest a worker parks when it has nothing scheduled.
const IDLE_PARK: Duration = Duration::from_millis(100);

/// Work section (everything but the wait) from which a loop iteration is
/// worth a `PollLoop` flight-recorder event.
const SLOW_ITERATION: Duration = Duration::from_millis(1);

/// A protocol the reactor can run: one whose messages have a wire codec.
trait WireProtocol: Protocol<Message: WireCodec> {}
impl<P: Protocol<Message: WireCodec>> WireProtocol for P {}

/// A boxed protocol callback queued through [`ReactorPool::invoke`].
type InvokeFn<P> = Box<dyn FnOnce(&mut P, &mut Context<'_, <P as Protocol>::Message>) + Send>;

/// Messages consumed by a reactor worker.
enum WorkerMsg<P: Protocol> {
    /// Start executing `proto` as `id` on this shard (fires `on_start`).
    Start { id: NodeId, proto: P, seed: u64 },
    /// Run a closure against `id`'s protocol on its shard.
    Invoke { id: NodeId, f: InvokeFn<P> },
    /// Stop `id`: close its sockets and reply with its final state, or
    /// `None` if the node is unknown or was poisoned by a panic.
    Stop {
        id: NodeId,
        reply: mpsc::Sender<Option<(P, RuntimeStats)>>,
    },
    /// Register a node's pre-bound listener with the connection table,
    /// with the mesh's advertised addresses for dialing peers.
    AddListener(NodeId, TcpListener, Arc<Vec<SocketAddr>>),
    /// Drop every remaining node, close every socket and exit the worker
    /// loop.
    Shutdown,
}

/// A worker's inbox: the queue plus its waker, shared with the pool.
struct Inbox<P: Protocol> {
    queue: Mutex<VecDeque<WorkerMsg<P>>>,
    waker: sys::Waker,
}

impl<P: Protocol> Inbox<P> {
    fn push(&self, msg: WorkerMsg<P>) {
        self.queue.lock().unwrap().push_back(msg);
        self.waker.wake();
    }
}

/// What a timer deadline triggers when it fires.
enum TimerKind {
    /// A protocol timer of a resident node.
    Proto { node: u32, tag: TimerTag },
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

/// A pending deadline, `(at, seq)`-ordered so same-instant timers fire in
/// insertion order — the simulator's tie-break, preserved per shard.
struct TimerEntry {
    at: Instant,
    seq: u64,
    kind: TimerKind,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for TimerEntry {}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The shard's deadlines, all kinds on one heap.
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<Reverse<TimerEntry>>,
    seq: u64,
}

impl Timers {
    fn push(&mut self, at: Instant, kind: TimerKind) {
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
    held: HashMap<u32, (Instant, usize)>,
}

/// Pre-resolved observability handles of one reactor shard. All no-ops
/// when the pool was built without telemetry.
struct ReactorTel {
    tel: Telemetry,
    links_reaped: Counter,
    redials: Counter,
    node_panics: Counter,
    backpressure_stalls: Counter,
    /// Deadlines popped off the shard's heap, protocol and re-dial alike.
    timers_fired: Counter,
    /// Frames decoded and handed to a resident node.
    frames_in: Counter,
    poll_iter_us: Histo,
    inbox_batch: Histo,
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
struct ProtoCore<P: Protocol> {
    /// The cluster's fault layer and, through it, its clock.
    shim: ShimControl,
    nodes: HashMap<u32, NodeSlot<P>>,
    /// Nodes removed by a panic; a later `Stop` replies `None` for them.
    poisoned: BTreeSet<u32>,
    timers: Timers,
    commands: Vec<Command<P::Message>>,
    /// Socket commands for the shard's connection table, in emission
    /// order; the worker hands them over after every unit of work.
    io_cmds: VecDeque<IoCmd>,
    /// What the connection table reports, handed on after each table call.
    upcalls: Vec<Upcall>,
    /// This shard's index in the pool (flight-recorder shard pinning).
    shard: usize,
    /// Observability handles; the handle itself is also exposed to every
    /// protocol callback through the dispatch context.
    rtel: ReactorTel,
}

impl<P: WireProtocol> ProtoCore<P> {
    fn new(shim: ShimControl, shard: usize, telemetry: &Telemetry) -> Self {
        ProtoCore {
            shim,
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

    /// Records a flight-recorder event about `node`, stamped with the
    /// shard clock and pinned to this shard's ring. No-op when the pool
    /// runs without telemetry.
    fn tel_event(&self, node: u32, kind: TelEventKind, a: u64, b: u64) {
        if self.rtel.tel.is_enabled() {
            self.rtel.tel.event_on_shard(
                self.shard,
                self.shim.clock().now().as_micros(),
                node,
                kind,
                a,
                b,
            );
        }
    }

    /// Runs one protocol callback for `id` under `catch_unwind` and drains
    /// the commands it emitted. A panic poisons the node: it is removed
    /// from the shard and its sockets closed (peers see a link-down),
    /// while shard siblings continue untouched.
    fn dispatch(&mut self, id: u32, f: impl FnOnce(&mut P, &mut Context<'_, P::Message>)) {
        let Some(slot) = self.nodes.get_mut(&id) else {
            return;
        };
        let mut commands = std::mem::take(&mut self.commands);
        let now = self.shim.clock().now();
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
                            let until = self.shim.clock().instant_at(until);
                            let (latest, parked) = slot.held.entry(to.0).or_insert((until, 0));
                            *latest = until.max(*latest);
                            *parked += 1;
                            let from = id;
                            self.timers
                                .push(*latest, TimerKind::Held { from, to, frame });
                        }
                    }
                }
                Command::SetTimer { delay, tag } => self.timers.push(
                    Instant::now() + Duration::from_micros(delay.as_micros()),
                    TimerKind::Proto { node: id, tag },
                ),
                // An attempt across an active cut never reaches the wire:
                // it fails locally after the detection delay, like the
                // simulator's connect to an unreachable peer.
                Command::OpenConnection { peer } if self.shim.cuts_open(slot.id, peer, now) => {
                    self.timers.push(
                        Instant::now() + detection_delay(),
                        TimerKind::CutOpen { node: id, peer },
                    )
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
    fn take_upcalls(&mut self, table: &LinkTable<sys::Readiness>) {
        let mut upcalls = std::mem::take(&mut self.upcalls);
        for upcall in upcalls.drain(..) {
            match upcall {
                Upcall::Frame(owner, from, at) => self.on_frame(owner, from, table.frame(at)),
                Upcall::LinkDown { owner, peer } => {
                    self.dispatch(owner, move |p, ctx| p.on_link_down(ctx, peer))
                }
                Upcall::Redial { owner, peer, at } => {
                    let at = self.shim.clock().instant_at(at);
                    self.timers.push(at, TimerKind::Redial { owner, peer });
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
    fn run_cmds(&mut self, table: &mut LinkTable<sys::Readiness>) {
        while let Some(cmd) = self.io_cmds.pop_front() {
            table.command(self.shim.clock().now(), cmd, &mut self.upcalls);
            self.take_upcalls(table);
        }
    }

    fn start_node(&mut self, id: NodeId, proto: P, seed: u64) {
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

    fn stop_node(&mut self, id: u32) -> Option<(P, RuntimeStats)> {
        let slot = self.nodes.remove(&id)?;
        self.purge_timers(id);
        self.io_cmds.push_back(IoCmd::CloseNode { node: slot.id });
        Some((slot.proto, slot.stats))
    }

    /// Fires every due deadline; a re-dial goes to the connection table.
    fn fire_due_timers(&mut self, table: &mut LinkTable<sys::Readiness>) {
        loop {
            let now = Instant::now();
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
                        self.dispatch(node, move |p, ctx| p.on_timer(ctx, tag));
                    }
                }
                TimerKind::Redial { owner, peer } => {
                    table.redial(self.shim.clock().now(), &mut self.upcalls, owner, peer);
                    self.take_upcalls(table);
                }
                TimerKind::Held { from, to, frame } => {
                    if let Some(slot) = self.nodes.get_mut(&from) {
                        if let Some((_, parked)) = slot.held.get_mut(&to.0) {
                            *parked -= 1;
                        }
                        slot.held.retain(|_, (_, parked)| *parked > 0);
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

    /// Time until the next deadline, capped at [`IDLE_PARK`].
    fn next_timeout(&self) -> Duration {
        self.timers
            .heap
            .peek()
            .map(|Reverse(e)| e.at.saturating_duration_since(Instant::now()))
            .unwrap_or(IDLE_PARK)
            .min(IDLE_PARK)
    }
}

/// The worker loop: drain inbox → fire timers → wait for readiness →
/// handle. `ready` arrives with the wake socket already registered.
fn worker_main<P: WireProtocol + Send + 'static>(
    idx: usize,
    inbox: Arc<Inbox<P>>,
    wake: sys::WakeRx,
    ready: sys::Readiness,
    shim: ShimControl,
    telemetry: Telemetry,
) {
    let mut table = LinkTable::new(ready, shim.clock().now());
    let mut core: ProtoCore<P> = ProtoCore::new(shim, idx, &telemetry);
    let mut batch: VecDeque<WorkerMsg<P>> = VecDeque::new();
    let mut running = true;
    // Per-worker gauges, resolved once; all dead weight when disabled.
    let tel_enabled = telemetry.is_enabled();
    let g_fds = telemetry.gauge(&format!("reactor.w{idx}.fds"));
    let g_nodes = telemetry.gauge(&format!("reactor.w{idx}.nodes"));
    let g_inbox_depth = telemetry.gauge(&format!("reactor.w{idx}.inbox_depth"));

    while running {
        // Loop-health instrumentation: how long the work section of this
        // iteration takes (inbox drain and timers, up to the wait) and how
        // many inbox messages it drained.
        let iter_start = tel_enabled.then(Instant::now);

        // 1. Drain the inbox. Emptying the wake socket and clearing its
        // flag *before* swapping the queue guarantees a producer racing
        // this drain either lands in `batch` or leaves a fresh wake for the
        // next wait. The socket commands each message queues run before
        // the next message, so a `Stop` has closed the node's sockets
        // before it replies.
        wake.drain();
        std::mem::swap(&mut batch, &mut *inbox.queue.lock().unwrap());
        let drained = batch.len() as u64;
        for msg in batch.drain(..) {
            match msg {
                WorkerMsg::Start { id, proto, seed } => core.start_node(id, proto, seed),
                WorkerMsg::Invoke { id, f } => core.dispatch(id.0, f),
                WorkerMsg::Stop { id, reply } => {
                    let stopped = core.stop_node(id.0);
                    core.run_cmds(&mut table);
                    let _ = reply.send(stopped);
                }
                WorkerMsg::AddListener(node, listener, addrs) => {
                    table.add_listener(node, listener, addrs)
                }
                WorkerMsg::Shutdown => {
                    running = false;
                }
            }
            core.run_cmds(&mut table);
        }
        if !running {
            break;
        }

        // 2. Fire due timers (protocol + re-dial deadlines, one heap), and
        // let the table sweep its links about once a second —
        // `next_timeout` is capped at `IDLE_PARK`, so the sweep runs even
        // when parked.
        core.fire_due_timers(&mut table);
        core.run_cmds(&mut table);
        if table.tick(core.shim.clock().now(), &mut core.upcalls) {
            core.take_upcalls(&table);
            core.run_cmds(&mut table);
            // Write-queue census at the same cadence: cheap, and depth
            // spikes outlive a single iteration anyway.
            if tel_enabled {
                let (frames, links) = table.write_queue_census();
                core.tel_event(idx as u32, TelEventKind::WriteQueueDepth, frames, links);
                g_nodes.set(core.nodes.len() as u64);
            }
        }

        // 3. Wait for readiness or the next timer. Nothing is built here:
        // the set was maintained where sockets were born and dropped.
        if let Some(start) = iter_start {
            // The table's registrations and the wake socket.
            g_fds.set(1 + table.registered());
            // Depth the worker found, not the residue after the swap.
            g_inbox_depth.set(drained);
            let work = start.elapsed();
            let iter_us = work.as_micros() as u64;
            core.rtel.poll_iter_us.record(iter_us);
            core.rtel.inbox_batch.record(drained);
            // Iterations are cheap and frequent; only one worth a
            // post-mortem may push protocol events out of the ring.
            if work >= SLOW_ITERATION {
                core.tel_event(idx as u32, TelEventKind::PollLoop, iter_us, drained);
            }
        }
        let ready = table.sockets.wait(core.next_timeout());

        // 4. Handle readiness: every read of the batch first, then the
        // sends they caused. Interleaving them would put the later reads'
        // deliveries behind the earlier relays' send syscalls, which
        // raises live-tcp's delivery latency. A read's frames reach their
        // node before the table reads again.
        let now = core.shim.clock().now();
        for i in 0..ready {
            let ev = table.sockets.event(i);
            table.on_ready(now, ev, &mut core.upcalls);
            core.take_upcalls(&table);
        }
        core.run_cmds(&mut table);
    }

    // Shutdown: dropping the table closes every socket and listener this
    // shard owns; the nodes' state goes with the core.
    drop(table);
}

/// One shard's handles, owned by the pool.
struct WorkerHandle<P: Protocol> {
    inbox: Arc<Inbox<P>>,
    thread: Option<JoinHandle<()>>,
}

/// The reactor: a fixed pool of worker threads, each multiplexing the
/// nodes of its shard. Create one per cluster.
pub struct ReactorPool<P: Protocol> {
    workers: Vec<WorkerHandle<P>>,
    shim: ShimControl,
}

impl<P: Protocol<Message: WireCodec> + Send + 'static> ReactorPool<P> {
    /// Spawns `cfg.workers` reactor workers on `clock`, with telemetry
    /// disabled and a fault layer of its own (seed 0) that stays inert
    /// unless driven through [`ReactorPool::shim`].
    pub fn new(clock: WallClock, cfg: &RuntimeConfig) -> Self {
        Self::with_telemetry(ShimControl::new(0, clock), cfg, Telemetry::disabled())
    }

    /// A pool on `shim`'s clock whose every send and open is routed
    /// through `shim`'s fault layer, with an observability registry
    /// attached: every worker records loop health, link churn and
    /// backpressure into it, and exposes it to protocol callbacks via
    /// `Context::telemetry`.
    pub fn with_telemetry(shim: ShimControl, cfg: &RuntimeConfig, telemetry: Telemetry) -> Self {
        let count = cfg.workers.max(1);
        let mut workers = Vec::with_capacity(count);
        for i in 0..count {
            let (waker, wake_rx) = sys::wake_pair().expect("create wake socket");
            let mut ready = sys::Readiness::new().expect("create readiness set");
            wake_rx.register(&mut ready).expect("register wake socket");
            let inbox = Arc::new(Inbox {
                queue: Mutex::new(VecDeque::new()),
                waker,
            });
            let worker_inbox = Arc::clone(&inbox);
            let (worker_tel, worker_shim) = (telemetry.clone(), shim.clone());
            let thread = std::thread::Builder::new()
                .name(format!("brisa-shard-{i}"))
                .spawn(move || {
                    worker_main(i, worker_inbox, wake_rx, ready, worker_shim, worker_tel)
                })
                .expect("spawn reactor worker");
            workers.push(WorkerHandle {
                inbox,
                thread: Some(thread),
            });
        }
        ReactorPool { workers, shim }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The pool's shared clock.
    pub fn clock(&self) -> &WallClock {
        self.shim.clock()
    }

    /// The fault-model control plane every worker routes through.
    pub fn shim(&self) -> &ShimControl {
        &self.shim
    }

    fn shard_of(&self, id: NodeId) -> &WorkerHandle<P> {
        &self.workers[id.index() % self.workers.len()]
    }

    /// Registers `id`'s pre-bound listener (and the mesh's address table)
    /// with its shard. Call it before [`ReactorPool::start_node`]: a node
    /// is reachable through its listener, and dials its peers through the
    /// address table.
    pub fn add_listener(&self, id: NodeId, listener: TcpListener, addrs: Arc<Vec<SocketAddr>>) {
        let msg = WorkerMsg::AddListener(id, listener, addrs);
        self.shard_of(id).inbox.push(msg);
    }

    /// Starts `proto` as node `id` on its shard; `on_start` runs on the
    /// worker. `seed` derives the node's RNG exactly like the simulator
    /// derives per-node streams.
    pub fn start_node(&self, id: NodeId, proto: P, seed: u64) {
        self.shard_of(id)
            .inbox
            .push(WorkerMsg::Start { id, proto, seed });
    }

    /// Queues a closure to run against `id`'s protocol on its shard.
    pub fn invoke(
        &self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>) + Send + 'static,
    ) {
        self.shard_of(id)
            .inbox
            .push(WorkerMsg::Invoke { id, f: Box::new(f) });
    }

    /// Asks `id`'s shard to stop the node. The returned receiver yields
    /// the final protocol state and stats — or `None` if the node is
    /// unknown (never started, already stopped, or poisoned by a panic).
    pub fn stop_node(&self, id: NodeId) -> mpsc::Receiver<Option<(P, RuntimeStats)>> {
        let (reply, rx) = mpsc::channel();
        self.shard_of(id).inbox.push(WorkerMsg::Stop { id, reply });
        rx
    }
}

impl<P: Protocol> ReactorPool<P> {
    /// Stops every worker: remaining nodes are torn down, sockets closed,
    /// and every worker thread joined. No socket, port or thread survives
    /// this call.
    pub fn shutdown(&mut self) {
        for w in &self.workers {
            if w.thread.is_some() {
                w.inbox.push(WorkerMsg::Shutdown);
            }
        }
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl<P: Protocol> Drop for ReactorPool<P> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::sys::Readiness;
    use std::collections::BTreeSet;
    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpListener;
    use std::os::raw::{c_int, c_ulong};
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    const SOON: Duration = Duration::from_millis(20);
    const LONG: Duration = Duration::from_secs(10);

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).expect("nonblocking");
        b.set_nonblocking(true).expect("nonblocking");
        (a, b)
    }

    #[test]
    fn a_registered_socket_that_becomes_readable_reports_its_token() {
        let mut ready = Readiness::new().expect("epoll");
        let (mut tx, rx) = pair();
        let (_quiet_tx, quiet_rx) = pair();
        ready.register(&rx, 7).expect("register");
        ready.register(&quiet_rx, 8).expect("register");
        assert_eq!(ready.wait(SOON), 0, "nothing written yet");
        tx.write_all(b"x").expect("write");
        assert_eq!(ready.wait(LONG), 1);
        let ev = ready.event(0);
        assert_eq!(ev.token, 7);
        assert!(ev.readable && !ev.writable);
        // Level-triggered: still reported until the byte is read.
        assert_eq!(ready.wait(LONG), 1);
        (&rx).read_exact(&mut [0u8; 1]).expect("read");
        assert_eq!(ready.wait(SOON), 0);
    }

    #[test]
    fn closing_a_registered_descriptor_is_silent() {
        let mut ready = Readiness::new().expect("epoll");
        let (mut tx, rx) = pair();
        ready.register(&rx, 1).expect("register");
        tx.write_all(b"x").expect("write");
        assert_eq!(ready.wait(LONG), 1);
        // Dropped while readable: the registration goes with it.
        drop(rx);
        assert_eq!(ready.wait(SOON), 0);
        // The set still works.
        let (mut tx2, rx2) = pair();
        ready.register(&rx2, 2).expect("register after a close");
        tx2.write_all(b"y").expect("write");
        assert_eq!(ready.wait(LONG), 1);
        assert_eq!(ready.event(0).token, 2);
    }

    #[test]
    fn write_interest_reports_writable_only_while_on() {
        let mut ready = Readiness::new().expect("epoll");
        let (a, _b) = pair();
        ready.register(&a, 3).expect("register");
        assert_eq!(ready.wait(SOON), 0, "an idle writable socket is silent");
        ready.set_interest(&a, 3, true, true).expect("arm");
        assert_eq!(ready.wait(LONG), 1);
        let ev = ready.event(0);
        assert_eq!(ev.token, 3);
        assert!(ev.writable && !ev.readable);
        ready.set_interest(&a, 3, true, false).expect("disarm");
        assert_eq!(ready.wait(SOON), 0);
    }

    #[test]
    fn a_connect_in_flight_is_decided_when_its_socket_turns_writable() {
        let mut ready = Readiness::new().expect("epoll");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let open = listener.local_addr().expect("addr");
        let closed = {
            let gone = TcpListener::bind("127.0.0.1:0").expect("bind");
            gone.local_addr().expect("addr")
        };
        // Both return while the handshake is still in flight.
        let accepted = ready.connect(open, 1).expect("connect started");
        let refused = ready.connect(closed, 2).expect("a refusal arrives later");
        let mut decided = BTreeSet::new();
        while decided.len() < 2 {
            let n = ready.wait(LONG);
            assert!(n > 0, "undecided connects: {decided:?} of 1, 2");
            for i in 0..n {
                let ev = ready.event(i);
                assert!(ev.writable, "a decided connect reads as writable");
                decided.insert(ev.token);
            }
        }
        assert!(accepted.take_error().expect("SO_ERROR").is_none());
        let refusal = refused.take_error().expect("SO_ERROR").map(|e| e.kind());
        assert_eq!(refusal, Some(ErrorKind::ConnectionRefused));
    }

    #[test]
    fn a_ready_set_larger_than_the_event_buffer_is_served_over_successive_waits() {
        const SOCKETS: usize = 300; // the buffer holds 256
        let mut ready = Readiness::new().expect("epoll");
        let pairs: Vec<_> = (0..SOCKETS).map(|_| pair()).collect();
        for (token, (tx, rx)) in pairs.iter().enumerate() {
            ready.register(rx, token as u64).expect("register");
            (&*tx).write_all(b"x").expect("write");
        }
        let mut served = vec![0u32; SOCKETS];
        let mut waits = 0;
        while served.contains(&0) {
            let n = ready.wait(LONG);
            assert!(n > 0, "descriptors left unserved: {served:?}");
            waits += 1;
            for i in 0..n {
                let token = ready.event(i).token as usize;
                (&pairs[token].1)
                    .read_exact(&mut [0u8; 1])
                    .expect("reported readable");
                served[token] += 1;
            }
        }
        assert!(waits >= 2, "300 ready descriptors cannot fit one batch");
        assert!(served.iter().all(|&n| n == 1), "served once each");
        assert_eq!(ready.wait(SOON), 0);
    }

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
        fn pthread_self() -> c_ulong;
        fn pthread_kill(thread: c_ulong, sig: c_int) -> c_int;
    }
    const SIGUSR1: c_int = 10;
    extern "C" fn ignore(_sig: c_int) {}

    #[test]
    fn an_interrupted_wait_reads_as_zero_ready() {
        // SAFETY: installs an async-signal-safe (empty) handler for a
        // signal nothing else in this test binary uses.
        unsafe { signal(SIGUSR1, ignore) };
        let (tid_tx, tid_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let mut ready = Readiness::new().expect("epoll");
            // SAFETY: no arguments; names the calling thread.
            tid_tx.send(unsafe { pthread_self() }).expect("main alive");
            let start = Instant::now();
            let n = ready.wait(LONG);
            done_tx.send(()).expect("main alive");
            (n, start.elapsed())
        });
        let tid = tid_rx.recv().expect("waiter alive");
        // Keep interrupting until the waiter is out of its wait: a signal
        // that lands before `epoll_wait` is entered interrupts nothing.
        while done_rx.recv_timeout(Duration::from_millis(1)).is_err() {
            // SAFETY: `tid` names a thread that is not joined yet.
            unsafe { pthread_kill(tid, SIGUSR1) };
        }
        let (n, waited) = waiter.join().expect("waiter");
        assert_eq!(n, 0);
        assert!(waited < LONG, "returned on the signal, not the timeout");
    }
}
