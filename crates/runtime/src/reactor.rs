//! The sharded reactor: N nodes multiplexed per worker thread.
//!
//! A small pool of **reactor workers** executes every live node: a node is
//! pinned to the shard `id % workers`, and each worker runs one loop that
//! merges
//!
//! * the worker's **inbox** (a mutex-protected queue of inbound frames,
//!   control messages and transport commands, woken through a pipe),
//! * the **timer heap** — the simulator's `(deadline, insertion-seq)`
//!   discipline, one heap per shard holding every resident node's timers,
//!   the transport's re-dial deadlines *and* what the fault layer defers
//!   (held frames, failed opens across a cut — see [`crate::shim`]),
//! * and **socket readiness** from one `epoll` instance per worker
//!   (hand-rolled FFI — the vendored-deps constraint rules out mio):
//!   non-blocking listeners, inbound frame reassembly and outbound write
//!   flushing all run on the worker that owns the node. A descriptor is
//!   registered once, where it is born — a listener at `AddListener`, an
//!   inbound connection at `accept`, an outbound one when its dial comes
//!   back up, the wake socket when the worker is spawned — and leaves the
//!   set when it is dropped, so a link that carries nothing costs the loop
//!   nothing.
//!
//! The semantics match the simulator's: protocols see
//! `on_start`/`on_message`/`on_timer`/`on_link_down` through
//! [`Context::external`], RNGs derive from `split_mix64(seed, node)`,
//! commands drain into the node's [`Transport`] — `Send` and
//! `OpenConnection` by way of the cluster's fault layer, which is the
//! simulator's own. A [`FrameSink`] (loopback) enqueues into the owning
//! worker's inbox.
//!
//! **Crash isolation:** every protocol callback runs under
//! `catch_unwind`. A panicking node is poisoned — removed from its shard,
//! its transport torn down so peers observe a link-down — while its shard
//! siblings keep running; the panic never takes down the worker.
//!
//! **TCP under the reactor** (see [`crate::tcp`] for the mesh): sockets
//! are owned by the worker loop, never shared. Outbound connects are the
//! one operation std cannot do non-blockingly, so each worker keeps one
//! **dialer thread** that performs blocking `connect_timeout` + handshake
//! serially and posts the result back to the inbox; retry pacing
//! (initial-dial retries, the 50 → 800 ms reconnect backoff) lives on the
//! worker's timer heap, so a slow dial never stalls frame traffic.
//! Backpressure is per-link: frames queue in the link's outbound buffer
//! until the socket drains. Reads are level-triggered and always armed;
//! write interest is switched on only when a flush hits `WouldBlock` and
//! off again when the queue empties, so an idle writable socket never
//! wakes the loop. Protocol-level flow control is the stack's own (BRISA's
//! per-round fan-out), exactly as in the simulator.

use crate::clock::WallClock;
use crate::config::RuntimeConfig;
use crate::report::RuntimeStats;
use crate::shim::{detection_delay, Fate, ShimControl};
use crate::transport::{FrameSink, NetEvent, Transport};
use crate::wire::{frame_len, WireCodec, LEN_PREFIX_BYTES, WIRE_VERSION};
use brisa_simnet::seed::{mix64, split_mix64};
use brisa_simnet::{Command, Context, NodeId, Protocol, TimerTag};
use brisa_telemetry::{Counter, EventKind as TelEventKind, Histo, Telemetry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest a worker parks when it has nothing scheduled.
const IDLE_PARK: Duration = Duration::from_millis(100);

/// Cadence of the idle-link reap sweep (see [`ShardIo::reap_idle`]).
const REAP_INTERVAL: Duration = Duration::from_secs(1);

/// Initial-dial retry budget. Listeners are pre-bound before any node
/// starts, so these retries only cover transient kernel backlog pressure.
const CONNECT_RETRIES: u32 = 20;

/// Pause between initial-dial retries.
const CONNECT_RETRY_DELAY: Duration = Duration::from_millis(25);

/// Re-dial budget for an *established* outbound connection that fails
/// mid-stream. Only after every attempt fails does the failure surface as
/// a link-down.
const RECONNECT_ATTEMPTS: u32 = 5;

/// First re-dial backoff (doubles per attempt) and its ceiling.
const RECONNECT_BASE: Duration = Duration::from_millis(50);
const RECONNECT_CAP: Duration = Duration::from_millis(800);

/// Timeout of one blocking `connect` on the dialer thread.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Work section (everything but the wait) from which a loop iteration is
/// worth a `PollLoop` flight-recorder event.
const SLOW_ITERATION: Duration = Duration::from_millis(1);

/// Goodbye marker: a zero-length frame prefix, outside the codec's valid
/// frame range, written immediately before a *deliberate* close of an
/// idle outbound connection. The receiver flags the connection so the
/// EOF that follows is not surfaced as peer death.
const GOODBYE: [u8; LEN_PREFIX_BYTES] = [0; LEN_PREFIX_BYTES];

/// Token of the worker's own wake socket; connection tokens start above it.
const WAKE_TOKEN: u64 = 0;

/// One ready registration out of [`sys::Readiness::wait`]. Error and
/// hang-up conditions read as both, so whichever handler runs meets the
/// failure on its next socket call.
#[derive(Clone, Copy)]
struct Ready {
    token: u64,
    readable: bool,
    writable: bool,
}

/// Readiness primitives: one `epoll` instance per worker over hand-declared
/// FFI (the vendored-deps constraint rules out mio and libc), plus a
/// socketpair waker. A descriptor is registered once, level-triggered for
/// reads, and leaves the set when it is closed — the reactor never
/// duplicates a socket, so dropping the stream is the deregistration.
#[cfg(target_os = "linux")]
mod sys {
    use super::{Ready, WAKE_TOKEN};
    use std::io::{Read, Write};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::raw::c_int;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_MOD: c_int = 3;

    /// Events fetched per `epoll_wait`; a larger ready set is served over
    /// successive waits (level-triggered, nothing is lost).
    const BATCH: usize = 256;

    /// `struct epoll_event`, kernel ABI layout (packed on x86 only).
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        // `timeout` is in milliseconds.
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    /// A worker's readiness set.
    pub struct Readiness {
        ep: OwnedFd,
        events: Vec<EpollEvent>,
        ready: usize,
    }

    impl Readiness {
        pub fn new() -> std::io::Result<Self> {
            // SAFETY: no pointer arguments; the result is checked below.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Readiness {
                // SAFETY: `fd` is a descriptor this call just opened and
                // nothing else owns.
                ep: unsafe { OwnedFd::from_raw_fd(fd) },
                events: vec![EpollEvent { events: 0, data: 0 }; BATCH],
                ready: 0,
            })
        }

        fn ctl(
            &self,
            op: c_int,
            sock: &impl AsRawFd,
            events: u32,
            token: u64,
        ) -> std::io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a live `epoll_event` for the duration of the
            // call (the kernel copies it); both descriptors are open, being
            // borrowed from their owners.
            let rc = unsafe { epoll_ctl(self.ep.as_raw_fd(), op, sock.as_raw_fd(), &mut ev) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        /// Adds `sock` with read interest; its events carry `token`.
        pub fn register(&mut self, sock: &impl AsRawFd, token: u64) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, sock, EPOLLIN, token)
        }

        /// Switches write interest of a registered `sock` on or off.
        pub fn set_write_interest(
            &mut self,
            sock: &impl AsRawFd,
            token: u64,
            on: bool,
        ) -> std::io::Result<()> {
            let events = if on { EPOLLIN | EPOLLOUT } else { EPOLLIN };
            self.ctl(EPOLL_CTL_MOD, sock, events, token)
        }

        /// Waits until a registration is ready or `timeout` passes (rounded
        /// up to the millisecond, so a loop parked on a deadline wakes once,
        /// after it). Returns how many [`Readiness::event`]s are ready;
        /// zero on timeout or `EINTR`.
        pub fn wait(&mut self, timeout: Duration) -> usize {
            let ms = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
            // SAFETY: `events` holds `BATCH` initialised entries, the
            // capacity passed; the kernel writes at most that many.
            let n = unsafe {
                epoll_wait(
                    self.ep.as_raw_fd(),
                    self.events.as_mut_ptr(),
                    BATCH as c_int,
                    ms,
                )
            };
            self.ready = n.max(0) as usize;
            self.ready
        }

        /// The `i`-th ready registration of the last [`Readiness::wait`].
        pub fn event(&self, i: usize) -> Ready {
            let EpollEvent { events, data } = self.events[..self.ready][i];
            Ready {
                token: data,
                readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            }
        }
    }

    /// The sending half of a worker's wake socket. One byte is in flight at
    /// most (`pending` collapses a burst of wakes into one write).
    pub struct Waker {
        tx: UnixStream,
        pending: Arc<AtomicBool>,
    }

    /// The worker-side half, registered under [`WAKE_TOKEN`].
    pub struct WakeRx {
        rx: UnixStream,
        pending: Arc<AtomicBool>,
    }

    pub fn wake_pair() -> std::io::Result<(Waker, WakeRx)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let pending = Arc::new(AtomicBool::new(false));
        Ok((
            Waker {
                tx,
                pending: Arc::clone(&pending),
            },
            WakeRx { rx, pending },
        ))
    }

    impl Waker {
        pub fn wake(&self) {
            if !self.pending.swap(true, Ordering::SeqCst) {
                let _ = (&self.tx).write(&[1u8]);
            }
        }
    }

    impl WakeRx {
        pub fn register(&self, ready: &mut Readiness) -> std::io::Result<()> {
            ready.register(&self.rx, WAKE_TOKEN)
        }

        /// Empties the socket, then clears the pending flag, and the caller
        /// swaps the queue after both. A wake racing the drain is never
        /// lost: its message is already queued (push precedes wake), and it
        /// either found the flag still set and wrote nothing, or set it
        /// after the clear and leaves a fresh byte for the next wait.
        /// Clearing first would let the read swallow that byte with the
        /// flag left set, silencing every later wake until the next drain.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
            self.pending.store(false, Ordering::SeqCst);
        }
    }
}

/// Degraded portability mode for targets without `epoll`: a 1 ms tick that
/// reports every token ever registered ready both ways. Handlers are
/// non-blocking and tolerate spurious readiness, and a token whose
/// connection is gone falls through the worker's lookups.
#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Ready;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Default)]
    pub struct Readiness {
        tokens: Vec<u64>,
    }

    impl Readiness {
        pub fn new() -> std::io::Result<Self> {
            Ok(Self::default())
        }
        pub fn register<S>(&mut self, _sock: &S, token: u64) -> std::io::Result<()> {
            self.tokens.push(token);
            Ok(())
        }
        pub fn set_write_interest<S>(&mut self, _: &S, _: u64, _: bool) -> std::io::Result<()> {
            Ok(())
        }
        pub fn wait(&mut self, timeout: Duration) -> usize {
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
            self.tokens.len()
        }
        pub fn event(&self, i: usize) -> Ready {
            Ready {
                token: self.tokens[i],
                readable: true,
                writable: true,
            }
        }
    }

    pub struct Waker {
        pending: Arc<AtomicBool>,
    }
    pub struct WakeRx {
        pending: Arc<AtomicBool>,
    }

    pub fn wake_pair() -> std::io::Result<(Waker, WakeRx)> {
        let pending = Arc::new(AtomicBool::new(false));
        Ok((
            Waker {
                pending: Arc::clone(&pending),
            },
            WakeRx { pending },
        ))
    }

    impl Waker {
        pub fn wake(&self) {
            self.pending.store(true, Ordering::SeqCst);
        }
    }
    impl WakeRx {
        /// The inbox is drained every tick; nothing to wait on.
        pub fn register(&self, _ready: &mut Readiness) -> std::io::Result<()> {
            Ok(())
        }
        pub fn drain(&self) {
            self.pending.store(false, Ordering::SeqCst);
        }
    }
}

/// Transport-side commands executed on the owning worker's loop. Pushed by
/// [`ReactorTcpTransport`] handles and by the dialer thread.
pub(crate) enum IoCmd {
    /// Register `node`'s pre-bound listener with its shard.
    AddListener {
        /// The owning node.
        node: NodeId,
        /// Its listener (made non-blocking by the worker).
        listener: TcpListener,
        /// The mesh's advertised addresses, for dialing peers.
        addrs: Arc<Vec<SocketAddr>>,
    },
    /// Queue a frame on the `from → to` outbound link.
    Send {
        from: NodeId,
        to: NodeId,
        frame: Vec<u8>,
    },
    /// Register failure-detection interest in `peer` and ensure a dial.
    Open { from: NodeId, peer: NodeId },
    /// Withdraw failure-detection interest.
    Close { from: NodeId, peer: NodeId },
    /// Tear down every socket `node` owns (kill/shutdown path); peers
    /// observe EOF and surface link-downs on their own shards.
    CloseNode { node: NodeId },
    /// A dial finished on the dialer thread; `stream` is handshaken and
    /// non-blocking on success.
    Dialed {
        owner: NodeId,
        peer: NodeId,
        gen: u64,
        stream: Option<TcpStream>,
    },
}

/// One dial request consumed by the worker's dialer thread.
struct DialReq {
    owner: NodeId,
    peer: NodeId,
    addr: SocketAddr,
    gen: u64,
}

/// A boxed protocol callback queued through [`ReactorPool::invoke`].
type InvokeFn<P> = Box<dyn FnOnce(&mut P, &mut Context<'_, <P as Protocol>::Message>) + Send>;

/// Messages consumed by a reactor worker.
enum WorkerMsg<P: Protocol> {
    /// Start executing `proto` as `id` on this shard (fires `on_start`).
    Start {
        id: NodeId,
        proto: P,
        seed: u64,
        transport: Box<dyn Transport>,
    },
    /// An inbound transport event for `id`.
    Net { id: NodeId, event: NetEvent },
    /// Run a closure against `id`'s protocol on its shard.
    Invoke { id: NodeId, f: InvokeFn<P> },
    /// Stop `id`: tear down its transport and reply with its final state,
    /// or `None` if the node is unknown or was poisoned by a panic.
    Stop {
        id: NodeId,
        reply: mpsc::Sender<Option<(P, RuntimeStats)>>,
    },
    /// A transport-side command.
    Io(IoCmd),
    /// Stop every remaining node and exit the worker loop.
    Shutdown,
}

/// A worker's inbox: the queue plus its waker. Shared by every producer
/// targeting the shard (sinks, transport handles, the dialer, the pool).
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

/// Object-safe face of an [`Inbox`] for the non-generic TCP machinery.
pub(crate) trait IoPush: Send + Sync {
    fn push_io(&self, cmd: IoCmd);
}

impl<P: Protocol + Send + 'static> IoPush for Inbox<P> {
    fn push_io(&self, cmd: IoCmd) {
        self.push(WorkerMsg::Io(cmd));
    }
}

/// The [`FrameSink`] a transport delivers into: enqueues onto the owning
/// shard's inbox. Per-source FIFO holds because each producer pushes in
/// send order and the queue preserves it.
struct ReactorSink<P: Protocol> {
    id: NodeId,
    inbox: Arc<Inbox<P>>,
}

impl<P: Protocol + Send + 'static> FrameSink for ReactorSink<P> {
    fn deliver(&mut self, event: NetEvent) -> bool {
        self.inbox.push(WorkerMsg::Net { id: self.id, event });
        true
    }
}

/// One node's [`Transport`] handle onto its shard's socket engine. All
/// methods enqueue `IoCmd`s; the worker loop owns the actual sockets.
pub struct ReactorTcpTransport {
    me: NodeId,
    io: Arc<dyn IoPush>,
}

impl Transport for ReactorTcpTransport {
    fn send(&mut self, to: NodeId, frame: Vec<u8>) {
        self.io.push_io(IoCmd::Send {
            from: self.me,
            to,
            frame,
        });
    }

    fn open_connection(&mut self, peer: NodeId) {
        self.io.push_io(IoCmd::Open {
            from: self.me,
            peer,
        });
    }

    fn close_connection(&mut self, peer: NodeId) {
        self.io.push_io(IoCmd::Close {
            from: self.me,
            peer,
        });
    }

    fn shutdown(&mut self) {
        self.io.push_io(IoCmd::CloseNode { node: self.me });
    }
}

/// What a timer deadline triggers when it fires.
enum TimerKind {
    /// A protocol timer of a resident node.
    Proto { node: u32, tag: TimerTag },
    /// A scheduled re-dial of the `owner → peer` outbound link.
    Redial { owner: u32, peer: u32 },
    /// A frame the fault layer held back (jitter, or a `Delay` cut until
    /// its heal), released to `from`'s transport.
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

/// One resident node: protocol state, RNG, stats and its transport.
struct NodeSlot<P: Protocol> {
    id: NodeId,
    proto: P,
    rng: SmallRng,
    stats: RuntimeStats,
    transport: Box<dyn Transport>,
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
    /// This shard's index in the pool (flight-recorder shard pinning).
    shard: usize,
    /// Observability handles; the handle itself is also exposed to every
    /// protocol callback through the dispatch context.
    rtel: ReactorTel,
}

impl<P> ProtoCore<P>
where
    P: Protocol,
    P::Message: WireCodec,
{
    fn new(shim: ShimControl, shard: usize, telemetry: &Telemetry) -> Self {
        ProtoCore {
            shim,
            nodes: HashMap::new(),
            poisoned: BTreeSet::new(),
            timers: Timers::default(),
            commands: Vec::new(),
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
    /// from the shard and its transport torn down (peers see a link-down),
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
                        Fate::Pass => slot.transport.send(to, frame),
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
                Command::OpenConnection { peer } => slot.transport.open_connection(peer),
                Command::CloseConnection { peer } => slot.transport.close_connection(peer),
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
    /// node has no report), its transport shut down so peers detect the
    /// failure exactly as they would a kill.
    fn poison(&mut self, id: u32) {
        if let Some(mut slot) = self.nodes.remove(&id) {
            self.purge_timers(id);
            self.rtel.node_panics.inc();
            self.tel_event(id, TelEventKind::NodePanic, 0, 0);
            self.poisoned.insert(id);
            // The transport teardown itself is best-effort on this path.
            let _ = catch_unwind(AssertUnwindSafe(|| slot.transport.shutdown()));
        }
    }

    fn on_net(&mut self, id: u32, event: NetEvent) {
        match event {
            NetEvent::Frame { from, frame } => {
                let Some(slot) = self.nodes.get_mut(&id) else {
                    return;
                };
                match P::Message::decode(&frame) {
                    Ok(msg) => {
                        slot.stats.frames_in += 1;
                        slot.stats.bytes_in += frame.len() as u64;
                        self.rtel.frames_in.inc();
                        self.dispatch(id, move |p, ctx| p.on_message(ctx, from, msg));
                    }
                    Err(_) => slot.stats.decode_errors += 1,
                }
            }
            NetEvent::LinkDown { peer } => {
                self.dispatch(id, move |p, ctx| p.on_link_down(ctx, peer));
            }
        }
    }

    fn start_node(&mut self, id: NodeId, proto: P, seed: u64, transport: Box<dyn Transport>) {
        let rng = SmallRng::seed_from_u64(split_mix64(seed, id.0 as u64));
        self.nodes.insert(
            id.0,
            NodeSlot {
                id,
                proto,
                rng,
                stats: RuntimeStats::default(),
                transport,
                held: HashMap::new(),
            },
        );
        // A restart under the same identifier clears the old poison.
        self.poisoned.remove(&id.0);
        self.dispatch(id.0, |p, ctx| p.on_start(ctx));
    }

    fn stop_node(&mut self, id: u32) -> Option<(P, RuntimeStats)> {
        let mut slot = self.nodes.remove(&id)?;
        self.purge_timers(id);
        slot.transport.shutdown();
        Some((slot.proto, slot.stats))
    }

    /// Fires every due deadline; returns due re-dial links for the I/O
    /// engine (which lives outside this struct).
    fn fire_due_timers(&mut self, redials: &mut Vec<(u32, u32)>) {
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
                TimerKind::Redial { owner, peer } => redials.push((owner, peer)),
                TimerKind::Held { from, to, frame } => {
                    if let Some(slot) = self.nodes.get_mut(&from) {
                        if let Some((_, parked)) = slot.held.get_mut(&to.0) {
                            *parked -= 1;
                        }
                        slot.held.retain(|_, (_, parked)| *parked > 0);
                        slot.transport.send(to, frame);
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

/// State of one `owner → peer` outbound link.
enum OutState {
    /// A dial is in flight on the dialer thread.
    Dialing,
    /// A re-dial is scheduled on the timer heap.
    Backoff,
    /// Connected; frames flush through the non-blocking stream.
    Up(OutConn),
}

/// An established outbound connection and its place in the readiness set.
struct OutConn {
    stream: TcpStream,
    /// Its registration's token, the key of [`ShardIo::out_tokens`].
    token: u64,
    /// Whether write interest is currently on (a flush hit `WouldBlock`).
    write_armed: bool,
}

/// One outbound link: its connection state machine and write queue. The
/// queue is the backpressure point — a slow or re-dialing peer accumulates
/// frames here (never blocking the shard), and they flush in order once
/// the socket drains.
struct OutLink {
    state: OutState,
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue.front()` already written on the current connection.
    offset: usize,
    /// Dials failed since the link was last up.
    attempts: u32,
    /// Whether the link ever connected (selects the initial-dial vs the
    /// reconnect retry schedule).
    established: bool,
    /// Current dial generation; a stale `Dialed` result is discarded.
    gen: u64,
    /// Last moment the link carried (or was asked to carry) traffic; the
    /// reap sweep closes unmonitored links idle past
    /// `RuntimeConfig::idle_link_timeout`.
    last_used: Instant,
}

/// One inbound connection: handshake, then length-prefixed frames.
struct InConn {
    owner: u32,
    stream: TcpStream,
    from: Option<NodeId>,
    buf: Vec<u8>,
    /// A goodbye marker arrived: the peer is closing this connection
    /// deliberately (idle reap), so the EOF that follows is not peer death.
    deliberate: bool,
}

/// The socket engine of one shard. Empty (and cost-free) on loopback-only
/// clusters.
struct ShardIo {
    /// The readiness set every socket below is registered with.
    ready: sys::Readiness,
    addrs: Option<Arc<Vec<SocketAddr>>>,
    /// Listeners with their owner, non-blocking, keyed by token.
    listeners: HashMap<u64, (u32, TcpListener)>,
    /// Inbound connections, keyed by token.
    inconns: HashMap<u64, InConn>,
    /// Next registration token. One counter serves listeners, inbound and
    /// outbound connections and never hands a value out twice, so an event
    /// can only ever name the connection it was registered for: once that
    /// is gone the token is in none of the three maps.
    next_token: u64,
    outlinks: HashMap<(u32, u32), OutLink>,
    /// Token → link of every outbound connection that is `Up`.
    out_tokens: HashMap<u64, (u32, u32)>,
    /// `monitored[owner]` = peers under failure-detection interest; an
    /// entry is consumed when its link-down fires (at most one
    /// notification per `open_connection`, the transport contract).
    monitored: HashMap<u32, BTreeSet<u32>>,
    dial_tx: mpsc::Sender<DialReq>,
    dial_gen: u64,
}

impl ShardIo {
    fn new(ready: sys::Readiness, dial_tx: mpsc::Sender<DialReq>) -> Self {
        ShardIo {
            ready,
            addrs: None,
            listeners: HashMap::new(),
            inconns: HashMap::new(),
            next_token: WAKE_TOKEN + 1,
            outlinks: HashMap::new(),
            out_tokens: HashMap::new(),
            monitored: HashMap::new(),
            dial_tx,
            dial_gen: 0,
        }
    }

    /// Descriptors in the readiness set: the wake socket, listeners,
    /// inbound connections and outbound connections that are up.
    fn registered(&self) -> u64 {
        (1 + self.listeners.len() + self.inconns.len() + self.out_tokens.len()) as u64
    }

    /// Forgets the `owner → peer` link: its queue, and its connection if
    /// it had one.
    fn remove_link(&mut self, owner: u32, peer: u32) {
        if let Some(link) = self.outlinks.remove(&(owner, peer)) {
            if let OutState::Up(conn) = link.state {
                self.out_tokens.remove(&conn.token);
            }
        }
    }

    /// Consumes the monitored entry and surfaces the link-down to the
    /// owner's protocol.
    fn link_down<P>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: NodeId)
    where
        P: Protocol,
        P::Message: WireCodec,
    {
        let fired = self
            .monitored
            .get_mut(&owner)
            .is_some_and(|set| set.remove(&peer.0));
        if fired {
            core.on_net(owner, NetEvent::LinkDown { peer });
        }
    }

    fn request_dial(&mut self, owner: u32, peer: u32) -> u64 {
        self.dial_gen += 1;
        let gen = self.dial_gen;
        let addr = self
            .addrs
            .as_ref()
            .expect("TCP transport used before any listener was added")[peer as usize];
        let _ = self.dial_tx.send(DialReq {
            owner: NodeId(owner),
            peer: NodeId(peer),
            addr,
            gen,
        });
        gen
    }

    /// Ensures an outbound link exists, dialing if fresh.
    fn ensure_link<P>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32)
    where
        P: Protocol,
        P::Message: WireCodec,
    {
        if self.outlinks.contains_key(&(owner, peer)) {
            return;
        }
        core.tel_event(owner, TelEventKind::Dial, peer as u64, 0);
        let gen = self.request_dial(owner, peer);
        self.outlinks.insert(
            (owner, peer),
            OutLink {
                state: OutState::Dialing,
                queue: VecDeque::new(),
                offset: 0,
                attempts: 0,
                established: false,
                gen,
                last_used: Instant::now(),
            },
        );
    }

    /// The link failed past its retry budget: drop it (with its queue) and
    /// surface the failure. A later send re-creates it with a fresh budget,
    /// like the old transport's fresh-writer re-dial.
    fn fail_link<P>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32)
    where
        P: Protocol,
        P::Message: WireCodec,
    {
        self.remove_link(owner, peer);
        core.tel_event(owner, TelEventKind::LinkDown, peer as u64, 0);
        self.link_down(core, owner, NodeId(peer));
    }

    /// Flushes the link's queue onto its non-blocking stream. On a write
    /// error the connection is retired and a re-dial scheduled; the
    /// in-progress frame is kept for a full resend (the receiver discards
    /// the broken connection's partial frame with the connection).
    fn flush_link<P>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32)
    where
        P: Protocol,
        P::Message: WireCodec,
    {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
        let OutState::Up(conn) = &mut link.state else {
            return;
        };
        // Whether the socket filled up before the queue drained.
        let backlog = 'flush: loop {
            let Some(front) = link.queue.front() else {
                break false;
            };
            while link.offset < front.len() {
                match conn.stream.write(&front[link.offset..]) {
                    Ok(0) => {
                        self.retire_connection(core, owner, peer);
                        return;
                    }
                    Ok(n) => link.offset += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break 'flush true,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.retire_connection(core, owner, peer);
                        return;
                    }
                }
            }
            link.queue.pop_front();
            link.offset = 0;
        };
        // Write interest follows the backlog: on while bytes wait for the
        // socket to drain, off otherwise.
        if conn.write_armed != backlog {
            conn.write_armed = backlog;
            let switched = self
                .ready
                .set_write_interest(&conn.stream, conn.token, backlog);
            if switched.is_err() {
                self.retire_connection(core, owner, peer);
            }
        }
    }

    /// A mid-stream write failure: drop the connection and enter the
    /// bounded backoff re-dial cycle before surfacing anything.
    fn retire_connection<P>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32)
    where
        P: Protocol,
        P::Message: WireCodec,
    {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
        if let OutState::Up(conn) = std::mem::replace(&mut link.state, OutState::Backoff) {
            self.out_tokens.remove(&conn.token);
        }
        link.offset = 0;
        link.attempts = 0;
        let delay = redial_delay(link, owner, peer);
        core.timers
            .push(Instant::now() + delay, TimerKind::Redial { owner, peer });
    }

    /// A scheduled re-dial deadline fired. Returns whether a dial was
    /// actually issued (the link may have been closed or replaced while
    /// the deadline was pending).
    fn redial(&mut self, owner: u32, peer: u32) -> bool {
        let in_backoff = matches!(
            self.outlinks.get(&(owner, peer)),
            Some(link) if matches!(link.state, OutState::Backoff)
        );
        if in_backoff {
            let gen = self.request_dial(owner, peer);
            let link = self
                .outlinks
                .get_mut(&(owner, peer))
                .expect("checked above");
            link.state = OutState::Dialing;
            link.gen = gen;
        }
        in_backoff
    }

    /// A dial result arrived from the dialer thread.
    fn dialed<P>(
        &mut self,
        core: &mut ProtoCore<P>,
        owner: u32,
        peer: u32,
        gen: u64,
        stream: Option<TcpStream>,
    ) where
        P: Protocol,
        P::Message: WireCodec,
    {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return; // Link was closed while the dial was in flight.
        };
        if link.gen != gen || !matches!(link.state, OutState::Dialing) {
            return; // Stale dial of a replaced connection.
        }
        // A connection the readiness set refuses is a failed dial.
        let conn = stream.and_then(|stream| {
            let token = self.next_token;
            self.next_token += 1;
            self.ready.register(&stream, token).ok()?;
            Some(OutConn {
                stream,
                token,
                write_armed: false,
            })
        });
        match conn {
            Some(conn) => {
                self.out_tokens.insert(conn.token, (owner, peer));
                link.state = OutState::Up(conn);
                link.established = true;
                link.attempts = 0;
                link.offset = 0;
                link.last_used = Instant::now();
                core.tel_event(owner, TelEventKind::LinkUp, peer as u64, 0);
                self.flush_link(core, owner, peer);
            }
            None => {
                link.attempts += 1;
                core.tel_event(
                    owner,
                    TelEventKind::DialFailed,
                    peer as u64,
                    link.attempts as u64,
                );
                let budget = if link.established {
                    RECONNECT_ATTEMPTS
                } else {
                    CONNECT_RETRIES
                };
                if link.attempts >= budget {
                    self.fail_link(core, owner, peer);
                } else {
                    link.state = OutState::Backoff;
                    let delay = redial_delay(link, owner, peer);
                    core.timers
                        .push(Instant::now() + delay, TimerKind::Redial { owner, peer });
                }
            }
        }
    }

    /// Executes one transport command on this shard.
    fn handle_cmd<P>(&mut self, core: &mut ProtoCore<P>, cmd: IoCmd)
    where
        P: Protocol,
        P::Message: WireCodec,
    {
        match cmd {
            IoCmd::AddListener {
                node,
                listener,
                addrs,
            } => {
                let _ = listener.set_nonblocking(true);
                self.addrs.get_or_insert(addrs);
                let token = self.next_token;
                self.next_token += 1;
                // A listener the readiness set refuses is dropped: dials to
                // it are refused, which peers treat as any dead node.
                if self.ready.register(&listener, token).is_ok() {
                    self.listeners.insert(token, (node.0, listener));
                }
            }
            IoCmd::Send { from, to, frame } => {
                self.ensure_link(core, from.0, to.0);
                let link = self.outlinks.get_mut(&(from.0, to.0)).expect("ensured");
                // A frame landing behind an already-backlogged queue is a
                // backpressure stall: the link is slower than its producer.
                if !link.queue.is_empty() {
                    core.rtel.backpressure_stalls.inc();
                    core.tel_event(
                        from.0,
                        TelEventKind::BackpressureStall,
                        to.0 as u64,
                        link.queue.len() as u64 + 1,
                    );
                }
                link.queue.push_back(frame);
                link.last_used = Instant::now();
                self.flush_link(core, from.0, to.0);
            }
            IoCmd::Open { from, peer } => {
                self.monitored.entry(from.0).or_default().insert(peer.0);
                // Eagerly dial so a dead peer is detected without waiting
                // for traffic.
                self.ensure_link(core, from.0, peer.0);
            }
            IoCmd::Close { from, peer } => {
                if let Some(set) = self.monitored.get_mut(&from.0) {
                    set.remove(&peer.0);
                }
            }
            IoCmd::CloseNode { node } => {
                self.listeners.retain(|_, (owner, _)| *owner != node.0);
                self.inconns.retain(|_, c| c.owner != node.0);
                self.outlinks.retain(|(owner, _), _| *owner != node.0);
                self.out_tokens.retain(|_, (owner, _)| *owner != node.0);
                self.monitored.remove(&node.0);
            }
            IoCmd::Dialed {
                owner,
                peer,
                gen,
                stream,
            } => self.dialed(core, owner.0, peer.0, gen, stream),
        }
    }

    /// Accepts every pending inbound connection on the listener
    /// registered as `listener`.
    fn accept_ready(&mut self, listener: u64) {
        loop {
            let Some((owner, sock)) = self.listeners.get(&listener) else {
                return;
            };
            match sock.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    // Refused by the readiness set: drop it, the dialer
                    // sees a reset and re-dials like any broken link.
                    if self.ready.register(&stream, token).is_err() {
                        continue;
                    }
                    self.inconns.insert(
                        token,
                        InConn {
                            owner: *owner,
                            stream,
                            from: None,
                            buf: Vec::new(),
                            deliberate: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Drains a readable inbound connection: handshake, then frame
    /// reassembly, dispatching complete frames straight into the owner's
    /// protocol (same thread — the owner lives on this shard).
    fn read_inconn<P>(
        &mut self,
        core: &mut ProtoCore<P>,
        scratch: &mut [u8],
        token: u64,
    ) -> Result<(), ()>
    where
        P: Protocol,
        P::Message: WireCodec,
    {
        let Some(mut conn) = self.inconns.get_mut(&token) else {
            return Ok(());
        };
        let mut closed = false;
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&scratch[..n]);
                    // A short read emptied the socket: asking again only
                    // buys an `EAGAIN`. Reads are level-triggered, so
                    // whatever lands next (EOF included) is reported anew.
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        // Handshake: 5 bytes naming the peer (version, u32 LE id).
        if conn.from.is_none() && conn.buf.len() >= 5 {
            if conn.buf[0] != WIRE_VERSION {
                return self.drop_inconn(core, token);
            }
            let from = u32::from_le_bytes([conn.buf[1], conn.buf[2], conn.buf[3], conn.buf[4]]);
            conn.from = Some(NodeId(from));
            conn.buf.drain(..5);
        }
        // Frame reassembly: u32 LE length prefix, then the body.
        while conn.from.is_some() {
            if conn.buf.starts_with(&GOODBYE) {
                // Goodbye marker: the peer is reaping this idle connection
                // (see `reap_idle`); the EOF that follows is deliberate.
                conn.deliberate = true;
                conn.buf.drain(..LEN_PREFIX_BYTES);
                continue;
            }
            let total = match frame_len(&conn.buf) {
                Ok(Some(total)) if conn.buf.len() >= total => total,
                Ok(_) => break,
                // Corrupt stream: treat like a broken connection.
                Err(_) => return self.drop_inconn(core, token),
            };
            let frame: Vec<u8> = conn.buf[..total].to_vec();
            conn.buf.drain(..total);
            let owner = conn.owner;
            let from = conn.from.expect("handshaken");
            core.on_net(owner, NetEvent::Frame { from, frame });
            // The dispatch may have poisoned/changed the map; re-borrow.
            let Some(c) = self.inconns.get_mut(&token) else {
                return Ok(());
            };
            conn = c;
        }
        if closed {
            return self.drop_inconn(core, token);
        }
        Ok(())
    }

    /// Removes an inbound connection, surfacing the peer-death signal if
    /// the identified peer is monitored by the owner.
    fn drop_inconn<P>(&mut self, core: &mut ProtoCore<P>, token: u64) -> Result<(), ()>
    where
        P: Protocol,
        P::Message: WireCodec,
    {
        if let Some(conn) = self.inconns.remove(&token) {
            if let Some(from) = conn.from {
                if !conn.deliberate {
                    self.link_down(core, conn.owner, from);
                }
            }
        }
        Err(())
    }

    /// A readable outbound connection: the peer never writes on this
    /// direction, so readiness means EOF/reset — the peer-close watcher of
    /// the old transport, without the thread.
    fn check_out_eof<P>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32)
    where
        P: Protocol,
        P::Message: WireCodec,
    {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
        let OutState::Up(conn) = &mut link.state else {
            return;
        };
        let mut probe = [0u8; 32];
        loop {
            match conn.stream.read(&mut probe) {
                Ok(0) => {
                    // Peer closed its end: drop the link; the next send (or
                    // a protocol-level re-open) dials fresh.
                    self.remove_link(owner, peer);
                    self.link_down(core, owner, NodeId(peer));
                    return;
                }
                // Unexpected chatter on a write-only direction: ignore it
                // and keep the connection.
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.remove_link(owner, peer);
                    self.link_down(core, owner, NodeId(peer));
                    return;
                }
            }
        }
    }

    /// Closes unmonitored outbound links idle past `cfg.idle_link_timeout`.
    ///
    /// This is fd hygiene, and at in-process cluster scale it is load-
    /// bearing: every send to a fresh peer opens a connection (four fds per
    /// symmetric pair, both endpoints living in this process), and overlay
    /// maintenance traffic — shuffles, random walks — targets a different
    /// peer almost every time. Without reaping, a 1000-node cluster walks
    /// straight into the process fd ceiling during bootstrap and the nodes
    /// past the cliff starve forever. Links under `open_connection`
    /// monitoring are never reaped (their EOF watch *is* the failure
    /// detector); everything else closes after the idle window, announced
    /// with a [`GOODBYE`] marker so the receiver does not mistake the
    /// deliberate close for peer death. A later send simply re-dials.
    fn reap_idle<P>(&mut self, core: &mut ProtoCore<P>, cfg: &RuntimeConfig, now: Instant)
    where
        P: Protocol,
        P::Message: WireCodec,
    {
        debug_assert_eq!(
            self.out_tokens.len(),
            self.outlinks
                .values()
                .filter(|link| matches!(link.state, OutState::Up(_)))
                .count(),
            "every link that is up, and nothing else, holds a token"
        );
        if self.outlinks.is_empty() {
            return;
        }
        let mut reap: Vec<(u32, u32)> = Vec::new();
        for (&(owner, peer), link) in &self.outlinks {
            let monitored = self
                .monitored
                .get(&owner)
                .is_some_and(|set| set.contains(&peer));
            if matches!(link.state, OutState::Up(_))
                && !monitored
                && link.queue.is_empty()
                && link.offset == 0
                && now.duration_since(link.last_used) >= cfg.idle_link_timeout
            {
                reap.push((owner, peer));
            }
        }
        for (owner, peer) in reap {
            let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
                continue;
            };
            let OutState::Up(conn) = &mut link.state else {
                continue;
            };
            match conn.stream.write(&GOODBYE) {
                // Socket buffer full on an idle link (peer not reading its
                // flushed tail): retry at the next sweep rather than close
                // unannounced.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Marker written (or the connection is already dead, in
                // which case the close changes nothing): drop the link.
                _ => {
                    self.remove_link(owner, peer);
                    if let Some(slot) = core.nodes.get_mut(&owner) {
                        slot.stats.links_reaped += 1;
                    }
                    core.rtel.links_reaped.inc();
                    core.tel_event(owner, TelEventKind::LinkReap, peer as u64, 0);
                }
            }
        }
    }

    /// Serves one ready registration. A token whose connection was dropped
    /// earlier in the same batch is in none of the maps and falls through.
    fn on_ready<P>(&mut self, core: &mut ProtoCore<P>, scratch: &mut [u8], ev: Ready)
    where
        P: Protocol,
        P::Message: WireCodec,
    {
        if self.inconns.contains_key(&ev.token) {
            if ev.readable {
                let _ = self.read_inconn(core, scratch, ev.token);
            }
        } else if let Some(&(owner, peer)) = self.out_tokens.get(&ev.token) {
            if ev.readable {
                self.check_out_eof(core, owner, peer);
            }
            if ev.writable {
                self.flush_link(core, owner, peer);
            }
        } else if ev.readable {
            // A listener, or the wake socket (drained at the top of the
            // loop), or nothing any more.
            self.accept_ready(ev.token);
        }
    }

    /// Census of the outbound write queues: `(queued frames, links with a
    /// non-empty queue)`. Observability only.
    fn write_queue_census(&self) -> (u64, u64) {
        let mut frames = 0u64;
        let mut links = 0u64;
        for link in self.outlinks.values() {
            if !link.queue.is_empty() {
                links += 1;
                frames += link.queue.len() as u64;
            }
        }
        (frames, links)
    }
}

/// The exponential re-dial backoff before attempt `attempt` (0-based):
/// [`RECONNECT_BASE`]` * 2^attempt`, capped at [`RECONNECT_CAP`].
fn reconnect_backoff(attempt: u32) -> Duration {
    RECONNECT_BASE
        .saturating_mul(1u32 << attempt.min(16))
        .min(RECONNECT_CAP)
}

/// Deterministic per-link re-dial delay: the fixed initial-dial pause, or
/// the reconnect backoff plus jitter derived from the node pair and attempt
/// number, so a mass outage de-synchronizes without an RNG.
fn redial_delay(link: &OutLink, owner: u32, peer: u32) -> Duration {
    if !link.established {
        return CONNECT_RETRY_DELAY;
    }
    let backoff = reconnect_backoff(link.attempts);
    let jitter_seed =
        mix64(((owner as u64) << 32 | peer as u64).wrapping_add(link.attempts as u64));
    let jitter = Duration::from_micros(jitter_seed % (backoff.as_micros() as u64 / 2).max(1));
    backoff + jitter
}

/// The worker loop: drain inbox → fire timers → wait for readiness →
/// handle. `io` arrives with the wake socket already registered.
fn worker_main<P>(
    idx: usize,
    inbox: Arc<Inbox<P>>,
    wake: sys::WakeRx,
    mut io: ShardIo,
    shim: ShimControl,
    cfg: RuntimeConfig,
    telemetry: Telemetry,
) where
    P: Protocol + Send + 'static,
    P::Message: WireCodec,
{
    let mut core: ProtoCore<P> = ProtoCore::new(shim, idx, &telemetry);
    let mut scratch = vec![0u8; 64 * 1024];
    let mut batch: VecDeque<WorkerMsg<P>> = VecDeque::new();
    let mut redials: Vec<(u32, u32)> = Vec::new();
    let mut last_reap = Instant::now();
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
        // next wait.
        wake.drain();
        std::mem::swap(&mut batch, &mut *inbox.queue.lock().unwrap());
        let drained = batch.len() as u64;
        for msg in batch.drain(..) {
            match msg {
                WorkerMsg::Start {
                    id,
                    proto,
                    seed,
                    transport,
                } => core.start_node(id, proto, seed, transport),
                WorkerMsg::Net { id, event } => core.on_net(id.0, event),
                WorkerMsg::Invoke { id, f } => core.dispatch(id.0, f),
                WorkerMsg::Stop { id, reply } => {
                    let _ = reply.send(core.stop_node(id.0));
                }
                WorkerMsg::Io(cmd) => io.handle_cmd(&mut core, cmd),
                WorkerMsg::Shutdown => {
                    running = false;
                }
            }
        }
        if !running {
            break;
        }

        // 2. Fire due timers (protocol + re-dial deadlines, one heap), and
        // sweep idle unmonitored links about once a second — `next_timeout`
        // is capped at `IDLE_PARK`, so the sweep runs even when parked.
        redials.clear();
        core.fire_due_timers(&mut redials);
        for &(owner, peer) in &redials {
            if io.redial(owner, peer) {
                if let Some(slot) = core.nodes.get_mut(&owner) {
                    slot.stats.redials += 1;
                }
                core.rtel.redials.inc();
                core.tel_event(owner, TelEventKind::Redial, peer as u64, 0);
            }
        }
        let now = Instant::now();
        if now.duration_since(last_reap) >= REAP_INTERVAL {
            last_reap = now;
            io.reap_idle(&mut core, &cfg, now);
            // Write-queue census at the same cadence: cheap, and depth
            // spikes outlive a single iteration anyway.
            if tel_enabled {
                let (frames, links) = io.write_queue_census();
                core.tel_event(idx as u32, TelEventKind::WriteQueueDepth, frames, links);
                g_nodes.set(core.nodes.len() as u64);
            }
        }

        // 3. Wait for readiness or the next timer. Nothing is built here:
        // the set was maintained where sockets were born and dropped.
        if let Some(start) = iter_start {
            g_fds.set(io.registered());
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
        let ready = io.ready.wait(core.next_timeout());

        // 4. Handle readiness.
        for i in 0..ready {
            let ev = io.ready.event(i);
            io.on_ready(&mut core, &mut scratch, ev);
        }
    }

    // Shutdown: stop every remaining node (transports tear down; loopback
    // peers are notified), then drop the I/O state, closing every socket
    // and listener this shard owns.
    let ids: Vec<u32> = core.nodes.keys().copied().collect();
    for id in ids {
        let _ = core.stop_node(id);
    }
    drop(io);
}

/// The dialer thread: the one blocking socket operation (connect +
/// handshake write), serialized per shard, results posted to the inbox.
fn dialer_main(rx: mpsc::Receiver<DialReq>, io: Arc<dyn IoPush>) {
    while let Ok(req) = rx.recv() {
        let stream = TcpStream::connect_timeout(&req.addr, CONNECT_TIMEOUT)
            .ok()
            .and_then(|mut s| {
                s.set_nodelay(true).ok();
                let mut hello = [0u8; 5];
                hello[0] = WIRE_VERSION;
                hello[1..5].copy_from_slice(&req.owner.0.to_le_bytes());
                s.write_all(&hello).ok()?;
                s.set_nonblocking(true).ok()?;
                Some(s)
            });
        io.push_io(IoCmd::Dialed {
            owner: req.owner,
            peer: req.peer,
            gen: req.gen,
            stream,
        });
    }
}

/// One shard's handles, owned by the pool.
struct WorkerHandle<P: Protocol> {
    inbox: Arc<Inbox<P>>,
    dial_tx: Option<mpsc::Sender<DialReq>>,
    thread: Option<JoinHandle<()>>,
    dialer: Option<JoinHandle<()>>,
}

/// The reactor: a fixed pool of worker threads, each multiplexing the
/// nodes of its shard. Create one per cluster.
pub struct ReactorPool<P: Protocol> {
    workers: Vec<WorkerHandle<P>>,
    shim: ShimControl,
}

impl<P> ReactorPool<P>
where
    P: Protocol + Send + 'static,
    P::Message: WireCodec,
{
    /// Spawns `cfg.workers` reactor workers (each with its dialer) on
    /// `clock`, with telemetry disabled and a fault layer of its own (seed
    /// 0) that stays inert unless driven through [`ReactorPool::shim`].
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
            let (dial_tx, dial_rx) = mpsc::channel();
            let dial_io: Arc<dyn IoPush> = Arc::clone(&inbox) as Arc<Inbox<P>>;
            let dialer = std::thread::Builder::new()
                .name(format!("brisa-dial-{i}"))
                .spawn(move || dialer_main(dial_rx, dial_io))
                .expect("spawn dialer thread");
            let worker_inbox = Arc::clone(&inbox);
            let worker_cfg = *cfg;
            let worker_io = ShardIo::new(ready, dial_tx.clone());
            let worker_tel = telemetry.clone();
            let worker_shim = shim.clone();
            let thread = std::thread::Builder::new()
                .name(format!("brisa-shard-{i}"))
                .spawn(move || {
                    worker_main(
                        i,
                        worker_inbox,
                        wake_rx,
                        worker_io,
                        worker_shim,
                        worker_cfg,
                        worker_tel,
                    )
                })
                .expect("spawn reactor worker");
            workers.push(WorkerHandle {
                inbox,
                dial_tx: Some(dial_tx),
                thread: Some(thread),
                dialer: Some(dialer),
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

    /// The inbound sink of `id`: hand it to the transport that will carry
    /// the node's traffic.
    pub fn sink_for(&self, id: NodeId) -> Box<dyn FrameSink> {
        Box::new(ReactorSink {
            id,
            inbox: Arc::clone(&self.shard_of(id).inbox),
        })
    }

    /// A [`Transport`] handle driving `id`'s shard-owned TCP sockets.
    /// Pair with [`ReactorPool::add_listener`].
    pub fn tcp_transport(&self, id: NodeId) -> Box<dyn Transport> {
        Box::new(ReactorTcpTransport {
            me: id,
            io: Arc::clone(&self.shard_of(id).inbox) as Arc<dyn IoPush>,
        })
    }

    /// Registers `id`'s pre-bound listener (and the mesh's address table)
    /// with its shard.
    pub fn add_listener(&self, id: NodeId, listener: TcpListener, addrs: Arc<Vec<SocketAddr>>) {
        self.shard_of(id)
            .inbox
            .push(WorkerMsg::Io(IoCmd::AddListener {
                node: id,
                listener,
                addrs,
            }));
    }

    /// Starts `proto` as node `id` on its shard; `on_start` runs on the
    /// worker. `seed` derives the node's RNG exactly like the simulator
    /// derives per-node streams.
    pub fn start_node(&self, id: NodeId, proto: P, seed: u64, transport: Box<dyn Transport>) {
        self.shard_of(id).inbox.push(WorkerMsg::Start {
            id,
            proto,
            seed,
            transport,
        });
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

    /// Stops every worker: remaining nodes are torn down, sockets closed,
    /// and all worker + dialer threads joined. No socket, port or thread
    /// survives this call.
    pub fn shutdown(&mut self) {
        for w in &self.workers {
            if w.thread.is_some() {
                w.inbox.push(WorkerMsg::Shutdown);
            }
        }
        for w in &mut self.workers {
            drop(w.dial_tx.take()); // Dialer exits when all senders drop…
            if let Some(t) = w.thread.take() {
                let _ = t.join(); // …the worker's clone included.
            }
            if let Some(d) = w.dialer.take() {
                let _ = d.join();
            }
        }
    }
}

impl<P: Protocol> Drop for ReactorPool<P> {
    fn drop(&mut self) {
        for w in &self.workers {
            if w.thread.is_some() {
                w.inbox.push(WorkerMsg::Shutdown);
            }
        }
        for w in &mut self.workers {
            drop(w.dial_tx.take());
            if let Some(t) = w.thread.take() {
                let _ = t.join();
            }
            if let Some(d) = w.dialer.take() {
                let _ = d.join();
            }
        }
    }
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::sys::Readiness;
    use std::io::{Read, Write};
    use std::os::raw::{c_int, c_ulong};
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    const SOON: Duration = Duration::from_millis(20);
    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn reconnect_backoff_doubles_and_caps() {
        let schedule: Vec<u64> = (0..super::RECONNECT_ATTEMPTS)
            .map(|a| super::reconnect_backoff(a).as_millis() as u64)
            .collect();
        assert_eq!(schedule, vec![50, 100, 200, 400, 800]);
        // Past the cap the schedule stays flat (and never overflows).
        assert_eq!(super::reconnect_backoff(40), super::RECONNECT_CAP);
    }

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
        ready.set_write_interest(&a, 3, true).expect("arm");
        assert_eq!(ready.wait(LONG), 1);
        let ev = ready.event(0);
        assert_eq!(ev.token, 3);
        assert!(ev.writable && !ev.readable);
        ready.set_write_interest(&a, 3, false).expect("disarm");
        assert_eq!(ready.wait(SOON), 0);
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
