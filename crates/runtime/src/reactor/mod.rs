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
//! Four files: `sys` holds the readiness set and all of the reactor's FFI,
//! `io` the connection table, `node` the nodes and their timer heap, and
//! this one the worker loop and the pool. The worker does the I/O and reads
//! the wall clock; the table and the nodes take the time from it, reach
//! sockets through `Sockets`, and are tested in virtual time.

use crate::clock::WallClock;
use crate::config::RuntimeConfig;
use crate::report::RuntimeStats;
use crate::shim::ShimControl;
use crate::wire::WireCodec;
use brisa_simnet::{Context, NodeId, Protocol};
use brisa_telemetry::{EventKind as TelEventKind, Telemetry};
use io::LinkTable;
use node::{ProtoCore, WireProtocol};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(test)]
mod fake;
mod io;
mod node;
mod sys;

/// Longest a worker parks when it has nothing scheduled.
const IDLE_PARK: Duration = Duration::from_millis(100);

/// Work section (everything but the wait) from which a loop iteration is
/// worth a `PollLoop` flight-recorder event.
const SLOW_ITERATION: Duration = Duration::from_millis(1);

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
    let clock = *shim.clock();
    let mut table = LinkTable::new(ready, clock.now());
    let mut core = ProtoCore::new(shim, clock, idx, &telemetry);
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
        // let the table sweep its links about once a second — the wait is
        // capped at `IDLE_PARK`, so the sweep runs even when parked.
        core.fire_due_timers(&mut table);
        core.run_cmds(&mut table);
        if table.tick(clock.now(), &mut core.upcalls) {
            core.take_upcalls(&table);
            core.run_cmds(&mut table);
            // Write-queue census at the same cadence: cheap, and depth
            // spikes outlive a single iteration anyway.
            if tel_enabled {
                let (frames, links) = table.write_queue_census();
                core.tel_event(idx as u32, TelEventKind::WriteQueueDepth, frames, links);
                g_nodes.set(core.resident() as u64);
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
        // The deadline becomes the wait's duration here and nowhere else.
        let wait = core.next_deadline().map_or(IDLE_PARK, |at| {
            Duration::from_micros(at.saturating_since(clock.now()).as_micros())
        });
        let ready = table.sockets.wait(wait.min(IDLE_PARK));

        // 4. Handle readiness: every read of the batch first, then the
        // sends they caused. Interleaving them would put the later reads'
        // deliveries behind the earlier relays' send syscalls, which
        // raises live-tcp's delivery latency. A read's frames reach their
        // node before the table reads again.
        let now = clock.now();
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
