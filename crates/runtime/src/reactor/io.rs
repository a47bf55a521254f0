//! The connection table of one shard: listeners, inbound connections and
//! the outbound links with their connect, retry, backoff and reap rules.
//! Every socket here is non-blocking and registered with the worker's
//! readiness set from the moment it exists, outbound connects included, so
//! nothing in this file waits and nothing runs on another thread.

use super::sys::{self, Ready, WAKE_TOKEN};
use super::{ProtoCore, TimerKind, WireProtocol};
use crate::config::RuntimeConfig;
use crate::wire::{frame_len, LEN_PREFIX_BYTES, WIRE_VERSION};
use brisa_simnet::seed::mix64;
use brisa_simnet::NodeId;
use brisa_telemetry::EventKind as TelEventKind;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Initial-dial retry budget. Listeners are pre-bound before any node
/// starts, so these retries only cover transient kernel backlog pressure.
const CONNECT_RETRIES: u32 = 20;

/// Pause between initial-dial retries.
const CONNECT_RETRY_DELAY: Duration = Duration::from_millis(25);

/// Re-dial budget for an *established* outbound connection that fails
/// mid-stream. Only after every attempt fails does the failure surface as
/// a link-down.
pub(super) const RECONNECT_ATTEMPTS: u32 = 5;

/// First re-dial backoff (doubles per attempt) and its ceiling.
const RECONNECT_BASE: Duration = Duration::from_millis(50);
pub(super) const RECONNECT_CAP: Duration = Duration::from_millis(800);

/// Longest a connect may stay in flight. The reap sweep counts an older
/// one as a failed attempt, so a peer whose SYNs are dropped costs retries,
/// not a link stuck connecting.
pub(super) const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Length of the handshake an outbound connection opens with: the wire
/// version, then the dialing node's `u32` LE id.
const HELLO_LEN: usize = 5;

/// Goodbye marker: a zero-length frame prefix, outside the codec's valid
/// frame range, written immediately before a *deliberate* close of an
/// idle outbound connection. The receiver flags the connection so the
/// EOF that follows is not surfaced as peer death.
const GOODBYE: [u8; LEN_PREFIX_BYTES] = [0; LEN_PREFIX_BYTES];

/// Socket commands executed on the owning worker's loop. The shard's
/// protocol half queues them on its own list as callbacks emit them; only
/// a listener registration comes from the pool, through the inbox.
pub(super) enum IoCmd {
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
}

/// State of one `owner → peer` outbound link.
enum OutState {
    /// A connect started at `since` is in flight: the socket turning
    /// writable decides it, or the reap sweep fails it past
    /// [`CONNECT_TIMEOUT`].
    Connecting { conn: OutConn, since: Instant },
    /// A re-dial is scheduled on the timer heap.
    Backoff,
    /// Connected; frames flush through the non-blocking stream.
    Up(OutConn),
}

/// An outbound socket and its place in the readiness set.
struct OutConn {
    stream: TcpStream,
    /// Its registration's token, the key of [`ShardIo::out_tokens`].
    token: u64,
    /// Whether write interest is currently on: from the connect until the
    /// first flush, then whenever a flush hit `WouldBlock`.
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
    /// Last moment the link carried (or was asked to carry) traffic; the
    /// reap sweep closes unmonitored links idle past
    /// `RuntimeConfig::idle_link_timeout`.
    last_used: Instant,
}

impl OutLink {
    /// Takes the link's socket, if it has one, leaving it in `Backoff`.
    fn take_conn(&mut self) -> Option<OutConn> {
        match std::mem::replace(&mut self.state, OutState::Backoff) {
            OutState::Connecting { conn, .. } | OutState::Up(conn) => Some(conn),
            OutState::Backoff => None,
        }
    }
}

/// One inbound connection: handshake, then length-prefixed frames.
struct InConn {
    owner: u32,
    stream: TcpStream,
    /// The dialer, once its hello arrived. A connection still without one
    /// [`CONNECT_TIMEOUT`] after `accepted` is dropped by the reap sweep: a
    /// real dialer says hello on its first writable event.
    from: Option<NodeId>,
    accepted: Instant,
    buf: Vec<u8>,
    /// A goodbye marker arrived: the peer is closing this connection
    /// deliberately (idle reap), so the EOF that follows is not peer death.
    deliberate: bool,
}

/// The socket engine of one shard.
pub(super) struct ShardIo {
    /// The readiness set every socket below is registered with.
    pub(super) ready: sys::Readiness,
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
    /// Token → link of every outbound socket, connecting or up.
    out_tokens: HashMap<u64, (u32, u32)>,
    /// `monitored[owner]` = peers under failure-detection interest; an
    /// entry is consumed when its link-down fires (at most one
    /// notification per `open_connection`).
    monitored: HashMap<u32, BTreeSet<u32>>,
}

impl ShardIo {
    pub(super) fn new(ready: sys::Readiness) -> Self {
        ShardIo {
            ready,
            addrs: None,
            listeners: HashMap::new(),
            inconns: HashMap::new(),
            next_token: WAKE_TOKEN + 1,
            outlinks: HashMap::new(),
            out_tokens: HashMap::new(),
            monitored: HashMap::new(),
        }
    }

    /// Descriptors in the readiness set: the wake socket, listeners,
    /// inbound connections and outbound sockets, connecting or up.
    pub(super) fn registered(&self) -> u64 {
        (1 + self.listeners.len() + self.inconns.len() + self.out_tokens.len()) as u64
    }

    /// Forgets the `owner → peer` link: its queue, and its connection if
    /// it had one.
    fn remove_link(&mut self, owner: u32, peer: u32) {
        if let Some(conn) = self
            .outlinks
            .remove(&(owner, peer))
            .and_then(|mut link| link.take_conn())
        {
            self.out_tokens.remove(&conn.token);
        }
    }

    /// Consumes the monitored entry and surfaces the link-down to the
    /// owner's protocol.
    fn link_down<P: WireProtocol>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: NodeId) {
        let fired = self
            .monitored
            .get_mut(&owner)
            .is_some_and(|set| set.remove(&peer.0));
        if fired {
            core.on_link_down(owner, peer);
        }
    }

    /// Starts the next connect of a link in `Backoff`. A socket that cannot
    /// even be opened or registered is a failed attempt like any other, and
    /// so is a peer without an address (an identifier a raw connection made
    /// up in its hello).
    fn connect<P: WireProtocol>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32) {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
        let addrs = self
            .addrs
            .as_ref()
            .expect("a node dialed before any listener was added");
        let Some(&addr) = addrs.get(peer as usize) else {
            return self.attempt_failed(core, owner, peer);
        };
        let token = self.next_token;
        self.next_token += 1;
        match self.ready.connect(addr, token) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                self.out_tokens.insert(token, (owner, peer));
                let conn = OutConn {
                    stream,
                    token,
                    write_armed: true,
                };
                link.state = OutState::Connecting {
                    conn,
                    since: Instant::now(),
                };
            }
            Err(_) => self.attempt_failed(core, owner, peer),
        }
    }

    /// A connecting socket turned writable, so its connect is decided.
    /// Connected, it says hello and the link is up; refused, reset or
    /// short of the hello, it is one failed attempt.
    fn finish_connect<P: WireProtocol>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32) {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
        let OutState::Connecting { conn, .. } = &mut link.state else {
            return;
        };
        let mut hello = [0u8; HELLO_LEN];
        hello[0] = WIRE_VERSION;
        hello[1..].copy_from_slice(&owner.to_le_bytes());
        let connected = matches!(conn.stream.take_error(), Ok(None))
            && matches!(conn.stream.write(&hello), Ok(HELLO_LEN));
        if !connected {
            return self.attempt_failed(core, owner, peer);
        }
        if let Some(conn) = link.take_conn() {
            link.state = OutState::Up(conn);
        }
        link.established = true;
        link.attempts = 0;
        link.offset = 0;
        link.last_used = Instant::now();
        core.tel_event(owner, TelEventKind::LinkUp, peer as u64, 0);
    }

    /// One connect attempt failed: its socket goes, and the link waits out
    /// its backoff for the next attempt or, with its retry budget spent,
    /// fails.
    fn attempt_failed<P: WireProtocol>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32) {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
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
            self.back_off(core, owner, peer);
        }
    }

    /// Drops the link's socket, if it has one, and schedules its next
    /// connect on the timer heap.
    fn back_off<P: WireProtocol>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32) {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
        if let Some(conn) = link.take_conn() {
            self.out_tokens.remove(&conn.token);
        }
        let delay = redial_delay(link, owner, peer);
        core.timers
            .push(Instant::now() + delay, TimerKind::Redial { owner, peer });
    }

    /// Ensures an outbound link exists, dialing if fresh.
    fn ensure_link<P: WireProtocol>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32) {
        if self.outlinks.contains_key(&(owner, peer)) {
            return;
        }
        core.tel_event(owner, TelEventKind::Dial, peer as u64, 0);
        self.outlinks.insert(
            (owner, peer),
            OutLink {
                state: OutState::Backoff,
                queue: VecDeque::new(),
                offset: 0,
                attempts: 0,
                established: false,
                last_used: Instant::now(),
            },
        );
        self.connect(core, owner, peer);
    }

    /// The link failed past its retry budget: drop it (with its queue) and
    /// surface the failure. A later send re-creates it with a fresh budget,
    /// like the old transport's fresh-writer re-dial.
    fn fail_link<P: WireProtocol>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32) {
        self.remove_link(owner, peer);
        core.tel_event(owner, TelEventKind::LinkDown, peer as u64, 0);
        self.link_down(core, owner, NodeId(peer));
    }

    /// Flushes the link's queue onto its non-blocking stream. On a write
    /// error the connection is retired and a re-dial scheduled; the
    /// in-progress frame is kept for a full resend (the receiver discards
    /// the broken connection's partial frame with the connection).
    fn flush_link<P: WireProtocol>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32) {
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
                    Ok(n) if n > 0 => link.offset += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break 'flush true,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    // Nothing written, or a write error: the connection broke.
                    _ => {
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
    fn retire_connection<P: WireProtocol>(
        &mut self,
        core: &mut ProtoCore<P>,
        owner: u32,
        peer: u32,
    ) {
        if let Some(link) = self.outlinks.get_mut(&(owner, peer)) {
            link.offset = 0;
            link.attempts = 0;
            self.back_off(core, owner, peer);
        }
    }

    /// A scheduled re-dial deadline fired. Returns whether a connect was
    /// actually started (the link may have been closed or replaced while
    /// the deadline was pending).
    pub(super) fn redial<P: WireProtocol>(
        &mut self,
        core: &mut ProtoCore<P>,
        owner: u32,
        peer: u32,
    ) -> bool {
        let in_backoff = matches!(
            self.outlinks.get(&(owner, peer)),
            Some(link) if matches!(link.state, OutState::Backoff)
        );
        if in_backoff {
            self.connect(core, owner, peer);
        }
        in_backoff
    }

    /// Executes the socket commands `core` queued, and those their
    /// execution queues in turn, until none are left: a link that fails
    /// dispatches a link-down, and its handler may send again.
    pub(super) fn run_cmds<P: WireProtocol>(&mut self, core: &mut ProtoCore<P>) {
        while let Some(cmd) = core.io_cmds.pop_front() {
            self.handle_cmd(core, cmd);
        }
    }

    /// Executes one socket command on this shard.
    pub(super) fn handle_cmd<P: WireProtocol>(&mut self, core: &mut ProtoCore<P>, cmd: IoCmd) {
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
                    // Refused by the readiness set: drop it, the dialing
                    // side sees a reset and re-dials like any broken link.
                    if self.ready.register(&stream, token).is_err() {
                        continue;
                    }
                    self.inconns.insert(
                        token,
                        InConn {
                            owner: *owner,
                            stream,
                            from: None,
                            accepted: Instant::now(),
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
    fn read_inconn<P: WireProtocol>(
        &mut self,
        core: &mut ProtoCore<P>,
        scratch: &mut [u8],
        token: u64,
    ) -> Result<(), ()> {
        let Some(conn) = self.inconns.get_mut(&token) else {
            return Ok(());
        };
        let mut closed = false;
        loop {
            match conn.stream.read(scratch) {
                Ok(n) if n > 0 => {
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
                // EOF, or a reset.
                _ => {
                    closed = true;
                    break;
                }
            }
        }
        // Handshake: 5 bytes naming the peer (version, u32 LE id).
        if conn.from.is_none() && conn.buf.len() >= HELLO_LEN {
            if conn.buf[0] != WIRE_VERSION {
                return self.drop_inconn(core, token);
            }
            let from = u32::from_le_bytes([conn.buf[1], conn.buf[2], conn.buf[3], conn.buf[4]]);
            conn.from = Some(NodeId(from));
            conn.buf.drain(..HELLO_LEN);
        }
        // Frame reassembly: u32 LE length prefix, then the body.
        while let Some(from) = conn.from {
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
            core.on_frame(conn.owner, from, &conn.buf[..total]);
            conn.buf.drain(..total);
        }
        if closed {
            return self.drop_inconn(core, token);
        }
        Ok(())
    }

    /// Removes an inbound connection, surfacing the peer-death signal if
    /// the identified peer is monitored by the owner.
    fn drop_inconn<P: WireProtocol>(
        &mut self,
        core: &mut ProtoCore<P>,
        token: u64,
    ) -> Result<(), ()> {
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
    fn check_out_eof<P: WireProtocol>(&mut self, core: &mut ProtoCore<P>, owner: u32, peer: u32) {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
        let OutState::Up(conn) = &mut link.state else {
            return;
        };
        let mut probe = [0u8; 32];
        loop {
            match conn.stream.read(&mut probe) {
                // Unexpected chatter on a write-only direction: ignore it
                // and keep the connection.
                Ok(n) if n > 0 => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // The peer closed its end, or reset it: drop the link; the
                // next send (or a protocol-level re-open) dials fresh.
                _ => {
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
    ///
    /// The same sweep fails every connect in flight past
    /// [`CONNECT_TIMEOUT`]: one failed attempt on the link's retry path.
    /// And it drops every inbound connection that has not said hello
    /// [`CONNECT_TIMEOUT`] after its accept, so a silent peer cannot hold a
    /// descriptor. Nothing is surfaced: it never named a node.
    pub(super) fn reap_idle<P: WireProtocol>(
        &mut self,
        core: &mut ProtoCore<P>,
        cfg: &RuntimeConfig,
        now: Instant,
    ) {
        debug_assert_eq!(
            self.out_tokens.len(),
            self.outlinks
                .values()
                .filter(|link| !matches!(link.state, OutState::Backoff))
                .count(),
            "every link with a socket, and nothing else, holds a token"
        );
        self.inconns.retain(|_, conn| {
            conn.from.is_some() || now.duration_since(conn.accepted) < CONNECT_TIMEOUT
        });
        let mut reap: Vec<(u32, u32)> = Vec::new();
        let mut stalled: Vec<(u32, u32)> = Vec::new();
        for (&(owner, peer), link) in &self.outlinks {
            let monitored = self
                .monitored
                .get(&owner)
                .is_some_and(|set| set.contains(&peer));
            match link.state {
                OutState::Connecting { since, .. }
                    if now.duration_since(since) >= CONNECT_TIMEOUT =>
                {
                    stalled.push((owner, peer))
                }
                OutState::Up(_)
                    if !monitored
                        && link.queue.is_empty()
                        && link.offset == 0
                        && now.duration_since(link.last_used) >= cfg.idle_link_timeout =>
                {
                    reap.push((owner, peer))
                }
                _ => {}
            }
        }
        for (owner, peer) in stalled {
            self.attempt_failed(core, owner, peer);
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
    pub(super) fn on_ready<P: WireProtocol>(
        &mut self,
        core: &mut ProtoCore<P>,
        scratch: &mut [u8],
        ev: Ready,
    ) {
        if self.inconns.contains_key(&ev.token) {
            if ev.readable {
                let _ = self.read_inconn(core, scratch, ev.token);
            }
        } else if let Some(&(owner, peer)) = self.out_tokens.get(&ev.token) {
            if ev.readable {
                self.check_out_eof(core, owner, peer);
            }
            if ev.writable {
                // A connect in flight is decided; a link that is up (now,
                // or already) flushes.
                self.finish_connect(core, owner, peer);
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
    pub(super) fn write_queue_census(&self) -> (u64, u64) {
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
pub(super) fn reconnect_backoff(attempt: u32) -> Duration {
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
