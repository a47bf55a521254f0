//! The connection table of one shard: listeners, inbound connections and
//! the outbound links with their connect, retry, backoff, handshake,
//! goodbye and reap rules. It reaches sockets only through [`Sockets`],
//! reads no clock (`now` is the caller's), and reports what the nodes must
//! hear by appending [`Upcall`]s to the caller's vector, so every rule here
//! runs, and is tested, in virtual time.

use crate::wire::{frame_len, LEN_PREFIX_BYTES, WIRE_VERSION};
use brisa_simnet::seed::mix64;
use brisa_simnet::{NodeId, SimDuration, SimTime};
use brisa_telemetry::EventKind;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{ErrorKind, Result};
use std::ops::Range;
use std::sync::Arc;

/// Initial-dial retry budget. Listeners are pre-bound before any node
/// starts, so these retries only cover transient kernel backlog pressure.
const CONNECT_RETRIES: u32 = 20;

/// Pause between initial-dial retries.
const CONNECT_RETRY_DELAY: SimDuration = SimDuration::from_millis(25);

/// Re-dial budget for an *established* outbound connection that fails
/// mid-stream. Only after every attempt fails does the failure surface as
/// a link-down.
const RECONNECT_ATTEMPTS: u32 = 5;

/// First re-dial backoff (doubles per attempt) and its ceiling.
const RECONNECT_BASE: SimDuration = SimDuration::from_millis(50);
const RECONNECT_CAP: SimDuration = SimDuration::from_millis(800);

/// Longest a connect may stay in flight. The sweep counts an older one as
/// a failed attempt, so a peer whose SYNs are dropped costs retries, not a
/// link stuck connecting.
pub(super) const CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Idle cut-off for *unmonitored* outbound links (see [`LinkTable::tick`]).
const IDLE_LINK_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Cadence of the sweep that applies the two timeouts above.
const SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Length of the handshake an outbound connection opens with: the wire
/// version, then the dialing node's `u32` LE id.
const HELLO_LEN: usize = 5;

/// Goodbye marker: a zero-length frame prefix, outside the codec's valid
/// frame range, written immediately before a *deliberate* close of an
/// idle outbound connection. The receiver flags the connection so the
/// EOF that follows is not surfaced as peer death.
const GOODBYE: [u8; LEN_PREFIX_BYTES] = [0; LEN_PREFIX_BYTES];

/// `EMFILE` and `ENFILE` as asm-generic numbers them: out of descriptors.
pub(super) const OUT_OF_FDS: [i32; 2] = [24, 23];

/// The socket calls the table makes: non-blocking TCP on the worker's
/// readiness set, or the tests' in-memory wire. A socket is registered under
/// the table's token when it is born, and closing it is dropping it.
pub(super) trait Sockets {
    type Listener;
    type Stream;
    type Addr: Copy;
    /// Registers `listener` under `token`, reporting pending accepts.
    fn listen(&mut self, listener: &Self::Listener, token: u64) -> Result<()>;
    /// Switches a registered listener's read interest on or off.
    fn accepting(&mut self, listener: &Self::Listener, token: u64, on: bool) -> Result<()>;
    /// Accepts one pending connection, registered for reads under `token`.
    fn accept(&mut self, listener: &Self::Listener, token: u64) -> Result<Self::Stream>;
    /// Starts a connect to `addr`, registered for reads and writes under
    /// `token`. It is decided when the token first reports writable: a
    /// write then succeeds if it connected and fails if it did not.
    fn connect(&mut self, addr: Self::Addr, token: u64) -> Result<Self::Stream>;
    fn read(&mut self, stream: &Self::Stream, buf: &mut [u8]) -> Result<usize>;
    fn write(&mut self, stream: &Self::Stream, buf: &[u8]) -> Result<usize>;
    /// Switches a registered stream's write interest on or off.
    fn write_interest(&mut self, stream: &Self::Stream, token: u64, on: bool) -> Result<()>;
}

/// One ready registration. Error and hang-up read as both, so whichever
/// handler runs meets the failure on its next socket call.
#[derive(Clone, Copy)]
pub(super) struct Ready {
    pub(super) token: u64,
    pub(super) readable: bool,
    pub(super) writable: bool,
}

/// Socket commands of a shard's nodes, queued by its protocol half as
/// callbacks emit them.
pub(super) enum IoCmd {
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

/// What the table reports to the nodes of its shard, in the order it
/// happened.
pub(super) enum Upcall {
    /// `Frame(owner, from, at)`: a complete frame from `from` for resident
    /// node `owner`, whose bytes are [`LinkTable::frame`]`(at)` until the
    /// table next reads.
    Frame(u32, NodeId, Range<usize>),
    /// `owner`'s link to a peer it monitors broke: at most once per `Open`.
    LinkDown { owner: u32, peer: NodeId },
    /// Call [`LinkTable::redial`] for the `owner → peer` link at `at`.
    Redial { owner: u32, peer: u32, at: SimTime },
    /// `Event(node, kind, a, b)`: a flight-recorder event about `node`.
    Event(u32, EventKind, u64, u64),
}

/// State of one `owner → peer` outbound link.
enum OutState<T> {
    /// A connect started at `since` is in flight: the socket turning
    /// writable decides it, or the sweep fails it past [`CONNECT_TIMEOUT`].
    Connecting { conn: OutConn<T>, since: SimTime },
    /// A re-dial is scheduled.
    Backoff,
    /// Connected; frames flush through the non-blocking stream.
    Up(OutConn<T>),
}

/// An outbound socket and its place in the readiness set.
struct OutConn<T> {
    stream: T,
    /// Its registration's token, the key of [`LinkTable::out_tokens`].
    token: u64,
    /// Whether write interest is currently on: from the connect until the
    /// first flush, then whenever a flush hit `WouldBlock`.
    write_armed: bool,
}

/// One outbound link: its connection state machine and write queue. The
/// queue is the backpressure point — a slow or re-dialing peer accumulates
/// frames here (never blocking the shard), and they flush in order once
/// the socket drains.
struct OutLink<T> {
    state: OutState<T>,
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue.front()` already written on the current connection.
    offset: usize,
    /// Dials failed since the link was last up.
    attempts: u32,
    /// Whether the link ever connected (selects the initial-dial vs the
    /// reconnect retry schedule).
    established: bool,
    /// Last moment the link carried (or was asked to carry) traffic; the
    /// sweep closes unmonitored links idle past [`IDLE_LINK_TIMEOUT`].
    last_used: SimTime,
}

impl<T> OutLink<T> {
    /// Takes the link's socket, if it has one, leaving it in `Backoff`.
    fn take_conn(&mut self) -> Option<OutConn<T>> {
        match std::mem::replace(&mut self.state, OutState::Backoff) {
            OutState::Connecting { conn, .. } | OutState::Up(conn) => Some(conn),
            OutState::Backoff => None,
        }
    }
}

/// One inbound connection: handshake, then length-prefixed frames.
struct InConn<T> {
    owner: u32,
    stream: T,
    /// The dialer, once its hello arrived. A connection still without one
    /// [`CONNECT_TIMEOUT`] after `accepted` is dropped by the sweep: a real
    /// dialer says hello on its first writable event.
    from: Option<NodeId>,
    accepted: SimTime,
    /// Bytes received and not yet consumed: at most one partial frame.
    buf: Vec<u8>,
    /// A goodbye marker arrived: the peer is closing this connection
    /// deliberately (idle reap), so the EOF that follows is not peer death.
    deliberate: bool,
}

/// The connection table of one shard.
pub(super) struct LinkTable<S: Sockets> {
    /// The socket layer every connection below is registered with.
    pub(super) sockets: S,
    addrs: Option<Arc<Vec<S::Addr>>>,
    /// Listeners with their owner, keyed by token.
    listeners: HashMap<u64, (u32, S::Listener)>,
    /// Listeners whose read interest is off until the next sweep.
    paused: Vec<u64>,
    /// Inbound connections, keyed by token.
    inconns: HashMap<u64, InConn<S::Stream>>,
    /// Next registration token. One counter serves listeners, inbound and
    /// outbound connections and never hands a value out twice, so an event
    /// can only ever name the connection it was registered for: once that
    /// is gone the token is in none of the three maps. It starts at 1:
    /// token 0 is the worker's own wake socket.
    next_token: u64,
    outlinks: HashMap<(u32, u32), OutLink<S::Stream>>,
    /// Token → link of every outbound socket, connecting or up.
    out_tokens: HashMap<u64, (u32, u32)>,
    /// `monitored[owner]` = peers under failure-detection interest; an
    /// entry is consumed when its link-down fires (at most one
    /// notification per `open_connection`).
    monitored: HashMap<u32, BTreeSet<u32>>,
    last_sweep: SimTime,
    scratch: Vec<u8>,
    /// The bytes of the inbound connection read last, which its
    /// [`Upcall::Frame`]s point into.
    rx: Vec<u8>,
}

impl<S: Sockets> LinkTable<S> {
    pub(super) fn new(sockets: S, now: SimTime) -> Self {
        LinkTable {
            sockets,
            addrs: None,
            listeners: HashMap::new(),
            paused: Vec::new(),
            inconns: HashMap::new(),
            next_token: 1,
            outlinks: HashMap::new(),
            out_tokens: HashMap::new(),
            monitored: HashMap::new(),
            last_sweep: now,
            scratch: vec![0; 64 * 1024],
            rx: Vec::new(),
        }
    }

    /// Registrations the table holds: listeners, inbound connections and
    /// outbound sockets, connecting or up.
    pub(super) fn registered(&self) -> u64 {
        (self.listeners.len() + self.inconns.len() + self.out_tokens.len()) as u64
    }

    /// The bytes of a frame an [`Upcall::Frame`] reported.
    pub(super) fn frame(&self, at: Range<usize>) -> &[u8] {
        &self.rx[at]
    }

    /// Registers `node`'s listener and, the first time, the mesh's address
    /// table. A listener the socket layer refuses is dropped: dials to it
    /// are refused, which peers treat as any dead node.
    pub(super) fn add_listener(&mut self, node: NodeId, l: S::Listener, addrs: Arc<Vec<S::Addr>>) {
        self.addrs.get_or_insert(addrs);
        let token = self.next_token;
        self.next_token += 1;
        if self.sockets.listen(&l, token).is_ok() {
            self.listeners.insert(token, (node.0, l));
        }
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

    /// Consumes the monitored entry and reports the link-down.
    fn link_down(&mut self, up: &mut Vec<Upcall>, owner: u32, peer: NodeId) {
        let fired = self
            .monitored
            .get_mut(&owner)
            .is_some_and(|set| set.remove(&peer.0));
        if fired {
            up.push(Upcall::LinkDown { owner, peer });
        }
    }

    /// Starts the next connect of a link in `Backoff`. A socket that cannot
    /// even be opened or registered is a failed attempt like any other, and
    /// so is a peer without an address (an identifier a raw connection made
    /// up in its hello).
    fn connect(&mut self, now: SimTime, up: &mut Vec<Upcall>, owner: u32, peer: u32) {
        if !self.outlinks.contains_key(&(owner, peer)) {
            return;
        }
        let addrs = self
            .addrs
            .as_ref()
            .expect("a node dialed before any listener was added");
        let Some(&addr) = addrs.get(peer as usize) else {
            return self.attempt_failed(now, up, owner, peer);
        };
        let token = self.next_token;
        self.next_token += 1;
        match self.sockets.connect(addr, token) {
            Ok(stream) => {
                self.out_tokens.insert(token, (owner, peer));
                let conn = OutConn {
                    stream,
                    token,
                    write_armed: true,
                };
                let link = self.outlinks.get_mut(&(owner, peer)).expect("checked");
                link.state = OutState::Connecting { conn, since: now };
            }
            Err(_) => self.attempt_failed(now, up, owner, peer),
        }
    }

    /// A connecting socket turned writable, so its connect is decided.
    /// Connected, it says hello and the link is up; refused, reset or
    /// short of the hello, it is one failed attempt.
    fn finish_connect(&mut self, now: SimTime, up: &mut Vec<Upcall>, owner: u32, peer: u32) {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
        let OutState::Connecting { conn, .. } = &mut link.state else {
            return;
        };
        let mut hello = [0u8; HELLO_LEN];
        hello[0] = WIRE_VERSION;
        hello[1..].copy_from_slice(&owner.to_le_bytes());
        if !matches!(self.sockets.write(&conn.stream, &hello), Ok(HELLO_LEN)) {
            return self.attempt_failed(now, up, owner, peer);
        }
        if let Some(conn) = link.take_conn() {
            link.state = OutState::Up(conn);
        }
        link.established = true;
        link.attempts = 0;
        link.offset = 0;
        link.last_used = now;
        event(up, owner, EventKind::LinkUp, peer as u64, 0);
    }

    /// One connect attempt failed: its socket goes, and the link waits out
    /// its backoff for the next attempt or, with its retry budget spent,
    /// fails.
    fn attempt_failed(&mut self, now: SimTime, up: &mut Vec<Upcall>, owner: u32, peer: u32) {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
        link.attempts += 1;
        let attempts = link.attempts;
        event(
            up,
            owner,
            EventKind::DialFailed,
            peer as u64,
            attempts as u64,
        );
        let budget = if link.established {
            RECONNECT_ATTEMPTS
        } else {
            CONNECT_RETRIES
        };
        if attempts >= budget {
            self.fail_link(up, owner, peer);
        } else {
            self.back_off(now, up, owner, peer);
        }
    }

    /// Drops the link's socket, if it has one, and schedules its next
    /// connect.
    fn back_off(&mut self, now: SimTime, up: &mut Vec<Upcall>, owner: u32, peer: u32) {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
        if let Some(conn) = link.take_conn() {
            self.out_tokens.remove(&conn.token);
        }
        let at = now + redial_delay(link, owner, peer);
        up.push(Upcall::Redial { owner, peer, at });
    }

    /// Ensures an outbound link exists, dialing if fresh.
    fn ensure_link(&mut self, now: SimTime, up: &mut Vec<Upcall>, owner: u32, peer: u32) {
        if self.outlinks.contains_key(&(owner, peer)) {
            return;
        }
        event(up, owner, EventKind::Dial, peer as u64, 0);
        self.outlinks.insert(
            (owner, peer),
            OutLink {
                state: OutState::Backoff,
                queue: VecDeque::new(),
                offset: 0,
                attempts: 0,
                established: false,
                last_used: now,
            },
        );
        self.connect(now, up, owner, peer);
    }

    /// The link failed past its retry budget: drop it (with its queue) and
    /// report the failure. A later send re-creates it with a fresh budget.
    fn fail_link(&mut self, up: &mut Vec<Upcall>, owner: u32, peer: u32) {
        self.remove_link(owner, peer);
        event(up, owner, EventKind::LinkDown, peer as u64, 0);
        self.link_down(up, owner, NodeId(peer));
    }

    /// Flushes the link's queue onto its non-blocking stream. On a write
    /// error the connection is retired and a re-dial scheduled; the
    /// in-progress frame is kept for a full resend (the receiver discards
    /// the broken connection's partial frame with the connection).
    fn flush_link(&mut self, now: SimTime, up: &mut Vec<Upcall>, owner: u32, peer: u32) {
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
                match self.sockets.write(&conn.stream, &front[link.offset..]) {
                    Ok(n) if n > 0 => link.offset += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break 'flush true,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // Nothing written, or a write error: the connection broke.
                    _ => return self.retire_connection(now, up, owner, peer),
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
                .sockets
                .write_interest(&conn.stream, conn.token, backlog);
            if switched.is_err() {
                self.retire_connection(now, up, owner, peer);
            }
        }
    }

    /// A mid-stream write failure: drop the connection and enter the
    /// bounded backoff re-dial cycle before reporting anything.
    fn retire_connection(&mut self, now: SimTime, up: &mut Vec<Upcall>, owner: u32, peer: u32) {
        if let Some(link) = self.outlinks.get_mut(&(owner, peer)) {
            link.offset = 0;
            link.attempts = 0;
            self.back_off(now, up, owner, peer);
        }
    }

    /// A re-dial deadline fired. Starts the connect if the link is still
    /// waiting for it (it may have been closed or replaced meanwhile).
    pub(super) fn redial(&mut self, now: SimTime, up: &mut Vec<Upcall>, owner: u32, peer: u32) {
        let in_backoff = matches!(
            self.outlinks.get(&(owner, peer)),
            Some(link) if matches!(link.state, OutState::Backoff)
        );
        if in_backoff {
            event(up, owner, EventKind::Redial, peer as u64, 0);
            self.connect(now, up, owner, peer);
        }
    }

    /// Executes one socket command.
    pub(super) fn command(&mut self, now: SimTime, cmd: IoCmd, up: &mut Vec<Upcall>) {
        match cmd {
            IoCmd::Send { from, to, frame } => {
                self.ensure_link(now, up, from.0, to.0);
                let link = self.outlinks.get_mut(&(from.0, to.0)).expect("ensured");
                // A frame landing behind an already-backlogged queue is a
                // backpressure stall: the link is slower than its producer.
                if !link.queue.is_empty() {
                    let queued = link.queue.len() as u64 + 1;
                    event(
                        up,
                        from.0,
                        EventKind::BackpressureStall,
                        to.0 as u64,
                        queued,
                    );
                }
                link.queue.push_back(frame);
                link.last_used = now;
                self.flush_link(now, up, from.0, to.0);
            }
            IoCmd::Open { from, peer } => {
                self.monitored.entry(from.0).or_default().insert(peer.0);
                // Eagerly dial so a dead peer is detected without waiting
                // for traffic.
                self.ensure_link(now, up, from.0, peer.0);
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

    /// Accepts every pending inbound connection on the listener registered
    /// as `listener`. Out of descriptors, the listener would stay readable
    /// and wake every wait at once, so its read interest pauses until the
    /// next sweep.
    fn accept_ready(&mut self, now: SimTime, listener: u64) {
        while let Some((owner, sock)) = self.listeners.get(&listener) {
            match self.sockets.accept(sock, self.next_token) {
                Ok(stream) => {
                    let conn = InConn {
                        owner: *owner,
                        stream,
                        from: None,
                        accepted: now,
                        buf: Vec::new(),
                        deliberate: false,
                    };
                    self.inconns.insert(self.next_token, conn);
                    self.next_token += 1;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.raw_os_error().is_some_and(|n| OUT_OF_FDS.contains(&n)) => {
                    if self.sockets.accepting(sock, listener, false).is_ok() {
                        self.paused.push(listener);
                    }
                    return;
                }
                Err(_) => return,
            }
        }
    }

    /// Drains a readable inbound connection: handshake, then frame
    /// reassembly, reporting every complete frame to its owner. The
    /// connection's unread bytes become [`LinkTable::rx`], frames are
    /// consumed from it by offset, and what is left of a partial frame
    /// moves back to the connection once.
    fn read_inconn(&mut self, token: u64, up: &mut Vec<Upcall>) {
        let Some(conn) = self.inconns.get_mut(&token) else {
            return;
        };
        std::mem::swap(&mut self.rx, &mut conn.buf);
        conn.buf.clear();
        let mut closed = false;
        loop {
            match self.sockets.read(&conn.stream, &mut self.scratch) {
                Ok(n) if n > 0 => {
                    self.rx.extend_from_slice(&self.scratch[..n]);
                    // A short read emptied the socket: asking again only
                    // buys an `EAGAIN`. Reads are level-triggered, so
                    // whatever lands next (EOF included) is reported anew.
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // EOF, or a reset.
                _ => {
                    closed = true;
                    break;
                }
            }
        }
        let mut used = 0;
        // Handshake: 5 bytes naming the peer (version, u32 LE id).
        if conn.from.is_none() && self.rx.len() >= HELLO_LEN {
            if self.rx[0] != WIRE_VERSION {
                return self.drop_inconn(token, up);
            }
            let id = u32::from_le_bytes([self.rx[1], self.rx[2], self.rx[3], self.rx[4]]);
            conn.from = Some(NodeId(id));
            used = HELLO_LEN;
        }
        // Frame reassembly: u32 LE length prefix, then the body.
        while let Some(from) = conn.from {
            let rest = &self.rx[used..];
            if rest.starts_with(&GOODBYE) {
                // Goodbye marker: the peer is reaping this idle connection
                // (see `tick`); the EOF that follows is deliberate.
                conn.deliberate = true;
                used += LEN_PREFIX_BYTES;
                continue;
            }
            match frame_len(rest) {
                Ok(Some(len)) if rest.len() >= len => {
                    up.push(Upcall::Frame(conn.owner, from, used..used + len));
                    used += len;
                }
                Ok(_) => break,
                // Corrupt stream: treat like a broken connection.
                Err(_) => return self.drop_inconn(token, up),
            }
        }
        if closed {
            return self.drop_inconn(token, up);
        }
        if used == 0 {
            std::mem::swap(&mut self.rx, &mut conn.buf);
        } else {
            conn.buf.extend_from_slice(&self.rx[used..]);
        }
    }

    /// Removes an inbound connection, reporting the peer's death if the
    /// identified peer is monitored by the owner and did not say goodbye.
    fn drop_inconn(&mut self, token: u64, up: &mut Vec<Upcall>) {
        if let Some(conn) = self.inconns.remove(&token) {
            if let (Some(from), false) = (conn.from, conn.deliberate) {
                self.link_down(up, conn.owner, from);
            }
        }
    }

    /// A readable outbound connection: the peer never writes on this
    /// direction, so readiness means EOF/reset — the peer-close watch.
    fn check_out_eof(&mut self, up: &mut Vec<Upcall>, owner: u32, peer: u32) {
        let Some(link) = self.outlinks.get_mut(&(owner, peer)) else {
            return;
        };
        let OutState::Up(conn) = &mut link.state else {
            return;
        };
        let mut probe = [0u8; 32];
        loop {
            match self.sockets.read(&conn.stream, &mut probe) {
                // Unexpected chatter on a write-only direction: ignore it
                // and keep the connection.
                Ok(n) if n > 0 => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // The peer closed its end, or reset it: drop the link; the
                // next send (or a protocol-level re-open) dials fresh.
                _ => {
                    self.remove_link(owner, peer);
                    return self.link_down(up, owner, NodeId(peer));
                }
            }
        }
    }

    /// Sweeps the table once [`SWEEP_INTERVAL`] has passed since the last
    /// sweep, and returns whether it did. The sweep closes unmonitored
    /// outbound links idle past [`IDLE_LINK_TIMEOUT`].
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
    /// It drops every inbound connection that has not said hello
    /// [`CONNECT_TIMEOUT`] after its accept, so a silent peer cannot hold a
    /// descriptor; nothing is reported, as it never named a node. And it
    /// resumes the listeners paused for want of descriptors.
    pub(super) fn tick(&mut self, now: SimTime, up: &mut Vec<Upcall>) -> bool {
        if now.saturating_since(self.last_sweep) < SWEEP_INTERVAL {
            return false;
        }
        self.last_sweep = now;
        debug_assert_eq!(
            self.out_tokens.len(),
            self.outlinks
                .values()
                .filter(|link| !matches!(link.state, OutState::Backoff))
                .count(),
            "every link with a socket, and nothing else, holds a token"
        );
        for token in self.paused.drain(..) {
            if let Some((_, listener)) = self.listeners.get(&token) {
                let _ = self.sockets.accepting(listener, token, true);
            }
        }
        self.inconns.retain(|_, conn| {
            conn.from.is_some() || now.saturating_since(conn.accepted) < CONNECT_TIMEOUT
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
                    if now.saturating_since(since) >= CONNECT_TIMEOUT =>
                {
                    stalled.push((owner, peer))
                }
                OutState::Up(_)
                    if !monitored
                        && link.queue.is_empty()
                        && link.offset == 0
                        && now.saturating_since(link.last_used) >= IDLE_LINK_TIMEOUT =>
                {
                    reap.push((owner, peer))
                }
                _ => {}
            }
        }
        for (owner, peer) in stalled {
            self.attempt_failed(now, up, owner, peer);
        }
        for (owner, peer) in reap {
            let Some(OutState::Up(conn)) = self.outlinks.get(&(owner, peer)).map(|l| &l.state)
            else {
                continue;
            };
            match self.sockets.write(&conn.stream, &GOODBYE) {
                // Socket buffer full on an idle link (peer not reading its
                // flushed tail): retry at the next sweep rather than close
                // unannounced.
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Marker written (or the connection is already dead, in
                // which case the close changes nothing): drop the link.
                _ => {
                    self.remove_link(owner, peer);
                    event(up, owner, EventKind::LinkReap, peer as u64, 0);
                }
            }
        }
        true
    }

    /// Serves one ready registration. A token whose connection was dropped
    /// earlier in the same batch is in none of the maps and falls through.
    pub(super) fn on_ready(&mut self, now: SimTime, ev: Ready, up: &mut Vec<Upcall>) {
        if self.inconns.contains_key(&ev.token) {
            if ev.readable {
                self.read_inconn(ev.token, up);
            }
        } else if let Some(&(owner, peer)) = self.out_tokens.get(&ev.token) {
            if ev.readable {
                self.check_out_eof(up, owner, peer);
            }
            if ev.writable {
                // A connect in flight is decided; a link that is up (now,
                // or already) flushes.
                self.finish_connect(now, up, owner, peer);
                self.flush_link(now, up, owner, peer);
            }
        } else if ev.readable {
            // A listener, or the wake socket (drained by the worker), or
            // nothing any more.
            self.accept_ready(now, ev.token);
        }
    }

    /// Census of the outbound write queues: `(queued frames, links with a
    /// non-empty queue)`. Observability only.
    pub(super) fn write_queue_census(&self) -> (u64, u64) {
        let queues = self.outlinks.values().map(|link| link.queue.len() as u64);
        queues.fold((0, 0), |(frames, links), n| {
            (frames + n, links + (n > 0) as u64)
        })
    }
}

fn event(up: &mut Vec<Upcall>, node: u32, kind: EventKind, a: u64, b: u64) {
    up.push(Upcall::Event(node, kind, a, b));
}

/// The exponential re-dial backoff before attempt `attempt` (0-based):
/// [`RECONNECT_BASE`]` * 2^attempt`, capped at [`RECONNECT_CAP`].
fn reconnect_backoff(attempt: u32) -> SimDuration {
    let doubled = RECONNECT_BASE.as_micros() << attempt.min(16);
    SimDuration::from_micros(doubled.min(RECONNECT_CAP.as_micros()))
}

/// Deterministic per-link re-dial delay: the fixed initial-dial pause, or
/// the reconnect backoff plus jitter derived from the node pair and attempt
/// number, so a mass outage de-synchronizes without an RNG.
fn redial_delay<T>(link: &OutLink<T>, owner: u32, peer: u32) -> SimDuration {
    if !link.established {
        return CONNECT_RETRY_DELAY;
    }
    let backoff = reconnect_backoff(link.attempts);
    let jitter_seed =
        mix64(((owner as u64) << 32 | peer as u64).wrapping_add(link.attempts as u64));
    let jitter = SimDuration::from_micros(jitter_seed % (backoff.as_micros() / 2).max(1));
    backoff + jitter
}

#[cfg(test)]
mod tests {
    //! Every link rule in virtual time: node 0's table on an in-memory wire,
    //! against peers the test plays, with scripted faults, stepped a
    //! millisecond at a time.

    use super::*;
    use crate::reactor::fake::{Fake, Listening, Net};
    use crate::wire::MAX_FRAME_BYTES;

    const MS: SimDuration = SimDuration::from_millis(1);
    /// An identifier no node carries, claimed by raw peers.
    const NOBODY: u32 = 9_999;

    #[derive(Clone, Debug, PartialEq)]
    enum Heard {
        Frame(NodeId, Vec<u8>),
        Down(NodeId),
        Event(EventKind, u64),
    }

    /// Node 0's table, listening at address 0 and dialing peers at 1 and 2;
    /// what it reported and when; and its re-dial deadlines.
    struct Rig {
        wire: Net,
        table: LinkTable<Fake>,
        now: SimTime,
        log: Vec<(SimTime, Heard)>,
        redials: Vec<(SimTime, u32)>,
    }

    impl Rig {
        fn new() -> Rig {
            let wire = Net::default();
            let mut table = LinkTable::new(Fake(wire.clone()), SimTime::ZERO);
            let node = (NodeId(0), Listening(wire.clone(), 0));
            table.add_listener(node.0, node.1, Arc::new(vec![0, 1, 2]));
            let (now, log, redials) = (SimTime::ZERO, Vec::new(), Vec::new());
            Rig {
                wire,
                table,
                now,
                log,
                redials,
            }
        }

        /// Calls the table now and logs what it reported, keeping re-dial
        /// deadlines aside.
        fn on(&mut self, call: impl FnOnce(&mut LinkTable<Fake>, SimTime, &mut Vec<Upcall>)) {
            let mut up = Vec::new();
            call(&mut self.table, self.now, &mut up);
            for upcall in up {
                let heard = match upcall {
                    Upcall::Frame(_, id, at) => Heard::Frame(id, self.table.frame(at).into()),
                    Upcall::LinkDown { peer, .. } => Heard::Down(peer),
                    Upcall::Event(_, kind, peer, _) => Heard::Event(kind, peer),
                    Upcall::Redial { peer, at, .. } => {
                        self.redials.push((at, peer));
                        continue;
                    }
                };
                self.log.push((self.now, heard));
            }
        }
        fn cmd(&mut self, cmd: IoCmd) {
            self.on(|table, now, up| table.command(now, cmd, up));
        }
        fn send(&mut self, to: u32, frame: Vec<u8>) {
            let (from, to) = (NodeId(0), NodeId(to));
            self.cmd(IoCmd::Send { from, to, frame });
        }
        fn open(&mut self, peer: u32) {
            let (from, peer) = (NodeId(0), NodeId(peer));
            self.cmd(IoCmd::Open { from, peer });
        }

        /// Plays the peer listening at `addr`.
        fn listen(&self, addr: u32) {
            let listener = (None, VecDeque::new(), false);
            self.wire.borrow_mut().listeners.insert(addr, listener);
        }
        /// The test's end of the next connection to its listener at `addr`.
        fn accept(&self, addr: u32) -> usize {
            let mut wire = self.wire.borrow_mut();
            let backlog = &mut wire.listeners.get_mut(&addr).unwrap().1;
            backlog.pop_front().unwrap()
        }
        /// A raw peer's connection to node 0, having said `bytes`.
        fn raw(&self, bytes: &[u8]) -> usize {
            let end = self.wire.borrow_mut().dial(0, None);
            self.write(end, bytes);
            end
        }
        fn write(&self, end: usize, bytes: &[u8]) {
            let mut wire = self.wire.borrow_mut();
            let peer = wire.ends[end].peer;
            wire.ends[peer].rx.extend(bytes);
        }
        fn read(&self, end: usize) -> Vec<u8> {
            self.wire.borrow_mut().ends[end].rx.drain(..).collect()
        }
        fn close(&self, end: usize) {
            self.wire.borrow_mut().ends[end].closed = true;
        }
        /// Whether the table's end of the test's end `end` is open.
        fn held(&self, end: usize) -> bool {
            let wire = self.wire.borrow();
            !wire.ends[wire.ends[end].peer].closed
        }

        /// Advances virtual time by `ms` milliseconds. In each, the table
        /// fires its due re-dials, ticks and serves its readiness, in the
        /// worker's order.
        fn run(&mut self, ms: u64) {
            for _ in 0..ms {
                self.now += MS;
                let now = self.now;
                let (due, later) = self.redials.drain(..).partition(|r| r.0 <= now);
                self.redials = later;
                for (_, peer) in due as Vec<_> {
                    self.on(|table, now, up| table.redial(now, up, 0, peer));
                }
                self.on(|table, now, up| _ = table.tick(now, up));
                let ready = self.wire.borrow().ready();
                for (token, readable, writable) in ready {
                    let ev = Ready {
                        token,
                        readable,
                        writable,
                    };
                    self.on(|table, now, up| table.on_ready(now, ev, up));
                }
            }
        }

        /// When the table reported an event of `kind` about `peer`.
        fn times(&self, kind: EventKind, peer: u64) -> Vec<SimTime> {
            let of = Heard::Event(kind, peer);
            let log = self.log.iter().filter(|(_, heard)| *heard == of);
            log.map(|(at, _)| *at).collect()
        }
        /// The frames and link-downs the table reported.
        fn heard(&self) -> Vec<Heard> {
            let log = self.log.iter().map(|(_, heard)| heard.clone());
            log.filter(|heard| !matches!(heard, Heard::Event(..)))
                .collect()
        }
    }

    fn frame(body: &[u8]) -> Vec<u8> {
        [&(body.len() as u32).to_le_bytes()[..], body].concat()
    }
    fn hello(version: u8, id: u32) -> Vec<u8> {
        [&[version][..], &id.to_le_bytes()].concat()
    }
    fn ms(t: u64) -> SimTime {
        SimTime::ZERO + MS * t
    }

    #[test]
    fn a_send_dials_says_hello_and_frames_arrive_in_order() {
        let mut rig = Rig::new();
        rig.listen(1);
        let frames = [frame(b"one"), frame(b"two"), frame(b"three")];
        frames.iter().for_each(|f| rig.send(1, f.clone()));
        rig.run(1);
        let out = rig.accept(1);
        assert_eq!(
            rig.read(out),
            [hello(WIRE_VERSION, 0), frames.concat()].concat()
        );
        assert_eq!(rig.times(EventKind::Dial, 1), [ms(0)]);
        assert_eq!(rig.times(EventKind::LinkUp, 1), [ms(1)]);
        // Inbound, the same bytes are cut into the same frames.
        rig.raw(&[hello(WIRE_VERSION, 1), frames.concat()].concat());
        rig.run(2);
        assert_eq!(rig.heard(), frames.map(|f| Heard::Frame(NodeId(1), f)));
    }

    #[test]
    fn a_refused_dial_is_retried_every_25_ms_and_an_unanswered_one_at_the_timeout() {
        let mut rig = Rig::new();
        rig.wire.borrow_mut().black_holes.insert(2);
        rig.open(1);
        rig.send(2, frame(b"stuck"));
        rig.run(3_000);
        let retries: Vec<_> = (0..20).map(|i| ms(1 + 25 * i)).collect();
        assert_eq!(rig.times(EventKind::DialFailed, 1), retries);
        assert_eq!(rig.times(EventKind::LinkDown, 1), [ms(476)]);
        assert_eq!(rig.heard(), [Heard::Down(NodeId(1))]);
        // A connect nobody answers fails at the first sweep past the timeout.
        let stuck = rig.times(EventKind::DialFailed, 2);
        assert_eq!(stuck, [SimTime::ZERO + CONNECT_TIMEOUT]);
    }

    #[test]
    fn a_broken_link_redials_on_a_doubling_jittered_backoff_then_fails() {
        let mut rig = Rig::new();
        rig.listen(1);
        rig.open(1);
        rig.run(1);
        // Node 1 goes away, port and all, before the send's write.
        rig.close(rig.accept(1));
        rig.wire.borrow_mut().listeners.remove(&1);
        rig.send(1, frame(b"lost"));
        rig.run(5_000);
        // 50 ms doubling to the 800 ms cap, plus up to half again of jitter.
        let redials = rig.times(EventKind::Redial, 1);
        let mut since = ms(1);
        for (&at, backoff) in redials.iter().zip([50, 100, 200, 400, 800]) {
            let waited = (at - since).as_micros() / 1_000;
            assert!(
                (backoff..=backoff * 3 / 2 + 1).contains(&waited),
                "{waited} ms"
            );
            since = at;
        }
        assert_eq!(redials.len() as u32, RECONNECT_ATTEMPTS);
        assert_eq!(
            reconnect_backoff(40),
            RECONNECT_CAP,
            "flat past the cap, no overflow"
        );
        assert_eq!(rig.times(EventKind::LinkDown, 1), [since]);
        assert_eq!(rig.heard(), [Heard::Down(NodeId(1))]);
    }

    #[test]
    fn an_idle_unmonitored_link_is_reaped_with_a_goodbye_and_a_monitored_one_never_is() {
        let mut rig = Rig::new();
        rig.listen(1);
        rig.listen(2);
        rig.send(1, frame(b"once"));
        rig.open(2);
        rig.run(10_000);
        // Up at 1 ms, so the sweep at 4 s is the first past 3 s of idling.
        assert_eq!(rig.times(EventKind::LinkReap, 1), [ms(4_000)]);
        assert!(rig.times(EventKind::LinkReap, 2).is_empty());
        let (reaped, kept) = (rig.accept(1), rig.accept(2));
        let said = [hello(WIRE_VERSION, 0), frame(b"once"), GOODBYE.to_vec()];
        assert_eq!(rig.read(reaped), said.concat());
        assert!(!rig.held(reaped) && rig.held(kept));
        // A later send dials afresh.
        rig.send(1, frame(b"again"));
        assert_eq!(rig.times(EventKind::Dial, 1), [ms(0), ms(10_000)]);
    }

    #[test]
    fn a_goodbye_silences_the_eof_after_it_and_link_down_fires_once_per_open() {
        let mut rig = Rig::new();
        rig.listen(1);
        rig.open(1);
        let goodbye = [hello(WIRE_VERSION, 1), GOODBYE.to_vec()].concat();
        for bytes in [goodbye, hello(WIRE_VERSION, 1), hello(WIRE_VERSION, 1)] {
            let raw = rig.raw(&bytes);
            rig.run(2);
            rig.close(raw);
            rig.run(2);
        }
        // The bare close is peer death; the next one finds the entry used.
        assert_eq!(rig.heard(), [Heard::Down(NodeId(1))]);
        assert!(rig.log.contains(&(ms(7), Heard::Down(NodeId(1)))));
        // Opened again, the link's own EOF watch reports node 1's death;
        // withdrawn, the same watch reports node 2's to nobody.
        rig.open(1);
        rig.close(rig.accept(1));
        rig.listen(2);
        rig.open(2);
        let (from, peer) = (NodeId(0), NodeId(2));
        rig.cmd(IoCmd::Close { from, peer });
        rig.run(1);
        rig.close(rig.accept(2));
        rig.run(1);
        assert_eq!(rig.heard(), vec![Heard::Down(NodeId(1)); 2]);
    }

    #[test]
    fn a_listener_out_of_descriptors_pauses_until_the_next_sweep() {
        let mut rig = Rig::new();
        rig.wire.borrow_mut().out_of_fds = true;
        rig.raw(&[hello(WIRE_VERSION, 1), frame(b"waits")].concat());
        rig.run(500);
        rig.wire.borrow_mut().out_of_fds = false;
        rig.run(499);
        assert_eq!(rig.wire.borrow().accepts, 1, "no accept before the sweep");
        rig.run(2);
        assert_eq!(rig.heard(), [Heard::Frame(NodeId(1), frame(b"waits"))]);
    }

    #[test]
    fn hostile_peers_are_hung_up_on_and_reported_to_nobody() {
        let mut rig = Rig::new();
        let named = |version| hello(version, NOBODY);
        let oversize = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec();
        let cut = [named(WIRE_VERSION), frame(b"cut")[..5].to_vec()].concat();
        let wrong = named(WIRE_VERSION + 1);
        let big = [named(WIRE_VERSION), oversize].concat();
        let raws = [rig.raw(&wrong), rig.raw(&big), rig.raw(&cut)];
        rig.close(raws[2]);
        let (silent, fine) = (rig.raw(&[]), rig.raw(&hello(WIRE_VERSION, 1)));
        rig.run(3);
        assert!(raws.iter().all(|&raw| !rig.held(raw)));
        // Accepted at 1 ms, so the sweep at 3 s is the first past 2 s.
        rig.run(2_996);
        assert!(rig.held(silent) && rig.held(fine));
        rig.run(1);
        assert!(!rig.held(silent) && rig.held(fine));
        assert!(rig.heard().is_empty());
    }

    #[test]
    fn a_slow_loris_holds_at_most_one_frame_and_delays_no_other_link() {
        let mut rig = Rig::new();
        let trickled = frame(&[7; 60]);
        // Its first byte rides with the hello: the tail a read leaves.
        let loris = rig.raw(&[hello(WIRE_VERSION, NOBODY), trickled[..1].to_vec()].concat());
        let honest = rig.raw(&hello(WIRE_VERSION, 1));
        rig.run(2);
        let rest = trickled.iter().cycle().skip(1).take(3 * trickled.len() - 1);
        for (tick, byte) in rest.enumerate() {
            rig.write(loris, &[*byte]);
            let on_time = frame(&(tick as u32).to_le_bytes());
            rig.write(honest, &on_time);
            rig.run(1);
            assert_eq!(rig.heard().pop(), Some(Heard::Frame(NodeId(1), on_time)));
            let buffered = rig.table.inconns.values().map(|c| c.buf.len());
            assert!(buffered.max() < Some(trickled.len()));
        }
        let whole = Heard::Frame(NodeId(NOBODY), trickled);
        assert_eq!(rig.heard().iter().filter(|h| **h == whole).count(), 3);
    }
}
