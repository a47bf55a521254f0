//! The TCP interconnect: pre-bound `127.0.0.1` listeners, one per node.
//!
//! This module owns only the **mesh** — the address table and the bound
//! listeners. The sockets themselves are driven by the sharded reactor
//! (see [`crate::reactor`]): a node's listener is handed to its shard with
//! [`ReactorPool::add_listener`](crate::reactor::ReactorPool::add_listener),
//! and every accept, connect, read, write and re-dial happens
//! non-blockingly on the worker loop that owns the node.
//!
//! Wire conventions (unchanged since the thread-per-connection transport
//! this replaced, so the two interoperate on the wire):
//!
//! * all listeners are bound before any node starts, so connects never
//!   race the accept side;
//! * connections are **per-direction**: `a → b` traffic flows on a
//!   connection initiated by `a`, identified by a 5-byte handshake
//!   (`version`, `u32` node id) that must arrive within the reactor's
//!   connect timeout of the accept — and because the remote never writes
//!   back on it, readability of an outbound connection means EOF/reset,
//!   which is exactly the peer-death signal `open_connection` monitoring
//!   wants;
//! * frames are length-prefixed by the codec ([`crate::wire`]); a broken
//!   connection's partial frame is discarded with the connection, so a
//!   full resend on the re-dialed stream cannot duplicate bytes.
//!
//! Link-down detection maps TCP failure onto the simulator's
//! connection-monitoring contract: a dial that exhausts its retry budget,
//! a mid-stream write failure that survives the bounded backoff-reconnect
//! cycle (both budgets are constants of [`crate::reactor`]), or EOF/reset
//! from a monitored peer all surface as the owner's `on_link_down` — at
//! most once per `open_connection` registration.

use brisa_simnet::NodeId;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Accept backlog for every mesh listener. `std` hardwires 128, which a
/// large cluster overruns at launch: hundreds of staggered joins dial the
/// contact node while its shard is still starting siblings, the accept
/// queue fills, and overflowing connects stall in SYN retransmit until the
/// connect timeout fails them and their links back off. Re-`listen`ing on
/// the bound socket simply widens the queue.
const LISTEN_BACKLOG: i32 = 4096;

#[cfg(unix)]
fn widen_backlog(listener: &TcpListener) {
    use std::os::unix::io::AsRawFd;
    unsafe extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    // Best effort: the kernel clamps to net.core.somaxconn, and a failure
    // leaves the std default in place.
    unsafe {
        listen(listener.as_raw_fd(), LISTEN_BACKLOG);
    }
}

#[cfg(not(unix))]
fn widen_backlog(_listener: &TcpListener) {}

/// The bound interconnect: one listener per node, all on `127.0.0.1`.
pub struct TcpMesh {
    addrs: Arc<Vec<SocketAddr>>,
    listeners: Mutex<Vec<Option<TcpListener>>>,
}

impl TcpMesh {
    /// Binds `n` listeners on ephemeral `127.0.0.1` ports.
    pub fn bind(n: usize) -> std::io::Result<TcpMesh> {
        let mut addrs = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            widen_backlog(&listener);
            addrs.push(listener.local_addr()?);
            listeners.push(Some(listener));
        }
        Ok(TcpMesh {
            addrs: Arc::new(addrs),
            listeners: Mutex::new(listeners),
        })
    }

    /// The advertised address of `node` (exposed for diagnostics).
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.addrs[node.index()]
    }

    /// The full address table, indexed by node — what the reactor resolves
    /// a peer against when it connects.
    pub fn addrs(&self) -> Arc<Vec<SocketAddr>> {
        Arc::clone(&self.addrs)
    }

    /// Takes `node`'s pre-bound listener (once; panics on a second take).
    /// Hand it to the node's shard together with [`TcpMesh::addrs`].
    pub fn take_listener(&self, node: NodeId) -> TcpListener {
        self.listeners.lock().unwrap()[node.index()]
            .take()
            .expect("listener already taken")
    }

    /// Rebinds `node`'s advertised address — the restart path. The
    /// previous incarnation's listener must already be closed (its node
    /// stopped); the bind is retried briefly to ride out the kernel
    /// releasing the port.
    pub fn rebind_listener(&self, node: NodeId) -> std::io::Result<TcpListener> {
        let addr = self.addrs[node.index()];
        let mut last_err = None;
        for _ in 0..50 {
            match TcpListener::bind(addr) {
                Ok(listener) => {
                    widen_backlog(&listener);
                    return Ok(listener);
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        Err(last_err.expect("bind attempted at least once"))
    }
}
