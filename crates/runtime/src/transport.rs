//! The byte-transport abstraction the live runtime executes over.
//!
//! A [`Transport`] is one node's handle onto the interconnect: it pushes
//! encoded frames towards peers and registers/unregisters failure-detection
//! interest. Inbound traffic travels the other way: the transport delivers
//! [`NetEvent`]s to the reactor worker that owns the node through a
//! [`FrameSink`] (an abstraction over the worker's inbox that hides the
//! protocol type from the transport implementations).
//!
//! There are exactly two implementations, one per medium: the in-process
//! [`LoopbackMesh`](crate::loopback::LoopbackMesh) (in-memory queues, zero
//! syscalls) and the reactor's handle onto the real
//! [`TcpMesh`](crate::tcp::TcpMesh) over `127.0.0.1` sockets. Fault
//! injection is not a third one wrapped around them: the reactor consults
//! the cluster's fault layer *before* it calls a transport
//! (see [`crate::shim`]).

use brisa_simnet::NodeId;

/// An event a transport delivers to a node's reactor worker.
#[derive(Debug)]
pub enum NetEvent {
    /// A full frame (length prefix included) arrived from `from`.
    Frame {
        /// The sending node.
        from: NodeId,
        /// The raw frame bytes.
        frame: Vec<u8>,
    },
    /// Connection-level failure detection reports the link to `peer` broken.
    LinkDown {
        /// The peer whose link failed.
        peer: NodeId,
    },
}

/// Where a transport delivers inbound events.
///
/// Implemented by the reactor's inbox-backed sink; the indirection keeps
/// transports independent of the protocol type parameter.
pub trait FrameSink: Send {
    /// Delivers one event. Returns `false` if the receiving worker is
    /// gone (the transport may then drop further traffic for it).
    fn deliver(&mut self, event: NetEvent) -> bool;
}

/// One node's handle onto the interconnect.
///
/// The reactor translates the sans-IO [`brisa_simnet::Command`]s a
/// protocol emits into calls on this trait, on the worker thread that owns
/// the node; implementations own whatever sockets and queues the medium
/// needs.
pub trait Transport: Send {
    /// Sends an encoded frame to `to`. Delivery is best-effort and FIFO per
    /// destination; sending to a dead peer silently drops the frame
    /// (exactly what a broken TCP connection does — loss surfaces through
    /// [`NetEvent::LinkDown`] on monitored connections instead).
    fn send(&mut self, to: NodeId, frame: Vec<u8>);

    /// Declares failure-detection interest in `peer`: if the peer dies, a
    /// [`NetEvent::LinkDown`] must eventually reach this node's sink.
    fn open_connection(&mut self, peer: NodeId);

    /// Withdraws failure-detection interest in `peer`.
    fn close_connection(&mut self, peer: NodeId);

    /// Tears the transport down: closes the node's sockets/queues. Called
    /// by the reactor when its node stops; peers with an open connection to
    /// this node observe a link-down.
    fn shutdown(&mut self);
}
