//! The in-process loopback mesh: an N-node interconnect made of MPSC
//! queues.
//!
//! Every node's inbound sink is registered in a shared table; `send`
//! clones nothing and performs no syscalls, so the mesh measures the
//! protocol stack and the reactor — not the kernel. Failure detection is
//! exact: a node that shuts down notifies every peer that had an open
//! (monitored) connection to it, mirroring the simulator's crash
//! semantics with a zero detection delay.

use crate::transport::{FrameSink, NetEvent, Transport};
use brisa_simnet::NodeId;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

struct MeshState {
    /// Inbound sink per node; `None` once the node shut down (or before it
    /// attached).
    inboxes: Vec<Option<Box<dyn FrameSink>>>,
    /// `monitors[x]` = nodes holding an open (failure-detected) connection
    /// to `x`; they are notified when `x` shuts down.
    monitors: Vec<BTreeSet<u32>>,
}

/// The shared interconnect. Create one, then [`attach`](LoopbackMesh::attach)
/// every node **before** starting any of them so early joins find their
/// contact registered.
#[derive(Clone)]
pub struct LoopbackMesh {
    state: Arc<Mutex<MeshState>>,
}

impl LoopbackMesh {
    /// A mesh with capacity for nodes `0..n`.
    pub fn new(n: usize) -> Self {
        LoopbackMesh {
            state: Arc::new(Mutex::new(MeshState {
                inboxes: (0..n).map(|_| None).collect(),
                monitors: vec![BTreeSet::new(); n],
            })),
        }
    }

    /// Registers `node`'s inbound sink and returns its transport handle.
    pub fn attach(&self, node: NodeId, sink: Box<dyn FrameSink>) -> LoopbackTransport {
        let mut st = self.state.lock().unwrap();
        assert!(node.index() < st.inboxes.len(), "node beyond mesh capacity");
        st.inboxes[node.index()] = Some(sink);
        LoopbackTransport {
            me: node,
            state: Arc::clone(&self.state),
        }
    }
}

/// One node's handle onto a [`LoopbackMesh`].
pub struct LoopbackTransport {
    me: NodeId,
    state: Arc<Mutex<MeshState>>,
}

impl Transport for LoopbackTransport {
    fn send(&mut self, to: NodeId, frame: Vec<u8>) {
        let mut st = self.state.lock().unwrap();
        let from = self.me;
        if let Some(Some(sink)) = st.inboxes.get_mut(to.index()) {
            sink.deliver(NetEvent::Frame { from, frame });
        }
        // Dead destination: silently dropped, like a broken connection.
    }

    fn open_connection(&mut self, peer: NodeId) {
        let mut st = self.state.lock().unwrap();
        let me = self.me;
        let peer_alive = matches!(st.inboxes.get(peer.index()), Some(Some(_)));
        if peer_alive {
            st.monitors[peer.index()].insert(me.0);
        } else if let Some(Some(sink)) = st.inboxes.get_mut(me.index()) {
            // Opening towards a dead peer fails detection immediately.
            sink.deliver(NetEvent::LinkDown { peer });
        }
    }

    fn close_connection(&mut self, peer: NodeId) {
        let mut st = self.state.lock().unwrap();
        if let Some(set) = st.monitors.get_mut(peer.index()) {
            set.remove(&self.me.0);
        }
    }

    fn shutdown(&mut self) {
        let mut st = self.state.lock().unwrap();
        let me = self.me;
        st.inboxes[me.index()] = None;
        let watchers = std::mem::take(&mut st.monitors[me.index()]);
        for w in watchers {
            if let Some(Some(sink)) = st.inboxes.get_mut(w as usize) {
                sink.deliver(NetEvent::LinkDown { peer: me });
            }
        }
        for set in &mut st.monitors {
            set.remove(&me.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    struct TestSink(mpsc::Sender<NetEvent>);

    impl FrameSink for TestSink {
        fn deliver(&mut self, event: NetEvent) -> bool {
            self.0.send(event).is_ok()
        }
    }

    fn sink() -> (Box<dyn FrameSink>, mpsc::Receiver<NetEvent>) {
        let (tx, rx) = mpsc::channel();
        (Box::new(TestSink(tx)), rx)
    }

    #[test]
    fn frames_flow_between_attached_nodes() {
        let mesh = LoopbackMesh::new(2);
        let (s0, r0) = sink();
        let (s1, r1) = sink();
        let mut t0 = mesh.attach(NodeId(0), s0);
        let _t1 = mesh.attach(NodeId(1), s1);
        t0.send(NodeId(1), vec![1, 2, 3]);
        match r1.recv().unwrap() {
            NetEvent::Frame { from, frame } => {
                assert_eq!(from, NodeId(0));
                assert_eq!(frame, vec![1, 2, 3]);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(r0.try_recv().is_err(), "no echo to the sender");
    }

    #[test]
    fn shutdown_notifies_monitoring_peers_only() {
        let mesh = LoopbackMesh::new(3);
        let (s0, r0) = sink();
        let (s1, r1) = sink();
        let (s2, r2) = sink();
        let mut t0 = mesh.attach(NodeId(0), s0);
        let mut t1 = mesh.attach(NodeId(1), s1);
        let _t2 = mesh.attach(NodeId(2), s2);
        // 0 monitors 1; 2 does not.
        t0.open_connection(NodeId(1));
        t1.shutdown();
        match r0.recv().unwrap() {
            NetEvent::LinkDown { peer } => assert_eq!(peer, NodeId(1)),
            other => panic!("unexpected event {other:?}"),
        }
        assert!(r2.try_recv().is_err());
        // Sends to the dead node are silently dropped.
        t0.send(NodeId(1), vec![9]);
        assert!(r1.try_recv().is_err());
        // Opening towards the dead node fails immediately.
        t0.open_connection(NodeId(1));
        assert!(matches!(
            r0.recv().unwrap(),
            NetEvent::LinkDown { peer: NodeId(1) }
        ));
    }

    #[test]
    fn closed_connections_are_not_notified() {
        let mesh = LoopbackMesh::new(2);
        let (s0, r0) = sink();
        let (s1, _r1) = sink();
        let mut t0 = mesh.attach(NodeId(0), s0);
        let mut t1 = mesh.attach(NodeId(1), s1);
        t0.open_connection(NodeId(1));
        t0.close_connection(NodeId(1));
        t1.shutdown();
        assert!(r0.try_recv().is_err());
    }
}
