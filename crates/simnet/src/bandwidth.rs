//! Per-node bandwidth accounting.
//!
//! Every message handed to the simulator carries a wire size; the bytes are
//! attributed to the sender's upload and (at delivery time) the receiver's
//! download. The running totals live in each node's slot, beside the RNG
//! and lane counter a send already touches, on the core that owns the node
//! (uploads are counted sender-side, downloads destination-side: both on
//! the owner). A [`BandwidthMeter`] is a reading of them: a caller that
//! wants the bytes of a phase — Figures 10–12 of the paper split a run into
//! stabilisation and dissemination — takes a reading at the phase boundary
//! and subtracts it from a later one.

use crate::node::NodeId;

/// Byte counters for a single node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeBandwidth {
    /// Total bytes uploaded since the node was created.
    pub upload_total: u64,
    /// Total bytes downloaded since the node was created.
    pub download_total: u64,
}

impl NodeBandwidth {
    /// Total bytes (up + down).
    pub fn total(&self) -> u64 {
        self.upload_total + self.download_total
    }
}

/// A reading of every node's byte totals, indexed by id
/// ([`crate::Driver::bandwidth`]).
#[derive(Debug, Default, Clone)]
pub struct BandwidthMeter {
    nodes: Vec<NodeBandwidth>,
}

impl BandwidthMeter {
    /// A reading of the totals of nodes `0..totals.len()`.
    pub(crate) fn from_totals(totals: Vec<NodeBandwidth>) -> Self {
        BandwidthMeter { nodes: totals }
    }

    /// Counters for a node, if it has ever been registered.
    pub fn node(&self, id: NodeId) -> Option<&NodeBandwidth> {
        self.nodes.get(id.index())
    }

    /// Iterates over `(NodeId, counters)` for all registered nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeBandwidth)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, b)| (NodeId(i as u32), b))
    }

    /// Sum of bytes transferred (counting each message once, on the upload
    /// side) across all nodes.
    pub fn total_uploaded(&self) -> u64 {
        self.nodes.iter().map(|n| n.upload_total).sum()
    }

    /// Sum of bytes received across all nodes.
    pub fn total_downloaded(&self) -> u64 {
        self.nodes.iter().map(|n| n.download_total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::FixedLatency;
    use crate::protocol::{Context, Protocol, WireSize};
    use crate::time::{SimDuration, SimTime};
    use crate::{Network, NetworkConfig, TimerTag};

    /// A message of the size it says.
    #[derive(Debug, Clone)]
    struct Bytes(usize);

    impl WireSize for Bytes {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    /// Sends its scripted `(to, size)` messages at start.
    struct Sender(Vec<(NodeId, usize)>);

    impl Protocol for Sender {
        type Message = Bytes;

        fn on_start(&mut self, ctx: &mut Context<'_, Bytes>) {
            for &(to, size) in &self.0 {
                ctx.send(to, Bytes(size));
            }
        }

        fn on_message(&mut self, _: &mut Context<'_, Bytes>, _: NodeId, _: Bytes) {}

        fn on_timer(&mut self, _: &mut Context<'_, Bytes>, _: TimerTag) {}
    }

    fn run(
        scripts: Vec<Vec<(NodeId, usize)>>,
        traffic: impl Fn(&mut Network<Sender>),
    ) -> Network<Sender> {
        let mut net = Network::new(
            NetworkConfig::default(),
            Box::new(FixedLatency::new(SimDuration::from_millis(1))),
        );
        for script in scripts {
            net.add_node(|_| Sender(script));
        }
        traffic(&mut net);
        net.run_until(SimTime::from_secs(1));
        net
    }

    #[test]
    fn records_totals() {
        let (n0, n2) = (NodeId(0), NodeId(2));
        let net = run(
            vec![vec![], vec![], vec![(n0, 1000), (n0, 500), (n2, 200)]],
            |_| {},
        );
        let m = net.bandwidth();
        let n = m.node(n2).unwrap();
        assert_eq!((n.upload_total, n.download_total), (1700, 200));
        assert_eq!(m.node(n0).unwrap().download_total, 1500);
        assert_eq!(m.total_uploaded(), 1700);
        assert_eq!(m.total_downloaded(), 1700);
        // The totals live in the node slots: more traffic costs no memory.
        let quiet = run(vec![vec![], vec![], vec![(n0, 1)]], |_| {}).footprint();
        let busy = net.footprint();
        assert_eq!(
            busy.node_state_bytes, quiet.node_state_bytes,
            "{busy:?} against {quiet:?}"
        );
        assert!(busy.node_state_bytes >= 3 * Network::<Sender>::slot_bytes());
    }

    #[test]
    fn unknown_node_has_no_counters() {
        let m = run(vec![vec![]], |_| {}).bandwidth();
        assert!(m.node(NodeId(0)).is_some());
        assert!(m.node(NodeId(3)).is_none());
    }

    #[test]
    fn iter_covers_all_registered() {
        // Node 1 crashes before it starts: a reading still covers it.
        let net = run(vec![vec![(NodeId(3), 1)], vec![], vec![], vec![]], |net| {
            net.crash(NodeId(1))
        });
        let m = net.bandwidth();
        let ids: Vec<u32> = m.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(m.node(NodeId(1)).unwrap().total(), 0);
        assert_eq!(m.node(NodeId(3)).unwrap().download_total, 1);
    }

    #[test]
    fn a_reading_sums_and_indexes_its_totals() {
        let totals = |upload_total, download_total| NodeBandwidth {
            upload_total,
            download_total,
        };
        let m = BandwidthMeter::from_totals(vec![totals(1, 0), totals(0, 0), totals(1500, 200)]);
        let n = m.node(NodeId(2)).unwrap();
        assert_eq!(
            (n.upload_total, n.download_total, n.total()),
            (1500, 200, 1700)
        );
        assert_eq!(m.total_uploaded(), 1501);
        assert_eq!(m.total_downloaded(), 200);
    }
}
