//! Per-node bandwidth accounting.
//!
//! Every message handed to the simulator carries a wire size; the meter
//! attributes those bytes to the sender's upload and (at delivery time) the
//! receiver's download. It keeps running totals only: a caller that wants
//! the bytes of a phase — Figures 10–12 of the paper split a run into
//! stabilisation and dissemination — reads the meter at the phase boundary
//! and subtracts that reading from a later one.

use crate::node::NodeId;

/// Direction of a transfer, from the point of view of the accounted node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bytes sent by the node.
    Upload,
    /// Bytes received by the node.
    Download,
}

/// Byte counters for a single node.
#[derive(Debug, Clone, Copy, Default)]
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

/// Bandwidth meter covering all nodes of a simulation.
#[derive(Debug, Default, Clone)]
pub struct BandwidthMeter {
    nodes: Vec<NodeBandwidth>,
}

impl BandwidthMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the meter covers `id`.
    pub(crate) fn ensure(&mut self, id: NodeId) {
        if self.nodes.len() <= id.index() {
            self.nodes
                .resize_with(id.index() + 1, NodeBandwidth::default);
        }
    }

    /// Records a transfer for `id`.
    pub(crate) fn record(&mut self, id: NodeId, dir: Direction, bytes: usize) {
        self.ensure(id);
        let node = &mut self.nodes[id.index()];
        match dir {
            Direction::Upload => node.upload_total += bytes as u64,
            Direction::Download => node.download_total += bytes as u64,
        }
    }

    /// Bytes of memory the meter occupies (capacities, not lengths).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.nodes.capacity() * std::mem::size_of::<NodeBandwidth>()
    }

    /// Folds `other` into `self`, summing per-node counters element-wise.
    /// Used by the sharded driver to merge per-shard meters at collect
    /// time; each node is recorded on exactly one shard (uploads on the
    /// sender's, downloads on the destination's — both its owner), so the
    /// merge is a disjoint union in practice.
    pub(crate) fn absorb(&mut self, other: &BandwidthMeter) {
        if self.nodes.len() < other.nodes.len() {
            self.nodes
                .resize_with(other.nodes.len(), NodeBandwidth::default);
        }
        for (mine, theirs) in self.nodes.iter_mut().zip(other.nodes.iter()) {
            mine.upload_total += theirs.upload_total;
            mine.download_total += theirs.download_total;
        }
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

    #[test]
    fn records_totals() {
        let mut m = BandwidthMeter::new();
        m.record(NodeId(2), Direction::Upload, 1000);
        m.record(NodeId(2), Direction::Upload, 500);
        m.record(NodeId(2), Direction::Download, 200);
        let n = m.node(NodeId(2)).unwrap();
        assert_eq!(n.upload_total, 1500);
        assert_eq!(n.download_total, 200);
        assert_eq!(m.total_uploaded(), 1500);
        assert_eq!(m.total_downloaded(), 200);
        // The footprint is the node slots: more traffic costs no memory.
        let footprint = m.approx_bytes();
        assert!(footprint >= 3 * std::mem::size_of::<NodeBandwidth>());
        m.record(NodeId(2), Direction::Download, 1 << 20);
        assert_eq!(m.approx_bytes(), footprint);
    }

    #[test]
    fn unknown_node_has_no_counters() {
        let m = BandwidthMeter::new();
        assert!(m.node(NodeId(3)).is_none());
    }

    #[test]
    fn iter_covers_all_registered() {
        let mut m = BandwidthMeter::new();
        m.record(NodeId(0), Direction::Upload, 1);
        m.record(NodeId(3), Direction::Download, 2);
        let ids: Vec<u32> = m.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(m.node(NodeId(1)).unwrap().total(), 0);
    }
}
