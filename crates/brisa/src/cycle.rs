//! Cycle prevention for the emerging dissemination structure.
//!
//! A parent candidate is only acceptable if adopting it cannot create a
//! cycle (which would disconnect part of the structure from the source).
//! The paper uses two mechanisms:
//!
//! * **Path embedding** (trees, Section II-D): every relayed message carries
//!   the identifiers of the nodes on the path from the source. A candidate
//!   is rejected if the receiving node appears in that path. Exact, and
//!   cheap because the path length is bounded by the tree height
//!   (`O(log_b N)`).
//! * **Depth labels** (DAGs, Section II-G): every message carries only the
//!   sender's depth. A node first hearing from a sender at depth `i-1`
//!   places itself at depth `i` and only accepts parents with a strictly
//!   smaller depth; hearing from a node at its own depth pushes it one
//!   level deeper. Approximate (false negatives possible) but constant-size.
//!
//! Every rule that reads a path or a depth label is [`CycleState`]'s:
//! admission, cycle detection and the push of a moved depth.
//!
//! A [`BloomMembership`] implementation is also provided, purely for the
//! cycle-prevention ablation (`repro ablation_cycle_prevention`): the paper
//! argues path embedding beats Bloom filters on metadata size and
//! exactness, and the ablation's claims check that comparison.

use crate::config::StructureMode;
use brisa_simnet::seed::split_mix64;
use brisa_simnet::wire::ByteCount;
use brisa_simnet::NodeId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Metadata attached to every stream message for cycle prevention.
///
/// Cloning is cheap in both modes: the path is a shared slice, because a
/// node attaches the *same* path — its own position — to every message it
/// relays until that position changes, so the guard of a relayed copy is a
/// reference-count bump on the node's [`CycleState`] rather than a fresh
/// vector per message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CycleGuard {
    /// Identifiers of the nodes traversed from the source (exclusive of the
    /// receiver), most recent last. Used in tree mode.
    Path(Arc<[NodeId]>),
    /// Depth of the *sender* in the DAG (the source is at depth 0).
    Depth(u32),
}

impl CycleGuard {
    /// Metadata size on the wire in bytes: the guard's encoder (a kind
    /// byte, then the path as a node list or the depth as a `u32`) run over
    /// a byte counter, so it is what every data frame carries.
    pub fn wire_size(&self) -> usize {
        self.encode_into(&mut ByteCount(0)).0
    }

    /// The sender's depth (hops from the source, which is at 0): a path
    /// runs from the source to the sender, so `k` identifiers put the
    /// sender at `k - 1`; a depth label is the sender's depth as it is.
    /// Comparable with [`CycleState::position`], the receiver's own depth.
    pub fn sender_depth(&self) -> usize {
        match self {
            CycleGuard::Path(p) => p.len().saturating_sub(1),
            CycleGuard::Depth(d) => *d as usize,
        }
    }
}

/// The cycle-detection state a node keeps for itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleState {
    /// Tree mode: the path from the source to this node (inclusive of this
    /// node), unknown until the first message is received. Shared with the
    /// guards of the messages this node relays.
    Path(Option<Arc<[NodeId]>>),
    /// DAG mode: this node's depth, unknown until the first message is
    /// received.
    Depth(Option<u32>),
}

impl CycleState {
    /// Fresh state for `mode`: a path in a tree, a depth label in a DAG,
    /// unknown until the first message is received.
    pub fn for_mode(mode: StructureMode) -> Self {
        match mode {
            StructureMode::Tree => CycleState::Path(None),
            StructureMode::Dag { .. } => CycleState::Depth(None),
        }
    }

    /// True for path embedding, which is exact: no two nodes are ever each
    /// other's parents. Depth labels are not.
    pub fn is_exact(&self) -> bool {
        matches!(self, CycleState::Path(_))
    }

    /// True if the node has not yet positioned itself in the structure.
    pub fn is_unset(&self) -> bool {
        matches!(self, CycleState::Path(None) | CycleState::Depth(None))
    }

    /// Forgets the node's position. Used by the hard-repair mechanism, which
    /// lets an orphan re-attach anywhere ("considers itself a fresh node by
    /// forgetting its position in the cycle detection mechanism").
    pub fn reset(&mut self) {
        match self {
            CycleState::Path(p) => *p = None,
            CycleState::Depth(d) => *d = None,
        }
    }

    /// Positions this node as the root of the structure (the stream source):
    /// path `[me]` in tree mode, depth 0 in DAG mode.
    pub fn set_root(&mut self, me: NodeId) {
        match self {
            CycleState::Path(p) => *p = Some(Arc::from([me])),
            CycleState::Depth(d) => *d = Some(0),
        }
    }

    /// Whether `from`, whose data carries `guard`, may become a parent of
    /// `me` (`orphaned`: `me` has none) without creating a cycle.
    ///
    /// * Path mode: `me` must not appear in the sender's path.
    /// * Depth mode: an unknown depth accepts anything; a known one accepts
    ///   a strictly shallower sender (Section II-G), and one at its own
    ///   depth from a lower identifier or when `orphaned`, which moves `me`
    ///   one level deeper. That clause is not the paper's, and it lets two
    ///   DAG nodes become each other's parents (ROADMAP item 25).
    pub fn permits(&self, me: NodeId, from: NodeId, guard: &CycleGuard, orphaned: bool) -> bool {
        match (self, guard) {
            (CycleState::Path(_), CycleGuard::Path(path)) => !path.contains(&me),
            (CycleState::Depth(None), CycleGuard::Depth(_)) => true,
            (CycleState::Depth(Some(d)), CycleGuard::Depth(sender)) => {
                sender < d || (sender == d && (from < me || orphaned))
            }
            // Mixed modes never occur in a well-configured system; be
            // conservative and reject.
            _ => false,
        }
    }

    /// Whether data from a current parent, carrying `guard`, reveals a
    /// cycle (Section II-D): its path runs through `me`. A depth label
    /// reveals none: a parent that moved deeper moves `me` below it.
    pub fn reveals_cycle(&self, me: NodeId, guard: &CycleGuard) -> bool {
        matches!((self, guard), (CycleState::Path(_), CycleGuard::Path(p)) if p.contains(&me))
    }

    /// Follows an accepted parent's `guard` ([`Self::position_after`]),
    /// returning the depth the children must now hear if a depth label
    /// moved: a moved path needs no push, the next data carries it.
    pub fn follow(&mut self, me: NodeId, guard: &CycleGuard) -> Option<u32> {
        let moved = self.position_after(me, guard);
        match self {
            CycleState::Depth(d) if moved => *d,
            _ => None,
        }
    }

    /// Updates the node's position after *delivering* a message carrying
    /// `guard` from an accepted parent. Returns `true` if the position
    /// changed.
    pub fn position_after(&mut self, me: NodeId, guard: &CycleGuard) -> bool {
        match (self, guard) {
            (CycleState::Path(my_path), CycleGuard::Path(path)) => {
                // Steady state: the parent's path did not move, so neither
                // did ours. Compared in place; a new path is built only
                // when the position really changes.
                let unchanged = my_path
                    .as_deref()
                    .and_then(<[NodeId]>::split_last)
                    .is_some_and(|(last, prefix)| *last == me && prefix == &path[..]);
                if !unchanged {
                    *my_path = Some(path.iter().copied().chain([me]).collect());
                }
                !unchanged
            }
            (CycleState::Depth(my_depth), CycleGuard::Depth(sender_depth)) => {
                // The depth comes off the wire: a hostile `u32::MAX` pins
                // the node at the bottom instead of wrapping it to the root.
                let new_depth = sender_depth.saturating_add(1);
                match my_depth {
                    None => {
                        *my_depth = Some(new_depth);
                        true
                    }
                    Some(d) if new_depth > *d => {
                        // Receiving from a node at our own depth (or deeper)
                        // pushes us further down, per Section II-G.
                        *my_depth = Some(new_depth);
                        true
                    }
                    Some(_) => false,
                }
            }
            _ => false,
        }
    }

    /// The guard this node must attach to messages it relays.
    pub fn outgoing_guard(&self, me: NodeId) -> CycleGuard {
        match self {
            CycleState::Path(Some(p)) => CycleGuard::Path(Arc::clone(p)),
            CycleState::Path(None) => CycleGuard::Path(Arc::from([me])),
            CycleState::Depth(Some(d)) => CycleGuard::Depth(*d),
            CycleState::Depth(None) => CycleGuard::Depth(0),
        }
    }

    /// Heap bytes of the node's own path (the shared slice and its two
    /// reference counts); nothing in DAG mode.
    pub fn approx_heap_bytes(&self) -> usize {
        match self {
            CycleState::Path(Some(p)) => {
                2 * std::mem::size_of::<usize>() + std::mem::size_of_val::<[NodeId]>(p)
            }
            _ => 0,
        }
    }

    /// This node's current depth (DAG mode) or path length (tree mode), if
    /// positioned.
    pub fn position(&self) -> Option<usize> {
        match self {
            CycleState::Path(Some(p)) => Some(p.len().saturating_sub(1)),
            CycleState::Depth(Some(d)) => Some(*d as usize),
            _ => None,
        }
    }
}

/// A plain Bloom filter over node identifiers.
///
/// Not used by the protocol itself — the paper explicitly prefers path
/// embedding / depth labels — but implemented so the cycle-prevention
/// ablation (`repro ablation_cycle_prevention`) can compare metadata size
/// and false-positive behaviour, mirroring the discussion in Section II-D.
#[derive(Debug, Clone)]
pub struct BloomMembership {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: usize,
}

impl BloomMembership {
    /// Creates a filter sized for `expected_items` entries at the given
    /// false-positive probability, using the standard optimal sizing
    /// formulas (`m = -n ln p / (ln 2)^2`, `k = m/n ln 2`).
    pub fn with_false_positive_rate(expected_items: usize, fp_rate: f64) -> Self {
        let n = expected_items.max(1) as f64;
        let p = fp_rate.clamp(1e-12, 0.5);
        let m = (-(n * p.ln()) / (std::f64::consts::LN_2 * std::f64::consts::LN_2)).ceil() as usize;
        let k = ((m as f64 / n) * std::f64::consts::LN_2).round().max(1.0) as usize;
        BloomMembership {
            bits: vec![0u64; m.div_ceil(64).max(1)],
            num_bits: m.max(64),
            num_hashes: k,
        }
    }

    /// Number of bits in the filter (the metadata size the paper compares
    /// against path embedding).
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Size of the filter in bytes.
    pub fn wire_size(&self) -> usize {
        self.num_bits.div_ceil(8)
    }

    fn indexes(&self, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        // One independent hash per index. Double hashing (`h1 + i·h2 mod m`)
        // has only m² distinct probe patterns, so a filter of a hundred-odd
        // bits — a path of a few hops at 1e-6 — could never reach the rate
        // it was sized for.
        let num_bits = self.num_bits as u64;
        (1..=self.num_hashes as u64)
            .map(move |i| (split_mix64(node.0 as u64, i) % num_bits) as usize)
    }

    /// Inserts `node` into the filter.
    pub fn insert(&mut self, node: NodeId) {
        let idx: Vec<usize> = self.indexes(node).collect();
        for i in idx {
            self.bits[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// True if `node` may be in the set (false positives possible, false
    /// negatives impossible).
    pub fn contains(&self, node: NodeId) -> bool {
        self.indexes(node)
            .all(|i| self.bits[i / 64] & (1u64 << (i % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_guard_rejects_nodes_on_the_path() {
        let st = CycleState::Path(None);
        let guard = CycleGuard::Path(vec![NodeId(0), NodeId(3), NodeId(7)].into());
        assert!(
            !st.permits(NodeId(3), NodeId(7), &guard, false),
            "node on the path is rejected"
        );
        assert!(
            st.permits(NodeId(5), NodeId(7), &guard, false),
            "node off the path is accepted"
        );
    }

    #[test]
    fn path_position_appends_self() {
        let mut st = CycleState::Path(None);
        assert!(st.is_unset());
        let guard = CycleGuard::Path(vec![NodeId(0), NodeId(3)].into());
        let changed = st.position_after(NodeId(9), &guard);
        assert!(changed);
        assert_eq!(st.position(), Some(2));
        assert_eq!(
            st.outgoing_guard(NodeId(9)),
            CycleGuard::Path(vec![NodeId(0), NodeId(3), NodeId(9)].into())
        );
        // Same position again: no change reported.
        assert!(!st.position_after(NodeId(9), &guard));
    }

    #[test]
    fn unchanged_position_keeps_the_shared_path() {
        let me = NodeId(9);
        let path_of = |st: &CycleState| match st.outgoing_guard(me) {
            CycleGuard::Path(p) => p,
            CycleGuard::Depth(_) => unreachable!("tree state emits path guards"),
        };
        let mut st = CycleState::Path(None);
        let guard = CycleGuard::Path(vec![NodeId(0), NodeId(3)].into());
        st.position_after(me, &guard);
        let before = path_of(&st);
        // The steady state: same parent path, so the node's path — the one
        // allocation every relayed guard shares — is left in place.
        assert!(!st.position_after(me, &guard));
        assert!(Arc::ptr_eq(&before, &path_of(&st)));
        // A shorter, longer or different parent path moves the node.
        for other in [vec![NodeId(0)], vec![NodeId(0), NodeId(3), NodeId(4)]] {
            assert!(st.position_after(me, &CycleGuard::Path(other.clone().into())));
            assert_eq!(path_of(&st)[..other.len()], other[..]);
            assert_eq!(path_of(&st).last(), Some(&me));
        }
        assert!(st.position_after(me, &CycleGuard::Path(vec![NodeId(1)].into())));
        assert_eq!(&*path_of(&st), [NodeId(1), me]);
    }

    /// The one DAG admission rule: shallower senders are accepted, deeper
    /// ones never, and one at the node's own depth only from a lower
    /// identifier or when the node has no parent.
    #[test]
    fn depth_guard_rejects_deeper_senders() {
        let (me, lower, higher) = (NodeId(5), NodeId(1), NodeId(9));
        let mut st = CycleState::Depth(None);
        assert!(
            st.permits(me, higher, &CycleGuard::Depth(5), false),
            "unset depth accepts anything"
        );
        st.position_after(me, &CycleGuard::Depth(2)); // we are now at depth 3
        for from in [lower, higher] {
            for orphaned in [false, true] {
                assert!(st.permits(me, from, &CycleGuard::Depth(2), orphaned));
                assert!(st.permits(me, from, &CycleGuard::Depth(0), orphaned));
                for deeper in [4, 9] {
                    assert!(
                        !st.permits(me, from, &CycleGuard::Depth(deeper), orphaned),
                        "deeper node rejected"
                    );
                }
            }
        }
        let same = CycleGuard::Depth(3);
        assert!(
            st.permits(me, lower, &same, false),
            "same depth from a lower identifier accepted (the node then moves one level deeper)"
        );
        assert!(
            !st.permits(me, higher, &same, false),
            "same depth from a higher identifier rejected while a parent is held"
        );
        assert!(
            st.permits(me, higher, &same, true),
            "same depth accepted by a node without a parent"
        );
    }

    #[test]
    fn a_parent_reveals_a_cycle_only_through_a_path() {
        let me = NodeId(4);
        let tree = CycleState::Path(None);
        let through = CycleGuard::Path(vec![NodeId(0), me, NodeId(2)].into());
        assert!(tree.reveals_cycle(me, &through));
        assert!(!tree.reveals_cycle(me, &CycleGuard::Path(vec![NodeId(0)].into())));
        // A parent's depth label, however deep, is no cycle.
        let mut dag = CycleState::Depth(None);
        dag.position_after(me, &CycleGuard::Depth(1));
        assert!(!dag.reveals_cycle(me, &CycleGuard::Depth(9)));
        assert!(
            !dag.reveals_cycle(me, &through),
            "mixed modes reveal nothing"
        );
    }

    #[test]
    fn only_a_moved_depth_label_is_pushed_to_the_children() {
        let me = NodeId(4);
        let mut tree = CycleState::Path(None);
        let path = CycleGuard::Path(vec![NodeId(0)].into());
        assert_eq!(tree.follow(me, &path), None, "a moved path is not pushed");
        assert_eq!(tree.position(), Some(1));
        let mut dag = CycleState::Depth(None);
        assert_eq!(dag.follow(me, &CycleGuard::Depth(1)), Some(2));
        assert_eq!(dag.follow(me, &CycleGuard::Depth(0)), None, "unmoved");
        assert_eq!(dag.follow(me, &CycleGuard::Depth(2)), Some(3));
    }

    #[test]
    fn a_tree_has_an_exact_path_and_a_dag_a_depth_label() {
        let tree = CycleState::for_mode(StructureMode::Tree);
        let dag = CycleState::for_mode(StructureMode::Dag { parents: 2 });
        assert_eq!((tree.is_exact(), tree), (true, CycleState::Path(None)));
        assert_eq!((dag.is_exact(), dag), (false, CycleState::Depth(None)));
    }

    #[test]
    fn depth_moves_down_when_hearing_from_same_depth() {
        let mut st = CycleState::Depth(None);
        st.position_after(NodeId(1), &CycleGuard::Depth(1)); // depth 2
        assert_eq!(st.position(), Some(2));
        // A message from a node at depth 2 (our own depth) pushes us to 3.
        let changed = st.position_after(NodeId(1), &CycleGuard::Depth(2));
        assert!(changed);
        assert_eq!(st.position(), Some(3));
        // A message from a shallower node does not pull us back up.
        assert!(!st.position_after(NodeId(1), &CycleGuard::Depth(0)));
        assert_eq!(st.position(), Some(3));
    }

    #[test]
    fn hostile_max_depth_saturates() {
        // A fresh node hearing `Depth(u32::MAX)` (a data guard or a
        // `DepthUpdate` from a DAG parent) stays as deep as it can go.
        let mut st = CycleState::Depth(None);
        assert!(st.position_after(NodeId(1), &CycleGuard::Depth(u32::MAX)));
        assert_eq!(st.position(), Some(u32::MAX as usize));
        assert!(!st.position_after(NodeId(1), &CycleGuard::Depth(u32::MAX)));
        assert_eq!(st.position(), Some(u32::MAX as usize));
    }

    #[test]
    fn reset_forgets_position() {
        let mut st = CycleState::Path(None);
        st.position_after(NodeId(4), &CycleGuard::Path(vec![NodeId(0)].into()));
        assert!(!st.is_unset());
        st.reset();
        assert!(st.is_unset());
        assert_eq!(st.position(), None);
        // After a reset any candidate is acceptable again (hard repair).
        assert!(!st.permits(
            NodeId(4),
            NodeId(0),
            &CycleGuard::Path(vec![NodeId(0), NodeId(4)].into()),
            true
        ));
        // Path mode stays exact even after reset: the check is on the
        // incoming path, which still contains us.
        let mut dag = CycleState::Depth(None);
        dag.position_after(NodeId(4), &CycleGuard::Depth(0));
        dag.reset();
        assert!(dag.permits(NodeId(4), NodeId(9), &CycleGuard::Depth(10), false));
    }

    #[test]
    fn guards_report_sizes_and_hops() {
        let p = CycleGuard::Path(vec![NodeId(0), NodeId(1), NodeId(2)].into());
        assert_eq!(p.wire_size(), 1 + 2 + 3 * NodeId::WIRE_SIZE);
        assert_eq!(p.sender_depth(), 2, "three ids: source, one relay, sender");
        let d = CycleGuard::Depth(9);
        assert_eq!(d.wire_size(), 5);
        assert_eq!(d.sender_depth(), 9);
        let mut me = CycleState::Path(None);
        me.position_after(NodeId(3), &p);
        assert_eq!(me.position(), Some(p.sender_depth() + 1));
    }

    #[test]
    fn unset_outgoing_guards() {
        let t = CycleState::Path(None);
        assert_eq!(
            t.outgoing_guard(NodeId(5)),
            CycleGuard::Path(vec![NodeId(5)].into())
        );
        let d = CycleState::Depth(None);
        assert_eq!(d.outgoing_guard(NodeId(5)), CycleGuard::Depth(0));
    }

    #[test]
    fn bloom_has_no_false_negatives_and_expected_size() {
        let mut bloom = BloomMembership::with_false_positive_rate(1000, 1e-3);
        for i in 0..1000u32 {
            bloom.insert(NodeId(i));
        }
        for i in 0..1000u32 {
            assert!(bloom.contains(NodeId(i)), "no false negatives");
        }
        // False positive rate should be in the right ballpark (allow 10x).
        let fps = (10_000..20_000u32)
            .filter(|&i| bloom.contains(NodeId(i)))
            .count();
        assert!(fps < 100, "false positives way above target: {fps}");
        // The paper's point: the filter is orders of magnitude larger than a
        // short path (7 hops * 6 bytes = 42 bytes).
        assert!(bloom.wire_size() > 1000);
    }

    #[test]
    fn small_bloom_filters_reach_the_rate_they_are_sized_for() {
        // The ablation's cells: a tree path of 4–10 hops in a filter sized
        // for exactly that many items at 1e-6. 100 000 absent identifiers
        // should admit 0.1 false positives on average; two is already a
        // 1-in-200 event for a filter that meets its rate.
        for n in [4u32, 6, 7, 10] {
            let mut bloom = BloomMembership::with_false_positive_rate(n as usize, 1e-6);
            for i in 0..n {
                bloom.insert(NodeId(i));
            }
            assert!(
                (0..n).all(|i| bloom.contains(NodeId(i))),
                "no false negatives"
            );
            let fps = (n..n + 100_000)
                .filter(|&i| bloom.contains(NodeId(i)))
                .count();
            assert!(
                fps <= 2,
                "{n} items at 1e-6: {fps} of 100 000 absent ids admitted"
            );
        }
    }

    #[test]
    fn bloom_size_matches_paper_example_order_of_magnitude() {
        // 1e6 nodes at 1e-6 false positive probability: the paper quotes
        // 28,755,176 bits. Our sizing formula should land within a few
        // percent of that.
        let bloom = BloomMembership::with_false_positive_rate(1_000_000, 1e-6);
        let bits = bloom.num_bits() as f64;
        assert!(
            (bits - 28_755_176.0).abs() / 28_755_176.0 < 0.05,
            "bits = {bits}"
        );
    }

    #[test]
    fn mixed_modes_are_rejected() {
        let t = CycleState::Path(None);
        assert!(!t.permits(NodeId(0), NodeId(1), &CycleGuard::Depth(1), true));
        let mut t2 = CycleState::Path(None);
        assert!(!t2.position_after(NodeId(0), &CycleGuard::Depth(1)));
        let d = CycleState::Depth(None);
        assert!(!d.permits(NodeId(0), NodeId(1), &CycleGuard::Path(Arc::from([])), true));
    }
}
