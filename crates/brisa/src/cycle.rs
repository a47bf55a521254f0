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
//!   smaller depth. Approximate (false negatives possible) but
//!   constant-size.
//!
//! Every rule that reads a path or a depth label is [`CycleState`]'s, and
//! one rule, [`CycleState::permits`], decides both whom a node adopts and
//! whom it keeps: a current parent whose data fails it is dropped, as a
//! tree parent whose path runs through the node is. A depth label is taken
//! once, from the data the node first adopts on, and kept until a hard
//! repair forgets it ([`CycleState::reset`]); nothing pushes it.
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

    /// Whether a sender whose data carries `guard` may be a parent of `me`,
    /// adopted or kept, without creating a cycle.
    ///
    /// * Path mode: `me` must not appear in the sender's path.
    /// * Depth mode: an unknown depth accepts anything; a known one accepts
    ///   only a strictly shallower sender (Section II-G).
    pub fn permits(&self, me: NodeId, guard: &CycleGuard) -> bool {
        match (self, guard) {
            (CycleState::Path(_), CycleGuard::Path(path)) => !path.contains(&me),
            (CycleState::Depth(None), CycleGuard::Depth(_)) => true,
            (CycleState::Depth(Some(d)), CycleGuard::Depth(sender)) => sender < d,
            // Mixed modes never occur in a well-configured system; be
            // conservative and reject.
            _ => false,
        }
    }

    /// Updates the node's position after *delivering* a message carrying
    /// `guard` from an accepted parent: a path follows the parent's, a
    /// depth label is taken only by a node that has none. Returns `true` if
    /// the position changed.
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
            (CycleState::Depth(my_depth @ None), CycleGuard::Depth(sender_depth)) => {
                // The depth comes off the wire: a hostile `u32::MAX` pins
                // the node at the bottom instead of wrapping it to the root.
                *my_depth = Some(sender_depth.saturating_add(1));
                true
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
            !st.permits(NodeId(3), &guard),
            "node on the path is rejected"
        );
        assert!(
            st.permits(NodeId(5), &guard),
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

    /// The one DAG rule: an unpositioned node accepts any sender; a
    /// positioned one only a strictly shallower sender, never one at its
    /// own depth or deeper, whether it holds a parent or not.
    #[test]
    fn depth_guard_rejects_deeper_senders() {
        let me = NodeId(5);
        let mut st = CycleState::Depth(None);
        assert!(
            st.permits(me, &CycleGuard::Depth(5)),
            "unset depth accepts anything"
        );
        st.position_after(me, &CycleGuard::Depth(2)); // we are now at depth 3
        for shallower in [0, 2] {
            assert!(st.permits(me, &CycleGuard::Depth(shallower)));
        }
        for not_shallower in [3, 4, 9] {
            assert!(
                !st.permits(me, &CycleGuard::Depth(not_shallower)),
                "depth {not_shallower} rejected at depth 3"
            );
        }
    }

    /// The rule that admits a parent also keeps it: data from a current
    /// parent that the rule refuses (a path through this node, a depth
    /// label no longer shallower than this node's) ends the parenthood.
    #[test]
    fn a_current_parent_is_kept_only_while_the_rule_permits_it() {
        let me = NodeId(4);
        let mut tree = CycleState::Path(None);
        tree.position_after(me, &CycleGuard::Path(vec![NodeId(0)].into()));
        assert!(tree.permits(me, &CycleGuard::Path(vec![NodeId(0)].into())));
        let through = CycleGuard::Path(vec![NodeId(0), me, NodeId(2)].into());
        assert!(!tree.permits(me, &through));
        let mut dag = CycleState::Depth(None);
        dag.position_after(me, &CycleGuard::Depth(1)); // depth 2
        assert!(dag.permits(me, &CycleGuard::Depth(1)));
        for moved in [2, 9] {
            assert!(!dag.permits(me, &CycleGuard::Depth(moved)));
        }
        assert!(!dag.permits(me, &through), "mixed modes are refused");
    }

    #[test]
    fn a_tree_has_an_exact_path_and_a_dag_a_depth_label() {
        let tree = CycleState::for_mode(StructureMode::Tree);
        let dag = CycleState::for_mode(StructureMode::Dag { parents: 2 });
        assert_eq!(tree, CycleState::Path(None));
        assert_eq!(dag, CycleState::Depth(None));
    }

    /// A depth label is taken once, from the first accepted data, and
    /// nothing moves it, deeper or shallower, until a reset.
    #[test]
    fn a_depth_label_is_fixed_until_reset() {
        let me = NodeId(1);
        let mut st = CycleState::Depth(None);
        assert!(st.position_after(me, &CycleGuard::Depth(1)));
        assert_eq!(st.position(), Some(2));
        for other in [0, 2, 7] {
            assert!(!st.position_after(me, &CycleGuard::Depth(other)));
            assert_eq!(st.position(), Some(2));
        }
        st.reset();
        assert!(st.position_after(me, &CycleGuard::Depth(7)));
        assert_eq!(st.position(), Some(8));
    }

    #[test]
    fn hostile_max_depth_saturates() {
        // A fresh node hearing `Depth(u32::MAX)` in a data guard stays as
        // deep as it can go.
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
        // Path mode stays exact even after reset: the check is on the
        // incoming path, which still contains us.
        assert!(!st.permits(
            NodeId(4),
            &CycleGuard::Path(vec![NodeId(0), NodeId(4)].into())
        ));
        // After a reset any depth is acceptable again (hard repair).
        let mut dag = CycleState::Depth(None);
        dag.position_after(NodeId(4), &CycleGuard::Depth(0));
        dag.reset();
        assert!(dag.permits(NodeId(4), &CycleGuard::Depth(10)));
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
        assert!(!t.permits(NodeId(0), &CycleGuard::Depth(1)));
        let mut t2 = CycleState::Path(None);
        assert!(!t2.position_after(NodeId(0), &CycleGuard::Depth(1)));
        let d = CycleState::Depth(None);
        assert!(!d.permits(NodeId(0), &CycleGuard::Path(Arc::from([]))));
    }
}
