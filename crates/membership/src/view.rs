//! A bounded partial view of the system.
//!
//! Both HyParView views (active and passive) and the Cyclon cache are small,
//! bounded sets of node identifiers with random sampling operations. This
//! module provides the shared container. A view of at most `N` entries is
//! stored inline, in the node's simulator slot; a larger one is one heap
//! allocation of its capacity, as before.

use brisa_simnet::{InlineVec, NodeId, INLINE_TABLE};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// A bounded, duplicate-free set of node identifiers with uniform random
/// sampling helpers, inline up to `N` entries.
#[derive(Debug, Clone)]
pub struct BoundedView<const N: usize = INLINE_TABLE> {
    capacity: usize,
    nodes: InlineVec<NodeId, N>,
}

impl BoundedView {
    /// Creates an empty view with the given capacity, inline up to
    /// [`INLINE_TABLE`] entries.
    pub fn new(capacity: usize) -> Self {
        Self::with_inline(capacity)
    }
}

impl<const N: usize> BoundedView<N> {
    /// Creates an empty view with the given capacity, inline up to `N`
    /// entries.
    pub fn with_inline(capacity: usize) -> Self {
        BoundedView {
            capacity,
            nodes: InlineVec::with_capacity(capacity),
        }
    }

    /// Maximum number of entries the view may hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes the view holds on the heap (its allocated capacity, not its
    /// length; 0 while the entries are inline, which `size_of` counts).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.heap_bytes()
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the view has no entries.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True if the view holds `capacity` or more entries.
    pub fn is_full(&self) -> bool {
        self.nodes.len() >= self.capacity
    }

    /// True if `node` is in the view.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Adds `node` if not already present and if the view is not full.
    /// Returns true if the node was added.
    pub fn push_unique(&mut self, node: NodeId) -> bool {
        if self.contains(node) || self.is_full() {
            return false;
        }
        self.nodes.push(node);
        true
    }

    /// Adds `node` unconditionally (unless already present), growing past
    /// the capacity. Used by HyParView's expansion-factor mechanism where
    /// the active view may temporarily exceed its target size.
    pub fn push_unbounded(&mut self, node: NodeId) -> bool {
        if self.contains(node) {
            return false;
        }
        self.nodes.push(node);
        true
    }

    /// Removes `node`, returning true if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        if let Some(pos) = self.nodes.iter().position(|&n| n == node) {
            self.nodes.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes and returns a uniformly random entry.
    pub fn drop_random(&mut self, rng: &mut SmallRng) -> Option<NodeId> {
        if self.nodes.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..self.nodes.len());
        Some(self.nodes.swap_remove(idx))
    }

    /// A uniformly random entry, if any.
    pub fn random(&self, rng: &mut SmallRng) -> Option<NodeId> {
        self.nodes.choose(rng).copied()
    }

    /// A uniformly random entry different from every element of `exclude`.
    pub fn random_excluding(&self, rng: &mut SmallRng, exclude: &[NodeId]) -> Option<NodeId> {
        self.random_where(rng, |n| !exclude.contains(&n))
    }

    /// A uniformly random entry among those `keep` accepts. Counts, then
    /// walks to the drawn rank, instead of collecting the candidates: the
    /// draw is the one [`SliceRandom::choose`] would make over the collected
    /// slice — a single `next_u64() % count`, and none at all when nothing
    /// qualifies — so the node's RNG stream is the same either way.
    pub fn random_where(
        &self,
        rng: &mut SmallRng,
        keep: impl Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        let candidates = || self.nodes.iter().copied().filter(|&n| keep(n));
        let count = candidates().count();
        if count == 0 {
            return None;
        }
        candidates().nth((rng.next_u64() % count as u64) as usize)
    }

    /// A uniformly random sample of up to `n` distinct entries.
    pub fn sample(&self, rng: &mut SmallRng, n: usize) -> Vec<NodeId> {
        let mut shuffled = self.nodes.to_vec();
        shuffled.shuffle(rng);
        shuffled.truncate(n);
        shuffled
    }

    /// Appends what [`Self::sample`] would return to `out`, shuffling in
    /// `out`'s own tail instead of a scratch copy (same draws, same picks):
    /// with `out` reserved up front, building a shuffle message is one
    /// allocation.
    pub fn sample_into(&self, rng: &mut SmallRng, n: usize, out: &mut Vec<NodeId>) {
        let start = out.len();
        out.extend_from_slice(&self.nodes);
        out[start..].shuffle(rng);
        out.truncate(start + n.min(self.nodes.len()));
    }

    /// All entries, in unspecified order.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn push_respects_capacity_and_uniqueness() {
        let mut v = BoundedView::new(2);
        assert!(v.push_unique(NodeId(1)));
        assert!(!v.push_unique(NodeId(1)), "duplicates rejected");
        assert!(v.push_unique(NodeId(2)));
        assert!(v.is_full());
        assert!(!v.push_unique(NodeId(3)), "full view rejects");
        assert!(
            v.push_unbounded(NodeId(3)),
            "unbounded push grows past capacity"
        );
        assert_eq!(v.len(), 3);
        assert!(
            !v.push_unbounded(NodeId(3)),
            "unbounded push still rejects duplicates"
        );
    }

    #[test]
    fn remove_and_drop_random() {
        let mut v = BoundedView::new(4);
        for i in 0..4 {
            v.push_unique(NodeId(i));
        }
        assert!(v.remove(NodeId(2)));
        assert!(!v.remove(NodeId(2)));
        assert!(!v.contains(NodeId(2)));
        let mut r = rng();
        let dropped = v.drop_random(&mut r).unwrap();
        assert!(!v.contains(dropped));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn drop_random_on_empty_is_none() {
        let mut v = BoundedView::new(2);
        assert_eq!(v.drop_random(&mut rng()), None);
        assert_eq!(v.random(&mut rng()), None);
    }

    #[test]
    fn sampling_is_distinct_and_bounded() {
        let mut v = BoundedView::new(10);
        for i in 0..10 {
            v.push_unique(NodeId(i));
        }
        let mut r = rng();
        let s = v.sample(&mut r, 4);
        assert_eq!(s.len(), 4);
        let mut dedup = s.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        // Sampling more than available returns everything.
        assert_eq!(v.sample(&mut r, 100).len(), 10);
    }

    #[test]
    fn sample_into_appends_exactly_what_sample_returns() {
        let mut v = BoundedView::new(10);
        for i in 0..7 {
            v.push_unique(NodeId(i));
        }
        let (mut a, mut b) = (rng(), rng());
        for n in [0, 1, 3, 7, 12] {
            let mut out = vec![NodeId(99)];
            v.sample_into(&mut a, n, &mut out);
            assert_eq!(out[0], NodeId(99));
            assert_eq!(out[1..], v.sample(&mut b, n)[..]);
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn random_excluding_avoids_excluded() {
        let mut v = BoundedView::new(3);
        v.push_unique(NodeId(1));
        v.push_unique(NodeId(2));
        let mut r = rng();
        for _ in 0..20 {
            let pick = v.random_excluding(&mut r, &[NodeId(1)]).unwrap();
            assert_eq!(pick, NodeId(2));
        }
        assert_eq!(v.random_excluding(&mut r, &[NodeId(1), NodeId(2)]), None);
    }

    #[test]
    fn random_where_draws_exactly_like_choose_over_the_collected_candidates() {
        // The pre-vector implementation, kept as the oracle: HyParView and
        // every fingerprint downstream ride on this RNG stream.
        fn collected(v: &BoundedView, rng: &mut SmallRng, exclude: &[NodeId]) -> Option<NodeId> {
            let candidates: Vec<NodeId> = v
                .nodes
                .iter()
                .copied()
                .filter(|n| !exclude.contains(n))
                .collect();
            candidates.choose(rng).copied()
        }
        let mut v = BoundedView::new(8);
        for i in [5, 1, 7, 3, 2, 9] {
            v.push_unique(NodeId(i));
        }
        let excludes: [&[NodeId]; 5] = [
            &[],
            &[NodeId(1)],
            &[NodeId(5), NodeId(9), NodeId(4)],
            &[NodeId(5), NodeId(1), NodeId(7), NodeId(3), NodeId(2)],
            &[
                NodeId(5),
                NodeId(1),
                NodeId(7),
                NodeId(3),
                NodeId(2),
                NodeId(9),
            ],
        ];
        let (mut new_rng, mut old_rng) = (rng(), rng());
        for round in 0..200 {
            let exclude = excludes[round % excludes.len()];
            assert_eq!(
                v.random_excluding(&mut new_rng, exclude),
                collected(&v, &mut old_rng, exclude)
            );
            // Same number of draws, including none when nothing qualifies.
            assert_eq!(new_rng.next_u64(), old_rng.next_u64());
        }
    }

    #[test]
    fn clear_empties_view() {
        let mut v = BoundedView::new(3);
        v.push_unique(NodeId(1));
        v.clear();
        assert!(v.is_empty());
    }
}
