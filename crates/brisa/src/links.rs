//! Per-neighbor link state.
//!
//! BRISA never removes entries from the HyParView active view; it only marks
//! links as *active* or *inactive* for the purpose of stream dissemination
//! (Section II-C). Each node tracks, for every overlay neighbor:
//!
//! * whether the neighbor is one of its **parents** (selected inbound links);
//! * whether the node has asked the neighbor to stop relaying to it
//!   (**inbound deactivated**);
//! * whether the neighbor has asked this node to stop relaying to it
//!   (**outbound inactive**).
//!
//! Children are the neighbors with an active outbound link that are not
//! parents; they determine the node's degree in the emerged structure.

use brisa_simnet::{InlineVec, NodeId};

/// This neighbor is one of our parents.
const PARENT: u8 = 1 << 0;
/// We asked this neighbor to stop relaying to us.
const INBOUND_DEACTIVATED: u8 = 1 << 1;
/// This neighbor asked us to stop relaying to it.
const OUTBOUND_INACTIVE: u8 = 1 << 2;

#[derive(Debug, Clone, Copy)]
struct Link {
    peer: NodeId,
    flags: u8,
}

impl Link {
    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// Dissemination link state towards every current overlay neighbor.
///
/// One flat table sorted by [`NodeId`] — at most the active-view size, a
/// handful of entries, stored inline in the node's slot — so every
/// per-message question (is the sender a neighbor, a parent; who are the
/// children) is answered from one cache line the look-ahead prefetched,
/// and every accessor iterates in ascending identifier order, which keeps
/// relay fan-out order, and with it the simulation, deterministic.
///
/// Link state exists only for current neighbors: marking or adopting a
/// peer that is not in the table is a no-op (the protocol core adopts
/// neighbors only, and a neighbor that comes back starts fully active).
#[derive(Debug, Clone, Default)]
pub struct Links {
    table: InlineVec<Link>,
}

impl Links {
    /// Creates an empty link table.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, peer: NodeId) -> Result<usize, usize> {
        self.table.binary_search_by_key(&peer, |l| l.peer)
    }

    fn link(&self, peer: NodeId) -> Option<&Link> {
        self.slot(peer).ok().map(|i| &self.table[i])
    }

    fn link_mut(&mut self, peer: NodeId) -> Option<&mut Link> {
        self.slot(peer).ok().map(|i| &mut self.table[i])
    }

    fn peers_without(&self, flags: u8) -> impl Iterator<Item = NodeId> + '_ {
        self.table
            .iter()
            .filter(move |l| !l.has(flags))
            .map(|l| l.peer)
    }

    /// Registers a new overlay neighbor. New links start fully active in
    /// both directions ("BRISA automatically marks links to new nodes as
    /// active", Section II-F).
    pub fn neighbor_up(&mut self, peer: NodeId) {
        match self.slot(peer) {
            Ok(i) => self.table[i].flags &= PARENT,
            Err(i) => self.table.insert(i, Link { peer, flags: 0 }),
        }
    }

    /// Removes an overlay neighbor entirely (it failed or was evicted).
    /// Returns `true` if the neighbor was one of our parents.
    pub fn neighbor_down(&mut self, peer: NodeId) -> bool {
        self.slot(peer)
            .is_ok_and(|i| self.table.remove(i).has(PARENT))
    }

    /// True if `peer` is a current overlay neighbor.
    pub fn is_neighbor(&self, peer: NodeId) -> bool {
        self.slot(peer).is_ok()
    }

    /// All current overlay neighbors.
    pub fn neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.table.iter().map(|l| l.peer)
    }

    /// Number of overlay neighbors.
    pub fn neighbor_count(&self) -> usize {
        self.table.len()
    }

    /// Current parents (selected inbound links).
    pub fn parents(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.table.iter().filter(|l| l.has(PARENT)).map(|l| l.peer)
    }

    /// Number of current parents.
    pub fn parent_count(&self) -> usize {
        self.parents().count()
    }

    /// True if `peer` is one of our parents.
    pub fn is_parent(&self, peer: NodeId) -> bool {
        self.link(peer).is_some_and(|l| l.has(PARENT))
    }

    /// Adopts `peer` as a parent (also re-activates its inbound link).
    pub fn adopt_parent(&mut self, peer: NodeId) {
        if let Some(l) = self.link_mut(peer) {
            l.flags = (l.flags | PARENT) & !INBOUND_DEACTIVATED;
        }
    }

    /// Drops `peer` from the parent set without touching the neighbor entry.
    pub fn drop_parent(&mut self, peer: NodeId) -> bool {
        self.link_mut(peer).is_some_and(|l| {
            let was_parent = l.has(PARENT);
            l.flags &= !PARENT;
            was_parent
        })
    }

    /// Marks the inbound link from `peer` as deactivated (we asked it to
    /// stop relaying to us).
    pub fn deactivate_inbound(&mut self, peer: NodeId) {
        if let Some(l) = self.link_mut(peer) {
            l.flags = (l.flags | INBOUND_DEACTIVATED) & !PARENT;
        }
    }

    /// Re-activates the inbound link from `peer`.
    pub fn reactivate_inbound(&mut self, peer: NodeId) {
        if let Some(l) = self.link_mut(peer) {
            l.flags &= !INBOUND_DEACTIVATED;
        }
    }

    /// Re-activates every inbound link (soft/hard repair fallback).
    pub fn reactivate_all_inbound(&mut self) {
        for l in self.table.iter_mut() {
            l.flags &= !INBOUND_DEACTIVATED;
        }
    }

    /// Neighbors whose inbound link is still active (they may relay stream
    /// data to us).
    pub fn inbound_active(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.peers_without(INBOUND_DEACTIVATED)
    }

    /// Number of neighbors whose inbound link is still active.
    pub fn inbound_active_count(&self) -> usize {
        self.inbound_active().count()
    }

    /// Marks the outbound link towards `peer` inactive (it asked us to stop
    /// relaying to it).
    pub fn deactivate_outbound(&mut self, peer: NodeId) {
        if let Some(l) = self.link_mut(peer) {
            l.flags |= OUTBOUND_INACTIVE;
        }
    }

    /// Re-activates the outbound link towards `peer`.
    pub fn reactivate_outbound(&mut self, peer: NodeId) {
        if let Some(l) = self.link_mut(peer) {
            l.flags &= !OUTBOUND_INACTIVE;
        }
    }

    /// True if this node currently relays stream data to `peer`.
    pub fn is_outbound_active(&self, peer: NodeId) -> bool {
        self.link(peer).is_some_and(|l| !l.has(OUTBOUND_INACTIVE))
    }

    /// Neighbors this node relays stream data to (outbound-active links).
    pub fn outbound_active(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.peers_without(OUTBOUND_INACTIVE)
    }

    /// Children in the emerged structure: outbound-active neighbors that are
    /// not parents. Their number is the node's degree (Figure 7).
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.peers_without(OUTBOUND_INACTIVE | PARENT)
    }

    /// True if `peer` is one of [`Self::children`].
    pub fn is_child(&self, peer: NodeId) -> bool {
        self.link(peer)
            .is_some_and(|l| !l.has(OUTBOUND_INACTIVE | PARENT))
    }

    /// Number of children (the node's out-degree in the structure).
    pub fn degree(&self) -> usize {
        self.children().count()
    }

    /// Heap bytes the table occupies at its allocated capacity: 0 until it
    /// outgrows its inline storage.
    pub fn approx_heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The link state this module replaced — four ordered sets, consulted
    /// one after the other — kept as the differential oracle.
    #[derive(Default)]
    struct SetLinksModel {
        neighbors: BTreeSet<NodeId>,
        parents: BTreeSet<NodeId>,
        inbound_deactivated: BTreeSet<NodeId>,
        outbound_inactive: BTreeSet<NodeId>,
    }

    impl SetLinksModel {
        fn neighbor_up(&mut self, peer: NodeId) {
            self.neighbors.insert(peer);
            self.inbound_deactivated.remove(&peer);
            self.outbound_inactive.remove(&peer);
        }

        fn neighbor_down(&mut self, peer: NodeId) -> bool {
            self.neighbors.remove(&peer);
            self.inbound_deactivated.remove(&peer);
            self.outbound_inactive.remove(&peer);
            self.parents.remove(&peer)
        }

        fn adopt_parent(&mut self, peer: NodeId) {
            self.parents.insert(peer);
            self.inbound_deactivated.remove(&peer);
        }

        fn deactivate_inbound(&mut self, peer: NodeId) {
            self.inbound_deactivated.insert(peer);
            self.parents.remove(&peer);
        }

        fn inbound_active(&self) -> Vec<NodeId> {
            self.neighbors
                .iter()
                .copied()
                .filter(|p| !self.inbound_deactivated.contains(p))
                .collect()
        }

        fn is_outbound_active(&self, peer: NodeId) -> bool {
            self.neighbors.contains(&peer) && !self.outbound_inactive.contains(&peer)
        }

        fn outbound_active(&self) -> Vec<NodeId> {
            self.neighbors
                .iter()
                .copied()
                .filter(|p| !self.outbound_inactive.contains(p))
                .collect()
        }

        fn children(&self) -> Vec<NodeId> {
            self.neighbors
                .iter()
                .copied()
                .filter(|p| !self.outbound_inactive.contains(p) && !self.parents.contains(p))
                .collect()
        }
    }

    fn collect(it: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
        it.collect()
    }

    #[test]
    fn a_table_past_its_inline_storage_books_its_heap() {
        let mut links = Links::new();
        for p in (0..8).rev() {
            links.neighbor_up(NodeId(p));
        }
        assert_eq!(links.approx_heap_bytes(), 0, "inline: size_of counts it");
        for p in (8..12).rev() {
            links.neighbor_up(NodeId(p));
        }
        assert_eq!(links.approx_heap_bytes(), 16 * std::mem::size_of::<Link>());
        assert!(links.neighbors().eq((0..12).map(NodeId)), "still sorted");
    }

    #[test]
    fn new_neighbors_are_fully_active() {
        let mut l = Links::new();
        l.neighbor_up(NodeId(1));
        l.neighbor_up(NodeId(2));
        assert!(l.is_neighbor(NodeId(1)));
        assert_eq!(l.inbound_active_count(), 2);
        assert_eq!(l.outbound_active().count(), 2);
        assert_eq!(l.degree(), 2);
        assert_eq!(l.parent_count(), 0);
    }

    #[test]
    fn adopt_and_drop_parent() {
        let mut l = Links::new();
        l.neighbor_up(NodeId(1));
        l.adopt_parent(NodeId(1));
        assert!(l.is_parent(NodeId(1)));
        assert_eq!(l.children().count(), 0, "parents are not children");
        assert!(l.drop_parent(NodeId(1)));
        assert!(!l.drop_parent(NodeId(1)));
        assert_eq!(l.degree(), 1);
    }

    #[test]
    fn deactivation_bookkeeping() {
        let mut l = Links::new();
        for i in 1..=3 {
            l.neighbor_up(NodeId(i));
        }
        l.adopt_parent(NodeId(1));
        l.deactivate_inbound(NodeId(2));
        l.deactivate_inbound(NodeId(3));
        assert_eq!(collect(l.inbound_active()), vec![NodeId(1)]);
        assert_eq!(l.inbound_active_count(), 1);
        l.reactivate_inbound(NodeId(2));
        assert_eq!(l.inbound_active_count(), 2);
        l.reactivate_all_inbound();
        assert_eq!(l.inbound_active_count(), 3);
        // Deactivating the inbound link of a parent also drops it as parent.
        l.deactivate_inbound(NodeId(1));
        assert!(!l.is_parent(NodeId(1)));
    }

    #[test]
    fn outbound_deactivation_shrinks_children() {
        let mut l = Links::new();
        for i in 1..=3 {
            l.neighbor_up(NodeId(i));
        }
        l.adopt_parent(NodeId(1));
        l.deactivate_outbound(NodeId(2));
        assert!(!l.is_outbound_active(NodeId(2)));
        assert!(l.is_outbound_active(NodeId(3)));
        assert_eq!(collect(l.children()), vec![NodeId(3)]);
        assert_eq!(l.degree(), 1);
        l.reactivate_outbound(NodeId(2));
        assert_eq!(l.degree(), 2);
    }

    #[test]
    fn neighbor_down_cleans_up_and_reports_parent_loss() {
        let mut l = Links::new();
        l.neighbor_up(NodeId(1));
        l.neighbor_up(NodeId(2));
        l.adopt_parent(NodeId(1));
        l.deactivate_outbound(NodeId(2));
        assert!(l.neighbor_down(NodeId(1)), "losing a parent is reported");
        assert!(!l.neighbor_down(NodeId(2)), "losing a non-parent is not");
        assert_eq!(l.neighbor_count(), 0);
        // Re-adding a neighbor that had a deactivated link starts fresh.
        l.neighbor_up(NodeId(2));
        assert!(l.is_outbound_active(NodeId(2)));
    }

    #[test]
    fn non_neighbor_is_never_outbound_active() {
        let l = Links::new();
        assert!(!l.is_outbound_active(NodeId(9)));
    }

    #[test]
    fn marks_on_non_neighbors_are_ignored() {
        let mut l = Links::new();
        l.adopt_parent(NodeId(4));
        l.deactivate_inbound(NodeId(4));
        l.deactivate_outbound(NodeId(4));
        assert_eq!((l.neighbor_count(), l.parent_count()), (0, 0));
        // The peer then arrives fully active, as any new neighbor does.
        l.neighbor_up(NodeId(4));
        assert_eq!(l.inbound_active_count(), 1);
        assert!(l.is_outbound_active(NodeId(4)) && !l.is_parent(NodeId(4)));
    }

    proptest! {
        /// Old and new link state agree on every accessor, element for
        /// element and in the same order, after every step of an arbitrary
        /// sequence of membership and activation events. Peers are drawn
        /// from a range wider than the table ever holds, so marks on
        /// non-neighbors and re-arrivals are exercised; `adopt_parent` is
        /// applied to neighbors only, its one precondition (the protocol
        /// core checks `is_neighbor` before adopting).
        #[test]
        fn flat_table_matches_the_four_sets(
            ops in proptest::collection::vec((0u8..10, 0u32..7), 1..200),
        ) {
            let mut new = Links::new();
            let mut old = SetLinksModel::default();
            for (op, peer) in ops {
                let peer = NodeId(peer);
                match op {
                    0 | 1 => {
                        new.neighbor_up(peer);
                        old.neighbor_up(peer);
                    }
                    2 => prop_assert_eq!(new.neighbor_down(peer), old.neighbor_down(peer)),
                    3 | 4 if old.neighbors.contains(&peer) => {
                        new.adopt_parent(peer);
                        old.adopt_parent(peer);
                    }
                    3 | 4 => {}
                    5 => prop_assert_eq!(new.drop_parent(peer), old.parents.remove(&peer)),
                    6 => {
                        new.deactivate_inbound(peer);
                        old.deactivate_inbound(peer);
                    }
                    7 => {
                        new.reactivate_inbound(peer);
                        old.inbound_deactivated.remove(&peer);
                    }
                    8 => {
                        new.deactivate_outbound(peer);
                        old.outbound_inactive.insert(peer);
                    }
                    _ if peer.0 == 0 => {
                        new.reactivate_all_inbound();
                        old.inbound_deactivated.clear();
                    }
                    _ => {
                        new.reactivate_outbound(peer);
                        old.outbound_inactive.remove(&peer);
                    }
                }
                prop_assert_eq!(collect(new.neighbors()), collect(old.neighbors.iter().copied()));
                prop_assert_eq!(collect(new.parents()), collect(old.parents.iter().copied()));
                prop_assert_eq!(collect(new.inbound_active()), old.inbound_active());
                prop_assert_eq!(collect(new.outbound_active()), old.outbound_active());
                prop_assert_eq!(collect(new.children()), old.children());
                prop_assert_eq!(new.neighbor_count(), old.neighbors.len());
                prop_assert_eq!(new.parent_count(), old.parents.len());
                prop_assert_eq!(new.inbound_active_count(), old.inbound_active().len());
                prop_assert_eq!(new.degree(), old.children().len());
                for probe in (0..8).map(NodeId) {
                    prop_assert_eq!(new.is_neighbor(probe), old.neighbors.contains(&probe));
                    prop_assert_eq!(new.is_parent(probe), old.parents.contains(&probe));
                    prop_assert_eq!(new.is_outbound_active(probe), old.is_outbound_active(probe));
                }
            }
        }
    }
}
