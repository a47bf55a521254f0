//! Dense, index-addressed per-node link state.
//!
//! The simulator used to keep its connection table in one global
//! `BTreeSet<(NodeId, NodeId)>` (scanned end-to-end on every crash) and its
//! FIFO link clocks in one `HashMap` per sender (hashed on every send).
//! Both are replaced here by per-node sorted vectors addressed by the dense
//! `NodeId` index space:
//!
//! * [`Adjacency`] — per-owner sorted peer lists plus a reverse index
//!   (`incoming[peer]` = owners with an open connection *to* `peer`), so
//!   notifying the peers of a crashed node is O(degree · log degree) instead
//!   of O(total connections).
//! * [`PerLink`] — a generic map `(sender, dest) -> T` stored as one small
//!   sorted vector per sender plus the same reverse-index shape, so all
//!   state involving a crashed node can be dropped in O(degree · log
//!   degree), in place. The fault layer's per-link draw counters
//!   (`PerLink<u64>`) are its one user: the n-th draw on a link is a PRF of
//!   n, so those entries must persist.
//! * [`FifoClocks`] — one sender's FIFO link clocks, which need not: a
//!   clock is dropped the moment it can no longer delay a send, so a
//!   sender's table is its handful of in-flight links. Each node's table
//!   lives inline in its simulator slot (an [`InlineVec`]), beside the RNG a
//!   send already touches, so the look-ahead prefetch brings it in with
//!   the slot.
//!
//! Iteration order over any of these structures is fully deterministic
//! (sorted by `NodeId`), matching the old `BTreeSet` order — required by the
//! determinism contract (`run_matrix` parallel ≡ sequential).

use crate::inline::InlineVec;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

pub(crate) fn ensure_len<T: Default>(v: &mut Vec<T>, index: usize) {
    if v.len() <= index {
        v.resize_with(index + 1, T::default);
    }
}

/// Open connections as per-node sorted adjacency vectors with a reverse
/// index. A connection `(owner, peer)` means `owner` has declared an open
/// connection to `peer` and will receive `on_link_down(peer)` if `peer`
/// crashes.
#[derive(Debug, Default)]
pub(crate) struct Adjacency {
    /// `out[owner]` = peers `owner` has a connection to, sorted.
    out: Vec<Vec<NodeId>>,
    /// `incoming[peer]` = owners with a connection to `peer`, sorted.
    incoming: Vec<Vec<NodeId>>,
}

impl Adjacency {
    /// Inserts the directed connection `(owner, peer)`; no-op if present.
    pub fn insert(&mut self, owner: NodeId, peer: NodeId) {
        ensure_len(&mut self.out, owner.index());
        let list = &mut self.out[owner.index()];
        if let Err(pos) = list.binary_search(&peer) {
            list.insert(pos, peer);
            ensure_len(&mut self.incoming, peer.index());
            let rev = &mut self.incoming[peer.index()];
            if let Err(pos) = rev.binary_search(&owner) {
                rev.insert(pos, owner);
            }
        }
    }

    /// Removes the directed connection `(owner, peer)`; no-op if absent.
    pub fn remove(&mut self, owner: NodeId, peer: NodeId) {
        if let Some(list) = self.out.get_mut(owner.index()) {
            if let Ok(pos) = list.binary_search(&peer) {
                list.remove(pos);
                let rev = &mut self.incoming[peer.index()];
                if let Ok(pos) = rev.binary_search(&owner) {
                    rev.remove(pos);
                }
            }
        }
    }

    /// True if the directed connection `(owner, peer)` is open.
    pub fn contains(&self, owner: NodeId, peer: NodeId) -> bool {
        self.out
            .get(owner.index())
            .is_some_and(|list| list.binary_search(&peer).is_ok())
    }

    /// Owners with an open connection to `node`, sorted ascending — exactly
    /// the peers to notify when `node` crashes.
    pub fn incoming_of(&self, node: NodeId) -> &[NodeId] {
        self.incoming
            .get(node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Drops every connection owned by `node` (its outgoing edges), in
    /// O(degree · log degree). Incoming edges `(owner, node)` stay open
    /// until each owner's link-down notification is processed, mirroring
    /// connection-level failure detection. Storage is cleared in place.
    pub fn clear_outgoing(&mut self, node: NodeId) {
        let Some(list) = self.out.get_mut(node.index()) else {
            return;
        };
        for &peer in list.iter() {
            let rev = &mut self.incoming[peer.index()];
            if let Ok(pos) = rev.binary_search(&node) {
                rev.remove(pos);
            }
        }
        list.clear();
    }

    /// Total number of open directed connections (diagnostic).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Bytes of memory the adjacency vectors occupy (capacities, not
    /// lengths — this is the footprint, not the live entry count).
    pub fn approx_bytes(&self) -> usize {
        let id = std::mem::size_of::<NodeId>();
        let vec = std::mem::size_of::<Vec<NodeId>>();
        std::mem::size_of::<Self>()
            + (self.out.capacity() + self.incoming.capacity()) * vec
            + self
                .out
                .iter()
                .chain(self.incoming.iter())
                .map(|v| v.capacity() * id)
                .sum::<usize>()
    }
}

/// A generic per-directed-link map `(sender, dest) -> T`.
///
/// Stored as one small sorted vector per sender plus a reverse index
/// (`senders_of[dest]` = senders holding an entry towards `dest`, the same
/// shape as [`Adjacency::incoming`]), so that all state involving a node —
/// in either direction — can be dropped in O(degree · log degree) when it
/// crashes. Dropped *in place*, too: the vectors are cleared, not replaced,
/// so a crash allocates nothing. Typical degrees are single-digit, so the
/// binary searches beat SipHash-ing a `HashMap` key.
#[derive(Debug)]
pub(crate) struct PerLink<T> {
    by_sender: Vec<Vec<(NodeId, T)>>,
    /// `senders_of[dest]` = senders with an entry towards `dest`, sorted.
    senders_of: Vec<Vec<NodeId>>,
}

// Derived `Default` would needlessly require `T: Default`.
impl<T> Default for PerLink<T> {
    fn default() -> Self {
        PerLink {
            by_sender: Vec::new(),
            senders_of: Vec::new(),
        }
    }
}

impl<T: Default> PerLink<T> {
    /// Mutable access to the entry of the directed link `sender -> dest`,
    /// initialised to `T::default()`.
    pub fn entry(&mut self, sender: NodeId, dest: NodeId) -> &mut T {
        ensure_len(&mut self.by_sender, sender.index());
        let entries = &mut self.by_sender[sender.index()];
        let pos = match entries.binary_search_by_key(&dest, |(d, _)| *d) {
            Ok(pos) => pos,
            Err(pos) => {
                entries.insert(pos, (dest, T::default()));
                ensure_len(&mut self.senders_of, dest.index());
                let rev = &mut self.senders_of[dest.index()];
                if let Err(rpos) = rev.binary_search(&sender) {
                    rev.insert(rpos, sender);
                }
                pos
            }
        };
        &mut entries[pos].1
    }

    /// Drops every entry involving `node`, in either direction. Called when
    /// `node` crashes: it will never send again, and per-link state towards
    /// a dead destination no longer matters. The reverse index yields the
    /// senders tracking `node` directly, so the whole prune is
    /// O(degree · log degree) — no scan over other nodes' state — and
    /// clears in place, with no allocation.
    pub fn prune(&mut self, node: NodeId) {
        if let Some(own) = self.by_sender.get_mut(node.index()) {
            for (dest, _) in own.iter() {
                let rev = &mut self.senders_of[dest.index()];
                if let Ok(pos) = rev.binary_search(&node) {
                    rev.remove(pos);
                }
            }
            own.clear();
        }
        if let Some(rev) = self.senders_of.get_mut(node.index()) {
            for &sender in rev.iter() {
                let entries = &mut self.by_sender[sender.index()];
                if let Ok(pos) = entries.binary_search_by_key(&node, |(d, _)| *d) {
                    entries.remove(pos);
                }
            }
            rev.clear();
        }
    }
}

impl<T> PerLink<T> {
    /// Number of directed links currently tracked (test/diagnostic hook).
    pub fn tracked_links(&self) -> usize {
        self.by_sender.iter().map(Vec::len).sum()
    }

    /// Capacity of `sender`'s entry vector (test hook: asserts that crash
    /// pruning clears in place rather than reallocating).
    #[cfg(test)]
    pub fn slot_capacity(&self, sender: NodeId) -> usize {
        self.by_sender
            .get(sender.index())
            .map(Vec::capacity)
            .unwrap_or(0)
    }

    /// Every `(sender, dest, value)` triple, in `(sender, dest)` order.
    #[cfg(test)]
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, NodeId, &T)> + '_ {
        self.by_sender
            .iter()
            .enumerate()
            .flat_map(|(s, entries)| entries.iter().map(move |(d, v)| (NodeId(s as u32), *d, v)))
    }
}

/// One sender's FIFO clocks: for each of its links with a message still in
/// flight, the time the last message on it is scheduled to arrive.
///
/// A clock is only ever read as `deliver_at < clock`, every `deliver_at` is
/// at or after the send instant, and simulated time never goes back — so a
/// clock at or before `now` can never bump a send again and forgetting it is
/// unobservable. [`FifoClocks::stamp`] drops such clocks as it passes over
/// them, which bounds the table by the sender's in-flight links (a view's
/// worth) instead of every destination it ever messaged.
#[derive(Debug, Default)]
pub(crate) struct FifoClocks {
    /// `(dest, clock)` in first-send order.
    clocks: InlineVec<(NodeId, SimTime)>,
}

impl FifoClocks {
    /// Schedules a message this sender sends at `now` that the latency and
    /// fault layers would deliver to `dest` at `deliver_at` (≥ `now`):
    /// returns the FIFO-respecting arrival time — one microsecond after the
    /// link's previous arrival if `deliver_at` would overtake it — and
    /// records it as the link's clock. Expired clocks are dropped in the
    /// same pass.
    #[inline]
    pub fn stamp(&mut self, dest: NodeId, now: SimTime, mut deliver_at: SimTime) -> SimTime {
        debug_assert!(
            deliver_at >= now,
            "a message cannot arrive before it is sent"
        );
        let mut found = false;
        self.clocks.retain_mut(|(d, clock)| {
            if *d == dest {
                if deliver_at < *clock {
                    deliver_at = *clock + SimDuration::from_micros(1);
                }
                *clock = deliver_at;
                found = true;
                true
            } else {
                *clock > now
            }
        });
        if !found {
            self.clocks.push((dest, deliver_at));
        }
        deliver_at
    }

    /// Forgets every clock, in place; called when the sender crashes (it
    /// will never send again). Clocks *towards* a crashed node need no
    /// pruning: they only order deliveries that are dropped on arrival, and
    /// they expire like any other, on the sender's next send after the
    /// last of those deliveries.
    pub fn clear(&mut self) {
        self.clocks.clear();
    }

    /// Heap bytes the table occupies: its capacity once spilled past the
    /// inline storage, 0 before (the slot's size already counts that).
    pub fn heap_bytes(&self) -> usize {
        self.clocks.heap_bytes()
    }

    /// Every tracked `(dest, clock)`, in first-send order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, SimTime)> + '_ {
        self.clocks.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn adjacency_insert_remove_contains() {
        let mut adj = Adjacency::default();
        adj.insert(NodeId(1), NodeId(2));
        adj.insert(NodeId(1), NodeId(2)); // duplicate is a no-op
        adj.insert(NodeId(3), NodeId(2));
        adj.insert(NodeId(1), NodeId(0));
        assert!(adj.contains(NodeId(1), NodeId(2)));
        assert!(!adj.contains(NodeId(2), NodeId(1)));
        assert_eq!(adj.len(), 3);
        assert_eq!(adj.incoming_of(NodeId(2)), &[NodeId(1), NodeId(3)]);
        adj.remove(NodeId(1), NodeId(2));
        adj.remove(NodeId(1), NodeId(2)); // absent is a no-op
        assert!(!adj.contains(NodeId(1), NodeId(2)));
        assert_eq!(adj.incoming_of(NodeId(2)), &[NodeId(3)]);
    }

    #[test]
    fn adjacency_clear_outgoing_updates_reverse_index() {
        let mut adj = Adjacency::default();
        adj.insert(NodeId(0), NodeId(1));
        adj.insert(NodeId(0), NodeId(2));
        adj.insert(NodeId(3), NodeId(1));
        adj.clear_outgoing(NodeId(0));
        assert_eq!(adj.len(), 1);
        assert_eq!(adj.incoming_of(NodeId(1)), &[NodeId(3)]);
        assert_eq!(adj.incoming_of(NodeId(2)), &[] as &[NodeId]);
        // Clearing an owner that never connected is fine.
        adj.clear_outgoing(NodeId(42));
    }

    #[test]
    fn per_link_entry_and_prune_in_place() {
        let mut clocks: PerLink<SimTime> = PerLink::default();
        *clocks.entry(NodeId(0), NodeId(1)) = SimTime::from_millis(5);
        *clocks.entry(NodeId(0), NodeId(2)) = SimTime::from_millis(7);
        *clocks.entry(NodeId(1), NodeId(0)) = SimTime::from_millis(9);
        *clocks.entry(NodeId(2), NodeId(1)) = SimTime::from_millis(11);
        assert_eq!(clocks.tracked_links(), 4);
        assert_eq!(*clocks.entry(NodeId(0), NodeId(1)), SimTime::from_millis(5));
        let cap_before = clocks.slot_capacity(NodeId(0));
        assert!(cap_before >= 2);
        clocks.prune(NodeId(0));
        // Everything involving node 0 is gone; the bystander clock 2 -> 1
        // is untouched (the reverse index names exactly the senders that
        // tracked the crashed node).
        assert_eq!(clocks.tracked_links(), 1);
        assert_eq!(
            *clocks.entry(NodeId(2), NodeId(1)),
            SimTime::from_millis(11)
        );
        assert_eq!(
            clocks.slot_capacity(NodeId(0)),
            cap_before,
            "prune clears in place, it does not reallocate"
        );
        // Pruning the remaining sender (exercises the forward direction of
        // the reverse index) empties the table.
        clocks.prune(NodeId(2));
        assert_eq!(clocks.tracked_links(), 0);
    }

    #[test]
    fn entries_iterate_in_link_order() {
        let mut map: PerLink<u64> = PerLink::default();
        *map.entry(NodeId(2), NodeId(0)) = 20;
        *map.entry(NodeId(0), NodeId(3)) = 3;
        *map.entry(NodeId(0), NodeId(1)) = 1;
        let triples: Vec<(u32, u32, u64)> = map.entries().map(|(s, d, v)| (s.0, d.0, *v)).collect();
        assert_eq!(triples, vec![(0, 1, 1), (0, 3, 3), (2, 0, 20)]);
    }

    /// Every sender's [`FifoClocks`], indexed by id, as the simulator's
    /// slots hold them.
    #[derive(Default)]
    struct Senders(Vec<FifoClocks>);

    impl Senders {
        fn stamp(&mut self, s: NodeId, d: NodeId, now: SimTime, at: SimTime) -> SimTime {
            ensure_len(&mut self.0, s.index());
            self.0[s.index()].stamp(d, now, at)
        }

        fn clear(&mut self, s: NodeId) {
            if let Some(clocks) = self.0.get_mut(s.index()) {
                clocks.clear();
            }
        }

        fn tracked_links(&self) -> usize {
            self.0.iter().map(|c| c.iter().count()).sum()
        }

        /// Every tracked `(sender, dest, clock)`, in `(sender, dest)` order.
        fn entries(&self) -> Vec<(NodeId, NodeId, SimTime)> {
            let mut all: Vec<_> = self
                .0
                .iter()
                .enumerate()
                .flat_map(|(s, c)| c.iter().map(move |(d, t)| (NodeId(s as u32), d, t)))
                .collect();
            all.sort_unstable_by_key(|&(s, d, _)| (s, d));
            all
        }
    }

    /// The FIFO rule as it was before clocks expired: one persistent clock
    /// per directed link ever used, pruned in both directions on a crash.
    /// Kept as the differential oracle for [`FifoClocks::stamp`].
    #[derive(Default)]
    struct PersistentClocks(PerLink<SimTime>);

    impl PersistentClocks {
        fn stamp(&mut self, sender: NodeId, dest: NodeId, mut deliver_at: SimTime) -> SimTime {
            let clock = self.0.entry(sender, dest);
            if deliver_at < *clock {
                deliver_at = *clock + SimDuration::from_micros(1);
            }
            *clock = deliver_at;
            deliver_at
        }
    }

    #[test]
    fn stamp_bumps_overtaking_sends_and_forgets_expired_clocks() {
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let us = SimTime::from_micros;
        let mut clocks = Senders::default();
        assert_eq!(clocks.stamp(a, b, us(0), us(100)), us(100));
        // Overtaking the in-flight message: one microsecond behind it, and
        // the chain continues from the bumped arrival.
        assert_eq!(clocks.stamp(a, b, us(10), us(50)), us(101));
        assert_eq!(clocks.stamp(a, b, us(10), us(101)), us(101));
        assert_eq!(clocks.stamp(a, b, us(10), us(10)), us(102));
        assert_eq!(clocks.stamp(a, c, us(20), us(30)), us(30));
        assert_eq!(clocks.entries(), vec![(a, b, us(102)), (a, c, us(30))]);
        // At t = 102 both clocks have expired (strict comparison): a send
        // to a third destination sweeps them out.
        assert_eq!(clocks.stamp(a, NodeId(3), us(102), us(150)), us(150));
        assert_eq!(clocks.entries(), vec![(a, NodeId(3), us(150))]);
        // Other senders are untouched by a's sweep and by a's crash.
        assert_eq!(clocks.stamp(b, a, us(102), us(103)), us(103));
        clocks.clear(a);
        assert_eq!(clocks.entries(), vec![(b, a, us(103))]);
        assert_eq!(clocks.tracked_links(), 1);
    }

    #[test]
    fn a_sender_past_the_inline_table_spills_and_stamps_the_same() {
        let us = SimTime::from_micros;
        let wide = crate::INLINE_TABLE as u32 + 3;
        let mut clocks = FifoClocks::default();
        let mut oracle = PersistentClocks::default();
        for round in 0..3u64 {
            for d in 1..=wide {
                let (now, at) = (us(round), us(500 + round * 7 - d as u64));
                let want = oracle.stamp(NodeId(0), NodeId(d), at);
                assert_eq!(clocks.stamp(NodeId(d), now, at), want);
            }
        }
        assert!(clocks.clocks.spilled(), "{wide} links in flight");
        assert_eq!(clocks.iter().count(), wide as usize);
        assert!(clocks.heap_bytes() > 0, "the spilled table is on the heap");
        // All expire together: the next send sweeps the table to one.
        assert_eq!(clocks.stamp(NodeId(1), us(600), us(610)), us(610));
        assert_eq!(clocks.iter().count(), 1);
    }

    /// One scripted step against the FIFO clocks.
    #[derive(Debug, Clone, Copy)]
    enum ClockOp {
        /// `(sender, dest, latency µs)`; latency 0 arrives at the send
        /// instant, the case an expired-at-birth clock must survive.
        Send(u32, u32, u64),
        /// A same-instant burst to one destination with shrinking
        /// latencies: every send after the first overtakes, walking the
        /// `+1 µs` chain.
        Burst(u32, u32, u8),
        /// One sender messages every other node at one instant with a long
        /// latency: more links in flight than the table holds inline.
        Fan(u32),
        /// Simulated time advances by this many microseconds.
        Advance(u64),
        Crash(u32),
    }

    /// The expiring table and its oracle, driven in lockstep.
    struct Both {
        new: Senders,
        old: PersistentClocks,
        alive: [bool; 12],
    }

    impl Default for Both {
        fn default() -> Self {
            Both {
                new: Senders::default(),
                old: PersistentClocks::default(),
                alive: [true; 12],
            }
        }
    }

    impl Both {
        fn send(&mut self, now: SimTime, s: u32, d: u32, latency: u64) {
            // Exactly the drivers' guard: dead senders never run, dead
            // destinations skip the stamp.
            if !self.alive[s as usize] || !self.alive[d as usize] {
                return;
            }
            let (s, d) = (NodeId(s), NodeId(d));
            let at = now + SimDuration::from_micros(latency);
            assert_eq!(self.new.stamp(s, d, now, at), self.old.stamp(s, d, at));
            // After a send, everything the sender still tracks besides the
            // stamped link can bind a later send.
            for &(_, dest, clock) in self.new.entries().iter().filter(|e| e.0 == s) {
                assert!(dest == d || clock > now, "expired clock survived a sweep");
            }
        }
    }

    fn clock_op_strategy() -> impl Strategy<Value = ClockOp> {
        prop_oneof![
            6 => (0u32..12, 0u32..12, prop_oneof![Just(0u64), 0u64..400])
                .prop_map(|(s, d, l)| ClockOp::Send(s, d, l)),
            1 => (0u32..12, 0u32..12, 2u8..12).prop_map(|(s, d, n)| ClockOp::Burst(s, d, n)),
            1 => (0u32..12).prop_map(ClockOp::Fan),
            3 => prop_oneof![Just(0u64), Just(1u64), 0u64..300].prop_map(ClockOp::Advance),
            1 => (0u32..12).prop_map(ClockOp::Crash),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Expiry is unobservable: over arbitrary send histories with
        /// non-decreasing time, zero latencies, same-instant bursts, fans
        /// wider than the inline table and interleaved crashes, `stamp` returns exactly the arrival time
        /// the persistent table did, for every send — while never tracking
        /// a clock that has been expired for a whole send of its sender.
        #[test]
        fn stamp_matches_the_persistent_clock_table(
            ops in proptest::collection::vec(clock_op_strategy(), 1..200),
        ) {
            let mut both = Both::default();
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    ClockOp::Send(s, d, l) => both.send(now, s, d, l),
                    ClockOp::Burst(s, d, n) => {
                        for k in (0..n as u64).rev() {
                            both.send(now, s, d, k * 7);
                        }
                    }
                    ClockOp::Fan(s) => {
                        for d in (0..12).filter(|&d| d != s) {
                            both.send(now, s, d, 1_000 + d as u64);
                        }
                    }
                    ClockOp::Advance(us) => now += SimDuration::from_micros(us),
                    ClockOp::Crash(n) => {
                        both.alive[n as usize] = false;
                        both.new.clear(NodeId(n));
                        both.old.0.prune(NodeId(n));
                    }
                }
                // What survives is a subset of the persistent table with
                // identical clocks, in `(sender, dest)` order.
                let tracked = both.new.entries();
                prop_assert!(tracked.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
                for (s, d, clock) in tracked {
                    if both.alive[d.index()] {
                        prop_assert_eq!(clock, *both.old.0.entry(s, d));
                    }
                }
            }
        }
    }

    /// Checks every structural invariant tying the forward vectors to the
    /// reverse index of an [`Adjacency`]: sortedness, no duplicates, and
    /// exact agreement in both directions.
    fn assert_adjacency_consistent(adj: &Adjacency) {
        for (owner, list) in adj.out.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "out sorted, unique");
            for peer in list {
                let rev = adj.incoming.get(peer.index()).expect("reverse slot");
                assert!(
                    rev.binary_search(&NodeId(owner as u32)).is_ok(),
                    "edge ({owner}, {peer}) missing from the reverse index"
                );
            }
        }
        let mut reverse_edges = 0usize;
        for (peer, rev) in adj.incoming.iter().enumerate() {
            assert!(rev.windows(2).all(|w| w[0] < w[1]), "incoming sorted");
            for owner in rev {
                assert!(
                    adj.contains(*owner, NodeId(peer as u32)),
                    "reverse edge ({owner}, {peer}) has no forward edge"
                );
                reverse_edges += 1;
            }
        }
        assert_eq!(reverse_edges, adj.len(), "edge counts agree");
    }

    /// Same for a [`PerLink`] map: every `(sender, dest)` entry appears in
    /// the reverse index and vice versa.
    fn assert_per_link_consistent<T>(map: &PerLink<T>) {
        for (sender, entries) in map.by_sender.iter().enumerate() {
            assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "sender slots sorted, unique"
            );
            for (dest, _) in entries {
                let rev = map.senders_of.get(dest.index()).expect("reverse slot");
                assert!(
                    rev.binary_search(&NodeId(sender as u32)).is_ok(),
                    "link ({sender}, {dest}) missing from the reverse index"
                );
            }
        }
        let mut reverse_links = 0usize;
        for (dest, rev) in map.senders_of.iter().enumerate() {
            assert!(rev.windows(2).all(|w| w[0] < w[1]), "senders_of sorted");
            for sender in rev {
                assert!(
                    map.by_sender[sender.index()]
                        .binary_search_by_key(&NodeId(dest as u32), |(d, _)| *d)
                        .is_ok(),
                    "reverse link ({sender}, {dest}) has no forward entry"
                );
                reverse_links += 1;
            }
        }
        assert_eq!(reverse_links, map.tracked_links(), "link counts agree");
    }

    /// One scripted operation over the link structures. Node identifiers are
    /// drawn from a window that grows with `join`s, like the simulator's
    /// dense id space.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Connect(u32, u32),
        Close(u32, u32),
        Touch(u32, u32),
        Crash(u32),
        Join,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u32..32, 0u32..32).prop_map(|(a, b)| Op::Connect(a, b)),
            1 => (0u32..32, 0u32..32).prop_map(|(a, b)| Op::Close(a, b)),
            3 => (0u32..32, 0u32..32).prop_map(|(a, b)| Op::Touch(a, b)),
            1 => (0u32..32).prop_map(Op::Crash),
            1 => Just(Op::Join),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The reverse indices of [`Adjacency`] and [`PerLink`] stay exactly
        /// consistent with the forward vectors under arbitrary interleavings
        /// of connects, closes, sends (clock touches), crashes and joins —
        /// and both structures agree with a naive model.
        #[test]
        fn reverse_indices_stay_consistent(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let mut adj = Adjacency::default();
            let mut clocks: PerLink<u64> = PerLink::default();
            let mut model_edges: BTreeSet<(u32, u32)> = BTreeSet::new();
            let mut model_links: BTreeSet<(u32, u32)> = BTreeSet::new();
            let mut population = 8u32;
            for op in ops {
                match op {
                    Op::Connect(a, b) => {
                        let (a, b) = (a % population, b % population);
                        adj.insert(NodeId(a), NodeId(b));
                        model_edges.insert((a, b));
                    }
                    Op::Close(a, b) => {
                        let (a, b) = (a % population, b % population);
                        adj.remove(NodeId(a), NodeId(b));
                        model_edges.remove(&(a, b));
                    }
                    Op::Touch(a, b) => {
                        let (a, b) = (a % population, b % population);
                        *clocks.entry(NodeId(a), NodeId(b)) += 1;
                        model_links.insert((a, b));
                    }
                    Op::Crash(n) => {
                        let n = n % population;
                        // Exactly what `process_crash` does to this state.
                        adj.clear_outgoing(NodeId(n));
                        clocks.prune(NodeId(n));
                        model_edges.retain(|&(a, _)| a != n);
                        model_links.retain(|&(a, b)| a != n && b != n);
                    }
                    Op::Join => population += 1,
                }
                assert_adjacency_consistent(&adj);
                assert_per_link_consistent(&clocks);
                // Forward state matches the naive model exactly.
                let edges: BTreeSet<(u32, u32)> = adj
                    .out
                    .iter()
                    .enumerate()
                    .flat_map(|(o, l)| l.iter().map(move |p| (o as u32, p.0)))
                    .collect();
                prop_assert_eq!(&edges, &model_edges);
                let links: BTreeSet<(u32, u32)> =
                    clocks.entries().map(|(s, d, _)| (s.0, d.0)).collect();
                prop_assert_eq!(&links, &model_links);
            }
        }
    }
}
