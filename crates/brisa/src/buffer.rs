//! Bounded buffer of recent stream messages.
//!
//! Parents keep a small window of recently relayed messages so that a child
//! that just recovered from a parent failure can ask for the ones it missed
//! (Section II-F: "nodes can compensate message loss during the parent
//! recovery process by directly asking its new found parent to send the
//! missing ones"). Recovery is fast, so the window stays small.

use std::collections::VecDeque;

/// What the buffer retains of one stream message: exactly what a
/// retransmission needs. The server rebuilds the rest of the
/// [`crate::DataMsg`] — guard, uptime, load — from its *own* current state
/// when it answers, so nothing of the message as received is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedMsg {
    /// Sequence number of the message within the stream.
    pub seq: u64,
    /// Application payload size in bytes.
    pub payload_bytes: usize,
}

/// One ring record: the sequence number as an offset from the buffer's
/// `base`, and the payload length. A frame is bounded by the wire's
/// `MAX_FRAME_BYTES`, far below 4 GiB, so 32 bits hold either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    offset: u32,
    payload_bytes: u32,
}

/// Sequence numbers a ring can hold at once: `[base, base + SPAN)`.
const SPAN: u64 = 1 << 32;

/// A bounded FIFO buffer of stream messages indexed by sequence number.
///
/// Records are stored inline in insertion order (8 bytes each: a 32-bit
/// offset from a per-buffer base and a 32-bit payload length), so the
/// duplicate check touches one contiguous block instead of one shared
/// allocation per buffered message, and the received message — with its
/// path vector — is free to die as soon as its last recipient has
/// processed it. In the in-order case, a sequence number above everything
/// buffered, the duplicate check is a single comparison.
///
/// A stream's numbers never span 2³² inside one buffer's worth of
/// messages, but a hostile peer's might: a number outside
/// `[base, base + 2³²)` rebases the ring, and any record that cannot share
/// a window with it is evicted. A lookup for a number outside the window
/// is a miss, never an aliased hit.
#[derive(Debug, Clone)]
pub struct MessageBuffer {
    capacity: usize,
    base: u64,
    records: VecDeque<Record>,
    /// Highest buffered sequence number, maintained incrementally.
    highest: Option<u64>,
}

impl MessageBuffer {
    /// Creates a buffer holding at most `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        MessageBuffer {
            capacity: capacity.max(1),
            base: 0,
            records: VecDeque::new(),
            highest: None,
        }
    }

    /// Maximum number of messages retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the buffer holds no messages.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// `seq`'s offset from `base`, if it lies in the ring's window.
    #[inline]
    fn offset(&self, seq: u64) -> Option<u32> {
        seq.checked_sub(self.base)
            .and_then(|off| u32::try_from(off).ok())
    }

    #[inline]
    fn unpack(&self, r: Record) -> BufferedMsg {
        BufferedMsg {
            seq: self.base + u64::from(r.offset),
            payload_bytes: r.payload_bytes as usize,
        }
    }

    /// Inserts a message, evicting the oldest *inserted* one if the buffer
    /// is full (FIFO by insertion, not by sequence number, so what a
    /// recovering child can still be served does not depend on arrival
    /// order). Messages already present (same sequence number) are not
    /// duplicated.
    pub fn insert(&mut self, seq: u64, payload_bytes: usize) {
        if self.highest.is_some_and(|h| seq <= h) && self.get(seq).is_some() {
            return;
        }
        if self.records.len() == self.capacity {
            let evicted = self.records.pop_front().map(|r| self.unpack(r).seq);
            if evicted == self.highest {
                // Out-of-order recovery put the highest message at the
                // front; rare enough to pay a scan for.
                self.highest = self.seqs().max();
            }
        }
        let offset = match self.offset(seq) {
            Some(offset) => offset,
            None => self.rebase(seq),
        };
        if self.records.len() == self.records.capacity() {
            // Grow by doubling, but never past the capacity: a full ring
            // holds exactly `capacity` records of heap.
            let room = self
                .records
                .len()
                .max(4)
                .min(self.capacity - self.records.len());
            self.records.reserve_exact(room);
        }
        self.records.push_back(Record {
            offset,
            payload_bytes: u32::try_from(payload_bytes).expect("a frame's payload fits in 32 bits"),
        });
        self.highest = Some(self.highest.map_or(seq, |h| h.max(seq)));
    }

    /// Moves the window so that it holds `seq`, and returns `seq`'s offset.
    /// Every record is rewritten against the new base (at most `capacity`
    /// of them); those 2³² or more away from `seq` cannot share a window
    /// with it and are evicted.
    #[cold]
    fn rebase(&mut self, seq: u64) -> u32 {
        let near = |s: u64| s.abs_diff(seq) < SPAN;
        let base = self.seqs().filter(|&s| near(s)).fold(seq, u64::min);
        let old = self.base;
        self.records.retain_mut(|r| {
            let s = old + u64::from(r.offset);
            match s.checked_sub(base).filter(|_| near(s)) {
                Some(off) => {
                    r.offset = off as u32;
                    true
                }
                None => false,
            }
        });
        self.base = base;
        self.highest = self.seqs().max();
        (seq - base) as u32
    }

    /// Buffered sequence numbers, in insertion order.
    fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.records.iter().map(|r| self.base + u64::from(r.offset))
    }

    /// The buffered message with sequence number `seq`, if still retained.
    pub fn get(&self, seq: u64) -> Option<BufferedMsg> {
        let offset = self.offset(seq)?;
        self.records
            .iter()
            .find(|r| r.offset == offset)
            .map(|&r| self.unpack(r))
    }

    /// All buffered messages with sequence numbers in `[from, to]`
    /// (inclusive), in ascending order.
    pub fn range(&self, from: u64, to: u64) -> Vec<BufferedMsg> {
        let mut found: Vec<BufferedMsg> = self
            .records
            .iter()
            .map(|&r| self.unpack(r))
            .filter(|r| r.seq >= from && r.seq <= to)
            .collect();
        found.sort_unstable_by_key(|r| r.seq);
        found
    }

    /// Highest buffered sequence number, if any.
    pub fn highest_seq(&self) -> Option<u64> {
        self.highest
    }

    /// Heap bytes the buffer occupies (the record ring at its allocated
    /// capacity, 8 bytes a record).
    pub fn approx_heap_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<Record>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::CycleGuard;
    use crate::message::DataMsg;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The buffer this module replaced — one shared `Arc<DataMsg>` per
    /// entry, full scans for the duplicate check and the highest sequence
    /// number — kept as the differential oracle.
    struct ArcBufferModel {
        capacity: usize,
        messages: VecDeque<Arc<DataMsg>>,
    }

    impl ArcBufferModel {
        fn new(capacity: usize) -> Self {
            ArcBufferModel {
                capacity: capacity.max(1),
                messages: VecDeque::new(),
            }
        }

        /// The old rule, plus the one the 32-bit offsets add: messages
        /// 2³² or more away from the inserted one are evicted (after the
        /// capacity eviction), since no window holds both.
        fn insert(&mut self, msg: Arc<DataMsg>) {
            if self.messages.iter().any(|m| m.seq == msg.seq) {
                return;
            }
            if self.messages.len() == self.capacity {
                self.messages.pop_front();
            }
            self.messages.retain(|m| m.seq.abs_diff(msg.seq) < SPAN);
            self.messages.push_back(msg);
        }

        fn get(&self, seq: u64) -> Option<&Arc<DataMsg>> {
            self.messages.iter().find(|m| m.seq == seq)
        }

        fn range(&self, from: u64, to: u64) -> Vec<Arc<DataMsg>> {
            let mut found: Vec<Arc<DataMsg>> = self
                .messages
                .iter()
                .filter(|m| m.seq >= from && m.seq <= to)
                .cloned()
                .collect();
            found.sort_by_key(|m| m.seq);
            found
        }

        fn highest_seq(&self) -> Option<u64> {
            self.messages.iter().map(|m| m.seq).max()
        }
    }

    fn msg(seq: u64, payload_bytes: usize) -> Arc<DataMsg> {
        Arc::new(DataMsg {
            seq,
            payload_bytes,
            guard: CycleGuard::Depth(1),
            sender_uptime_secs: 0,
            sender_load: 0,
        })
    }

    fn record(m: &Arc<DataMsg>) -> BufferedMsg {
        BufferedMsg {
            seq: m.seq,
            payload_bytes: m.payload_bytes,
        }
    }

    #[test]
    fn insert_get_and_capacity_eviction() {
        let mut b = MessageBuffer::new(3);
        assert!(b.is_empty());
        for s in 0..5 {
            b.insert(s, 100);
        }
        assert_eq!(b.len(), 3);
        assert!(b.get(0).is_none(), "oldest evicted");
        assert!(b.get(1).is_none());
        assert!(b.get(2).is_some());
        assert_eq!(b.highest_seq(), Some(4));
        assert_eq!(b.capacity(), 3);
    }

    #[test]
    fn duplicate_sequence_numbers_are_ignored() {
        let mut b = MessageBuffer::new(4);
        b.insert(1, 100);
        b.insert(1, 100);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn range_returns_sorted_window() {
        let mut b = MessageBuffer::new(10);
        for s in [5u64, 3, 9, 7, 4] {
            b.insert(s, 100);
        }
        let seqs: Vec<u64> = b.range(4, 7).iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![4, 5, 7]);
        assert!(b.range(100, 200).is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut b = MessageBuffer::new(0);
        b.insert(0, 100);
        assert_eq!(b.len(), 1);
        b.insert(1, 100);
        assert_eq!(b.len(), 1);
        assert_eq!(b.highest_seq(), Some(1));
    }

    #[test]
    fn evicting_the_highest_recomputes_it() {
        // Out-of-order recovery: the newest message was inserted first, so
        // FIFO eviction removes it while older ones stay.
        let mut b = MessageBuffer::new(3);
        for s in [100u64, 1, 2, 3] {
            b.insert(s, 10);
        }
        assert!(b.get(100).is_none());
        assert_eq!(b.highest_seq(), Some(3));
        // 100 is insertable again: it is above everything buffered.
        b.insert(100, 10);
        assert_eq!(b.highest_seq(), Some(100));
        assert_eq!(b.len(), 3);
    }

    /// The buffer's records, front to back, as full sequence numbers.
    fn kept(b: &MessageBuffer) -> Vec<BufferedMsg> {
        b.records.iter().map(|&r| b.unpack(r)).collect()
    }

    #[test]
    fn a_full_ring_holds_eight_bytes_a_record() {
        for capacity in [1usize, 3, 64, 600] {
            let mut b = MessageBuffer::new(capacity);
            for s in 0..2 * capacity as u64 {
                b.insert(s, 100);
            }
            assert_eq!(b.approx_heap_bytes(), 8 * capacity, "capacity {capacity}");
        }
    }

    #[test]
    fn numbers_2_pow_32_apart_rebase_and_evict_the_far_side() {
        let mut b = MessageBuffer::new(8);
        for s in [10u64, 11, 12] {
            b.insert(s, 7);
        }
        let far = 12 + SPAN;
        b.insert(far, 9);
        assert_eq!(
            kept(&b),
            vec![BufferedMsg {
                seq: far,
                payload_bytes: 9
            }]
        );
        assert_eq!(b.highest_seq(), Some(far));
        // The evicted side misses, its aliases included.
        for s in [10u64, 11, 12, 10 + SPAN, 11 + SPAN] {
            assert_eq!(b.get(s), None, "seq {s}");
        }
        // A number below the window rebases downwards and keeps whatever
        // still shares a window with it.
        b.insert(far - 5, 3);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(far).map(|m| m.payload_bytes), Some(9));
        assert_eq!(b.get(far - 5).map(|m| m.payload_bytes), Some(3));
        b.insert(far - SPAN, 1);
        assert_eq!(
            kept(&b),
            vec![
                BufferedMsg {
                    seq: far - 5,
                    payload_bytes: 3
                },
                BufferedMsg {
                    seq: far - SPAN,
                    payload_bytes: 1
                },
            ]
        );
        assert_eq!(b.highest_seq(), Some(far - 5));
    }

    #[test]
    fn the_neighbours_of_u64_max() {
        let mut b = MessageBuffer::new(4);
        for s in [u64::MAX - 2, u64::MAX, u64::MAX - 1] {
            b.insert(s, 5);
        }
        assert_eq!(b.highest_seq(), Some(u64::MAX));
        assert!(b.get(u64::MAX).is_some() && b.get(u64::MAX - 3).is_none());
        let seqs: Vec<u64> = b
            .range(u64::MAX - 1, u64::MAX)
            .iter()
            .map(|m| m.seq)
            .collect();
        assert_eq!(seqs, vec![u64::MAX - 1, u64::MAX]);
        b.insert(u64::MAX, 5);
        assert_eq!(b.len(), 3, "a duplicate at the top is still a duplicate");
        // The other end of the number line shares no window with the top.
        b.insert(0, 5);
        assert_eq!(
            kept(&b),
            vec![BufferedMsg {
                seq: 0,
                payload_bytes: 5
            }]
        );
        assert!(b.get(u64::MAX).is_none());
    }

    #[test]
    fn a_lookup_that_would_alias_modulo_2_pow_32_misses() {
        let mut b = MessageBuffer::new(4);
        b.insert(SPAN + 7, 5);
        // Offset 7 from the base: a 32-bit lookup of 7 or 2 * SPAN + 7
        // would read the same record.
        for s in [7u64, 2 * SPAN + 7, SPAN - 1, 0] {
            assert_eq!(b.get(s), None, "seq {s}");
        }
        assert!(b.range(0, SPAN).is_empty());
        assert_eq!(b.get(SPAN + 7).map(|m| m.seq), Some(SPAN + 7));
        // Inserting an alias is a new message, not a duplicate.
        b.insert(7, 6);
        assert_eq!(b.get(7).map(|m| m.payload_bytes), Some(6));
        assert_eq!(b.get(SPAN + 7), None, "evicted by the rebase");
    }

    #[test]
    fn a_range_across_a_rebase() {
        let mut b = MessageBuffer::new(8);
        let top = SPAN - 3;
        for s in top..top + 3 {
            b.insert(s, 1);
        }
        // A number below the base moves it down; everything still fits.
        b.insert(2, 2);
        b.insert(top + 3, 3);
        let seqs: Vec<u64> = b.range(0, u64::MAX).iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![2, top, top + 1, top + 2, top + 3]);
        // `top + 3` is 2³² + 0 and 2 is its offset alias: both are kept,
        // neither answers for the other.
        let seqs: Vec<u64> = b.range(top + 1, SPAN + 2).iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![top + 1, top + 2, top + 3]);
        assert_eq!(b.highest_seq(), Some(top + 3));
    }

    proptest! {
        /// Old and new buffers agree on every observable after every step
        /// of an arbitrary insert sequence: in-order runs, out-of-order
        /// recovery, duplicates, more inserts than the capacity holds, and
        /// numbers anywhere in the `u64` range (2³² multiples apart,
        /// around `u64::MAX`, wrapping to 0).
        #[test]
        fn inline_buffer_matches_the_arc_buffer(
            capacity in 0usize..12,
            start in prop_oneof![Just(0u64), 0u64..=u64::MAX, (u64::MAX - 50)..=u64::MAX, (SPAN - 30)..(SPAN + 30)],
            ops in proptest::collection::vec((0u8..6, 0u64..=u64::MAX, 1usize..2000), 1..120),
        ) {
            let mut new = MessageBuffer::new(capacity);
            let mut old = ArcBufferModel::new(capacity);
            let mut next_in_order = start;
            let mut seen: Vec<u64> = Vec::new();
            for (kind, draw, payload) in ops {
                // Half the inserts continue the in-order stream (the fast
                // path, wrapping past `u64::MAX`); the rest land in a window
                // that overlaps it (duplicates, holes being filled, stale
                // stragglers), one 2³² multiple away from it, or anywhere.
                let seq = match kind {
                    0 | 1 => {
                        next_in_order = next_in_order.wrapping_add(1);
                        next_in_order
                    }
                    2 => next_in_order.wrapping_sub(draw % 40),
                    3 => next_in_order
                        .wrapping_add(SPAN * (draw % 3))
                        .wrapping_sub(SPAN)
                        .wrapping_add(draw % 5),
                    _ => draw,
                };
                seen.push(seq);
                new.insert(seq, payload);
                old.insert(msg(seq, payload));
                prop_assert_eq!(new.len(), old.messages.len());
                prop_assert_eq!(new.highest_seq(), old.highest_seq());
                // Eviction order: the surviving records, front to back.
                let kept_old: Vec<BufferedMsg> = old.messages.iter().map(record).collect();
                prop_assert_eq!(kept(&new), kept_old);
                for &s in &seen {
                    for probe in [s, s.wrapping_add(1), s.wrapping_sub(1), s.wrapping_add(SPAN), s.wrapping_sub(SPAN)] {
                        prop_assert_eq!(new.get(probe), old.get(probe).map(record));
                    }
                }
                for (from, to) in [
                    (0, u64::MAX),
                    (seq, seq.saturating_add(5)),
                    (seq.saturating_sub(7), seq),
                    (seq.saturating_sub(SPAN), seq.saturating_add(SPAN)),
                ] {
                    let served_old: Vec<BufferedMsg> =
                        old.range(from, to).iter().map(record).collect();
                    prop_assert_eq!(new.range(from, to), served_old);
                }
                prop_assert!(new.approx_heap_bytes() <= 8 * new.capacity());
            }
        }
    }
}
