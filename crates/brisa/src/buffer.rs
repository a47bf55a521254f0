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

/// A bounded FIFO buffer of stream messages indexed by sequence number.
///
/// Records are stored inline in insertion order (16 bytes each), so the
/// duplicate check touches one contiguous block instead of one shared
/// allocation per buffered message, and the received message — with its
/// path vector — is free to die as soon as its last recipient has
/// processed it. In the in-order case, a sequence number above everything
/// buffered, the duplicate check is a single comparison.
#[derive(Debug, Clone)]
pub struct MessageBuffer {
    capacity: usize,
    records: VecDeque<BufferedMsg>,
    /// Highest buffered sequence number, maintained incrementally.
    highest: Option<u64>,
}

impl MessageBuffer {
    /// Creates a buffer holding at most `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        MessageBuffer {
            capacity: capacity.max(1),
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
            let evicted = self.records.pop_front();
            if evicted.map(|r| r.seq) == self.highest {
                // Out-of-order recovery put the highest message at the
                // front; rare enough to pay a scan for.
                self.highest = self.records.iter().map(|r| r.seq).max();
            }
        }
        self.records.push_back(BufferedMsg { seq, payload_bytes });
        self.highest = Some(self.highest.map_or(seq, |h| h.max(seq)));
    }

    /// The buffered message with sequence number `seq`, if still retained.
    pub fn get(&self, seq: u64) -> Option<BufferedMsg> {
        self.records.iter().copied().find(|r| r.seq == seq)
    }

    /// All buffered messages with sequence numbers in `[from, to]`
    /// (inclusive), in ascending order.
    pub fn range(&self, from: u64, to: u64) -> Vec<BufferedMsg> {
        let mut found: Vec<BufferedMsg> = self
            .records
            .iter()
            .copied()
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
    /// capacity).
    pub fn approx_heap_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<BufferedMsg>()
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

        fn insert(&mut self, msg: Arc<DataMsg>) {
            if self.messages.iter().any(|m| m.seq == msg.seq) {
                return;
            }
            if self.messages.len() == self.capacity {
                self.messages.pop_front();
            }
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

    proptest! {
        /// Old and new buffers agree on every observable after every step
        /// of an arbitrary insert sequence: in-order runs, out-of-order
        /// recovery, duplicates, and more inserts than the capacity holds.
        #[test]
        fn inline_buffer_matches_the_arc_buffer(
            capacity in 0usize..12,
            ops in proptest::collection::vec((0u8..4, 0u64..40, 1usize..2000), 1..120),
        ) {
            let mut new = MessageBuffer::new(capacity);
            let mut old = ArcBufferModel::new(capacity);
            let mut next_in_order = 0u64;
            for (kind, seq, payload) in ops {
                // Half the inserts continue the in-order stream (the fast
                // path), the rest land anywhere in a window that overlaps
                // it (duplicates, holes being filled, stale stragglers).
                let seq = if kind < 2 {
                    next_in_order += 1;
                    next_in_order
                } else {
                    seq
                };
                new.insert(seq, payload);
                old.insert(msg(seq, payload));
                prop_assert_eq!(new.len(), old.messages.len());
                prop_assert_eq!(new.highest_seq(), old.highest_seq());
                // Eviction order: the surviving records, front to back.
                let kept: Vec<BufferedMsg> = new.records.iter().copied().collect();
                let kept_old: Vec<BufferedMsg> = old.messages.iter().map(record).collect();
                prop_assert_eq!(kept, kept_old);
                for probe in 0..42u64 {
                    prop_assert_eq!(new.get(probe), old.get(probe).map(record));
                }
                for (from, to) in [(0, u64::MAX), (seq, seq + 5), (seq.saturating_sub(7), seq)] {
                    let served_old: Vec<BufferedMsg> =
                        old.range(from, to).iter().map(record).collect();
                    prop_assert_eq!(new.range(from, to), served_old);
                }
            }
        }
    }
}
