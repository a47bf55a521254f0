//! The event scheduler: a two-level timing wheel.
//!
//! The simulator totally orders events by `(time, prio, seq)`: an explicit
//! 64-bit priority supplied by the caller breaks same-instant ties first,
//! and a monotonically assigned insertion counter resolves anything the
//! priority leaves equal. The network layer derives the priority from the
//! event's *cause* (the lane key: causing node × per-node cause counter),
//! which makes the total order independent of the order pushes happen to
//! arrive in — the property the sharded driver relies on for bit-identical
//! sharded ≡ sequential runs.
//!
//! [`TimingWheel`] is the one queue that provides that order: near-future
//! events go into a cache-resident circular array of fine time buckets
//! (O(1) insertion, amortised O(1) + per-bucket sort extraction), further
//! events into a coarse second level whose slots are scattered into the
//! fine wheel on demand, and everything beyond that into an unsorted far
//! list partitioned lazily. The classic `BinaryHeap` priority queue it
//! replaced survives in this module's tests as the oracle the wheel is
//! driven against in lockstep (a unit test and a proptest).

use crate::time::SimTime;

/// The name `benchmark/`'s banner prints (`SchedulerKind::default()`). The
/// timing wheel is the only scheduler; delete this with the next
/// `benchmark` PR.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The timing-wheel / calendar queue.
    #[default]
    TimingWheel,
}

/// A scheduled entry: the payload plus its total-order key
/// `(time, prio, seq)`.
#[derive(Debug, Clone)]
pub struct Entry<T> {
    /// Absolute scheduled time.
    pub time: SimTime,
    /// Caller-supplied priority (first tie-breaker within one instant).
    pub prio: u64,
    /// Insertion sequence number (final tie-breaker). The wheel keeps
    /// equal-`(time, prio)` entries in push order by construction and never
    /// compares it; the tests check it against the oracle's.
    #[cfg_attr(not(test), allow(dead_code))]
    pub seq: u64,
    /// The scheduled payload.
    pub item: T,
}

/// Simulated microseconds covered by one near-wheel bucket
/// (`1 << L0_BITS` = 64 µs). Narrower than the minimum link latency, so a
/// message send essentially never targets the bucket already staged for
/// popping (which would cost a sorted insert instead of an O(1) append).
const L0_BITS: u32 = 6;
/// Mask selecting the in-bucket (sub-bucket) bits of a time in microseconds.
const L0_TIME_MASK: u64 = (1 << L0_BITS) - 1;
/// Buckets on the near wheel: 512 × 64 µs ≈ 32.8 ms horizon. Small enough
/// that the whole level (headers + occupancy) stays cache-resident.
const L0_SLOTS: usize = 512;
const L0_MASK: u64 = L0_SLOTS as u64 - 1;
/// Simulated microseconds covered by one coarse-level slot
/// (`1 << L1_BITS` = one full near-wheel rotation, ~32.8 ms).
const L1_BITS: u32 = L0_BITS + 9;
/// Slots on the coarse level: 512 × ~32.8 ms ≈ 16.8 s horizon.
const L1_SLOTS: usize = 512;
const L1_MASK: u64 = L1_SLOTS as u64 - 1;
/// Capacity, in entries, a drained level-0 bucket may keep for its next
/// fill; a bucket that grew past it gives its allocation back. Mean
/// occupancy is a handful of events per bucket while a join wave puts
/// thousands into one, and without the cap every bucket ends up holding the
/// worst burst it ever saw (39.5 MB pooled under 1.1 MB of pending events
/// on a 5 000-node run). A constant, not an option: from 0 to 512 the
/// benchmark's throughput stays inside its run-to-run spread (0 reads
/// ~5 % lower on `sim-scale`) and only retained memory moves, +12 MB at
/// 512 (DESIGN.md, "Event scheduler").
const KEEP: usize = 64;

/// Biased level-0 bucket index of `time`: the raw index
/// `micros >> L0_BITS`, plus one. The bias keeps absolute index 0 free to
/// act as the initial "before every bucket" cursor sentinel, so events at
/// `t = 0` still land in a real bucket (an unbiased wheel would treat
/// bucket 0 as already drained and degrade every `t = 0` push into a
/// sorted insert on the ready list — O(n^2) for a same-instant burst).
fn b0_of(time: SimTime) -> u64 {
    (time.as_micros() >> L0_BITS) + 1
}

/// Biased level-1 slot index of `time` (same +1 bias as [`b0_of`]).
fn b1_of(time: SimTime) -> u64 {
    (time.as_micros() >> L1_BITS) + 1
}

/// A two-level hierarchical timing wheel with an unsorted far-future list.
///
/// * **Level 0** — 512 buckets of 64 µs (~32.8 ms horizon). Events are
///   appended unsorted to their bucket; a bucket is sorted by
///   `(time, prio, seq)` only when the cursor reaches it, and each entry is
///   then moved once into the ready list.
/// * **Level 1** — 512 slots of one full level-0 rotation each (~16.8 s
///   horizon). When level 0 runs dry, the next occupied coarse slot is
///   scattered into level-0 buckets; each event therefore moves O(1) times
///   regardless of how far ahead it was scheduled.
/// * **Far list** — events beyond the level-1 horizon sit in one unsorted
///   vector, partitioned into level 1 only when both wheels are empty
///   (contiguous scans; in simulation workloads this level is nearly always
///   empty).
///
/// Per-level occupancy bitmaps (one bit per bucket) let the cursors skip
/// empty stretches 64 buckets at a time. The wheel keeps what is in flight,
/// not what once was: a drained level-0 bucket retains at most [`KEEP`]
/// entries of capacity and a scattered level-1 slot none, so steady-state
/// operation rarely allocates and a burst's storage goes back when the
/// burst has drained.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Boxed fixed-size arrays (not `Vec`s) so that mask-derived indices
    /// are provably in bounds — no bounds checks on the push fast path.
    l0: Box<[Vec<Entry<T>>; L0_SLOTS]>,
    occ0: [u64; L0_SLOTS / 64],
    /// Absolute level-0 bucket index currently drained into `ready`. All
    /// level-0 buckets at or below the cursor are empty.
    cursor: u64,
    /// Absolute level-0 bucket bound of the near window: level 0 holds
    /// exactly the buckets in `(cursor, window0_end)`.
    window0_end: u64,
    l1: Box<[Vec<Entry<T>>; L1_SLOTS]>,
    occ1: [u64; L1_SLOTS / 64],
    /// Absolute level-1 slot index of the last slot scattered into level 0.
    cursor1: u64,
    /// Absolute level-1 slot bound: level 1 holds slots in
    /// `(cursor1, window1_end)`; later events sit in `far`.
    window1_end: u64,
    /// Events of the cursor bucket, sorted *descending* by
    /// `(time, prio, seq)` so the earliest entry pops from the back in O(1).
    ready: Vec<Entry<T>>,
    /// Unsorted events beyond the level-1 horizon.
    far: Vec<Entry<T>>,
    /// Reused scratch for staging sorts. Every entry of one level-0 bucket
    /// shares `time >> L0_BITS`, so
    /// `(low 6 time bits << 96) | (prio << 32) | index` packs the whole
    /// comparison into one u128: sorting these keys and gathering entries
    /// once is much cheaper than swapping full entries.
    sort_keys: Vec<u128>,
    next_seq: u64,
    len: usize,
}

impl<T> TimingWheel<T> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimingWheel {
            l0: empty_buckets::<T, L0_SLOTS>(),
            occ0: [0u64; L0_SLOTS / 64],
            cursor: 0,
            window0_end: L0_SLOTS as u64 + 1,
            l1: empty_buckets::<T, L1_SLOTS>(),
            occ1: [0u64; L1_SLOTS / 64],
            cursor1: 0,
            window1_end: L1_SLOTS as u64 + 1,
            ready: Vec::new(),
            far: Vec::new(),
            sort_keys: Vec::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `item` at absolute time `time`: same-instant entries pop
    /// in ascending `(prio, seq)` order.
    pub fn push(&mut self, time: SimTime, prio: u64, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let b0 = b0_of(time);
        if b0 > self.cursor {
            if b0 < self.window0_end {
                let slot = (b0 & L0_MASK) as usize;
                self.l0[slot].push(Entry {
                    time,
                    prio,
                    seq,
                    item,
                });
                self.occ0[slot >> 6] |= 1 << (slot & 63);
            } else {
                let b1 = b1_of(time);
                if b1 < self.window1_end {
                    let slot = (b1 & L1_MASK) as usize;
                    self.l1[slot].push(Entry {
                        time,
                        prio,
                        seq,
                        item,
                    });
                    self.occ1[slot >> 6] |= 1 << (slot & 63);
                } else {
                    self.far.push(Entry {
                        time,
                        prio,
                        seq,
                        item,
                    });
                }
            }
        } else {
            // The instant is at or before the staged cursor bucket, so its
            // place is inside `ready` (stored descending, popped from the
            // back). `seq` exceeds every pending sequence number, so the
            // slot is found by `(time, prio)` alone: entries with a
            // strictly greater `(time, prio)` stay in front, and pending
            // entries equal on both pop first (smaller seq).
            let pos = self
                .ready
                .partition_point(|e| (e.time, e.prio) > (time, prio));
            self.ready.insert(
                pos,
                Entry {
                    time,
                    prio,
                    seq,
                    item,
                },
            );
        }
    }

    /// Removes and returns the earliest entry, if any.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        if self.ready.is_empty() {
            self.advance()?;
        }
        let e = self.ready.pop()?;
        self.len -= 1;
        Some(e)
    }

    /// Time of the earliest pending entry.
    ///
    /// Read-only by design: a peek must never advance the cursor. The
    /// simulation loop peeks one event past every deadline, and if that
    /// peek staged a far-future bucket, everything the harness injects at
    /// the deadline would land "before" the cursor and degrade the wheel
    /// into a sorted-insert list. Instead, when nothing is staged, the next
    /// event's time is computed by scanning the first occupied bucket of
    /// the first non-empty level — O(bucket) work, amortised once per
    /// bucket transition.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.ready.last() {
            return Some(e.time);
        }
        if self.len == 0 {
            return None;
        }
        // Earlier levels always hold strictly earlier events than later
        // ones, so the minimum of the first non-empty level is global.
        if let Some(b0) = next_occupied::<{ L0_SLOTS / 64 }>(&self.occ0, self.cursor, L0_MASK) {
            let slot = (b0 & L0_MASK) as usize;
            return self.l0[slot].iter().map(|e| e.time).min();
        }
        if let Some(b1) = next_occupied::<{ L1_SLOTS / 64 }>(&self.occ1, self.cursor1, L1_MASK) {
            let slot = (b1 & L1_MASK) as usize;
            return self.l1[slot].iter().map(|e| e.time).min();
        }
        self.far.iter().map(|e| e.time).min()
    }

    /// The entry `k` pops ahead (`upcoming(0)` is what [`Self::pop`] would
    /// return), if it is already staged: `None` past the staged entries,
    /// whose successors sit unsorted in later buckets. Like
    /// [`Self::peek_time`], it never advances the cursor. A later push may
    /// put another entry first; the answer is a forecast for a prefetch,
    /// not a promise.
    pub fn upcoming(&self, k: usize) -> Option<&T> {
        let staged = self.ready.len();
        staged.checked_sub(k + 1).map(|i| &self.ready[i].item)
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Bytes the wheel holds from the allocator right now: every bucket,
    /// the ready and far lists and the sort scratch at capacity, plus the
    /// two arrays of bucket headers.
    pub fn allocated_bytes(&self) -> usize {
        let buckets = self.l0.iter().chain(self.l1.iter());
        let entries =
            buckets.map(Vec::capacity).sum::<usize>() + self.ready.capacity() + self.far.capacity();
        entries * std::mem::size_of::<Entry<T>>()
            + self.sort_keys.capacity() * std::mem::size_of::<u128>()
            + std::mem::size_of_val(&*self.l0)
            + std::mem::size_of_val(&*self.l1)
    }

    /// Advances the cursor to the next non-empty level-0 bucket — refilling
    /// level 0 from level 1, and level 1 from the far list, as needed — and
    /// stages that bucket into `ready` (descending `(time, prio, seq)`). Returns
    /// `None` if the scheduler is empty.
    fn advance(&mut self) -> Option<()> {
        debug_assert!(self.ready.is_empty());
        if self.len == 0 {
            return None;
        }
        loop {
            // Fast path: an occupied near-wheel bucket.
            if let Some(b0) = next_occupied::<{ L0_SLOTS / 64 }>(&self.occ0, self.cursor, L0_MASK) {
                let slot = (b0 & L0_MASK) as usize;
                self.occ0[slot >> 6] &= !(1 << (slot & 63));
                self.cursor = b0;
                let bucket = &mut self.l0[slot];
                if bucket.len() > 1 {
                    // Sort packed `(in-bucket time bits, prio, index)` keys
                    // instead of swapping full entries, then gather each
                    // entry into `ready` with exactly one move. In-bucket
                    // index order is push order, i.e. `seq` order, so
                    // ascending (time, prio, index) walked backwards is
                    // exactly the descending (time, prio, seq) the pop path
                    // needs.
                    self.sort_keys.clear();
                    self.sort_keys
                        .extend(bucket.iter().enumerate().map(|(i, e)| {
                            (((e.time.as_micros() & L0_TIME_MASK) as u128) << 96)
                                | ((e.prio as u128) << 32)
                                | i as u128
                        }));
                    self.sort_keys.sort_unstable();
                    self.ready.reserve(bucket.len());
                    // SAFETY: each index in `sort_keys` is a distinct valid
                    // index into `bucket`; every entry is read exactly once,
                    // `reserve` above makes the pushes non-panicking, and
                    // `set_len(0)` forgets the moved-out entries before
                    // anything else can observe them.
                    unsafe {
                        let src = bucket.as_ptr();
                        for &key in self.sort_keys.iter().rev() {
                            self.ready
                                .push(std::ptr::read(src.add((key as u32) as usize)));
                        }
                        bucket.set_len(0);
                    }
                } else {
                    self.ready.extend(bucket.pop());
                }
                if bucket.capacity() > KEEP {
                    *bucket = Vec::new();
                }
                return Some(());
            }
            // Level 0 is dry: scatter the next occupied coarse slot into it.
            if let Some(b1) = next_occupied::<{ L1_SLOTS / 64 }>(&self.occ1, self.cursor1, L1_MASK)
            {
                let slot = (b1 & L1_MASK) as usize;
                self.occ1[slot >> 6] &= !(1 << (slot & 63));
                self.cursor1 = b1;
                // Biased slot `b1` covers raw level-0 indices
                // `[(b1-1) << 9, (b1-1) << 9 + 512)`, i.e. biased indices
                // one higher; the cursor is the sentinel just before them.
                self.cursor = (b1 - 1) << (L1_BITS - L0_BITS);
                self.window0_end = self.cursor + L0_SLOTS as u64 + 1;
                // The slot is refilled once per level-1 rotation (~16.8 s):
                // its allocation is dropped, not kept for then.
                for e in std::mem::take(&mut self.l1[slot]) {
                    let s0 = (b0_of(e.time) & L0_MASK) as usize;
                    self.l0[s0].push(e);
                    self.occ0[s0 >> 6] |= 1 << (s0 & 63);
                }
                continue;
            }
            // Both wheels are dry: jump the coarse window to the earliest
            // far event and partition the far list into level 1.
            if self.far.is_empty() {
                return None;
            }
            let min_b1 = self
                .far
                .iter()
                .map(|e| b1_of(e.time))
                .min()
                .expect("checked non-empty");
            self.cursor1 = min_b1 - 1;
            self.window1_end = min_b1 + L1_SLOTS as u64;
            // Order-preserving partition (`extract_if`, not `swap_remove`):
            // the far list is in push order, and in-bucket index order *is*
            // the seq tie-breaker once entries reach a level-0 sort, so
            // same-time entries must stream into level 1 in their original
            // relative order.
            let window1_end = self.window1_end;
            for e in self.far.extract_if(.., |e| b1_of(e.time) < window1_end) {
                let s1 = (b1_of(e.time) & L1_MASK) as usize;
                self.l1[s1].push(e);
                self.occ1[s1 >> 6] |= 1 << (s1 & 63);
            }
        }
    }
}

/// A boxed array of `N` empty bucket vectors.
fn empty_buckets<T, const N: usize>() -> Box<[Vec<Entry<T>>; N]> {
    let v: Vec<Vec<Entry<T>>> = std::iter::repeat_with(Vec::new).take(N).collect();
    match v.try_into() {
        Ok(boxed) => boxed,
        Err(_) => unreachable!("length N by construction"),
    }
}

/// Absolute index of the nearest occupied bucket after `cursor`, found by
/// scanning a `WORDS * 64`-bit occupancy bitmap (wrapping once around the
/// wheel). Occupied buckets always lie within `(cursor, cursor + slots]`
/// (the upper bound is reached only transiently, right after a window
/// jump, when the cursor is a sentinel one bucket before the window), so
/// the wrapped scan includes the cursor's own slot and every relative
/// position maps back to an absolute index unambiguously.
fn next_occupied<const WORDS: usize>(occ: &[u64; WORDS], cursor: u64, mask: u64) -> Option<u64> {
    let slots = WORDS * 64;
    let rel = (cursor & mask) as usize;
    let base = cursor - rel as u64;
    if let Some(r) = scan_bitmap(occ, rel + 1, slots) {
        return Some(base + r as u64);
    }
    scan_bitmap(occ, 0, rel + 1).map(|r| base + slots as u64 + r as u64)
}

/// First set bit in `[from, to)` of the bitmap, as a bucket slot index.
fn scan_bitmap<const WORDS: usize>(occ: &[u64; WORDS], from: usize, to: usize) -> Option<usize> {
    let mut r = from;
    while r < to {
        let word = occ[r >> 6] & (!0u64 << (r & 63));
        if word != 0 {
            let idx = (r & !63) + word.trailing_zeros() as usize;
            // A hit past `to` means the remaining range lies inside this
            // word and holds no set bit.
            return if idx < to { Some(idx) } else { None };
        }
        r = (r & !63) + 64;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// The oracle: the classic `BinaryHeap` priority queue (O(log n) per
    /// operation) over the same `(time, prio, seq)` key. The wheel must pop
    /// exactly what this pops, for any interleaving of pushes and pops.
    #[derive(Debug)]
    struct HeapScheduler<T> {
        heap: BinaryHeap<HeapEntry<T>>,
        next_seq: u64,
    }

    #[derive(Debug)]
    struct HeapEntry<T>(Entry<T>);

    impl<T> PartialEq for HeapEntry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.0.time == other.0.time && self.0.prio == other.0.prio && self.0.seq == other.0.seq
        }
    }
    impl<T> Eq for HeapEntry<T> {}
    impl<T> PartialOrd for HeapEntry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T> Ord for HeapEntry<T> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest entry pops first.
            other
                .0
                .time
                .cmp(&self.0.time)
                .then_with(|| other.0.prio.cmp(&self.0.prio))
                .then_with(|| other.0.seq.cmp(&self.0.seq))
        }
    }

    impl<T> HeapScheduler<T> {
        /// Creates an empty scheduler.
        fn new() -> Self {
            HeapScheduler {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        /// Schedules `item` at absolute time `time`: same-instant entries pop
        /// in ascending `(prio, seq)` order.
        fn push(&mut self, time: SimTime, prio: u64, item: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(HeapEntry(Entry {
                time,
                prio,
                seq,
                item,
            }));
        }

        /// Removes and returns the earliest entry, if any.
        fn pop(&mut self) -> Option<Entry<T>> {
            self.heap.pop().map(|e| e.0)
        }

        /// Time of the earliest pending entry.
        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.0.time)
        }

        /// Number of pending entries.
        fn len(&self) -> usize {
            self.heap.len()
        }

        /// The items of the next `n` entries in pop order; the entries go
        /// back with their sequence numbers, so nothing changes.
        fn next_items(&mut self, n: usize) -> Vec<T>
        where
            T: Clone,
        {
            let popped: Vec<_> = std::iter::from_fn(|| self.heap.pop()).take(n).collect();
            let items = popped.iter().map(|e| e.0.item.clone()).collect();
            self.heap.extend(popped);
            items
        }
    }

    /// Checks the wheel's look-ahead against the oracle: every staged entry
    /// is the oracle's next pop, in order, and nothing past them is shown.
    fn check_upcoming(wheel: &TimingWheel<u64>, heap: &mut HeapScheduler<u64>) {
        let staged = wheel.ready.len();
        for (k, want) in heap.next_items(staged).iter().enumerate() {
            assert_eq!(wheel.upcoming(k), Some(want), "staged entry {k}");
        }
        assert_eq!(wheel.upcoming(staged), None, "past the staged entries");
    }

    fn drain_order(wheel: &mut TimingWheel<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| wheel.pop())
            .map(|e| (e.time.as_micros(), e.item))
            .collect()
    }

    #[test]
    fn pops_in_time_order_across_buckets() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.push(SimTime::from_millis(30), 0, 3);
        w.push(SimTime::from_millis(10), 0, 1);
        w.push(SimTime::from_millis(20), 0, 2);
        assert_eq!(
            drain_order(&mut w),
            vec![(10_000, 1), (20_000, 2), (30_000, 3)]
        );
    }

    #[test]
    fn same_time_pops_in_insertion_order() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            w.push(t, 0, i);
        }
        assert_eq!(
            drain_order(&mut w)
                .iter()
                .map(|&(_, i)| i)
                .collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn same_time_priority_beats_insertion_order() {
        // Priority is the first same-instant tie-breaker on every path a
        // push can take: straight into the cursor bucket, into the ready
        // list while the bucket is staged, and via the heap reference.
        let t = SimTime::from_millis(5);
        let mut w: TimingWheel<u32> = TimingWheel::new();
        let mut h: HeapScheduler<u32> = HeapScheduler::new();
        for (i, prio) in [3u64, 1, 2, 1, 0].iter().enumerate() {
            w.push(t, *prio, i as u32);
            h.push(t, *prio, i as u32);
        }
        // (prio, seq) ascending: (0,4) (1,1) (1,3) (2,2) (3,0).
        let expect = vec![4, 1, 3, 2, 0];
        let wheel_order: Vec<u32> = std::iter::from_fn(|| w.pop()).map(|e| e.item).collect();
        let heap_order: Vec<u32> = std::iter::from_fn(|| h.pop()).map(|e| e.item).collect();
        assert_eq!(wheel_order, expect);
        assert_eq!(heap_order, expect);

        // Ready-list insert path: stage the bucket, then push lower- and
        // higher-priority entries at the same instant.
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.push(t, 5, 0);
        w.push(t, 5, 1);
        assert_eq!(w.pop().unwrap().item, 0); // stages the bucket
        w.push(t, 9, 2); // after the pending prio-5 entry
        w.push(t, 1, 3); // before it
        w.push(t, 5, 4); // same prio: after (higher seq)
        let order: Vec<u32> = std::iter::from_fn(|| w.pop()).map(|e| e.item).collect();
        assert_eq!(order, vec![3, 1, 4, 2]);
    }

    #[test]
    fn far_future_events_go_through_overflow_and_back() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        // 30 s is beyond both wheel levels (~32.8 ms and ~16.8 s) and must
        // take the far-list path; 90 s forces a second far partition.
        w.push(SimTime::from_secs(30), 0, 2);
        w.push(SimTime::from_secs(90), 0, 3);
        w.push(SimTime::from_millis(1), 0, 1);
        assert_eq!(w.len(), 3);
        assert_eq!(
            drain_order(&mut w),
            vec![(1_000, 1), (30_000_000, 2), (90_000_000, 3)]
        );
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn same_instant_burst_at_time_zero_is_linear() {
        // Regression: bucket indices are biased by one so that `t = 0`
        // lands in a real bucket (index 1) instead of being treated as
        // already behind the initial cursor. Without the bias, every push
        // here would take a front-of-vector sorted insert into `ready` —
        // O(n^2) entry moves for the burst, which is exactly the shape of
        // an engine bootstrap scheduling every node's start at once.
        let mut w: TimingWheel<u32> = TimingWheel::new();
        const N: u32 = 20_000;
        for i in 0..N {
            w.push(SimTime::ZERO, 0, i);
        }
        w.push(SimTime::from_micros(1), 0, N);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop()).map(|e| e.item).collect();
        assert_eq!(order, (0..=N).collect::<Vec<_>>());
    }

    #[test]
    fn far_list_same_time_entries_keep_insertion_order() {
        // Regression: the far-list partition must preserve the relative
        // order of same-time entries. With a `swap_remove` partition, the
        // layout [30 s, 90 s, 90 s] moves the *last* 90 s entry into the
        // extracted hole, reversing the two and popping seq 2 before seq 1.
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.push(SimTime::from_secs(30), 0, 0);
        w.push(SimTime::from_secs(90), 0, 1);
        w.push(SimTime::from_secs(90), 0, 2);
        assert_eq!(
            drain_order(&mut w),
            vec![(30_000_000, 0), (90_000_000, 1), (90_000_000, 2)]
        );
    }

    #[test]
    fn interleaved_push_pop_within_current_bucket() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        let t = SimTime::from_micros(100);
        w.push(t, 0, 0);
        w.push(SimTime::from_micros(120), 0, 2);
        assert_eq!(w.pop().unwrap().item, 0);
        // Pushed while the cursor bucket is partially drained: same instant
        // as a pending entry -> must pop after it (insertion order)...
        w.push(SimTime::from_micros(120), 0, 3);
        // ...and an earlier instant within the bucket still pops first.
        w.push(SimTime::from_micros(110), 0, 1);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop()).map(|e| e.item).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn wheel_wraps_around() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        // Walk the cursor far enough to wrap the 512-bucket near wheel (and
        // cross level-1 slots) repeatedly.
        let mut expect = Vec::new();
        for i in 0..200u64 {
            let t = i * 37_003; // ~37 ms apart -> several wraps over 200 events
            w.push(SimTime::from_micros(t), 0, i as u32);
            expect.push((t, i as u32));
        }
        assert_eq!(drain_order(&mut w), expect);
    }

    #[test]
    fn equivalent_to_heap_on_mixed_workload() {
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut heap: HeapScheduler<u64> = HeapScheduler::new();
        // Deterministic pseudo-random interleaving of pushes and pops with
        // times spanning bucket-local, in-horizon and overflow ranges.
        let mut x = 0xDEADBEEFu64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..5000u64 {
            if step() % 3 == 0 {
                let (a, b) = (
                    wheel.pop().map(|e| (e.time, e.prio, e.seq)),
                    heap.pop().map(|e| (e.time, e.prio, e.seq)),
                );
                assert_eq!(a, b, "divergence at op {i}");
            } else {
                // Coarse times force same-instant collisions so the prio
                // tie-breaker is actually exercised.
                let t = SimTime::from_micros((step() % 500) * 10_000);
                let prio = step() % 7;
                wheel.push(t, prio, i);
                heap.push(t, prio, i);
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek_time(), heap.peek_time());
            check_upcoming(&wheel, &mut heap);
        }
        drain_in_lockstep(&mut wheel, &mut heap);
    }

    #[test]
    fn upcoming_never_moves_what_pops() {
        // Two wheels get the same pushes and pops; one is asked for its
        // look-ahead before every operation. Half the pushes land at the
        // instant just popped, inside the staged list: a look-ahead that
        // moved the cursor would send them there out of order.
        let mut peeked: TimingWheel<u64> = TimingWheel::new();
        let mut plain: TimingWheel<u64> = TimingWheel::new();
        let mut x = 0x5EED_F00Du64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = SimTime::ZERO;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..4000u64 {
            for k in 0..3 {
                let _ = peeked.upcoming(k);
            }
            match step() % 4 {
                0 => {
                    let (p, q) = (peeked.pop(), plain.pop());
                    if let Some(e) = &p {
                        now = e.time;
                    }
                    a.extend(p.map(|e| (e.time, e.prio, e.seq, e.item)));
                    b.extend(q.map(|e| (e.time, e.prio, e.seq, e.item)));
                }
                1 | 2 => {
                    let prio = step() % 5;
                    peeked.push(now, prio, i);
                    plain.push(now, prio, i);
                }
                _ => {
                    let t = now + crate::time::SimDuration::from_micros(step() % 5_000);
                    peeked.push(t, 0, i);
                    plain.push(t, 0, i);
                }
            }
        }
        a.extend(std::iter::from_fn(|| peeked.pop()).map(|e| (e.time, e.prio, e.seq, e.item)));
        b.extend(std::iter::from_fn(|| plain.pop()).map(|e| (e.time, e.prio, e.seq, e.item)));
        assert_eq!(a, b);
    }

    #[test]
    fn peek_and_len() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        assert_eq!(w.len(), 0);
        assert_eq!(w.peek_time(), None);
        w.push(SimTime::from_secs(1), 0, 0);
        w.push(SimTime::from_secs(2), 0, 1);
        assert_eq!(w.len(), 2);
        assert_eq!(w.peek_time(), Some(SimTime::from_secs(1)));
        let mut h: HeapScheduler<u32> = HeapScheduler::new();
        assert_eq!(h.len(), 0);
        h.push(SimTime::from_secs(1), 0, 0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.peek_time(), Some(SimTime::from_secs(1)));
    }

    /// Pops both to the end in lockstep and asserts the total orders agree.
    fn drain_in_lockstep(wheel: &mut TimingWheel<u64>, heap: &mut HeapScheduler<u64>) {
        loop {
            let w = wheel.pop().map(|e| (e.time, e.prio, e.seq, e.item));
            let h = heap.pop().map(|e| (e.time, e.prio, e.seq, e.item));
            assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
    }

    #[test]
    fn a_drained_burst_gives_its_storage_back() {
        const BURST: usize = 20_000;
        let mut w: TimingWheel<u32> = TimingWheel::new();
        for i in 0..BURST {
            w.push(SimTime::ZERO, 0, i as u32);
        }
        // One level-1 rotation: an event in every coarse slot, so each is
        // scattered into level 0 once, plus a second burst that reaches its
        // level-0 bucket through a level-1 slot.
        for slot in 0..L1_SLOTS as u64 {
            w.push(SimTime::from_micros((slot << L1_BITS) + 100), 0, 0);
        }
        for i in 0..BURST / 4 {
            w.push(SimTime::from_secs(5), 0, i as u32);
        }
        while w.pop().is_some() {}
        // What may stay: one burst's worth of ready list and sort scratch,
        // `KEEP` entries per level-0 bucket, and the bucket headers.
        let entry = std::mem::size_of::<Entry<u32>>();
        let bound = BURST * (entry + std::mem::size_of::<u128>())
            + L0_SLOTS * KEEP * entry
            + (L0_SLOTS + L1_SLOTS) * std::mem::size_of::<Vec<Entry<u32>>>();
        assert!(
            w.allocated_bytes() <= bound,
            "{} bytes held by an empty wheel, bound {bound}",
            w.allocated_bytes()
        );
        assert!(w.l0.iter().all(|b| b.capacity() <= KEEP));
        assert!(w.l1.iter().all(|b| b.capacity() == 0));
    }

    #[test]
    fn a_released_bucket_regrows_in_order() {
        // Fill one level-0 bucket past `KEEP`, drain it (the allocation is
        // released), then fill the same slot again one rotation later —
        // directly, and once more through level 1.
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut heap: HeapScheduler<u64> = HeapScheduler::new();
        let rotation = 1u64 << L1_BITS;
        let mut item = 0;
        for round in 0..3u64 {
            let base = 1_000 + round * rotation;
            assert_eq!(b0_of(SimTime::from_micros(base)) & L0_MASK, 16);
            for i in 0..4 * KEEP as u64 {
                // Same bucket, a few distinct instants and priorities.
                let time = SimTime::from_micros(base + i % 5);
                wheel.push(time, i % 3, item);
                heap.push(time, i % 3, item);
                item += 1;
            }
            if round < 2 {
                drain_in_lockstep(&mut wheel, &mut heap);
                assert_eq!(wheel.l0[16].capacity(), 0, "bucket released");
            }
        }
        drain_in_lockstep(&mut wheel, &mut heap);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The timing wheel pops entries in exactly the same order as the
        /// `BinaryHeap` oracle for any interleaving of pushes and pops, with
        /// times spanning bucket-local, in-horizon and far-future
        /// (overflow) ranges, and its look-ahead agrees with the oracle at
        /// every step.
        #[test]
        fn timing_wheel_matches_binary_heap(
            ops in proptest::collection::vec((0u64..3_000_000, 0u8..6), 1..300),
        ) {
            let mut wheel: TimingWheel<u64> = TimingWheel::new();
            let mut heap: HeapScheduler<u64> = HeapScheduler::new();
            let mut now = SimTime::ZERO;
            for (i, &(t, kind)) in ops.iter().enumerate() {
                if kind == 0 {
                    // One pop op per five pushes on average.
                    let w = wheel.pop().map(|e| (e.time, e.seq, e.item));
                    let h = heap.pop().map(|e| (e.time, e.seq, e.item));
                    prop_assert_eq!(w, h, "pop divergence at op {}", i);
                    if let Some((time, ..)) = w {
                        now = time;
                    }
                } else if kind == 5 {
                    // At the instant just popped, after a look-ahead: the
                    // staged-list insert a moved cursor would misplace.
                    let prio = t % 4;
                    wheel.push(now, prio, i as u64);
                    heap.push(now, prio, i as u64);
                } else {
                    // Stretch some times past the levels' horizons (512 ×
                    // 64 µs ≈ 32.8 ms, then 512 × 32.8 ms ≈ 16.8 s) and
                    // collide others onto shared instants.
                    let t = match kind {
                        1 => t,
                        2 => t * 64,                 // up to ~192 s: far-future overflow
                        3 => t & !0x3FF,             // coarse grid: many same-time ties
                        _ => (t & !0xF_FFFF) * 64, // far-future *ties*: exercises the
                                                   // order-preserving far partition
                    };
                    let time = SimTime::from_micros(t);
                    wheel.push(time, 0, i as u64);
                    heap.push(time, 0, i as u64);
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                check_upcoming(&wheel, &mut heap);
            }
            drain_in_lockstep(&mut wheel, &mut heap);
        }
    }
}
