//! Compact per-node delivery bookkeeping, shared by BRISA and the baselines.
//!
//! Every node must answer *have I seen this before?* for each arriving
//! sequence number (duplicate suppression, relay-once, BRISA's gap
//! detector), and every protocol is scored on the same per-node facts:
//! messages delivered, duplicates received and, on the classic result
//! path, each message's first-delivery time. At 100 000 nodes × hundreds of
//! messages a per-node hash map of those times dominated memory.
//!
//! [`DeliveryLog`] keeps the counts and a sequence-indexed bitmap (one bit
//! per message), and makes the expensive part optional:
//!
//! * [`DeliveryTracking::Full`] — per-sequence first-delivery times in a
//!   dense vector (`8 bytes × messages`), the exact data the classic
//!   figures consume;
//! * [`DeliveryTracking::Counters`] — no per-sequence times at all; each
//!   first delivery is folded into a fixed-footprint [`NodeHistogram`]
//!   against the known publish schedule, so a node costs `messages / 8`
//!   bytes of bitmap plus one 280-byte histogram no matter how long the
//!   stream runs.
//!
//! Each mode owns its storage: a `Full` ledger feeds no histogram and a
//! `Counters` ledger carries no times vector.
//!
//! Being sequence-indexed, it yields in ascending sequence order whatever
//! the order of receptions.
//!
//! It also owns the node's one delivery cursor, [`DeliveryLog::low`]: the
//! lowest sequence number the node still waits for, where BRISA's gap
//! requests start and above which TAG pulls. Storage is indexed by numbers
//! that come off the wire, so the cursor bounds it. [`DeliveryLog::record`]
//! refuses any number at or above `low() + `[`WINDOW`] — nothing allocated,
//! no delivery, no duplicate, one [`DeliveryLog::refused`] — however
//! hostile the peer. Nothing freezes the window: a hole more than half a
//! window behind the newest delivery is given up, storage slides behind
//! the cursor, and a ledger that has delivered nothing anchors wherever its
//! first number lies, so streams of any length and joiners at any point
//! keep delivering (DESIGN.md, "Loss recovery in BRISA").

use crate::hist::{LatencyHistogram, NodeHistogram};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// How much per-message delivery bookkeeping a node keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryTracking {
    /// Record the first-delivery time of every sequence number — the exact
    /// data the classic per-node result path consumes. Costs 8 bytes per
    /// message per node.
    Full,
    /// Scale mode: keep only the seen-bitmap (one bit per message) plus a
    /// fixed-footprint latency histogram computed against the known publish
    /// schedule (`stream_start_us + seq × interval_us`).
    Counters {
        /// Injection time of sequence number 0, in µs of simulated time.
        stream_start_us: u64,
        /// Interval between injections, in µs.
        interval_us: u64,
    },
}

/// Width of the window of sequence numbers a ledger accepts above its
/// cursor. Half of it is wider than the longest stream any scenario
/// publishes and than the widest gap a correct run opens, so no correct
/// run gives up a hole or meets a refusal; DESIGN.md, "Loss recovery in
/// BRISA", has the measurements. Storage never spans more than three
/// windows, 24 KiB of bitmap and 1.5 MiB of `Full` times, before the
/// vectors' growth slack.
pub const WINDOW: u64 = 1 << 16;

/// What a ledger keeps of each first delivery besides its bit: the
/// storage of its tracking mode, and only that. The histogram is inline:
/// every Streaming node holds one, and a box would add an allocation and
/// a pointer to each of them.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
enum Store {
    /// First-delivery time per sequence number from the ledger's `base`,
    /// in µs (`u64::MAX` = not delivered).
    Full { times_us: Vec<u64> },
    /// The latency distribution against the publish schedule.
    Counters {
        stream_start_us: u64,
        interval_us: u64,
        hist: NodeHistogram,
    },
}

/// Sequence-indexed delivery ledger of one node.
#[derive(Debug, Clone)]
pub struct DeliveryLog {
    /// Sequence number of the first bit of `seen` and the first entry of
    /// `times_us`; a multiple of 64.
    base: u64,
    /// Lowest sequence number the node still waits for: the contiguous
    /// delivered prefix ends here, or at a joiner's anchor, or past a hole
    /// given up.
    low: u64,
    /// One bit per sequence number from `base`: set after the first
    /// reception.
    seen: Vec<u64>,
    delivered: u64,
    duplicates: u64,
    /// Sequence numbers refused for lying outside the window.
    refused: u64,
    first: Option<SimTime>,
    last: Option<SimTime>,
    /// First-delivery times or the latency histogram. Last, so the fields
    /// every record touches share cache lines.
    store: Store,
}

impl Default for DeliveryLog {
    fn default() -> Self {
        DeliveryLog::new(DeliveryTracking::Full)
    }
}

const NOT_DELIVERED: u64 = u64::MAX;

impl DeliveryLog {
    /// Creates an empty log with the given tracking mode.
    pub fn new(tracking: DeliveryTracking) -> Self {
        let store = match tracking {
            DeliveryTracking::Full => Store::Full {
                times_us: Vec::new(),
            },
            DeliveryTracking::Counters {
                stream_start_us,
                interval_us,
            } => Store::Counters {
                stream_start_us,
                interval_us,
                hist: NodeHistogram::default(),
            },
        };
        DeliveryLog {
            base: 0,
            low: 0,
            seen: Vec::new(),
            store,
            delivered: 0,
            duplicates: 0,
            refused: 0,
            first: None,
            last: None,
        }
    }

    /// True if `seq` was delivered and still lies in storage, which reaches
    /// down to 0 or to at least a window below the cursor.
    #[inline]
    pub fn contains(&self, seq: u64) -> bool {
        let Some(off) = seq.checked_sub(self.base) else {
            return false;
        };
        self.seen
            .get((off / 64) as usize)
            .is_some_and(|w| w & (1u64 << (off % 64)) != 0)
    }

    /// The lowest sequence number the node still waits for: the contiguous
    /// delivered prefix `[.., low)`, a joiner's anchor, or the first number
    /// past a hole given up.
    #[inline]
    pub fn low(&self) -> u64 {
        self.low
    }

    /// Anchors the cursor of a ledger that has delivered nothing at `low`,
    /// so a mid-stream joiner takes what lies below for history, not a gap.
    /// Storage starts one window below the anchor: a number below it can
    /// still arrive and be recorded.
    #[inline]
    pub fn anchor(&mut self, low: u64) {
        if self.delivered == 0 {
            debug_assert!(self.seen.is_empty() && self.times().is_empty());
            self.low = low;
            self.base = low.saturating_sub(WINDOW) & !63;
        }
    }

    /// True if `seq` lies inside the window, in storage and below
    /// `low() + WINDOW`; a number outside it is counted as refused.
    #[inline]
    pub fn admit(&mut self, seq: u64) -> bool {
        let inside = self.inside(seq);
        if !inside {
            self.refused += 1;
        }
        inside
    }

    #[inline]
    fn inside(&self, seq: u64) -> bool {
        seq >= self.base && seq.saturating_sub(self.low) < WINDOW
    }

    /// Records a reception of `seq` at `now`. Returns `true` if this was the
    /// first reception (a delivery); any later one counts as a duplicate. A
    /// number the window refuses ([`DeliveryLog::admit`]) is neither: it
    /// returns `false` and allocates nothing. A ledger that has delivered
    /// nothing has no cursor to measure against, so a first number outside
    /// its window anchors it there instead.
    #[inline]
    pub fn record(&mut self, seq: u64, now: SimTime) -> bool {
        if !self.inside(seq) {
            if self.delivered > 0 {
                self.refused += 1;
                return false;
            }
            self.anchor(seq);
        }
        let off = seq - self.base;
        let word = (off / 64) as usize;
        let bit = 1u64 << (off % 64);
        if self.seen.len() <= word {
            self.seen.resize(word + 1, 0);
        }
        if self.seen[word] & bit != 0 {
            self.duplicates += 1;
            return false;
        }
        self.seen[word] |= bit;
        self.delivered += 1;
        self.first = Some(self.first.map_or(now, |f| f.min(now)));
        self.last = Some(self.last.map_or(now, |l| l.max(now)));
        match &mut self.store {
            Store::Full { times_us } => {
                let idx = off as usize;
                if times_us.len() <= idx {
                    times_us.resize(idx + 1, NOT_DELIVERED);
                }
                times_us[idx] = now.as_micros();
            }
            Store::Counters {
                stream_start_us,
                interval_us,
                hist,
            } => {
                let published_us = stream_start_us.saturating_add(interval_us.saturating_mul(seq));
                hist.record_us(now.as_micros().saturating_sub(published_us));
            }
        }
        if seq == self.low {
            self.advance();
        } else if seq.saturating_sub(self.low) >= WINDOW / 2 {
            // Every hole more than half a window behind the newest delivery
            // is given up: no buffer can still serve one, and waiting for it
            // would let the window close in front of the stream.
            self.low = seq - (WINDOW / 2 - 1);
            self.advance();
        }
        true
    }

    /// Moves the cursor over the run of delivered numbers starting at it, a
    /// bitmap word at a time.
    #[inline]
    fn advance(&mut self) {
        while let Some(&w) = self.seen.get(((self.low - self.base) / 64) as usize) {
            let bit = (self.low - self.base) % 64;
            let run = u64::from((w >> bit).trailing_ones());
            self.low = self.low.saturating_add(run);
            if bit + run < 64 || self.low == u64::MAX {
                break;
            }
        }
        if self.low - self.base >= 2 * WINDOW {
            self.slide();
        }
    }

    /// Drops the storage more than a window below the cursor, once the
    /// cursor is two windows above `base`: one `drain` per window.
    #[cold]
    fn slide(&mut self) {
        let base = (self.low - WINDOW) & !63;
        let shift = base - self.base;
        self.seen
            .drain(..((shift / 64) as usize).min(self.seen.len()));
        if let Store::Full { times_us } = &mut self.store {
            times_us.drain(..(shift as usize).min(times_us.len()));
        }
        self.base = base;
    }

    /// Messages delivered (first receptions).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Receptions of already-delivered messages.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Sequence numbers refused for lying outside the window.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// The highest sequence number delivered, if any.
    pub fn highest(&self) -> Option<u64> {
        let word = self.seen.iter().rposition(|&w| w != 0)?;
        Some(self.base + word as u64 * 64 + 63 - u64::from(self.seen[word].leading_zeros()))
    }

    /// Average number of duplicates received per delivered message.
    pub fn duplicates_per_message(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.duplicates as f64 / self.delivered as f64
        }
    }

    /// Times of the first and the last first-reception, if any. The span
    /// between them is the per-node dissemination latency of Table II.
    pub fn span(&self) -> Option<(SimTime, SimTime)> {
        Some((self.first?, self.last?))
    }

    /// `(sequence number, first reception time)` pairs in ascending sequence
    /// order, for the numbers still in storage. Empty under
    /// [`DeliveryTracking::Counters`] — the information is folded into
    /// [`DeliveryLog::latency_hist`] instead.
    pub fn iter_times(&self) -> impl Iterator<Item = (u64, SimTime)> + '_ {
        self.times()
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != NOT_DELIVERED)
            .map(|(off, &t)| (self.base + off as u64, SimTime::from_micros(t)))
    }

    /// The latency histogram against the publish schedule, widened from
    /// the node's 32-bit buckets (empty under [`DeliveryTracking::Full`]).
    pub fn latency_hist(&self) -> LatencyHistogram {
        match &self.store {
            Store::Full { .. } => LatencyHistogram::new(),
            Store::Counters { hist, .. } => hist.widen(),
        }
    }

    /// The `Full` first-delivery times from `base` (empty under
    /// `Counters`).
    fn times(&self) -> &[u64] {
        match &self.store {
            Store::Full { times_us } => times_us,
            Store::Counters { .. } => &[],
        }
    }

    /// Heap bytes this log owns at its allocated capacity. Its inline bytes
    /// (histogram included) belong to whatever struct embeds it.
    pub fn heap_bytes(&self) -> usize {
        let times = match &self.store {
            Store::Full { times_us } => times_us.capacity(),
            Store::Counters { .. } => 0,
        };
        (self.seen.capacity() + times) * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_tracking_records_times() {
        let mut log = DeliveryLog::default();
        assert_eq!(log.span(), None);
        assert_eq!(log.duplicates_per_message(), 0.0);
        assert!(log.record(3, SimTime::from_millis(30)));
        assert!(log.record(1, SimTime::from_millis(10)));
        assert!(!log.record(3, SimTime::from_millis(40)), "duplicate");
        assert_eq!((log.delivered(), log.duplicates()), (2, 1));
        assert!((log.duplicates_per_message() - 0.5).abs() < 1e-9);
        assert!(log.contains(1));
        assert!(log.contains(3));
        assert!(!log.contains(0));
        assert!(!log.contains(1000));
        // Recorded out of order, yielded in ascending sequence order.
        let times: Vec<(u64, SimTime)> = log.iter_times().collect();
        assert_eq!(
            times,
            vec![(1, SimTime::from_millis(10)), (3, SimTime::from_millis(30))]
        );
        assert_eq!(
            log.span(),
            Some((SimTime::from_millis(10), SimTime::from_millis(30)))
        );
        assert!(log.latency_hist().is_empty());
    }

    #[test]
    fn counters_tracking_fills_histogram_not_times() {
        let mut log = DeliveryLog::new(DeliveryTracking::Counters {
            stream_start_us: 1_000_000,
            interval_us: 200_000,
        });
        // seq 2 published at 1.4 s, delivered at 1.45 s → 50 ms latency.
        assert!(log.record(2, SimTime::from_micros(1_450_000)));
        assert!(!log.record(2, SimTime::from_micros(1_500_000)));
        assert_eq!((log.delivered(), log.duplicates()), (1, 1));
        assert_eq!(log.iter_times().count(), 0);
        assert_eq!(log.latency_hist().count(), 1);
        assert!((log.latency_hist().mean_ms() - 50.0).abs() < 1e-9);
        assert!(log.contains(2));
        assert!(log.span().is_some());
    }

    #[test]
    fn counters_footprint_is_bitmap_sized() {
        let mut log = DeliveryLog::new(DeliveryTracking::Counters {
            stream_start_us: 0,
            interval_us: 1,
        });
        assert_eq!(log.heap_bytes(), 0);
        for seq in 0..10_000u64 {
            log.record(seq, SimTime::from_micros(seq + 5));
        }
        // 10_000 bits ≈ 1.25 KB of bitmap; no per-seq times.
        assert!(log.heap_bytes() < 3 * 1024, "{}", log.heap_bytes());
        let mut full = DeliveryLog::default();
        for seq in 0..10_000u64 {
            full.record(seq, SimTime::from_micros(seq + 5));
        }
        assert!(full.heap_bytes() > 80 * 1024, "{}", full.heap_bytes());
    }

    #[test]
    fn the_cursor_advances_a_word_at_a_time_over_delivered_runs() {
        let mut log = DeliveryLog::default();
        assert_eq!(log.low(), 0);
        // 1..=130 arrive first: a hole at 0 holds the cursor.
        for seq in (1..=130).rev() {
            log.record(seq, SimTime::from_millis(seq));
        }
        assert_eq!((log.low(), log.highest()), (0, Some(130)));
        // Filling it runs the cursor across two word boundaries.
        log.record(0, SimTime::ZERO);
        assert_eq!(log.low(), 131);
        // A duplicate and a number past a new hole leave it where it is.
        log.record(64, SimTime::ZERO);
        log.record(140, SimTime::ZERO);
        assert_eq!((log.low(), log.highest()), (131, Some(140)));
        assert_eq!(DeliveryLog::default().highest(), None);
    }

    #[test]
    fn an_anchored_cursor_still_records_below_the_anchor() {
        let mut log = DeliveryLog::default();
        log.anchor(100);
        assert_eq!(log.low(), 100);
        assert!(
            log.record(40, SimTime::ZERO),
            "below the anchor: a delivery"
        );
        assert!(log.contains(40) && !log.contains(39), "the bitmap's truth");
        assert_eq!(log.low(), 100, "a number below the cursor does not move it");
        assert!(log.record(100, SimTime::ZERO));
        assert_eq!(log.low(), 101);
        // Once anything is delivered the cursor is the ledger's alone.
        log.anchor(5);
        assert_eq!(log.low(), 101);
    }

    #[test]
    fn a_number_past_the_window_is_refused_without_allocating() {
        let mut log = DeliveryLog::default();
        assert!(log.record(2, SimTime::ZERO));
        let bytes = log.heap_bytes();
        assert!(
            !log.record(1 << 40, SimTime::from_secs(1)),
            "not a delivery"
        );
        assert_eq!(
            (log.delivered(), log.duplicates(), log.refused()),
            (1, 0, 1)
        );
        assert_eq!(log.heap_bytes(), bytes, "nothing allocated");
        assert!(!log.contains(1 << 40));
        assert_eq!(log.span().map(|(_, last)| last), Some(SimTime::ZERO));
        // The window is `[low, low + WINDOW)`, whatever the cursor is.
        assert!(!log.record(WINDOW, SimTime::ZERO));
        assert!(log.record(WINDOW - 1, SimTime::ZERO));
        assert_eq!(log.refused(), 2);
    }

    #[test]
    fn storage_moves_with_the_anchor() {
        let mut log = DeliveryLog::default();
        log.anchor(3 * WINDOW);
        assert_eq!(log.low(), 3 * WINDOW);
        assert!(log.record(3 * WINDOW + 5, SimTime::from_millis(1)));
        assert!(log.record(2 * WINDOW, SimTime::ZERO), "one window below");
        assert!(!log.record(2 * WINDOW - 1, SimTime::ZERO), "below storage");
        assert!(!log.record(4 * WINDOW, SimTime::ZERO), "past the window");
        assert_eq!((log.delivered(), log.refused()), (2, 2));
        assert_eq!(log.highest(), Some(3 * WINDOW + 5));
        assert_eq!(
            log.iter_times().collect::<Vec<_>>(),
            vec![
                (2 * WINDOW, SimTime::ZERO),
                (3 * WINDOW + 5, SimTime::from_millis(1))
            ]
        );
        assert!(log.heap_bytes() <= 2 * (WINDOW as usize) * 8 + 4096);
    }

    #[test]
    fn a_fresh_ledger_anchors_at_its_first_number() {
        // A ledger nobody anchored (a baseline joiner) first hears of the
        // stream three windows in.
        let mut log = DeliveryLog::new(DeliveryTracking::Counters {
            stream_start_us: 0,
            interval_us: 1,
        });
        assert!(log.record(3 * WINDOW, SimTime::ZERO));
        assert_eq!((log.low(), log.refused()), (3 * WINDOW + 1, 0));
        assert!(log.record(3 * WINDOW + 1, SimTime::ZERO));
        assert_eq!(log.low(), 3 * WINDOW + 2);
        assert!(log.heap_bytes() <= (2 * WINDOW / 8) as usize);
        // Once it has delivered, a far number is refused, not anchored on.
        assert!(!log.record(1 << 40, SimTime::ZERO));
        assert_eq!((log.low(), log.refused()), (3 * WINDOW + 2, 1));
    }

    #[test]
    fn a_permanent_hole_is_given_up_and_the_stream_goes_on() {
        let mut log = DeliveryLog::default();
        let end = 4 * WINDOW;
        for seq in (0..end).filter(|&s| s != 5) {
            assert!(log.record(seq, SimTime::from_micros(seq)), "seq {seq}");
        }
        assert_eq!(log.refused(), 0);
        assert_eq!(log.delivered(), end - 1);
        assert_eq!(log.low(), end, "the hole at 5 was given up");
        assert!(log.record(end, SimTime::ZERO));
        // Storage slid behind the cursor: at most three windows of it.
        assert!(
            log.heap_bytes() <= 3 * (WINDOW as usize) * 9,
            "{}",
            log.heap_bytes()
        );
        assert!(!log.contains(5) && log.contains(end - 1));
        assert_eq!(log.highest(), Some(end));
        let times: Vec<u64> = log.iter_times().map(|(s, _)| s).collect();
        assert_eq!(times.last(), Some(&end));
        assert!(times.windows(2).all(|w| w[0] + 1 == w[1]));
        // A copy a window behind is still a duplicate; one of the hole, long
        // dropped from storage, is refused.
        assert!(!log.record(end - WINDOW, SimTime::ZERO));
        assert!(!log.record(5, SimTime::ZERO));
        assert_eq!((log.duplicates(), log.refused()), (1, 1));
    }

    #[test]
    fn a_hole_younger_than_half_a_window_holds_the_cursor() {
        let mut log = DeliveryLog::default();
        for seq in 1..WINDOW / 2 {
            log.record(seq, SimTime::ZERO);
        }
        assert_eq!(log.low(), 0, "still waiting for 0");
        log.record(WINDOW / 2, SimTime::ZERO);
        assert_eq!(log.low(), WINDOW / 2 + 1, "0 given up");
        assert!(log.record(0, SimTime::ZERO), "a late copy still delivers");
        assert_eq!(log.low(), WINDOW / 2 + 1);
    }

    #[test]
    fn the_cursor_saturates_at_the_last_sequence_number() {
        let mut log = DeliveryLog::default();
        assert!(log.record(u64::MAX, SimTime::ZERO));
        assert_eq!(log.low(), u64::MAX);
        assert!(!log.record(u64::MAX, SimTime::ZERO));
        assert_eq!(log.duplicates(), 1);
    }
}
