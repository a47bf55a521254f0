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
//!   first delivery is folded into a fixed-footprint
//!   [`LatencyHistogram`] against the
//!   known publish schedule, so a node costs `messages / 8` bytes of bitmap
//!   plus one histogram no matter how long the stream runs.
//!
//! Being sequence-indexed, it yields in ascending sequence order whatever
//! the order of receptions.

use crate::hist::LatencyHistogram;
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

/// Sequence-indexed delivery ledger of one node.
#[derive(Debug, Clone)]
pub struct DeliveryLog {
    tracking: DeliveryTracking,
    /// One bit per sequence number: set after the first reception.
    seen: Vec<u64>,
    /// First-delivery time per sequence number in µs (`u64::MAX` = not
    /// delivered). Only populated under [`DeliveryTracking::Full`].
    times_us: Vec<u64>,
    /// Latency distribution against the publish schedule. Only fed under
    /// [`DeliveryTracking::Counters`].
    hist: LatencyHistogram,
    delivered: u64,
    duplicates: u64,
    first: Option<SimTime>,
    last: Option<SimTime>,
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
        DeliveryLog {
            tracking,
            seen: Vec::new(),
            times_us: Vec::new(),
            hist: LatencyHistogram::new(),
            delivered: 0,
            duplicates: 0,
            first: None,
            last: None,
        }
    }

    /// True if `seq` was delivered before.
    #[inline]
    pub fn contains(&self, seq: u64) -> bool {
        let word = (seq / 64) as usize;
        self.seen
            .get(word)
            .is_some_and(|w| w & (1u64 << (seq % 64)) != 0)
    }

    /// Records a reception of `seq` at `now`. Returns `true` if this was the
    /// first reception (a delivery); any later one counts as a duplicate.
    #[inline]
    pub fn record(&mut self, seq: u64, now: SimTime) -> bool {
        let word = (seq / 64) as usize;
        let bit = 1u64 << (seq % 64);
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
        match self.tracking {
            DeliveryTracking::Full => {
                let idx = seq as usize;
                if self.times_us.len() <= idx {
                    self.times_us.resize(idx + 1, NOT_DELIVERED);
                }
                self.times_us[idx] = now.as_micros();
            }
            DeliveryTracking::Counters {
                stream_start_us,
                interval_us,
            } => {
                let published_us = stream_start_us.saturating_add(interval_us.saturating_mul(seq));
                self.hist
                    .record_us(now.as_micros().saturating_sub(published_us));
            }
        }
        true
    }

    /// Messages delivered (first receptions).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Receptions of already-delivered messages.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
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
    /// order. Empty under [`DeliveryTracking::Counters`] — the information
    /// is folded into [`DeliveryLog::latency_hist`] instead.
    pub fn iter_times(&self) -> impl Iterator<Item = (u64, SimTime)> + '_ {
        self.times_us
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != NOT_DELIVERED)
            .map(|(seq, &t)| (seq as u64, SimTime::from_micros(t)))
    }

    /// The latency histogram against the publish schedule (empty under
    /// [`DeliveryTracking::Full`]).
    pub fn latency_hist(&self) -> &LatencyHistogram {
        &self.hist
    }

    /// Heap bytes this log owns at its allocated capacity. Its inline bytes
    /// (histogram included) belong to whatever struct embeds it.
    pub fn heap_bytes(&self) -> usize {
        (self.seen.capacity() + self.times_us.capacity()) * std::mem::size_of::<u64>()
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
}
