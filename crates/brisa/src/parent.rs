//! Parent candidate tracking and selection strategies.
//!
//! During the bootstrap flood (and after repairs) a node hears the same
//! stream message from several neighbors. Each sender is a *candidate*
//! parent; the configured [`crate::config::ParentStrategy`] decides
//! which candidates are kept when the node has more eligible inbound links
//! than its target parent count.

use crate::config::ParentStrategy;
use brisa_simnet::{NodeId, SimDuration, SimTime};

/// Everything a node knows about one potential parent.
#[derive(Debug, Clone, PartialEq)]
pub struct ParentCandidate {
    /// The candidate neighbor.
    pub node: NodeId,
    /// When this candidate first delivered a stream message.
    pub first_heard: SimTime,
    /// Round-trip time measured by the PSS keep-alives, if available. Only
    /// the delay-aware strategy ranks by it, so only a node configured with
    /// that strategy looks it up; under the others it stays `None`.
    pub rtt: Option<SimDuration>,
    /// Uptime advertised by the candidate on its data messages (seconds).
    pub uptime_secs: u32,
    /// Number of children the candidate advertised (its current load).
    pub load: u16,
}

/// Source of link-quality information about neighbors, implemented by the
/// membership layer (HyParView keep-alives) and by test doubles.
pub trait NeighborTelemetry {
    /// Last measured round-trip time to `peer`, if any.
    fn rtt(&self, peer: NodeId) -> Option<SimDuration>;
}

/// A telemetry source that knows nothing (used by unit tests and by
/// strategies that do not need link measurements).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTelemetry;

impl NeighborTelemetry for NoTelemetry {
    fn rtt(&self, _peer: NodeId) -> Option<SimDuration> {
        None
    }
}

impl NeighborTelemetry for &brisa_membership::HyParView {
    fn rtt(&self, peer: NodeId) -> Option<SimDuration> {
        self.rtt_to(peer)
    }
}

/// The set of parent candidates a node currently knows about: one entry
/// per sender ever heard from and not since lost, a handful in practice,
/// kept sorted by [`NodeId`] in a small vector.
#[derive(Debug, Default)]
pub struct CandidateSet {
    candidates: Vec<ParentCandidate>,
}

impl CandidateSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, node: NodeId) -> Result<usize, usize> {
        self.candidates.binary_search_by_key(&node, |c| c.node)
    }

    /// Records (or refreshes) a candidate observed at `now`.
    pub fn observe(
        &mut self,
        node: NodeId,
        now: SimTime,
        rtt: Option<SimDuration>,
        uptime_secs: u32,
        load: u16,
    ) {
        match self.slot(node) {
            Ok(i) => {
                let c = &mut self.candidates[i];
                c.rtt = rtt.or(c.rtt);
                c.uptime_secs = uptime_secs;
                c.load = load;
            }
            Err(i) => self.candidates.insert(
                i,
                ParentCandidate {
                    node,
                    first_heard: now,
                    rtt,
                    uptime_secs,
                    load,
                },
            ),
        }
    }

    /// Removes a candidate (e.g. because the neighbor failed).
    pub fn remove(&mut self, node: NodeId) {
        if let Ok(i) = self.slot(node) {
            self.candidates.remove(i);
        }
    }

    /// Forgets every candidate (hard repair).
    pub fn clear(&mut self) {
        self.candidates.clear();
    }

    /// The candidate entry for `node`, if present.
    pub fn get(&self, node: NodeId) -> Option<&ParentCandidate> {
        self.slot(node).ok().map(|i| &self.candidates[i])
    }

    /// Number of known candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True if no candidates are known.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// All candidates, in ascending identifier order.
    pub fn iter(&self) -> impl Iterator<Item = &ParentCandidate> {
        self.candidates.iter()
    }

    /// Heap bytes the set occupies at its allocated capacity.
    pub fn approx_heap_bytes(&self) -> usize {
        self.candidates.capacity() * std::mem::size_of::<ParentCandidate>()
    }

    /// Ranks `eligible` candidates according to `strategy` and returns up to
    /// `count` of them, best first. Candidates not present in the set are
    /// ignored.
    pub fn select(
        &self,
        strategy: ParentStrategy,
        eligible: &[NodeId],
        count: usize,
    ) -> Vec<NodeId> {
        let mut pool: Vec<&ParentCandidate> =
            eligible.iter().filter_map(|&n| self.get(n)).collect();
        match strategy {
            ParentStrategy::FirstComeFirstPicked => {
                pool.sort_by_key(|c| (c.first_heard, c.node));
            }
            ParentStrategy::DelayAware => {
                // Lowest RTT first; candidates with unknown RTT rank last and
                // fall back to first-come order among themselves.
                pool.sort_by_key(|c| {
                    (
                        c.rtt.map(|r| r.as_micros()).unwrap_or(u64::MAX),
                        c.first_heard,
                        c.node,
                    )
                });
            }
            ParentStrategy::Gerontocratic => {
                // Highest uptime first.
                pool.sort_by_key(|c| (std::cmp::Reverse(c.uptime_secs), c.first_heard, c.node));
            }
            ParentStrategy::LoadBalancing => {
                // Lowest advertised load first.
                pool.sort_by_key(|c| (c.load, c.first_heard, c.node));
            }
        }
        pool.into_iter().take(count).map(|c| c.node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The hash-map bookkeeping this module replaced, kept as the
    /// differential oracle for `observe` / `remove`.
    #[derive(Default)]
    struct MapCandidatesModel {
        candidates: HashMap<NodeId, ParentCandidate>,
    }

    impl MapCandidatesModel {
        fn observe(
            &mut self,
            node: NodeId,
            now: SimTime,
            rtt: Option<SimDuration>,
            uptime_secs: u32,
            load: u16,
        ) {
            self.candidates
                .entry(node)
                .and_modify(|c| {
                    c.rtt = rtt.or(c.rtt);
                    c.uptime_secs = uptime_secs;
                    c.load = load;
                })
                .or_insert(ParentCandidate {
                    node,
                    first_heard: now,
                    rtt,
                    uptime_secs,
                    load,
                });
        }
    }

    proptest! {
        /// The vector-backed set holds exactly the entries the hash map
        /// held after any observe/remove sequence, so `select` — a pure
        /// function of those entries — ranks identically.
        #[test]
        fn vector_set_matches_the_hash_map(
            ops in proptest::collection::vec(
                (0u8..5, 0u32..9, (0u64..50, 0u32..4), 0u16..3),
                1..80,
            ),
        ) {
            let mut new = CandidateSet::new();
            let mut old = MapCandidatesModel::default();
            for (step, (op, node, (rtt_ms, uptime), load)) in ops.into_iter().enumerate() {
                let node = NodeId(node);
                if op == 0 {
                    new.remove(node);
                    old.candidates.remove(&node);
                } else {
                    let now = SimTime::from_millis(step as u64 / 3);
                    let rtt = (rtt_ms % 3 != 0).then(|| SimDuration::from_millis(rtt_ms));
                    new.observe(node, now, rtt, uptime, load);
                    old.observe(node, now, rtt, uptime, load);
                }
                prop_assert_eq!(new.len(), old.candidates.len());
                for probe in (0..9).map(NodeId) {
                    prop_assert_eq!(new.get(probe), old.candidates.get(&probe));
                }
            }
        }
    }

    fn set() -> CandidateSet {
        let mut s = CandidateSet::new();
        s.observe(
            NodeId(1),
            SimTime::from_millis(10),
            Some(SimDuration::from_millis(40)),
            100,
            5,
        );
        s.observe(
            NodeId(2),
            SimTime::from_millis(20),
            Some(SimDuration::from_millis(5)),
            300,
            1,
        );
        s.observe(NodeId(3), SimTime::from_millis(30), None, 50, 0);
        s
    }

    #[test]
    fn first_come_orders_by_arrival() {
        let s = set();
        let all = [NodeId(1), NodeId(2), NodeId(3)];
        assert_eq!(
            s.select(ParentStrategy::FirstComeFirstPicked, &all, 3),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(
            s.select(ParentStrategy::FirstComeFirstPicked, &all, 1),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn delay_aware_prefers_low_rtt_and_unknown_last() {
        let s = set();
        let all = [NodeId(1), NodeId(2), NodeId(3)];
        assert_eq!(
            s.select(ParentStrategy::DelayAware, &all, 3),
            vec![NodeId(2), NodeId(1), NodeId(3)]
        );
    }

    #[test]
    fn gerontocratic_prefers_uptime_and_load_balancing_prefers_idle() {
        let s = set();
        let all = [NodeId(1), NodeId(2), NodeId(3)];
        assert_eq!(
            s.select(ParentStrategy::Gerontocratic, &all, 2),
            vec![NodeId(2), NodeId(1)]
        );
        assert_eq!(
            s.select(ParentStrategy::LoadBalancing, &all, 2),
            vec![NodeId(3), NodeId(2)]
        );
    }

    #[test]
    fn selection_respects_eligibility_filter() {
        let s = set();
        // Node 2 (best by delay) excluded from the eligible set.
        assert_eq!(
            s.select(ParentStrategy::DelayAware, &[NodeId(1), NodeId(3)], 2),
            vec![NodeId(1), NodeId(3)]
        );
        // Unknown nodes are ignored.
        assert_eq!(
            s.select(ParentStrategy::DelayAware, &[NodeId(99)], 2),
            Vec::<NodeId>::new()
        );
    }

    #[test]
    fn observe_refreshes_but_keeps_first_heard() {
        let mut s = set();
        s.observe(NodeId(1), SimTime::from_secs(10), None, 120, 9);
        let c = s.get(NodeId(1)).unwrap();
        assert_eq!(
            c.first_heard,
            SimTime::from_millis(10),
            "first_heard is sticky"
        );
        assert_eq!(c.uptime_secs, 120);
        assert_eq!(c.load, 9);
        assert_eq!(
            c.rtt,
            Some(SimDuration::from_millis(40)),
            "known RTT not erased by None"
        );
        assert_eq!(s.len(), 3);
        s.remove(NodeId(1));
        assert!(s.get(NodeId(1)).is_none());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn no_telemetry_reports_nothing() {
        assert_eq!(NoTelemetry.rtt(NodeId(1)), None);
    }
}
