//! Per-node protocol statistics.
//!
//! Every metric the paper's evaluation reports is derived from these
//! counters: duplicate receptions (Figure 2) and delivery times (Figure 9,
//! Table II) from the delivery ledger, the one [`DeliveryLog`] every
//! protocol keeps; structure shape (Figures 6–8) from the link state;
//! repair behaviour under churn (Table I, Figure 14) and construction time
//! (Figure 13) from the fields below.

use brisa_simnet::{DeliveryLog, DeliveryTracking, SimTime};

/// Counters and timelines recorded by one BRISA node.
#[derive(Debug, Clone, Default)]
pub struct BrisaStats {
    /// Delivery ledger: delivered and duplicate counts, plus first-reception
    /// times under [`DeliveryTracking::Full`] or a latency histogram under
    /// [`DeliveryTracking::Counters`].
    pub delivery: DeliveryLog,
    /// Times at which this node lost a parent (failure of a node it was
    /// receiving the stream from).
    pub parents_lost: Vec<SimTime>,
    /// Times at which this node lost *all* parents (became an orphan).
    pub orphaned: Vec<SimTime>,
    /// Completed soft repairs (a replacement parent was available in the
    /// active view).
    pub soft_repairs: u64,
    /// Completed hard repairs (flood fallback with re-activation orders).
    pub hard_repairs: u64,
    /// Durations (in microseconds) between orphaning and the adoption of a
    /// new parent, for hard repairs.
    pub hard_repair_delays_us: Vec<u64>,
    /// Durations (in microseconds) between orphaning and the adoption of a
    /// new parent, for soft repairs.
    pub soft_repair_delays_us: Vec<u64>,
    /// Time the first deactivation message was sent (start of structure
    /// construction as defined for Figure 13).
    pub first_deactivation: Option<SimTime>,
    /// Time at which the number of active inbound links first reached the
    /// target parent count (end of structure construction).
    pub construction_done: Option<SimTime>,
    /// Number of retransmissions served to recovering children.
    pub retransmissions_served: u64,
    /// Number of retransmission requests issued by the steady-state gap
    /// detector (loss recovery outside the repair path).
    pub gap_retransmit_requests: u64,
    /// Number of re-activation orders propagated to children.
    pub reactivation_orders_sent: u64,
}

impl BrisaStats {
    /// Creates empty statistics with the given delivery-tracking mode.
    pub fn with_tracking(tracking: DeliveryTracking) -> Self {
        BrisaStats {
            delivery: DeliveryLog::new(tracking),
            ..Default::default()
        }
    }

    /// Construction time as defined for Figure 13: from the first
    /// deactivation sent to the moment the inbound links stabilised on the
    /// target parent count.
    pub fn construction_time(&self) -> Option<brisa_simnet::SimDuration> {
        match (self.first_deactivation, self.construction_done) {
            (Some(start), Some(end)) if end >= start => Some(end - start),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa_simnet::SimDuration;

    #[test]
    fn empty_stats_edge_cases() {
        let s = BrisaStats::default();
        assert!(s.construction_time().is_none());
    }

    #[test]
    fn construction_time_requires_both_endpoints() {
        let mut s = BrisaStats {
            first_deactivation: Some(SimTime::from_millis(100)),
            ..Default::default()
        };
        assert!(s.construction_time().is_none());
        s.construction_done = Some(SimTime::from_millis(180));
        assert_eq!(s.construction_time(), Some(SimDuration::from_millis(80)));
    }
}
