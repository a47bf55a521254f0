//! BRISA configuration.

use brisa_simnet::{DeliveryTracking, SimDuration};
use serde::{Deserialize, Serialize};

/// Shape of the dissemination structure that emerges from the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StructureMode {
    /// Every node keeps exactly one parent; duplicates are eliminated and
    /// cycles are prevented by exact path embedding (Section II-D).
    Tree,
    /// Every node keeps up to `parents` parents; duplicates are bounded by
    /// the parent count and cycles are prevented by approximate depth labels
    /// (Section II-G).
    Dag {
        /// Target number of parents (`p > 1`).
        parents: usize,
    },
}

impl StructureMode {
    /// Target number of parents for this mode.
    pub fn target_parents(self) -> usize {
        match self {
            StructureMode::Tree => 1,
            StructureMode::Dag { parents } => parents.max(1),
        }
    }

    /// True for the tree mode.
    pub fn is_tree(self) -> bool {
        matches!(self, StructureMode::Tree)
    }
}

/// Parent selection strategy (Section II-E and the perspectives of
/// Section IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParentStrategy {
    /// The node that delivered the message first is kept as parent; every
    /// later duplicate sender is deactivated. Enables the symmetric
    /// deactivation optimisation.
    FirstComeFirstPicked,
    /// Among eligible candidates, prefer the one with the lowest measured
    /// round-trip time (taken from the PSS keep-alive probes).
    DelayAware,
    /// Prefer the candidate with the highest uptime, on the observation that
    /// long-lived nodes are likely to stay (Section IV, "gerontocratic").
    Gerontocratic,
    /// Prefer the candidate currently serving the fewest children, spreading
    /// the dissemination effort (Section IV, "load-balancing").
    LoadBalancing,
}

/// Full configuration of a BRISA node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrisaConfig {
    /// Structure to emerge (tree or DAG).
    pub mode: StructureMode,
    /// Parent selection strategy.
    pub strategy: ParentStrategy,
    /// Number of recent stream messages each node buffers so that children
    /// recovering from a parent failure can request retransmissions.
    pub buffer_size: usize,
    /// Delivery bookkeeping mode ([`DeliveryTracking::Full`] by default).
    pub tracking: DeliveryTracking,
    /// Period of the repair-supervision timer (soft-repair timeout
    /// escalation, hard-repair retries, and stream-edge advertisements).
    /// Million-node capacity runs stretch it: at that scale even a cheap
    /// half-second per-node tick dominates the simulator's event budget.
    pub repair_tick_period: SimDuration,
}

impl Default for BrisaConfig {
    fn default() -> Self {
        BrisaConfig {
            mode: StructureMode::Tree,
            strategy: ParentStrategy::FirstComeFirstPicked,
            buffer_size: 64,
            tracking: DeliveryTracking::Full,
            repair_tick_period: SimDuration::from_millis(500),
        }
    }
}

impl BrisaConfig {
    /// A tree configuration with the given strategy.
    pub fn tree(strategy: ParentStrategy) -> Self {
        BrisaConfig {
            mode: StructureMode::Tree,
            strategy,
            ..Default::default()
        }
    }

    /// A DAG configuration with `parents` parents and the given strategy.
    pub fn dag(parents: usize, strategy: ParentStrategy) -> Self {
        BrisaConfig {
            mode: StructureMode::Dag { parents },
            strategy,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_parents_per_mode() {
        assert_eq!(StructureMode::Tree.target_parents(), 1);
        assert_eq!(StructureMode::Dag { parents: 3 }.target_parents(), 3);
        assert_eq!(StructureMode::Dag { parents: 0 }.target_parents(), 1);
        assert!(StructureMode::Tree.is_tree());
        assert!(!StructureMode::Dag { parents: 2 }.is_tree());
    }

    #[test]
    fn constructors() {
        let t = BrisaConfig::tree(ParentStrategy::DelayAware);
        assert!(t.mode.is_tree());
        assert_eq!(t.strategy, ParentStrategy::DelayAware);
        let d = BrisaConfig::dag(2, ParentStrategy::FirstComeFirstPicked);
        assert_eq!(d.mode.target_parents(), 2);
    }
}
