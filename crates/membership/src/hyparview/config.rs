//! HyParView configuration.

use brisa_simnet::SimDuration;
use serde::{Deserialize, Serialize};

/// Configuration parameters of the HyParView membership protocol.
///
/// Defaults follow the values used throughout the BRISA evaluation: a small
/// active view (the paper sweeps 4–10), a larger passive view and an
/// expansion factor of 2. The random-walk lengths and shuffle sizes, which
/// the evaluation never varies, are the original HyParView paper's and are
/// constants beside the code that reads them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyParViewConfig {
    /// Target size of the active view (the node's neighbors).
    pub active_size: usize,
    /// Size of the passive view (the reservoir of replacement nodes).
    pub passive_size: usize,
    /// The active view may grow up to `active_size * expansion_factor`
    /// before evictions are triggered by new additions. Evictions of entries
    /// above `active_size` do not cause replacements (Section II-A of the
    /// BRISA paper). The evaluation uses a factor of 2 except for the sample
    /// trees of Figure 8 which use 1.
    pub expansion_factor: usize,
    /// Period of the proactive passive-view shuffle.
    pub shuffle_period: SimDuration,
    /// Period of keep-alive probes towards active-view members. Keep-alives
    /// double as RTT measurements for BRISA's delay-aware parent selection.
    pub keepalive_period: SimDuration,
}

impl Default for HyParViewConfig {
    fn default() -> Self {
        HyParViewConfig {
            active_size: 4,
            passive_size: 30,
            expansion_factor: 2,
            shuffle_period: SimDuration::from_secs(10),
            keepalive_period: SimDuration::from_secs(2),
        }
    }
}

impl HyParViewConfig {
    /// Convenience constructor setting the active view size (the parameter
    /// the BRISA evaluation sweeps) and keeping defaults for the rest.
    pub fn with_active_size(active_size: usize) -> Self {
        HyParViewConfig {
            active_size,
            ..Default::default()
        }
    }

    /// Sets the expansion factor, returning the modified configuration.
    pub fn expansion_factor(mut self, f: usize) -> Self {
        self.expansion_factor = f;
        self
    }

    /// Maximum size the active view may reach before additions force an
    /// eviction.
    pub fn max_active(&self) -> usize {
        self.active_size * self.expansion_factor.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = HyParViewConfig::default();
        assert_eq!(c.active_size, 4);
        assert_eq!(c.expansion_factor, 2);
        assert_eq!(c.max_active(), 8);
    }

    #[test]
    fn builders() {
        let c = HyParViewConfig::with_active_size(8).expansion_factor(1);
        assert_eq!(c.active_size, 8);
        assert_eq!(c.max_active(), 8);
        let c0 = HyParViewConfig::with_active_size(5).expansion_factor(0);
        assert_eq!(c0.max_active(), 5, "expansion factor 0 behaves like 1");
    }
}
