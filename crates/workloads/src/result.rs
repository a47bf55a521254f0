//! Derived result types: phase bandwidth and the churn report, both
//! computed from an [`crate::EngineResult`].

use brisa_simnet::{BandwidthMeter, NodeId};
use std::collections::HashMap;

/// Per-node, per-phase bandwidth figures (KB/s averaged over the phase, plus
/// total bytes), matching what Figures 10–12 report.
#[derive(Debug, Clone, Default)]
pub struct PhaseBandwidth {
    /// Upload KB/s during the stabilisation (bootstrap) phase.
    pub stab_up_kbps: f64,
    /// Download KB/s during the stabilisation phase.
    pub stab_down_kbps: f64,
    /// Upload KB/s during the dissemination phase.
    pub diss_up_kbps: f64,
    /// Download KB/s during the dissemination phase.
    pub diss_down_kbps: f64,
    /// Total bytes uploaded during stabilisation.
    pub stab_up_bytes: u64,
    /// Total bytes downloaded during stabilisation.
    pub stab_down_bytes: u64,
    /// Total bytes uploaded during dissemination.
    pub diss_up_bytes: u64,
    /// Total bytes downloaded during dissemination.
    pub diss_down_bytes: u64,
}

impl PhaseBandwidth {
    /// Total data transmitted (upload side), both phases, in MB.
    pub fn total_uploaded_mb(&self) -> f64 {
        (self.stab_up_bytes + self.diss_up_bytes) as f64 / (1024.0 * 1024.0)
    }
}

/// Splits every node's bandwidth counters into a stabilisation phase
/// `[0, boundary_sec)` and a dissemination phase `[boundary_sec, end_sec)`.
pub fn split_bandwidth(
    meter: &BandwidthMeter,
    boundary_sec: usize,
    end_sec: usize,
) -> HashMap<NodeId, PhaseBandwidth> {
    let mut out = HashMap::new();
    for (id, bw) in meter.iter() {
        let sum = |buckets: &[u64], from: usize, to: usize| -> u64 {
            let to = to.min(buckets.len());
            if from < to {
                buckets[from..to].iter().sum()
            } else {
                0
            }
        };
        let stab_up_bytes = sum(&bw.upload_per_sec, 0, boundary_sec);
        let stab_down_bytes = sum(&bw.download_per_sec, 0, boundary_sec);
        let diss_up_bytes = sum(&bw.upload_per_sec, boundary_sec, end_sec);
        let diss_down_bytes = sum(&bw.download_per_sec, boundary_sec, end_sec);
        let stab_secs = boundary_sec.max(1) as f64;
        let diss_secs = end_sec.saturating_sub(boundary_sec).max(1) as f64;
        out.insert(
            id,
            PhaseBandwidth {
                stab_up_kbps: stab_up_bytes as f64 / 1024.0 / stab_secs,
                stab_down_kbps: stab_down_bytes as f64 / 1024.0 / stab_secs,
                diss_up_kbps: diss_up_bytes as f64 / 1024.0 / diss_secs,
                diss_down_kbps: diss_down_bytes as f64 / 1024.0 / diss_secs,
                stab_up_bytes,
                stab_down_bytes,
                diss_up_bytes,
                diss_down_bytes,
            },
        );
    }
    out
}

/// Aggregated churn behaviour over a run (Table I).
#[derive(Debug, Clone, Default)]
pub struct ChurnReport {
    /// Length of the churn window in minutes.
    pub duration_minutes: f64,
    /// Nodes failed by the churn schedule.
    pub failures_injected: usize,
    /// Nodes joined by the churn schedule.
    pub joins_injected: usize,
    /// Rate at which nodes lost any of their parents (events per minute).
    pub parents_lost_per_min: f64,
    /// Rate at which nodes lost all their parents (events per minute).
    pub orphans_per_min: f64,
    /// Completed soft repairs.
    pub soft_repairs: u64,
    /// Completed hard repairs.
    pub hard_repairs: u64,
    /// Percentage of disconnections repaired with the soft mechanism.
    pub soft_pct: f64,
    /// Percentage of disconnections requiring the hard mechanism.
    pub hard_pct: f64,
    /// Soft repair delays in milliseconds.
    pub soft_delays_ms: Vec<f64>,
    /// Hard repair delays in milliseconds.
    pub hard_delays_ms: Vec<f64>,
}

impl ChurnReport {
    /// Fills the percentage fields from the repair counters.
    pub fn finalise(&mut self) {
        let total = self.soft_repairs + self.hard_repairs;
        if total > 0 {
            self.soft_pct = self.soft_repairs as f64 / total as f64 * 100.0;
            self.hard_pct = self.hard_repairs as f64 / total as f64 * 100.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_report_percentages() {
        let mut r = ChurnReport {
            soft_repairs: 9,
            hard_repairs: 1,
            ..Default::default()
        };
        r.finalise();
        assert!((r.soft_pct - 90.0).abs() < 1e-9);
        assert!((r.hard_pct - 10.0).abs() < 1e-9);
        let mut empty = ChurnReport::default();
        empty.finalise();
        assert_eq!(empty.soft_pct, 0.0);
    }

    #[test]
    fn phase_bandwidth_total() {
        let pb = PhaseBandwidth {
            stab_up_bytes: 1024 * 1024,
            diss_up_bytes: 1024 * 1024,
            ..Default::default()
        };
        assert!((pb.total_uploaded_mb() - 2.0).abs() < 1e-9);
    }
}
