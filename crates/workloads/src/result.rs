//! Derived result types: phase bandwidth and the churn report, both
//! computed from an [`crate::EngineResult`].

use brisa_simnet::{BandwidthMeter, NodeId};

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

/// Splits one node's bytes between two meter readings of the same run: the
/// stabilisation phase is everything `at_boundary` holds, the dissemination
/// phase is what `at_end` adds to it. Rates are taken over the whole-second
/// phases `[0, boundary_sec)` and `[boundary_sec, end_sec)`. A node neither
/// reading covers gets zeros.
pub fn split_bandwidth(
    id: NodeId,
    at_boundary: &BandwidthMeter,
    at_end: &BandwidthMeter,
    boundary_sec: usize,
    end_sec: usize,
) -> PhaseBandwidth {
    let totals = |meter: &BandwidthMeter| meter.node(id).copied().unwrap_or_default();
    let (stab, end) = (totals(at_boundary), totals(at_end));
    let stab_up_bytes = stab.upload_total;
    let stab_down_bytes = stab.download_total;
    let diss_up_bytes = end.upload_total - stab.upload_total;
    let diss_down_bytes = end.download_total - stab.download_total;
    let stab_secs = boundary_sec.max(1) as f64;
    let diss_secs = end_sec.saturating_sub(boundary_sec).max(1) as f64;
    PhaseBandwidth {
        stab_up_kbps: stab_up_bytes as f64 / 1024.0 / stab_secs,
        stab_down_kbps: stab_down_bytes as f64 / 1024.0 / stab_secs,
        diss_up_kbps: diss_up_bytes as f64 / 1024.0 / diss_secs,
        diss_down_kbps: diss_down_bytes as f64 / 1024.0 / diss_secs,
        stab_up_bytes,
        stab_down_bytes,
        diss_up_bytes,
        diss_down_bytes,
    }
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
    use brisa_simnet::latency::FixedLatency;
    use brisa_simnet::{
        Context, Network, NetworkConfig, Protocol, SimDuration, SimTime, TimerTag, WireSize,
    };

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

    #[derive(Clone)]
    struct Hundred;
    impl WireSize for Hundred {
        fn wire_size(&self) -> usize {
            100
        }
    }

    /// Sends one 100-byte message to its peer when it starts.
    struct Sender(Option<NodeId>);
    impl Protocol for Sender {
        type Message = Hundred;
        fn on_start(&mut self, ctx: &mut Context<'_, Hundred>) {
            if let Some(peer) = self.0 {
                ctx.send(peer, Hundred);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Hundred>, _: NodeId, _: Hundred) {}
        fn on_timer(&mut self, _: &mut Context<'_, Hundred>, _: TimerTag) {}
    }

    /// The engine reads the meter 1 µs before the boundary second `B`:
    /// a byte sent then is stabilisation, a byte sent at `B` is
    /// dissemination, and the two phases add up to the end reading.
    #[test]
    fn split_bandwidth_subtracts_the_boundary_reading() {
        let mut net: Network<Sender> = Network::new(
            NetworkConfig::default(),
            Box::new(FixedLatency::new(SimDuration::from_millis(1))),
        );
        let boundary = SimTime::from_secs(1);
        let before = SimTime::from_micros(boundary.as_micros() - 1);
        let sink = net.add_node(|_| Sender(None));
        let early = net.add_node_at(before, move |_| Sender(Some(sink)));
        let on_time = net.add_node_at(boundary, move |_| Sender(Some(sink)));
        net.run_until(before);
        let at_boundary = net.bandwidth();
        net.run_until(SimTime::from_secs(2));
        let at_end = net.bandwidth();
        let split = |id| split_bandwidth(id, &at_boundary, &at_end, 1, 2);

        let (early, on_time) = (split(early), split(on_time));
        assert_eq!((early.stab_up_bytes, early.diss_up_bytes), (100, 0));
        assert_eq!((on_time.stab_up_bytes, on_time.diss_up_bytes), (0, 100));
        assert!((on_time.diss_up_kbps - 100.0 / 1024.0).abs() < 1e-12);
        // Both messages reach the sink after the boundary.
        assert_eq!(split(sink).diss_down_bytes, 200);
        for (id, end) in at_end.iter() {
            let bw = split(id);
            assert_eq!(bw.stab_up_bytes + bw.diss_up_bytes, end.upload_total);
            assert_eq!(bw.stab_down_bytes + bw.diss_down_bytes, end.download_total);
        }
        // A node neither reading covers reads zeros.
        assert_eq!(split(NodeId(9)).diss_down_kbps, 0.0);
    }
}
