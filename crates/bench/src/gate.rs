//! Sim-vs-live divergence gate of the chaos soak.
//!
//! `bench_soak` runs every chaos scenario twice — live, and through the
//! simulator's prediction of the *same* schedule — and hands one
//! [`SoakRow`] per scenario to [`divergence_check`], which fails when the
//! live numbers drift outside the [`DivergenceBand`] around the prediction
//! or when any online invariant sweep tripped during the soak (methodology
//! in DESIGN.md).

use std::fmt::Write as _;

/// What the gate reads of one soak scenario: the live cluster's outcome
/// next to the simulator's prediction of the same schedule.
#[derive(Debug, Clone)]
pub struct SoakRow {
    /// Scenario name, for the violation messages.
    pub scenario: String,
    /// Online invariant violations recorded by the live sweeps.
    pub invariant_violations: usize,
    /// Live delivery rate over surviving nodes.
    pub live_delivery: f64,
    /// Simulated delivery rate.
    pub sim_delivery: f64,
    /// Live completeness over surviving nodes.
    pub live_completeness: f64,
    /// Simulated completeness.
    pub sim_completeness: f64,
    /// Live median delivery latency, ms.
    pub live_p50_ms: f64,
    /// Simulated median delivery latency, ms.
    pub sim_p50_ms: f64,
}

/// Outcome of gating a soak.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Human-readable divergence descriptions; non-empty fails the gate.
    pub violations: Vec<String>,
    /// Numeric comparisons performed.
    pub checks: usize,
}

impl GateReport {
    /// True if nothing diverged.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report for CI logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "divergence gate: {} comparisons, {} violations",
            self.checks,
            self.violations.len()
        )
        .unwrap();
        for v in &self.violations {
            writeln!(out, "  DIVERGENCE: {v}").unwrap();
        }
        out
    }
}

/// Allowed sim-vs-live drift per soak scenario.
///
/// Delivery and completeness are gated **symmetrically**: live falling
/// below the sim prediction means the runtime is dropping deliveries, and
/// live sitting far *above* it means the fault layer is not applying the
/// adversity the simulator modelled — both are divergence. Latency is
/// gated one-sided as a ratio: the sim's testbed latency model and the
/// live interconnect are different clocks, so live being much faster than
/// the model is expected (loopback), but live p50 exceeding sim p50 by
/// more than the ratio means the runtime is stalling.
#[derive(Debug, Clone, Copy)]
pub struct DivergenceBand {
    /// Max absolute drift of live survivor delivery rate vs sim delivery.
    pub delivery_abs: f64,
    /// Max absolute drift of live survivor completeness vs sim
    /// completeness (wider: one node missing one message zeroes its
    /// contribution, so the metric is intrinsically coarser).
    pub completeness_abs: f64,
    /// Max live-p50 / sim-p50 latency ratio (one-sided; faster is fine).
    pub latency_ratio: f64,
}

impl Default for DivergenceBand {
    fn default() -> Self {
        DivergenceBand {
            delivery_abs: 0.05,
            completeness_abs: 0.15,
            latency_ratio: 25.0,
        }
    }
}

/// Gates a soak: every scenario's online invariant sweeps must be clean
/// and its live metrics must sit inside `band` around the sim prediction.
/// A soak with no scenario fails — an empty set must not pass by vacuity.
pub fn divergence_check(rows: &[SoakRow], band: &DivergenceBand) -> GateReport {
    let mut report = GateReport::default();
    if rows.is_empty() {
        report.violations.push("no scenarios to gate".to_string());
    }
    for row in rows {
        let name = &row.scenario;
        report.checks += 4;
        if row.invariant_violations != 0 {
            report.violations.push(format!(
                "{name}: {} online invariant violations during the soak",
                row.invariant_violations
            ));
        }
        let (live, sim) = (row.live_delivery, row.sim_delivery);
        if (live - sim).abs() > band.delivery_abs {
            report.violations.push(format!(
                "{name}: live survivor delivery {live:.4} diverges from sim {sim:.4} \
                 by more than {:.4}",
                band.delivery_abs
            ));
        }
        let (live, sim) = (row.live_completeness, row.sim_completeness);
        if (live - sim).abs() > band.completeness_abs {
            report.violations.push(format!(
                "{name}: live survivor completeness {live:.4} diverges from sim {sim:.4} \
                 by more than {:.4}",
                band.completeness_abs
            ));
        }
        let (live, sim) = (row.live_p50_ms, row.sim_p50_ms);
        if sim > 0.0 && live > sim * band.latency_ratio {
            report.violations.push(format!(
                "{name}: live p50 latency {live:.2}ms exceeds {:.0}x the sim \
                 prediction {sim:.2}ms",
                band.latency_ratio
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy two-scenario soak: live tracks sim closely, no invariant
    /// violations.
    fn soak() -> Vec<SoakRow> {
        let row =
            |scenario: &str, live_delivery, live_completeness, live_p50_ms, sim_p50_ms| SoakRow {
                scenario: scenario.to_string(),
                invariant_violations: 0,
                live_delivery,
                sim_delivery: 1.0,
                live_completeness,
                sim_completeness: 1.0,
                live_p50_ms,
                sim_p50_ms,
            };
        vec![
            row("steady_loss_1pct", 0.998, 0.95, 4.0, 60.0),
            row("kill_restart", 1.0, 1.0, 3.5, 55.0),
        ]
    }

    #[test]
    fn healthy_soak_passes_the_divergence_gate() {
        let r = divergence_check(&soak(), &DivergenceBand::default());
        assert!(r.passed(), "{}", r.render());
        // 2 scenarios x (invariants + delivery + completeness + latency).
        assert_eq!(r.checks, 8);
    }

    #[test]
    fn dropped_delivery_trace_fails_the_gate() {
        // Live survivor delivery collapsed while sim predicts full delivery
        // — the exact signature of the runtime dropping messages.
        let mut broken = soak();
        broken[0].live_delivery = 0.80;
        let r = divergence_check(&broken, &DivergenceBand::default());
        assert!(!r.passed());
        assert!(
            r.violations[0].contains("diverges from sim"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn deliberately_broken_band_fails_even_a_healthy_trace() {
        // Zero-width delivery band: the healthy soak's 0.002 drift must now
        // trip the gate — proof the band is actually load-bearing.
        let band = DivergenceBand {
            delivery_abs: 0.0,
            ..DivergenceBand::default()
        };
        let r = divergence_check(&soak(), &band);
        assert!(!r.passed(), "{}", r.render());
    }

    #[test]
    fn live_exceeding_sim_prediction_is_also_divergence() {
        // Sim predicts partition damage; live sailed through untouched —
        // the fault layer is not applying the modelled adversity.
        let mut inert_shim = soak();
        for row in &mut inert_shim {
            row.sim_delivery = 0.85;
        }
        let r = divergence_check(&inert_shim, &DivergenceBand::default());
        assert!(!r.passed(), "{}", r.render());
    }

    #[test]
    fn invariant_violations_fail_the_gate() {
        let mut broken = soak();
        broken[0].invariant_violations = 3;
        let r = divergence_check(&broken, &DivergenceBand::default());
        assert!(!r.passed());
        assert!(r.violations[0].contains("invariant"), "{}", r.render());
    }

    #[test]
    fn stalled_live_latency_fails_the_gate() {
        let mut stalled = soak();
        stalled[0].live_p50_ms = 2000.0;
        let r = divergence_check(&stalled, &DivergenceBand::default());
        assert!(!r.passed());
        assert!(r.violations[0].contains("latency"), "{}", r.render());
    }

    #[test]
    fn empty_soak_fails_the_gate() {
        let r = divergence_check(&[], &DivergenceBand::default());
        assert!(!r.passed());
        assert!(r.violations[0].contains("no scenarios"), "{}", r.render());
    }
}
