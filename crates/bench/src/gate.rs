//! Sim-vs-live divergence gate of the chaos soak.
//!
//! `bench_soak` runs every chaos scenario twice — live, and through the
//! simulator's prediction of the *same* schedule — and hands one
//! [`SoakRow`] per scenario to [`divergence_check`], which fails when the
//! survivors' delivered sets differ between the worlds, when live latency
//! stalls past [`LATENCY_RATIO`] times the prediction, or when any
//! online invariant sweep tripped during the soak (methodology in
//! DESIGN.md).

use brisa_metrics::percentile::percentile_of_sorted;
use brisa_workloads::{Population, RunView};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Each node's delivered sequence numbers.
pub type DeliveredSets = BTreeMap<u32, Vec<u64>>;

/// Differing pairs a violation message (and the soak artifact) names
/// before it stops.
pub const NAMED_PAIRS: usize = 5;

/// What the gate reads of one soak scenario: the live cluster's outcome
/// next to the simulator's prediction of the same schedule, both over the
/// survivors (originals never killed, the source excluded).
#[derive(Debug, Clone)]
pub struct SoakRow {
    /// Scenario name, for the violation messages.
    pub scenario: String,
    /// Online invariant violations recorded by the live sweeps.
    pub invariant_violations: usize,
    /// The survivors' delivered sets, live.
    pub live_sets: DeliveredSets,
    /// The survivors' delivered sets, simulated.
    pub sim_sets: DeliveredSets,
    /// The survivors' median delivery latency live, ms.
    pub live_p50_ms: f64,
    /// The survivors' median delivery latency simulated, ms.
    pub sim_p50_ms: f64,
}

impl SoakRow {
    /// The row of one scenario, projected from both worlds' runs.
    pub fn new(scenario: &str, violations: usize, live: &RunView<'_>, sim: &RunView<'_>) -> Self {
        let p50 =
            |v: &RunView<'_>| percentile_of_sorted(&v.latencies_ms(Population::Survivors), 50.0);
        SoakRow {
            scenario: scenario.to_string(),
            invariant_violations: violations,
            live_sets: live.delivered_sets(Population::Survivors),
            sim_sets: sim.delivered_sets(Population::Survivors),
            live_p50_ms: p50(live),
            sim_p50_ms: p50(sim),
        }
    }

    /// Every `(node, seq, world)` pair that only `world` (`"live"` or
    /// `"sim"`) delivered, in node then sequence order.
    pub fn set_differences(&self) -> Vec<(u32, u64, &'static str)> {
        let pairs = |sets: &DeliveredSets| -> BTreeSet<(u32, u64)> {
            let per_node = sets
                .iter()
                .map(|(&n, seqs)| seqs.iter().map(move |&s| (n, s)));
            per_node.flatten().collect()
        };
        let (live, sim) = (pairs(&self.live_sets), pairs(&self.sim_sets));
        let world = |pair| if live.contains(pair) { "live" } else { "sim" };
        let differences = live.symmetric_difference(&sim);
        differences.map(|p @ &(n, s)| (n, s, world(p))).collect()
    }
}

/// Outcome of gating a soak.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Human-readable divergence descriptions; non-empty fails the gate.
    pub violations: Vec<String>,
    /// Comparisons performed.
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

/// Allowed sim-vs-live drift per soak scenario: the largest live-p50 /
/// sim-p50 latency ratio (one-sided; faster is fine).
///
/// Delivery needs no band: the survivors' delivered sets must be equal,
/// which fixes their delivery rate and completeness exactly in both
/// directions. Latency is gated one-sided as a ratio: the sim's testbed
/// latency model and the live interconnect are different clocks, so live
/// being much faster than the model is expected (TCP on `127.0.0.1` has
/// no link delay), but the survivors' live p50 exceeding their sim p50 by
/// more than the ratio means the runtime is stalling.
pub const LATENCY_RATIO: f64 = 25.0;

/// Gates a soak: every scenario's online invariant sweeps must be clean,
/// its survivors must have delivered the same pairs in both worlds, and
/// their live p50 must be at most [`LATENCY_RATIO`] times the sim
/// prediction. A soak with no scenario fails — an empty set must not pass
/// by vacuity.
pub fn divergence_check(rows: &[SoakRow]) -> GateReport {
    let mut report = GateReport::default();
    if rows.is_empty() {
        report.violations.push("no scenarios to gate".to_string());
    }
    for row in rows {
        let name = &row.scenario;
        report.checks += 3;
        if row.invariant_violations != 0 {
            report.violations.push(format!(
                "{name}: {} online invariant violations during the soak",
                row.invariant_violations
            ));
        }
        let differences = row.set_differences();
        if !differences.is_empty() {
            let named: Vec<String> = differences
                .iter()
                .take(NAMED_PAIRS)
                .map(|(node, seq, world)| format!("(node {node}, seq {seq}) {world} only"))
                .collect();
            report.violations.push(format!(
                "{name}: the survivors' delivered sets differ in {} (node, seq) pairs: {}",
                differences.len(),
                named.join(", ")
            ));
        }
        let (live, sim) = (row.live_p50_ms, row.sim_p50_ms);
        if sim > 0.0 && live > sim * LATENCY_RATIO {
            report.violations.push(format!(
                "{name}: survivors' live p50 latency {live:.2}ms exceeds {LATENCY_RATIO:.0}x \
                 the sim prediction {sim:.2}ms"
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa_simnet::{NodeId, SimTime};
    use brisa_workloads::NodeReport;

    const NODES: u32 = 16;
    const MESSAGES: u64 = 30;

    /// A node that delivered `seqs`, each `delay_ms` after its publish.
    fn node(id: u32, seqs: impl Iterator<Item = u64>, delay_ms: u64) -> (NodeId, NodeReport) {
        let first_delivery: Vec<(u64, SimTime)> = seqs
            .map(|s| (s, SimTime::from_micros((s * 200 + delay_ms) * 1_000)))
            .collect();
        let report = NodeReport {
            delivered: first_delivery.len() as u64,
            first_delivery,
            ..Default::default()
        };
        (NodeId(id), report)
    }

    /// Every node of a 16-node run delivered the whole stream, `delay_ms`
    /// after each 200 ms-spaced publish.
    fn run(delay_ms: u64) -> Vec<(NodeId, NodeReport)> {
        (0..NODES)
            .map(|id| node(id, 0..MESSAGES, delay_ms))
            .collect()
    }

    fn view<'a>(
        nodes: &'a [(NodeId, NodeReport)],
        ever_killed: &'a [u32],
        publish_times: &'a [SimTime],
    ) -> RunView<'a> {
        RunView {
            source: NodeId(0),
            original_nodes: NODES,
            ever_killed,
            publish_times,
            nodes: nodes.iter().map(|(id, r)| (*id, r)).collect(),
        }
    }

    fn publish_times() -> Vec<SimTime> {
        (0..MESSAGES)
            .map(|s| SimTime::from_micros(s * 200_000))
            .collect()
    }

    /// One scenario's row: live at 4 ms per delivery, the sim at 60 ms.
    fn row(
        scenario: &str,
        live: &[(NodeId, NodeReport)],
        ever_killed: &[u32],
        sim: &[(NodeId, NodeReport)],
    ) -> SoakRow {
        let at = publish_times();
        SoakRow::new(
            scenario,
            0,
            &view(live, ever_killed, &at),
            &view(sim, &[], &at),
        )
    }

    /// A healthy two-scenario soak: both worlds deliver everything.
    fn soak() -> Vec<SoakRow> {
        vec![
            row("steady_loss_1pct", &run(4), &[], &run(60)),
            row("partition_heal", &run(3), &[], &run(55)),
        ]
    }

    #[test]
    fn healthy_soak_passes_the_divergence_gate() {
        let rows = soak();
        assert_eq!((rows[0].live_p50_ms, rows[0].sim_p50_ms), (4.0, 60.0));
        assert_eq!(
            rows[0].live_sets.len(),
            NODES as usize - 1,
            "the source is no survivor"
        );
        let r = divergence_check(&rows);
        assert!(r.passed(), "{}", r.render());
        // 2 scenarios x (invariants + delivered sets + latency).
        assert_eq!(r.checks, 6);
    }

    #[test]
    fn dropped_delivery_trace_fails_the_gate() {
        // One live survivor misses one pair of the 15 x 30 = 450 the sim
        // delivers: a 1-in-450 miss, which a ±0.05 delivery band passes.
        let mut live = run(4);
        live[5] = node(5, (0..MESSAGES).filter(|&s| s != 17), 4);
        let rows = [row("steady_loss_1pct", &live, &[], &run(60))];
        let r = divergence_check(&rows);
        assert!(!r.passed());
        assert_eq!(r.violations.len(), 1, "{}", r.render());
        assert!(
            r.violations[0].contains("differ in 1 (node, seq) pairs: (node 5, seq 17) sim only"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn live_latency_just_past_the_band_fails_a_healthy_trace() {
        // The healthy soak with its first scenario's live p50 moved to the
        // band's edge passes, and one step past it fails: the band is
        // load-bearing at exactly its ratio.
        let mut edge = soak();
        edge[0].live_p50_ms = edge[0].sim_p50_ms * LATENCY_RATIO;
        let r = divergence_check(&edge);
        assert!(r.passed(), "{}", r.render());
        edge[0].live_p50_ms += 0.01;
        let r = divergence_check(&edge);
        assert!(!r.passed(), "{}", r.render());
        assert!(r.violations[0].contains("25x"), "{}", r.render());
    }

    #[test]
    fn live_exceeding_sim_prediction_is_also_divergence() {
        // The sim predicts partition damage (node 2 misses 10..20); live
        // sailed through untouched — the fault layer is not applying the
        // modelled adversity.
        let mut sim = run(60);
        sim[2] = node(2, (0..MESSAGES).filter(|s| !(10..20).contains(s)), 60);
        let rows = [row("partition_heal", &run(4), &[], &sim)];
        let r = divergence_check(&rows);
        assert!(!r.passed(), "{}", r.render());
        assert!(
            r.violations[0].contains("differ in 10 (node, seq) pairs: (node 2, seq 10) live only"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn a_difference_only_on_a_reborn_node_or_joiner_passes() {
        // Live restarts node 8 under its own identifier and it catches up
        // from seq 18; the sim's restart is a fresh joiner 16 that
        // delivered from seq 20; live's flash-crowd joiner 17 got less.
        let mut live = run(4);
        live[8] = node(8, 18..MESSAGES, 2_900);
        live.push(node(17, 25..MESSAGES, 4));
        let mut sim = run(60);
        sim.remove(8);
        sim.push(node(16, 20..MESSAGES, 60));
        let rows = [row("kill_restart", &live, &[8], &sim)];
        assert!(!rows[0].live_sets.contains_key(&8));
        let r = divergence_check(&rows);
        assert!(r.passed(), "{}", r.render());
        // The reborn node's slow catch-up is not the survivors' latency.
        assert_eq!(rows[0].live_p50_ms, 4.0);
    }

    #[test]
    fn invariant_violations_fail_the_gate() {
        let mut broken = soak();
        broken[0].invariant_violations = 3;
        let r = divergence_check(&broken);
        assert!(!r.passed());
        assert!(r.violations[0].contains("invariant"), "{}", r.render());
    }

    #[test]
    fn stalled_live_latency_fails_the_gate() {
        let mut stalled = soak();
        stalled[0].live_p50_ms = 2000.0;
        let r = divergence_check(&stalled);
        assert!(!r.passed());
        assert!(r.violations[0].contains("latency"), "{}", r.render());
    }

    #[test]
    fn empty_soak_fails_the_gate() {
        let r = divergence_check(&[]);
        assert!(!r.passed());
        assert!(r.violations[0].contains("no scenarios"), "{}", r.render());
    }
}
