//! # brisa-bench — the `repro` scorecard, sweep binaries and micro-benchmarks
//!
//! [`repro`] answers the paper's evaluation (Figures 2 and 6–14, Tables
//! I–II, four ablations) with one table: a row per entry of `DESIGN.md`'s
//! experiment index, each running its scenario family once and stating the
//! paper's claims as checked orderings and bounds. `cargo run --release -p
//! brisa-bench --bin repro [<experiment>…]` prints it; `REPRO.md` at the
//! repository root is that output at quick scale and a tier-1 test keeps it
//! current. The other binaries (`bench_fault_sweep`, `bench_scale_sweep`,
//! `bench_soak`) are sweeps that assert their own floors; `benches/` holds
//! Criterion micro-benchmarks of the hot protocol paths.
//!
//! Two environment variables are read, both parsed strictly: `BRISA_SCALE`
//! (`quick`, the default, runs in seconds and keeps the qualitative shape;
//! `full` is the paper's sizes — 512/200/150/128 nodes, 500 messages) and
//! `BRISA_THREADS`, which caps the threads [`run_matrix`] fans independent
//! cells across, with results bit-identical to a sequential run.
//!
//! The experiment engine is re-exported here so every binary shares one
//! entry point: [`Runner`] for a single cell, [`run_matrix`] for a sweep,
//! [`run_brisa`]/`run_*` as the scenario → [`EngineResult`] conveniences.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gate;
pub mod repro;

use brisa_metrics::report::render_table;
use brisa_metrics::Cdf;

pub use brisa_workloads::{
    derive_seed, matrix_threads, run_brisa, run_flood, run_matrix, run_matrix_sequential,
    run_simple_gossip, run_simple_tree, run_tag, BaselineScenario, BrisaScenario, BrisaStackConfig,
    DisseminationProtocol, EngineResult, IntoRunSpec, RunSpec, Runner, Scale,
};

/// Renders a set of labelled CDF series side by side, sampled at the union
/// of the series' value ranges. This is the textual equivalent of the
/// paper's multi-line CDF plots.
pub fn cdf_series(value_label: &str, series: &mut [(String, Cdf)], points: usize) -> String {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, cdf) in series.iter_mut() {
        if let Some((a, b)) = cdf.range() {
            lo = lo.min(a);
            hi = hi.max(b);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return "(no samples)\n".to_string();
    }
    let points = points.max(2);
    let mut headers: Vec<String> = vec![value_label.to_string()];
    headers.extend(series.iter().map(|(l, _)| format!("% <= ({l})")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut rows = Vec::new();
    for i in 0..points {
        let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
        let mut row = vec![format!("{x:.3}")];
        for (_, cdf) in series.iter_mut() {
            row.push(format!("{:.1}", cdf.percent_at(x)));
        }
        rows.push(row);
    }
    render_table(&header_refs, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_series_printing_does_not_panic() {
        let mut series = vec![
            ("a".to_string(), Cdf::from_samples([1.0, 2.0, 3.0])),
            ("b".to_string(), Cdf::from_samples([2.0, 4.0])),
        ];
        let table = cdf_series("value", &mut series, 4);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2 + 4, "header, rule and one row per point");
        assert!(lines[0].starts_with("value") && lines[0].contains("% <= (b)"));
        assert!(lines[2].starts_with("1.000") && lines[5].starts_with("4.000"));
        let mut empty: Vec<(String, Cdf)> = vec![("x".to_string(), Cdf::new())];
        assert_eq!(cdf_series("value", &mut empty, 5), "(no samples)\n");
    }
}
