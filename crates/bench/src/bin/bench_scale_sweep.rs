//! Scale sweep: 100k-node overlays under large-scale incidents, plus the
//! sharded simulator's million-node headline row.
//!
//! Runs the `workloads::scenarios::scale_suite` grid — plain dissemination,
//! flash-crowd join, catastrophic correlated failure (50 % simultaneous
//! crash) and sustained churn — at increasing system sizes, entirely
//! through the scale-mode streaming result path (`ResultMode::Streaming`:
//! compact per-node delivery ledgers, run-wide bandwidth totals instead of
//! per-node phase splits, one mergeable latency histogram instead of
//! per-node delivery maps).
//!
//! Row sets:
//!
//! * `--smoke` (PR-triggered CI): 2 000- and 10 000-node rows;
//! * default (the `scale-nightly` job and local runs): 10 000- and
//!   100 000-node rows. The acceptance bar lives here: the 100 000-node
//!   no-fault dissemination must complete within the nightly budget with
//!   100 % delivery.
//!
//! On top of the sequential grid the sweep drives the epoch-sharded
//! simulator ([`SHARDS`] shards):
//!
//! * a `no_fault_sharded` row at the largest suite size whose result
//!   fingerprint is asserted **bit-identical** to the sequential
//!   `no_fault` row of the same size — the determinism contract, re-pinned
//!   at bench scale on every run;
//! * the `scenarios::scale_million` row (1 000 000 nodes, sharded-only),
//!   run on the default set. Its acceptance bar: 100 % delivery inside the
//!   wall-clock budget.
//!
//! Every row reports wall-clock, simulator events/sec, delivery and
//! completeness, the accounting-based bytes-per-node footprint (the peak
//! RSS proxy — see `Network::footprint`), and bucketed latency quantiles.
//! Every row must reach the [`DELIVERY_FLOOR`] / [`COMPLETENESS_FLOOR`]
//! pair; the binary asserts it, next to the headline bars above.

use brisa::BrisaNode;
use brisa_bench::{BrisaStackConfig, EngineResult};
use brisa_workloads::{scenarios, IntoRunSpec, Runner};
use std::time::Instant;

/// Wall-clock budget in real seconds for the acceptance rows (ISSUE-5's
/// "≤ 10 min, single machine" bar, reused by ISSUE-10 for the million-node
/// sharded row; the `scale-nightly` job runs with a CI-level timeout on
/// top of this).
const BUDGET_SECS: f64 = 600.0;

/// Shard count of the sharded rows (other counts: `integration_properties`).
const SHARDS: usize = 4;

/// Delivery floor of every row. Lowest readings of the 2 000/10 000 grid:
/// the 50 % correlated crash (0.9936 and 0.9942) and the 10 000-node flash
/// crowd (0.9999); every other row reads 1.0. The 100 000-node rows run
/// nightly only and share the floor.
const DELIVERY_FLOOR: f64 = 0.99;

/// Completeness floor of every row (same rows: 0.9900, 0.9910, 0.9999).
const COMPLETENESS_FLOOR: f64 = 0.98;

struct Row {
    scenario: &'static str,
    nodes: u32,
    shards: usize,
    messages: u64,
    wall_secs: f64,
    events: u64,
    delivery: f64,
    completeness: f64,
    bytes_per_node: f64,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
}

/// Runs one cell (sequential when `shards` is 1, epoch-sharded otherwise)
/// and returns the measured row next to the run's result fingerprint, so
/// the caller can assert sharded ≡ sequential.
fn run_row(
    scenario: &'static str,
    sc: &brisa_workloads::BrisaScenario,
    shards: usize,
) -> (Row, String) {
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let mut spec = sc.run_spec();
    spec.shards = shards;
    let start = Instant::now();
    let r: EngineResult = Runner::<BrisaNode>::new(&cfg, &spec).run();
    let wall_secs = start.elapsed().as_secs_f64();
    let fingerprint = r.fingerprint();
    let s = r
        .streaming
        .as_ref()
        .expect("scale scenarios use the streaming result path");
    let row = Row {
        scenario,
        nodes: sc.nodes,
        shards,
        messages: r.messages_published,
        wall_secs,
        events: r.net_stats.events_processed,
        delivery: r.delivery_rate(),
        completeness: r.completeness(),
        bytes_per_node: s.footprint.bytes_per_node(),
        latency_p50_ms: s.latency.quantile_ms(0.50),
        latency_p99_ms: s.latency.quantile_ms(0.99),
    };
    (row, fingerprint)
}

fn print_row(row: &Row) {
    println!(
        "  {:<16} {:>8} {:>3} {:>6} {:>9.2} {:>12} {:>10.0} {:>8.3}% {:>8.3}% {:>8.0} {:>8.2} {:>8.2}",
        row.scenario,
        row.nodes,
        row.shards,
        row.messages,
        row.wall_secs,
        row.events,
        row.events as f64 / row.wall_secs.max(1e-9),
        row.delivery * 100.0,
        row.completeness * 100.0,
        row.bytes_per_node,
        row.latency_p50_ms,
        row.latency_p99_ms,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: [u32; 2] = if smoke {
        [2_000, 10_000]
    } else {
        [10_000, 100_000]
    };
    println!("=== bench_scale_sweep — scale-mode streaming results, sequential + sharded");
    println!(
        "    rows: {sizes:?} ({}), {SHARDS} shards on sharded rows{}",
        if smoke { "--smoke" } else { "full" },
        if smoke { "" } else { ", million-node row on" },
    );
    println!();
    println!(
        "  {:<16} {:>8} {:>3} {:>6} {:>9} {:>12} {:>10} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "scenario",
        "nodes",
        "shd",
        "msgs",
        "wall(s)",
        "events",
        "ev/s",
        "deliv%",
        "compl%",
        "B/node",
        "p50(ms)",
        "p99(ms)"
    );

    let mut rows: Vec<Row> = Vec::new();
    // The sequential no-fault fingerprint at the largest size (the last
    // one written), for the sharded equality assertion below.
    let mut no_fault_fp = String::new();
    for nodes in sizes {
        for (label, sc) in scenarios::scale_suite(nodes) {
            let (row, fp) = run_row(label, &sc, 1);
            print_row(&row);
            if label == "no_fault" {
                no_fault_fp = fp;
            }
            rows.push(row);
        }
    }

    // --- Sharded leg: the largest suite size again, through the
    // epoch-sharded simulator, asserted bit-identical to the sequential
    // run above.
    let largest = sizes[1];
    let (row, fp) = run_row(
        "no_fault_sharded",
        &scenarios::scale_no_fault(largest),
        SHARDS,
    );
    print_row(&row);
    assert_eq!(
        fp, no_fault_fp,
        "sharded run diverged from sequential at {largest} nodes ({SHARDS} shards)"
    );
    println!("  determinism: sharded({SHARDS}) == sequential at {largest} nodes");
    rows.push(row);

    // --- Million-node headline row (sharded-only; see scale_million docs).
    if !smoke {
        let (row, _) = run_row("no_fault_sharded", &scenarios::scale_million(), SHARDS);
        print_row(&row);
        rows.push(row);
    }

    // --- Per-row floors.
    for r in &rows {
        assert!(
            r.delivery >= DELIVERY_FLOOR && r.completeness >= COMPLETENESS_FLOOR,
            "{} @ {} nodes: delivery {:.6} / completeness {:.6} below the \
             {DELIVERY_FLOOR} / {COMPLETENESS_FLOOR} floors",
            r.scenario,
            r.nodes,
            r.delivery,
            r.completeness
        );
    }

    // --- Acceptance: the largest no-fault row delivers everything inside
    // the wall-clock budget...
    let headline = rows
        .iter()
        .filter(|r| r.scenario == "no_fault")
        .max_by_key(|r| r.nodes)
        .expect("a no-fault row exists");
    let target_met = headline.delivery >= 1.0 && headline.wall_secs <= BUDGET_SECS;
    println!();
    println!(
        "  acceptance: no-fault @ {} nodes — delivery {:.3}% in {:.1}s (budget {}s): {}",
        headline.nodes,
        headline.delivery * 100.0,
        headline.wall_secs,
        BUDGET_SECS,
        if target_met { "met" } else { "NOT MET" }
    );
    // ... and so does the largest sharded row (the million-node row when
    // it ran).
    let sharded_headline = rows
        .iter()
        .filter(|r| r.scenario == "no_fault_sharded")
        .max_by_key(|r| r.nodes)
        .expect("a sharded no-fault row exists");
    let sharded_met = sharded_headline.delivery >= 1.0 && sharded_headline.wall_secs <= BUDGET_SECS;
    println!(
        "  acceptance: sharded no-fault @ {} nodes ({} shards) — delivery {:.3}% in {:.1}s (budget {}s): {}",
        sharded_headline.nodes,
        sharded_headline.shards,
        sharded_headline.delivery * 100.0,
        sharded_headline.wall_secs,
        BUDGET_SECS,
        if sharded_met { "met" } else { "NOT MET" }
    );

    assert!(
        target_met,
        "acceptance bar not met: 100% delivery within budget at the largest no-fault row"
    );
    assert!(
        sharded_met,
        "acceptance bar not met: 100% delivery within budget at the largest sharded row"
    );
}
