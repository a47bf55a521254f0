//! Scale-mode dissemination: stream to a 5 000-node overlay using the
//! streaming result path.
//!
//! Classic runs materialise per-node delivery maps — fine at the paper's
//! 512 nodes, ruinous at 100 000. This example runs the same engine with
//! `ResultMode::Streaming`: nodes keep a seen-bitmap plus a mergeable
//! latency histogram, the engine reads the simulator's bandwidth totals
//! once, at the end, without splitting them into phases, and the collect
//! phase folds everything into one `StreamingSummary` — including an
//! accounting-based bytes-per-node footprint.
//!
//! ```sh
//! cargo run --release --example scale_stream
//! ```

use brisa::BrisaNode;
use brisa_workloads::{scenarios, BrisaStackConfig, IntoRunSpec, Runner};

fn main() {
    let nodes = 5_000;
    let sc = scenarios::scale_no_fault(nodes);
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let started = std::time::Instant::now();
    let result = Runner::<BrisaNode>::new(&cfg, &sc.run_spec()).run();
    let wall = started.elapsed().as_secs_f64();
    let s = result
        .streaming
        .as_ref()
        .expect("scale scenarios use the streaming result path");

    println!(
        "scale-mode stream: {nodes} nodes, {} messages",
        result.messages_published
    );
    println!(
        "  delivery: {:.3}%  completeness: {:.3}%",
        result.delivery_rate() * 100.0,
        result.completeness() * 100.0
    );
    println!(
        "  latency: p50 {:.2} ms  p99 {:.2} ms  mean {:.2} ms  ({} samples)",
        s.latency.quantile_ms(0.50),
        s.latency.quantile_ms(0.99),
        s.latency.mean_ms(),
        s.latency.count()
    );
    println!(
        "  footprint: {:.0} bytes/node ({} nodes, {:.1} MB accounted)",
        s.footprint.bytes_per_node(),
        s.footprint.nodes,
        s.footprint.total_bytes() as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  traffic: {:.1} MB up / {:.1} MB down",
        s.uploaded_bytes as f64 / (1024.0 * 1024.0),
        s.downloaded_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  {} simulator events in {wall:.2}s wall ({:.0} events/s)",
        result.net_stats.events_processed,
        result.net_stats.events_processed as f64 / wall.max(1e-9)
    );
    assert_eq!(
        result.delivery_rate(),
        1.0,
        "no-fault runs deliver everything"
    );
}
