//! Integration tests of the baseline protocols and of the cross-protocol
//! comparisons (Figure 12 / Table II shape checks at reduced scale).

use brisa_simnet::SimDuration;
use brisa_workloads::{
    run_brisa, run_flood, run_simple_gossip, run_simple_tree, run_tag, BaselineScenario,
    BrisaScenario, EngineResult, StreamSpec,
};

fn small_baseline(nodes: u32) -> BaselineScenario {
    BaselineScenario {
        nodes,
        stream: StreamSpec::short(20, 1024),
        drain: SimDuration::from_secs(40),
        ..BaselineScenario::small_test(nodes)
    }
}

#[test]
fn every_baseline_reaches_every_node() {
    let sc = small_baseline(48);
    for (label, completeness) in [
        ("flood", run_flood(&sc).completeness()),
        ("SimpleTree", run_simple_tree(&sc).completeness()),
        ("SimpleGossip", run_simple_gossip(&sc).completeness()),
        ("TAG", run_tag(&sc).completeness()),
    ] {
        assert!(
            (completeness - 1.0).abs() < 1e-9,
            "{label} must deliver everything, got {completeness}"
        );
    }
}

#[test]
fn duplicate_ordering_matches_the_paper() {
    // Flooding and gossip pay duplicates; trees (SimpleTree and BRISA after
    // stabilisation) do not.
    let sc = small_baseline(48);
    let flood = run_flood(&sc);
    let tree = run_simple_tree(&sc);
    let brisa_run = run_brisa(&BrisaScenario {
        nodes: 48,
        stream: StreamSpec::short(20, 1024),
        ..BrisaScenario::small_test(48)
    });
    let mean_dup = |r: &EngineResult| {
        let dups = r.nodes.iter().map(|n| n.report.duplicates_per_message);
        dups.sum::<f64>() / r.nodes.len() as f64
    };
    let flood_dup = mean_dup(&flood);
    let tree_dup = mean_dup(&tree);
    let brisa_dup = mean_dup(&brisa_run);
    assert_eq!(tree_dup, 0.0, "a centralized tree never duplicates");
    assert!(
        flood_dup > brisa_dup,
        "flooding duplicates more than BRISA ({flood_dup} vs {brisa_dup})"
    );
    assert!(
        flood_dup > 0.5,
        "flooding pays at least view-size-ish duplicates"
    );
}

#[test]
fn bandwidth_ordering_for_large_payloads_matches_figure_12() {
    // For payloads that dominate the control traffic, SimpleGossip must be
    // the most expensive and the two trees (SimpleTree, BRISA) the cheapest.
    let stream = StreamSpec {
        messages: 20,
        rate_per_sec: 5.0,
        payload_bytes: 10 * 1024,
    };
    let sc = BaselineScenario {
        stream,
        ..small_baseline(48)
    };
    let gossip = run_simple_gossip(&sc);
    let tree = run_simple_tree(&sc);
    let brisa_run = run_brisa(&BrisaScenario {
        nodes: 48,
        stream,
        ..BrisaScenario::small_test(48)
    });
    let brisa_mb = brisa_run.mean_uploaded_mb();
    let gossip_mb = gossip.mean_uploaded_mb();
    let tree_mb = tree.mean_uploaded_mb();
    assert!(
        gossip_mb > brisa_mb,
        "gossip ({gossip_mb:.2} MB/node) must exceed BRISA ({brisa_mb:.2} MB/node)"
    );
    assert!(
        gossip_mb > tree_mb,
        "gossip ({gossip_mb:.2} MB/node) must exceed SimpleTree ({tree_mb:.2} MB/node)"
    );
    assert!(
        brisa_mb < tree_mb * 3.0,
        "BRISA stays in the same ballpark as SimpleTree ({brisa_mb:.2} vs {tree_mb:.2} MB/node)"
    );
}

#[test]
fn dissemination_latency_ordering_matches_table_2() {
    // TAG (pull-based) must be slower than BRISA (push-based) for the same
    // stream. The per-message cost of pulling shows deterministically in the
    // routing delay (injection to first delivery: every TAG hop waits for
    // the next pull tick, ~hundreds of ms, while BRISA pushes in
    // sub-millisecond cluster hops). The first-to-last delivery *span* of
    // Table II shows the same ordering at the paper's 500-message scale but
    // is pure pull-phase noise at this reduced scale, so the span only gets
    // a sanity bound here.
    let stream = StreamSpec {
        messages: 30,
        rate_per_sec: 5.0,
        payload_bytes: 1024,
    };
    let tag = run_tag(&BaselineScenario {
        stream,
        ..small_baseline(48)
    });
    let brisa_run = run_brisa(&BrisaScenario {
        nodes: 48,
        stream,
        ..BrisaScenario::small_test(48)
    });
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let tag_delay = mean(
        tag.nodes
            .iter()
            .filter_map(|n| n.routing_delay_ms)
            .collect(),
    );
    let brisa_delay = mean(
        brisa_run
            .nodes
            .iter()
            .filter_map(|n| n.routing_delay_ms)
            .collect(),
    );
    assert!(
        tag_delay > 2.0 * brisa_delay,
        "pull-based TAG ({tag_delay:.1}ms per message) must be clearly slower than \
         push-based BRISA ({brisa_delay:.1}ms)"
    );
    let brisa_lat = mean(
        brisa_run
            .nodes
            .iter()
            .filter_map(|n| n.dissemination_latency_secs)
            .collect(),
    );
    let ideal = stream.duration().as_secs_f64();
    assert!(
        brisa_lat < ideal * 1.2,
        "BRISA stays close to the ideal stream duration ({brisa_lat:.2}s vs {ideal:.2}s)"
    );
}

#[test]
fn tag_construction_is_slower_on_planetlab_than_brisa() {
    use brisa_workloads::Testbed;
    let stream = StreamSpec::short(15, 1024);
    let nodes = 40;
    let tag = run_tag(&BaselineScenario {
        nodes,
        testbed: Testbed::PlanetLab,
        stream,
        drain: SimDuration::from_secs(60),
        ..BaselineScenario::small_test(nodes)
    });
    let brisa_run = run_brisa(&BrisaScenario {
        nodes,
        testbed: Testbed::PlanetLab,
        stream,
        ..BrisaScenario::small_test(nodes)
    });
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    };
    let tag_ct = median(
        tag.nodes
            .iter()
            .filter_map(|n| n.report.construction_time)
            .map(|d| d.as_millis_f64())
            .collect(),
    );
    let brisa_ct = median(
        brisa_run
            .nodes
            .iter()
            .filter_map(|n| n.report.construction_time)
            .map(|d| d.as_millis_f64())
            .collect(),
    );
    assert!(
        tag_ct > brisa_ct,
        "TAG's multi-round-trip traversal ({tag_ct:.0} ms) must be slower than BRISA's \
         reception-driven construction ({brisa_ct:.0} ms) on WAN latencies"
    );
}
