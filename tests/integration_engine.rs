//! Integration tests of the generic experiment engine and the parallel
//! `run_matrix` driver: determinism (parallel execution is bit-identical to
//! sequential execution for the same seeds) and the churn phase running
//! through the generic pipeline for BRISA and a baseline.

use brisa::BrisaNode;
use brisa_baselines::TagNode;
use brisa_simnet::SimDuration;
use brisa_workloads::{
    derive_seed, run_brisa, run_matrix, run_matrix_sequential, run_tag, BaselineScenario,
    BrisaScenario, BrisaStackConfig, ChurnSpec, IntoRunSpec, Runner, StreamSpec,
};

fn brisa_cell(seed: u64, nodes: u32) -> BrisaScenario {
    BrisaScenario {
        seed,
        stream: StreamSpec::short(8, 256),
        ..BrisaScenario::small_test(nodes)
    }
}

/// The headline determinism property: fanning a (scenario × seed ×
/// view-size) matrix across threads produces bit-identical results to
/// running the same cells sequentially.
#[test]
fn run_matrix_parallel_is_bit_identical_to_sequential() {
    let cells: Vec<BrisaScenario> = (0..6)
        .flat_map(|i| {
            [4usize, 8].map(|view| BrisaScenario {
                view_size: view,
                ..brisa_cell(derive_seed(0xB215A, i), 24)
            })
        })
        .collect();
    let cfg_of = |sc: &BrisaScenario| BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let run = |_i: usize, sc: &BrisaScenario| {
        Runner::<BrisaNode>::new(&cfg_of(sc), &sc.run_spec())
            .run()
            .fingerprint()
    };
    let parallel = run_matrix(&cells, run);
    let sequential = run_matrix_sequential(&cells, run);
    assert_eq!(
        parallel, sequential,
        "parallel and sequential sweeps must agree exactly"
    );
    // And a third pass agrees too: the engine itself is deterministic.
    let again = run_matrix(&cells, run);
    assert_eq!(parallel, again);
    // Different seeds genuinely produce different runs (the fingerprint is
    // not vacuous).
    assert_ne!(parallel[0], parallel[2]);
}

/// Per-cell seeds derived from a base seed are stable across the
/// parallel/sequential boundary even when cells are built inside the
/// closure.
#[test]
fn derived_seed_cells_are_reproducible() {
    let indices: Vec<u64> = (0..4).collect();
    let run = |i: usize, &base: &u64| {
        let sc = brisa_cell(derive_seed(base, i as u64), 16);
        Runner::<BrisaNode>::new(
            &BrisaStackConfig {
                hpv: sc.hyparview_config(),
                brisa: sc.brisa_config(),
            },
            &sc.run_spec(),
        )
        .run()
        .fingerprint()
    };
    assert_eq!(
        run_matrix(&indices, run),
        run_matrix_sequential(&indices, run)
    );
}

fn test_churn() -> ChurnSpec {
    ChurnSpec {
        rate_percent: 5.0,
        interval: SimDuration::from_secs(10),
        duration: SimDuration::from_secs(40),
    }
}

/// The generic runner drives a churn phase for BRISA: failures and joins
/// are injected, repairs are observed, and the stream keeps flowing.
#[test]
fn generic_runner_churn_phase_with_brisa() {
    let sc = BrisaScenario {
        churn: Some(test_churn()),
        stream: StreamSpec {
            messages: 50,
            rate_per_sec: 5.0,
            payload_bytes: 128,
        },
        ..BrisaScenario::small_test(48)
    };
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let r = Runner::<BrisaNode>::new(&cfg, &sc.run_spec()).run();
    assert_eq!(r.protocol, "Brisa");
    assert!(r.failures_injected > 0, "the churn script failed nodes");
    assert_eq!(
        r.failures_injected, r.joins_injected,
        "replacement churn is balanced"
    );
    let repairs: u64 = r
        .nodes
        .iter()
        .map(|n| n.report.repairs.soft_repairs + n.report.repairs.hard_repairs)
        .sum();
    assert!(repairs > 0, "orphans repaired through the generic pipeline");
    assert!(
        r.completeness() > 0.7,
        "the stream kept flowing: {}",
        r.completeness()
    );
    // Churn joiners are reported too: some node has an index past the
    // initial population.
    assert!(r.nodes.iter().any(|n| n.id.0 >= r.original_nodes));
    // `run_brisa` is this `Runner` call and nothing else.
    assert_eq!(run_brisa(&sc).fingerprint(), r.fingerprint());
}

/// The same generic runner, unchanged, drives a churn phase for a baseline
/// protocol (TAG): the engine is genuinely protocol-generic.
#[test]
fn generic_runner_churn_phase_with_tag_baseline() {
    let sc = BaselineScenario {
        churn: Some(test_churn()),
        stream: StreamSpec {
            messages: 50,
            rate_per_sec: 5.0,
            payload_bytes: 128,
        },
        drain: SimDuration::from_secs(60),
        ..BaselineScenario::small_test(48)
    };
    let r = run_tag(&sc);
    assert_eq!(r.protocol, "TAG");
    let repairs = r.churn_report(&test_churn());
    assert!(
        repairs.soft_repairs + repairs.hard_repairs > 0,
        "TAG repaired broken list positions under churn"
    );
    assert_eq!(
        repairs.soft_delays_ms.len() as u64 + repairs.hard_delays_ms.len() as u64,
        repairs.soft_repairs + repairs.hard_repairs,
        "every repair recorded its delay"
    );
    // Original nodes that survived kept delivering a meaningful share of
    // the stream despite pull-based dissemination under churn.
    let survivors: Vec<_> = r.nodes.iter().filter(|n| !n.is_source).collect();
    assert!(!survivors.is_empty());
    let mean_delivered: f64 = survivors
        .iter()
        .map(|n| n.report.delivered as f64)
        .sum::<f64>()
        / survivors.len() as f64;
    assert!(
        mean_delivered > r.messages_published as f64 * 0.5,
        "mean delivered {mean_delivered} of {}",
        r.messages_published
    );
}

/// The engine reports identical scenario-level metadata regardless of the
/// protocol driven (same pipeline, same schedule).
#[test]
fn engine_schedule_is_protocol_independent() {
    let stream = StreamSpec::short(12, 256);
    let brisa_sc = BrisaScenario {
        stream,
        ..BrisaScenario::small_test(24)
    };
    let base_sc = BaselineScenario {
        stream,
        ..BaselineScenario::small_test(24)
    };
    let cfg = BrisaStackConfig {
        hpv: brisa_sc.hyparview_config(),
        brisa: brisa_sc.brisa_config(),
    };
    let a = Runner::<BrisaNode>::new(&cfg, &brisa_sc.run_spec()).run();
    let b = Runner::<TagNode>::new(&(), &base_sc.run_spec()).run();
    assert_eq!(a.messages_published, b.messages_published);
    assert_eq!(
        a.publish_times, b.publish_times,
        "same injection schedule for every protocol"
    );
    assert_eq!(a.source, b.source);
    assert_eq!(a.original_nodes, b.original_nodes);
}
