//! Cross-crate integration tests: BRISA running on the full stack
//! (simulator + HyParView + BRISA) through the experiment harness.

use brisa::{ParentStrategy, StructureMode};
use brisa_workloads::{run_brisa, BrisaScenario, Scale, StreamSpec, Testbed};

#[test]
fn tree_dissemination_is_complete_and_structure_is_sound() {
    let sc = BrisaScenario::small_test(64);
    let result = run_brisa(&sc);
    assert!(
        (result.completeness() - 1.0).abs() < 1e-9,
        "all nodes delivered all messages"
    );
    let structure = result.structure();
    assert!(structure.is_acyclic(), "the emerged tree is acyclic");
    assert!(
        structure.is_complete(),
        "every node is reachable from the source"
    );
    for node in result.non_source() {
        assert_eq!(
            node.report.parents.len(),
            1,
            "tree mode keeps exactly one parent"
        );
        assert!(node.report.depth.is_some(), "every node positioned itself");
    }
}

#[test]
fn duplicates_vanish_after_the_bootstrap_flood() {
    // With a long stream, the per-message duplicate average tends to zero
    // because only the first message floods.
    let long = BrisaScenario {
        stream: StreamSpec::short(50, 256),
        ..BrisaScenario::small_test(48)
    };
    let result = run_brisa(&long);
    let avg: f64 = result
        .non_source()
        .map(|n| n.report.duplicates_per_message)
        .sum::<f64>()
        / (result.nodes.len() - 1) as f64;
    assert!(
        avg < 0.25,
        "with 50 messages the bootstrap duplicates amortise to < 0.25/msg, got {avg}"
    );
}

#[test]
fn larger_views_produce_shallower_structures() {
    let depth_for = |view: usize| {
        let sc = BrisaScenario {
            view_size: view,
            ..BrisaScenario::small_test(96)
        };
        let result = run_brisa(&sc);
        let depths = result.structure().depths();
        *depths.values().max().expect("non-empty structure")
    };
    let shallow = depth_for(8);
    let deep = depth_for(3);
    assert!(
        shallow <= deep,
        "view 8 should give a tree no deeper than view 3 (got {shallow} vs {deep})"
    );
}

#[test]
fn dag_mode_bounds_duplicates_by_parent_count() {
    let sc = BrisaScenario {
        mode: StructureMode::Dag { parents: 2 },
        view_size: 8,
        stream: StreamSpec::short(40, 256),
        ..BrisaScenario::small_test(48)
    };
    let result = run_brisa(&sc);
    assert!((result.completeness() - 1.0).abs() < 1e-9);
    for n in result.non_source() {
        assert!(
            n.report.parents.len() <= 2,
            "never more than the configured parents"
        );
        assert!(
            n.report.duplicates_per_message < 2.0,
            "duplicates are bounded by the extra parents (got {})",
            n.report.duplicates_per_message
        );
    }
}

#[test]
fn planetlab_delays_are_higher_than_cluster_delays() {
    let mean_delay = |testbed| {
        let sc = BrisaScenario {
            testbed,
            stream: StreamSpec::short(15, 512),
            ..BrisaScenario::small_test(48)
        };
        let result = run_brisa(&sc);
        let v: Vec<f64> = result
            .nodes
            .iter()
            .filter_map(|n| n.routing_delay_ms)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let cluster = mean_delay(Testbed::Cluster);
    let planetlab = mean_delay(Testbed::PlanetLab);
    assert!(
        planetlab > 10.0 * cluster,
        "WAN delays dominate LAN delays (cluster {cluster:.2} ms, planetlab {planetlab:.2} ms)"
    );
}

#[test]
fn strategies_all_reach_every_node() {
    for strategy in [
        ParentStrategy::FirstComeFirstPicked,
        ParentStrategy::DelayAware,
        ParentStrategy::Gerontocratic,
        ParentStrategy::LoadBalancing,
    ] {
        let sc = BrisaScenario {
            strategy,
            ..BrisaScenario::small_test(40)
        };
        let result = run_brisa(&sc);
        assert!(
            (result.completeness() - 1.0).abs() < 1e-9,
            "{strategy:?} must still deliver everything"
        );
        assert!(
            result.structure().is_acyclic(),
            "{strategy:?} must not create cycles"
        );
    }
}

#[test]
fn runs_are_deterministic_for_a_fixed_seed() {
    let sc = BrisaScenario::small_test(32);
    let a = run_brisa(&sc);
    let b = run_brisa(&sc);
    assert_eq!(a.messages_published, b.messages_published);
    assert_eq!(
        a.structure().parents,
        b.structure().parents,
        "identical seeds give identical structures"
    );
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn scale_quick_is_the_test_default() {
    assert_eq!(Scale::from_env(), Scale::Quick);
}
