//! Placement equivalence pinned per experiment.
//!
//! `simnet`'s shard tests prove the sharded driver equals the sequential
//! one on a scripted scenario, and `integration_properties` on random small
//! BRISA runs; this suite pins the same golden guarantee for **every
//! figure/table scenario family** of the paper at `small_test` scale: each
//! experiment, shrunk to a few seconds of simulated time, must produce a
//! bit-identical fingerprint sequentially and on two shards — the four
//! baselines included, which no other sharded test runs. A divergence
//! anywhere in the stack — epoch loop, fault layer, protocol — names the
//! experiment it broke.

use brisa::BrisaNode;
use brisa_baselines::{FloodNode, SimpleGossipNode, SimpleTreeNode, TagNode};
use brisa_membership::HyParViewConfig;
use brisa_simnet::SimDuration;
use brisa_workloads::{
    scenarios, BaselineScenario, BrisaScenario, BrisaStackConfig, ChurnSpec, DisseminationProtocol,
    IntoRunSpec, RunSpec, Runner, Scale, StreamSpec,
};

/// Runs `P` sequentially and on two shards and asserts fingerprint
/// equality.
fn assert_placement_equivalence<P: DisseminationProtocol + Send>(
    family: &str,
    cfg: &P::Config,
    spec: &RunSpec,
) where
    P::Message: Send,
{
    let run = |shards: usize| {
        let mut spec = spec.clone();
        spec.shards = shards;
        Runner::<P>::new(cfg, &spec).run().fingerprint()
    };
    let sequential = run(1);
    assert_eq!(
        sequential,
        run(2),
        "experiment family `{family}`: two shards diverged from sequential"
    );
    assert!(
        sequential.contains(":d"),
        "experiment family `{family}`: fingerprint is vacuous"
    );
}

/// Shrinks any BRISA scenario to `small_test` scale while preserving its
/// qualitative knobs (mode, strategy, testbed, view size, churn, faults).
fn shrink(sc: BrisaScenario) -> BrisaScenario {
    BrisaScenario {
        nodes: sc.nodes.min(28),
        stream: StreamSpec::short(6, 256),
        churn: sc.churn.map(|c| ChurnSpec {
            interval: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(30),
            ..c
        }),
        bootstrap: SimDuration::from_secs(20),
        drain: SimDuration::from_secs(10),
        ..sc
    }
}

fn check_brisa(family: &str, sc: BrisaScenario) {
    let sc = shrink(sc);
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    assert_placement_equivalence::<BrisaNode>(family, &cfg, &sc.run_spec());
}

fn small_baseline(nodes: u32, view_size: usize) -> BaselineScenario {
    BaselineScenario {
        view_size,
        stream: StreamSpec::short(6, 256),
        drain: SimDuration::from_secs(10),
        ..BaselineScenario::small_test(nodes)
    }
}

#[test]
fn fig02_duplicates_flood() {
    let (_, _, payload, views) = scenarios::fig2(Scale::Quick);
    let sc = BaselineScenario {
        stream: StreamSpec::short(6, payload),
        ..small_baseline(24, views[0])
    };
    let cfg = HyParViewConfig::with_active_size(sc.view_size);
    assert_placement_equivalence::<FloodNode>("fig02", &cfg, &sc.run_spec());
}

#[test]
fn fig06_07_depth_degree() {
    for (i, sc) in scenarios::fig6_7(Scale::Quick).into_iter().enumerate() {
        // One tree and one DAG cell pin the family; the other two only
        // vary the view size.
        if i == 0 || i == 2 {
            check_brisa("fig06_07", sc);
        }
    }
}

#[test]
fn fig08_tree_shape() {
    let sc = scenarios::fig8(Scale::Quick).remove(0);
    check_brisa("fig08", sc);
}

#[test]
fn fig09_routing_delay_planetlab() {
    // The delay-aware cell exercises the PlanetLab latency model and the
    // RTT-driven strategy.
    let sc = scenarios::fig9(Scale::Quick).remove(1);
    check_brisa("fig09", sc);
}

#[test]
fn fig10_11_bandwidth() {
    let (_, mut cells) = scenarios::fig10_11(Scale::Quick);
    check_brisa("fig10_11", cells.remove(0));
}

#[test]
fn fig12_table2_comparison_baselines() {
    let (_, _, stream) = scenarios::comparison(Scale::Quick);
    let sc = BaselineScenario {
        stream: StreamSpec {
            messages: 6,
            ..stream
        },
        ..small_baseline(24, 4)
    };
    let spec = sc.run_spec();
    assert_placement_equivalence::<TagNode>("table2/tag", &(), &spec);
    assert_placement_equivalence::<SimpleTreeNode>("table2/simple_tree", &(), &spec);
    assert_placement_equivalence::<SimpleGossipNode>("table2/simple_gossip", &(), &spec);
}

#[test]
fn fig13_construction_time_tag_planetlab() {
    let (testbed, _) = scenarios::fig13(Scale::Quick)[1];
    let sc = BaselineScenario {
        testbed,
        ..small_baseline(24, 4)
    };
    assert_placement_equivalence::<TagNode>("fig13", &(), &sc.run_spec());
}

#[test]
fn table1_churn_grid() {
    let (_, _, _, sc) = scenarios::table1(Scale::Quick).remove(0);
    check_brisa("table1", sc);
}

#[test]
fn fig14_recovery_under_churn() {
    let (nodes, churn, stream) = scenarios::fig14(Scale::Quick);
    check_brisa(
        "fig14",
        BrisaScenario {
            nodes,
            churn: Some(churn),
            stream,
            ..Default::default()
        },
    );
}

#[test]
fn fault_sweeps_placement_equivalence() {
    // The adversarial scenarios are pinned like every other family: loss
    // and partition runs must be placement-independent too.
    let (_, sc) = scenarios::fault_loss_sweep(Scale::Quick).remove(2);
    check_brisa("fault_loss", sc);
    let (_, sc) = scenarios::fault_partition_sweep(Scale::Quick).remove(0);
    check_brisa("fault_partition", sc);
}

/// The fingerprint leaves some fields of a Classic result out: the
/// point-to-point references, routing delays, depths, degrees and repair
/// telemetry. Two families compare the whole `EngineResult` instead, on
/// two and three shards: Figure 9's PlanetLab cell, whose point-to-point
/// series depends on the order of the reference draws, and Figure 14's
/// churn, whose collect skips the crashed nodes.
#[test]
fn classic_results_are_placement_independent_field_for_field() {
    let (nodes, churn, stream) = scenarios::fig14(Scale::Quick);
    let churned = BrisaScenario {
        nodes,
        churn: Some(churn),
        stream,
        ..Default::default()
    };
    let families = [
        ("fig09", scenarios::fig9(Scale::Quick).remove(1)),
        ("fig14", churned),
    ];
    for (family, sc) in families {
        let sc = shrink(sc);
        let cfg = BrisaStackConfig {
            hpv: sc.hyparview_config(),
            brisa: sc.brisa_config(),
        };
        let run = |shards: usize| {
            let mut spec = sc.run_spec();
            spec.shards = shards;
            Runner::<BrisaNode>::new(&cfg, &spec).run()
        };
        let sequential = run(1);
        assert!(sequential
            .nodes
            .iter()
            .any(|n| n.routing_delay_ms.is_some()));
        assert_eq!(sequential.failures_injected > 0, family == "fig14");
        let sequential = format!("{sequential:?}");
        for shards in [2, 3] {
            assert_eq!(
                sequential,
                format!("{:?}", run(shards)),
                "experiment family `{family}`: {shards} shards' Classic result differs"
            );
        }
    }
}
