//! Property-based tests (proptest) of the core data structures and protocol
//! invariants: cycle prevention, bounded views, structure soundness and
//! delivery completeness across randomly drawn configurations.

use brisa::{BrisaConfig, CycleGuard, CycleState, ParentStrategy, StructureMode};
use brisa_membership::{HpvMsg, HyParView, HyParViewConfig};
use brisa_metrics::{Cdf, PercentileSummary, StructureSnapshot};
use brisa_simnet::{NodeId, SimTime};
use brisa_workloads::{
    run_brisa, run_matrix, run_matrix_sequential, BrisaScenario, BrisaStackConfig, IntoRunSpec,
    Runner, StreamSpec, Testbed,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn sched_check_cell(seed: u64) -> (BrisaStackConfig, BrisaScenario) {
    let sc = BrisaScenario {
        seed,
        stream: StreamSpec::short(6, 256),
        ..BrisaScenario::small_test(20)
    };
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    (cfg, sc)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The absolute behaviour of a full BRISA run per seed, as FNV-1a hashes of
/// the fingerprint recorded on 2bcadee — where the timing wheel and the
/// binary-heap scheduler it replaced were compared on exactly these runs
/// and agreed. The wheel may change wall-clock time and nothing else.
/// Re-recorded when the repair tick began to start with the stream: the
/// fingerprint texts are byte-identical but for the event count (`ev=`).
#[test]
fn engine_runs_identical_on_both_schedulers() {
    const PINNED: [(u64, u64); 3] = [
        (1, 0x32be1b2aa44b21de),
        (0xB215A, 0xacdfcaf75ce5649c),
        (77, 0xa049da328d2bb748),
    ];
    for (seed, pinned) in PINNED {
        let (cfg, sc) = sched_check_cell(seed);
        let fingerprint = Runner::<brisa::BrisaNode>::new(&cfg, &sc.run_spec())
            .run()
            .fingerprint();
        assert_eq!(
            fnv1a64(fingerprint.as_bytes()),
            pinned,
            "seed {seed}: this build produces {:#018x}",
            fnv1a64(fingerprint.as_bytes())
        );
    }
}

/// The `run_matrix` determinism contract: parallel and sequential sweeps
/// agree bit-for-bit.
#[test]
fn run_matrix_is_deterministic_on_timing_wheel() {
    let seeds: Vec<u64> = vec![3, 1414, 0xB215A, 99];
    let run = |_i: usize, &seed: &u64| {
        let (cfg, sc) = sched_check_cell(seed);
        Runner::<brisa::BrisaNode>::new(&cfg, &sc.run_spec())
            .run()
            .fingerprint()
    };
    let parallel = run_matrix(&seeds, run);
    let sequential = run_matrix_sequential(&seeds, run);
    assert_eq!(parallel, sequential);
    assert_ne!(parallel[0], parallel[1], "fingerprints are not vacuous");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Path embedding never accepts a parent whose path contains the node,
    /// and always accepts one whose path does not.
    #[test]
    fn path_guard_is_exact(path in proptest::collection::vec(0u32..500, 1..20), me in 0u32..500) {
        let state = CycleState::for_mode(StructureMode::Tree);
        let guard = CycleGuard::Path(path.iter().copied().map(NodeId).collect());
        let expected = !path.contains(&me);
        prop_assert_eq!(state.permits(NodeId(me), &guard), expected);
    }

    /// Depth labels only ever accept senders strictly shallower than the
    /// node, and positioning after a delivery is monotone non-decreasing.
    #[test]
    fn depth_guard_is_monotone(depths in proptest::collection::vec(0u32..60, 1..30)) {
        let mut state = CycleState::for_mode(StructureMode::Dag { parents: 2 });
        let mut previous = None::<usize>;
        for d in depths {
            let guard = CycleGuard::Depth(d);
            if state.permits(NodeId(1), &guard) {
                state.position_after(NodeId(1), &guard);
            }
            let pos = state.position();
            if let (Some(prev), Some(cur)) = (previous, pos) {
                prop_assert!(cur >= prev, "depth never decreases: {prev} -> {cur}");
            }
            previous = pos.or(previous);
            if let Some(p) = state.position() {
                let level = CycleGuard::Depth(p as u32);
                prop_assert!(!state.permits(NodeId(1), &level));
            }
        }
    }

    /// The guard a node attaches to relayed messages always reflects its own
    /// position (path ends with the node / depth equals the position).
    #[test]
    fn outgoing_guard_reflects_position(hops in proptest::collection::vec(0u32..100, 1..12)) {
        let me = NodeId(42);
        let mut tree = CycleState::for_mode(StructureMode::Tree);
        let mut dag = CycleState::for_mode(StructureMode::Dag { parents: 2 });
        for h in &hops {
            let path: Vec<NodeId> = (100..=100 + *h % 5).map(NodeId).collect();
            tree.position_after(me, &CycleGuard::Path(path.into()));
            dag.position_after(me, &CycleGuard::Depth(*h));
        }
        match tree.outgoing_guard(me) {
            CycleGuard::Path(p) => {
                prop_assert_eq!(p.last(), Some(&me), "the relayed path ends with the relayer");
                prop_assert_eq!(p.len().saturating_sub(1), tree.position().unwrap_or(0));
            }
            _ => prop_assert!(false, "tree state must emit path guards"),
        }
        match dag.outgoing_guard(me) {
            CycleGuard::Depth(d) => prop_assert_eq!(Some(d as usize), dag.position().or(Some(0))),
            _ => prop_assert!(false, "dag state must emit depth guards"),
        }
    }

    /// HyParView views stay bounded, free of self-loops and duplicates, no
    /// matter what (well-formed) message sequence arrives.
    #[test]
    fn hyparview_views_stay_bounded(
        msgs in proptest::collection::vec((1u32..64, 0u8..6, any::<bool>()), 1..120),
        active_size in 2usize..6,
    ) {
        let cfg = HyParViewConfig::with_active_size(active_size);
        let mut node = HyParView::new(NodeId(0), cfg.clone());
        let mut rng = SmallRng::seed_from_u64(7);
        for (peer, kind, flag) in msgs {
            let msg = match kind {
                0 => HpvMsg::Join,
                1 => HpvMsg::ForwardJoin { new_node: NodeId(peer % 64 + 100), ttl: peer as u8 % 7 },
                2 => HpvMsg::Neighbor { high_priority: flag },
                3 => HpvMsg::NeighborReply { accepted: flag },
                4 => HpvMsg::Disconnect,
                _ => HpvMsg::ShuffleReply { nodes: vec![NodeId(peer + 200), NodeId(0)] },
            };
            node.handle(SimTime::ZERO, NodeId(peer), msg, &mut rng, &mut Vec::new());
            prop_assert!(node.active_view().len() <= cfg.max_active());
            prop_assert!(node.passive_view().len() <= cfg.passive_size);
            prop_assert!(!node.active_view().contains(&NodeId(0)), "no self loops");
            let mut a = node.active_view().to_vec();
            a.sort();
            a.dedup();
            prop_assert_eq!(a.len(), node.active_view().len(), "no duplicates in the active view");
            for p in node.passive_view() {
                prop_assert!(!node.active_view().contains(p), "views are disjoint");
            }
        }
    }

    /// Percentile summaries and CDFs agree with each other on random data.
    #[test]
    fn percentiles_and_cdf_agree(samples in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let summary = PercentileSummary::from_samples(samples.iter().copied());
        let mut cdf = Cdf::from_samples(samples.iter().copied());
        prop_assert!(summary.p5 <= summary.p25);
        prop_assert!(summary.p25 <= summary.p50);
        prop_assert!(summary.p50 <= summary.p75);
        prop_assert!(summary.p75 <= summary.p90);
        // At least half the samples sit at or below the median.
        prop_assert!(cdf.fraction_at(summary.p50) >= 0.5 - 1e-9);
        let (lo, hi) = cdf.range().unwrap();
        prop_assert!(summary.p5 >= lo - 1e-9 && summary.p90 <= hi + 1e-9);
    }

    /// Structure snapshots built from arbitrary parent choices among
    /// earlier-joined nodes are always acyclic and complete.
    #[test]
    fn join_ordered_structures_are_sound(parents in proptest::collection::vec(0u32..50, 1..50)) {
        let mut snapshot = StructureSnapshot::new(0);
        for (i, p) in parents.iter().enumerate() {
            let node = i as u32 + 1;
            // A node may only pick an earlier node as parent (like SimpleTree).
            let parent = p % node;
            snapshot.set_parents(node, vec![parent]);
        }
        prop_assert!(snapshot.is_acyclic());
        prop_assert!(snapshot.is_complete());
        let depths = snapshot.depths();
        prop_assert_eq!(depths.len(), parents.len() + 1);
    }
}

proptest! {
    // Full-stack runs are expensive; keep the case count small.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The sharded driver is observationally invisible: for arbitrary small
    /// scenarios, every shard count — including counts above the node
    /// count — produces the exact fingerprint of the sequential run. This is the workloads-level face of the simnet
    /// shard-equivalence tests: it goes through the full engine pipeline
    /// (bootstrap, schedule, churn, collect), not just the raw driver.
    #[test]
    fn sharded_runs_match_sequential_for_any_shard_count(
        nodes in 12u32..32,
        seed in 0u64..1000,
        dag in any::<bool>(),
        churny in any::<bool>(),
    ) {
        let sc = BrisaScenario {
            nodes,
            seed,
            view_size: 4,
            mode: if dag { StructureMode::Dag { parents: 2 } } else { StructureMode::Tree },
            stream: StreamSpec::short(5, 128),
            churn: churny.then(|| brisa_workloads::ChurnSpec {
                rate_percent: 5.0,
                interval: brisa_simnet::SimDuration::from_secs(8),
                duration: brisa_simnet::SimDuration::from_secs(16),
            }),
            ..BrisaScenario::small_test(nodes)
        };
        let cfg = BrisaStackConfig {
            hpv: sc.hyparview_config(),
            brisa: sc.brisa_config(),
        };
        let mut spec = sc.run_spec();
        let sequential = Runner::<brisa::BrisaNode>::new(&cfg, &spec).run().fingerprint();
        prop_assert!(sequential.contains(":d"), "fingerprint is vacuous");
        for shards in [1usize, 2, 3, 7, 16] {
            spec.shards = shards;
            let sharded = Runner::<brisa::BrisaNode>::new(&cfg, &spec)
                .run()
                .fingerprint();
            prop_assert_eq!(
                &sequential, &sharded,
                "{} shards diverged from sequential (seed {})",
                shards, seed
            );
        }
    }

    /// Whatever the (small) system size, seed, strategy and structure mode,
    /// a churn-free BRISA run delivers every message to every node and the
    /// emerged structure is acyclic with bounded parent counts.
    #[test]
    fn brisa_runs_deliver_everything(
        nodes in 12u32..40,
        seed in 0u64..1000,
        dag in any::<bool>(),
        delay_aware in any::<bool>(),
    ) {
        let sc = BrisaScenario {
            nodes,
            seed,
            view_size: 4,
            mode: if dag { StructureMode::Dag { parents: 2 } } else { StructureMode::Tree },
            strategy: if delay_aware {
                ParentStrategy::DelayAware
            } else {
                ParentStrategy::FirstComeFirstPicked
            },
            testbed: Testbed::Cluster,
            stream: StreamSpec::short(8, 128),
            ..BrisaScenario::small_test(nodes)
        };
        let target = sc.brisa_config().mode.target_parents();
        let result = run_brisa(&sc);
        prop_assert!((result.completeness() - 1.0).abs() < 1e-9,
            "completeness {} for {nodes} nodes seed {seed}", result.completeness());
        prop_assert!(result.structure().is_acyclic());
        for n in result.non_source() {
            let parents = n.report.parents.len();
            prop_assert!((1..=target).contains(&parents));
        }
        let _ = BrisaConfig::default();
    }
}
