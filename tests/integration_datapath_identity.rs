//! Protocol identity of the BRISA data path, pinned by committed hashes.
//!
//! The equivalence suites (sharded≡sequential, telemetry on≡off) compare two runs of the *same* build, so a representation
//! change under `BrisaCore::handle_data` that altered a protocol decision
//! identically on both sides would pass them all. This suite pins the
//! absolute behaviour instead: the FNV-1a hash of `EngineResult::fingerprint()`
//! for a 200-node matrix — {tree, DAG(2)} × the four parent-selection
//! strategies × {no fault, 0.5 %/5 s churn + 1 % loss}. The hashes were recorded on the commit *before* the
//! allocation-free data path (inline retransmission buffer, shared path
//! guard, flat link table, vector-backed candidate set) and must never
//! change because of a representation refactor. A deliberate protocol
//! change re-records them: a failing run prints the whole table in source
//! form.
//!
//! A second table pins the rows a control-plane representation change puts
//! at risk — HyParView through `baselines::flood`, Cyclon over
//! `BoundedView` through `SimpleGossip`, the FIFO link clocks fed by the
//! fault layer's `Routed::Deliver(at)` heal floor (1 % loss + a `Delay`
//! partition), and the sharded driver — recorded on the commit *before*
//! the expire-on-touch link clocks and the hash-free HyParView.
//!
//! A third pair of tests reads what the structure cost to build, per cell
//! (ROADMAP item 25's probe): mutual-parent pairs, the deepest depth label
//! and simulator events. No cell, tree or DAG, holds two nodes that are
//! each other's parents; a DAG is at most its parent count deeper than the
//! tree of the same strategy, and no strategy's DAG costs much more than
//! another's.

use brisa::{BrisaNode, ParentStrategy, StructureMode};
use brisa_baselines::{FloodNode, SimpleGossipNode};
use brisa_membership::HyParViewConfig;
use brisa_simnet::SimDuration;
use brisa_workloads::{
    BaselineScenario, BrisaScenario, BrisaStackConfig, ChurnSpec, DisseminationProtocol, FaultSpec,
    IntoRunSpec, PartitionPhase, RunSpec, Runner, StreamSpec,
};

const MODES: [StructureMode; 2] = [StructureMode::Tree, StructureMode::Dag { parents: 2 }];

const STRATEGIES: [ParentStrategy; 4] = [
    ParentStrategy::FirstComeFirstPicked,
    ParentStrategy::DelayAware,
    ParentStrategy::Gerontocratic,
    ParentStrategy::LoadBalancing,
];

/// `PINNED[mode][strategy][faulty]`, recorded on the parent commit and
/// re-recorded when the repair tick began to start with the stream: every
/// cell's fingerprint text is byte-identical but for its event count
/// (`ev=`, 5 960 or 5 961 fewer). The DAG cells were re-recorded when a
/// DAG node began to admit and keep only strictly shallower parents and
/// stopped pushing its depth to its children: their structures, depths
/// and costs moved (no mutual parents, no depth-label pushes, 94 869–
/// 94 873 events fault-free instead of 98 710–910 233); the tree cells
/// did not.
const PINNED: [[[u64; 2]; 4]; 2] = [
    [
        [0x48249d5b04fd5dac, 0xd7bae54e996d8dd2],
        [0xf7079c65388608fa, 0xc7d0e72ca35dd913],
        [0x0fb03607bb583336, 0xfcbba3020473253a],
        [0x1c8d6d86cac6c4f8, 0xd70ed86399c79927],
    ],
    [
        [0x6e136b73fd162362, 0x6e548c416e3c49bc],
        [0x6c334bfa276c8882, 0xb7c992053fe97be0],
        [0xd1f44e6d56b82565, 0xfe17c60c301185ed],
        [0x36f26b2e4f8a3ab0, 0xe9b7c1a4717c108a],
    ],
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn scenario(mode: StructureMode, strategy: ParentStrategy, faulty: bool) -> BrisaScenario {
    BrisaScenario {
        mode,
        strategy,
        stream: StreamSpec::short(40, 1024),
        churn: faulty.then_some(ChurnSpec {
            rate_percent: 0.5,
            interval: SimDuration::from_secs(5),
            duration: SimDuration::from_secs(30),
        }),
        faults: if faulty {
            FaultSpec::loss(0.01)
        } else {
            FaultSpec::default()
        },
        ..BrisaScenario::small_test(200)
    }
}

fn run(sc: &BrisaScenario) -> u64 {
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    run_spec::<BrisaNode>(&cfg, sc.run_spec())
}

fn run_spec<P>(cfg: &P::Config, spec: RunSpec) -> u64
where
    P: DisseminationProtocol + Send,
    P::Message: Send,
{
    let fingerprint = Runner::<P>::new(cfg, &spec).run().fingerprint();
    assert!(fingerprint.contains(":d"), "fingerprint is vacuous");
    fnv1a64(fingerprint.as_bytes())
}

/// The control-plane rows, in `CONTROL_PLANE_PINNED` order.
fn control_plane_rows() -> [(&'static str, u64); 4] {
    let baseline = BaselineScenario {
        churn: Some(ChurnSpec {
            rate_percent: 0.5,
            interval: SimDuration::from_secs(5),
            duration: SimDuration::from_secs(30),
        }),
        stream: StreamSpec::short(40, 1024),
        ..BaselineScenario::small_test(200)
    };
    let flood_cfg = HyParViewConfig::with_active_size(baseline.view_size);
    let tree = ParentStrategy::FirstComeFirstPicked;
    // Cross-cut traffic is held until the heal: every held message's
    // arrival is the fault layer's floor, not `now + latency`, and the
    // burst released at one instant walks the FIFO `+1 µs` bump chain.
    let held = BrisaScenario {
        faults: FaultSpec {
            loss_rate: 0.01,
            partition: Some(PartitionPhase::delay(
                0.2,
                SimDuration::from_secs(2),
                SimDuration::from_secs(4),
            )),
            ..FaultSpec::default()
        },
        ..scenario(StructureMode::Tree, tree, false)
    };
    let churned = scenario(StructureMode::Tree, tree, true);
    let stack = |sc: &BrisaScenario| BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    [
        (
            "flood over HyParView, churn",
            run_spec::<FloodNode>(&flood_cfg, baseline.run_spec()),
        ),
        (
            "SimpleGossip over Cyclon, churn",
            run_spec::<SimpleGossipNode>(&(), baseline.run_spec()),
        ),
        ("BRISA tree, 1 % loss + Delay partition", run(&held)),
        ("BRISA tree, churn + loss, shards(2)", {
            let mut spec = churned.run_spec();
            spec.shards = 2;
            run_spec::<BrisaNode>(&stack(&churned), spec)
        }),
    ]
}

/// Recorded on a82ec39, the parent of the control-plane rewrite. The third
/// row was re-recorded when a silent tree parent became a lost parent: the
/// `Delay` partition holds cross-cut traffic, `Edge`s included, longer than
/// the silence limit, so the nodes whose parents sit across the cut now
/// drop them and repair on their own side. The BRISA rows were re-recorded
/// again when the repair tick began to start with the stream, which moved
/// their event counts and nothing else.
const CONTROL_PLANE_PINNED: [u64; 4] = [
    0x4cfc736859c564ee, // flood over HyParView, churn
    0x5ddd496a25448b70, // SimpleGossip over Cyclon, churn
    0xc9146ea583b73138, // BRISA tree, 1 % loss + Delay partition
    0xd7bae54e996d8dd2, // BRISA tree, churn + loss, shards(2)
];

#[test]
fn control_plane_decisions_match_the_pinned_hashes() {
    let rows = control_plane_rows();
    let actual: Vec<u64> = rows.iter().map(|&(_, h)| h).collect();
    if actual != CONTROL_PLANE_PINNED {
        let mut table = String::from("const CONTROL_PLANE_PINNED: [u64; 4] = [\n");
        for (label, hash) in rows {
            table.push_str(&format!("    {hash:#018x}, // {label}\n"));
        }
        table.push_str("];");
        panic!("the control plane decided something differently; this build produces\n{table}");
    }
    // The sharded row is the sequential churn + loss cell of the matrix
    // above: one scenario, two drivers, one pinned hash.
    assert_eq!(CONTROL_PLANE_PINNED[3], PINNED[0][0][1]);
    let mut distinct = actual.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        4,
        "two control-plane rows pinned the same run"
    );
}

#[test]
fn data_path_decisions_match_the_pinned_hashes() {
    let mut actual = [[[0u64; 2]; 4]; 2];
    for (m, &mode) in MODES.iter().enumerate() {
        for (s, &strategy) in STRATEGIES.iter().enumerate() {
            for faulty in [false, true] {
                let sc = scenario(mode, strategy, faulty);
                actual[m][s][faulty as usize] = run(&sc);
            }
        }
    }
    if actual != PINNED {
        let mut table = String::from("const PINNED: [[[u64; 2]; 4]; 2] = [\n");
        for mode in &actual {
            table.push_str("    [\n");
            for [clean, faulty] in mode {
                table.push_str(&format!("        [{clean:#018x}, {faulty:#018x}],\n"));
            }
            table.push_str("    ],\n");
        }
        table.push_str("];");
        panic!("the data path decided something differently; this build produces\n{table}");
    }
}

#[test]
fn the_matrix_cells_are_distinct_runs() {
    // Sixteen equal hashes would mean the knobs never reached the protocol.
    let mut all: Vec<u64> = PINNED.iter().flatten().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 16, "two matrix cells pinned the same run");
}

/// What one cell's structure cost: item 25's probe.
#[derive(Debug)]
struct Probe {
    /// Pairs of live nodes that are each other's parents at the end.
    mutual_pairs: usize,
    /// The deepest depth label (a path's length in tree mode).
    max_depth: usize,
    events: u64,
}

fn probe(sc: &BrisaScenario) -> Probe {
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let result = Runner::<BrisaNode>::new(&cfg, &sc.run_spec()).run();
    let structure = result.structure();
    let parents = |n: u32| structure.parents.get(&n).map_or(&[][..], Vec::as_slice);
    let mutual_pairs = structure
        .parents
        .iter()
        .flat_map(|(&n, ps)| ps.iter().map(move |&p| (n, p)))
        .filter(|&(n, p)| n < p && parents(p).contains(&n))
        .count();
    let depths = result.nodes.iter().filter_map(|n| n.report.depth);
    Probe {
        mutual_pairs,
        max_depth: depths.max().unwrap_or(0),
        events: result.net_stats.events_processed,
    }
}

/// The probe of every cell of `mode`, `[strategy][faulty]`, printed as a
/// table.
fn probe_mode(mode: StructureMode) -> Vec<[Probe; 2]> {
    println!("| {mode:?} | faulty | mutual pairs | max depth | events |");
    STRATEGIES
        .iter()
        .map(|&strategy| {
            [false, true].map(|faulty| {
                let p = probe(&scenario(mode, strategy, faulty));
                println!(
                    "| {strategy:?} | {faulty} | {} | {} | {} |",
                    p.mutual_pairs, p.max_depth, p.events
                );
                p
            })
        })
        .collect()
}

#[test]
fn tree_cells_hold_no_mutual_parents_and_send_no_depth_updates() {
    for p in probe_mode(MODES[0]).iter().flatten() {
        assert_eq!(p.mutual_pairs, 0, "{p:?}");
    }
}

/// ROADMAP item 25's acceptance: no DAG cell holds two nodes that are each
/// other's parents; each DAG cell's deepest label is at most its tree
/// sibling's plus the parent count; and the DelayAware cell costs at most
/// 1.2 × the FirstComeFirstPicked cell's events (910 233 against 98 749
/// while the depth labels counted to infinity).
#[test]
fn dag_cells_hold_no_mutual_parents() {
    let trees = probe_mode(MODES[0]);
    let dags = probe_mode(MODES[1]);
    let parents = MODES[1].target_parents();
    for (tree, dag) in trees.iter().flatten().zip(dags.iter().flatten()) {
        assert_eq!(dag.mutual_pairs, 0, "{dag:?}");
        assert!(
            dag.max_depth <= tree.max_depth + parents,
            "DAG {dag:?} against tree {tree:?}"
        );
    }
    let (first_come, delay_aware) = (dags[0][0].events, dags[1][0].events);
    assert!(
        delay_aware * 5 <= first_come * 6,
        "DelayAware {delay_aware} events against FirstComeFirstPicked {first_come}"
    );
}
