//! Protocol identity of the BRISA data path, pinned by committed hashes.
//!
//! The equivalence suites (wheel≡heap, sharded≡sequential, telemetry
//! on≡off) compare two runs of the *same* build, so a representation
//! change under `BrisaCore::handle_data` that altered a protocol decision
//! identically on both sides would pass them all. This suite pins the
//! absolute behaviour instead: the FNV-1a hash of `EngineResult::fingerprint()`
//! for a 200-node matrix — {tree, DAG(2)} × the four parent-selection
//! strategies × {no fault, 0.5 %/5 s churn + 1 % loss} — under both
//! schedulers. The hashes were recorded on the commit *before* the
//! allocation-free data path (inline retransmission buffer, shared path
//! guard, flat link table, vector-backed candidate set) and must never
//! change because of a representation refactor. A deliberate protocol
//! change re-records them: a failing run prints the whole table in source
//! form.

use brisa::{BrisaNode, ParentStrategy, StructureMode};
use brisa_simnet::SimDuration;
use brisa_workloads::{
    BrisaScenario, BrisaStackConfig, ChurnSpec, FaultSpec, IntoRunSpec, Runner, SchedulerKind,
    StreamSpec,
};

const MODES: [StructureMode; 2] = [StructureMode::Tree, StructureMode::Dag { parents: 2 }];

const STRATEGIES: [ParentStrategy; 4] = [
    ParentStrategy::FirstComeFirstPicked,
    ParentStrategy::DelayAware,
    ParentStrategy::Gerontocratic,
    ParentStrategy::LoadBalancing,
];

/// `PINNED[mode][strategy][faulty]`, recorded on the parent commit.
const PINNED: [[[u64; 2]; 4]; 2] = [
    [
        [0x16b5dc612a795fc4, 0xe70dccd5c4d17f0c],
        [0xa0124e92586e3509, 0x759f6dbfb05c571d],
        [0x31b54ac31378c40f, 0x9e91aedc7452e0a0],
        [0x5ea8df8dec571641, 0x8c65c3b3ffe815b0],
    ],
    [
        [0x90e36c9e8b994cac, 0xb96a19ffc210f2c6],
        [0x8b76c8e348722c06, 0x75386584132ee902],
        [0xd6a88594e557cf07, 0x4a02a94308860e3c],
        [0xb370f9c8c9c9a4e7, 0x57f62eaf16a9a18b],
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

fn run(sc: &BrisaScenario, scheduler: SchedulerKind) -> u64 {
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let mut spec = sc.run_spec();
    spec.scheduler = scheduler;
    let fingerprint = Runner::<BrisaNode>::new(&cfg, &spec).run().fingerprint();
    assert!(fingerprint.contains(":d"), "fingerprint is vacuous");
    fnv1a64(fingerprint.as_bytes())
}

#[test]
fn data_path_decisions_match_the_pinned_hashes() {
    let mut actual = [[[0u64; 2]; 4]; 2];
    for (m, &mode) in MODES.iter().enumerate() {
        for (s, &strategy) in STRATEGIES.iter().enumerate() {
            for faulty in [false, true] {
                let sc = scenario(mode, strategy, faulty);
                let wheel = run(&sc, SchedulerKind::TimingWheel);
                let heap = run(&sc, SchedulerKind::BinaryHeap);
                assert_eq!(
                    wheel, heap,
                    "{mode:?}/{strategy:?}/faulty={faulty}: schedulers diverged"
                );
                actual[m][s][faulty as usize] = wheel;
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
