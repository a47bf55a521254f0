//! Canonical scenario definitions, one per figure/table of the paper.
//!
//! Every experiment of `brisa-bench`'s `repro` (and the fault and scale
//! sweeps) pulls its parameters from here, so the mapping between an
//! experiment and its configuration is recorded in exactly one place. Each scenario can be instantiated at the
//! paper's full scale or at a reduced `Quick` scale for smoke runs and CI.

use crate::spec::{
    BrisaScenario, ChurnSpec, FaultSpec, MaintenanceTempo, PartitionPhase, ResultMode, ScaleEvent,
    ScaleEventKind, StreamSpec, Testbed,
};
use brisa::{ParentStrategy, StructureMode};
use brisa_simnet::SimDuration;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes used in the paper (512/200/150/128 nodes, 500 messages).
    Full,
    /// A reduced size that preserves the qualitative shape but runs in
    /// seconds; used by tests and the default `cargo bench` invocation.
    Quick,
}

impl Scale {
    /// Reads the scale from the `BRISA_SCALE` environment variable (see
    /// [`Scale::parse`]).
    pub fn from_env() -> Self {
        Self::parse(std::env::var("BRISA_SCALE").ok().as_deref())
    }

    /// The scale a `BRISA_SCALE` value names: `quick`, `full` or `paper`,
    /// case-insensitive; unset is `Quick`. Panics on anything else — a
    /// misspelt `full` must not silently run the quick sizes.
    pub fn parse(value: Option<&str>) -> Self {
        let Some(value) = value else {
            return Scale::Quick;
        };
        match value.to_ascii_lowercase().as_str() {
            "quick" => Scale::Quick,
            "full" | "paper" => Scale::Full,
            _ => panic!("BRISA_SCALE={value:?}: expected quick, full or paper"),
        }
    }

    /// Picks `full` or `quick` depending on the scale.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Figure 2: duplicate distribution under flooding for view sizes 4–10 over
/// a 512-node HyParView network, 500 messages. Returns `(nodes, messages,
/// payload, view_sizes)`.
pub fn fig2(scale: Scale) -> (u32, u64, usize, Vec<usize>) {
    let nodes = scale.pick(512, 64);
    let messages = scale.pick(500, 30);
    (nodes, messages, 1024, vec![4, 6, 8, 10])
}

/// Figures 6 and 7: depth and degree distributions for 512 nodes,
/// first-come first-picked, tree and DAG(2) × view 4 and 8.
pub fn fig6_7(scale: Scale) -> Vec<BrisaScenario> {
    let nodes = scale.pick(512, 96);
    let messages = scale.pick(100, 20);
    let mut out = Vec::new();
    for &(mode, view) in &[
        (StructureMode::Tree, 4),
        (StructureMode::Tree, 8),
        (StructureMode::Dag { parents: 2 }, 4),
        (StructureMode::Dag { parents: 2 }, 8),
    ] {
        out.push(BrisaScenario {
            nodes,
            view_size: view,
            mode,
            stream: StreamSpec::short(messages, 1024),
            ..Default::default()
        });
    }
    out
}

/// Figure 8: sample tree shapes for 100 nodes, view sizes 4 and 8,
/// expansion factor 1.
pub fn fig8(scale: Scale) -> Vec<BrisaScenario> {
    let nodes = scale.pick(100, 40);
    [4usize, 8]
        .iter()
        .map(|&view| BrisaScenario {
            nodes,
            view_size: view,
            expansion_factor: 1,
            stream: StreamSpec::short(20, 256),
            ..Default::default()
        })
        .collect()
}

/// Figure 9: routing delays on PlanetLab, 150 nodes, tree with view 4,
/// 200 × 1 KB messages; strategies first-pick and delay-aware (`repro fig09`
/// adds the flood and point-to-point reference series).
pub fn fig9(scale: Scale) -> Vec<BrisaScenario> {
    let nodes = scale.pick(150, 48);
    let messages = scale.pick(200, 25);
    [
        ParentStrategy::FirstComeFirstPicked,
        ParentStrategy::DelayAware,
    ]
    .iter()
    .map(|&strategy| BrisaScenario {
        nodes,
        view_size: 4,
        strategy,
        testbed: Testbed::PlanetLab,
        stream: StreamSpec {
            messages,
            rate_per_sec: 5.0,
            payload_bytes: 1024,
        },
        bootstrap: SimDuration::from_secs(60),
        ..Default::default()
    })
    .collect()
}

/// Figures 10 and 11: bandwidth usage for 512 nodes, payloads 1/10/50/100 KB,
/// tree & DAG(2) × view 4/8. Returns `(payload sizes, scenarios per
/// structure/view)`.
pub fn fig10_11(scale: Scale) -> (Vec<usize>, Vec<BrisaScenario>) {
    let nodes = scale.pick(512, 64);
    let messages = scale.pick(200, 25);
    let payloads = scale.pick(
        vec![1024, 10 * 1024, 50 * 1024, 100 * 1024],
        vec![1024, 10 * 1024],
    );
    let scenarios = [
        (StructureMode::Tree, 4),
        (StructureMode::Tree, 8),
        (StructureMode::Dag { parents: 2 }, 4),
        (StructureMode::Dag { parents: 2 }, 8),
    ]
    .iter()
    .map(|&(mode, view)| BrisaScenario {
        nodes,
        view_size: view,
        mode,
        stream: StreamSpec {
            messages,
            rate_per_sec: 5.0,
            payload_bytes: 1024,
        },
        ..Default::default()
    })
    .collect();
    (payloads, scenarios)
}

/// Table I: churn impact for 128 and 512 nodes, view 4, churn 3% and 5% per
/// minute over 10 minutes, tree vs DAG(2). Returns the cartesian product.
pub fn table1(scale: Scale) -> Vec<(u32, f64, StructureMode, BrisaScenario)> {
    let sizes: Vec<u32> = scale.pick(vec![128, 512], vec![48, 96]);
    let churn_minutes = scale.pick(10u64, 2);
    let mut out = Vec::new();
    for &nodes in &sizes {
        for &rate in &[3.0f64, 5.0] {
            for &mode in &[StructureMode::Tree, StructureMode::Dag { parents: 2 }] {
                let sc = BrisaScenario {
                    nodes,
                    view_size: 4,
                    mode,
                    stream: StreamSpec {
                        messages: scale.pick(500, 50),
                        rate_per_sec: 5.0,
                        payload_bytes: 1024,
                    },
                    churn: Some(ChurnSpec {
                        rate_percent: rate,
                        interval: SimDuration::from_secs(60),
                        duration: SimDuration::from_secs(60 * churn_minutes),
                    }),
                    bootstrap: SimDuration::from_secs(60),
                    drain: SimDuration::from_secs(30),
                    ..Default::default()
                };
                out.push((nodes, rate, mode, sc));
            }
        }
    }
    out
}

/// Figure 12 / Table II: the cross-protocol comparison at 512 nodes (view 4
/// for BRISA and TAG). Returns `(nodes, payload sizes for Fig 12, stream for
/// Table II)`.
pub fn comparison(scale: Scale) -> (u32, Vec<usize>, StreamSpec) {
    let nodes = scale.pick(512, 64);
    let payloads = scale.pick(
        vec![0, 1024, 10 * 1024, 20 * 1024],
        vec![0, 1024, 10 * 1024],
    );
    let stream = StreamSpec {
        messages: scale.pick(500, 40),
        rate_per_sec: 5.0,
        payload_bytes: 1024,
    };
    (nodes, payloads, stream)
}

/// Figure 13: construction time, BRISA vs TAG, on the cluster (512 nodes)
/// and PlanetLab (200 nodes).
pub fn fig13(scale: Scale) -> Vec<(Testbed, u32)> {
    vec![
        (Testbed::Cluster, scale.pick(512, 64)),
        (Testbed::PlanetLab, scale.pick(200, 48)),
    ]
}

/// Figure 14: parent recovery delays under 3%/min churn for a 128-node
/// network with view 4, BRISA tree vs TAG.
pub fn fig14(scale: Scale) -> (u32, ChurnSpec, StreamSpec) {
    let nodes = scale.pick(128, 48);
    let churn = ChurnSpec {
        rate_percent: 3.0,
        interval: SimDuration::from_secs(60),
        duration: SimDuration::from_secs(scale.pick(600, 120)),
    };
    let stream = StreamSpec {
        messages: scale.pick(500, 60),
        rate_per_sec: 5.0,
        payload_bytes: 1024,
    };
    (nodes, churn, stream)
}

/// Fault sweep, loss leg: a BRISA tree streaming under per-link Bernoulli
/// loss from 0 % (control) to 5 %. The structure bootstraps under nominal
/// conditions; loss switches on at stream start. Returns
/// `(loss rate, scenario)` pairs.
pub fn fault_loss_sweep(scale: Scale) -> Vec<(f64, BrisaScenario)> {
    let nodes = scale.pick(256, 48);
    let messages = scale.pick(300, 40);
    [0.0, 0.001, 0.01, 0.02, 0.05]
        .iter()
        .map(|&loss_rate| {
            (
                loss_rate,
                BrisaScenario {
                    nodes,
                    view_size: 4,
                    stream: StreamSpec {
                        messages,
                        rate_per_sec: 5.0,
                        payload_bytes: 1024,
                    },
                    faults: FaultSpec::loss(loss_rate),
                    bootstrap: SimDuration::from_secs(30),
                    drain: SimDuration::from_secs(20),
                    ..Default::default()
                },
            )
        })
        .collect()
}

/// Offset of the partition cut from stream start in the partition sweep.
pub const PARTITION_START_AFTER: SimDuration = SimDuration::from_secs(5);

/// Fault sweep, partition leg: a quarter of the population is cut from the
/// source [`PARTITION_START_AFTER`] into the stream, for 5/10/20 s (5/10 at
/// quick scale), then the cut heals while the stream keeps flowing for
/// another 15 s — long enough to watch the island catch back up. Returns
/// `(partition duration, scenario)` pairs.
pub fn fault_partition_sweep(scale: Scale) -> Vec<(SimDuration, BrisaScenario)> {
    let nodes = scale.pick(192, 48);
    let durations: Vec<u64> = scale.pick(vec![5, 10, 20], vec![5, 10]);
    durations
        .into_iter()
        .map(|secs| {
            let duration = SimDuration::from_secs(secs);
            let stream_secs = PARTITION_START_AFTER.as_micros() / 1_000_000 + secs + 15;
            (
                duration,
                BrisaScenario {
                    nodes,
                    view_size: 4,
                    stream: StreamSpec {
                        messages: stream_secs * 5,
                        rate_per_sec: 5.0,
                        payload_bytes: 1024,
                    },
                    faults: FaultSpec {
                        partition: Some(PartitionPhase::drop(
                            0.25,
                            PARTITION_START_AFTER,
                            duration,
                        )),
                        ..Default::default()
                    },
                    bootstrap: SimDuration::from_secs(30),
                    drain: SimDuration::from_secs(20),
                    ..Default::default()
                },
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Scale-mode scenarios (beyond the paper's sizes)
// ---------------------------------------------------------------------
//
// The paper evaluates up to 512 nodes; related epidemic-broadcast systems
// (Plumtree/HyParView lineage) go to 10k+. These scenarios take the same
// stack one order of magnitude further — 100 000-node overlays — using the
// streaming result path (`ResultMode::Streaming`), and add the large-scale
// incidents the paper implies but never runs: a flash crowd joining
// mid-stream, a catastrophic correlated failure, and sustained churn at
// scale.

/// Base of every scale scenario: a short 1 KiB stream at the paper's 5/s
/// rate over a tree with view 4, collected through the streaming result
/// path.
fn scale_base(nodes: u32) -> BrisaScenario {
    BrisaScenario {
        nodes,
        view_size: 4,
        stream: StreamSpec {
            messages: 50,
            rate_per_sec: 5.0,
            payload_bytes: 1024,
        },
        bootstrap: SimDuration::from_secs(30),
        drain: SimDuration::from_secs(20),
        results: ResultMode::Streaming,
        ..Default::default()
    }
}

/// Scale, control leg: plain dissemination at `nodes`, no faults. The
/// acceptance bar of the scale sweep: 100 % delivery at 100 000 nodes.
pub fn scale_no_fault(nodes: u32) -> BrisaScenario {
    scale_base(nodes)
}

/// Scale, flash-crowd leg: 10 % of the population (10 000 fresh nodes at
/// the 100k row) joins through the contact point *at the same instant*,
/// two seconds into the stream, while the original overlay keeps
/// streaming.
pub fn scale_flash_crowd(nodes: u32) -> BrisaScenario {
    BrisaScenario {
        events: vec![ScaleEvent {
            after: SimDuration::from_secs(2),
            kind: ScaleEventKind::FlashCrowd {
                joiners: (nodes / 10).max(1),
            },
        }],
        ..scale_base(nodes)
    }
}

/// Scale, correlated-failure leg: half of the live non-source population
/// crashes simultaneously three seconds into the stream. Survivors must
/// re-form the structure and close their gaps through the repair path; the
/// drain window is stretched so recovery completes inside the run.
pub fn scale_mass_crash(nodes: u32) -> BrisaScenario {
    BrisaScenario {
        events: vec![ScaleEvent {
            after: SimDuration::from_secs(3),
            kind: ScaleEventKind::MassCrash { fraction: 0.5 },
        }],
        drain: SimDuration::from_secs(30),
        ..scale_base(nodes)
    }
}

/// Scale, sustained-churn leg: 0.5 % of the population replaced every 15 s
/// for 45 s while the stream flows (the engine keeps publishing for the
/// whole churn window, so this row streams 225 messages at the 100k row —
/// by far the heaviest cell of the sweep).
pub fn scale_churn(nodes: u32) -> BrisaScenario {
    BrisaScenario {
        churn: Some(ChurnSpec {
            rate_percent: 0.5,
            interval: SimDuration::from_secs(15),
            duration: SimDuration::from_secs(45),
        }),
        drain: SimDuration::from_secs(30),
        ..scale_base(nodes)
    }
}

/// The million-node headline scenario of the sharded simulator: plain
/// dissemination at 1 000 000 nodes with a shortened stream (10 messages
/// instead of the suite's 50), a relaxed maintenance tempo
/// ([`MaintenanceTempo::relaxed`] — at this scale the suite tempo's
/// background chatter alone is ~10 M simulator events per simulated
/// second, blowing the wall-clock budget), and a stretched bootstrap so
/// the join wave fully percolates before the stream starts. This row is
/// run sharded-only: sequential/sharded equality is pinned at the smaller
/// suite sizes (and property-tested across shard counts), so the
/// million-node row pins *capacity*, not equivalence.
pub fn scale_million() -> BrisaScenario {
    BrisaScenario {
        stream: StreamSpec {
            messages: 10,
            rate_per_sec: 5.0,
            payload_bytes: 1024,
        },
        bootstrap: SimDuration::from_secs(40),
        drain: SimDuration::from_secs(20),
        tempo: MaintenanceTempo::relaxed(),
        ..scale_base(1_000_000)
    }
}

/// The scenario grid of `bench_scale_sweep`, one labelled scenario per
/// incident family at system size `nodes`.
pub fn scale_suite(nodes: u32) -> Vec<(&'static str, BrisaScenario)> {
    vec![
        ("no_fault", scale_no_fault(nodes)),
        ("flash_crowd", scale_flash_crowd(nodes)),
        ("mass_crash", scale_mass_crash(nodes)),
        ("churn", scale_churn(nodes)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_or_panics_with_the_value() {
        assert_eq!(Scale::parse(None), Scale::Quick);
        for quick in ["quick", "QUICK"] {
            assert_eq!(Scale::parse(Some(quick)), Scale::Quick);
        }
        for full in ["full", "FULL", "Full", "paper"] {
            assert_eq!(Scale::parse(Some(full)), Scale::Full);
        }
        for garbage in ["ful", "", "fulll"] {
            let err = std::panic::catch_unwind(|| Scale::parse(Some(garbage)))
                .expect_err("a misspelt scale must not mean quick");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(&format!("{garbage:?}")), "{msg}");
        }
    }

    #[test]
    fn full_scale_matches_paper_parameters() {
        let (nodes, messages, payload, views) = fig2(Scale::Full);
        assert_eq!((nodes, messages, payload), (512, 500, 1024));
        assert_eq!(views, vec![4, 6, 8, 10]);
        assert_eq!(fig6_7(Scale::Full).len(), 4);
        assert_eq!(fig6_7(Scale::Full)[0].nodes, 512);
        assert_eq!(fig8(Scale::Full)[0].nodes, 100);
        assert_eq!(fig8(Scale::Full)[0].expansion_factor, 1);
        assert_eq!(fig9(Scale::Full)[0].nodes, 150);
        assert_eq!(fig9(Scale::Full)[0].testbed, Testbed::PlanetLab);
        let (payloads, scenarios) = fig10_11(Scale::Full);
        assert_eq!(payloads.len(), 4);
        assert_eq!(scenarios.len(), 4);
        assert_eq!(table1(Scale::Full).len(), 8);
        let (n, p, s) = comparison(Scale::Full);
        assert_eq!(n, 512);
        assert_eq!(p, vec![0, 1024, 10240, 20480]);
        assert_eq!(s.messages, 500);
        assert_eq!(fig13(Scale::Full)[1], (Testbed::PlanetLab, 200));
        let (n14, churn, _) = fig14(Scale::Full);
        assert_eq!(n14, 128);
        assert!((churn.rate_percent - 3.0).abs() < 1e-9);
    }

    #[test]
    fn quick_scale_is_smaller() {
        let (nodes_full, ..) = fig2(Scale::Full);
        let (nodes_quick, ..) = fig2(Scale::Quick);
        assert!(nodes_quick < nodes_full);
        assert!(table1(Scale::Quick)[0].3.nodes < table1(Scale::Full)[0].3.nodes);
    }

    #[test]
    fn fault_sweeps_are_well_formed() {
        let loss = fault_loss_sweep(Scale::Quick);
        assert_eq!(loss.len(), 5);
        assert_eq!(loss[0].0, 0.0, "the control cell runs without loss");
        assert!(loss[0].1.faults.is_inert());
        assert!(loss.iter().skip(1).all(|(r, sc)| sc.faults.loss_rate == *r));
        assert!(loss.windows(2).all(|w| w[0].0 < w[1].0));

        for scale in [Scale::Quick, Scale::Full] {
            let partition = fault_partition_sweep(scale);
            assert!(
                partition
                    .iter()
                    .any(|(d, _)| *d == SimDuration::from_secs(10)),
                "the 10 s partition-then-heal scenario exists at every scale"
            );
            for (duration, sc) in &partition {
                let phase = sc.faults.partition.expect("partition phase present");
                assert_eq!(phase.duration, *duration);
                // The stream outlasts the heal by a post-heal tail.
                assert!(
                    sc.stream.duration()
                        > phase.start_after + phase.duration + SimDuration::from_secs(10)
                );
            }
        }
    }

    #[test]
    fn scale_suite_is_well_formed() {
        let suite = scale_suite(100_000);
        assert_eq!(suite.len(), 4);
        for (label, sc) in &suite {
            assert_eq!(sc.nodes, 100_000);
            assert_eq!(sc.results, ResultMode::Streaming, "{label}");
            // Streaming scenarios carry counter tracking anchored to the
            // publish schedule.
            assert!(matches!(
                sc.brisa_config().tracking,
                brisa_simnet::DeliveryTracking::Counters { .. }
            ));
        }
        let flash = scale_flash_crowd(100_000);
        assert!(matches!(
            flash.events[0].kind,
            ScaleEventKind::FlashCrowd { joiners: 10_000 }
        ));
        let crash = scale_mass_crash(64);
        assert!(matches!(
            crash.events[0].kind,
            ScaleEventKind::MassCrash { fraction } if (fraction - 0.5).abs() < 1e-9
        ));
        assert!(scale_churn(1000).churn.is_some());
        assert!(scale_no_fault(1000).events.is_empty());
    }

    #[test]
    fn million_row_relaxes_tempo_but_suite_keeps_the_default() {
        let m = scale_million();
        assert_eq!(m.nodes, 1_000_000);
        assert_eq!(m.tempo, MaintenanceTempo::relaxed());
        // The tempo flows into the per-protocol configurations...
        assert_eq!(
            m.hyparview_config().keepalive_period,
            SimDuration::from_secs(10)
        );
        assert_eq!(
            m.hyparview_config().shuffle_period,
            SimDuration::from_secs(30)
        );
        assert_eq!(
            m.brisa_config().repair_tick_period,
            SimDuration::from_secs(2)
        );
        // ... while every suite scenario keeps the evaluation defaults, so
        // their fingerprints are untouched by the knob's existence.
        for (label, sc) in scale_suite(2_000) {
            assert_eq!(sc.tempo, MaintenanceTempo::default(), "{label}");
            assert_eq!(
                sc.hyparview_config().keepalive_period,
                brisa_membership::HyParViewConfig::default().keepalive_period,
                "{label}"
            );
        }
    }

    #[test]
    fn scale_from_env_defaults_to_quick() {
        // The variable is not set in the test environment.
        assert_eq!(Scale::from_env(), Scale::Quick);
        assert_eq!(Scale::Quick.pick(1, 2), 2);
        assert_eq!(Scale::Full.pick(1, 2), 1);
    }
}
