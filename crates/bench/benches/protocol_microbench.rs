//! Criterion micro-benchmarks of the hot protocol paths: HyParView message
//! handling and the BRISA data-path decision (duplicate detection + parent
//! selection + relay fan-out), at structure-formation time and in the
//! steady state of an emerged tree.

use brisa::{BrisaConfig, BrisaCore, BrisaMsg, CycleGuard, DataMsg, DeliveryTracking, NoTelemetry};
use brisa_membership::{HpvMsg, HyParView, HyParViewConfig};
use brisa_simnet::{NodeId, SimTime};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn bench_hyparview_shuffle(c: &mut Criterion) {
    c.bench_function("hyparview_shuffle_round", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut node = HyParView::new(NodeId(0), HyParViewConfig::with_active_size(8));
        let mut out = Vec::new();
        for i in 1..=8u32 {
            // Populate the views through the public message interface.
            out.extend(node.handle(
                SimTime::ZERO,
                NodeId(i),
                HpvMsg::Neighbor {
                    high_priority: true,
                },
                &mut rng,
            ));
        }
        for i in 100..160u32 {
            let _ = node.handle(
                SimTime::ZERO,
                NodeId(1),
                HpvMsg::ShuffleReply {
                    nodes: vec![NodeId(i)],
                },
                &mut rng,
            );
        }
        b.iter(|| {
            let outs = node.shuffle_tick(&mut rng);
            std::hint::black_box(outs)
        });
    });
}

fn bench_brisa_data_path(c: &mut Criterion) {
    let make_core = || {
        let mut core = BrisaCore::new(NodeId(0), BrisaConfig::default());
        core.note_started(SimTime::ZERO);
        for i in 1..=8u32 {
            core.on_neighbor_up(NodeId(i));
        }
        core
    };
    let data = |seq: u64, sender: u32| {
        BrisaMsg::data(DataMsg {
            seq,
            payload_bytes: 1024,
            guard: CycleGuard::Path(Arc::from([NodeId(100), NodeId(sender)])),
            sender_uptime_secs: 10,
            sender_load: 2,
        })
    };
    c.bench_function("brisa_first_reception_and_relay", |b| {
        b.iter_batched(
            || (make_core(), Vec::new()),
            |(mut core, mut actions)| {
                for seq in 0..64u64 {
                    core.handle(
                        SimTime::from_millis(seq),
                        NodeId(1),
                        data(seq, 1),
                        &NoTelemetry,
                        &mut actions,
                    );
                    std::hint::black_box(&actions);
                    actions.clear();
                }
                core
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("brisa_duplicate_deactivation", |b| {
        b.iter_batched(
            || {
                let mut core = make_core();
                let mut actions = Vec::new();
                core.handle(
                    SimTime::ZERO,
                    NodeId(1),
                    data(0, 1),
                    &NoTelemetry,
                    &mut actions,
                );
                actions.clear();
                (core, actions)
            },
            |(mut core, mut actions)| {
                for sender in 2..=8u32 {
                    core.handle(
                        SimTime::from_millis(sender as u64),
                        NodeId(sender),
                        data(0, sender),
                        &NoTelemetry,
                        &mut actions,
                    );
                    std::hint::black_box(&actions);
                    actions.clear();
                }
                core
            },
            BatchSize::SmallInput,
        );
    });
}

/// Messages handled per timed sample of the steady-state cases.
const STEADY_BATCH: u64 = 10_000;

/// The cost the benchmark's `sim-stream` workload is made of: one first
/// reception from the parent in an emerged tree, long past warm-up, with
/// the retransmission buffer full. A *leaf* has nobody to relay to (every
/// other neighbor deactivated the link); an *interior* node relays to
/// three children. `buffer_size` 64 is the simulator default, 600 what
/// `live-tcp` raises it to.
fn bench_brisa_steady_state(c: &mut Criterion) {
    let path: Arc<[NodeId]> = Arc::from([NodeId(100), NodeId(50), NodeId(1)]);
    let data = |seq: u64| {
        BrisaMsg::data(DataMsg {
            seq,
            payload_bytes: 1024,
            guard: CycleGuard::Path(Arc::clone(&path)),
            sender_uptime_secs: 10,
            sender_load: 3,
        })
    };
    for (role, children) in [("leaf", 0u32), ("interior", 3)] {
        for buffer_size in [64usize, 600] {
            let mut core = BrisaCore::new(
                NodeId(0),
                BrisaConfig {
                    buffer_size,
                    // Keep the delivery ledger flat however long the bench runs.
                    tracking: DeliveryTracking::Counters {
                        stream_start_us: 0,
                        interval_us: 1_000,
                    },
                    ..BrisaConfig::default()
                },
            );
            core.note_started(SimTime::ZERO);
            let mut actions = Vec::new();
            for peer in (1..=4u32).map(NodeId) {
                core.on_neighbor_up(peer);
            }
            for peer in (2 + children..=4).map(NodeId) {
                let stop = BrisaMsg::Deactivate { symmetric: false };
                core.handle(SimTime::ZERO, peer, stop, &NoTelemetry, &mut actions);
            }
            let mut seq = 0u64;
            let mut step = |core: &mut BrisaCore, actions: &mut Vec<_>| {
                core.handle(
                    SimTime::from_millis(seq),
                    NodeId(1),
                    data(seq),
                    &NoTelemetry,
                    actions,
                );
                seq += 1;
                std::hint::black_box(&*actions);
                actions.clear();
            };
            for _ in 0..2 * buffer_size {
                step(&mut core, &mut actions);
            }
            assert_eq!(core.children().len(), children as usize);
            let id = format!("brisa_steady_{role}_buffer{buffer_size}_x{STEADY_BATCH}");
            c.bench_function(&id, |b| {
                b.iter(|| {
                    for _ in 0..STEADY_BATCH {
                        step(&mut core, &mut actions);
                    }
                });
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hyparview_shuffle, bench_brisa_data_path, bench_brisa_steady_state
}
criterion_main!(benches);
