//! Criterion micro-benchmarks of the hot protocol paths: HyParView message
//! handling (shuffle, keep-alive round trip, keep-alive tick), the
//! simulator's FIFO link-clock stamp, and the BRISA data-path decision
//! (duplicate detection + parent selection + relay fan-out), at
//! structure-formation time and in the steady state of an emerged tree.

use brisa::{BrisaConfig, BrisaCore, BrisaMsg, CycleGuard, DataMsg, NoTelemetry};
use brisa_membership::{HpvMsg, HpvOut, HyParView, HyParViewConfig};
use brisa_simnet::latency::FixedLatency;
use brisa_simnet::{
    Context, DeliveryTracking, Network, NetworkConfig, NodeId, Protocol, SimDuration, SimTime,
    TimerTag,
};
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
            node.handle(
                SimTime::ZERO,
                NodeId(i),
                HpvMsg::Neighbor {
                    high_priority: true,
                },
                &mut rng,
                &mut out,
            );
        }
        for i in 100..160u32 {
            node.handle(
                SimTime::ZERO,
                NodeId(1),
                HpvMsg::ShuffleReply {
                    nodes: vec![NodeId(i)],
                },
                &mut rng,
                &mut out,
            );
        }
        b.iter(|| {
            out.clear();
            node.shuffle_tick(&mut rng, &mut out);
            std::hint::black_box(&out);
        });
    });
}

/// Keep-alive rounds per timed sample.
const KEEPALIVE_ROUNDS: u64 = 1_000;

/// The overlay's background hum: node 0 probes its four neighbors, each
/// acknowledges, node 0 records the round-trip times — one tick, four
/// `KeepAlive`s and four `KeepAliveAck`s per round, which is most of what a
/// `sim-scale` run executes. The tick-only case never sees an
/// acknowledgement, so every tick also sweeps a full table of stale probes.
fn bench_hyparview_keepalive(c: &mut Criterion) {
    let cfg = HyParViewConfig::with_active_size(4);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut out: Vec<HpvOut> = Vec::with_capacity(16);
    let connected = |rng: &mut SmallRng, out: &mut Vec<HpvOut>| {
        let mut hub = HyParView::new(NodeId(0), cfg.clone());
        let mut spokes = Vec::new();
        let neighbor = HpvMsg::Neighbor {
            high_priority: true,
        };
        for i in 1..=4u32 {
            hub.handle(SimTime::ZERO, NodeId(i), neighbor.clone(), rng, out);
            let mut spoke = HyParView::new(NodeId(i), cfg.clone());
            spoke.handle(SimTime::ZERO, NodeId(0), neighbor.clone(), rng, out);
            spokes.push(spoke);
        }
        out.clear();
        (hub, spokes)
    };
    let period = cfg.keepalive_period;

    let (mut hub, mut spokes) = connected(&mut rng, &mut out);
    let mut now = SimTime::ZERO;
    let mut probes: Vec<HpvOut> = Vec::with_capacity(8);
    c.bench_function(
        &format!("hyparview_keepalive_roundtrip_x{KEEPALIVE_ROUNDS}"),
        |b| {
            b.iter(|| {
                for _ in 0..KEEPALIVE_ROUNDS {
                    now += period;
                    probes.clear();
                    hub.keepalive_tick(now, &mut probes);
                    for probe in probes.drain(..) {
                        let HpvOut::Send { to, msg } = probe else {
                            unreachable!("a tick only sends");
                        };
                        out.clear();
                        spokes[to.index() - 1].handle(now, NodeId(0), msg, &mut rng, &mut out);
                        let Some(HpvOut::Send { msg: ack, .. }) = out.pop() else {
                            unreachable!("a neighbor acknowledges");
                        };
                        let arrival = now + SimDuration::from_millis(2);
                        hub.handle(arrival, to, ack, &mut rng, &mut out);
                    }
                }
                std::hint::black_box(hub.rtt_to(NodeId(1)));
            });
        },
    );

    let (mut hub, _) = connected(&mut rng, &mut out);
    let mut now = SimTime::ZERO;
    c.bench_function(
        &format!("hyparview_keepalive_tick_x{KEEPALIVE_ROUNDS}"),
        |b| {
            b.iter(|| {
                for _ in 0..KEEPALIVE_ROUNDS {
                    now += period;
                    out.clear();
                    hub.keepalive_tick(now, &mut out);
                    std::hint::black_box(&out);
                }
            });
        },
    );
}

/// A node that does nothing: the simulator's own send path is the subject.
struct Quiet;

impl Protocol for Quiet {
    type Message = ();
    fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {}
    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}
    fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _tag: TimerTag) {}
}

/// Sends per timed sample of the FIFO-stamp case.
const STAMP_SENDS: u32 = 10_000;

/// One send through `Network` — meter, latency draw, FIFO stamp, queue push,
/// pop, delivery to a no-op node — from a sender that has, over its life,
/// messaged 4, 64 or 4 096 distinct destinations and now talks to four of
/// them. The history is the variable: a clock table that remembers every
/// destination makes each stamp a search through all of it (the contact
/// node of a 5 000-node overlay is the 4 096 case); clocks that expire with
/// their messages make the three cases cost the same.
fn bench_simnet_fifo_stamp(c: &mut Criterion) {
    for history in [4u32, 64, 4096] {
        let mut net: Network<Quiet> = Network::new(
            NetworkConfig::default(),
            Box::new(FixedLatency::new(SimDuration::from_millis(1))),
        );
        let sender = net.add_node(|_| Quiet);
        let dests: Vec<NodeId> = (0..history).map(|_| net.add_node(|_| Quiet)).collect();
        net.run_for(SimDuration::from_millis(1));
        net.invoke(sender, |_, ctx| {
            for &d in &dests {
                ctx.send(d, ());
            }
        });
        net.run_for(SimDuration::from_millis(10));
        // Recent peers spread across the id range, as a view's members are.
        let recent: Vec<NodeId> = (0..4).map(|k| dests[(k * history / 4) as usize]).collect();
        let id = format!("simnet_fifo_stamp_history{history}_x{STAMP_SENDS}");
        c.bench_function(&id, |b| {
            b.iter(|| {
                for i in 0..STAMP_SENDS {
                    let to = recent[(i % 4) as usize];
                    net.invoke(sender, |_, ctx| ctx.send(to, ()));
                    if i % 4 == 3 {
                        net.run_for(SimDuration::from_millis(2));
                    }
                }
                std::hint::black_box(net.stats().messages_delivered);
            });
        });
    }
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
    targets = bench_hyparview_shuffle, bench_hyparview_keepalive, bench_simnet_fifo_stamp,
        bench_brisa_data_path, bench_brisa_steady_state
}
criterion_main!(benches);
