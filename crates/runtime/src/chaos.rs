//! The live chaos runner: replays a [`ChaosSchedule`] against a real
//! cluster in wall-clock time.
//!
//! This is the live counterpart of `workloads::engine`: it executes the
//! same [`timed_plan`] — the stream's publishes, the script's fault
//! transitions and lifecycle events (kills, restarts, flash joins) — plus
//! its own periodic online invariant sweeps, against the wall clock.
//! Faults go through the cluster's [`ShimControl`](crate::ShimControl),
//! the simulator's own fault layer: the stochastic profile switches on at
//! stream start and the partition installs at its cut, as in the engine.
//!
//! Each sweep snapshots every live node's report *mid-stream* and holds
//! it to `workloads::invariants::check_delivery_report` (a count within
//! the highest delivered sequence number, nothing from the future, nothing
//! beyond what was published) plus cross-sweep delivered-count monotonicity — a live
//! node must never un-deliver. Violations are collected, not thrown, so
//! a soak driver can report every breakage of a long run at once.

use crate::cluster::{Cluster, ClusterConfig};
use crate::report::LiveResult;
use crate::shim::ShimStats;
use crate::wire::WireCodec;
use brisa_simnet::{NodeId, SimTime};
use brisa_telemetry::{EventKind as TelEventKind, Telemetry};
use brisa_workloads::chaos::ChaosSchedule;
use brisa_workloads::invariants::check_delivery_report;
use brisa_workloads::{
    add_marks, timed_plan, DisseminationProtocol, NodeClass, ScaleEventKind, Step, StreamSpec,
    FIRST_PUBLISH_DELAY,
};
use std::collections::HashMap;
use std::time::Duration;

/// Parameters of a chaos soak run (the live analogue of the sim
/// scenario's size/stream/bootstrap/drain knobs).
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Number of nodes (node 0 is the source).
    pub nodes: u32,
    /// Master seed: per-node RNGs *and* the fault layer's PRF derive from
    /// it, so the same seed means the same fault draws as a simulated run.
    pub seed: u64,
    /// Stream shape (messages, rate, payload).
    pub stream: StreamSpec,
    /// Wall time the overlay gets to form before the stream starts.
    pub bootstrap: Duration,
    /// Wall-time budget for the post-stream drain (repairs catching up).
    pub drain: Duration,
    /// Interval between online invariant sweeps.
    pub sweep_interval: Duration,
    /// Telemetry handle threaded into the cluster (reactor, protocol
    /// cores) and used by the runner itself for sweep/fault/partition
    /// flight-recorder events. Disabled by default.
    pub telemetry: Telemetry,
    /// When set, every sweep prints a one-line progress summary to
    /// stderr tagged with this label (scenario name), e.g.
    /// `[soak churn] t=12.4s published=300 delivered=290/300 alive=64`.
    pub progress: Option<String>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            nodes: 16,
            seed: 0xB215A,
            stream: StreamSpec::short(50, 256),
            bootstrap: Duration::from_secs(2),
            drain: Duration::from_secs(10),
            sweep_interval: Duration::from_secs(2),
            telemetry: Telemetry::disabled(),
            progress: None,
        }
    }
}

/// Everything a chaos soak run produced.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// The collected cluster result (reports, publish times, survivors).
    pub result: LiveResult,
    /// Online invariant sweeps performed.
    pub sweeps: usize,
    /// Every invariant violation any sweep observed (empty on a clean run).
    pub violations: Vec<String>,
    /// Nodes the schedule restarted (subset of `result.ever_killed`).
    pub restarted: Vec<u32>,
    /// Fresh joiners the schedule injected mid-run.
    pub joined: Vec<u32>,
    /// What the fault layer did to traffic over the whole run.
    pub shim: ShimStats,
}

/// The live runner's own steps, added to the timed plan.
enum Mark {
    Sweep,
    /// Telemetry-only marker at the partition's heal instant (the layer
    /// heals itself from the installed window; this just records it).
    PartitionHealed,
}

/// Replays `schedule` against a fresh `cfg`-shaped live cluster and
/// returns the full outcome. The schedule must be valid for the
/// population ([`ChaosSchedule::validate`]).
pub fn run_chaos<P>(
    cfg: &SoakConfig,
    proto_cfg: &P::Config,
    schedule: &ChaosSchedule,
) -> std::io::Result<SoakOutcome>
where
    P: DisseminationProtocol + Send + 'static,
    P::Message: WireCodec,
{
    schedule
        .validate(cfg.nodes, 0)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let reserve: u32 = schedule
        .events
        .iter()
        .map(|ev| match ev.kind {
            ScaleEventKind::FlashCrowd { joiners } => joiners,
            _ => 0,
        })
        .sum();
    let cluster_cfg = ClusterConfig {
        nodes: cfg.nodes,
        seed: cfg.seed,
        reserve,
        telemetry: cfg.telemetry.clone(),
        ..Default::default()
    };
    let mut cluster: Cluster<P> = Cluster::launch(&cluster_cfg, proto_cfg)?;
    cluster.run_for(cfg.bootstrap);

    let stream_start = cluster.now() + FIRST_PUBLISH_DELAY;
    let stream_end = stream_start + cfg.stream.duration();
    let shim = cluster.shim().clone();

    // The engine's plan of this script, plus this runner's sweeps and heal
    // marker, each after the plan's steps of its instant.
    let mut plan: Vec<(SimTime, Step<Mark>)> = timed_plan(
        stream_start,
        &cfg.stream,
        None,
        &schedule.faults,
        &schedule.events,
        cfg.nodes,
    );
    let mut marks = Vec::new();
    let sweep_every =
        brisa_simnet::SimDuration::from_micros((cfg.sweep_interval.as_micros() as u64).max(1));
    let mut sweep_at = stream_start + sweep_every;
    while sweep_at < stream_end {
        marks.push((sweep_at, Mark::Sweep));
        sweep_at += sweep_every;
    }
    let heal_at = plan.iter().find_map(|(_, step)| match step {
        Step::Partition(partition) => Some(partition.end),
        _ => None,
    });
    if let Some(at) = heal_at.filter(|at| *at < stream_end) {
        marks.push((at, Mark::PartitionHealed));
    }
    add_marks(&mut plan, marks);

    let mut sweeps = 0usize;
    let mut violations: Vec<String> = Vec::new();
    let mut restarted: Vec<u32> = Vec::new();
    let mut joined: Vec<u32> = Vec::new();
    // Cross-sweep monotonicity floor; an entry is reset by a restart
    // (state loss is the point of the exercise).
    let mut floor: HashMap<u32, u64> = HashMap::new();

    let clock = *cluster.clock();
    for (at, step) in plan {
        let deadline = clock.instant_at(at);
        let now = std::time::Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
        match step {
            Step::LinkFaults(link) => {
                cfg.telemetry.event(
                    cluster.now().as_micros(),
                    u32::MAX,
                    TelEventKind::FaultsEnabled,
                    0,
                    0,
                );
                shim.set_link_faults(link)
            }
            Step::Partition(partition) => {
                cfg.telemetry.event(
                    cluster.now().as_micros(),
                    u32::MAX,
                    TelEventKind::PartitionApply,
                    partition.start.as_micros(),
                    partition.end.as_micros(),
                );
                shim.add_partition(partition)
            }
            Step::Publish => cluster.publish(cfg.stream.payload_bytes),
            Step::Event(ScaleEventKind::Kill { node }) => {
                let victim = NodeId(node);
                if victim != cluster.source() && cluster.is_alive(victim) {
                    cluster.kill(victim);
                    floor.remove(&node);
                }
            }
            Step::Event(ScaleEventKind::Restart { node }) => {
                if !cluster.is_alive(NodeId(node)) {
                    cluster.restart(NodeId(node))?;
                    restarted.push(node);
                    floor.remove(&node);
                }
            }
            Step::Event(ScaleEventKind::FlashCrowd { joiners }) => {
                for _ in 0..joiners {
                    joined.push(cluster.join_node().0);
                }
            }
            Step::Event(ScaleEventKind::MassCrash { .. }) | Step::Churn(_) => {
                unreachable!("validated chaos scripts have no random crashes, and no churn")
            }
            Step::Mark(Mark::Sweep) => {
                sweeps += 1;
                sweep(cfg, &cluster, sweeps, &mut floor, &mut violations);
            }
            Step::Mark(Mark::PartitionHealed) => {
                cfg.telemetry.event(
                    cluster.now().as_micros(),
                    u32::MAX,
                    TelEventKind::PartitionHeal,
                    0,
                    0,
                );
            }
        }
    }

    // Drain: let repairs catch the survivors up, sweeping as we wait, and
    // stop early once every survivor has the full stream.
    let drain_end = std::time::Instant::now() + cfg.drain;
    loop {
        std::thread::sleep(cfg.sweep_interval.min(Duration::from_millis(500)));
        sweeps += 1;
        let reports = sweep(cfg, &cluster, sweeps, &mut floor, &mut violations);
        let killed = cluster.ever_killed();
        let done = reports.iter().all(|(id, r)| {
            NodeClass::of(*id, cluster.source(), cfg.nodes, &killed) != NodeClass::Survivor
                || r.delivered >= cfg.stream.messages
        });
        if done || std::time::Instant::now() >= drain_end {
            break;
        }
    }

    let shim_stats = shim.stats();
    let result = cluster.stop_and_collect();
    Ok(SoakOutcome {
        result,
        sweeps,
        violations,
        restarted,
        joined,
        shim: shim_stats,
    })
}

/// One online invariant sweep: snapshot every live report and hold it to
/// the engine's delivery checks plus cross-sweep monotonicity. Returns
/// the snapshots so callers can reuse them. Records an `InvariantSweep`
/// flight-recorder event, refreshes the cluster-level gauges and, when
/// [`SoakConfig::progress`] is set, prints a one-line summary.
fn sweep<P>(
    cfg: &SoakConfig,
    cluster: &Cluster<P>,
    sweeps: usize,
    floor: &mut HashMap<u32, u64>,
    violations: &mut Vec<String>,
) -> Vec<(NodeId, brisa_workloads::NodeReport)>
where
    P: DisseminationProtocol + Send + 'static,
    P::Message: WireCodec,
{
    let reports = cluster.snapshot_reports();
    let published = cluster.published();
    // `now` is taken *after* collection so no report timestamp can be from
    // the sweep's future.
    let now = cluster.now();
    for (id, report) in &reports {
        if let Err(e) = check_delivery_report(*id, report, published, now) {
            violations.push(e);
        }
        let prev = floor.entry(id.0).or_insert(0);
        if report.delivered < *prev {
            violations.push(format!(
                "node {}: delivered count went backwards ({} -> {})",
                id.0, prev, report.delivered
            ));
        }
        *prev = report.delivered;
    }
    cluster.publish_telemetry();
    cfg.telemetry.event(
        now.as_micros(),
        u32::MAX,
        TelEventKind::InvariantSweep,
        reports.len() as u64,
        violations.len() as u64,
    );
    if let Some(label) = &cfg.progress {
        // Delivered floor across the survivors — the nodes the final
        // delivered-set comparison will be judged on.
        let killed = cluster.ever_killed();
        let delivered_min = reports
            .iter()
            .filter(|(id, _)| {
                NodeClass::of(*id, cluster.source(), cfg.nodes, &killed) == NodeClass::Survivor
            })
            .map(|(_, r)| r.delivered)
            .min()
            .unwrap_or(0);
        eprintln!(
            "[soak {label}] t={:.1}s sweep={sweeps} published={published} delivered={delivered_min}/{} alive={} violations={}",
            now.as_micros() as f64 / 1e6,
            cfg.stream.messages,
            cluster.alive(),
            violations.len(),
        );
    }
    reports
}
