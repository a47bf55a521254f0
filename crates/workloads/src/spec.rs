//! Experiment specifications.
//!
//! Every figure and table of the paper is an instance of a small set of
//! parameters: system size, active view size, structure mode, parent
//! selection strategy, testbed (cluster or PlanetLab), stream shape, and an
//! optional churn phase. These types capture those parameters; the runner
//! modules execute them.

use brisa::{BrisaConfig, ParentStrategy, StructureMode};
use brisa_membership::HyParViewConfig;
use brisa_simnet::latency::{ClusterLatency, LatencyModel, PlanetLabLatency};
use brisa_simnet::{
    DeliveryTracking, LinkFaults, NodeId, PartitionMode, PartitionSpec, SimDuration, SimTime,
};
use serde::{Deserialize, Serialize};

/// Delay between the end of the bootstrap window and the first stream
/// injection. Public because scale-mode delivery tracking derives the
/// publish schedule (`stream_start + seq × interval`) from it.
pub const FIRST_PUBLISH_DELAY: SimDuration = SimDuration::from_millis(100);

/// Which testbed the experiment models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Testbed {
    /// The 15-machine 1 Gbps switched cluster (up to 512 logical nodes).
    Cluster,
    /// The PlanetLab slice (heavy-tailed, asymmetric WAN latencies).
    PlanetLab,
}

impl Testbed {
    /// Builds the latency model for this testbed.
    pub fn latency_model(self, seed: u64) -> Box<dyn LatencyModel> {
        match self {
            Testbed::Cluster => Box::new(ClusterLatency::default()),
            Testbed::PlanetLab => Box::new(PlanetLabLatency::new(seed, 40.0, 0.7, 0.2)),
        }
    }
}

/// Shape of the injected message stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Number of messages injected by the source.
    pub messages: u64,
    /// Injection rate in messages per second (the paper uses 5/s).
    pub rate_per_sec: f64,
    /// Payload size in bytes.
    pub payload_bytes: usize,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            messages: 500,
            rate_per_sec: 5.0,
            payload_bytes: 1024,
        }
    }
}

impl StreamSpec {
    /// A shorter stream, convenient for tests and examples.
    pub fn short(messages: u64, payload_bytes: usize) -> Self {
        StreamSpec {
            messages,
            rate_per_sec: 5.0,
            payload_bytes,
        }
    }

    /// Interval between two injections.
    pub fn interval(&self) -> SimDuration {
        SimDuration::from_millis_f64(1000.0 / self.rate_per_sec.max(0.001))
    }

    /// Total injection duration.
    pub fn duration(&self) -> SimDuration {
        self.interval() * self.messages
    }
}

/// A constant-churn phase, reproducing the Splay churn script of Listing 1:
/// every `interval`, `rate_percent` of the nodes fail and the same number of
/// fresh nodes join.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Percentage of the population replaced per interval (the paper uses 3%
    /// and 5% per minute).
    pub rate_percent: f64,
    /// Churn interval (60 s in the paper).
    pub interval: SimDuration,
    /// Total duration of the churn phase (600 s in the paper).
    pub duration: SimDuration,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            rate_percent: 3.0,
            interval: SimDuration::from_secs(60),
            duration: SimDuration::from_secs(600),
        }
    }
}

/// One churn event of the generated schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Fail one randomly chosen live node.
    Fail,
    /// Add one fresh node.
    Join,
}

impl ChurnSpec {
    /// Expands the spec into a per-event schedule starting at `start`:
    /// `(time, event)` pairs, with fails and joins spread evenly across each
    /// interval. `population` is the nominal system size used to compute the
    /// per-interval event count.
    pub fn schedule(&self, start: SimTime, population: usize) -> Vec<(SimTime, ChurnEvent)> {
        let per_interval = ((population as f64) * self.rate_percent / 100.0).round() as usize;
        let mut events = Vec::new();
        if per_interval == 0 || self.interval.is_zero() {
            return events;
        }
        let intervals = (self.duration.as_micros() / self.interval.as_micros()).max(1);
        for i in 0..intervals {
            let interval_start = start + self.interval * i;
            let step = self.interval / (per_interval as u64 * 2).max(1);
            for k in 0..per_interval {
                let fail_at = interval_start + step * (2 * k as u64);
                let join_at = interval_start + step * (2 * k as u64 + 1);
                events.push((fail_at, ChurnEvent::Fail));
                events.push((join_at, ChurnEvent::Join));
            }
        }
        events.sort_by_key(|(t, _)| *t);
        events
    }
}

/// How the engine materialises run results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResultMode {
    /// Per-node outcomes with full first-delivery vectors, per-phase
    /// bandwidth and point-to-point reference latencies — everything the
    /// classic figures consume. O(nodes × messages) memory at collect time.
    #[default]
    Classic,
    /// Scale mode: no per-node materialisation. The engine folds every
    /// node's counters into one [`StreamingSummary`](crate::engine::StreamingSummary)
    /// (delivery counters + a mergeable latency histogram), selects
    /// totals-only bandwidth metering, and samples the simulator's
    /// bytes-per-node footprint. O(nodes) memory, independent of stream
    /// length.
    Streaming,
}

/// A scheduled lifecycle event, expressed relative to stream start.
/// Unlike [`ChurnSpec`]'s gradual grind, these are step functions: the
/// scale scenarios' thousands of nodes arriving at once or half the overlay
/// failing simultaneously, and a chaos script's named kills and restarts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// Offset from stream start.
    pub after: SimDuration,
    /// What happens.
    pub kind: ScaleEventKind,
}

/// The kinds of scheduled lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleEventKind {
    /// `joiners` fresh nodes join through random live contacts at the same
    /// instant (flash crowd).
    FlashCrowd {
        /// Number of simultaneous joiners.
        joiners: u32,
    },
    /// A fraction of the live non-source population crashes simultaneously
    /// (catastrophic correlated failure).
    MassCrash {
        /// Fraction of live non-source nodes to crash, clamped to `[0, 1]`.
        fraction: f64,
    },
    /// One *named* node fails (fail-stop). Unlike [`ChurnEvent::Fail`]'s
    /// random victim, the identifier is part of the schedule, so the same
    /// chaos script kills the same node in the simulator and in a live
    /// cluster. Killing the source or an already-dead node is a no-op.
    Kill {
        /// Identifier of the victim (the `NodeId` index).
        node: u32,
    },
    /// Restart a killed node with empty state. Live: the same identifier
    /// rejoins through the source contact. Sim: one fresh join, as
    /// `FlashCrowd { joiners: 1 }` (see [`crate::chaos`] for why the two
    /// still compare).
    Restart {
        /// Identifier of the node to resurrect.
        node: u32,
    },
}

/// Adversarial conditions injected into a run: per-link loss, latency
/// degradation, and an optional timed partition. Inert by default — a
/// default `FaultSpec` produces a run bit-identical to one without any
/// fault machinery (asserted by `tests/integration_faults.rs`).
///
/// The stochastic profile activates at **stream start** (the structure
/// bootstraps under nominal conditions, then the stream runs under
/// adversity — the shape of the paper's reliability experiments); the
/// partition window is expressed relative to stream start too.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability in `[0, 1]` that any single transmission is lost.
    pub loss_rate: f64,
    /// Maximum extra uniform per-message delay.
    pub jitter: SimDuration,
    /// Multiplier on every sampled link latency (`1.0` = nominal).
    pub latency_factor: f64,
    /// Optional partition-then-heal phase.
    pub partition: Option<PartitionPhase>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            loss_rate: 0.0,
            jitter: SimDuration::ZERO,
            latency_factor: 1.0,
            partition: None,
        }
    }
}

/// A timed partition riding a [`FaultSpec`]: a fraction of the initial
/// population is cut from the rest (source included on the majority side)
/// for a window relative to stream start, then the cut heals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionPhase {
    /// Fraction of the initial population forming the cut-away island
    /// (clamped to leave the source and at least one island node).
    pub fraction: f64,
    /// Offset of the cut from stream start.
    pub start_after: SimDuration,
    /// How long the cut lasts before healing.
    pub duration: SimDuration,
    /// Drop or delay cross-cut traffic.
    pub mode: PartitionMode,
}

impl PartitionPhase {
    /// A `fraction` cut starting `start_after` into the stream and lasting
    /// `duration`, dropping cross-cut traffic.
    pub fn drop(fraction: f64, start_after: SimDuration, duration: SimDuration) -> Self {
        PartitionPhase {
            fraction,
            start_after,
            duration,
            mode: PartitionMode::Drop,
        }
    }

    /// Like [`PartitionPhase::drop`], but cross-cut traffic is *held* for
    /// the window and released at the heal — a congestion/grey-failure
    /// window rather than a clean cut. Arrival is `max(send + latency,
    /// heal)` in both the sim and the live runtime.
    pub fn delay(fraction: f64, start_after: SimDuration, duration: SimDuration) -> Self {
        PartitionPhase {
            fraction,
            start_after,
            duration,
            mode: PartitionMode::Delay,
        }
    }

    /// The island: the lowest-identifier non-source nodes making up
    /// `fraction` of the initial `population`. Deterministic, so benches
    /// and invariant checkers can name the cut-away nodes without access to
    /// engine internals.
    pub fn island(&self, population: u32) -> Vec<NodeId> {
        let count = ((population as f64) * self.fraction).round() as u32;
        let count = count.clamp(1, population.saturating_sub(1).max(1));
        (1..=count).map(NodeId).collect()
    }

    /// The simulator-level partition for a stream starting at
    /// `stream_start` over `population` initial nodes.
    pub fn to_partition(&self, stream_start: SimTime, population: u32) -> PartitionSpec {
        let start = stream_start + self.start_after;
        PartitionSpec::new(
            self.island(population),
            start,
            start + self.duration,
            self.mode,
        )
    }
}

impl FaultSpec {
    /// A pure per-link loss profile.
    pub fn loss(loss_rate: f64) -> Self {
        FaultSpec {
            loss_rate,
            ..Default::default()
        }
    }

    /// True if this spec cannot affect the run in any way — the engine then
    /// skips the fault plumbing entirely, guaranteeing bit-identical
    /// execution to a run without it.
    pub fn is_inert(&self) -> bool {
        self.link_faults().is_inert() && self.partition.is_none()
    }

    /// The simulator-level stochastic profile.
    pub fn link_faults(&self) -> LinkFaults {
        LinkFaults {
            loss_rate: self.loss_rate,
            jitter: self.jitter,
            latency_factor: self.latency_factor,
        }
    }
}

/// Tempo of the stack's periodic maintenance: the HyParView passive-view
/// shuffle and keep-alive probes, and BRISA's repair-supervision tick.
///
/// The defaults match the values used throughout the paper's evaluation.
/// Capacity scenarios slow them down: at a million nodes the background
/// chatter — not the stream — dominates the simulator's event budget
/// (every keep-alive is `O(active view)` events per node per period), so
/// [`crate::scenarios::scale_million`] stretches all three periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintenanceTempo {
    /// Period of the proactive passive-view shuffle.
    pub shuffle_period: SimDuration,
    /// Period of the keep-alive probes (doubling as RTT measurements).
    pub keepalive_period: SimDuration,
    /// Period of BRISA's repair-supervision timer.
    pub repair_tick_period: SimDuration,
}

impl Default for MaintenanceTempo {
    fn default() -> Self {
        let hpv = HyParViewConfig::default();
        MaintenanceTempo {
            shuffle_period: hpv.shuffle_period,
            keepalive_period: hpv.keepalive_period,
            repair_tick_period: BrisaConfig::default().repair_tick_period,
        }
    }
}

impl MaintenanceTempo {
    /// The slowed-down tempo of million-node capacity runs: keep-alives at
    /// 10 s, shuffles at 30 s, repair supervision at 2 s. Failure detection
    /// and repair latency degrade accordingly — acceptable for the no-fault
    /// capacity headline, wrong for the fault scenarios.
    pub fn relaxed() -> Self {
        MaintenanceTempo {
            shuffle_period: SimDuration::from_secs(30),
            keepalive_period: SimDuration::from_secs(10),
            repair_tick_period: SimDuration::from_secs(2),
        }
    }
}

/// Full specification of a BRISA experiment run.
#[derive(Debug, Clone)]
pub struct BrisaScenario {
    /// Number of nodes bootstrapped before the stream starts.
    pub nodes: u32,
    /// HyParView active view size.
    pub view_size: usize,
    /// HyParView expansion factor (2 in the evaluation, 1 for Figure 8).
    pub expansion_factor: usize,
    /// Structure mode (tree or DAG).
    pub mode: StructureMode,
    /// Parent selection strategy.
    pub strategy: ParentStrategy,
    /// Testbed latency model.
    pub testbed: Testbed,
    /// Deterministic seed.
    pub seed: u64,
    /// Stream shape.
    pub stream: StreamSpec,
    /// Optional churn phase running concurrently with the stream.
    pub churn: Option<ChurnSpec>,
    /// Adversarial network conditions (loss, jitter, partitions). Inert by
    /// default.
    pub faults: FaultSpec,
    /// Time allotted for the join phase and overlay stabilisation before the
    /// stream starts.
    pub bootstrap: SimDuration,
    /// Time to keep simulating after the last injection so in-flight
    /// messages and repairs drain.
    pub drain: SimDuration,
    /// Scheduled lifecycle events (flash crowds, mass crashes, named kills
    /// and restarts), relative to stream start. Empty by default.
    pub events: Vec<ScaleEvent>,
    /// Classic per-node results or scale-mode streaming results.
    pub results: ResultMode,
    /// Periodic-maintenance tempo (shuffle / keep-alive / repair tick).
    pub tempo: MaintenanceTempo,
}

impl Default for BrisaScenario {
    fn default() -> Self {
        BrisaScenario {
            nodes: 128,
            view_size: 4,
            expansion_factor: 2,
            mode: StructureMode::Tree,
            strategy: ParentStrategy::FirstComeFirstPicked,
            testbed: Testbed::Cluster,
            seed: 0xB215A,
            stream: StreamSpec::default(),
            churn: None,
            faults: FaultSpec::default(),
            bootstrap: SimDuration::from_secs(30),
            drain: SimDuration::from_secs(20),
            events: Vec::new(),
            results: ResultMode::Classic,
            tempo: MaintenanceTempo::default(),
        }
    }
}

/// Parameters of a baseline run, shared by every comparison protocol
/// (flooding, SimpleGossip, SimpleTree, TAG).
#[derive(Debug, Clone)]
pub struct BaselineScenario {
    /// System size.
    pub nodes: u32,
    /// HyParView view size (flooding) / list-tree fanout knobs use defaults.
    pub view_size: usize,
    /// Testbed latency model.
    pub testbed: Testbed,
    /// Deterministic seed.
    pub seed: u64,
    /// Stream shape.
    pub stream: StreamSpec,
    /// Optional churn phase (only TAG reacts meaningfully; SimpleTree and
    /// SimpleGossip tolerate it passively).
    pub churn: Option<ChurnSpec>,
    /// Adversarial network conditions (loss, jitter, partitions). Inert by
    /// default.
    pub faults: FaultSpec,
    /// Bootstrap duration.
    pub bootstrap: SimDuration,
    /// Drain duration after the last injection.
    pub drain: SimDuration,
}

impl Default for BaselineScenario {
    fn default() -> Self {
        BaselineScenario {
            nodes: 128,
            view_size: 4,
            testbed: Testbed::Cluster,
            seed: 0xB215A,
            stream: StreamSpec::default(),
            churn: None,
            faults: FaultSpec::default(),
            bootstrap: SimDuration::from_secs(30),
            drain: SimDuration::from_secs(30),
        }
    }
}

impl BaselineScenario {
    /// A small scenario suitable for tests.
    pub fn small_test(nodes: u32) -> Self {
        BaselineScenario {
            nodes,
            stream: StreamSpec::short(10, 256),
            bootstrap: SimDuration::from_secs(20),
            drain: SimDuration::from_secs(20),
            ..Default::default()
        }
    }
}

impl BrisaScenario {
    /// The HyParView configuration implied by this scenario.
    pub fn hyparview_config(&self) -> HyParViewConfig {
        let mut cfg = HyParViewConfig::with_active_size(self.view_size)
            .expansion_factor(self.expansion_factor);
        cfg.shuffle_period = self.tempo.shuffle_period;
        cfg.keepalive_period = self.tempo.keepalive_period;
        cfg
    }

    /// Injection time of the first stream message. Deterministic — the
    /// engine runs the bootstrap phase to exactly `bootstrap` before
    /// scheduling the stream — so scale-mode nodes can compute per-message
    /// latencies against `stream_start() + seq × stream.interval()` without
    /// carrying publish timestamps on the wire.
    pub fn stream_start(&self) -> SimTime {
        SimTime::ZERO + self.bootstrap + FIRST_PUBLISH_DELAY
    }

    /// The BRISA configuration implied by this scenario. Under
    /// [`ResultMode::Streaming`] the nodes keep compact counter tracking
    /// against this scenario's publish schedule instead of per-sequence
    /// delivery times.
    pub fn brisa_config(&self) -> BrisaConfig {
        BrisaConfig {
            mode: self.mode,
            strategy: self.strategy,
            tracking: match self.results {
                ResultMode::Classic => DeliveryTracking::Full,
                ResultMode::Streaming => DeliveryTracking::Counters {
                    stream_start_us: self.stream_start().as_micros(),
                    interval_us: self.stream.interval().as_micros(),
                },
            },
            repair_tick_period: self.tempo.repair_tick_period,
            ..BrisaConfig::default()
        }
    }

    /// A small scenario suitable for unit/integration tests.
    pub fn small_test(nodes: u32) -> Self {
        BrisaScenario {
            nodes,
            stream: StreamSpec::short(10, 256),
            bootstrap: SimDuration::from_secs(20),
            drain: SimDuration::from_secs(10),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_timing() {
        let s = StreamSpec::default();
        assert_eq!(s.interval(), SimDuration::from_millis(200));
        assert_eq!(s.duration(), SimDuration::from_secs(100));
        let short = StreamSpec::short(10, 64);
        assert_eq!(short.messages, 10);
        assert_eq!(short.payload_bytes, 64);
    }

    #[test]
    fn churn_schedule_has_balanced_events() {
        let spec = ChurnSpec {
            rate_percent: 5.0,
            interval: SimDuration::from_secs(60),
            duration: SimDuration::from_secs(600),
        };
        let sched = spec.schedule(SimTime::from_secs(100), 128);
        let fails = sched.iter().filter(|(_, e)| *e == ChurnEvent::Fail).count();
        let joins = sched.iter().filter(|(_, e)| *e == ChurnEvent::Join).count();
        // 5% of 128 = 6.4 -> 6 per minute, 10 minutes -> 60 each.
        assert_eq!(fails, 60);
        assert_eq!(joins, 60);
        // Sorted by time, all within the phase.
        assert!(sched.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(sched.first().unwrap().0 >= SimTime::from_secs(100));
        assert!(sched.last().unwrap().0 <= SimTime::from_secs(700));
    }

    #[test]
    fn zero_rate_churn_is_empty() {
        let spec = ChurnSpec {
            rate_percent: 0.0,
            ..Default::default()
        };
        assert!(spec.schedule(SimTime::ZERO, 100).is_empty());
    }

    #[test]
    fn scenario_configs_reflect_parameters() {
        let sc = BrisaScenario {
            view_size: 8,
            expansion_factor: 1,
            mode: StructureMode::Dag { parents: 2 },
            strategy: ParentStrategy::DelayAware,
            ..Default::default()
        };
        assert_eq!(sc.hyparview_config().active_size, 8);
        assert_eq!(sc.hyparview_config().max_active(), 8);
        assert_eq!(sc.brisa_config().mode.target_parents(), 2);
        assert_eq!(sc.brisa_config().strategy, ParentStrategy::DelayAware);
        let small = BrisaScenario::small_test(16);
        assert_eq!(small.nodes, 16);
        assert_eq!(small.stream.messages, 10);
    }

    #[test]
    fn testbed_models_build() {
        let _c = Testbed::Cluster.latency_model(1);
        let _p = Testbed::PlanetLab.latency_model(1);
    }

    #[test]
    fn default_fault_spec_is_inert() {
        let spec = FaultSpec::default();
        assert!(spec.is_inert());
        assert!(spec.link_faults().is_inert());
        assert!(!FaultSpec::loss(0.01).is_inert());
        assert!(!FaultSpec {
            partition: Some(PartitionPhase::drop(
                0.25,
                SimDuration::from_secs(5),
                SimDuration::from_secs(10),
            )),
            ..Default::default()
        }
        .is_inert());
    }

    #[test]
    fn partition_phase_island_and_window() {
        let phase =
            PartitionPhase::drop(0.25, SimDuration::from_secs(5), SimDuration::from_secs(10));
        let island = phase.island(48);
        assert_eq!(island.len(), 12);
        assert_eq!(island.first(), Some(&NodeId(1)), "the source is never cut");
        let spec = phase.to_partition(SimTime::from_secs(30), 48);
        assert_eq!(spec.start, SimTime::from_secs(35));
        assert_eq!(spec.end, SimTime::from_secs(45));
        assert_eq!(spec.island(), island.as_slice());
        // Degenerate fractions stay within [1, population - 1].
        assert_eq!(
            PartitionPhase::drop(0.0, SimDuration::ZERO, SimDuration::ZERO)
                .island(10)
                .len(),
            1
        );
        assert_eq!(
            PartitionPhase::drop(5.0, SimDuration::ZERO, SimDuration::ZERO)
                .island(10)
                .len(),
            9
        );
    }
}
