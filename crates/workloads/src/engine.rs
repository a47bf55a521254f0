//! The generic experiment engine.
//!
//! Every experiment of the paper's evaluation — BRISA and all four baselines,
//! with or without churn — is the same pipeline:
//!
//! 1. **bootstrap** — add the source, stagger the remaining joins over the
//!    first half of the bootstrap window, let the overlay stabilise;
//! 2. **schedule** — build the run's timed plan ([`crate::plan::timed_plan`],
//!    the one the live soak runs too): stream injections, the optional
//!    churn script, fault transitions and scripted events, time-ordered;
//! 3. **drive** — replay the plan through the simulator: publish at the
//!    source, crash random or named victims, add fresh joiners;
//! 4. **collect** — drain in-flight traffic, then extract per-node metrics,
//!    phase bandwidth and point-to-point reference latencies.
//!
//! [`Runner`] implements that pipeline once, generically over any
//! [`DisseminationProtocol`] and over both instances of the simulation
//! driver — the sequential [`Network`] and the epoch-sharded
//! [`ShardedNetwork`], which produce bit-identical results. The
//! per-protocol knowledge (how to build a node,
//! how to publish, which metrics the node exposes) lives in the trait
//! implementations in [`crate::protocols`]. [`EngineResult`] is the one
//! result type of every run, BRISA or baseline; what a figure derives from
//! it (structure snapshot, churn report, mean upload) is a method on it.
//!
//! ```
//! use brisa_workloads::{Runner, IntoRunSpec, BrisaScenario, BrisaStackConfig};
//! use brisa::BrisaNode;
//!
//! let sc = BrisaScenario::small_test(16);
//! let cfg = BrisaStackConfig { hpv: sc.hyparview_config(), brisa: sc.brisa_config() };
//! let result = Runner::<BrisaNode>::new(&cfg, &sc.run_spec()).run();
//! assert!(result.delivery_rate() > 0.99);
//! ```

use crate::invariants::{InvariantCtx, InvariantSuite};
use crate::outcome::{latencies_ms, NodeClass, Population, RunView, Tally};
use crate::plan::{add_marks, timed_plan, Step};
use crate::result::{split_bandwidth, ChurnReport, PhaseBandwidth};
use crate::spec::{
    BaselineScenario, BrisaScenario, ChurnEvent, ChurnSpec, FaultSpec, ResultMode, ScaleEvent,
    ScaleEventKind, StreamSpec, Testbed, FIRST_PUBLISH_DELAY,
};
use brisa_metrics::StructureSnapshot;
use brisa_simnet::{
    Context, Driver, Footprint, LatencyHistogram, Network, NetworkConfig, NodeId, Placement,
    Protocol, ShardedNetwork, SimDuration, SimTime, MICROS_PER_SEC,
};
use brisa_telemetry::Telemetry;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Everything a protocol may want to know when one node is created.
#[derive(Debug, Clone, Copy)]
pub struct BuildCtx {
    /// Join index of the node: 0 for the source, `1..population` for the
    /// bootstrap joiners, `population..` for churn joiners.
    pub index: u32,
    /// Nominal initial system size.
    pub population: u32,
    /// The system-wide contact point (the source), `None` for the first
    /// node. HyParView-based stacks join through it.
    pub contact: Option<NodeId>,
    /// The most recently added node, `None` for the first. List-ordered
    /// protocols (TAG) chain through it.
    pub prev: Option<NodeId>,
    /// True for the stream source (node 0).
    pub is_source: bool,
}

/// Repair/churn telemetry one node exposes (all zero/empty for protocols
/// without repair machinery).
#[derive(Debug, Clone, Default)]
pub struct RepairTelemetry {
    /// Completed soft repairs.
    pub soft_repairs: u64,
    /// Completed hard repairs.
    pub hard_repairs: u64,
    /// Orphaning-to-adoption delays (µs) for soft repairs.
    pub soft_delays_us: Vec<u64>,
    /// Orphaning-to-adoption delays (µs) for hard repairs.
    pub hard_delays_us: Vec<u64>,
    /// Times at which the node lost a parent.
    pub parents_lost: Vec<SimTime>,
    /// Times at which the node lost *all* parents.
    pub orphaned: Vec<SimTime>,
    /// Retransmission requests issued by the steady-state gap detector.
    pub gap_requests: u64,
    /// Retransmissions this node served to recovering peers.
    pub retransmissions_served: u64,
}

/// Protocol-agnostic snapshot of one node at the end of a run.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Stream messages delivered (first receptions).
    pub delivered: u64,
    /// Average duplicate receptions per delivered message.
    pub duplicates_per_message: f64,
    /// `(sequence number, first reception time)` pairs; empty under
    /// `ResultMode::Streaming`, whose ledgers keep no per-sequence times.
    pub first_delivery: Vec<(u64, SimTime)>,
    /// Highest sequence number delivered, if any (both result modes).
    pub highest_delivered: Option<u64>,
    /// Time of the last first reception, if any (both result modes).
    pub last_delivery: Option<SimTime>,
    /// Parents in the emerged structure (empty for structureless protocols).
    pub parents: Vec<NodeId>,
    /// Depth in the emerged structure, if the protocol tracks one.
    pub depth: Option<usize>,
    /// Out-degree (children served).
    pub degree: usize,
    /// Structure construction time, if the protocol tracks one.
    pub construction_time: Option<SimDuration>,
    /// Repair/churn telemetry.
    pub repairs: RepairTelemetry,
}

/// Compact per-node metrics for the scale-mode streaming result path:
/// counters plus a fixed-footprint latency histogram, no per-sequence data.
#[derive(Debug, Clone, Default)]
pub struct ScaleNodeReport {
    /// Stream messages delivered (first receptions).
    pub delivered: u64,
    /// Duplicate receptions.
    pub duplicates: u64,
    /// Injection-to-first-delivery latency distribution.
    pub latency: LatencyHistogram,
}

/// A dissemination protocol stack the generic engine can drive.
///
/// Implemented by [`brisa::BrisaNode`] and all four baselines; adding a new
/// protocol to every experiment of the harness means implementing these four
/// methods.
pub trait DisseminationProtocol: Protocol {
    /// Run-wide configuration shared by every node (cloned into builders).
    type Config: Clone + Send + Sync;

    /// Display label used in result tables.
    fn protocol_name() -> &'static str;

    /// Builds the protocol state for a new node.
    fn build(cfg: &Self::Config, id: NodeId, bctx: &BuildCtx) -> Self;

    /// Publishes the next stream message (called on the source through
    /// [`brisa_simnet::Network::invoke`]).
    fn publish_message(&mut self, ctx: &mut Context<'_, Self::Message>, payload_bytes: usize);

    /// Extracts the end-of-run metrics for this node.
    fn report(&self) -> NodeReport;

    /// Extracts the compact scale-mode metrics for this node.
    ///
    /// The default derives them from [`DisseminationProtocol::report`] and
    /// the engine's publish times — exact, but it materialises the
    /// per-sequence vector it is trying to avoid. Protocols with compact
    /// delivery tracking (BRISA under
    /// [`brisa_simnet::DeliveryTracking::Counters`]) override this to return their
    /// streamed counters directly.
    fn scale_report(&self, publish_times: &[SimTime]) -> ScaleNodeReport {
        let report = self.report();
        let mut latency = LatencyHistogram::new();
        for &(seq, t) in &report.first_delivery {
            if let Some(&published) = publish_times.get(seq as usize) {
                latency.record_us(t.saturating_since(published).as_micros());
            }
        }
        ScaleNodeReport {
            delivered: report.delivered,
            duplicates: (report.duplicates_per_message * report.delivered as f64).round() as u64,
            latency,
        }
    }
}

/// Protocol-agnostic parameters of one run. Scenario types convert into
/// this through [`IntoRunSpec`]; the engine never looks at
/// protocol-specific knobs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Number of nodes bootstrapped before the stream starts.
    pub nodes: u32,
    /// Deterministic seed (simulator + harness RNG).
    pub seed: u64,
    /// Testbed latency model.
    pub testbed: Testbed,
    /// Stream shape.
    pub stream: StreamSpec,
    /// Optional churn phase running concurrently with the stream.
    pub churn: Option<ChurnSpec>,
    /// Adversarial network conditions, merged into the schedule as fault
    /// steps (loss/jitter switch on at stream start, partitions cut and
    /// heal on their own window). Inert by default.
    pub faults: FaultSpec,
    /// Join-phase/stabilisation window before the stream starts.
    pub bootstrap: SimDuration,
    /// Simulated time after the last injection for traffic to drain.
    pub drain: SimDuration,
    /// Scheduled lifecycle events (flash crowds, mass crashes, named kills
    /// and restarts), relative to stream start.
    pub events: Vec<ScaleEvent>,
    /// Classic per-node results, or the scale-mode streaming summary.
    pub results: ResultMode,
    /// Worker shards the simulation is partitioned across (1 = the
    /// sequential driver). Sharded runs are bit-identical to sequential
    /// ones; see [`brisa_simnet::ShardedNetwork`].
    pub shards: usize,
}

impl RunSpec {
    /// Injection time of the first stream message (the bootstrap phase runs
    /// to exactly `bootstrap` before the stream is scheduled).
    pub fn stream_start(&self) -> SimTime {
        SimTime::ZERO + self.bootstrap + FIRST_PUBLISH_DELAY
    }
}

/// Conversion from a scenario family into the engine's protocol-agnostic
/// [`RunSpec`].
///
/// One trait instead of per-family `From` impls: a new scenario family
/// (chaos, scale) implements [`IntoRunSpec::run_spec`] once and every entry
/// point — [`Runner`], the sweep drivers, the benches — accepts it, without
/// another field-by-field copy of the shared parameters.
pub trait IntoRunSpec {
    /// Builds the protocol-agnostic run parameters for this scenario.
    fn run_spec(&self) -> RunSpec;
}

impl IntoRunSpec for BrisaScenario {
    fn run_spec(&self) -> RunSpec {
        RunSpec {
            nodes: self.nodes,
            seed: self.seed,
            testbed: self.testbed,
            stream: self.stream,
            churn: self.churn,
            faults: self.faults.clone(),
            bootstrap: self.bootstrap,
            drain: self.drain,
            events: self.events.clone(),
            results: self.results,
            shards: 1,
        }
    }
}

impl IntoRunSpec for BaselineScenario {
    fn run_spec(&self) -> RunSpec {
        RunSpec {
            nodes: self.nodes,
            seed: self.seed,
            testbed: self.testbed,
            stream: self.stream,
            churn: self.churn,
            faults: self.faults.clone(),
            bootstrap: self.bootstrap,
            drain: self.drain,
            events: Vec::new(),
            results: ResultMode::Classic,
            shards: 1,
        }
    }
}

impl IntoRunSpec for RunSpec {
    /// Identity conversion, so generic helpers accept a prepared spec.
    fn run_spec(&self) -> RunSpec {
        self.clone()
    }
}

/// One node's fully derived metrics in an [`EngineResult`].
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// The node.
    pub id: NodeId,
    /// True for the stream source.
    pub is_source: bool,
    /// The protocol's own report.
    pub report: NodeReport,
    /// Mean injection-to-first-delivery delay in milliseconds (`None` for
    /// the source and for nodes that delivered nothing).
    pub routing_delay_ms: Option<f64>,
    /// Time between the first and last delivery, in seconds.
    pub dissemination_latency_secs: Option<f64>,
    /// One-way "typical" latency from the source, in milliseconds.
    pub point_to_point_ms: f64,
    /// Bandwidth split by phase.
    pub bandwidth: PhaseBandwidth,
}

/// The scale-mode run summary: everything the streaming result path
/// retains instead of per-node outcomes. All counters are exact; only the
/// latency distribution is bucketed (within a factor of two).
#[derive(Debug, Clone, Default)]
pub struct StreamingSummary {
    /// Live, non-source nodes present before the stream started.
    pub eligible: u64,
    /// Eligible nodes that delivered every message.
    pub complete: u64,
    /// Sum over eligible nodes of `min(delivered, published)`.
    pub got: u64,
    /// `eligible × published`.
    pub expected: u64,
    /// First receptions summed over *all* live nodes (source included).
    pub delivered_total: u64,
    /// Duplicate receptions summed over all live nodes.
    pub duplicates_total: u64,
    /// Injection-to-first-delivery latencies, merged over all live nodes.
    pub latency: LatencyHistogram,
    /// Bytes every node uploaded, from the bandwidth meter's end reading.
    pub uploaded_bytes: u64,
    /// Bytes every node downloaded.
    pub downloaded_bytes: u64,
    /// Accounting-based memory footprint sampled at collect time (the
    /// bytes-per-node proxy of the scale benches).
    pub footprint: Footprint,
}

impl StreamingSummary {
    /// The eligible nodes' delivery tally.
    pub fn tally(&self) -> Tally {
        Tally {
            eligible: self.eligible,
            complete: self.complete,
            got: self.got,
            expected: self.expected,
        }
    }
}

/// The protocol-agnostic outcome of one run.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// Protocol label.
    pub protocol: &'static str,
    /// The stream source.
    pub source: NodeId,
    /// Nodes bootstrapped before the stream started (churn joiners have
    /// identifiers `>= original_nodes`).
    pub original_nodes: u32,
    /// Messages the source injected.
    pub messages_published: u64,
    /// Injection time of every message, indexed by sequence number.
    pub publish_times: Vec<SimTime>,
    /// Per-node outcomes for nodes alive at the end.
    pub nodes: Vec<NodeOutcome>,
    /// Nodes failed by the churn schedule.
    pub failures_injected: usize,
    /// Nodes joined by the churn schedule.
    pub joins_injected: usize,
    /// `[start, end]` of the churn measurement window (stream start to the
    /// end of the drain); repair telemetry is filtered to it.
    pub churn_window: (SimTime, SimTime),
    /// The simulator's own counters (sent/delivered/dropped, fault losses,
    /// partition cuts, events processed).
    pub net_stats: brisa_simnet::NetStats,
    /// The scale-mode summary, present iff the run used
    /// [`ResultMode::Streaming`] (in which case [`EngineResult::nodes`] is
    /// empty).
    pub streaming: Option<StreamingSummary>,
}

impl EngineResult {
    /// Fraction of (eligible node × message) pairs delivered: the
    /// per-message delivery rate over live, non-source nodes present before
    /// the stream started. Coarser than [`EngineResult::completeness`] (a
    /// node missing one message out of 500 barely moves this number but
    /// zeroes its completeness contribution); the headline metric of the
    /// fault sweeps.
    pub fn delivery_rate(&self) -> f64 {
        self.tally().delivery_rate()
    }

    /// The eligible nodes' delivery tally, in either result mode.
    fn tally(&self) -> Tally {
        match &self.streaming {
            Some(s) => s.tally(),
            None => self.view().tally(Population::Eligible),
        }
    }

    /// The run as the population rule and its projections read it. A
    /// simulated node never comes back under its own identifier, so no
    /// node is reborn.
    pub fn view(&self) -> RunView<'_> {
        RunView {
            source: self.source,
            original_nodes: self.original_nodes,
            ever_killed: &[],
            publish_times: &self.publish_times,
            nodes: self.nodes.iter().map(|n| (n.id, &n.report)).collect(),
        }
    }

    /// A compact, fully ordered fingerprint of everything
    /// behaviour-relevant in the result: simulator counters, publish
    /// schedule, and per-node delivery records, parents and bandwidth. Two
    /// runs are observationally identical iff their fingerprints match —
    /// the canonical equality used by the shard-equivalence, pinned-hash
    /// and determinism tests (a divergence in any
    /// unfingerprinted field would pass silently, so new behaviour-relevant
    /// fields belong here).
    ///
    /// The text is written twice: once into a byte counter, then into a
    /// string allocated at exactly that length, so a fingerprint of many
    /// megabytes is one allocation rather than a chain of doublings.
    pub fn fingerprint(&self) -> String {
        let mut len = ByteCount(0);
        self.write_fingerprint(&mut len)
            .expect("counting bytes cannot fail");
        let mut out = String::with_capacity(len.0);
        self.write_fingerprint(&mut out)
            .expect("writing to a String cannot fail");
        debug_assert_eq!(out.len(), len.0);
        out
    }

    fn write_fingerprint(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        write!(
            out,
            "{}|src={}|ev={}|sent={}|dropped={}|lost={}|cut={}|fails={}|joins={}|",
            self.protocol,
            self.source.0,
            self.net_stats.events_processed,
            self.net_stats.messages_sent,
            self.net_stats.messages_dropped,
            self.net_stats.messages_lost_to_faults,
            self.net_stats.messages_cut_by_partition,
            self.failures_injected,
            self.joins_injected,
        )?;
        for t in &self.publish_times {
            write!(out, "p{};", t.as_micros())?;
        }
        for n in &self.nodes {
            // Lists are written as `{:?}` of a vector would print them.
            let report = &n.report;
            write!(
                out,
                "n{}:d{}:dup{:.9}:par[",
                n.id.0, report.delivered, report.duplicates_per_message,
            )?;
            for (i, p) in report.parents.iter().enumerate() {
                write!(out, "{}{}", if i == 0 { "" } else { ", " }, p.0)?;
            }
            out.write_str("]:fd[")?;
            for (i, (s, t)) in report.first_delivery.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                write!(out, "{sep}({s}, {})", t.as_micros())?;
            }
            write!(
                out,
                "]:bw{}-{};",
                n.bandwidth.stab_up_bytes + n.bandwidth.diss_up_bytes,
                n.bandwidth.stab_down_bytes + n.bandwidth.diss_down_bytes,
            )?;
        }
        if let Some(s) = &self.streaming {
            write!(
                out,
                "stream:el{}:cp{}:got{}:exp{}:del{}:dup{}:lat",
                s.eligible, s.complete, s.got, s.expected, s.delivered_total, s.duplicates_total,
            )?;
            for (i, &b) in s.latency.buckets().iter().enumerate() {
                if b != 0 {
                    write!(out, "{i}x{b},")?;
                }
            }
            out.write_char(';')?;
        }
        Ok(())
    }

    /// Fraction of live, non-source nodes present before the stream started
    /// that delivered every message.
    pub fn completeness(&self) -> f64 {
        self.tally().completeness()
    }

    /// The live nodes other than the source: the population every per-node
    /// distribution of the evaluation is taken over.
    pub fn non_source(&self) -> impl Iterator<Item = &NodeOutcome> + '_ {
        self.nodes.iter().filter(|n| !n.is_source)
    }

    /// The emerged structure: every live node's parents at the end of the
    /// run (Figures 6–8).
    pub fn structure(&self) -> StructureSnapshot {
        let mut structure = StructureSnapshot::new(self.source.0);
        for o in &self.nodes {
            structure.set_parents(o.id.0, o.report.parents.iter().map(|p| p.0).collect());
        }
        structure
    }

    /// Repair telemetry aggregated over every live node (Table I,
    /// Figure 14): loss events are counted inside
    /// [`EngineResult::churn_window`] and rated per minute of `churn`'s
    /// duration.
    pub fn churn_report(&self, churn: &ChurnSpec) -> ChurnReport {
        let minutes = churn.duration.as_secs_f64() / 60.0;
        let (start, end) = self.churn_window;
        let in_window =
            |times: &[SimTime]| times.iter().filter(|&&t| t >= start && t <= end).count();
        let mut report = ChurnReport {
            duration_minutes: minutes,
            failures_injected: self.failures_injected,
            joins_injected: self.joins_injected,
            ..Default::default()
        };
        let (mut parents_lost, mut orphaned) = (0usize, 0usize);
        let as_ms = |us: &u64| *us as f64 / 1000.0;
        for o in &self.nodes {
            let repairs = &o.report.repairs;
            parents_lost += in_window(&repairs.parents_lost);
            orphaned += in_window(&repairs.orphaned);
            report.soft_repairs += repairs.soft_repairs;
            report.hard_repairs += repairs.hard_repairs;
            let (soft, hard) = (&repairs.soft_delays_us, &repairs.hard_delays_us);
            report.soft_delays_ms.extend(soft.iter().map(as_ms));
            report.hard_delays_ms.extend(hard.iter().map(as_ms));
        }
        report.parents_lost_per_min = parents_lost as f64 / minutes.max(1e-9);
        report.orphans_per_min = orphaned as f64 / minutes.max(1e-9);
        report.finalise();
        report
    }

    /// Mean MB uploaded per live node over both phases (stabilisation +
    /// dissemination), the quantity of Figure 12.
    pub fn mean_uploaded_mb(&self) -> f64 {
        let uploaded = self.nodes.iter().map(|n| n.bandwidth.total_uploaded_mb());
        uploaded.sum::<f64>() / self.nodes.len().max(1) as f64
    }
}

/// A `fmt::Write` that keeps only the number of bytes written: the sizing
/// pass of [`EngineResult::fingerprint`].
struct ByteCount(usize);

impl std::fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Builder-style entry point for one experiment run: the single bootstrap →
/// schedule → drive → collect pipeline behind every figure and table.
///
/// ```
/// use brisa_workloads::{Runner, IntoRunSpec, InvariantSuite, BrisaScenario, BrisaStackConfig};
/// use brisa::BrisaNode;
///
/// let sc = BrisaScenario::small_test(16);
/// let cfg = BrisaStackConfig { hpv: sc.hyparview_config(), brisa: sc.brisa_config() };
/// let mut spec = sc.run_spec();
/// spec.shards = 2;
/// let mut suite = InvariantSuite::standard(Some(1));
/// let result = Runner::<BrisaNode>::new(&cfg, &spec)
///     .invariants(&mut suite)
///     .run();
/// suite.assert_clean();
/// assert!(result.completeness() > 0.99);
/// ```
pub struct Runner<'a, P: DisseminationProtocol> {
    cfg: &'a P::Config,
    spec: &'a RunSpec,
    invariants: Option<&'a mut InvariantSuite>,
    telemetry: Telemetry,
}

impl<'a, P: DisseminationProtocol> Runner<'a, P> {
    /// Starts a run description from a protocol configuration and a spec.
    pub fn new(cfg: &'a P::Config, spec: &'a RunSpec) -> Self {
        Runner {
            cfg,
            spec,
            invariants: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Evaluates `suite` online during the drive phase: after every
    /// schedule step and once after the drain. An empty suite costs
    /// nothing; violations are recorded in the suite for the caller to
    /// inspect (or [`InvariantSuite::assert_clean`]), never panicked.
    pub fn invariants(mut self, suite: &'a mut InvariantSuite) -> Self {
        self.invariants = Some(suite);
        self
    }

    /// Threads a telemetry handle into the simulator and every node's
    /// [`Context`]. Telemetry is strictly out-of-band: the run's
    /// [`EngineResult::fingerprint`] is identical whether the handle is
    /// enabled, disabled, or absent (pinned by the `integration_telemetry`
    /// fingerprint tests).
    pub fn telemetry(mut self, handle: &Telemetry) -> Self {
        self.telemetry = handle.clone();
        self
    }

    /// Runs the experiment to completion.
    pub fn run(self) -> EngineResult
    where
        P: Send,
        P::Message: Send,
    {
        let spec = self.spec;
        let net_config = NetworkConfig {
            seed: spec.seed,
            telemetry: self.telemetry.clone(),
            ..Default::default()
        };
        let latency = spec.testbed.latency_model(spec.seed);
        if spec.shards > 1 {
            self.run_on(ShardedNetwork::new(net_config, latency.into(), spec.shards))
        } else {
            self.run_on(Network::new(net_config, latency))
        }
    }

    /// The pipeline, over either instance of the simulation driver.
    fn run_on<Pl: Placement>(self, mut sim: Driver<P, Pl>) -> EngineResult
    where
        P: Send,
        P::Message: Send,
    {
        let Runner {
            cfg,
            spec,
            mut invariants,
            ..
        } = self;

        // The timed plan is a function of the spec alone, and it fixes the
        // run's population: the initial nodes plus every joiner it
        // schedules. Every core reserves its node vector for all of them at
        // once, so that vector never reallocates: whether glibc can extend
        // a doubling in place hangs on whatever was allocated before it, and
        // decides whether the peak holds a second copy of the vector.
        let stream_start = spec.stream_start();
        let mut schedule: Vec<(SimTime, Step)> = timed_plan(
            stream_start,
            &spec.stream,
            spec.churn,
            &spec.faults,
            &spec.events,
            spec.nodes,
        );
        sim.reserve_nodes(spec.nodes as usize + planned_joiners(&schedule));

        // --- Phase 1: bootstrap. Node 0 is the source and contact point;
        // the rest join spread over the first half of the bootstrap window.
        let first_ctx = BuildCtx {
            index: 0,
            population: spec.nodes,
            contact: None,
            prev: None,
            is_source: true,
        };
        let source = sim.add_node(|id| P::build(cfg, id, &first_ctx));
        let join_window = spec.bootstrap / 2;
        let mut prev = source;
        for i in 1..spec.nodes {
            let at = SimTime::ZERO + join_window * i as u64 / spec.nodes.max(1) as u64;
            let bctx = BuildCtx {
                index: i,
                population: spec.nodes,
                contact: Some(source),
                prev: Some(prev),
                is_source: false,
            };
            prev = sim.add_node_at(at, |id| P::build(cfg, id, &bctx));
        }
        sim.run_until(SimTime::ZERO + spec.bootstrap);
        // Stabilisation is every byte metered before the first whole second
        // after bootstrap.
        let boundary_sec = sim.now().second_bucket() + 1;

        // --- Phase 2: the timed plan's end, plus (Classic results) the
        // bandwidth reading at the phase boundary. `run_until` always
        // advances the clock to its deadline, so the cached spec value
        // equals `now + FIRST_PUBLISH_DELAY` here.
        debug_assert_eq!(stream_start, sim.now() + FIRST_PUBLISH_DELAY);
        let end = schedule.last().map_or(sim.now(), |&(t, _)| t) + spec.drain;
        // Classic results split each node's bandwidth at the boundary, so
        // the meter is read 1 µs before it, after every step of that
        // instant. The drain stays anchored to the last step above; a
        // reading at or past its end would be the end reading itself.
        let boundary = SimTime::from_micros(boundary_sec as u64 * MICROS_PER_SEC - 1);
        if spec.results == ResultMode::Classic && boundary < end {
            add_marks(&mut schedule, [(boundary, ())]);
        }

        // --- Phase 3: drive the schedule.
        let mut publish_times: Vec<SimTime> = Vec::new();
        let mut at_boundary = None;
        let mut lifecycle = Lifecycle {
            rng: SmallRng::seed_from_u64(spec.seed ^ 0x5EED),
            alive: Vec::new(),
            source,
            prev,
            next_index: spec.nodes,
            joins: 0,
            failures: 0,
        };
        for (at, step) in schedule {
            sim.run_until(at);
            match step {
                Step::Mark(()) => {
                    // The phase-boundary reading, not a step of the
                    // experiment: no invariant pass.
                    at_boundary = Some(sim.bandwidth());
                    continue;
                }
                Step::LinkFaults(link) => sim.set_link_faults(link),
                Step::Partition(partition) => sim.add_partition(partition),
                Step::Publish => {
                    publish_times.push(sim.now());
                    sim.invoke(source, |node, ctx| {
                        node.publish_message(ctx, spec.stream.payload_bytes);
                    });
                }
                // The simulator cannot re-animate a crashed identifier yet,
                // so a restart is one fresh join (see `crate::chaos`).
                Step::Churn(ChurnEvent::Join) | Step::Event(ScaleEventKind::Restart { .. }) => {
                    lifecycle.join(&mut sim, cfg, spec.nodes, 1)
                }
                Step::Event(ScaleEventKind::FlashCrowd { joiners }) => {
                    lifecycle.join(&mut sim, cfg, spec.nodes, joiners)
                }
                Step::Churn(ChurnEvent::Fail) => lifecycle.crash_random(&mut sim, |_| 1),
                Step::Event(ScaleEventKind::MassCrash { fraction }) => lifecycle
                    .crash_random(&mut sim, |alive| {
                        ((alive as f64) * fraction.clamp(0.0, 1.0)).round() as usize
                    }),
                Step::Event(ScaleEventKind::Kill { node }) => {
                    let victim = NodeId(node);
                    if victim != source && sim.is_alive(victim) {
                        sim.crash(victim);
                        lifecycle.failures += 1;
                    }
                }
            }
            if let Some(suite) = invariants.as_deref_mut() {
                check_invariants(suite, &sim, publish_times.len() as u64, source);
            }
        }
        sim.run_until(end);
        if let Some(suite) = invariants {
            check_invariants(suite, &sim, publish_times.len() as u64, source);
        }
        let churn_window = (stream_start, end);
        let total_messages = publish_times.len() as u64;

        // --- Phase 4: collect. Classic mode materialises one
        // `NodeOutcome` per node (first-delivery vectors, phase bandwidth,
        // point-to-point references); streaming mode folds every node into
        // one summary and never allocates per-node result state.
        let net_stats = sim.stats();
        let (outcomes, streaming) = match spec.results {
            ResultMode::Classic => {
                let at_end = sim.bandwidth();
                // No reading: the run ended before the boundary, so
                // stabilisation is all of it.
                let at_boundary = at_boundary.as_ref().unwrap_or(&at_end);
                let end_sec = end.second_bucket() + 1;
                // Everything read from the running simulation comes first.
                // The references draw from its reference RNG in ascending
                // id order, which Figure 9's point-to-point series pins.
                let point_to_point: Vec<f64> = sim
                    .alive_ids()
                    .into_iter()
                    .map(|id| sim.typical_latency(source, id).as_millis_f64())
                    .collect();
                // Then the simulation is consumed: each node is dropped as
                // soon as its report is built, so the delivery record is
                // held once — in the ledgers not yet reported, and in the
                // reports — and freed ledgers are reused for the next ones.
                let mut outcomes = Vec::with_capacity(point_to_point.len());
                for ((id, node), point_to_point_ms) in sim.into_live_nodes().zip(point_to_point) {
                    let report = node.report();
                    drop(node);
                    let is_source = id == source;
                    let (mut delay_sum_ms, mut delays) = (0.0, 0u64);
                    for ms in latencies_ms(&report, &publish_times) {
                        delay_sum_ms += ms;
                        delays += 1;
                    }
                    let routing_delay_ms =
                        (delays > 0 && !is_source).then(|| delay_sum_ms / delays as f64);
                    let span = report.first_delivery.iter().map(|(_, t)| *t);
                    let dissemination_latency_secs = match (span.clone().min(), span.max()) {
                        (Some(a), Some(b)) => Some(b.saturating_since(a).as_secs_f64()),
                        _ => None,
                    };
                    outcomes.push(NodeOutcome {
                        id,
                        is_source,
                        report,
                        routing_delay_ms,
                        dissemination_latency_secs,
                        point_to_point_ms,
                        bandwidth: split_bandwidth(id, at_boundary, &at_end, boundary_sec, end_sec),
                    });
                }
                (outcomes, None)
            }
            ResultMode::Streaming => {
                let mut summary = StreamingSummary::default();
                let mut tally = Tally::default();
                for id in sim.alive_iter() {
                    let sr = sim
                        .node(id)
                        .expect("alive node exists")
                        .scale_report(&publish_times);
                    summary.delivered_total += sr.delivered;
                    summary.duplicates_total += sr.duplicates;
                    summary.latency.merge(&sr.latency);
                    if Population::Eligible.contains(NodeClass::of(id, source, spec.nodes, &[])) {
                        tally.add(sr.delivered, total_messages);
                    }
                }
                let meter = sim.bandwidth();
                summary.uploaded_bytes = meter.total_uploaded();
                summary.downloaded_bytes = meter.total_downloaded();
                summary.footprint = sim.footprint();
                (summary.eligible, summary.complete) = (tally.eligible, tally.complete);
                (summary.got, summary.expected) = (tally.got, tally.expected);
                (Vec::new(), Some(summary))
            }
        };

        EngineResult {
            protocol: P::protocol_name(),
            source,
            original_nodes: spec.nodes,
            messages_published: total_messages,
            publish_times,
            nodes: outcomes,
            failures_injected: lifecycle.failures,
            joins_injected: lifecycle.joins,
            churn_window,
            net_stats,
            streaming,
        }
    }
}

/// Nodes the steps of `schedule` add: one per churn join and per restart,
/// a flash crowd's joiners (see [`Lifecycle::join`]).
fn planned_joiners(schedule: &[(SimTime, Step)]) -> usize {
    let joiners = |step: &Step| match step {
        Step::Churn(ChurnEvent::Join) | Step::Event(ScaleEventKind::Restart { .. }) => 1,
        Step::Event(ScaleEventKind::FlashCrowd { joiners }) => *joiners as usize,
        _ => 0,
    };
    schedule.iter().map(|(_, step)| joiners(step)).sum()
}

/// The harness's side of the drive phase: who joins, through whom, and
/// who crashes. Every draw comes from one harness RNG, in schedule order.
struct Lifecycle {
    rng: SmallRng,
    /// Live-population buffer, reused across events.
    alive: Vec<NodeId>,
    source: NodeId,
    /// The most recently added node (TAG chains joiners through it).
    prev: NodeId,
    /// Join index of the next joiner.
    next_index: u32,
    joins: usize,
    failures: usize,
}

impl Lifecycle {
    /// Adds `joiners` fresh nodes at once. Each joins through a *random
    /// live contact*, not the source: a member's HyParView `Join` displaces
    /// one of the contact's active-view entries, so funnelling a join
    /// burst through one node evicts its entire view — the burst's
    /// ForwardJoin walks then circulate among the just-joined nodes and
    /// the contact ends up severed from the established overlay (with the
    /// source as contact, that wedges the whole stream). Spreading
    /// contacts is also what a real deployment's join service does. Every
    /// contact is drawn from one snapshot of the pre-burst population:
    /// re-listing ~100k alive nodes per joiner would make a 10k flash crowd
    /// O(alive × joiners), and a crowd arriving at one instant is the
    /// honest model.
    fn join<P: DisseminationProtocol, Pl: Placement>(
        &mut self,
        sim: &mut Driver<P, Pl>,
        cfg: &P::Config,
        population: u32,
        joiners: u32,
    ) {
        self.alive.clear();
        self.alive.extend(sim.alive_iter());
        for _ in 0..joiners {
            let contact = self.alive.choose(&mut self.rng).copied();
            let bctx = BuildCtx {
                index: self.next_index,
                population,
                contact: Some(contact.unwrap_or(self.source)),
                prev: Some(self.prev),
                is_source: false,
            };
            self.prev = sim.add_node(|id| P::build(cfg, id, &bctx));
            self.next_index += 1;
            self.joins += 1;
        }
    }

    /// Crashes `victims(alive)` uniformly drawn live non-source nodes. The
    /// shuffle over the whole candidate list — rather than single index
    /// draws — keeps the harness RNG stream, and so every seeded result,
    /// stable.
    fn crash_random<P: DisseminationProtocol, Pl: Placement>(
        &mut self,
        sim: &mut Driver<P, Pl>,
        victims: impl FnOnce(usize) -> usize,
    ) {
        let source = self.source;
        self.alive.clear();
        self.alive
            .extend(sim.alive_iter().filter(|&id| id != source));
        self.alive.shuffle(&mut self.rng);
        for &victim in self.alive.iter().take(victims(self.alive.len())) {
            sim.crash(victim);
            self.failures += 1;
        }
    }
}

/// One invariant pass: build every live node's report once (extracting a
/// report clones the node's delivery record, so each invariant rebuilding
/// its own would multiply that cost) and hand the suite the driver's
/// read-only view.
fn check_invariants<P: DisseminationProtocol, Pl: Placement>(
    suite: &mut InvariantSuite,
    sim: &Driver<P, Pl>,
    published: u64,
    source: NodeId,
) {
    if suite.is_empty() {
        return;
    }
    let reports: Vec<(NodeId, NodeReport)> = sim
        .alive_iter()
        .filter_map(|id| sim.node(id).map(|n| (id, n.report())))
        .collect();
    let ctx = InvariantCtx {
        now: sim.now(),
        published,
        source,
    };
    suite.run_checks(sim, &reports, &ctx);
}
