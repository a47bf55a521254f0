//! The collected outcome of a live cluster run.
//!
//! [`LiveResult`] mirrors the sim engine's `EngineResult` where the two
//! execution modes overlap: per-node [`NodeReport`]s and the publish
//! schedule, read through the same [`RunView`] (one population rule, one
//! tally, so the acceptance bars of the fault sweeps translate verbatim).
//! Wall-clock runs are not bit-reproducible, so instead of the engine's
//! full fingerprint it exposes [`LiveResult::delivery_fingerprint`] — the
//! timing-free projection (who delivered which sequence numbers) that a
//! simulated run of the same scenario must agree with.

use brisa_simnet::{NodeId, SimTime};
use brisa_workloads::invariants::check_delivery_report;
use brisa_workloads::{NodeReport, Population, RunView};
use std::fmt::Write as _;
use std::time::Duration;

/// Byte/frame counters one node accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeStats {
    /// Frames decoded and dispatched to `on_message`.
    pub frames_in: u64,
    /// Bytes of those frames (length prefix included).
    pub bytes_in: u64,
    /// Frames encoded for sending, counted before the fault layer's verdict.
    pub frames_out: u64,
    /// Bytes of those frames.
    pub bytes_out: u64,
    /// Frames that failed to decode (dropped; a live system would count
    /// and alert on these).
    pub decode_errors: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Idle unmonitored outbound links closed by the reap sweep.
    pub links_reaped: u64,
    /// Scheduled backoff re-dials that actually fired for this node's
    /// outbound links.
    pub redials: u64,
}

/// One live node's end-of-run state.
#[derive(Debug, Clone)]
pub struct LiveNode {
    /// The node.
    pub id: NodeId,
    /// The protocol's own report (same type the sim engine collects).
    pub report: NodeReport,
    /// The reactor's transfer counters.
    pub stats: RuntimeStats,
}

/// The outcome of one live cluster run.
#[derive(Debug, Clone)]
pub struct LiveResult {
    /// Protocol label.
    pub protocol: &'static str,
    /// The stream source.
    pub source: NodeId,
    /// Nodes the cluster was launched with.
    pub original_nodes: u32,
    /// Messages the source injected.
    pub messages_published: u64,
    /// Injection time of every message (wall clock since cluster launch),
    /// indexed by sequence number.
    pub publish_times: Vec<SimTime>,
    /// Per-node outcomes for nodes alive at collection, in node order.
    pub nodes: Vec<LiveNode>,
    /// Wall time from launch to collection.
    pub wall_elapsed: Duration,
    /// Nodes killed at least once during the run (sorted). A restarted
    /// node is alive at collection but lost its state mid-stream: the
    /// population rule classes it `Reborn`, not `Survivor`.
    pub ever_killed: Vec<u32>,
}

impl LiveResult {
    /// The run as the population rule and its projections read it: the
    /// reborn nodes are `ever_killed`.
    pub fn view(&self) -> RunView<'_> {
        RunView {
            source: self.source,
            original_nodes: self.original_nodes,
            ever_killed: &self.ever_killed,
            publish_times: &self.publish_times,
            nodes: self.nodes.iter().map(|n| (n.id, &n.report)).collect(),
        }
    }

    /// Fraction of (eligible node × message) pairs delivered — the sim
    /// engine's tally over live reports.
    pub fn delivery_rate(&self) -> f64 {
        self.view().tally(Population::Eligible).delivery_rate()
    }

    /// Fraction of eligible nodes that delivered every message.
    pub fn completeness(&self) -> f64 {
        self.view().tally(Population::Eligible).completeness()
    }

    /// A compact, timing-free fingerprint of the delivery outcome:
    /// protocol, source, and each node's delivered sequence set. The live
    /// counterpart of the engine fingerprint's delivery projection.
    pub fn delivery_fingerprint(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{}|src={}|pub={}|",
            self.protocol, self.source.0, self.messages_published
        )
        .unwrap();
        for (id, seqs) in self.view().delivered_sets(Population::All) {
            write!(out, "n{id}:d{:?};", seqs).unwrap();
        }
        out
    }

    /// Total frames and bytes the cluster moved (sum over nodes, outbound).
    pub fn frames_and_bytes_out(&self) -> (u64, u64) {
        self.nodes.iter().fold((0, 0), |(f, b), n| {
            (f + n.stats.frames_out, b + n.stats.bytes_out)
        })
    }

    /// Idle outbound links the reap sweep closed, cluster-wide.
    pub fn links_reaped(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats.links_reaped).sum()
    }

    /// Backoff re-dials that fired for the cluster's outbound links.
    pub fn redials(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats.redials).sum()
    }

    /// Runs the engine's offline delivery checks on every node's report:
    /// unique, ordered first-delivery records; counts consistent; no
    /// sequence number beyond what was published; no timestamp from the
    /// future. This is `workloads::invariants` applied to the live trace.
    pub fn check_delivery_invariants(&self) -> Result<(), String> {
        let now = SimTime::from_micros(self.wall_elapsed.as_micros() as u64);
        for n in &self.nodes {
            check_delivery_report(n.id, &n.report, self.messages_published, now)?;
        }
        Ok(())
    }
}
