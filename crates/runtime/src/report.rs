//! The collected outcome of a live cluster run.
//!
//! [`LiveResult`] mirrors the sim engine's `EngineResult` where the two
//! execution modes overlap: per-node [`NodeReport`]s, the publish schedule,
//! and the `delivery_rate()`/`completeness()` summaries (same formulas, so
//! the acceptance bars of the fault sweeps translate verbatim). Wall-clock
//! runs are not bit-reproducible, so instead of the engine's full
//! fingerprint it exposes [`LiveResult::delivery_fingerprint`] — the
//! timing-free projection (who delivered which sequence numbers) that a
//! simulated run of the same scenario must agree with.

use brisa_simnet::{NodeId, SimTime};
use brisa_workloads::invariants::check_delivery_report;
use brisa_workloads::{completeness_of, delivery_rate_of, NodeReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Byte/frame counters one node accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeStats {
    /// Frames decoded and dispatched to `on_message`.
    pub frames_in: u64,
    /// Bytes of those frames (length prefix included).
    pub bytes_in: u64,
    /// Frames encoded and handed to the transport.
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
    /// node is alive at collection but lost its state mid-stream, so the
    /// survivor metrics exclude it — the live mirror of the sim engine
    /// excluding crashed nodes and counting their replacements as
    /// ineligible joiners.
    pub ever_killed: Vec<u32>,
}

impl LiveResult {
    /// Fraction of (eligible node × message) pairs delivered — literally
    /// the sim engine's formula ([`delivery_rate_of`]) over live reports.
    pub fn delivery_rate(&self) -> f64 {
        delivery_rate_of(self.eligible_delivered_counts(), self.messages_published)
    }

    /// Fraction of live non-source nodes that delivered every message
    /// (the engine's [`completeness_of`]).
    pub fn completeness(&self) -> f64 {
        completeness_of(self.eligible_delivered_counts(), self.messages_published)
    }

    /// Delivered counts of the eligible nodes: alive, non-source, launched
    /// with the cluster.
    fn eligible_delivered_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.id != self.source && n.id.0 < self.original_nodes)
            .map(|n| n.report.delivered)
    }

    /// Delivered counts of the *survivors*: eligible nodes that were never
    /// killed. A restarted node's empty-state rebirth would otherwise drag
    /// the averages for messages published before it existed.
    fn survivor_delivered_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.nodes
            .iter()
            .filter(|n| {
                n.id != self.source
                    && n.id.0 < self.original_nodes
                    && self.ever_killed.binary_search(&n.id.0).is_err()
            })
            .map(|n| n.report.delivered)
    }

    /// [`LiveResult::delivery_rate`] over the survivors only — the metric
    /// the sim-vs-live divergence gate compares, since the sim's
    /// eligibility filter excludes crashed nodes the same way.
    pub fn survivor_delivery_rate(&self) -> f64 {
        delivery_rate_of(self.survivor_delivered_counts(), self.messages_published)
    }

    /// [`LiveResult::completeness`] over the survivors only.
    pub fn survivor_completeness(&self) -> f64 {
        completeness_of(self.survivor_delivered_counts(), self.messages_published)
    }

    /// Injection-to-delivery latency of every (node, message) pair, in
    /// milliseconds. The raw samples behind the latency CDFs.
    pub fn latency_samples_ms(&self) -> Vec<f64> {
        let mut samples = Vec::new();
        for n in &self.nodes {
            if n.id == self.source {
                continue;
            }
            for &(seq, at) in &n.report.first_delivery {
                if let Some(&published) = self.publish_times.get(seq as usize) {
                    samples.push(at.saturating_since(published).as_millis_f64());
                }
            }
        }
        samples
    }

    /// Per-node sets of delivered sequence numbers. The projection of the
    /// run that is deterministic for a correct protocol — a simulated run
    /// of the same scenario must produce the same map.
    pub fn delivered_sets(&self) -> BTreeMap<u32, Vec<u64>> {
        self.nodes
            .iter()
            .map(|n| {
                (
                    n.id.0,
                    n.report.first_delivery.iter().map(|&(s, _)| s).collect(),
                )
            })
            .collect()
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
        for (id, seqs) in self.delivered_sets() {
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
