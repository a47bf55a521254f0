//! [`DisseminationProtocol`] implementations for every protocol stack the
//! harness drives: BRISA itself and the four comparison baselines.
//!
//! This is the *only* per-protocol code in the experiment path. Everything
//! else — bootstrap, churn, stream injection, metric collection, the
//! parallel sweep driver — is generic over this trait, so adding a protocol
//! to every figure/table experiment means implementing the four methods
//! below for it.

use crate::engine::{
    BuildCtx, DisseminationProtocol, NodeReport, RepairTelemetry, ScaleNodeReport,
};
use brisa::{BrisaConfig, BrisaNode};
use brisa_baselines::{
    DeliveryStats, FloodNode, GossipConfig, SimpleGossipNode, SimpleTreeNode, TagConfig, TagNode,
};
use brisa_membership::HyParViewConfig;
use brisa_simnet::{Context, NodeId};

/// Run-wide configuration of a BRISA node (membership + dissemination).
#[derive(Debug, Clone)]
pub struct BrisaStackConfig {
    /// HyParView parameters.
    pub hpv: HyParViewConfig,
    /// BRISA parameters.
    pub brisa: BrisaConfig,
}

/// Copies a per-sequence-number delivery map into the report's vector,
/// sorted by sequence number. The sort matters: the protocol stats keep the
/// map in a hash table whose iteration order is seeded per thread, and
/// downstream float accumulations (mean routing delay) must not depend on
/// which thread of a [`crate::matrix::run_matrix`] sweep ran the cell.
fn sorted_deliveries(
    map: &std::collections::HashMap<u64, brisa_simnet::SimTime>,
) -> Vec<(u64, brisa_simnet::SimTime)> {
    let mut v: Vec<(u64, brisa_simnet::SimTime)> = map.iter().map(|(&s, &t)| (s, t)).collect();
    v.sort_unstable_by_key(|&(s, _)| s);
    v
}

/// Shared translation of a [`DeliveryStats`] into the generic report.
fn delivery_report(stats: &DeliveryStats) -> NodeReport {
    NodeReport {
        delivered: stats.delivered,
        duplicates_per_message: stats.duplicates_per_message(),
        first_delivery: sorted_deliveries(&stats.first_delivery),
        ..NodeReport::default()
    }
}

impl DisseminationProtocol for BrisaNode {
    type Config = BrisaStackConfig;

    fn protocol_name() -> &'static str {
        "Brisa"
    }

    fn build(cfg: &Self::Config, id: NodeId, bctx: &BuildCtx) -> Self {
        let mut node = BrisaNode::new(id, cfg.hpv.clone(), cfg.brisa.clone(), bctx.contact);
        if bctx.is_source {
            node.mark_source();
        }
        node
    }

    fn publish_message(&mut self, ctx: &mut Context<'_, Self::Message>, payload_bytes: usize) {
        self.publish(ctx, payload_bytes);
    }

    fn report(&self) -> NodeReport {
        let core = self.brisa();
        let stats = core.stats();
        NodeReport {
            delivered: stats.delivered,
            duplicates_per_message: stats.duplicates_per_message(),
            // The delivery ledger is sequence-indexed, so this is already
            // in ascending sequence order (and empty under scale-mode
            // counter tracking).
            first_delivery: stats.delivery.iter_times().collect(),
            parents: core.parents(),
            depth: core.depth(),
            degree: core.links().degree(),
            construction_time: stats.construction_time(),
            repairs: RepairTelemetry {
                soft_repairs: stats.soft_repairs,
                hard_repairs: stats.hard_repairs,
                soft_delays_us: stats.soft_repair_delays_us.clone(),
                hard_delays_us: stats.hard_repair_delays_us.clone(),
                parents_lost: stats.parents_lost.clone(),
                orphaned: stats.orphaned.clone(),
                gap_requests: stats.gap_retransmit_requests,
                retransmissions_served: stats.retransmissions_served,
            },
        }
    }

    fn scale_report(&self, publish_times: &[brisa_simnet::SimTime]) -> ScaleNodeReport {
        let stats = self.brisa().stats();
        let mut latency = stats.delivery.latency_hist().clone();
        if latency.is_empty() && stats.delivered > 0 {
            // Full tracking: the histogram was never streamed, so derive it
            // from the recorded first-delivery times (exactly what the
            // counter tracking would have produced — the publish schedule
            // is deterministic).
            for (seq, t) in stats.delivery.iter_times() {
                if let Some(&published) = publish_times.get(seq as usize) {
                    latency.record_us(t.saturating_since(published).as_micros());
                }
            }
        }
        ScaleNodeReport {
            delivered: stats.delivered,
            duplicates: stats.duplicates,
            latency,
        }
    }
}

impl DisseminationProtocol for FloodNode {
    type Config = HyParViewConfig;

    fn protocol_name() -> &'static str {
        "flood"
    }

    fn build(cfg: &Self::Config, id: NodeId, bctx: &BuildCtx) -> Self {
        // Everyone joins through the contact point (the source), as in the
        // BRISA bootstrap.
        FloodNode::new(id, cfg.clone(), bctx.contact)
    }

    fn publish_message(&mut self, ctx: &mut Context<'_, Self::Message>, payload_bytes: usize) {
        self.publish(ctx, payload_bytes);
    }

    fn report(&self) -> NodeReport {
        delivery_report(self.stats())
    }
}

impl DisseminationProtocol for SimpleTreeNode {
    type Config = ();

    fn protocol_name() -> &'static str {
        "SimpleTree"
    }

    fn build(_cfg: &Self::Config, _id: NodeId, bctx: &BuildCtx) -> Self {
        // The first node is the central coordinator every joiner registers
        // with.
        SimpleTreeNode::new(bctx.contact)
    }

    fn publish_message(&mut self, ctx: &mut Context<'_, Self::Message>, payload_bytes: usize) {
        self.publish(ctx, payload_bytes);
    }

    fn report(&self) -> NodeReport {
        NodeReport {
            parents: self.parent().into_iter().collect(),
            degree: self.children().len(),
            ..delivery_report(self.stats())
        }
    }
}

impl DisseminationProtocol for SimpleGossipNode {
    type Config = GossipConfig;

    fn protocol_name() -> &'static str {
        "SimpleGossip"
    }

    fn build(cfg: &Self::Config, id: NodeId, bctx: &BuildCtx) -> Self {
        // Ring-ish bootstrap seeds over the initial population; late joiners
        // seed from random early nodes.
        let n = bctx.population.max(1);
        let seeds: Vec<NodeId> = (1..=4u32)
            .map(|k| NodeId(bctx.index.wrapping_add(k * 7) % n))
            .collect();
        SimpleGossipNode::new(id, cfg.clone(), seeds)
    }

    fn publish_message(&mut self, ctx: &mut Context<'_, Self::Message>, payload_bytes: usize) {
        self.publish(ctx, payload_bytes);
    }

    fn report(&self) -> NodeReport {
        delivery_report(self.stats())
    }
}

impl DisseminationProtocol for TagNode {
    type Config = TagConfig;

    fn protocol_name() -> &'static str {
        "TAG"
    }

    fn build(cfg: &Self::Config, _id: NodeId, bctx: &BuildCtx) -> Self {
        // The join-time-sorted linked list chains through the most recently
        // joined node.
        TagNode::new(cfg.clone(), bctx.prev)
    }

    fn publish_message(&mut self, ctx: &mut Context<'_, Self::Message>, payload_bytes: usize) {
        self.publish(ctx, payload_bytes);
    }

    fn report(&self) -> NodeReport {
        let ts = self.tag_stats();
        NodeReport {
            parents: self.parent().into_iter().collect(),
            degree: self.children().len(),
            construction_time: ts.construction_time(),
            repairs: RepairTelemetry {
                soft_repairs: ts.soft_repairs,
                hard_repairs: ts.hard_repairs,
                soft_delays_us: ts.soft_repair_delays_us.clone(),
                hard_delays_us: ts.hard_repair_delays_us.clone(),
                ..RepairTelemetry::default()
            },
            ..delivery_report(self.stats())
        }
    }
}
