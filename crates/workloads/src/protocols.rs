//! [`DisseminationProtocol`] implementations for every protocol stack the
//! harness drives: BRISA itself and the four comparison baselines.
//!
//! This is the *only* per-protocol code in the experiment path. Everything
//! else — bootstrap, churn, stream injection, metric collection, the
//! parallel sweep driver — is generic over this trait, so adding a protocol
//! to every figure/table experiment means implementing the four methods
//! below for it; the `run_*` functions at the end are the one-line scenario →
//! configuration → [`Runner`] conveniences.

use crate::engine::{
    BuildCtx, DisseminationProtocol, EngineResult, IntoRunSpec, NodeReport, RepairTelemetry,
    Runner, ScaleNodeReport,
};
use crate::spec::{BaselineScenario, BrisaScenario};
use brisa::{BrisaConfig, BrisaNode};
use brisa_baselines::{FloodNode, SimpleGossipNode, SimpleTreeNode, TagNode};
use brisa_membership::HyParViewConfig;
use brisa_simnet::{Context, DeliveryLog, NodeId};

/// Run-wide configuration of a BRISA node (membership + dissemination).
#[derive(Debug, Clone)]
pub struct BrisaStackConfig {
    /// HyParView parameters.
    pub hpv: HyParViewConfig,
    /// BRISA parameters.
    pub brisa: BrisaConfig,
}

/// The delivery fields of every protocol's report. The ledger is
/// sequence-indexed, so `first_delivery` is in ascending sequence order
/// (and empty under scale-mode counter tracking). It is allocated at the
/// size of the entries still in storage, counted first: `delivered()` also
/// counts the ones that slid out, and a collected filter would leave up to
/// half its capacity unused.
fn delivery_report(log: &DeliveryLog) -> NodeReport {
    let mut first_delivery = Vec::with_capacity(log.iter_times().count());
    first_delivery.extend(log.iter_times());
    NodeReport {
        delivered: log.delivered(),
        duplicates_per_message: log.duplicates_per_message(),
        first_delivery,
        highest_delivered: log.highest(),
        last_delivery: log.span().map(|(_, last)| last),
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
            ..delivery_report(&stats.delivery)
        }
    }

    fn scale_report(&self, publish_times: &[brisa_simnet::SimTime]) -> ScaleNodeReport {
        let log = &self.brisa().stats().delivery;
        let mut latency = log.latency_hist();
        if latency.is_empty() && log.delivered() > 0 {
            // Full tracking: the histogram was never streamed, so derive it
            // from the recorded first-delivery times (exactly what the
            // counter tracking would have produced — the publish schedule
            // is deterministic).
            for (seq, t) in log.iter_times() {
                if let Some(&published) = publish_times.get(seq as usize) {
                    latency.record_us(t.saturating_since(published).as_micros());
                }
            }
        }
        ScaleNodeReport {
            delivered: log.delivered(),
            duplicates: log.duplicates(),
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
        delivery_report(self.delivery())
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
            ..delivery_report(self.delivery())
        }
    }
}

impl DisseminationProtocol for SimpleGossipNode {
    type Config = ();

    fn protocol_name() -> &'static str {
        "SimpleGossip"
    }

    fn build(_cfg: &Self::Config, id: NodeId, bctx: &BuildCtx) -> Self {
        // Ring-ish bootstrap seeds over the initial population; late joiners
        // seed from random early nodes.
        let n = bctx.population.max(1);
        let seeds: Vec<NodeId> = (1..=4u32)
            .map(|k| NodeId(bctx.index.wrapping_add(k * 7) % n))
            .collect();
        SimpleGossipNode::new(id, bctx.population, seeds)
    }

    fn publish_message(&mut self, ctx: &mut Context<'_, Self::Message>, payload_bytes: usize) {
        self.publish(ctx, payload_bytes);
    }

    fn report(&self) -> NodeReport {
        delivery_report(self.delivery())
    }
}

impl DisseminationProtocol for TagNode {
    type Config = ();

    fn protocol_name() -> &'static str {
        "TAG"
    }

    fn build(_cfg: &Self::Config, _id: NodeId, bctx: &BuildCtx) -> Self {
        // The join-time-sorted linked list chains through the most recently
        // joined node.
        TagNode::new(bctx.prev)
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
            ..delivery_report(self.delivery())
        }
    }
}

/// Runs a BRISA scenario to completion.
pub fn run_brisa(sc: &BrisaScenario) -> EngineResult {
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    Runner::<BrisaNode>::new(&cfg, &sc.run_spec()).run()
}

/// Runs plain flooding over HyParView.
pub fn run_flood(sc: &BaselineScenario) -> EngineResult {
    let cfg = HyParViewConfig::with_active_size(sc.view_size);
    Runner::<FloodNode>::new(&cfg, &sc.run_spec()).run()
}

/// Runs the SimpleTree baseline (centralized random tree, push).
pub fn run_simple_tree(sc: &BaselineScenario) -> EngineResult {
    Runner::<SimpleTreeNode>::new(&(), &sc.run_spec()).run()
}

/// Runs the SimpleGossip baseline (Cyclon + rumor mongering + anti-entropy).
pub fn run_simple_gossip(sc: &BaselineScenario) -> EngineResult {
    Runner::<SimpleGossipNode>::new(&(), &sc.run_spec()).run()
}

/// Runs the TAG baseline (linked list + tree + gossip, pull dissemination).
pub fn run_tag(sc: &BaselineScenario) -> EngineResult {
    Runner::<TagNode>::new(&(), &sc.run_spec()).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Population;
    use crate::spec::{ChurnSpec, StreamSpec, Testbed};
    use brisa::{ParentStrategy, StructureMode};
    use brisa_simnet::SimDuration;

    #[test]
    fn small_tree_run_is_complete_and_duplicate_free_after_bootstrap() {
        let sc = BrisaScenario::small_test(32);
        let r = run_brisa(&sc);
        assert_eq!(r.messages_published, 10);
        assert!(
            (r.completeness() - 1.0).abs() < 1e-9,
            "every node delivered everything"
        );
        let structure = r.structure();
        assert!(structure.is_acyclic());
        assert!(structure.is_complete());
        // Non-source nodes have exactly one parent in tree mode.
        for n in r.non_source() {
            assert_eq!(n.report.parents.len(), 1);
            assert!(n.report.depth.is_some());
        }
        // Duplicates only stem from the bootstrap flood: well under one per
        // message on average for a 10-message stream.
        let avg_dup: f64 = r
            .non_source()
            .map(|n| n.report.duplicates_per_message)
            .sum::<f64>()
            / (r.nodes.len() - 1) as f64;
        assert!(avg_dup < 1.0, "avg duplicates per message {avg_dup}");
    }

    #[test]
    fn dag_run_gets_multiple_parents() {
        let sc = BrisaScenario {
            mode: StructureMode::Dag { parents: 2 },
            view_size: 8,
            ..BrisaScenario::small_test(32)
        };
        let r = run_brisa(&sc);
        let multi = r
            .non_source()
            .filter(|n| n.report.parents.len() >= 2)
            .count();
        assert!(
            multi * 2 > r.nodes.len() - 1,
            "most nodes found 2 parents ({multi})"
        );
        assert!(r.structure().is_acyclic());
    }

    #[test]
    fn churn_run_produces_a_report() {
        let spec = ChurnSpec {
            rate_percent: 5.0,
            interval: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(40),
        };
        let sc = BrisaScenario {
            churn: Some(spec),
            stream: StreamSpec {
                messages: 50,
                rate_per_sec: 5.0,
                payload_bytes: 128,
            },
            ..BrisaScenario::small_test(48)
        };
        let r = run_brisa(&sc);
        let churn = r.churn_report(&spec);
        assert!(churn.failures_injected > 0);
        assert_eq!(churn.failures_injected, churn.joins_injected);
        assert!(
            churn.parents_lost_per_min > 0.0,
            "failures must cost somebody a parent"
        );
        assert!(
            (churn.soft_pct + churn.hard_pct - 100.0).abs() < 1e-6
                || (churn.soft_repairs + churn.hard_repairs) == 0
        );
        // The stream kept flowing: live non-source nodes received most messages.
        for (id, report) in r.view().members(Population::Eligible) {
            if report.delivered < r.messages_published {
                eprintln!(
                    "incomplete node {:?}: delivered {}/{} parents={:?} depth={:?}",
                    id, report.delivered, r.messages_published, report.parents, report.depth
                );
            }
        }
        let complete = r.completeness();
        assert!(complete > 0.7, "completeness under churn was {complete}");
    }

    #[test]
    fn delay_aware_strategy_reduces_routing_delay_on_planetlab() {
        let base = BrisaScenario {
            nodes: 48,
            testbed: Testbed::PlanetLab,
            stream: StreamSpec::short(20, 512),
            bootstrap: SimDuration::from_secs(30),
            ..Default::default()
        };
        let first_pick = run_brisa(&base);
        let delay_aware = run_brisa(&BrisaScenario {
            strategy: ParentStrategy::DelayAware,
            ..base.clone()
        });
        let mean = |r: &EngineResult| {
            let v: Vec<f64> = r.nodes.iter().filter_map(|n| n.routing_delay_ms).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let fp = mean(&first_pick);
        let da = mean(&delay_aware);
        // At this reduced scale tree shapes vary a lot between strategies;
        // the Figure 9 comparison is `repro fig09`'s claim. Here we only
        // require that the delay-aware strategy stays in the same ballpark
        // and that both runs completed.
        assert!(fp > 0.0 && da > 0.0);
        assert!(
            da <= fp * 2.0,
            "delay-aware wildly worse than first-pick ({fp:.1}ms vs {da:.1}ms)"
        );
    }

    #[test]
    fn flood_run_is_complete_with_duplicates() {
        let sc = BaselineScenario::small_test(32);
        let r = run_flood(&sc);
        assert_eq!(r.protocol, "flood");
        assert!((r.completeness() - 1.0).abs() < 1e-9);
        let dup_total: f64 = r
            .nodes
            .iter()
            .map(|n| n.report.duplicates_per_message)
            .sum();
        assert!(dup_total > 0.0, "flooding always yields duplicates");
    }

    #[test]
    fn simple_tree_run_has_zero_duplicates() {
        let sc = BaselineScenario::small_test(32);
        let r = run_simple_tree(&sc);
        assert!((r.completeness() - 1.0).abs() < 1e-9);
        assert!(r
            .nodes
            .iter()
            .all(|n| n.report.duplicates_per_message == 0.0));
    }

    #[test]
    fn simple_gossip_run_is_complete() {
        let sc = BaselineScenario::small_test(32);
        let r = run_simple_gossip(&sc);
        assert!(
            (r.completeness() - 1.0).abs() < 1e-9,
            "anti-entropy ensures completeness"
        );
    }

    #[test]
    fn tag_run_is_complete_and_reports_construction_times() {
        let mut sc = BaselineScenario::small_test(32);
        // Pull-based dissemination needs a longer drain.
        sc.drain = SimDuration::from_secs(60);
        let r = run_tag(&sc);
        assert!((r.completeness() - 1.0).abs() < 1e-9);
        let with_ct = r
            .nodes
            .iter()
            .filter(|n| n.report.construction_time.is_some())
            .count();
        assert!(
            with_ct > r.nodes.len() / 2,
            "most nodes report a construction time"
        );
        assert!(r.nodes.iter().all(|n| n.report.delivered > 0));
    }
}
