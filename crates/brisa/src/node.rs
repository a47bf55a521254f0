//! The full BRISA protocol stack, runnable on the simulator.
//!
//! [`BrisaNode`] composes the HyParView membership state machine with the
//! BRISA dissemination core into a single [`Protocol`] implementation:
//! HyParView neighbor events feed the BRISA link table, BRISA uses the
//! keep-alive RTT measurements for its delay-aware strategy, and both
//! protocols share the node's monitored connections for failure detection.

use crate::config::BrisaConfig;
use crate::core::BrisaCore;
use crate::message::{BrisaMsg, BrisaSink};
use brisa_membership::{HpvMsg, HpvSink, HyParView, HyParViewConfig};
use brisa_simnet::{Command, Context, NodeId, Protocol, SimDuration, SimTime, TimerTag};
use rand::rngs::SmallRng;
use rand::Rng;

/// Timer family used for the periodic HyParView passive-view shuffle.
pub const TIMER_SHUFFLE: u16 = 1;
/// Timer family used for the periodic keep-alive probes.
pub const TIMER_KEEPALIVE: u16 = 2;
/// Timer family used for repair supervision (soft-repair timeout escalation
/// and hard-repair retries). The period comes from
/// [`BrisaConfig::repair_tick_period`].
pub const TIMER_REPAIR: u16 = 3;

/// Wire messages of the combined HyParView + BRISA stack.
#[derive(Debug, Clone, PartialEq)]
pub enum StackMsg {
    /// Membership traffic.
    Hpv(HpvMsg),
    /// Dissemination traffic.
    Brisa(BrisaMsg),
}

/// One simulated node running HyParView + BRISA.
pub struct BrisaNode {
    hpv: HyParView,
    core: BrisaCore,
    contact: Option<NodeId>,
}

impl BrisaNode {
    /// Creates a node. `contact` is the existing node used to join the
    /// overlay (`None` for the very first node).
    pub fn new(
        id: NodeId,
        hpv_cfg: HyParViewConfig,
        brisa_cfg: BrisaConfig,
        contact: Option<NodeId>,
    ) -> Self {
        BrisaNode {
            hpv: HyParView::new(id, hpv_cfg),
            core: BrisaCore::new(id, brisa_cfg),
            contact,
        }
    }

    /// Marks this node as the stream source.
    pub fn mark_source(&mut self) {
        self.core.mark_source();
    }

    /// Read access to the membership layer.
    pub fn hyparview(&self) -> &HyParView {
        &self.hpv
    }

    /// Read access to the dissemination layer (parents, children, stats).
    pub fn brisa(&self) -> &BrisaCore {
        &self.core
    }

    /// Publishes the next stream message with `payload_bytes` of payload
    /// (source only). Call through [`brisa_simnet::Network::invoke`] so the
    /// resulting sends are routed through the simulator.
    pub fn publish(&mut self, ctx: &mut Context<'_, StackMsg>, payload_bytes: usize) {
        let now = ctx.now();
        self.core
            .publish(now, payload_bytes, &mut Commands(ctx.rng_and_commands().1));
    }

    /// Runs one membership-layer call with its effects wired straight into
    /// the simulator context and the dissemination core, in the order the
    /// membership layer produces them.
    fn with_hpv(
        &mut self,
        ctx: &mut Context<'_, StackMsg>,
        call: impl FnOnce(&mut HyParView, &mut SmallRng, &mut StackSink<'_>),
    ) {
        let now = ctx.now();
        let (rng, commands) = ctx.rng_and_commands();
        let mut sink = StackSink {
            now,
            commands,
            core: &mut self.core,
        };
        call(&mut self.hpv, rng, &mut sink);
    }
}

/// The stack's side of the core's effect seam, over the simulator's command
/// buffer: each send becomes a command the moment the core emits it.
struct Commands<'a>(&'a mut Vec<Command<StackMsg>>);

impl BrisaSink for Commands<'_> {
    fn send(&mut self, to: NodeId, msg: BrisaMsg) {
        self.0.push(Command::Send {
            to,
            msg: StackMsg::Brisa(msg),
        });
    }

    fn deliver(&mut self, _seq: u64) {
        // Delivery bookkeeping lives in the core's statistics; nothing to
        // do at the stack level.
    }
}

/// The stack's side of HyParView's effect seam: membership traffic and
/// connection management become simulator commands, view changes feed the
/// BRISA link table — each at the moment HyParView emits it, so a
/// `NeighborDown`'s repair traffic goes out between the membership messages
/// around it exactly as it always has. Sound because the core's neighbor
/// callbacks never read the membership layer.
struct StackSink<'a> {
    now: SimTime,
    commands: &'a mut Vec<Command<StackMsg>>,
    core: &'a mut BrisaCore,
}

impl HpvSink for StackSink<'_> {
    fn send(&mut self, to: NodeId, msg: HpvMsg) {
        self.commands.push(Command::Send {
            to,
            msg: StackMsg::Hpv(msg),
        });
    }

    fn open_connection(&mut self, peer: NodeId) {
        self.commands.push(Command::OpenConnection { peer });
    }

    fn close_connection(&mut self, peer: NodeId) {
        self.commands.push(Command::CloseConnection { peer });
    }

    fn neighbor_up(&mut self, peer: NodeId) {
        self.core.on_neighbor_up(peer);
    }

    fn neighbor_down(&mut self, peer: NodeId) {
        self.core
            .on_neighbor_down(self.now, peer, &mut Commands(self.commands));
    }
}

impl Protocol for BrisaNode {
    type Message = StackMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, StackMsg>) {
        // Resolve observability handles once, from whatever registry the
        // driver attached (a disabled default otherwise).
        self.core.set_telemetry(ctx.telemetry());
        self.hpv.set_telemetry(ctx.telemetry());
        self.core.note_started(ctx.now());
        if let Some(contact) = self.contact {
            self.with_hpv(ctx, |hpv, _, sink| hpv.join(sink.now, contact, sink));
        }
        // Periodic maintenance timers, de-synchronised across nodes.
        let shuffle_period = self.hpv.config().shuffle_period;
        let keepalive_period = self.hpv.config().keepalive_period;
        let shuffle_offset =
            SimDuration::from_micros(ctx.rng().gen_range(0..shuffle_period.as_micros().max(1)));
        let keepalive_offset =
            SimDuration::from_micros(ctx.rng().gen_range(0..keepalive_period.as_micros().max(1)));
        ctx.set_timer(shuffle_offset, TimerTag::of_kind(TIMER_SHUFFLE));
        ctx.set_timer(keepalive_offset, TimerTag::of_kind(TIMER_KEEPALIVE));
        ctx.set_timer(
            self.core.config().repair_tick_period,
            TimerTag::of_kind(TIMER_REPAIR),
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_, StackMsg>, from: NodeId, msg: StackMsg) {
        match msg {
            StackMsg::Hpv(m) => {
                self.with_hpv(ctx, |hpv, rng, sink| {
                    hpv.handle(sink.now, from, m, rng, sink)
                });
            }
            StackMsg::Brisa(m) => {
                let now = ctx.now();
                let mut out = Commands(ctx.rng_and_commands().1);
                self.core.handle(now, from, m, &&self.hpv, &mut out);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, StackMsg>, tag: TimerTag) {
        match tag.kind {
            TIMER_SHUFFLE => {
                self.hpv.note_shuffle(ctx.now());
                self.with_hpv(ctx, |hpv, rng, sink| hpv.shuffle_tick(rng, sink));
                let period = self.hpv.config().shuffle_period;
                ctx.set_timer(period, TimerTag::of_kind(TIMER_SHUFFLE));
            }
            TIMER_KEEPALIVE => {
                // A node with *both* views empty is fully isolated: its
                // join was lost (a dial that died in a bootstrap storm, a
                // contact that crashed before replying) and no overlay
                // traffic can ever reach it again. Re-join through the
                // original contact. The both-views guard keeps this out of
                // ordinary operation: a join in flight holds the contact in
                // the active view optimistically, and any node that was
                // ever connected retains passive entries to recover with.
                if self.hpv.active_view().is_empty() && self.hpv.passive_view().is_empty() {
                    if let Some(contact) = self.contact {
                        self.with_hpv(ctx, |hpv, _, sink| hpv.join(sink.now, contact, sink));
                    }
                }
                self.with_hpv(ctx, |hpv, _, sink| hpv.keepalive_tick(sink.now, sink));
                let period = self.hpv.config().keepalive_period;
                ctx.set_timer(period, TimerTag::of_kind(TIMER_KEEPALIVE));
            }
            TIMER_REPAIR => {
                let now = ctx.now();
                self.core
                    .repair_tick(now, &mut Commands(ctx.rng_and_commands().1));
                ctx.set_timer(
                    self.core.config().repair_tick_period,
                    TimerTag::of_kind(TIMER_REPAIR),
                );
            }
            _ => {}
        }
    }

    fn on_link_down(&mut self, ctx: &mut Context<'_, StackMsg>, peer: NodeId) {
        self.with_hpv(ctx, |hpv, rng, sink| {
            hpv.link_down(sink.now, peer, rng, sink)
        });
    }

    /// The node's own inline bytes once, plus what each layer holds on the
    /// heap (each layer's estimate counts its own inline size, which
    /// `size_of::<BrisaNode>()` already covers).
    fn approx_state_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + (self.hpv.approx_bytes() - size_of::<HyParView>())
            + (self.core.approx_state_bytes() - size_of::<BrisaCore>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ParentStrategy, StructureMode};
    use brisa_simnet::latency::ClusterLatency;
    use brisa_simnet::{Network, NetworkConfig, SimTime, WireSize};

    /// Builds a network of `n` BrisaNodes, bootstraps the overlay (node 0 is
    /// the contact and the source), and lets it stabilise.
    fn build(
        n: u32,
        hpv_cfg: HyParViewConfig,
        brisa_cfg: BrisaConfig,
    ) -> (Network<BrisaNode>, Vec<NodeId>) {
        let mut net: Network<BrisaNode> = Network::new(
            NetworkConfig {
                seed: 42,
                ..Default::default()
            },
            Box::new(ClusterLatency::default()),
        );
        let mut ids = Vec::new();
        let first = net.add_node(|id| {
            let mut node = BrisaNode::new(id, hpv_cfg.clone(), brisa_cfg.clone(), None);
            node.mark_source();
            node
        });
        ids.push(first);
        for i in 1..n {
            // Stagger joins slightly, as a deployment script would.
            let at = SimTime::from_millis(10 * i as u64);
            let id = net.add_node_at(at, {
                let hpv_cfg = hpv_cfg.clone();
                let brisa_cfg = brisa_cfg.clone();
                move |id| BrisaNode::new(id, hpv_cfg, brisa_cfg, Some(first))
            });
            ids.push(id);
        }
        net.run_until(SimTime::from_secs(30));
        (net, ids)
    }

    #[test]
    fn full_stack_disseminates_to_every_node() {
        let (mut net, ids) = build(
            32,
            HyParViewConfig::with_active_size(4),
            BrisaConfig::default(),
        );
        let source = ids[0];
        for i in 0..5 {
            let t = net.now() + brisa_simnet::SimDuration::from_millis(200 * (i + 1));
            net.run_until(t);
            net.invoke(source, |node, ctx| node.publish(ctx, 1024));
        }
        net.run_for(brisa_simnet::SimDuration::from_secs(10));
        for &id in &ids {
            let delivered = net.node(id).unwrap().brisa().stats().delivery.delivered();
            assert_eq!(delivered, 5, "node {id} must deliver every stream message");
        }
        // After stabilisation every non-source node has exactly one parent.
        for &id in ids.iter().skip(1) {
            assert_eq!(net.node(id).unwrap().brisa().parents().len(), 1);
        }
    }

    #[test]
    fn dag_stack_keeps_two_parents_where_possible() {
        let (mut net, ids) = build(
            32,
            HyParViewConfig::with_active_size(8),
            BrisaConfig::dag(2, ParentStrategy::FirstComeFirstPicked),
        );
        let source = ids[0];
        for i in 0..5 {
            let t = net.now() + brisa_simnet::SimDuration::from_millis(200 * (i + 1));
            net.run_until(t);
            net.invoke(source, |node, ctx| node.publish(ctx, 512));
        }
        net.run_for(brisa_simnet::SimDuration::from_secs(10));
        let with_two = ids
            .iter()
            .skip(1)
            .filter(|&&id| net.node(id).unwrap().brisa().parents().len() == 2)
            .count();
        assert!(
            with_two > ids.len() / 2,
            "most nodes should obtain the desired number of parents, got {with_two}"
        );
        assert_eq!(
            net.node(ids[0]).unwrap().brisa().config().mode,
            StructureMode::Dag { parents: 2 }
        );
    }

    #[test]
    fn crash_of_a_parent_is_repaired_and_stream_continues() {
        let (mut net, ids) = build(
            24,
            HyParViewConfig::with_active_size(4),
            BrisaConfig::default(),
        );
        let source = ids[0];
        for i in 0..3 {
            let t = net.now() + brisa_simnet::SimDuration::from_millis(200 * (i + 1));
            net.run_until(t);
            net.invoke(source, |node, ctx| node.publish(ctx, 256));
        }
        net.run_for(brisa_simnet::SimDuration::from_secs(5));
        // Crash a node that is someone's parent (and not the source).
        let victim = ids
            .iter()
            .skip(1)
            .copied()
            .find(|&id| !net.node(id).unwrap().brisa().children().is_empty())
            .expect("some non-source node has children");
        net.crash(victim);
        net.run_for(brisa_simnet::SimDuration::from_secs(5));
        // Keep streaming.
        for i in 0..3 {
            let t = net.now() + brisa_simnet::SimDuration::from_millis(200 * (i + 1));
            net.run_until(t);
            net.invoke(source, |node, ctx| node.publish(ctx, 256));
        }
        net.run_for(brisa_simnet::SimDuration::from_secs(10));
        for &id in ids.iter().filter(|&&id| id != victim) {
            let stats = net.node(id).unwrap().brisa().stats();
            assert_eq!(
                stats.delivery.delivered(),
                6,
                "node {id} missed messages after the crash"
            );
        }
        let repairs: u64 = ids
            .iter()
            .filter(|&&id| id != victim)
            .map(|&id| {
                let s = net.node(id).unwrap().brisa().stats();
                s.soft_repairs + s.hard_repairs
            })
            .sum();
        assert!(
            repairs >= 1,
            "at least one orphan repaired its connectivity"
        );
    }

    #[test]
    fn fifo_link_clocks_stay_bounded_by_what_is_in_flight() {
        // Everyone joins through node 0, which therefore messages all 499
        // others at least once; a clock per destination ever messaged would
        // leave it a 499-entry table (and the network tens of thousands).
        let (mut net, ids) = build(
            500,
            HyParViewConfig::with_active_size(4),
            BrisaConfig::default(),
        );
        net.run_until(SimTime::from_secs(60));
        let clocks = net.link_clock_entries();
        assert!(
            clocks.len() <= ids.len() * 16,
            "{} link clocks tracked for {} nodes",
            clocks.len(),
            ids.len()
        );
        let mut per_sender = vec![0usize; ids.len()];
        for (sender, _, _) in clocks {
            per_sender[sender.index()] += 1;
        }
        let (contact, widest) = (per_sender[0], per_sender.iter().max().unwrap());
        assert!(contact <= 64, "the contact node tracks {contact} clocks");
        assert!(*widest <= 64, "some sender tracks {widest} clocks");
    }

    #[test]
    fn the_footprint_counts_every_node_at_least_at_its_slot() {
        let cfg = || (HyParViewConfig::with_active_size(4), BrisaConfig::default());
        // A node's estimate is its own inline size, counted once, plus
        // what each layer holds on the heap.
        use std::mem::size_of;
        let (hpv, brisa) = cfg();
        let fresh = BrisaNode::new(NodeId(1), hpv, brisa, Some(NodeId(0)));
        let heap = (fresh.hyparview().approx_bytes() - size_of::<HyParView>())
            + (fresh.brisa().approx_state_bytes() - size_of::<BrisaCore>());
        assert_eq!(fresh.approx_state_bytes(), size_of::<BrisaNode>() + heap);
        let mut net: Network<BrisaNode> = Network::new(
            NetworkConfig::default(),
            Box::new(ClusterLatency::default()),
        );
        for i in 0..8 {
            let (hpv, brisa) = cfg();
            net.add_node(|id| BrisaNode::new(id, hpv, brisa, (i > 0).then_some(NodeId(0))));
        }
        let at_least = |net: &Network<BrisaNode>| {
            let f = net.footprint();
            assert!(
                f.node_state_bytes >= f.nodes * Network::<BrisaNode>::slot_bytes(),
                "{f:?}: a slot is {} B",
                Network::<BrisaNode>::slot_bytes()
            );
        };
        at_least(&net);
        net.run_until(SimTime::from_secs(5));
        at_least(&net);
    }

    #[test]
    fn stack_wire_sizes_delegate() {
        assert_eq!(
            StackMsg::Hpv(HpvMsg::Join).wire_size(),
            HpvMsg::Join.wire_size()
        );
        assert_eq!(
            StackMsg::Brisa(BrisaMsg::Deactivate { symmetric: false }).wire_size(),
            BrisaMsg::Deactivate { symmetric: false }.wire_size()
        );
    }
}
