//! Flooding over HyParView.
//!
//! The simplest dissemination strategy on top of the PSS: a node receiving a
//! message for the first time relays it to every active-view neighbor except
//! the sender. Completeness follows from the connectivity and
//! bidirectionality of the HyParView overlay (Section II-A); the price is
//! the duplicate distribution of Figure 2, which grows with the view size.
//!
//! BRISA uses exactly this mechanism for the bootstrap flood of the first
//! stream message and as the fallback during hard repairs; here it is also a
//! standalone baseline (the `flood` series of Figure 9).

use brisa_membership::{HpvMsg, HpvSink, HyParView, HyParViewConfig};
use brisa_simnet::{
    Command, Context, DeliveryLog, NodeId, Protocol, SimDuration, TimerTag, WireSize,
};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeSet;

/// Timer for the periodic HyParView shuffle.
const TIMER_SHUFFLE: u16 = 1;
/// Timer for the periodic HyParView keep-alives.
const TIMER_KEEPALIVE: u16 = 2;

/// Messages of the flooding stack.
#[derive(Debug, Clone, PartialEq)]
pub enum FloodMsg {
    /// Membership traffic.
    Hpv(HpvMsg),
    /// A flooded stream message.
    Data {
        /// Sequence number.
        seq: u64,
        /// Payload size in bytes.
        payload_bytes: usize,
    },
}

impl WireSize for FloodMsg {
    fn wire_size(&self) -> usize {
        match self {
            FloodMsg::Hpv(m) => m.wire_size(),
            FloodMsg::Data { payload_bytes, .. } => 16 + payload_bytes,
        }
    }
}

/// A node running HyParView + flooding.
pub struct FloodNode {
    hpv: HyParView,
    contact: Option<NodeId>,
    neighbors: BTreeSet<NodeId>,
    delivery: DeliveryLog,
    next_seq: u64,
}

impl FloodNode {
    /// Creates a node joining through `contact` (`None` for the first node).
    pub fn new(id: NodeId, hpv_cfg: HyParViewConfig, contact: Option<NodeId>) -> Self {
        FloodNode {
            hpv: HyParView::new(id, hpv_cfg),
            contact,
            neighbors: BTreeSet::new(),
            delivery: DeliveryLog::default(),
            next_seq: 0,
        }
    }

    /// Delivery ledger.
    pub fn delivery(&self) -> &DeliveryLog {
        &self.delivery
    }

    /// The membership layer.
    pub fn hyparview(&self) -> &HyParView {
        &self.hpv
    }

    /// Publishes the next stream message from this node (the source).
    pub fn publish(&mut self, ctx: &mut Context<'_, FloodMsg>, payload_bytes: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.delivery.record(seq, ctx.now());
        for &peer in &self.neighbors {
            ctx.send(peer, FloodMsg::Data { seq, payload_bytes });
        }
    }

    /// Runs one membership-layer call with its effects wired into the
    /// simulator context and the neighbor set.
    fn with_hpv(
        &mut self,
        ctx: &mut Context<'_, FloodMsg>,
        call: impl FnOnce(&mut HyParView, &mut SmallRng, &mut FloodSink<'_>),
    ) {
        let (rng, commands) = ctx.rng_and_commands();
        let mut sink = FloodSink {
            commands,
            neighbors: &mut self.neighbors,
        };
        call(&mut self.hpv, rng, &mut sink);
    }
}

/// HyParView's effects as the flooding stack executes them.
struct FloodSink<'a> {
    commands: &'a mut Vec<Command<FloodMsg>>,
    neighbors: &'a mut BTreeSet<NodeId>,
}

impl HpvSink for FloodSink<'_> {
    fn send(&mut self, to: NodeId, msg: HpvMsg) {
        self.commands.push(Command::Send {
            to,
            msg: FloodMsg::Hpv(msg),
        });
    }

    fn open_connection(&mut self, peer: NodeId) {
        self.commands.push(Command::OpenConnection { peer });
    }

    fn close_connection(&mut self, peer: NodeId) {
        self.commands.push(Command::CloseConnection { peer });
    }

    fn neighbor_up(&mut self, peer: NodeId) {
        self.neighbors.insert(peer);
    }

    fn neighbor_down(&mut self, peer: NodeId) {
        self.neighbors.remove(&peer);
    }
}

impl Protocol for FloodNode {
    type Message = FloodMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, FloodMsg>) {
        if let Some(contact) = self.contact {
            let now = ctx.now();
            self.with_hpv(ctx, |hpv, _, sink| hpv.join(now, contact, sink));
        }
        let shuffle = self.hpv.config().shuffle_period;
        let keepalive = self.hpv.config().keepalive_period;
        let off1 = SimDuration::from_micros(ctx.rng().gen_range(0..shuffle.as_micros().max(1)));
        let off2 = SimDuration::from_micros(ctx.rng().gen_range(0..keepalive.as_micros().max(1)));
        ctx.set_timer(off1, TimerTag::of_kind(TIMER_SHUFFLE));
        ctx.set_timer(off2, TimerTag::of_kind(TIMER_KEEPALIVE));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, FloodMsg>, from: NodeId, msg: FloodMsg) {
        match msg {
            FloodMsg::Hpv(m) => {
                let now = ctx.now();
                self.with_hpv(ctx, |hpv, rng, sink| hpv.handle(now, from, m, rng, sink));
            }
            FloodMsg::Data { seq, payload_bytes } => {
                if self.delivery.record(seq, ctx.now()) {
                    for &peer in &self.neighbors {
                        if peer != from {
                            ctx.send(peer, FloodMsg::Data { seq, payload_bytes });
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, FloodMsg>, tag: TimerTag) {
        match tag.kind {
            TIMER_SHUFFLE => {
                self.with_hpv(ctx, |hpv, rng, sink| hpv.shuffle_tick(rng, sink));
                let p = self.hpv.config().shuffle_period;
                ctx.set_timer(p, TimerTag::of_kind(TIMER_SHUFFLE));
            }
            TIMER_KEEPALIVE => {
                let now = ctx.now();
                self.with_hpv(ctx, |hpv, _, sink| hpv.keepalive_tick(now, sink));
                let p = self.hpv.config().keepalive_period;
                ctx.set_timer(p, TimerTag::of_kind(TIMER_KEEPALIVE));
            }
            _ => {}
        }
    }

    fn on_link_down(&mut self, ctx: &mut Context<'_, FloodMsg>, peer: NodeId) {
        let now = ctx.now();
        self.with_hpv(ctx, |hpv, rng, sink| hpv.link_down(now, peer, rng, sink));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa_simnet::latency::ClusterLatency;
    use brisa_simnet::{Network, NetworkConfig, SimTime};

    fn build(n: u32, view: usize) -> (Network<FloodNode>, Vec<NodeId>) {
        let mut net: Network<FloodNode> = Network::new(
            NetworkConfig {
                seed: 7,
                ..Default::default()
            },
            Box::new(ClusterLatency::default()),
        );
        let cfg = HyParViewConfig::with_active_size(view);
        let mut ids = Vec::new();
        let first =
            net.add_node(|id| FloodNode::new(id, HyParViewConfig::with_active_size(view), None));
        ids.push(first);
        for i in 1..n {
            let cfg = cfg.clone();
            ids.push(
                net.add_node_at(SimTime::from_millis(5 * i as u64), move |id| {
                    FloodNode::new(id, cfg, Some(first))
                }),
            );
        }
        net.run_until(SimTime::from_secs(20));
        (net, ids)
    }

    #[test]
    fn flooding_reaches_every_node() {
        let (mut net, ids) = build(40, 4);
        let source = ids[0];
        for _ in 0..5 {
            net.invoke(source, |n, ctx| n.publish(ctx, 512));
            net.run_for(SimDuration::from_millis(300));
        }
        net.run_for(SimDuration::from_secs(5));
        for &id in &ids {
            assert_eq!(net.node(id).unwrap().delivery().delivered(), 5, "node {id}");
        }
    }

    #[test]
    fn larger_views_cause_more_duplicates() {
        let dup_for = |view: usize| {
            let (mut net, ids) = build(48, view);
            let source = ids[0];
            for _ in 0..5 {
                net.invoke(source, |n, ctx| n.publish(ctx, 128));
                net.run_for(SimDuration::from_millis(300));
            }
            net.run_for(SimDuration::from_secs(5));
            let total: f64 = ids
                .iter()
                .map(|&id| net.node(id).unwrap().delivery().duplicates_per_message())
                .sum::<f64>()
                / ids.len() as f64;
            total
        };
        let small = dup_for(3);
        let large = dup_for(8);
        assert!(
            large > small,
            "duplicates grow with the view size (view 3: {small:.2}, view 8: {large:.2})"
        );
    }
}
