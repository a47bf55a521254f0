//! SimpleGossip: push rumor mongering plus anti-entropy over Cyclon.
//!
//! The robustness end of the design spectrum (Section III-D): messages are
//! pushed to `fanout ≈ ln(N)` random peers following an infect-and-die
//! strategy, and a periodic anti-entropy pull (at twice the message creation
//! rate) repairs any omissions. Cyclon provides the random peer samples and
//! performs no explicit failure detection.

use brisa_membership::{Cyclon, CyclonMsg, CyclonOut};
use brisa_simnet::{Context, DeliveryLog, NodeId, Protocol, SimDuration, TimerTag, WireSize};
use rand::Rng;
use std::collections::BTreeMap;

/// Timer for the periodic Cyclon shuffle.
const TIMER_SHUFFLE: u16 = 1;
/// Timer for the periodic anti-entropy exchange.
const TIMER_ANTI_ENTROPY: u16 = 2;

/// Period of the Cyclon shuffle.
const SHUFFLE_PERIOD: SimDuration = SimDuration::from_secs(5);
/// Anti-entropy period: half the evaluation's message inter-arrival time,
/// i.e. twice the creation rate, as in the paper.
const ANTI_ENTROPY_PERIOD: SimDuration = SimDuration::from_millis(100);

/// Messages of the SimpleGossip stack.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipMsg {
    /// Cyclon membership traffic.
    Cyclon(CyclonMsg),
    /// A pushed rumor.
    Rumor {
        /// Sequence number.
        seq: u64,
        /// Payload size in bytes.
        payload_bytes: usize,
    },
    /// Anti-entropy digest: the sequence numbers the sender already has.
    Digest {
        /// Known sequence numbers (the stream is short enough for an
        /// explicit list; a production system would exchange ranges).
        known: Vec<u64>,
    },
    /// Anti-entropy response: messages the requester was missing.
    Missing {
        /// `(seq, payload_bytes)` pairs.
        messages: Vec<(u64, usize)>,
    },
}

impl WireSize for GossipMsg {
    fn wire_size(&self) -> usize {
        match self {
            GossipMsg::Cyclon(m) => m.wire_size(),
            GossipMsg::Rumor { payload_bytes, .. } => 16 + payload_bytes,
            GossipMsg::Digest { known } => 8 + known.len() * 8,
            GossipMsg::Missing { messages } => {
                8 + messages.iter().map(|(_, p)| 16 + p).sum::<usize>()
            }
        }
    }
}

/// A node running Cyclon + rumor mongering + anti-entropy.
pub struct SimpleGossipNode {
    /// Rumor-mongering fanout: `ln(N)` rounded up, as in the paper.
    fanout: usize,
    cyclon: Cyclon,
    seeds: Vec<NodeId>,
    /// Store of received messages (`seq -> payload size`), used both for
    /// delivery bookkeeping and to answer anti-entropy requests.
    store: BTreeMap<u64, usize>,
    delivery: DeliveryLog,
    next_seq: u64,
}

impl SimpleGossipNode {
    /// Creates a node of a `population`-node system, bootstrapped with the
    /// given Cyclon seeds.
    pub fn new(id: NodeId, population: u32, seeds: Vec<NodeId>) -> Self {
        SimpleGossipNode {
            fanout: (population as f64).ln().ceil().max(1.0) as usize,
            cyclon: Cyclon::new(id),
            seeds,
            store: BTreeMap::new(),
            delivery: DeliveryLog::default(),
            next_seq: 0,
        }
    }

    /// Delivery ledger.
    pub fn delivery(&self) -> &DeliveryLog {
        &self.delivery
    }

    /// The Cyclon view.
    pub fn cyclon(&self) -> &Cyclon {
        &self.cyclon
    }

    /// Publishes the next stream message from this node (the source).
    pub fn publish(&mut self, ctx: &mut Context<'_, GossipMsg>, payload_bytes: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.delivery.record(seq, ctx.now());
        self.store.insert(seq, payload_bytes);
        self.push_rumor(ctx, seq, payload_bytes, None);
    }

    fn push_rumor(
        &mut self,
        ctx: &mut Context<'_, GossipMsg>,
        seq: u64,
        payload_bytes: usize,
        exclude: Option<NodeId>,
    ) {
        let targets = self.cyclon.sample(ctx.rng(), self.fanout + 1);
        let mut sent = 0;
        for t in targets {
            if Some(t) == exclude || t == ctx.id() {
                continue;
            }
            if sent == self.fanout {
                break;
            }
            ctx.send(t, GossipMsg::Rumor { seq, payload_bytes });
            sent += 1;
        }
    }

    fn apply_cyclon(&mut self, ctx: &mut Context<'_, GossipMsg>, outs: Vec<CyclonOut>) {
        for CyclonOut::Send { to, msg } in outs {
            ctx.send(to, GossipMsg::Cyclon(msg));
        }
    }
}

impl Protocol for SimpleGossipNode {
    type Message = GossipMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, GossipMsg>) {
        let seeds = self.seeds.clone();
        self.cyclon.bootstrap(&seeds);
        let off1 = SimDuration::from_micros(ctx.rng().gen_range(0..SHUFFLE_PERIOD.as_micros()));
        let off2 =
            SimDuration::from_micros(ctx.rng().gen_range(0..ANTI_ENTROPY_PERIOD.as_micros()));
        ctx.set_timer(off1, TimerTag::of_kind(TIMER_SHUFFLE));
        ctx.set_timer(off2, TimerTag::of_kind(TIMER_ANTI_ENTROPY));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, GossipMsg>, from: NodeId, msg: GossipMsg) {
        match msg {
            GossipMsg::Cyclon(m) => {
                let outs = self.cyclon.handle(from, m, ctx.rng());
                self.apply_cyclon(ctx, outs);
            }
            GossipMsg::Rumor { seq, payload_bytes } => {
                if self.delivery.record(seq, ctx.now()) {
                    self.store.insert(seq, payload_bytes);
                    // Infect-and-die: forward only upon the first reception.
                    self.push_rumor(ctx, seq, payload_bytes, Some(from));
                }
            }
            GossipMsg::Digest { known } => {
                let missing: Vec<(u64, usize)> = self
                    .store
                    .iter()
                    .filter(|(seq, _)| !known.contains(seq))
                    .map(|(&seq, &p)| (seq, p))
                    .collect();
                if !missing.is_empty() {
                    ctx.send(from, GossipMsg::Missing { messages: missing });
                }
            }
            GossipMsg::Missing { messages } => {
                for (seq, payload_bytes) in messages {
                    if self.delivery.record(seq, ctx.now()) {
                        self.store.insert(seq, payload_bytes);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, GossipMsg>, tag: TimerTag) {
        match tag.kind {
            TIMER_SHUFFLE => {
                let outs = self.cyclon.shuffle_tick(ctx.rng());
                self.apply_cyclon(ctx, outs);
                ctx.set_timer(SHUFFLE_PERIOD, TimerTag::of_kind(TIMER_SHUFFLE));
            }
            TIMER_ANTI_ENTROPY => {
                if let Some(peer) = self.cyclon.sample(ctx.rng(), 1).first().copied() {
                    let known: Vec<u64> = self.store.keys().copied().collect();
                    ctx.send(peer, GossipMsg::Digest { known });
                }
                ctx.set_timer(ANTI_ENTROPY_PERIOD, TimerTag::of_kind(TIMER_ANTI_ENTROPY));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa_simnet::latency::ClusterLatency;
    use brisa_simnet::{Network, NetworkConfig, SimTime};

    #[test]
    fn gossip_delivers_to_everyone_with_duplicates() {
        let n = 48u32;
        let mut net: Network<SimpleGossipNode> = Network::new(
            NetworkConfig::default(),
            Box::new(ClusterLatency::default()),
        );
        let mut ids = Vec::new();
        for i in 0..n {
            // Ring-ish bootstrap seeds.
            let seeds: Vec<NodeId> = (1..=4).map(|k| NodeId((i + k) % n)).collect();
            ids.push(net.add_node(move |id| SimpleGossipNode::new(id, n, seeds)));
        }
        net.run_until(SimTime::from_secs(10));
        let source = ids[0];
        for _ in 0..5 {
            net.invoke(source, |node, ctx| node.publish(ctx, 256));
            net.run_for(SimDuration::from_millis(200));
        }
        net.run_for(SimDuration::from_secs(10));
        let mut complete = 0;
        let mut dups = 0u64;
        for &id in &ids {
            let s = net.node(id).unwrap().delivery();
            if s.delivered() == 5 {
                complete += 1;
            }
            dups += s.duplicates();
        }
        assert_eq!(complete, n as usize, "anti-entropy guarantees completeness");
        assert!(dups > 0, "rumor mongering necessarily produces duplicates");
    }
}
