//! A null protocol: the simulator's own cost per event, with no protocol
//! work to hide it.
//!
//! Each node re-arms one timer and sends one empty message per tick, so a
//! run is two events per node per tick — one timer, one delivery — through
//! the same scheduler, link layer and (optionally) fault layer the real
//! stack uses. Driven through the public `Network` / `ShardedNetwork`
//! only. It cross-checks the traced run's remainder (`simnet.self_*`).

use brisa_simnet::latency::ClusterLatency;
use brisa_simnet::{
    Context, LinkFaults, Network, NetworkConfig, NodeId, Protocol, ShardedNetwork, SimDuration,
    SimTime, TimerTag,
};
use std::sync::Arc;
use std::time::Instant;

/// Fixed work of one null run.
#[derive(Debug, Clone, Copy)]
pub struct NullSpec {
    pub nodes: u32,
    pub ticks: u32,
}

const TICK: SimDuration = SimDuration::from_millis(10);

pub struct NullNode {
    peer: NodeId,
    offset: SimDuration,
    received: u64,
}

impl NullNode {
    /// Node `id` of `n`, sending to its successor — the next shard over
    /// under the sharded driver's round-robin placement, so every message
    /// crosses the epoch mailbox.
    fn new(id: NodeId, n: u32) -> Self {
        NullNode {
            peer: NodeId((id.0 + 1) % n),
            // De-synchronised ticks, as real periodic timers are.
            offset: TICK * (id.0 % 64) as u64 / 64,
            received: 0,
        }
    }
}

impl Protocol for NullNode {
    type Message = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        ctx.set_timer(self.offset, TimerTag::of_kind(0));
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {
        self.received += 1;
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ()>, tag: TimerTag) {
        ctx.send(self.peer, ());
        ctx.set_timer(TICK, tag);
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Driver {
    /// The sequential `Network`.
    Sequential,
    /// The sequential `Network` with a 1 % loss profile switched on, so
    /// every message pays the fault layer's draw.
    Faults,
    /// `ShardedNetwork` over this many shards.
    Sharded(usize),
}

/// Outcome of one null run.
#[derive(Debug, Clone, Copy)]
pub struct NullRun {
    pub wall_s: f64,
    pub events: u64,
    pub received: u64,
}

impl NullRun {
    pub fn ns_per_event(&self) -> f64 {
        crate::stats::ratio(self.wall_s * 1e9, self.events as f64)
    }
}

/// Runs `spec` once on `driver`, timing the event loop only (not the node
/// set-up before it).
pub fn run(spec: NullSpec, seed: u64, driver: Driver) -> NullRun {
    let mut config = NetworkConfig {
        seed,
        ..Default::default()
    };
    if driver == Driver::Faults {
        config.faults.link = LinkFaults {
            loss_rate: 0.01,
            ..Default::default()
        };
    }
    let end = SimTime::ZERO + TICK * spec.ticks as u64;
    let n = spec.nodes;
    // `Network` and `ShardedNetwork` mirror each other's methods but share
    // no trait; the drive is the same text against either.
    macro_rules! drive {
        ($net:expr) => {{
            let mut net = $net;
            for _ in 0..n {
                net.add_node(|id| NullNode::new(id, n));
            }
            let t = Instant::now();
            net.run_until(end);
            let wall_s = t.elapsed().as_secs_f64();
            let received = net
                .alive_ids()
                .iter()
                .map(|&id| net.node(id).expect("alive node exists").received)
                .sum();
            NullRun {
                wall_s,
                events: net.stats().events_processed,
                received,
            }
        }};
    }
    match driver {
        Driver::Sequential | Driver::Faults => drive!(Network::<NullNode>::new(
            config,
            Box::new(ClusterLatency::default())
        )),
        Driver::Sharded(shards) => drive!(ShardedNetwork::<NullNode>::new(
            config,
            Arc::new(ClusterLatency::default()),
            shards
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_events_per_node_per_tick_on_every_driver() {
        let spec = NullSpec {
            nodes: 50,
            ticks: 20,
        };
        let seq = run(spec, 7, Driver::Sequential);
        // 50 starts, then a timer and a delivery per node per tick (give or
        // take the messages still in flight at the deadline).
        assert!(
            (1_950..=2_100).contains(&seq.events),
            "{} events",
            seq.events
        );
        assert!(seq.received > 0 && seq.ns_per_event() > 0.0);
        let sharded = run(spec, 7, Driver::Sharded(2));
        assert_eq!(
            (sharded.events, sharded.received),
            (seq.events, seq.received),
            "sharded ≡ sequential"
        );
        let lossy = run(spec, 7, Driver::Faults);
        assert!(lossy.received < seq.received, "the fault layer drops ~1 %");
    }
}
