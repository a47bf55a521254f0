//! Cyclon: a proactive peer sampling service.
//!
//! Cyclon (Voulgaris, Gavidia, van Steen, JNSM 2005) maintains a fixed-size
//! cache of `(peer, age)` descriptors and periodically *shuffles* part of it
//! with the oldest neighbor, producing a continuously changing random
//! overlay. The BRISA paper uses Cyclon as the membership layer of the
//! SimpleGossip baseline, noting that it performs no explicit failure
//! detection — stale descriptors are simply aged out by subsequent shuffles.

use crate::view::BoundedView;
use brisa_simnet::{NodeId, WireSize};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Cache (partial view) size.
const VIEW_SIZE: usize = 20;
/// Descriptors exchanged per shuffle.
const SHUFFLE_LENGTH: usize = 8;

/// Fixed per-message overhead charged for every Cyclon message.
pub const CYCLON_HEADER_BYTES: usize = 8;
/// Bytes per descriptor: a node identifier plus a 2-byte age.
pub const DESCRIPTOR_BYTES: usize = brisa_simnet::NodeId::WIRE_SIZE + 2;

/// A `(peer, age)` descriptor stored in the Cyclon cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Descriptor {
    /// The described peer.
    pub node: NodeId,
    /// Number of shuffle periods since the descriptor was created.
    pub age: u16,
}

/// Cyclon wire messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CyclonMsg {
    /// Shuffle request carrying a sample of the sender's cache (the sender
    /// itself is included with age 0).
    ShuffleRequest {
        /// The sample.
        descriptors: Vec<Descriptor>,
    },
    /// Answer carrying a sample of the receiver's cache.
    ShuffleResponse {
        /// The sample.
        descriptors: Vec<Descriptor>,
    },
}

impl WireSize for CyclonMsg {
    fn wire_size(&self) -> usize {
        let n = match self {
            CyclonMsg::ShuffleRequest { descriptors } => descriptors.len(),
            CyclonMsg::ShuffleResponse { descriptors } => descriptors.len(),
        };
        // A u16 descriptor count precedes the entries. No live stack carries
        // Cyclon (it has no codec; its frame protocol byte 2 is retired), so
        // this formula is the only description of its size.
        CYCLON_HEADER_BYTES + 2 + n * DESCRIPTOR_BYTES
    }
}

/// Effects produced by the Cyclon state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum CyclonOut {
    /// Send `msg` to `to`.
    Send {
        /// Destination.
        to: NodeId,
        /// Message.
        msg: CyclonMsg,
    },
}

/// The Cyclon state machine for one node. Its cache holds 20 descriptors
/// and a shuffle exchanges 8; the embedding stack owns the shuffle timer.
#[derive(Debug)]
pub struct Cyclon {
    me: NodeId,
    cache: Vec<Descriptor>,
    /// Descriptors sent in the last shuffle request, preferred for
    /// replacement when integrating the response.
    last_sent: Vec<Descriptor>,
}

impl Cyclon {
    /// Creates the state machine for node `me`.
    pub fn new(me: NodeId) -> Self {
        Cyclon {
            me,
            cache: Vec::new(),
            last_sent: Vec::new(),
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The neighbors currently known (the partial view).
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.cache.iter().map(|d| d.node).collect()
    }

    /// Number of cache entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Seeds the cache with an initial set of peers (bootstrap).
    pub fn bootstrap(&mut self, seeds: &[NodeId]) {
        for &s in seeds {
            if s != self.me && !self.contains(s) && self.cache.len() < VIEW_SIZE {
                self.cache.push(Descriptor { node: s, age: 0 });
            }
        }
    }

    fn contains(&self, node: NodeId) -> bool {
        self.cache.iter().any(|d| d.node == node)
    }

    /// A uniformly random sample of `n` distinct neighbors (used by the
    /// rumor-mongering layer of SimpleGossip to pick gossip targets).
    pub fn sample(&self, rng: &mut SmallRng, n: usize) -> Vec<NodeId> {
        let view = {
            let mut v = BoundedView::new(self.cache.len().max(1));
            for d in &self.cache {
                v.push_unique(d.node);
            }
            v
        };
        view.sample(rng, n)
    }

    /// Periodic shuffle: ages every descriptor, selects the *oldest* peer as
    /// the shuffle partner, and sends it a sample of the cache with a fresh
    /// descriptor of this node.
    pub fn shuffle_tick(&mut self, rng: &mut SmallRng) -> Vec<CyclonOut> {
        if self.cache.is_empty() {
            return Vec::new();
        }
        for d in &mut self.cache {
            d.age = d.age.saturating_add(1);
        }
        // Oldest descriptor is the shuffle partner; remove it (it will be
        // replaced by entries from the partner's response).
        let oldest_idx = self
            .cache
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| d.age)
            .map(|(i, _)| i)
            .expect("cache is non-empty");
        let partner = self.cache.remove(oldest_idx);
        // Sample l-1 other descriptors plus a fresh descriptor of ourselves.
        let mut others: Vec<Descriptor> = self.cache.clone();
        others.shuffle(rng);
        others.truncate(SHUFFLE_LENGTH - 1);
        let mut sent = others;
        sent.push(Descriptor {
            node: self.me,
            age: 0,
        });
        self.last_sent = sent.clone();
        vec![CyclonOut::Send {
            to: partner.node,
            msg: CyclonMsg::ShuffleRequest { descriptors: sent },
        }]
    }

    /// Handles a Cyclon message from `from`.
    pub fn handle(&mut self, from: NodeId, msg: CyclonMsg, rng: &mut SmallRng) -> Vec<CyclonOut> {
        match msg {
            CyclonMsg::ShuffleRequest { descriptors } => {
                // Reply with a random sample of our own cache.
                let mut reply: Vec<Descriptor> = self.cache.clone();
                reply.shuffle(rng);
                reply.truncate(SHUFFLE_LENGTH);
                let sent = reply.clone();
                self.integrate(&descriptors, &sent);
                vec![CyclonOut::Send {
                    to: from,
                    msg: CyclonMsg::ShuffleResponse { descriptors: reply },
                }]
            }
            CyclonMsg::ShuffleResponse { descriptors } => {
                let sent = std::mem::take(&mut self.last_sent);
                self.integrate(&descriptors, &sent);
                Vec::new()
            }
        }
    }

    /// Integrates received descriptors: never add self or duplicates, fill
    /// empty slots first, then replace entries that were sent to the peer,
    /// then replace the oldest entries.
    fn integrate(&mut self, received: &[Descriptor], sent: &[Descriptor]) {
        for &d in received {
            if d.node == self.me || self.contains(d.node) {
                continue;
            }
            if self.cache.len() < VIEW_SIZE {
                self.cache.push(d);
                continue;
            }
            // Replace an entry we sent away, if one is still present.
            if let Some(pos) = self
                .cache
                .iter()
                .position(|c| sent.iter().any(|s| s.node == c.node))
            {
                self.cache[pos] = d;
                continue;
            }
            // Otherwise replace the oldest entry.
            if let Some((pos, oldest)) = self
                .cache
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| c.age)
                .map(|(i, c)| (i, c.age))
            {
                if oldest >= d.age {
                    self.cache[pos] = d;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    #[test]
    fn bootstrap_ignores_self_and_duplicates() {
        let mut c = Cyclon::new(NodeId(0));
        c.bootstrap(&[NodeId(0), NodeId(1), NodeId(1), NodeId(2)]);
        assert_eq!(c.len(), 2);
        assert!(!c.neighbors().contains(&NodeId(0)));
    }

    #[test]
    fn shuffle_targets_oldest_and_includes_self() {
        let mut c = Cyclon::new(NodeId(0));
        c.bootstrap(&[NodeId(1), NodeId(2), NodeId(3)]);
        // Age node 2 artificially by two rounds of shuffling with empty integration.
        let mut r = rng();
        let outs = c.shuffle_tick(&mut r);
        assert_eq!(outs.len(), 1);
        let CyclonOut::Send { to, msg } = &outs[0];
        // All descriptors aged equally, so the partner is simply one of them.
        assert!([NodeId(1), NodeId(2), NodeId(3)].contains(to));
        match msg {
            CyclonMsg::ShuffleRequest { descriptors } => {
                assert!(descriptors
                    .iter()
                    .any(|d| d.node == NodeId(0) && d.age == 0));
            }
            _ => panic!("expected a shuffle request"),
        }
        // The partner was removed from the cache pending the response.
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn request_response_exchanges_descriptors() {
        let mut a = Cyclon::new(NodeId(0));
        let mut b = Cyclon::new(NodeId(1));
        a.bootstrap(&[NodeId(1)]);
        b.bootstrap(&[NodeId(3), NodeId(4)]);
        let mut r = rng();
        let outs = a.shuffle_tick(&mut r);
        let mut response = Vec::new();
        for CyclonOut::Send { to, msg } in outs {
            assert_eq!(to, NodeId(1), "the only neighbor is the shuffle partner");
            response = b.handle(NodeId(0), msg, &mut r);
        }
        assert!(!response.is_empty(), "partner must answer");
        for CyclonOut::Send { to, msg } in response {
            assert_eq!(to, NodeId(0));
            a.handle(NodeId(1), msg, &mut r);
        }
        // B learned about A (descriptor with age 0) and possibly node 2.
        assert!(b.neighbors().contains(&NodeId(0)));
        // A learned something from B's cache.
        assert!(a
            .neighbors()
            .iter()
            .any(|n| [NodeId(3), NodeId(4)].contains(n)));
    }

    #[test]
    fn cache_never_exceeds_view_size_nor_contains_self() {
        // Four times the cache's worth of nodes, so caches fill and the
        // bound is what stops them.
        let n = 4 * VIEW_SIZE as u32;
        let mut nodes: HashMap<NodeId, Cyclon> = (0..n)
            .map(|i| (NodeId(i), Cyclon::new(NodeId(i))))
            .collect();
        // Ring bootstrap.
        for i in 0..n {
            let seeds: Vec<NodeId> = (1..=3).map(|k| NodeId((i + k) % n)).collect();
            nodes.get_mut(&NodeId(i)).unwrap().bootstrap(&seeds);
        }
        let mut r = rng();
        for _round in 0..30 {
            for i in 0..n {
                let outs = nodes.get_mut(&NodeId(i)).unwrap().shuffle_tick(&mut r);
                for CyclonOut::Send { to, msg } in outs {
                    let replies = nodes.get_mut(&to).unwrap().handle(NodeId(i), msg, &mut r);
                    for CyclonOut::Send { to: back, msg } in replies {
                        nodes.get_mut(&back).unwrap().handle(to, msg, &mut r);
                    }
                }
            }
        }
        assert!(
            nodes.values().any(|c| c.len() == VIEW_SIZE),
            "no cache reached the bound"
        );
        for (id, c) in &nodes {
            assert!(c.len() <= VIEW_SIZE);
            assert!(!c.neighbors().contains(id));
            let mut ns = c.neighbors();
            ns.sort();
            ns.dedup();
            assert_eq!(ns.len(), c.len(), "no duplicate descriptors");
        }
        // The overlay keeps everyone reachable in the union graph.
        let mut visited = vec![false; n as usize];
        let mut stack = vec![NodeId(0)];
        visited[0] = true;
        while let Some(cur) = stack.pop() {
            for peer in nodes[&cur].neighbors() {
                if !visited[peer.index()] {
                    visited[peer.index()] = true;
                    stack.push(peer);
                }
            }
        }
        assert!(visited.iter().all(|&v| v), "cyclon overlay stays connected");
    }

    #[test]
    fn sample_returns_distinct_neighbors() {
        let mut c = Cyclon::new(NodeId(0));
        c.bootstrap(&(1..=10).map(NodeId).collect::<Vec<_>>());
        let mut r = rng();
        let s = c.sample(&mut r, 4);
        assert_eq!(s.len(), 4);
        let mut d = s.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn wire_size_scales_with_descriptor_count() {
        let one = CyclonMsg::ShuffleRequest {
            descriptors: vec![Descriptor {
                node: NodeId(1),
                age: 0,
            }],
        };
        let three = CyclonMsg::ShuffleRequest {
            descriptors: vec![
                Descriptor {
                    node: NodeId(1),
                    age: 0,
                },
                Descriptor {
                    node: NodeId(2),
                    age: 1,
                },
                Descriptor {
                    node: NodeId(3),
                    age: 2,
                },
            ],
        };
        assert_eq!(three.wire_size() - one.wire_size(), 2 * DESCRIPTOR_BYTES);
    }
}
