//! Deterministic fault injection.
//!
//! The fault layer sits between the drain of a protocol's `Send` commands
//! and the scheduling of the corresponding `Deliver` events: every message
//! the simulator is about to put on the wire passes through
//! `FaultLayer::route`, which may drop it (per-link Bernoulli loss or an
//! active partition cut), delay it (latency degradation, jitter, or a
//! delaying partition) or pass it through untouched.
//!
//! Three fault families are modelled:
//!
//! * **Per-link message loss** ([`LinkFaults::loss_rate`]) — each
//!   transmission is lost independently with the configured probability.
//!   This models silent datagram loss / undetected corruption below the
//!   protocol's horizon.
//! * **Latency degradation** ([`LinkFaults::latency_factor`],
//!   [`LinkFaults::jitter`]) — every sampled latency is scaled by a factor
//!   and/or stretched by a uniform per-message jitter, modelling congested
//!   or degraded paths.
//! * **Timed network partitions** ([`PartitionSpec`]) — for a configured
//!   interval, traffic crossing a cut of the node set is dropped
//!   ([`PartitionMode::Drop`]) or held back until the partition heals
//!   ([`PartitionMode::Delay`]). Connections crossing the cut are *not*
//!   torn down: the model is an outage shorter than the transport's
//!   connection time-out (a real 10 s partition does not reset TCP), so
//!   failure detection stays quiet and recovery must come from the
//!   protocol's own repair machinery. Connection *attempts* across an
//!   active cut do fail after the failure-detection delay, exactly like
//!   connecting to a crashed peer.
//!
//! # Split-seed RNG discipline
//!
//! Fault draws must never perturb the rest of the simulation: enabling a
//! 0 %-loss fault layer has to produce a bit-identical run to no fault layer
//! at all, and raising the loss rate on one link must not change the random
//! draws on any other link. Draws therefore come from a dedicated
//! counter-based PRF (SplitMix64 over `(fault seed, link, counter)`), where
//! the fault seed is derived once from the master seed (the same discipline
//! as the reference-latency RNG introduced for `typical_latency`) and each
//! directed link advances its own counter. Node RNGs, the master RNG and
//! the reference RNG are never touched.

use crate::links::PerLink;
use crate::node::NodeId;
use crate::seed::{mix64, split_mix64, GOLDEN_GAMMA};
use crate::time::{SimDuration, SimTime};

/// Stream constant separating the fault PRF from the other consumers of the
/// master seed.
const FAULT_STREAM: u64 = 0xFA17_5EED;

/// The counter-based per-link fault PRF: a pure function of
/// `(master seed, directed link, draw counter)`.
///
/// This is the single draw function behind every fault decision. The
/// simulator and the live runtime both route through [`FaultLayer`], so for
/// the same master seed the `n`-th draw on directed link `from → to` is the
/// same number in both execution modes, which is what makes a `FaultSpec`
/// schedule *mean* the same thing in sim and live.
/// Callers own the per-link counters; the type itself is stateless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPrf {
    seed: u64,
}

impl FaultPrf {
    /// Derives the fault PRF from the master seed (the same split-seed
    /// discipline as every other consumer: faults get their own stream, so
    /// enabling them never perturbs node, master or reference RNGs).
    pub fn new(master_seed: u64) -> Self {
        FaultPrf {
            seed: split_mix64(master_seed, FAULT_STREAM),
        }
    }

    /// The `counter`-th uniform draw in `[0, 1)` of the directed link
    /// `from → to`. Counters start at 1 (the `FaultLayer` increments
    /// before drawing); each `(link, counter)` pair is drawn independently.
    pub fn unit_draw(&self, from: NodeId, to: NodeId, counter: u64) -> f64 {
        let link_seed = split_mix64(self.seed, ((from.0 as u64) << 32) | to.0 as u64);
        let bits = mix64(link_seed ^ counter.wrapping_mul(GOLDEN_GAMMA));
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-link stochastic fault profile (loss and latency degradation).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Probability in `[0, 1]` that any single transmission is silently
    /// lost. `0.0` disables loss.
    pub loss_rate: f64,
    /// Maximum extra per-message delay; each message is stretched by a
    /// uniform draw in `[0, jitter]`. [`SimDuration::ZERO`] disables jitter.
    pub jitter: SimDuration,
    /// Multiplier applied to every sampled link latency (`1.0` = nominal).
    pub latency_factor: f64,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            loss_rate: 0.0,
            jitter: SimDuration::ZERO,
            latency_factor: 1.0,
        }
    }
}

impl LinkFaults {
    /// True if this profile cannot affect any message (the pay-for-what-
    /// you-use fast path: an inert profile skips the fault layer entirely).
    pub fn is_inert(&self) -> bool {
        self.loss_rate <= 0.0 && self.jitter.is_zero() && self.latency_factor == 1.0
    }
}

/// What happens to traffic crossing an active partition cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMode {
    /// Cross-cut messages are silently dropped (counted in
    /// [`crate::NetStats::messages_cut_by_partition`]).
    Drop,
    /// Cross-cut messages are held and delivered after the partition heals
    /// (the original latency is re-applied from the heal instant, and FIFO
    /// ordering still holds per link).
    Delay,
}

/// A timed network partition: for `[start, end)`, the nodes in `island`
/// are cut from everyone else.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    island: Vec<NodeId>,
    /// First instant at which the cut is active.
    pub start: SimTime,
    /// Heal instant: the cut is inactive from here on.
    pub end: SimTime,
    /// Drop or delay cross-cut traffic.
    pub mode: PartitionMode,
}

impl PartitionSpec {
    /// Builds a partition cutting `island` from the rest of the node set
    /// over `[start, end)`. The island list is sorted and deduplicated.
    pub fn new(mut island: Vec<NodeId>, start: SimTime, end: SimTime, mode: PartitionMode) -> Self {
        assert!(start <= end, "partition must heal after it starts");
        island.sort_unstable();
        island.dedup();
        PartitionSpec {
            island,
            start,
            end,
            mode,
        }
    }

    /// The nodes forming the cut-away component, sorted ascending.
    pub fn island(&self) -> &[NodeId] {
        &self.island
    }

    /// True if the cut is active at `now`.
    pub fn active_at(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }

    /// True while active at `now` and `a`/`b` sit on opposite sides.
    pub fn cuts(&self, now: SimTime, a: NodeId, b: NodeId) -> bool {
        self.active_at(now) && (self.contains(a) != self.contains(b))
    }

    fn contains(&self, node: NodeId) -> bool {
        self.island.binary_search(&node).is_ok()
    }
}

/// Static fault configuration of a run ([`crate::NetworkConfig::faults`]).
/// Partitions can also be installed at runtime through
/// [`crate::Network::add_partition`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// The per-link stochastic profile.
    pub link: LinkFaults,
    /// Timed partitions, each active over its own window.
    pub partitions: Vec<PartitionSpec>,
}

impl FaultConfig {
    /// True if nothing in this configuration can ever affect a message.
    pub fn is_inert(&self) -> bool {
        self.link.is_inert() && self.partitions.is_empty()
    }
}

/// The routing verdict for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routed {
    /// Deliver at the given absolute time.
    Deliver(SimTime),
    /// Lost to per-link Bernoulli loss.
    LostToFaults,
    /// Dropped by an active partition cut.
    CutByPartition,
}

/// Run-time state of the fault layer: the live profile, the active
/// partitions and the per-link draw counters.
#[derive(Debug, Default)]
pub struct FaultLayer {
    link: LinkFaults,
    partitions: Vec<PartitionSpec>,
    /// Per directed link, the number of fault draws taken so far — the
    /// counter of the per-link PRF stream. Pruned alongside the rest of the
    /// per-link state when a node crashes.
    counters: PerLink<u64>,
    prf: FaultPrf,
    /// Cached `link.is_inert() && partitions.is_empty()`; lets the send
    /// path skip the layer with a single branch.
    inert: bool,
}

impl FaultLayer {
    /// A layer applying `config`, drawing from `master_seed`'s fault stream.
    pub fn new(master_seed: u64, config: FaultConfig) -> Self {
        let inert = config.is_inert();
        FaultLayer {
            link: config.link,
            partitions: config.partitions,
            counters: PerLink::default(),
            prf: FaultPrf::new(master_seed),
            inert,
        }
    }

    /// True if the layer cannot affect any message right now.
    pub fn is_inert(&self) -> bool {
        self.inert
    }

    /// The live profile's latency multiplier (it scales the sharded
    /// simulator's lookahead when it compresses latencies).
    pub fn latency_factor(&self) -> f64 {
        self.link.latency_factor
    }

    /// Replaces the live per-link profile.
    pub fn set_link_faults(&mut self, link: LinkFaults) {
        self.link = link;
        self.recompute_inert();
    }

    /// Installs an additional partition.
    pub fn add_partition(&mut self, spec: PartitionSpec) {
        self.partitions.push(spec);
        self.recompute_inert();
    }

    fn recompute_inert(&mut self) {
        self.inert = self.link.is_inert() && self.partitions.is_empty();
    }

    /// True if an active partition currently separates `a` and `b`.
    pub fn is_cut(&self, now: SimTime, a: NodeId, b: NodeId) -> bool {
        self.partitions.iter().any(|p| p.cuts(now, a, b))
    }

    /// Drops every per-link counter involving `node` (both directions);
    /// called when the node crashes so the fault state stays bounded under
    /// churn, like the FIFO link clocks.
    pub fn prune(&mut self, node: NodeId) {
        self.counters.prune(node);
    }

    /// Retires partitions whose window has fully passed. Purely
    /// time-driven, hence deterministic.
    fn retire_expired(&mut self, now: SimTime) {
        if self.partitions.iter().any(|p| now >= p.end) {
            self.partitions.retain(|p| now < p.end);
            self.recompute_inert();
        }
    }

    /// One uniform draw in `[0, 1)` from the directed link's own PRF
    /// stream. Independent per link and per call; consumes no state shared
    /// with any other randomness in the simulation.
    fn unit_draw(&mut self, from: NodeId, to: NodeId) -> f64 {
        let n = self.counters.entry(from, to);
        *n += 1;
        self.prf.unit_draw(from, to, *n)
    }

    /// Routes one message sent at `now` with sampled `latency`. Callers
    /// must check [`Self::is_inert`] first (the inert path must not even
    /// enter here, so a disabled layer is provably free).
    pub fn route(
        &mut self,
        from: NodeId,
        to: NodeId,
        now: SimTime,
        latency: SimDuration,
    ) -> Routed {
        self.retire_expired(now);
        // A cut dominates the stochastic profile: traffic that cannot cross
        // the partition is never subject to loss or jitter draws (so a
        // partition never perturbs the loss stream of uncut links).
        for p in &self.partitions {
            if p.cuts(now, from, to) {
                return match p.mode {
                    PartitionMode::Drop => Routed::CutByPartition,
                    // Latency is charged from the *send* instant, with the
                    // heal as a floor: a frame in flight when the cut lands
                    // finishes its journey, everything else is released at
                    // the heal. The live runtime calls this with zero latency
                    // (release at the heal, real transit follows), so the
                    // two worlds share one reference point.
                    PartitionMode::Delay => Routed::Deliver((now + latency).max(p.end)),
                };
            }
        }
        let mut latency = latency;
        if !self.link.is_inert() {
            if self.link.loss_rate > 0.0 && self.unit_draw(from, to) < self.link.loss_rate {
                return Routed::LostToFaults;
            }
            if self.link.latency_factor != 1.0 {
                let scaled = latency.as_micros() as f64 * self.link.latency_factor.max(0.0);
                latency = SimDuration::from_micros(scaled.round() as u64);
            }
            if !self.link.jitter.is_zero() {
                let extra = self.link.jitter.as_micros() as f64 * self.unit_draw(from, to);
                latency += SimDuration::from_micros(extra.round() as u64);
            }
        }
        Routed::Deliver(now + latency)
    }

    /// Number of per-link draw counters currently tracked (test hook).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn tracked_counters(&self) -> usize {
        self.counters.tracked_links()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(link: LinkFaults, partitions: Vec<PartitionSpec>) -> FaultLayer {
        FaultLayer::new(0xB215A, FaultConfig { link, partitions })
    }

    #[test]
    fn inert_configs_are_detected() {
        assert!(FaultConfig::default().is_inert());
        assert!(LinkFaults::default().is_inert());
        assert!(!LinkFaults {
            loss_rate: 0.01,
            ..Default::default()
        }
        .is_inert());
        assert!(!LinkFaults {
            jitter: SimDuration::from_millis(1),
            ..Default::default()
        }
        .is_inert());
        assert!(!LinkFaults {
            latency_factor: 2.0,
            ..Default::default()
        }
        .is_inert());
        let mut l = layer(LinkFaults::default(), Vec::new());
        assert!(l.is_inert());
        l.set_link_faults(LinkFaults {
            loss_rate: 0.5,
            ..Default::default()
        });
        assert!(!l.is_inert());
        l.set_link_faults(LinkFaults::default());
        assert!(l.is_inert());
    }

    #[test]
    fn loss_rate_is_respected_and_per_link_independent() {
        let lossy = LinkFaults {
            loss_rate: 0.25,
            ..Default::default()
        };
        let mut l = layer(lossy.clone(), Vec::new());
        let latency = SimDuration::from_millis(1);
        let count_losses = |l: &mut FaultLayer, from: u32, to: u32, n: usize| {
            (0..n)
                .filter(|_| {
                    l.route(NodeId(from), NodeId(to), SimTime::ZERO, latency)
                        == Routed::LostToFaults
                })
                .count()
        };
        let lost = count_losses(&mut l, 0, 1, 4000);
        assert!(
            (800..1200).contains(&lost),
            "25% loss over 4000 draws lost {lost}"
        );
        // The draws on one link are independent of activity on another:
        // interleaving traffic on (2, 3) must not change (0, 1)'s stream.
        let mut a = layer(lossy.clone(), Vec::new());
        let mut b = layer(lossy, Vec::new());
        let seq_a: Vec<Routed> = (0..100)
            .map(|_| a.route(NodeId(0), NodeId(1), SimTime::ZERO, latency))
            .collect();
        let seq_b: Vec<Routed> = (0..100)
            .map(|_| {
                let _ = b.route(NodeId(2), NodeId(3), SimTime::ZERO, latency);
                b.route(NodeId(0), NodeId(1), SimTime::ZERO, latency)
            })
            .collect();
        assert_eq!(seq_a, seq_b, "per-link streams must not interfere");
    }

    #[test]
    fn zero_loss_never_drops_and_draws_nothing() {
        let mut l = layer(
            LinkFaults {
                latency_factor: 2.0,
                ..Default::default()
            },
            Vec::new(),
        );
        let verdict = l.route(
            NodeId(0),
            NodeId(1),
            SimTime::from_secs(1),
            SimDuration::from_millis(10),
        );
        assert_eq!(
            verdict,
            Routed::Deliver(SimTime::from_secs(1) + SimDuration::from_millis(20))
        );
        assert_eq!(l.tracked_counters(), 0, "factor-only profiles never draw");
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let jitter = SimDuration::from_millis(5);
        let mut l = layer(
            LinkFaults {
                jitter,
                ..Default::default()
            },
            Vec::new(),
        );
        let base = SimDuration::from_millis(10);
        for _ in 0..500 {
            match l.route(NodeId(0), NodeId(1), SimTime::ZERO, base) {
                Routed::Deliver(at) => {
                    assert!(at >= SimTime::ZERO + base);
                    assert!(at <= SimTime::ZERO + base + jitter);
                }
                other => panic!("jitter-only profile must deliver, got {other:?}"),
            }
        }
    }

    #[test]
    fn partition_cuts_drop_and_heal() {
        let spec = PartitionSpec::new(
            vec![NodeId(3), NodeId(1)],
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            PartitionMode::Drop,
        );
        assert_eq!(spec.island(), &[NodeId(1), NodeId(3)]);
        let mut l = layer(LinkFaults::default(), vec![spec]);
        let lat = SimDuration::from_millis(1);
        // Before the window: passes.
        assert!(matches!(
            l.route(NodeId(0), NodeId(1), SimTime::from_secs(5), lat),
            Routed::Deliver(_)
        ));
        // Inside the window: cross-cut dropped, intra-side passes.
        assert_eq!(
            l.route(NodeId(0), NodeId(1), SimTime::from_secs(15), lat),
            Routed::CutByPartition
        );
        assert_eq!(
            l.route(NodeId(1), NodeId(0), SimTime::from_secs(15), lat),
            Routed::CutByPartition
        );
        assert!(matches!(
            l.route(NodeId(1), NodeId(3), SimTime::from_secs(15), lat),
            Routed::Deliver(_)
        ));
        assert!(matches!(
            l.route(NodeId(0), NodeId(2), SimTime::from_secs(15), lat),
            Routed::Deliver(_)
        ));
        assert!(l.is_cut(SimTime::from_secs(15), NodeId(0), NodeId(1)));
        assert!(!l.is_cut(SimTime::from_secs(15), NodeId(0), NodeId(2)));
        // After heal: passes again, and the expired window is retired.
        assert!(matches!(
            l.route(NodeId(0), NodeId(1), SimTime::from_secs(20), lat),
            Routed::Deliver(_)
        ));
        assert!(l.is_inert(), "expired partitions are retired");
    }

    #[test]
    fn delaying_partition_releases_at_heal() {
        let heal = SimTime::from_secs(20);
        let spec = PartitionSpec::new(
            vec![NodeId(1)],
            SimTime::from_secs(10),
            heal,
            PartitionMode::Delay,
        );
        let mut l = layer(LinkFaults::default(), vec![spec]);
        let lat = SimDuration::from_millis(7);
        // Held traffic is released at the heal instant: latency was already
        // spent in flight (it is charged from the send, not from the heal).
        assert_eq!(
            l.route(NodeId(0), NodeId(1), SimTime::from_secs(15), lat),
            Routed::Deliver(heal)
        );
        // A send whose flight straddles the heal is unaffected by the cut.
        let near = SimTime::from_micros(heal.as_micros() - 5_000);
        assert_eq!(
            l.route(NodeId(0), NodeId(1), near, lat),
            Routed::Deliver(near + lat)
        );
    }

    #[test]
    fn crash_prunes_draw_counters() {
        let mut l = layer(
            LinkFaults {
                loss_rate: 0.5,
                ..Default::default()
            },
            Vec::new(),
        );
        let lat = SimDuration::from_millis(1);
        let _ = l.route(NodeId(0), NodeId(1), SimTime::ZERO, lat);
        let _ = l.route(NodeId(1), NodeId(0), SimTime::ZERO, lat);
        let _ = l.route(NodeId(2), NodeId(3), SimTime::ZERO, lat);
        assert_eq!(l.tracked_counters(), 3);
        l.prune(NodeId(1));
        assert_eq!(l.tracked_counters(), 1, "both directions involving 1 gone");
    }

    #[test]
    #[should_panic(expected = "heal after it starts")]
    fn inverted_partition_window_is_rejected() {
        PartitionSpec::new(
            vec![NodeId(0)],
            SimTime::from_secs(2),
            SimTime::from_secs(1),
            PartitionMode::Drop,
        );
    }
}
