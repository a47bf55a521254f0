//! Link latency models.
//!
//! The paper evaluates BRISA on two testbeds: a 15-machine switched-Gigabit
//! cluster and a PlanetLab slice. This module provides the corresponding
//! synthetic latency models used by the simulator:
//!
//! * [`ClusterLatency`] — low, narrowly distributed latencies typical of a
//!   switched LAN.
//! * [`PlanetLabLatency`] — heavy-tailed, asymmetric per-pair wide-area
//!   latencies with per-message jitter.
//! * [`FixedLatency`] — a constant latency, useful for unit tests where
//!   deterministic timing simplifies assertions.
//!
//! Per-pair base latencies for the PlanetLab model are derived from a hash of
//! `(seed, src, dst)` so no `O(N^2)` matrix needs to be materialised and the
//! model remains deterministic even when nodes join dynamically.

use crate::node::NodeId;
use crate::time::SimDuration;
use rand::rngs::SmallRng;
use rand::Rng;

/// A model producing the one-way latency of a message from `src` to `dst`.
///
/// `Send + Sync`: the shards of a sharded simulation sample one shared
/// model, each under its own nodes' RNGs.
pub trait LatencyModel: Send + Sync {
    /// Samples the latency for one message transmission.
    fn sample(&self, src: NodeId, dst: NodeId, rng: &mut SmallRng) -> SimDuration;

    /// A deterministic "typical" latency between the pair, used by
    /// experiments that need a point-to-point reference (e.g. the stretch
    /// baseline of Figure 9). Defaults to a fresh sample.
    fn typical(&self, src: NodeId, dst: NodeId, rng: &mut SmallRng) -> SimDuration {
        self.sample(src, dst, rng)
    }

    /// A hard lower bound on [`Self::sample`] over every pair: no sampled
    /// latency is ever smaller. The sharded driver sizes its epoch window
    /// from this bound (conservative parallel DES lookahead), so a model
    /// that cannot promise one must return [`SimDuration::ZERO`] — which
    /// restricts it to a single shard.
    fn min_latency(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Constant latency between every pair of nodes.
#[derive(Debug, Clone)]
pub struct FixedLatency {
    latency: SimDuration,
}

impl FixedLatency {
    /// Creates a model with the given constant latency.
    pub fn new(latency: SimDuration) -> Self {
        FixedLatency { latency }
    }
}

impl LatencyModel for FixedLatency {
    fn sample(&self, _src: NodeId, _dst: NodeId, _rng: &mut SmallRng) -> SimDuration {
        self.latency
    }

    fn typical(&self, _src: NodeId, _dst: NodeId, _rng: &mut SmallRng) -> SimDuration {
        self.latency
    }

    fn min_latency(&self) -> SimDuration {
        self.latency
    }
}

/// Switched-LAN latency: uniformly distributed between `min` and `max`.
///
/// The defaults (100–400 µs) model the 1 Gbps switched network of the
/// paper's cluster testbed, including the scheduling noise caused by running
/// many logical nodes per physical machine.
#[derive(Debug, Clone)]
pub struct ClusterLatency {
    min: SimDuration,
    max: SimDuration,
}

impl ClusterLatency {
    /// Creates a model with the given bounds.
    pub fn new(min: SimDuration, max: SimDuration) -> Self {
        assert!(min <= max, "min latency must not exceed max latency");
        ClusterLatency { min, max }
    }
}

impl Default for ClusterLatency {
    fn default() -> Self {
        ClusterLatency::new(SimDuration::from_micros(100), SimDuration::from_micros(400))
    }
}

impl LatencyModel for ClusterLatency {
    fn sample(&self, _src: NodeId, _dst: NodeId, rng: &mut SmallRng) -> SimDuration {
        let lo = self.min.as_micros();
        let hi = self.max.as_micros();
        SimDuration::from_micros(rng.gen_range(lo..=hi))
    }

    fn typical(&self, _src: NodeId, _dst: NodeId, _rng: &mut SmallRng) -> SimDuration {
        SimDuration::from_micros((self.min.as_micros() + self.max.as_micros()) / 2)
    }

    fn min_latency(&self) -> SimDuration {
        self.min
    }
}

/// Wide-area latency in the style of PlanetLab.
///
/// Each ordered pair `(src, dst)` gets a deterministic base latency drawn
/// from a log-normal-like distribution (median `median_ms`, heavy upper
/// tail). The latency is asymmetric: `(a, b)` and `(b, a)` have independent
/// bases, reflecting the asymmetries that the paper notes "deter direct
/// communication between some nodes". Each message additionally experiences
/// multiplicative jitter of up to `jitter_frac`.
#[derive(Debug, Clone)]
pub struct PlanetLabLatency {
    seed: u64,
    median_ms: f64,
    sigma: f64,
    jitter_frac: f64,
    min: SimDuration,
}

impl PlanetLabLatency {
    /// Creates a model.
    ///
    /// * `seed` — deterministic base-latency derivation.
    /// * `median_ms` — median one-way pair latency in milliseconds.
    /// * `sigma` — log-space standard deviation (0.5–0.9 gives realistic
    ///   PlanetLab-like tails).
    /// * `jitter_frac` — per-message multiplicative jitter (e.g. 0.2 = ±20%).
    pub fn new(seed: u64, median_ms: f64, sigma: f64, jitter_frac: f64) -> Self {
        PlanetLabLatency {
            seed,
            median_ms,
            sigma,
            jitter_frac,
            min: SimDuration::from_micros(500),
        }
    }

    /// Deterministic base latency for the ordered pair.
    fn base_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        // SplitMix64 over (seed, src, dst) gives a uniform u64; convert to two
        // gaussians via Box-Muller to sample the log-normal deterministically.
        let mut x = self
            .seed
            .wrapping_mul(crate::seed::GOLDEN_GAMMA)
            .wrapping_add((src.0 as u64) << 32 | dst.0 as u64);
        let mut next = || {
            x = x.wrapping_add(crate::seed::GOLDEN_GAMMA);
            crate::seed::mix64(x)
        };
        let u1 = (next() >> 11) as f64 / (1u64 << 53) as f64;
        let u2 = (next() >> 11) as f64 / (1u64 << 53) as f64;
        let u1 = u1.max(1e-12);
        let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.median_ms * (self.sigma * gauss).exp()
    }
}

impl Default for PlanetLabLatency {
    fn default() -> Self {
        // Median one-way latency of ~40 ms with a heavy tail reaching several
        // hundred ms matches published PlanetLab RTT surveys.
        PlanetLabLatency::new(0xB215A, 40.0, 0.7, 0.2)
    }
}

impl LatencyModel for PlanetLabLatency {
    fn sample(&self, src: NodeId, dst: NodeId, rng: &mut SmallRng) -> SimDuration {
        let base = self.base_ms(src, dst);
        let jitter = 1.0 + rng.gen_range(-self.jitter_frac..=self.jitter_frac);
        let d = SimDuration::from_millis_f64(base * jitter);
        d.max(self.min)
    }

    fn typical(&self, src: NodeId, dst: NodeId, _rng: &mut SmallRng) -> SimDuration {
        SimDuration::from_millis_f64(self.base_ms(src, dst)).max(self.min)
    }

    fn min_latency(&self) -> SimDuration {
        // `sample` floors every draw at `self.min`.
        self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn fixed_is_constant() {
        let m = FixedLatency::new(SimDuration::from_millis(3));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(
                m.sample(NodeId(0), NodeId(1), &mut r),
                SimDuration::from_millis(3)
            );
        }
    }

    #[test]
    fn cluster_within_bounds() {
        let m = ClusterLatency::default();
        let mut r = rng();
        for _ in 0..1000 {
            let s = m.sample(NodeId(0), NodeId(1), &mut r);
            assert!(s >= SimDuration::from_micros(100));
            assert!(s <= SimDuration::from_micros(400));
        }
        assert_eq!(
            m.typical(NodeId(0), NodeId(1), &mut r),
            SimDuration::from_micros(250)
        );
    }

    #[test]
    #[should_panic(expected = "min latency")]
    fn cluster_rejects_inverted_bounds() {
        ClusterLatency::new(SimDuration::from_millis(2), SimDuration::from_millis(1));
    }

    #[test]
    fn planetlab_is_asymmetric_and_deterministic() {
        let m = PlanetLabLatency::default();
        let mut r = rng();
        let ab = m.typical(NodeId(1), NodeId(2), &mut r);
        let ba = m.typical(NodeId(2), NodeId(1), &mut r);
        assert_ne!(ab, ba, "pair latencies should be asymmetric");
        // Deterministic: same pair gives the same base.
        assert_eq!(ab, m.typical(NodeId(1), NodeId(2), &mut r));
    }

    #[test]
    fn planetlab_has_heavy_tail_and_floor() {
        let m = PlanetLabLatency::default();
        let mut r = rng();
        let mut samples: Vec<f64> = Vec::new();
        for i in 0..500u32 {
            for j in 0..4u32 {
                if i != j {
                    samples.push(m.sample(NodeId(i), NodeId(j), &mut r).as_millis_f64());
                }
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        let p99 = samples[(samples.len() as f64 * 0.99) as usize];
        assert!(median > 10.0 && median < 120.0, "median {median}");
        assert!(
            p99 > 2.0 * median,
            "tail should be heavy: p99={p99} median={median}"
        );
        assert!(samples.iter().all(|&s| s >= 0.5), "floor of 0.5ms enforced");
    }
}
