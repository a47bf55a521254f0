//! Timing and sizing knobs of the live runtime, gathered in one place.
//!
//! Before this module existed, the 200 ms synthetic link-down detection
//! delay and the 50 → 800 ms re-dial backoff schedule were hardcoded
//! constants scattered across `shim` and `tcp` — invisible to the sim's
//! model and impossible to keep aligned with it. [`RuntimeConfig`] lifts
//! them into configuration, with defaults pinned (by unit test) to the
//! simulator's [`NetworkConfig`](brisa_simnet::NetworkConfig) so a live
//! run and a simulated run of one scenario charge the same detection and
//! reconnect timings.

use brisa_simnet::SimDuration;
use std::time::Duration;

/// Timing/sizing parameters of the live runtime: reactor shard count,
/// failure-detection delay, and the outbound dial/re-dial schedules.
///
/// The default `detection_delay` **must** equal the simulator's
/// `NetworkConfig::default().failure_detection_delay` — the unit test
/// `detection_delay_matches_the_sim_default` pins the two together, so a
/// drift in either world breaks the build instead of silently skewing the
/// divergence gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Reactor worker threads. Every node is pinned to the shard
    /// `id % workers`; each worker multiplexes its nodes' protocol
    /// callbacks, timers and sockets on one `epoll` loop.
    pub workers: usize,
    /// How long a failed connection attempt (a dial across a partition
    /// cut, a dial to a dead peer) takes to surface as a link-down — the
    /// live counterpart of the simulator's
    /// `NetworkConfig::failure_detection_delay`.
    pub detection_delay: Duration,
    /// Initial-dial retry budget. Listeners are pre-bound before any node
    /// starts, so these retries only cover transient kernel backlog
    /// pressure.
    pub connect_retries: u32,
    /// Pause between initial-dial retries.
    pub connect_retry_delay: Duration,
    /// Re-dial budget for an *established* outbound connection that fails
    /// mid-stream. Only after every attempt fails does the failure surface
    /// as a link-down.
    pub reconnect_attempts: u32,
    /// First re-dial backoff; doubles per attempt.
    pub reconnect_base: Duration,
    /// Backoff ceiling.
    pub reconnect_cap: Duration,
    /// Timeout of one blocking `connect` on the dialer thread.
    pub connect_timeout: Duration,
    /// Idle cut-off for *unmonitored* outbound links. Any send creates a
    /// connection; dissemination links live under `open_connection`
    /// monitoring and are reused for the life of a tree edge, but overlay
    /// maintenance traffic (shuffles, random walks) targets a different
    /// peer almost every time, so those connections would otherwise
    /// accumulate without bound — at in-process cluster scale, straight
    /// into the process fd ceiling. A link that is up, fully flushed,
    /// unmonitored, and idle this long is closed by the reactor's ~1 s
    /// reap sweep, announced to the receiver with a goodbye marker so the
    /// deliberate close is not mistaken for peer death.
    pub idle_link_timeout: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            detection_delay: Duration::from_millis(200),
            connect_retries: 20,
            connect_retry_delay: Duration::from_millis(25),
            reconnect_attempts: 5,
            reconnect_base: Duration::from_millis(50),
            reconnect_cap: Duration::from_millis(800),
            connect_timeout: Duration::from_secs(2),
            idle_link_timeout: Duration::from_secs(3),
        }
    }
}

impl RuntimeConfig {
    /// The exponential re-dial backoff before attempt `attempt` (0-based):
    /// `reconnect_base * 2^attempt`, capped at `reconnect_cap`. Jitter is
    /// added by the caller (deterministically, per link).
    pub fn reconnect_backoff(&self, attempt: u32) -> Duration {
        self.reconnect_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.reconnect_cap)
    }

    /// The detection delay in the simulator's time type, for comparing a
    /// live schedule against the sim's model of the same scenario.
    pub fn detection_delay_sim(&self) -> SimDuration {
        SimDuration::from_micros(self.detection_delay.as_micros() as u64)
    }

    /// Upper bound of the whole re-dial cycle (every backoff, maximum
    /// jitter, plus one connect timeout per attempt): how long a
    /// mid-stream connection failure can take to surface as a link-down.
    pub fn max_reconnect_window(&self) -> Duration {
        let mut total = Duration::ZERO;
        for attempt in 0..self.reconnect_attempts {
            let backoff = self.reconnect_backoff(attempt);
            total += backoff + backoff / 2 + self.connect_timeout;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa_simnet::NetworkConfig;

    #[test]
    fn detection_delay_matches_the_sim_default() {
        // The pin this module exists for: live synthetic link-down
        // detection and the sim's failure detection charge the same time.
        assert_eq!(
            RuntimeConfig::default().detection_delay_sim(),
            NetworkConfig::default().failure_detection_delay,
        );
    }

    #[test]
    fn reconnect_backoff_doubles_and_caps() {
        let cfg = RuntimeConfig::default();
        let schedule: Vec<u64> = (0..cfg.reconnect_attempts)
            .map(|a| cfg.reconnect_backoff(a).as_millis() as u64)
            .collect();
        assert_eq!(schedule, vec![50, 100, 200, 400, 800]);
        // Past the cap the schedule stays flat (and never overflows).
        assert_eq!(cfg.reconnect_backoff(40), cfg.reconnect_cap);
        assert!(cfg.max_reconnect_window() >= Duration::from_millis(1550));
    }
}
