//! The two sizing knobs of the live runtime that callers set.
//!
//! Timings with one value everywhere are constants beside the code that
//! reads them: the connect timeout and the dial and re-dial budgets in
//! [`reactor`](crate::reactor), and the delay after which a connection attempt across a partition
//! surfaces as a link-down, which *is* the simulator's
//! `NetworkConfig::failure_detection_delay` (see [`shim`](crate::shim))
//! rather than a copy of it.

use std::time::Duration;

/// Sizing parameters of the live runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Reactor worker threads, and the pool's whole thread count. Every
    /// node is pinned to the shard `id % workers`; each worker multiplexes
    /// its nodes' protocol callbacks, timers and sockets, connects
    /// included, on one `epoll` loop.
    pub workers: usize,
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
            idle_link_timeout: Duration::from_secs(3),
        }
    }
}
