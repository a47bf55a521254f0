//! The one sizing knob of the live runtime that callers set.
//!
//! Timings with one value everywhere are constants beside the code that
//! reads them: the connect timeout, the idle-link cut-off and the dial and
//! re-dial budgets in the reactor's connection table, and the delay after
//! which a connection attempt across a partition surfaces as a link-down,
//! which *is* the simulator's [`brisa_simnet::FAILURE_DETECTION_DELAY`]
//! (see [`shim`](crate::shim)) rather than a copy of it.

/// Sizing parameters of the live runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Reactor worker threads, and the pool's whole thread count. Every
    /// node is pinned to the shard `id % workers`; each worker multiplexes
    /// its nodes' protocol callbacks, timers and sockets, connects
    /// included, on one `epoll` loop.
    pub workers: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { workers: 4 }
    }
}
