//! The cluster-wide wall clock.
//!
//! [`WallClock::now`] reports microseconds of wall time since the shared
//! epoch as the simulator's `SimTime`, so timestamps and `SimTime`-stamped
//! telemetry are directly comparable between a simulated run and a live
//! one.

use brisa_simnet::SimTime;
use std::time::{Duration, Instant};

/// A monotonic wall clock shared by every node of a cluster; `now()` is the
/// live counterpart of the simulator's global clock.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// Microseconds of wall time since the epoch, as the simulator's time
    /// type.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// The wall-clock [`Instant`] corresponding to cluster time `t` — the
    /// inverse of [`WallClock::now`]. Lets schedules expressed in the
    /// simulator's time type (partition heal instants, chaos events) be
    /// replayed against real deadlines.
    pub fn instant_at(&self, t: SimTime) -> Instant {
        self.epoch + Duration::from_micros(t.as_micros())
    }
}

/// Where the reactor's nodes read the time, in the simulator's time base:
/// a [`WallClock`] in production, a hand-advanced clock in tests.
pub(crate) trait Clock {
    fn now(&self) -> SimTime;
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        WallClock::now(self)
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}
