//! Zero-dependency observability for the BRISA reproduction.
//!
//! Two cooperating pieces, behind one cheap handle:
//!
//! * a [`Registry`] of named counters, gauges and log2 histograms — the
//!   always-on numeric health of a run, exported as JSON-lines snapshots
//!   on whatever tick the harness chooses, and
//! * a [`FlightRecorder`] — bounded per-shard ring buffers of structured
//!   [`Event`]s (link churn, dial attempts, tree transitions, loss
//!   recovery, invariant sweeps, reactor loop health), dumped on demand:
//!   on a failed divergence gate, a tripped invariant, or a panic.
//!
//! The [`Telemetry`] handle is the only type the instrumented crates
//! see. It is either *enabled* (wrapping an `Arc` of the registry and
//! recorder) or *disabled* (`Telemetry::disabled()`, the default
//! everywhere) — and the disabled form is **strictly out-of-band**: every
//! record method is a no-op on a `None`, no RNG is touched, no event is
//! scheduled, no time is read. A sim run with a disabled handle is
//! bit-identical to one with no telemetry wired at all, and a run with an
//! *enabled* handle is bit-identical to both (recording only touches
//! atomics and mutexes outside the simulation state) — the fingerprint
//! tests in `tests/integration_telemetry.rs` enforce exactly this, the
//! same discipline as the inert fault layer.
//!
//! Timestamps are microseconds since the run's epoch: the simulator's
//! clock in a simulated run, [`WallClock`](../brisa_runtime) micros in a
//! live one — directly comparable, which is the point: a flight-recorder
//! dump from a live soak lines up against the sim's prediction of the
//! same schedule.

mod event;
mod recorder;
mod registry;

pub use event::{Event, EventKind};
pub use recorder::FlightRecorder;
pub use registry::{bucket_of, Counter, Gauge, Histo, Registry, HIST_BUCKETS};

use std::sync::Arc;

/// Sizing of an enabled telemetry instance.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Flight-recorder shards (one per expected concurrent writer; the
    /// live runtime uses its reactor worker count).
    pub shards: usize,
    /// Events retained per shard before the ring overwrites the oldest.
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            shards: 8,
            ring_capacity: 8192,
        }
    }
}

struct Inner {
    registry: Registry,
    recorder: FlightRecorder,
}

/// The handle instrumented code holds. Cloning is an `Arc` clone (or a
/// copy of `None` when disabled); every method is a no-op on a disabled
/// handle.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

/// A disabled handle usable in constant/static position (what
/// `Context::external` wires when the driver passes no telemetry).
pub static DISABLED: Telemetry = Telemetry(None);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The disabled handle: every operation is a no-op.
    pub const fn disabled() -> Self {
        Telemetry(None)
    }

    /// An enabled handle with default sizing.
    pub fn enabled() -> Self {
        Self::with_config(TelemetryConfig::default())
    }

    /// An enabled handle with explicit recorder sizing.
    pub fn with_config(cfg: TelemetryConfig) -> Self {
        Telemetry(Some(Arc::new(Inner {
            registry: Registry::new(),
            recorder: FlightRecorder::new(cfg.shards, cfg.ring_capacity),
        })))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Resolves the counter `name` (a no-op handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.0 {
            Some(inner) => inner.registry.counter(name),
            None => Counter::noop(),
        }
    }

    /// Resolves the gauge `name` (a no-op handle when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.0 {
            Some(inner) => inner.registry.gauge(name),
            None => Gauge::noop(),
        }
    }

    /// Resolves the histogram `name` (a no-op handle when disabled).
    pub fn histogram(&self, name: &str) -> Histo {
        match &self.0 {
            Some(inner) => inner.registry.histogram(name),
            None => Histo::noop(),
        }
    }

    /// Records a flight-recorder event, sharded by `node`.
    pub fn event(&self, at_us: u64, node: u32, kind: EventKind, a: u64, b: u64) {
        if let Some(inner) = &self.0 {
            inner.recorder.record(Event {
                at_us,
                node,
                kind,
                a,
                b,
            });
        }
    }

    /// Records a flight-recorder event onto an explicit shard (reactor
    /// workers pin their loop events to their own shard).
    pub fn event_on_shard(
        &self,
        shard: usize,
        at_us: u64,
        node: u32,
        kind: EventKind,
        a: u64,
        b: u64,
    ) {
        if let Some(inner) = &self.0 {
            inner.recorder.record_shard(
                shard,
                Event {
                    at_us,
                    node,
                    kind,
                    a,
                    b,
                },
            );
        }
    }

    /// Direct access to the recorder (None when disabled).
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.0.as_ref().map(|inner| &inner.recorder)
    }

    /// One JSON snapshot line of every registered metric, stamped
    /// `at_us`. Empty string when disabled (callers write nothing).
    pub fn snapshot_jsonl(&self, at_us: u64) -> String {
        match &self.0 {
            Some(inner) => inner.registry.snapshot_json(at_us),
            None => String::new(),
        }
    }

    /// Every retained event from `since_us` on, one JSON line each
    /// (trailing newline included; empty string when disabled or when
    /// nothing qualifies).
    pub fn dump_events_jsonl(&self, since_us: u64) -> String {
        let Some(inner) = &self.0 else {
            return String::new();
        };
        let events = inner.recorder.events_since(since_us);
        let mut out = String::with_capacity(events.len() * 80);
        for ev in events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Installs a panic hook that dumps the retained flight-recorder
    /// events (and one final metric snapshot) to `path` before the
    /// previous hook runs, so a crashed soak carries its own post-mortem.
    /// No-op on a disabled handle. The hook chain is process-global;
    /// install once per run.
    pub fn install_panic_dump(&self, path: &std::path::Path) {
        let Some(inner) = self.0.as_ref().map(Arc::clone) else {
            return;
        };
        let path = path.to_path_buf();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let mut out = inner.registry.snapshot_json(u64::MAX);
            out.push('\n');
            for ev in inner.recorder.events_since(0) {
                out.push_str(&ev.to_json());
                out.push('\n');
            }
            let _ = std::fs::write(&path, out);
            prev(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("x").inc();
        tel.gauge("g").set(1);
        tel.histogram("h").record(1);
        tel.event(0, 0, EventKind::LinkUp, 0, 0);
        assert_eq!(tel.snapshot_jsonl(0), "");
        assert_eq!(tel.dump_events_jsonl(0), "");
        assert!(tel.recorder().is_none());
        assert!(!DISABLED.is_enabled());
    }

    #[test]
    fn enabled_handle_records_and_dumps() {
        let tel = Telemetry::enabled();
        assert!(tel.is_enabled());
        let c = tel.counter("brisa.delivered");
        c.add(5);
        tel.event(100, 3, EventKind::Adopt, 1, 1);
        tel.event(200, 3, EventKind::Orphan, 1, 0);
        let snap = tel.snapshot_jsonl(250);
        assert!(snap.contains("\"brisa.delivered\":5"));
        let dump = tel.dump_events_jsonl(150);
        assert_eq!(dump.lines().count(), 1);
        assert!(dump.contains("\"kind\":\"orphan\""));
        // Clones share state.
        let clone = tel.clone();
        clone.counter("brisa.delivered").inc();
        assert_eq!(tel.counter("brisa.delivered").get(), 6);
    }

    #[test]
    fn event_shard_pinning_reaches_the_dump() {
        let tel = Telemetry::with_config(TelemetryConfig {
            shards: 2,
            ring_capacity: 8,
        });
        tel.event_on_shard(1, 10, 99, EventKind::PollLoop, 1500, 3);
        let dump = tel.dump_events_jsonl(0);
        assert!(dump.contains("\"kind\":\"poll_loop\""));
        assert_eq!(tel.recorder().unwrap().total_recorded(), 1);
    }
}
