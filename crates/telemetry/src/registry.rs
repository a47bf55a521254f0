//! The metric registry: named counters, gauges and log2 histograms.
//!
//! Metrics are cheap enough to leave in hot paths: a handle is an
//! `Arc<AtomicU64>` (or the histogram's small block of atomics), so
//! recording is a relaxed atomic add with no lock and no allocation.
//! Name resolution (`Registry::counter` etc.) takes a mutex and is meant
//! to happen once, at wiring time — instrumented components resolve
//! their handles when telemetry is attached and hold them.
//!
//! Histograms use the same 64-bucket log2 scheme as
//! `brisa_simnet::LatencyHistogram` (bucket `i > 0` covers
//! `[2^(i-1), 2^i)` µs, bucket 0 holds exact zeros), so a telemetry
//! snapshot and a bench artifact bucket identically; this crate keeps a
//! private copy of the three-line bucket function rather than a
//! dependency, pinned by the same edge tests.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets (mirrors `brisa_simnet::LATENCY_BUCKETS`).
pub const HIST_BUCKETS: usize = 64;

/// Bucket index for value `v` (same scheme as `brisa_simnet::hist`).
fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Clone, Default, Debug)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter (what a disabled registry hands out).
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op counter).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-write-wins gauge. Cloning shares the cell.
#[derive(Clone, Default, Debug)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A no-op gauge.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op gauge).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// The shared storage of one histogram: log2 buckets plus exact count,
/// sum and max, all atomics so concurrent recorders never lock.
#[derive(Debug)]
pub(crate) struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A concurrent log2 histogram handle. Cloning shares the cells.
#[derive(Clone, Default, Debug)]
pub struct Histo(Option<Arc<HistCells>>);

impl Histo {
    /// A no-op histogram.
    pub fn noop() -> Self {
        Histo(None)
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        if let Some(cells) = &self.0 {
            cells.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            cells.count.fetch_add(1, Ordering::Relaxed);
            cells.sum.fetch_add(v, Ordering::Relaxed);
            cells.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Largest recorded observation.
    pub fn max(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.max.load(Ordering::Relaxed))
    }

    /// Exact mean of the recorded observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let Some(cells) = &self.0 else { return 0.0 };
        let count = cells.count.load(Ordering::Relaxed);
        if count == 0 {
            0.0
        } else {
            cells.sum.load(Ordering::Relaxed) as f64 / count as f64
        }
    }

    /// Renders the histogram as a JSON object with sparse buckets
    /// (`[[bucket, count], …]`).
    fn to_json(&self) -> String {
        let Some(cells) = &self.0 else {
            return "{\"count\":0,\"sum\":0,\"max\":0,\"buckets\":[]}".to_string();
        };
        let mut out = String::new();
        write!(
            out,
            "{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
            cells.count.load(Ordering::Relaxed),
            cells.sum.load(Ordering::Relaxed),
            cells.max.load(Ordering::Relaxed)
        )
        .unwrap();
        let mut first = true;
        for (i, b) in cells.buckets.iter().enumerate() {
            let v = b.load(Ordering::Relaxed);
            if v > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                write!(out, "[{i},{v}]").unwrap();
            }
        }
        out.push_str("]}");
        out
    }
}

/// The named-metric store. Names are dot-separated snake_case paths
/// (`"reactor.poll_iter_us"`); snapshots render them in sorted order so
/// two snapshots of identical state are byte-identical.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histos: Mutex<BTreeMap<String, Histo>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Resolves (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Counter(Some(Arc::new(AtomicU64::new(0)))))
            .clone()
    }

    /// Resolves (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Gauge(Some(Arc::new(AtomicU64::new(0)))))
            .clone()
    }

    /// Resolves (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histo {
        let mut map = self.histos.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Histo(Some(Arc::new(HistCells::new()))))
            .clone()
    }

    /// Renders every metric as one JSON snapshot line (no trailing
    /// newline): `{"t":"snapshot","at_us":…,"counters":{…},"gauges":{…},
    /// "histos":{…}}`.
    pub fn snapshot_json(&self, at_us: u64) -> String {
        let mut out = String::with_capacity(512);
        write!(
            out,
            "{{\"t\":\"snapshot\",\"at_us\":{at_us},\"counters\":{{"
        )
        .unwrap();
        {
            let map = self.counters.lock().unwrap();
            for (i, (name, c)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "\"{name}\":{}", c.get()).unwrap();
            }
        }
        out.push_str("},\"gauges\":{");
        {
            let map = self.gauges.lock().unwrap();
            for (i, (name, g)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "\"{name}\":{}", g.get()).unwrap();
            }
        }
        out.push_str("},\"histos\":{");
        {
            let map = self.histos.lock().unwrap();
            for (i, (name, h)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "\"{name}\":{}", h.to_json()).unwrap();
            }
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_match_the_metrics_crate() {
        // Pins the private copy to `brisa_simnet::hist::bucket_of`'s
        // documented edges (the histogram lived in the metrics crate when
        // this test was named).
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn handles_share_cells_and_noops_do_nothing() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        let g = reg.gauge("g");
        g.set(7);
        assert_eq!(reg.gauge("g").get(), 7);
        let h = reg.histogram("h");
        h.record(100);
        h.record(300);
        assert_eq!(reg.histogram("h").count(), 2);
        assert_eq!(reg.histogram("h").max(), 300);
        assert!((h.mean() - 200.0).abs() < 1e-9);
        // No-op handles absorb everything silently.
        Counter::noop().inc();
        Gauge::noop().set(9);
        Histo::noop().record(9);
        assert_eq!(Counter::noop().get(), 0);
        assert_eq!(Histo::noop().count(), 0);
        assert_eq!(Histo::noop().mean(), 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("b.count").add(2);
        reg.counter("a.count").inc();
        reg.gauge("z.depth").set(5);
        reg.histogram("lat_us").record(1000);
        let snap = reg.snapshot_json(42);
        assert!(snap.starts_with("{\"t\":\"snapshot\",\"at_us\":42,"));
        let a_pos = snap.find("\"a.count\":1").unwrap();
        let b_pos = snap.find("\"b.count\":2").unwrap();
        assert!(a_pos < b_pos, "counters render in name order");
        assert!(snap.contains("\"z.depth\":5"));
        assert!(snap
            .contains("\"lat_us\":{\"count\":1,\"sum\":1000,\"max\":1000,\"buckets\":[[10,1]]}"));
        assert_eq!(
            snap,
            reg.snapshot_json(42),
            "identical state, identical bytes"
        );
    }
}
