//! The metric catalogue and the run's output: every metric by name with
//! its unit, then one closing JSON line.
//!
//! The catalogue here and the lists in the root `BENCHMARK.json` are the
//! same names and units; the smoke test holds them together.

use crate::stats::Summary;
use std::fmt::Write as _;

/// Which workloads run the layer a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    All,
    /// The three simulator workloads.
    Sim,
    /// Simulator workloads collected through `ResultMode::Streaming`, the
    /// only mode whose result carries the footprint sample.
    SimStreaming,
    /// `live-tcp`.
    Live,
}

impl Scope {
    pub fn covers(self, workload: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Sim => workload.starts_with("sim-"),
            Scope::SimStreaming => matches!(workload, "sim-scale" | "sim-churn"),
            Scope::Live => workload == "live-tcp",
        }
    }
}

pub const WORKLOADS: [&str; 4] = ["sim-stream", "sim-scale", "sim-churn", "live-tcp"];

/// End-to-end metrics: the same six names on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("deliveries_per_s", "1/s"),
    ("cpu_us_per_delivery", "us"),
    ("delivery_latency_p50_ms", "ms"),
    ("bytes_per_delivery", "B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, with the workloads that run the layer. A workload
/// outside a metric's scope still prints the name — the contract wants
/// every name on every traced run — with the value 0 and the note `n/a`.
pub const PER_LAYER: [(&str, &str, Scope); 63] = [
    ("simnet.events", "count", Scope::Sim),
    ("simnet.events_per_delivery", "count", Scope::Sim),
    ("simnet.events_per_s", "1/s", Scope::Sim),
    ("simnet.messages_sent", "count", Scope::Sim),
    ("simnet.messages_lost_to_faults", "count", Scope::Sim),
    ("simnet.messages_dropped", "count", Scope::Sim),
    ("simnet.self_ns_per_event", "ns", Scope::Sim),
    ("simnet.self_share", "share", Scope::Sim),
    ("simnet.footprint_bytes_per_node", "B", Scope::SimStreaming),
    ("simnet.null_ns_per_event", "ns", Scope::Sim),
    ("simnet.faults.null_ns_per_event", "ns", Scope::Sim),
    ("simnet.shard.null_ns_per_event", "ns", Scope::Sim),
    ("simnet.shard.slowdown", "ratio", Scope::Sim),
    ("simnet.shard.rep_spread", "share", Scope::Sim),
    ("membership.hyparview.msgs", "count", Scope::All),
    ("membership.hyparview.ns_per_msg", "ns", Scope::All),
    ("membership.hyparview.timer_ticks", "count", Scope::All),
    ("membership.hyparview.ns_per_tick", "ns", Scope::All),
    ("membership.hyparview.link_downs", "count", Scope::All),
    ("membership.hyparview.share", "share", Scope::All),
    ("brisa.core.data_msgs", "count", Scope::All),
    ("brisa.core.data_ns_per_msg", "ns", Scope::All),
    ("brisa.core.control_msgs", "count", Scope::All),
    ("brisa.core.control_ns_per_msg", "ns", Scope::All),
    ("brisa.core.repair_ticks", "count", Scope::All),
    ("brisa.core.ns_per_repair_tick", "ns", Scope::All),
    ("brisa.core.share", "share", Scope::All),
    ("brisa.duplicates_per_delivery", "ratio", Scope::All),
    ("brisa.gap_requests", "count", Scope::All),
    ("brisa.retransmissions_served", "count", Scope::All),
    ("brisa.soft_repairs", "count", Scope::All),
    ("brisa.hard_repairs", "count", Scope::All),
    ("brisa.latency_p99_ms", "ms", Scope::Sim),
    ("brisa.late_deliveries", "count", Scope::All),
    ("workloads.engine.bootstrap_s", "s", Scope::Sim),
    ("workloads.engine.collect_s", "s", Scope::Sim),
    ("workloads.engine.collect_share", "share", Scope::Sim),
    ("runtime.cluster.launch_s", "s", Scope::Live),
    ("runtime.cluster.stop_s", "s", Scope::Live),
    ("runtime.reactor.frames_out", "count", Scope::Live),
    ("runtime.reactor.bytes_out", "B", Scope::Live),
    ("runtime.reactor.frames_per_delivery", "ratio", Scope::Live),
    ("runtime.reactor.timers_fired", "count", Scope::Live),
    ("runtime.reactor.backpressure_stalls", "count", Scope::Live),
    ("runtime.reactor.redials", "count", Scope::Live),
    ("runtime.reactor.links_reaped", "count", Scope::Live),
    ("runtime.reactor.decode_errors", "count", Scope::Live),
    ("runtime.reactor.poll_iter_mean_us", "us", Scope::Live),
    ("runtime.reactor.inbox_batch_mean", "count", Scope::Live),
    ("runtime.reactor.sys_share", "share", Scope::Live),
    ("runtime.reactor.protocol_share", "share", Scope::Live),
    ("runtime.wire.encode_ns_per_frame", "ns", Scope::Live),
    ("runtime.wire.decode_ns_per_frame", "ns", Scope::Live),
    ("runtime.wire.share", "share", Scope::Live),
    ("runtime.latency_p99_ms", "ms", Scope::Live),
    ("runtime.hop_latency_p50_us", "us", Scope::Live),
    ("runtime.tree_depth_mean", "count", Scope::Live),
    ("runtime.burst_deliveries_per_s", "1/s", Scope::Live),
    ("benchmark.reps", "count", Scope::All),
    ("benchmark.rep_spread", "share", Scope::All),
    ("benchmark.trace_overhead_share", "share", Scope::All),
    ("benchmark.gen_late_p99_ms", "ms", Scope::Live),
    ("benchmark.reference_slowdown", "ratio", Scope::Sim),
];

/// One emitted metric.
#[derive(Debug, Clone)]
pub struct Emitted {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Per-repetition quartiles, for a host-time median.
    pub summary: Option<Summary>,
}

/// What one run hands back: the metrics of its mode and the operation
/// counts of the closing line.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    traced: bool,
    emitted: Vec<Emitted>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Report {
            workload,
            traced,
            emitted: Vec::new(),
            correct: true,
            attempted: 0,
            failed: 0,
        }
    }

    /// The `(name, unit)` list of this run's mode.
    fn catalogue(&self) -> Vec<(&'static str, &'static str, Scope)> {
        if self.traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n, u, Scope::All))
                .collect()
        }
    }

    /// Records `name`. Panics on a name outside the catalogue of this
    /// run's mode, outside its scope, or set twice — all bugs in the
    /// workload code, not conditions of a run.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_with(name, value, None);
    }

    /// Records a host-time median together with its quartiles.
    pub fn set_summary(&mut self, name: &str, summary: Summary) {
        self.set_with(name, summary.median, Some(summary));
    }

    fn set_with(&mut self, name: &str, value: f64, summary: Option<Summary>) {
        let (name, unit, scope) = self
            .catalogue()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue of this mode"));
        assert!(
            scope.covers(self.workload),
            "{name} is not a metric of {}",
            self.workload
        );
        assert!(
            self.emitted.iter().all(|e| e.name != name),
            "{name} set twice"
        );
        assert!(value.is_finite(), "{name} is not a finite number");
        self.emitted.push(Emitted {
            name,
            unit,
            value,
            summary,
        });
    }

    /// A failed correctness check: printed, and the run reports
    /// `"correct": false`.
    pub fn fail(&mut self, what: &str) {
        println!("CHECK FAILED: {what}");
        self.correct = false;
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.fail(what);
        }
    }

    /// Every metric of this run's mode in catalogue order: the ones set,
    /// and 0 for a layer the workload does not run. Panics when a metric
    /// in scope was never set.
    pub fn finished(&self) -> Vec<(Emitted, bool)> {
        self.catalogue()
            .into_iter()
            .map(
                |(name, unit, scope)| match self.emitted.iter().find(|e| e.name == name) {
                    Some(e) => (e.clone(), true),
                    None => {
                        assert!(
                            !scope.covers(self.workload),
                            "{} never set {name}",
                            self.workload
                        );
                        let na = Emitted {
                            name,
                            unit,
                            value: 0.0,
                            summary: None,
                        };
                        (na, false)
                    }
                },
            )
            .collect()
    }

    /// The metric table, one line per name.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (e, ran) in self.finished() {
            write!(out, "{:<42} {:>16.6} {:<6}", e.name, e.value, e.unit).unwrap();
            if let Some(s) = e.summary {
                write!(
                    out,
                    " q1 {:.6}  q3 {:.6}  spread {:.4}  n {}",
                    s.q1,
                    s.q3,
                    crate::stats::ratio(s.q3 - s.q1, s.median.abs()),
                    s.n
                )
                .unwrap();
            }
            if !ran {
                out.push_str(" n/a: layer not run by this workload");
            }
            out.push('\n');
        }
        out
    }

    /// The closing line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .finished()
            .iter()
            .map(|(e, _)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    e.name,
                    json_number(e.value),
                    e.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float as JSON: Rust's shortest round-trip form, which is the number
/// as measured with all its digits.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The value of `"name": {"value": V` in a closing line, and `"key": N`
/// for the top-level counts. The lines are this program's own output, so a
/// scanner is enough.
pub fn json_metric(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

pub fn json_field(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\": "))?;
    let rest = &line[at + key.len() + 4..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().to_string())
}

/// One metric entry of the root `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractMetric {
    pub name: String,
    pub unit: String,
    /// Only `end_to_end` entries carry one.
    pub bound: Option<f64>,
}

/// The entries of `section` (`"end_to_end"` or `"per_layer"`) of a
/// `BENCHMARK.json` text: flat objects inside one array, so splitting on
/// braces reads them.
pub fn contract_section(contract: &str, section: &str) -> Vec<ContractMetric> {
    let Some(start) = contract.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &contract[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let string_value = |obj: &str, key: &str| -> Option<String> {
        let rest = &obj[obj.find(&format!("\"{key}\""))? + key.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|obj| {
            let bound = obj.find("\"bound\"").and_then(|at| {
                obj[at + 7..]
                    .trim_start_matches([':', ' '])
                    .split([',', '}', '\n'])
                    .next()?
                    .trim()
                    .parse()
                    .ok()
            });
            Some(ContractMetric {
                name: string_value(obj, "name")?,
                unit: string_value(obj, "unit")?,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(
            Scope::SimStreaming.covers("sim-churn") && !Scope::SimStreaming.covers("sim-stream")
        );
        assert!(Scope::Live.covers("live-tcp") && !Scope::Sim.covers("live-tcp"));
    }

    #[test]
    fn closing_line_has_exactly_the_four_keys_and_round_trips() {
        let mut r = Report::new("live-tcp", false);
        r.attempted = 1000;
        r.failed = 2;
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        let line = r.json_line();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 2, \"metrics\": {"));
        assert_eq!(json_metric(&line, "setup_s"), Some(1.5));
        assert_eq!(json_metric(&line, "peak_rss_mb"), Some(6.5));
        assert_eq!(json_metric(&line, "missing"), None);
        assert_eq!(json_field(&line, "failed").as_deref(), Some("2"));
        assert_eq!(json_field(&line, "correct").as_deref(), Some("true"));
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn a_layer_the_workload_does_not_run_reads_zero() {
        let mut r = Report::new("live-tcp", true);
        for (name, _, scope) in PER_LAYER {
            if scope.covers("live-tcp") {
                r.set(name, 1.0);
            }
        }
        let all = r.finished();
        assert_eq!(all.len(), PER_LAYER.len());
        let simnet: Vec<_> = all
            .iter()
            .filter(|(e, _)| e.name.starts_with("simnet."))
            .collect();
        assert!(!simnet.is_empty() && simnet.iter().all(|(e, ran)| !ran && e.value == 0.0));
        assert!(r.render().contains("n/a"));
    }

    #[test]
    fn contract_sections_are_read_entry_by_entry() {
        let text = r#"{"per_layer": [{"name": "x.y", "unit": "ns", "better": "lower"}],
          "end_to_end": [
            {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {
              "name": "setup_s",
              "unit": "s",
              "better": "lower",
              "bound": 0.15
            }
          ], "run_seconds": 10}"#;
        let e2e = contract_section(text, "end_to_end");
        assert_eq!(e2e.len(), 2);
        assert_eq!(
            (e2e[0].name.as_str(), e2e[0].bound),
            ("latency_ms", Some(0.1))
        );
        assert_eq!((e2e[1].unit.as_str(), e2e[1].bound), ("s", Some(0.15)));
        let layers = contract_section(text, "per_layer");
        assert_eq!(layers.len(), 1);
        assert_eq!((layers[0].name.as_str(), layers[0].bound), ("x.y", None));
        assert!(contract_section("{}", "end_to_end").is_empty());
    }

    #[test]
    #[should_panic(expected = "is not a metric of live-tcp")]
    fn a_metric_outside_its_scope_is_a_bug() {
        Report::new("live-tcp", true).set("simnet.events", 1.0);
    }
}
