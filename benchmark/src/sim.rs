//! The three simulator workloads: fixed-work repetitions of one `Runner`
//! run each, sequential driver, the probe wrapped around `BrisaNode`.

use crate::layers::{ClassStats, Phases};
use crate::null::{self, Driver, NullSpec};
use crate::probe::{timer_overhead_ns, Probe, ProbeConfig, Tap};
use crate::procfs::{peak_rss_mb, Mark};
use crate::reference::{corrected, Corrected, RefTime};
use crate::report::Report;
use crate::spans::SpanLog;
use crate::stats::{
    fnv1a64, log2_hist_quantile_ms, median, paired_overhead, ratio, sorted, spread, Summary,
};
use crate::{repeat_within_budget, RunArgs};
use brisa::BrisaNode;
use brisa_metrics::percentile::percentile_of_sorted;
use brisa_simnet::SimDuration;
use brisa_telemetry::Telemetry;
use brisa_workloads::{
    scenarios, BrisaScenario, BrisaStackConfig, ChurnSpec, EngineResult, FaultSpec, IntoRunSpec,
    InvariantSuite, LinkClockInvariant, ResultMode, RunSpec, Runner, StreamSpec,
    TreeValidityInvariant,
};
use std::time::Instant;

/// One simulator workload: its scenario and its latency limit.
pub struct Plan {
    pub name: &'static str,
    pub scenario: BrisaScenario,
    /// A delivery later than this (simulated µs) is a failed operation.
    pub limit_us: u64,
    /// Whether anything short of 100 % delivery fails the run.
    pub must_deliver_all: bool,
}

/// The scenario behind `workload`; `--seed` feeds `BrisaScenario.seed`
/// and nothing else. Smoke sizes keep the whole matrix inside a unit test.
pub fn plan(workload: &str, seed: u64, smoke: bool) -> Plan {
    let size = |full: u32| if smoke { 200 } else { full };
    match workload {
        "sim-stream" => Plan {
            name: "sim-stream",
            scenario: BrisaScenario {
                nodes: size(2000),
                view_size: 4,
                seed,
                stream: StreamSpec {
                    messages: if smoke { 100 } else { 600 },
                    rate_per_sec: 200.0,
                    payload_bytes: 1024,
                },
                bootstrap: SimDuration::from_secs(20),
                drain: SimDuration::from_secs(3),
                results: ResultMode::Classic,
                ..Default::default()
            },
            limit_us: 50_000,
            must_deliver_all: true,
        },
        "sim-scale" => Plan {
            name: "sim-scale",
            scenario: BrisaScenario {
                seed,
                ..scenarios::scale_no_fault(size(5000))
            },
            limit_us: 50_000,
            must_deliver_all: true,
        },
        "sim-churn" => Plan {
            name: "sim-churn",
            scenario: BrisaScenario {
                seed,
                churn: Some(ChurnSpec {
                    rate_percent: 0.5,
                    interval: SimDuration::from_secs(5),
                    duration: SimDuration::from_secs(30),
                }),
                faults: FaultSpec::loss(0.01),
                stream: StreamSpec {
                    messages: 150,
                    rate_per_sec: 5.0,
                    payload_bytes: 1024,
                },
                drain: SimDuration::from_secs(20),
                ..scenarios::scale_no_fault(size(3000))
            },
            limit_us: 5_000_000,
            must_deliver_all: false,
        },
        other => panic!("{other} is not a simulator workload"),
    }
}

/// Everything a repetition's result says that repeats exactly for a seed.
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    attempted: u64,
    undelivered: u64,
    late: u64,
    /// Deliveries inside the latency limit: the denominator of every
    /// per-delivery figure.
    deliveries: u64,
    bytes_up: u64,
    duplicates: u64,
    p50_ms: f64,
    p99_ms: f64,
    events: u64,
    sent: u64,
    lost: u64,
    dropped: u64,
    footprint_bytes_per_node: Option<f64>,
}

impl Counts {
    fn failed(&self) -> u64 {
        self.undelivered + self.late
    }

    /// `streaming_late` is the probe's count of late deliveries at
    /// eligible nodes, used when the result itself is a streaming summary.
    fn of(r: &EngineResult, limit_us: u64, streaming_late: u64) -> Counts {
        let stats = &r.net_stats;
        let base = |attempted, delivered: u64, late: u64| Counts {
            attempted,
            undelivered: attempted - delivered,
            late,
            deliveries: delivered - late,
            bytes_up: 0,
            duplicates: 0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            events: stats.events_processed,
            sent: stats.messages_sent,
            lost: stats.messages_lost_to_faults,
            dropped: stats.messages_dropped,
            footprint_bytes_per_node: None,
        };
        if let Some(s) = &r.streaming {
            // Latencies are in log2-µs buckets: the limit resolves to the
            // bucket edge at or below it. The percentiles read the engine's
            // merged histogram (every live node).
            let buckets = s.latency.buckets();
            let late = streaming_late.min(s.got);
            return Counts {
                bytes_up: s.uploaded_bytes,
                duplicates: s.duplicates_total,
                p50_ms: log2_hist_quantile_ms(buckets, 0.50),
                p99_ms: log2_hist_quantile_ms(buckets, 0.99),
                footprint_bytes_per_node: Some(s.footprint.bytes_per_node()),
                ..base(s.expected, s.got, late)
            };
        }
        let mut latencies_us: Vec<f64> = Vec::new();
        let mut eligible = 0u64;
        let mut bytes_up = 0u64;
        let mut duplicates = 0.0f64;
        for n in &r.nodes {
            bytes_up += n.bandwidth.stab_up_bytes + n.bandwidth.diss_up_bytes;
            duplicates += n.report.duplicates_per_message * n.report.delivered as f64;
            if n.is_source || n.id.0 >= r.original_nodes {
                continue;
            }
            eligible += 1;
            for &(seq, at) in &n.report.first_delivery {
                if let Some(&published) = r.publish_times.get(seq as usize) {
                    latencies_us.push(at.saturating_since(published).as_micros() as f64);
                }
            }
        }
        let latencies_us = sorted(&latencies_us);
        let late = latencies_us
            .iter()
            .filter(|&&l| l > limit_us as f64)
            .count() as u64;
        Counts {
            bytes_up,
            duplicates: duplicates.round() as u64,
            p50_ms: percentile_of_sorted(&latencies_us, 50.0) / 1000.0,
            p99_ms: percentile_of_sorted(&latencies_us, 99.0) / 1000.0,
            ..base(
                eligible * r.messages_published,
                latencies_us.len() as u64,
                late,
            )
        }
    }
}

/// One repetition's host-time values, each without the speed reference's
/// own slices. The three phase readings also carry their value in reference
/// seconds.
struct Rep {
    setup: Corrected,
    measured: Corrected,
    measured_cpu: Corrected,
    collect_s: f64,
    total_s: f64,
    fingerprint: u64,
}

/// The part of a traced repetition the span tree is built from.
struct Traced {
    phases: Phases,
    calls: crate::probe::Calls,
    raw: Vec<crate::probe::RawSpan>,
    reference: [RefTime; 2],
}

fn stack_config(sc: &BrisaScenario) -> BrisaStackConfig {
    BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    }
}

/// Runs `spec` once under the probe. `counts` is filled on the first call
/// and checked against on the later ones — cheaply, through the
/// fingerprint, which covers every count.
fn one_rep(
    plan: &Plan,
    cfg: &BrisaStackConfig,
    spec: &RunSpec,
    telemetry: Option<&Telemetry>,
    counts: &mut Option<Counts>,
) -> (Rep, Option<Traced>) {
    let traced = telemetry.is_some();
    let tap = Tap::new(traced, false, plan.limit_us, true);
    let pcfg: ProbeConfig<BrisaNode> = ProbeConfig {
        inner: cfg.clone(),
        tap: tap.clone(),
    };
    let start = Mark::now();
    let mut runner = Runner::<Probe<BrisaNode>>::new(&pcfg, spec);
    if let Some(tel) = telemetry {
        runner = runner.telemetry(tel);
    }
    let result = runner.run();
    let end = Mark::now();
    let stream = tap.first_publish().expect("the source published");
    let collect = tap.first_collect().expect("the engine collected reports");
    if counts.is_none() {
        *counts = Some(Counts::of(&result, plan.limit_us, tap.late()));
    }
    // Every phase is read against the reference's slowdown in that phase; a
    // set-up too short to hold a slice (smoke sizes) borrows the measured
    // phase's, and a repetition without slices is left as it is.
    let [ref_setup, ref_measured] = tap.reference_time();
    let fallback = ref_measured.slowdown().unwrap_or(1.0);
    let setup = corrected(stream.secs_since(&start), ref_setup, fallback);
    let measured = corrected(end.secs_since(&stream), ref_measured, fallback);
    let rep = Rep {
        setup,
        measured,
        measured_cpu: corrected(end.cpu.since(&stream.cpu).secs(), ref_measured, fallback),
        collect_s: end.secs_since(&collect),
        total_s: setup.host_s + measured.host_s,
        fingerprint: fnv1a64(result.fingerprint().as_bytes()),
    };
    let traced = traced.then(|| Traced {
        phases: Phases {
            start: start.at,
            stream: stream.at,
            collect: collect.at,
            end: end.at,
        },
        calls: tap.calls(),
        raw: tap.take_spans(),
        reference: [ref_setup, ref_measured],
    });
    (rep, traced)
}

fn column(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// How many times slower than nominal the speed reference ran during the
/// repetition's measured phase.
fn slowdown(rep: &Rep) -> f64 {
    ratio(rep.measured.host_s, rep.measured.ref_s)
}

/// The correctness gate common to both modes; returns the fingerprint.
fn check_reps(report: &mut Report, plan: &Plan, reps: &[Rep], counts: &Counts) -> u64 {
    let fp = reps[0].fingerprint;
    report.check(
        reps.iter().all(|r| r.fingerprint == fp),
        "every repetition produces one fingerprint",
    );
    if plan.must_deliver_all {
        report.check(counts.undelivered == 0, "100 % delivery");
    }
    report.check(counts.deliveries > 0, "something was delivered");
    println!(
        "fingerprint {} seed-dependent-counts: attempted {} undelivered {} late {} events {} \
         messages_sent {} bytes_up {} => {fp:#018x}",
        plan.name,
        counts.attempted,
        counts.undelivered,
        counts.late,
        counts.events,
        counts.sent,
        counts.bytes_up,
    );
    report.attempted = counts.attempted;
    report.failed = counts.failed();
    fp
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let plan = plan(args.workload, args.seed, args.smoke);
    let cfg = stack_config(&plan.scenario);
    let spec = plan.scenario.run_spec();
    println!(
        "spec: {} nodes, {} messages at {}/s of {} B, bootstrap {} s, drain {} s, {:?} results, \
         latency limit {} ms (simulated)",
        spec.nodes,
        spec.stream.messages,
        spec.stream.rate_per_sec,
        spec.stream.payload_bytes,
        spec.bootstrap.as_secs_f64(),
        spec.drain.as_secs_f64(),
        spec.results,
        plan.limit_us as f64 / 1000.0,
    );
    let plain = (args.smoke || args.traced).then(|| plain_run_with_invariants(report, &cfg, &spec));
    let probed = if args.traced {
        run_traced(args, report, &plan, &cfg, &spec)
    } else {
        run_end_to_end(args, report, &plan, &cfg, &spec)
    };
    if let Some(plain) = plain {
        report.check(
            plain == probed,
            "Probe<BrisaNode> fingerprint equals the plain Runner::<BrisaNode> run's",
        );
    }
}

/// A plain `Runner::<BrisaNode>` run of the same spec, carrying the
/// invariant suite. The probe is behaviour-neutral when the probed
/// repetitions have this run's fingerprint — and then the suite's verdict
/// holds for them too. Returns the plain fingerprint.
///
/// `InvariantSuite::standard`'s delivery invariant reads per-sequence
/// first-delivery records, which nodes under `ResultMode::Streaming` do not
/// keep (it would report every delivery as a violation), so the streaming
/// workloads attach the suite's other two invariants.
fn plain_run_with_invariants(report: &mut Report, cfg: &BrisaStackConfig, spec: &RunSpec) -> u64 {
    let mut suite = match spec.results {
        ResultMode::Classic => InvariantSuite::standard(Some(1)),
        ResultMode::Streaming => InvariantSuite::new()
            .with(LinkClockInvariant::new())
            .with(TreeValidityInvariant::new(1)),
    };
    let plain = Runner::<BrisaNode>::new(cfg, spec)
        .invariants(&mut suite)
        .run();
    let fingerprint = fnv1a64(plain.fingerprint().as_bytes());
    println!(
        "plain Runner::<BrisaNode> run: fingerprint {fingerprint:#018x}; invariant suite ran {} times, \
         {} violations",
        suite.checks_run(),
        suite.violations().len()
    );
    report.check(
        suite.checks_run() > 0 && suite.violations().is_empty(),
        "the invariant suite has zero violations",
    );
    for v in suite.violations().iter().take(5) {
        println!("  violation [{} @ {}] {}", v.invariant, v.at, v.detail);
    }
    fingerprint
}

fn run_end_to_end(
    args: &RunArgs,
    report: &mut Report,
    plan: &Plan,
    cfg: &BrisaStackConfig,
    spec: &RunSpec,
) -> u64 {
    let mut counts = None;
    let reps = repeat_within_budget(args, 3, || one_rep(plan, cfg, spec, None, &mut counts).0);
    let counts = counts.expect("at least one repetition ran");
    println!(
        "set-up + measured wall (measured CPU) per repetition, host s:{}",
        reps.iter()
            .map(|r| format!(
                " {:.3}+{:.3}({:.2})",
                r.setup.host_s, r.measured.host_s, r.measured_cpu.host_s
            ))
            .collect::<String>()
    );
    println!(
        "the same in reference s (host s over the speed reference's slowdown in that phase):{}",
        reps.iter()
            .map(|r| format!(
                " {:.3}+{:.3}({:.2})",
                r.setup.ref_s, r.measured.ref_s, r.measured_cpu.ref_s
            ))
            .collect::<String>()
    );
    let fingerprint = check_reps(report, plan, &reps, &counts);

    let deliveries = counts.deliveries as f64;
    report.set_summary("setup_s", Summary::of(&column(&reps, |r| r.setup.ref_s)));
    report.set_summary(
        "deliveries_per_s",
        Summary::of(&column(&reps, |r| deliveries / r.measured.ref_s)),
    );
    report.set_summary(
        "cpu_us_per_delivery",
        Summary::of(&column(&reps, |r| r.measured_cpu.ref_s * 1e6 / deliveries)),
    );
    report.set("delivery_latency_p50_ms", counts.p50_ms);
    report.set("bytes_per_delivery", counts.bytes_up as f64 / deliveries);
    report.set("peak_rss_mb", peak_rss_mb());
    println!(
        "uncorrected host time, medians: set-up {:.6} s, {:.1} deliveries/s, {:.6} us CPU per \
         delivery; speed reference {:.3} times its nominal slice time",
        median(&column(&reps, |r| r.setup.host_s)),
        deliveries / median(&column(&reps, |r| r.measured.host_s)),
        median(&column(&reps, |r| r.measured_cpu.host_s)) * 1e6 / deliveries,
        median(&column(&reps, slowdown)),
    );
    println!(
        "benchmark.rep_spread (measured wall, interquartile range / median) {:.4} in reference s, \
         {:.4} in host s",
        spread(&column(&reps, |r| r.measured.ref_s)),
        spread(&column(&reps, |r| r.measured.host_s))
    );
    fingerprint
}

fn run_traced(
    args: &RunArgs,
    report: &mut Report,
    plan: &Plan,
    cfg: &BrisaStackConfig,
    spec: &RunSpec,
) -> u64 {
    // Alternate untraced and traced repetitions of the same spec; the
    // untraced ones give the overhead's base and the repetition spread.
    let order: &[bool] = if args.smoke {
        &[false, true, false, true]
    } else {
        &[false, true, false, true, false, true, false, false]
    };
    let overhead_ns = timer_overhead_ns();
    let epoch = Instant::now();
    let telemetry = Telemetry::enabled();
    let mut log = SpanLog::default();
    let mut classes = ClassStats::default();
    let mut counts = None;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut walls: Vec<f64> = Vec::new();
    for &trace in order {
        let (rep, data) = one_rep(plan, cfg, spec, trace.then_some(&telemetry), &mut counts);
        walls.push(rep.measured.ref_s);
        if let Some(t) = data {
            classes.add_rep(
                &mut log,
                "simnet.loop",
                traced.len() as u32,
                epoch,
                t.phases,
                &t.calls,
                &t.raw,
                overhead_ns,
                t.reference,
            );
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }
    let counts = counts.expect("at least one repetition ran");
    let all: Vec<Rep> = plain.into_iter().chain(traced).collect();
    let fingerprint = check_reps(report, plan, &all, &counts);
    let (plain, traced) = all.split_at(order.iter().filter(|t| !**t).count());
    let traced_reps = traced.len() as f64;

    let path = crate::out_dir().join(format!("trace-{}.jsonl", plan.name));
    match log.write_jsonl(&path) {
        Ok(()) => println!("{} spans written to {}", log.len(), path.display()),
        Err(e) => report.fail(&format!("writing {}: {e}", path.display())),
    }
    println!(
        "self time over {} traced repetitions (handler spans sampled 1 in {}, {} ns clock \
         overhead taken off each):\n{}",
        traced.len(),
        crate::probe::SAMPLE_EVERY,
        overhead_ns,
        log.render_table()
    );

    let deliveries = counts.deliveries as f64;
    let events = counts.events as f64;
    let run_ns = traced.iter().map(|r| r.total_s).sum::<f64>() * 1e9;
    let loop_self_ns = log.self_ns_of("simnet.loop");
    report.set("simnet.events", events);
    report.set("simnet.events_per_delivery", events / deliveries);
    report.set(
        "simnet.events_per_s",
        events / median(&column(plain, |r| r.total_s)),
    );
    report.set("simnet.messages_sent", counts.sent as f64);
    report.set("simnet.messages_lost_to_faults", counts.lost as f64);
    report.set("simnet.messages_dropped", counts.dropped as f64);
    report.set(
        "simnet.self_ns_per_event",
        loop_self_ns / (events * traced_reps),
    );
    report.set("simnet.self_share", loop_self_ns / run_ns);
    if let Some(f) = counts.footprint_bytes_per_node {
        report.set("simnet.footprint_bytes_per_node", f);
    }
    emit_null(args, report);
    classes.emit(report, run_ns);

    // Telemetry counters accumulate over the traced repetitions, each of
    // which counts the same.
    let counter = |name: &str| telemetry.counter(name).get() as f64 / traced_reps;
    report.set(
        "brisa.duplicates_per_delivery",
        counts.duplicates as f64 / deliveries,
    );
    report.set("brisa.gap_requests", counter("brisa.gap_requests"));
    report.set(
        "brisa.retransmissions_served",
        counter("brisa.retransmissions_served"),
    );
    report.set("brisa.soft_repairs", counter("brisa.soft_repairs"));
    report.set("brisa.hard_repairs", counter("brisa.hard_repairs"));
    report.set("brisa.latency_p99_ms", counts.p99_ms);
    report.set("brisa.late_deliveries", counts.late as f64);

    let total_s = median(&column(plain, |r| r.total_s));
    let collect_s = median(&column(plain, |r| r.collect_s));
    report.set(
        "workloads.engine.bootstrap_s",
        median(&column(plain, |r| r.setup.host_s)),
    );
    report.set("workloads.engine.collect_s", collect_s);
    report.set("workloads.engine.collect_share", collect_s / total_s);

    report.set("benchmark.reps", plain.len() as f64);
    report.set(
        "benchmark.rep_spread",
        spread(&column(plain, |r| r.measured.ref_s)),
    );
    report.set(
        "benchmark.trace_overhead_share",
        paired_overhead(order, &walls),
    );
    report.set(
        "benchmark.reference_slowdown",
        median(&column(plain, slowdown)),
    );
    fingerprint
}

/// The simulator's own cost per event under the null protocol, on every
/// driver. Fixed work, sized so the sequential drivers run for a second or
/// more; the sharded driver gets a spec forty times smaller (its epochs are
/// wake-up bound, see the README) and is compared with the sequential
/// driver on that same spec.
fn emit_null(args: &RunArgs, report: &mut Report) {
    let (big, small, shard_reps) = if args.smoke {
        let tiny = NullSpec {
            nodes: 100,
            ticks: 20,
        };
        (tiny, tiny, 3)
    } else {
        (
            NullSpec {
                nodes: 2000,
                ticks: 2000,
            },
            NullSpec {
                nodes: 1000,
                ticks: 100,
            },
            7,
        )
    };
    let seq = null::run(big, args.seed, Driver::Sequential);
    let faults = null::run(big, args.seed, Driver::Faults);
    let small_runs = |driver| -> Vec<f64> {
        (0..shard_reps)
            .map(|_| null::run(small, args.seed, driver).wall_s)
            .collect()
    };
    let seq_small = small_runs(Driver::Sequential);
    let sharded = small_runs(Driver::Sharded(2));
    let small_events = null::run(small, args.seed, Driver::Sequential).events as f64;
    println!(
        "null protocol: sequential {:.2} s / {} events, with faults {:.2} s, 2 shards {} x {:.3} s \
         against sequential {:.3} s on {} nodes x {} ticks",
        seq.wall_s,
        seq.events,
        faults.wall_s,
        sharded.len(),
        median(&sharded),
        median(&seq_small),
        small.nodes,
        small.ticks,
    );
    report.set("simnet.null_ns_per_event", seq.ns_per_event());
    report.set("simnet.faults.null_ns_per_event", faults.ns_per_event());
    report.set(
        "simnet.shard.null_ns_per_event",
        ratio(median(&sharded) * 1e9, small_events),
    );
    report.set(
        "simnet.shard.slowdown",
        ratio(median(&sharded), median(&seq_small)),
    );
    report.set("simnet.shard.rep_spread", spread(&sharded));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_the_documented_specs_and_take_only_the_seed() {
        let s = plan("sim-stream", 9, false);
        assert_eq!((s.scenario.nodes, s.scenario.seed), (2000, 9));
        assert_eq!(s.scenario.stream.messages, 600);
        assert_eq!(s.scenario.results, ResultMode::Classic);
        let c = plan("sim-scale", 9, false);
        assert_eq!((c.scenario.nodes, c.scenario.stream.messages), (5000, 50));
        assert_eq!(c.scenario.results, ResultMode::Streaming);
        let h = plan("sim-churn", 9, false);
        assert_eq!(h.scenario.nodes, 3000);
        assert!(h.scenario.churn.is_some() && !h.scenario.faults.is_inert());
        assert!(!h.must_deliver_all && h.limit_us == 5_000_000);
        for p in [s, c, h] {
            assert!(
                p.scenario.nodes <= 5000,
                "rule 2: no spec above 5 000 nodes"
            );
            assert_eq!(p.scenario.view_size, 4);
            assert_eq!(p.scenario.stream.payload_bytes, 1024);
        }
        assert_eq!(plan("sim-scale", 1, true).scenario.nodes, 200);
    }
}
