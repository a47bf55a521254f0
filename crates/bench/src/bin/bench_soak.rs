//! Chaos soak: live clusters under scripted adversity, gated against the
//! simulator's prediction of the same script.
//!
//! Each named scenario is one [`ChaosSchedule`] — a stochastic fault
//! profile (per-link loss, a timed partition) plus timed lifecycle events
//! (kills, restarts, flash joins) — executed **twice**:
//!
//! 1. **live**, via `brisa_runtime::run_chaos`: a real cluster (reactor,
//!    codec, TCP on `127.0.0.1`, wall clock) routing through the
//!    simulator's fault layer, with periodic online invariant sweeps; and
//! 2. **simulated**, via the engine: the same population, stream, seed and
//!    (lowered) schedule through the engine's `Runner` with invariants on.
//!
//! Because both worlds run one `FaultLayer` over the same counter-based
//! split-seed PRF, the stochastic profile means the same thing in both;
//! the artifact records both outcomes side by side
//! and `gate::divergence_check` holds the live numbers to a band around
//! the sim prediction (`DivergenceBand`, see DESIGN.md).
//!
//! Acceptance, asserted by the binary itself: every scenario's invariant
//! sweeps are clean, survivor delivery is >= 99 %, the adversity its
//! `FaultSpec` names actually happened (frames lost / cut / held > 0), and
//! every scenario sits inside the divergence band. Results go to
//! `BENCH_SOAK.json`, the post-mortem record CI uploads; it is *not* a
//! committed baseline — the simulator is the baseline.
//!
//! `--smoke` shrinks to the CI-sized soak (~16 nodes, seconds per
//! scenario); `BRISA_SCALE=full` runs the 64-node two-minute streams.
//! Positional arguments filter scenarios by name.

use brisa::BrisaNode;
use brisa_bench::gate::{divergence_check, DivergenceBand, SoakRow};
use brisa_bench::{BrisaStackConfig, EngineResult, IntoRunSpec, Runner, Scale};
use brisa_metrics::percentile::percentile_of_sorted;
use brisa_metrics::report::render_table;
use brisa_runtime::{run_chaos, SoakConfig, SoakOutcome};
use brisa_simnet::{PartitionMode, SimDuration};
use brisa_telemetry::Telemetry;
use brisa_workloads::chaos::{ChaosEvent, ChaosEventKind, ChaosSchedule};
use brisa_workloads::StreamSpec;
use brisa_workloads::{FaultSpec, InvariantSuite, PartitionPhase};
use std::fmt::Write as _;
use std::time::Duration;

/// The soak dimensions of one scale tier.
struct SoakShape {
    nodes: u32,
    messages: u64,
    payload_bytes: usize,
    drain: Duration,
    sweep_interval: Duration,
}

/// One scenario's combined outcome.
struct ScenarioResult {
    name: String,
    live: SoakOutcome,
    sim: EngineResult,
    sim_latency_ms: Vec<f64>,
}

/// Fraction of the stream's injection window, as a schedule offset.
fn at(stream: &StreamSpec, frac: f64) -> SimDuration {
    SimDuration::from_millis_f64(stream.duration().as_secs_f64() * 1000.0 * frac)
}

/// The named chaos scripts of the soak matrix. Kill victims live in the
/// upper half of the identifier space so they never collide with the
/// partition island (the *lowest* non-source identifiers).
fn scenarios(nodes: u32, stream: &StreamSpec) -> Vec<ChaosSchedule> {
    let victim = nodes / 2;
    let mut steady = ChaosSchedule::named("steady_loss_1pct");
    steady.faults = FaultSpec::loss(0.01);

    let mut kill_restart = ChaosSchedule::named("kill_restart");
    kill_restart.events = vec![
        ChaosEvent {
            after: at(stream, 0.25),
            kind: ChaosEventKind::Kill { node: victim },
        },
        ChaosEvent {
            after: at(stream, 0.60),
            kind: ChaosEventKind::Restart { node: victim },
        },
    ];

    let partition = PartitionPhase::drop(0.25, at(stream, 0.30), at(stream, 0.25));
    let mut partition_heal = ChaosSchedule::named("partition_heal");
    partition_heal.faults.partition = Some(partition);

    // Same cut, but cross-cut traffic is *held* and released at the heal
    // (grey failure / congestion window). Exercises the aligned Delay
    // release semantics — arrival at `max(send + latency, heal)` in both
    // worlds — through the divergence gate.
    let mut delay_partition = ChaosSchedule::named("delay_partition_heal");
    delay_partition.faults.partition = Some(PartitionPhase::delay(
        0.25,
        at(stream, 0.30),
        at(stream, 0.25),
    ));

    let mut combined = ChaosSchedule::named("chaos_combined");
    combined.faults = FaultSpec::loss(0.01);
    combined.faults.partition = Some(partition);
    combined.events = vec![
        ChaosEvent {
            after: at(stream, 0.20),
            kind: ChaosEventKind::Kill { node: victim },
        },
        ChaosEvent {
            after: at(stream, 0.35),
            kind: ChaosEventKind::Kill { node: victim + 1 },
        },
        ChaosEvent {
            after: at(stream, 0.50),
            kind: ChaosEventKind::FlashJoin { count: 2 },
        },
        ChaosEvent {
            after: at(stream, 0.70),
            kind: ChaosEventKind::Restart { node: victim },
        },
    ];

    vec![
        steady,
        kill_restart,
        partition_heal,
        delay_partition,
        combined,
    ]
}

/// Sim latency samples, mirroring `LiveResult::latency_samples_ms`:
/// injection-to-first-delivery per (non-source node, message), in ms.
fn sim_latency_samples_ms(r: &EngineResult) -> Vec<f64> {
    let mut samples = Vec::new();
    for n in &r.nodes {
        if n.is_source {
            continue;
        }
        for &(seq, t) in &n.report.first_delivery {
            if let Some(&published) = r.publish_times.get(seq as usize) {
                samples.push(t.saturating_since(published).as_millis_f64());
            }
        }
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples
}

/// Runs one schedule through both worlds.
fn run_scenario(
    shape: &SoakShape,
    seed: u64,
    sched: &ChaosSchedule,
    telemetry: &Telemetry,
) -> ScenarioResult {
    let stream = StreamSpec {
        messages: shape.messages,
        rate_per_sec: 5.0,
        payload_bytes: shape.payload_bytes,
    };
    let scenario = sched.to_scenario(shape.nodes, stream, seed);
    let mut stack = BrisaStackConfig {
        hpv: scenario.hyparview_config(),
        brisa: scenario.brisa_config(),
    };
    // Gap recovery reaches back at most `buffer_size` messages (the
    // catch-up cursor anchors at `seq - buffer_size`), in both worlds: a
    // partition longer than the buffer horizon is unrecoverable by
    // design. Provision the buffer to cover the schedule's partition
    // window with headroom, as a production stream with a planned outage
    // tolerance would — identically for sim and live, so the divergence
    // comparison is unaffected.
    if let Some(p) = sched.faults.partition {
        let missed = (stream.rate_per_sec * p.duration.as_secs_f64()).ceil() as usize;
        stack.brisa.buffer_size = stack.brisa.buffer_size.max(missed * 2);
    }

    // Sim prediction first (fast): same schedule through the engine, with
    // the online invariant suite — the baseline must itself be clean.
    let spec = scenario.run_spec();
    let mut suite = InvariantSuite::standard(Some(scenario.brisa_config().mode.target_parents()));
    let sim = Runner::<BrisaNode>::new(&stack, &spec)
        .invariants(&mut suite)
        .run();
    suite.assert_clean();
    let sim_latency_ms = sim_latency_samples_ms(&sim);

    // Then the live soak.
    let cfg = SoakConfig {
        nodes: shape.nodes,
        seed,
        stream,
        bootstrap: Duration::from_secs(2),
        drain: shape.drain,
        sweep_interval: shape.sweep_interval,
        telemetry: telemetry.clone(),
        progress: Some(sched.name.clone()),
    };
    let live = run_chaos::<BrisaNode>(&cfg, &stack, sched).expect("launch soak cluster");
    ScenarioResult {
        name: sched.name.clone(),
        live,
        sim,
        sim_latency_ms,
    }
}

/// Aggregate live recovery traffic: `(gap requests, retransmissions
/// served, mean duplicates per message)` over non-source nodes.
fn live_recovery(outcome: &SoakOutcome) -> (u64, u64, f64) {
    let mut req = 0;
    let mut served = 0;
    let mut dup = 0.0;
    let mut n = 0u32;
    for node in &outcome.result.nodes {
        if node.id == outcome.result.source {
            continue;
        }
        req += node.report.repairs.gap_requests;
        served += node.report.repairs.retransmissions_served;
        dup += node.report.duplicates_per_message;
        n += 1;
    }
    (req, served, if n == 0 { 0.0 } else { dup / n as f64 })
}

/// Sim recovery traffic: `(gap requests, retransmissions served)`.
fn sim_recovery(r: &EngineResult) -> (u64, u64) {
    r.nodes.iter().fold((0, 0), |(a, b), n| {
        (
            a + n.report.repairs.gap_requests,
            b + n.report.repairs.retransmissions_served,
        )
    })
}

fn main() {
    let scale = Scale::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let filter: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    println!(
        "=== bench_soak — live chaos soak vs sim prediction (fault layer, lifecycle, \
         divergence gate), scale {scale:?}\n"
    );

    let shape = if smoke {
        SoakShape {
            nodes: 16,
            messages: 30,
            payload_bytes: 256,
            drain: Duration::from_secs(10),
            sweep_interval: Duration::from_secs(1),
        }
    } else {
        scale.pick(
            SoakShape {
                nodes: 64,
                messages: 600,
                payload_bytes: 1024,
                drain: Duration::from_secs(20),
                sweep_interval: Duration::from_secs(2),
            },
            SoakShape {
                nodes: 24,
                messages: 60,
                payload_bytes: 512,
                drain: Duration::from_secs(12),
                sweep_interval: Duration::from_secs(1),
            },
        )
    };
    let stream_probe = StreamSpec {
        messages: shape.messages,
        rate_per_sec: 5.0,
        payload_bytes: shape.payload_bytes,
    };
    let mut scheds = scenarios(shape.nodes, &stream_probe);
    if !filter.is_empty() {
        scheds.retain(|s| filter.iter().any(|f| **f == s.name));
        assert!(!scheds.is_empty(), "no scenario matches {filter:?}");
    }
    println!(
        "{} nodes over TCP, {} msgs x {} B @5/s, {} scenario(s)\n",
        shape.nodes,
        shape.messages,
        shape.payload_bytes,
        scheds.len()
    );

    // Telemetry: one enabled handle shared by every scenario's cluster. A
    // ticker thread appends a registry snapshot line to the JSONL artifact
    // once per second; on panic (any failed assertion) the flight
    // recorder's retained events are dumped next to the artifact, and the
    // divergence/invariant failure paths below dump explicitly too.
    let telemetry = Telemetry::enabled();
    let tel_path =
        std::env::var("BRISA_TELEMETRY_OUT").unwrap_or_else(|_| "TELEMETRY_SOAK.jsonl".to_string());
    let dump_path = std::env::var("BRISA_TELEMETRY_DUMP")
        .unwrap_or_else(|_| "TELEMETRY_DUMP.jsonl".to_string());
    telemetry.install_panic_dump(std::path::Path::new(&dump_path));
    let ticker_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let ticker = {
        let tel = telemetry.clone();
        let stop = std::sync::Arc::clone(&ticker_stop);
        let path = tel_path.clone();
        std::thread::spawn(move || {
            use std::io::Write as _;
            let epoch = std::time::Instant::now();
            let mut file = std::fs::File::create(&path).expect("create telemetry snapshot file");
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(Duration::from_secs(1));
                writeln!(
                    file,
                    "{}",
                    tel.snapshot_jsonl(epoch.elapsed().as_micros() as u64)
                )
                .expect("append telemetry snapshot");
            }
            // Final tick so even a sub-second run leaves an artifact.
            writeln!(
                file,
                "{}",
                tel.snapshot_jsonl(epoch.elapsed().as_micros() as u64)
            )
            .expect("append telemetry snapshot");
        })
    };

    let results: Vec<ScenarioResult> = scheds
        .iter()
        .enumerate()
        .map(|(i, sched)| run_scenario(&shape, 0xB215A + i as u64, sched, &telemetry))
        .collect();

    ticker_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    ticker.join().expect("telemetry ticker");

    let headers = [
        "scenario",
        "surv deliv%",
        "sim deliv%",
        "sweeps",
        "violations",
        "lost/cut/held",
        "live p50 ms",
        "sim p50 ms",
    ];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let mut live_lat = r.live.result.latency_samples_ms();
            live_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
            vec![
                r.name.clone(),
                format!("{:.2}", r.live.result.survivor_delivery_rate() * 100.0),
                format!("{:.2}", r.sim.delivery_rate() * 100.0),
                r.live.sweeps.to_string(),
                r.live.violations.len().to_string(),
                format!(
                    "{}/{}/{}",
                    r.live.shim.frames_lost, r.live.shim.frames_cut, r.live.shim.frames_delayed
                ),
                format!("{:.2}", percentile_of_sorted(&live_lat, 50.0)),
                format!("{:.2}", percentile_of_sorted(&r.sim_latency_ms, 50.0)),
            ]
        })
        .collect();
    print!("{}", render_table(&headers, &rows));

    // --- BENCH_SOAK.json (schema: brisa-bench-soak/v1, see DESIGN.md),
    // and next to each cell the row the divergence gate reads.
    let mut cells = String::new();
    let mut gate_rows = Vec::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            cells.push_str(",\n");
        }
        let (req, served, dup) = live_recovery(&r.live);
        let (sim_req, sim_served) = sim_recovery(&r.sim);
        let (frames, bytes) = r.live.result.frames_and_bytes_out();
        let mut live_lat = r.live.result.latency_samples_ms();
        live_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lp50, lp90, lp99) = (
            percentile_of_sorted(&live_lat, 50.0),
            percentile_of_sorted(&live_lat, 90.0),
            percentile_of_sorted(&live_lat, 99.0),
        );
        let (sp50, sp90) = (
            percentile_of_sorted(&r.sim_latency_ms, 50.0),
            percentile_of_sorted(&r.sim_latency_ms, 90.0),
        );
        write!(
            cells,
            "    {{\"scenario\": \"{}\", \"nodes\": {}, \"messages\": {}, \
             \"payload_bytes\": {}, \"soak_secs\": {:.3}, \"sweeps\": {}, \
             \"invariant_violations\": {}, \"restarted\": {}, \"joined\": {},\n     \
             \"shim\": {{\"frames_passed\": {}, \"frames_lost\": {}, \"frames_cut\": {}, \
             \"frames_delayed\": {}, \"linkdowns_synthesized\": {}}},\n     \
             \"live\": {{\"delivery_rate\": {:.6}, \"completeness\": {:.6}, \
             \"survivor_delivery_rate\": {:.6}, \"survivor_completeness\": {:.6}, \
             \"duplicates_per_message\": {:.4}, \"gap_requests\": {}, \
             \"retransmissions_served\": {}, \"latency_p50_ms\": {:.3}, \
             \"latency_p90_ms\": {:.3}, \"latency_p99_ms\": {:.3}, \
             \"frames_out\": {}, \"bytes_out\": {}}},\n     \
             \"sim\": {{\"delivery_rate\": {:.6}, \"completeness\": {:.6}, \
             \"latency_p50_ms\": {:.3}, \"latency_p90_ms\": {:.3}, \
             \"messages_lost_to_faults\": {}, \"messages_cut_by_partition\": {}, \
             \"gap_requests\": {}, \"retransmissions_served\": {}}},\n     \
             \"divergence\": {{\"delivery_abs\": {:.6}, \"completeness_abs\": {:.6}, \
             \"latency_ratio\": {:.3}}}}}",
            r.name,
            shape.nodes,
            shape.messages,
            shape.payload_bytes,
            r.live.result.wall_elapsed.as_secs_f64(),
            r.live.sweeps,
            r.live.violations.len(),
            r.live.restarted.len(),
            r.live.joined.len(),
            r.live.shim.frames_passed,
            r.live.shim.frames_lost,
            r.live.shim.frames_cut,
            r.live.shim.frames_delayed,
            r.live.shim.linkdowns_synthesized,
            r.live.result.delivery_rate(),
            r.live.result.completeness(),
            r.live.result.survivor_delivery_rate(),
            r.live.result.survivor_completeness(),
            dup,
            req,
            served,
            lp50,
            lp90,
            lp99,
            frames,
            bytes,
            r.sim.delivery_rate(),
            r.sim.completeness(),
            sp50,
            sp90,
            r.sim.net_stats.messages_lost_to_faults,
            r.sim.net_stats.messages_cut_by_partition,
            sim_req,
            sim_served,
            (r.live.result.survivor_delivery_rate() - r.sim.delivery_rate()).abs(),
            (r.live.result.survivor_completeness() - r.sim.completeness()).abs(),
            if sp50 > 0.0 { lp50 / sp50 } else { 0.0 },
        )
        .unwrap();
        gate_rows.push(SoakRow {
            scenario: r.name.clone(),
            invariant_violations: r.live.violations.len(),
            live_delivery: r.live.result.survivor_delivery_rate(),
            sim_delivery: r.sim.delivery_rate(),
            live_completeness: r.live.result.survivor_completeness(),
            sim_completeness: r.sim.completeness(),
            live_p50_ms: lp50,
            sim_p50_ms: sp50,
        });
    }
    let json = format!(
        "{{\n  \"schema\": \"brisa-bench-soak/v1\",\n  \"generated_by\": \"bench_soak\",\n  \
         \"scale\": \"{:?}\",\n  \"protocol\": \"Brisa\",\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        scale, cells
    );
    std::fs::write("BENCH_SOAK.json", json).expect("write soak result file");
    println!("\nwrote BENCH_SOAK.json");
    println!("wrote {tel_path}");

    // Dump-on-divergence: on a failed gate or invariant the flight
    // recorder's retained events (ring-bounded — the "last N seconds" of
    // each shard) land next to the artifact for post-mortem.
    let dump = |why: &str| {
        let mut out = telemetry.snapshot_jsonl(u64::MAX);
        out.push('\n');
        out.push_str(&telemetry.dump_events_jsonl(0));
        std::fs::write(&dump_path, out).expect("write telemetry dump");
        eprintln!("telemetry: dumped flight recorder to {dump_path} ({why})");
    };

    // --- Acceptance: clean sweeps, survivors fully served, the named
    // adversity applied, live inside the divergence band around the sim
    // prediction.
    for (r, sched) in results.iter().zip(&scheds) {
        if !r.live.violations.is_empty() {
            dump("online invariant violations");
            panic!(
                "[{}] online invariant violations:\n  {}",
                r.name,
                r.live.violations.join("\n  ")
            );
        }
        let survivors = r.live.result.survivor_delivery_rate();
        if survivors < 0.99 {
            dump("survivor delivery below the bar");
            panic!(
                "[{}] survivor delivery {survivors:.4} below the 99% bar",
                r.name
            );
        }
        r.live
            .result
            .check_delivery_invariants()
            .expect("live trace passes the delivery invariants");
        // A scenario that names an adversity and passes without it having
        // touched a frame has tested nothing.
        let phase = sched.faults.partition.filter(|p| !p.duration.is_zero());
        let cut = phase.map(|p| p.mode);
        let shim = &r.live.shim;
        for (named, counter, frames) in [
            (sched.faults.loss_rate > 0.0, "lost", shim.frames_lost),
            (cut == Some(PartitionMode::Drop), "cut", shim.frames_cut),
            (
                cut == Some(PartitionMode::Delay),
                "held",
                shim.frames_delayed,
            ),
        ] {
            let name = &r.name;
            assert!(
                !named || frames > 0,
                "[{name}] names an adversity but 0 frames {counter}"
            );
        }
    }
    let gate = divergence_check(&gate_rows, &DivergenceBand::default());
    print!("{}", gate.render());
    let forced = std::env::var("BRISA_SOAK_FORCE_DIVERGENCE").is_ok_and(|v| v == "1");
    if forced || !gate.passed() {
        dump("divergence gate failed");
        if forced {
            panic!("divergence gate failure forced by BRISA_SOAK_FORCE_DIVERGENCE=1");
        }
        panic!("soak diverged from the sim prediction");
    }
    println!("bench_soak: all scenarios clean and inside the divergence band");
}
