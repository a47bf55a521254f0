//! The out-of-band contract of the telemetry subsystem, pinned by
//! fingerprints.
//!
//! Telemetry (PR 9) threads a handle through the simulator, the
//! membership layer and the BRISA core. Its hard constraint is the same
//! discipline PR 3 established for the inert fault layer: **observing a
//! run must not change it**. This suite pins three equalities on the
//! engine's full behavioural fingerprint, sequentially and on two shards:
//!
//! 1. a run through `Runner::new(..).telemetry(..)` with a *disabled*
//!    handle is bit-identical to the plain `Runner::new(..).run()` path
//!    that never mentions telemetry at all;
//! 2. a run with an *enabled* handle — counters registered, flight
//!    recorder capturing every protocol event — is bit-identical to both;
//! 3. the enabled run actually recorded something, so the equalities are
//!    not vacuous.

use brisa::BrisaNode;
use brisa_simnet::SimDuration;
use brisa_telemetry::{Telemetry, TelemetryConfig};
use brisa_workloads::{
    BrisaScenario, BrisaStackConfig, ChurnSpec, FaultSpec, IntoRunSpec, RunSpec, Runner, StreamSpec,
};

/// A small but eventful scenario: churn plus loss, so the run exercises
/// orphan repair, gap recovery and partition-free fault traffic — the
/// instrumented paths whose telemetry must stay out-of-band.
fn eventful_spec(shards: usize) -> (BrisaStackConfig, RunSpec) {
    let sc = BrisaScenario {
        nodes: 24,
        stream: StreamSpec::short(8, 256),
        churn: Some(ChurnSpec {
            interval: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(30),
            ..ChurnSpec::default()
        }),
        faults: FaultSpec::loss(0.02),
        bootstrap: SimDuration::from_secs(20),
        drain: SimDuration::from_secs(15),
        ..BrisaScenario::small_test(24)
    };
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let mut spec = sc.run_spec();
    spec.shards = shards;
    (cfg, spec)
}

/// Fingerprint of a run with the given handle (None = the plain
/// pre-telemetry entry point).
fn fingerprint(shards: usize, telemetry: Option<&Telemetry>) -> String {
    let (cfg, spec) = eventful_spec(shards);
    match telemetry {
        None => Runner::<BrisaNode>::new(&cfg, &spec).run().fingerprint(),
        Some(tel) => Runner::<BrisaNode>::new(&cfg, &spec)
            .telemetry(tel)
            .run()
            .fingerprint(),
    }
}

fn check_placement(shards: usize) {
    let plain = fingerprint(shards, None);
    let disabled = fingerprint(shards, Some(&Telemetry::disabled()));
    let enabled_handle = Telemetry::with_config(TelemetryConfig::default());
    let enabled = fingerprint(shards, Some(&enabled_handle));

    assert_eq!(
        plain, disabled,
        "{shards} shard(s): a disabled telemetry handle changed the run"
    );
    assert_eq!(
        plain, enabled,
        "{shards} shard(s): an enabled telemetry handle changed the run"
    );
    assert!(
        plain.contains(":d"),
        "{shards} shard(s): fingerprint is vacuous"
    );

    // Not vacuous on the telemetry side either: the enabled run left a
    // trail — registered counters in the snapshot and captured events in
    // the flight recorder (churn guarantees adopt/orphan traffic).
    let snapshot = enabled_handle.snapshot_jsonl(u64::MAX);
    assert!(
        snapshot.contains("brisa.delivered"),
        "{shards} shard(s): enabled run registered no protocol counters: {snapshot}"
    );
    assert!(
        snapshot.contains("hpv.shuffles"),
        "{shards} shard(s): enabled run registered no membership counters"
    );
    let recorder = enabled_handle.recorder().expect("enabled handle");
    assert!(
        recorder.total_recorded() > 0,
        "{shards} shard(s): enabled run recorded no flight-recorder events"
    );
}

#[test]
fn telemetry_is_out_of_band_on_the_timing_wheel() {
    check_placement(1);
}

#[test]
fn telemetry_is_out_of_band_on_two_shards() {
    check_placement(2);
}

/// Two enabled runs of the same spec also agree with each other — the
/// handle holds no per-run state that could leak into behaviour.
#[test]
fn enabled_runs_are_mutually_deterministic() {
    let a = fingerprint(1, Some(&Telemetry::enabled()));
    let b = fingerprint(1, Some(&Telemetry::enabled()));
    assert_eq!(a, b);
}
