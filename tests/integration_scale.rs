//! Scale-mode integration tests: the streaming result path must agree with
//! the classic per-node path, the scale events must behave, and the
//! bytes-per-node footprint must stay bounded.

use brisa::BrisaNode;
use brisa_bench::{BrisaScenario, BrisaStackConfig, EngineResult};
use brisa_simnet::{LatencyHistogram, SimDuration, SimTime};
use brisa_workloads::{
    scenarios, IntoRunSpec, InvariantSuite, ResultMode, Runner, ScaleEvent, ScaleEventKind,
    StreamSpec,
};

fn run(sc: &BrisaScenario) -> EngineResult {
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    Runner::<BrisaNode>::new(&cfg, &sc.run_spec()).run()
}

/// Rebuilds the latency histogram a streaming run would produce from a
/// classic run's exact first-delivery records.
fn classic_latency_hist(r: &EngineResult) -> LatencyHistogram {
    let mut hist = LatencyHistogram::new();
    for n in &r.nodes {
        for &(seq, t) in &n.report.first_delivery {
            let published = r.publish_times[seq as usize];
            hist.record_us(t.saturating_since(published).as_micros());
        }
    }
    hist
}

/// The streaming result path is bookkeeping, not behaviour: a streaming run
/// must process the identical event sequence as the classic run of the
/// same scenario and summarise it to the same delivery numbers — including
/// a bit-identical latency histogram.
///
/// Classic also reads the bandwidth meter 1 µs before the first whole
/// second after bootstrap (21 s here), which must not move the run either.
/// The default stream spans that instant. The two short streams (published
/// at 20.1 and 20.3 s) end before it: with a 1 s drain the reading falls
/// after the last step, with 300 ms after the end of the run, so there is
/// no reading and stabilisation is every byte.
#[test]
fn streaming_results_agree_with_classic_path() {
    let short = |drain_ms| BrisaScenario {
        stream: StreamSpec::short(2, 256),
        drain: SimDuration::from_millis(drain_ms),
        ..BrisaScenario::small_test(48)
    };
    for classic_sc in [BrisaScenario::small_test(48), short(1_000), short(300)] {
        let streaming_sc = BrisaScenario {
            results: ResultMode::Streaming,
            ..classic_sc.clone()
        };
        let classic = run(&classic_sc);
        let streaming = run(&streaming_sc);

        // Identical simulation underneath.
        assert_eq!(
            classic.net_stats.events_processed, streaming.net_stats.events_processed,
            "streaming mode changed the simulation itself"
        );
        assert_eq!(
            classic.net_stats.messages_sent,
            streaming.net_stats.messages_sent
        );
        assert_eq!(classic.publish_times, streaming.publish_times);
        assert_eq!(
            classic.churn_window.1, streaming.churn_window.1,
            "the drain ends where it did"
        );

        // Identical summary numbers on top.
        let s = streaming.streaming.as_ref().expect("streaming summary");
        assert!(classic.streaming.is_none());
        assert!(streaming.nodes.is_empty(), "no per-node materialisation");
        assert_eq!(classic.delivery_rate(), streaming.delivery_rate());
        assert_eq!(classic.completeness(), streaming.completeness());
        let classic_delivered: u64 = classic.nodes.iter().map(|n| n.report.delivered).sum();
        assert_eq!(classic_delivered, s.delivered_total);
        assert_eq!(classic_latency_hist(&classic), s.latency);
        assert!(s.latency.count() > 0, "latencies were streamed");
        assert!(s.footprint.nodes >= 48);
        assert!(s.uploaded_bytes > 0);
        let classic_uploaded: u64 = classic
            .nodes
            .iter()
            .map(|n| n.bandwidth.stab_up_bytes + n.bandwidth.diss_up_bytes)
            .sum();
        assert_eq!(
            classic_uploaded, s.uploaded_bytes,
            "both phases, every node"
        );

        if classic_sc.drain == SimDuration::from_millis(300) {
            assert_eq!(classic.churn_window.1, SimTime::from_millis(20_600));
            assert!(classic.nodes.iter().all(|n| n.bandwidth.diss_up_bytes == 0));
        }
    }
}

/// The absolute behaviour of a streaming run: the FNV-1a hash of the full
/// fingerprint (which covers the streaming summary), recorded on 2bcadee —
/// where the timing wheel and the binary-heap scheduler it replaced were
/// compared on this run and agreed — and re-recorded when the repair tick
/// began to start with the stream, which moved the event count alone.
#[test]
fn streaming_fingerprint_is_scheduler_equivalent() {
    let sc = BrisaScenario {
        results: ResultMode::Streaming,
        ..BrisaScenario::small_test(40)
    };
    let fingerprint = run(&sc).fingerprint();
    let hash = fingerprint.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert!(fingerprint.contains("stream:"), "fingerprint is vacuous");
    assert_eq!(hash, 0x9016efa4f29a83ee, "this build produces {hash:#018x}");
}

/// A flash crowd joins mid-stream: the original population still delivers
/// everything, and the joiners (identifiers `>= nodes`) are counted as
/// joins, not as eligible receivers.
#[test]
fn flash_crowd_joins_mid_stream() {
    let sc = BrisaScenario {
        events: vec![ScaleEvent {
            after: SimDuration::from_secs(1),
            kind: ScaleEventKind::FlashCrowd { joiners: 16 },
        }],
        results: ResultMode::Streaming,
        ..BrisaScenario::small_test(48)
    };
    let r = run(&sc);
    assert_eq!(r.joins_injected, 16);
    assert_eq!(r.failures_injected, 0);
    let s = r.streaming.as_ref().unwrap();
    assert_eq!(s.eligible, 47, "joiners are not eligible receivers");
    assert_eq!(
        r.delivery_rate(),
        1.0,
        "the original overlay keeps delivering through the flash crowd"
    );
}

/// Half the overlay crashes at once: the survivors repair and keep
/// receiving the stream.
#[test]
fn mass_crash_survivors_recover() {
    let sc = BrisaScenario {
        events: vec![ScaleEvent {
            after: SimDuration::from_secs(2),
            kind: ScaleEventKind::MassCrash { fraction: 0.5 },
        }],
        drain: SimDuration::from_secs(30),
        results: ResultMode::Streaming,
        ..BrisaScenario::small_test(48)
    };
    let r = run(&sc);
    assert_eq!(r.failures_injected, 24, "47 non-source × 0.5 rounded");
    let s = r.streaming.as_ref().unwrap();
    assert_eq!(s.eligible, 23, "47 originals - 24 victims");
    assert!(
        r.delivery_rate() >= 0.99,
        "survivors must close their gaps: {}",
        r.delivery_rate()
    );
}

/// The delivery invariant reads only what every ledger keeps, so a
/// streaming run carries the whole standard suite: nodes replaced
/// mid-stream, each live node's count checked at every step, and no
/// delivery flagged for want of per-sequence times.
#[test]
fn a_streaming_churn_run_passes_the_standard_invariant_suite() {
    let sc = scenarios::scale_churn(400);
    assert_eq!(sc.results, ResultMode::Streaming);
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let mut suite = InvariantSuite::standard(Some(1));
    let r = Runner::<BrisaNode>::new(&cfg, &sc.run_spec())
        .invariants(&mut suite)
        .run();
    assert!(r.failures_injected > 0 && r.joins_injected > 0, "churn ran");
    assert!(r.streaming.as_ref().unwrap().delivered_total > 0);
    suite.assert_clean();
}

/// The memory-footprint regression bound: in scale mode a node costs a
/// bounded number of accounted bytes, independent of how many messages the
/// stream carried. A regression that reintroduces per-message or
/// per-second per-node state (delivery maps, a bandwidth history) blows
/// through the pin immediately. The accounted figure counts every
/// allocation a node owns at its capacity (delivery bitmap and latency
/// histogram, retransmission record ring, link table, candidate vector,
/// own path, HyParView views, peer records and probe list) plus its slot
/// in the simulator (the node's inline state, RNG, two byte totals, and
/// FIFO link clocks only for links with a message in flight): 2.9–3.4 kB
/// across these scenarios. The event queue is booked at what it holds
/// from the allocator and pinned on its own: its cost belongs to the
/// simulation, not to a node (0.85–1.4 MB here, at most 512 buckets × 64
/// retained entries × 72 B ≈ 2.4 MB once nothing is in flight).
#[test]
fn scale_mode_bytes_per_node_stays_bounded() {
    let check = |label: &str, r: &EngineResult| {
        let f = &r
            .streaming
            .as_ref()
            .unwrap_or_else(|| panic!("{label}"))
            .footprint;
        let per_node = (f.total_bytes() - f.queue_bytes) as f64 / f.nodes as f64;
        assert!(
            per_node < 6000.0,
            "{label}: scale-mode footprint regressed: {per_node:.0} bytes/node \
             (total {} over {} nodes)",
            f.total_bytes(),
            f.nodes
        );
        assert!(
            f.queue_bytes < 2_500_000,
            "{label}: the event queue holds {} bytes",
            f.queue_bytes
        );
    };
    let sc = BrisaScenario {
        results: ResultMode::Streaming,
        ..BrisaScenario::small_test(512)
    };
    check("small_test(512)", &run(&sc));
    // The classic path at the same size keeps strictly more state.
    let classic = run(&BrisaScenario::small_test(512));
    assert!(classic.streaming.is_none());

    // And the full scale suite stays in streaming mode end to end.
    for (label, sc) in scenarios::scale_suite(256) {
        check(label, &run(&sc));
    }
}
