//! Fault injection: stream a BRISA tree through an adversarial network —
//! per-link message loss, then a partition that cuts a quarter of the nodes
//! from the source for ten seconds before healing.
//!
//! Demonstrates the `FaultSpec` API, the online invariant checker (the
//! tree-validity, delivery and FIFO-clock invariants are evaluated *while*
//! the run executes), and the recovery machinery: lost messages come back
//! through gap-detection retransmissions served from neighbors' buffers,
//! and a healed island catches up in one burst.
//!
//! Run with: `cargo run -p brisa-bench --release --example fault_injection`

use brisa::BrisaNode;
use brisa_simnet::SimDuration;
use brisa_workloads::{
    BrisaScenario, BrisaStackConfig, FaultSpec, IntoRunSpec, InvariantSuite, PartitionPhase,
    Population, Runner, StreamSpec,
};

fn run(label: &str, sc: &BrisaScenario) {
    let cfg = BrisaStackConfig {
        hpv: sc.hyparview_config(),
        brisa: sc.brisa_config(),
    };
    let mut invariants = InvariantSuite::standard(Some(1));
    let result = Runner::<BrisaNode>::new(&cfg, &sc.run_spec())
        .invariants(&mut invariants)
        .run();
    invariants.assert_clean();

    let view = result.view();
    let tally = view.tally(Population::Eligible);
    let recovery = view.recovery(Population::All);
    println!("{label}:");
    println!(
        "  delivery rate        {:.3}% ({}/{} node x message pairs)",
        tally.delivery_rate() * 100.0,
        tally.got,
        tally.expected
    );
    println!(
        "  lost to faults       {} messages (plus {} cut by the partition)",
        result.net_stats.messages_lost_to_faults, result.net_stats.messages_cut_by_partition
    );
    println!(
        "  gap requests         {} (served with {} retransmissions)",
        recovery.gap_requests, recovery.retransmissions_served
    );
    println!(
        "  invariants           clean after {} online checks\n",
        invariants.checks_run()
    );
}

fn main() {
    let base = BrisaScenario {
        nodes: 64,
        view_size: 4,
        stream: StreamSpec {
            messages: 150,
            rate_per_sec: 5.0,
            payload_bytes: 1024,
        },
        bootstrap: SimDuration::from_secs(30),
        drain: SimDuration::from_secs(20),
        ..Default::default()
    };
    println!("64 nodes, 150 x 1 KB messages at 5/s; faults switch on at stream start\n");

    run(
        "2% per-link loss",
        &BrisaScenario {
            faults: FaultSpec::loss(0.02),
            ..base.clone()
        },
    );
    run(
        "10 s partition of 25% of the nodes, then heal",
        &BrisaScenario {
            faults: FaultSpec {
                partition: Some(PartitionPhase::drop(
                    0.25,
                    SimDuration::from_secs(5),
                    SimDuration::from_secs(10),
                )),
                ..Default::default()
            },
            ..base
        },
    );

    println!("every hole the adversity opened was repaired through the gossip substrate:");
    println!("nodes notice sequence gaps, ask a parent, and replay from its buffer.");
}
