//! The reactor's thread budget, fault injection included. A test binary of
//! its own: `Threads:` in `/proc/self/status` counts the whole process, so
//! no other test may start or stop a pool beside this one.
#![cfg(target_os = "linux")]

use brisa::{BrisaConfig, BrisaNode};
use brisa_membership::HyParViewConfig;
use brisa_runtime::{Cluster, ClusterConfig, RuntimeConfig};
use brisa_workloads::{BrisaStackConfig, FaultSpec};
use std::time::Duration;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// A cluster costs its `workers` loop threads however many nodes it
/// carries. Over TCP every node dials, and a connect in flight is one more
/// registration on its worker's readiness set; injecting faults costs
/// nothing on top either: held frames and failed opens are deadlines on
/// the workers' own timer heaps.
#[test]
fn a_64_node_tcp_cluster_under_loss_runs_on_one_thread_per_worker() {
    const WORKERS: usize = 4;
    let before = threads();
    let cfg = ClusterConfig {
        nodes: 64,
        join_stagger: Duration::ZERO,
        runtime: RuntimeConfig {
            workers: WORKERS,
            ..RuntimeConfig::default()
        },
        ..Default::default()
    };
    let stack = BrisaStackConfig {
        hpv: HyParViewConfig::default(),
        brisa: BrisaConfig::default(),
    };
    let mut cluster: Cluster<BrisaNode> = Cluster::launch(&cfg, &stack).expect("launch");
    cluster
        .shim()
        .set_link_faults(FaultSpec::loss(0.01).link_faults());
    cluster.publish(256);
    cluster.run_for(Duration::from_millis(200));
    let grown = threads() - before;
    cluster.stop_and_collect();
    assert!(
        grown <= WORKERS,
        "64 TCP nodes under 1 % loss grew the process by {grown} threads"
    );
    assert_eq!(threads(), before, "every thread is joined at stop");
}
