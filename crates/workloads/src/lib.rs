//! # brisa-workloads — experiment harness for the BRISA reproduction
//!
//! Turns the protocol crates into the experiments of the paper's evaluation,
//! all running on **one generic engine**:
//!
//! * [`engine`] — the protocol-generic pipeline (bootstrap → churn → stream
//!   → collect) behind every experiment, driven by the
//!   [`DisseminationProtocol`] trait;
//! * [`protocols`] — the trait implementations for BRISA and the four
//!   baselines (the only per-protocol code in the experiment path) and the
//!   `run_*` scenario → [`EngineResult`] conveniences;
//! * [`invariants`] — online invariant checking: an [`InvariantSuite`]
//!   evaluated *during* the drive phase (delivery sanity, tree validity,
//!   FIFO link-clock monotonicity) attached through
//!   [`engine::Runner::invariants`];
//! * [`matrix`] — the parallel sweep driver: [`run_matrix`] fans independent
//!   (scenario × seed × parameter) cells across threads with bit-identical
//!   results to a sequential loop;
//! * [`spec`] — scenario descriptions: stream shape, testbed, churn phase
//!   (the Splay churn script of Listing 1), HyParView/BRISA parameters;
//! * [`chaos`] — named chaos scripts (faults + timed kills/restarts/flash
//!   joins) shared by the simulator and the live soak harness;
//! * [`outcome`] — the one population rule (source, survivor, reborn,
//!   joiner) and the projections both worlds' results are read through:
//!   delivery tally, latency samples, delivered sets, recovery totals;
//! * [`plan`] — the one timed plan both worlds execute: a run's publishes,
//!   churn, fault transitions and scripted events in their one order;
//! * [`scenarios`] — one canonical parameter set per figure/table, at the
//!   paper's full scale or a reduced quick scale;
//! * [`result`] — what the one result type's methods derive ([`EngineResult`],
//!   per node [`NodeOutcome`]): phase bandwidth and the churn report.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod engine;
pub mod invariants;
pub mod matrix;
pub mod outcome;
pub mod plan;
pub mod protocols;
pub mod result;
pub mod scenarios;
pub mod spec;

pub use brisa_simnet::PartitionMode;
pub use chaos::ChaosSchedule;
pub use engine::{
    BuildCtx, DisseminationProtocol, EngineResult, IntoRunSpec, NodeOutcome, NodeReport,
    RepairTelemetry, RunSpec, Runner, ScaleNodeReport, StreamingSummary,
};
pub use invariants::{
    check_delivery_report, DeliveryInvariant, Invariant, InvariantCtx, InvariantSuite,
    InvariantViolation, LinkClockInvariant, NetQuery, TreeValidityInvariant,
};
pub use matrix::{derive_seed, matrix_threads, run_matrix, run_matrix_sequential};
pub use outcome::{NodeClass, Population, Recovery, RunView, Tally};
pub use plan::{add_marks, timed_plan, Step};
pub use protocols::{
    run_brisa, run_flood, run_simple_gossip, run_simple_tree, run_tag, BrisaStackConfig,
};
pub use result::{split_bandwidth, ChurnReport, PhaseBandwidth};
pub use scenarios::Scale;
pub use spec::{
    BaselineScenario, BrisaScenario, ChurnEvent, ChurnSpec, FaultSpec, MaintenanceTempo,
    PartitionPhase, ResultMode, ScaleEvent, ScaleEventKind, StreamSpec, Testbed,
    FIRST_PUBLISH_DELAY,
};
