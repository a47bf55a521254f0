//! # brisa — efficient and reliable epidemic data dissemination
//!
//! A from-scratch reproduction of **BRISA** (Matos, Schiavoni, Felber,
//! Oliveira, Rivière — IEEE IPDPS 2012): a data dissemination system that
//! combines the robustness of gossip-based protocols with the efficiency of
//! structured overlays. Dissemination trees (or DAGs) *emerge* from an
//! underlying HyParView overlay through purely local link-deactivation
//! decisions, and the overlay doubles as the repair substrate when nodes
//! fail.
//!
//! ## Crate layout
//!
//! * [`BrisaCore`] — the sans-IO protocol state machine: flood bootstrap,
//!   duplicate-triggered link deactivation, parent selection strategies,
//!   cycle prevention (path embedding for trees, depth labels for DAGs),
//!   soft/hard repair and message recovery.
//! * [`BrisaNode`] — the full stack (HyParView + BRISA) implementing the
//!   simulator's [`brisa_simnet::Protocol`] trait; this is what experiments
//!   and the examples instantiate.
//! * [`config`], [`cycle`], [`parent`], [`links`], [`buffer`], [`stats`] —
//!   the individual protocol ingredients, each independently tested.
//!
//! The per-node delivery ledger (which sequence numbers arrived, when, and
//! how many copies) is not BRISA's own: it is the
//! [`brisa_simnet::DeliveryLog`] every protocol of the evaluation records
//! receptions in, baselines included.
//!
//! ## Quick start
//!
//! ```
//! use brisa::{BrisaConfig, BrisaNode};
//! use brisa_membership::HyParViewConfig;
//! use brisa_simnet::{latency::ClusterLatency, Network, NetworkConfig, SimDuration, SimTime};
//!
//! // Build a 16-node overlay; node 0 is the contact point and the source.
//! let mut net: Network<BrisaNode> = Network::new(
//!     NetworkConfig::default(),
//!     Box::new(ClusterLatency::default()),
//! );
//! let source = net.add_node(|id| {
//!     let mut n = BrisaNode::new(id, HyParViewConfig::default(), BrisaConfig::default(), None);
//!     n.mark_source();
//!     n
//! });
//! for i in 1..16u64 {
//!     net.add_node_at(SimTime::from_millis(10 * i), move |id| {
//!         BrisaNode::new(id, HyParViewConfig::default(), BrisaConfig::default(), Some(source))
//!     });
//! }
//! net.run_until(SimTime::from_secs(20));
//!
//! // Publish a small stream and let it disseminate.
//! for _ in 0..3 {
//!     net.invoke(source, |node, ctx| node.publish(ctx, 1024));
//!     net.run_for(SimDuration::from_millis(500));
//! }
//! let delivered = net.node(source).unwrap().brisa().stats().delivery.delivered();
//! assert_eq!(delivered, 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod config;
mod core;
pub mod cycle;
pub mod links;
pub mod message;
mod node;
pub mod parent;
pub mod stats;
mod wire;

pub use crate::core::{BrisaCore, RepairKind, HARD_REPAIR_RETRY, SOFT_REPAIR_TIMEOUT};
pub use buffer::{BufferedMsg, MessageBuffer};
pub use config::{BrisaConfig, ParentStrategy, StructureMode};
pub use cycle::{BloomMembership, CycleGuard, CycleState};
pub use links::Links;
pub use message::{BrisaAction, BrisaMsg, BrisaSink, DataMsg, BRISA_HEADER_BYTES};
pub use node::{BrisaNode, StackMsg, TIMER_KEEPALIVE, TIMER_REPAIR, TIMER_SHUFFLE};
pub use parent::{CandidateSet, NeighborTelemetry, NoTelemetry, ParentCandidate};
pub use stats::BrisaStats;
