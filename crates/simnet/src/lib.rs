//! # brisa-simnet — deterministic discrete-event network simulator
//!
//! This crate is the substrate on which the BRISA reproduction runs. The
//! paper evaluates its prototype on a physical cluster and on PlanetLab; we
//! substitute both with a deterministic discrete-event simulator that
//! preserves the protocol-level behaviour the evaluation measures:
//!
//! * reliable, FIFO, connection-oriented links with configurable latency
//!   distributions ([`latency::ClusterLatency`], [`latency::PlanetLabLatency`]);
//! * connection-level failure detection with a configurable delay,
//!   mirroring the prototype's TCP keep-alive heart-beating;
//! * per-node upload/download byte totals ([`bandwidth::BandwidthMeter`]),
//!   which a caller reads at a phase boundary to split a run into phases;
//! * one per-node delivery ledger for every protocol ([`delivery::DeliveryLog`]:
//!   counts, the contiguous-prefix cursor, a seen-bitmap bounded by a window
//!   above it, and dense times or a [`hist::NodeHistogram`]);
//! * fail-stop crashes and delayed joins, driving churn experiments;
//! * deterministic fault injection — per-link message loss, latency
//!   degradation and timed network partitions ([`faults`]);
//! * full determinism for a given seed.
//!
//! Protocols implement the sans-IO [`Protocol`] trait and interact with the
//! world exclusively through the [`Context`] handle.
//!
//! ```
//! use brisa_simnet::{Network, NetworkConfig, Protocol, Context, NodeId, TimerTag,
//!                    SimTime, SimDuration, WireSize, latency::FixedLatency};
//!
//! #[derive(Clone)]
//! struct Hello;
//! impl WireSize for Hello { fn wire_size(&self) -> usize { 5 } }
//!
//! struct Greeter { peer: Option<NodeId>, greeted: bool }
//! impl Protocol for Greeter {
//!     type Message = Hello;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
//!         if let Some(p) = self.peer { ctx.send(p, Hello); }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Hello>, _from: NodeId, _m: Hello) {
//!         self.greeted = true;
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, Hello>, _tag: TimerTag) {}
//! }
//!
//! let mut net = Network::new(NetworkConfig::default(),
//!                            Box::new(FixedLatency::new(SimDuration::from_millis(1))));
//! let a = net.add_node(|_| Greeter { peer: None, greeted: false });
//! let _b = net.add_node(move |_| Greeter { peer: Some(a), greeted: false });
//! net.run_until(SimTime::from_secs(1));
//! assert!(net.node(a).unwrap().greeted);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bandwidth;
mod core;
pub mod delivery;
mod event;
pub mod faults;
pub mod hist;
mod inline;
pub mod latency;
mod links;
mod network;
mod node;
mod protocol;
mod sched;
pub mod seed;
mod shard;
mod time;
pub mod wire;

pub use crate::core::{Placement, Whole};
pub use bandwidth::{BandwidthMeter, NodeBandwidth};
pub use delivery::{DeliveryLog, DeliveryTracking};
pub use event::TimerTag;
pub use faults::{FaultConfig, FaultPrf, LinkFaults, PartitionMode, PartitionSpec};
pub use hist::{LatencyHistogram, NodeHistogram, LATENCY_BUCKETS};
pub use inline::{InlineVec, INLINE_TABLE};
pub use latency::LatencyModel;
pub use network::{Driver, Footprint, NetStats, Network, NetworkConfig, FAILURE_DETECTION_DELAY};
pub use node::NodeId;
pub use protocol::{Command, Context, Protocol, WireSize};
pub use sched::SchedulerKind;
pub use shard::{ShardedNetwork, Strided};
pub use time::{SimDuration, SimTime, MICROS_PER_MILLI, MICROS_PER_SEC};
