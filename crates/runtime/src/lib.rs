//! # brisa-runtime — live wall-clock execution of the sans-IO stack
//!
//! Everything above the simulator is written sans-IO: protocols react to
//! events through `brisa_simnet::Protocol` and emit commands, never
//! touching sockets, threads or clocks. This crate cashes that design in:
//! it executes **the same protocol implementations, unmodified**, in real
//! time over real byte transports — the execution mode the paper's
//! prototype used on its physical testbeds.
//!
//! Three layers:
//!
//! * [`wire`] — stream framing: the frame bound and the splitter that
//!   cuts a byte stream into frames. Each message type's codec lives with
//!   the type, and its encoder is also what `WireSize::wire_size()` counts,
//!   so sim bandwidth accounting equals live bytes;
//! * [`transport`] — the [`Transport`] trait with two backends: the
//!   in-process [`LoopbackMesh`] (in-memory queues) and the real
//!   [`TcpMesh`] (framed sockets on `127.0.0.1`, TCP failures surfaced as
//!   `on_link_down`);
//! * [`reactor`]/[`cluster`] — the sharded reactor: `workers` threads
//!   each multiplexing many nodes' protocol callbacks, real-time timers
//!   and non-blocking sockets on one `epoll` loop, and the [`Cluster`]
//!   harness that boots N nodes on a shared pool, publishes a broadcast
//!   workload and collects the sim engine's `NodeReport`s into a
//!   [`LiveResult`]. [`RuntimeConfig`] holds the two sizing knobs.
//!
//! Adversity is the simulator's too: every cluster carries a
//! [`ShimControl`] around one `simnet::faults::FaultLayer`, consulted by the
//! reactor on each send and open ([`shim`]), and [`chaos`] replays a
//! scripted schedule against it in wall-clock time.
//!
//! ## Quick start
//!
//! ```
//! use brisa_runtime::{Cluster, ClusterConfig, TransportKind};
//! use brisa_workloads::BrisaStackConfig;
//! use brisa::{BrisaConfig, BrisaNode};
//! use brisa_membership::HyParViewConfig;
//! use std::time::Duration;
//!
//! let cfg = ClusterConfig {
//!     nodes: 8,
//!     transport: TransportKind::Loopback,
//!     ..Default::default()
//! };
//! let stack = BrisaStackConfig {
//!     hpv: HyParViewConfig::default(),
//!     brisa: BrisaConfig::default(),
//! };
//! let mut cluster: Cluster<BrisaNode> = Cluster::launch(&cfg, &stack).unwrap();
//! cluster.run_for(Duration::from_millis(300)); // overlay forms
//! cluster.publish(1024);
//! cluster.wait_for_delivery(1, Duration::from_secs(10));
//! let result = cluster.stop_and_collect();
//! assert_eq!(result.delivery_rate(), 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod clock;
pub mod cluster;
pub mod config;
pub mod loopback;
pub mod reactor;
pub mod report;
pub mod shim;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use chaos::{run_chaos, SoakConfig, SoakOutcome};
pub use clock::WallClock;
pub use cluster::{Cluster, ClusterConfig, TransportKind};
pub use config::RuntimeConfig;
pub use loopback::{LoopbackMesh, LoopbackTransport};
pub use reactor::ReactorPool;
pub use report::{LiveNode, LiveResult, RuntimeStats};
pub use shim::{ShimControl, ShimStats};
pub use tcp::TcpMesh;
pub use transport::{FrameSink, NetEvent, Transport};
pub use wire::{WireCodec, WireError, WIRE_VERSION};
