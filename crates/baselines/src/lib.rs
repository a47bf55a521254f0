//! # brisa-baselines — comparison protocols from the BRISA evaluation
//!
//! The protocols BRISA is compared against in Section III-D of the paper,
//! each implemented as a full simulator stack:
//!
//! * [`flood`] — plain flooding over HyParView (the duplicate-heavy baseline
//!   of Figure 2 and the `flood` series of Figure 9);
//! * [`simple_gossip`] — Cyclon + push rumor mongering + anti-entropy pull
//!   (the robustness end of the spectrum);
//! * [`simple_tree`] — a centrally constructed random tree with push
//!   dissemination (the efficiency end of the spectrum);
//! * [`tag`] — TAG, the tree-assisted gossip hybrid with a join-time-sorted
//!   linked list and pull-based dissemination.
//!
//! Each records receptions in [`brisa_simnet::DeliveryLog`], the ledger BRISA keeps.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod flood;
pub mod simple_gossip;
pub mod simple_tree;
pub mod tag;

pub use flood::{FloodMsg, FloodNode};
pub use simple_gossip::{GossipMsg, SimpleGossipNode};
pub use simple_tree::{SimpleTreeNode, TreeMsg};
pub use tag::{TagMsg, TagNode, TagStats};
