//! # brisa-metrics — measurement utilities for the BRISA reproduction
//!
//! Small, dependency-free analysis helpers used by the experiment harness
//! and `brisa-bench`'s `repro` scorecard:
//!
//! * [`Cdf`] — empirical CDFs (Figures 2, 6, 7, 9, 13, 14);
//! * [`PercentileSummary`] — the 5/25/50/75/90th percentile bars of the
//!   bandwidth figures (Figures 10–12);
//! * [`StructureSnapshot`] — depth/degree analysis of the
//!   emerged dissemination structures (Figures 6–8);
//! * [`report`] — plain-text rendering of tables and series.
//!
//! The streaming latency histogram lives with the delivery ledger, in `brisa_simnet::hist`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cdf;
pub mod percentile;
pub mod report;
pub mod structure;

pub use cdf::Cdf;
pub use percentile::{percentile_of_sorted, PercentileSummary, PAPER_PERCENTILES};
pub use structure::StructureSnapshot;
