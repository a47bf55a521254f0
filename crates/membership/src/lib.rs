//! # brisa-membership — peer sampling services
//!
//! Membership (peer sampling) substrates used by the BRISA reproduction:
//!
//! * [`hyparview`] — the reactive PSS BRISA builds on: a small, symmetric,
//!   connection-monitored *active view* plus a shuffled *passive view* used
//!   as a reservoir of replacements (Section II-A of the paper).
//! * [`cyclon`] — the proactive PSS used by the SimpleGossip baseline.
//! * [`view`] — the bounded random view container shared by both.
//!
//! All protocols are sans-IO state machines: they consume `(time, sender,
//! message)` inputs and produce effect lists, so they can be unit-tested in
//! isolation and composed into full stacks by the `brisa` and
//! `brisa-baselines` crates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cyclon;
pub mod hyparview;
pub mod view;

pub use cyclon::{Cyclon, CyclonMsg, CyclonOut, Descriptor};
pub use hyparview::{
    HpvMsg, HpvOut, HpvSink, HpvStats, HyParView, HyParViewConfig, HPV_HEADER_BYTES,
};
pub use view::BoundedView;
