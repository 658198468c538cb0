//! BayesSuite: the ten Bayesian inference workloads of the paper
//! (Table I), reimplemented as differentiable log-posteriors over
//! synthetic datasets drawn from each model's own generative family.
//!
//! | name | model family | application |
//! |------|--------------|-------------|
//! | `12cities`  | Poisson regression (hierarchical) | pedestrian fatalities vs speed limits |
//! | `ad`        | logistic regression | movie advertising attribution |
//! | `ode`       | Friberg–Karlsson semi-mechanistic ODE | drug compound PK/PD |
//! | `memory`    | hierarchical Bayesian | memory retrieval in sentence comprehension |
//! | `votes`     | Gaussian process | presidential vote forecasting |
//! | `tickets`   | neg-binomial generative model | NYPD ticket-writing targets |
//! | `disease`   | I-spline monotone regression | Alzheimer's progression |
//! | `racial`    | hierarchical threshold test | racial bias in vehicle searches |
//! | `butterfly` | hierarchical occupancy/binomial | butterfly species richness |
//! | `survival`  | Cormack–Jolly–Seber | animal survival from capture–recapture |
//!
//! The real datasets (FARS, NYC tickets, ADNI, the North-Carolina stops
//! data, …) are not redistributable; each module generates data of
//! matched size and structure from the model's assumed generative
//! process, which preserves the paper's architectural story: modeled
//! data size drives AD-tape size drives working set (Section V-A).
//!
//! # Example
//!
//! ```
//! use bayes_suite::registry;
//!
//! let names = registry::workload_names();
//! assert_eq!(names.len(), 10);
//! let w = registry::workload("12cities", 1.0, 7).unwrap();
//! assert!(w.meta().modeled_data_bytes > 0);
//! ```

// Workload generators/densities index parameter blocks by group in
// lock-step with data layouts; the indexed form stays.
#![allow(clippy::needless_range_loop)]

pub mod meta;
pub mod reference;
pub mod registry;
pub mod sbc;
pub mod score;
pub mod workloads;

pub use meta::{Workload, WorkloadMeta};
pub use reference::{RefParam, ReferencePosterior};
pub use score::{score_run, score_summaries, RunScore};
