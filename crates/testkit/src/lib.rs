//! Correctness substrate for the BayesSuite reproduction.
//!
//! MCMC output is stochastic, so naive tests either hard-code
//! tolerances (flaky under any seed or sampler change) or get loosened
//! until they test nothing. This crate provides the three calibrated
//! alternatives the repo's test tiers are built on:
//!
//! * [`asserts`] — assertions whose tolerances come from the run's own
//!   diagnostics: an estimate must sit within `z` Monte-Carlo standard
//!   errors (`sd / √ESS`) of the truth, however many iterations the
//!   run used;
//! * [`sbc`] — a simulation-based calibration runner (Talts et al.
//!   2018) that validates the *entire* prior → generator → density →
//!   sampler loop of a [`bayes_suite::sbc::SbcCase`] via rank-statistic
//!   uniformity;
//! * [`golden`] — plain-text golden fixtures for deterministic
//!   diagnostic pipelines, regenerated with `BAYES_BLESS=1` and
//!   self-blessing when a fixture does not exist yet;
//! * [`mod@reference`] — the golden *reference posterior* store backing
//!   the reference gate (`tests/reference_gate.rs`): long blessed NUTS
//!   runs per registry cell,
//!   loaded from `tests/golden/references/` and re-blessed with
//!   `BAYES_BLESS=1`;
//! * [`faults`] — a deterministic fault-injection schedule
//!   ([`FaultPlan`]) for exercising the run supervisor's isolation,
//!   retry, watchdog, and degradation paths at exact
//!   `(chain, attempt, iteration)` points;
//! * [`wal`] — the server-layer counterpart ([`WalFaultPlan`]):
//!   deterministic journal crashes (torn write, disk full,
//!   crash-before/after-append) at exact append indices, plus a
//!   [`corrupt_file`] helper for checkpoint-corruption scenarios.
//!
//! Everything here is test infrastructure: the crate is a
//! `dev-dependency` of the workspace and never ships in a benchmark
//! binary.

pub mod asserts;
pub mod faults;
pub mod golden;
pub mod reference;
pub mod sbc;
pub mod wal;

pub use asserts::{
    assert_close_mcse, assert_ess_above, assert_mean_close, assert_rhat_below, assert_sd_close,
};
pub use faults::{FaultPlan, FaultPoint};
pub use golden::{assert_golden, compare_or_bless, GoldenReport};
pub use reference::{load_or_bless, load_or_bless_with, reference_dir};
pub use sbc::{run_sbc, SbcConfig, SbcOutcome, SbcParamOutcome};
pub use wal::{corrupt_file, WalFaultPlan, WalFaultPoint};
