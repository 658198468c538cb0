//! MCMC inference engine for the BayesSuite reproduction.
//!
//! This crate is the counterpart of Stan's inference core in the paper:
//!
//! * [`model`] — the [`Model`] trait every workload implements, plus the
//!   [`AdModel`] adapter that derives gradients via the
//!   [`bayes_autodiff`] tape;
//! * [`lp`] — generic log-density building blocks (`normal_lpdf`,
//!   `bernoulli_logit_lpmf`, …) written once against
//!   [`bayes_autodiff::Real`];
//! * [`mh`] — the Metropolis–Hastings sampler of Algorithm 1;
//! * [`hmc`] — static Hamiltonian Monte Carlo;
//! * [`nuts`] — the No-U-Turn Sampler with dual-averaging step-size and
//!   diagonal mass-matrix adaptation (Stan's default engine and the one
//!   the paper characterizes);
//! * [`chain`] — the [`Sampler`] trait (`init` and one-transition
//!   `step` on owned state) and the one chain loop every runner drives,
//!   sequentially or one OS thread per chain (the paper's multicore
//!   execution model);
//! * [`par`] — persistent per-chain worker pool evaluating
//!   [`ShardedModel`] likelihood shards in parallel with a fixed-order
//!   reduction, so results are bit-identical for any
//!   `RunConfig::inner_threads`;
//! * [`diag`] — Gelman–Rubin R̂, effective sample size, KL divergence;
//! * [`converge`] — the online convergence detector behind the paper's
//!   computation-elision technique (Section VI);
//! * [`stream`] — deterministic RNG stream derivation
//!   ([`stream::StreamKey`]) that makes every multi-chain run
//!   bit-reproducible from a single seed;
//! * [`supervisor`] — fault-tolerant run supervisor: chain isolation,
//!   deterministic retry, stall watchdog, checkpoint/resume, and
//!   graceful degradation under a chain quorum;
//! * [`checkpoint`] — the serializable sampler/run state behind
//!   [`supervisor::Runtime::resume`], including the segmented RNG
//!   streams that make resumed runs bit-identical.
//!
//! Observability: attach a [`bayes_obs::RecorderHandle`] via
//! [`RunConfig::with_recorder`] and the runtime emits structured
//! events — per-iteration sampler stats from every sampler, checkpoint
//! events from both convergence walkers, and shard-sweep aggregates
//! from [`ShardedModel`]. Recording is observation only and never
//! perturbs draws (`bayes_obs` is re-exported as [`obs`]).

// Leapfrog/adaptation kernels index several coordinate slices in
// lock-step (indexed form stays).
#![allow(clippy::needless_range_loop)]

pub mod chain;
pub mod checkpoint;
pub mod converge;
pub mod diag;
pub mod hmc;
pub mod lp;
pub mod mh;
pub mod model;
pub mod nuts;
pub mod par;
pub mod runtime;
pub mod stream;
pub mod summary;
pub mod supervisor;

mod adapt;
mod dynamics;

pub use bayes_obs as obs;

pub use chain::{ConfigError, Env, Info, MultiChainRun, Parallelism, RunConfig, Sampler};
pub use checkpoint::{RunCheckpoint, SamplerCheckpoint};
pub use converge::{CheckpointSchedule, ConvergenceDetector, ConvergenceReport};
pub use model::{
    shard_ranges, AdModel, EvalProfile, LogDensity, Model, ShardedDensity, ShardedModel,
    StatsModel, SufficientStats, DEFAULT_SHARDS, POOL_CROSSOVER_NODES,
};
pub use nuts::NutsConfig;
pub use par::WorkerPool;
pub use runtime::run_until_converged;
pub use stream::{Purpose, StreamKey};
pub use supervisor::{
    ChainFault, FaultInjector, FaultKind, InjectedFault, PauseControl, ReseedPolicy, RetryPolicy,
    RunError, RunReport, Runtime, SupervisorConfig,
};

/// Locks `m`, taking the guard back from a poisoned lock: every mutex
/// here guards data that stays consistent when a holder unwinds (a
/// buffer, a slot, a handle), and the supervisor and the worker pool
/// catch those unwinds and carry on.
pub(crate) fn lock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
