//! Fault-tolerant run supervisor: chain isolation, deterministic
//! retry, stall watchdog, checkpoint/resume, and graceful degradation.
//!
//! The paper's headline result depends on long multi-chain NUTS runs
//! surviving to convergence; [`crate::runtime::run_until_converged`]
//! re-raises the first chain panic and discards every surviving
//! chain's work. [`Runtime`] instead treats per-chain failure as a
//! recoverable event:
//!
//! * **Isolation** — each chain runs under `catch_unwind`; panics,
//!   non-finite draws, stalls, and divergence overruns become typed
//!   [`ChainFault`]s instead of aborting the run. Every [`Sampler`] is
//!   supervised the same way: the chain loop consults the round's
//!   `Watch` after every draw.
//! * **Deterministic retry** — a failed attempt reruns the chain from
//!   its last resume point. With reseeding, attempt `n` moves to the
//!   [`Purpose::Retry`]`(n)` stream so it never silently reuses the
//!   failed stream; without, it replays the identical stream, which
//!   keeps the run's draws bit-identical to a fault-free run (the
//!   default policy, [`ReseedPolicy::StreamFaults`], reseeds only for
//!   faults the stream itself caused).
//! * **Stall watchdog** — the monitor thread tracks per-chain progress
//!   heartbeats; a chain that stops advancing for
//!   [`SupervisorConfig::stall_deadline`] is cancelled cooperatively
//!   (the same `AtomicBool` the elision stop uses) and retried as
//!   [`FaultKind::Stalled`]. Cancellation never touches the RNG, so a
//!   same-stream retry of a stalled chain reproduces its draws.
//! * **Checkpoint/resume** — with a checkpoint path configured, chains
//!   run on segmented RNG streams (see [`crate::checkpoint`]) and the
//!   supervisor appends a [`RunCheckpoint`] frame to the path's log at
//!   detector checkpoint boundaries; [`Runtime::resume`] continues
//!   bit-identically.
//! * **Preemption pause** — an external controller (the job server in
//!   `bayes_serve`) can ask a checkpointing run to pause
//!   ([`PauseControl`]); the run parks its chains at the next common
//!   checkpoint boundary, appends the [`RunCheckpoint`] there, and
//!   returns early with [`RunReport::paused_at`] set. Parked time is
//!   excluded from the stall watchdog, and a later [`Runtime::resume`]
//!   replays the identical draws on any core allotment.
//! * **Graceful degradation** — once retries are exhausted the run
//!   completes with the surviving chains and a degraded
//!   [`RunReport`]; convergence is only declared while at least
//!   [`SupervisorConfig::min_quorum`] chains participate.
//!
//! Every decision is observable: faults emit `chain_fault`, retries
//! `chain_retry`, checkpoint writes `checkpoint_saved`, resumes
//! `resume`, and degraded completions `degraded_report` (`bayes_obs`).

use crate::chain::{
    initial_points, panic_message, run_chain, ChainOutput, ConfigError, MultiChainRun, RunConfig,
    Sampler,
};
use crate::checkpoint::{
    ChainCheckpoint, CheckpointLog, DetectorFingerprint, DurableWriter, LoadedLog, RunCheckpoint,
    SamplerCheckpoint, CHECKPOINT_VERSION,
};
use crate::converge::ConvergenceDetector;
use crate::lock;
use crate::model::Model;
use crate::runtime::{MonitorGate, MONITOR_NAP};
use crate::stream::{Purpose, StreamKey};
use bayes_obs::{CheckpointSource, Event, TelemetryHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cooperative pause shared between a supervised run and an external
/// controller (the job server's preemption path, `bayes_serve`).
///
/// The controller calls [`PauseControl::request`]; the run's monitor
/// picks the first remaining checkpoint boundary every chain can still
/// reach, lets chains run exactly to it (a chain already at the
/// boundary parks, releasing its core's work, while stragglers catch
/// up), serializes a [`RunCheckpoint`] there, and returns early with
/// [`RunReport::paused_at`] set. Parked time is excluded from the
/// stall watchdog's progress clock. Because the boundary is an RNG
/// segment boundary, a later [`Runtime::resume`] replays the identical
/// draws — on any core allotment or inner-thread count.
///
/// A pause is abandoned (the run simply completes) when no boundary
/// remains, the checkpoint write fails, or a chain faults before
/// reaching the boundary; [`PauseControl::is_paused`] stays false.
#[derive(Debug, Default)]
pub struct PauseControl {
    requested: AtomicBool,
    /// Iteration chains may run up to before parking: 0 until the
    /// monitor publishes the pause boundary (chains freeze at their
    /// next draw), then the boundary itself, or `usize::MAX` once the
    /// pause is abandoned and chains must run free.
    limit: AtomicUsize,
    paused: AtomicBool,
}

impl PauseControl {
    /// A fresh control, shareable between controller and run.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Asks the run to pause at the next common checkpoint boundary.
    pub fn request(&self) {
        self.requested.store(true, Ordering::Release);
    }

    /// True once a pause has been requested.
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }

    /// True once the run has committed the pause checkpoint; the run
    /// is returning with [`RunReport::paused_at`] set.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Acquire)
    }

    fn limit(&self) -> usize {
        self.limit.load(Ordering::Acquire)
    }

    fn set_limit(&self, t: usize) {
        self.limit.store(t, Ordering::Release);
    }

    fn release(&self) {
        self.limit.store(usize::MAX, Ordering::Release);
    }

    fn mark_paused(&self) {
        self.paused.store(true, Ordering::Release);
    }
}

/// Classification of a chain failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The chain thread unwound (model panic, sampler bug, injected).
    Panic,
    /// The chain produced a non-finite draw — NaN/Inf poisoning from
    /// the log-density or gradient.
    NonFinite,
    /// The chain stopped making progress past the watchdog deadline.
    Stalled,
    /// The chain exceeded the configured divergence budget.
    Diverged,
}

impl FaultKind {
    /// Stable lowercase tag used in `chain_fault` events.
    pub fn tag(self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::NonFinite => "non_finite",
            Self::Stalled => "stalled",
            Self::Diverged => "diverged",
        }
    }
}

/// One recorded chain failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainFault {
    /// Chain index.
    pub chain: usize,
    /// Attempt that failed (0 = the original run).
    pub attempt: u32,
    /// What went wrong.
    pub kind: FaultKind,
    /// Iteration the fault surfaced at, when attributable.
    pub iter: Option<usize>,
    /// Human-readable detail (panic payload, deadline, …).
    pub message: String,
}

/// When a retried chain moves to a fresh RNG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReseedPolicy {
    /// Retries always replay the failed attempt's stream.
    Never,
    /// Every retry re-derives its stream via [`Purpose::Retry`].
    Always,
    /// Reseed only faults the random stream itself can cause
    /// ([`FaultKind::NonFinite`], [`FaultKind::Diverged`]) — replaying
    /// those would fail identically. Panics and stalls come from the
    /// environment, so their retries keep the stream and reproduce the
    /// fault-free draws bit for bit.
    #[default]
    StreamFaults,
}

impl ReseedPolicy {
    fn reseed_for(self, kind: FaultKind) -> bool {
        match self {
            Self::Never => false,
            Self::Always => true,
            Self::StreamFaults => matches!(kind, FaultKind::NonFinite | FaultKind::Diverged),
        }
    }
}

/// How many times a chain may run, and on which streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per chain, the original included. Must be ≥ 1.
    pub max_attempts: u32,
    /// Stream policy for retried attempts.
    pub reseed: ReseedPolicy,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 2,
            reseed: ReseedPolicy::default(),
        }
    }
}

/// A deterministically injected fault, for exercising recovery paths
/// (see `bayes_testkit`'s `FaultPlan`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic inside the chain's draw callback.
    Panic,
    /// Poison the draw with NaN, exercising non-finite detection.
    NonFinite,
    /// Block the chain until the watchdog cancels it.
    Stall,
    /// Report the chain as divergence-poisoned.
    Diverge,
}

/// Decides whether to inject a fault at a given (chain, attempt,
/// iteration) point. Implementations must be deterministic.
pub trait FaultInjector: Send + Sync {
    /// The fault to inject when chain `chain`, on attempt `attempt`,
    /// completes iteration `iter` — or `None` to proceed normally.
    fn inject(&self, chain: usize, attempt: u32, iter: usize) -> Option<InjectedFault>;
}

/// Fault-tolerance policy for a supervised run.
#[derive(Clone, Default)]
pub struct SupervisorConfig {
    /// Per-chain retry budget and stream policy.
    pub retry: RetryPolicy,
    /// Cancel a chain whose draw count stops advancing for this long
    /// ([`FaultKind::Stalled`]). `None` disables the watchdog.
    pub stall_deadline: Option<Duration>,
    /// Treat a chain exceeding this many post-warmup divergences as
    /// [`FaultKind::Diverged`]. `None` disables the check.
    pub max_divergences: Option<u64>,
    /// Minimum chains that must participate for convergence to be
    /// declared; with fewer survivors the run errors out
    /// ([`RunError::QuorumLost`]). Defaults to 2 (R̂ needs two chains).
    pub min_quorum: usize,
    /// The checkpoint log a run appends its [`RunCheckpoint`]s to: a
    /// fresh run replaces any file there, a run resumed from this same
    /// path extends it. Setting this switches chains to segmented RNG
    /// streams (see [`crate::checkpoint`]).
    pub checkpoint_path: Option<PathBuf>,
    /// Deterministic fault injector, for tests and smoke runs.
    pub injector: Option<Arc<dyn FaultInjector>>,
    /// Cooperative pause shared with an external controller. Requires
    /// [`SupervisorConfig::checkpoint_path`]; a pause commits only in
    /// rounds that write checkpoints (retry rounds ignore it).
    pub pause: Option<Arc<PauseControl>>,
    /// Wall-clock budget for the whole run (retries included). When it
    /// elapses the monitor cancels every chain cooperatively — never
    /// touching the RNG — and the run returns early with
    /// [`RunReport::interrupted`] set to [`Interrupt::DeadlineExpired`]
    /// and whatever draws were in the buffers. `None` disables it.
    pub deadline: Option<Duration>,
    /// External abort token (the job server's crash-simulation and
    /// shutdown path): raising it cancels every chain cooperatively
    /// and the run returns with [`Interrupt::Aborted`].
    pub abort: Option<Arc<AtomicBool>>,
    /// Live telemetry sampler, polled from the monitor thread (never a
    /// chain worker) each time it wakes, which it does at the sampler's
    /// wall-clock cadence at the latest. Observation only —
    /// the null handle is free, and sampling never perturbs draws.
    pub telemetry: TelemetryHandle,
}

impl std::fmt::Debug for SupervisorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisorConfig")
            .field("retry", &self.retry)
            .field("stall_deadline", &self.stall_deadline)
            .field("max_divergences", &self.max_divergences)
            .field("min_quorum", &self.min_quorum)
            .field("checkpoint_path", &self.checkpoint_path)
            .field("injector", &self.injector.is_some())
            .field("pause", &self.pause.is_some())
            .field("deadline", &self.deadline)
            .field("abort", &self.abort.is_some())
            .field("telemetry", &self.telemetry.enabled())
            .finish()
    }
}

impl SupervisorConfig {
    /// Default policy: 2 attempts per chain, stream-fault reseeding,
    /// no watchdog, no divergence budget, quorum 2, no checkpointing.
    pub fn new() -> Self {
        Self {
            min_quorum: 2,
            ..Self::default()
        }
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables the stall watchdog with the given deadline.
    pub fn with_stall_deadline(mut self, deadline: Duration) -> Self {
        self.stall_deadline = Some(deadline);
        self
    }

    /// Sets the per-chain divergence budget.
    pub fn with_max_divergences(mut self, max: u64) -> Self {
        self.max_divergences = Some(max);
        self
    }

    /// Sets the minimum chain quorum.
    pub fn with_min_quorum(mut self, quorum: usize) -> Self {
        self.min_quorum = quorum;
        self
    }

    /// Enables checkpointing to `path`.
    pub fn with_checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Attaches a deterministic fault injector.
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Attaches a cooperative pause control (preemption support).
    /// Requires a checkpoint path; [`Runtime::run`] rejects the config
    /// otherwise.
    pub fn with_pause(mut self, pause: Arc<PauseControl>) -> Self {
        self.pause = Some(pause);
        self
    }

    /// Sets the run-level wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches an external abort token.
    pub fn with_abort(mut self, abort: Arc<AtomicBool>) -> Self {
        self.abort = Some(abort);
        self
    }

    /// Attaches a live telemetry sampler (see
    /// [`bayes_obs::TelemetrySampler`]).
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }
}

// `new()` must start from quorum 2, but `derive(Default)` would give
// 0; keep Default usable by making it identical to `new()`.

/// Why a supervised run returned before finishing its configured work
/// (other than a pause or an early convergence stop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// [`SupervisorConfig::deadline`] elapsed.
    DeadlineExpired,
    /// The external [`SupervisorConfig::abort`] token was raised.
    Aborted,
}

/// Outcome of a supervised run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Surviving chains, in chain order, truncated to
    /// [`RunReport::stopped_at`] when the run converged early.
    pub run: MultiChainRun,
    /// Iteration at which convergence stopped the run, if it did.
    pub stopped_at: Option<usize>,
    /// Boundary at which a requested pause committed its checkpoint.
    /// The chains in [`RunReport::run`] are truncated to it, and the
    /// run continues bit-identically via [`Runtime::resume`] from
    /// [`SupervisorConfig::checkpoint_path`].
    pub paused_at: Option<usize>,
    /// Set when the run was cut short by the deadline or the abort
    /// token; [`RunReport::run`] holds the partial draws. A checkpoint
    /// written before the interrupt (if checkpointing was on) resumes
    /// the run bit-identically.
    pub interrupted: Option<Interrupt>,
    /// Iterations configured by the user.
    pub configured_iters: usize,
    /// Every fault observed, in resolution order.
    pub faults: Vec<ChainFault>,
    /// True when at least one chain exhausted its retries and the run
    /// completed without it.
    pub degraded: bool,
    /// Indices of the chains present in [`RunReport::run`].
    pub survivors: Vec<usize>,
    /// Final merged profiler metrics for the run (empty when no
    /// profiler was attached via [`RunConfig::with_profiler`]).
    pub metrics: bayes_obs::MetricsSnapshot,
}

impl RunReport {
    /// Fraction of configured iterations never executed (or discarded
    /// as overrun past the stop decision).
    pub fn iterations_elided(&self) -> f64 {
        // Every chain is truncated to exactly the stop decision.
        let executed = |t: usize| t as f64 / self.configured_iters as f64;
        self.stopped_at
            .map_or(0.0, |t| (1.0 - executed(t)).max(0.0))
    }
}

/// A supervised run that could not complete.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The run request itself was invalid.
    Config(ConfigError),
    /// Too few chains survived to satisfy the quorum.
    QuorumLost {
        /// Chains still alive when the run gave up.
        survivors: usize,
        /// The configured minimum.
        required: usize,
        /// Faults observed up to that point.
        faults: Vec<ChainFault>,
    },
    /// The monitor thread itself panicked.
    Monitor {
        /// The monitor's panic payload.
        message: String,
    },
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "{e}"),
            Self::QuorumLost {
                survivors,
                required,
                ..
            } => write!(
                f,
                "chain quorum lost: {survivors} survivors, {required} required"
            ),
            Self::Monitor { message } => write!(f, "monitor thread panicked: {message}"),
        }
    }
}

impl std::error::Error for RunError {}

/// One queued chain attempt.
#[derive(Clone)]
struct Attempt {
    chain: usize,
    attempt: u32,
    stream_seed: u64,
    /// The checkpointed chain it continues, draws included.
    from: Option<ChainCheckpoint>,
}

impl Attempt {
    /// Draws the attempt starts with.
    fn prefix(&self) -> usize {
        self.from.as_ref().map_or(0, |f| f.draws.len())
    }

    fn fault(&self, (kind, iter, message): FaultInfo) -> ChainFault {
        ChainFault {
            chain: self.chain,
            attempt: self.attempt,
            kind,
            iter,
            message,
        }
    }
}

/// Why one attempt failed: (kind, iteration, message).
type FaultInfo = (FaultKind, Option<usize>, String);

/// What a round's monitor decided.
#[derive(Default)]
struct Monitored {
    /// Stop decision, if any.
    decided: Option<usize>,
    /// A committed pause: the boundary and the chain states the pause
    /// checkpoint was written from, their rows filled in when the round
    /// ends (authoritative over the outcomes, which may include
    /// post-boundary overrun or moot faults).
    paused: Option<(usize, Vec<ChainCheckpoint>)>,
    /// The round was cut short by the deadline or the abort token.
    interrupted: Option<Interrupt>,
}

/// One attempt's share of a round: what its chain and the monitor
/// exchange.
#[derive(Default)]
struct Slot {
    /// Cooperative cancel flag, read by the chain after every draw.
    cancel: AtomicBool,
    /// The chain has ended — finished, cancelled, faulted or unwound.
    done: AtomicBool,
    /// What ended the attempt, when it was not the chain's own end.
    fault: Mutex<Option<FaultInfo>>,
    /// Every draw so far, the resume prefix included: the chain's only
    /// copy of its rows, which R̂ and the checkpoints read and the
    /// round hands to the chain's output when it ends.
    buffer: Mutex<Vec<Vec<f64>>>,
    /// Sampler states at boundaries not written yet.
    snapshots: Mutex<BTreeMap<usize, SamplerCheckpoint>>,
}

impl Slot {
    fn len(&self) -> usize {
        lock(&self.buffer).len()
    }

    fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// Records a fault, unless one is on record already, and cancels
    /// the chain.
    fn fail(&self, kind: FaultKind, iter: Option<usize>, message: String) {
        lock(&self.fault).get_or_insert((kind, iter, message));
        self.cancel();
    }
}

/// What the chains of one round share with each other and its monitor.
struct Round<'a> {
    slots: Vec<Slot>,
    gate: MonitorGate,
    /// RNG segment boundaries (empty when checkpointing is off).
    segments: &'a [usize],
    /// The round writes checkpoints, so chains keep their snapshots.
    write_checkpoints: bool,
    /// A stop decided in an earlier round: chains need only reach it.
    target: Option<usize>,
    iters: usize,
    injector: Option<&'a dyn FaultInjector>,
    /// `None` in rounds that write no checkpoints: a pause can only
    /// commit where one is written, so retry rounds never park.
    pause: Option<&'a PauseControl>,
    abort: Option<&'a AtomicBool>,
}

/// A supervised chain's view of its round, which the chain loop
/// ([`crate::chain::run_chain`]) consults around every draw.
pub(crate) struct Watch<'a> {
    round: &'a Round<'a>,
    slot: usize,
    chain: usize,
    attempt: u32,
}

impl Watch<'_> {
    /// Whether the chain's stream is re-derived before iteration `iter`.
    pub(crate) fn reseeds_at(&self, iter: usize) -> bool {
        self.round.segments.binary_search(&iter).is_ok()
    }

    /// Keeps the chain's state for the monitor once `completed`
    /// iterations are done, if the round writes a checkpoint there.
    pub(crate) fn snapshot(&self, completed: usize, state: impl FnOnce() -> SamplerCheckpoint) {
        if self.round.write_checkpoints && self.reseeds_at(completed) {
            lock(&self.round.slots[self.slot].snapshots).insert(completed, state());
        }
    }

    /// Takes the draw of iteration `iter`: fault injection, validation,
    /// the chain's rows (kept in its slot, not by the chain), the
    /// monitor's gate, the pause park. False once the chain must stop.
    pub(crate) fn on_draw(&self, iter: usize, draw: &[f64]) -> bool {
        let (round, slot) = (self.round, &self.round.slots[self.slot]);
        let injected = round
            .injector
            .and_then(|i| i.inject(self.chain, self.attempt, iter));
        match injected {
            Some(InjectedFault::Panic) => {
                panic!("injected panic (chain {}, iteration {iter})", self.chain)
            }
            Some(InjectedFault::Stall) => {
                while !slot.cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return false;
            }
            Some(InjectedFault::Diverge) => {
                slot.fail(
                    FaultKind::Diverged,
                    Some(iter),
                    "injected divergence".into(),
                );
                return false;
            }
            _ => {}
        }
        // Validate before the buffer sees the draw: a poisoned vector
        // must never reach R̂ or a checkpoint.
        if injected == Some(InjectedFault::NonFinite) || draw.iter().any(|v| !v.is_finite()) {
            let message = format!("non-finite draw at iteration {iter}");
            slot.fail(FaultKind::NonFinite, Some(iter), message);
            return false;
        }
        let len = {
            let mut buffer = lock(&slot.buffer);
            buffer.push(draw.to_vec());
            buffer.len()
        };
        if round.target.is_some_and(|t| len >= t) {
            slot.cancel();
        }
        round.gate.advance(self.slot, len);
        // An abort, or a pause whose boundary is still to be picked, is
        // the monitor's to act on — at this draw, not at its next
        // boundary.
        if round.abort.is_some_and(|a| a.load(Ordering::Acquire))
            || round
                .pause
                .is_some_and(|pc| pc.is_requested() && pc.limit() == 0)
        {
            round.gate.wake();
        }
        // Pause park: once a pause is requested, a chain at or past the
        // published boundary (0 until the monitor picks it) idles here —
        // after the draw and the snapshot are visible — until the pause
        // commits (cancel) or is abandoned (limit raised to MAX). The
        // hold touches no RNG, so draws are unaffected.
        if let Some(pc) = round.pause {
            while pc.is_requested() && len >= pc.limit() && len < round.iters && !slot.cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        !slot.cancelled()
    }
}

/// The fault-tolerant multi-chain runner; the elision runtime
/// ([`crate::runtime::run_until_converged`]) is it with one attempt per
/// chain.
#[derive(Debug, Clone)]
pub struct Runtime {
    detector: ConvergenceDetector,
    sup: SupervisorConfig,
}

impl Runtime {
    /// A supervisor with default fault policy around `detector`.
    pub fn new(detector: ConvergenceDetector) -> Self {
        Self {
            detector,
            sup: SupervisorConfig::new(),
        }
    }

    /// Replaces the fault policy.
    pub fn with_config(mut self, sup: SupervisorConfig) -> Self {
        self.sup = sup;
        self
    }

    /// The convergence detector in use.
    pub fn detector(&self) -> &ConvergenceDetector {
        &self.detector
    }

    /// Runs `cfg.chains` chains under supervision.
    ///
    /// # Errors
    ///
    /// [`RunError::Config`] for an invalid request, or
    /// [`RunError::QuorumLost`] when chain failures leave fewer than
    /// [`SupervisorConfig::min_quorum`] survivors.
    pub fn run<S: Sampler>(
        &self,
        sampler: &S,
        model: &dyn Model,
        cfg: &RunConfig,
    ) -> Result<RunReport, RunError> {
        self.run_inner(sampler, model, cfg, None)
    }

    /// Continues a run from the checkpoint at `path`. The remaining
    /// draws are bit-identical to the uninterrupted run's, provided
    /// the model, config, and detector match the checkpoint.
    ///
    /// # Errors
    ///
    /// [`ConfigError::CheckpointInvalid`] when the file cannot be read
    /// or parsed, [`ConfigError::CheckpointMismatch`] when it was
    /// taken under a different run, plus everything [`Runtime::run`]
    /// can return.
    pub fn resume<S: Sampler>(
        &self,
        sampler: &S,
        model: &dyn Model,
        cfg: &RunConfig,
        path: &Path,
    ) -> Result<RunReport, RunError> {
        // Scoped so the load's `resume` span merges into the profiler
        // before the run's final metrics emission.
        let loaded = {
            let _scope = cfg.profiler.install(None);
            RunCheckpoint::load_log(path)
        };
        let log = loaded.map_err(ConfigError::CheckpointInvalid)?;
        self.run_inner(sampler, model, cfg, Some((log, path)))
    }

    fn fingerprint(&self) -> DetectorFingerprint {
        DetectorFingerprint {
            threshold: self.detector.threshold(),
            check_every: self.detector.check_every(),
            min_iters: self.detector.min_iters(),
            consecutive: self.detector.consecutive(),
        }
    }

    fn validate_resume(
        &self,
        ck: &RunCheckpoint,
        model: &dyn Model,
        cfg: &RunConfig,
        segments: &[usize],
    ) -> Result<(), ConfigError> {
        let mismatch = |msg: String| Err(ConfigError::CheckpointMismatch(msg));
        if ck.model != model.name() || ck.dim != model.dim() {
            return mismatch(format!(
                "checkpoint is for model '{}' (dim {}), run is '{}' (dim {})",
                ck.model,
                ck.dim,
                model.name(),
                model.dim()
            ));
        }
        if ck.seed != cfg.seed
            || ck.chains != cfg.chains
            || ck.iters != cfg.iters
            || ck.warmup != cfg.warmup
        {
            return mismatch(format!(
                "checkpoint run shape (seed {}, chains {}, iters {}, warmup {}) \
                 differs from config (seed {}, chains {}, iters {}, warmup {})",
                ck.seed,
                ck.chains,
                ck.iters,
                ck.warmup,
                cfg.seed,
                cfg.chains,
                cfg.iters,
                cfg.warmup
            ));
        }
        if ck.detector != self.fingerprint() {
            return mismatch(
                "checkpoint was taken under a different convergence detector".to_string(),
            );
        }
        if segments.binary_search(&ck.iter).is_err() {
            return mismatch(format!(
                "checkpoint iteration {} is not a detector checkpoint boundary",
                ck.iter
            ));
        }
        if ck.chain_states.len() != cfg.chains {
            return mismatch(format!(
                "checkpoint has {} chain states, run has {} chains",
                ck.chain_states.len(),
                cfg.chains
            ));
        }
        for (c, cs) in ck.chain_states.iter().enumerate() {
            if cs.chain != c
                || cs.sampler.iter != ck.iter
                || cs.draws.len() != ck.iter
                || cs.evals_per_iter.len() != ck.iter
            {
                return mismatch(format!(
                    "chain state {c} is inconsistent with iter {}",
                    ck.iter
                ));
            }
        }
        Ok(())
    }

    fn run_inner<S: Sampler>(
        &self,
        sampler: &S,
        model: &dyn Model,
        cfg: &RunConfig,
        resume: Option<(LoadedLog, &Path)>,
    ) -> Result<RunReport, RunError> {
        cfg.validate()?;
        if self.sup.retry.max_attempts == 0 {
            return Err(ConfigError::ZeroAttempts.into());
        }
        if self.sup.min_quorum == 0 {
            return Err(ConfigError::ZeroQuorum.into());
        }
        if self.sup.min_quorum > cfg.chains {
            return Err(ConfigError::QuorumExceedsChains {
                quorum: self.sup.min_quorum,
                chains: cfg.chains,
            }
            .into());
        }
        let checkpointing = self.sup.checkpoint_path.is_some() || resume.is_some();
        if self.sup.pause.is_some() && self.sup.checkpoint_path.is_none() {
            return Err(ConfigError::PauseWithoutCheckpoint.into());
        }
        // The detector checkpoint schedule doubles as the RNG segment
        // schedule, so checkpointed and resumed runs agree on where
        // every stream is re-derived.
        let segments: Vec<usize> = if checkpointing {
            self.detector.checkpoints(cfg.iters).collect()
        } else {
            Vec::new()
        };
        if let Some((log, _)) = &resume {
            self.validate_resume(&log.checkpoint, model, cfg, &segments)?;
        }
        // Rewriting the log it resumed from, the run extends its verified
        // frames, which hold the resume prefix; any other log starts
        // empty, its first frame holding every row.
        let log_start = match &resume {
            Some((log, from)) if self.sup.checkpoint_path.as_deref() == Some(*from) => {
                (log.valid_len, log.checkpoint.iter)
            }
            _ => (0, 0),
        };

        model.set_inner_threads(cfg.effective_inner_threads());
        model.set_recorder(&cfg.recorder);
        model.set_fast_path(cfg.effective_fast_path());
        if cfg.recorder.enabled() {
            cfg.recorder.record(Event::RunStart {
                model: model.name().to_string(),
                chains: cfg.chains as u64,
                iters: cfg.iters as u64,
                seed: cfg.seed,
            });
            if let Some((log, path)) = &resume {
                cfg.recorder.record(Event::Resume {
                    path: path.display().to_string(),
                    iter: log.checkpoint.iter as u64,
                    model: model.name().to_string(),
                });
            }
        }
        let inits = initial_points(cfg, model.dim());

        // Caller-thread profiler scope: retry bookkeeping and the
        // post-hoc degradation walk record under it. Dropped (merged)
        // before the final metrics emission below.
        let caller_scope = cfg.profiler.install(None);

        let mut pending: Vec<Attempt> = match resume {
            None => (0..cfg.chains)
                .map(|c| Attempt {
                    chain: c,
                    attempt: 0,
                    stream_seed: cfg.chain_seed(c),
                    from: None,
                })
                .collect(),
            Some((log, _)) => log
                .checkpoint
                .chain_states
                .into_iter()
                .map(|cs| Attempt {
                    chain: cs.chain,
                    attempt: 0,
                    stream_seed: cs.stream_seed,
                    from: Some(cs),
                })
                .collect(),
        };

        let mut completed: BTreeMap<usize, ChainOutput> = BTreeMap::new();
        let mut lost: BTreeSet<usize> = BTreeSet::new();
        let mut faults: Vec<ChainFault> = Vec::new();
        let mut decided: Option<usize> = None;
        let mut paused_at: Option<usize> = None;
        let mut interrupted: Option<Interrupt> = None;
        // The deadline clock covers the whole run, retries included.
        let deadline_at = self.sup.deadline.map(|d| Instant::now() + d);

        while !pending.is_empty() {
            let all_pending = completed.is_empty() && pending.len() == cfg.chains;
            let write_checkpoints = all_pending && self.sup.checkpoint_path.is_some();
            let (outcomes, monitored) = self.run_round(
                sampler,
                model,
                cfg,
                &inits,
                &pending,
                &completed,
                &segments,
                decided,
                write_checkpoints,
                log_start,
                deadline_at,
            )?;
            if decided.is_none() {
                decided = monitored.decided;
            }
            if let Some((t, states)) = monitored.paused {
                // A committed pause: every chain reached boundary `t`
                // and the checkpoint is on disk. The checkpoint's
                // chain states are authoritative — a chain may have
                // overrun the boundary (or even faulted past it)
                // between the write and its cancellation, and all of
                // that is discarded territory a resume replays.
                let sampling = t.saturating_sub(cfg.warmup).max(1) as f64;
                for cs in states {
                    let out = ChainOutput {
                        accept_mean: cs.sampler.accept_sum / sampling,
                        grad_evals: cs.sampler.grad_evals,
                        divergences: cs.sampler.divergences,
                        draws: cs.draws,
                        warmup: cfg.warmup,
                        evals_per_iter: cs.evals_per_iter,
                    };
                    completed.insert(cs.chain, out);
                }
                let moot = pending.iter().zip(outcomes);
                faults.extend(moot.filter_map(|(p, o)| o.err().map(|info| p.fault(info))));
                paused_at = Some(t);
                break;
            }

            let mut next: Vec<Attempt> = Vec::new();
            for (p, outcome) in pending.iter().zip(outcomes) {
                let fault = match outcome {
                    Ok(out) => {
                        completed.insert(p.chain, out);
                        continue;
                    }
                    Err(info) => p.fault(info),
                };
                if monitored.interrupted.is_some() {
                    // The cut is cooperative: chains were cancelled at a
                    // draw boundary and returned whatever they had. Keep
                    // the partial draws and record faults without
                    // retrying — the run is over.
                    faults.push(fault);
                    continue;
                }
                if cfg.recorder.enabled() {
                    cfg.recorder.record(Event::ChainFault {
                        chain: fault.chain as u64,
                        attempt: fault.attempt as u64,
                        kind: fault.kind.tag().to_string(),
                        iter: fault.iter.map(|i| i as u64),
                        message: fault.message.clone(),
                    });
                }
                let next_attempt = p.attempt + 1;
                if next_attempt < self.sup.retry.max_attempts {
                    let _span = bayes_obs::span(bayes_obs::Phase::Retry);
                    // A reseed-eligible fault at/past an already-decided
                    // stop point is retried on the SAME stream: the chain
                    // only has to reach the decision, and the fault lies
                    // in draws that will be discarded anyway — reseeding
                    // would perturb the kept prefix.
                    let past_decision = matches!(
                        (fault.iter, decided),
                        (Some(i), Some(t)) if i >= t
                    );
                    let reseed = self.sup.retry.reseed.reseed_for(fault.kind) && !past_decision;
                    let stream_seed = if reseed {
                        StreamKey::new(cfg.seed)
                            .chain(p.chain as u64)
                            .purpose(Purpose::Retry(next_attempt))
                            .derive()
                    } else {
                        p.stream_seed
                    };
                    if cfg.recorder.enabled() {
                        cfg.recorder.record(Event::ChainRetry {
                            chain: p.chain as u64,
                            attempt: next_attempt as u64,
                            reseed,
                            seed: stream_seed,
                        });
                    }
                    next.push(Attempt {
                        attempt: next_attempt,
                        stream_seed,
                        ..p.clone()
                    });
                } else {
                    lost.insert(p.chain);
                }
                faults.push(fault);
            }
            if let Some(reason) = monitored.interrupted {
                interrupted = Some(reason);
                break;
            }
            pending = next;

            let alive = cfg.chains - lost.len();
            if alive < self.sup.min_quorum {
                cfg.recorder.flush();
                return Err(RunError::QuorumLost {
                    survivors: alive,
                    required: self.sup.min_quorum,
                    faults,
                });
            }
        }

        // A chain lost mid-monitoring freezes the online walk at its
        // fault point; once the survivors are all in, replay the
        // schedule over them post-hoc (quorum permitting) so graceful
        // degradation still elides converged tails. No events: the
        // online monitor already reported the checkpoints it reached.
        if interrupted.is_none()
            && decided.is_none()
            && !lost.is_empty()
            && completed.len() >= self.sup.min_quorum.max(2)
        {
            let views: Vec<&[Vec<f64>]> = completed.values().map(|c| c.draws.as_slice()).collect();
            let null = bayes_obs::RecorderHandle::null();
            decided = self.detector.replay(&views, &null).converged_at;
        }

        if let Some(t) = decided {
            // Discard in-flight overrun past the stop decision, exactly
            // as the plain elision runtime does.
            for out in completed.values_mut() {
                if out.draws.len() > t {
                    out.grad_evals = out.evals_until(t);
                    out.draws.truncate(t);
                    out.evals_per_iter.truncate(t);
                }
            }
        }

        let degraded = !lost.is_empty();
        // Merge the caller thread's spans (retry handling, degradation
        // walk) before draining the run-level snapshot, so the final
        // metrics include them.
        drop(caller_scope);
        model.flush_telemetry();
        // One final sample before the drain, so even a run shorter
        // than the sampling cadence leaves at least one
        // `metrics_sample` in the trace — with the complete metrics,
        // since every profiler scope has merged by this point.
        if self.sup.telemetry.enabled() {
            let final_iter = completed.values().map(|c| c.draws.len()).min().unwrap_or(0) as u64;
            self.sup
                .telemetry
                .force_sample(model.name(), final_iter, &cfg.profiler.snapshot());
        }
        let snapshot = cfg.profiler.emit_metrics(model.name());
        let total_grad_evals: u64 = completed.values().map(|c| c.grad_evals).sum();
        if degraded && cfg.recorder.enabled() {
            cfg.recorder.record(Event::DegradedReport {
                model: model.name().to_string(),
                survivors: completed.len() as u64,
                lost: lost.len() as u64,
                faults: faults.len() as u64,
                grad_evals: total_grad_evals,
                span_ns: snapshot.span_total_ns(),
            });
        }
        if cfg.recorder.enabled() {
            cfg.recorder.record(Event::RunEnd {
                model: model.name().to_string(),
                chains: completed.len() as u64,
                stopped_at: decided.map(|t| t as u64),
                total_draws: completed.values().map(|c| c.draws.len() as u64).sum(),
                divergences: completed.values().map(|c| c.divergences).sum(),
                grad_evals: total_grad_evals,
                span_ns: snapshot.span_total_ns(),
            });
            cfg.recorder.flush();
        }

        let survivors: Vec<usize> = completed.keys().copied().collect();
        let chains: Vec<ChainOutput> = completed.into_values().collect();
        Ok(RunReport {
            run: MultiChainRun {
                chains,
                dim: model.dim(),
            },
            stopped_at: decided,
            paused_at,
            interrupted,
            configured_iters: cfg.iters,
            faults,
            degraded,
            survivors,
            metrics: snapshot,
        })
    }

    /// Runs one round: every pending attempt on its own OS thread, a
    /// monitor thread walking the checkpoint schedule (convergence +
    /// checkpoint appends) and policing the stall deadline. Returns each
    /// attempt's chain output or the fault that ended it, in `pending`
    /// order, and what the monitor decided. A round that writes
    /// checkpoints opens the log at its first boundary as `log_start`
    /// says: the bytes to keep and the rows per chain they hold.
    #[allow(clippy::too_many_arguments)]
    fn run_round<S: Sampler>(
        &self,
        sampler: &S,
        model: &dyn Model,
        cfg: &RunConfig,
        inits: &[Vec<f64>],
        pending: &[Attempt],
        completed: &BTreeMap<usize, ChainOutput>,
        segments: &[usize],
        decided: Option<usize>,
        write_checkpoints: bool,
        log_start: (u64, usize),
        deadline_at: Option<Instant>,
    ) -> Result<(Vec<Result<ChainOutput, FaultInfo>>, Monitored), RunError> {
        // Convergence may only be decided while enough chains
        // participate (quorum, and ≥ 2 for R̂ itself).
        let monitoring =
            decided.is_none() && (completed.len() + pending.len()) >= self.sup.min_quorum.max(2);
        let round = Round {
            slots: pending
                .iter()
                .map(|p| {
                    let mut rows = Vec::with_capacity(cfg.iters);
                    rows.extend_from_slice(p.from.as_ref().map_or(&[][..], |f| &f.draws[..]));
                    Slot {
                        buffer: Mutex::new(rows),
                        ..Slot::default()
                    }
                })
                .collect(),
            gate: MonitorGate::new(pending.iter().map(Attempt::prefix)),
            segments,
            write_checkpoints,
            target: decided,
            iters: cfg.iters,
            injector: self.sup.injector.as_deref(),
            pause: self.sup.pause.as_deref().filter(|_| write_checkpoints),
            abort: self.sup.abort.as_deref(),
        };
        let detector = &self.detector;
        let cancel_all = || round.slots.iter().for_each(Slot::cancel);

        std::thread::scope(|scope| {
            let monitor = scope.spawn(|| {
                let _prof_scope = cfg.profiler.install(None);
                let mut out = Monitored::default();
                let mut schedule = detector.checkpoints(cfg.iters);
                let mut pending_ck = if monitoring || write_checkpoints {
                    schedule.next()
                } else {
                    None
                };
                let mut streak = 0usize;
                let mut heartbeats: Vec<(usize, Instant)> = round
                    .slots
                    .iter()
                    .map(|s| (s.len(), Instant::now()))
                    .collect();
                // Boundary a requested pause will commit at, once
                // published; `pause_dead` marks a pause abandoned for the
                // rest of the round.
                let mut pause_target: Option<usize> = None;
                let mut pause_dead = false;
                let mut log: Option<CheckpointLog> = None;
                loop {
                    // Deadline/abort cut: cancel every chain
                    // cooperatively (the same flag the convergence stop
                    // uses — no RNG is touched) and end the round with
                    // the partial buffers.
                    let cut = if round.abort.is_some_and(|a| a.load(Ordering::Acquire)) {
                        Some(Interrupt::Aborted)
                    } else if deadline_at.is_some_and(|d| Instant::now() >= d) {
                        Some(Interrupt::DeadlineExpired)
                    } else {
                        None
                    };
                    if let Some(reason) = cut {
                        out.interrupted = Some(reason);
                        cancel_all();
                        break;
                    }
                    if let Some(pc) = round.pause {
                        if !pause_dead && pause_target.is_none() && pc.is_requested() {
                            // Publish the first remaining boundary every
                            // chain can still reach; chains freeze at
                            // their next draw until it lands, then run
                            // exactly to it.
                            let max_len = round.slots.iter().map(Slot::len).max().unwrap_or(0);
                            let floor = pending_ck.unwrap_or(usize::MAX);
                            // Not the boundary the round resumed at: the
                            // chains crossed it in an earlier placement
                            // and will deliver no snapshot for it in this
                            // one.
                            let resumed_at = pending.iter().map(Attempt::prefix).max();
                            match segments
                                .iter()
                                .copied()
                                .find(|&b| b >= max_len && b >= floor && Some(b) > resumed_at)
                            {
                                Some(t) => {
                                    pause_target = Some(t);
                                    pc.set_limit(t);
                                }
                                None => {
                                    // Past the last boundary: let the run
                                    // finish.
                                    pause_dead = true;
                                    pc.release();
                                }
                            }
                        }
                        if let Some(t) = pause_target {
                            // A chain that ended below the boundary can
                            // never deliver its snapshot; abandon the
                            // pause so parked chains don't wait on it
                            // forever.
                            let unreachable = round.slots.iter().any(|s| {
                                (s.done.load(Ordering::Acquire) || s.cancelled()) && s.len() < t
                            });
                            if unreachable {
                                pause_target = None;
                                pause_dead = true;
                                pc.release();
                            }
                        }
                    }
                    if let Some(t) = pending_ck.filter(|&t| round.gate.progress() >= t) {
                        if monitoring {
                            let _span = bayes_obs::span(bayes_obs::Phase::CheckpointDiag);
                            // R̂ over chain-ordered prefixes: finished
                            // chains contribute their stored draws,
                            // running chains their live buffers; lost
                            // chains are simply absent.
                            let snaps: Vec<Vec<Vec<f64>>> = (0..cfg.chains)
                                .filter_map(|c| match completed.get(&c) {
                                    Some(out) => Some(out.draws[..t].to_vec()),
                                    None => pending
                                        .iter()
                                        .position(|p| p.chain == c)
                                        .map(|i| lock(&round.slots[i].buffer)[..t].to_vec()),
                                })
                                .collect();
                            let views: Vec<&[Vec<f64>]> =
                                snaps.iter().map(|s| s.as_slice()).collect();
                            let r = detector.rhat_at(&views, t);
                            if r.is_finite() && r < detector.threshold() {
                                streak += 1;
                            } else {
                                streak = 0;
                            }
                            let converged = streak >= detector.consecutive();
                            // A stop is in force before it is reported.
                            if converged {
                                cancel_all();
                            }
                            if cfg.recorder.enabled() {
                                cfg.recorder.record(Event::Checkpoint {
                                    source: CheckpointSource::Online,
                                    iter: t as u64,
                                    max_rhat: r,
                                    streak: streak as u64,
                                    converged,
                                });
                            }
                            if converged {
                                out.decided = Some(t);
                                break;
                            }
                        }
                        let path = self.sup.checkpoint_path.as_ref();
                        let have_all = || {
                            let mut slots = round.slots.iter();
                            slots.all(|s| lock(&s.snapshots).contains_key(&t))
                        };
                        if let Some(path) = path.filter(|_| write_checkpoints && have_all()) {
                            let ck_started = Instant::now();
                            let chain_states: Vec<ChainCheckpoint> = pending
                                .iter()
                                .zip(&round.slots)
                                .map(|(p, slot)| {
                                    let mut sampler = {
                                        let mut snaps = lock(&slot.snapshots);
                                        let at_t = snaps.remove(&t);
                                        snaps.retain(|&k, _| k > t);
                                        at_t.expect("checked above")
                                    };
                                    ChainCheckpoint {
                                        chain: p.chain,
                                        stream_seed: p.stream_seed,
                                        draws: Vec::new(),
                                        evals_per_iter: std::mem::take(&mut sampler.evals_per_iter),
                                        sampler,
                                    }
                                })
                                .collect();
                            let ck = RunCheckpoint {
                                version: CHECKPOINT_VERSION,
                                model: model.name().to_string(),
                                dim: model.dim(),
                                seed: cfg.seed,
                                chains: cfg.chains,
                                iters: cfg.iters,
                                warmup: cfg.warmup,
                                detector: self.fingerprint(),
                                iter: t,
                                chain_states,
                            };
                            // One frame appended to the log: the rows
                            // each chain drew since the log's last frame
                            // go from its buffer straight into the
                            // frame's bytes; `ck` holds no draws.
                            // Best-effort: an unwritable checkpoint must
                            // not kill a healthy run.
                            let saved = {
                                let _span = bayes_obs::span(bayes_obs::Phase::Serialize);
                                if log.is_none() {
                                    log = CheckpointLog::open(path, log_start.0, log_start.1).ok();
                                }
                                log.as_mut().is_some_and(|log| {
                                    let from = log.rows();
                                    let mut frame = DurableWriter::begin(&ck);
                                    for (c, slot) in ck.chain_states.iter().zip(&round.slots) {
                                        let rows = &lock(&slot.buffer)[from..t];
                                        frame.block(rows, &c.evals_per_iter[from..]);
                                    }
                                    log.append(&frame.finish(), t).is_ok()
                                })
                            };
                            if saved && cfg.recorder.enabled() {
                                cfg.recorder.record(Event::CheckpointSaved {
                                    path: path.display().to_string(),
                                    iter: t as u64,
                                    chains: cfg.chains as u64,
                                });
                            }
                            // A chain blocked on its buffer lock while the
                            // encoder copied it must not see that time
                            // on its progress clock.
                            let spent = ck_started.elapsed();
                            for hb in heartbeats.iter_mut() {
                                hb.1 += spent;
                            }
                            if pause_target == Some(t) {
                                let pc = round.pause.expect("a pause target implies a pause");
                                if saved {
                                    out.paused = Some((t, ck.chain_states));
                                    pc.mark_paused();
                                    cancel_all();
                                    break;
                                }
                                // An unwritable pause checkpoint cannot
                                // preempt: release the parked chains and
                                // let the run finish.
                                pause_target = None;
                                pause_dead = true;
                                pc.release();
                            }
                        }
                        pending_ck = schedule.next();
                        continue;
                    }
                    // The monitor sleeps until the earliest thing it
                    // owns is due: the run deadline, a chain's stall
                    // deadline, the telemetry cadence.
                    let now = Instant::now();
                    let mut wake_at =
                        deadline_at.map_or(now + MONITOR_NAP, |d| d.min(now + MONITOR_NAP));
                    // Stall watchdog: a running, uncancelled chain whose
                    // draw count has not advanced within the deadline is
                    // cancelled and marked Stalled. Cancellation is
                    // cooperative and touches no RNG, so a same-stream
                    // retry reproduces the chain's draws exactly.
                    if let Some(deadline) = self.sup.stall_deadline {
                        // Chains parked by a pause request are waiting on
                        // the supervisor, not stalled: keep their clocks
                        // current. While the boundary is unpublished
                        // (limit 0) every chain is about to park, so all
                        // are exempt.
                        let hold_limit = round
                            .pause
                            .filter(|pc| pc.is_requested())
                            .map(PauseControl::limit);
                        for (slot, hb) in round.slots.iter().zip(heartbeats.iter_mut()) {
                            if slot.done.load(Ordering::Acquire) || slot.cancelled() {
                                continue;
                            }
                            let len = slot.len();
                            if len > hb.0 {
                                *hb = (len, now);
                            } else if hold_limit.is_some_and(|l| len >= l) {
                                hb.1 = now;
                            }
                            if now.duration_since(hb.1) < deadline {
                                wake_at = wake_at.min(hb.1 + deadline);
                            } else {
                                let message = format!("no progress within {deadline:?}");
                                slot.fail(FaultKind::Stalled, Some(len), message);
                            }
                        }
                    }
                    // Live telemetry: cadence-checked each time the
                    // monitor wakes. The monitor thread is off the
                    // sampling hot path, and the sampler only observes
                    // (cumulative snapshot in, metrics_sample event out)
                    // — chains never see it.
                    let telemetry = &self.sup.telemetry;
                    if telemetry.enabled() {
                        let progress = round.gate.progress() as u64;
                        telemetry.maybe_sample(model.name(), progress, &cfg.profiler.snapshot());
                    }
                    if let Some(due) = telemetry.due_in() {
                        wake_at = wake_at.min(now + due);
                    }
                    if !round
                        .gate
                        .park(pending_ck, wake_at.saturating_duration_since(now))
                    {
                        break;
                    }
                }
                out
            });

            let workers: Vec<_> = pending
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let round = &round;
                    let cfg_c = cfg.for_chain(p.chain);
                    scope.spawn(move || {
                        let watch = Watch {
                            round,
                            slot: i,
                            chain: p.chain,
                            attempt: p.attempt,
                        };
                        let (init, from) = (&inits[p.chain], p.from.as_ref());
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            run_chain(
                                sampler,
                                model,
                                init,
                                &cfg_c,
                                p.stream_seed,
                                from,
                                Some(&watch),
                            )
                        }));
                        // Chain end, faults included: the monitor may be
                        // waiting on a boundary this chain will never
                        // reach.
                        round.slots[i].done.store(true, Ordering::Release);
                        round.gate.wake();
                        result
                    })
                })
                .collect();

            let joined: Vec<_> = workers.into_iter().map(|h| h.join()).collect();
            round.gate.finish();
            let mut monitored = monitor.join().map_err(|payload| RunError::Monitor {
                message: panic_message(payload.as_ref()).to_string(),
            })?;
            // Every thread is done with the slots: each chain's rows move
            // to its output. A committed pause returns the rows up to its
            // boundary instead, copied since a chain may have drawn past
            // it.
            let rows: Vec<Vec<Vec<f64>>> = round
                .slots
                .iter()
                .map(|slot| std::mem::take(&mut *lock(&slot.buffer)))
                .collect();
            if let Some((t, states)) = &mut monitored.paused {
                for (state, rows) in states.iter_mut().zip(&rows) {
                    state.draws = rows[..*t].to_vec();
                }
            }
            let outcomes = joined
                .into_iter()
                .zip(&round.slots)
                .zip(rows)
                .map(|((joined, slot), rows)| {
                    let out = match joined.and_then(|caught| caught) {
                        // Join-level and catch_unwind-level panics alike:
                        // the attempt unwound.
                        Err(payload) => {
                            let message = panic_message(payload.as_ref()).to_string();
                            return Err((FaultKind::Panic, Some(rows.len()), message));
                        }
                        Ok(out) => out,
                    };
                    if let Some(fault) = lock(&slot.fault).take() {
                        return Err(fault);
                    }
                    match self.sup.max_divergences {
                        Some(max) if out.divergences > max => Err((
                            FaultKind::Diverged,
                            None,
                            format!(
                                "{} post-warmup divergences exceed the budget of {max}",
                                out.divergences
                            ),
                        )),
                        _ => Ok(ChainOutput { draws: rows, ..out }),
                    }
                })
                .collect();
            Ok((outcomes, monitored))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::tests::Scripted;
    use crate::chain::Env;
    use crate::model::{AdModel, LogDensity};
    use crate::nuts::Nuts;
    use bayes_autodiff::Real;

    struct Gauss;
    impl LogDensity for Gauss {
        fn dim(&self) -> usize {
            2
        }
        fn eval<R: Real>(&self, t: &[R]) -> R {
            -(t[0].square() + (t[1] - 1.0).square()) * 0.5
        }
    }

    fn unreachable_detector() -> ConvergenceDetector {
        ConvergenceDetector::new().with_threshold(1.0 + 1e-12)
    }

    #[test]
    fn fault_free_supervised_run_matches_elision_runtime() {
        let model = AdModel::new("g", Gauss);
        let cfg = RunConfig::new(2000).with_chains(4).with_seed(29);
        let det = ConvergenceDetector::new();
        let sup = Runtime::new(det.clone())
            .run(&Nuts::default(), &model, &cfg)
            .expect("healthy run");
        let plain = crate::runtime::run_until_converged(&Nuts::default(), &model, &cfg, &det);
        assert_eq!(sup.stopped_at, plain.stopped_at);
        assert!(!sup.degraded);
        assert!(sup.faults.is_empty());
        assert_eq!(sup.survivors, vec![0, 1, 2, 3]);
        for (a, b) in sup.run.chains.iter().zip(&plain.run.chains) {
            assert_eq!(a.draws, b.draws, "draws must be bit-identical");
        }
    }

    #[test]
    fn invalid_configs_surface_as_typed_errors() {
        let model = AdModel::new("g", Gauss);
        let rt = Runtime::new(unreachable_detector());
        let zero = RunConfig::new(10).with_chains(0);
        assert!(matches!(
            rt.run(&Nuts::default(), &model, &zero),
            Err(RunError::Config(ConfigError::ZeroChains))
        ));
        let cfg = RunConfig::new(10).with_chains(2);
        let bad_retry = Runtime::new(unreachable_detector()).with_config(
            SupervisorConfig::new().with_retry(RetryPolicy {
                max_attempts: 0,
                reseed: ReseedPolicy::Never,
            }),
        );
        assert!(matches!(
            bad_retry.run(&Nuts::default(), &model, &cfg),
            Err(RunError::Config(ConfigError::ZeroAttempts))
        ));
        let big_quorum = Runtime::new(unreachable_detector())
            .with_config(SupervisorConfig::new().with_min_quorum(3));
        assert!(matches!(
            big_quorum.run(&Nuts::default(), &model, &cfg),
            Err(RunError::Config(ConfigError::QuorumExceedsChains {
                quorum: 3,
                chains: 2
            }))
        ));
    }

    /// Draw `i` is `[i; dim]`, and chain 0 sleeps `slow_ms` per
    /// iteration, the rest `fast_ms`: enough to exercise the
    /// pause/park/watchdog plumbing without NUTS cost.
    fn sleepy(
        slow_ms: u64,
        fast_ms: u64,
    ) -> Scripted<impl Fn(&mut Env<'_>, usize, &mut [f64]) + Sync> {
        Scripted(move |env: &mut Env<'_>, iter, draw: &mut [f64]| {
            let delay = if env.cfg.chain_index == 0 {
                slow_ms
            } else {
                fast_ms
            };
            std::thread::sleep(Duration::from_millis(delay));
            draw.fill(iter as f64);
        })
    }

    #[test]
    fn pause_requires_checkpoint_path() {
        let model = AdModel::new("g", Gauss);
        let cfg = RunConfig::new(50).with_chains(2);
        let rt = Runtime::new(unreachable_detector())
            .with_config(SupervisorConfig::new().with_pause(PauseControl::new()));
        assert!(matches!(
            rt.run(&Nuts::default(), &model, &cfg),
            Err(RunError::Config(ConfigError::PauseWithoutCheckpoint))
        ));
    }

    #[test]
    fn preemption_park_past_the_stall_deadline_is_not_a_stall() {
        let model = AdModel::new("g", Gauss);
        let path = std::env::temp_dir().join("bayes_mcmc_supervisor_park_ck.json");
        let det = unreachable_detector()
            .with_check_every(20)
            .with_min_iters(20);
        let pause = PauseControl::new();
        let rt = Runtime::new(det.clone()).with_config(
            SupervisorConfig::new()
                .with_checkpoint_path(&path)
                .with_pause(pause.clone())
                .with_stall_deadline(Duration::from_millis(100)),
        );
        let cfg = RunConfig::new(40)
            .with_chains(3)
            .with_seed(7)
            .with_warmup(0);
        // Chain 0 needs ~160ms to reach the first boundary at 20; the
        // fast chains get there in ~20ms and park far past the 100ms
        // stall deadline. The parked time must not read as a stall.
        pause.request();
        let sampler = sleepy(8, 1);
        let report = rt.run(&sampler, &model, &cfg).expect("pause commits");
        assert_eq!(report.paused_at, Some(20));
        assert!(pause.is_paused());
        assert!(
            report.faults.is_empty(),
            "parked chains must not trip the watchdog: {:?}",
            report.faults
        );
        assert!(!report.degraded);
        for c in &report.run.chains {
            assert_eq!(c.draws.len(), 20);
        }
        // The pause checkpoint resumes into the full run.
        let resumed = Runtime::new(det)
            .with_config(SupervisorConfig::new().with_checkpoint_path(&path))
            .resume(&sampler, &model, &cfg, &path)
            .expect("resume");
        let _ = std::fs::remove_file(&path);
        assert_eq!(resumed.paused_at, None);
        for c in &resumed.run.chains {
            let expect: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64; 2]).collect();
            assert_eq!(c.draws, expect);
        }
    }

    #[test]
    fn pause_with_no_reachable_boundary_is_abandoned() {
        let model = AdModel::new("g", Gauss);
        let path = std::env::temp_dir().join("bayes_mcmc_supervisor_noboundary_ck.json");
        // min_iters beyond the run: the schedule is empty, so there is
        // no boundary to pause at — the run must complete instead of
        // parking forever.
        let det = unreachable_detector()
            .with_check_every(500)
            .with_min_iters(1000);
        let pause = PauseControl::new();
        let rt = Runtime::new(det).with_config(
            SupervisorConfig::new()
                .with_checkpoint_path(&path)
                .with_pause(pause.clone()),
        );
        let cfg = RunConfig::new(30)
            .with_chains(2)
            .with_seed(3)
            .with_warmup(0);
        pause.request();
        let sampler = sleepy(1, 1);
        let report = rt.run(&sampler, &model, &cfg).expect("run completes");
        let _ = std::fs::remove_file(&path);
        assert_eq!(report.paused_at, None);
        assert!(!pause.is_paused());
        for c in &report.run.chains {
            assert_eq!(c.draws.len(), 30);
        }
    }

    #[test]
    fn paused_then_resumed_nuts_run_matches_uninterrupted_checkpointed_run() {
        let model = AdModel::new("g", Gauss);
        let det = unreachable_detector()
            .with_check_every(25)
            .with_min_iters(25);
        let cfg = RunConfig::new(150).with_chains(2).with_seed(11);
        // Reference: checkpointing but uninterrupted, so both runs use
        // the same segmented streams.
        let ref_path = std::env::temp_dir().join("bayes_mcmc_supervisor_pause_ref.json");
        let reference = Runtime::new(det.clone())
            .with_config(SupervisorConfig::new().with_checkpoint_path(&ref_path))
            .run(&Nuts::default(), &model, &cfg)
            .expect("reference run");
        let _ = std::fs::remove_file(&ref_path);

        let pause = PauseControl::new();
        let p_path = std::env::temp_dir().join("bayes_mcmc_supervisor_pause_ck.json");
        pause.request();
        let paused = Runtime::new(det.clone())
            .with_config(
                SupervisorConfig::new()
                    .with_checkpoint_path(&p_path)
                    .with_pause(pause.clone()),
            )
            .run(&Nuts::default(), &model, &cfg)
            .expect("paused run");
        let t = paused.paused_at.expect("pause commits at a boundary");
        assert!(pause.is_paused());
        for (a, b) in paused.run.chains.iter().zip(&reference.run.chains) {
            assert_eq!(a.draws[..], b.draws[..t], "pause prefix must match");
        }

        // Resume on a different core allotment: the inner-thread split
        // changes, the draws must not.
        let resumed = Runtime::new(det)
            .with_config(SupervisorConfig::new().with_checkpoint_path(&p_path))
            .resume(
                &Nuts::default(),
                &model,
                &cfg.clone().with_core_allotment(2),
                &p_path,
            )
            .expect("resume");
        let _ = std::fs::remove_file(&p_path);
        for (a, b) in resumed.run.chains.iter().zip(&reference.run.chains) {
            assert_eq!(a.draws, b.draws, "resumed draws must be bit-identical");
        }
    }

    /// The rows each frame of a checkpoint log holds per chain, read off
    /// the frame's header, state line and size alone.
    fn rows_per_frame(log: &[u8], chains: usize, dim: usize) -> Vec<usize> {
        let mut rows = Vec::new();
        let mut at = 0;
        while at < log.len() {
            let header_end = at + log[at..].iter().position(|&b| b == b'\n').unwrap() + 1;
            let header = std::str::from_utf8(&log[at..header_end - 1]).unwrap();
            let len: usize = header.split(' ').nth(2).unwrap().parse().unwrap();
            let payload = &log[header_end..header_end + len];
            let state = payload.iter().position(|&b| b == b'\n').unwrap() + 1;
            rows.push((len - state - 8 * chains) / (chains * (8 * dim + 4)));
            at = header_end + len;
        }
        rows
    }

    /// Each boundary appends one frame holding only the rows drawn since
    /// the frame before, and a resumed run extends the log it resumed
    /// from: the log holds every row once.
    #[test]
    fn each_boundary_appends_only_the_rows_since_the_last() {
        let model = AdModel::new("g", Gauss);
        let det = unreachable_detector()
            .with_check_every(50)
            .with_min_iters(50);
        let cfg = RunConfig::new(400).with_chains(2).with_seed(5);
        let path = std::env::temp_dir().join(format!(
            "bayes_mcmc_supervisor_log_rows_{}.json",
            std::process::id()
        ));
        let pause = PauseControl::new();
        pause.request();
        let paused = Runtime::new(det.clone())
            .with_config(
                SupervisorConfig::new()
                    .with_checkpoint_path(&path)
                    .with_pause(pause),
            )
            .run(&Nuts::default(), &model, &cfg)
            .expect("paused run");
        assert_eq!(paused.paused_at, Some(50));
        assert_eq!(rows_per_frame(&std::fs::read(&path).unwrap(), 2, 2), [50]);
        let resumed = Runtime::new(det)
            .with_config(SupervisorConfig::new().with_checkpoint_path(&path))
            .resume(&Nuts::default(), &model, &cfg, &path)
            .expect("resumed run");
        let log = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(rows_per_frame(&log, 2, 2), [50; 8]);
        let last = RunCheckpoint::from_durable_bytes(&log).unwrap();
        for (c, out) in last.chain_states.iter().zip(&resumed.run.chains) {
            assert_eq!(c.draws, out.draws);
        }
    }

    /// Acts when chain 0 completes iteration `at`; injects no fault.
    /// How a test raises an abort or requests a pause at an exact draw.
    struct Trigger<F>(usize, F);

    impl<F: Fn() + Send + Sync> FaultInjector for Trigger<F> {
        fn inject(&self, chain: usize, _attempt: u32, iter: usize) -> Option<InjectedFault> {
            if chain == 0 && iter == self.0 {
                (self.1)();
            }
            None
        }
    }

    #[test]
    fn monitor_wakes_for_boundaries_not_for_draws() {
        use bayes_obs::{RecorderHandle, TelemetrySampler};
        // A sampler that fires on every monitor pass that finds
        // progress (stride 1) and on no timer: with one chain, every
        // wake of the monitor is one sample.
        let telemetry = TelemetryHandle::new(
            TelemetrySampler::new(RecorderHandle::null())
                .with_iter_stride(1)
                .with_wall_interval(Duration::from_secs(3600)),
        );
        let model = AdModel::new("g", Gauss);
        let path = std::env::temp_dir().join("bayes_mcmc_supervisor_wake_count_ck.json");
        let det = unreachable_detector()
            .with_check_every(50)
            .with_min_iters(50);
        let cfg = RunConfig::new(400).with_chains(1).with_warmup(0);
        let boundaries = det.checkpoints(cfg.iters).count();
        assert_eq!(boundaries, 8);
        // A millisecond a draw: slow enough that a monitor woken by
        // every draw would finish a pass, and sample, between any two.
        let sampler = sleepy(1, 1);
        let report = Runtime::new(det)
            .with_config(
                SupervisorConfig::new()
                    .with_min_quorum(1)
                    .with_checkpoint_path(&path)
                    .with_telemetry(telemetry.clone()),
            )
            .run(&sampler, &model, &cfg)
            .expect("healthy run");
        let _ = std::fs::remove_file(&path);
        assert_eq!(report.run.chains[0].draws.len(), 400);
        // At most one per boundary, the run's final forced sample, and
        // slack for a wake that lands on a pass already under way.
        // Woken by every draw, the monitor samples some 400 times.
        let samples = telemetry.samples_emitted() as usize;
        assert!(
            samples <= boundaries + 3,
            "{samples} monitor passes for {boundaries} boundaries"
        );
    }

    #[test]
    fn abort_is_honoured_within_a_draw() {
        let model = AdModel::new("g", Gauss);
        let abort = Arc::new(AtomicBool::new(false));
        let raise = abort.clone();
        // No checkpoint schedule at all: nothing but the abort's own
        // wake can tell the monitor before its 100 ms nap ends.
        let rt = Runtime::new(unreachable_detector()).with_config(
            SupervisorConfig::new()
                .with_min_quorum(1)
                .with_abort(abort)
                .with_injector(Arc::new(Trigger(10, move || {
                    raise.store(true, Ordering::Release)
                }))),
        );
        let cfg = RunConfig::new(200).with_chains(1).with_warmup(0);
        let sampler = sleepy(10, 10);
        let report = rt.run(&sampler, &model, &cfg).expect("aborted run returns");
        assert_eq!(report.interrupted, Some(Interrupt::Aborted));
        // Raised while draw 10 is reported: the monitor cancels during
        // draw 11 and the chain stops after it — as when every draw
        // woke the monitor (one more is allowed for, should the monitor
        // be slow to get a core). Its nap alone would let ten more pass.
        let draws = report.run.chains[0].draws.len();
        assert!((11..=13).contains(&draws), "stopped after {draws} draws");
    }

    #[test]
    fn run_deadline_is_the_monitors_alarm() {
        let model = AdModel::new("g", Gauss);
        let rt = Runtime::new(unreachable_detector()).with_config(
            SupervisorConfig::new()
                .with_min_quorum(1)
                .with_deadline(Duration::from_millis(110)),
        );
        let cfg = RunConfig::new(200).with_chains(1).with_warmup(0);
        let sampler = sleepy(10, 10);
        let report = rt.run(&sampler, &model, &cfg).expect("expired run returns");
        assert_eq!(report.interrupted, Some(Interrupt::DeadlineExpired));
        // 11 draws fit in the deadline and one more is in flight when
        // it passes; a monitor that noticed only at the end of its next
        // 100 ms nap (200 ms) would let 20 through.
        let draws = report.run.chains[0].draws.len();
        assert!(draws <= 16, "stopped after {draws} draws");
    }

    #[test]
    fn pause_requested_mid_segment_is_noticed_at_that_draw() {
        let model = AdModel::new("g", Gauss);
        let path = std::env::temp_dir().join("bayes_mcmc_supervisor_midsegment_ck.json");
        let det = unreachable_detector()
            .with_check_every(10)
            .with_min_iters(10);
        let pause = PauseControl::new();
        let request = pause.clone();
        let rt = Runtime::new(det).with_config(
            SupervisorConfig::new()
                .with_min_quorum(1)
                .with_checkpoint_path(&path)
                .with_pause(pause.clone())
                .with_injector(Arc::new(Trigger(3, move || request.request()))),
        );
        let cfg = RunConfig::new(100).with_chains(1).with_warmup(0);
        let sampler = sleepy(1, 1);
        let started = Instant::now();
        let report = rt.run(&sampler, &model, &cfg).expect("pause commits");
        let took = started.elapsed();
        let _ = std::fs::remove_file(&path);
        // The chain freezes at draw 4 until the monitor has picked the
        // boundary, so the pause lands on 10 however late that is —
        // what a late monitor costs is time: it parked at the start for
        // 100 ms, and the chain would sit out the rest of them. Woken
        // at the draw, the whole run is some ten 1 ms draws.
        assert_eq!(report.paused_at, Some(10));
        assert!(pause.is_paused());
        assert!(took < Duration::from_millis(75), "pause took {took:?}");
    }

    #[test]
    fn reseed_policy_matrix() {
        use FaultKind::*;
        for kind in [Panic, NonFinite, Stalled, Diverged] {
            assert!(!ReseedPolicy::Never.reseed_for(kind));
            assert!(ReseedPolicy::Always.reseed_for(kind));
        }
        assert!(!ReseedPolicy::StreamFaults.reseed_for(Panic));
        assert!(!ReseedPolicy::StreamFaults.reseed_for(Stalled));
        assert!(ReseedPolicy::StreamFaults.reseed_for(NonFinite));
        assert!(ReseedPolicy::StreamFaults.reseed_for(Diverged));
    }

    #[test]
    fn fault_kind_tags_are_stable() {
        assert_eq!(FaultKind::Panic.tag(), "panic");
        assert_eq!(FaultKind::NonFinite.tag(), "non_finite");
        assert_eq!(FaultKind::Stalled.tag(), "stalled");
        assert_eq!(FaultKind::Diverged.tag(), "diverged");
    }
}
