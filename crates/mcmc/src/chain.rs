//! Chain execution: both loops of Algorithm 1.
//!
//! A [`Sampler`] supplies an initial state and one transition on it;
//! `run_chain` is the sequential inner loop around that transition,
//! the only one in the crate. The outer loop over chains is
//! embarrassingly parallel, so [`run`] drives the chains sequentially
//! (the paper's 1-core configuration) or one OS thread per chain (the
//! 4-core configuration whose LLC contention Section IV-B analyzes),
//! and the supervisor ([`crate::supervisor::Runtime`]) drives them under
//! its monitor.

use crate::checkpoint::{segment_seed, ChainCheckpoint, SamplerCheckpoint};
use crate::model::Model;
use crate::stream::{Purpose, StreamKey};
use crate::supervisor::Watch;
use bayes_obs::{Event, ProfilerHandle, RecorderHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How to map chains onto cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// All chains on the calling thread, one after another.
    #[default]
    Sequential,
    /// One OS thread per chain (scoped threads).
    Threads,
}

/// A structurally invalid run request, caught before any chain starts.
///
/// Previously a zero-chain or zero-iteration config panicked deep in
/// the run (empty-buffer indexing in the diagnostics); now
/// [`RunConfig::validate`] rejects it up front with a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `chains == 0`: there is nothing to run and no draws to pool.
    ZeroChains,
    /// `iters == 0`: every chain would produce an empty trace.
    ZeroIterations,
    /// `warmup > iters`: the warmup prefix exceeds the whole run.
    WarmupExceedsIterations {
        /// Configured warmup length.
        warmup: usize,
        /// Configured total iterations.
        iters: usize,
    },
    /// A retry policy with `max_attempts == 0` can never run a chain.
    ZeroAttempts,
    /// A convergence quorum of zero chains is vacuous.
    ZeroQuorum,
    /// The quorum demands more chains than the run has.
    QuorumExceedsChains {
        /// Configured minimum quorum.
        quorum: usize,
        /// Configured chain count.
        chains: usize,
    },
    /// A pause control was attached without a checkpoint path; a pause
    /// can only be honoured by serializing a resume point.
    PauseWithoutCheckpoint,
    /// A checkpoint file failed to load or parse.
    CheckpointInvalid(String),
    /// A checkpoint was taken under a different model, seed, or
    /// detector than the resume request.
    CheckpointMismatch(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroChains => write!(f, "run config has zero chains"),
            Self::ZeroIterations => write!(f, "run config has zero iterations"),
            Self::WarmupExceedsIterations { warmup, iters } => {
                write!(f, "warmup {warmup} exceeds total iterations {iters}")
            }
            Self::ZeroAttempts => write!(f, "retry policy allows zero attempts"),
            Self::ZeroQuorum => write!(f, "minimum chain quorum is zero"),
            Self::QuorumExceedsChains { quorum, chains } => {
                write!(f, "quorum {quorum} exceeds chain count {chains}")
            }
            Self::PauseWithoutCheckpoint => {
                write!(f, "pause control requires a checkpoint path")
            }
            Self::CheckpointInvalid(msg) => write!(f, "invalid checkpoint: {msg}"),
            Self::CheckpointMismatch(msg) => {
                write!(f, "checkpoint does not match this run: {msg}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration shared by all samplers.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of Markov chains (the paper follows Brooks et al. and
    /// uses 4).
    pub chains: usize,
    /// Total iterations per chain, *including* warmup.
    pub iters: usize,
    /// Warmup (adaptation) iterations; Stan convention is `iters / 2`.
    pub warmup: usize,
    /// Base RNG seed; per-chain streams are derived from it via
    /// [`StreamKey`] (see [`RunConfig::chain_seed`]).
    pub seed: u64,
    /// Sequential or threaded chain execution.
    pub parallelism: Parallelism,
    /// Threads available *inside* one gradient evaluation (shard
    /// workers for [`crate::ShardedModel`]); `None` defers to the
    /// `BAYES_INNER_THREADS` environment variable, then to 1. The
    /// chains×inner-threads split is what `bayes_sched::core_split`
    /// chooses. Results are bit-identical for every setting.
    pub inner_threads: Option<usize>,
    /// Whether models with a sufficient-statistics fast path
    /// ([`crate::StatsModel`]) should use it; `None` defers to the
    /// `BAYES_FASTPATH` environment variable, then to on. Models
    /// without a fast path ignore the setting either way.
    pub fast_path: Option<bool>,
    /// Cores granted to this run by an external placement (the job
    /// server, or `--cores` on a bench bin); `None` means the run may
    /// assume sole tenancy of the machine. When set and no explicit
    /// inner-thread count is pinned, the run derives
    /// `allotment / chains` shard workers per chain — the same split
    /// `bayes_sched::core_split` chooses for that many cores — instead
    /// of deferring to `BAYES_INNER_THREADS`, so a granted job never
    /// oversubscribes its slice of the box. Draws are bit-identical
    /// for every allotment.
    pub core_allotment: Option<usize>,
    /// Observability sink for this run. Defaults to the disabled null
    /// handle, which costs one branch per would-be event; recording
    /// never perturbs draws (no RNG use in any recording path).
    pub recorder: RecorderHandle,
    /// Phase profiler for this run. Defaults to the disabled null
    /// handle; the runners install a thread-local scope per chain so
    /// `bayes_obs::span` timers inside the samplers attribute wall
    /// time to phases. Like recording, profiling is observation only
    /// and never perturbs draws.
    pub profiler: ProfilerHandle,
    /// Index of the chain this config drives, set by the runner via
    /// [`RunConfig::for_chain`] so samplers can tag their
    /// per-iteration events.
    pub chain_index: usize,
}

impl RunConfig {
    /// Stan-style defaults: 4 chains, `iters` total with half warmup.
    pub fn new(iters: usize) -> Self {
        Self {
            chains: 4,
            iters,
            warmup: iters / 2,
            seed: 0,
            parallelism: Parallelism::Sequential,
            inner_threads: None,
            fast_path: None,
            core_allotment: None,
            recorder: RecorderHandle::null(),
            profiler: ProfilerHandle::null(),
            chain_index: 0,
        }
    }

    /// Sets the chain count.
    pub fn with_chains(mut self, chains: usize) -> Self {
        self.chains = chains;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects threaded chain execution.
    pub fn threaded(mut self) -> Self {
        self.parallelism = Parallelism::Threads;
        self
    }

    /// Sets the warmup length.
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Pins the number of shard-evaluation threads per chain,
    /// overriding the `BAYES_INNER_THREADS` environment variable.
    pub fn with_inner_threads(mut self, threads: usize) -> Self {
        self.inner_threads = Some(threads.max(1));
        self
    }

    /// Pins the sufficient-statistics fast path on or off for models
    /// that have one, overriding the `BAYES_FASTPATH` environment
    /// variable.
    pub fn with_fast_path(mut self, on: bool) -> Self {
        self.fast_path = Some(on);
        self
    }

    /// Records the core allotment granted to this run by an external
    /// placement. Clamped to at least one core.
    pub fn with_core_allotment(mut self, cores: usize) -> Self {
        self.core_allotment = Some(cores.max(1));
        self
    }

    /// Attaches an event recorder (see `bayes_obs`). The runtime emits
    /// run/iteration/checkpoint events into it; with the default null
    /// handle every emission site reduces to one branch.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a phase profiler (see `bayes_obs::span`). The runners
    /// install a per-chain thread-local scope so RAII span timers in
    /// the samplers feed per-phase latency histograms; with the default
    /// null handle every span site reduces to one thread-local check.
    pub fn with_profiler(mut self, profiler: ProfilerHandle) -> Self {
        self.profiler = profiler;
        self
    }

    /// A copy of this config tagged with the index of the chain it
    /// drives. The multi-chain runners hand each sampler invocation a
    /// `for_chain` copy so per-iteration events carry their chain.
    pub fn for_chain(&self, chain: usize) -> Self {
        let mut cfg = self.clone();
        cfg.chain_index = chain;
        cfg
    }

    /// Resolves the inner-thread count: an explicit
    /// [`RunConfig::with_inner_threads`] wins, then a granted
    /// [`RunConfig::with_core_allotment`] (which derives
    /// `allotment / chains` workers so the run stays inside its
    /// grant), then the `BAYES_INNER_THREADS` environment variable,
    /// then 1 (serial gradient sweep).
    pub fn effective_inner_threads(&self) -> usize {
        self.inner_threads
            .or_else(|| {
                self.core_allotment
                    .map(|cores| (cores / self.chains.max(1)).max(1))
            })
            .or_else(|| {
                std::env::var("BAYES_INNER_THREADS")
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
            })
            .unwrap_or(1)
            .max(1)
    }

    /// Resolves the fast-path toggle: an explicit
    /// [`RunConfig::with_fast_path`] wins, then the `BAYES_FASTPATH`
    /// environment variable (`0`/`off`/`false` disable, anything else
    /// enables), then on.
    pub fn effective_fast_path(&self) -> bool {
        self.fast_path
            .or_else(|| {
                std::env::var("BAYES_FASTPATH")
                    .ok()
                    .map(|v| !matches!(v.trim(), "0" | "off" | "false"))
            })
            .unwrap_or(true)
    }

    /// RNG seed for chain `c`'s transition kernel, derived so that no
    /// two `(seed, chain)` pairs share a stream (unlike the old
    /// `seed + c` scheme, where runs at adjacent seeds overlapped).
    pub fn chain_seed(&self, c: usize) -> u64 {
        StreamKey::new(self.seed)
            .chain(c as u64)
            .purpose(Purpose::Sample)
            .derive()
    }

    /// RNG seed for chain `c`'s initial-point draw, independent of the
    /// transition stream.
    pub fn init_seed(&self, c: usize) -> u64 {
        StreamKey::new(self.seed)
            .chain(c as u64)
            .purpose(Purpose::Init)
            .derive()
    }

    /// Checks the config for structural validity.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: zero chains, zero
    /// iterations, or a warmup longer than the run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.chains == 0 {
            return Err(ConfigError::ZeroChains);
        }
        if self.iters == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        if self.warmup > self.iters {
            return Err(ConfigError::WarmupExceedsIterations {
                warmup: self.warmup,
                iters: self.iters,
            });
        }
        Ok(())
    }
}

/// Everything one chain produced.
#[derive(Debug, Clone)]
pub struct ChainOutput {
    /// Every iteration's parameter vector, warmup included.
    pub draws: Vec<Vec<f64>>,
    /// Number of leading warmup iterations in [`ChainOutput::draws`].
    pub warmup: usize,
    /// Mean Metropolis acceptance statistic over sampling iterations.
    pub accept_mean: f64,
    /// Total gradient evaluations (leapfrog steps), the unit of work
    /// the performance model charges.
    pub grad_evals: u64,
    /// Divergent transitions encountered.
    pub divergences: u64,
    /// Gradient evaluations per iteration, as the chain loop counted
    /// them. Used by the elision study: stopping at iteration `t` saves
    /// the *work* after `t`, which is not proportional to iterations
    /// because NUTS trees shrink after convergence (Section VI-A).
    pub evals_per_iter: Vec<u32>,
}

impl ChainOutput {
    /// Post-warmup draws. For a run truncated by the convergence
    /// monitor (fewer draws than the configured warmup), falls back to
    /// the paper's second-half convention.
    pub fn sampling_draws(&self) -> &[Vec<f64>] {
        let effective = self.warmup.min(self.draws.len() / 2);
        &self.draws[effective..]
    }

    /// Trace of one parameter over post-warmup draws.
    pub fn param_trace(&self, j: usize) -> Vec<f64> {
        self.sampling_draws().iter().map(|d| d[j]).collect()
    }

    /// Gradient evaluations spent in iterations `[0, t)`.
    pub fn evals_until(&self, t: usize) -> u64 {
        let until = &self.evals_per_iter[..t.min(self.evals_per_iter.len())];
        until.iter().map(|&e| u64::from(e)).sum()
    }
}

/// Output of a multi-chain run.
#[derive(Debug, Clone)]
pub struct MultiChainRun {
    /// Per-chain outputs, in chain order.
    pub chains: Vec<ChainOutput>,
    /// Parameter dimensionality.
    pub dim: usize,
}

impl MultiChainRun {
    /// Per-chain post-warmup traces of parameter `j`.
    pub fn traces(&self, j: usize) -> Vec<Vec<f64>> {
        self.chains.iter().map(|c| c.param_trace(j)).collect()
    }

    /// Pooled post-warmup draws across all chains.
    pub fn pooled_draws(&self) -> Vec<&[f64]> {
        self.chains
            .iter()
            .flat_map(|c| c.sampling_draws().iter().map(Vec::as_slice))
            .collect()
    }

    /// Posterior mean of parameter `j` (pooled, post-warmup).
    pub fn mean(&self, j: usize) -> f64 {
        let pooled = self.pooled_draws();
        pooled.iter().map(|d| d[j]).sum::<f64>() / pooled.len() as f64
    }

    /// Posterior standard deviation of parameter `j`.
    pub fn sd(&self, j: usize) -> f64 {
        let pooled = self.pooled_draws();
        let m = self.mean(j);
        (pooled.iter().map(|d| (d[j] - m) * (d[j] - m)).sum::<f64>() / (pooled.len() as f64 - 1.0))
            .sqrt()
    }

    /// Largest split-R̂ across all parameters (the convergence headline
    /// number; the paper's threshold is 1.1).
    pub fn max_rhat(&self) -> f64 {
        (0..self.dim)
            .map(|j| crate::diag::split_rhat(&self.traces(j)))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Total gradient evaluations across chains.
    pub fn total_grad_evals(&self) -> u64 {
        self.chains.iter().map(|c| c.grad_evals).sum()
    }

    /// Per-chain gradient evaluations — the per-core work distribution
    /// whose imbalance makes 4-core latency track the slowest chain
    /// (Section VI-A).
    pub fn grad_evals_per_chain(&self) -> Vec<u64> {
        self.chains.iter().map(|c| c.grad_evals).collect()
    }
}

/// What one transition reports besides the new state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Info {
    /// Metropolis acceptance statistic (NUTS: the mean over the
    /// trajectory's candidates; MH: 1 if the proposal was accepted).
    pub accept_stat: f64,
    /// The transition diverged.
    pub diverged: bool,
    /// Doublings of the NUTS tree (0 for samplers that build none).
    pub tree_depth: usize,
    /// Step size (MH: proposal scale) the transition used.
    pub step_size: f64,
}

/// What a transition runs against: the model, the chain's config, and
/// the chain's random stream and count of density evaluations, which
/// the chain loop owns and carries from one transition to the next.
pub struct Env<'a> {
    /// The model the chain samples.
    pub model: &'a dyn Model,
    /// The chain's config ([`RunConfig::for_chain`]).
    pub cfg: &'a RunConfig,
    /// The chain's random stream.
    pub rng: StdRng,
    /// Density (or gradient) evaluations so far.
    pub evals: u64,
}

/// A transition kernel: an initial state and one transition on it. The
/// chain loop (`run_chain`) does everything else — streams, events,
/// draws, counters, checkpoints, stopping — so every sampler is run,
/// supervised, checkpointed, paused and resumed the same way.
///
/// Every implementation must draw from `env.rng` in an order that
/// depends only on its state, its inputs and the draws it makes: that
/// is what makes a chain a pure function of its seed.
pub trait Sampler: Sync {
    /// Everything a chain carries from one transition to the next:
    /// plain owned data, so that [`Sampler::snapshot`] and
    /// [`Sampler::restore`] can be lossless.
    type State;

    /// The state at the initial point `init`, with every density
    /// evaluation it makes counted into `env.evals`.
    fn init(&self, init: &[f64], env: &mut Env<'_>) -> Self::State;

    /// One transition of `state` at iteration `iter`, warm-up
    /// adaptation included, with its density evaluations counted into
    /// `env.evals`.
    fn step(&self, state: &mut Self::State, iter: usize, env: &mut Env<'_>) -> Info;

    /// The draw `state` stands at.
    fn position<'s>(&self, state: &'s Self::State) -> &'s [f64];

    /// The sampler's share of a checkpoint of `state`; the chain loop
    /// fills in `iter` and the counters.
    fn snapshot(&self, state: &Self::State) -> SamplerCheckpoint;

    /// The exact state a [`Sampler::snapshot`] was taken of.
    fn restore(&self, ck: &SamplerCheckpoint) -> Self::State;
}

/// Runs one chain: `sampler`'s state at `init` (or restored from
/// `from`, whose draws it continues), then one transition per
/// iteration up to `cfg.iters`, all on the stream `seed`. Around each
/// transition the loop records the `iteration` event, keeps the draw's
/// evaluation count, and either keeps the draw row itself or — under
/// supervision (`watch`) — hands it to the supervisor, which keeps the
/// chain's rows (`from`'s included) and puts them in the output the
/// chain returns. Supervised, the loop also re-derives the stream at
/// segment boundaries, hands the supervisor a snapshot there, and stops
/// when told to.
pub(crate) fn run_chain<S: Sampler>(
    sampler: &S,
    model: &dyn Model,
    init: &[f64],
    cfg: &RunConfig,
    seed: u64,
    from: Option<&ChainCheckpoint>,
    watch: Option<&Watch<'_>>,
) -> ChainOutput {
    let _scope = cfg.profiler.install(Some(cfg.chain_index as u64));
    let mut draws = Vec::with_capacity(if watch.is_some() { 0 } else { cfg.iters });
    let mut evals_per_iter = Vec::with_capacity(cfg.iters);
    let mut env = Env {
        model,
        cfg,
        rng: StdRng::seed_from_u64(seed),
        evals: 0,
    };
    let (mut state, mut accept_sum, mut divergences) = match from {
        None => (sampler.init(init, &mut env), 0.0, 0),
        // A resumed chain starts on the segment stream of its resume
        // boundary, exactly the stream an uninterrupted run is on there.
        Some(ck) => {
            let s = &ck.sampler;
            evals_per_iter.extend_from_slice(&ck.evals_per_iter);
            env.rng = StdRng::seed_from_u64(segment_seed(seed, s.iter));
            env.evals = s.grad_evals;
            (sampler.restore(s), s.accept_sum, s.divergences)
        }
    };
    // Recording is observation only: the event is built from values the
    // transition computed anyway, after all RNG use, so an attached
    // recorder cannot perturb the draw stream.
    let recording = cfg.recorder.enabled();

    for iter in evals_per_iter.len()..cfg.iters {
        // Segmented streams: re-derive the generator at every
        // checkpoint boundary so a resume from iteration t replays the
        // identical randomness for [t, ...). Re-seeding at the resume
        // boundary itself is idempotent.
        if watch.is_some_and(|w| w.reseeds_at(iter)) {
            env.rng = StdRng::seed_from_u64(segment_seed(seed, iter));
        }
        let before = env.evals;
        let info = sampler.step(&mut state, iter, &mut env);
        let spent = env.evals - before;
        // Stan convention: acceptance and divergences are reported after
        // warmup only (large trial step sizes make divergences routine
        // during adaptation).
        if iter >= cfg.warmup {
            accept_sum += info.accept_stat;
            divergences += u64::from(info.diverged);
        }
        if recording {
            cfg.recorder.record(Event::Iteration {
                chain: cfg.chain_index as u64,
                iter: iter as u64,
                step_size: info.step_size,
                tree_depth: info.tree_depth as u64,
                leapfrogs: spent,
                divergent: info.diverged,
                accept: info.accept_stat,
            });
        }
        let draw = sampler.position(&state);
        evals_per_iter.push(spent as u32);
        if let Some(w) = watch {
            // With iterations [0, completed) done, the chain can resume
            // at `completed` on that boundary's stream. Snapshot before
            // the draw is handed over, so the supervisor observes state
            // before progress.
            let completed = iter + 1;
            w.snapshot(completed, || SamplerCheckpoint {
                iter: completed,
                accept_sum,
                divergences,
                grad_evals: env.evals,
                evals_per_iter: evals_per_iter.clone(),
                ..sampler.snapshot(&state)
            });
            if !w.on_draw(iter, draw) {
                break;
            }
        } else {
            draws.push(draw.to_vec());
        }
    }

    // Post-warm-up iterations actually completed: a supervisor's stop
    // ends the chain before `cfg.iters`.
    let sampling = evals_per_iter.len().saturating_sub(cfg.warmup).max(1) as f64;
    ChainOutput {
        draws,
        warmup: cfg.warmup,
        accept_mean: accept_sum / sampling,
        grad_evals: env.evals,
        divergences,
        evals_per_iter,
    }
}

/// Draws Stan-style uniform(-2, 2) initial points, one per chain, from
/// each chain's derived [`Purpose::Init`] stream.
pub(crate) fn initial_points(cfg: &RunConfig, dim: usize) -> Vec<Vec<f64>> {
    (0..cfg.chains)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(cfg.init_seed(c));
            (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect()
        })
        .collect()
}

/// Runs `cfg.chains` chains of `sampler` over `model`.
///
/// Initial points are drawn uniformly from `(-2, 2)` on the
/// unconstrained scale (Stan's default). All per-chain RNG streams are
/// derived from `cfg.seed` via [`StreamKey`], so runs are bit-for-bit
/// reproducible under either parallelism mode.
pub fn run<S: Sampler>(sampler: &S, model: &dyn Model, cfg: &RunConfig) -> MultiChainRun {
    match try_run(sampler, model, cfg) {
        Ok(run) => run,
        Err(e) => panic!("invalid RunConfig: {e}"),
    }
}

/// Like [`run`], but validates the config first and returns a typed
/// [`ConfigError`] instead of panicking somewhere inside the run.
///
/// # Errors
///
/// Returns the first structural problem [`RunConfig::validate`] finds.
pub fn try_run<S: Sampler>(
    sampler: &S,
    model: &dyn Model,
    cfg: &RunConfig,
) -> Result<MultiChainRun, ConfigError> {
    cfg.validate()?;
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
    }
    let inits = initial_points(cfg, model.dim());
    let chain = |c: usize| {
        run_chain(
            sampler,
            model,
            &inits[c],
            &cfg.for_chain(c),
            cfg.chain_seed(c),
            None,
            None,
        )
    };
    let chains: Vec<ChainOutput> = match cfg.parallelism {
        Parallelism::Sequential => (0..cfg.chains).map(chain).collect(),
        Parallelism::Threads => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.chains)
                .map(|c| scope.spawn(move || chain(c)))
                .collect();
            // Joined in chain order: the first chain that died is
            // reported with its index, the workload's name and its own
            // panic message.
            let joined = handles.into_iter().enumerate().map(|(c, h)| {
                h.join().unwrap_or_else(|payload| {
                    panic!(
                        "chain {c} of workload '{}' panicked: {}",
                        model.name(),
                        panic_message(payload.as_ref())
                    )
                })
            });
            joined.collect()
        }),
    };

    model.flush_telemetry();
    let snapshot = cfg.profiler.emit_metrics(model.name());
    if cfg.recorder.enabled() {
        cfg.recorder.record(Event::RunEnd {
            model: model.name().to_string(),
            chains: chains.len() as u64,
            stopped_at: None,
            total_draws: chains.iter().map(|c| c.draws.len() as u64).sum(),
            divergences: chains.iter().map(|c| c.divergences).sum(),
            grad_evals: chains.iter().map(|c| c.grad_evals).sum(),
            span_ns: snapshot.span_total_ns(),
        });
        cfg.recorder.flush();
    }

    Ok(MultiChainRun {
        chains,
        dim: model.dim(),
    })
}

/// Extracts the human-readable message from a panic payload (the
/// `&'static str` or `String` that `panic!` produces).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{AdModel, EvalProfile, LogDensity};
    use bayes_autodiff::Real;

    pub(crate) struct StdNormalNd(pub usize);

    impl LogDensity for StdNormalNd {
        fn dim(&self) -> usize {
            self.0
        }
        fn eval<R: Real>(&self, theta: &[R]) -> R {
            let mut acc = theta[0] * 0.0;
            for &t in theta {
                acc = acc - t.square() * 0.5;
            }
            acc
        }
    }

    /// A sampler whose draw is written by a function of the chain's
    /// environment and the iteration, at one evaluation per iteration:
    /// the loop and its drivers without a real kernel.
    pub(crate) struct Scripted<F>(pub F);

    impl<F: Fn(&mut Env<'_>, usize, &mut [f64]) + Sync> Sampler for Scripted<F> {
        type State = Vec<f64>;

        fn init(&self, _: &[f64], env: &mut Env<'_>) -> Vec<f64> {
            vec![0.0; env.model.dim()]
        }

        fn step(&self, draw: &mut Vec<f64>, iter: usize, env: &mut Env<'_>) -> Info {
            (self.0)(env, iter, draw);
            env.evals += 1;
            Info {
                accept_stat: 1.0,
                ..Info::default()
            }
        }

        fn position<'s>(&self, draw: &'s Vec<f64>) -> &'s [f64] {
            draw
        }

        fn snapshot(&self, draw: &Vec<f64>) -> SamplerCheckpoint {
            SamplerCheckpoint {
                q: draw.clone(),
                ..SamplerCheckpoint::default()
            }
        }

        fn restore(&self, ck: &SamplerCheckpoint) -> Vec<f64> {
            ck.q.clone()
        }
    }

    /// Ignores the model and emits the iteration index, letting us test
    /// the plumbing exactly.
    const COUNTING: Scripted<fn(&mut Env<'_>, usize, &mut [f64])> =
        Scripted(|_, iter, draw| draw.fill(iter as f64));

    #[test]
    fn run_config_builder() {
        let cfg = RunConfig::new(2000).with_chains(2).with_seed(9).threaded();
        assert_eq!(cfg.chains, 2);
        assert_eq!(cfg.warmup, 1000);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.parallelism, Parallelism::Threads);
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let model = AdModel::new("n", StdNormalNd(2));
        let cfg_seq = RunConfig::new(10).with_chains(3);
        let cfg_thr = RunConfig::new(10).with_chains(3).threaded();
        let a = run(&COUNTING, &model, &cfg_seq);
        let b = run(&COUNTING, &model, &cfg_thr);
        for (ca, cb) in a.chains.iter().zip(&b.chains) {
            assert_eq!(ca.draws, cb.draws);
        }
    }

    #[test]
    fn warmup_is_excluded_from_sampling_draws() {
        let model = AdModel::new("n", StdNormalNd(1));
        let cfg = RunConfig::new(10).with_chains(1); // warmup 5
        let out = run(&COUNTING, &model, &cfg);
        assert_eq!(out.chains[0].sampling_draws().len(), 5);
        assert_eq!(out.chains[0].param_trace(0), vec![5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn pooled_statistics() {
        let model = AdModel::new("n", StdNormalNd(1));
        let cfg = RunConfig::new(4).with_chains(2).with_warmup(0);
        let out = run(&COUNTING, &model, &cfg);
        // Both chains emit {0,1,2,3}; pooled mean is 1.5.
        assert!((out.mean(0) - 1.5).abs() < 1e-12);
        assert_eq!(out.total_grad_evals(), 8);
        assert_eq!(out.grad_evals_per_chain(), vec![4, 4]);
    }

    #[test]
    fn derived_seeds_are_distinct_per_chain_and_purpose() {
        let cfg = RunConfig::new(100).with_chains(4).with_seed(9);
        let mut all: Vec<u64> = (0..4).map(|c| cfg.chain_seed(c)).collect();
        all.extend((0..4).map(|c| cfg.init_seed(c)));
        let uniq: std::collections::HashSet<u64> = all.iter().copied().collect();
        assert_eq!(uniq.len(), 8, "chain/init streams must not collide");
        // Unlike seed + c, adjacent seeds don't share chain streams.
        let shifted = RunConfig::new(100).with_chains(4).with_seed(10);
        assert_ne!(cfg.chain_seed(1), shifted.chain_seed(0));
    }

    /// A model whose gradient always panics, for the thread-failure
    /// reporting regression tests.
    pub(crate) struct Kaboom;

    impl Model for Kaboom {
        fn dim(&self) -> usize {
            1
        }
        fn name(&self) -> &str {
            "kaboom"
        }
        fn ln_posterior(&self, _theta: &[f64]) -> f64 {
            panic!("deliberate ln_posterior failure")
        }
        fn ln_posterior_grad(&self, _theta: &[f64], _grad: &mut [f64]) -> f64 {
            panic!("deliberate gradient failure")
        }
        fn grad_profile(&self, _theta: &[f64]) -> EvalProfile {
            EvalProfile::default()
        }
    }

    #[test]
    fn chain_panic_resurfaces_with_index_and_name() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let cfg = RunConfig::new(4).with_chains(2).threaded();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run(&crate::nuts::Nuts::default(), &Kaboom, &cfg);
        }))
        .expect_err("a panicking chain must fail the run");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("chain 0"), "missing chain index: {msg}");
        assert!(msg.contains("kaboom"), "missing workload name: {msg}");
        assert!(
            msg.contains("deliberate gradient failure"),
            "missing original payload: {msg}"
        );
    }

    /// A standard normal walled off at |x| = 2.1, just outside every
    /// initial point: a trajectory that crosses the wall ends there.
    struct Walled;

    impl Model for Walled {
        fn dim(&self) -> usize {
            2
        }
        fn name(&self) -> &str {
            "walled"
        }
        fn ln_posterior(&self, theta: &[f64]) -> f64 {
            self.ln_posterior_grad(theta, &mut [0.0; 2])
        }
        fn ln_posterior_grad(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
            for (g, t) in grad.iter_mut().zip(theta) {
                *g = -t;
            }
            if theta.iter().any(|t| t.abs() > 2.1) {
                return f64::NEG_INFINITY;
            }
            -0.5 * theta.iter().map(|t| t * t).sum::<f64>()
        }
        fn grad_profile(&self, _theta: &[f64]) -> EvalProfile {
            EvalProfile::default()
        }
    }

    /// Runs one chain and checks that its `grad_evals` is what `init`
    /// spent plus every entry of `evals_per_iter`.
    fn evals_add_up<S: Sampler>(sampler: &S, model: &dyn Model) -> ChainOutput {
        let cfg = RunConfig::new(300).with_chains(1).with_seed(3);
        let mut env = Env {
            model,
            cfg: &cfg,
            rng: StdRng::seed_from_u64(cfg.chain_seed(0)),
            evals: 0,
        };
        sampler.init(&initial_points(&cfg, model.dim())[0], &mut env);
        let out = run(sampler, model, &cfg).chains.remove(0);
        let per_iteration: u64 = out.evals_per_iter.iter().map(|&e| u64::from(e)).sum();
        assert_eq!(out.grad_evals, env.evals + per_iteration);
        out
    }

    #[test]
    fn grad_evals_are_what_init_and_every_iteration_spent() {
        evals_add_up(&crate::nuts::Nuts::default(), &Walled);
        evals_add_up(&crate::mh::MetropolisHastings::new(), &Walled);
        // Static HMC's count is measured, not `steps` per iteration: the
        // metric switch re-probes the step size, and a trajectory that
        // hits the wall stops short.
        let steps = 8;
        let out = evals_add_up(&crate::hmc::StaticHmc::new(steps), &Walled);
        assert!(
            out.evals_per_iter.iter().any(|&e| e < steps as u32),
            "no trajectory was cut short: {:?}",
            out.evals_per_iter
        );
    }

    #[test]
    fn panic_message_handles_str_string_and_other() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        let other: Box<dyn std::any::Any + Send> = Box::new(42_u64);
        assert_eq!(panic_message(s.as_ref()), "static str");
        assert_eq!(panic_message(owned.as_ref()), "owned");
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }

    #[test]
    fn inner_threads_explicit_config_beats_default() {
        let cfg = RunConfig::new(10);
        assert_eq!(cfg.inner_threads, None);
        let pinned = RunConfig::new(10).with_inner_threads(8);
        assert_eq!(pinned.effective_inner_threads(), 8);
        // Zero is clamped up — a gradient always needs one thread.
        assert_eq!(
            RunConfig::new(10)
                .with_inner_threads(0)
                .effective_inner_threads(),
            1
        );
    }

    #[test]
    fn core_allotment_derives_inner_threads_below_explicit_pin() {
        // A granted allotment splits into allotment / chains workers.
        let granted = RunConfig::new(10).with_chains(4).with_core_allotment(8);
        assert_eq!(granted.effective_inner_threads(), 2);
        // Sub-chain grants clamp to one worker, never zero.
        let tight = RunConfig::new(10).with_chains(4).with_core_allotment(2);
        assert_eq!(tight.effective_inner_threads(), 1);
        assert_eq!(
            RunConfig::new(10).with_core_allotment(0).core_allotment,
            Some(1)
        );
        // An explicit pin still beats the allotment.
        let pinned = RunConfig::new(10)
            .with_chains(4)
            .with_core_allotment(8)
            .with_inner_threads(5);
        assert_eq!(pinned.effective_inner_threads(), 5);
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        let model = AdModel::new("n", StdNormalNd(1));
        let zero_chains = RunConfig::new(10).with_chains(0);
        assert_eq!(zero_chains.validate(), Err(ConfigError::ZeroChains));
        assert_eq!(
            try_run(&COUNTING, &model, &zero_chains).unwrap_err(),
            ConfigError::ZeroChains
        );
        let zero_iters = RunConfig::new(0);
        assert_eq!(zero_iters.validate(), Err(ConfigError::ZeroIterations));
        let bad_warmup = RunConfig::new(10).with_warmup(11);
        assert_eq!(
            bad_warmup.validate(),
            Err(ConfigError::WarmupExceedsIterations {
                warmup: 11,
                iters: 10
            })
        );
        assert!(RunConfig::new(10).validate().is_ok());
        // Each error renders a human-readable message.
        assert!(format!("{}", ConfigError::ZeroChains).contains("zero chains"));
    }

    #[test]
    fn run_panics_with_typed_message_on_invalid_config() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let model = AdModel::new("n", StdNormalNd(1));
        let cfg = RunConfig::new(10).with_chains(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            run(&COUNTING, &model, &cfg);
        }))
        .expect_err("zero chains must fail");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("invalid RunConfig"), "{msg}");
        assert!(msg.contains("zero chains"), "{msg}");
    }

    #[test]
    fn initial_points_are_reproducible_and_in_range() {
        let cfg = RunConfig::new(10).with_chains(3).with_seed(4);
        let a = initial_points(&cfg, 5);
        let b = initial_points(&cfg, 5);
        assert_eq!(a, b);
        assert!(a.iter().flatten().all(|&x| (-2.0..2.0).contains(&x)));
        // Different chains start from different points.
        assert_ne!(a[0], a[1]);
    }
}
