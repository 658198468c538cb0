//! The [`Model`] trait, the autodiff adapter, and the sharded
//! data-parallel layer.

use crate::{lock, par};
use bayes_autodiff::{grad_forward_into, grad_into, grad_of, Leaves, Real, Tape, TapeStats, Var};
use bayes_obs::{Event, RecorderHandle};
use rand::Rng;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Cost profile of one gradient evaluation, used by the architecture
/// simulation as the working-set and instruction-count probe
/// (Section V-A of the paper: tape intermediates amplify KB-scale
/// modeled data into MB-scale working sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalProfile {
    /// Elementary operations recorded on the AD tape (≈ flops).
    pub tape_nodes: usize,
    /// Bytes of tape + adjoint storage touched per gradient pass.
    pub tape_bytes: usize,
    /// Long-latency transcendental ops (`exp`, `ln`, `lgamma`, …)
    /// among the tape nodes; drives the op-mix IPC differentiation.
    pub transcendental_nodes: usize,
}

impl From<TapeStats> for EvalProfile {
    fn from(stats: TapeStats) -> Self {
        Self {
            tape_nodes: stats.nodes,
            tape_bytes: stats.bytes,
            transcendental_nodes: stats.transcendental,
        }
    }
}

thread_local! {
    /// The tape every gradient this thread evaluates is recorded on —
    /// a chain thread's whole run, a pool worker's every shard — so
    /// that once it has grown to the largest term nothing allocates.
    /// A gradient clears it first; densities must not evaluate another
    /// model's gradient while they record.
    static GRAD_TAPE: Tape = Tape::new();
}

/// A Bayesian model with a differentiable log-posterior over an
/// unconstrained parameter vector.
///
/// Constrained parameters (scales, probabilities) are expected to be
/// transformed to the real line inside the model with the appropriate
/// log-Jacobian terms, exactly as Stan does.
pub trait Model: Send + Sync {
    /// Number of unconstrained parameters.
    fn dim(&self) -> usize;

    /// Short identifier (e.g. `"12cities"`).
    fn name(&self) -> &str;

    /// Log-posterior density (up to an additive constant) at `theta`.
    fn ln_posterior(&self, theta: &[f64]) -> f64;

    /// Log-posterior and its gradient; `grad` must have length
    /// [`Model::dim`]. Returns the log-posterior value.
    fn ln_posterior_grad(&self, theta: &[f64], grad: &mut [f64]) -> f64;

    /// [`Model::ln_posterior_grad`] with a sharded sweep sent to a pool
    /// of `threads` whatever its dispatch rule would choose: how tests
    /// and `sweep_scaling` reach the pooled path of any registry model.
    #[doc(hidden)]
    fn ln_posterior_grad_on(&self, theta: &[f64], grad: &mut [f64], _threads: usize) -> f64 {
        self.ln_posterior_grad(theta, grad)
    }

    /// Profiles one gradient evaluation at `theta`.
    fn grad_profile(&self, theta: &[f64]) -> EvalProfile;

    /// Draws an initial point; the default matches Stan's
    /// `uniform(-2, 2)` on the unconstrained scale.
    fn init<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64>
    where
        Self: Sized,
    {
        (0..self.dim()).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    /// Sets the number of threads a single gradient evaluation may use.
    /// Serial models ignore the hint; [`ShardedModel`] dispatches its
    /// likelihood shards to a per-chain worker pool. Interior
    /// mutability keeps the receiver `&self` so the runtime can call it
    /// through `&dyn Model` before sampling starts.
    fn set_inner_threads(&self, _threads: usize) {}

    /// Attaches an observability recorder for model-internal telemetry
    /// (shard-sweep aggregates). Serial models ignore it; like
    /// [`Model::set_inner_threads`], interior mutability keeps the
    /// receiver `&self` so the runtime can call it through
    /// `&dyn Model` before sampling starts.
    fn set_recorder(&self, _recorder: &RecorderHandle) {}

    /// Emits any telemetry accumulated since the last
    /// [`Model::set_recorder`]/flush into the attached recorder. The
    /// multi-chain runners call this once after sampling completes.
    fn flush_telemetry(&self) {}

    /// Switches the model between its sufficient-statistics fast path
    /// and its raw-data sweep path, where it has one ([`StatsModel`]).
    /// Models without a fast path ignore the call; like
    /// [`Model::set_inner_threads`], interior mutability keeps the
    /// receiver `&self` so the runtime can toggle it through
    /// `&dyn Model` before sampling starts.
    fn set_fast_path(&self, _on: bool) {}

    /// Whether density/gradient calls currently evaluate via
    /// precomputed sufficient statistics instead of sweeping the data.
    fn fast_path(&self) -> bool {
        false
    }
}

/// A log-density written once against [`Real`]; implementors get a
/// fully functional [`Model`] for free by wrapping themselves in
/// [`AdModel`].
pub trait LogDensity: Send + Sync {
    /// Number of unconstrained parameters.
    fn dim(&self) -> usize;

    /// Evaluates the log-posterior generically. `R = f64` gives the
    /// plain value; `R = Var` records the tape for the gradient.
    fn eval<R: Real>(&self, theta: &[R]) -> R;
}

/// Adapter turning a [`LogDensity`] into a [`Model`] with tape-derived
/// gradients.
///
/// # Example
///
/// ```
/// use bayes_autodiff::Real;
/// use bayes_mcmc::{AdModel, LogDensity, Model};
///
/// struct StdNormal;
/// impl LogDensity for StdNormal {
///     fn dim(&self) -> usize { 1 }
///     fn eval<R: Real>(&self, theta: &[R]) -> R {
///         -(theta[0] * theta[0]) * 0.5
///     }
/// }
///
/// let m = AdModel::new("std_normal", StdNormal);
/// let mut g = [0.0];
/// let lp = m.ln_posterior_grad(&[1.5], &mut g);
/// assert!((lp - (-1.125)).abs() < 1e-12);
/// assert!((g[0] - (-1.5)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct AdModel<D> {
    name: String,
    density: D,
}

impl<D: LogDensity> AdModel<D> {
    /// Wraps `density` under the given model name.
    pub fn new(name: impl Into<String>, density: D) -> Self {
        Self {
            name: name.into(),
            density,
        }
    }

    /// The wrapped log-density.
    pub fn density(&self) -> &D {
        &self.density
    }
}

impl<D: LogDensity> Model for AdModel<D> {
    fn dim(&self) -> usize {
        self.density.dim()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ln_posterior(&self, theta: &[f64]) -> f64 {
        self.density.eval(theta)
    }

    fn ln_posterior_grad(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        debug_assert_eq!(grad.len(), self.dim());
        GRAD_TAPE.with(|tape| grad_into(tape, theta, grad, |v: &[Var<'_>]| self.density.eval(v)).0)
    }

    fn grad_profile(&self, theta: &[f64]) -> EvalProfile {
        // A tape of its own, dropped here: a full-scale probe must not
        // leave megabytes behind in this thread's sampling tape.
        grad_of(theta, |v: &[Var<'_>]| self.density.eval(v))
            .2
            .into()
    }
}

/// A log-density whose likelihood is an explicit sum over independent
/// observations — the `reduce_sum` shape. Implementors split the
/// posterior into a prior term plus a likelihood that can be evaluated
/// on any contiguous `range` of the data, and [`ShardedModel`] turns
/// that into a data-parallel [`Model`].
///
/// The contract that makes sharding *exact* rather than approximate:
/// for every partition of `0..n_data()` into contiguous ranges,
/// `ln_prior(θ) + Σ ln_likelihood_shard(θ, rangeᵢ)` must equal the full
/// posterior up to floating-point reassociation of the sum. Per-datum
/// terms must therefore not depend on observations outside `range`
/// (models with cross-observation coupling, e.g. the marginalized GP in
/// the votes workload, can only expose a single indivisible shard).
pub trait ShardedDensity: Send + Sync {
    /// Number of unconstrained parameters.
    fn dim(&self) -> usize;

    /// Number of independent observations the likelihood sums over.
    fn n_data(&self) -> usize;

    /// The prior (and any data-independent terms), evaluated once per
    /// gradient pass on the calling thread.
    fn ln_prior<R: Real>(&self, theta: &[R]) -> R;

    /// The likelihood contribution of observations `range` (a
    /// sub-range of `0..n_data()`).
    fn ln_likelihood_shard<R: Real>(&self, theta: &[R], range: Range<usize>) -> R;
}

/// Default shard count for [`ShardedModel::new`]. Fixed (rather than
/// derived from the worker count) so the partition — and hence every
/// floating-point sum — is identical no matter how many threads run it.
pub const DEFAULT_SHARDS: usize = 16;

/// Splits `0..n_data` into at most `shards` contiguous ranges of
/// near-equal length (the first `n_data % shards` ranges get one extra
/// element). The partition is a pure function of `(n_data, shards)`.
pub fn shard_ranges(n_data: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.clamp(1, n_data.max(1));
    let base = n_data / shards;
    let rem = n_data % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n_data);
    out
}

/// What one shard contributes to the gradient, parked until the
/// fixed-order reduction reaches it.
#[derive(Default)]
struct ShardTerm {
    value: f64,
    grad: Vec<f64>,
    stats: TapeStats,
}

impl ShardTerm {
    /// One step of the reduction. Both the serial and the pooled
    /// gradient take these steps in ascending shard order, which is
    /// what makes them agree to the bit.
    fn add_to(&self, sum: &mut (f64, TapeStats), grad: &mut [f64]) {
        sum.0 += self.value;
        sum.1 += self.stats;
        for (acc, gi) in grad.iter_mut().zip(&self.grad) {
            *acc += gi;
        }
    }
}

thread_local! {
    /// Where the serial gradient sweeps each shard before adding it
    /// up; kept between gradients for its allocation.
    static SERIAL_TERM: RefCell<ShardTerm> = RefCell::default();
    /// One slot per shard for a pool to fill and the caller to add up
    /// afterwards; kept between gradients for their allocations.
    static POOLED_TERMS: RefCell<Vec<Mutex<ShardTerm>>> = RefCell::default();
}

/// Aggregate shard-sweep telemetry, accumulated with relaxed atomics
/// only while an enabled recorder is attached (`on`), so the untraced
/// hot path pays one load per gradient. The counters are swapped to
/// zero and emitted as one [`Event::ShardAggregate`] per flush.
#[derive(Default)]
struct ShardTelemetry {
    on: AtomicBool,
    sweeps: AtomicU64,
    nanos: AtomicU64,
    nodes: AtomicU64,
    bytes: AtomicU64,
    transcendental: AtomicU64,
    /// Widest dispatch among the accumulated sweeps (1 = all serial).
    threads: AtomicU64,
    recorder: Mutex<RecorderHandle>,
}

impl ShardTelemetry {
    fn accumulate(&self, stats: TapeStats, elapsed: Option<std::time::Duration>, threads: usize) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.threads.fetch_max(threads as u64, Ordering::Relaxed);
        self.nodes.fetch_add(stats.nodes as u64, Ordering::Relaxed);
        self.bytes.fetch_add(stats.bytes as u64, Ordering::Relaxed);
        self.transcendental
            .fetch_add(stats.transcendental as u64, Ordering::Relaxed);
        if let Some(d) = elapsed {
            self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Tape nodes per gradient from which a granted pool is used. A
/// dispatch is two condvar round trips (10–30 µs on the two-core
/// reference host), so it pays only around a sweep longer than that.
/// Forced-pool speed-up at two inner threads against nodes per
/// gradient, every sharded model at scale 0.25 and 1.0, dynamics and
/// full (`results/sweep_scaling.txt`; one row each in DESIGN.md §5b):
///
/// | model     | nodes → serial time / pooled time                        |
/// |-----------|----------------------------------------------------------|
/// | 12cities  | 652 → 0.22, 1408 → 0.29                                  |
/// | racial    | 584 → 0.25, 1486 → 0.41, 5176 → 0.74                     |
/// | butterfly | 1547 → 0.34, 2759 → 0.60, 3163 → 0.56, 8819 → 1.12       |
/// | disease   | 1576 → 0.34, 5330 → 0.63, 6586 → 0.79, 25 373 → 1.21     |
/// | ad        | 2112 → 0.49, 7897 → 1.13, 19 460 → 1.27, 77 325 → 1.80   |
/// | tickets   | 2708 → 0.64, 10 376 → 1.28, 127 952 → 1.76, 511 352 → 1.87 |
///
/// Every model below the constant loses and every one above it gains.
/// It is a *count* — the same on every host and in every run, so which
/// path a model takes is reproducible — and not a clock.
pub const POOL_CROSSOVER_NODES: usize = 7_500;

/// Adapter turning a [`ShardedDensity`] into a [`Model`] whose gradient
/// is a sum of terms — the prior, then one likelihood shard after
/// another — each recorded and swept on its own behind one set of
/// leaves ([`Leaves::grad_term`]), serially or on a per-chain
/// [`WorkerPool`](crate::par::WorkerPool), and combined in **fixed
/// shard order**.
///
/// # Determinism contract
///
/// The shard partition depends only on `(n_data, shards)`, never on the
/// thread count, and the reduction always runs `prior, shard 0,
/// shard 1, …` on the calling thread. The result is therefore
/// bit-identical for any `inner_threads`. Changing the *shard count*
/// reassociates the sum and may change the result by a few ulps; the
/// single-shard configuration reproduces the serial [`AdModel`] path
/// exactly when the wrapped density's full evaluation is written as
/// `ln_prior + ln_likelihood_shard(0..n_data)`.
pub struct ShardedModel<D> {
    name: String,
    density: D,
    /// The partition of `0..n_data`, fixed at construction.
    ranges: Vec<Range<usize>>,
    /// The grant: a cap, used from [`POOL_CROSSOVER_NODES`] up.
    inner_threads: AtomicUsize,
    /// Tape nodes of one gradient, 0 until the first — a serial one —
    /// has been counted. Written then and only read afterwards: chains
    /// sharing the model share no write on the gradient path.
    grad_nodes: AtomicUsize,
    telemetry: ShardTelemetry,
}

impl<D: ShardedDensity> ShardedModel<D> {
    /// Wraps `density` with the [`DEFAULT_SHARDS`] partition.
    pub fn new(name: impl Into<String>, density: D) -> Self {
        Self {
            name: name.into(),
            ranges: shard_ranges(density.n_data(), DEFAULT_SHARDS),
            density,
            inner_threads: AtomicUsize::new(1),
            grad_nodes: AtomicUsize::new(0),
            telemetry: ShardTelemetry::default(),
        }
    }

    /// Overrides the shard count (clamped to `1..=n_data`). One shard
    /// reproduces the serial evaluation bit-for-bit.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.ranges = shard_ranges(self.density.n_data(), shards);
        self
    }

    /// The wrapped sharded density.
    pub fn density(&self) -> &D {
        &self.density
    }

    /// Effective shard count after clamping to the data size.
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// Value and statistics of the prior term over `leaves`, its
    /// gradient written into `grad`.
    fn prior_term(&self, leaves: &Leaves<'_>, grad: &mut [f64]) -> (f64, TapeStats) {
        leaves.grad_term(grad, |v| self.density.ln_prior(v))
    }

    /// The same for the likelihood of shard `shard`, into `term`.
    fn shard_term(&self, leaves: &Leaves<'_>, shard: usize, term: &mut ShardTerm) {
        let range = self.ranges[shard].clone();
        term.grad.resize(leaves.len(), 0.0);
        (term.value, term.stats) = leaves.grad_term(&mut term.grad, |v| {
            self.density.ln_likelihood_shard(v, range)
        });
    }

    /// The gradient on one thread: the leaves registered once, then
    /// the prior and every shard recorded, swept and truncated in
    /// turn, each added to the sum as soon as it is swept.
    fn grad_serial(&self, tape: &Tape, theta: &[f64], grad: &mut [f64]) -> (f64, TapeStats) {
        let leaves = tape.leaves(theta);
        let mut sum = self.prior_term(&leaves, grad);
        let _span = bayes_obs::span(bayes_obs::Phase::ShardSweep);
        SERIAL_TERM.with(|term| {
            let term = &mut *term.borrow_mut();
            for shard in 0..self.ranges.len() {
                self.shard_term(&leaves, shard, term);
                term.add_to(&mut sum, grad);
            }
        });
        sum
    }

    /// The gradient on a pool: the prior on the calling thread, the
    /// shards wherever the pool runs them — each thread behind leaves
    /// of its own on its own tape — and the sum afterwards, on the
    /// calling thread, in shard order.
    fn grad_pooled(
        &self,
        tape: &Tape,
        theta: &[f64],
        grad: &mut [f64],
        threads: usize,
    ) -> (f64, TapeStats) {
        let mut sum = self.prior_term(&tape.leaves(theta), grad);
        POOLED_TERMS.with(|terms| {
            let terms = &mut *terms.borrow_mut();
            terms.resize_with(self.ranges.len(), Default::default);
            {
                // Profiled on the calling thread: pool workers have no
                // profiler scope, so the sweep span covers the whole
                // dispatch-and-wait window, nested under the gradient
                // span.
                let _span = bayes_obs::span(bayes_obs::Phase::ShardSweep);
                par::with_pool(threads, |pool| {
                    pool.run(self.ranges.len(), &|shard| {
                        GRAD_TAPE.with(|tape| {
                            self.shard_term(&tape.leaves(theta), shard, &mut lock(&terms[shard]));
                        });
                    });
                });
            }
            let _span = bayes_obs::span(bayes_obs::Phase::ShardReduce);
            for term in terms.iter() {
                lock(term).add_to(&mut sum, grad);
            }
        });
        sum
    }

    /// The gradient with its shards swept on a pool of `pool` threads,
    /// or on the calling thread when `None`.
    fn grad_dispatched(&self, theta: &[f64], grad: &mut [f64], pool: Option<usize>) -> f64 {
        debug_assert_eq!(grad.len(), self.dim());
        // Telemetry is observation only: it reads the tape stats the
        // sweep produces anyway, touches no RNG, and cannot change the
        // reduction — attaching a recorder leaves draws bit-identical.
        let recording = self.telemetry.on.load(Ordering::Relaxed);
        let t0 = recording.then(Instant::now);

        let (val, stats) = GRAD_TAPE.with(|tape| match (&self.ranges[..], pool) {
            // One shard: record prior + likelihood as one term — the
            // exact expression a serial `AdModel` evaluates. A split
            // prior/shard evaluation would re-associate the adjoint
            // accumulation of any parameter the prior touches more than
            // once (every hierarchical hyperparameter), so only the
            // one-term path is bitwise-serial rather than ulp-close.
            ([range], _) => grad_into(tape, theta, grad, |v: &[Var<'_>]| {
                self.density.ln_prior(v) + self.density.ln_likelihood_shard(v, range.clone())
            }),
            (_, None) => self.grad_serial(tape, theta, grad),
            (_, Some(threads)) => self.grad_pooled(tape, theta, grad, threads),
        });
        if self.grad_nodes.load(Ordering::Relaxed) == 0 {
            self.grad_nodes.store(stats.nodes, Ordering::Relaxed);
        }
        if recording {
            let used = pool.filter(|_| self.ranges.len() > 1).unwrap_or(1);
            self.telemetry
                .accumulate(stats, t0.map(|t| t.elapsed()), used);
        }
        val
    }
}

impl<D: ShardedDensity> Model for ShardedModel<D> {
    fn dim(&self) -> usize {
        self.density.dim()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ln_posterior(&self, theta: &[f64]) -> f64 {
        // Same term order as the gradient path: prior first, then
        // shards ascending. The two agree bitwise wherever a taped op
        // computes its value as `f64` does. A division by a `Var`
        // multiplies by the reciprocal where `f64` divides, so a
        // density that divides by a parameter — eight of the ten
        // registry models — agrees only to an ulp or two
        // (`tests/gradient_bitwise.rs`, DESIGN.md §5b).
        let mut total: f64 = self.density.ln_prior(theta);
        for range in &self.ranges {
            total += self.density.ln_likelihood_shard(theta, range.clone());
        }
        total
    }

    fn ln_posterior_grad(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        let threads = self.inner_threads.load(Ordering::Relaxed);
        let pays = self.grad_nodes.load(Ordering::Relaxed) >= POOL_CROSSOVER_NODES;
        self.grad_dispatched(theta, grad, (pays && threads > 1).then_some(threads))
    }

    fn ln_posterior_grad_on(&self, theta: &[f64], grad: &mut [f64], threads: usize) -> f64 {
        self.grad_dispatched(theta, grad, Some(threads.max(1)))
    }

    fn grad_profile(&self, theta: &[f64]) -> EvalProfile {
        // Serial walk so the probe itself is deterministic, on a tape
        // of its own, dropped here: a full-scale probe must not leave
        // megabytes behind in this thread's sampling tape.
        let tape = Tape::new();
        let leaves = tape.leaves(theta);
        let mut term = ShardTerm::default();
        let (_, mut stats) = self.prior_term(&leaves, &mut vec![0.0; theta.len()]);
        for shard in 0..self.ranges.len() {
            self.shard_term(&leaves, shard, &mut term);
            stats += term.stats;
        }
        stats.into()
    }

    fn set_inner_threads(&self, threads: usize) {
        self.inner_threads.store(threads.max(1), Ordering::Relaxed);
    }

    fn set_recorder(&self, recorder: &RecorderHandle) {
        *lock(&self.telemetry.recorder) = recorder.clone();
        self.telemetry
            .on
            .store(recorder.enabled(), Ordering::Relaxed);
    }

    fn flush_telemetry(&self) {
        let sweeps = self.telemetry.sweeps.swap(0, Ordering::Relaxed);
        let nodes = self.telemetry.nodes.swap(0, Ordering::Relaxed);
        let bytes = self.telemetry.bytes.swap(0, Ordering::Relaxed);
        let transcendental = self.telemetry.transcendental.swap(0, Ordering::Relaxed);
        let nanos = self.telemetry.nanos.swap(0, Ordering::Relaxed);
        let threads = self.telemetry.threads.swap(0, Ordering::Relaxed);
        if sweeps == 0 {
            return;
        }
        let recorder = lock(&self.telemetry.recorder).clone();
        recorder.record(Event::ShardAggregate {
            model: self.name.clone(),
            sweeps,
            shards: self.shards() as u64,
            threads,
            tape_nodes: nodes,
            tape_bytes: bytes,
            transcendental,
            elapsed_ns: nanos,
        });
    }
}

/// A posterior that can be evaluated from sufficient statistics
/// precomputed once at model build time — the Pichler–Jewson reduction:
/// for exponential-family-shaped likelihoods the O(N) per-iteration
/// data sweep collapses to an O(groups) weighted sum over statistics
/// that never change during sampling.
///
/// Implementors write [`SufficientStats::ln_posterior_stats`] once
/// against [`Real`], so the same code runs as plain `f64` (value), as
/// forward-mode [`bayes_autodiff::Dual`]s (the default tape-free
/// gradient below), or as taped [`Var`]s (the equivalence tests
/// cross-check the stats formula on the tape). Workloads whose hot
/// densities have cheap closed-form derivatives (normal / lognormal /
/// Bernoulli counts) override [`SufficientStats::ln_posterior_grad_stats`]
/// with a fused analytic gradient instead.
///
/// # Qualification rules
///
/// A workload qualifies when its likelihood factorizes so that every
/// data-dependent term is a weighted sum of per-group statistics that
/// are independent of the parameters — grouped location/scale families
/// (normal, lognormal, gamma, exponential), discrete counts against a
/// shared logit/log rate, and marginal likelihoods whose data enter
/// only through fixed matrices (the GP posteriors). Likelihoods where
/// every observation carries its own covariate value (e.g. the
/// `12cities` exposure offsets) do not qualify and keep the sweep path
/// plus the vectorized `ln_pdf_sum`/`ln_pmf_sum` slice kernels in
/// `bayes_prob`.
pub trait SufficientStats: Send + Sync {
    /// Number of unconstrained parameters (must match the sweep model).
    fn dim(&self) -> usize;

    /// Log-posterior (prior + likelihood-from-statistics) at `theta`.
    fn ln_posterior_stats<R: Real>(&self, theta: &[R]) -> R;

    /// Log-posterior and gradient from the statistics; `grad` has
    /// length [`SufficientStats::dim`]. The default runs tape-free
    /// forward-mode sweeps over [`SufficientStats::ln_posterior_stats`]
    /// (`⌈dim/4⌉` passes of an O(groups) evaluation — still far below
    /// one O(N) tape sweep); hot densities override it with a fused
    /// analytic gradient.
    fn ln_posterior_grad_stats(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        grad_forward_into(theta, grad, |t| self.ln_posterior_stats(t))
    }
}

/// [`Model`] adapter pairing a raw-data sweep model with a
/// [`SufficientStats`] evaluator for the same posterior.
///
/// The fast path is on by default; [`Model::set_fast_path`] (driven by
/// `RunConfig::fast_path`) switches back to the sweep model, and
/// the equivalence test tier holds both paths to documented tolerance
/// bounds. Two behaviors are deliberately path-independent:
///
/// - [`Model::grad_profile`] always profiles the *sweep* path: the
///   architecture simulation's working-set probe measures the tape the
///   paper characterizes, not the O(groups) shortcut.
/// - The stats path never touches the inner thread pool — it is a
///   single O(groups) reduction, so results are bit-identical at any
///   `inner_threads` by construction.
pub struct StatsModel<S> {
    inner: Box<dyn Model>,
    stats: S,
    fast: AtomicBool,
}

impl<S: SufficientStats> StatsModel<S> {
    /// Wraps `inner` (the sweep path) with `stats` (the fast path).
    ///
    /// # Panics
    ///
    /// Panics if the two disagree on dimensionality.
    pub fn new(inner: Box<dyn Model>, stats: S) -> Self {
        assert_eq!(
            inner.dim(),
            stats.dim(),
            "sweep model and sufficient statistics disagree on dim"
        );
        Self {
            inner,
            stats,
            fast: AtomicBool::new(true),
        }
    }

    /// The sufficient-statistics evaluator (for equivalence tests).
    pub fn stats(&self) -> &S {
        &self.stats
    }

    /// The wrapped sweep model.
    pub fn sweep(&self) -> &dyn Model {
        self.inner.as_ref()
    }
}

impl<S: SufficientStats> Model for StatsModel<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ln_posterior(&self, theta: &[f64]) -> f64 {
        if self.fast.load(Ordering::Relaxed) {
            self.stats.ln_posterior_stats(theta)
        } else {
            self.inner.ln_posterior(theta)
        }
    }

    fn ln_posterior_grad(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        if self.fast.load(Ordering::Relaxed) {
            let _span = bayes_obs::span(bayes_obs::Phase::StatsReduce);
            self.stats.ln_posterior_grad_stats(theta, grad)
        } else {
            self.inner.ln_posterior_grad(theta, grad)
        }
    }

    fn ln_posterior_grad_on(&self, theta: &[f64], grad: &mut [f64], threads: usize) -> f64 {
        if self.fast.load(Ordering::Relaxed) {
            self.ln_posterior_grad(theta, grad)
        } else {
            self.inner.ln_posterior_grad_on(theta, grad, threads)
        }
    }

    fn grad_profile(&self, theta: &[f64]) -> EvalProfile {
        // Always the sweep path — see the type-level docs.
        self.inner.grad_profile(theta)
    }

    fn set_inner_threads(&self, threads: usize) {
        self.inner.set_inner_threads(threads);
    }

    fn set_recorder(&self, recorder: &RecorderHandle) {
        self.inner.set_recorder(recorder);
    }

    fn flush_telemetry(&self) {
        self.inner.flush_telemetry();
    }

    fn set_fast_path(&self, on: bool) {
        self.fast.store(on, Ordering::Relaxed);
    }

    fn fast_path(&self) -> bool {
        self.fast.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Quadratic {
        dim: usize,
    }

    impl LogDensity for Quadratic {
        fn dim(&self) -> usize {
            self.dim
        }
        fn eval<R: Real>(&self, theta: &[R]) -> R {
            let mut acc = theta[0] * 0.0;
            for (i, &t) in theta.iter().enumerate() {
                acc = acc - (t - i as f64).square() * 0.5;
            }
            acc
        }
    }

    #[test]
    fn gradient_matches_analytic() {
        let m = AdModel::new("quad", Quadratic { dim: 3 });
        let theta = [1.0, 1.0, 1.0];
        let mut g = [0.0; 3];
        let lp = m.ln_posterior_grad(&theta, &mut g);
        // lp = -0.5[(1-0)² + (1-1)² + (1-2)²] = -1
        assert!((lp + 1.0).abs() < 1e-12);
        assert!((g[0] + 1.0).abs() < 1e-12);
        assert!(g[1].abs() < 1e-12);
        assert!((g[2] - 1.0).abs() < 1e-12);
        // Value-only path agrees.
        assert!((m.ln_posterior(&theta) - lp).abs() < 1e-14);
    }

    #[test]
    fn profile_scales_with_dim() {
        let small = AdModel::new("s", Quadratic { dim: 2 });
        let large = AdModel::new("l", Quadratic { dim: 50 });
        let p_small = small.grad_profile(&[0.0; 2]);
        let p_large = large.grad_profile(&vec![0.0; 50]);
        assert!(p_large.tape_nodes > p_small.tape_nodes * 10);
        assert!(p_large.tape_bytes > 0);
    }

    #[test]
    fn init_is_in_stan_box() {
        let m = AdModel::new("q", Quadratic { dim: 8 });
        let mut rng = StdRng::seed_from_u64(0);
        let x = m.init(&mut rng);
        assert_eq!(x.len(), 8);
        assert!(x.iter().all(|v| (-2.0..2.0).contains(v)));
    }

    /// Gaussian observations with unknown mean and log-scale — the
    /// smallest density with a genuinely data-sweep likelihood.
    struct GaussData {
        data: Vec<f64>,
    }

    impl GaussData {
        fn synthetic(n: usize) -> Self {
            // Deterministic pseudo-data; no RNG needed for these tests.
            let data = (0..n)
                .map(|i| ((i as f64 * 0.7).sin() * 2.0) + 0.5)
                .collect();
            Self { data }
        }
    }

    impl ShardedDensity for GaussData {
        fn dim(&self) -> usize {
            2
        }
        fn n_data(&self) -> usize {
            self.data.len()
        }
        fn ln_prior<R: Real>(&self, theta: &[R]) -> R {
            -(theta[0] * theta[0]) * 0.5 - (theta[1] * theta[1]) * 0.5
        }
        fn ln_likelihood_shard<R: Real>(&self, theta: &[R], range: Range<usize>) -> R {
            let mut acc = theta[0] * 0.0;
            let mu = theta[0];
            let inv_sigma = (-theta[1]).exp();
            for &x in &self.data[range] {
                let z = (mu - x) * inv_sigma;
                acc = acc - z.square() * 0.5 - theta[1];
            }
            acc
        }
    }

    /// The same posterior written as a plain [`LogDensity`] in the
    /// `prior + likelihood(0..n)` shape, for bitwise comparison.
    struct GaussDataSerial(GaussData);

    impl LogDensity for GaussDataSerial {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn eval<R: Real>(&self, theta: &[R]) -> R {
            self.0.ln_prior(theta) + self.0.ln_likelihood_shard(theta, 0..self.0.n_data())
        }
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for n in [0usize, 1, 7, 16, 100, 101] {
            for shards in [1usize, 2, 3, 16, 200] {
                let ranges = shard_ranges(n, shards);
                assert!(!ranges.is_empty());
                assert!(ranges.len() <= shards.max(1));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap in partition of {n} into {shards}");
                    next = r.end;
                }
                assert_eq!(next, n);
                // Near-equal: lengths differ by at most one.
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn single_shard_matches_serial_admodel_bitwise() {
        let theta = [0.4, -0.3];
        let serial = AdModel::new("g", GaussDataSerial(GaussData::synthetic(33)));
        let sharded = ShardedModel::new("g", GaussData::synthetic(33)).with_shards(1);
        let mut gs = [0.0; 2];
        let mut gh = [0.0; 2];
        let vs = serial.ln_posterior_grad(&theta, &mut gs);
        let vh = sharded.ln_posterior_grad(&theta, &mut gh);
        assert_eq!(vs, vh, "single-shard value must reproduce serial bitwise");
        assert_eq!(
            gs, gh,
            "single-shard gradient must reproduce serial bitwise"
        );
        assert_eq!(serial.ln_posterior(&theta), sharded.ln_posterior(&theta));
    }

    #[test]
    fn multi_shard_matches_serial_within_tolerance() {
        let theta = [0.4, -0.3];
        let serial = AdModel::new("g", GaussDataSerial(GaussData::synthetic(100)));
        for shards in [2usize, 5, 16, 64] {
            let sharded = ShardedModel::new("g", GaussData::synthetic(100)).with_shards(shards);
            let mut gs = [0.0; 2];
            let mut gh = [0.0; 2];
            let vs = serial.ln_posterior_grad(&theta, &mut gs);
            let vh = sharded.ln_posterior_grad(&theta, &mut gh);
            let tol = 1e-12 * (1.0 + vs.abs());
            assert!((vs - vh).abs() <= tol, "{shards} shards: {vs} vs {vh}");
            for i in 0..2 {
                let tol = 1e-12 * (1.0 + gs[i].abs());
                assert!((gs[i] - gh[i]).abs() <= tol);
            }
        }
    }

    #[test]
    fn inner_threads_do_not_change_the_result() {
        let theta = [-0.7, 0.2];
        let reference = {
            let m = ShardedModel::new("g", GaussData::synthetic(64));
            let mut g = [0.0; 2];
            let v = m.ln_posterior_grad(&theta, &mut g);
            (v, g)
        };
        for threads in [2usize, 3, 8] {
            let m = ShardedModel::new("g", GaussData::synthetic(64));
            m.set_inner_threads(threads);
            let mut g = [0.0; 2];
            let v = m.ln_posterior_grad(&theta, &mut g);
            assert_eq!(v, reference.0, "{threads} threads changed the value");
            assert_eq!(g, reference.1, "{threads} threads changed the gradient");
        }
    }

    #[test]
    fn value_and_gradient_paths_agree_bitwise() {
        let m = ShardedModel::new("g", GaussData::synthetic(50)).with_shards(7);
        let theta = [0.1, 0.9];
        let mut g = [0.0; 2];
        assert_eq!(m.ln_posterior(&theta), m.ln_posterior_grad(&theta, &mut g));
    }

    #[test]
    fn sharded_profile_covers_serial_work() {
        let theta = [0.4, -0.3];
        let serial = AdModel::new("g", GaussDataSerial(GaussData::synthetic(80)));
        let sharded = ShardedModel::new("g", GaussData::synthetic(80)).with_shards(8);
        let ps = serial.grad_profile(&theta);
        let ph = sharded.grad_profile(&theta);
        // Sharding re-seeds the parameter leaves and re-hoists the
        // per-shard transforms, so the aggregate is >= the serial tape
        // but only by bounded per-shard bookkeeping.
        assert!(ph.tape_nodes >= ps.tape_nodes);
        assert!(ph.tape_nodes <= ps.tape_nodes + 8 * (32 * 2 + 128));
        assert!(ph.transcendental_nodes >= ps.transcendental_nodes);
    }

    #[test]
    fn set_inner_threads_is_callable_through_dyn_model() {
        let m = AdModel::new("q", Quadratic { dim: 2 });
        let as_dyn: &dyn Model = &m;
        as_dyn.set_inner_threads(4); // default no-op must not panic
        as_dyn.set_recorder(&RecorderHandle::null());
        as_dyn.flush_telemetry();
    }

    #[test]
    fn shard_telemetry_flushes_one_aggregate_event() {
        use bayes_obs::MemoryRecorder;
        use std::sync::Arc;

        let m = ShardedModel::new("g", GaussData::synthetic(64)).with_shards(8);
        let mem = Arc::new(MemoryRecorder::new());
        m.set_recorder(&RecorderHandle::new(mem.clone()));
        let mut g = [0.0; 2];
        for _ in 0..3 {
            m.ln_posterior_grad(&[0.2, -0.1], &mut g);
        }
        m.flush_telemetry();
        let events = mem.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::ShardAggregate {
                model,
                sweeps,
                shards,
                tape_nodes,
                ..
            } => {
                assert_eq!(model, "g");
                assert_eq!(*sweeps, 3);
                assert_eq!(*shards, 8);
                assert!(*tape_nodes > 0);
            }
            other => panic!("unexpected event {other:?}"),
        }
        // A second flush with no new sweeps emits nothing.
        m.flush_telemetry();
        assert_eq!(mem.len(), 1);
        // Untraced sweeps are not accumulated.
        m.set_recorder(&RecorderHandle::null());
        m.ln_posterior_grad(&[0.2, -0.1], &mut g);
        m.flush_telemetry();
        assert_eq!(mem.len(), 1);
    }

    /// The thread count the shard telemetry reports for `grads`
    /// gradients of `m` evaluated through `eval`.
    fn threads_used(
        m: &ShardedModel<GaussData>,
        grads: usize,
        eval: impl Fn(&ShardedModel<GaussData>, &mut [f64]) -> f64,
    ) -> u64 {
        use bayes_obs::MemoryRecorder;
        use std::sync::Arc;

        let mem = Arc::new(MemoryRecorder::new());
        m.set_recorder(&RecorderHandle::new(mem.clone()));
        let mut g = [0.0; 2];
        for _ in 0..grads {
            eval(m, &mut g);
        }
        m.flush_telemetry();
        match mem.events()[..] {
            [Event::ShardAggregate { threads, .. }] => threads,
            ref other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn a_grant_is_used_only_from_the_crossover_up() {
        let theta = [0.2, -0.1];
        let grad = |m: &ShardedModel<GaussData>, g: &mut [f64]| m.ln_posterior_grad(&theta, g);
        // ~6 tape nodes per datum: 64 data sit far below the crossover,
        // 4000 far above it.
        let small = ShardedModel::new("g", GaussData::synthetic(64));
        let large = ShardedModel::new("g", GaussData::synthetic(4000));
        assert!(small.grad_profile(&theta).tape_nodes < POOL_CROSSOVER_NODES);
        assert!(large.grad_profile(&theta).tape_nodes >= POOL_CROSSOVER_NODES);
        for m in [&small, &large] {
            m.set_inner_threads(4);
        }
        assert_eq!(threads_used(&small, 5, grad), 1, "below: serial");
        // The very first gradient counts the nodes and is serial; every
        // later one uses the grant.
        assert_eq!(threads_used(&large, 1, grad), 1, "first gradient");
        assert_eq!(threads_used(&large, 5, grad), 4, "above: pooled");
        // A grant of one thread is never a pool.
        large.set_inner_threads(1);
        assert_eq!(threads_used(&large, 5, grad), 1);
        // Both sides of the rule return the serial gradient to the bit.
        let reference = ShardedModel::new("g", GaussData::synthetic(4000));
        let (mut gr, mut gl) = ([0.0; 2], [0.0; 2]);
        large.set_inner_threads(4);
        assert_eq!(
            reference.ln_posterior_grad(&theta, &mut gr),
            large.ln_posterior_grad(&theta, &mut gl)
        );
        assert_eq!(gr, gl);
    }

    #[test]
    fn the_forced_entry_pools_whatever_the_rule_says() {
        let theta = [0.2, -0.1];
        let small = ShardedModel::new("g", GaussData::synthetic(64));
        let mut reference = [0.0; 2];
        let value = small.ln_posterior_grad(&theta, &mut reference);
        for threads in [1usize, 2, 4] {
            let forced = |m: &ShardedModel<GaussData>, g: &mut [f64]| {
                let v = m.ln_posterior_grad_on(&theta, g, threads);
                assert_eq!((v, &*g), (value, &reference[..]), "{threads} threads");
                v
            };
            // The aggregate reports the threads that swept, not the
            // grant (still 1 here).
            assert_eq!(threads_used(&small, 3, forced), threads as u64);
        }
        // One shard is one term on the calling thread, forced or not.
        let single = ShardedModel::new("g", GaussData::synthetic(64)).with_shards(1);
        let forced =
            |m: &ShardedModel<GaussData>, g: &mut [f64]| m.ln_posterior_grad_on(&theta, g, 4);
        assert_eq!(threads_used(&single, 3, forced), 1);
    }

    #[test]
    fn recording_does_not_perturb_the_gradient() {
        use bayes_obs::MemoryRecorder;
        use std::sync::Arc;

        let theta = [0.4, -0.3];
        let plain = ShardedModel::new("g", GaussData::synthetic(64));
        let traced = ShardedModel::new("g", GaussData::synthetic(64));
        traced.set_recorder(&RecorderHandle::new(Arc::new(MemoryRecorder::new())));
        let mut gp = [0.0; 2];
        let mut gt = [0.0; 2];
        let vp = plain.ln_posterior_grad(&theta, &mut gp);
        let vt = traced.ln_posterior_grad(&theta, &mut gt);
        assert_eq!(vp, vt);
        assert_eq!(gp, gt);
    }
}
