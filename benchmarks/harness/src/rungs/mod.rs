//! Per-layer rungs: fixed micro-workloads that time the public
//! functions of one layer each, from outside.
//!
//! Every `--trace 1` run measures all of them, whichever workload it
//! traces: the driver wants every per-layer metric from every traced
//! run, so a rung cannot be left to the one workload whose layer it
//! explains, and its number means the same thing in every run. A
//! timing is the median of at least [`MIN_CALLS`] timed calls (fewer,
//! but never under [`FLOOR_CALLS`], where one call takes tens of
//! milliseconds; the sample count is printed beside every value), in
//! host-normalised units; counts and ratios of two timings taken in
//! the same bracket are not normalised.

mod kernels;
mod sampler;
mod service;
mod simulator;
mod storage;

use crate::engine::Env;
use crate::host::{self, RefKernel, RefTiming};
use crate::metrics::Values;
use crate::stats;
use std::time::Instant;

/// Timed calls a rung aims for.
pub const MIN_CALLS: usize = 30;
/// Timed calls a rung never goes below.
pub const FLOOR_CALLS: usize = 5;
/// Wall-time budget of one rung; calls stop early once it is spent and
/// the floor is met.
const RUNG_BUDGET_S: f64 = 0.35;
/// A reference timing older than this is re-taken before a rung.
const REF_MAX_AGE_S: f64 = 0.15;

/// The rungs' shared state: reference kernels, results so far, and the
/// per-value sample counts for the report.
pub struct Ctx<'a> {
    pub env: &'a Env,
    /// One- and two-thread reference kernels: a rung is bracketed by
    /// the one that loads as many threads as the rung does.
    kernels: [RefKernel; 2],
    last_ref: [Option<(Instant, RefTiming)>; 2],
    pub values: Values,
    pub samples: Vec<(&'static str, usize)>,
    /// Reference timings taken by the rungs (for `bench.ref_kernel_*`).
    pub refs: Vec<RefTiming>,
}

impl<'a> Ctx<'a> {
    pub fn new(env: &'a Env) -> Self {
        Self {
            env,
            kernels: [RefKernel::new(1), RefKernel::new(2)],
            last_ref: [None, None],
            values: Values::new(),
            samples: Vec::new(),
            refs: Vec::new(),
        }
    }

    fn fresh_ref(&mut self, threads: usize) -> RefTiming {
        if let Some((at, r)) = self.last_ref[threads - 1] {
            if at.elapsed().as_secs_f64() < REF_MAX_AGE_S {
                return r;
            }
        }
        self.take_ref(threads)
    }

    fn take_ref(&mut self, threads: usize) -> RefTiming {
        let r = self.kernels[threads - 1].time();
        if threads == 1 {
            self.refs.push(r);
        }
        self.last_ref[threads - 1] = Some((Instant::now(), r));
        r
    }

    /// Runs `body`, which keeps `threads` (1 or 2) threads busy,
    /// between two reference timings and returns its result with the
    /// factor that normalises wall seconds taken inside it.
    pub fn bracket<T>(&mut self, threads: usize, body: impl FnOnce() -> T) -> (T, f64) {
        let before = self.fresh_ref(threads);
        let started = Instant::now();
        let out = body();
        let after = if started.elapsed().as_secs_f64() < REF_MAX_AGE_S {
            before
        } else {
            self.take_ref(threads)
        };
        (out, host::factor(before.wall_s, after.wall_s))
    }

    /// Times repeated single-threaded calls of `call` and returns the
    /// normalised median seconds per call with the number of calls
    /// timed.
    pub fn time(&mut self, call: impl FnMut()) -> (f64, usize) {
        self.time_on(1, call)
    }

    /// [`Ctx::time`] for calls that keep `threads` threads busy.
    pub fn time_on(&mut self, threads: usize, mut call: impl FnMut()) -> (f64, usize) {
        call(); // warm caches and lazy state
        let (samples, factor) = self.bracket(threads, || {
            let started = Instant::now();
            let mut samples = Vec::with_capacity(MIN_CALLS);
            while samples.len() < MIN_CALLS
                && (samples.len() < FLOOR_CALLS || started.elapsed().as_secs_f64() < RUNG_BUDGET_S)
            {
                let t = Instant::now();
                call();
                samples.push(t.elapsed().as_secs_f64());
            }
            samples
        });
        (stats::median(&samples) * factor, samples.len())
    }

    /// Records a value with the number of samples behind it.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, value);
        self.samples.push((name, samples));
    }

    /// Times `call` and records `seconds per call × scale` under `name`.
    pub fn rung(&mut self, name: &'static str, scale: f64, call: impl FnMut()) -> f64 {
        let (s, n) = self.time(call);
        self.put(name, s * scale, n);
        s
    }
}

/// Runs every rung.
pub fn run_all(env: &Env) -> Ctx<'_> {
    let mut ctx = Ctx::new(env);
    let grads = kernels::run(&mut ctx);
    sampler::run(&mut ctx, &grads);
    storage::run(&mut ctx);
    service::run(&mut ctx);
    simulator::run(&mut ctx);
    ctx
}
