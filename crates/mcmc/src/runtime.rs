//! Runtime computation elision: the paper's Section VI-A mechanism as
//! an actual online stopper.
//!
//! "Instead of executing a preset number of iterations, as in line 3
//! of Algorithm 1, the workload exits … when it is determined to have
//! converged." [`run_until_converged`] runs one OS thread per chain
//! (the multicore execution model of Section IV-B); a monitor thread
//! recomputes R̂ over the shared draw buffers at the detector cadence
//! and raises a stop flag that every chain polls each iteration. The
//! monitor sleeps on a condition variable and is woken by new draws,
//! so it burns no CPU between checkpoints.
//!
//! The stop decision is made purely in *iteration space*: checkpoints
//! are evaluated in a fixed order over deterministic draw prefixes,
//! and the returned chains are truncated to the decision point. Two
//! invocations with the same [`RunConfig`] therefore produce
//! bit-identical draws, no matter how the OS schedules the threads.
//!
//! Unlike [`crate::converge::ConvergenceDetector::detect`] (a post-hoc
//! replay used by the studies), this never executes the elided
//! iterations at all — but both walk the identical
//! [`ConvergenceDetector::checkpoints`] schedule, so on a run where
//! the stop flag never truncates mid-iteration the two report the
//! same stop point.

use crate::chain::{initial_points, ChainOutput, MultiChainRun, RunConfig, Sampler};
use crate::converge::ConvergenceDetector;
use crate::model::Model;
use bayes_obs::{CheckpointSource, Event};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A sampler that can be asked to stop between iterations.
///
/// The default implementation ignores the stop flag (full-length run),
/// so every [`Sampler`] works; [`crate::nuts::Nuts`] overrides it.
pub trait StoppableSampler: Sampler {
    /// Like [`Sampler::sample_chain`], but polls `stop` each iteration
    /// and reports every accepted draw through `on_draw(iter, draw)`.
    fn sample_chain_stoppable(
        &self,
        model: &dyn Model,
        init: &[f64],
        cfg: &RunConfig,
        seed: u64,
        stop: &AtomicBool,
        on_draw: &(dyn Fn(usize, &[f64]) + Sync),
    ) -> ChainOutput {
        let _ = stop; // default: run to completion
        let out = self.sample_chain(model, init, cfg, seed);
        for (i, d) in out.draws.iter().enumerate() {
            on_draw(i, d);
        }
        out
    }
}

/// Outcome of a runtime-elided run.
#[derive(Debug, Clone)]
pub struct ElidedRun {
    /// The multi-chain run. When the monitor stopped the run, every
    /// chain is truncated to exactly [`ElidedRun::stopped_at`] draws;
    /// in-flight iterations past the decision are discarded so the
    /// result is reproducible.
    pub run: MultiChainRun,
    /// Iteration at which the monitor raised the stop flag, if it did.
    pub stopped_at: Option<usize>,
    /// Iterations configured by the user.
    pub configured_iters: usize,
}

impl ElidedRun {
    /// Fraction of configured iterations that were never executed (or
    /// were discarded as in-flight overrun past the stop decision).
    pub fn iterations_elided(&self) -> f64 {
        if self.stopped_at.is_none() {
            return 0.0;
        }
        let executed = self
            .run
            .chains
            .iter()
            .map(|c| c.draws.len())
            .max()
            .unwrap_or(0);
        (1.0 - executed as f64 / self.configured_iters as f64).max(0.0)
    }
}

/// Runs `cfg.chains` chains on OS threads with a live convergence
/// monitor; chains halt within one iteration of the stop decision and
/// the output is truncated to the decision point.
///
/// The RNG streams are derived from `cfg.seed` exactly as in
/// [`crate::chain::run`], so a run that never converges is
/// draw-for-draw identical to the plain one, and two identical
/// invocations are bit-identical regardless of thread interleaving.
/// Note that per-chain statistics other than the draws (`accept_mean`,
/// `divergences`) still cover the handful of in-flight iterations a
/// chain completed before observing the stop flag; `accept_mean` is
/// the mean over exactly those post-warm-up iterations the chain ran.
pub fn run_until_converged<S: StoppableSampler + Sync>(
    sampler: &S,
    model: &dyn Model,
    cfg: &RunConfig,
    detector: &ConvergenceDetector,
) -> ElidedRun {
    if let Err(e) = cfg.validate() {
        panic!("invalid RunConfig: {e}");
    }
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

    let stop = AtomicBool::new(false);
    let stopped_at = Mutex::new(None::<usize>);
    let buffers: Vec<Mutex<Vec<Vec<f64>>>> =
        (0..cfg.chains).map(|_| Mutex::new(Vec::new())).collect();
    let done = AtomicBool::new(false);
    // Monitor wakeup: chains nudge the condvar after each draw.
    let wake_mx = Mutex::new(());
    let wake_cv = Condvar::new();

    let mut chains: Vec<ChainOutput> = crossbeam::thread::scope(|scope| {
        // Monitor thread: walk the checkpoint schedule in iteration
        // space, evaluating each checkpoint as soon as every chain has
        // reached it. The schedule — not wall-clock timing — decides
        // where the run stops.
        let monitor = {
            let stop = &stop;
            let stopped_at = &stopped_at;
            let buffers = &buffers;
            let done = &done;
            let wake_mx = &wake_mx;
            let wake_cv = &wake_cv;
            scope.spawn(move |_| {
                // The schedule is shared verbatim with the post-hoc
                // `ConvergenceDetector::detect`, so the two walkers can
                // never disagree on where a run stops.
                let _prof_scope = cfg.profiler.install(None);
                let mut schedule = detector.checkpoints(cfg.iters);
                let mut pending = schedule.next();
                let mut streak = 0usize;
                let progress = || buffers.iter().map(|b| b.lock().len()).min().unwrap_or(0);
                while let Some(next_check) = pending {
                    if progress() >= next_check {
                        let _span = bayes_obs::span(bayes_obs::Phase::CheckpointDiag);
                        // Snapshot the prefixes and compute R̂ at t.
                        let snaps: Vec<Vec<Vec<f64>>> = buffers
                            .iter()
                            .map(|b| b.lock()[..next_check].to_vec())
                            .collect();
                        let views: Vec<&[Vec<f64>]> = snaps.iter().map(|s| s.as_slice()).collect();
                        let r = detector.rhat_at(&views, next_check);
                        if r.is_finite() && r < detector.threshold() {
                            streak += 1;
                        } else {
                            streak = 0;
                        }
                        let converged = streak >= detector.consecutive();
                        if cfg.recorder.enabled() {
                            cfg.recorder.record(Event::Checkpoint {
                                source: CheckpointSource::Online,
                                iter: next_check as u64,
                                max_rhat: r,
                                streak: streak as u64,
                                converged,
                            });
                        }
                        if converged {
                            *stopped_at.lock() = Some(next_check);
                            stop.store(true, Ordering::Release);
                            break;
                        }
                        pending = schedule.next();
                        continue;
                    }
                    // Sleep until a chain reports progress. Re-check
                    // under the wake lock so a push between the test
                    // above and the wait cannot be missed; the timeout
                    // is only a safety net.
                    let mut guard = wake_mx.lock();
                    if progress() >= next_check {
                        continue;
                    }
                    if done.load(Ordering::Acquire) {
                        break; // chains finished short of the checkpoint
                    }
                    wake_cv.wait_for(&mut guard, Duration::from_millis(100));
                }
            })
        };

        let outs: Vec<_> = inits
            .iter()
            .enumerate()
            .map(|(c, init)| {
                let stop = &stop;
                let buffer = &buffers[c];
                let wake_mx = &wake_mx;
                let wake_cv = &wake_cv;
                let cfg_c = cfg.for_chain(c);
                let seed = cfg.chain_seed(c);
                scope.spawn(move |_| {
                    let _prof_scope = cfg_c.profiler.install(Some(c as u64));
                    sampler.sample_chain_stoppable(
                        model,
                        init,
                        &cfg_c,
                        seed,
                        stop,
                        &move |_iter, draw: &[f64]| {
                            buffer.lock().push(draw.to_vec());
                            // Pairing with the monitor's wake lock
                            // closes its check-then-wait race.
                            drop(wake_mx.lock());
                            wake_cv.notify_one();
                        },
                    )
                })
            })
            .collect();
        // Join every chain handle before deciding anything: collecting
        // the `Result`s (instead of expecting each join) lets a panic
        // be reported with its chain index and workload name after the
        // monitor is shut down cleanly.
        let results: Vec<Result<ChainOutput, Box<dyn std::any::Any + Send>>> =
            outs.into_iter().map(|h| h.join()).collect();
        done.store(true, Ordering::Release);
        drop(wake_mx.lock());
        wake_cv.notify_all();
        // Propagate a monitor panic the same way chain panics surface:
        // one formatted message carrying the workload name and the
        // original payload, not an opaque re-unwind of the boxed Any.
        if let Err(payload) = monitor.join() {
            panic!(
                "convergence monitor of workload '{}' panicked: {}",
                model.name(),
                crate::chain::panic_message(payload.as_ref())
            );
        }
        crate::chain::collect_chain_results(results, model.name())
    })
    .expect("crossbeam scope failed after all children were joined");

    let stopped = *stopped_at.lock();
    if let Some(t) = stopped {
        // Discard in-flight overrun so the output depends only on the
        // (deterministic) stop decision, not on thread timing.
        for c in &mut chains {
            if c.draws.len() > t {
                c.grad_evals = c.evals_until(t);
                c.draws.truncate(t);
                c.evals_per_iter.truncate(t);
            }
        }
    }
    model.flush_telemetry();
    let snapshot = cfg.profiler.emit_metrics(model.name());
    if cfg.recorder.enabled() {
        cfg.recorder.record(Event::RunEnd {
            model: model.name().to_string(),
            chains: chains.len() as u64,
            stopped_at: stopped.map(|t| t as u64),
            total_draws: chains.iter().map(|c| c.draws.len() as u64).sum(),
            divergences: chains.iter().map(|c| c.divergences).sum(),
            grad_evals: chains.iter().map(|c| c.grad_evals).sum(),
            span_ns: snapshot.span_total_ns(),
        });
        cfg.recorder.flush();
    }
    ElidedRun {
        run: MultiChainRun {
            chains,
            dim: model.dim(),
        },
        stopped_at: stopped,
        configured_iters: cfg.iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AdModel, LogDensity};
    use crate::nuts::Nuts;
    use bayes_autodiff::Real;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::AtomicUsize;

    struct Gauss;
    impl LogDensity for Gauss {
        fn dim(&self) -> usize {
            2
        }
        fn eval<R: Real>(&self, t: &[R]) -> R {
            -(t[0].square() + (t[1] - 1.0).square()) * 0.5
        }
    }

    #[test]
    fn stops_early_on_an_easy_target() {
        let model = AdModel::new("g", Gauss);
        let cfg = RunConfig::new(4000).with_chains(4).with_seed(11);
        let det = ConvergenceDetector::new();
        let out = run_until_converged(&Nuts::default(), &model, &cfg, &det);
        let at = out.stopped_at.expect("should converge");
        assert!(at < 2000, "stopped at {at}");
        // The output is truncated to the decision point exactly.
        for c in &out.run.chains {
            assert_eq!(c.draws.len(), at);
        }
        assert!(out.iterations_elided() > 0.1, "{}", out.iterations_elided());
        // And the truncated draws still estimate the posterior.
        let tail: Vec<f64> = out.run.chains[0]
            .draws
            .iter()
            .rev()
            .take(100)
            .map(|d| d[1])
            .collect();
        let m = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((m - 1.0).abs() < 0.6, "tail mean {m}");
    }

    #[test]
    fn never_stops_when_threshold_is_unreachable() {
        let model = AdModel::new("g", Gauss);
        let cfg = RunConfig::new(300).with_chains(2).with_seed(3);
        let det = ConvergenceDetector::new().with_threshold(1.0 + 1e-12);
        let out = run_until_converged(&Nuts::default(), &model, &cfg, &det);
        assert_eq!(out.stopped_at, None);
        assert_eq!(out.iterations_elided(), 0.0);
        for c in &out.run.chains {
            assert_eq!(c.draws.len(), 300, "full-length run expected");
        }
    }

    #[test]
    fn unconverged_run_matches_plain_chain_run() {
        // Same derived streams → the elided runtime is draw-for-draw
        // the plain runner when the monitor never fires.
        let model = AdModel::new("g", Gauss);
        let cfg = RunConfig::new(250).with_chains(2).with_seed(17);
        let det = ConvergenceDetector::new().with_threshold(1.0 + 1e-12);
        let elided = run_until_converged(&Nuts::default(), &model, &cfg, &det);
        let plain = crate::chain::run(&Nuts::default(), &model, &cfg);
        for (a, b) in elided.run.chains.iter().zip(&plain.chains) {
            assert_eq!(a.draws, b.draws);
        }
    }

    #[test]
    fn elided_runs_are_bit_reproducible() {
        let model = AdModel::new("g", Gauss);
        let cfg = RunConfig::new(2000).with_chains(4).with_seed(29);
        let det = ConvergenceDetector::new();
        let a = run_until_converged(&Nuts::default(), &model, &cfg, &det);
        let b = run_until_converged(&Nuts::default(), &model, &cfg, &det);
        assert_eq!(a.stopped_at, b.stopped_at);
        for (ca, cb) in a.run.chains.iter().zip(&b.run.chains) {
            assert_eq!(ca.draws, cb.draws, "draws must be bit-identical");
        }
    }

    #[test]
    fn default_stoppable_impl_runs_to_completion() {
        // MetropolisHastings doesn't override the stoppable API; the
        // default ignores the flag but still reports draws.
        use crate::mh::MetropolisHastings;
        let model = AdModel::new("g", Gauss);
        let cfg = RunConfig::new(150).with_chains(2).with_seed(5);
        let det = ConvergenceDetector::new();
        let out = run_until_converged(&MetropolisHastings::new(), &model, &cfg, &det);
        for c in &out.run.chains {
            assert_eq!(c.draws.len(), 150);
        }
    }

    /// A stoppable toy sampler: iid normal draws, one per `step_us`
    /// microseconds, polling the stop flag after every draw. Records
    /// the longest chain it actually generated (pre-truncation).
    struct SlowWalker {
        step_us: u64,
        max_generated: AtomicUsize,
    }

    impl Sampler for SlowWalker {
        fn sample_chain(
            &self,
            model: &dyn Model,
            init: &[f64],
            cfg: &RunConfig,
            seed: u64,
        ) -> ChainOutput {
            let stop = AtomicBool::new(false);
            self.sample_chain_stoppable(model, init, cfg, seed, &stop, &|_, _| {})
        }
    }

    impl StoppableSampler for SlowWalker {
        fn sample_chain_stoppable(
            &self,
            model: &dyn Model,
            _init: &[f64],
            cfg: &RunConfig,
            seed: u64,
            stop: &AtomicBool,
            on_draw: &(dyn Fn(usize, &[f64]) + Sync),
        ) -> ChainOutput {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draws: Vec<Vec<f64>> = Vec::new();
            for i in 0..cfg.iters {
                std::thread::sleep(Duration::from_micros(self.step_us));
                let d: Vec<f64> = (0..model.dim())
                    .map(|_| {
                        let s: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum();
                        s - 6.0
                    })
                    .collect();
                on_draw(i, &d);
                draws.push(d);
                self.max_generated.fetch_max(draws.len(), Ordering::Relaxed);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            let n = draws.len();
            ChainOutput {
                draws,
                warmup: cfg.warmup.min(n),
                accept_mean: 1.0,
                grad_evals: n as u64,
                divergences: 0,
                evals_per_iter: vec![1; n],
            }
        }
    }

    /// Stops a chain `after` iterations past warm-up and compares its
    /// `accept_mean` with the mean of the `accept` values it recorded.
    fn accept_mean_of_a_stopped_chain<S: StoppableSampler>(sampler: &S, after: usize) {
        use bayes_obs::{MemoryRecorder, RecorderHandle};
        use std::sync::Arc;

        let model = AdModel::new("gauss", Gauss);
        let memory = Arc::new(MemoryRecorder::new());
        let cfg = RunConfig::new(400)
            .with_warmup(100)
            .with_seed(9)
            .with_recorder(RecorderHandle::new(memory.clone()));
        let stop = AtomicBool::new(false);
        let out = sampler.sample_chain_stoppable(
            &model,
            &[0.5, -0.5],
            &cfg,
            cfg.chain_seed(0),
            &stop,
            &|iter, _| {
                if iter + 1 == cfg.warmup + after {
                    stop.store(true, Ordering::Release);
                }
            },
        );
        assert_eq!(out.draws.len(), cfg.warmup + after);
        let accepts: Vec<f64> = memory
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Iteration { iter, accept, .. } if *iter >= cfg.warmup as u64 => {
                    Some(*accept)
                }
                _ => None,
            })
            .collect();
        assert_eq!(accepts.len(), after);
        let mean = accepts.iter().sum::<f64>() / after as f64;
        assert!(mean > 0.3, "a diluted mean would sit near {}", mean * 0.1);
        assert!(
            (out.accept_mean - mean).abs() < 1e-12,
            "accept_mean {} vs recorded mean {mean}",
            out.accept_mean
        );
    }

    #[test]
    fn accept_mean_of_a_stopped_chain_averages_the_iterations_it_ran() {
        accept_mean_of_a_stopped_chain(&Nuts::default(), 30);
        accept_mean_of_a_stopped_chain(&crate::hmc::StaticHmc::new(4), 30);
    }

    #[test]
    fn chain_panic_resurfaces_with_index_and_name() {
        use crate::model::EvalProfile;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// Panics on the very first gradient evaluation.
        struct Kaboom;
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

        let cfg = RunConfig::new(50).with_chains(2).with_seed(1);
        let det = ConvergenceDetector::new();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_until_converged(&Nuts::default(), &Kaboom, &cfg, &det);
        }))
        .expect_err("a panicking chain must fail the run");
        let msg = crate::chain::panic_message(err.as_ref());
        assert!(msg.contains("chain 0"), "missing chain index: {msg}");
        assert!(msg.contains("kaboom"), "missing workload name: {msg}");
        assert!(
            msg.contains("deliberate gradient failure"),
            "missing original panic payload: {msg}"
        );
    }

    #[test]
    fn stopped_run_halts_within_one_detector_cadence() {
        // Well-mixed iid chains pass the very first checkpoint; the
        // chains must then stop before running one more cadence's
        // worth of iterations (condvar wakeup + per-iteration poll).
        let model = AdModel::new("g", Gauss);
        let cfg = RunConfig::new(400).with_chains(2).with_seed(7);
        let det = ConvergenceDetector::new()
            .with_threshold(50.0)
            .with_check_every(10)
            .with_min_iters(20)
            .with_consecutive(1);
        let walker = SlowWalker {
            step_us: 1000,
            max_generated: AtomicUsize::new(0),
        };
        let out = run_until_converged(&walker, &model, &cfg, &det);
        let at = out.stopped_at.expect("iid chains must converge");
        assert_eq!(at, 20, "first checkpoint should fire");
        for c in &out.run.chains {
            assert_eq!(c.draws.len(), at);
        }
        let generated = walker.max_generated.load(Ordering::Relaxed);
        assert!(
            generated <= at + det.check_every(),
            "chains overran the stop decision: generated {generated}, \
             stopped at {at}"
        );
    }
}
