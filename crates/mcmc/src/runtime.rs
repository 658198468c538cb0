//! Runtime computation elision: the paper's Section VI-A mechanism as
//! an actual online stopper.
//!
//! "Instead of executing a preset number of iterations, as in line 3
//! of Algorithm 1, the workload exits … when it is determined to have
//! converged." [`run_until_converged`] runs one OS thread per chain
//! (the multicore execution model of Section IV-B); a monitor thread
//! recomputes R̂ over the shared draw buffers at the detector cadence
//! and raises a stop flag that every chain polls each iteration. The
//! monitor sleeps on a condition variable and is woken by the draw that
//! completes the checkpoint it waits for ([`MonitorGate`]), so neither
//! it nor the chains spend anything on each other between checkpoints.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Longest a monitor sleeps when nothing it owns is due sooner: a
/// safety net and the stall watchdog's heartbeat, never how a
/// checkpoint, a pause or an abort gets noticed.
pub(crate) const MONITOR_NAP: Duration = Duration::from_millis(100);

/// How the chain threads of a run wake its monitor: when what it waits
/// on changes, not once per draw. The monitor publishes the checkpoint
/// boundary it waits for and parks; a chain publishes its draw count
/// after every draw (a store to a counter only it writes) and wakes the
/// monitor if that draw brings every chain to the boundary. Whatever
/// else the monitor acts on — a pending pause or abort, a fault, a
/// chain's end — is a [`MonitorGate::wake`].
///
/// No boundary can be missed. `lens` and `awaited` are `SeqCst` and each
/// side writes its own before it reads the other's, so of a chain
/// crossing `t` and a monitor publishing `t` at least one sees the
/// other: the chain wakes, or the monitor's progress check — made after
/// publishing, which also catches a boundary crossed before it was
/// published — counts the draw and does not park. Nor can a wake fall
/// between that check and the wait: it is a flag set under the mutex
/// the monitor holds from one to the other. The timeout is a safety
/// net, not part of the mechanism.
pub(crate) struct MonitorGate {
    lens: Vec<AtomicUsize>,
    /// `usize::MAX` while the monitor waits for no boundary.
    awaited: AtomicUsize,
    /// A wake the monitor has not consumed yet.
    woken: Mutex<bool>,
    cv: Condvar,
    /// Every chain has been joined: nothing is left to wake for.
    done: AtomicBool,
}

impl MonitorGate {
    /// A gate over chains that start with `lens` draws buffered.
    pub(crate) fn new(lens: impl IntoIterator<Item = usize>) -> Self {
        Self {
            lens: lens.into_iter().map(AtomicUsize::new).collect(),
            awaited: AtomicUsize::new(usize::MAX),
            woken: Mutex::new(false),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
        }
    }

    /// Draws every chain has buffered.
    pub(crate) fn progress(&self) -> usize {
        let lens = self.lens.iter().map(|l| l.load(Ordering::SeqCst));
        lens.min().unwrap_or(0)
    }

    /// Chain side, after buffering a draw: chain `slot` now holds `len`.
    pub(crate) fn advance(&self, slot: usize, len: usize) {
        self.lens[slot].store(len, Ordering::SeqCst);
        if len == self.awaited.load(Ordering::SeqCst) && self.progress() >= len {
            self.wake();
        }
    }

    /// Wakes the monitor, or keeps its next park from sleeping.
    pub(crate) fn wake(&self) {
        *self.woken.lock() = true;
        self.cv.notify_one();
    }

    /// After the last chain is joined: ends the monitor's waiting.
    pub(crate) fn finish(&self) {
        self.done.store(true, Ordering::Release);
        self.wake();
    }

    /// Monitor side: sleeps until every chain has reached `boundary`, a
    /// wake, or `timeout`. False once nothing is left to wait for.
    pub(crate) fn park(&self, boundary: Option<usize>, timeout: Duration) -> bool {
        let awaited = boundary.unwrap_or(usize::MAX);
        self.awaited.store(awaited, Ordering::SeqCst);
        let mut woken = self.woken.lock();
        if self.progress() < awaited && !*woken {
            if self.done.load(Ordering::Acquire) {
                return false;
            }
            self.cv.wait_for(&mut woken, timeout);
        }
        *woken = false;
        true
    }
}

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
    let gate = MonitorGate::new(vec![0; cfg.chains]);

    let mut chains: Vec<ChainOutput> = crossbeam::thread::scope(|scope| {
        // Monitor thread: walk the checkpoint schedule in iteration
        // space, evaluating each checkpoint as soon as every chain has
        // reached it. The schedule — not wall-clock timing — decides
        // where the run stops.
        let monitor = {
            let stop = &stop;
            let stopped_at = &stopped_at;
            let buffers = &buffers;
            let gate = &gate;
            scope.spawn(move |_| {
                // The schedule is shared verbatim with the post-hoc
                // `ConvergenceDetector::detect`, so the two walkers can
                // never disagree on where a run stops.
                let _prof_scope = cfg.profiler.install(None);
                let mut schedule = detector.checkpoints(cfg.iters);
                let mut pending = schedule.next();
                let mut streak = 0usize;
                while let Some(next_check) = pending {
                    if gate.progress() >= next_check {
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
                    // Sleep until the chains reach the checkpoint; the
                    // timeout is only a safety net.
                    if !gate.park(Some(next_check), MONITOR_NAP) {
                        break; // chains finished short of the checkpoint
                    }
                }
            })
        };

        let outs: Vec<_> = inits
            .iter()
            .enumerate()
            .map(|(c, init)| {
                let stop = &stop;
                let buffer = &buffers[c];
                let gate = &gate;
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
                            let len = {
                                let mut buffer = buffer.lock();
                                buffer.push(draw.to_vec());
                                buffer.len()
                            };
                            gate.advance(c, len);
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
        gate.finish();
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

    /// Far longer than any of the gate tests takes: a park that has to
    /// time out — a missed wake — shows as a test that overran
    /// [`no_park_timed_out`].
    const NEVER: Duration = Duration::from_secs(60);

    fn no_park_timed_out(test: impl FnOnce()) {
        let started = std::time::Instant::now();
        test();
        assert!(started.elapsed() < NEVER / 2, "a wake was missed");
    }

    #[test]
    fn gate_never_sleeps_on_what_has_already_happened() {
        let gate = MonitorGate::new([0, 0]);
        no_park_timed_out(|| {
            // A boundary crossed before it was published.
            gate.advance(0, 3);
            gate.advance(1, 3);
            assert!(gate.park(Some(3), NEVER));
            // A wake that found nobody waiting is found by the next
            // park — once.
            gate.wake();
            assert!(gate.park(Some(9), NEVER));
            let started = std::time::Instant::now();
            assert!(gate.park(Some(9), Duration::from_millis(20)));
            assert!(started.elapsed() >= Duration::from_millis(20), "slept");
            // After the last chain is joined: one more pass, then the
            // end ...
            gate.finish();
            assert!(gate.park(Some(9), NEVER));
            assert!(!gate.park(Some(9), NEVER));
            // ... unless the boundary was reached after all.
            assert!(gate.park(Some(3), NEVER));
        });
    }

    #[test]
    fn gate_wakes_once_per_boundary_not_once_per_draw() {
        let gate = MonitorGate::new([0, 0]);
        let passes = AtomicUsize::new(0);
        no_park_timed_out(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    while gate.progress() < 10 {
                        passes.fetch_add(1, Ordering::Relaxed);
                        assert!(gate.park(Some(10), NEVER));
                    }
                });
                // A chain far ahead of the other is no news to the monitor,
                // at the boundary or past it ...
                for len in 1..=500 {
                    gate.advance(0, len);
                }
                // ... the draw that brings the last chain there is.
                for len in 1..=10 {
                    gate.advance(1, len);
                }
            })
        });
        // One pass if the chains were done before the monitor looked,
        // two if it had to be woken; a nudge per draw would make 500.
        assert!(passes.load(Ordering::Relaxed) <= 2, "{passes:?} passes");
    }

    fn dawdle(units: usize) {
        for _ in 0..units * 16 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn gate_misses_no_boundary_in_lock_step() {
        // Two chains and a monitor in lock step over 3000 boundaries:
        // the chains take draw `t + 1` only once the monitor has seen
        // boundary `t`, so every boundary is reached while the monitor
        // is about to park, parking or parked, which is where a wake
        // could be lost. (Both chains draw on one thread: with a
        // thread each they would, on two cores, leave the monitor none
        // to race with.)
        const BOUNDARIES: usize = 3000;
        let gate = MonitorGate::new([0, 0]);
        let seen = AtomicUsize::new(0);
        no_park_timed_out(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    for len in 1..=BOUNDARIES {
                        while seen.load(Ordering::Acquire) + 1 < len {
                            std::hint::spin_loop();
                        }
                        dawdle(len % 7);
                        gate.advance(0, len);
                        gate.advance(1, len);
                    }
                });
                for t in 1..=BOUNDARIES {
                    // Both sides dawdle a varying while, on different
                    // periods, so that the chains cross some boundaries
                    // before the monitor publishes them, some as it
                    // does, and some after it has parked.
                    dawdle(t % 16);
                    // No look at the chains before parking: that is
                    // the gate's to get right.
                    while {
                        assert!(gate.park(Some(t), NEVER));
                        gate.progress() < t
                    } {}
                    seen.store(t, Ordering::Release);
                }
            })
        });
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
