//! Runtime computation elision: the paper's Section VI-A mechanism as
//! an actual online stopper.
//!
//! "Instead of executing a preset number of iterations, as in line 3
//! of Algorithm 1, the workload exits … when it is determined to have
//! converged." [`run_until_converged`] runs one OS thread per chain
//! (the multicore execution model of Section IV-B) under the
//! supervisor's monitor ([`Runtime`]), which recomputes R̂ over the
//! chains' draw buffers at the detector cadence and stops every chain
//! once it converges. The monitor sleeps on a condition variable and is
//! woken by the draw that completes the checkpoint it waits for
//! (`MonitorGate`), so neither it nor the chains spend anything on
//! each other between checkpoints.
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
//! [`ConvergenceDetector::checkpoints`] schedule, so the two report the
//! same stop point.

use crate::chain::{RunConfig, Sampler};
use crate::converge::ConvergenceDetector;
use crate::lock;
use crate::model::Model;
use crate::supervisor::{
    ReseedPolicy, RetryPolicy, RunError, RunReport, Runtime, SupervisorConfig,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
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
        *lock(&self.woken) = true;
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
        let mut woken = lock(&self.woken);
        if self.progress() < awaited && !*woken {
            if self.done.load(Ordering::Acquire) {
                return false;
            }
            let waited = self.cv.wait_timeout(woken, timeout);
            woken = waited.unwrap_or_else(PoisonError::into_inner).0;
        }
        *woken = false;
        true
    }
}

/// Runs `cfg.chains` chains on OS threads with a live convergence
/// monitor; chains halt within one iteration of the stop decision and
/// the output ([`RunReport::run`]) is truncated to the decision point
/// ([`RunReport::stopped_at`]).
///
/// This is [`Runtime::run`] with one attempt per chain and no
/// checkpoints, so the RNG streams are those of
/// [`crate::chain::run`]: a run that never converges is draw-for-draw
/// identical to the plain one, and two identical invocations are
/// bit-identical regardless of thread interleaving. Per-chain
/// statistics other than the draws (`accept_mean`, `divergences`) cover
/// the iterations each chain ran, the handful past the stop decision
/// included.
///
/// # Panics
///
/// On an invalid `cfg`, and when a chain dies: the panic names the
/// chain, the workload and the chain's own message.
pub fn run_until_converged<S: Sampler>(
    sampler: &S,
    model: &dyn Model,
    cfg: &RunConfig,
    detector: &ConvergenceDetector,
) -> RunReport {
    let one_attempt = SupervisorConfig::new()
        .with_min_quorum(1)
        .with_retry(RetryPolicy {
            max_attempts: 1,
            reseed: ReseedPolicy::Never,
        });
    let faults = match Runtime::new(detector.clone())
        .with_config(one_attempt)
        .run(sampler, model, cfg)
    {
        Ok(report) if report.faults.is_empty() => return report,
        Ok(report) => report.faults,
        Err(RunError::QuorumLost { faults, .. }) => faults,
        Err(e) => panic!("invalid RunConfig: {e}"),
    };
    let first = &faults[0];
    panic!(
        "chain {} of workload '{}' panicked: {}",
        first.chain,
        model.name(),
        first.message
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::tests::Scripted;
    use crate::chain::Env;
    use crate::model::{AdModel, LogDensity};
    use crate::nuts::Nuts;
    use bayes_autodiff::Real;
    use bayes_obs::{Event, MemoryRecorder, RecorderHandle};
    use rand::Rng;
    use std::sync::Arc;

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

    /// Stops two chains by convergence `after` iterations past warm-up
    /// and compares chain 0's `accept_mean` with the mean of the
    /// `accept` values it recorded: every post-warm-up iteration it ran,
    /// the overrun past the decision included.
    fn accept_mean_of_a_stopped_chain<S: Sampler>(sampler: &S, after: usize) {
        let model = AdModel::new("gauss", Gauss);
        let memory = Arc::new(MemoryRecorder::new());
        let cfg = RunConfig::new(400)
            .with_chains(2)
            .with_warmup(100)
            .with_seed(9)
            .with_recorder(RecorderHandle::new(memory.clone()));
        let stop_at = cfg.warmup + after;
        let det = ConvergenceDetector::new()
            .with_threshold(50.0)
            .with_check_every(10)
            .with_min_iters(stop_at)
            .with_consecutive(1);
        let out = run_until_converged(sampler, &model, &cfg, &det);
        assert_eq!(out.stopped_at, Some(stop_at));
        let accepts: Vec<f64> = memory
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Iteration {
                    chain: 0,
                    iter,
                    accept,
                    ..
                } if *iter >= cfg.warmup as u64 => Some(*accept),
                _ => None,
            })
            .collect();
        assert!(accepts.len() >= after, "{} iterations ran", accepts.len());
        let mean = accepts.iter().sum::<f64>() / accepts.len() as f64;
        assert!(mean > 0.1, "a diluted mean would sit near {}", mean * 0.1);
        let accept_mean = out.run.chains[0].accept_mean;
        assert!(
            (accept_mean - mean).abs() < 1e-12,
            "accept_mean {accept_mean} vs recorded mean {mean}"
        );
    }

    #[test]
    fn accept_mean_of_a_stopped_chain_averages_the_iterations_it_ran() {
        accept_mean_of_a_stopped_chain(&Nuts::default(), 30);
        accept_mean_of_a_stopped_chain(&crate::hmc::StaticHmc::new(4), 30);
        accept_mean_of_a_stopped_chain(&crate::mh::MetropolisHastings::new(), 30);
    }

    #[test]
    fn chain_panic_resurfaces_with_index_and_name() {
        use crate::chain::tests::Kaboom;
        use std::panic::{catch_unwind, AssertUnwindSafe};

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
        // worth of iterations (per-iteration poll of the stop).
        let model = AdModel::new("g", Gauss);
        let det = ConvergenceDetector::new()
            .with_threshold(50.0)
            .with_check_every(10)
            .with_min_iters(20)
            .with_consecutive(1);
        // A latch the monitor opens when it reports the decision, which
        // it does only once the stop is in force. Each chain waits on it
        // before its first draw past the checkpoint, so the chains reach
        // the decision in the same state however the threads run.
        struct Decision(Mutex<bool>, Condvar);
        impl bayes_obs::Recorder for Decision {
            fn record(&self, event: &Event) {
                if matches!(
                    event,
                    Event::Checkpoint {
                        converged: true,
                        ..
                    }
                ) {
                    *lock(&self.0) = true;
                    self.1.notify_all();
                }
            }
        }
        let decision = Arc::new(Decision(Mutex::new(false), Condvar::new()));
        let cfg = RunConfig::new(400)
            .with_chains(2)
            .with_seed(7)
            .with_recorder(RecorderHandle::new(decision.clone()));
        let first = det.checkpoints(cfg.iters).next().expect("a checkpoint");
        // iid normal draws; the longest chain actually generated
        // (pre-truncation) is kept.
        let max_generated = AtomicUsize::new(0);
        let walker = Scripted(|env: &mut Env<'_>, iter, draw: &mut [f64]| {
            if iter == first {
                let decided = lock(&decision.0);
                let waited = decision.1.wait_timeout_while(decided, NEVER, |d| !*d);
                drop(waited.unwrap_or_else(PoisonError::into_inner));
            }
            for d in draw.iter_mut() {
                *d = (0..12).map(|_| env.rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0;
            }
            max_generated.fetch_max(iter + 1, Ordering::Relaxed);
        });
        let out = run_until_converged(&walker, &model, &cfg, &det);
        let at = out.stopped_at.expect("iid chains must converge");
        assert_eq!(at, 20, "first checkpoint should fire");
        for c in &out.run.chains {
            assert_eq!(c.draws.len(), at);
        }
        let generated = max_generated.load(Ordering::Relaxed);
        assert!(
            generated <= at + det.check_every(),
            "chains overran the stop decision: generated {generated}, \
             stopped at {at}"
        );
    }
}
