//! Runtime convergence detection — the paper's computation-elision
//! mechanism (Section VI-A).
//!
//! "Instead of executing a preset number of iterations, as in line 3 of
//! Algorithm 1, the workload exits each iteration when it is determined
//! to have converged." The detector periodically computes the
//! Gelman–Rubin R̂ over the *second half* of the draws so far (the
//! paper's warm-up discard convention) and declares convergence when
//! every parameter's R̂ falls below the threshold (1.1 per Brooks et
//! al.).

use crate::chain::MultiChainRun;
use crate::diag;
use bayes_obs::{CheckpointSource, Event, RecorderHandle};

/// Online/offline convergence detector.
#[derive(Debug, Clone)]
pub struct ConvergenceDetector {
    threshold: f64,
    check_every: usize,
    min_iters: usize,
    consecutive: usize,
}

impl Default for ConvergenceDetector {
    fn default() -> Self {
        Self {
            threshold: 1.1,
            check_every: 50,
            min_iters: 200,
            consecutive: 3,
        }
    }
}

/// The iterations at which a detector evaluates R̂, shared verbatim by
/// the online monitor (`run_until_converged`) and the post-hoc replay
/// ([`ConvergenceDetector::detect`]) so the two can never disagree on
/// where a run stops.
///
/// The walk starts at `min_iters.max(check_every)` and advances by
/// `check_every.max(t / 8)`: a fixed cadence early, growing
/// geometrically once `t` exceeds `8 × check_every` so that late
/// checkpoints — each an O(t) R̂ computation — stay O(total) in
/// aggregate.
#[derive(Debug, Clone)]
pub struct CheckpointSchedule {
    next: usize,
    cadence: usize,
    total: usize,
}

impl Iterator for CheckpointSchedule {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next > self.total {
            return None;
        }
        let t = self.next;
        self.next += self.cadence.max(t / 8);
        Some(t)
    }
}

/// Result of scanning a run for its convergence point.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// First checked iteration count at which every parameter's R̂ was
    /// below threshold, if any.
    pub converged_at: Option<usize>,
    /// `(iterations, max R̂)` at every checkpoint — the blue line of
    /// Figure 5.
    pub rhat_trace: Vec<(usize, f64)>,
    /// Iterations the user configured (length of the chains).
    pub total_iters: usize,
}

impl ConvergenceReport {
    /// Fraction of iterations that were unnecessary
    /// (the paper finds >70% on average across BayesSuite).
    pub fn excess_fraction(&self) -> f64 {
        match self.converged_at {
            Some(c) if self.total_iters > 0 => 1.0 - c as f64 / self.total_iters as f64,
            _ => 0.0,
        }
    }
}

impl ConvergenceDetector {
    /// Creates a detector with the paper's defaults: R̂ < 1.1, checked
    /// every 50 iterations, starting at iteration 100.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the R̂ threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is finite and above 1. (An infinite
    /// one would be written to a job server's journal as `null`, which
    /// reads back as NaN.)
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 1.0,
            "R-hat threshold must exceed 1 and be finite"
        );
        self.threshold = threshold;
        self
    }

    /// Sets the checking cadence.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn with_check_every(mut self, every: usize) -> Self {
        assert!(every > 0, "check cadence must be positive");
        self.check_every = every;
        self
    }

    /// Sets the earliest iteration at which convergence may be
    /// declared (the detector needs a minimal second half to estimate
    /// R̂ from).
    ///
    /// # Panics
    ///
    /// Panics if `min_iters < 4` (R̂ over `[t/2, t)` needs at least 4
    /// draws).
    pub fn with_min_iters(mut self, min_iters: usize) -> Self {
        assert!(min_iters >= 4, "min_iters must be at least 4");
        self.min_iters = min_iters;
        self
    }

    /// Requires `n` consecutive sub-threshold checkpoints before
    /// declaring convergence. The paper notes that "the trace of R̂
    /// fluctuates" as chains explore different regions; demanding a
    /// sustained pass avoids stopping on a transient dip.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_consecutive(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one checkpoint");
        self.consecutive = n;
        self
    }

    /// The R̂ threshold in use.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Iterations between checkpoints.
    pub fn check_every(&self) -> usize {
        self.check_every
    }

    /// First iteration at which convergence may be declared.
    pub fn min_iters(&self) -> usize {
        self.min_iters
    }

    /// Consecutive sub-threshold checkpoints required.
    pub fn consecutive(&self) -> usize {
        self.consecutive
    }

    /// The checkpoint iterations this detector evaluates on a run of
    /// `total` iterations — the single source of truth for both the
    /// online monitor and the post-hoc replay.
    pub fn checkpoints(&self, total: usize) -> CheckpointSchedule {
        CheckpointSchedule {
            next: self.min_iters.max(self.check_every),
            cadence: self.check_every.max(1),
            total,
        }
    }

    /// Max R̂ across parameters using draws `[t/2, t)` of each chain —
    /// the quantity a runtime implementation computes in place.
    ///
    /// `chains` is indexed `[chain][iteration][param]`. Returns `NaN`
    /// when there is not enough data.
    pub fn rhat_at(&self, chains: &[&[Vec<f64>]], t: usize) -> f64 {
        if chains.is_empty() || t < 4 {
            return f64::NAN;
        }
        let dim = chains[0].first().map_or(0, Vec::len);
        if dim == 0 {
            // No draws in chain 0 (or zero-dimensional draws): the fold
            // below would be empty and return -inf, which downstream
            // code could mistake for "converged". Not-enough-data is
            // NaN.
            return f64::NAN;
        }
        let lo = t / 2;
        (0..dim)
            .map(|j| {
                let traces: Vec<Vec<f64>> = chains
                    .iter()
                    .map(|c| c[lo..t.min(c.len())].iter().map(|d| d[j]).collect())
                    .collect();
                diag::rhat(&traces)
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Scans a finished run and reports where it would have stopped —
    /// used for the convergence studies (Figure 5) and by the
    /// scheduler's elision runner. Walks the same
    /// [`ConvergenceDetector::checkpoints`] schedule as the online
    /// monitor, so `detect(...).converged_at` matches
    /// `run_until_converged(...).stopped_at` whenever the stop flag is
    /// honoured at an iteration boundary.
    pub fn detect(&self, run: &MultiChainRun) -> ConvergenceReport {
        self.detect_recorded(run, &RecorderHandle::null())
    }

    /// [`ConvergenceDetector::detect`] with a checkpoint event emitted
    /// to `recorder` for every schedule entry
    /// ([`CheckpointSource::PostHoc`]).
    pub fn detect_recorded(
        &self,
        run: &MultiChainRun,
        recorder: &RecorderHandle,
    ) -> ConvergenceReport {
        let chains: Vec<&[Vec<f64>]> = run.chains.iter().map(|c| c.draws.as_slice()).collect();
        self.replay(&chains, recorder)
    }

    /// [`ConvergenceDetector::detect_recorded`] over chains' draws,
    /// indexed `[chain][iteration][param]`.
    pub(crate) fn replay(
        &self,
        chains: &[&[Vec<f64>]],
        recorder: &RecorderHandle,
    ) -> ConvergenceReport {
        let total = chains.iter().map(|c| c.len()).min().unwrap_or(0);
        let mut trace = Vec::new();
        let mut converged_at = None;
        let mut streak = 0usize;
        for t in self.checkpoints(total) {
            let _span = bayes_obs::span(bayes_obs::Phase::CheckpointDiag);
            let r = self.rhat_at(chains, t);
            trace.push((t, r));
            if r.is_finite() && r < self.threshold {
                streak += 1;
                if converged_at.is_none() && streak >= self.consecutive {
                    converged_at = Some(t);
                }
            } else {
                streak = 0;
            }
            if recorder.enabled() {
                recorder.record(Event::Checkpoint {
                    source: CheckpointSource::PostHoc,
                    iter: t as u64,
                    max_rhat: r,
                    streak: streak as u64,
                    converged: converged_at == Some(t),
                });
            }
        }
        ConvergenceReport {
            converged_at,
            rhat_trace: trace,
            total_iters: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainOutput, MultiChainRun};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Chains that start far apart and merge after `merge_at`
    /// iterations — a caricature of warmup.
    fn merging_run(merge_at: usize, total: usize) -> MultiChainRun {
        let mut rng = StdRng::seed_from_u64(8);
        let chains = (0..4)
            .map(|c| {
                let offset = c as f64 * 8.0;
                let draws = (0..total)
                    .map(|i| {
                        let noise: f64 =
                            (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0;
                        let drift = if i < merge_at {
                            offset * (1.0 - i as f64 / merge_at as f64)
                        } else {
                            0.0
                        };
                        vec![drift + noise]
                    })
                    .collect();
                ChainOutput {
                    draws,
                    warmup: 0,
                    accept_mean: 1.0,
                    grad_evals: total as u64,
                    divergences: 0,
                    evals_per_iter: vec![1; total],
                }
            })
            .collect();
        MultiChainRun { chains, dim: 1 }
    }

    #[test]
    fn detects_convergence_after_merge() {
        let run = merging_run(300, 2000);
        let report = ConvergenceDetector::new().detect(&run);
        let at = report.converged_at.expect("should converge");
        assert!(at >= 300, "converged at {at} before the merge");
        assert!(at < 1500, "converged too late: {at}");
        assert!(report.excess_fraction() > 0.2);
    }

    #[test]
    fn no_convergence_for_separated_chains() {
        // Chains that never merge.
        let run = merging_run(usize::MAX, 800);
        let report = ConvergenceDetector::new().detect(&run);
        assert_eq!(report.converged_at, None);
        assert_eq!(report.excess_fraction(), 0.0);
    }

    #[test]
    fn rhat_trace_is_recorded_at_cadence() {
        let run = merging_run(100, 500);
        let det = ConvergenceDetector::new().with_check_every(100);
        let report = det.detect(&run);
        let iters: Vec<usize> = report.rhat_trace.iter().map(|&(t, _)| t).collect();
        // min_iters (200) sets the first checkpoint.
        assert_eq!(iters, vec![200, 300, 400, 500]);
        assert_eq!(report.total_iters, 500);
    }

    #[test]
    fn rhat_at_handles_degenerate_input() {
        let det = ConvergenceDetector::new();
        assert!(det.rhat_at(&[], 100).is_nan());
        // Chain 0 has no draws: the per-parameter fold is empty and
        // used to return -inf, which reads as "converged".
        let empty: &[Vec<f64>] = &[];
        assert!(det.rhat_at(&[empty], 100).is_nan());
        // Zero-dimensional draws are equally meaningless.
        let zero_dim: Vec<Vec<f64>> = vec![vec![]; 200];
        assert!(det.rhat_at(&[&zero_dim], 100).is_nan());
    }

    #[test]
    fn checkpoint_schedule_is_fixed_then_geometric() {
        let det = ConvergenceDetector::new()
            .with_check_every(50)
            .with_min_iters(50);
        let pts: Vec<usize> = det.checkpoints(1000).collect();
        // While t <= 8 * cadence the stride is exactly the cadence …
        assert!(pts.starts_with(&[50, 100, 150, 200, 250, 300, 350, 400, 450]));
        // … then it grows as t/8, so the tail thins out.
        let after: Vec<usize> = pts.iter().copied().filter(|&t| t > 450).collect();
        assert_eq!(after, vec![506, 569, 640, 720, 810, 911]);
        // The schedule never exceeds the run length.
        assert!(pts.iter().all(|&t| t <= 1000));
    }

    #[test]
    fn checkpoint_schedule_starts_at_min_iters_and_matches_detect() {
        let run = merging_run(100, 500);
        let det = ConvergenceDetector::new().with_check_every(100);
        let report = det.detect(&run);
        let from_schedule: Vec<usize> = det.checkpoints(500).collect();
        let from_detect: Vec<usize> = report.rhat_trace.iter().map(|&(t, _)| t).collect();
        assert_eq!(from_schedule, from_detect);
        assert_eq!(from_schedule.first(), Some(&200), "starts at min_iters");
    }

    #[test]
    fn detect_recorded_emits_one_checkpoint_per_schedule_entry() {
        use bayes_obs::MemoryRecorder;
        use std::sync::Arc;

        let run = merging_run(300, 2000);
        let det = ConvergenceDetector::new();
        let mem = Arc::new(MemoryRecorder::new());
        let report = det.detect_recorded(&run, &RecorderHandle::new(mem.clone()));
        let events = mem.events();
        let schedule: Vec<usize> = det.checkpoints(2000).collect();
        assert_eq!(events.len(), schedule.len());
        let mut declared = Vec::new();
        for (ev, &t) in events.iter().zip(&schedule) {
            match ev {
                Event::Checkpoint {
                    source,
                    iter,
                    converged,
                    ..
                } => {
                    assert_eq!(*source, CheckpointSource::PostHoc);
                    assert_eq!(*iter, t as u64);
                    if *converged {
                        declared.push(*iter as usize);
                    }
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        // Convergence is declared exactly once, at converged_at.
        assert_eq!(declared, vec![report.converged_at.unwrap()]);
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn rejects_bad_threshold() {
        let _ = ConvergenceDetector::new().with_threshold(0.9);
    }

    #[test]
    #[should_panic(expected = "be finite")]
    fn rejects_an_infinite_threshold() {
        let _ = ConvergenceDetector::new().with_threshold(f64::INFINITY);
    }
}
