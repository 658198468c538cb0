//! Computation elision via runtime convergence detection
//! (Section VI-A, Figure 5).
//!
//! The study runs a workload to its user-configured iteration count,
//! replays the runtime detector over the trace to find where it would
//! have stopped, and quantifies both savings (iterations and actual
//! work, which differ because the slowest chain bounds latency and
//! NUTS trees shrink after convergence) and quality (KL divergence to
//! a 2×-iterations ground truth, the paper's metric).

use bayes_mcmc::diag::kl_to_ground_truth;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::{chain, ConvergenceDetector, Model, MultiChainRun, RunConfig};
use bayes_obs::{Event, ProfilerHandle, RecorderHandle};

/// Configuration of one elision study.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Chains to run.
    pub chains: usize,
    /// User-configured total iterations.
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
    /// Detector cadence (iterations between R̂ checks).
    pub check_every: usize,
}

impl StudyConfig {
    /// Study at the workload's own defaults. The detector cadence is
    /// 5% of the configured run (floor 50), keeping the runtime
    /// overhead of R̂ checks constant relative to run length.
    pub fn new(chains: usize, iters: usize) -> Self {
        Self {
            chains,
            iters,
            seed: 42,
            check_every: (iters / 20).max(50),
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the detector cadence.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn with_check_every(mut self, every: usize) -> Self {
        assert!(every > 0, "check cadence must be positive");
        self.check_every = every;
        self
    }
}

/// Result of one elision study.
#[derive(Debug, Clone)]
pub struct ElisionStudy {
    /// Workload name.
    pub workload: String,
    /// Chains used.
    pub chains: usize,
    /// User-configured iterations.
    pub total_iters: usize,
    /// Where the runtime detector stops, if it converges.
    pub converged_at: Option<usize>,
    /// `(iteration, max R̂)` checkpoints — Figure 5's blue line.
    pub rhat_trace: Vec<(usize, f64)>,
    /// `(iteration, KL vs ground truth)` checkpoints — the green line.
    pub kl_trace: Vec<(usize, f64)>,
    /// KL at the stop point (quality after elision).
    pub kl_at_stop: f64,
    /// KL of the full user-configured run.
    pub kl_full: f64,
    /// Fraction of iterations elided (paper: >70% on average).
    pub iter_saving: f64,
    /// Fraction of gradient work elided on the slowest chain — the
    /// latency saving, always below the iteration saving (paper:
    /// 12cities saves 70% of iterations but 53% of latency).
    pub work_saving: f64,
    /// The full run, for downstream consumers (DSE reuses it).
    pub run: MultiChainRun,
}

/// Moment-matched `(mean, sd)` summary of pooled draws `[lo, hi)` of
/// each chain.
pub(crate) fn window_summary(run: &MultiChainRun, lo: usize, hi: usize) -> Vec<(f64, f64)> {
    let dim = run.dim;
    (0..dim)
        .map(|j| {
            let xs: Vec<f64> = run
                .chains
                .iter()
                .flat_map(|c| {
                    let hi = hi.min(c.draws.len());
                    c.draws[lo.min(hi)..hi].iter().map(move |d| d[j])
                })
                .collect();
            let n = xs.len().max(1) as f64;
            let m = xs.iter().sum::<f64>() / n;
            let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1.0).max(1.0);
            (m, v.sqrt().max(1e-9))
        })
        .collect()
}

impl ElisionStudy {
    /// Runs the study: the user-configured run, a 2× ground-truth run,
    /// the detector replay, and the quality traces.
    pub fn run(model: &dyn Model, cfg: &StudyConfig) -> Self {
        Self::run_recorded(model, cfg, &RecorderHandle::null())
    }

    /// [`ElisionStudy::run`] with observability: the main run carries
    /// `recorder` (per-iteration and shard events), the detector replay
    /// emits post-hoc checkpoint events into it, and the study's own
    /// outcome is recorded as one [`Event::Elision`]. The ground-truth
    /// run is deliberately untraced — its draws are reference material,
    /// not the workload under study.
    pub fn run_recorded(model: &dyn Model, cfg: &StudyConfig, recorder: &RecorderHandle) -> Self {
        Self::run_profiled(model, cfg, recorder, &ProfilerHandle::null())
    }

    /// [`ElisionStudy::run_recorded`] with a phase profiler attached:
    /// the main run samples under `profiler` (per-chain span scopes,
    /// one `metrics` event at run end), and the post-hoc detector
    /// replay records its R̂ work as `checkpoint_diag` spans, emitted
    /// as a follow-up `metrics` event (snapshots merge downstream).
    /// The ground-truth run stays unprofiled, like it stays untraced.
    pub fn run_profiled(
        model: &dyn Model,
        cfg: &StudyConfig,
        recorder: &RecorderHandle,
        profiler: &ProfilerHandle,
    ) -> Self {
        let run_cfg = RunConfig::new(cfg.iters)
            .with_chains(cfg.chains)
            .with_seed(cfg.seed)
            .with_recorder(recorder.clone())
            .with_profiler(profiler.clone());
        let run = chain::run(&Nuts::default(), model, &run_cfg);

        // Ground truth: 2× the configured iterations (Section VI-A).
        let truth_cfg = RunConfig::new(cfg.iters * 2)
            .with_chains(cfg.chains.max(2))
            .with_seed(cfg.seed + 1);
        let truth_run = chain::run(&Nuts::default(), model, &truth_cfg);
        let truth = window_summary(&truth_run, cfg.iters, cfg.iters * 2);

        let detector = ConvergenceDetector::new().with_check_every(cfg.check_every);
        let report = {
            let scope = profiler.install(None);
            let report = detector.detect_recorded(&run, recorder);
            // Merge this thread's replay spans before draining them.
            drop(scope);
            report
        };
        profiler.emit_metrics(model.name());

        let kl_trace: Vec<(usize, f64)> = report
            .rhat_trace
            .iter()
            .map(|&(t, _)| {
                let summary = window_summary(&run, t / 2, t);
                (t, kl_to_ground_truth(&summary, &truth))
            })
            .collect();

        let kl_full = kl_to_ground_truth(&window_summary(&run, cfg.iters / 2, cfg.iters), &truth);
        let kl_at_stop = report
            .converged_at
            .and_then(|c| kl_trace.iter().find(|&&(t, _)| t == c).map(|&(_, kl)| kl))
            .unwrap_or(kl_full);

        let iter_saving = report.excess_fraction();
        let work_saving = match report.converged_at {
            Some(c) => {
                let until: u64 = run
                    .chains
                    .iter()
                    .map(|ch| ch.evals_until(c))
                    .max()
                    .unwrap_or(0);
                let total: u64 = run.chains.iter().map(|ch| ch.grad_evals).max().unwrap_or(1);
                1.0 - until as f64 / total as f64
            }
            None => 0.0,
        };

        if recorder.enabled() {
            recorder.record(Event::Elision {
                workload: model.name().to_string(),
                total_iters: cfg.iters as u64,
                converged_at: report.converged_at.map(|c| c as u64),
                iter_saving,
                work_saving,
            });
        }

        Self {
            workload: model.name().to_string(),
            chains: cfg.chains,
            total_iters: cfg.iters,
            converged_at: report.converged_at,
            rhat_trace: report.rhat_trace,
            kl_trace,
            kl_at_stop,
            kl_full,
            iter_saving,
            work_saving,
            run,
        }
    }

    /// Whether elision kept quality: KL at the stop point either
    /// absolutely small (below `0.05` nats, the "minimal KL" regime of
    /// Figure 5) or within `slack` of the full run's own KL (shorter
    /// windows are intrinsically noisier).
    pub fn quality_preserved(&self, slack: f64) -> bool {
        self.kl_at_stop <= (self.kl_full * slack).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_autodiff::Real;
    use bayes_mcmc::{AdModel, LogDensity};

    struct Gauss2;

    impl LogDensity for Gauss2 {
        fn dim(&self) -> usize {
            2
        }
        fn eval<R: Real>(&self, t: &[R]) -> R {
            -(t[0].square() + (t[1] - 3.0).square() / 4.0) * 0.5
        }
    }

    #[test]
    fn easy_target_converges_early_with_good_quality() {
        let model = AdModel::new("gauss2", Gauss2);
        let study = ElisionStudy::run(&model, &StudyConfig::new(4, 1000));
        let at = study.converged_at.expect("gaussian should converge");
        assert!(at <= 400, "converged at {at}");
        assert!(study.iter_saving > 0.5, "saving {}", study.iter_saving);
        assert!(study.work_saving > 0.0);
        // Latency saving below iteration saving (slowest chain effect).
        assert!(
            study.work_saving <= study.iter_saving + 0.05,
            "work {} vs iter {}",
            study.work_saving,
            study.iter_saving
        );
        assert!(study.quality_preserved(25.0), "kl {}", study.kl_at_stop);
    }

    #[test]
    fn kl_trace_decreases_broadly() {
        let model = AdModel::new("gauss2", Gauss2);
        let study = ElisionStudy::run(&model, &StudyConfig::new(4, 1200));
        let first = study.kl_trace.first().expect("has checkpoints").1;
        let last = study.kl_trace.last().expect("has checkpoints").1;
        assert!(
            last < first,
            "KL should fall with more iterations: {first} → {last}"
        );
    }

    #[test]
    fn traces_share_checkpoints() {
        let model = AdModel::new("gauss2", Gauss2);
        let study = ElisionStudy::run(&model, &StudyConfig::new(2, 600));
        assert_eq!(study.rhat_trace.len(), study.kl_trace.len());
        for (&(ta, _), &(tb, _)) in study.rhat_trace.iter().zip(&study.kl_trace) {
            assert_eq!(ta, tb);
        }
    }
}
