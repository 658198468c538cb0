//! Scoring a sampler run against a golden reference posterior.
//!
//! A [`RunScore`] condenses one benchmark cell into the four axes the
//! paper's characterization cares about: statistical efficiency
//! (ESS/sec), wall time, convergence (R̂), and posterior accuracy.
//! Accuracy is a *normalized* error: per dimension, the distance of
//! the run mean from the reference mean is divided by a tolerance
//! calibrated from both sides' Monte-Carlo standard errors
//! (`z·√(mcse_run² + mcse_ref²)`, the same statistics behind the
//! testkit's `assert_close_mcse`). A value ≤ 1 means the run is
//! statistically indistinguishable from the blessed reference at the
//! chosen `z`, independent of machine, thread count, or RNG stream.

use crate::reference::ReferencePosterior;
use bayes_mcmc::chain::MultiChainRun;
use bayes_mcmc::summary::{summarize, ParamSummary};

/// `z` multiplier of the combined MCSE in the normalized error. Five
/// combined standard errors keeps false alarms negligible across the
/// full matrix while still catching a wrong posterior.
pub const NORM_ERR_Z: f64 = 5.0;

/// R̂ threshold a passing MCMC run must stay under (the paper's
/// mechanism uses 1.1 for convergence detection; 1.2 here tolerates
/// the short smoke-cell runs).
pub const RHAT_PASS: f64 = 1.2;

/// Condensed quality/efficiency score of one benchmark cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunScore {
    /// Wall-clock seconds of the sampling run.
    pub wall_time_s: f64,
    /// Minimum effective sample size across dimensions.
    pub min_ess: f64,
    /// `min_ess / wall_time_s` — the paper's headline efficiency axis.
    pub ess_per_sec: f64,
    /// Maximum rank-normalized split-R̂ across dimensions.
    pub max_rhat: f64,
    /// Total gradient (or density) evaluations charged to the run.
    pub grad_evals: u64,
    /// Divergent transitions encountered.
    pub divergences: u64,
    /// Maximum normalized posterior error across dimensions; ≤ 1
    /// passes (see module docs for the calibration).
    pub norm_err: f64,
    /// Dimensions compared against the reference.
    pub checked_params: usize,
    /// Whether the cell passes: finite `norm_err ≤ 1` and
    /// `max_rhat < RHAT_PASS`.
    pub pass: bool,
}

/// Scores an MCMC run against `reference`.
///
/// Panics if the run's dimensionality differs from the reference's —
/// that is a registry wiring bug, not a statistical failure.
pub fn score_run(
    run: &MultiChainRun,
    reference: &ReferencePosterior,
    wall_time_s: f64,
) -> RunScore {
    let summaries = summarize(run);
    score_summaries(
        &summaries,
        reference,
        wall_time_s,
        run.total_grad_evals(),
        run.chains.iter().map(|c| c.divergences).sum(),
    )
}

/// Scores pre-computed per-parameter summaries against `reference`
/// (the summarization is the expensive part; callers that already have
/// it should not pay it twice).
pub fn score_summaries(
    summaries: &[ParamSummary],
    reference: &ReferencePosterior,
    wall_time_s: f64,
    grad_evals: u64,
    divergences: u64,
) -> RunScore {
    assert_eq!(
        summaries.len(),
        reference.params.len(),
        "run dimensionality does not match reference {}@{}",
        reference.workload,
        reference.scale
    );
    let mut norm_err = 0.0f64;
    let mut min_ess = f64::INFINITY;
    let mut max_rhat = f64::NEG_INFINITY;
    for (s, r) in summaries.iter().zip(&reference.params) {
        let combined = (s.mcse * s.mcse + r.mcse * r.mcse).sqrt();
        let err = (s.mean - r.mean).abs() / (NORM_ERR_Z * combined);
        norm_err = norm_err.max(err);
        min_ess = min_ess.min(s.ess);
        max_rhat = max_rhat.max(s.rhat_rank);
    }
    let pass = norm_err.is_finite() && norm_err <= 1.0 && max_rhat < RHAT_PASS;
    RunScore {
        wall_time_s,
        min_ess,
        ess_per_sec: min_ess / wall_time_s.max(1e-12),
        max_rhat,
        grad_evals,
        divergences,
        norm_err,
        checked_params: summaries.len(),
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefParam;
    use bayes_mcmc::chain::ChainOutput;
    use proptest::prelude::*;

    /// Deterministic pseudo-draws (logistic map scaled) — enough
    /// variety for summary statistics without an RNG dependency.
    fn synthetic_chain(n: usize, seed: f64, shift: f64) -> Vec<Vec<f64>> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = 3.99 * x * (1.0 - x);
                vec![(x - 0.5) * 2.0 + shift]
            })
            .collect()
    }

    fn run_with(chains: Vec<Vec<Vec<f64>>>) -> MultiChainRun {
        MultiChainRun {
            chains: chains
                .into_iter()
                .map(|draws| ChainOutput {
                    draws,
                    warmup: 0,
                    accept_mean: 0.9,
                    grad_evals: 100,
                    divergences: 1,
                    evals_per_iter: Vec::new(),
                })
                .collect(),
            dim: 1,
        }
    }

    fn reference_for(run: &MultiChainRun) -> ReferencePosterior {
        ReferencePosterior::from_run("synthetic", 1.0, 1, 100, run)
    }

    #[test]
    fn matching_reference_scores_zero_error_and_passes() {
        let run = run_with(vec![
            synthetic_chain(400, 0.3, 0.0),
            synthetic_chain(400, 0.7, 0.0),
        ]);
        let reference = reference_for(&run);
        let s = score_run(&run, &reference, 2.0);
        assert_eq!(s.norm_err, 0.0, "same draws, same mean");
        assert_eq!(s.checked_params, 1);
        assert_eq!(s.grad_evals, 200);
        assert_eq!(s.divergences, 2);
        assert!(s.pass, "rhat {} err {}", s.max_rhat, s.norm_err);
        assert!((s.ess_per_sec - s.min_ess / 2.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_reference_fails_tolerance() {
        let run = run_with(vec![
            synthetic_chain(400, 0.3, 0.0),
            synthetic_chain(400, 0.7, 0.0),
        ]);
        let mut reference = reference_for(&run);
        // Shift the reference mean far beyond any MCSE tolerance.
        reference.params[0].mean += 10.0;
        let s = score_run(&run, &reference, 2.0);
        assert!(s.norm_err > 1.0, "norm_err {}", s.norm_err);
        assert!(!s.pass);
    }

    #[test]
    fn separated_chains_fail_rhat_even_with_matching_mean() {
        let run = run_with(vec![
            synthetic_chain(400, 0.3, -10.0),
            synthetic_chain(400, 0.7, 10.0),
        ]);
        let reference = reference_for(&run);
        let s = score_run(&run, &reference, 1.0);
        assert!(s.max_rhat > RHAT_PASS, "rhat {}", s.max_rhat);
        assert!(!s.pass);
    }

    #[test]
    fn known_tolerance_arithmetic() {
        // One-parameter hand check: err = |Δmean| / (z·√(2)·mcse).
        let summary = ParamSummary {
            index: 0,
            mean: 1.0,
            sd: 1.0,
            mcse: 0.1,
            q05: 0.0,
            q50: 1.0,
            q95: 2.0,
            ess: 100.0,
            rhat_rank: 1.0,
        };
        let reference = ReferencePosterior {
            workload: "hand".into(),
            scale: 1.0,
            seed: 1,
            chains: 4,
            iters: 100,
            params: vec![RefParam {
                mean: 1.5,
                sd: 1.0,
                mcse: 0.1,
                q05: 0.0,
                q50: 1.5,
                q95: 2.0,
                ess: 100.0,
            }],
        };
        let s = score_summaries(&[summary], &reference, 1.0, 7, 0);
        let expected = 0.5 / (NORM_ERR_Z * (0.02f64).sqrt());
        assert!((s.norm_err - expected).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn score_is_invariant_to_chain_order(
            rot in 0usize..4,
            seed_a in 0.05..0.95f64,
            shift in -0.3..0.3f64,
        ) {
            // Four chains from the same process; rotating the chain
            // list must not change the score beyond float
            // reassociation noise.
            let chains: Vec<Vec<Vec<f64>>> = (0..4)
                .map(|c| synthetic_chain(300, seed_a * 0.9 + 0.01 * c as f64, shift))
                .collect();
            let mut rotated = chains.clone();
            rotated.rotate_left(rot);
            let base = run_with(chains);
            let perm = run_with(rotated);
            let reference = reference_for(&base);
            let a = score_run(&base, &reference, 1.5);
            let b = score_run(&perm, &reference, 1.5);
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()));
            prop_assert!(close(a.norm_err, b.norm_err), "norm_err {} vs {}", a.norm_err, b.norm_err);
            prop_assert!(close(a.min_ess, b.min_ess), "min_ess {} vs {}", a.min_ess, b.min_ess);
            prop_assert!(close(a.max_rhat, b.max_rhat), "max_rhat {} vs {}", a.max_rhat, b.max_rhat);
            prop_assert_eq!(a.grad_evals, b.grad_evals);
            prop_assert_eq!(a.pass, b.pass);
        }
    }
}
