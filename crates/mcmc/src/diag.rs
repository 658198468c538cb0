//! Convergence diagnostics: Gelman–Rubin R̂, effective sample size,
//! and KL divergence against a ground-truth run.
//!
//! These are the quantities of Section VI of the paper: R̂ < 1.1 is the
//! convergence criterion (Brooks et al.), and the KL divergence between
//! the intermediate posterior and a 2×-iterations ground truth is the
//! quality metric. The paper's KL follows Hershey & Olsen's Gaussian
//! approximation; we moment-match each marginal with a Gaussian and
//! average the per-dimension KL, which preserves the monotone-decrease
//! behaviour of Figure 5.

/// Classic (non-split) Gelman–Rubin potential scale reduction factor
/// over per-chain traces of one scalar parameter.
///
/// Returns `NaN` if fewer than 2 chains or fewer than 4 samples per
/// chain are supplied, and propagates `NaN` when a trace contains
/// non-finite values. Constant traces (zero within-chain variance)
/// report exactly 1.0.
pub fn rhat(traces: &[impl AsRef<[f64]>]) -> f64 {
    let m = traces.len();
    if m < 2 {
        return f64::NAN;
    }
    let n = traces.iter().map(|t| t.as_ref().len()).min().unwrap_or(0);
    if n < 4 {
        return f64::NAN;
    }
    let traces: Vec<&[f64]> = traces.iter().map(|t| &t.as_ref()[..n]).collect();
    let chain_means: Vec<f64> = traces
        .iter()
        .map(|t| t.iter().sum::<f64>() / n as f64)
        .collect();
    let grand = chain_means.iter().sum::<f64>() / m as f64;
    let b = n as f64 / (m as f64 - 1.0)
        * chain_means
            .iter()
            .map(|&x| (x - grand) * (x - grand))
            .sum::<f64>();
    let w = traces
        .iter()
        .zip(&chain_means)
        .map(|(t, &mu)| t.iter().map(|&x| (x - mu) * (x - mu)).sum::<f64>() / (n as f64 - 1.0))
        .sum::<f64>()
        / m as f64;
    if w <= 0.0 {
        return 1.0;
    }
    let var_plus = (n as f64 - 1.0) / n as f64 * w + b / n as f64;
    (var_plus / w).sqrt()
}

/// Split-R̂: each chain is halved before the classic computation,
/// catching within-chain trends (Stan's default diagnostic).
pub fn split_rhat(traces: &[impl AsRef<[f64]>]) -> f64 {
    let mut halves: Vec<&[f64]> = Vec::with_capacity(traces.len() * 2);
    for t in traces {
        let t = t.as_ref();
        if t.len() < 4 {
            return f64::NAN;
        }
        let (first, second) = t.split_at(t.len() / 2);
        halves.extend([first, second]);
    }
    rhat(&halves)
}

/// Effective sample size of pooled chains via Geyer's initial positive
/// sequence on the averaged autocorrelation, paired from lag 0 as in
/// Stan: `Γ̂_k = ρ_{2k} + ρ_{2k+1}` with `Γ̂_0 = ρ_0 + ρ_1` always
/// included, summed while positive and clamped monotone, and
/// `τ = −1 + 2·ΣΓ̂_k`.
///
/// Degenerate inputs are reported explicitly rather than optimistically:
///
/// * fewer than 4 samples (or no chains) → `NaN`;
/// * any non-finite value in the analyzed window → `NaN` (a diverged
///   trace must not yield a tight error bar);
/// * constant traces → the full draw count `m·n` (no noise to average
///   out);
/// * a single chain is fine — the between-chain term is simply zero.
pub fn ess(traces: &[impl AsRef<[f64]>]) -> f64 {
    let m = traces.len();
    let n = traces.iter().map(|t| t.as_ref().len()).min().unwrap_or(0);
    if m == 0 || n < 4 {
        return f64::NAN;
    }
    let traces: Vec<&[f64]> = traces.iter().map(|t| &t.as_ref()[..n]).collect();
    if traces.iter().any(|t| t.iter().any(|x| !x.is_finite())) {
        return f64::NAN;
    }
    // Per-chain autocovariances, averaged.
    let chain_means: Vec<f64> = traces
        .iter()
        .map(|t| t.iter().sum::<f64>() / n as f64)
        .collect();
    // Each chain's deviations from its mean, chain after chain.
    let dev: Vec<f64> = traces
        .iter()
        .zip(&chain_means)
        .flat_map(|(t, &mu)| t.iter().map(move |&x| x - mu))
        .collect();
    let chain_vars: Vec<f64> = dev
        .chunks_exact(n)
        .map(|d| d.iter().map(|&d| d * d).sum::<f64>() / n as f64)
        .collect();
    let w = chain_vars.iter().sum::<f64>() / m as f64;
    if w <= 0.0 {
        return (m * n) as f64;
    }
    // Between-chain term folds into var+ as in rhat.
    let grand = chain_means.iter().sum::<f64>() / m as f64;
    let b_over_n = if m > 1 {
        chain_means
            .iter()
            .map(|&x| (x - grand) * (x - grand))
            .sum::<f64>()
            / (m as f64 - 1.0)
    } else {
        0.0
    };
    let var_plus = w * (n as f64 - 1.0) / n as f64 + b_over_n;

    // ρ at `lag` and at `lag + 1` (`lag + 1 < n`), both lags' products
    // accumulated in one pass over each chain. Each sum runs in index
    // order from -0.0, as `Iterator::sum` does.
    let rho_pair = |lag: usize| -> (f64, f64) {
        let (mut total0, mut total1) = (-0.0, -0.0);
        for d in dev.chunks_exact(n) {
            let (mut acov0, mut acov1) = (-0.0, -0.0);
            let last = n - lag - 1;
            for i in 0..last {
                acov0 += d[i] * d[i + lag];
                acov1 += d[i] * d[i + lag + 1];
            }
            acov0 += d[last] * d[n - 1];
            total0 += acov0 / n as f64;
            total1 += acov1 / n as f64;
        }
        let rho = |total: f64| 1.0 - (w - total / m as f64) / var_plus;
        (rho(total0), rho(total1))
    };

    // Geyer pairs from lag 0 — (ρ_0+ρ_1), (ρ_2+ρ_3), … — exactly as
    // Stan does. Pairing from lag 1 (the previous behaviour) misaligns
    // every pair and biases τ low for correlated chains. ρ_0 is 1 by
    // definition, not by estimate.
    let mut pair_sum = 1.0 + rho_pair(0).1; // Γ̂_0 is always included
    let mut prev_pair = pair_sum;
    let mut lag = 2;
    while lag + 1 < n {
        let (rho0, rho1) = rho_pair(lag);
        let pair = rho0 + rho1;
        if pair < 0.0 {
            break;
        }
        // Initial monotone sequence: clamp to the previous pair.
        let pair = pair.min(prev_pair);
        prev_pair = pair;
        pair_sum += pair;
        lag += 2;
    }
    let tau = -1.0 + 2.0 * pair_sum;
    if tau <= 0.0 {
        // Strongly antithetic chains can drive Γ̂_0 (and hence τ)
        // negative; report the nominal draw count instead of a
        // nonsensical superefficient estimate.
        return (m * n) as f64;
    }
    ((m * n) as f64 / tau).min((m * n) as f64)
}

/// Monte-Carlo standard error of a posterior-mean estimate:
/// `sd / √ESS`.
///
/// This is the natural tolerance unit for posterior-recovery tests: an
/// estimate should sit within a few MCSEs of the truth, however many
/// iterations the run happened to use. Returns `NaN` when `ess` is not
/// positive or either input is non-finite, so degenerate diagnostics
/// can never produce a deceptively tight error bar.
pub fn mcse(sd: f64, ess: f64) -> f64 {
    if !sd.is_finite() || !ess.is_finite() || ess <= 0.0 || sd < 0.0 {
        return f64::NAN;
    }
    sd / ess.sqrt()
}

/// KL divergence between two univariate Gaussians
/// `KL(N(mu_p, sd_p²) ‖ N(mu_q, sd_q²))`.
pub fn gaussian_kl(mu_p: f64, sd_p: f64, mu_q: f64, sd_q: f64) -> f64 {
    let vr = (sd_p / sd_q).powi(2);
    (sd_q / sd_p).ln() + (vr + ((mu_p - mu_q) / sd_q).powi(2) - 1.0) / 2.0
}

/// Average per-dimension moment-matched Gaussian KL between a result
/// summary and a ground-truth summary (both `(mean, sd)` per
/// parameter) — the quality metric of Figure 5.
///
/// # Panics
///
/// Panics if the summaries have different lengths.
pub fn kl_to_ground_truth(result: &[(f64, f64)], truth: &[(f64, f64)]) -> f64 {
    assert_eq!(result.len(), truth.len(), "summary length mismatch");
    if result.is_empty() {
        return 0.0;
    }
    let eps = 1e-12;
    result
        .iter()
        .zip(truth)
        .map(|(&(mp, sp), &(mq, sq))| gaussian_kl(mp, sp.max(eps), mq, sq.max(eps)))
        .sum::<f64>()
        / result.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn iid_chains(m: usize, n: usize, mu: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        // Sum of 12 uniforms − 6 ≈ standard normal.
                        let s: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum();
                        mu + s - 6.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rhat_near_one_for_identical_distributions() {
        let chains = iid_chains(4, 500, 0.0, 1);
        let r = rhat(&chains);
        assert!((r - 1.0).abs() < 0.05, "rhat {r}");
        let rs = split_rhat(&chains);
        assert!((rs - 1.0).abs() < 0.05, "split rhat {rs}");
    }

    #[test]
    fn rhat_large_for_separated_chains() {
        let mut chains = iid_chains(2, 300, 0.0, 2);
        chains.extend(iid_chains(2, 300, 10.0, 3));
        assert!(rhat(&chains) > 2.0);
        assert!(split_rhat(&chains) > 2.0);
    }

    #[test]
    fn split_rhat_catches_within_chain_trend() {
        // One chain drifts: classic R̂ of a single pair of drifting
        // chains stays moderate, split-R̂ flags it.
        let n = 400;
        let drift: Vec<f64> = (0..n).map(|i| i as f64 / 50.0).collect();
        let chains = vec![drift.clone(), drift];
        let split = split_rhat(&chains);
        assert!(split > 1.5, "split {split}");
    }

    #[test]
    fn rhat_degenerate_inputs() {
        assert!(rhat(&[vec![1.0, 2.0, 3.0, 4.0]]).is_nan()); // one chain
        assert!(rhat(&[vec![1.0], vec![2.0]]).is_nan()); // too short
    }

    #[test]
    fn ess_of_iid_samples_is_near_total() {
        let chains = iid_chains(4, 400, 0.0, 4);
        let e = ess(&chains);
        assert!(e > 1000.0, "ess {e}");
        assert!(e <= 1600.0);
    }

    #[test]
    fn ess_of_correlated_samples_is_small() {
        // AR(1) with phi = 0.95: ESS ≈ N(1-φ)/(1+φ) ≈ 4000/39 ≈ 103.
        // The lag-0-paired Geyer estimator should land near that;
        // generous factor-of-2.5 bands absorb estimator noise.
        let mut rng = StdRng::seed_from_u64(5);
        let chains: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                let mut x = 0.0;
                (0..1000)
                    .map(|_| {
                        let s: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0;
                        x = 0.95 * x + s;
                        x
                    })
                    .collect()
            })
            .collect();
        let e = ess(&chains);
        assert!(e < 400.0, "ess {e}");
        assert!(e > 40.0, "ess {e}");
    }

    #[test]
    fn ess_of_antithetic_chain_caps_at_nominal() {
        // A perfectly alternating chain has Γ̂_0 = ρ_0 + ρ_1 < 0, so
        // τ < 0; the estimator must cap at the nominal draw count
        // rather than extrapolate a superefficient (or negative) ESS.
        let alternating: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert_eq!(ess(&[alternating]), 200.0);
    }

    #[test]
    fn rhat_is_one_for_constant_traces() {
        let chains = vec![vec![2.5; 50], vec![2.5; 50]];
        assert_eq!(rhat(&chains), 1.0);
        assert_eq!(split_rhat(&chains), 1.0);
    }

    #[test]
    fn rhat_propagates_nan_traces() {
        let chains = vec![vec![0.0, f64::NAN, 1.0, 2.0], vec![0.0, 1.0, 2.0, 3.0]];
        assert!(rhat(&chains).is_nan());
        assert!(split_rhat(&chains).is_nan());
    }

    #[test]
    fn split_rhat_degenerate_inputs() {
        // Chains shorter than 4 cannot be split into usable halves.
        assert!(split_rhat(&[vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0]]).is_nan());
        assert!(split_rhat(&[vec![], vec![]]).is_nan());
        // A single chain still splits into two comparable halves.
        let one = vec![iid_chains(1, 400, 0.0, 11).remove(0)];
        let r = split_rhat(&one);
        assert!((r - 1.0).abs() < 0.1, "split rhat of one chain {r}");
    }

    #[test]
    fn ess_degenerate_inputs() {
        // Empty / too short.
        assert!(ess(&[] as &[Vec<f64>]).is_nan());
        assert!(ess(&[vec![1.0, 2.0, 3.0]]).is_nan());
        // Non-finite draws must not report a usable ESS.
        assert!(ess(&[vec![0.0, f64::NAN, 1.0, 2.0, 3.0]]).is_nan());
        assert!(ess(&[vec![0.0, f64::INFINITY, 1.0, 2.0, 3.0]]).is_nan());
        // Constant traces: no noise, full nominal count.
        assert_eq!(ess(&[vec![7.0; 100], vec![7.0; 100]]), 200.0);
    }

    #[test]
    fn ess_accepts_a_single_chain() {
        let one = vec![iid_chains(1, 500, 0.0, 12).remove(0)];
        let e = ess(&one);
        assert!(e > 250.0 && e <= 500.0, "ess {e}");
    }

    #[test]
    fn mcse_basics() {
        // sd 2.0 over 400 effective draws → 0.1.
        assert!((mcse(2.0, 400.0) - 0.1).abs() < 1e-12);
        assert!(mcse(1.0, 0.0).is_nan());
        assert!(mcse(1.0, -5.0).is_nan());
        assert!(mcse(1.0, f64::NAN).is_nan());
        assert!(mcse(f64::NAN, 100.0).is_nan());
        assert!(mcse(-1.0, 100.0).is_nan());
    }

    #[test]
    fn gaussian_kl_properties() {
        assert_eq!(gaussian_kl(0.0, 1.0, 0.0, 1.0), 0.0);
        // Symmetric mean shift: KL = Δ²/2 when variances match.
        assert!((gaussian_kl(1.0, 1.0, 0.0, 1.0) - 0.5).abs() < 1e-12);
        assert!(gaussian_kl(0.0, 2.0, 0.0, 1.0) > 0.0);
        assert!(gaussian_kl(0.0, 0.5, 0.0, 1.0) > 0.0);
    }

    #[test]
    fn kl_to_ground_truth_averages_dimensions() {
        let truth = vec![(0.0, 1.0), (5.0, 2.0)];
        assert_eq!(kl_to_ground_truth(&truth, &truth), 0.0);
        let off = vec![(1.0, 1.0), (5.0, 2.0)];
        assert!((kl_to_ground_truth(&off, &truth) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "summary length mismatch")]
    fn kl_rejects_mismatched_lengths() {
        let _ = kl_to_ground_truth(&[(0.0, 1.0)], &[(0.0, 1.0), (1.0, 1.0)]);
    }
}
