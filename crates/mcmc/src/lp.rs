//! Generic log-density building blocks.
//!
//! Written once against [`Real`], these are the Stan `*_lpdf` /
//! `*_lpmf` functions the BayesSuite models are built from: the normal
//! family, the log-normal likelihood, and the Bernoulli, binomial,
//! Poisson and negative-binomial kernels on the logit or log scale. The
//! normal family comes in three flavors:
//!
//! * `normal_lpdf(x, …)` — everything generic (hierarchical levels);
//! * `normal_lpdf_data(x: f64, …)` — observed data against parameterized
//!   distribution (likelihood terms, the hot loop of Algorithm 1 line 5);
//! * `normal_prior(x: R, …: f64)` — parameter against fixed hyperparameters.
//!
//! All functions drop additive constants only when Stan does not (we
//! keep full normalizers so cross-model KL comparisons stay meaningful).

use bayes_autodiff::Real;
use bayes_prob::special::{self, ln_choose, ln_factorial};

/// `ln √2π`, the normal-family normalizing constant (public so
/// sufficient-statistics evaluators can fold it into their reductions).
pub const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// `ln N(x | mu, sigma²)`, fully generic.
pub fn normal_lpdf<R: Real>(x: R, mu: R, sigma: R) -> R {
    let z = (x - mu) / sigma;
    -(z * z) * 0.5 - sigma.ln() - LN_SQRT_2PI
}

/// `ln N(x | mu, sigma²)` for observed `x`.
pub fn normal_lpdf_data<R: Real>(x: f64, mu: R, sigma: R) -> R {
    NormalData::new(sigma).lpdf(x, mu)
}

/// [`normal_lpdf_data`] for a shard of observations that share one
/// scale `sigma`: `ln σ` is computed once, in [`NormalData::new`],
/// instead of once per observation. [`NormalData::lpdf`] records what
/// the per-observation kernel records, node for node (see
/// [`NegBinomial2Log`]).
#[derive(Debug, Clone, Copy)]
pub struct NormalData<R> {
    sigma: R,
    /// `ln σ` and its derivative `1/σ`.
    ln_sigma: (f64, f64),
}

impl<R: Real> NormalData<R> {
    /// Computes `ln σ`; records nothing.
    pub fn new(sigma: R) -> Self {
        let s = sigma.val();
        Self {
            sigma,
            ln_sigma: (s.ln(), 1.0 / s),
        }
    }

    /// `ln N(x | mu, σ²)` for observed `x`.
    pub fn lpdf(&self, x: f64, mu: R) -> R {
        let z = (mu - x) / self.sigma;
        -(z * z) * 0.5 - self.sigma.precomputed(self.ln_sigma.0, self.ln_sigma.1) - LN_SQRT_2PI
    }
}

/// `ln N(x | mu, sigma²)` against fixed hyperparameters.
pub fn normal_prior<R: Real>(x: R, mu: f64, sigma: f64) -> R {
    let z = (x - mu) / sigma;
    -(z * z) * 0.5 - (sigma.ln() + LN_SQRT_2PI)
}

/// Log-normal log-density for observed `x > 0`.
pub fn lognormal_lpdf_data<R: Real>(x: f64, mu: R, sigma: R) -> R {
    let lx = x.ln();
    let z = (mu - lx) / sigma;
    -(z * z) * 0.5 - sigma.ln() - (LN_SQRT_2PI + lx)
}

/// Bernoulli with logit parameter: `ln p(y | logit)` for observed `y`.
///
/// Matches Stan's `bernoulli_logit_lpmf`, the logistic-regression hot
/// kernel (`ad`, `tickets`, `disease`, `racial`).
pub fn bernoulli_logit_lpmf<R: Real>(y: bool, logit: R) -> R {
    if y {
        -((-logit).log1p_exp())
    } else {
        -(logit.log1p_exp())
    }
}

/// Binomial with logit parameter for observed successes `k` of `n`.
pub fn binomial_logit_lpmf<R: Real>(k: u64, n: u64, logit: R) -> R {
    debug_assert!(k <= n, "k must not exceed n");
    logit * k as f64 - logit.log1p_exp() * n as f64 + ln_choose(n, k)
}

/// Poisson with log-rate parameter for observed count `k`
/// (Stan's `poisson_log_lpmf`, the `12cities` kernel).
pub fn poisson_log_lpmf<R: Real>(k: u64, log_lambda: R) -> R {
    log_lambda * k as f64 - log_lambda.exp() - ln_factorial(k)
}

/// Negative binomial in log-mean/dispersion form for observed `k`
/// (Stan's `neg_binomial_2_log_lpmf`, the `tickets` kernel).
pub fn neg_binomial_2_log_lpmf<R: Real>(k: u64, log_mu: R, phi: R) -> R {
    NegBinomial2Log::new(phi).lpmf(k, log_mu)
}

/// [`neg_binomial_2_log_lpmf`] for a shard of observations that share
/// one dispersion `phi`: `ln φ`, `ln Γ(φ)` and `ψ(φ)` are computed once,
/// in [`NegBinomial2Log::new`], instead of once per observation.
///
/// [`NegBinomial2Log::lpmf`] records per observation exactly what the
/// per-observation kernel records: the same nodes with the same weights
/// in the same order, and the same transcendental count, through
/// [`Real::precomputed`]. Values, gradients and [`TapeStats`] are equal
/// to the bit.
///
/// [`TapeStats`]: bayes_autodiff::TapeStats
#[derive(Debug, Clone, Copy)]
pub struct NegBinomial2Log<R> {
    phi: R,
    /// `ln φ` and its derivative `1/φ`.
    ln_phi: (f64, f64),
    /// `ln Γ(φ)` and its derivative `ψ(φ)`.
    ln_gamma_phi: (f64, f64),
}

impl<R: Real> NegBinomial2Log<R> {
    /// Computes the dispersion's transcendentals; records nothing.
    pub fn new(phi: R) -> Self {
        let p = phi.val();
        Self {
            phi,
            ln_phi: (p.ln(), 1.0 / p),
            ln_gamma_phi: (special::ln_gamma(p), special::digamma(p)),
        }
    }

    /// `ln NB(k | e^log_mu, φ)` for observed count `k`.
    pub fn lpmf(&self, k: u64, log_mu: R) -> R {
        let kf = k as f64;
        let phi = self.phi;
        let log_phi = phi.precomputed(self.ln_phi.0, self.ln_phi.1);
        let log_sum = log_sum_exp2(log_mu, log_phi);
        (phi + kf).ln_gamma()
            - phi.precomputed(self.ln_gamma_phi.0, self.ln_gamma_phi.1)
            - ln_factorial(k)
            + phi * (log_phi - log_sum)
            + (log_mu - log_sum) * kf
    }
}

/// Numerically stable `ln(eᵃ + eᵇ)` for generic scalars.
pub fn log_sum_exp2<R: Real>(a: R, b: R) -> R {
    // The branch is chosen on detached values so the softplus argument
    // is never large; gradient flows through both operands either way.
    if a.val() >= b.val() {
        a + (b - a).log1p_exp()
    } else {
        b + (a - b).log1p_exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_prob::dist::{
        Bernoulli, Binomial, ContinuousDist, DiscreteDist, LogNormal, NegBinomial, Normal, Poisson,
    };
    use bayes_prob::special::sigmoid;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
    }

    #[test]
    fn normal_variants_match_dist() {
        let d = Normal::new(1.2, 0.8).unwrap();
        close(normal_lpdf(0.5, 1.2, 0.8), d.ln_pdf(0.5));
        close(normal_lpdf_data(0.5, 1.2, 0.8), d.ln_pdf(0.5));
        close(normal_prior(0.5, 1.2, 0.8), d.ln_pdf(0.5));
    }

    #[test]
    fn lognormal_matches_dist() {
        let d = LogNormal::new(0.3, 0.9).unwrap();
        close(lognormal_lpdf_data(2.1, 0.3, 0.9), d.ln_pdf(2.1));
    }

    #[test]
    fn bernoulli_logit_matches_dist() {
        for &l in &[-3.0, 0.0, 2.0] {
            let d = Bernoulli::new(sigmoid(l)).unwrap();
            close(bernoulli_logit_lpmf(true, l), d.ln_pmf(1));
            close(bernoulli_logit_lpmf(false, l), d.ln_pmf(0));
        }
    }

    #[test]
    fn binomial_logit_matches_dist() {
        let l = 0.4;
        let d = Binomial::new(15, sigmoid(l)).unwrap();
        for k in [0u64, 3, 9, 15] {
            close(binomial_logit_lpmf(k, 15, l), d.ln_pmf(k));
        }
    }

    #[test]
    fn poisson_log_matches_dist() {
        let log_l = 1.1f64;
        let d = Poisson::new(log_l.exp()).unwrap();
        for k in [0u64, 2, 7] {
            close(poisson_log_lpmf(k, log_l), d.ln_pmf(k));
        }
    }

    #[test]
    fn neg_binomial_matches_dist() {
        let (mu, phi) = (4.2f64, 1.9f64);
        let d = NegBinomial::new(mu, phi).unwrap();
        for k in [0u64, 1, 5, 12] {
            close(neg_binomial_2_log_lpmf(k, mu.ln(), phi), d.ln_pmf(k));
        }
    }

    /// A shard of observations recorded once with a hoisted kernel
    /// and once with a verbatim copy of the kernel it replaced.
    trait HoistedShard {
        fn eval<R: Real>(theta: &[R], hoisted: bool) -> R;
    }

    /// The hoisted form must record what the old kernel recorded: the
    /// same value, gradient bits and `TapeStats` on `Var`, and the same
    /// value and gradient on `f64` and `Dual<4>`.
    fn assert_hoist_records_the_same<S: HoistedShard>() {
        use bayes_autodiff::{grad_forward, grad_of};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for theta in [
            [0.3, 1.1, -0.4, 2.0],
            [-1.7, 0.2, 0.9, -2.5],
            [2.4, 3.0, -1.0, 0.0],
        ] {
            let (value, grad, stats) = grad_of(&theta, |v| S::eval(v, true));
            let (r_value, r_grad, r_stats) = grad_of(&theta, |v| S::eval(v, false));
            assert_eq!(value.to_bits(), r_value.to_bits(), "Var value at {theta:?}");
            assert_eq!(bits(&grad), bits(&r_grad), "Var gradient at {theta:?}");
            assert_eq!(stats, r_stats, "tape statistics at {theta:?}");
            let plain = S::eval(&theta, true);
            assert_eq!(plain.to_bits(), S::eval(&theta, false).to_bits());
            let (dual, dual_grad) = grad_forward(&theta, |v| S::eval(v, true));
            let (r_dual, r_dual_grad) = grad_forward(&theta, |v| S::eval(v, false));
            assert_eq!(dual.to_bits(), r_dual.to_bits(), "Dual value at {theta:?}");
            assert_eq!(dual.to_bits(), plain.to_bits(), "Dual value at {theta:?}");
            assert_eq!(
                bits(&dual_grad),
                bits(&r_dual_grad),
                "Dual gradient at {theta:?}"
            );
        }
    }

    /// `neg_binomial_2_log_lpmf` as it stood before its dispersion's
    /// transcendentals were hoisted, verbatim.
    fn neg_binomial_2_log_lpmf_reference<R: Real>(k: u64, log_mu: R, phi: R) -> R {
        let kf = k as f64;
        let log_phi = phi.ln();
        let log_sum = crate::lp::log_sum_exp2(log_mu, log_phi);
        (phi + kf).ln_gamma() - phi.ln_gamma() - ln_factorial(k)
            + phi * (log_phi - log_sum)
            + (log_mu - log_sum) * kf
    }

    /// A `tickets`-shaped shard over `theta = [ln φ, η₀, η₁, …]`: the
    /// observations cycle through the `η`s, with counts on both sides
    /// of the mean so both branches of `log_sum_exp2` are taken.
    struct NegBinomialShard;

    impl HoistedShard for NegBinomialShard {
        fn eval<R: Real>(theta: &[R], hoisted: bool) -> R {
            let phi = theta[0].exp();
            let nb = NegBinomial2Log::new(phi);
            let etas = &theta[1..];
            let mut acc = theta[0] * 0.0;
            for i in 0..23u64 {
                let eta = etas[i as usize % etas.len()] + 0.05 * i as f64;
                let k = (i * 7) % 13;
                acc = acc
                    + if hoisted {
                        nb.lpmf(k, eta)
                    } else {
                        neg_binomial_2_log_lpmf_reference(k, eta, phi)
                    };
            }
            acc
        }
    }

    #[test]
    fn hoisted_neg_binomial_records_what_the_per_observation_kernel_did() {
        assert_hoist_records_the_same::<NegBinomialShard>();
    }

    /// `normal_lpdf_data` as it stood before `ln σ` was hoisted,
    /// verbatim.
    fn normal_lpdf_data_reference<R: Real>(x: f64, mu: R, sigma: R) -> R {
        let z = (mu - x) / sigma;
        -(z * z) * 0.5 - sigma.ln() - LN_SQRT_2PI
    }

    /// A `disease`-shaped shard over `theta = [ln σ, μ₀, μ₁, …]`.
    struct NormalShard;

    impl HoistedShard for NormalShard {
        fn eval<R: Real>(theta: &[R], hoisted: bool) -> R {
            let sigma = theta[0].exp();
            let normal = NormalData::new(sigma);
            let mus = &theta[1..];
            let mut acc = theta[0] * 0.0;
            for i in 0..23 {
                let mu = mus[i % mus.len()] * (1.0 + 0.1 * i as f64);
                let x = 0.37 * i as f64 - 2.0;
                acc = acc
                    + if hoisted {
                        normal.lpdf(x, mu)
                    } else {
                        normal_lpdf_data_reference(x, mu, sigma)
                    };
            }
            acc
        }
    }

    #[test]
    fn hoisted_normal_records_what_the_per_observation_kernel_did() {
        assert_hoist_records_the_same::<NormalShard>();
    }

    #[test]
    fn the_per_observation_kernels_equal_their_references() {
        for (k, log_mu, phi) in [(0u64, 1.2, 0.7), (5, -0.3, 3.1), (40, 2.9, 12.0)] {
            assert_eq!(
                neg_binomial_2_log_lpmf(k, log_mu, phi).to_bits(),
                neg_binomial_2_log_lpmf_reference(k, log_mu, phi).to_bits()
            );
        }
        for (x, mu, sigma) in [(0.5, 1.2, 0.8), (-3.0, 0.1, 0.05), (7.5, 7.4, 20.0)] {
            assert_eq!(
                normal_lpdf_data(x, mu, sigma).to_bits(),
                normal_lpdf_data_reference(x, mu, sigma).to_bits()
            );
        }
    }

    #[test]
    fn log_sum_exp2_stable() {
        close(log_sum_exp2(0.0, 0.0), 2f64.ln());
        close(log_sum_exp2(800.0, 0.0), 800.0);
        close(log_sum_exp2(0.0, 800.0), 800.0);
    }

    #[test]
    fn gradients_flow_through_lpdfs() {
        use bayes_autodiff::grad_of;
        // d/dmu ln N(x|mu,s) = (x-mu)/s²
        let (_, g, _) = grad_of(&[0.3], |v| normal_lpdf_data(1.0, v[0], v[0] * 0.0 + 0.5));
        close(g[0], (1.0 - 0.3) / 0.25);
        // d/dlogit bernoulli_logit(true) = 1 - sigmoid(logit)
        let (_, g, _) = grad_of(&[0.7], |v| bernoulli_logit_lpmf(true, v[0]));
        close(g[0], 1.0 - sigmoid(0.7));
        // d/dlog_lambda poisson_log(k) = k - lambda
        let (_, g, _) = grad_of(&[0.9], |v| poisson_log_lpmf(3, v[0]));
        close(g[0], 3.0 - 0.9f64.exp());
    }
}
