//! Random-walk Metropolis–Hastings — Algorithm 1 of the paper.
//!
//! This is the baseline sampler the paper uses to *explain* the
//! computational structure shared with NUTS: a sequential inner loop
//! whose dominant cost is the likelihood evaluation over all modeled
//! data (line 5), and an embarrassingly parallel outer loop over chains
//! (line 1).

use crate::chain::{Env, Info, Sampler};
use crate::checkpoint::SamplerCheckpoint;
use rand::Rng;

/// Random-walk Metropolis–Hastings with an isotropic Gaussian proposal.
///
/// During warmup the proposal scale is adapted with a Robbins–Monro
/// recursion toward the optimal random-walk acceptance rate of 0.234.
///
/// # Example
///
/// ```
/// use bayes_autodiff::Real;
/// use bayes_mcmc::mh::MetropolisHastings;
/// use bayes_mcmc::{chain, AdModel, LogDensity, RunConfig};
///
/// struct StdNormal;
/// impl LogDensity for StdNormal {
///     fn dim(&self) -> usize { 1 }
///     fn eval<R: Real>(&self, t: &[R]) -> R { -(t[0] * t[0]) * 0.5 }
/// }
///
/// let model = AdModel::new("n", StdNormal);
/// let out = chain::run(&MetropolisHastings::new(), &model, &RunConfig::new(2000));
/// assert!(out.mean(0).abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct MetropolisHastings {
    initial_scale: f64,
    adapt: bool,
}

impl MetropolisHastings {
    /// Creates the sampler with proposal scale 0.5 and warmup
    /// adaptation enabled.
    pub fn new() -> Self {
        Self {
            initial_scale: 0.5,
            adapt: true,
        }
    }

    /// Sets the initial proposal standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "proposal scale must be positive");
        self.initial_scale = scale;
        self
    }

    /// Disables warmup adaptation (pure Algorithm 1).
    pub fn without_adaptation(mut self) -> Self {
        self.adapt = false;
        self
    }
}

impl Default for MetropolisHastings {
    fn default() -> Self {
        Self::new()
    }
}

/// A Metropolis–Hastings chain between iterations: the current point,
/// its log density, the proposal scale, and a buffer the next proposal
/// is drawn into.
#[derive(Debug)]
pub struct MhState {
    theta: Vec<f64>,
    lp: f64,
    scale: f64,
    proposal: Vec<f64>,
}

impl Sampler for MetropolisHastings {
    type State = MhState;

    /// Algorithm 1 charges one likelihood evaluation per iteration
    /// (line 5); the density of the initial point is not counted.
    fn init(&self, init: &[f64], env: &mut Env<'_>) -> MhState {
        MhState {
            theta: init.to_vec(),
            lp: env.model.ln_posterior(init),
            scale: self.initial_scale,
            proposal: Vec::new(),
        }
    }

    fn step(&self, st: &mut MhState, iter: usize, env: &mut Env<'_>) -> Info {
        let (scale, rng) = (st.scale, &mut env.rng);
        // θ' ~ q(θ'|θ(t−1)) — line 4 of Algorithm 1.
        st.proposal.clear();
        st.proposal
            .extend(st.theta.iter().map(|&t| t + scale * draw_std_normal(rng)));
        // r = P(θ')P(D|θ') / P(θ)P(D|θ) in log space — line 5.
        let lp_new = env.model.ln_posterior(&st.proposal);
        env.evals += 1;
        // u ~ uniform(0,1); accept if u < min{r, 1} — lines 6–12.
        let u: f64 = env.rng.gen_range(0.0..1.0);
        let accepted = u.ln() < lp_new - st.lp;
        if accepted {
            std::mem::swap(&mut st.theta, &mut st.proposal);
            st.lp = lp_new;
        }
        let a = if accepted { 1.0 } else { 0.0 };
        if self.adapt && iter < env.cfg.warmup {
            // Robbins–Monro toward 0.234 acceptance.
            let gain = (iter as f64 + 10.0).powf(-0.6);
            st.scale = (st.scale * ((a - 0.234) * gain).exp()).clamp(1e-6, 1e3);
        }
        Info {
            accept_stat: a,
            step_size: scale,
            ..Info::default()
        }
    }

    fn position<'s>(&self, st: &'s MhState) -> &'s [f64] {
        &st.theta
    }

    fn snapshot(&self, st: &MhState) -> SamplerCheckpoint {
        SamplerCheckpoint {
            q: st.theta.clone(),
            lp: st.lp,
            eps: st.scale,
            ..SamplerCheckpoint::default()
        }
    }

    fn restore(&self, ck: &SamplerCheckpoint) -> MhState {
        MhState {
            theta: ck.q.clone(),
            lp: ck.lp,
            scale: ck.eps,
            proposal: Vec::new(),
        }
    }
}

pub(crate) fn draw_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{self, RunConfig};
    use crate::model::{AdModel, LogDensity};
    use bayes_autodiff::Real;

    struct Gauss {
        mu: f64,
        sd: f64,
    }

    impl LogDensity for Gauss {
        fn dim(&self) -> usize {
            1
        }
        fn eval<R: Real>(&self, t: &[R]) -> R {
            let z = (t[0] - self.mu) / self.sd;
            -(z * z) * 0.5
        }
    }

    #[test]
    fn recovers_gaussian_posterior() {
        let model = AdModel::new("g", Gauss { mu: 3.0, sd: 2.0 });
        let cfg = RunConfig::new(6000).with_chains(4).with_seed(42);
        let out = chain::run(&MetropolisHastings::new(), &model, &cfg);
        assert!((out.mean(0) - 3.0).abs() < 0.3, "mean {}", out.mean(0));
        assert!((out.sd(0) - 2.0).abs() < 0.4, "sd {}", out.sd(0));
        assert!(out.max_rhat() < 1.1, "rhat {}", out.max_rhat());
    }

    #[test]
    fn acceptance_rate_is_reasonable_after_adaptation() {
        let model = AdModel::new("g", Gauss { mu: 0.0, sd: 1.0 });
        let cfg = RunConfig::new(4000).with_chains(2).with_seed(7);
        let out = chain::run(&MetropolisHastings::new(), &model, &cfg);
        for c in &out.chains {
            assert!(
                (0.1..0.6).contains(&c.accept_mean),
                "accept {}",
                c.accept_mean
            );
        }
    }

    #[test]
    fn eval_count_matches_iterations() {
        let model = AdModel::new("g", Gauss { mu: 0.0, sd: 1.0 });
        let cfg = RunConfig::new(100).with_chains(1);
        let out = chain::run(&MetropolisHastings::new(), &model, &cfg);
        assert_eq!(out.chains[0].grad_evals, 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let model = AdModel::new("g", Gauss { mu: 0.0, sd: 1.0 });
        let cfg = RunConfig::new(200).with_chains(2).with_seed(11);
        let a = chain::run(&MetropolisHastings::new(), &model, &cfg);
        let b = chain::run(&MetropolisHastings::new(), &model, &cfg);
        for (ca, cb) in a.chains.iter().zip(&b.chains) {
            assert_eq!(ca.draws, cb.draws);
        }
    }

    #[test]
    #[should_panic(expected = "proposal scale must be positive")]
    fn rejects_nonpositive_scale() {
        let _ = MetropolisHastings::new().with_scale(0.0);
    }
}
