//! Static Hamiltonian Monte Carlo.
//!
//! The paper reports (Section IV-A) that HMC's single-core profile is
//! very close to NUTS's; this sampler exists to reproduce that
//! comparison (`hmc_vs_nuts` bench binary). It uses a fixed number of
//! leapfrog steps per iteration with warmup step-size and mass-matrix
//! adaptation.

use crate::chain::{Env, Info, Sampler};
use crate::checkpoint::SamplerCheckpoint;
use crate::dynamics::{Hamiltonian, HamiltonianChain, State};
use rand::Rng;
use std::mem;

/// Static HMC with `steps` leapfrog steps per proposal.
#[derive(Debug, Clone)]
pub struct StaticHmc {
    steps: usize,
    target_accept: f64,
}

impl StaticHmc {
    /// Creates a sampler taking `steps` leapfrog steps per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn new(steps: usize) -> Self {
        assert!(steps > 0, "HMC needs at least one leapfrog step");
        Self {
            steps,
            target_accept: 0.8,
        }
    }

    /// Sets the dual-averaging target acceptance rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target < 1`.
    pub fn with_target_accept(mut self, target: f64) -> Self {
        assert!((0.0..1.0).contains(&target) && target > 0.0);
        self.target_accept = target;
        self
    }
}

/// A static HMC chain between transitions: the state it shares with
/// NUTS, plus the trajectory's end point and the step being taken from
/// it — the only phase-space buffers it owns besides its point
/// (DESIGN.md §5d).
#[derive(Debug)]
pub struct HmcState {
    chain: HamiltonianChain,
    s: State,
    p: Vec<f64>,
    s1: State,
    p1: Vec<f64>,
}

impl HmcState {
    fn new(chain: HamiltonianChain) -> Self {
        let dim = chain.point.q.len();
        Self {
            chain,
            s: State::zeros(dim),
            p: Vec::new(),
            s1: State::zeros(dim),
            p1: Vec::new(),
        }
    }
}

impl Sampler for StaticHmc {
    type State = HmcState;

    fn init(&self, init: &[f64], env: &mut Env<'_>) -> HmcState {
        HmcState::new(HamiltonianChain::init(init, self.target_accept, env))
    }

    fn step(&self, st: &mut HmcState, iter: usize, env: &mut Env<'_>) -> Info {
        let HmcState {
            chain,
            s,
            p,
            s1,
            p1,
        } = st;
        // Fixed eps·L trajectories can resonate with the target's
        // period (near-periodic orbits accept ~1 but barely move);
        // ±10% step-size jitter breaks the resonance (Neal 2011,
        // Section 5.4.2.2).
        let eps = chain.eps * env.rng.gen_range(0.9..1.1);
        let ham = Hamiltonian {
            model: env.model,
            inv_mass: &chain.inv_mass,
        };
        ham.draw_momentum_into(&mut env.rng, p);
        let h0 = ham.log_joint(&chain.point, p);
        s.copy_from(&chain.point);
        let mut diverged = false;
        for _ in 0..self.steps {
            ham.leapfrog_into(s, p, eps, &mut env.evals, s1, p1);
            if !s1.lp.is_finite() {
                diverged = true;
                break;
            }
            mem::swap(s, s1);
            mem::swap(p, p1);
        }
        let accept_stat = if diverged {
            0.0
        } else {
            (ham.log_joint(s, p) - h0).exp().min(1.0)
        };
        if !diverged && env.rng.gen_range(0.0..1.0) < accept_stat {
            mem::swap(&mut chain.point, s);
        }
        // At the metric switch: the running step size was tuned under
        // the unit metric, and trusting it as the anchor for the rest of
        // warmup left dual averaging converging from a badly scaled
        // start on anisotropic targets. Probe a fresh eps under the new
        // metric and re-anchor on that.
        chain.adapt(iter, env.cfg.warmup, accept_stat, |c| {
            let ham = Hamiltonian {
                model: env.model,
                inv_mass: &c.inv_mass,
            };
            ham.find_initial_eps(&c.point, &mut env.rng, &mut env.evals)
        });
        // Static HMC builds no tree.
        Info {
            accept_stat,
            diverged,
            step_size: eps,
            ..Info::default()
        }
    }

    fn position<'s>(&self, st: &'s HmcState) -> &'s [f64] {
        &st.chain.point.q
    }

    fn snapshot(&self, st: &HmcState) -> SamplerCheckpoint {
        st.chain.snapshot()
    }

    fn restore(&self, ck: &SamplerCheckpoint) -> HmcState {
        HmcState::new(HamiltonianChain::restore(ck))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{self, RunConfig};
    use crate::model::{AdModel, LogDensity};
    use bayes_autodiff::Real;

    struct CorrGauss;

    impl LogDensity for CorrGauss {
        fn dim(&self) -> usize {
            2
        }
        fn eval<R: Real>(&self, t: &[R]) -> R {
            // N(mu=(1,-1), sd=(1, 3)), independent.
            let z0 = t[0] - 1.0;
            let z1 = (t[1] + 1.0) / 3.0;
            -(z0.square() + z1.square()) * 0.5
        }
    }

    #[test]
    fn recovers_anisotropic_gaussian() {
        // Multi-seed: since the mass-matrix window now re-probes the
        // step size under the new metric (instead of anchoring dual
        // averaging on the unit-metric eps), adaptation converges on
        // every RNG stream — no pinned seed. Tolerances are calibrated
        // against the Monte-Carlo error of 2 chains × 1000 kept draws
        // with modest autocorrelation (MCSE of the sd=3 coordinate's
        // mean is ≈ 0.1–0.15, so 0.6 is a ≥4σ band).
        let model = AdModel::new("g", CorrGauss);
        for seed in [1u64, 2, 3, 5, 7, 11, 13, 17] {
            let cfg = RunConfig::new(2000).with_chains(2).with_seed(seed);
            let out = chain::run(&StaticHmc::new(16), &model, &cfg);
            assert!(
                (out.mean(0) - 1.0).abs() < 0.25,
                "seed {seed}: mean0 {}",
                out.mean(0)
            );
            assert!(
                (out.mean(1) + 1.0).abs() < 0.6,
                "seed {seed}: mean1 {}",
                out.mean(1)
            );
            assert!(
                (out.sd(1) - 3.0).abs() < 0.8,
                "seed {seed}: sd1 {}",
                out.sd(1)
            );
            assert!(
                out.max_rhat() < 1.1,
                "seed {seed}: max_rhat {}",
                out.max_rhat()
            );
        }
    }

    #[test]
    fn grad_evals_scale_with_steps() {
        let model = AdModel::new("g", CorrGauss);
        let cfg = RunConfig::new(100).with_chains(1).with_seed(1);
        let small = chain::run(&StaticHmc::new(2), &model, &cfg);
        let big = chain::run(&StaticHmc::new(32), &model, &cfg);
        assert!(big.total_grad_evals() > 8 * small.total_grad_evals());
    }

    #[test]
    fn acceptance_near_target_after_warmup() {
        let model = AdModel::new("g", CorrGauss);
        let cfg = RunConfig::new(3000).with_chains(2).with_seed(5);
        let out = chain::run(&StaticHmc::new(8), &model, &cfg);
        for c in &out.chains {
            assert!(c.accept_mean > 0.5, "accept {}", c.accept_mean);
        }
    }

    #[test]
    #[should_panic(expected = "at least one leapfrog")]
    fn rejects_zero_steps() {
        let _ = StaticHmc::new(0);
    }
}
