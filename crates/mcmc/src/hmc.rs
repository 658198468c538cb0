//! Static Hamiltonian Monte Carlo.
//!
//! The paper reports (Section IV-A) that HMC's single-core profile is
//! very close to NUTS's; this sampler exists to reproduce that
//! comparison (`hmc_vs_nuts` bench binary). It uses a fixed number of
//! leapfrog steps per iteration with warmup step-size and mass-matrix
//! adaptation.

use crate::adapt::{DualAveraging, WelfordVar};
use crate::chain::{ChainOutput, RunConfig, Sampler};
use crate::dynamics::{Hamiltonian, State};
use crate::model::Model;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

impl Sampler for StaticHmc {
    fn sample_chain(
        &self,
        model: &dyn Model,
        init: &[f64],
        cfg: &RunConfig,
        seed: u64,
    ) -> ChainOutput {
        self.sample_chain_core(model, init, cfg, seed, None, None)
    }
}

impl crate::runtime::StoppableSampler for StaticHmc {
    fn sample_chain_stoppable(
        &self,
        model: &dyn Model,
        init: &[f64],
        cfg: &RunConfig,
        seed: u64,
        stop: &std::sync::atomic::AtomicBool,
        on_draw: &(dyn Fn(usize, &[f64]) + Sync),
    ) -> ChainOutput {
        self.sample_chain_core(model, init, cfg, seed, Some(stop), Some(on_draw))
    }
}

/// Checkpoint/resume stays NUTS-only for now; the default
/// implementation reports `supports_resume() == false` and the
/// supervisor refuses checkpointing configs for this sampler.
impl crate::supervisor::ResumableSampler for StaticHmc {}

impl StaticHmc {
    fn sample_chain_core(
        &self,
        model: &dyn Model,
        init: &[f64],
        cfg: &RunConfig,
        seed: u64,
        stop: Option<&std::sync::atomic::AtomicBool>,
        on_draw: Option<&(dyn Fn(usize, &[f64]) + Sync)>,
    ) -> ChainOutput {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ham = Hamiltonian::unit(model);
        let mut state = State::at(model, init.to_vec());
        let mut grad_evals = 1u64;

        let eps0 = ham.find_initial_eps(&state, &mut rng, &mut grad_evals);
        let mut da = DualAveraging::new(eps0, self.target_accept);
        let mut eps = eps0;
        let mut welford = WelfordVar::new(model.dim());
        let window = (cfg.warmup / 4, cfg.warmup * 3 / 4);

        // The trajectory's end point and the step being taken from it:
        // the only phase-space buffers a chain owns besides `state`
        // (DESIGN.md §5d).
        let (mut s, mut s1) = (State::zeros(model.dim()), State::zeros(model.dim()));
        let (mut p, mut p1) = (Vec::new(), Vec::new());

        let mut draws = Vec::with_capacity(cfg.iters);
        let mut accept_sum = 0.0;
        let mut divergences = 0u64;
        // Observation only: events are built from values the iteration
        // computed anyway, after all RNG use (see `bayes_obs`).
        let recording = cfg.recorder.enabled();

        for iter in 0..cfg.iters {
            let evals_at_start = grad_evals;
            // Fixed eps·L trajectories can resonate with the target's
            // period (near-periodic orbits accept ~1 but barely move);
            // ±10% step-size jitter breaks the resonance (Neal 2011,
            // Section 5.4.2.2).
            let eps_used = eps * rng.gen_range(0.9..1.1);
            ham.draw_momentum_into(&mut rng, &mut p);
            let h0 = ham.log_joint(&state, &p);
            s.copy_from(&state);
            let mut diverged = false;
            for _ in 0..self.steps {
                ham.leapfrog_into(&s, &p, eps_used, &mut grad_evals, &mut s1, &mut p1);
                if !s1.lp.is_finite() {
                    diverged = true;
                    break;
                }
                mem::swap(&mut s, &mut s1);
                mem::swap(&mut p, &mut p1);
            }
            let accept_prob = if diverged {
                0.0
            } else {
                (ham.log_joint(&s, &p) - h0).exp().min(1.0)
            };
            if diverged {
                divergences += 1;
            }
            if !diverged && rng.gen_range(0.0..1.0) < accept_prob {
                mem::swap(&mut state, &mut s);
            }
            if iter >= cfg.warmup {
                accept_sum += accept_prob;
            }
            if recording {
                cfg.recorder.record(bayes_obs::Event::Iteration {
                    chain: cfg.chain_index as u64,
                    iter: iter as u64,
                    step_size: eps_used,
                    tree_depth: 0, // static HMC builds no tree
                    leapfrogs: grad_evals - evals_at_start,
                    divergent: diverged,
                    accept: accept_prob,
                });
            }

            if iter < cfg.warmup {
                let _span = bayes_obs::span(bayes_obs::Phase::Adaptation);
                eps = da.update(accept_prob);
                if iter >= window.0 && iter < window.1 {
                    welford.push(&state.q);
                }
                if iter + 1 == window.1 && welford.count() >= 10 {
                    ham.inv_mass = welford.regularized_variance();
                    // The running step size was tuned under the unit
                    // metric; trusting it as the anchor for the rest of
                    // warmup left dual averaging converging from a badly
                    // scaled start on anisotropic targets. Probe a fresh
                    // eps under the new metric and re-anchor on that.
                    eps = ham.find_initial_eps(&state, &mut rng, &mut grad_evals);
                    da = DualAveraging::new(eps, self.target_accept);
                }
                if iter + 1 == cfg.warmup {
                    eps = da.final_eps();
                }
            }
            draws.push(state.q.clone());
            if let Some(cb) = on_draw {
                cb(iter, &state.q);
            }
            if let Some(flag) = stop {
                if flag.load(std::sync::atomic::Ordering::Acquire) {
                    break;
                }
            }
        }

        // Post-warm-up iterations actually completed: a raised stop
        // flag ends the chain before `cfg.iters`.
        let sampling = draws.len().saturating_sub(cfg.warmup).max(1) as f64;
        // Static HMC does a fixed number of leapfrogs per iteration.
        let evals_per_iter = vec![self.steps as u32; draws.len()];
        ChainOutput {
            draws,
            warmup: cfg.warmup,
            accept_mean: accept_sum / sampling,
            grad_evals,
            divergences,
            evals_per_iter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain;
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

    #[test]
    fn stoppable_override_halts_at_the_flag() {
        use crate::runtime::StoppableSampler;
        use std::sync::atomic::{AtomicBool, Ordering};
        let model = AdModel::new("g", CorrGauss);
        let cfg = RunConfig::new(200).with_chains(1).with_seed(2);
        // Start from the same Stan-style init `chain::run` draws for
        // chain 0 so the draw-for-draw comparison below is exact.
        let init = chain::initial_points(&cfg, model.dim())[0].clone();
        let stop = AtomicBool::new(false);
        let out = StaticHmc::new(4).sample_chain_stoppable(
            &model,
            &init,
            &cfg,
            cfg.chain_seed(0),
            &stop,
            &|iter, _| {
                if iter + 1 == 50 {
                    stop.store(true, Ordering::Release);
                }
            },
        );
        assert_eq!(out.draws.len(), 50, "must halt at the flag");
        assert_eq!(out.evals_per_iter.len(), 50);
        // The unstopped run matches the plain sampler draw-for-draw.
        let full = StaticHmc::new(4).sample_chain_stoppable(
            &model,
            &init,
            &cfg,
            cfg.chain_seed(0),
            &AtomicBool::new(false),
            &|_, _| {},
        );
        let plain = chain::run(
            &StaticHmc::new(4),
            &model,
            &RunConfig::new(200).with_chains(1).with_seed(2),
        );
        assert_eq!(full.draws, plain.chains[0].draws);
        assert_eq!(&full.draws[..50], &out.draws[..]);
    }
}
