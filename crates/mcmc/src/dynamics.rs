//! Shared Hamiltonian machinery for HMC and NUTS: diagonal-metric
//! kinetic energy, leapfrog integration, the initial step-size
//! heuristic, and the chain state and warm-up schedule both samplers
//! carry between transitions.

use crate::adapt::{DualAveraging, WelfordVar};
use crate::chain::Env;
use crate::checkpoint::SamplerCheckpoint;
use crate::model::Model;
use rand::Rng;

/// Phase-space point carried through the integrator: position, its
/// log-posterior and gradient. Deliberately not `Clone`: samplers own a
/// fixed set of these and move or overwrite them (DESIGN.md §5d).
#[derive(Debug)]
pub(crate) struct State {
    pub q: Vec<f64>,
    pub lp: f64,
    pub grad: Vec<f64>,
}

impl State {
    pub(crate) fn at(model: &dyn Model, q: Vec<f64>) -> Self {
        let mut grad = vec![0.0; q.len()];
        let lp = model.ln_posterior_grad(&q, &mut grad);
        Self { q, lp, grad }
    }

    /// A buffer for [`Hamiltonian::leapfrog_into`] or [`State::copy_from`]
    /// to overwrite.
    pub(crate) fn zeros(dim: usize) -> Self {
        Self {
            q: vec![0.0; dim],
            lp: 0.0,
            grad: vec![0.0; dim],
        }
    }

    /// Overwrites `self` with `other`, which has the same dimension.
    pub(crate) fn copy_from(&mut self, other: &State) {
        self.q.copy_from_slice(&other.q);
        self.lp = other.lp;
        self.grad.copy_from_slice(&other.grad);
    }
}

/// Diagonal-metric Hamiltonian over a model.
pub(crate) struct Hamiltonian<'a> {
    pub model: &'a dyn Model,
    /// Inverse mass diagonal (posterior variance estimate); kinetic
    /// energy is `½ Σ inv_mass_i p_i²`.
    pub inv_mass: &'a [f64],
}

impl Hamiltonian<'_> {
    /// Draws `p ~ N(0, M)` with `M = diag(1 / inv_mass)` into `p`,
    /// whatever it held.
    pub(crate) fn draw_momentum_into<R: Rng + ?Sized>(&self, rng: &mut R, p: &mut Vec<f64>) {
        p.clear();
        p.extend(
            self.inv_mass
                .iter()
                .map(|&im| crate::mh::draw_std_normal(rng) / im.sqrt()),
        );
    }

    pub(crate) fn kinetic(&self, p: &[f64]) -> f64 {
        0.5 * p
            .iter()
            .zip(self.inv_mass)
            .map(|(&pi, &im)| im * pi * pi)
            .sum::<f64>()
    }

    /// Log joint density `lp(q) − K(p)` (negative Hamiltonian).
    pub(crate) fn log_joint(&self, s: &State, p: &[f64]) -> f64 {
        s.lp - self.kinetic(p)
    }

    /// One leapfrog step of size `eps` from `(s, p)` into `(s_out,
    /// p_out)`, whatever those held (only their capacity is reused);
    /// increments `grad_evals`.
    pub(crate) fn leapfrog_into(
        &self,
        s: &State,
        p: &[f64],
        eps: f64,
        grad_evals: &mut u64,
        s_out: &mut State,
        p_out: &mut Vec<f64>,
    ) {
        let _span = bayes_obs::span(bayes_obs::Phase::Leapfrog);
        // Half step of the momentum, held in `p_out` until the gradient
        // at the new position completes it.
        p_out.clear();
        p_out.extend(p.iter().zip(&s.grad).map(|(&pi, &gi)| pi + 0.5 * eps * gi));
        s_out.q.clear();
        s_out.q.extend(
            s.q.iter()
                .zip(self.inv_mass)
                .zip(p_out.iter())
                .map(|((&qi, &im), &ph)| qi + eps * im * ph),
        );
        s_out.grad.resize(s_out.q.len(), 0.0);
        s_out.lp = {
            let _span = bayes_obs::span(bayes_obs::Phase::GradientEval);
            self.model.ln_posterior_grad(&s_out.q, &mut s_out.grad)
        };
        *grad_evals += 1;
        for (pi, &gi) in p_out.iter_mut().zip(&s_out.grad) {
            *pi += 0.5 * eps * gi;
        }
    }

    /// Hoffman–Gelman heuristic: double/halve `eps` until the one-step
    /// acceptance probability crosses ½.
    pub(crate) fn find_initial_eps<R: Rng + ?Sized>(
        &self,
        s: &State,
        rng: &mut R,
        grad_evals: &mut u64,
    ) -> f64 {
        let mut eps = 1.0;
        let (mut p, mut p1) = (Vec::new(), Vec::new());
        let mut s1 = State::zeros(s.q.len());
        self.draw_momentum_into(rng, &mut p);
        let h0 = self.log_joint(s, &p);
        self.leapfrog_into(s, &p, eps, grad_evals, &mut s1, &mut p1);
        let mut ratio = self.log_joint(&s1, &p1) - h0;
        if !ratio.is_finite() {
            ratio = f64::NEG_INFINITY;
        }
        let a: f64 = if ratio > (0.5f64).ln() { 1.0 } else { -1.0 };
        for _ in 0..50 {
            self.leapfrog_into(s, &p, eps, grad_evals, &mut s1, &mut p1);
            let mut r = self.log_joint(&s1, &p1) - h0;
            if !r.is_finite() {
                r = f64::NEG_INFINITY;
            }
            if a * r <= a * (0.5f64).ln() {
                break;
            }
            eps *= 2.0f64.powf(a);
            if !(1e-10..=1e10).contains(&eps) {
                break;
            }
        }
        eps.clamp(1e-10, 1e10)
    }
}

/// A NUTS or static HMC chain between transitions, scratch buffers
/// aside: its point, metric, step size and warm-up accumulators. Plain
/// owned data, so it snapshots and restores losslessly.
#[derive(Debug)]
pub(crate) struct HamiltonianChain {
    pub point: State,
    pub inv_mass: Vec<f64>,
    /// Step size of the next transition.
    pub eps: f64,
    da: DualAveraging,
    welford: WelfordVar,
}

impl HamiltonianChain {
    /// The point `init` (one gradient) under the unit metric, with the
    /// Hoffman–Gelman initial step size.
    pub(crate) fn init(init: &[f64], target_accept: f64, env: &mut Env<'_>) -> Self {
        let point = State::at(env.model, init.to_vec());
        env.evals += 1;
        let inv_mass = vec![1.0; point.q.len()];
        let eps = Hamiltonian {
            model: env.model,
            inv_mass: &inv_mass,
        }
        .find_initial_eps(&point, &mut env.rng, &mut env.evals);
        Self {
            point,
            eps,
            da: DualAveraging::new(eps, target_accept),
            welford: WelfordVar::new(inv_mass.len()),
            inv_mass,
        }
    }

    /// The warm-up schedule, after the transition of iteration `iter`
    /// accepted with `accept_stat`: dual averaging on every warm-up
    /// iteration, Welford pushes over the middle half, the diagonal
    /// metric switched at the end of that window — where dual
    /// averaging restarts from the step size `at_switch` picks under
    /// the new metric — and the smoothed step size frozen at the last
    /// warm-up iteration. Nothing after warm-up.
    pub(crate) fn adapt(
        &mut self,
        iter: usize,
        warmup: usize,
        accept_stat: f64,
        at_switch: impl FnOnce(&Self) -> f64,
    ) {
        if iter >= warmup {
            return;
        }
        let _span = bayes_obs::span(bayes_obs::Phase::Adaptation);
        let window = (warmup / 4, warmup * 3 / 4);
        self.eps = self.da.update(accept_stat);
        if iter >= window.0 && iter < window.1 {
            self.welford.push(&self.point.q);
        }
        if iter + 1 == window.1 && self.welford.count() >= 10 {
            self.inv_mass = self.welford.regularized_variance();
            self.eps = at_switch(self);
            self.da.restart(self.eps);
        }
        if iter + 1 == warmup {
            self.eps = self.da.final_eps();
        }
    }

    /// The sampler's share of a [`SamplerCheckpoint`]; the chain loop
    /// fills in the iteration and counters.
    pub(crate) fn snapshot(&self) -> SamplerCheckpoint {
        SamplerCheckpoint {
            q: self.point.q.clone(),
            lp: self.point.lp,
            grad: self.point.grad.clone(),
            eps: self.eps,
            inv_mass: self.inv_mass.clone(),
            step_adapt: self.da.snapshot(),
            mass_adapt: self.welford.snapshot(),
            ..SamplerCheckpoint::default()
        }
    }

    /// The exact chain a [`HamiltonianChain::snapshot`] came from.
    pub(crate) fn restore(ck: &SamplerCheckpoint) -> Self {
        Self {
            point: State {
                q: ck.q.clone(),
                lp: ck.lp,
                grad: ck.grad.clone(),
            },
            inv_mass: ck.inv_mass.clone(),
            eps: ck.eps,
            da: DualAveraging::restore(&ck.step_adapt),
            welford: WelfordVar::restore(&ck.mass_adapt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AdModel, LogDensity};
    use bayes_autodiff::Real;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct StdNormal2;
    impl LogDensity for StdNormal2 {
        fn dim(&self) -> usize {
            2
        }
        fn eval<R: Real>(&self, t: &[R]) -> R {
            -(t[0].square() + t[1].square()) * 0.5
        }
    }

    fn unit(model: &dyn Model) -> Hamiltonian<'_> {
        Hamiltonian {
            model,
            inv_mass: &[1.0, 1.0],
        }
    }

    /// A fresh-buffer leapfrog step.
    fn leapfrog(
        h: &Hamiltonian<'_>,
        s: &State,
        p: &[f64],
        eps: f64,
        evals: &mut u64,
    ) -> (State, Vec<f64>) {
        let (mut s1, mut p1) = (State::zeros(s.q.len()), Vec::new());
        h.leapfrog_into(s, p, eps, evals, &mut s1, &mut p1);
        (s1, p1)
    }

    #[test]
    fn leapfrog_is_reversible() {
        let model = AdModel::new("n", StdNormal2);
        let h = unit(&model);
        let s0 = State::at(&model, vec![0.3, -0.7]);
        let p0 = vec![1.0, 0.5];
        let mut evals = 0;
        let (s1, p1) = leapfrog(&h, &s0, &p0, 0.1, &mut evals);
        // Flip momentum and step back.
        let p1_neg: Vec<f64> = p1.iter().map(|x| -x).collect();
        let (s2, p2) = leapfrog(&h, &s1, &p1_neg, 0.1, &mut evals);
        for i in 0..2 {
            assert!((s2.q[i] - s0.q[i]).abs() < 1e-12);
            assert!((-p2[i] - p0[i]).abs() < 1e-12);
        }
        assert_eq!(evals, 2);
    }

    #[test]
    fn leapfrog_approximately_conserves_energy() {
        let model = AdModel::new("n", StdNormal2);
        let h = unit(&model);
        let mut s = State::at(&model, vec![1.0, 0.0]);
        let mut p = vec![0.0, 1.0];
        let h0 = h.log_joint(&s, &p);
        let mut evals = 0;
        for _ in 0..100 {
            (s, p) = leapfrog(&h, &s, &p, 0.05, &mut evals);
        }
        assert!((h.log_joint(&s, &p) - h0).abs() < 1e-3);
    }

    #[test]
    fn leapfrog_into_dirty_buffers_equals_fresh_buffers_bitwise() {
        let model = AdModel::new("n", StdNormal2);
        let h = Hamiltonian {
            model: &model,
            inv_mass: &[0.7, 1.9],
        };
        let s0 = State::at(&model, vec![0.3, -0.7]);
        let p0 = [1.0, 0.5];
        let mut evals = 0;
        let (fresh_s, fresh_p) = leapfrog(&h, &s0, &p0, 0.13, &mut evals);
        // Wrong values, and wrong lengths in both directions.
        let dirty = [
            (vec![f64::NAN; 2], vec![9.0; 2], vec![-3.0; 2]),
            (vec![1.0; 5], vec![f64::INFINITY; 7], vec![2.0; 1]),
            (Vec::new(), Vec::new(), Vec::new()),
        ];
        for (q, grad, mut p1) in dirty {
            let mut s1 = State {
                q,
                lp: f64::NAN,
                grad,
            };
            h.leapfrog_into(&s0, &p0, 0.13, &mut evals, &mut s1, &mut p1);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&s1.q), bits(&fresh_s.q));
            assert_eq!(bits(&s1.grad), bits(&fresh_s.grad));
            assert_eq!(s1.lp.to_bits(), fresh_s.lp.to_bits());
            assert_eq!(bits(&p1), bits(&fresh_p));
        }
    }

    #[test]
    fn mass_matrix_scales_momentum() {
        let model = AdModel::new("n", StdNormal2);
        let h = Hamiltonian {
            model: &model,
            inv_mass: &[100.0, 0.01],
        };
        let mut rng = StdRng::seed_from_u64(1);
        let n = 4000;
        let (mut v0, mut v1) = (0.0, 0.0);
        let mut p = Vec::new();
        for _ in 0..n {
            h.draw_momentum_into(&mut rng, &mut p);
            v0 += p[0] * p[0];
            v1 += p[1] * p[1];
        }
        // Var(p_i) = 1/inv_mass_i.
        assert!((v0 / n as f64 - 0.01).abs() < 0.002);
        assert!((v1 / n as f64 - 100.0).abs() < 20.0);
    }

    #[test]
    fn initial_eps_is_sane_for_std_normal() {
        let model = AdModel::new("n", StdNormal2);
        let h = unit(&model);
        let s = State::at(&model, vec![0.1, 0.1]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut evals = 0;
        let eps = h.find_initial_eps(&s, &mut rng, &mut evals);
        assert!((0.01..10.0).contains(&eps), "eps {eps}");
        assert!(evals > 0);
    }
}
