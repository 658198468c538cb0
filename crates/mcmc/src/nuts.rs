//! The No-U-Turn Sampler (Hoffman & Gelman 2014), Stan's default
//! engine and the algorithm the paper characterizes.
//!
//! NUTS "explores high-dimensional space by building a set of likely
//! candidate points recursively, which eliminates random-walk behavior"
//! (Section II-B): each iteration doubles a trajectory of leapfrog
//! steps until the path makes a U-turn, then samples a point from the
//! trajectory via slice sampling. The acceptance statistic fed to
//! dual averaging is the mean Metropolis probability over the whole
//! candidate set, exactly as in the Stan implementation the paper
//! describes.

use crate::chain::{Env, Info, Sampler};
use crate::checkpoint::SamplerCheckpoint;
use crate::dynamics::{Hamiltonian, HamiltonianChain, State};
use rand::rngs::StdRng;
use rand::Rng;
use std::mem;

/// Divergence threshold on the joint-density error (Stan's default).
const MAX_DELTA_H: f64 = 1000.0;

/// Tuning knobs for [`Nuts`].
#[derive(Debug, Clone, Copy)]
pub struct NutsConfig {
    /// Maximum tree depth (Stan default 10 → up to 1023 leapfrogs).
    pub max_depth: usize,
    /// Dual-averaging target acceptance statistic (Stan default 0.8).
    pub target_accept: f64,
}

impl Default for NutsConfig {
    fn default() -> Self {
        Self {
            max_depth: 10,
            target_accept: 0.8,
        }
    }
}

/// The No-U-Turn Sampler.
///
/// # Example
///
/// ```
/// use bayes_autodiff::Real;
/// use bayes_mcmc::nuts::Nuts;
/// use bayes_mcmc::{chain, AdModel, LogDensity, RunConfig};
///
/// struct StdNormal;
/// impl LogDensity for StdNormal {
///     fn dim(&self) -> usize { 1 }
///     fn eval<R: Real>(&self, t: &[R]) -> R { -(t[0] * t[0]) * 0.5 }
/// }
///
/// let model = AdModel::new("n", StdNormal);
/// let out = chain::run(&Nuts::default(), &model, &RunConfig::new(600).with_chains(2));
/// assert!(out.mean(0).abs() < 0.3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Nuts {
    cfg: NutsConfig,
}

impl Nuts {
    /// Creates a NUTS sampler with the given configuration.
    pub fn new(cfg: NutsConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NutsConfig {
        &self.cfg
    }
}

/// One subtree built by the doubling procedure. Its five buffers come
/// from the chain's [`Workspace`] and go back to it.
struct Tree {
    s_minus: State,
    p_minus: Vec<f64>,
    s_plus: State,
    p_plus: Vec<f64>,
    s_prop: State,
    /// Number of slice-valid states in the subtree.
    n: f64,
    /// False once a U-turn or divergence is detected inside.
    ok: bool,
    alpha: f64,
    n_alpha: f64,
    diverged: bool,
}

impl Tree {
    /// The edge a doubling in direction `dir` continues from.
    fn edge(&self, dir: f64) -> (&State, &[f64]) {
        if dir < 0.0 {
            (&self.s_minus, &self.p_minus)
        } else {
            (&self.s_plus, &self.p_plus)
        }
    }

    /// Takes over `sub`'s outer edge in direction `dir`; `sub` keeps
    /// the replaced buffers until it is recycled.
    fn extend(&mut self, sub: &mut Tree, dir: f64) {
        if dir < 0.0 {
            mem::swap(&mut self.s_minus, &mut sub.s_minus);
            mem::swap(&mut self.p_minus, &mut sub.p_minus);
        } else {
            mem::swap(&mut self.s_plus, &mut sub.s_plus);
            mem::swap(&mut self.p_plus, &mut sub.p_plus);
        }
    }
}

/// Every phase-space buffer one chain's trees are made of, as free
/// lists. A transition has at most `max_depth + 1` trees alive — the
/// root, one finished half per recursion level below it, and the leaf
/// being stepped — so the lists are filled once for that many and
/// tree building never allocates (DESIGN.md §5d).
#[derive(Debug)]
struct Workspace {
    states: Vec<State>,
    momenta: Vec<Vec<f64>>,
}

impl Workspace {
    fn new(dim: usize, max_depth: usize) -> Self {
        let trees = max_depth + 1;
        Self {
            states: (0..3 * trees).map(|_| State::zeros(dim)).collect(),
            momenta: (0..2 * trees).map(|_| vec![0.0; dim]).collect(),
        }
    }

    /// An empty tree over five buffers whose contents are stale.
    fn tree(&mut self) -> Tree {
        const BOUND: &str = "at most max_depth + 1 trees are alive";
        Tree {
            s_minus: self.states.pop().expect(BOUND),
            p_minus: self.momenta.pop().expect(BOUND),
            s_plus: self.states.pop().expect(BOUND),
            p_plus: self.momenta.pop().expect(BOUND),
            s_prop: self.states.pop().expect(BOUND),
            n: 0.0,
            ok: true,
            alpha: 0.0,
            n_alpha: 0.0,
            diverged: false,
        }
    }

    fn recycle(&mut self, tree: Tree) {
        self.states.extend([tree.s_minus, tree.s_plus, tree.s_prop]);
        self.momenta.extend([tree.p_minus, tree.p_plus]);
    }
}

fn no_uturn(ham: &Hamiltonian<'_>, tree: &Tree) -> bool {
    let dot = |p: &[f64]| -> f64 {
        tree.s_plus
            .q
            .iter()
            .zip(&tree.s_minus.q)
            .zip(p)
            .zip(ham.inv_mass)
            .map(|(((a, b), pi), im)| (a - b) * pi * im)
            .sum()
    };
    dot(&tree.p_minus) >= 0.0 && dot(&tree.p_plus) >= 0.0
}

/// The doubling procedure of one transition: what all its subtrees
/// share.
struct Doubling<'a, 'm> {
    ham: &'a Hamiltonian<'m>,
    ws: &'a mut Workspace,
    rng: &'a mut StdRng,
    grad_evals: &'a mut u64,
    /// Log of the slice variable.
    ln_u: f64,
    /// Log joint density at the transition's starting point.
    h0: f64,
    eps: f64,
}

impl Doubling<'_, '_> {
    /// Builds the subtree of `2^depth` leapfrog steps that continues
    /// from the edge `(s, p)` in direction `dir`.
    fn build(&mut self, (s, p): (&State, &[f64]), dir: f64, depth: usize) -> Tree {
        if depth == 0 {
            let mut leaf = self.ws.tree();
            let (s1, p1) = (&mut leaf.s_prop, &mut leaf.p_plus);
            self.ham
                .leapfrog_into(s, p, dir * self.eps, self.grad_evals, s1, p1);
            let joint = self.ham.log_joint(s1, p1);
            let valid = self.ln_u <= joint;
            leaf.diverged = !(joint.is_finite() && self.ln_u - MAX_DELTA_H < joint);
            leaf.alpha = if joint.is_finite() {
                (joint - self.h0).exp().min(1.0)
            } else {
                0.0
            };
            // The new point is both edges and the proposal.
            leaf.s_minus.copy_from(&leaf.s_prop);
            leaf.s_plus.copy_from(&leaf.s_prop);
            leaf.p_minus.copy_from_slice(&leaf.p_plus);
            leaf.n = if valid { 1.0 } else { 0.0 };
            leaf.ok = !leaf.diverged;
            leaf.n_alpha = 1.0;
            return leaf;
        }

        let mut t1 = self.build((s, p), dir, depth - 1);
        if !t1.ok {
            return t1;
        }
        let mut t2 = self.build(t1.edge(dir), dir, depth - 1);
        // Merge: extend the relevant edge, sample the proposal
        // proportionally to subtree weights.
        t1.extend(&mut t2, dir);
        let total = t1.n + t2.n;
        if total > 0.0 && self.rng.gen_range(0.0..1.0) < t2.n / total {
            mem::swap(&mut t1.s_prop, &mut t2.s_prop);
        }
        t1.alpha += t2.alpha;
        t1.n_alpha += t2.n_alpha;
        t1.n = total;
        t1.diverged |= t2.diverged;
        t1.ok = t2.ok && no_uturn(self.ham, &t1);
        self.ws.recycle(t2);
        t1
    }
}

/// One NUTS transition: doubles a trajectory around `state` until it
/// turns back, diverges or reaches `max_depth`, and leaves the selected
/// point in `state`. Every buffer it takes from `ws` is back there
/// when it returns.
fn transition(
    ham: &Hamiltonian<'_>,
    ws: &mut Workspace,
    state: &mut State,
    eps: f64,
    max_depth: usize,
    rng: &mut StdRng,
    grad_evals: &mut u64,
) -> Info {
    let mut tree = ws.tree();
    ham.draw_momentum_into(rng, &mut tree.p_plus);
    let h0 = ham.log_joint(state, &tree.p_plus);
    let ln_u = h0 + rng.gen_range(0.0f64..1.0).ln();
    tree.p_minus.copy_from_slice(&tree.p_plus);
    tree.s_minus.copy_from(state);
    tree.s_plus.copy_from(state);
    // The current point is the first proposal; `state` holds a stale
    // buffer until the selected one is swapped back below.
    mem::swap(&mut tree.s_prop, state);
    tree.n = 1.0;

    let mut doubling = Doubling {
        ham,
        ws,
        rng,
        grad_evals,
        ln_u,
        h0,
        eps,
    };
    let mut depth_reached = 0;
    for depth in 0..max_depth {
        // One doubling per span: self time is the merge
        // bookkeeping, the leapfrogs inside account their own.
        let _span = bayes_obs::span(bayes_obs::Phase::TreeDoubling);
        depth_reached = depth + 1;
        let dir: f64 = if doubling.rng.gen_range(0.0..1.0) < 0.5 {
            -1.0
        } else {
            1.0
        };
        let mut sub = doubling.build(tree.edge(dir), dir, depth);
        tree.alpha += sub.alpha;
        tree.n_alpha += sub.n_alpha;
        tree.diverged |= sub.diverged;
        let accepted = sub.ok;
        if accepted {
            if doubling.rng.gen_range(0.0..1.0) < sub.n / tree.n.max(1.0) {
                mem::swap(&mut tree.s_prop, &mut sub.s_prop);
            }
            tree.extend(&mut sub, dir);
            tree.n += sub.n;
        }
        doubling.ws.recycle(sub);
        if !(accepted && no_uturn(ham, &tree)) {
            break;
        }
    }

    mem::swap(state, &mut tree.s_prop);
    let out = Info {
        accept_stat: if tree.n_alpha > 0.0 {
            tree.alpha / tree.n_alpha
        } else {
            0.0
        },
        diverged: tree.diverged,
        tree_depth: depth_reached,
        step_size: eps,
    };
    doubling.ws.recycle(tree);
    out
}

/// A NUTS chain between transitions: the state it shares with static
/// HMC and the buffers its trees are built from.
#[derive(Debug)]
pub struct NutsState {
    chain: HamiltonianChain,
    ws: Workspace,
}

impl Sampler for Nuts {
    type State = NutsState;

    fn init(&self, init: &[f64], env: &mut Env<'_>) -> NutsState {
        NutsState {
            chain: HamiltonianChain::init(init, self.cfg.target_accept, env),
            ws: Workspace::new(init.len(), self.cfg.max_depth),
        }
    }

    fn step(&self, st: &mut NutsState, iter: usize, env: &mut Env<'_>) -> Info {
        let chain = &mut st.chain;
        let ham = Hamiltonian {
            model: env.model,
            inv_mass: &chain.inv_mass,
        };
        let info = transition(
            &ham,
            &mut st.ws,
            &mut chain.point,
            chain.eps,
            self.cfg.max_depth,
            &mut env.rng,
            &mut env.evals,
        );
        // At the metric switch dual averaging re-anchors on the step
        // size it has reached.
        chain.adapt(iter, env.cfg.warmup, info.accept_stat, |c| c.eps);
        info
    }

    fn position<'s>(&self, st: &'s NutsState) -> &'s [f64] {
        &st.chain.point.q
    }

    fn snapshot(&self, st: &NutsState) -> SamplerCheckpoint {
        st.chain.snapshot()
    }

    fn restore(&self, ck: &SamplerCheckpoint) -> NutsState {
        NutsState {
            chain: HamiltonianChain::restore(ck),
            ws: Workspace::new(ck.q.len(), self.cfg.max_depth),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{self, RunConfig};
    use crate::model::{AdModel, LogDensity};
    use bayes_autodiff::Real;
    use rand::SeedableRng;

    struct Gauss3;

    impl LogDensity for Gauss3 {
        fn dim(&self) -> usize {
            3
        }
        fn eval<R: Real>(&self, t: &[R]) -> R {
            // Independent normals: mu = (0, 2, -1), sd = (1, 0.5, 2).
            let z0 = t[0];
            let z1 = (t[1] - 2.0) / 0.5;
            let z2 = (t[2] + 1.0) / 2.0;
            -(z0.square() + z1.square() + z2.square()) * 0.5
        }
    }

    #[test]
    fn recovers_gaussian_posterior() {
        let model = AdModel::new("g3", Gauss3);
        let cfg = RunConfig::new(1200).with_chains(4).with_seed(17);
        let out = chain::run(&Nuts::default(), &model, &cfg);
        assert!(out.mean(0).abs() < 0.15, "mean0 {}", out.mean(0));
        assert!((out.mean(1) - 2.0).abs() < 0.1, "mean1 {}", out.mean(1));
        assert!((out.mean(2) + 1.0).abs() < 0.35, "mean2 {}", out.mean(2));
        assert!((out.sd(0) - 1.0).abs() < 0.15, "sd0 {}", out.sd(0));
        assert!((out.sd(1) - 0.5).abs() < 0.1, "sd1 {}", out.sd(1));
        assert!((out.sd(2) - 2.0).abs() < 0.4, "sd2 {}", out.sd(2));
        assert!(out.max_rhat() < 1.05, "rhat {}", out.max_rhat());
    }

    #[test]
    fn no_divergences_on_well_conditioned_target() {
        let model = AdModel::new("g3", Gauss3);
        let cfg = RunConfig::new(600).with_chains(2).with_seed(3);
        let out = chain::run(&Nuts::default(), &model, &cfg);
        let total: u64 = out.chains.iter().map(|c| c.divergences).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn grad_evals_counted_per_chain() {
        let model = AdModel::new("g3", Gauss3);
        let cfg = RunConfig::new(200).with_chains(2).with_seed(5);
        let out = chain::run(&Nuts::default(), &model, &cfg);
        for c in &out.chains {
            // At least one leapfrog per iteration.
            assert!(c.grad_evals >= 200, "evals {}", c.grad_evals);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let model = AdModel::new("g3", Gauss3);
        let cfg = RunConfig::new(150).with_chains(2).with_seed(23);
        let a = chain::run(&Nuts::default(), &model, &cfg);
        let b = chain::run(&Nuts::default(), &model, &cfg);
        for (ca, cb) in a.chains.iter().zip(&b.chains) {
            assert_eq!(ca.draws, cb.draws);
            assert_eq!(ca.grad_evals, cb.grad_evals);
        }
    }

    #[test]
    fn every_transition_returns_its_buffers_to_the_workspace() {
        let model = AdModel::new("g3", Gauss3);
        let ham = Hamiltonian {
            model: &model,
            inv_mass: &[1.0; 3],
        };
        let max_depth = 4;
        let mut ws = Workspace::new(3, max_depth);
        let full = (ws.states.len(), ws.momenta.len());
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = State::at(&model, vec![0.3, 1.9, -0.5]);
        let mut evals = 0;
        let mut step = |eps: f64, ws: &mut Workspace| {
            let t = transition(&ham, ws, &mut state, eps, max_depth, &mut rng, &mut evals);
            assert_eq!((ws.states.len(), ws.momenta.len()), full, "eps {eps}");
            assert!(state.q.iter().all(|x| x.is_finite()));
            t
        };
        // Steps too short to turn around: all four doublings, with as
        // many trees alive as there can be.
        let t = step(1e-4, &mut ws);
        assert_eq!((t.tree_depth, t.diverged), (max_depth, false));
        // A step that leaves the typical set: the first leaf diverges
        // and the early return hands everything back.
        let t = step(1e4, &mut ws);
        assert_eq!((t.tree_depth, t.diverged, t.accept_stat), (1, true, 0.0));
        // Ordinary transitions: U-turns inside subtrees and at the top.
        for _ in 0..200 {
            step(0.7, &mut ws);
        }
        assert!(evals > 15 + 1 + 200);
    }

    #[test]
    fn nuts_beats_mh_on_effective_samples_per_iteration() {
        use crate::diag::ess;
        let model = AdModel::new("g3", Gauss3);
        let cfg = RunConfig::new(1000).with_chains(2).with_seed(29);
        let nuts_out = chain::run(&Nuts::default(), &model, &cfg);
        let mh_out = chain::run(&crate::mh::MetropolisHastings::new(), &model, &cfg);
        let nuts_ess = ess(&nuts_out.traces(1));
        let mh_ess = ess(&mh_out.traces(1));
        assert!(
            nuts_ess > 2.0 * mh_ess,
            "nuts {nuts_ess} vs mh {mh_ess}: NUTS should mix much faster"
        );
    }
}
