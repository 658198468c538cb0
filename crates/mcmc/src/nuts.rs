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

/// One subtree built by the doubling procedure: the slots of its two
/// edges and its proposal, and its scalars. A leaf names one slot three
/// times; the names change, the slots' contents never do.
#[derive(Debug, Clone, Copy)]
struct Tree {
    minus: u32,
    plus: u32,
    prop: u32,
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
    fn edge(&self, dir: f64) -> u32 {
        if dir < 0.0 {
            self.minus
        } else {
            self.plus
        }
    }

    /// Takes over `sub`'s outer edge in direction `dir`.
    fn extend(&mut self, sub: &Tree, dir: f64) {
        if dir < 0.0 {
            self.minus = sub.minus;
        } else {
            self.plus = sub.plus;
        }
    }

    /// The slots this tree names, each once.
    fn slots(&self) -> impl Iterator<Item = u32> {
        let (m, p, r) = (self.minus, self.plus, self.prop);
        [
            Some(m),
            (p != m).then_some(p),
            (r != m && r != p).then_some(r),
        ]
        .into_iter()
        .flatten()
    }
}

/// One trajectory point: a phase-space state and its momentum.
#[derive(Debug)]
struct Slot {
    s: State,
    p: Vec<f64>,
}

/// Every trajectory point one chain's trees are made of, and a free
/// list of their indices. A slot taken from the list is written once,
/// by the leapfrog that makes its point (at the root, by a swap with
/// the chain's state), and is only read until it goes back. A
/// transition has at most `max_depth + 1` trees alive — the root, one
/// finished half per recursion level below it, and the subtree being
/// built — and a tree names at most three slots, so the slots are
/// allocated once for that many and tree building never allocates
/// (DESIGN.md §5d).
#[derive(Debug)]
struct Workspace {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl Workspace {
    fn new(dim: usize, max_depth: usize) -> Self {
        let n = 3 * (max_depth + 1);
        Self {
            slots: (0..n)
                .map(|_| Slot {
                    s: State::zeros(dim),
                    p: vec![0.0; dim],
                })
                .collect(),
            free: (0..u32::try_from(n).expect("slot count fits in u32"))
                .rev()
                .collect(),
        }
    }

    /// A slot no tree names, whose contents are stale.
    fn take(&mut self) -> u32 {
        self.free
            .pop()
            .expect("at most max_depth + 1 trees of three slots are alive")
    }

    /// Frees every slot the disjoint trees `old` name that `kept` does
    /// not.
    fn release(&mut self, old: &[Tree], kept: &[u32]) {
        for slot in old.iter().flat_map(Tree::slots) {
            if !kept.contains(&slot) {
                self.free.push(slot);
            }
        }
    }

    /// The point at `from` to read and the distinct slot `to` to write.
    fn read_write(&mut self, from: u32, to: u32) -> (&Slot, &mut Slot) {
        let (from, to) = (from as usize, to as usize);
        if from < to {
            let (head, tail) = self.slots.split_at_mut(to);
            (&head[from], &mut tail[0])
        } else {
            let (head, tail) = self.slots.split_at_mut(from);
            (&tail[0], &mut head[to])
        }
    }
}

fn no_uturn(ham: &Hamiltonian<'_>, ws: &Workspace, tree: &Tree) -> bool {
    let (minus, plus) = (
        &ws.slots[tree.minus as usize],
        &ws.slots[tree.plus as usize],
    );
    let dot = |p: &[f64]| -> f64 {
        plus.s
            .q
            .iter()
            .zip(&minus.s.q)
            .zip(p)
            .zip(ham.inv_mass)
            .map(|(((a, b), pi), im)| (a - b) * pi * im)
            .sum()
    };
    dot(&minus.p) >= 0.0 && dot(&plus.p) >= 0.0
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
    /// from the edge in slot `from` in direction `dir`.
    fn build(&mut self, from: u32, dir: f64, depth: usize) -> Tree {
        if depth == 0 {
            let slot = self.ws.take();
            let (edge, leaf) = self.ws.read_write(from, slot);
            self.ham.leapfrog_into(
                &edge.s,
                &edge.p,
                dir * self.eps,
                self.grad_evals,
                &mut leaf.s,
                &mut leaf.p,
            );
            let joint = self.ham.log_joint(&leaf.s, &leaf.p);
            let valid = self.ln_u <= joint;
            let diverged = !(joint.is_finite() && self.ln_u - MAX_DELTA_H < joint);
            // The new point is both edges and the proposal.
            return Tree {
                minus: slot,
                plus: slot,
                prop: slot,
                n: if valid { 1.0 } else { 0.0 },
                ok: !diverged,
                alpha: if joint.is_finite() {
                    (joint - self.h0).exp().min(1.0)
                } else {
                    0.0
                },
                n_alpha: 1.0,
                diverged,
            };
        }

        let mut t1 = self.build(from, dir, depth - 1);
        if !t1.ok {
            return t1;
        }
        let t2 = self.build(t1.edge(dir), dir, depth - 1);
        let halves = [t1, t2];
        // Merge: extend the relevant edge, sample the proposal
        // proportionally to subtree weights.
        t1.extend(&t2, dir);
        let total = t1.n + t2.n;
        if total > 0.0 && self.rng.gen_range(0.0..1.0) < t2.n / total {
            t1.prop = t2.prop;
        }
        t1.alpha += t2.alpha;
        t1.n_alpha += t2.n_alpha;
        t1.n = total;
        t1.diverged |= t2.diverged;
        t1.ok = t2.ok && no_uturn(self.ham, self.ws, &t1);
        self.ws.release(&halves, &[t1.minus, t1.plus, t1.prop]);
        t1
    }
}

/// One NUTS transition: doubles a trajectory around `state` until it
/// turns back, diverges or reaches `max_depth`, and leaves the selected
/// point in `state`. Every slot it takes from `ws` is free again when
/// it returns.
fn transition(
    ham: &Hamiltonian<'_>,
    ws: &mut Workspace,
    state: &mut State,
    eps: f64,
    max_depth: usize,
    rng: &mut StdRng,
    grad_evals: &mut u64,
) -> Info {
    // The current point is both edges and the first proposal; `state`
    // holds a stale buffer until the selected point is swapped back
    // below.
    let root = ws.take();
    let start = &mut ws.slots[root as usize];
    ham.draw_momentum_into(rng, &mut start.p);
    mem::swap(&mut start.s, state);
    let h0 = ham.log_joint(&start.s, &start.p);
    let ln_u = h0 + rng.gen_range(0.0f64..1.0).ln();
    let mut tree = Tree {
        minus: root,
        plus: root,
        prop: root,
        n: 1.0,
        ok: true,
        alpha: 0.0,
        n_alpha: 0.0,
        diverged: false,
    };

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
        let sub = doubling.build(tree.edge(dir), dir, depth);
        let before = [tree, sub];
        tree.alpha += sub.alpha;
        tree.n_alpha += sub.n_alpha;
        tree.diverged |= sub.diverged;
        if sub.ok {
            if doubling.rng.gen_range(0.0..1.0) < sub.n / tree.n.max(1.0) {
                tree.prop = sub.prop;
            }
            tree.extend(&sub, dir);
            tree.n += sub.n;
        }
        doubling
            .ws
            .release(&before, &[tree.minus, tree.plus, tree.prop]);
        if !(sub.ok && no_uturn(ham, doubling.ws, &tree)) {
            break;
        }
    }

    mem::swap(state, &mut ws.slots[tree.prop as usize].s);
    ws.release(&[tree], &[]);
    Info {
        accept_stat: if tree.n_alpha > 0.0 {
            tree.alpha / tree.n_alpha
        } else {
            0.0
        },
        diverged: tree.diverged,
        tree_depth: depth_reached,
        step_size: eps,
    }
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

    /// Every slot is on the free list exactly once: none leaked, none
    /// freed twice.
    fn assert_all_free(ws: &Workspace, what: &str) {
        let mut free = ws.free.clone();
        free.sort_unstable();
        let all: Vec<u32> = (0..ws.slots.len() as u32).collect();
        assert_eq!(free, all, "{what}");
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
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = State::at(&model, vec![0.3, 1.9, -0.5]);
        let mut evals = 0;
        let mut step = |eps: f64, ws: &mut Workspace| {
            let t = transition(&ham, ws, &mut state, eps, max_depth, &mut rng, &mut evals);
            assert_all_free(ws, &format!("eps {eps}"));
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
    fn no_slot_is_read_before_it_is_written() {
        // Two chains from one seed, one of them with every free slot
        // NaN-filled before each transition: a stale read anywhere
        // would carry a NaN into its draws.
        let model = AdModel::new("g3", Gauss3);
        let ham = Hamiltonian {
            model: &model,
            inv_mass: &[0.8, 0.3, 2.5],
        };
        let max_depth = 6;
        let chain = |poison: bool| {
            let mut ws = Workspace::new(3, max_depth);
            let mut rng = StdRng::seed_from_u64(11);
            let mut state = State::at(&model, vec![0.3, 1.9, -0.5]);
            let mut evals = 0;
            let mut out = Vec::new();
            // Short, ordinary and divergent steps.
            for i in 0..300 {
                if poison {
                    for &k in &ws.free {
                        let slot = &mut ws.slots[k as usize];
                        slot.s.q.fill(f64::NAN);
                        slot.s.grad.fill(f64::NAN);
                        slot.s.lp = f64::NAN;
                        slot.p.fill(f64::NAN);
                    }
                }
                let eps = [0.01, 0.6, 1.1, 40.0][i % 4];
                let t = transition(
                    &ham, &mut ws, &mut state, eps, max_depth, &mut rng, &mut evals,
                );
                out.extend(state.q.iter().chain(&state.grad).map(|x| x.to_bits()));
                out.extend([
                    state.lp.to_bits(),
                    t.accept_stat.to_bits(),
                    t.tree_depth as u64,
                    u64::from(t.diverged),
                ]);
            }
            (out, evals)
        };
        let (clean, poisoned) = (chain(false), chain(true));
        assert!(clean.0.iter().all(|&b| !f64::from_bits(b).is_nan()));
        assert_eq!(clean, poisoned);
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
