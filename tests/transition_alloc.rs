//! A steady-state NUTS or HMC transition allocates its draw row and
//! nothing else, whether the chain keeps its rows or a supervisor does.
//!
//! Its own test binary, because the counter (`counting_alloc`, shared
//! with `gradient_alloc.rs`) is the process's global allocator. Only
//! allocations of the thread under test are counted, and it is the
//! chain's: the recorder below reads the counter from inside the
//! chain's `iteration` event. Chains run with one inner thread, through
//! a one-chain sequential `chain::run` or a one-chain supervised run —
//! the one chain loop either way.
//!
//! The chain's `iteration` event is recorded once per transition, just
//! before the draw row is kept, and the rows (`ChainOutput::draws`, or
//! the supervisor's slot for the chain) are reserved for `iters` rows
//! up front; so the counter's growth between two consecutive events is
//! one transition: one draw row plus tree building. The rows are the
//! only allocations a transition may make, hence "exactly one" below
//! means "zero inside tree building".

mod counting_alloc;

use bayes_mcmc::chain::{self, ChainOutput};
use bayes_mcmc::hmc::StaticHmc;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::obs::{Event, Recorder, RecorderHandle};
use bayes_mcmc::supervisor::{Runtime, SupervisorConfig};
use bayes_mcmc::{ConvergenceDetector, Model, RunConfig, Sampler};
use bayes_suite::registry::{self, REFERENCE_SEED, SMOKE_SCALE};
use counting_alloc::allocations;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const ITERS: usize = 160;
const WARMUP: usize = 80;
/// Transitions skipped after warm-up ends before counting starts: the
/// last warm-up transition installs the final step size, nothing more,
/// but a margin costs nothing.
const SETTLE: usize = 8;

/// Marks the allocation count at each iteration's event.
struct Marks(Vec<AtomicU64>);

impl Recorder for Marks {
    fn record(&self, event: &Event) {
        if let Event::Iteration { iter, .. } = event {
            self.0[*iter as usize].store(allocations(), Ordering::Relaxed);
        }
    }
}

/// Runs one chain on this thread and returns, for each of the last
/// `ITERS - WARMUP - SETTLE - 1` transitions, its allocations and its
/// gradient evaluations.
fn allocations_per_transition<S: Sampler>(sampler: &S, model: &dyn Model) -> Vec<(u64, u64)> {
    allocations_per_transition_of(model, |cfg| {
        chain::run(sampler, model, cfg).chains.remove(0)
    })
}

/// [`allocations_per_transition`] for a chain that `run` drives with
/// the config it is handed.
fn allocations_per_transition_of(
    model: &dyn Model,
    run: impl FnOnce(&RunConfig) -> ChainOutput,
) -> Vec<(u64, u64)> {
    let marks = Arc::new(Marks((0..ITERS).map(|_| AtomicU64::new(0)).collect()));
    let cfg = RunConfig::new(ITERS)
        .with_chains(1)
        .with_inner_threads(1)
        .with_warmup(WARMUP)
        .with_seed(8)
        .with_recorder(RecorderHandle::new(marks.clone()));
    let out = run(&cfg);
    assert_eq!(out.draws.len(), ITERS);
    assert!(
        out.draws.iter().flatten().all(|x| x.is_finite()),
        "{}: chain left the support",
        model.name()
    );
    let marks: Vec<u64> = marks.0.iter().map(|m| m.load(Ordering::Relaxed)).collect();
    let first = WARMUP + SETTLE;
    marks[first..]
        .windows(2)
        .zip(&out.evals_per_iter[first + 1..])
        .map(|(w, &evals)| (w[1] - w[0], u64::from(evals)))
        .collect()
}

fn registry_model(name: &str) -> bayes_suite::Workload {
    registry::workload(name, SMOKE_SCALE, REFERENCE_SEED).expect("registry")
}

/// `memory` and `survival` on the sufficient-statistics path (fused
/// analytic and forward-mode gradients), `12cities` on the tape.
#[test]
fn a_steady_state_nuts_transition_allocates_only_its_draw_row() {
    for name in ["memory", "survival", "12cities"] {
        let workload = registry_model(name);
        let per_transition = allocations_per_transition(&Nuts::default(), workload.model());
        assert!(
            per_transition.iter().all(|&(allocs, _)| allocs == 1),
            "{name}: (allocations, gradients) per transition {per_transition:?}"
        );
    }
}

/// Under supervision the chain hands each draw to the supervisor, which
/// keeps the only copy of the chain's rows and moves them into the
/// output at the end: one allocation per transition, as unsupervised.
/// (Before the rows moved into the supervisor's slot, the chain kept a
/// copy of its own and a supervised transition allocated two.)
#[test]
fn a_steady_state_supervised_nuts_transition_allocates_only_its_draw_row() {
    let workload = registry_model("memory");
    let model = workload.model();
    let detector = ConvergenceDetector::new()
        .with_check_every(50)
        .with_min_iters(50);
    let per_transition = allocations_per_transition_of(model, |cfg| {
        Runtime::new(detector)
            .with_config(SupervisorConfig::new().with_min_quorum(1))
            .run(&Nuts::default(), model, cfg)
            .expect("supervised run")
            .run
            .chains
            .remove(0)
    });
    assert!(
        per_transition.iter().all(|&(allocs, _)| allocs == 1),
        "(allocations, gradients) per transition {per_transition:?}"
    );
}

#[test]
fn a_steady_state_hmc_transition_allocates_only_its_draw_row() {
    let workload = registry_model("12cities");
    let per_transition = allocations_per_transition(&StaticHmc::new(8), workload.model());
    assert!(
        per_transition.iter().all(|&(allocs, _)| allocs == 1),
        "(allocations, gradients) per transition {per_transition:?}"
    );
}

/// `votes` evaluates a marginalised GP, and each gradient — one 4-lane
/// forward pass, `dim` is 4 — builds a kernel value per lag, a packed
/// covariance triangle and a forward-substitution vector sized from the
/// series length. They live
/// in a per-thread scratch that `VotesStats` reuses, so the budget per
/// gradient is zero and a transition allocates its draw row alone.
#[test]
fn votes_gradients_allocate_nothing_and_a_transition_only_its_draw_row() {
    const VOTES_PER_GRADIENT: u64 = 0;
    let workload = registry_model("votes");
    let model = workload.model();
    let (mut theta, mut grad) = (vec![0.1; model.dim()], vec![0.0; model.dim()]);
    model.set_inner_threads(1);
    model.ln_posterior_grad(&theta, &mut grad);
    let before = allocations();
    for step in 0..100 {
        theta[step % 4] += 1e-3;
        model.ln_posterior_grad(&theta, &mut grad);
    }
    assert_eq!(allocations() - before, 100 * VOTES_PER_GRADIENT);

    // Over whole transitions: the draw row plus the gradients' vectors.
    let per_transition = allocations_per_transition(&Nuts::default(), model);
    assert!(
        per_transition
            .iter()
            .all(|&(allocs, grads)| allocs == 1 + VOTES_PER_GRADIENT * grads),
        "(allocations, gradients) per transition {per_transition:?}"
    );
}
