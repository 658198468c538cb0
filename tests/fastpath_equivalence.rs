//! Equivalence tier: the sufficient-statistics fast path must agree
//! with the data-sweep path it replaces.
//!
//! Each stats-qualified workload (`memory`, `survival`, `votes`) ships
//! two evaluators behind one [`Model`]: the original sweep (prior +
//! per-observation likelihood on a tape) and the fast path (precomputed
//! sufficient statistics, tape-free gradient). This tier pins their
//! agreement across random parameter points and scales:
//!
//! * **Values** — `votes` rebuilds the sweep expression
//!   operation-for-operation from its statistics, so its value is
//!   asserted *bitwise* against the sweep's value evaluation (the
//!   tape's value as seen by a gradient call rounds `a/b` differently
//!   and is only tolerance-close, on both paths). `memory` and
//!   `survival` refactor the reduction algebraically (grouped terms,
//!   folded constants), so their values agree to a documented 1e-9
//!   relative tolerance.
//! * **Gradients** — always tolerance-based (forward-mode duals or a
//!   fused analytic form vs. the reverse-mode tape accumulate in
//!   different orders): 1e-9 relative per coordinate, widened to 1e-6
//!   for `votes` whose gradient flows through a Cholesky factorization
//!   (see [`grad_tol`]).
//! * **Value/gradient consistency** — on the fast path, the value
//!   returned by a gradient call is bitwise the value-only call, at
//!   any inner-thread count (the fast path never shards).
//!
//! The sweep side is evaluated at `inner_threads ∈ {1, 4}` so the
//! comparison also covers the sharded reduction.

use bayes_mcmc::Model;
use bayes_suite::workloads::{memory, survival, votes};
use bayes_suite::Workload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Relative tolerance for algebraically refactored reductions. The
/// stats path reassociates sums of ~1e2–1e4 terms of magnitude ~1e1,
/// so ~1e-12 of cancellation noise per term accumulates well below
/// 1e-9 relative.
const REL_TOL: f64 = 1e-9;

/// Gradient tolerance per workload. `memory`'s fused analytic form and
/// `survival`'s short dual evaluation stay at the value tolerance;
/// `votes` differentiates through an O(n³) Cholesky factorization
/// where forward- and reverse-mode accumulation orders diverge by a
/// few ULPs per factor row, compounding near the SPD boundary.
fn grad_tol(name: &str) -> f64 {
    if name == "votes" {
        1e-6
    } else {
        REL_TOL
    }
}

fn stats_workloads() -> &'static [(&'static str, Workload)] {
    static CELL: OnceLock<Vec<(&'static str, Workload)>> = OnceLock::new();
    CELL.get_or_init(|| {
        vec![
            ("memory", memory::workload(0.25, 7)),
            ("survival", survival::workload(0.25, 7)),
            ("votes", votes::workload(0.25, 7)),
        ]
    })
}

fn eval(model: &dyn Model, theta: &[f64], fast: bool, inner: usize) -> (f64, Vec<f64>) {
    model.set_fast_path(fast);
    model.set_inner_threads(inner);
    let mut grad = vec![0.0; model.dim()];
    let value = model.ln_posterior_grad(theta, &mut grad);
    // Leave the model as the runtime default so test order can't leak
    // one case's toggle into the next.
    model.set_fast_path(true);
    (value, grad)
}

fn random_theta(dim: usize, seed: u64, scale: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..dim).map(|_| rng.gen_range(-2.0..2.0) * scale).collect()
}

fn rel_close_at(a: f64, b: f64, tol: f64, what: &str) {
    assert!(
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
        "{what}: sweep {a} vs stats {b}"
    );
}

fn rel_close(a: f64, b: f64, what: &str) {
    rel_close_at(a, b, REL_TOL, what);
}

proptest! {
    // Each case runs 3 workloads × 2 models × 2 inner-thread counts of
    // full sweep evaluations; 48 cases keeps the tier under a few
    // seconds while still exploring points far outside the typical
    // posterior bulk.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stats_and_sweep_paths_agree_on_random_points(
        seed in 0u64..1_000_000,
        scale in 0.1f64..3.0,
    ) {
        for (name, w) in stats_workloads() {
            for model in [w.model(), w.dynamics_model()] {
                let theta = random_theta(model.dim(), seed, scale);
                let (v_stats, g_stats) = eval(model, &theta, true, 1);
                for inner in [1usize, 4] {
                    let (v_sweep, g_sweep) = eval(model, &theta, false, inner);
                    model.set_fast_path(false);
                    let v_sweep_value = model.ln_posterior(&theta);
                    model.set_fast_path(true);
                    if *name == "votes" {
                        // Operation-for-operation identical expression:
                        // exact against the sweep's value evaluation,
                        // including the −∞ non-SPD rejection.
                        prop_assert_eq!(
                            v_sweep_value.to_bits(), v_stats.to_bits(),
                            "votes value differs (inner={})", inner
                        );
                        // The tape rounds its value slightly
                        // differently; only tolerance-close.
                        rel_close(v_sweep, v_stats, &format!("votes tape value (inner={inner})"));
                    } else {
                        rel_close(v_sweep_value, v_stats, &format!("{name} value (inner={inner})"));
                        rel_close(v_sweep, v_stats, &format!("{name} tape value (inner={inner})"));
                    }
                    if v_sweep.is_finite() {
                        for (i, (gs, gf)) in g_sweep.iter().zip(&g_stats).enumerate() {
                            rel_close_at(
                                *gs, *gf, grad_tol(name),
                                &format!("{name} grad[{i}] (inner={inner})"),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn fast_path_gradient_value_is_bitwise_the_value_only_call() {
    // The fast path's gradient entry points return the same f64 value
    // the value-only evaluation produces: memory's fused analytic
    // gradient re-runs the scalar evaluator, and the forward-mode dual
    // primal mirrors `impl Real for f64` op for op.
    for (name, w) in stats_workloads() {
        for model in [w.model(), w.dynamics_model()] {
            model.set_fast_path(true);
            for seed in [1u64, 2, 3] {
                let theta = random_theta(model.dim(), seed, 0.8);
                let mut grad = vec![0.0; model.dim()];
                let via_grad = model.ln_posterior_grad(&theta, &mut grad);
                let via_value = model.ln_posterior(&theta);
                assert_eq!(
                    via_grad.to_bits(),
                    via_value.to_bits(),
                    "{name}: gradient-call value drifts from value-call"
                );
            }
        }
    }
}

#[test]
fn fast_path_value_is_independent_of_inner_threads() {
    // Sufficient statistics never shard: the fast path must be exactly
    // the same bits no matter what inner-thread hint the runtime set.
    for (name, w) in stats_workloads() {
        let model = w.model();
        model.set_fast_path(true);
        let theta = random_theta(model.dim(), 17, 1.0);
        let mut g1 = vec![0.0; model.dim()];
        model.set_inner_threads(1);
        let v1 = model.ln_posterior_grad(&theta, &mut g1);
        let mut g4 = vec![0.0; model.dim()];
        model.set_inner_threads(4);
        let v4 = model.ln_posterior_grad(&theta, &mut g4);
        assert_eq!(
            v1.to_bits(),
            v4.to_bits(),
            "{name}: value depends on inner_threads"
        );
        for (a, b) in g1.iter().zip(&g4) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name}: gradient depends on inner_threads"
            );
        }
    }
}

#[test]
fn fast_path_toggle_round_trips_through_the_model_trait() {
    // The runtime drives the toggle through `&dyn Model` before
    // sampling; both directions must stick, and non-stats models must
    // report the toggle as absent without panicking.
    // Its own instance: the toggle is state of the model, and the other
    // tests here evaluate the shared instances on parallel threads.
    let w = memory::workload(0.25, 7);
    let model = w.model();
    assert!(
        model.fast_path(),
        "stats workloads default to the fast path"
    );
    model.set_fast_path(false);
    assert!(!model.fast_path());
    model.set_fast_path(true);
    assert!(model.fast_path());

    let plain = bayes_suite::workloads::twelve_cities::workload(1.0, 7);
    plain.model().set_fast_path(true); // no-op, must not panic
    assert!(
        !plain.model().fast_path(),
        "non-qualifying workloads never claim a fast path"
    );
}
