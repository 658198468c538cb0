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
//! * **One-pass gradients** — each fast-path gradient is held to the
//!   bit against the evaluation it replaced (see the oracles at the
//!   end of this file): `survival`'s single 8-lane pass against the
//!   4-lane driver's two, `votes`' kernel per distinct lag against the
//!   sweep density's kernel per entry, `memory`'s fused value and
//!   gradient against the value-only call and its unfused loop.
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
    // gradient accumulates the value in the value-only call's operation
    // order, and the forward-mode dual primal of survival's and votes'
    // passes mirrors `impl Real for f64` op for op.
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

// ---------------------------------------------------------------------
// Bitwise oracles for the fast-path gradients. Each one-pass gradient
// must return, to the bit, the value and gradient of the evaluation it
// replaced, at every point the sampler could hand it — the random
// points of a posterior's bulk and tails as well as ±0, ±700 (where
// `exp` overflows or flushes), ±∞ and NaN in any coordinate.
// ---------------------------------------------------------------------

/// Data sizes follow the workload builders at each scale.
const ORACLE_SCALES: [f64; 2] = [0.25, 1.0];
const SPECIALS: [f64; 7] = [
    0.0,
    -0.0,
    700.0,
    -700.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// The workloads' count rule: `base × scale`, rounded, at least `min`.
fn scaled(base: usize, scale: f64, min: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(min)
}

/// 200 random points of spread 0.1–5 around the origin, then for each
/// special value the point holding it everywhere and, per coordinate, a
/// random point holding it there.
fn oracle_points(dim: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(0x0ac1e);
    let mut points: Vec<Vec<f64>> = (0..200)
        .map(|_| {
            let spread = rng.gen_range(0.1..5.0);
            (0..dim)
                .map(|_| rng.gen_range(-1.0..1.0) * spread)
                .collect()
        })
        .collect();
    for v in SPECIALS {
        points.push(vec![v; dim]);
        for c in 0..dim {
            let mut p: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            p[c] = v;
            points.push(p);
        }
    }
    points
}

/// Bit equality, except that any NaN matches any NaN. Rust leaves the
/// sign and payload of a NaN that arithmetic produces unspecified, and
/// the compiler may commute the operands of `+` and `*`: `memory`'s
/// gradient loop, before its value joined it, and the verbatim copy of
/// it below return NaNs of opposite sign in `grad[3]` at the all-NaN
/// point. Every other value, signed zeros and infinities included, must
/// match to the bit.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_bits(what: &str, theta: &[f64], (v, g): (f64, &[f64]), (v_ref, g_ref): (f64, &[f64])) {
    assert!(
        same_bits(v, v_ref),
        "{what} value at {theta:?}: {v} vs {v_ref}"
    );
    for (i, (a, b)) in g.iter().zip(g_ref).enumerate() {
        assert!(
            same_bits(*a, *b),
            "{what} grad[{i}] at {theta:?}: {a} vs {b}"
        );
    }
}

/// Checks `fast` against `oracle`, both writing a gradient of `dim`
/// coordinates and returning the value, on every oracle point.
fn check_oracle(
    what: &str,
    dim: usize,
    fast: impl Fn(&[f64], &mut [f64]) -> f64,
    oracle: impl Fn(&[f64], &mut [f64]) -> f64,
) {
    let (mut g, mut g_ref) = (vec![0.0; dim], vec![0.0; dim]);
    for theta in oracle_points(dim) {
        // Dirty buffers, unequal and not NaN: each side must overwrite
        // every coordinate.
        g.fill(f64::MAX);
        g_ref.fill(-1.0);
        let v = fast(&theta, &mut g);
        let v_ref = oracle(&theta, &mut g_ref);
        assert_bits(what, &theta, (v, &g), (v_ref, &g_ref));
    }
}

#[test]
fn survival_one_pass_gradient_is_bitwise_the_four_lane_passes() {
    use bayes_mcmc::SufficientStats;
    for scale in ORACLE_SCALES {
        let data = survival::SurvivalData::generate(scaled(24_000, scale, 60), 7);
        let stats = survival::SurvivalStats::new(&data);
        check_oracle(
            &format!("survival@{scale}"),
            stats.dim(),
            |t, g| stats.ln_posterior_grad_stats(t, g),
            |t, g| bayes_autodiff::grad_forward_into(t, g, |d| stats.ln_posterior_stats(d)),
        );
    }
}

#[test]
fn votes_per_lag_gradient_is_bitwise_the_per_entry_sweep() {
    use bayes_mcmc::{LogDensity, SufficientStats};
    for scale in ORACLE_SCALES {
        let data = votes::VotesData::generate(scaled(36, scale, 8), 7);
        let stats = votes::VotesStats::new(&data);
        let density = votes::VotesDensity::new(data);
        check_oracle(
            &format!("votes@{scale}"),
            stats.dim(),
            |t, g| stats.ln_posterior_grad_stats(t, g),
            |t, g| bayes_autodiff::grad_forward_into(t, g, |d| density.eval(d)),
        );
    }
}

#[test]
fn memory_fused_value_and_gradient_are_bitwise_their_own_passes() {
    use bayes_mcmc::SufficientStats;
    for scale in ORACLE_SCALES {
        let data = memory::MemoryData::generate(scaled(30, scale, 3), 7);
        let stats = memory::MemoryStats::new(&data);
        let reference = MemoryGradRef::new(&data);
        check_oracle(
            &format!("memory@{scale}"),
            stats.dim(),
            |t, g| stats.ln_posterior_grad_stats(t, g),
            |t, g| {
                reference.grad(t, g);
                stats.ln_posterior_stats(t)
            },
        );
    }
}

/// `MemoryStats`' reduction and the gradient loop it ran before its
/// value joined the loop, copied verbatim: the reference the fused pass
/// must reproduce to the bit.
struct MemoryGradRef {
    subjects: usize,
    groups: Vec<MemoryGroupRef>,
}

struct MemoryGroupRef {
    subject: usize,
    load: f64,
    n: f64,
    s1: f64,
    s2: f64,
    k: f64,
}

impl MemoryGradRef {
    fn new(data: &memory::MemoryData) -> Self {
        const LOAD_LEVELS: usize = 5;
        let j = data.subjects();
        let mut groups: Vec<MemoryGroupRef> = (0..j * LOAD_LEVELS)
            .map(|g| MemoryGroupRef {
                subject: g / LOAD_LEVELS,
                load: (g % LOAD_LEVELS) as f64 - 2.0,
                n: 0.0,
                s1: 0.0,
                s2: 0.0,
                k: 0.0,
            })
            .collect();
        for i in 0..data.len() {
            let level = (data.load[i] + 2.0) as usize;
            let g = &mut groups[data.subject[i] * LOAD_LEVELS + level];
            let lx = data.latency[i].ln();
            g.n += 1.0;
            g.s1 += lx;
            g.s2 += lx * lx;
            if data.correct[i] {
                g.k += 1.0;
            }
        }
        groups.retain(|g| g.n > 0.0);
        Self {
            subjects: j,
            groups,
        }
    }

    fn grad(&self, theta: &[f64], grad: &mut [f64]) {
        use bayes_prob::special::sigmoid;
        let j = self.subjects;
        let (mu_a, ln_tau_a, beta, ln_sigma, mu_d, ln_tau_d) =
            (theta[0], theta[1], theta[2], theta[3], theta[4], theta[5]);
        let inv_tau_a2 = (-2.0 * ln_tau_a).exp();
        let inv_tau_d2 = (-2.0 * ln_tau_d).exp();
        let inv_sigma2 = (-2.0 * ln_sigma).exp();
        grad.fill(0.0);
        grad[0] = -mu_a;
        grad[1] = -(ln_tau_a + 1.0);
        grad[2] = -beta / 0.25;
        grad[3] = -(ln_sigma + 1.0);
        grad[4] = -mu_d / 2.25;
        grad[5] = -(ln_tau_d + 1.0);
        for s in 0..j {
            let da = theta[6 + s] - mu_a;
            grad[6 + s] -= da * inv_tau_a2;
            grad[0] += da * inv_tau_a2;
            grad[1] += da * da * inv_tau_a2 - 1.0;
            let dd = theta[6 + j + s] - mu_d;
            grad[6 + j + s] -= dd * inv_tau_d2;
            grad[4] += dd * inv_tau_d2;
            grad[5] += dd * dd * inv_tau_d2 - 1.0;
        }
        for g in &self.groups {
            let mu = theta[6 + g.subject] + beta * g.load;
            let dmu = (g.s1 - g.n * mu) * inv_sigma2;
            grad[6 + g.subject] += dmu;
            grad[2] += dmu * g.load;
            let ssq = g.s2 - mu * (2.0 * g.s1) + g.n * mu * mu;
            grad[3] += ssq * inv_sigma2 - g.n;
            let logit = theta[6 + j + g.subject] - g.load * 0.2;
            grad[6 + j + g.subject] += g.k - g.n * sigmoid(logit);
        }
    }
}
