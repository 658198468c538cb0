//! Rungs of `bayes-prob`, `bayes-autodiff` and `bayes-odeint`: density
//! kernels, special functions, and one gradient of each evaluator kind.

use super::Ctx;
use crate::workloads::nuts::{SCALE, TAPE};
use bayes_mcmc::Model;
use bayes_prob::dist::{Bernoulli, ContinuousDist, DiscreteDist, Gamma, Normal, Poisson};
use bayes_prob::special;
use bayes_suite::registry::{self, REFERENCE_SEED};
use std::hint::black_box;

/// Elements per density-kernel call: 32 KiB of `f64`, L1-resident, so
/// the rung times the kernel and not the memory system.
const ELEMS: usize = 4096;
/// Kernel sweeps per timed call, so one call runs for tens of
/// microseconds and the clock's own cost disappears.
const REPS: usize = 8;

/// Isolated gradient times the sampler rungs turn into gradient shares.
pub struct Grads {
    /// One reverse-mode gradient of `tickets` (tape), normalised seconds.
    pub tape_s: f64,
    /// One fast-path gradient of `memory` (no tape), normalised seconds.
    pub stats_s: f64,
}

fn cell(name: &str) -> bayes_suite::Workload {
    registry::workload(name, SCALE, REFERENCE_SEED).expect("registry workload")
}

/// Times one gradient of `model` at a fixed point; returns normalised
/// seconds per gradient and the number of timed calls.
fn grad_s(ctx: &mut Ctx<'_>, model: &dyn Model, reps: usize) -> (f64, usize) {
    let theta = vec![0.1; model.dim()];
    let mut grad = vec![0.0; model.dim()];
    let (s, n) = ctx.time(|| {
        for _ in 0..reps {
            black_box(model.ln_posterior_grad(black_box(&theta), &mut grad));
        }
    });
    (s / reps as f64, n)
}

pub fn run(ctx: &mut Ctx<'_>) -> Grads {
    // Golden-ratio lattices: deterministic, spread over the support.
    let unit: Vec<f64> = (0..ELEMS)
        .map(|i| (i as f64 * 0.618_033_988_749_895).fract())
        .collect();
    let reals: Vec<f64> = unit.iter().map(|u| 6.0 * u - 3.0).collect();
    let positives: Vec<f64> = unit.iter().map(|u| 0.05 + 8.0 * u).collect();
    let counts: Vec<u64> = unit.iter().map(|u| (u * 12.0) as u64).collect();
    let bits: Vec<u64> = unit.iter().map(|u| u64::from(*u < 0.3)).collect();
    let per_elem = 1e9 / (ELEMS * REPS) as f64;

    let normal = Normal::new(0.3, 1.7).expect("valid normal");
    ctx.rung("prob.normal_lpdf_sum_ns_per_elem", per_elem, || {
        for _ in 0..REPS {
            black_box(normal.ln_pdf_sum(black_box(&reals)));
        }
    });
    let poisson = Poisson::new(4.2).expect("valid poisson");
    ctx.rung("prob.poisson_lpmf_sum_ns_per_elem", per_elem, || {
        for _ in 0..REPS {
            black_box(poisson.ln_pmf_sum(black_box(&counts)));
        }
    });
    let gamma = Gamma::new(2.5, 1.3).expect("valid gamma");
    ctx.rung("prob.gamma_lpdf_ns_per_elem", per_elem, || {
        for _ in 0..REPS {
            black_box(gamma.ln_pdf_sum(black_box(&positives)));
        }
    });
    let bernoulli = Bernoulli::new(0.3).expect("valid bernoulli");
    ctx.rung("prob.bernoulli_lpmf_ns_per_elem", per_elem, || {
        for _ in 0..REPS {
            black_box(bernoulli.ln_pmf_sum(black_box(&bits)));
        }
    });
    ctx.rung("prob.ln_gamma_ns", per_elem, || {
        for _ in 0..REPS {
            black_box(
                positives
                    .iter()
                    .map(|&x| special::ln_gamma(black_box(x)))
                    .sum::<f64>(),
            );
        }
    });
    ctx.rung("prob.erf_ns", per_elem, || {
        for _ in 0..REPS {
            black_box(
                reals
                    .iter()
                    .map(|&x| special::erf(black_box(x)))
                    .sum::<f64>(),
            );
        }
    });

    // Reverse mode: one gradient of `tickets`, per tape node.
    let tickets = cell("tickets");
    let model = tickets.dynamics_model();
    let nodes = model.grad_profile(&vec![0.1; model.dim()]).tape_nodes;
    let (tape_s, n) = grad_s(ctx, model, 4);
    ctx.put(
        "autodiff.grad_ns_per_node",
        tape_s * 1e9 / nodes.max(1) as f64,
        n,
    );

    // Tape nodes one gradient of each `nuts_tape` cell records: an
    // exact count, the size of the work the tape workload repeats.
    let total_nodes: usize = TAPE
        .kinds
        .iter()
        .flat_map(|k| k.iter())
        .map(|name| {
            let w = cell(name);
            let m = w.dynamics_model();
            m.grad_profile(&vec![0.1; m.dim()]).tape_nodes
        })
        .sum();
    ctx.put("autodiff.tape_nodes_per_grad", total_nodes as f64, 1);

    // What differentiating costs over evaluating, on `disease`. Both
    // timings share one bracket, so the ratio needs no normalising.
    let disease = cell("disease");
    let model = disease.dynamics_model();
    let theta = vec![0.1; model.dim()];
    let mut grad = vec![0.0; model.dim()];
    let (g, _) = ctx.time(|| {
        black_box(model.ln_posterior_grad(black_box(&theta), &mut grad));
    });
    let (v, n) = ctx.time(|| {
        black_box(model.ln_posterior(black_box(&theta)));
    });
    ctx.put("autodiff.grad_over_value_ratio", g / v, n);

    // Forward-mode duals: one fast-path gradient of `memory`.
    let memory = cell("memory");
    let model = memory.dynamics_model();
    model.set_fast_path(true);
    let (stats_s, n) = grad_s(ctx, model, 64);
    ctx.put("autodiff.forward_dual_grad_ns", stats_s * 1e9, n);

    // The ODE cell no workload carries: one gradient through the
    // integrator.
    let ode = cell("ode");
    let (ode_s, n) = grad_s(ctx, ode.dynamics_model(), 1);
    ctx.put("odeint.ode_grad_us", ode_s * 1e6, n);

    Grads { tape_s, stats_s }
}
