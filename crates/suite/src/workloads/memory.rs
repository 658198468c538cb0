//! `memory` — hierarchical Bayesian model of memory retrieval in
//! sentence comprehension (Nicenboim & Vasishth 2016), a direct-access
//! model over recall latency and accuracy.
//!
//! Original data: psycholinguistic experiments measuring recall
//! accuracy and response latency. Synthetic substitute: per-subject
//! latencies from the assumed hierarchical log-normal and accuracies
//! from the assumed hierarchical logistic component.
//!
//! Parameterization: `θ[0] = μ_α`, `θ[1] = ln τ_α`, `θ[2] = β` (load
//! effect on latency), `θ[3] = ln σ`, `θ[4] = μ_δ`, `θ[5] = ln τ_δ`,
//! `θ[6..6+J] = α_subject`, `θ[6+J..6+2J] = δ_subject`.

use crate::meta::{Workload, WorkloadMeta};
use crate::workloads::scaled_count;
use bayes_autodiff::Real;
use bayes_mcmc::lp;
use bayes_mcmc::{AdModel, LogDensity, ShardedDensity, ShardedModel, StatsModel, SufficientStats};
use bayes_prob::dist::{ContinuousDist, LogNormal, Normal};
use bayes_prob::special::{log1p_exp_and_sigmoid, sigmoid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Distinct values of the centered load covariate (`(t % 5) - 2`).
const LOAD_LEVELS: usize = 5;

/// Trials per subject.
pub const TRIALS: usize = 50;

/// Recall latencies and accuracies per subject-trial.
#[derive(Debug, Clone)]
pub struct MemoryData {
    /// Response latency (seconds).
    pub latency: Vec<f64>,
    /// Recall correct?
    pub correct: Vec<bool>,
    /// Memory-load covariate (distractor count, centered).
    pub load: Vec<f64>,
    /// Subject index per trial.
    pub subject: Vec<usize>,
    subjects: usize,
}

impl MemoryData {
    /// Simulates `subjects × TRIALS` trials from the assumed model.
    pub fn generate(subjects: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha_prior = Normal::new(-0.5, 0.3).expect("static");
        let delta_prior = Normal::new(1.0, 0.6).expect("static");
        let beta = 0.15;
        let sigma = 0.4;
        let n = subjects * TRIALS;
        let mut latency = Vec::with_capacity(n);
        let mut correct = Vec::with_capacity(n);
        let mut load = Vec::with_capacity(n);
        let mut subject = Vec::with_capacity(n);
        for s in 0..subjects {
            let alpha = alpha_prior.sample(&mut rng);
            let delta = delta_prior.sample(&mut rng);
            for t in 0..TRIALS {
                let l = (t % 5) as f64 - 2.0;
                let ln = LogNormal::new(alpha + beta * l, sigma).expect("valid");
                latency.push(ln.sample(&mut rng));
                correct.push(rng.gen_range(0.0..1.0) < sigmoid(delta - 0.2 * l));
                load.push(l);
                subject.push(s);
            }
        }
        Self {
            latency,
            correct,
            load,
            subject,
            subjects,
        }
    }

    /// Trial count.
    pub fn len(&self) -> usize {
        self.latency.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.latency.is_empty()
    }

    /// Number of subjects.
    pub fn subjects(&self) -> usize {
        self.subjects
    }

    /// Bytes of modeled data.
    pub fn modeled_bytes(&self) -> usize {
        self.len() * (8 + 8 + 8 + 8)
    }
}

/// The prior, shared verbatim by the sweep density and the
/// sufficient-statistics evaluator so both paths apply identical
/// floating-point operations to the O(dim) terms.
fn ln_prior_terms<R: Real>(theta: &[R], j: usize) -> R {
    let mu_alpha = theta[0];
    let tau_alpha = theta[1].exp();
    let mu_delta = theta[4];
    let tau_delta = theta[5].exp();
    let alphas = &theta[6..6 + j];
    let deltas = &theta[6 + j..6 + 2 * j];
    let mut acc = lp::normal_prior(theta[0], 0.0, 1.0)
        + lp::normal_prior(theta[1], -1.0, 1.0)
        + lp::normal_prior(theta[2], 0.0, 0.5)
        + lp::normal_prior(theta[3], -1.0, 1.0)
        + lp::normal_prior(theta[4], 0.0, 1.5)
        + lp::normal_prior(theta[5], -1.0, 1.0);
    for s in 0..j {
        acc = acc
            + lp::normal_lpdf(alphas[s], mu_alpha, tau_alpha)
            + lp::normal_lpdf(deltas[s], mu_delta, tau_delta);
    }
    acc
}

/// Log-posterior of the direct-access retrieval model.
#[derive(Debug, Clone)]
pub struct MemoryDensity {
    data: MemoryData,
}

impl MemoryDensity {
    /// Wraps a dataset.
    pub fn new(data: MemoryData) -> Self {
        Self { data }
    }
}

impl ShardedDensity for MemoryDensity {
    fn dim(&self) -> usize {
        6 + 2 * self.data.subjects()
    }

    fn n_data(&self) -> usize {
        self.data.len()
    }

    fn ln_prior<R: Real>(&self, theta: &[R]) -> R {
        ln_prior_terms(theta, self.data.subjects())
    }

    fn ln_likelihood_shard<R: Real>(&self, theta: &[R], range: Range<usize>) -> R {
        let j = self.data.subjects();
        let beta = theta[2];
        let sigma = theta[3].exp();
        let alphas = &theta[6..6 + j];
        let deltas = &theta[6 + j..6 + 2 * j];
        let mut acc = theta[0] * 0.0;
        for i in range {
            let s = self.data.subject[i];
            let mu = alphas[s] + beta * self.data.load[i];
            acc = acc + lp::lognormal_lpdf_data(self.data.latency[i], mu, sigma);
            let logit = deltas[s] - self.data.load[i] * 0.2;
            acc = acc + lp::bernoulli_logit_lpmf(self.data.correct[i], logit);
        }
        acc
    }
}

impl LogDensity for MemoryDensity {
    fn dim(&self) -> usize {
        ShardedDensity::dim(self)
    }

    fn eval<R: Real>(&self, theta: &[R]) -> R {
        // Prior + full-range shard, so the serial [`AdModel`] path is
        // bit-identical to a single-shard [`ShardedModel`].
        self.ln_prior(theta) + self.ln_likelihood_shard(theta, 0..self.data.len())
    }
}

/// One `(subject, load level)` cell of the reduced dataset. Both
/// likelihood components are exponential-family given the cell: the
/// log-normal latencies enter only through `(n, Σln y, Σ(ln y)²)` and
/// the Bernoulli accuracies only through the success count.
#[derive(Debug, Clone, Copy)]
struct MemoryGroup {
    subject: usize,
    load: f64,
    /// Trials in the cell.
    n: f64,
    /// `Σ ln latency`.
    s1: f64,
    /// `Σ (ln latency)²`.
    s2: f64,
    /// Correct recalls.
    k: f64,
}

/// Sufficient statistics of [`MemoryDensity`]: the `subjects × TRIALS`
/// sweep collapses to `subjects × LOAD_LEVELS` cells, reduced once at
/// build time in a fixed order (subject-major, then load level) so the
/// statistics themselves are deterministic.
#[derive(Debug, Clone)]
pub struct MemoryStats {
    subjects: usize,
    groups: Vec<MemoryGroup>,
    /// `-Σ ln latency - N·ln√2π`, the parameter-free part of the
    /// log-normal terms.
    ln_const: f64,
}

impl MemoryStats {
    /// Reduces `data` to its sufficient statistics.
    pub fn new(data: &MemoryData) -> Self {
        let j = data.subjects();
        let mut groups: Vec<MemoryGroup> = (0..j * LOAD_LEVELS)
            .map(|g| MemoryGroup {
                subject: g / LOAD_LEVELS,
                load: (g % LOAD_LEVELS) as f64 - 2.0,
                n: 0.0,
                s1: 0.0,
                s2: 0.0,
                k: 0.0,
            })
            .collect();
        let mut ln_const = 0.0;
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
            ln_const -= lx + lp::LN_SQRT_2PI;
        }
        groups.retain(|g| g.n > 0.0);
        Self {
            subjects: j,
            groups,
            ln_const,
        }
    }
}

impl SufficientStats for MemoryStats {
    fn dim(&self) -> usize {
        6 + 2 * self.subjects
    }

    fn ln_posterior_stats<R: Real>(&self, theta: &[R]) -> R {
        let j = self.subjects;
        let beta = theta[2];
        let sigma = theta[3].exp();
        let alphas = &theta[6..6 + j];
        let deltas = &theta[6 + j..6 + 2 * j];
        // Per cell: Σ lognormal_lpdf = -(S2 - 2μS1 + nμ²)/(2σ²) - n·lnσ
        // plus the data-only constant folded into `ln_const`, and
        // Σ bernoulli_logit_lpmf = k·logit - n·log1p_exp(logit).
        let half_inv_var = (sigma.square() * 2.0).recip();
        let mut acc = ln_prior_terms(theta, j) + self.ln_const;
        let mut n_total = 0.0;
        for g in &self.groups {
            let mu = alphas[g.subject] + beta * g.load;
            let ssq = mu.square() * g.n - mu * (2.0 * g.s1) + g.s2;
            acc = acc - ssq * half_inv_var;
            n_total += g.n;
            let logit = deltas[g.subject] - g.load * 0.2;
            acc = acc + logit * g.k - logit.log1p_exp() * g.n;
        }
        acc - theta[3] * n_total
    }

    fn ln_posterior_grad_stats(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        // Fused analytic gradient: normal/log-normal and Bernoulli-count
        // derivatives in closed form, one O(groups) pass, no tape and no
        // dual sweeps. The value is accumulated in the same pass, in
        // `ln_posterior_stats`' operation order, so value-only and
        // gradient calls agree bit-for-bit.
        let j = self.subjects;
        let (mu_a, ln_tau_a, beta, ln_sigma, mu_d, ln_tau_d) =
            (theta[0], theta[1], theta[2], theta[3], theta[4], theta[5]);
        let inv_tau_a2 = (-2.0 * ln_tau_a).exp();
        let inv_tau_d2 = (-2.0 * ln_tau_d).exp();
        let inv_sigma2 = (-2.0 * ln_sigma).exp();
        let half_inv_var = (ln_sigma.exp().square() * 2.0).recip();
        grad.fill(0.0);
        // Fixed-variance hyperpriors: d/dx normal_prior(x, m, sd).
        grad[0] = -mu_a;
        grad[1] = -(ln_tau_a + 1.0);
        grad[2] = -beta / 0.25;
        grad[3] = -(ln_sigma + 1.0);
        grad[4] = -mu_d / 2.25;
        grad[5] = -(ln_tau_d + 1.0);
        for s in 0..j {
            // Hierarchical normals with log-scale parameters τ = e^θ:
            // d/dlnτ of -(Δ²/2)e^(-2lnτ) - lnτ is Δ²e^(-2lnτ) - 1.
            let da = theta[6 + s] - mu_a;
            grad[6 + s] -= da * inv_tau_a2;
            grad[0] += da * inv_tau_a2;
            grad[1] += da * da * inv_tau_a2 - 1.0;
            let dd = theta[6 + j + s] - mu_d;
            grad[6 + j + s] -= dd * inv_tau_d2;
            grad[4] += dd * inv_tau_d2;
            grad[5] += dd * dd * inv_tau_d2 - 1.0;
        }
        let mut acc = ln_prior_terms(theta, j) + self.ln_const;
        let mut n_total = 0.0;
        for g in &self.groups {
            let mu = theta[6 + g.subject] + beta * g.load;
            let mu_s1 = mu * (2.0 * g.s1);
            acc -= (mu.square() * g.n - mu_s1 + g.s2) * half_inv_var;
            n_total += g.n;
            // d/dμ of -(S2 - 2μS1 + nμ²)/(2σ²) = (S1 - nμ)/σ².
            let dmu = (g.s1 - g.n * mu) * inv_sigma2;
            grad[6 + g.subject] += dmu;
            grad[2] += dmu * g.load;
            let ssq = g.s2 - mu_s1 + g.n * mu * mu;
            grad[3] += ssq * inv_sigma2 - g.n;
            let logit = theta[6 + j + g.subject] - g.load * 0.2;
            // d/dlogit of k·logit - n·log1p_exp(logit) is k - n·σ(logit).
            let (log1p_exp, sigmoid) = log1p_exp_and_sigmoid(logit);
            acc = acc + logit * g.k - log1p_exp * g.n;
            grad[6 + j + g.subject] += g.k - g.n * sigmoid;
        }
        acc - ln_sigma * n_total
    }
}

/// Builds the `memory` workload at the given data scale. Trials are
/// conditionally independent given the subject effects, so the sweep
/// path shards over trials; both likelihood components are
/// exponential-family given the `(subject, load)` cell, so the default
/// evaluation path runs on [`MemoryStats`] instead.
pub fn workload(scale: f64, seed: u64) -> Workload {
    let subjects = scaled_count(30, scale, 3);
    let data = MemoryData::generate(subjects, seed);
    let bytes = data.modeled_bytes();
    let stats = MemoryStats::new(&data);
    let model = StatsModel::new(
        Box::new(ShardedModel::new("memory", MemoryDensity::new(data))),
        stats,
    );
    let dyn_data = MemoryData::generate(scaled_count(30, scale * 0.3, 3), seed);
    let dyn_stats = MemoryStats::new(&dyn_data);
    let dynamics = StatsModel::new(
        Box::new(ShardedModel::new("memory", MemoryDensity::new(dyn_data))),
        dyn_stats,
    );
    Workload::new(
        WorkloadMeta {
            name: "memory",
            scale,
            family: "Hierarchical Bayesian",
            application: "Modeling memory retrieval in sentence comprehension",
            data: "recall accuracy/latency experiments (synthetic trials)",
            modeled_data_bytes: bytes,
            default_iters: 4000,
            default_chains: 4,
            code_footprint_bytes: 22 * 1024,
        },
        Box::new(model),
        Box::new(dynamics),
    )
}

/// Subjects in the SBC dataset.
const SBC_SUBJECTS: usize = 3;

/// Simulation-based calibration case whose prior and likelihood match
/// [`MemoryDensity`] exactly (latencies are drawn as
/// `exp(μ + σ·z)`, the log-normal the density scores).
#[derive(Debug, Clone, Copy)]
pub struct Sbc;

impl crate::sbc::SbcCase for Sbc {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn dim(&self) -> usize {
        6 + 2 * SBC_SUBJECTS
    }

    fn tracked(&self) -> Vec<usize> {
        vec![0, 2, 3]
    }

    fn draw_prior(&self, rng: &mut StdRng) -> Vec<f64> {
        let mut theta = vec![
            crate::sbc::norm(rng, 0.0, 1.0),  // μ_α
            crate::sbc::norm(rng, -1.0, 1.0), // ln τ_α
            crate::sbc::norm(rng, 0.0, 0.5),  // β
            crate::sbc::norm(rng, -1.0, 1.0), // ln σ
            crate::sbc::norm(rng, 0.0, 1.5),  // μ_δ
            crate::sbc::norm(rng, -1.0, 1.0), // ln τ_δ
        ];
        let (mu_a, tau_a) = (theta[0], theta[1].exp());
        let (mu_d, tau_d) = (theta[4], theta[5].exp());
        for _ in 0..SBC_SUBJECTS {
            theta.push(crate::sbc::norm(rng, mu_a, tau_a));
        }
        for _ in 0..SBC_SUBJECTS {
            theta.push(crate::sbc::norm(rng, mu_d, tau_d));
        }
        theta
    }

    fn condition(&self, theta: &[f64], rng: &mut StdRng) -> Box<dyn bayes_mcmc::Model> {
        let beta = theta[2];
        let sigma = theta[3].exp();
        let alphas = &theta[6..6 + SBC_SUBJECTS];
        let deltas = &theta[6 + SBC_SUBJECTS..6 + 2 * SBC_SUBJECTS];
        let n = SBC_SUBJECTS * TRIALS;
        let mut latency = Vec::with_capacity(n);
        let mut correct = Vec::with_capacity(n);
        let mut load = Vec::with_capacity(n);
        let mut subject = Vec::with_capacity(n);
        for s in 0..SBC_SUBJECTS {
            for t in 0..TRIALS {
                let l = (t % 5) as f64 - 2.0;
                let mu = alphas[s] + beta * l;
                latency.push((mu + crate::sbc::norm(rng, 0.0, sigma)).exp());
                correct.push(rng.gen_range(0.0..1.0) < sigmoid(deltas[s] - 0.2 * l));
                load.push(l);
                subject.push(s);
            }
        }
        Box::new(AdModel::new(
            "memory-sbc",
            MemoryDensity::new(MemoryData {
                latency,
                correct,
                load,
                subject,
                subjects: SBC_SUBJECTS,
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_mcmc::nuts::Nuts;
    use bayes_mcmc::{chain, Model, RunConfig};

    #[test]
    fn generation_shapes_and_determinism() {
        let d = MemoryData::generate(5, 1);
        assert_eq!(d.len(), 250);
        assert_eq!(d.subjects(), 5);
        assert!(d.latency.iter().all(|&l| l > 0.0));
        assert_eq!(d.latency, MemoryData::generate(5, 1).latency);
    }

    #[test]
    fn load_slows_recall_in_generated_data() {
        let d = MemoryData::generate(60, 2);
        let mean_at = |lv: f64| {
            let xs: Vec<f64> = (0..d.len())
                .filter(|&i| d.load[i] == lv)
                .map(|i| d.latency[i])
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(mean_at(2.0) > mean_at(-2.0), "higher load should be slower");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = AdModel::new("m", MemoryDensity::new(MemoryData::generate(4, 3)));
        let theta: Vec<f64> = (0..m.dim()).map(|i| 0.1 * ((i % 7) as f64 - 3.0)).collect();
        let mut g = vec![0.0; m.dim()];
        m.ln_posterior_grad(&theta, &mut g);
        for i in [0usize, 1, 2, 3, 4, 5, 8, 12] {
            let h = 1e-6;
            let mut tp = theta.clone();
            let mut tm = theta.clone();
            tp[i] += h;
            tm[i] -= h;
            let fd = (m.ln_posterior(&tp) - m.ln_posterior(&tm)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-4 * (1.0 + fd.abs()), "coord {i}");
        }
    }

    #[test]
    fn posterior_recovers_positive_load_effect() {
        let w = workload(0.3, 5);
        let cfg = RunConfig::new(400).with_chains(2).with_seed(31);
        let out = chain::run(&Nuts::default(), w.dynamics_model(), &cfg);
        let beta = out.mean(2);
        assert!(beta > 0.05, "beta {beta} should be positive");
    }

    #[test]
    fn stats_path_matches_the_sweep_path() {
        use bayes_mcmc::SufficientStats;
        let data = MemoryData::generate(4, 3);
        let sweep = AdModel::new("m", MemoryDensity::new(data.clone()));
        let stats = MemoryStats::new(&data);
        let theta: Vec<f64> = (0..sweep.dim())
            .map(|i| 0.1 * ((i % 7) as f64 - 3.0))
            .collect();
        let lp_sweep = sweep.ln_posterior(&theta);
        let lp_stats = stats.ln_posterior_stats(&theta);
        assert!(
            (lp_sweep - lp_stats).abs() < 1e-9 * (1.0 + lp_sweep.abs()),
            "{lp_sweep} vs {lp_stats}"
        );
        let mut g_sweep = vec![0.0; sweep.dim()];
        let mut g_stats = vec![0.0; sweep.dim()];
        sweep.ln_posterior_grad(&theta, &mut g_sweep);
        let v = stats.ln_posterior_grad_stats(&theta, &mut g_stats);
        assert_eq!(v.to_bits(), lp_stats.to_bits(), "grad path value drifted");
        for i in 0..sweep.dim() {
            assert!(
                (g_sweep[i] - g_stats[i]).abs() < 1e-9 * (1.0 + g_sweep[i].abs()),
                "coord {i}: {} vs {}",
                g_sweep[i],
                g_stats[i]
            );
        }
    }

    #[test]
    fn workload_model_toggles_between_paths() {
        let w = workload(0.1, 7);
        let m = w.model();
        assert!(m.fast_path(), "fast path must be the default");
        let theta = vec![0.05; m.dim()];
        let fast = m.ln_posterior(&theta);
        m.set_fast_path(false);
        assert!(!m.fast_path());
        let sweep = m.ln_posterior(&theta);
        m.set_fast_path(true);
        assert!(
            (fast - sweep).abs() < 1e-9 * (1.0 + sweep.abs()),
            "{fast} vs {sweep}"
        );
    }

    #[test]
    fn tape_is_below_the_llc_bound_trio() {
        let m = workload(1.0, 1).profile().tape_bytes;
        let a = crate::workloads::ad::workload(1.0, 1).profile().tape_bytes;
        assert!(m < a, "memory {m} should be below ad {a}");
    }
}
