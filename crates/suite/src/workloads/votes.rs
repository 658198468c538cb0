//! `votes` — Gaussian-process forecast of presidential votes
//! (StanCon 2017).
//!
//! Original data: 1976–2016 state-level presidential vote shares.
//! Synthetic substitute: a national vote-share series drawn from the
//! assumed GP with squared-exponential kernel plus observation noise.
//!
//! The marginalized GP likelihood needs a Cholesky factorization of the
//! kernel matrix *on the AD tape* — the dense vector/matrix compute
//! that gives `votes` the highest IPC in BayesSuite (Figure 1a).
//!
//! Parameterization: `θ[0] = ln ρ` (length-scale), `θ[1] = ln α`
//! (amplitude), `θ[2] = ln σ_n` (noise), `θ[3] = μ` (mean share).

use crate::meta::{Workload, WorkloadMeta};
use crate::workloads::scaled_count;
use bayes_autodiff::forward::LANES;
use bayes_autodiff::{grad_forward_into, Dual, Real};
use bayes_linalg::{Cholesky, Matrix};
use bayes_mcmc::lp;
use bayes_mcmc::{AdModel, LogDensity, ShardedDensity, StatsModel, SufficientStats};
use bayes_prob::dist::{ContinuousDist, Normal};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// Vote-share time series.
#[derive(Debug, Clone)]
pub struct VotesData {
    /// Observation times (election cycles, scaled).
    pub t: Vec<f64>,
    /// Observed vote shares (logit scale).
    pub y: Vec<f64>,
}

impl VotesData {
    /// Draws a series of length `n` from the generative GP.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let t: Vec<f64> = (0..n).map(|i| i as f64 / 4.0).collect();
        let (rho, alpha, sigma_n, mu) = (1.5, 0.35, 0.08, 0.1);
        // Exact GP draw via Cholesky of the kernel matrix.
        let mut k = Matrix::symmetric_from_fn(n, |i, j| {
            let d = (t[i] - t[j]) / rho;
            alpha * alpha * (-0.5 * d * d).exp()
        });
        k.add_diagonal(1e-8);
        let ch = Cholesky::factor(&k).expect("kernel is SPD");
        let z: Vec<f64> = (0..n)
            .map(|_| Normal::standard().sample(&mut rng))
            .collect();
        let f = ch.l_matvec(&z).expect("dims match");
        let noise = Normal::new(0.0, sigma_n).expect("valid");
        let y = f
            .iter()
            .map(|fi| mu + fi + noise.sample(&mut rng))
            .collect();
        Self { t, y }
    }

    /// Series length.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Bytes of modeled data.
    pub fn modeled_bytes(&self) -> usize {
        self.len() * 16
    }
}

/// Generic Cholesky factorization of a dense symmetric matrix stored
/// as a flat lower triangle, differentiable through the tape.
///
/// Returns `None` when a pivot is non-positive (the sampler treats the
/// point as having zero posterior density).
fn cholesky_generic<R: Real>(n: usize, a: &mut [R]) -> Option<()> {
    // a is row-major lower triangle: a[i*(i+1)/2 + j], j <= i.
    let idx = |i: usize, j: usize| i * (i + 1) / 2 + j;
    for j in 0..n {
        let mut d = a[idx(j, j)];
        for k in 0..j {
            d = d - a[idx(j, k)].square();
        }
        if d.val() <= 0.0 || !d.val().is_finite() {
            return None;
        }
        let djj = d.sqrt();
        a[idx(j, j)] = djj;
        for i in (j + 1)..n {
            let mut s = a[idx(i, j)];
            for k in 0..j {
                s = s - a[idx(i, k)] * a[idx(j, k)];
            }
            a[idx(i, j)] = s / djj;
        }
    }
    Some(())
}

/// The hyper-parameter priors, shared verbatim by the sweep density and
/// the sufficient-statistics evaluator so both paths apply identical
/// floating-point operations.
fn ln_prior_terms<R: Real>(theta: &[R]) -> R {
    lp::normal_prior(theta[0], 0.0, 1.0)
        + lp::normal_prior(theta[1], -1.0, 1.0)
        + lp::normal_prior(theta[2], -2.0, 1.0)
        + lp::normal_prior(theta[3], 0.0, 1.0)
}

/// Log-posterior of the marginalized GP regression.
#[derive(Debug, Clone)]
pub struct VotesDensity {
    data: VotesData,
}

impl VotesDensity {
    /// Wraps a dataset.
    pub fn new(data: VotesData) -> Self {
        Self { data }
    }
}

/// The marginalized GP likelihood is a single dense Cholesky solve —
/// observations are coupled through the kernel matrix, so the sweep
/// cannot be split across data shards. [`ShardedDensity`] is still
/// implemented (with one indivisible shard) so generic sharding
/// machinery and tests treat `votes` uniformly, but the workload keeps
/// a serial [`AdModel`] because sharding buys it nothing.
impl ShardedDensity for VotesDensity {
    fn dim(&self) -> usize {
        4
    }

    fn n_data(&self) -> usize {
        // One indivisible unit: the whole marginal likelihood.
        1
    }

    fn ln_prior<R: Real>(&self, theta: &[R]) -> R {
        ln_prior_terms(theta)
    }

    fn ln_likelihood_shard<R: Real>(&self, theta: &[R], range: Range<usize>) -> R {
        if range.is_empty() {
            return theta[0] * 0.0;
        }
        let n = self.data.len();
        let rho = theta[0].exp();
        let alpha2 = (theta[1] * 2.0).exp();
        let sigma_n2 = (theta[2] * 2.0).exp();
        let mu = theta[3];

        // Kernel matrix (lower triangle) on the tape.
        let mut k: Vec<R> = Vec::with_capacity(n * (n + 1) / 2);
        for i in 0..n {
            for j in 0..=i {
                let dt = self.data.t[i] - self.data.t[j];
                let z = (rho.recip() * dt).square() * (-0.5);
                let mut kij = alpha2 * z.exp();
                if i == j {
                    kij = kij + sigma_n2 + 1e-8;
                }
                k.push(kij);
            }
        }
        if cholesky_generic(n, &mut k).is_none() {
            // Outside the SPD region: reject.
            return theta[0] * 0.0 + f64::NEG_INFINITY;
        }
        let idx = |i: usize, j: usize| i * (i + 1) / 2 + j;

        // Forward solve L w = (y − μ); log-det from the diagonal.
        let mut w: Vec<R> = Vec::with_capacity(n);
        for i in 0..n {
            let mut s = -mu + self.data.y[i];
            for j in 0..i {
                s = s - k[idx(i, j)] * w[j];
            }
            w.push(s / k[idx(i, i)]);
        }
        let mut quad = theta[0] * 0.0;
        let mut ln_det_half = theta[0] * 0.0;
        for i in 0..n {
            quad = quad + w[i].square();
            ln_det_half = ln_det_half + k[idx(i, i)].ln();
        }
        quad * (-0.5) - ln_det_half - (n as f64) * LN_SQRT_2PI
    }
}

impl LogDensity for VotesDensity {
    fn dim(&self) -> usize {
        ShardedDensity::dim(self)
    }

    fn eval<R: Real>(&self, theta: &[R]) -> R {
        // Prior + the single indivisible shard, so the serial
        // [`AdModel`] path matches a [`ShardedModel`] bitwise.
        self.ln_prior(theta) + self.ln_likelihood_shard(theta, 0..1)
    }
}

/// Sufficient "statistics" of [`VotesDensity`]: the data enter the
/// marginal GP likelihood only through the fixed time-difference
/// triangle and the observation vector, both precomputed once. The
/// fast-path win here is not a smaller sweep — it is evaluating the
/// same generic Cholesky *tape-free* with 4-lane forward-mode duals
/// (dim = 4, so value + full gradient in a single pass where the tape
/// records and reverse-sweeps O(n³) nodes), and taking one kernel `exp`
/// per distinct lag rather than one per triangle entry (an evenly
/// spaced series of `n` points has `n` lags and `n(n+1)/2` entries).
#[derive(Debug, Clone)]
pub struct VotesStats {
    n: usize,
    /// The distinct differences `t[i] - t[j]` (`j ≤ i`), told apart by
    /// their bits, in order of first appearance.
    lags: Vec<f64>,
    /// Per entry of the lower triangle (row-major, `j ≤ i`), the index
    /// in `lags` of its difference — exactly the difference the sweep
    /// path recomputes per evaluation.
    lag_of: Vec<usize>,
    /// Observed shares.
    y: Vec<f64>,
}

impl VotesStats {
    /// Precomputes the kernel-input lags from `data`.
    pub fn new(data: &VotesData) -> Self {
        let n = data.len();
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut lags = Vec::new();
        let mut lag_of = Vec::with_capacity(n * (n + 1) / 2);
        for i in 0..n {
            for j in 0..=i {
                let dt = data.t[i] - data.t[j];
                let lag = *index.entry(dt.to_bits()).or_insert_with(|| {
                    lags.push(dt);
                    lags.len() - 1
                });
                lag_of.push(lag);
            }
        }
        Self {
            n,
            lags,
            lag_of,
            y: data.y.clone(),
        }
    }

    /// [`SufficientStats::ln_posterior_stats`] with the covariance
    /// triangle `k`, the solve vector `w` and the kernel value per lag
    /// `kern` supplied by the caller; whatever they held is discarded.
    fn ln_posterior_in<R: Real>(
        &self,
        theta: &[R],
        k: &mut Vec<R>,
        w: &mut Vec<R>,
        kern: &mut Vec<R>,
    ) -> R {
        // Mirrors `VotesDensity::eval` operation-for-operation: an entry
        // whose difference equals a lag's to the bit gets the value the
        // sweep path computes from it, computed once per lag, so the
        // `f64` instantiation is bit-identical to the sweep path.
        let n = self.n;
        let rho = theta[0].exp();
        let alpha2 = (theta[1] * 2.0).exp();
        let sigma_n2 = (theta[2] * 2.0).exp();
        let mu = theta[3];
        let prior = ln_prior_terms(theta);

        let inv_rho = rho.recip();
        kern.clear();
        kern.extend(self.lags.iter().map(|&dt| {
            let z = (inv_rho * dt).square() * (-0.5);
            alpha2 * z.exp()
        }));
        let idx = |i: usize, j: usize| i * (i + 1) / 2 + j;
        k.clear();
        k.extend(self.lag_of.iter().map(|&lag| kern[lag]));
        for i in 0..n {
            k[idx(i, i)] = k[idx(i, i)] + sigma_n2 + 1e-8;
        }
        if cholesky_generic(n, k).is_none() {
            return prior + (theta[0] * 0.0 + f64::NEG_INFINITY);
        }
        w.clear();
        w.reserve(n);
        for i in 0..n {
            let mut s = -mu + self.y[i];
            for j in 0..i {
                s = s - k[idx(i, j)] * w[j];
            }
            w.push(s / k[idx(i, i)]);
        }
        let mut quad = theta[0] * 0.0;
        let mut ln_det_half = theta[0] * 0.0;
        for i in 0..n {
            quad = quad + w[i].square();
            ln_det_half = ln_det_half + k[idx(i, i)].ln();
        }
        prior + (quad * (-0.5) - ln_det_half - (n as f64) * LN_SQRT_2PI)
    }
}

thread_local! {
    /// The packed covariance triangle, forward-substitution vector and
    /// kernel values per lag of a [`VotesStats`] gradient, kept so that
    /// a steady-state gradient allocates nothing. Taken out of the cell
    /// for the duration of a pass, like the forward-mode point buffer it
    /// runs beside.
    static GRAD_SCRATCH: Cell<Scratch> = const { Cell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// `(k, w, kern)` of [`VotesStats::ln_posterior_in`] for one gradient.
type Scratch = (Vec<Dual<LANES>>, Vec<Dual<LANES>>, Vec<Dual<LANES>>);

impl SufficientStats for VotesStats {
    fn dim(&self) -> usize {
        4
    }

    fn ln_posterior_stats<R: Real>(&self, theta: &[R]) -> R {
        self.ln_posterior_in(theta, &mut Vec::new(), &mut Vec::new(), &mut Vec::new())
    }

    /// The default tape-free forward-mode sweep — dim = 4 fits one
    /// 4-lane pass, sharing each kernel `exp` across all four
    /// directional derivatives and every entry of its lag — on this
    /// thread's scratch vectors.
    fn ln_posterior_grad_stats(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        grad_forward_into(theta, grad, |t| {
            let (mut k, mut w, mut kern) = GRAD_SCRATCH.take();
            let lp = self.ln_posterior_in(t, &mut k, &mut w, &mut kern);
            GRAD_SCRATCH.set((k, w, kern));
            lp
        })
    }
}

/// Builds the `votes` workload at the given data scale.
///
/// The sweep path stays on the serial [`AdModel`]: the marginalized GP
/// is one indivisible likelihood unit (see [`ShardedDensity`] impl
/// above), so inner threads cannot help it. The default evaluation
/// path runs tape-free on [`VotesStats`] instead.
pub fn workload(scale: f64, seed: u64) -> Workload {
    let n = scaled_count(36, scale, 8);
    let data = VotesData::generate(n, seed);
    let bytes = data.modeled_bytes();
    let stats = VotesStats::new(&data);
    let model = StatsModel::new(
        Box::new(AdModel::new("votes", VotesDensity::new(data))),
        stats,
    );
    let dyn_data = VotesData::generate(scaled_count(36, scale * 0.5, 8), seed);
    let dyn_stats = VotesStats::new(&dyn_data);
    let dynamics = StatsModel::new(
        Box::new(AdModel::new("votes", VotesDensity::new(dyn_data))),
        dyn_stats,
    );
    Workload::new(
        WorkloadMeta {
            name: "votes",
            scale,
            family: "Hierarchical Gaussian Processes",
            application: "Forecasting presidential votes",
            data: "1976-2016 presidential votes (synthetic GP series)",
            modeled_data_bytes: bytes,
            default_iters: 2000,
            default_chains: 4,
            code_footprint_bytes: 18 * 1024,
        },
        Box::new(model),
        Box::new(dynamics),
    )
}

/// Series length of the SBC dataset.
const SBC_POINTS: usize = 10;

/// Simulation-based calibration case whose prior and likelihood match
/// [`VotesDensity`] exactly: `y` is drawn from the same marginal
/// covariance `K + (σ_n² + 1e-8)·I` the density factorizes.
#[derive(Debug, Clone, Copy)]
pub struct Sbc;

impl crate::sbc::SbcCase for Sbc {
    fn name(&self) -> &'static str {
        "votes"
    }

    fn dim(&self) -> usize {
        4
    }

    fn tracked(&self) -> Vec<usize> {
        vec![1, 2, 3]
    }

    fn draw_prior(&self, rng: &mut StdRng) -> Vec<f64> {
        vec![
            crate::sbc::norm(rng, 0.0, 1.0),  // ln ρ
            crate::sbc::norm(rng, -1.0, 1.0), // ln α
            crate::sbc::norm(rng, -2.0, 1.0), // ln σ_n
            crate::sbc::norm(rng, 0.0, 1.0),  // μ
        ]
    }

    fn condition(&self, theta: &[f64], rng: &mut StdRng) -> Box<dyn bayes_mcmc::Model> {
        let n = SBC_POINTS;
        let t: Vec<f64> = (0..n).map(|i| i as f64 / 4.0).collect();
        let rho = theta[0].exp();
        let alpha2 = (theta[1] * 2.0).exp();
        let sigma_n2 = (theta[2] * 2.0).exp();
        let mu = theta[3];
        let mut k = Matrix::symmetric_from_fn(n, |i, j| {
            let d = (t[i] - t[j]) / rho;
            alpha2 * (-0.5 * d * d).exp()
        });
        k.add_diagonal(sigma_n2 + 1e-8);
        let ch = Cholesky::factor(&k).expect("marginal covariance is SPD");
        let z: Vec<f64> = (0..n).map(|_| crate::sbc::norm(rng, 0.0, 1.0)).collect();
        let f = ch.l_matvec(&z).expect("dims match");
        let y: Vec<f64> = f.iter().map(|fi| mu + fi).collect();
        Box::new(AdModel::new(
            "votes-sbc",
            VotesDensity::new(VotesData { t, y }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_mcmc::nuts::Nuts;
    use bayes_mcmc::{chain, Model, RunConfig};

    #[test]
    fn generation_deterministic() {
        let a = VotesData::generate(20, 1);
        let b = VotesData::generate(20, 1);
        assert_eq!(a.y, b.y);
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn generic_cholesky_matches_f64_cholesky() {
        let n = 6;
        let m = Matrix::symmetric_from_fn(n, |i, j| {
            let d = i as f64 - j as f64;
            (-0.5 * d * d / 4.0).exp() + if i == j { 0.1 } else { 0.0 }
        });
        let reference = Cholesky::factor(&m).unwrap();
        let mut flat: Vec<f64> = Vec::new();
        for i in 0..n {
            for j in 0..=i {
                flat.push(m.get(i, j));
            }
        }
        cholesky_generic(n, &mut flat).unwrap();
        let idx = |i: usize, j: usize| i * (i + 1) / 2 + j;
        for i in 0..n {
            for j in 0..=i {
                assert!((flat[idx(i, j)] - reference.l().get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn generic_cholesky_rejects_non_spd() {
        // 2×2 with negative eigenvalue: [[1, 2], [2, 1]].
        let mut flat = vec![1.0, 2.0, 1.0];
        assert!(cholesky_generic(2, &mut flat).is_none());
    }

    #[test]
    fn density_finite_at_reasonable_point() {
        let w = workload(1.0, 2);
        let lp = w.model().ln_posterior(&[0.0, -1.0, -2.0, 0.0]);
        assert!(lp.is_finite(), "lp {lp}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = AdModel::new("v", VotesDensity::new(VotesData::generate(10, 3)));
        let theta = vec![0.2, -0.8, -1.5, 0.1];
        let mut g = vec![0.0; 4];
        m.ln_posterior_grad(&theta, &mut g);
        for i in 0..4 {
            let h = 1e-6;
            let mut tp = theta.clone();
            let mut tm = theta.clone();
            tp[i] += h;
            tm[i] -= h;
            let fd = (m.ln_posterior(&tp) - m.ln_posterior(&tm)) / (2.0 * h);
            assert!(
                (g[i] - fd).abs() < 1e-3 * (1.0 + fd.abs()),
                "coord {i}: {} vs {fd}",
                g[i]
            );
        }
    }

    #[test]
    fn stats_path_value_is_bitwise_and_gradient_matches() {
        let data = VotesData::generate(12, 3);
        let sweep = AdModel::new("v", VotesDensity::new(data.clone()));
        let stats = VotesStats::new(&data);
        for theta in [
            [0.2, -0.8, -1.5, 0.1],
            [0.0, -1.0, -2.0, 0.0],
            [-0.4, -0.3, -1.8, 0.25],
        ] {
            // Same f64 operations in the same order → bit-identical.
            let lp_sweep = sweep.ln_posterior(&theta);
            let lp_stats = stats.ln_posterior_stats(&theta);
            assert_eq!(lp_sweep.to_bits(), lp_stats.to_bits(), "at {theta:?}");
            let mut g_sweep = vec![0.0; 4];
            let mut g_stats = vec![0.0; 4];
            sweep.ln_posterior_grad(&theta, &mut g_sweep);
            let v = stats.ln_posterior_grad_stats(&theta, &mut g_stats);
            assert_eq!(v.to_bits(), lp_sweep.to_bits(), "grad-path value");
            for i in 0..4 {
                assert!(
                    (g_sweep[i] - g_stats[i]).abs() < 1e-9 * (1.0 + g_sweep[i].abs()),
                    "coord {i} at {theta:?}: {} vs {}",
                    g_sweep[i],
                    g_stats[i]
                );
            }
        }
    }

    #[test]
    fn stats_path_rejects_non_spd_like_the_sweep() {
        // A huge amplitude with tiny noise drives the kernel outside
        // the numerically-SPD region on both paths identically.
        let data = VotesData::generate(12, 3);
        let sweep = AdModel::new("v", VotesDensity::new(data.clone()));
        let stats = VotesStats::new(&data);
        let theta = [12.0, 18.0, -40.0, 0.0];
        let lp_sweep = sweep.ln_posterior(&theta);
        let lp_stats = stats.ln_posterior_stats(&theta);
        assert_eq!(lp_sweep.is_finite(), lp_stats.is_finite());
        if !lp_sweep.is_finite() {
            assert_eq!(lp_sweep, f64::NEG_INFINITY);
            assert_eq!(lp_stats, f64::NEG_INFINITY);
        }
    }

    #[test]
    fn posterior_mean_share_is_recovered() {
        let w = workload(1.0, 4);
        let cfg = RunConfig::new(400).with_chains(2).with_seed(41);
        let out = chain::run(&Nuts::default(), w.dynamics_model(), &cfg);
        // μ true = 0.1; GP absorbs some, so just demand the right ballpark.
        assert!(out.mean(3).abs() < 0.6, "mu {}", out.mean(3));
        assert!(out.max_rhat() < 1.3, "rhat {}", out.max_rhat());
    }
}
