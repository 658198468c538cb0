//! `survival` — Cormack–Jolly–Seber estimation of animal survival from
//! capture–recapture histories (Kéry & Schaub, *Bayesian Population
//! Analysis*).
//!
//! Original data: capture–recapture histories from the BPA book.
//! Synthetic substitute: individual histories simulated from the CJS
//! process itself (release, survive with φ_t, be recaptured with p_t).
//! One of the paper's three LLC-bound workloads: the likelihood sweeps
//! every individual history.
//!
//! Parameterization: `θ[0..T-1] = logit φ_t`, `θ[T-1..2(T-1)] =
//! logit p_{t+1}`.

use crate::meta::{Workload, WorkloadMeta};
use crate::workloads::scaled_count;
use bayes_autodiff::{Dual, Real};
use bayes_mcmc::lp;
use bayes_mcmc::{AdModel, LogDensity, ShardedDensity, ShardedModel, StatsModel, SufficientStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Capture occasions per individual.
pub const OCCASIONS: usize = 5;

/// Individual capture histories, all released at occasion 0.
#[derive(Debug, Clone)]
pub struct SurvivalData {
    /// Flattened `n × OCCASIONS` capture indicators (0/1), stored as
    /// 4-byte ints as Stan would.
    pub histories: Vec<u32>,
    n: usize,
}

impl SurvivalData {
    /// Simulates `n` individuals through the CJS process.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let phi = [0.8, 0.75, 0.7, 0.65]; // survival per interval
        let p = [0.5, 0.55, 0.5, 0.45]; // recapture per later occasion
        let mut histories = vec![0u32; n * OCCASIONS];
        for i in 0..n {
            histories[i * OCCASIONS] = 1; // released (first capture)
            let mut alive = true;
            for t in 0..OCCASIONS - 1 {
                if alive && rng.gen_range(0.0..1.0) < phi[t] {
                    if rng.gen_range(0.0..1.0) < p[t] {
                        histories[i * OCCASIONS + t + 1] = 1;
                    }
                } else {
                    alive = false;
                }
            }
        }
        Self { histories, n }
    }

    /// Number of individuals.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Capture indicator for individual `i` at occasion `t`.
    pub fn captured(&self, i: usize, t: usize) -> bool {
        self.histories[i * OCCASIONS + t] == 1
    }

    /// Occasion of last capture for individual `i`.
    pub fn last_capture(&self, i: usize) -> usize {
        (0..OCCASIONS)
            .rev()
            .find(|&t| self.captured(i, t))
            .unwrap_or(0)
    }

    /// Bytes of modeled data (4-byte capture indicators).
    pub fn modeled_bytes(&self) -> usize {
        self.histories.len() * 4
    }
}

/// The prior — logistic(0,1)-ish normals on the logit scale — shared
/// verbatim by the sweep density and the sufficient-statistics
/// evaluator so both paths apply identical floating-point operations.
fn ln_prior_terms<R: Real>(theta: &[R]) -> R {
    let mut acc = theta[0] * 0.0;
    for &th in theta {
        acc = acc + lp::normal_prior(th, 0.0, 1.5);
    }
    acc
}

/// Log-posterior of the time-varying CJS model.
#[derive(Debug, Clone)]
pub struct SurvivalDensity {
    data: SurvivalData,
}

impl SurvivalDensity {
    /// Wraps a dataset.
    pub fn new(data: SurvivalData) -> Self {
        Self { data }
    }
}

impl ShardedDensity for SurvivalDensity {
    fn dim(&self) -> usize {
        2 * (OCCASIONS - 1)
    }

    fn n_data(&self) -> usize {
        self.data.len()
    }

    fn ln_prior<R: Real>(&self, theta: &[R]) -> R {
        ln_prior_terms(theta)
    }

    fn ln_likelihood_shard<R: Real>(&self, theta: &[R], range: Range<usize>) -> R {
        let t_int = OCCASIONS - 1;
        // φ_t and p_{t+1} on the probability scale. These O(dim)
        // hoisted transforms are recomputed per shard — the bounded
        // bookkeeping slack the profile-aggregation tests allow.
        let phis: Vec<R> = (0..t_int).map(|t| theta[t].sigmoid()).collect();
        let ps: Vec<R> = (0..t_int).map(|t| theta[t_int + t].sigmoid()).collect();

        // χ_t: probability of never being seen after occasion t.
        let mut chi = [theta[0] * 0.0 + 1.0; OCCASIONS];
        for t in (0..t_int).rev() {
            chi[t] = (-phis[t] + 1.0) + phis[t] * (-ps[t] + 1.0) * chi[t + 1];
        }
        // Hoist the logarithms out of the data loop (sufficient-stat
        // style, as a production Stan model would).
        let ln_phi: Vec<R> = phis.iter().map(|p| p.ln()).collect();
        let ln_p: Vec<R> = ps.iter().map(|p| p.ln()).collect();
        let ln_1m_p: Vec<R> = ps.iter().map(|p| (-*p + 1.0).ln()).collect();
        let ln_chi: Vec<R> = chi.iter().map(|c| c.ln()).collect();

        // Per-individual likelihood — the modeled-data sweep that makes
        // this workload LLC-bound.
        let mut acc = theta[0] * 0.0;
        for i in range {
            let last = self.data.last_capture(i);
            for t in 0..last {
                // Survived interval t…
                acc = acc + ln_phi[t];
                // …and was (not) recaptured at t+1.
                if self.data.captured(i, t + 1) {
                    acc = acc + ln_p[t];
                } else {
                    acc = acc + ln_1m_p[t];
                }
            }
            // Never seen after `last`.
            acc = acc + ln_chi[last];
        }
        acc
    }
}

impl LogDensity for SurvivalDensity {
    fn dim(&self) -> usize {
        ShardedDensity::dim(self)
    }

    fn eval<R: Real>(&self, theta: &[R]) -> R {
        // Prior + full-range shard, so the serial [`AdModel`] path is
        // bit-identical to a single-shard [`ShardedModel`].
        self.ln_prior(theta) + self.ln_likelihood_shard(theta, 0..self.data.len())
    }
}

/// Sufficient statistics of [`SurvivalDensity`]: because every
/// individual shares the release occasion and the likelihood reads a
/// history only through "survived interval t", "(not) recaptured at
/// t+1", and "last seen at l", the O(n) individual sweep collapses to
/// discrete counts over `OCCASIONS` intervals — a CJS m-array in
/// disguise. All counts are reduced once at build time.
#[derive(Debug, Clone)]
pub struct SurvivalStats {
    /// `m_phi[t]`: individuals whose last capture is after `t` (each
    /// contributes one `ln φ_t` term).
    m_phi: [f64; OCCASIONS - 1],
    /// `c_p[t]`: of those, the ones recaptured at `t+1` (`ln p_t`).
    c_p: [f64; OCCASIONS - 1],
    /// `nc_p[t]`: the rest (`ln(1-p_t)`).
    nc_p: [f64; OCCASIONS - 1],
    /// `n_chi[l]`: individuals last seen at `l` (`ln χ_l`).
    n_chi: [f64; OCCASIONS],
}

impl SurvivalStats {
    /// Reduces `data` to its per-interval counts.
    pub fn new(data: &SurvivalData) -> Self {
        let mut stats = Self {
            m_phi: [0.0; OCCASIONS - 1],
            c_p: [0.0; OCCASIONS - 1],
            nc_p: [0.0; OCCASIONS - 1],
            n_chi: [0.0; OCCASIONS],
        };
        for i in 0..data.len() {
            let last = data.last_capture(i);
            for t in 0..last {
                stats.m_phi[t] += 1.0;
                if data.captured(i, t + 1) {
                    stats.c_p[t] += 1.0;
                } else {
                    stats.nc_p[t] += 1.0;
                }
            }
            stats.n_chi[last] += 1.0;
        }
        stats
    }
}

impl SufficientStats for SurvivalStats {
    fn dim(&self) -> usize {
        2 * (OCCASIONS - 1)
    }

    fn ln_posterior_stats<R: Real>(&self, theta: &[R]) -> R {
        let t_int = OCCASIONS - 1;
        // Same hoisted transforms as the sweep path…
        let phis: [R; OCCASIONS - 1] = std::array::from_fn(|t| theta[t].sigmoid());
        let ps: [R; OCCASIONS - 1] = std::array::from_fn(|t| theta[t_int + t].sigmoid());
        let mut chi = [theta[0] * 0.0 + 1.0; OCCASIONS];
        for t in (0..t_int).rev() {
            chi[t] = (-phis[t] + 1.0) + phis[t] * (-ps[t] + 1.0) * chi[t + 1];
        }
        // …but the data sweep is a count-weighted sum over intervals.
        let mut acc = ln_prior_terms(theta);
        for t in 0..t_int {
            acc = acc
                + phis[t].ln() * self.m_phi[t]
                + ps[t].ln() * self.c_p[t]
                + (-ps[t] + 1.0).ln() * self.nc_p[t];
        }
        for l in 0..OCCASIONS {
            acc = acc + chi[l].ln() * self.n_chi[l];
        }
        acc
    }

    /// One tape-free forward-mode pass over this O(OCCASIONS)
    /// evaluation with every coordinate seeded in a lane of its own, on
    /// a stack array — versus one reverse sweep over an
    /// O(n·OCCASIONS) tape. Lanes never mix, so each lane and the value
    /// are to the bit what the default 4-lane driver computes in two
    /// passes, and each transcendental runs once instead of twice.
    fn ln_posterior_grad_stats(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        const DIM: usize = 2 * (OCCASIONS - 1);
        let point: [Dual<DIM>; DIM] = std::array::from_fn(|i| Dual::seeded(theta[i], i));
        let out = self.ln_posterior_stats(&point);
        grad.copy_from_slice(&out.dot);
        out.val
    }
}

/// Builds the `survival` workload at the given data scale. Individual
/// capture histories are independent, so the sweep path shards over
/// individuals; the shared release occasion makes the likelihood a
/// function of per-interval counts, so the default evaluation path
/// runs on [`SurvivalStats`] instead.
pub fn workload(scale: f64, seed: u64) -> Workload {
    let n = scaled_count(24_000, scale, 60);
    let data = SurvivalData::generate(n, seed);
    let bytes = data.modeled_bytes();
    let stats = SurvivalStats::new(&data);
    let model = StatsModel::new(
        Box::new(ShardedModel::new("survival", SurvivalDensity::new(data))),
        stats,
    );
    let dyn_data = SurvivalData::generate(scaled_count(24_000, scale * 0.03, 60), seed);
    let dyn_stats = SurvivalStats::new(&dyn_data);
    let dynamics = StatsModel::new(
        Box::new(ShardedModel::new(
            "survival",
            SurvivalDensity::new(dyn_data),
        )),
        dyn_stats,
    );
    Workload::new(
        WorkloadMeta {
            name: "survival",
            scale,
            family: "Cormack-Jolly-Seber",
            application: "Estimating animal survival probabilities",
            data: "BPA capture-recapture histories (synthetic CJS simulation)",
            modeled_data_bytes: bytes,
            default_iters: 2000,
            default_chains: 4,
            code_footprint_bytes: 20 * 1024,
        },
        Box::new(model),
        Box::new(dynamics),
    )
}

/// Individuals in the SBC dataset.
const SBC_INDIVIDUALS: usize = 120;

/// Simulation-based calibration case whose prior and CJS process match
/// [`SurvivalDensity`] exactly.
#[derive(Debug, Clone, Copy)]
pub struct Sbc;

impl crate::sbc::SbcCase for Sbc {
    fn name(&self) -> &'static str {
        "survival"
    }

    fn dim(&self) -> usize {
        2 * (OCCASIONS - 1)
    }

    fn tracked(&self) -> Vec<usize> {
        vec![0, 1, OCCASIONS - 1]
    }

    fn draw_prior(&self, rng: &mut StdRng) -> Vec<f64> {
        (0..2 * (OCCASIONS - 1))
            .map(|_| crate::sbc::norm(rng, 0.0, 1.5))
            .collect()
    }

    fn condition(&self, theta: &[f64], rng: &mut StdRng) -> Box<dyn bayes_mcmc::Model> {
        use bayes_prob::special::sigmoid;
        let t_int = OCCASIONS - 1;
        let phi: Vec<f64> = (0..t_int).map(|t| sigmoid(theta[t])).collect();
        let p: Vec<f64> = (0..t_int).map(|t| sigmoid(theta[t_int + t])).collect();
        let n = SBC_INDIVIDUALS;
        let mut histories = vec![0u32; n * OCCASIONS];
        for i in 0..n {
            histories[i * OCCASIONS] = 1;
            let mut alive = true;
            for t in 0..t_int {
                if alive && rng.gen_range(0.0..1.0) < phi[t] {
                    if rng.gen_range(0.0..1.0) < p[t] {
                        histories[i * OCCASIONS + t + 1] = 1;
                    }
                } else {
                    alive = false;
                }
            }
        }
        Box::new(AdModel::new(
            "survival-sbc",
            SurvivalDensity::new(SurvivalData { histories, n }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_mcmc::nuts::Nuts;
    use bayes_mcmc::{chain, Model, RunConfig};
    use bayes_prob::special::sigmoid;

    #[test]
    fn generation_shapes_and_determinism() {
        let d = SurvivalData::generate(500, 1);
        assert_eq!(d.len(), 500);
        assert_eq!(d.modeled_bytes(), 500 * OCCASIONS * 4);
        assert_eq!(d.histories, SurvivalData::generate(500, 1).histories);
        // Everyone is released at occasion 0.
        assert!((0..500).all(|i| d.captured(i, 0)));
    }

    #[test]
    fn last_capture_is_consistent() {
        let d = SurvivalData::generate(200, 2);
        for i in 0..200 {
            let l = d.last_capture(i);
            assert!(d.captured(i, l));
            for t in l + 1..OCCASIONS {
                assert!(!d.captured(i, t));
            }
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = AdModel::new("s", SurvivalDensity::new(SurvivalData::generate(80, 3)));
        let theta: Vec<f64> = (0..m.dim()).map(|i| 0.3 - 0.1 * i as f64).collect();
        let mut g = vec![0.0; m.dim()];
        m.ln_posterior_grad(&theta, &mut g);
        for i in 0..m.dim() {
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
    fn posterior_recovers_first_interval_survival() {
        // 3000 individuals pin the early survival parameters down well.
        let m = AdModel::new("s", SurvivalDensity::new(SurvivalData::generate(3000, 5)));
        let cfg = RunConfig::new(500).with_chains(2).with_seed(21);
        let out = chain::run(&Nuts::default(), &m, &cfg);
        let phi0 = sigmoid(out.mean(0));
        assert!(
            (phi0 - 0.8).abs() < 0.12,
            "phi0 posterior {phi0} vs true 0.8"
        );
        // Only check mixing on the identified early-interval parameter:
        // the final (φ, p) pair of a CJS model is famously only
        // identified through its product.
        let r0 = bayes_mcmc::diag::split_rhat(&out.traces(0));
        assert!(r0 < 1.2, "rhat of phi0 {r0}");
    }

    #[test]
    fn stats_path_matches_the_sweep_path() {
        let data = SurvivalData::generate(400, 3);
        let sweep = AdModel::new("s", SurvivalDensity::new(data.clone()));
        let stats = SurvivalStats::new(&data);
        let theta: Vec<f64> = (0..sweep.dim()).map(|i| 0.3 - 0.1 * i as f64).collect();
        let lp_sweep = sweep.ln_posterior(&theta);
        let lp_stats = stats.ln_posterior_stats(&theta);
        assert!(
            (lp_sweep - lp_stats).abs() < 1e-9 * (1.0 + lp_sweep.abs()),
            "{lp_sweep} vs {lp_stats}"
        );
        let mut g_sweep = vec![0.0; sweep.dim()];
        let mut g_stats = vec![0.0; sweep.dim()];
        sweep.ln_posterior_grad(&theta, &mut g_sweep);
        stats.ln_posterior_grad_stats(&theta, &mut g_stats);
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
    fn full_tape_sits_between_ad_and_tickets() {
        let s = workload(0.05, 1).profile().tape_bytes;
        let a = crate::workloads::ad::workload(0.05, 1).profile().tape_bytes;
        let t = crate::workloads::tickets::workload(0.05, 1)
            .profile()
            .tape_bytes;
        assert!(a < s && s < t, "ad {a} < survival {s} < tickets {t}");
    }
}
