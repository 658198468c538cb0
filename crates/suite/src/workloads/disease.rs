//! `disease` — monotone I-spline model of Alzheimer's disease
//! progression (Pourzanjani et al. 2018).
//!
//! Original data: ADNI biomarker trajectories. Synthetic substitute:
//! per-patient biomarker readings generated from the assumed monotone
//! progression curve with patient-specific disease-time offsets.
//!
//! The monotone curve is `f(s) = Σ_k w_k · I_k(s)` with non-negative
//! weights over an I-spline (integrated M-spline) basis, evaluated *on
//! the tape* at the latent per-patient stage `s = t + δ_p`.
//!
//! Parameterization: `θ[0..K] = ln w_k`, `θ[K] = ln σ`,
//! `θ[K+1] = ln τ_δ`, `θ[K+2..K+2+P] = δ_patient`.

use crate::meta::{Workload, WorkloadMeta};
use crate::workloads::scaled_count;
use bayes_autodiff::Real;
use bayes_mcmc::lp;
use bayes_mcmc::{AdModel, LogDensity, ShardedDensity, ShardedModel};
use bayes_prob::dist::{ContinuousDist, Normal};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// Number of I-spline basis functions.
pub const BASIS: usize = 6;
/// Visits per patient.
pub const VISITS: usize = 6;

/// Degree-2 I-spline basis on `[0, 10]` with uniform interior knots.
///
/// Each basis function is a smooth monotone ramp `0 → 1` centered on
/// its knot; this is the piecewise-quadratic I-spline family used for
/// monotone regression. Works for both `f64` and taped scalars: the
/// branch is chosen on the detached value.
pub fn ispline_basis<R: Real>(s: R, k: usize) -> R {
    let center = 10.0 * (k as f64 + 0.5) / BASIS as f64;
    let width = 10.0 / BASIS as f64;
    let x = (s - center) / width; // ramp coordinate in [-0.5, 0.5]
    let xv = x.val();
    if xv <= -0.5 {
        s * 0.0
    } else if xv >= 0.5 {
        s * 0.0 + 1.0
    } else if xv < 0.0 {
        // Quadratic ease-in: 2(x+0.5)².
        (x + 0.5).square() * 2.0
    } else {
        // Quadratic ease-out: 1 − 2(0.5−x)².
        -((-x + 0.5).square() * 2.0) + 1.0
    }
}

/// Longitudinal biomarker readings.
#[derive(Debug, Clone)]
pub struct DiseaseData {
    /// Biomarker value per visit.
    pub y: Vec<f64>,
    /// Years since study entry per visit.
    pub t: Vec<f64>,
    /// Patient index per visit.
    pub patient: Vec<usize>,
    patients: usize,
}

impl DiseaseData {
    /// Simulates `patients × VISITS` readings from the monotone model.
    pub fn generate(patients: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = [0.3, 0.5, 0.9, 1.2, 0.8, 0.4];
        let sigma = 0.15;
        let delta_prior = Normal::new(0.0, 2.0).expect("static");
        let noise = Normal::new(0.0, sigma).expect("static");
        let n = patients * VISITS;
        let mut y = Vec::with_capacity(n);
        let mut t = Vec::with_capacity(n);
        let mut patient = Vec::with_capacity(n);
        for p in 0..patients {
            let delta = delta_prior.sample(&mut rng).clamp(-4.0, 4.0);
            for v in 0..VISITS {
                let tv = v as f64 * 1.2;
                let s = (tv + delta + 3.0).clamp(0.0, 10.0);
                let f: f64 = (0..BASIS).map(|k| w[k] * ispline_basis(s, k)).sum();
                y.push(f + noise.sample(&mut rng));
                t.push(tv);
                patient.push(p);
            }
        }
        Self {
            y,
            t,
            patient,
            patients,
        }
    }

    /// Visit count.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether there are no visits.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of patients.
    pub fn patients(&self) -> usize {
        self.patients
    }

    /// Bytes of modeled data.
    pub fn modeled_bytes(&self) -> usize {
        self.len() * 24
    }
}

/// Log-posterior of the monotone progression model.
#[derive(Debug, Clone)]
pub struct DiseaseDensity {
    data: DiseaseData,
}

impl DiseaseDensity {
    /// Wraps a dataset.
    pub fn new(data: DiseaseData) -> Self {
        Self { data }
    }
}

impl ShardedDensity for DiseaseDensity {
    fn dim(&self) -> usize {
        BASIS + 2 + self.data.patients()
    }

    fn n_data(&self) -> usize {
        self.data.len()
    }

    fn ln_prior<R: Real>(&self, theta: &[R]) -> R {
        let tau = theta[BASIS + 1].exp();
        let mut acc = theta[0] * 0.0;
        for k in 0..BASIS {
            acc = acc + lp::normal_prior(theta[k], -1.0, 1.0);
        }
        acc = acc
            + lp::normal_prior(theta[BASIS], -2.0, 1.0)
            + lp::normal_prior(theta[BASIS + 1], 0.5, 0.5);
        for &d in &theta[BASIS + 2..] {
            acc = acc + lp::normal_lpdf(d, theta[0] * 0.0, tau);
        }
        acc
    }

    fn ln_likelihood_shard<R: Real>(&self, theta: &[R], range: Range<usize>) -> R {
        // ln w_k → w_k hoisted once per shard — bounded bookkeeping
        // slack relative to the serial sweep.
        let ws: [R; BASIS] = std::array::from_fn(|k| theta[k].exp());
        let normal = lp::NormalData::new(theta[BASIS].exp());
        let deltas = &theta[BASIS + 2..];
        let mut acc = theta[0] * 0.0;
        for i in range {
            let p = self.data.patient[i];
            let s = deltas[p] + (self.data.t[i] + 3.0);
            let mut f = theta[0] * 0.0;
            for (k, w) in ws.iter().enumerate() {
                f = f + *w * ispline_basis(s, k);
            }
            acc = acc + normal.lpdf(self.data.y[i], f);
        }
        acc
    }
}

impl LogDensity for DiseaseDensity {
    fn dim(&self) -> usize {
        ShardedDensity::dim(self)
    }

    fn eval<R: Real>(&self, theta: &[R]) -> R {
        // Prior + full-range shard, so the serial [`AdModel`] path is
        // bit-identical to a single-shard [`ShardedModel`].
        self.ln_prior(theta) + self.ln_likelihood_shard(theta, 0..self.data.len())
    }
}

/// Builds the `disease` workload at the given data scale. Visits are
/// conditionally independent given the latent stages, so the model is
/// sharded over the visit sweep.
pub fn workload(scale: f64, seed: u64) -> Workload {
    let patients = scaled_count(80, scale, 4);
    let data = DiseaseData::generate(patients, seed);
    let bytes = data.modeled_bytes();
    let model = ShardedModel::new("disease", DiseaseDensity::new(data));
    let dyn_data = DiseaseData::generate(scaled_count(80, scale * 0.2, 4), seed);
    let dynamics = ShardedModel::new("disease", DiseaseDensity::new(dyn_data));
    Workload::new(
        WorkloadMeta {
            name: "disease",
            scale,
            family: "Logistic Regression",
            application: "Measuring the continually worsening progression of Alzheimer's disease",
            data: "ADNI biomarkers (synthetic monotone trajectories)",
            modeled_data_bytes: bytes,
            default_iters: 4000,
            default_chains: 4,
            code_footprint_bytes: 24 * 1024,
        },
        Box::new(model),
        Box::new(dynamics),
    )
}

/// Patients in the SBC dataset.
const SBC_PATIENTS: usize = 4;

/// Simulation-based calibration case whose prior and likelihood match
/// [`DiseaseDensity`] exactly. Unlike [`DiseaseData::generate`], the
/// latent stage `s = δ_p + t + 3` is left unclamped, mirroring the
/// density (the I-spline basis saturates outside `[0, 10]` anyway).
#[derive(Debug, Clone, Copy)]
pub struct Sbc;

impl crate::sbc::SbcCase for Sbc {
    fn name(&self) -> &'static str {
        "disease"
    }

    fn dim(&self) -> usize {
        BASIS + 2 + SBC_PATIENTS
    }

    fn tracked(&self) -> Vec<usize> {
        vec![0, BASIS, BASIS + 1]
    }

    fn draw_prior(&self, rng: &mut StdRng) -> Vec<f64> {
        let mut theta: Vec<f64> = (0..BASIS)
            .map(|_| crate::sbc::norm(rng, -1.0, 1.0)) // ln w_k
            .collect();
        theta.push(crate::sbc::norm(rng, -2.0, 1.0)); // ln σ
        theta.push(crate::sbc::norm(rng, 0.5, 0.5)); // ln τ_δ
        let tau = theta[BASIS + 1].exp();
        for _ in 0..SBC_PATIENTS {
            theta.push(crate::sbc::norm(rng, 0.0, tau)); // δ_p
        }
        theta
    }

    fn condition(&self, theta: &[f64], rng: &mut StdRng) -> Box<dyn bayes_mcmc::Model> {
        let ws: Vec<f64> = (0..BASIS).map(|k| theta[k].exp()).collect();
        let sigma = theta[BASIS].exp();
        let deltas = &theta[BASIS + 2..BASIS + 2 + SBC_PATIENTS];
        let n = SBC_PATIENTS * VISITS;
        let mut y = Vec::with_capacity(n);
        let mut t = Vec::with_capacity(n);
        let mut patient = Vec::with_capacity(n);
        for p in 0..SBC_PATIENTS {
            for v in 0..VISITS {
                let tv = v as f64 * 1.2;
                let s = deltas[p] + tv + 3.0;
                let f: f64 = (0..BASIS).map(|k| ws[k] * ispline_basis(s, k)).sum();
                y.push(f + crate::sbc::norm(rng, 0.0, sigma));
                t.push(tv);
                patient.push(p);
            }
        }
        Box::new(AdModel::new(
            "disease-sbc",
            DiseaseDensity::new(DiseaseData {
                y,
                t,
                patient,
                patients: SBC_PATIENTS,
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_mcmc::Model;

    #[test]
    fn ispline_basis_is_monotone_ramp() {
        for k in 0..BASIS {
            let mut prev = -1.0;
            for i in 0..100 {
                let s = 10.0 * i as f64 / 99.0;
                let v: f64 = ispline_basis(s, k);
                assert!((0.0..=1.0 + 1e-12).contains(&v), "range at {s}");
                assert!(v >= prev - 1e-12, "monotone at {s}");
                prev = v;
            }
            // Saturates at the ends.
            let lo: f64 = ispline_basis(0.0, k);
            let hi: f64 = ispline_basis(10.0, k);
            assert!(lo < 0.55, "k={k} lo={lo}");
            assert!(hi > 0.45, "k={k} hi={hi}");
        }
    }

    #[test]
    fn ispline_is_continuous_at_breakpoints() {
        for k in 0..BASIS {
            let center = 10.0 * (k as f64 + 0.5) / BASIS as f64;
            let width = 10.0 / BASIS as f64;
            for edge in [center - width / 2.0, center, center + width / 2.0] {
                let a: f64 = ispline_basis(edge - 1e-9, k);
                let b: f64 = ispline_basis(edge + 1e-9, k);
                assert!((a - b).abs() < 1e-6, "jump at {edge} for k={k}");
            }
        }
    }

    #[test]
    fn generated_trajectories_trend_upward() {
        let d = DiseaseData::generate(50, 1);
        // Mean late visit value exceeds mean first visit value.
        let first: Vec<f64> = (0..d.len())
            .filter(|&i| d.t[i] == 0.0)
            .map(|i| d.y[i])
            .collect();
        let late: Vec<f64> = (0..d.len())
            .filter(|&i| d.t[i] > 5.0)
            .map(|i| d.y[i])
            .collect();
        let m_first = first.iter().sum::<f64>() / first.len() as f64;
        let m_late = late.iter().sum::<f64>() / late.len() as f64;
        assert!(
            m_late > m_first,
            "progression should worsen: {m_first} vs {m_late}"
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = AdModel::new("d", DiseaseDensity::new(DiseaseData::generate(5, 3)));
        let theta: Vec<f64> = (0..m.dim()).map(|i| -0.3 + 0.07 * (i % 5) as f64).collect();
        let mut g = vec![0.0; m.dim()];
        m.ln_posterior_grad(&theta, &mut g);
        for i in [0usize, 3, BASIS, BASIS + 1, BASIS + 3] {
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
    fn posterior_predicts_monotone_progression() {
        use bayes_mcmc::nuts::Nuts;
        use bayes_mcmc::{chain, RunConfig};
        // Fit a small cohort and check the posterior-mean curve is
        // increasing in stage — the model's defining constraint.
        let m = AdModel::new("d", DiseaseDensity::new(DiseaseData::generate(20, 9)));
        let cfg = RunConfig::new(400).with_chains(2).with_seed(71);
        let out = chain::run(&Nuts::default(), &m, &cfg);
        let ws: Vec<f64> = (0..BASIS).map(|k| out.mean(k).exp()).collect();
        let f = |s: f64| -> f64 { (0..BASIS).map(|k| ws[k] * ispline_basis(s, k)).sum() };
        let mut prev = f(0.0);
        for i in 1..=20 {
            let cur = f(10.0 * i as f64 / 20.0);
            assert!(cur >= prev - 1e-9, "curve must increase at step {i}");
            prev = cur;
        }
        // And the total progression amplitude is in the generative
        // ballpark (Σw = 4.1 in the generator).
        let total: f64 = ws.iter().sum();
        assert!((1.5..8.0).contains(&total), "amplitude {total}");
    }

    #[test]
    fn density_finite_at_origin() {
        let w = workload(0.5, 4);
        assert!(w
            .model()
            .ln_posterior(&vec![0.0; w.model().dim()])
            .is_finite());
    }
}
