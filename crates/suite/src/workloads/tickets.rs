//! `tickets` — generative model of NYPD officers altering their
//! ticket writing to match departmental productivity targets
//! (Auerbach 2017).
//!
//! Original data: 2014–2015 NYC parking/moving violation tickets,
//! aggregated to officer-month counts. Synthetic substitute:
//! officer-month counts from the assumed over-dispersed negative
//! binomial with an end-of-month surge — the "target-chasing" signature
//! the study detects.
//!
//! This is the most memory-hungry BayesSuite member: the largest
//! modeled dataset, the largest AD tape, the biggest i-cache footprint,
//! and the defining LLC-bound workload of the paper (7.7 → 20 MPKI
//! from 1 to 4 cores on Skylake).
//!
//! Parameterization: `θ[0] = μ_α`, `θ[1] = ln τ`, `θ[2] = β_eom`,
//! `θ[3] = β_season`, `θ[4] = ln φ`, `θ[5..] = α_officer`.

use crate::meta::{Workload, WorkloadMeta};
use crate::workloads::scaled_count;
use bayes_autodiff::Real;
use bayes_mcmc::lp;
use bayes_mcmc::{AdModel, LogDensity, ShardedDensity, ShardedModel};
use bayes_prob::dist::{ContinuousDist, DiscreteDist, NegBinomial, Normal};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// Months of observation per officer.
pub const MONTHS: usize = 20;

/// Officer-month ticket counts with covariates.
#[derive(Debug, Clone)]
pub struct TicketsData {
    /// Tickets written in the officer-month.
    pub y: Vec<u64>,
    /// Officer index per observation.
    pub officer: Vec<usize>,
    /// End-of-month indicator (second half of month share).
    pub eom: Vec<f64>,
    /// Seasonal covariate.
    pub season: Vec<f64>,
    officers: usize,
}

impl TicketsData {
    /// Generates `officers × MONTHS` observations from the assumed
    /// target-chasing process.
    pub fn generate(officers: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha_prior = Normal::new(2.6, 0.5).expect("static params");
        let alphas: Vec<f64> = (0..officers)
            .map(|_| alpha_prior.sample(&mut rng))
            .collect();
        let (beta_eom, beta_season, phi) = (0.45, 0.2, 3.0);
        let n = officers * MONTHS;
        let mut y = Vec::with_capacity(n);
        let mut officer = Vec::with_capacity(n);
        let mut eom = Vec::with_capacity(n);
        let mut season = Vec::with_capacity(n);
        for o in 0..officers {
            for m in 0..MONTHS {
                let e = if m % 2 == 0 { 1.0 } else { 0.0 };
                let s = (2.0 * std::f64::consts::PI * m as f64 / 12.0).sin();
                let mu = (alphas[o] + beta_eom * e + beta_season * s).exp();
                let count = NegBinomial::new(mu.max(1e-9), phi)
                    .expect("positive params")
                    .sample(&mut rng);
                y.push(count);
                officer.push(o);
                eom.push(e);
                season.push(s);
            }
        }
        Self {
            y,
            officer,
            eom,
            season,
            officers,
        }
    }

    /// Observation count.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of officers (random-effect groups).
    pub fn officers(&self) -> usize {
        self.officers
    }

    /// Bytes of modeled data (count + officer id + 2 covariates).
    pub fn modeled_bytes(&self) -> usize {
        self.len() * (8 + 8 + 8 + 8)
    }
}

/// Log-posterior of the ticket-writing model.
#[derive(Debug, Clone)]
pub struct TicketsDensity {
    data: TicketsData,
}

impl TicketsDensity {
    /// Wraps a dataset.
    pub fn new(data: TicketsData) -> Self {
        Self { data }
    }
}

impl ShardedDensity for TicketsDensity {
    fn dim(&self) -> usize {
        5 + self.data.officers()
    }

    fn n_data(&self) -> usize {
        self.data.len()
    }

    fn ln_prior<R: Real>(&self, theta: &[R]) -> R {
        // Hyperpriors plus the per-officer random-effect hierarchy —
        // all data-independent, so they live in the prior term.
        let mu_alpha = theta[0];
        let tau = theta[1].exp();
        let mut acc = lp::normal_prior(theta[0], 2.0, 1.0)
            + lp::normal_prior(theta[1], -1.0, 1.0)
            + lp::normal_prior(theta[2], 0.0, 1.0)
            + lp::normal_prior(theta[3], 0.0, 1.0)
            + lp::normal_prior(theta[4], 1.0, 1.0);
        for &a in &theta[5..] {
            acc = acc + lp::normal_lpdf(a, mu_alpha, tau);
        }
        acc
    }

    fn ln_likelihood_shard<R: Real>(&self, theta: &[R], range: Range<usize>) -> R {
        let beta_eom = theta[2];
        let beta_season = theta[3];
        let nb = lp::NegBinomial2Log::new(theta[4].exp());
        let alphas = &theta[5..];
        let mut acc = theta[0] * 0.0;
        for i in range {
            let eta = alphas[self.data.officer[i]]
                + beta_eom * self.data.eom[i]
                + beta_season * self.data.season[i];
            acc = acc + nb.lpmf(self.data.y[i], eta);
        }
        acc
    }
}

impl LogDensity for TicketsDensity {
    fn dim(&self) -> usize {
        ShardedDensity::dim(self)
    }

    fn eval<R: Real>(&self, theta: &[R]) -> R {
        // Prior + full-range shard, so the serial [`AdModel`] path is
        // bit-identical to a single-shard [`ShardedModel`].
        self.ln_prior(theta) + self.ln_likelihood_shard(theta, 0..self.data.len())
    }
}

/// Builds the `tickets` workload at the given data scale. The
/// officer-month sweep is the largest likelihood in the suite, so the
/// model is sharded for data-parallel gradient evaluation.
pub fn workload(scale: f64, seed: u64) -> Workload {
    let officers = scaled_count(1200, scale, 4);
    let data = TicketsData::generate(officers, seed);
    let bytes = data.modeled_bytes();
    let model = ShardedModel::new("tickets", TicketsDensity::new(data));
    let dyn_data = TicketsData::generate(scaled_count(1200, scale * 0.02, 4), seed);
    let dynamics = ShardedModel::new("tickets", TicketsDensity::new(dyn_data));
    Workload::new(
        WorkloadMeta {
            name: "tickets",
            scale,
            family: "Logistic Regression",
            application: "Do police officers alter ticket writing to match departmental targets?",
            data: "NYC tickets 2014-2015 (synthetic officer-month counts)",
            modeled_data_bytes: bytes,
            default_iters: 4000,
            default_chains: 4,
            code_footprint_bytes: 44 * 1024,
        },
        Box::new(model),
        Box::new(dynamics),
    )
}

/// Officers in the SBC dataset.
const SBC_OFFICERS: usize = 4;

/// Simulation-based calibration case whose prior and likelihood match
/// [`TicketsDensity`] exactly.
#[derive(Debug, Clone, Copy)]
pub struct Sbc;

impl crate::sbc::SbcCase for Sbc {
    fn name(&self) -> &'static str {
        "tickets"
    }

    fn dim(&self) -> usize {
        5 + SBC_OFFICERS
    }

    fn tracked(&self) -> Vec<usize> {
        vec![0, 2, 4]
    }

    fn draw_prior(&self, rng: &mut StdRng) -> Vec<f64> {
        let mut theta = vec![
            crate::sbc::norm(rng, 2.0, 1.0),  // μ_α
            crate::sbc::norm(rng, -1.0, 1.0), // ln τ
            crate::sbc::norm(rng, 0.0, 1.0),  // β_eom
            crate::sbc::norm(rng, 0.0, 1.0),  // β_season
            crate::sbc::norm(rng, 1.0, 1.0),  // ln φ
        ];
        let (mu_alpha, tau) = (theta[0], theta[1].exp());
        for _ in 0..SBC_OFFICERS {
            theta.push(crate::sbc::norm(rng, mu_alpha, tau));
        }
        theta
    }

    fn condition(&self, theta: &[f64], rng: &mut StdRng) -> Box<dyn bayes_mcmc::Model> {
        let (beta_eom, beta_season, phi) = (theta[2], theta[3], theta[4].exp());
        let alphas = &theta[5..5 + SBC_OFFICERS];
        let n = SBC_OFFICERS * MONTHS;
        let mut y = Vec::with_capacity(n);
        let mut officer = Vec::with_capacity(n);
        let mut eom = Vec::with_capacity(n);
        let mut season = Vec::with_capacity(n);
        for o in 0..SBC_OFFICERS {
            for m in 0..MONTHS {
                let e = if m % 2 == 0 { 1.0 } else { 0.0 };
                let s = (2.0 * std::f64::consts::PI * m as f64 / 12.0).sin();
                let mu = (alphas[o] + beta_eom * e + beta_season * s).exp();
                let count = NegBinomial::new(mu.max(1e-9), phi)
                    .expect("positive params")
                    .sample(rng);
                y.push(count);
                officer.push(o);
                eom.push(e);
                season.push(s);
            }
        }
        Box::new(AdModel::new(
            "tickets-sbc",
            TicketsDensity::new(TicketsData {
                y,
                officer,
                eom,
                season,
                officers: SBC_OFFICERS,
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
    fn generation_shapes() {
        let d = TicketsData::generate(10, 1);
        assert_eq!(d.len(), 200);
        assert_eq!(d.officers(), 10);
        assert_eq!(d.modeled_bytes(), 200 * 32);
        let d2 = TicketsData::generate(10, 1);
        assert_eq!(d.y, d2.y);
    }

    #[test]
    fn end_of_month_counts_are_higher() {
        let d = TicketsData::generate(200, 2);
        let (mut eom_sum, mut eom_n, mut mid_sum, mut mid_n) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..d.len() {
            if d.eom[i] > 0.5 {
                eom_sum += d.y[i] as f64;
                eom_n += 1.0;
            } else {
                mid_sum += d.y[i] as f64;
                mid_n += 1.0;
            }
        }
        assert!(
            eom_sum / eom_n > 1.2 * (mid_sum / mid_n),
            "target-chasing surge missing"
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = AdModel::new("t", TicketsDensity::new(TicketsData::generate(5, 3)));
        let theta: Vec<f64> = (0..m.dim()).map(|i| 0.2 + 0.05 * i as f64).collect();
        let mut g = vec![0.0; m.dim()];
        m.ln_posterior_grad(&theta, &mut g);
        for i in [0usize, 1, 2, 4, 6] {
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
    fn posterior_detects_end_of_month_effect() {
        let w = workload(0.02, 7); // 20 officers
        let cfg = RunConfig::new(500).with_chains(2).with_seed(13);
        let out = chain::run(&Nuts::default(), w.dynamics_model(), &cfg);
        let beta_eom = out.mean(2);
        assert!(
            beta_eom > 0.2,
            "beta_eom {beta_eom} should be clearly positive"
        );
    }

    #[test]
    fn tickets_has_the_largest_tape_in_the_llc_bound_trio() {
        let t = workload(0.05, 1).profile();
        let a = crate::workloads::ad::workload(0.05, 1).profile();
        assert!(t.tape_bytes > a.tape_bytes);
    }
}
