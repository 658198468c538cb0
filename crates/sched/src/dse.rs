//! Design-space exploration over cores × chains × iterations
//! (Section VI-B, Figures 6 and 7).
//!
//! Latency and power for every point come from the architecture
//! simulation; result quality (KL vs ground truth) comes from real
//! MCMC runs on the workload's dynamics model. The *energy oracle* is
//! the cheapest point with acceptable quality regardless of whether a
//! runtime could have found it (it usually uses 1–2 chains, which a
//! runtime cannot validate without ground truth — hence "oracle");
//! the *detected* points are the ones convergence detection actually
//! reaches.

use crate::elision::{window_summary, ElisionStudy, StudyConfig};
use bayes_archsim::{characterize, Platform, SimConfig, WorkloadSignature};
use bayes_mcmc::diag::kl_to_ground_truth;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::stream::{Purpose, StreamKey};
use bayes_mcmc::{chain, Model, RunConfig};

/// One explored configuration.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// Cores used.
    pub cores: usize,
    /// Chains run.
    pub chains: usize,
    /// Iterations per chain.
    pub iters: usize,
    /// Simulated end-to-end latency, seconds.
    pub latency_s: f64,
    /// Simulated package power, W.
    pub power_w: f64,
    /// Simulated energy, J.
    pub energy_j: f64,
    /// KL divergence to ground truth of the draws this configuration
    /// produces.
    pub kl: f64,
    /// Whether runtime convergence detection can reach this point.
    pub achievable: bool,
}

/// The explored space of one workload on one platform.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    /// Workload name.
    pub workload: String,
    /// Platform name.
    pub platform: &'static str,
    /// All explored points.
    pub points: Vec<DesignPoint>,
    /// Index of the original user setting (4 chains, full iterations).
    pub user: usize,
    /// Index of the energy oracle.
    pub oracle: usize,
    /// Indices of the detection-achievable points (per core count).
    pub detected: Vec<usize>,
}

/// The MCMC side of a DSE: one elision study, a ground-truth run, and
/// per-chain-count quality runs. Platform-independent, so collect it
/// once per workload and explore any number of platforms with it.
pub struct QualityProbe {
    /// The elision study at the user's chain count.
    pub study: ElisionStudy,
    /// Ground-truth `(mean, sd)` summary.
    pub truth: Vec<(f64, f64)>,
    /// Real runs per chain count.
    pub runs: Vec<(usize, bayes_mcmc::MultiChainRun)>,
    /// Iterations the detector settled on.
    pub detected_iters: usize,
    /// The user-configured iteration count.
    pub full_iters: usize,
}

impl QualityProbe {
    /// Collects all MCMC evidence for a workload's DSE.
    pub fn collect(model: &dyn Model, sig: &WorkloadSignature, seed: u64) -> Self {
        let full_iters = sig.default_iters;
        // One elision study at the user's chain count for detection.
        let study = ElisionStudy::run(
            model,
            &StudyConfig {
                chains: sig.default_chains,
                iters: full_iters,
                seed,
                check_every: (full_iters / 20).max(50),
            },
        );
        let detected_iters = study.converged_at.unwrap_or(full_iters);

        // Ground truth for KL scoring (the study's 2× convention). The
        // seed is derived, not offset: `seed + 1` was itself a valid
        // user seed, so truth runs shared streams with adjacent-seed
        // studies.
        let truth_cfg = RunConfig::new(full_iters * 2)
            .with_chains(4)
            .with_seed(StreamKey::new(seed).purpose(Purpose::GroundTruth).derive());
        let truth_run = chain::run(&Nuts::default(), model, &truth_cfg);
        let truth = window_summary(&truth_run, full_iters, full_iters * 2);

        // Real runs per chain count for quality scoring; the 4-chain
        // run is the study's own. Each chain count gets its own derived
        // stream — the old `seed + 10 + chains` offsets collided across
        // `(seed, chains)` pairs.
        let mut runs = Vec::new();
        for &chains in &[1usize, 2] {
            let cfg = RunConfig::new(full_iters).with_chains(chains).with_seed(
                StreamKey::new(seed)
                    .purpose(Purpose::Study(chains as u32))
                    .derive(),
            );
            runs.push((chains, chain::run(&Nuts::default(), model, &cfg)));
        }
        runs.push((4, study.run.clone()));

        Self {
            study,
            truth,
            runs,
            detected_iters,
            full_iters,
        }
    }
}

impl DesignSpace {
    /// Explores the space. `sig` carries the full-scale footprint for
    /// the performance simulation; `model` is the dynamics model whose
    /// real draws provide quality and convergence points.
    pub fn explore(model: &dyn Model, sig: &WorkloadSignature, plat: &Platform, seed: u64) -> Self {
        let probe = QualityProbe::collect(model, sig, seed);
        Self::explore_with(&probe, sig, plat)
    }

    /// Explores the space against an already collected [`QualityProbe`]
    /// (cheap: simulation only, no sampling).
    pub fn explore_with(probe: &QualityProbe, sig: &WorkloadSignature, plat: &Platform) -> Self {
        let full_iters = probe.full_iters;
        let detected_iters = probe.detected_iters;
        let core_grid = [1usize, 2, 4];
        let truth = &probe.truth;
        let runs = &probe.runs;

        let iter_grid = {
            let mut g = vec![
                (full_iters / 8).max(50),
                (full_iters / 4).max(50),
                full_iters / 2,
                full_iters,
            ];
            g.push(detected_iters);
            g.sort_unstable();
            g.dedup();
            g
        };

        let mut points = Vec::new();
        let mut user = 0;
        let mut detected = Vec::new();
        for &cores in &core_grid {
            for &(chains, ref run) in runs.iter() {
                for &iters in &iter_grid {
                    if iters > full_iters {
                        continue;
                    }
                    let report = characterize(
                        sig,
                        plat,
                        &SimConfig {
                            cores,
                            chains,
                            iters,
                        },
                    );
                    let kl = kl_to_ground_truth(&window_summary(run, iters / 2, iters), truth);
                    let achievable = chains == sig.default_chains && iters == detected_iters;
                    if cores == 4 && chains == sig.default_chains && iters == full_iters {
                        user = points.len();
                    }
                    if achievable {
                        detected.push(points.len());
                    }
                    points.push(DesignPoint {
                        cores,
                        chains,
                        iters,
                        latency_s: report.time_s,
                        power_w: report.power_w,
                        energy_j: report.energy_j,
                        kl,
                        achievable,
                    });
                }
            }
        }

        // Oracle: minimum energy among points with small KL divergence
        // — absolutely small (the paper's criterion) or within 2× of
        // the user point when that is itself already noisy.
        let kl_budget = (points[user].kl * 2.0).max(0.05);
        let oracle = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.kl <= kl_budget)
            .min_by(|a, b| a.1.energy_j.total_cmp(&b.1.energy_j))
            .map(|(i, _)| i)
            .unwrap_or(user);

        Self {
            workload: sig.name.clone(),
            platform: plat.name,
            points,
            user,
            oracle,
            detected,
        }
    }

    /// Energy saving of the best detected point vs the user setting.
    pub fn detected_energy_saving(&self) -> f64 {
        let user = self.points[self.user].energy_j;
        let best = self
            .detected
            .iter()
            .map(|&i| self.points[i].energy_j)
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() && user > 0.0 {
            (1.0 - best / user).max(0.0)
        } else {
            0.0
        }
    }

    /// Energy saving of the oracle vs the user setting.
    pub fn oracle_energy_saving(&self) -> f64 {
        let user = self.points[self.user].energy_j;
        (1.0 - self.points[self.oracle].energy_j / user).max(0.0)
    }

    /// Latency of the fastest detected point (the scheduler may
    /// optimize latency instead of energy).
    pub fn detected_best_latency(&self) -> f64 {
        self.detected
            .iter()
            .map(|&i| self.points[i].latency_s)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_autodiff::Real;
    use bayes_mcmc::{AdModel, LogDensity};

    struct Gauss;
    impl LogDensity for Gauss {
        fn dim(&self) -> usize {
            2
        }
        fn eval<R: Real>(&self, t: &[R]) -> R {
            -(t[0].square() + t[1].square()) * 0.5
        }
    }

    fn toy_sig() -> WorkloadSignature {
        WorkloadSignature {
            name: "toy".into(),
            data_bytes: 16 * 1024,
            tape_nodes: 4096,
            tape_bytes: 4096 * 32,
            transcendental_nodes: 256,
            code_bytes: 12 * 1024,
            dim: 2,
            leapfrogs_per_iter: 8.0,
            chain_imbalance: vec![0.9, 1.0, 1.0, 1.1],
            accept_mean: 0.8,
            default_iters: 800,
            default_chains: 4,
        }
    }

    #[test]
    fn explore_produces_marked_points() {
        let model = AdModel::new("toy", Gauss);
        let space = DesignSpace::explore(&model, &toy_sig(), &Platform::skylake(), 3);
        assert!(!space.points.is_empty());
        let user = &space.points[space.user];
        assert_eq!(user.cores, 4);
        assert_eq!(user.chains, 4);
        assert_eq!(user.iters, 800);
        assert!(!space.detected.is_empty(), "easy target should converge");
        // Detected points exist for each simulated core count.
        assert_eq!(space.detected.len(), 3);
    }

    #[test]
    fn oracle_saves_energy_over_user_setting() {
        let model = AdModel::new("toy", Gauss);
        let space = DesignSpace::explore(&model, &toy_sig(), &Platform::skylake(), 4);
        assert!(
            space.oracle_energy_saving() > 0.2,
            "{}",
            space.oracle_energy_saving()
        );
        assert!(space.detected_energy_saving() > 0.0);
        // Oracle is at least as cheap as the best detected point.
        assert!(
            space.points[space.oracle].energy_j
                <= space
                    .detected
                    .iter()
                    .map(|&i| space.points[i].energy_j)
                    .fold(f64::INFINITY, f64::min)
                    + 1e-12
        );
    }

    #[test]
    fn oracle_prefers_fewer_chains() {
        // The paper's observation: the energy oracle always uses 1–2
        // chains and few iterations.
        let model = AdModel::new("toy", Gauss);
        let space = DesignSpace::explore(&model, &toy_sig(), &Platform::skylake(), 5);
        let oracle = &space.points[space.oracle];
        assert!(oracle.chains <= 2, "oracle chains {}", oracle.chains);
        assert!(oracle.iters < 800, "oracle iters {}", oracle.iters);
    }
}
