//! Platform selection (Section V-B).
//!
//! Two servers complement each other: Skylake has the fast cores,
//! Broadwell the 40 MB LLC. The scheduler sends predicted-LLC-bound
//! jobs to Broadwell and everything else to Skylake, which the paper
//! shows is worth 1.16× over running everything on the Broadwell
//! baseline.

use crate::predictor::LlcMissPredictor;
use bayes_archsim::{characterize, PerfReport, Platform, SimConfig, WorkloadSignature};

/// Where a job was placed and why.
#[derive(Debug, Clone)]
pub struct PlatformChoice {
    /// Workload name.
    pub workload: String,
    /// Chosen platform name.
    pub platform: &'static str,
    /// Predicted 4-core LLC MPKI from the static feature.
    pub predicted_mpki: f64,
    /// Simulated report on the chosen platform.
    pub chosen: PerfReport,
    /// Simulated report on the Broadwell baseline.
    pub baseline: PerfReport,
}

impl PlatformChoice {
    /// Speedup of the choice over the Broadwell baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline.time_s / self.chosen.time_s
    }
}

/// The two-platform scheduler.
#[derive(Debug, Clone)]
pub struct PlatformScheduler {
    predictor: LlcMissPredictor,
    skylake: Platform,
    broadwell: Platform,
}

impl PlatformScheduler {
    /// Creates a scheduler around a fitted predictor and the Table II
    /// platforms.
    pub fn new(predictor: LlcMissPredictor) -> Self {
        Self {
            predictor,
            skylake: Platform::skylake(),
            broadwell: Platform::broadwell(),
        }
    }

    /// Picks a platform for the job using only the static feature.
    pub fn pick(&self, data_bytes: usize) -> &Platform {
        if self.predictor.is_llc_bound(data_bytes) {
            &self.broadwell
        } else {
            &self.skylake
        }
    }

    /// Schedules a measured workload and simulates both the choice and
    /// the Broadwell baseline at the given configuration (4 cores, the
    /// user's chains/iterations by default). A job sent to Broadwell is
    /// simulated once: its choice is its baseline.
    pub fn schedule(&self, sig: &WorkloadSignature, cfg: &SimConfig) -> PlatformChoice {
        let plat = self.pick(sig.data_bytes);
        let baseline = characterize(sig, &self.broadwell, cfg);
        let chosen = if std::ptr::eq(plat, &self.broadwell) {
            baseline.clone()
        } else {
            characterize(sig, plat, cfg)
        };
        PlatformChoice {
            workload: sig.name.clone(),
            platform: plat.name,
            predicted_mpki: self.predictor.predict_mpki(sig.data_bytes),
            chosen,
            baseline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler() -> PlatformScheduler {
        PlatformScheduler::new(crate::predictor::suite())
    }

    fn toy_sig(name: &str, data_bytes: usize, tape_bytes: usize) -> WorkloadSignature {
        WorkloadSignature {
            name: name.into(),
            data_bytes,
            tape_nodes: tape_bytes / 32,
            tape_bytes,
            transcendental_nodes: tape_bytes / 640,
            code_bytes: 16 * 1024,
            dim: 16,
            leapfrogs_per_iter: 16.0,
            chain_imbalance: vec![1.0; 4],
            accept_mean: 0.8,
            default_iters: 2000,
            default_chains: 4,
        }
    }

    #[test]
    fn llc_bound_jobs_go_to_broadwell() {
        let s = scheduler();
        assert_eq!(s.pick(500_000).name, "Broadwell");
        assert_eq!(s.pick(5_000).name, "Skylake");
    }

    #[test]
    fn compute_bound_jobs_win_on_skylake() {
        let s = scheduler();
        let sig = toy_sig("small", 5_000, 256 * 1024);
        let choice = s.schedule(
            &sig,
            &SimConfig {
                cores: 4,
                chains: 4,
                iters: 100,
            },
        );
        assert_eq!(choice.platform, "Skylake");
        // Higher frequency should beat Broadwell on a cache-friendly job.
        assert!(choice.speedup() > 1.0, "speedup {}", choice.speedup());
    }

    #[test]
    fn llc_bound_jobs_tie_on_their_baseline() {
        let s = scheduler();
        let sig = toy_sig("big", 500_000, 4 * 1024 * 1024);
        let cfg = SimConfig {
            cores: 4,
            chains: 4,
            iters: 100,
        };
        let choice = s.schedule(&sig, &cfg);
        assert_eq!(choice.platform, "Broadwell");
        assert!((choice.speedup() - 1.0).abs() < 1e-9);
        // Simulated once, both reports are a fresh Broadwell simulation.
        // `{:?}` prints each f64 in the shortest form that parses back
        // to the same bits: equal text is equal bits.
        let fresh = format!("{:?}", characterize(&sig, &Platform::broadwell(), &cfg));
        assert_eq!(format!("{:?}", choice.baseline), fresh);
        assert_eq!(format!("{:?}", choice.chosen), fresh);
    }
}
