//! The composed mechanism (Section VI-C, Figure 8): platform
//! selection + computation elision, measured against the naive
//! baseline (everything on the Broadwell server at the user's
//! configured iteration counts).

use crate::predictor;
use crate::scheduler::PlatformScheduler;
use bayes_archsim::{characterize, Platform, SimConfig, WorkloadSignature};
use bayes_suite::Workload;

/// End-to-end outcome for one workload.
#[derive(Debug, Clone)]
pub struct OverallResult {
    /// Workload name.
    pub workload: String,
    /// Platform the scheduler chose.
    pub platform: &'static str,
    /// Iterations after convergence detection.
    pub iters_used: usize,
    /// User-configured iterations.
    pub iters_configured: usize,
    /// Baseline latency (Broadwell, 4 cores, full iterations), s.
    pub baseline_time_s: f64,
    /// Optimized latency (chosen platform + elision), s.
    pub optimized_time_s: f64,
    /// Baseline energy, J.
    pub baseline_energy_j: f64,
    /// Optimized energy, J.
    pub optimized_energy_j: f64,
    /// Oracle latency (energy-oracle configuration), s.
    pub oracle_time_s: f64,
    /// Oracle energy, J.
    pub oracle_energy_j: f64,
}

impl OverallResult {
    /// Speedup of the full mechanism over the naive baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline_time_s / self.optimized_time_s
    }

    /// Oracle speedup over the baseline.
    pub fn oracle_speedup(&self) -> f64 {
        self.baseline_time_s / self.oracle_time_s
    }

    /// Energy saving fraction vs the baseline.
    pub fn energy_saving(&self) -> f64 {
        1.0 - self.optimized_energy_j / self.baseline_energy_j
    }
}

/// Probe length of the signature each job is measured with.
const PROBE_ITERS: usize = 30;
/// Seed of that probe and of the quality probe behind elision.
const SEED: u64 = 42;

/// The full pipeline: scheduling by the suite's predictor
/// ([`predictor::suite`]), and elision.
pub struct Pipeline {
    scheduler: PlatformScheduler,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    /// Builds a pipeline around the suite's predictor.
    pub fn new() -> Self {
        Self {
            scheduler: PlatformScheduler::new(predictor::suite()),
        }
    }

    /// Runs the full mechanism on one workload and reports the
    /// Figure 8 numbers.
    pub fn optimize(&self, w: &Workload) -> OverallResult {
        let sig = WorkloadSignature::measure(w, PROBE_ITERS, SEED);

        // Elision + quality evidence: one probe drives both the
        // convergence point and the DSE oracle below.
        let probe = crate::dse::QualityProbe::collect(w.dynamics_model(), &sig, SEED);
        let iters_used = probe.detected_iters;

        // Platform selection from the static feature.
        let plat = self.scheduler.pick(sig.data_bytes);
        let broadwell = Platform::broadwell();

        let baseline = characterize(
            &sig,
            &broadwell,
            &SimConfig {
                cores: 4,
                chains: sig.default_chains,
                iters: sig.default_iters,
            },
        );
        let optimized = characterize(
            &sig,
            plat,
            &SimConfig {
                cores: 4,
                chains: sig.default_chains,
                iters: iters_used,
            },
        );

        // Oracle: the energy-optimal configuration on the chosen
        // platform (Section VI-B), evaluated with the same simulation.
        let space = crate::dse::DesignSpace::explore_with(&probe, &sig, plat);
        let oracle = &space.points[space.oracle];

        OverallResult {
            workload: sig.name.clone(),
            platform: plat.name,
            iters_used,
            iters_configured: sig.default_iters,
            baseline_time_s: baseline.time_s,
            optimized_time_s: optimized.time_s,
            baseline_energy_j: baseline.energy_j,
            optimized_energy_j: optimized.energy_j,
            oracle_time_s: oracle.latency_s,
            oracle_energy_j: oracle.energy_j,
        }
    }
}

/// Geometric-free arithmetic mean speedup across results (the paper
/// reports arithmetic averages).
pub fn average_speedup(results: &[OverallResult]) -> f64 {
    results.iter().map(OverallResult::speedup).sum::<f64>() / results.len().max(1) as f64
}

/// How a core budget is divided between parallel chains and
/// data-parallel likelihood shards within each chain.
///
/// Chains are embarrassingly parallel and always claim cores first;
/// only cores left over after every runnable chain has one are handed
/// to the sharded-likelihood layer as inner threads (see
/// `bayes_mcmc::RunConfig::with_inner_threads`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSplit {
    /// Chains that run concurrently.
    pub chains_in_flight: usize,
    /// Worker threads each chain uses for shard evaluation.
    pub inner_threads: usize,
}

/// Splits `cores` between `chains` and per-chain inner threads.
///
/// With more chains than cores the chains time-share and each keeps a
/// single inner thread; with cores to spare the surplus is divided
/// evenly across the chains in flight. The split never changes sampler
/// output — inner threads are bit-deterministic — so this is purely a
/// latency decision.
pub fn core_split(cores: usize, chains: usize) -> CoreSplit {
    let cores = cores.max(1);
    let chains = chains.max(1);
    let chains_in_flight = chains.min(cores);
    CoreSplit {
        chains_in_flight,
        inner_threads: (cores / chains_in_flight).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_suite::registry;

    #[test]
    fn pipeline_speeds_up_a_small_workload() {
        // Use the cheapest workload end-to-end as a smoke test; the
        // full ten-workload sweep lives in the fig8 bench binary.
        let w = registry::workload("12cities", 1.0, 7).unwrap();
        let result = Pipeline::new().optimize(&w);
        assert_eq!(result.workload, "12cities");
        assert!(
            result.speedup() > 1.0,
            "elision alone should beat the slow baseline: {}",
            result.speedup()
        );
        assert!(result.oracle_speedup() >= result.speedup() * 0.3);
        assert!(result.iters_used <= result.iters_configured);
    }

    #[test]
    fn core_split_gives_chains_cores_first() {
        // Fewer cores than chains: time-share, no inner threads.
        assert_eq!(
            core_split(2, 4),
            CoreSplit {
                chains_in_flight: 2,
                inner_threads: 1
            }
        );
        // Equal: one core per chain.
        assert_eq!(
            core_split(4, 4),
            CoreSplit {
                chains_in_flight: 4,
                inner_threads: 1
            }
        );
        // Surplus cores become inner threads.
        assert_eq!(
            core_split(16, 4),
            CoreSplit {
                chains_in_flight: 4,
                inner_threads: 4
            }
        );
        // Uneven surplus rounds down.
        assert_eq!(
            core_split(6, 4),
            CoreSplit {
                chains_in_flight: 4,
                inner_threads: 1
            }
        );
        assert_eq!(
            core_split(10, 4),
            CoreSplit {
                chains_in_flight: 4,
                inner_threads: 2
            }
        );
    }

    #[test]
    fn core_split_clamps_degenerate_inputs() {
        assert_eq!(
            core_split(0, 0),
            CoreSplit {
                chains_in_flight: 1,
                inner_threads: 1
            }
        );
        assert_eq!(
            core_split(8, 1),
            CoreSplit {
                chains_in_flight: 1,
                inner_threads: 8
            }
        );
    }

    #[test]
    fn average_speedup_arithmetic() {
        let r = |s: f64| OverallResult {
            workload: "x".into(),
            platform: "Skylake",
            iters_used: 1,
            iters_configured: 1,
            baseline_time_s: s,
            optimized_time_s: 1.0,
            baseline_energy_j: 1.0,
            optimized_energy_j: 1.0,
            oracle_time_s: 1.0,
            oracle_energy_j: 1.0,
        };
        assert!((average_speedup(&[r(2.0), r(4.0)]) - 3.0).abs() < 1e-12);
    }
}
