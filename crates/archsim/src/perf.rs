//! The performance and energy model: replays synthetic leapfrog
//! sweeps through the simulated cache hierarchy and scales the
//! steady-state per-leapfrog costs to a full multi-chain execution.

use crate::cache::{Hierarchy, LevelStats};
use crate::platform::Platform;
use crate::signature::WorkloadSignature;
use crate::stream::{leapfrog_stream, ChainLayout, CHAIN_SPACING};

/// Dynamic instructions charged per AD-tape node (forward record +
/// reverse accumulate).
const INSTR_PER_NODE: f64 = 6.0;
/// Branch instructions per dynamic instruction.
const BRANCH_FRACTION: f64 = 0.14;
/// Branch misprediction penalty, cycles.
const BRANCH_PENALTY: f64 = 15.0;
/// Fraction of i-cache misses hidden by the instruction prefetcher /
/// loop stream detector.
const ICACHE_PREFETCH: f64 = 0.85;
/// Exposed latency per transcendental tape node (`exp`/`ln`/`lgamma`
/// library kernels are dependency chains the OoO core cannot hide).
const TRANS_EXTRA_CYCLES: f64 = 14.0;
/// Fraction of the working set refetched per leapfrog outside the main
/// sweeps (cold/metadata/TLB traffic) — contributes bandwidth, not
/// demand-miss stalls.
const TRAFFIC_FLOOR: f64 = 0.004;

/// Execution configuration being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Cores in use (chains are distributed round-robin over them).
    pub cores: usize,
    /// Markov chains.
    pub chains: usize,
    /// Total iterations per chain.
    pub iters: usize,
}

impl SimConfig {
    /// A configuration with the workload's user defaults on `cores`
    /// cores.
    pub fn defaults_on(sig: &WorkloadSignature, cores: usize) -> Self {
        Self {
            cores,
            chains: sig.default_chains,
            iters: sig.default_iters,
        }
    }
}

/// Simulated counterpart of the paper's perf-counter report
/// (Figures 1, 2, 4) plus latency/power/energy (Figures 6–8).
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Workload name.
    pub workload: String,
    /// Platform name.
    pub platform: &'static str,
    /// Configuration simulated.
    pub config: SimConfig,
    /// Instructions per cycle (per active core).
    pub ipc: f64,
    /// Demand LLC misses per kilo-instruction.
    pub llc_mpki: f64,
    /// L2 misses per kilo-instruction (LLC accesses).
    pub l2_mpki: f64,
    /// Instruction-cache misses per kilo-instruction.
    pub icache_mpki: f64,
    /// Branch mispredictions per kilo-instruction.
    pub branch_mpki: f64,
    /// Average off-chip bandwidth, GB/s (demand + prefetch traffic).
    pub bandwidth_gbs: f64,
    /// End-to-end latency, seconds (slowest core).
    pub time_s: f64,
    /// Package power, W.
    pub power_w: f64,
    /// Energy, J.
    pub energy_j: f64,
    /// Total dynamic instructions.
    pub instructions: f64,
}

impl PerfReport {
    /// Average memory bandwidth in MB/s (Figure 1e's unit).
    pub fn bandwidth_mbs(&self) -> f64 {
        self.bandwidth_gbs * 1000.0
    }
}

/// Simulates one `(workload, platform, configuration)` point.
///
/// # Panics
///
/// Panics if `cores` is zero or exceeds the platform's core count, if
/// `chains`/`iters` is zero, or if a chain's working set exceeds the
/// 1 GiB spacing between chains ([`CHAIN_SPACING`]).
pub fn characterize(sig: &WorkloadSignature, plat: &Platform, cfg: &SimConfig) -> PerfReport {
    assert!(
        cfg.cores >= 1 && cfg.cores <= plat.cores,
        "core count out of range"
    );
    assert!(cfg.chains >= 1, "need at least one chain");
    assert!(cfg.iters >= 1, "need at least one iteration");

    // --- Cache behaviour: steady-state misses per leapfrog, with
    // `active` chains running concurrently on separate cores, each with
    // chain 0's layout `CHAIN_SPACING` further on.
    let layout = ChainLayout::for_chain(0, sig.data_bytes, sig.tape_bytes, sig.dim);
    assert!(
        layout.working_set() <= CHAIN_SPACING,
        "working set exceeds the 1 GiB chain spacing"
    );
    let active = cfg.cores.min(cfg.chains);
    let hier = Hierarchy::with_partitioning(
        active,
        plat.l1d_bytes,
        plat.l2_bytes,
        plat.llc_bytes,
        plat.llc_ways,
        plat.llc_partitioned,
    );
    // Two warmup sweeps to populate, two measured sweeps.
    const MEASURED: usize = 2;
    let mut t = LevelStats::default();
    for s in hier.replay(&leapfrog_stream(&layout), 2, MEASURED) {
        t += s;
    }
    // Average per-chain, per-leapfrog counts.
    let denom = (active * MEASURED) as f64;
    let l1m = t.l1_misses as f64 / denom;
    let l2m = t.l2_misses as f64 / denom;
    let llcm_raw = t.llc_misses as f64 / denom;

    // --- Prefetching hides most sequential demand misses; contention
    // erodes coverage (Section IV-B's scaling cliff).
    let coverage = plat.prefetch_coverage(active);
    let llcm_demand = llcm_raw * (1.0 - coverage);

    // --- Core model: cycles per leapfrog.
    let instr_lf = sig.tape_nodes as f64 * INSTR_PER_NODE;
    let icache_mpki = icache_model(sig.code_bytes, plat.l1i_bytes);
    let branch_mpki = branch_model(sig.accept_mean);
    // The L2/LLC streams are sequential sweeps, so the same prefetch
    // coverage hides most of their hit latency too. Miss overlap
    // (MLP) degrades as concurrent chains fight for DRAM banks and
    // fill buffers — the second half of the Section IV-B cliff.
    let mlp_eff = plat.mlp / (1.0 + plat.mlp_contention * (active as f64 - 1.0));
    let stall = ((l1m - l2m).max(0.0) * (1.0 - coverage) * plat.lat_l2
        + (l2m - llcm_raw).max(0.0) * (1.0 - coverage) * plat.lat_llc)
        / plat.mlp
        + llcm_demand * plat.lat_mem / mlp_eff;
    let frontend = (icache_mpki + branch_mpki * BRANCH_PENALTY / plat.lat_llc)
        * (instr_lf / 1000.0)
        * plat.lat_llc
        / plat.mlp;
    let trans_stall = sig.transcendental_nodes as f64 * TRANS_EXTRA_CYCLES;
    let cycles_lf = instr_lf / plat.ipc_base + stall + frontend + trans_stall;
    let freq_hz = plat.turbo_ghz * 1e9;
    let t_compute = cycles_lf / freq_hz;
    // Off-chip traffic per leapfrog: demand misses plus the cold/
    // metadata floor; the bandwidth ceiling shares the controllers
    // among active cores.
    let floor_lines = TRAFFIC_FLOOR * sig.working_set_bytes() as f64 / 64.0;
    let bytes_lf = (llcm_demand + floor_lines) * 64.0;
    let t_bw = bytes_lf / (plat.mem_bw_gbs * 1e9 / active as f64);
    let t_lf = t_compute.max(t_bw);

    // --- Schedule chains over cores; latency is the slowest core
    // (chain imbalance straight from the measured run).
    let mut core_time = vec![0.0f64; cfg.cores];
    let mut total_instr = 0.0;
    for c in 0..cfg.chains {
        let leapfrogs = cfg.iters as f64 * sig.leapfrogs_per_iter * sig.imbalance(c);
        core_time[c % cfg.cores] += leapfrogs * t_lf;
        total_instr += leapfrogs * instr_lf;
    }
    let time_s = core_time.iter().cloned().fold(0.0, f64::max);

    let ipc = instr_lf / (t_lf * freq_hz);
    let power_w = plat.power_w(cfg.cores.min(cfg.chains));
    // Reported bandwidth counts prefetch traffic too (as the uncore
    // counters the paper read do), clipped at the controller peak.
    let bandwidth_gbs =
        (((llcm_raw + floor_lines) * 64.0 / t_lf) * active as f64 / 1e9).min(plat.mem_bw_gbs);

    PerfReport {
        workload: sig.name.clone(),
        platform: plat.name,
        config: *cfg,
        ipc,
        llc_mpki: llcm_demand / instr_lf * 1000.0,
        l2_mpki: l2m / instr_lf * 1000.0,
        icache_mpki,
        branch_mpki,
        bandwidth_gbs,
        time_s,
        power_w,
        energy_j: power_w * time_s,
        instructions: total_instr,
    }
}

/// I-cache MPKI: near-zero when the generated model code fits L1i;
/// beyond that, a random-replacement loop residency fraction with
/// instruction-prefetch mitigation.
fn icache_model(code_bytes: usize, l1i_bytes: usize) -> f64 {
    let fetch_lines_per_ki = 1000.0 * 4.0 / 64.0; // 4-byte instructions
    if code_bytes <= l1i_bytes {
        return 0.05;
    }
    let miss_fraction = 1.0 - l1i_bytes as f64 / code_bytes as f64;
    (fetch_lines_per_ki * miss_fraction * (1.0 - ICACHE_PREFETCH)).max(0.05)
}

/// Branch MPKI from the entropy of the sampler's accept/reject
/// decisions: a well-adapted NUTS chain (accept ≈ 0.8) mispredicts a
/// bit more than a frozen one.
fn branch_model(accept_mean: f64) -> f64 {
    let p = accept_mean.clamp(1e-6, 1.0 - 1e-6);
    let entropy = -(p * p.ln() + (1.0 - p) * (1.0 - p).ln()) / std::f64::consts::LN_2;
    let mispredict_rate = 0.002 + 0.006 * entropy;
    BRANCH_FRACTION * 1000.0 * mispredict_rate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_signature(tape_bytes: usize, data_bytes: usize) -> WorkloadSignature {
        WorkloadSignature {
            name: "toy".into(),
            data_bytes,
            tape_nodes: tape_bytes / 32,
            tape_bytes,
            transcendental_nodes: tape_bytes / 320,
            code_bytes: 16 * 1024,
            dim: 16,
            leapfrogs_per_iter: 16.0,
            chain_imbalance: vec![0.9, 1.0, 1.0, 1.1],
            accept_mean: 0.8,
            default_iters: 2000,
            default_chains: 4,
        }
    }

    #[test]
    fn small_working_set_is_compute_bound() {
        let sig = toy_signature(256 * 1024, 16 * 1024);
        let plat = Platform::skylake();
        let r = characterize(
            &sig,
            &plat,
            &SimConfig {
                cores: 4,
                chains: 4,
                iters: 100,
            },
        );
        assert!(r.llc_mpki < 1.0, "mpki {}", r.llc_mpki);
        assert!(r.ipc > 1.5, "ipc {}", r.ipc);
    }

    #[test]
    fn oversized_working_set_thrashes_at_four_cores_only() {
        // 4 MB per chain: alone it fits the 8 MB Skylake LLC, four
        // chains do not — the paper's core observation.
        let sig = toy_signature(4 * 1024 * 1024, 256 * 1024);
        let plat = Platform::skylake();
        let one = characterize(
            &sig,
            &plat,
            &SimConfig {
                cores: 1,
                chains: 4,
                iters: 100,
            },
        );
        let four = characterize(
            &sig,
            &plat,
            &SimConfig {
                cores: 4,
                chains: 4,
                iters: 100,
            },
        );
        assert!(one.llc_mpki < 1.0, "1-core mpki {}", one.llc_mpki);
        assert!(four.llc_mpki > 1.0, "4-core mpki {}", four.llc_mpki);
        assert!(four.ipc < one.ipc, "contention lowers IPC");
    }

    #[test]
    fn big_llc_absorbs_what_small_llc_cannot() {
        let sig = toy_signature(4 * 1024 * 1024, 256 * 1024);
        let sky = characterize(
            &sig,
            &Platform::skylake(),
            &SimConfig {
                cores: 4,
                chains: 4,
                iters: 100,
            },
        );
        let bdw = characterize(
            &sig,
            &Platform::broadwell(),
            &SimConfig {
                cores: 4,
                chains: 4,
                iters: 100,
            },
        );
        assert!(
            bdw.llc_mpki < sky.llc_mpki / 2.0,
            "{} vs {}",
            bdw.llc_mpki,
            sky.llc_mpki
        );
    }

    #[test]
    fn speedup_saturates_when_llc_bound() {
        let bound = toy_signature(4 * 1024 * 1024, 256 * 1024);
        let free = toy_signature(256 * 1024, 16 * 1024);
        let plat = Platform::skylake();
        let speedup = |sig: &WorkloadSignature| {
            let t1 = characterize(
                sig,
                &plat,
                &SimConfig {
                    cores: 1,
                    chains: 4,
                    iters: 50,
                },
            )
            .time_s;
            let t4 = characterize(
                sig,
                &plat,
                &SimConfig {
                    cores: 4,
                    chains: 4,
                    iters: 50,
                },
            )
            .time_s;
            t1 / t4
        };
        let s_bound = speedup(&bound);
        let s_free = speedup(&free);
        assert!(s_free > 3.0, "compute-bound speedup {s_free}");
        assert!(s_bound < s_free, "LLC-bound {s_bound} < free {s_free}");
    }

    #[test]
    fn latency_tracks_slowest_chain() {
        let mut sig = toy_signature(128 * 1024, 16 * 1024);
        sig.chain_imbalance = vec![0.5, 0.5, 0.5, 2.5];
        let plat = Platform::skylake();
        let balanced = {
            let mut s = sig.clone();
            s.chain_imbalance = vec![1.0; 4];
            characterize(
                &s,
                &plat,
                &SimConfig {
                    cores: 4,
                    chains: 4,
                    iters: 100,
                },
            )
            .time_s
        };
        let skewed = characterize(
            &sig,
            &plat,
            &SimConfig {
                cores: 4,
                chains: 4,
                iters: 100,
            },
        )
        .time_s;
        assert!(
            (skewed / balanced - 2.5).abs() < 0.1,
            "ratio {}",
            skewed / balanced
        );
    }

    #[test]
    fn energy_is_power_times_time() {
        let sig = toy_signature(64 * 1024, 8 * 1024);
        let plat = Platform::broadwell();
        let r = characterize(
            &sig,
            &plat,
            &SimConfig {
                cores: 2,
                chains: 2,
                iters: 100,
            },
        );
        assert!((r.energy_j - r.power_w * r.time_s).abs() < 1e-9);
        assert!(r.power_w < plat.tdp_w);
    }

    #[test]
    fn icache_model_flags_only_oversized_code() {
        assert!(icache_model(16 * 1024, 32 * 1024) < 0.1);
        let tickets_like = icache_model(44 * 1024, 32 * 1024);
        assert!(tickets_like > 1.0, "icache mpki {tickets_like}");
        assert!(tickets_like < 10.0);
    }

    #[test]
    fn branch_model_tracks_entropy() {
        // accept 0.5 has max entropy → worst prediction.
        assert!(branch_model(0.5) > branch_model(0.95));
        assert!(branch_model(0.5) > branch_model(0.05));
        assert!(branch_model(0.8) < 2.0);
        assert!(branch_model(0.8) > 0.2);
    }

    #[test]
    #[should_panic(expected = "working set exceeds the 1 GiB chain spacing")]
    fn rejects_working_set_wider_than_chain_spacing() {
        let sig = toy_signature(1 << 30, 64 * 1024);
        let _ = characterize(
            &sig,
            &Platform::skylake(),
            &SimConfig {
                cores: 2,
                chains: 2,
                iters: 10,
            },
        );
    }

    #[test]
    #[should_panic(expected = "core count out of range")]
    fn rejects_too_many_cores() {
        let sig = toy_signature(1024, 1024);
        let plat = Platform::skylake();
        let _ = characterize(
            &sig,
            &plat,
            &SimConfig {
                cores: 5,
                chains: 4,
                iters: 10,
            },
        );
    }
}
