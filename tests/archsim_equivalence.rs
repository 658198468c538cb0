//! `characterize` against the cache replay it replaced, to the bit.
//!
//! The reference is written here from the public API alone: one
//! `leapfrog_stream` per chain, the streams interleaved round-robin in
//! 32-access turns, every access routed through `Hierarchy::access`,
//! two warm-up passes and two measured ones. `Hierarchy::replay`
//! simulates each core's private levels once, feeds only the shared
//! LLC per core, and reuses a pass whose private state repeats; no
//! count and no report field may move.
//!
//! The performance model downstream of the counts is copied from
//! `perf.rs` as it stood beside the per-access replay, so a report that
//! differs in any field names the replay, not the model.

use bayes_archsim::cache::{Hierarchy, LevelStats, CHUNK};
use bayes_archsim::stream::{leapfrog_stream, ChainLayout};
use bayes_archsim::{characterize, PerfReport, Platform, SimConfig, WorkloadSignature};
use bayes_suite::registry::{self, REFERENCE_SEED};
use proptest::prelude::*;

/// Per-core counts of the per-access replay: each core's stream in
/// turns of `CHUNK`, `warmup` passes, statistics cleared, `measured`
/// passes.
fn per_access(
    mut h: Hierarchy,
    streams: &[Vec<u64>],
    warmup: usize,
    measured: usize,
) -> Vec<LevelStats> {
    let len = streams.iter().map(Vec::len).max().unwrap_or(0);
    for pass in 0..warmup + measured {
        if pass == warmup {
            h.reset_stats();
        }
        for start in (0..len).step_by(CHUNK) {
            for (core, s) in streams.iter().enumerate() {
                for &addr in s.iter().skip(start).take(CHUNK) {
                    h.access(core, addr);
                }
            }
        }
    }
    (0..streams.len()).map(|c| h.stats(c)).collect()
}

fn chain_streams(chains: usize, data: usize, tape: usize, dim: usize) -> Vec<Vec<u64>> {
    (0..chains)
        .map(|c| leapfrog_stream(&ChainLayout::for_chain(c, data, tape, dim)))
        .collect()
}

/// `characterize` as it was: per-access replay, then the model.
fn reference_characterize(sig: &WorkloadSignature, plat: &Platform, cfg: &SimConfig) -> PerfReport {
    const INSTR_PER_NODE: f64 = 6.0;
    const BRANCH_FRACTION: f64 = 0.14;
    const BRANCH_PENALTY: f64 = 15.0;
    const ICACHE_PREFETCH: f64 = 0.85;
    const TRANS_EXTRA_CYCLES: f64 = 14.0;
    const TRAFFIC_FLOOR: f64 = 0.004;

    let active = cfg.cores.min(cfg.chains);
    let h = Hierarchy::with_partitioning(
        active,
        plat.l1d_bytes,
        plat.l2_bytes,
        plat.llc_bytes,
        plat.llc_ways,
        plat.llc_partitioned,
    );
    let streams = chain_streams(active, sig.data_bytes, sig.tape_bytes, sig.dim);
    let mut t = LevelStats::default();
    for s in per_access(h, &streams, 2, 2) {
        t += s;
    }
    let denom = (active as u64 * 2) as f64;
    let l1m = t.l1_misses as f64 / denom;
    let l2m = t.l2_misses as f64 / denom;
    let llcm_raw = t.llc_misses as f64 / denom;

    let coverage = plat.prefetch_coverage(active);
    let llcm_demand = llcm_raw * (1.0 - coverage);
    let instr_lf = sig.tape_nodes as f64 * INSTR_PER_NODE;
    let icache_mpki = if sig.code_bytes <= plat.l1i_bytes {
        0.05
    } else {
        let miss_fraction = 1.0 - plat.l1i_bytes as f64 / sig.code_bytes as f64;
        (1000.0 * 4.0 / 64.0 * miss_fraction * (1.0 - ICACHE_PREFETCH)).max(0.05)
    };
    let branch_mpki = {
        let p = sig.accept_mean.clamp(1e-6, 1.0 - 1e-6);
        let entropy = -(p * p.ln() + (1.0 - p) * (1.0 - p).ln()) / std::f64::consts::LN_2;
        BRANCH_FRACTION * 1000.0 * (0.002 + 0.006 * entropy)
    };
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
    let floor_lines = TRAFFIC_FLOOR * sig.working_set_bytes() as f64 / 64.0;
    let bytes_lf = (llcm_demand + floor_lines) * 64.0;
    let t_bw = bytes_lf / (plat.mem_bw_gbs * 1e9 / active as f64);
    let t_lf = (cycles_lf / freq_hz).max(t_bw);

    let mut core_time = vec![0.0f64; cfg.cores];
    let mut total_instr = 0.0;
    for c in 0..cfg.chains {
        let leapfrogs = cfg.iters as f64 * sig.leapfrogs_per_iter * sig.imbalance(c);
        core_time[c % cfg.cores] += leapfrogs * t_lf;
        total_instr += leapfrogs * instr_lf;
    }
    let time_s = core_time.iter().cloned().fold(0.0, f64::max);
    let power_w = plat.power_w(cfg.cores.min(cfg.chains));
    let bandwidth_gbs =
        (((llcm_raw + floor_lines) * 64.0 / t_lf) * active as f64 / 1e9).min(plat.mem_bw_gbs);
    PerfReport {
        workload: sig.name.clone(),
        platform: plat.name,
        config: *cfg,
        ipc: instr_lf / (t_lf * freq_hz),
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

#[test]
fn full_scale_reports_match_the_per_access_replay_bit_for_bit() {
    // The figures' signatures: full scale, 20 probe iterations, seed 42.
    let platforms = [
        Platform::skylake(),
        Platform::broadwell(),
        Platform::skylake_partitioned(),
    ];
    for w in registry::all_workloads(1.0, REFERENCE_SEED) {
        let sig = WorkloadSignature::measure(&w, 20, REFERENCE_SEED);
        for plat in &platforms {
            for cores in [1, 2, 4] {
                let cfg = SimConfig {
                    cores,
                    chains: 4,
                    iters: 100,
                };
                // `{:?}` prints each f64 in the shortest form that parses
                // back to the same bits: equal text is equal bits.
                assert_eq!(
                    format!("{:?}", characterize(&sig, plat, &cfg)),
                    format!("{:?}", reference_characterize(&sig, plat, &cfg))
                );
            }
        }
    }
}

/// A slice of a way-partitioned LLC smaller than the working set
/// evicts at random, so the private state a pass starts in never
/// repeats and every pass is simulated; a hierarchy whose private
/// levels hold the working set repeats from the second pass on, and
/// later passes reuse it. Both must count what the per-access replay
/// counts, pass by pass.
#[test]
fn passes_are_reused_only_when_the_private_state_repeats() {
    let streams = chain_streams(2, 64 * 40, 64 * 300, 4);
    let cases = [
        // Slices of 32 sets × 4 ways: 128 of the sweep's ~350 lines.
        (
            Hierarchy::with_partitioning(2, 512, 1024, 16 << 10, 8, true),
            false,
        ),
        // 64 KB of L1: everything stays.
        (Hierarchy::new(2, 64 * 1024, 256 * 1024, 1 << 20, 16), true),
    ];
    for (h, repeats) in cases {
        let pass = |n: usize| per_access(h.clone(), &streams, n - 1, 1);
        let (second, third) = (pass(2), pass(3));
        // A pass depends only on the state it starts in: different
        // counts in passes 2 and 3 mean different starting states.
        assert_eq!(second == third, repeats, "{second:?} vs {third:?}");
        for (warmup, measured) in [(0, 1), (1, 1), (2, 1), (2, 2), (1, 5)] {
            assert_eq!(
                h.clone().replay(&streams[0], warmup, measured),
                per_access(h.clone(), &streams, warmup, measured),
                "repeats {repeats}, {warmup} + {measured} passes"
            );
        }
    }
}

/// Nine lines cycling through one 8-way random set: the tags a pass
/// starts in recur while the victim stream has moved on, so a repeat
/// needs the RNG state to match as well.
#[test]
fn equal_tags_under_a_moved_victim_stream_are_no_repeat() {
    let h = Hierarchy::with_partitioning(1, 512, 512, 8 * 64, 8, true);
    let streams = [(0..9).map(|line| line * 64).collect::<Vec<u64>>()];
    for (warmup, measured) in [(2, 2), (4, 4)] {
        assert_eq!(
            h.clone().replay(&streams[0], warmup, measured),
            per_access(h.clone(), &streams, warmup, measured)
        );
    }
}

#[test]
#[should_panic(expected = "set span does not divide the chain spacing")]
fn replay_rejects_a_private_level_the_chain_spacing_moves_across_sets() {
    // Three L1 sets do not divide the 2^24-line spacing: two cores'
    // private levels would not see the same sets.
    let h = Hierarchy::new(2, 3 * 8 * 64, 4096, 65536, 16);
    let _ = h.replay(&chain_streams(1, 640, 640, 2)[0], 1, 1);
}

proptest! {
    #[test]
    fn replay_counts_what_the_per_access_replay_counts(
        cores in 1usize..5,
        partitioned in 0usize..2,
        l1_sets in 1usize..12,
        l2_sets in 1usize..40,
        llc_sets in 1usize..70,
        llc_ways in 1usize..21,
        data_lines in 0usize..200,
        tape_lines in 0usize..300,
        empty in 0usize..3,
        dim in 1usize..20,
        warmup in 0usize..3,
        measured in 1usize..3,
    ) {
        // Private set counts must be powers of two once cores are
        // shifted against each other; alone, any count goes.
        let private_sets = |n: usize| if cores == 1 { n } else { n.next_power_of_two() };
        let partitioned = partitioned == 1;
        let llc_bytes = if partitioned {
            cores * (llc_ways / cores).max(1) * 64 * private_sets(llc_sets)
        } else {
            llc_sets * llc_ways * 64
        };
        let h = Hierarchy::with_partitioning(
            cores,
            private_sets(l1_sets) * 8 * 64,
            private_sets(l2_sets) * 8 * 64,
            llc_bytes,
            llc_ways,
            partitioned,
        );
        // Odd byte counts leave partial lines; `empty` zeroes the data
        // or the tape region.
        let data = if empty == 0 { 0 } else { data_lines * 64 + 17 };
        let tape = if empty == 1 { 0 } else { tape_lines * 64 + 40 };
        let streams = chain_streams(cores, data, tape, dim);
        prop_assert_eq!(
            h.clone().replay(&streams[0], warmup, measured),
            per_access(h, &streams, warmup, measured)
        );
    }
}
