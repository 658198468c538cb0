//! Figure 1: runtime statistics of BayesSuite on single-core Skylake —
//! IPC, i-cache MPKI, branch MPKI, LLC MPKI, memory bandwidth, and
//! total execution time.

use bayes_archsim::{characterize, Platform, SimConfig};

fn main() {
    bayes_bench::banner(
        "Figure 1",
        "Runtime statistics of BayesSuite (1 Skylake core, 4 chains, user iterations).",
    );
    let sky = Platform::skylake();
    println!(
        "{:<10} {:>6} {:>13} {:>12} {:>9} {:>10} {:>9}",
        "name", "(a)IPC", "(b)icacheMPKI", "(c)brMPKI", "(d)LLCMPKI", "(e)BW MB/s", "(f)time"
    );
    for m in bayes_bench::measure_all(1.0, 30, 42) {
        let r = characterize(
            &m.sig,
            &sky,
            &SimConfig {
                cores: 1,
                chains: m.sig.default_chains,
                iters: m.sig.default_iters,
            },
        );
        println!(
            "{:<10} {:>6.2} {:>13.2} {:>12.2} {:>9.2} {:>10.0} {:>9}",
            r.workload,
            r.ipc,
            r.icache_mpki,
            r.branch_mpki,
            r.llc_mpki,
            r.bandwidth_mbs(),
            bayes_bench::fmt_time(r.time_s)
        );
    }
}
