//! Figure 1: runtime statistics of BayesSuite on single-core Skylake —
//! IPC, i-cache MPKI, branch MPKI, LLC MPKI, memory bandwidth, and
//! total execution time.
//!
//! With `--trace <path>`, each workload's simulated counters are also
//! recorded as one `counters` event.

use super::{Args, ExitCode};
use bayes_archsim::{characterize, Platform, SimConfig};
use bayes_obs::Event;

pub fn run(args: &Args) -> ExitCode {
    let trace = &args.trace;
    crate::banner(
        "Figure 1",
        "Runtime statistics of BayesSuite (1 Skylake core, 4 chains, user iterations).",
    );
    let sky = Platform::skylake();
    println!(
        "{:<10} {:>6} {:>13} {:>12} {:>9} {:>10} {:>9}",
        "name", "(a)IPC", "(b)icacheMPKI", "(c)brMPKI", "(d)LLCMPKI", "(e)BW MB/s", "(f)time"
    );
    for m in crate::measure_all(1.0, 30, 42) {
        let r = characterize(
            &m.sig,
            &sky,
            &SimConfig {
                cores: 1,
                chains: m.sig.default_chains,
                iters: m.sig.default_iters,
            },
        );
        if trace.enabled() {
            trace.record(Event::Counters {
                workload: r.workload.clone(),
                platform: r.platform.to_string(),
                cores: r.config.cores as u64,
                ipc: r.ipc,
                llc_mpki: r.llc_mpki,
                bandwidth_gbs: r.bandwidth_gbs,
                time_s: r.time_s,
                energy_j: r.energy_j,
            });
        }
        println!(
            "{:<10} {:>6.2} {:>13.2} {:>12.2} {:>9.2} {:>10.0} {:>9}",
            r.workload,
            r.ipc,
            r.icache_mpki,
            r.branch_mpki,
            r.llc_mpki,
            r.bandwidth_mbs(),
            crate::fmt_time(r.time_s)
        );
    }
    trace.flush();
    ExitCode::SUCCESS
}
