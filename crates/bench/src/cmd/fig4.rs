//! Figure 4: performance comparison of the platforms at 4 cores —
//! speedup over Broadwell, IPC, and LLC MPKI — plus the Section V-B
//! scheduled-placement speedup (paper: 1.16×). The placement is the
//! Section V predictor's; the `oracle` column is whichever platform
//! simulated faster.

use super::{Args, ExitCode};
use bayes_archsim::{characterize, Platform, SimConfig};
use bayes_sched::{predictor, PlatformScheduler};

pub fn run(_: &Args) -> ExitCode {
    crate::banner(
        "Figure 4",
        "Skylake vs Broadwell, 4 cores, 4 chains, user iterations; baseline = Broadwell.",
    );
    println!(
        "{:<10} | {:>8} | {:>7} {:>7} | {:>7} {:>7} | {:>9} {:>9}",
        "name", "sky/bdw", "ipc sky", "ipc bdw", "mpki sky", "mpki bdw", "placed on", "oracle"
    );
    let sky = Platform::skylake();
    let bdw = Platform::broadwell();
    let scheduler = PlatformScheduler::new(predictor::suite());
    let mut speedups = Vec::new();
    for m in crate::measure_all(1.0, 30, 42) {
        let cfg = SimConfig {
            cores: 4,
            chains: m.sig.default_chains,
            iters: m.sig.default_iters,
        };
        let rs = characterize(&m.sig, &sky, &cfg);
        let rb = characterize(&m.sig, &bdw, &cfg);
        let placed = scheduler.pick(m.sig.data_bytes).name;
        let chosen = if placed == bdw.name { &rb } else { &rs };
        let oracle = if rs.time_s > rb.time_s { &bdw } else { &sky };
        speedups.push(rb.time_s / chosen.time_s);
        println!(
            "{:<10} | {:>8.2} | {:>7.2} {:>7.2} | {:>8.2} {:>8.2} | {:>9} {:>9}",
            m.sig.name,
            rb.time_s / rs.time_s,
            rs.ipc,
            rb.ipc,
            rs.llc_mpki,
            rb.llc_mpki,
            placed,
            oracle.name
        );
    }
    println!(
        "\nscheduled placement speedup over all-Broadwell baseline: {:.2}x average \
         (paper: 1.16x)",
        speedups.iter().sum::<f64>() / speedups.len() as f64
    );
    ExitCode::SUCCESS
}
