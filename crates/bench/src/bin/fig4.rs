//! Figure 4: performance comparison of the platforms at 4 cores —
//! speedup over Broadwell, IPC, and LLC MPKI — plus the Section V-B
//! scheduled-placement speedup (paper: 1.16×).

use bayes_archsim::{characterize, Platform, SimConfig};

fn main() {
    bayes_bench::banner(
        "Figure 4",
        "Skylake vs Broadwell, 4 cores, 4 chains, user iterations; baseline = Broadwell.",
    );
    println!(
        "{:<10} | {:>8} | {:>7} {:>7} | {:>7} {:>7} | {:>9}",
        "name", "sky/bdw", "ipc sky", "ipc bdw", "mpki sky", "mpki bdw", "placed on"
    );
    let sky = Platform::skylake();
    let bdw = Platform::broadwell();
    let mut speedups = Vec::new();
    for m in bayes_bench::measure_all(1.0, 30, 42) {
        let cfg = SimConfig {
            cores: 4,
            chains: m.sig.default_chains,
            iters: m.sig.default_iters,
        };
        let rs = characterize(&m.sig, &sky, &cfg);
        let rb = characterize(&m.sig, &bdw, &cfg);
        // The paper's placement: LLC-bound trio on Broadwell.
        let on_broadwell = rs.time_s > rb.time_s;
        let placed = if on_broadwell { "Broadwell" } else { "Skylake" };
        speedups.push(rb.time_s / rs.time_s.min(rb.time_s));
        println!(
            "{:<10} | {:>8.2} | {:>7.2} {:>7.2} | {:>8.2} {:>8.2} | {:>9}",
            m.sig.name,
            rb.time_s / rs.time_s,
            rs.ipc,
            rb.ipc,
            rs.llc_mpki,
            rb.llc_mpki,
            placed
        );
    }
    println!(
        "\nscheduled placement speedup over all-Broadwell baseline: {:.2}x average \
         (paper: 1.16x)",
        speedups.iter().sum::<f64>() / speedups.len() as f64
    );
}
