//! Section IV-A sidebar: static HMC's single-core profile vs NUTS's.
//! The paper reports HMC IPC of 1.5–2.7 and the same LLC-bound trio,
//! concluding the two samplers are architecturally interchangeable for
//! the characterization.

use bayes_archsim::{characterize, Platform, SimConfig};
use bayes_mcmc::hmc::StaticHmc;
use bayes_mcmc::{chain, RunConfig};

fn main() {
    bayes_bench::banner(
        "HMC vs NUTS (Section IV-A)",
        "Single-core Skylake profile under both samplers; per-iteration work differs, the \
         architectural picture does not.",
    );
    let sky = Platform::skylake();
    println!(
        "{:<10} | {:>8} {:>9} | {:>8} {:>9} | {:>12}",
        "name", "nuts ipc", "nuts mpki", "hmc ipc", "hmc mpki", "lf/it n vs h"
    );
    for m in bayes_bench::measure_all(1.0, 30, 42) {
        // HMC runs a fixed 16 leapfrogs per iteration; rebuild the
        // signature with that cost while keeping the same footprint.
        let hmc_run = chain::run(
            &StaticHmc::new(16),
            m.workload.dynamics_model(),
            &RunConfig::new(30).with_chains(4).with_seed(7),
        );
        let mut hmc_sig = m.sig.clone();
        hmc_sig.leapfrogs_per_iter = 16.0;
        hmc_sig.accept_mean =
            hmc_run.chains.iter().map(|c| c.accept_mean).sum::<f64>() / hmc_run.chains.len() as f64;

        let cfg = SimConfig {
            cores: 1,
            chains: m.sig.default_chains,
            iters: m.sig.default_iters,
        };
        let rn = characterize(&m.sig, &sky, &cfg);
        let rh = characterize(&hmc_sig, &sky, &cfg);
        println!(
            "{:<10} | {:>8.2} {:>9.2} | {:>8.2} {:>9.2} | {:>6.1} {:>5.1}",
            m.sig.name, rn.ipc, rn.llc_mpki, rh.ipc, rh.llc_mpki, m.sig.leapfrogs_per_iter, 16.0
        );
    }
    println!("\nSingle-core IPC and MPKI are driven by footprint and op mix, which the");
    println!("samplers share — matching the paper's finding that HMC ≈ NUTS here.");
}
