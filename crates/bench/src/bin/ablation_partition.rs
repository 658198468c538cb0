//! Ablation: way-partitioning the Skylake LLC per core. Isolation
//! removes inter-chain interference but also forbids borrowing —
//! exactly the trade the paper's Section IV-B contention analysis
//! implies. Chains are symmetric here, so partitioning mostly loses:
//! a chain that fits 8 MB alone no longer fits its 2 MB slice.

use bayes_archsim::{characterize, Platform, SimConfig};

fn main() {
    bayes_bench::banner(
        "LLC partitioning ablation",
        "Shared vs per-core way-partitioned LLC on Skylake, 4 cores x 4 chains.",
    );
    let shared = Platform::skylake();
    let parted = Platform::skylake_partitioned();
    println!(
        "{:<10} | {:>11} {:>11} | {:>10} {:>10}",
        "name", "mpki shared", "mpki parted", "t shared", "t parted"
    );
    for m in bayes_bench::measure_all(1.0, 20, 42) {
        let cfg = SimConfig {
            cores: 4,
            chains: 4,
            iters: 200,
        };
        let rs = characterize(&m.sig, &shared, &cfg);
        let rp = characterize(&m.sig, &parted, &cfg);
        println!(
            "{:<10} | {:>11.2} {:>11.2} | {:>10} {:>10}",
            m.sig.name,
            rs.llc_mpki,
            rp.llc_mpki,
            bayes_bench::fmt_time(rs.time_s),
            bayes_bench::fmt_time(rp.time_s)
        );
    }
    println!(
        "\nWith symmetric chains the shared LLC dominates or ties: partitioning an 8 MB \
         cache four ways turns every >2 MB working set into a guaranteed overflow."
    );
}
