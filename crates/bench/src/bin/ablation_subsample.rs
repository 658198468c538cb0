//! Ablation (Section VII-B): subsampling the modeled data so the
//! multi-chain working set fits the LLC. The paper: "the inference
//! algorithm should be tuned to subsample the data such that the
//! working set fits the LLC. Figure 3 can be used to estimate the
//! proper sub-sampled data size."
//!
//! With `--trace <path>`, each workload's advice is also recorded as one
//! `subsample` event.

use bayes_archsim::{Platform, SimConfig};
use bayes_sched::SubsampleAdvisor;

fn main() {
    let trace = bayes_bench::trace_recorder_from_args();
    bayes_bench::banner(
        "Subsampling ablation (Section VII-B)",
        "LLC-fitting data fractions for the bound workloads on Skylake, 4 cores x 4 chains.",
    );
    let sky = Platform::skylake();
    let advisor = SubsampleAdvisor::new();
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "name", "fraction", "ws before", "ws after", "mpki full", "mpki sub", "speedup"
    );
    for m in bayes_bench::measure_all(1.0, 20, 42) {
        let advice = advisor.advise_recorded(
            &m.sig,
            &sky,
            &SimConfig {
                cores: 4,
                chains: 4,
                iters: 200,
            },
            &trace,
        );
        println!(
            "{:<10} {:>9.2} {:>8.2}MB {:>8.2}MB {:>10.2} {:>10.2} {:>8.2}x",
            m.sig.name,
            advice.fraction,
            m.sig.working_set_bytes() as f64 / 1048576.0,
            advice.working_set_bytes as f64 / 1048576.0,
            advice.full.llc_mpki,
            advice.advised.llc_mpki,
            advice.speedup()
        );
    }
    println!(
        "\nNote: a subsampled likelihood targets an approximate posterior (the paper cites \
         Firefly-MC-style correction schemes); fractions below 1.0 trade accuracy for the \
         removal of the LLC cliff."
    );
    trace.flush();
}
