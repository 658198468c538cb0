//! Figure 3: LLC miss-rate prediction — 4-core LLC MPKI against
//! modeled data size, including the half (-h) and quarter (-q) data
//! runs, plus the fitted static predictor.

use super::{Args, ExitCode};
use bayes_archsim::{characterize, Platform, SimConfig};
use bayes_sched::predictor::MissSample;
use bayes_sched::LlcMissPredictor;
use bayes_suite::registry;

pub fn run(_: &Args) -> ExitCode {
    crate::banner(
        "Figure 3",
        "4-core Skylake LLC MPKI vs modeled data size; -h/-q are half/quarter data runs.",
    );
    let sky = Platform::skylake();
    let mut samples = Vec::new();
    println!("{:<13} {:>10} {:>9}", "point", "data KB", "LLC MPKI");
    for (scale, suffix) in [(1.0, ""), (0.5, "-h"), (0.25, "-q")] {
        for m in crate::measure_all(scale, 20, 42) {
            let r = characterize(
                &m.sig,
                &sky,
                &SimConfig {
                    cores: 4,
                    chains: 4,
                    iters: 100,
                },
            );
            println!(
                "{:<13} {:>10.1} {:>9.2}",
                format!("{}{}", m.sig.name, suffix),
                m.sig.data_bytes as f64 / 1024.0,
                r.llc_mpki
            );
            samples.push(MissSample {
                data_bytes: m.sig.data_bytes,
                mpki: r.llc_mpki,
            });
        }
    }
    let predictor = LlcMissPredictor::fit(&samples);
    // Full-scale informative points: the paper's "accurately predicts"
    // regime. (Reduced-scale tickets saturates above the line; the
    // scheduler therefore classifies by data-size threshold.)
    let full_scale: Vec<MissSample> = samples[..10]
        .iter()
        .copied()
        .filter(|s| s.mpki > 1.0)
        .collect();
    println!(
        "\ntrend: slope {:.3e} MPKI/byte; R² over full-scale MPKI>1 points {:.3}; \
         data-size threshold {} KB",
        predictor.slope(),
        predictor.r_squared(&full_scale),
        predictor.data_threshold() / 1024
    );
    println!(
        "classification: {}",
        registry::workload_names()
            .iter()
            .map(|n| {
                let w = registry::workload(n, 1.0, 42).unwrap();
                let bound = predictor.is_llc_bound(w.meta().modeled_data_bytes);
                format!("{n}={}", if bound { "LLC-bound" } else { "compute" })
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::SUCCESS
}
