//! Figure 7: energy savings of the convergence-detection design points
//! and the energy oracle, relative to the original user settings, on
//! both platforms (paper: 70% average saving).

use super::{Args, ExitCode};
use bayes_archsim::Platform;
use bayes_sched::DesignSpace;

pub fn run(_: &Args) -> ExitCode {
    crate::banner(
        "Figure 7",
        "Energy savings vs user settings (10 workloads x 2 platforms).",
    );
    println!(
        "{:<10} | {:>12} {:>12} | {:>12} {:>12}",
        "name", "sky detect", "sky oracle", "bdw detect", "bdw oracle"
    );
    let platforms = [Platform::skylake(), Platform::broadwell()];
    let mut detect_sum = 0.0;
    let mut oracle_sum = 0.0;
    let mut count = 0.0;
    for m in crate::measure_all(1.0, 30, 42) {
        let probe =
            bayes_sched::dse::QualityProbe::collect(m.workload.dynamics_model(), &m.sig, 42);
        let mut cells = Vec::new();
        for plat in &platforms {
            let space = DesignSpace::explore_with(&probe, &m.sig, plat);
            let d = space.detected_energy_saving();
            let o = space.oracle_energy_saving();
            detect_sum += d;
            oracle_sum += o;
            count += 1.0;
            cells.push((d, o));
        }
        println!(
            "{:<10} | {:>11.0}% {:>11.0}% | {:>11.0}% {:>11.0}%",
            m.sig.name,
            cells[0].0 * 100.0,
            cells[0].1 * 100.0,
            cells[1].0 * 100.0,
            cells[1].1 * 100.0
        );
    }
    println!(
        "\naverage energy saving: detected {:.0}%, oracle {:.0}% (paper: 70% average)",
        detect_sum / count * 100.0,
        oracle_sum / count * 100.0
    );
    ExitCode::SUCCESS
}
