//! Figure 6: design-space exploration case study on Skylake for two
//! LLC-bound (ad, survival) and two compute-bound (ode, memory)
//! workloads: latency vs power for every (cores × chains × iterations)
//! point, with the user setting, the detection-achievable points, and
//! the energy oracle marked.

use bayes_archsim::{Platform, WorkloadSignature};
use bayes_sched::DesignSpace;
use bayes_suite::registry;

fn main() {
    bayes_bench::banner(
        "Figure 6",
        "DSE on Skylake. Stars: user setting (blue) / energy oracle (red); triangles: \
         detection-achievable points.",
    );
    let sky = Platform::skylake();
    for name in ["ad", "survival", "ode", "memory"] {
        let w = registry::workload(name, 1.0, 42).expect("registry name");
        let sig = WorkloadSignature::measure(&w, 30, 42);
        let space = DesignSpace::explore(w.dynamics_model(), &sig, &sky, 42);
        println!("--- {name} ---");
        println!(
            "{:>5} {:>6} {:>6} {:>10} {:>8} {:>10} {:>9}  marker",
            "cores", "chains", "iters", "latency", "power W", "energy J", "KL"
        );
        for (i, p) in space.points.iter().enumerate() {
            let marker = if i == space.user {
                "USER (blue star)"
            } else if i == space.oracle {
                "ORACLE (red star)"
            } else if space.detected.contains(&i) {
                "detected (triangle)"
            } else {
                ""
            };
            println!(
                "{:>5} {:>6} {:>6} {:>10} {:>8.1} {:>10.1} {:>9.3}  {}",
                p.cores,
                p.chains,
                p.iters,
                bayes_bench::fmt_time(p.latency_s),
                p.power_w,
                p.energy_j,
                p.kl,
                marker
            );
        }
        println!(
            "energy saving: detected {:.0}%, oracle {:.0}%\n",
            space.detected_energy_saving() * 100.0,
            space.oracle_energy_saving() * 100.0
        );
    }
}
