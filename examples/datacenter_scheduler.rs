//! "Bayesian inference as a service": schedule a batch of inference
//! jobs across the two Table II servers with the paper's mechanism —
//! static LLC-miss prediction picks the platform, runtime convergence
//! detection elides redundant sampling iterations.

use bayes_sched::Pipeline;
use bayes_suite::registry;

fn main() {
    let pipeline = Pipeline::new();

    // A mixed batch: two LLC-bound jobs (ad, survival) among
    // compute-bound ones. (tickets works too but its 4000-iteration
    // probe makes the demo several minutes longer.)
    let batch = ["votes", "ad", "butterfly", "survival", "12cities"];
    println!("incoming batch: {batch:?}\n");
    println!(
        "{:<10} {:>10} {:>13} {:>10} {:>8} {:>10}",
        "job", "platform", "iters", "baseline", "speedup", "energy -%"
    );
    let mut speedups = Vec::new();
    for name in batch {
        let w = registry::workload(name, 1.0, 42).expect("registry name");
        let r = pipeline.optimize(&w);
        println!(
            "{:<10} {:>10} {:>6}/{:<6} {:>9.1}s {:>7.2}x {:>9.0}%",
            r.workload,
            r.platform,
            r.iters_used,
            r.iters_configured,
            r.baseline_time_s,
            r.speedup(),
            r.energy_saving() * 100.0
        );
        speedups.push(r.speedup());
    }
    println!(
        "\nbatch average speedup over naive placement: {:.2}x",
        speedups.iter().sum::<f64>() / speedups.len() as f64
    );
}
