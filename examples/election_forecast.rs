//! Election forecasting with the `votes` Gaussian-process workload —
//! the paper's example of modeling observations over a continuous
//! domain (time) and forecasting 2020–2028 from 1976–2016 data.
//!
//! Fits the GP hyperparameters with NUTS, then produces a posterior
//! forecast for the next three cycles by conditioning the GP on the
//! observed series at the posterior-mean hyperparameters.

use bayes_linalg::{Cholesky, Matrix};
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::{chain, RunConfig};
use bayes_suite::registry;
use bayes_suite::workloads::votes::VotesData;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = registry::workload("votes", 1.0, 2020).ok_or("unknown workload")?;
    println!("fitting GP hyperparameters with NUTS…");
    let cfg = RunConfig::new(800).with_chains(4).with_seed(11);
    let run = chain::run(&Nuts::default(), workload.dynamics_model(), &cfg);
    println!("max R-hat {:.3}", run.max_rhat());

    let rho = run.mean(0).exp();
    let alpha2 = (2.0 * run.mean(1)).exp();
    let sigma_n2 = (2.0 * run.mean(2)).exp();
    let mu = run.mean(3);
    println!(
        "posterior means: length-scale {rho:.2} cycles, amplitude² {alpha2:.3}, noise² {sigma_n2:.4}, mean {mu:.3}"
    );

    // Condition the GP on the observed series (same seed as the
    // dynamics model's data) and forecast three more cycles.
    let data = VotesData::generate(18, 2020);
    let n = data.len();
    let kernel = |a: f64, b: f64| alpha2 * (-0.5 * ((a - b) / rho).powi(2)).exp();
    let mut k = Matrix::symmetric_from_fn(n, |i, j| kernel(data.t[i], data.t[j]));
    k.add_diagonal(sigma_n2 + 1e-8);
    let ch = Cholesky::factor(&k)?;
    let resid: Vec<f64> = data.y.iter().map(|y| y - mu).collect();
    let alpha_vec = ch.solve(&resid)?;

    println!("\n{:>6} {:>10} {:>10}", "cycle", "forecast", "± 2 sd");
    for step in 1..=3 {
        let t_star = data.t[n - 1] + 0.25 * step as f64;
        let k_star: Vec<f64> = (0..n).map(|i| kernel(data.t[i], t_star)).collect();
        let mean = mu + bayes_linalg::dot(&k_star, &alpha_vec);
        let v = ch.solve_lower(&k_star)?;
        let var = (kernel(t_star, t_star) + sigma_n2 - bayes_linalg::dot(&v, &v)).max(0.0);
        println!(
            "{:>6} {:>10.3} {:>10.3}",
            2016 + 4 * step,
            mean,
            2.0 * var.sqrt()
        );
    }
    println!("\n(vote share on the logit scale, as the model parameterizes it)");
    Ok(())
}
