//! Warmup adaptation: dual-averaging step size and Welford variance
//! estimation for the diagonal mass matrix — the "auto-tuning of
//! Hamiltonian parameters" that the paper credits NUTS with.

/// Nesterov dual averaging on `ln ε`, targeting a desired acceptance
/// statistic (Hoffman & Gelman 2014, Section 3.2).
#[derive(Debug, Clone)]
pub(crate) struct DualAveraging {
    mu: f64,
    log_eps: f64,
    log_eps_bar: f64,
    h_bar: f64,
    t: f64,
    target: f64,
    gamma: f64,
    t0: f64,
    kappa: f64,
}

impl DualAveraging {
    pub(crate) fn new(initial_eps: f64, target: f64) -> Self {
        Self {
            mu: (10.0 * initial_eps).ln(),
            log_eps: initial_eps.ln(),
            log_eps_bar: 0.0,
            h_bar: 0.0,
            t: 0.0,
            target,
            gamma: 0.05,
            t0: 10.0,
            kappa: 0.75,
        }
    }

    /// Feeds one acceptance statistic; returns the next step size.
    pub(crate) fn update(&mut self, accept_stat: f64) -> f64 {
        self.t += 1.0;
        let eta = 1.0 / (self.t + self.t0);
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (self.target - accept_stat);
        self.log_eps = self.mu - self.t.sqrt() / self.gamma * self.h_bar;
        let w = self.t.powf(-self.kappa);
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar;
        self.log_eps.exp()
    }

    /// Starts over from `eps`, as after a metric switch, keeping the
    /// target.
    pub(crate) fn restart(&mut self, eps: f64) {
        *self = Self::new(eps, self.target);
    }

    /// Smoothed step size to freeze after warmup.
    pub(crate) fn final_eps(&self) -> f64 {
        self.log_eps_bar.exp()
    }

    /// Full internal state, for checkpointing.
    pub(crate) fn snapshot(&self) -> crate::checkpoint::DualAveragingState {
        crate::checkpoint::DualAveragingState {
            mu: self.mu,
            log_eps: self.log_eps,
            log_eps_bar: self.log_eps_bar,
            h_bar: self.h_bar,
            t: self.t,
            target: self.target,
            gamma: self.gamma,
            t0: self.t0,
            kappa: self.kappa,
        }
    }

    /// Rebuilds the exact adapter a [`DualAveraging::snapshot`] came
    /// from, so a resumed chain continues the same trajectory of step
    /// sizes bit for bit.
    pub(crate) fn restore(s: &crate::checkpoint::DualAveragingState) -> Self {
        Self {
            mu: s.mu,
            log_eps: s.log_eps,
            log_eps_bar: s.log_eps_bar,
            h_bar: s.h_bar,
            t: s.t,
            target: s.target,
            gamma: s.gamma,
            t0: s.t0,
            kappa: s.kappa,
        }
    }
}

/// Welford online mean/variance accumulator over parameter vectors,
/// used to estimate the diagonal mass matrix during warmup windows.
#[derive(Debug, Clone)]
pub(crate) struct WelfordVar {
    n: f64,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl WelfordVar {
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            n: 0.0,
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
        }
    }

    pub(crate) fn push(&mut self, x: &[f64]) {
        self.n += 1.0;
        for i in 0..x.len() {
            let d = x[i] - self.mean[i];
            self.mean[i] += d / self.n;
            self.m2[i] += d * (x[i] - self.mean[i]);
        }
    }

    pub(crate) fn count(&self) -> usize {
        self.n as usize
    }

    /// Full internal state, for checkpointing.
    pub(crate) fn snapshot(&self) -> crate::checkpoint::WelfordState {
        crate::checkpoint::WelfordState {
            n: self.n,
            mean: self.mean.clone(),
            m2: self.m2.clone(),
        }
    }

    /// Rebuilds the exact accumulator a [`WelfordVar::snapshot`] came
    /// from.
    pub(crate) fn restore(s: &crate::checkpoint::WelfordState) -> Self {
        Self {
            n: s.n,
            mean: s.mean.clone(),
            m2: s.m2.clone(),
        }
    }

    /// Regularized variance estimate (Stan's shrinkage toward unit),
    /// safe to use as an inverse mass diagonal.
    pub(crate) fn regularized_variance(&self) -> Vec<f64> {
        let n = self.n.max(1.0);
        self.m2
            .iter()
            .map(|&m2| {
                let var = m2 / (n - 1.0).max(1.0);
                ((n / (n + 5.0)) * var + 1e-3 * (5.0 / (n + 5.0))).max(1e-10)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_averaging_raises_eps_when_accepting_everything() {
        let mut da = DualAveraging::new(0.1, 0.8);
        for _ in 0..200 {
            da.update(1.0);
        }
        assert!(da.final_eps() > 0.1, "eps {}", da.final_eps());
    }

    #[test]
    fn dual_averaging_lowers_eps_when_rejecting_everything() {
        let mut da = DualAveraging::new(0.1, 0.8);
        for _ in 0..200 {
            da.update(0.0);
        }
        assert!(da.final_eps() < 0.1, "eps {}", da.final_eps());
    }

    #[test]
    fn dual_averaging_converges_near_target() {
        // Toy response: accept prob = exp(-eps). Fixed point for target
        // 0.6 is eps = -ln 0.6 ≈ 0.51.
        let mut da = DualAveraging::new(1.0, 0.6);
        let mut eps = 1.0f64;
        for _ in 0..5000 {
            let a = (-eps).exp().min(1.0);
            eps = da.update(a);
        }
        let fixed = -(0.6f64.ln());
        assert!(
            (da.final_eps() - fixed).abs() < 0.1,
            "eps {} vs {fixed}",
            da.final_eps()
        );
    }

    #[test]
    fn welford_matches_two_pass() {
        let data = [[1.0, -2.0], [2.0, 0.5], [0.5, 3.0], [1.5, 1.0], [3.0, -1.0]];
        let mut w = WelfordVar::new(2);
        for row in &data {
            w.push(row);
        }
        assert_eq!(w.count(), 5);
        let var = w.regularized_variance();
        // Two-pass reference (with the same shrinkage applied).
        for j in 0..2 {
            let mean: f64 = data.iter().map(|r| r[j]).sum::<f64>() / 5.0;
            let v: f64 = data.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / 4.0;
            let shrunk = (5.0 / 10.0) * v + 1e-3 * 0.5;
            assert!((var[j] - shrunk).abs() < 1e-12, "col {j}");
        }
    }

    #[test]
    fn welford_variance_positive_with_one_sample() {
        let mut w = WelfordVar::new(1);
        w.push(&[4.2]);
        assert!(w.regularized_variance()[0] > 0.0);
    }

    #[test]
    fn dual_averaging_snapshot_restores_bitwise() {
        let mut da = DualAveraging::new(0.3, 0.8);
        for i in 0..37 {
            da.update(0.5 + 0.01 * (i % 7) as f64);
        }
        let mut resumed = DualAveraging::restore(&da.snapshot());
        for _ in 0..20 {
            let a = da.update(0.65);
            let b = resumed.update(0.65);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(da.final_eps().to_bits(), resumed.final_eps().to_bits());
    }

    #[test]
    fn welford_snapshot_restores_bitwise() {
        let mut w = WelfordVar::new(2);
        for i in 0..23 {
            w.push(&[(i as f64).sin(), (i as f64).cos() * 2.0]);
        }
        let mut resumed = WelfordVar::restore(&w.snapshot());
        w.push(&[0.25, -1.5]);
        resumed.push(&[0.25, -1.5]);
        assert_eq!(w.count(), resumed.count());
        let (a, b) = (w.regularized_variance(), resumed.regularized_variance());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
