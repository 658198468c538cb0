//! Posterior summaries: quantiles, Monte-Carlo standard errors, and
//! the modern rank-normalized split-R̂ (Vehtari et al. 2021) — the
//! successor of the Gelman–Rubin diagnostic the paper's mechanism is
//! built on. These extend the reproduction toward what a production
//! deployment ("Bayesian inference as a service", Section I) would
//! report to users.

use crate::chain::MultiChainRun;
use crate::diag;
use bayes_prob::special::std_normal_quantile;

/// Summary row for one parameter.
#[derive(Debug, Clone)]
pub struct ParamSummary {
    /// Parameter index.
    pub index: usize,
    /// Posterior mean.
    pub mean: f64,
    /// Posterior standard deviation.
    pub sd: f64,
    /// Monte-Carlo standard error of the mean (`sd / √ESS`); NaN when
    /// the ESS is.
    pub mcse: f64,
    /// 5% / 50% / 95% quantiles.
    pub q05: f64,
    /// Median.
    pub q50: f64,
    /// 95th percentile.
    pub q95: f64,
    /// Effective sample size.
    pub ess: f64,
    /// Rank-normalized split-R̂.
    pub rhat_rank: f64,
}

/// Empirical quantile of a sorted slice (linear interpolation).
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let t = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let i = t.floor() as usize;
    let frac = t - i as f64;
    if i + 1 < sorted.len() {
        sorted[i] * (1.0 - frac) + sorted[i + 1] * frac
    } else {
        sorted[i]
    }
}

/// `x` as an unsigned integer that orders as `f64::total_cmp` orders
/// the draws.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    // Negative draws: every bit flipped; others: the sign bit set.
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// One parameter's pooled draws and what [`summarize`] derives from
/// them, in buffers reused from parameter to parameter.
#[derive(Debug, Default)]
struct Pooled {
    /// Draws, chain after chain.
    x: Vec<f64>,
    /// Where each chain's draws end in `x`.
    ends: Vec<usize>,
    /// Each draw's [`total_order_key`] above its index in `x`, sorted:
    /// the draws in ascending `f64::total_cmp` order, equal draws in
    /// their order in `x`.
    order: Vec<u128>,
    /// The draws in ascending total order.
    sorted: Vec<f64>,
    /// Normal score of each rank at the pooled size `scores.len()`.
    scores: Vec<f64>,
    /// Normal score of each draw in `x`.
    z: Vec<f64>,
}

impl Pooled {
    /// Pools `chains` and sorts the pool once.
    fn load<C: IntoIterator<Item = f64>>(&mut self, chains: impl IntoIterator<Item = C>) {
        self.x.clear();
        self.ends.clear();
        for chain in chains {
            self.x.extend(chain);
            self.ends.push(self.x.len());
        }
        self.order.clear();
        self.order.extend(
            (0u128..)
                .zip(&self.x)
                .map(|(i, &x)| u128::from(total_order_key(x)) << 64 | i),
        );
        // Keys are distinct, so an unstable sort gives the one order a
        // stable sort by draw would.
        self.order.sort_unstable();
        self.sorted.clear();
        self.sorted
            .extend(self.order.iter().map(|&k| self.x[k as u64 as usize]));
    }

    /// `v`, one of the pooled buffers, cut at the chain boundaries.
    fn chains<'a>(&self, v: &'a [f64]) -> Vec<&'a [f64]> {
        let mut start = 0;
        self.ends
            .iter()
            .map(|&end| {
                let chain = &v[start..end];
                start = end;
                chain
            })
            .collect()
    }

    /// Rank-normalized split-R̂ of the loaded pool. Each draw's rank is
    /// its position in the one sort: equal draws are ranked in chain
    /// order and then draw order, one rank apart, where Vehtari et al.
    /// give them their average rank (EXPERIMENTS.md, "Known
    /// calibration deviations").
    fn rank_normalized_split_rhat(&mut self) -> f64 {
        let n = self.x.len();
        if n < 8 {
            return f64::NAN;
        }
        // Normal scores with the (r - 3/8)/(n + 1/4) offset depend on
        // the rank and the pooled size alone.
        if self.scores.len() != n {
            self.scores.clear();
            self.scores.extend(
                (0..n).map(|rank| {
                    std_normal_quantile((rank as f64 + 1.0 - 0.375) / (n as f64 + 0.25))
                }),
            );
        }
        self.z.resize(n, 0.0);
        for (&k, &score) in self.order.iter().zip(&self.scores) {
            self.z[k as u64 as usize] = score;
        }
        diag::split_rhat(&self.chains(&self.z))
    }
}

/// Rank-normalized split-R̂: replace draws by their normal scores
/// across the pooled sample, then compute split-R̂ — robust to heavy
/// tails and non-normality (Vehtari et al. 2021).
pub fn rank_normalized_split_rhat(traces: &[impl AsRef<[f64]>]) -> f64 {
    let mut pooled = Pooled::default();
    pooled.load(traces.iter().map(|t| t.as_ref().iter().copied()));
    pooled.rank_normalized_split_rhat()
}

/// Summarizes every parameter of a run (post-warmup draws).
pub fn summarize(run: &MultiChainRun) -> Vec<ParamSummary> {
    let mut pooled = Pooled::default();
    (0..run.dim)
        .map(|j| {
            pooled.load(
                run.chains
                    .iter()
                    .map(|c| c.sampling_draws().iter().map(move |d| d[j])),
            );
            let sorted = &pooled.sorted;
            let n = sorted.len().max(1) as f64;
            let mean = sorted.iter().sum::<f64>() / n;
            let sd = (sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                / (n - 1.0).max(1.0))
            .sqrt();
            let ess = diag::ess(&pooled.chains(&pooled.x));
            ParamSummary {
                index: j,
                mean,
                sd,
                // A NaN ESS (too few draws) must not read as sd.
                mcse: if ess.is_nan() {
                    f64::NAN
                } else {
                    sd / ess.max(1.0).sqrt()
                },
                q05: quantile_sorted(sorted, 0.05),
                q50: quantile_sorted(sorted, 0.50),
                q95: quantile_sorted(sorted, 0.95),
                ess,
                rhat_rank: pooled.rank_normalized_split_rhat(),
            }
        })
        .collect()
}

/// Renders summaries as an aligned text table (the `print` of Stan's
/// fit objects).
pub fn format_table(rows: &[ParamSummary]) -> String {
    let mut out = String::from(
        "param       mean        sd      mcse       5%       50%       95%      ess   rhat\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<6} {:>9.4} {:>9.4} {:>9.5} {:>8.3} {:>9.3} {:>9.3} {:>8.0} {:>6.3}\n",
            r.index, r.mean, r.sd, r.mcse, r.q05, r.q50, r.q95, r.ess, r.rhat_rank
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainOutput;
    use crate::model::{AdModel, LogDensity};
    use crate::nuts::Nuts;
    use crate::{chain, RunConfig};
    use bayes_autodiff::Real;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct StdN;
    impl LogDensity for StdN {
        fn dim(&self) -> usize {
            1
        }
        fn eval<R: Real>(&self, t: &[R]) -> R {
            -(t[0] * t[0]) * 0.5
        }
    }

    /// `summarize` and the diagnostics it calls as they were before
    /// each parameter was ranked with one sort: the reference the
    /// one-sort code must match to the bit.
    mod reference {
        use super::super::quantile_sorted;
        use crate::chain::MultiChainRun;
        use crate::diag;
        use bayes_prob::special::std_normal_quantile;

        pub fn split_rhat(traces: &[Vec<f64>]) -> f64 {
            let mut halves: Vec<Vec<f64>> = Vec::with_capacity(traces.len() * 2);
            for t in traces {
                let n = t.len();
                if n < 4 {
                    return f64::NAN;
                }
                let mid = n / 2;
                halves.push(t[..mid].to_vec());
                halves.push(t[mid..].to_vec());
            }
            diag::rhat(&halves)
        }

        pub fn ess(traces: &[Vec<f64>]) -> f64 {
            let m = traces.len();
            let n = traces.iter().map(Vec::len).min().unwrap_or(0);
            if m == 0 || n < 4 {
                return f64::NAN;
            }
            if traces.iter().any(|t| t[..n].iter().any(|x| !x.is_finite())) {
                return f64::NAN;
            }
            let chain_means: Vec<f64> = traces
                .iter()
                .map(|t| t[..n].iter().sum::<f64>() / n as f64)
                .collect();
            let chain_vars: Vec<f64> = traces
                .iter()
                .zip(&chain_means)
                .map(|(t, &mu)| t[..n].iter().map(|&x| (x - mu) * (x - mu)).sum::<f64>() / n as f64)
                .collect();
            let w = chain_vars.iter().sum::<f64>() / m as f64;
            if w <= 0.0 {
                return (m * n) as f64;
            }
            let grand = chain_means.iter().sum::<f64>() / m as f64;
            let b_over_n = if m > 1 {
                chain_means
                    .iter()
                    .map(|&x| (x - grand) * (x - grand))
                    .sum::<f64>()
                    / (m as f64 - 1.0)
            } else {
                0.0
            };
            let var_plus = w * (n as f64 - 1.0) / n as f64 + b_over_n;
            let acov = |t: &[f64], mu: f64, lag: usize| -> f64 {
                (0..n - lag)
                    .map(|i| (t[i] - mu) * (t[i + lag] - mu))
                    .sum::<f64>()
                    / n as f64
            };
            let rho = |lag: usize| -> f64 {
                if lag == 0 {
                    return 1.0;
                }
                let mean_acov = traces
                    .iter()
                    .zip(&chain_means)
                    .map(|(t, &mu)| acov(&t[..n], mu, lag))
                    .sum::<f64>()
                    / m as f64;
                1.0 - (w - mean_acov) / var_plus
            };
            let mut pair_sum = rho(0) + rho(1);
            let mut prev_pair = pair_sum;
            let mut lag = 2;
            while lag + 1 < n {
                let pair = rho(lag) + rho(lag + 1);
                if pair < 0.0 {
                    break;
                }
                let pair = pair.min(prev_pair);
                prev_pair = pair;
                pair_sum += pair;
                lag += 2;
            }
            let tau = -1.0 + 2.0 * pair_sum;
            if tau <= 0.0 {
                return (m * n) as f64;
            }
            ((m * n) as f64 / tau).min((m * n) as f64)
        }

        pub fn rank_normalized_split_rhat(traces: &[Vec<f64>]) -> f64 {
            let n: usize = traces.iter().map(Vec::len).sum();
            if n < 8 {
                return f64::NAN;
            }
            let mut pooled: Vec<(f64, usize, usize)> = Vec::with_capacity(n);
            for (c, t) in traces.iter().enumerate() {
                for (i, &x) in t.iter().enumerate() {
                    pooled.push((x, c, i));
                }
            }
            pooled.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut z = vec![vec![0.0; 0]; traces.len()];
            for (c, t) in traces.iter().enumerate() {
                z[c] = vec![0.0; t.len()];
            }
            for (rank, &(_, c, i)) in pooled.iter().enumerate() {
                let u = (rank as f64 + 1.0 - 0.375) / (n as f64 + 0.25);
                z[c][i] = std_normal_quantile(u);
            }
            split_rhat(&z)
        }

        /// Every field but `index`, in declaration order.
        pub type Fields = [f64; 8];

        pub fn summarize(run: &MultiChainRun) -> Vec<Fields> {
            (0..run.dim)
                .map(|j| {
                    let traces = run.traces(j);
                    let mut pooled: Vec<f64> = traces.iter().flatten().copied().collect();
                    pooled.sort_by(f64::total_cmp);
                    let n = pooled.len().max(1) as f64;
                    let mean = pooled.iter().sum::<f64>() / n;
                    let sd = (pooled.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                        / (n - 1.0).max(1.0))
                    .sqrt();
                    let ess = ess(&traces);
                    [
                        mean,
                        sd,
                        sd / ess.max(1.0).sqrt(),
                        quantile_sorted(&pooled, 0.05),
                        quantile_sorted(&pooled, 0.50),
                        quantile_sorted(&pooled, 0.95),
                        ess,
                        rank_normalized_split_rhat(&traces),
                    ]
                })
                .collect()
        }
    }

    /// A run over `traces[c][i]` = chain `c`'s draw rows, `warmup` of
    /// them leading.
    fn run_of(traces: Vec<Vec<Vec<f64>>>, dim: usize, warmup: usize) -> MultiChainRun {
        MultiChainRun {
            chains: traces
                .into_iter()
                .map(|draws| ChainOutput {
                    draws,
                    warmup,
                    accept_mean: 0.0,
                    grad_evals: 0,
                    divergences: 0,
                    evals_per_iter: Vec::new(),
                })
                .collect(),
            dim,
        }
    }

    /// A random run: one to four chains of equal or unequal lengths
    /// (an elided chain stops early), some pooled below eight draws,
    /// over draws that are heavily tied, signed zeros, occasionally
    /// NaN of either sign, constant, or autocorrelated noise.
    fn random_run(rng: &mut StdRng) -> MultiChainRun {
        const TIES: [f64; 6] = [-1.0, -0.0, 0.0, 0.0, 1.0, 2.5];
        let chains = rng.gen_range(1..5usize);
        let dim = rng.gen_range(1..4usize);
        let longest = [2, 3, 5, 9, 40, 300][rng.gen_range(0..6usize)];
        let unequal = rng.gen_range(0.0..1.0) < 0.4;
        let warmup = [0, 1, 4, 100][rng.gen_range(0..4usize)];
        let kind = rng.gen_range(0..4u32);
        let traces = (0..chains)
            .map(|_| {
                let len = if unequal {
                    rng.gen_range(0..=longest)
                } else {
                    longest
                };
                let mut ar = vec![0.0; dim];
                (0..len)
                    .map(|_| {
                        (0..dim)
                            .map(|j| match kind {
                                0 => TIES[rng.gen_range(0..TIES.len())],
                                1 if rng.gen_range(0.0..1.0) < 0.02 => {
                                    [f64::NAN, -f64::NAN][rng.gen_range(0..2usize)]
                                }
                                3 => 7.0,
                                _ => {
                                    let e = rng.gen_range(-1.0..1.0);
                                    ar[j] = 0.9 * ar[j] + e;
                                    ar[j]
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        run_of(traces, dim, warmup)
    }

    #[test]
    fn one_sort_summaries_equal_the_reference_bit_for_bit() {
        let bits = |x: f64| x.to_bits();
        let mut rng = StdRng::seed_from_u64(27);
        for case in 0..600 {
            let run = random_run(&mut rng);
            let rows = summarize(&run);
            let want = reference::summarize(&run);
            assert_eq!(rows.len(), want.len());
            for (j, (row, want)) in rows.iter().zip(&want).enumerate() {
                let [mean, sd, mcse, q05, q50, q95, ess, rhat_rank] = *want;
                let what = format!("case {case}, param {j}: {row:?} vs {want:?}");
                assert_eq!(row.index, j, "{what}");
                for (got, want) in [
                    (row.mean, mean),
                    (row.sd, sd),
                    (row.q05, q05),
                    (row.q50, q50),
                    (row.q95, q95),
                    (row.ess, ess),
                    (row.rhat_rank, rhat_rank),
                ] {
                    assert_eq!(bits(got), bits(want), "{what}");
                }
                // The one intended difference: no MCSE without an ESS.
                if ess.is_nan() {
                    assert!(row.mcse.is_nan(), "{what}");
                } else {
                    assert_eq!(bits(row.mcse), bits(mcse), "{what}");
                }
                // The public diagnostics on the same traces.
                let traces = run.traces(j);
                assert_eq!(
                    bits(rank_normalized_split_rhat(&traces)),
                    bits(reference::rank_normalized_split_rhat(&traces)),
                    "{what}"
                );
                assert_eq!(
                    bits(diag::split_rhat(&traces)),
                    bits(reference::split_rhat(&traces)),
                    "{what}"
                );
                assert_eq!(
                    bits(diag::ess(&traces)),
                    bits(reference::ess(&traces)),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn too_few_draws_report_no_mcse() {
        // Three draws a chain — a job paused at its first checkpoint
        // boundary — have no ESS, so no error bar either.
        let chain = |x: f64| vec![vec![x], vec![x + 0.5], vec![x - 0.25]];
        let run = run_of(vec![chain(0.0), chain(1.0)], 1, 0);
        let [r] = &summarize(&run)[..] else {
            panic!("one parameter, one row");
        };
        assert!(r.mean.is_finite() && r.sd > 0.0, "{r:?}");
        assert!(r.ess.is_nan() && r.rhat_rank.is_nan(), "{r:?}");
        assert!(r.mcse.is_nan(), "{r:?}");
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 5.0);
        assert_eq!(quantile_sorted(&xs, 0.5), 3.0);
        assert!((quantile_sorted(&xs, 0.25) - 2.0).abs() < 1e-12);
        assert!(quantile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_of_standard_normal_run() {
        let model = AdModel::new("n", StdN);
        let run = chain::run(
            &Nuts::default(),
            &model,
            &RunConfig::new(2000).with_chains(4).with_seed(5),
        );
        let rows = summarize(&run);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.mean.abs() < 0.1, "mean {}", r.mean);
        assert!((r.sd - 1.0).abs() < 0.15, "sd {}", r.sd);
        assert!((r.q50 - r.mean).abs() < 0.1);
        // Φ⁻¹(0.95) ≈ 1.645.
        assert!((r.q95 - 1.645).abs() < 0.25, "q95 {}", r.q95);
        assert!(r.ess > 200.0, "ess {}", r.ess);
        assert!(r.rhat_rank < 1.05, "rhat {}", r.rhat_rank);
        assert!(r.mcse < r.sd, "mcse below sd");
    }

    #[test]
    fn rank_rhat_is_robust_to_heavy_tails() {
        // Cauchy-distributed chains: classic R̂ explodes on a single
        // extreme draw, the rank-normalized version stays near 1 for
        // well-mixed chains.
        use bayes_prob::dist::{Cauchy, ContinuousDist};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let c = Cauchy::new(0.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let traces: Vec<Vec<f64>> = (0..4).map(|_| c.sample_n(&mut rng, 500)).collect();
        let rank = rank_normalized_split_rhat(&traces);
        assert!((rank - 1.0).abs() < 0.05, "rank rhat {rank}");
    }

    #[test]
    fn rank_rhat_flags_separated_chains() {
        let a: Vec<f64> = (0..300).map(|i| (i % 7) as f64 * 0.1).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 50.0).collect();
        let r = rank_normalized_split_rhat(&[a, b]);
        assert!(r > 1.5, "rank rhat {r}");
    }

    #[test]
    fn format_table_has_all_rows() {
        let model = AdModel::new("n", StdN);
        let run = chain::run(
            &Nuts::default(),
            &model,
            &RunConfig::new(200).with_chains(2).with_seed(1),
        );
        let table = format_table(&summarize(&run));
        assert!(table.lines().count() == 2); // header + 1 param
        assert!(table.contains("rhat"));
    }
}
