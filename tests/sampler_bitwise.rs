//! NUTS and `summarize` pinned to the bit.
//!
//! The golden fixtures compare at 1e-8 relative, which a one-ulp drift
//! in tree building or in the rank-normalised diagnostics passes. Here
//! each of the nine benchmark cells runs a short two-chain NUTS job at
//! the first seed of its benchmark pool, and everything the run and its
//! summary hold — every draw, the per-iteration and total gradient
//! counts, divergences, the acceptance means, and every field of every
//! `ParamSummary` — is hashed by its bit pattern. The digests were
//! taken before the sampler's trajectory buffers became index-addressed
//! slots and before `summarize` ranked each parameter with one sort;
//! both changes were required to leave them unmoved.
//!
//! `OTHER_DIGESTS` pins, the same way, what the nine cells leave out:
//! NUTS on `ode`, and static HMC and Metropolis–Hastings on `12cities`
//! and `memory`. They were taken on the default release profile, before
//! the workspace's release build became one fat-LTO codegen unit, and
//! that change was required to leave them unmoved (DESIGN.md §5e).
//!
//! A deliberate change to the sampler's arithmetic or random streams
//! must update `DIGESTS` or `OTHER_DIGESTS` (the failure message prints
//! every cell's digest) and say why in its change description.

use bayes_mcmc::chain::Sampler;
use bayes_mcmc::hmc::StaticHmc;
use bayes_mcmc::mh::MetropolisHastings;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::summary::summarize;
use bayes_mcmc::{chain, MultiChainRun, RunConfig};
use bayes_suite::registry::{self, REFERENCE_SEED, SMOKE_SCALE};

/// Cell, chain seed (the first of its benchmark pool), iterations.
const CELLS: [(&str, u64, usize); 9] = [
    ("disease", 2, 300),
    ("12cities", 2, 300),
    ("butterfly", 2, 300),
    ("ad", 2, 300),
    ("racial", 2, 300),
    ("tickets", 2, 300),
    ("memory", 1, 2000),
    ("votes", 1, 2000),
    ("survival", 1, 2000),
];

/// FNV-1a of each cell's run and summary, in `CELLS` order.
const DIGESTS: [&str; 9] = [
    "518d39e422443564", // disease
    "faed53ec44aec1ed", // 12cities
    "0e59b1fdd178362c", // butterfly
    "c44e78f5a46b2589", // ad
    "626067280433c88e", // racial
    "289a49d34f0cbcc9", // tickets
    "9cb31f16c92c2afd", // memory
    "3ad0c9b75c58fd73", // votes
    "8082e0a350aa753f", // survival
];

fn digest(run: &MultiChainRun) -> u64 {
    let mut bytes = Vec::new();
    let mut put = |x: u64| bytes.extend_from_slice(&x.to_le_bytes());
    for c in &run.chains {
        put(c.draws.len() as u64);
        for x in c.draws.iter().flatten() {
            put(x.to_bits());
        }
        put(c.warmup as u64);
        put(c.accept_mean.to_bits());
        put(c.grad_evals);
        put(c.divergences);
        for &e in &c.evals_per_iter {
            put(u64::from(e));
        }
    }
    for s in summarize(run) {
        put(s.index as u64);
        for x in [
            s.mean,
            s.sd,
            s.mcse,
            s.q05,
            s.q50,
            s.q95,
            s.ess,
            s.rhat_rank,
        ] {
            put(x.to_bits());
        }
    }
    bayes_obs::fnv1a64(&bytes)
}

/// Runs `sampler` on `name`'s dynamics model: a short two-chain job,
/// one inner thread, fast path on, and returns its digest in hex.
fn run_digest<S: Sampler>(sampler: &S, name: &str, seed: u64, iters: usize) -> String {
    let w = registry::workload(name, SMOKE_SCALE, REFERENCE_SEED)
        .unwrap_or_else(|| panic!("registry has no workload {name:?}"));
    let cfg = RunConfig::new(iters)
        .with_chains(2)
        .with_seed(seed)
        .with_inner_threads(1)
        .with_fast_path(true)
        .threaded();
    let run = chain::run(sampler, w.dynamics_model(), &cfg);
    format!("{:016x}", digest(&run))
}

/// The failure message: every computed digest, as a pasteable table.
fn table(labels: impl Iterator<Item = String>, got: &[String]) -> String {
    labels
        .zip(got)
        .map(|(label, d)| format!("    \"{d}\", // {label}\n"))
        .collect()
}

#[test]
fn nuts_draws_and_summaries_match_their_digests_bit_for_bit() {
    let got: Vec<String> = CELLS
        .iter()
        .map(|&(name, seed, iters)| run_digest(&Nuts::default(), name, seed, iters))
        .collect();
    let table = table(CELLS.iter().map(|c| c.0.to_string()), &got);
    assert_eq!(got, DIGESTS, "digests moved; this commit computes\n{table}");
}

/// The samplers `OTHER_CELLS` runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Nuts,
    Hmc,
    Mh,
}

/// Sampler, cell, chain seed, iterations.
const OTHER_CELLS: [(Kind, &str, u64, usize); 5] = [
    (Kind::Nuts, "ode", 1, 100),
    (Kind::Hmc, "12cities", 2, 300),
    (Kind::Hmc, "memory", 1, 1000),
    (Kind::Mh, "12cities", 2, 2000),
    (Kind::Mh, "memory", 1, 2000),
];

/// FNV-1a of each run and summary, in `OTHER_CELLS` order.
const OTHER_DIGESTS: [&str; 5] = [
    "547df215d388258e", // Nuts ode
    "f8f0f594e3e8a7ed", // Hmc 12cities
    "2c6544980314ffcc", // Hmc memory
    "b7d6cffbc893226d", // Mh 12cities
    "821d3c3f239b6946", // Mh memory
];

#[test]
fn ode_nuts_hmc_and_mh_draws_and_summaries_match_their_digests_bit_for_bit() {
    let got: Vec<String> = OTHER_CELLS
        .iter()
        .map(|&(kind, name, seed, iters)| match kind {
            Kind::Nuts => run_digest(&Nuts::default(), name, seed, iters),
            Kind::Hmc => run_digest(&StaticHmc::new(16), name, seed, iters),
            Kind::Mh => run_digest(&MetropolisHastings::new(), name, seed, iters),
        })
        .collect();
    let labels = OTHER_CELLS.iter().map(|c| format!("{:?} {}", c.0, c.1));
    let table = table(labels, &got);
    assert_eq!(
        got, OTHER_DIGESTS,
        "digests moved; this commit computes\n{table}"
    );
}
