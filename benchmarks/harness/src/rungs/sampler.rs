//! Rungs of `bayes-mcmc`: transitions, gradient shares, diagnostics,
//! per-cell efficiency, the other samplers, sharding, checkpoints.

use super::kernels::Grads;
use super::Ctx;
use crate::engine::{Env, Workload};
use crate::spans::Tracer;
use crate::workloads::nuts::{run_config, NutsWorkload, CHAINS, SCALE, STATS, TAPE};
use crate::workloads::serve::detector;
use bayes_mcmc::checkpoint::RunCheckpoint;
use bayes_mcmc::hmc::StaticHmc;
use bayes_mcmc::mh::MetropolisHastings;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::summary::{rank_normalized_split_rhat, summarize};
use bayes_mcmc::supervisor::{Runtime, SupervisorConfig};
use bayes_mcmc::{chain, ConvergenceDetector, Model, MultiChainRun};
use bayes_suite::registry::{self, REFERENCE_SEED};
use std::hint::black_box;

/// Times single-chain NUTS runs of `iters` iterations and records the
/// per-transition time, the gradient rate, and the share of the run
/// that `grad_s`-second gradients account for. Returns the normalised
/// seconds per transition, the gradient evaluations per transition,
/// and the number of timed runs.
fn transitions(
    ctx: &mut Ctx<'_>,
    model: &dyn Model,
    iters: usize,
    seed: u64,
    grad_s: f64,
    names: [&'static str; 3],
) -> (f64, f64, usize) {
    let cfg = run_config(iters, 1, seed);
    let mut grad_evals = 0u64;
    let (run_s, n) = ctx.time(|| {
        let run = chain::run(&Nuts::default(), model, &cfg);
        grad_evals = run.total_grad_evals();
        black_box(run);
    });
    let [share, transition_us, evals_per_s] = names;
    ctx.put(share, grad_evals as f64 * grad_s / run_s, n);
    ctx.put(transition_us, run_s / iters as f64 * 1e6, n);
    ctx.put(evals_per_s, grad_evals as f64 / run_s, n);
    (run_s / iters as f64, grad_evals as f64 / iters as f64, n)
}

/// One pass over every unit kind of a NUTS workload at its first pool
/// seed: per-cell ESS per normalised second of run + summarise + score.
fn cell_pass<const TAPE_CELLS: bool>(ctx: &mut Ctx<'_>, env: &Env, kinds: usize) {
    let tracer = Tracer::new(false);
    let mut w = NutsWorkload::<TAPE_CELLS>::build(env, false);
    for unit in 0..kinds {
        let span = tracer.open("bench.round", None, 0, 1.0);
        let (_, factor) = ctx.bracket(CHAINS, || w.run_unit(unit, 0, &tracer, &span, 0));
        for (cell, r) in &w.last {
            let name = crate::metrics::PER_LAYER
                .iter()
                .map(|m| m.name)
                .find(|n| n.strip_prefix("mcmc.ess_per_s.") == Some(cell))
                .expect("a per-cell metric for every NUTS cell");
            ctx.put(name, r.min_ess / (r.total_s * factor), 1);
        }
    }
}

/// The run every diagnostic rung works on: `memory`, 2 chains × 6000.
fn diagnostic_run() -> MultiChainRun {
    let w = registry::workload("memory", SCALE, REFERENCE_SEED).expect("registry workload");
    chain::run(
        &Nuts::default(),
        w.dynamics_model(),
        &run_config(STATS.iters, CHAINS, STATS.pool[0]),
    )
}

pub fn run(ctx: &mut Ctx<'_>, grads: &Grads) {
    let env = ctx.env.clone();

    // One representative cell of each NUTS workload, single chain, so
    // the isolated gradient time and the run are on the same footing.
    let tickets = registry::workload("tickets", SCALE, REFERENCE_SEED).expect("registry workload");
    transitions(
        ctx,
        tickets.dynamics_model(),
        100,
        TAPE.pool[0],
        grads.tape_s,
        [
            "mcmc.grad_share.nuts_tape",
            "mcmc.transition_us.nuts_tape",
            "mcmc.grad_evals_per_s.nuts_tape",
        ],
    );
    let memory = registry::workload("memory", SCALE, REFERENCE_SEED).expect("registry workload");
    let (transition_s, evals_per_transition, n) = transitions(
        ctx,
        memory.dynamics_model(),
        1000,
        STATS.pool[0],
        grads.stats_s,
        [
            "mcmc.grad_share.nuts_stats",
            "mcmc.transition_us.nuts_stats",
            "mcmc.grad_evals_per_s.nuts_stats",
        ],
    );
    ctx.put(
        "mcmc.sampler_self_us.nuts_stats",
        (transition_s - evals_per_transition * grads.stats_s) * 1e6,
        n,
    );

    cell_pass::<true>(ctx, &env, TAPE.kinds.len());
    cell_pass::<false>(ctx, &env, STATS.kinds.len());

    // Diagnostics on a finished run.
    let run = diagnostic_run();
    ctx.rung("mcmc.summarize_ms", 1e3, || {
        black_box(summarize(black_box(&run)));
    });
    let traces = run.traces(0);
    ctx.rung("mcmc.rhat_rank_us_per_param", 1e6, || {
        black_box(rank_normalized_split_rhat(black_box(&traces)));
    });
    let post_hoc = ConvergenceDetector::new().with_check_every(50);
    ctx.rung("mcmc.converge_detect_ms", 1e3, || {
        black_box(post_hoc.detect(black_box(&run)));
    });

    // The other two samplers on `12cities`, same shape as a NUTS cell.
    let cities = registry::workload("12cities", SCALE, REFERENCE_SEED).expect("registry workload");
    let cfg = run_config(TAPE.iters, CHAINS, TAPE.pool[0]);
    let mut other = |name: &'static str, sample: &dyn Fn() -> MultiChainRun| {
        let min_ess = summarize(&sample())
            .iter()
            .map(|p| p.ess)
            .fold(f64::INFINITY, f64::min);
        let (s, n) = ctx.time_on(CHAINS, || {
            black_box(sample());
        });
        ctx.put(name, min_ess / s, n);
    };
    other("mcmc.hmc_ess_per_s", &|| {
        chain::run(&StaticHmc::new(32), cities.dynamics_model(), &cfg)
    });
    other("mcmc.mh_ess_per_s", &|| {
        chain::run(&MetropolisHastings::new(), cities.dynamics_model(), &cfg)
    });

    // Sharded likelihood: one full-scale `ad` gradient on one inner
    // thread against two. A ratio within one bracket: not normalised.
    let ad = registry::workload("ad", 1.0, REFERENCE_SEED).expect("registry workload");
    let model = ad.model();
    let theta = vec![0.1; model.dim()];
    let mut grad = vec![0.0; model.dim()];
    let mut sharded = |threads: usize| {
        model.set_inner_threads(threads);
        ctx.time(|| {
            black_box(model.ln_posterior_grad(black_box(&theta), &mut grad));
        })
    };
    let (one, _) = sharded(1);
    let (two, n) = sharded(2);
    model.set_inner_threads(1);
    ctx.put("mcmc.shard_speedup_2t", one / two, n);

    // Checkpoint codec, on the checkpoint a served `memory` job of the
    // closed loop writes.
    let path = env
        .scratch
        .join(format!("rung-{}.ckpt.json", std::process::id()));
    let cfg = bayes_mcmc::RunConfig::new(400).with_chains(1).with_seed(7);
    Runtime::new(detector())
        .with_config(
            SupervisorConfig::new()
                .with_min_quorum(1)
                .with_checkpoint_path(&path),
        )
        .run(&Nuts::default(), memory.dynamics_model(), &cfg)
        .expect("supervised run for the checkpoint rung");
    let checkpoint = RunCheckpoint::load(&path).expect("load the checkpoint just written");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(bayes_mcmc::checkpoint::previous_checkpoint_path(&path));
    let text = checkpoint.to_durable_bytes();
    ctx.put("mcmc.checkpoint_bytes", text.len() as f64, 1);
    ctx.rung("mcmc.checkpoint_encode_us", 1e6, || {
        black_box(black_box(&checkpoint).to_durable_bytes());
    });
    ctx.rung("mcmc.checkpoint_decode_us", 1e6, || {
        black_box(RunCheckpoint::from_durable_bytes(black_box(&text)).expect("decode"));
    });
}
