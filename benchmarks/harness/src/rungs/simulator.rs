//! Rungs of `bayes-archsim` (signatures, the cache simulator, access
//! streams) and `bayes-sched` (predictor, elision study, platform
//! scheduling).

use super::Ctx;
use crate::workloads::charact::{PROBE_ITERS, PROBE_SEED};
use crate::workloads::serve::predictor;
use bayes_archsim::stream::{leapfrog_stream, ChainLayout};
use bayes_archsim::{characterize, Platform, SimConfig, WorkloadSignature};
use bayes_sched::predictor::MissSample;
use bayes_sched::{ElisionStudy, LlcMissPredictor, PlatformScheduler, StudyConfig};
use bayes_suite::registry::{self, REFERENCE_SEED};
use std::hint::black_box;

/// Iterations per chain of the elision study (the pipeline's own runs
/// the workload's default 2000+ and takes seconds).
const STUDY_ITERS: usize = 200;

pub fn run(ctx: &mut Ctx<'_>) {
    let votes = registry::workload("votes", 1.0, REFERENCE_SEED).expect("registry workload");
    let ad = registry::workload("ad", 1.0, REFERENCE_SEED).expect("registry workload");
    ctx.rung("archsim.signature_ms", 1e3, || {
        black_box(WorkloadSignature::measure(&votes, PROBE_ITERS, PROBE_SEED));
    });
    let votes_sig = WorkloadSignature::measure(&votes, PROBE_ITERS, PROBE_SEED);
    let ad_sig = WorkloadSignature::measure(&ad, PROBE_ITERS, PROBE_SEED);
    let skylake = Platform::skylake();
    let four = SimConfig {
        cores: 4,
        chains: 4,
        iters: 100,
    };
    // An LLC-bound signature (2.4 MB tape) and a resident one.
    ctx.rung("archsim.characterize_ms.ad", 1e3, || {
        black_box(characterize(black_box(&ad_sig), &skylake, &four));
    });
    ctx.rung("archsim.characterize_ms.votes", 1e3, || {
        black_box(characterize(black_box(&votes_sig), &skylake, &four));
    });
    let layout = ChainLayout::for_chain(0, ad_sig.data_bytes, ad_sig.tape_bytes, ad_sig.dim);
    ctx.rung("archsim.leapfrog_stream_ms", 1e3, || {
        black_box(leapfrog_stream(black_box(&layout)));
    });

    let samples: Vec<MissSample> = (1..=30)
        .map(|i| MissSample {
            data_bytes: i * 64 * 1024,
            mpki: 0.4 * i as f64 + (i % 3) as f64 * 0.1,
        })
        .collect();
    ctx.rung("sched.predictor_fit_us", 1e6, || {
        black_box(LlcMissPredictor::fit(black_box(&samples)));
    });

    let model = votes.dynamics_model();
    let study_cfg = StudyConfig::new(4, STUDY_ITERS)
        .with_seed(PROBE_SEED)
        .with_check_every(50);
    ctx.rung("sched.elision_study_ms", 1e3, || {
        black_box(ElisionStudy::run(model, &study_cfg));
    });

    let scheduler = PlatformScheduler::new(predictor());
    ctx.rung("sched.schedule_ms", 1e3, || {
        black_box(scheduler.schedule(black_box(&votes_sig), &four));
    });
}
