//! Online/post-hoc convergence agreement.
//!
//! The elision monitor (`run_until_converged`) and the post-hoc replay
//! (`ConvergenceDetector::detect`) used to walk *different* checkpoint
//! schedules — the monitor stepped by a fixed cadence while the replay
//! thinned geometrically — so the same run could "stop" at different
//! iterations depending on which code path looked at it. Both now walk
//! the one `ConvergenceDetector::checkpoints` iterator; these tests pin
//! the agreement, deliberately placing the stop point in the geometric
//! region of the schedule where the old divergence showed.

use bayes_autodiff::Real;
use bayes_mcmc::obs::{CheckpointSource, Event, MemoryRecorder, RecorderHandle};
use bayes_mcmc::{
    chain, run_until_converged, AdModel, ConvergenceDetector, Env, Info, LogDensity, RunConfig,
    Sampler, SamplerCheckpoint,
};
use std::sync::Arc;

struct Gauss1;

impl LogDensity for Gauss1 {
    fn dim(&self) -> usize {
        1
    }
    fn eval<R: Real>(&self, t: &[R]) -> R {
        -(t[0] * t[0]) * 0.5
    }
}

/// SplitMix64-style finalizer: cheap deterministic noise that depends
/// only on `(chain, i)`, so every execution path sees the same draws.
fn hash_noise(chain: usize, i: usize) -> f64 {
    let mut z = (chain as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) - 0.5
}

/// Chains that start `6.0 * chain_index` apart and merge after
/// `merge_at` iterations — pure deterministic data, no RNG, so every
/// path that runs them sees the same draws, and the prefixes the
/// monitor decides on are the ones the post-hoc replay reads.
struct MergingSampler {
    merge_at: usize,
}

impl Sampler for MergingSampler {
    type State = Vec<f64>;

    fn init(&self, _: &[f64], _: &mut Env<'_>) -> Vec<f64> {
        vec![0.0]
    }

    fn step(&self, draw: &mut Vec<f64>, i: usize, env: &mut Env<'_>) -> Info {
        let chain = env.cfg.chain_index;
        let drift = if i < self.merge_at {
            chain as f64 * 6.0 * (1.0 - i as f64 / self.merge_at as f64)
        } else {
            0.0
        };
        draw[0] = drift + hash_noise(chain, i);
        env.evals += 1;
        Info {
            accept_stat: 1.0,
            ..Info::default()
        }
    }

    fn position<'s>(&self, draw: &'s Vec<f64>) -> &'s [f64] {
        draw
    }

    fn snapshot(&self, draw: &Vec<f64>) -> SamplerCheckpoint {
        SamplerCheckpoint {
            q: draw.clone(),
            ..SamplerCheckpoint::default()
        }
    }

    fn restore(&self, ck: &SamplerCheckpoint) -> Vec<f64> {
        ck.q.clone()
    }
}

fn detector() -> ConvergenceDetector {
    // cadence 25, min 50: the schedule turns geometric past t = 200,
    // well before the merge at 400 lets the chains converge — the stop
    // lands where the two walkers used to disagree.
    ConvergenceDetector::new()
        .with_check_every(25)
        .with_min_iters(50)
        .with_consecutive(3)
}

#[test]
fn online_stop_equals_posthoc_detection() {
    let model = AdModel::new("merging", Gauss1);
    let sampler = MergingSampler { merge_at: 400 };
    let cfg = RunConfig::new(3000).with_chains(4).with_seed(1);
    let det = detector();

    let online = run_until_converged(&sampler, &model, &cfg, &det);
    let posthoc = det.detect(&chain::run(&sampler, &model, &cfg));

    let stopped = online.stopped_at.expect("merged chains must converge");
    assert!(
        stopped > 200,
        "stop at {stopped} missed the geometric region this test targets"
    );
    assert_eq!(
        Some(stopped),
        posthoc.converged_at,
        "online monitor and post-hoc replay disagree on the stop point"
    );
    for c in &online.run.chains {
        assert_eq!(c.draws.len(), stopped, "output truncated to the decision");
    }
}

#[test]
fn online_checkpoint_events_are_a_prefix_of_posthoc() {
    let model = AdModel::new("merging", Gauss1);
    let sampler = MergingSampler { merge_at: 400 };
    let det = detector();

    let mem_online = Arc::new(MemoryRecorder::new());
    let cfg = RunConfig::new(3000)
        .with_chains(4)
        .with_seed(1)
        .with_recorder(RecorderHandle::new(mem_online.clone()));
    let online = run_until_converged(&sampler, &model, &cfg, &det);

    let mem_posthoc = Arc::new(MemoryRecorder::new());
    let plain = chain::run(
        &sampler,
        &model,
        &RunConfig::new(3000).with_chains(4).with_seed(1),
    );
    let _ = det.detect_recorded(&plain, &RecorderHandle::new(mem_posthoc.clone()));

    let checkpoints = |events: &[Event], want: CheckpointSource| -> Vec<(u64, f64, u64, bool)> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Checkpoint {
                    source,
                    iter,
                    max_rhat,
                    streak,
                    converged,
                } if *source == want => Some((*iter, *max_rhat, *streak, *converged)),
                _ => None,
            })
            .collect()
    };
    let online_cp = checkpoints(&mem_online.take(), CheckpointSource::Online);
    let posthoc_cp = checkpoints(&mem_posthoc.take(), CheckpointSource::PostHoc);

    // The monitor stops emitting once it fires; up to that point the
    // two walkers must have seen identical iterations, R̂ values,
    // streaks, and verdicts.
    assert!(!online_cp.is_empty());
    assert!(online_cp.len() <= posthoc_cp.len());
    assert_eq!(online_cp, posthoc_cp[..online_cp.len()]);
    let (last_iter, _, _, converged) = *online_cp.last().unwrap();
    assert!(converged, "the monitor's final checkpoint is the stop");
    assert_eq!(Some(last_iter as usize), online.stopped_at);
}
