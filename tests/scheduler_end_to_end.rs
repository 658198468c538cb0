//! Cross-crate integration: static prediction → platform selection →
//! elision, over real BayesSuite workloads (reduced scales for speed).

use bayes_archsim::{SimConfig, WorkloadSignature};
use bayes_sched::predictor::{fig3_points, suite};
use bayes_sched::{ElisionStudy, LlcMissPredictor, PlatformScheduler, StudyConfig};
use bayes_suite::registry;

/// The pinned predictor is what `fig3` fits: refitting its points
/// gives the same slope and threshold, to the bit.
#[test]
fn suite_is_the_fit_of_the_fig3_points() {
    let samples: Vec<_> = fig3_points().into_iter().map(|(_, s)| s).collect();
    let refit = LlcMissPredictor::fit(&samples);
    let pinned = suite();
    assert_eq!(
        (refit.slope().to_bits(), refit.data_threshold()),
        (pinned.slope().to_bits(), pinned.data_threshold()),
        "refit slope {:e}, threshold {} bytes",
        refit.slope(),
        refit.data_threshold()
    );
}

#[test]
fn predictor_classifies_the_llc_bound_trio() {
    let predictor = suite();
    for name in registry::workload_names() {
        let w = registry::workload(name, 1.0, 11).expect("known");
        let bound = predictor.is_llc_bound(w.meta().modeled_data_bytes);
        let expected = matches!(*name, "ad" | "survival" | "tickets");
        assert_eq!(
            bound, expected,
            "{name}: bound={bound}, expected={expected}"
        );
    }
}

#[test]
fn scheduler_beats_all_broadwell_placement() {
    let scheduler = PlatformScheduler::new(suite());
    let mut speedups = Vec::new();
    for name in registry::workload_names() {
        let w = registry::workload(name, 1.0, 11).expect("known");
        let sig = WorkloadSignature::measure(&w, 10, 3);
        let choice = scheduler.schedule(
            &sig,
            &SimConfig {
                cores: 4,
                chains: 4,
                iters: sig.default_iters,
            },
        );
        // The scheduler must never be slower than its own baseline.
        assert!(
            choice.speedup() >= 1.0 - 1e-9,
            "{name}: {}",
            choice.speedup()
        );
        speedups.push(choice.speedup());
    }
    // Per-workload average, the paper's 1.16× metric.
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    assert!(
        mean > 1.05,
        "scheduled placement should clearly beat all-Broadwell on average: {mean:.3}"
    );
}

#[test]
fn elision_saves_work_and_preserves_quality_on_a_real_workload() {
    let w = registry::workload("butterfly", 1.0, 11).expect("known");
    let study = ElisionStudy::run(
        w.dynamics_model(),
        &StudyConfig {
            chains: 4,
            iters: 1200,
            seed: 5,
            check_every: 50,
        },
    );
    let at = study.converged_at.expect("butterfly converges");
    assert!(at < 1200, "stopped early at {at}");
    assert!(study.iter_saving > 0.3, "saving {}", study.iter_saving);
    assert!(
        study.work_saving <= study.iter_saving + 0.05,
        "latency saving ({}) cannot exceed iteration saving ({})",
        study.work_saving,
        study.iter_saving
    );
    assert!(study.quality_preserved(30.0), "kl {}", study.kl_at_stop);
}
