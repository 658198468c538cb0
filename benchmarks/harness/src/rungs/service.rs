//! Rungs of `bayes-serve`: the write-ahead log, one job alone and two
//! tenants together, the served/direct ratio, preemption, recovery,
//! and the status call.

use super::Ctx;
use crate::stats;
use crate::workloads::nuts::run_config;
use crate::workloads::serve::{
    job, predictor, preemption_cycle, recovery_cycle, submit_and_wait, JobTrack, CORES,
};
use bayes_mcmc::chain;
use bayes_mcmc::nuts::Nuts;
use bayes_serve::{JobServer, Journal, JournalRecord, ServerConfig};
use bayes_suite::registry;
use std::hint::black_box;
use std::time::Instant;

/// The sufficient-statistics trio, cycled: every job costs about the
/// same, so the solo and two-tenant loops differ only in contention.
const TRIO: [&str; 3] = ["votes", "memory", "survival"];
const ITERS: usize = 400;
const SOLO_JOBS: usize = 30;
const PAIR_JOBS_PER_CLIENT: usize = 20;
/// Kill/recover and preemption cycles: each costs ~0.2 s, so these two
/// rungs take fewer samples than the rest and say so.
const CYCLES: usize = 6;

fn trio_job(i: usize, tag: &str) -> bayes_serve::JobSpec {
    job(
        format!("{tag}-{i:02}"),
        TRIO[i % TRIO.len()],
        ITERS,
        500 + i as u64,
        1,
    )
}

fn all_completed(tracks: &[JobTrack], what: &str) {
    for t in tracks {
        assert!(t.completed, "{what}: job {} ended {}", t.name, t.outcome);
    }
}

pub fn run(ctx: &mut Ctx<'_>) {
    let dir = ctx
        .env
        .scratch
        .join(format!("rung-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the serve rung directory");

    // The WAL on its own: append, then replay what was appended.
    let wal = dir.join("append.wal");
    let mut journal = Journal::create(&wal).expect("create journal");
    let mut iter = 0u64;
    ctx.rung("serve.journal_append_us", 1e6 / 64.0, || {
        for _ in 0..64 {
            iter += 50;
            journal
                .append(&JournalRecord::Checkpointed { job: 1, iter })
                .expect("journal append");
        }
    });
    drop(journal);
    let wal_bytes = std::fs::metadata(&wal).expect("journal metadata").len() as f64;
    let (replay_s, n) = ctx.time(|| {
        black_box(Journal::open(&wal).expect("replay journal"));
    });
    ctx.put(
        "serve.journal_replay_mb_per_s",
        wal_bytes / 1e6 / replay_s,
        n,
    );

    // One client alone on a journaling server.
    let main = dir.join("main");
    let journal_path = main.join("journal.wal");
    let server = JobServer::start(
        ServerConfig::new(CORES, predictor())
            .with_checkpoint_dir(&main)
            .with_journal(&journal_path),
    );
    submit_and_wait(&server, trio_job(0, "warm"));
    let journal_before = std::fs::metadata(&journal_path)
        .expect("journal metadata")
        .len();
    let (solo, solo_factor) = ctx.bracket(1, || {
        (0..SOLO_JOBS)
            .map(|i| submit_and_wait(&server, trio_job(i, "solo")))
            .collect::<Vec<_>>()
    });
    all_completed(&solo, "solo loop");
    let journal_per_job = (std::fs::metadata(&journal_path)
        .expect("journal metadata")
        .len()
        - journal_before) as f64
        / SOLO_JOBS as f64;
    ctx.put("serve.journal_bytes_per_job", journal_per_job, SOLO_JOBS);
    let turnarounds: Vec<f64> = solo
        .iter()
        .map(|t| t.turnaround_s() * solo_factor)
        .collect();
    let solo_p50 = stats::median(&turnarounds);
    ctx.put("serve.solo_turnaround_ms_p50", solo_p50 * 1e3, SOLO_JOBS);
    let first_draws: Vec<f64> = solo
        .iter()
        .filter_map(|t| {
            t.first_draw
                .map(|f| (f - t.submitted).as_secs_f64() * solo_factor)
        })
        .collect();
    ctx.put(
        "serve.first_draw_ms_p50",
        stats::median(&first_draws) * 1e3,
        first_draws.len(),
    );

    // WAL cost as a share of a solo job's turnaround: records per job
    // (bytes per job over the mean record size of this journal) times
    // the append time measured above.
    let append_s = ctx.values["serve.journal_append_us"] / 1e6;
    let (_, replay) = Journal::open(&journal_path).expect("replay the server journal");
    let records_per_job = replay.records.len() as f64 / (SOLO_JOBS + 1) as f64;
    ctx.put(
        "serve.wal_share",
        records_per_job * append_s / solo_p50,
        SOLO_JOBS,
    );

    // The same specs run directly: what serving adds.
    let (direct_s, direct_factor) = ctx.bracket(1, || {
        let started = Instant::now();
        for i in 0..SOLO_JOBS {
            let spec = trio_job(i, "direct");
            let wl = registry::workload(&spec.workload, spec.scale, spec.seed)
                .expect("registry workload");
            black_box(chain::run(
                &Nuts::default(),
                wl.dynamics_model(),
                &run_config(ITERS, 1, spec.seed),
            ));
        }
        started.elapsed().as_secs_f64()
    });
    let served_s: f64 = turnarounds.iter().sum();
    ctx.put(
        "serve.overhead_ratio",
        served_s / (direct_s * direct_factor),
        SOLO_JOBS,
    );

    // Two tenants in a closed loop on the same server.
    let (pair, pair_factor) = ctx.bracket(1, || {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|c| {
                    let server = &server;
                    s.spawn(move || {
                        (0..PAIR_JOBS_PER_CLIENT)
                            .map(|i| {
                                submit_and_wait(
                                    server,
                                    trio_job(c * PAIR_JOBS_PER_CLIENT + i, "pair"),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        })
    });
    all_completed(&pair, "two-tenant loop");
    let pair_turnarounds: Vec<f64> = pair
        .iter()
        .map(|t| t.turnaround_s() * pair_factor * 1e3)
        .collect();
    let p90 = stats::percentile(&pair_turnarounds, 90.0);
    ctx.put("serve.turnaround_ms_p90", p90.value, p90.samples);

    ctx.rung("serve.status_us", 1e6, || {
        black_box(server.status().expect("live server answers status"));
    });

    // Preemption on the same server; kill/recover on side servers.
    let mut pauses = Vec::new();
    let mut recoveries = Vec::new();
    for c in 0..CYCLES {
        let ((victim, urgent, pause_s), factor) = ctx.bracket(1, || {
            preemption_cycle(
                &server,
                job(format!("victim-{c}"), "racial", 150, 700 + c as u64, 0),
                job(format!("urgent-{c}"), "votes", 100, 800 + c as u64, 5),
            )
        });
        all_completed(&[victim, urgent], "preemption cycle");
        pauses.push(pause_s * factor * 1e3);
        // Recovery is bounded by the scheduler's 20 ms poll, a timer
        // and not work, so it is reported raw.
        let (recovered, recover_s) = recovery_cycle(
            &dir.join(format!("side-{c}")),
            job(format!("recover-{c}"), "racial", 150, 900 + c as u64, 1),
        );
        all_completed(&[recovered], "recovery cycle");
        recoveries.push(recover_s * 1e3);
    }
    ctx.put("serve.preempt_pause_ms_p50", stats::median(&pauses), CYCLES);
    ctx.put("serve.recover_ms_p50", stats::median(&recoveries), CYCLES);

    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
