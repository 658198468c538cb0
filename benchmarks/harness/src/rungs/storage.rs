//! Rungs of `bayes-suite` (building cells, parsing references,
//! scoring) and `bayes-obs` (event codec, sinks, histograms, spans).

use super::Ctx;
use crate::workloads::nuts::{run_config, Cell, CHAINS, SCALE, STATS, TAPE};
use bayes_mcmc::chain;
use bayes_mcmc::nuts::Nuts;
use bayes_obs::{
    span, Event, Histogram, JsonlRecorder, MemoryRecorder, Phase, ProfilerHandle, Recorder,
    RecorderHandle,
};
use bayes_suite::registry::{self, REFERENCE_SEED};
use bayes_suite::{score_run, ReferencePosterior};
use std::hint::black_box;
use std::sync::Arc;

/// Events per timed call of the codec and sink rungs.
const EVENTS: usize = 256;

fn iteration_event(i: u64) -> Event {
    Event::Iteration {
        chain: i % 2,
        iter: i,
        step_size: 0.123_456_789 + i as f64 * 1e-6,
        tree_depth: 3,
        leapfrogs: 7,
        divergent: false,
        accept: 0.87,
    }
}

pub fn run(ctx: &mut Ctx<'_>) {
    let env = ctx.env.clone();

    // Building what each workload's set-up builds (the warm-up round
    // in `setup_s` would otherwise hide it).
    for (name, spec) in [
        ("suite.build_ms.nuts_tape", &TAPE),
        ("suite.build_ms.nuts_stats", &STATS),
    ] {
        ctx.rung(name, 1e3, || {
            for cell in spec.kinds.iter().flat_map(|k| k.iter()) {
                black_box(Cell::load(&env, cell));
            }
        });
    }
    ctx.rung("suite.build_ms.charact_sweep", 1e3, || {
        black_box(registry::all_workloads(1.0, REFERENCE_SEED));
    });

    // Scoring a finished run against its reference, and parsing the
    // largest reference (`butterfly`, 32 parameters).
    let votes = Cell::load(&env, "votes");
    let run = chain::run(
        &Nuts::default(),
        votes.workload.dynamics_model(),
        &run_config(STATS.iters, CHAINS, STATS.pool[0]),
    );
    ctx.rung("suite.score_ms", 1e3, || {
        black_box(score_run(black_box(&run), &votes.reference, 1.0));
    });
    let text = std::fs::read_to_string(
        env.repo_root
            .join("tests/golden/references")
            .join(registry::reference_file_name("butterfly", SCALE)),
    )
    .expect("read the butterfly reference");
    ctx.rung("suite.reference_parse_us", 1e6, || {
        black_box(ReferencePosterior::parse(black_box(&text)).expect("parse"));
    });

    // Event codec.
    let events: Vec<Event> = (0..EVENTS as u64).map(iteration_event).collect();
    let lines: Vec<String> = events.iter().map(Event::to_json).collect();
    let per_event = 1e9 / EVENTS as f64;
    ctx.rung("obs.event_encode_ns", per_event, || {
        for e in &events {
            black_box(black_box(e).to_json());
        }
    });
    ctx.rung("obs.event_decode_ns", per_event, || {
        for l in &lines {
            black_box(Event::from_json(black_box(l)).expect("decode"));
        }
    });

    // The file sink, buffered as the bench bins use it.
    let path = env
        .scratch
        .join(format!("rung-{}.jsonl", std::process::id()));
    let sink = JsonlRecorder::create(&path).expect("create the JSONL sink");
    ctx.rung("obs.jsonl_record_ns", per_event, || {
        for e in &events {
            sink.record(e);
        }
    });
    drop(sink);
    let _ = std::fs::remove_file(&path);

    let mut histogram = Histogram::new();
    ctx.rung("obs.histogram_record_ns", per_event, || {
        for i in 0..EVENTS as u64 {
            histogram.record(black_box(1000 + 37 * i));
        }
    });
    black_box(&histogram);

    // One profiled span, opened and closed under an installed scope.
    let profiler = ProfilerHandle::new(RecorderHandle::null());
    let scope = profiler.install(Some(0));
    ctx.rung("obs.span_ns", per_event, || {
        for _ in 0..EVENTS {
            drop(span(Phase::GradientEval));
        }
    });
    drop(scope);

    // Trace volume of one recorded iteration: a served-size `memory`
    // run with the in-memory recorder attached, every event encoded.
    let memory = registry::workload("memory", SCALE, REFERENCE_SEED).expect("registry workload");
    let recorder = Arc::new(MemoryRecorder::new());
    let iters = 400;
    let cfg =
        run_config(iters, 1, STATS.pool[0]).with_recorder(RecorderHandle::new(recorder.clone()));
    chain::run(&Nuts::default(), memory.dynamics_model(), &cfg);
    let bytes: usize = recorder.take().iter().map(|e| e.to_json().len() + 1).sum();
    ctx.put("obs.trace_bytes_per_iter", bytes as f64 / iters as f64, 1);
}
