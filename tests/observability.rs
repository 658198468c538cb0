//! Recorder invariants: events faithfully mirror what the run did, and
//! the JSONL sink round-trips every event.
//!
//! The funnel target is chosen to actually produce post-warmup
//! divergences, so the divergence-count invariant is exercised on a
//! non-trivial stream rather than vacuously on zeros.

use bayes_autodiff::Real;
use bayes_mcmc::nuts::Nuts;
use bayes_mcmc::obs::{Event, JsonlRecorder, MemoryRecorder, RecorderHandle};
use bayes_mcmc::{chain, AdModel, LogDensity, RunConfig};
use std::sync::Arc;

/// Neal's funnel (reduced): the sharply varying curvature defeats a
/// single step size, so NUTS diverges now and then even after warmup.
struct Funnel;

impl LogDensity for Funnel {
    fn dim(&self) -> usize {
        5
    }
    fn eval<R: Real>(&self, t: &[R]) -> R {
        let v = t[0];
        let mut lp = -v.square() * (1.0 / 18.0) - v * 2.0;
        for x in &t[1..] {
            lp = lp - x.square() * (-v).exp() * 0.5;
        }
        lp
    }
}

const ITERS: usize = 600;
const CHAINS: usize = 2;

fn recorded_run(rec: RecorderHandle) -> bayes_mcmc::MultiChainRun {
    let model = AdModel::new("funnel", Funnel);
    let cfg = RunConfig::new(ITERS)
        .with_chains(CHAINS)
        .with_seed(19)
        .with_recorder(rec);
    chain::run(&Nuts::default(), &model, &cfg)
}

#[test]
fn iteration_events_mirror_the_chain_outputs() {
    let mem = Arc::new(MemoryRecorder::new());
    let run = recorded_run(RecorderHandle::new(mem.clone()));
    let events = mem.take();

    assert!(matches!(events.first(), Some(Event::RunStart { .. })));
    assert!(matches!(events.last(), Some(Event::RunEnd { .. })));

    for (c, out) in run.chains.iter().enumerate() {
        let per_chain: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Iteration {
                    chain,
                    iter,
                    leapfrogs,
                    divergent,
                    ..
                } if *chain == c as u64 => Some((*iter, *leapfrogs, *divergent)),
                _ => None,
            })
            .collect();

        // Exactly one event per iteration, in order.
        assert_eq!(per_chain.len(), ITERS, "chain {c}");
        for (i, &(iter, ..)) in per_chain.iter().enumerate() {
            assert_eq!(iter, i as u64, "chain {c} event order");
        }

        // Post-warmup divergent events count what the chain reported.
        let post_warmup_divergent = per_chain
            .iter()
            .filter(|&&(iter, _, divergent)| divergent && iter >= out.warmup as u64)
            .count() as u64;
        assert_eq!(post_warmup_divergent, out.divergences, "chain {c}");

        // Leapfrog counts agree with the per-iteration eval profile.
        let event_evals: u64 = per_chain.iter().map(|&(_, l, _)| l).sum();
        let profile_evals: u64 = out.evals_per_iter.iter().map(|&e| e as u64).sum();
        assert_eq!(event_evals, profile_evals, "chain {c}");
    }

    match events.last().unwrap() {
        Event::RunEnd {
            total_draws,
            divergences,
            stopped_at,
            ..
        } => {
            assert_eq!(*total_draws, (ITERS * CHAINS) as u64);
            let want: u64 = run.chains.iter().map(|c| c.divergences).sum();
            assert_eq!(*divergences, want);
            assert!(want > 0, "the funnel should diverge post-warmup");
            assert_eq!(*stopped_at, None, "plain runs never stop early");
        }
        other => panic!("expected RunEnd, got {other:?}"),
    }
}

#[test]
fn span_events_nest_well_formed_on_a_threaded_run() {
    use bayes_mcmc::obs::{Phase, ProfilerHandle};
    use std::collections::HashMap;

    let mem = Arc::new(MemoryRecorder::new());
    let rec = RecorderHandle::new(mem.clone());
    let model = AdModel::new("funnel", Funnel);
    let cfg = RunConfig::new(ITERS)
        .with_chains(CHAINS)
        .with_seed(19)
        .threaded()
        .with_recorder(rec.clone())
        .with_profiler(ProfilerHandle::new(rec));
    let _ = chain::run(&Nuts::default(), &model, &cfg);
    let events = mem.take();

    // RAII span guards make the per-thread event stream well formed:
    // every span_end closes the innermost open span_start of the same
    // phase, and the announced depth equals the open-span count (all
    // event-emitting phases here are top-level or nested only in other
    // event-emitting phases).
    let mut stacks: HashMap<Option<u64>, Vec<(String, u64)>> = HashMap::new();
    let mut starts = 0usize;
    for e in &events {
        match e {
            Event::SpanStart {
                chain,
                phase,
                depth,
            } => {
                starts += 1;
                let p = Phase::from_tag(phase).expect("known phase tag");
                assert!(p.emits_events(), "fine phase {phase} emitted an event");
                stacks
                    .entry(*chain)
                    .or_default()
                    .push((phase.clone(), *depth));
            }
            Event::SpanEnd {
                chain,
                phase,
                depth,
                elapsed_ns,
                self_ns,
            } => {
                let stack = stacks.get_mut(chain).expect("span_end without span_start");
                let (open_phase, open_depth) = stack.pop().expect("span_end with empty span stack");
                assert_eq!(&open_phase, phase, "span_end closes a different phase");
                assert_eq!(open_depth, *depth, "span_end depth mismatch");
                assert!(self_ns <= elapsed_ns, "self time exceeds inclusive time");
            }
            _ => {}
        }
    }
    assert!(starts > 0, "a profiled NUTS run must emit spans");
    for (chain, stack) in &stacks {
        assert!(stack.is_empty(), "chain {chain:?} left spans open");
    }

    // Every chain thread profiled tree doublings, and the merged
    // snapshot agrees with the run_end headline.
    for c in 0..CHAINS as u64 {
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::SpanStart { chain: Some(ch), phase, .. }
                    if *ch == c && phase == "tree_doubling"
            )),
            "chain {c} emitted no tree_doubling span"
        );
    }
    let snapshot = events
        .iter()
        .find_map(|e| match e {
            Event::Metrics { snapshot, .. } => Some(snapshot),
            _ => None,
        })
        .expect("profiled run emits a metrics snapshot");
    assert!(snapshot.histograms.contains_key("span.gradient_eval"));
    assert!(snapshot.histograms.contains_key("span.leapfrog"));
    match events.last().unwrap() {
        Event::RunEnd { span_ns, .. } => {
            assert_eq!(*span_ns, snapshot.span_total_ns());
            assert!(*span_ns > 0, "profiled run recorded no span time");
        }
        other => panic!("expected RunEnd, got {other:?}"),
    }
}

#[test]
fn after_a_run_its_spans_are_read_from_the_metrics_event() {
    use bayes_mcmc::obs::ProfilerHandle;

    let mem = Arc::new(MemoryRecorder::new());
    let profiler = ProfilerHandle::new(RecorderHandle::new(mem.clone()));
    let model = AdModel::new("funnel", Funnel);
    let cfg = RunConfig::new(ITERS)
        .with_chains(CHAINS)
        .with_seed(19)
        .with_profiler(profiler.clone());
    let _ = chain::run(&Nuts::default(), &model, &cfg);

    // The run drained the profiler into its `metrics` event.
    assert!(profiler.snapshot().is_empty(), "the run left spans behind");
    let snapshot = mem
        .take()
        .into_iter()
        .find_map(|e| match e {
            Event::Metrics { snapshot, .. } => Some(snapshot),
            _ => None,
        })
        .expect("profiled run emits a metrics snapshot");
    let leapfrogs = &snapshot.histograms["span.leapfrog"];
    assert!(
        leapfrogs.count() > 0,
        "the metrics event holds no leapfrog span"
    );
}

#[test]
fn jsonl_sink_round_trips_the_event_stream() {
    // Sequential execution makes the cross-chain event order
    // deterministic, so the two recorders of the same run see the
    // identical sequence.
    let mem = Arc::new(MemoryRecorder::new());
    let _ = recorded_run(RecorderHandle::new(mem.clone()));
    let expected = mem.take();

    let path = std::env::temp_dir().join("bayes_obs_roundtrip_test.jsonl");
    let jsonl = JsonlRecorder::create(&path).expect("create trace file");
    let _ = recorded_run(RecorderHandle::new(Arc::new(jsonl)));

    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    // The JSONL sink stamps a schema header as its first line; the
    // memory recorder sees only the run's own events.
    assert_eq!(
        lines.len(),
        expected.len() + 1,
        "header + one JSON line per event"
    );
    match Event::from_json(lines[0]).expect("header parses") {
        Event::TraceHeader { schema_version } => {
            assert_eq!(schema_version, "1.3");
        }
        other => panic!("expected a trace_header first, got {other:?}"),
    }
    for (line, want) in lines[1..].iter().zip(&expected) {
        let got = Event::from_json(line).expect("every line parses");
        assert_eq!(got.to_json(), want.to_json(), "lossless round-trip");
    }
}
