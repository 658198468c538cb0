//! `trace_report`'s CSV reads back as the rows it was rendered from,
//! whatever a trace holds: `parse_csv(&r.to_csv()) == Ok(r.csv_rows())`
//! for every trace the record-codec corpus reads (the valid trace, its
//! single-byte flips and truncations, arbitrary bytes alone and behind
//! it), and for a trace whose strings hold the CSV's own delimiters.

use bayes_bench::report::{parse_csv, TraceReport};
use bayes_obs::{CheckpointSource, Event, MetricsRegistry};
use proptest::prelude::*;

/// Reads `text` as a trace and, when it reads, renders the CSV and
/// parses it back.
fn assert_round_trips(text: &str) {
    if let Ok(report) = TraceReport::parse(text) {
        let rows = report.csv_rows();
        assert_eq!(parse_csv(&report.to_csv()), Ok(rows), "from {text:?}");
    }
}

/// The valid trace of `record_codecs.rs`: one line of every kind a run,
/// a served job and a characterisation write, histograms and non-finite
/// values included.
fn trace() -> String {
    let mut registry = MetricsRegistry::new();
    registry.counter_add("grad_evals", 4321);
    registry.gauge_set("final_eps", 0.25);
    registry.gauge_set("nan", f64::NAN);
    for v in [3, 900, 17_000, u64::MAX] {
        registry.record("span.gradient_eval", v);
        registry.record("span.tree_doubling", v / 2);
    }
    let mut events = vec![
        Event::trace_header(),
        Event::RunStart {
            model: "votes".into(),
            chains: 2,
            iters: 40,
            seed: u64::MAX,
        },
        Event::SpanStart {
            chain: Some(0),
            phase: "adaptation".into(),
            depth: 0,
        },
        Event::SpanEnd {
            chain: Some(0),
            phase: "adaptation".into(),
            depth: 0,
            elapsed_ns: 1200,
            self_ns: 800,
        },
    ];
    for iter in 0..3 {
        events.push(Event::Iteration {
            chain: iter % 2,
            iter,
            step_size: 0.1 + iter as f64,
            tree_depth: 3,
            leapfrogs: 7,
            divergent: iter == 2,
            accept: if iter == 1 { f64::NAN } else { 0.8 },
        });
    }
    events.extend([
        Event::Checkpoint {
            source: CheckpointSource::Online,
            iter: 20,
            max_rhat: f64::INFINITY,
            streak: 0,
            converged: false,
        },
        Event::ChainFault {
            chain: 1,
            attempt: 0,
            kind: "panic".into(),
            iter: Some(9),
            message: "injected \"fault\"".into(),
        },
        Event::Metrics {
            model: "votes".into(),
            snapshot: registry.snapshot(),
        },
        Event::RunEnd {
            model: "votes".into(),
            chains: 2,
            stopped_at: None,
            total_draws: 80,
            divergences: 1,
            grad_evals: 4321,
            span_ns: 99,
        },
        Event::JobSubmitted {
            job: 3,
            name: "j".into(),
            workload: "votes".into(),
            priority: 1,
            chains: 2,
            iters: 40,
            seed: 7,
            data_bytes: 4096,
        },
        Event::JobPlaced {
            job: 3,
            cores: 2,
            inner_threads: 1,
            llc_bound: false,
            predicted_mpki: 0.5,
            resumed_from: Some(20),
        },
        Event::JobCompleted {
            job: 3,
            stopped_at: Some(20),
            iters_done: 20,
            degraded: false,
            faults: 0,
            grad_evals: 4321,
        },
        Event::JournalReplayed {
            path: "wal".into(),
            records: 4,
            jobs_recovered: 1,
        },
        Event::MetricsSample {
            source: "server".into(),
            chain: None,
            seq: 0,
            iter: 20,
            elapsed_ns: 5000,
            iters_per_sec: 12.5,
            grad_evals_per_sec: 0.0,
            grad_share: f64::NAN,
            wal_appends: 3,
            wal_p50_ns: 1500.0,
            wal_p99_ns: f64::NAN,
        },
        Event::Counters {
            workload: "votes".into(),
            platform: "Skylake".into(),
            cores: 4,
            ipc: 1.25,
            llc_mpki: 3.5,
            bandwidth_gbs: 2.0,
            time_s: 0.5,
            energy_j: 7.0,
        },
    ]);
    events.iter().map(|e| e.to_json() + "\n").collect()
}

/// A trace whose strings hold the CSV's delimiters: a model named `a,b`
/// once rendered six-column rows, and a workload holding a newline split
/// every row of its job in two.
fn delimiter_trace() -> String {
    let events = [
        Event::trace_header(),
        Event::RunStart {
            model: "a,b".into(),
            chains: 1,
            iters: 10,
            seed: 3,
        },
        Event::JobSubmitted {
            job: 1,
            name: "say \"hi\"".into(),
            workload: "line\nbreak\r\n".into(),
            priority: 1,
            chains: 2,
            iters: 40,
            seed: 7,
            data_bytes: 4096,
        },
        Event::JournalReplayed {
            path: "state,dir/wal".into(),
            records: 2,
            jobs_recovered: 1,
        },
    ];
    events.iter().map(|e| e.to_json() + "\n").collect()
}

#[test]
fn every_trace_the_codec_corpus_reads_round_trips_through_csv() {
    for text in [trace(), delimiter_trace()] {
        assert_round_trips(&text);
        for at in 0..text.len() {
            for mask in [0x01, 0x20, 0x80] {
                let mut bad = text.clone().into_bytes();
                bad[at] ^= mask;
                assert_round_trips(&String::from_utf8_lossy(&bad));
            }
        }
        for len in (0..=text.len()).filter(|&n| text.is_char_boundary(n)) {
            assert_round_trips(&text[..len]);
        }
    }
    let rows = parse_csv(&TraceReport::parse(&delimiter_trace()).unwrap().to_csv()).unwrap();
    assert!(rows.iter().any(|r| r.model == "a,b" && r.field == "seed"));
    assert!(rows
        .iter()
        .any(|r| r.model == "line\nbreak\r\n" && r.name == "job1"));
}

proptest! {
    #[test]
    fn arbitrary_bytes_alone_and_behind_the_codec_trace_round_trip(
        bytes in proptest::collection::vec(0u8..=255, 0..600),
    ) {
        let tail = String::from_utf8_lossy(&bytes);
        assert_round_trips(&tail);
        assert_round_trips(&(trace() + &tail));
    }
}
