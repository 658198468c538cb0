//! The record readers no input can panic: `Event::from_json`,
//! `TraceReport::parse` (and the report rendered from what it read),
//! `journal::scan`, `Journal::open` and the spec record a `submitted`
//! journal record carries.
//!
//! Each is fed arbitrary bytes, every single-byte flip and every
//! truncation of a valid trace and of a valid multi-record journal. Each
//! returns an error or what the damage left valid — the lines of a
//! trace it did not touch, the journal's records before the damaged
//! frame — never panics, and never makes one allocation larger than a
//! small multiple of its input. (The multiple is 32: a parsed JSON value
//! is 32 bytes, the two-byte array item `0,` is one, and a vector may
//! double its capacity past what it holds.)
//!
//! Its own test binary, because the allocation bound reads the counting
//! global allocator (`counting_alloc`).

mod counting_alloc;

use bayes_bench::report::TraceReport;
use bayes_obs::{CheckpointSource, Event, MetricsRegistry};
use bayes_serve::journal::{frame, scan, Journal, JournalRecord, SpecRecord};
use bayes_serve::JobSpec;
use counting_alloc::largest_allocation_in;
use proptest::prelude::*;
use std::time::Duration;

/// Runs `f` on an input of `len` bytes, holding it to the allocation
/// bound of the module docs.
fn bounded<T>(len: usize, f: impl FnOnce() -> T) -> T {
    let (out, largest) = largest_allocation_in(f);
    assert!(
        largest <= 32 * len + 4096,
        "reading {len} bytes allocated {largest} bytes at once"
    );
    out
}

/// Reads `text` as a trace and renders what it read, both ways.
fn report(text: &str) -> Option<TraceReport> {
    let report = bounded(text.len(), || TraceReport::parse(text)).ok()?;
    let _ = (report.to_string(), report.to_csv(), report.telemetry());
    Some(report)
}

/// Decodes one trace line; what decodes encodes to a line that decodes
/// to itself.
fn event(line: &str) -> Option<Event> {
    let event = bounded(line.len(), || Event::from_json(line)).ok()?;
    let again = event.to_json();
    let back = Event::from_json(&again).expect("an encoded event decodes");
    assert_eq!(back.to_json(), again, "from {line}");
    Some(event)
}

fn scan_bounded(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    bounded(bytes.len(), || scan(bytes))
}

/// A valid trace: one line of every kind a run, a served job and a
/// characterisation write, histograms and non-finite values included.
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

fn spec_record(seed: u64) -> SpecRecord {
    SpecRecord::of(
        &JobSpec::new("demo \"q\"", "12cities")
            .with_scale(0.5)
            .with_chains(3)
            .with_iters(120)
            .with_seed(seed)
            .with_min_quorum(2)
            .with_deadline(Duration::from_millis(750)),
    )
}

/// A valid journal: every record type, and where each frame ends.
fn journal() -> (Vec<JournalRecord>, Vec<u8>, Vec<usize>) {
    let records = vec![
        JournalRecord::Submitted {
            job: 1,
            spec: spec_record(u64::MAX),
        },
        JournalRecord::Placed { job: 1, cores: 4 },
        JournalRecord::Checkpointed { job: 1, iter: 40 },
        JournalRecord::Preempted { job: 1, at: 40 },
        JournalRecord::Restarted { job: 1, attempt: 1 },
        JournalRecord::Recovered {
            job: 1,
            resumed_from: None,
        },
        JournalRecord::Completed { job: 1 },
        JournalRecord::Failed { job: 2 },
        JournalRecord::Expired { job: 3 },
        JournalRecord::Shed { job: 4 },
    ];
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for r in &records {
        bytes.extend_from_slice(&frame(r));
        ends.push(bytes.len());
    }
    (records, bytes, ends)
}

#[test]
fn the_valid_trace_and_journal_read_back_whole() {
    let text = trace();
    let report = report(&text).expect("the trace reads");
    assert_eq!((report.lines, report.skipped), (text.lines().count(), 0));
    for line in text.lines() {
        assert!(event(line).is_some(), "{line}");
    }
    let (records, bytes, _) = journal();
    assert_eq!(scan_bounded(&bytes), (records, bytes.len()));
}

/// A histogram bucket no `u64` sample can land in used to decode, and
/// reading the report then shifted a `u64` past its width.
#[test]
fn a_histogram_bucket_out_of_range_is_an_error() {
    let text = trace();
    let line = text.lines().find(|l| l.contains("\"buckets\"")).unwrap();
    // The first bucket's index moved out of range, its count kept.
    let at = line.find("\"buckets\":[[").unwrap() + "\"buckets\":[[".len();
    let end = at + line[at..].find(',').unwrap();
    let bad = format!("{}2000{}", &line[..at], &line[end..]);
    assert!(Event::from_json(&bad).is_err(), "{bad}");
    let report = report(&format!("{bad}\n")).expect("the trace reads");
    assert_eq!(report.skipped, 1);
}

#[test]
fn every_single_byte_flip_of_a_trace_leaves_the_other_lines() {
    let text = trace();
    let lines: Vec<&str> = text.lines().collect();
    for at in 0..text.len() {
        for mask in [0x01, 0x20, 0x80] {
            let mut bad = text.clone().into_bytes();
            bad[at] ^= mask;
            let bad = String::from_utf8_lossy(&bad);
            // A flip that turns the header's major newer is refused
            // whole; any other leaves a report.
            let _ = report(&bad);
            for line in bad.lines() {
                let decoded = event(line);
                if lines.contains(&line) {
                    assert!(decoded.is_some(), "untouched line {line}");
                }
            }
        }
    }
}

#[test]
fn every_truncation_of_a_trace_reads_its_complete_lines() {
    let text = trace();
    for len in (0..=text.len()).filter(|&n| text.is_char_boundary(n)) {
        let cut = &text[..len];
        let complete = cut.matches('\n').count();
        let report = report(cut).expect("a cut trace reads");
        assert!(report.lines - report.skipped >= complete, "cut at {len}");
        for line in cut.lines() {
            let _ = event(line);
        }
    }
}

/// The records of `bytes` are a prefix of the valid journal's, reaching
/// at least the frame holding byte `damage`, and the scan ends where
/// the last of them does.
fn assert_prefix(bytes: &[u8], damage: usize, what: &str) {
    let (records, _, ends) = journal();
    let (got, len) = scan_bounded(bytes);
    let intact = ends.iter().filter(|&&end| end <= damage).count();
    assert!(got.len() >= intact, "{what}: {} of {intact}", got.len());
    assert_eq!(got, records[..got.len()], "{what}");
    let end = got.len().checked_sub(1).map_or(0, |last| ends[last]);
    assert_eq!(len, end, "{what}");
}

#[test]
fn every_single_byte_flip_of_a_journal_scans_to_a_valid_prefix() {
    let (_, bytes, _) = journal();
    for at in 0..bytes.len() {
        for mask in [0x01, 0x20, 0x80, 0xff] {
            let mut bad = bytes.clone();
            bad[at] ^= mask;
            assert_prefix(&bad, at, &format!("flip {mask:#04x} at {at}"));
        }
    }
}

#[test]
fn every_truncation_of_a_journal_opens_to_its_complete_frames() {
    let (records, bytes, ends) = journal();
    let dir = std::env::temp_dir().join(format!("bayes-record-codecs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    for len in 0..=bytes.len() {
        let complete = ends.iter().filter(|&&end| end <= len).count();
        let (got, valid) = scan_bounded(&bytes[..len]);
        assert_eq!(got, records[..complete], "cut at {len}");
        std::fs::write(&path, &bytes[..len]).unwrap();
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, got, "open at {len}");
        assert_eq!(replay.truncated_bytes, (len - valid) as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid as u64);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `payload` framed with a length and checksum that match it.
fn sealed(payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{:08x} {:016x} ",
        payload.len(),
        bayes_obs::fnv1a64(payload)
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// Every spec a `submitted` record can carry reads back, and rebuilds
/// into a job exactly when the job's builders accept its detector and
/// sampler and its scale is in (0, 1], 1 being the registry's largest;
/// the rest are errors, not panics.
fn spec_round_trip(spec: SpecRecord) -> Result<(), String> {
    let record = JournalRecord::Submitted { job: 1, spec };
    let (got, len) = scan_bounded(&frame(&record));
    prop_assert_eq!(got.len(), 1);
    prop_assert_eq!(len, frame(&record).len());
    let (JournalRecord::Submitted { spec: back, .. }, JournalRecord::Submitted { spec, .. }) =
        (&got[0], &record)
    else {
        unreachable!()
    };
    prop_assert_eq!(got[0].to_json(), record.to_json());
    let valid = spec.threshold.is_finite()
        && spec.threshold > 1.0
        && spec.check_every > 0
        && spec.min_iters >= 4
        && spec.consecutive > 0
        && matches!(spec.sampler.as_str(), "nuts" | "mh")
        && spec.scale > 0.0
        && spec.scale <= 1.0;
    match back.to_spec() {
        Ok(rebuilt) => {
            prop_assert!(valid, "{:?} rebuilt", spec);
            let again = JournalRecord::Submitted {
                job: 1,
                spec: SpecRecord::of(&rebuilt),
            };
            prop_assert_eq!(again.to_json(), record.to_json());
        }
        Err(_) => prop_assert!(!valid, "{:?} refused", spec),
    }
    Ok(())
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_errors_or_records(bytes in proptest::collection::vec(0u8..=255, 0..600)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = event(&text);
        let _ = report(&text);
        let _ = bounded(text.len(), || JournalRecord::from_json(&text));
        let (records, len) = scan_bounded(&bytes);
        prop_assert!(records.is_empty() && len == 0);
        // Behind a valid frame header: only a payload that is a record
        // scans.
        let (records, _) = scan_bounded(&sealed(&bytes));
        prop_assert!(records.len() <= 1);
    }

    #[test]
    fn arbitrary_lines_behind_a_valid_trace_leave_it_whole(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        let mut text = trace();
        text.push_str(&String::from_utf8_lossy(&bytes));
        let whole = trace().lines().count();
        if let Some(report) = report(&text) {
            prop_assert!(report.lines - report.skipped >= whole);
        }
    }

    #[test]
    fn every_spec_reads_back_and_rebuilds_or_is_refused(
        threshold in prop_oneof![
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(1.0),
            Just(-0.0),
            0.5f64..3.0,
        ],
        check_every in 0u64..3,
        min_iters in 0u64..8,
        consecutive in 0u64..3,
        sampler in prop_oneof![Just("nuts"), Just("mh"), Just("hmc"), Just("")],
        seed in 0u64..=u64::MAX,
        scale in prop_oneof![Just(f64::NAN), Just(-0.0), 0.0f64..2.0],
    ) {
        let mut spec = spec_record(seed);
        spec.threshold = threshold;
        spec.check_every = check_every;
        spec.min_iters = min_iters;
        spec.consecutive = consecutive;
        spec.sampler = sampler.into();
        spec.scale = scale;
        spec_round_trip(spec)?;
    }
}
