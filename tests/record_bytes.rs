//! Byte-stability fixtures for the three record codecs: the encoded
//! line of every trace event type, every journal record (a spec record
//! inside `submitted`) and the state line of a two-chain checkpoint,
//! pinned as string literals.
//!
//! Traces, write-ahead logs and checkpoint logs outlive the build that
//! wrote them, so a codec change must neither move a byte nor stop
//! reading a line an earlier build wrote. Each fixture encodes to its
//! literal and decodes back to its value; values take in NaN, ±∞
//! (written `null`, read back as NaN), `-0.0`, `u64::MAX`, `None` and
//! strings that need escaping.

use bayes_mcmc::checkpoint::{
    ChainCheckpoint, DetectorFingerprint, DualAveragingState, RunCheckpoint, SamplerCheckpoint,
    WelfordState, CHECKPOINT_VERSION,
};
use bayes_obs::{CheckpointSource, Event, MetricsRegistry};
use bayes_serve::journal::{JournalRecord, SpecRecord};

/// `text` with every `inf` / `-inf` token of a `Debug` rendering read as
/// `NaN`: what a non-finite float is after the `null` it encodes as.
fn non_finite_as_nan(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("inf") {
        let (head, tail) = rest.split_at(at);
        let before = head.chars().next_back();
        let after = tail[3..].chars().next();
        let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if word(before) || word(after) {
            out.push_str(&rest[..at + 3]);
        } else {
            out.push_str(head.strip_suffix('-').unwrap_or(head));
            out.push_str("NaN");
        }
        rest = &tail[3..];
    }
    out.push_str(rest);
    out
}

/// Holds `line` to be the encoding of `value` and to decode back to it:
/// the same `Debug` rendering once non-finite values read as NaN, and
/// the same bytes when encoded again.
fn check<T: std::fmt::Debug>(
    value: &T,
    line: &str,
    encode: impl Fn(&T) -> String,
    decode: impl Fn(&str) -> Result<T, String>,
) {
    assert_eq!(encode(value), line, "{value:?} encodes to another line");
    let back = decode(line).unwrap_or_else(|e| panic!("{line} does not decode: {e}"));
    assert_eq!(
        format!("{back:?}"),
        non_finite_as_nan(&format!("{value:?}")),
        "{line} decodes to another value"
    );
    assert_eq!(encode(&back), line, "{line} re-encodes to another line");
}

fn event_fixtures() -> Vec<(Event, &'static str)> {
    let mut registry = MetricsRegistry::new();
    registry.counter_add("grad_evals", u64::MAX);
    registry.counter_add("quote\"d\\key", 0);
    registry.gauge_set("final_eps", 0.30000000000000004);
    registry.gauge_set("neg_zero", -0.0);
    registry.gauge_set("nan", f64::NAN);
    registry.gauge_set("up", f64::INFINITY);
    registry.record("span.gradient_eval", 12_345);
    registry.record("span.gradient_eval", 7);
    registry.record("span.gradient_eval", u64::MAX);
    let snapshot = registry.snapshot();
    vec![
        (
            Event::trace_header(),
            r#"{"type":"trace_header","schema_version":"1.3"}"#,
        ),
        (
            Event::SpanStart {
                chain: None,
                phase: "checkpoint_diag".into(),
                depth: 0,
            },
            r#"{"type":"span_start","chain":null,"phase":"checkpoint_diag","depth":0}"#,
        ),
        (
            Event::SpanEnd {
                chain: Some(u64::MAX),
                phase: "tree\tdoubling".into(),
                depth: 3,
                elapsed_ns: u64::MAX,
                self_ns: 0,
            },
            r#"{"type":"span_end","chain":18446744073709551615,"phase":"tree\tdoubling","depth":3,"elapsed_ns":18446744073709551615,"self_ns":0}"#,
        ),
        (
            Event::Metrics {
                model: "12cities".into(),
                snapshot,
            },
            r#"{"type":"metrics","model":"12cities","snapshot":{"counters":{"grad_evals":18446744073709551615,"quote\"d\\key":0},"gauges":{"final_eps":0.30000000000000004,"nan":null,"neg_zero":-0,"up":null},"histograms":{"span.gradient_eval":{"count":3,"sum":18446744073709551615,"min":7,"max":18446744073709551615,"buckets":[[7,1],[168,1],[975,1]]}}}}"#,
        ),
        (
            Event::RunStart {
                model: "a \"quoted\"\nmodel é".into(),
                chains: 4,
                iters: 2000,
                seed: u64::MAX,
            },
            r#"{"type":"run_start","model":"a \"quoted\"\nmodel é","chains":4,"iters":2000,"seed":18446744073709551615}"#,
        ),
        (
            Event::Iteration {
                chain: 1,
                iter: 17,
                step_size: 0.30000000000000004,
                tree_depth: 5,
                leapfrogs: 31,
                divergent: true,
                accept: -0.0,
            },
            r#"{"type":"iteration","chain":1,"iter":17,"step_size":0.30000000000000004,"tree_depth":5,"leapfrogs":31,"divergent":true,"accept":-0}"#,
        ),
        (
            Event::Checkpoint {
                source: CheckpointSource::PostHoc,
                iter: 250,
                max_rhat: f64::NAN,
                streak: 0,
                converged: false,
            },
            r#"{"type":"checkpoint","source":"posthoc","iter":250,"max_rhat":null,"streak":0,"converged":false}"#,
        ),
        (
            Event::ShardAggregate {
                model: "tickets".into(),
                sweeps: 1000,
                shards: 16,
                threads: 4,
                tape_nodes: 123_456,
                tape_bytes: 9_876_543,
                transcendental: 4242,
                elapsed_ns: u64::MAX,
            },
            r#"{"type":"shard_aggregate","model":"tickets","sweeps":1000,"shards":16,"threads":4,"tape_nodes":123456,"tape_bytes":9876543,"transcendental":4242,"elapsed_ns":18446744073709551615}"#,
        ),
        (
            Event::Elision {
                workload: "12cities".into(),
                total_iters: 2000,
                converged_at: None,
                iter_saving: f64::INFINITY,
                work_saving: f64::NEG_INFINITY,
            },
            r#"{"type":"elision","workload":"12cities","total_iters":2000,"converged_at":null,"iter_saving":null,"work_saving":null}"#,
        ),
        (
            Event::Subsample {
                workload: "tickets".into(),
                fraction: 0.55,
                working_set_bytes: 1_900_000,
                speedup: 1e21,
            },
            r#"{"type":"subsample","workload":"tickets","fraction":0.55,"working_set_bytes":1900000,"speedup":1000000000000000000000}"#,
        ),
        (
            Event::Counters {
                workload: "ad".into(),
                platform: "Skylake".into(),
                cores: 4,
                ipc: 1.5,
                llc_mpki: 1.5e-7,
                bandwidth_gbs: -12.5,
                time_s: 42.0,
                energy_j: 2.5e22,
            },
            r#"{"type":"counters","workload":"ad","platform":"Skylake","cores":4,"ipc":1.5,"llc_mpki":0.00000015,"bandwidth_gbs":-12.5,"time_s":42,"energy_j":25000000000000000000000}"#,
        ),
        (
            Event::Platform {
                name: "Skylake".into(),
                processor: "i7-6700K".into(),
                cores: 4,
                llc_bytes: 8 * 1024 * 1024,
                mem_bw_gbs: 34.1,
                tdp_w: 91.0,
            },
            r#"{"type":"platform","name":"Skylake","processor":"i7-6700K","cores":4,"llc_bytes":8388608,"mem_bw_gbs":34.1,"tdp_w":91}"#,
        ),
        (
            Event::RunEnd {
                model: "12cities".into(),
                chains: 4,
                stopped_at: Some(600),
                total_draws: 2400,
                divergences: 3,
                grad_evals: 987_654,
                span_ns: 0,
            },
            r#"{"type":"run_end","model":"12cities","chains":4,"stopped_at":600,"total_draws":2400,"divergences":3,"grad_evals":987654,"span_ns":0}"#,
        ),
        (
            Event::ChainFault {
                chain: 2,
                attempt: 0,
                kind: "panic".into(),
                iter: None,
                message: "injected \u{1} panic\r\n\\ (chain 2)".into(),
            },
            r#"{"type":"chain_fault","chain":2,"attempt":0,"kind":"panic","iter":null,"message":"injected \u0001 panic\r\n\\ (chain 2)"}"#,
        ),
        (
            Event::ChainRetry {
                chain: 2,
                attempt: 1,
                reseed: true,
                seed: u64::MAX,
            },
            r#"{"type":"chain_retry","chain":2,"attempt":1,"reseed":true,"seed":18446744073709551615}"#,
        ),
        (
            Event::CheckpointSaved {
                path: "/tmp/a dir/ckpt.json".into(),
                iter: 250,
                chains: 4,
            },
            r#"{"type":"checkpoint_saved","path":"/tmp/a dir/ckpt.json","iter":250,"chains":4}"#,
        ),
        (
            Event::Resume {
                path: "C:\\runs\\ckpt".into(),
                iter: 250,
                model: "12cities".into(),
            },
            r#"{"type":"resume","path":"C:\\runs\\ckpt","iter":250,"model":"12cities"}"#,
        ),
        (
            Event::JobSubmitted {
                job: 7,
                name: "nightly \"ad\"".into(),
                workload: "ad".into(),
                priority: 2,
                chains: 4,
                iters: 2000,
                seed: u64::MAX,
                data_bytes: 48 * 1024 * 1024,
            },
            r#"{"type":"job_submitted","job":7,"name":"nightly \"ad\"","workload":"ad","priority":2,"chains":4,"iters":2000,"seed":18446744073709551615,"data_bytes":50331648}"#,
        ),
        (
            Event::JobPlaced {
                job: 7,
                cores: 8,
                inner_threads: 2,
                llc_bound: true,
                predicted_mpki: f64::NAN,
                resumed_from: Some(250),
            },
            r#"{"type":"job_placed","job":7,"cores":8,"inner_threads":2,"llc_bound":true,"predicted_mpki":null,"resumed_from":250}"#,
        ),
        (
            Event::JobPreempted {
                job: 3,
                at_iter: 250,
                by: 7,
                checkpoint: "/tmp/job-3.ckpt".into(),
            },
            r#"{"type":"job_preempted","job":3,"at_iter":250,"by":7,"checkpoint":"/tmp/job-3.ckpt"}"#,
        ),
        (
            Event::JobCompleted {
                job: 3,
                stopped_at: None,
                iters_done: 2000,
                degraded: true,
                faults: 2,
                grad_evals: 500_000,
            },
            r#"{"type":"job_completed","job":3,"stopped_at":null,"iters_done":2000,"degraded":true,"faults":2,"grad_evals":500000}"#,
        ),
        (
            Event::JobRecovered {
                job: 4,
                resumed_from: None,
                corrupt_skipped: 1,
            },
            r#"{"type":"job_recovered","job":4,"resumed_from":null,"corrupt_skipped":1}"#,
        ),
        (
            Event::JobExpired {
                job: 6,
                deadline_ms: 1500,
                iters_done: 80,
            },
            r#"{"type":"job_expired","job":6,"deadline_ms":1500,"iters_done":80}"#,
        ),
        (
            Event::JobShed {
                job: 9,
                priority: 1,
                queue_depth: 4,
                queued_bytes: 96 * 1024 * 1024,
            },
            r#"{"type":"job_shed","job":9,"priority":1,"queue_depth":4,"queued_bytes":100663296}"#,
        ),
        (
            Event::JournalReplayed {
                path: "/tmp/serve.journal".into(),
                records: 17,
                jobs_recovered: 3,
            },
            r#"{"type":"journal_replayed","path":"/tmp/serve.journal","records":17,"jobs_recovered":3}"#,
        ),
        (
            Event::JournalTruncated {
                path: "/tmp/serve.journal".into(),
                truncated_bytes: 42,
                records: 16,
            },
            r#"{"type":"journal_truncated","path":"/tmp/serve.journal","truncated_bytes":42,"records":16}"#,
        ),
        (
            Event::MetricsSample {
                source: "server".into(),
                chain: Some(1),
                seq: 0,
                iter: 40,
                elapsed_ns: 125_000_000,
                iters_per_sec: 320.0,
                grad_evals_per_sec: 0.0,
                grad_share: f64::NAN,
                wal_appends: 12,
                wal_p50_ns: 1850.0,
                wal_p99_ns: f64::INFINITY,
            },
            r#"{"type":"metrics_sample","source":"server","chain":1,"seq":0,"iter":40,"elapsed_ns":125000000,"iters_per_sec":320,"grad_evals_per_sec":0,"grad_share":null,"wal_appends":12,"wal_p50_ns":1850,"wal_p99_ns":null}"#,
        ),
        (
            Event::DegradedReport {
                model: "12cities".into(),
                survivors: 3,
                lost: 1,
                faults: 2,
                grad_evals: 500_000,
                span_ns: u64::MAX,
            },
            r#"{"type":"degraded_report","model":"12cities","survivors":3,"lost":1,"faults":2,"grad_evals":500000,"span_ns":18446744073709551615}"#,
        ),
    ]
}

#[test]
fn every_event_type_keeps_its_bytes() {
    let fixtures = event_fixtures();
    let mut types: Vec<&str> = fixtures
        .iter()
        .map(|(_, line)| line.split('"').nth(3).expect("a type tag"))
        .collect();
    types.sort_unstable();
    types.dedup();
    assert_eq!(types.len(), 28, "one fixture per event type");
    for (event, line) in &fixtures {
        check(event, line, Event::to_json, |l| {
            Event::from_json(l).map_err(|e| e.to_string())
        });
    }
}

/// A spec record of awkward values; every field of a spec is a number
/// its rebuilt `JobSpec` accepts, so the parent builds read it too.
fn spec(seed: u64, bounds: Option<u64>) -> SpecRecord {
    SpecRecord {
        name: "nightly \"ad\"\n\\ é".into(),
        workload: "12cities".into(),
        scale: 0.30000000000000004,
        chains: 3,
        iters: 120,
        seed,
        priority: 255,
        sampler: "mh".into(),
        threshold: 1.05,
        check_every: 25,
        min_iters: 50,
        consecutive: 3,
        min_quorum: bounds,
        deadline_ms: bounds,
        restarts: 2,
        backoff_ms: 0,
    }
}

fn journal_fixtures() -> Vec<(JournalRecord, &'static str)> {
    vec![
        (
            JournalRecord::Submitted {
                job: 1,
                spec: spec(u64::MAX, None),
            },
            r#"{"type":"submitted","job":1,"spec":{"type":"spec","name":"nightly \"ad\"\n\\ é","workload":"12cities","scale":0.30000000000000004,"chains":3,"iters":120,"seed":18446744073709551615,"priority":255,"sampler":"mh","threshold":1.05,"check_every":25,"min_iters":50,"consecutive":3,"min_quorum":null,"deadline_ms":null,"restarts":2,"backoff_ms":0}}"#,
        ),
        (
            JournalRecord::Submitted {
                job: u64::MAX,
                spec: spec(0, Some(u64::MAX)),
            },
            r#"{"type":"submitted","job":18446744073709551615,"spec":{"type":"spec","name":"nightly \"ad\"\n\\ é","workload":"12cities","scale":0.30000000000000004,"chains":3,"iters":120,"seed":0,"priority":255,"sampler":"mh","threshold":1.05,"check_every":25,"min_iters":50,"consecutive":3,"min_quorum":18446744073709551615,"deadline_ms":18446744073709551615,"restarts":2,"backoff_ms":0}}"#,
        ),
        (
            JournalRecord::Placed { job: 1, cores: 4 },
            r#"{"type":"placed","job":1,"cores":4}"#,
        ),
        (
            JournalRecord::Checkpointed {
                job: 1,
                iter: u64::MAX,
            },
            r#"{"type":"checkpointed","job":1,"iter":18446744073709551615}"#,
        ),
        (
            JournalRecord::Preempted { job: 1, at: 40 },
            r#"{"type":"preempted","job":1,"at":40}"#,
        ),
        (
            JournalRecord::Restarted { job: 1, attempt: 1 },
            r#"{"type":"restarted","job":1,"attempt":1}"#,
        ),
        (
            JournalRecord::Recovered {
                job: 1,
                resumed_from: Some(40),
            },
            r#"{"type":"recovered","job":1,"resumed_from":40}"#,
        ),
        (
            JournalRecord::Recovered {
                job: 2,
                resumed_from: None,
            },
            r#"{"type":"recovered","job":2,"resumed_from":null}"#,
        ),
        (
            JournalRecord::Completed { job: 1 },
            r#"{"type":"completed","job":1}"#,
        ),
        (
            JournalRecord::Failed { job: 2 },
            r#"{"type":"failed","job":2}"#,
        ),
        (
            JournalRecord::Expired { job: 3 },
            r#"{"type":"expired","job":3}"#,
        ),
        (JournalRecord::Shed { job: 0 }, r#"{"type":"shed","job":0}"#),
    ]
}

#[test]
fn every_journal_record_keeps_its_bytes() {
    for (record, line) in &journal_fixtures() {
        check(
            record,
            line,
            JournalRecord::to_json,
            JournalRecord::from_json,
        );
    }
}

/// Two chains: NUTS state with every per-dimension vector, and
/// Metropolis–Hastings state with `grad`, `inv_mass` and the Welford
/// vectors empty; non-finite and negative-zero values throughout.
fn checkpoint() -> RunCheckpoint {
    let nuts = SamplerCheckpoint {
        iter: 2,
        q: vec![-0.0, 1e-10],
        lp: f64::NAN,
        grad: vec![f64::INFINITY, -1.5],
        eps: 0.30000000000000004,
        inv_mass: vec![1.0, 0.5],
        step_adapt: DualAveragingState {
            mu: 1.0986122886681098,
            log_eps: f64::NEG_INFINITY,
            log_eps_bar: -1.1,
            h_bar: -0.0,
            t: 2.0,
            target: 0.8,
            gamma: 0.05,
            t0: 10.0,
            kappa: 0.75,
        },
        mass_adapt: WelfordState {
            n: 2.0,
            mean: vec![0.1, 1e100],
            m2: vec![3.5, 7.25],
        },
        accept_sum: 1.75,
        divergences: u64::MAX,
        grad_evals: 12,
        evals_per_iter: Vec::new(),
    };
    let mh = SamplerCheckpoint {
        q: vec![0.25, -3.0],
        lp: -7.5,
        grad: Vec::new(),
        eps: 0.125,
        inv_mass: Vec::new(),
        step_adapt: DualAveragingState::default(),
        mass_adapt: WelfordState::default(),
        accept_sum: 0.0,
        divergences: 0,
        grad_evals: 0,
        ..nuts.clone()
    };
    RunCheckpoint {
        version: CHECKPOINT_VERSION,
        model: "gauss \"quoted\"\n\\ é".into(),
        dim: 2,
        seed: u64::MAX,
        chains: 2,
        iters: 200,
        warmup: 100,
        detector: DetectorFingerprint {
            threshold: f64::INFINITY,
            check_every: 25,
            min_iters: 50,
            consecutive: 3,
        },
        iter: 2,
        chain_states: [nuts, mh]
            .into_iter()
            .enumerate()
            .map(|(c, sampler)| ChainCheckpoint {
                chain: c,
                stream_seed: u64::MAX - c as u64,
                draws: vec![vec![0.5, -0.0], vec![f64::NAN, 0.1 + 0.2]],
                evals_per_iter: vec![3, u32::MAX],
                sampler,
            })
            .collect(),
    }
}

const CHECKPOINT_STATE: &str = r#"{"version":3,"model":"gauss \"quoted\"\n\\ é","dim":2,"seed":18446744073709551615,"chains":2,"iters":200,"warmup":100,"detector":{"threshold":null,"check_every":25,"min_iters":50,"consecutive":3},"iter":2,"chain_states":[{"chain":0,"stream_seed":18446744073709551615,"sampler":{"iter":2,"q":[-0,0.0000000001],"lp":null,"grad":[null,-1.5],"eps":0.30000000000000004,"inv_mass":[1,0.5],"step_adapt":{"mu":1.0986122886681098,"log_eps":null,"log_eps_bar":-1.1,"h_bar":-0,"t":2,"target":0.8,"gamma":0.05,"t0":10,"kappa":0.75},"mass_adapt":{"n":2,"mean":[0.1,10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000],"m2":[3.5,7.25]},"accept_sum":1.75,"divergences":18446744073709551615,"grad_evals":12}},{"chain":1,"stream_seed":18446744073709551614,"sampler":{"iter":2,"q":[0.25,-3],"lp":-7.5,"grad":[],"eps":0.125,"inv_mass":[],"step_adapt":{"mu":0,"log_eps":0,"log_eps_bar":0,"h_bar":0,"t":0,"target":0,"gamma":0,"t0":0,"kappa":0},"mass_adapt":{"n":0,"mean":[],"m2":[]},"accept_sum":0,"divergences":0,"grad_evals":0}}]}"#;

#[test]
fn the_checkpoint_state_line_keeps_its_bytes() {
    let encode = |ck: &RunCheckpoint| {
        let bytes = ck.to_durable_bytes();
        let mut lines = bytes.split(|&b| b == b'\n');
        lines.next().expect("a header line");
        String::from_utf8(lines.next().expect("a state line").to_vec()).expect("UTF-8")
    };
    // Decoding reads a whole frame: the pinned state line behind the
    // fixture's own header and draw blocks.
    let ck = checkpoint();
    let bytes = ck.to_durable_bytes();
    let blocks = &bytes[bytes.len() - 2 * (8 + 2 * (2 * 8 + 4))..];
    let decode = |state: &str| {
        let mut payload = format!("{state}\n").into_bytes();
        payload.extend_from_slice(blocks);
        let mut frame = format!(
            "BAYESCKPT {CHECKPOINT_VERSION} {:020} {:016x}\n",
            payload.len(),
            bayes_obs::fnv1a64(&payload)
        )
        .into_bytes();
        frame.extend_from_slice(&payload);
        RunCheckpoint::from_durable_bytes(&frame)
    };
    check(&ck, CHECKPOINT_STATE, encode, decode);
}
