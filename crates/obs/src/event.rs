//! The structured-event schema.
//!
//! One [`Event`] is one line of a trace: a flat, self-describing record
//! tagged with a `type` field. The schema is documented in DESIGN.md §7
//! (a test holds the table to [`Event::TYPES`]); every variant encodes
//! to a single JSON object via [`Event::to_json`] and decodes back via
//! [`Event::from_json`], by the wire rules of [`crate::schema`]:
//! non-finite `f64` values travel as `null` and read back as NaN,
//! absent optional counts as `null`, integers at full `u64` precision.
//!
//! Note that the derived `PartialEq` follows IEEE float semantics, so
//! two events whose only difference is a `NaN` diagnostic compare
//! unequal; compare [`Event::to_json`] strings when that matters.

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::schema::{self, Field};
use std::fmt;

/// Major version of the trace schema. A trace whose header announces a
/// *newer* major is rejected by [`Event::from_json`] with
/// [`DecodeError::UnsupportedSchema`]; newer minors decode fine.
pub const TRACE_SCHEMA_MAJOR: u64 = 1;
/// Minor version of the trace schema (additive changes only).
/// Minor 1 added the `job_*` lifecycle events of the serving layer;
/// minor 2 added the durability events (`job_recovered`, `job_expired`,
/// `job_shed`, `journal_replayed`, `journal_truncated`);
/// minor 3 added the live-telemetry event (`metrics_sample`).
pub const TRACE_SCHEMA_MINOR: u64 = 3;

/// Why one trace line failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Malformed JSON, an unknown `type` tag, or a missing/mistyped
    /// field.
    Malformed(String),
    /// The trace header announces a schema major this decoder does not
    /// understand.
    UnsupportedSchema {
        /// Major version the trace was written with.
        major: u64,
        /// Highest major this decoder supports.
        supported: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Malformed(msg) => write!(f, "{msg}"),
            DecodeError::UnsupportedSchema { major, supported } => write!(
                f,
                "trace schema major {major} is newer than supported major {supported}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Splits `"MAJOR.MINOR"` into its numeric parts.
fn parse_schema_version(s: &str) -> Result<(u64, u64), String> {
    let bad = || format!("schema_version '{s}' is not MAJOR.MINOR");
    let (major, minor) = s.split_once('.').ok_or_else(bad)?;
    Ok((
        major.parse().map_err(|_| bad())?,
        minor.parse().map_err(|_| bad())?,
    ))
}

/// Which convergence walker emitted a checkpoint event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointSource {
    /// The supervisor's live monitor thread (also behind
    /// `run_until_converged`).
    Online,
    /// The post-hoc replay (`ConvergenceDetector::detect`).
    PostHoc,
}

impl Field for CheckpointSource {
    fn write(&self, out: &mut String) {
        out.push_str(match self {
            Self::Online => "\"online\"",
            Self::PostHoc => "\"posthoc\"",
        });
    }

    fn read(v: &Json) -> Result<Self, String> {
        match v.as_str() {
            Some("online") => Ok(Self::Online),
            Some("posthoc") => Ok(Self::PostHoc),
            _ => Err("is not a checkpoint source (\"online\" or \"posthoc\")".into()),
        }
    }
}

crate::record! {
    /// One structured observability event.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        /// The first line of a JSONL trace file, announcing its schema
        /// version (written by `JsonlRecorder::create`).
        TraceHeader = "trace_header" {
            /// `"MAJOR.MINOR"`; decoding rejects newer majors.
            schema_version: String,
        },
        /// A profiled span opened (coarse phases only — see `obs::span`).
        SpanStart = "span_start" {
            /// Chain index, or `None` for monitor/supervisor threads.
            chain: Option<u64>,
            /// Phase tag (`Phase::tag`).
            phase: String,
            /// Span-stack depth at open (0 = top level).
            depth: u64,
        },
        /// A profiled span closed. Wall-clock fields are non-deterministic
        /// and carved out of determinism comparisons.
        SpanEnd = "span_end" {
            /// Chain index, or `None` for monitor/supervisor threads.
            chain: Option<u64>,
            /// Phase tag (`Phase::tag`).
            phase: String,
            /// Span-stack depth at open (matches the `span_start`).
            depth: u64,
            /// Inclusive wall-clock nanoseconds (children included).
            elapsed_ns: u64,
            /// Exclusive nanoseconds (children subtracted).
            self_ns: u64,
        },
        /// The run's merged metrics snapshot, emitted once before
        /// `run_end` when a profiler is attached.
        Metrics = "metrics" {
            /// Model (workload) name.
            model: String,
            /// Merged counters/gauges/histograms for the run.
            snapshot: MetricsSnapshot,
        },
        /// A multi-chain run began.
        RunStart = "run_start" {
            /// Model (workload) name.
            model: String,
            /// Configured chain count.
            chains: u64,
            /// Configured iterations per chain.
            iters: u64,
            /// Base RNG seed.
            seed: u64,
        },
        /// One sampler iteration completed (NUTS or HMC).
        Iteration = "iteration" {
            /// Chain index within the run.
            chain: u64,
            /// Iteration index (warmup included).
            iter: u64,
            /// Leapfrog step size used this iteration.
            step_size: f64,
            /// Tree doublings performed (0 for static HMC).
            tree_depth: u64,
            /// Gradient evaluations consumed this iteration.
            leapfrogs: u64,
            /// Whether the trajectory diverged.
            divergent: bool,
            /// Mean Metropolis acceptance statistic of the trajectory.
            accept: f64,
        },
        /// A convergence checkpoint was evaluated.
        Checkpoint = "checkpoint" {
            /// Online monitor or post-hoc replay.
            source: CheckpointSource,
            /// Iteration the checkpoint evaluated (prefix length).
            iter: u64,
            /// Max R̂ across parameters over `[iter/2, iter)`.
            max_rhat: f64,
            /// Consecutive sub-threshold checkpoints so far (this one
            /// included).
            streak: u64,
            /// Whether convergence was declared at this checkpoint.
            converged: bool,
        },
        /// Aggregate sharded-gradient telemetry, flushed once per run.
        ShardAggregate = "shard_aggregate" {
            /// Model name.
            model: String,
            /// Gradient sweeps accumulated since the last flush.
            sweeps: u64,
            /// Shard count of the partition.
            shards: u64,
            /// Inner worker threads configured.
            threads: u64,
            /// Total tape nodes across sweeps.
            tape_nodes: u64,
            /// Total tape bytes across sweeps.
            tape_bytes: u64,
            /// Total transcendental ops across sweeps.
            transcendental: u64,
            /// Wall-clock nanoseconds spent in gradient sweeps.
            elapsed_ns: u64,
        },
        /// Outcome of an elision study (scheduler decision record).
        Elision = "elision" {
            /// Workload name.
            workload: String,
            /// User-configured iterations.
            total_iters: u64,
            /// Where the detector stopped the run, if it converged.
            converged_at: Option<u64>,
            /// Fraction of iterations elided.
            iter_saving: f64,
            /// Fraction of gradient work elided on the slowest chain.
            work_saving: f64,
        },
        /// A data-subsampling recommendation (scheduler decision record).
        Subsample = "subsample" {
            /// Workload name.
            workload: String,
            /// Recommended data fraction (1.0 = keep everything).
            fraction: f64,
            /// Predicted per-chain working set at that fraction, bytes.
            working_set_bytes: u64,
            /// Predicted per-iteration speedup from subsampling.
            speedup: f64,
        },
        /// Simulated performance-counter snapshot for one configuration.
        Counters = "counters" {
            /// Workload name.
            workload: String,
            /// Platform codename.
            platform: String,
            /// Active cores simulated.
            cores: u64,
            /// Instructions per cycle.
            ipc: f64,
            /// LLC misses per kilo-instruction.
            llc_mpki: f64,
            /// Off-chip bandwidth, GB/s.
            bandwidth_gbs: f64,
            /// End-to-end latency, seconds.
            time_s: f64,
            /// Energy, joules.
            energy_j: f64,
        },
        /// A platform description row (Table II provenance).
        Platform = "platform" {
            /// Platform codename.
            name: String,
            /// Processor model.
            processor: String,
            /// Physical cores.
            cores: u64,
            /// Last-level cache, bytes.
            llc_bytes: u64,
            /// Peak memory bandwidth, GB/s.
            mem_bw_gbs: f64,
            /// Thermal design power, watts.
            tdp_w: f64,
        },
        /// A multi-chain run finished.
        RunEnd = "run_end" {
            /// Model (workload) name.
            model: String,
            /// Chains executed.
            chains: u64,
            /// Stop decision of the convergence monitor, if any.
            stopped_at: Option<u64>,
            /// Draws kept across all chains (after any truncation).
            total_draws: u64,
            /// Post-warmup divergent transitions across all chains.
            divergences: u64,
            /// Total gradient evaluations across all chains (headline
            /// metric; reports work without a full trace).
            grad_evals: u64,
            /// Total profiled span nanoseconds (0 when profiling is off;
            /// wall-clock, excluded from determinism comparisons).
            span_ns: u64,
        },
        /// One chain attempt failed with an isolated fault (supervisor).
        ChainFault = "chain_fault" {
            /// Chain index within the run.
            chain: u64,
            /// Attempt number that failed (0 = first run).
            attempt: u64,
            /// Fault taxonomy tag: `panic`, `non_finite`, `stalled`, or
            /// `diverged`.
            kind: String,
            /// Iteration at which the fault surfaced, when known.
            iter: Option<u64>,
            /// Human-readable fault description.
            message: String,
        },
        /// A faulted chain is being retried (supervisor).
        ChainRetry = "chain_retry" {
            /// Chain index within the run.
            chain: u64,
            /// Attempt number about to start (1 = first retry).
            attempt: u64,
            /// Whether the retry re-derived a fresh RNG stream.
            reseed: bool,
            /// The stream seed the retry will run on.
            seed: u64,
        },
        /// A run-level checkpoint file was written (supervisor monitor).
        CheckpointSaved = "checkpoint_saved" {
            /// Checkpoint file path.
            path: String,
            /// Iteration the checkpoint captures.
            iter: u64,
            /// Chains serialized into the checkpoint.
            chains: u64,
        },
        /// A run resumed from a checkpoint file (supervisor).
        Resume = "resume" {
            /// Checkpoint file path.
            path: String,
            /// Iteration the run resumed from.
            iter: u64,
            /// Model (workload) name.
            model: String,
        },
        /// A job entered the server's submission queue (job server).
        JobSubmitted = "job_submitted" {
            /// Server-assigned job id (monotonic per server).
            job: u64,
            /// Client-supplied job name (free-form label).
            name: String,
            /// Workload (model) the job samples.
            workload: String,
            /// Scheduling priority (higher preempts lower).
            priority: u64,
            /// Requested chain count.
            chains: u64,
            /// Requested iterations per chain.
            iters: u64,
            /// Base RNG seed of the job.
            seed: u64,
            /// Modeled per-chain working set, bytes (admission feature).
            data_bytes: u64,
        },
        /// The placement policy granted a job cores and started (or
        /// resumed) it (job server).
        JobPlaced = "job_placed" {
            /// Server-assigned job id.
            job: u64,
            /// Cores granted to this placement.
            cores: u64,
            /// Inner worker threads per chain derived from the grant.
            inner_threads: u64,
            /// Whether the predictor classified the job as LLC-bound.
            llc_bound: bool,
            /// Predicted LLC misses per kilo-instruction at the job's
            /// working set.
            predicted_mpki: f64,
            /// Iteration the job resumed from, or `None` for a fresh start.
            resumed_from: Option<u64>,
        },
        /// A running job was paused bit-exactly to free cores for a
        /// higher-priority job (job server).
        JobPreempted = "job_preempted" {
            /// Server-assigned job id of the paused job.
            job: u64,
            /// Iteration the pause committed at (checkpoint boundary).
            at_iter: u64,
            /// Job id of the higher-priority job that forced the pause.
            by: u64,
            /// Checkpoint file the paused state was serialized to.
            checkpoint: String,
        },
        /// A job left the server (job server).
        JobCompleted = "job_completed" {
            /// Server-assigned job id.
            job: u64,
            /// Stop decision of the convergence monitor, if any.
            stopped_at: Option<u64>,
            /// Iterations actually executed per chain.
            iters_done: u64,
            /// Whether the job finished under a degraded chain quorum.
            degraded: bool,
            /// Total faults recorded over the job's placements.
            faults: u64,
            /// Total gradient evaluations across surviving chains.
            grad_evals: u64,
        },
        /// A restarted server re-queued a job reconstructed from the
        /// journal (job server recovery).
        JobRecovered = "job_recovered" {
            /// Server-assigned job id (preserved across the restart).
            job: u64,
            /// Checkpoint boundary the job will resume from, or `None`
            /// for a clean restart of the same RNG stream.
            resumed_from: Option<u64>,
            /// Checkpoint generations that failed their checksum and were
            /// skipped while looking for the newest valid one.
            corrupt_skipped: u64,
        },
        /// A job ran past its deadline and was cancelled cooperatively
        /// (job server).
        JobExpired = "job_expired" {
            /// Server-assigned job id.
            job: u64,
            /// Configured deadline, milliseconds.
            deadline_ms: u64,
            /// Iterations completed before the cancel took effect.
            iters_done: u64,
        },
        /// Admission-side load shedding refused or evicted a job under
        /// overload (job server).
        JobShed = "job_shed" {
            /// Server-assigned job id.
            job: u64,
            /// Scheduling priority of the shed job.
            priority: u64,
            /// Pending-queue depth at the shedding decision.
            queue_depth: u64,
            /// Summed predicted working set of queued + running jobs,
            /// bytes, at the shedding decision.
            queued_bytes: u64,
        },
        /// A server replayed its write-ahead journal on recovery
        /// (job server).
        JournalReplayed = "journal_replayed" {
            /// Journal file path.
            path: String,
            /// Valid records replayed.
            records: u64,
            /// Jobs reconstructed into the queue.
            jobs_recovered: u64,
        },
        /// A torn tail was truncated from the journal on open (job
        /// server) — everything up to the last complete record survives.
        JournalTruncated = "journal_truncated" {
            /// Journal file path.
            path: String,
            /// Bytes dropped past the last valid record.
            truncated_bytes: u64,
            /// Valid records kept.
            records: u64,
        },
        /// One periodic live-telemetry sample (schema minor 3). Emitted by
        /// `telemetry::TelemetrySampler` off the sampling hot path —
        /// supervisor monitor thread, job-server scheduler thread — on an
        /// iteration- and wall-clock-bounded cadence. All rate and latency
        /// fields are wall-clock derived and therefore carved out of
        /// determinism comparisons, like `span_end` durations.
        MetricsSample = "metrics_sample" {
            /// What was sampled: a model (workload) name or `"server"`.
            source: String,
            /// Chain index for per-chain samples, `None` for aggregates.
            chain: Option<u64>,
            /// Sample sequence number within this sampler (0-based).
            seq: u64,
            /// Progress marker at the sample: minimum iteration across the
            /// run's chains, or a scheduler-defined progress counter.
            iter: u64,
            /// Wall-clock nanoseconds since the sampler started.
            elapsed_ns: u64,
            /// Iterations per second over the sample window (≥ 0).
            iters_per_sec: f64,
            /// Gradient evaluations per second over the window (≥ 0; 0
            /// when no profiler feeds the sampler).
            grad_evals_per_sec: f64,
            /// Share of profiled span time spent in gradient work
            /// (`gradient_eval` + shard sweep/reduce + `stats_reduce`)
            /// over the window; NaN (encoded `null`) without a profiler.
            grad_share: f64,
            /// WAL appends observed in the window (0 outside the server).
            wal_appends: u64,
            /// Median WAL append latency over the window, nanoseconds;
            /// NaN (encoded `null`) when no appends were observed.
            wal_p50_ns: f64,
            /// p99 WAL append latency over the window, nanoseconds; NaN
            /// (encoded `null`) when no appends were observed.
            wal_p99_ns: f64,
        },
        /// A run completed without its full chain complement (supervisor).
        DegradedReport = "degraded_report" {
            /// Model (workload) name.
            model: String,
            /// Chains that completed.
            survivors: u64,
            /// Chains permanently lost after exhausting retries.
            lost: u64,
            /// Total faults recorded over the run (retried ones included).
            faults: u64,
            /// Total gradient evaluations across surviving chains.
            grad_evals: u64,
            /// Total profiled span nanoseconds (0 when profiling is off).
            span_ns: u64,
        },
    }
}

impl Event {
    /// The header event every new trace starts with, stamped with the
    /// current schema version.
    pub fn trace_header() -> Self {
        Event::TraceHeader {
            schema_version: format!("{TRACE_SCHEMA_MAJOR}.{TRACE_SCHEMA_MINOR}"),
        }
    }

    /// Encodes the event as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        schema::to_line(self)
    }

    /// Decodes one JSON line back into an event.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Malformed`] on the first schema violation
    /// (malformed JSON, an unknown `type` tag, a missing/mistyped
    /// field); [`DecodeError::UnsupportedSchema`] when a `trace_header`
    /// announces a schema major newer than [`TRACE_SCHEMA_MAJOR`].
    pub fn from_json(line: &str) -> Result<Self, DecodeError> {
        let event: Event = schema::from_line(line).map_err(DecodeError::Malformed)?;
        if let Event::TraceHeader { schema_version } = &event {
            let (major, _minor) =
                parse_schema_version(schema_version).map_err(DecodeError::Malformed)?;
            if major > TRACE_SCHEMA_MAJOR {
                return Err(DecodeError::UnsupportedSchema {
                    major,
                    supported: TRACE_SCHEMA_MAJOR,
                });
            }
        }
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        let mut registry = crate::metrics::MetricsRegistry::new();
        registry.counter_add("grad_evals", 123456);
        registry.gauge_set("final_eps", 0.30000000000000004);
        registry.record("span.gradient_eval", 12_345);
        registry.record("span.gradient_eval", 999);
        vec![
            Event::trace_header(),
            Event::SpanStart {
                chain: Some(2),
                phase: "tree_doubling".into(),
                depth: 0,
            },
            Event::SpanEnd {
                chain: Some(2),
                phase: "tree_doubling".into(),
                depth: 0,
                elapsed_ns: 123_456_789,
                self_ns: 456_789,
            },
            Event::SpanStart {
                chain: None,
                phase: "checkpoint_diag".into(),
                depth: 1,
            },
            Event::SpanEnd {
                chain: None,
                phase: "checkpoint_diag".into(),
                depth: 1,
                elapsed_ns: 42,
                self_ns: 42,
            },
            Event::Metrics {
                model: "12cities".into(),
                snapshot: registry.snapshot(),
            },
            Event::RunStart {
                model: "12cities".into(),
                chains: 4,
                iters: 2000,
                seed: 9223372036854775809, // > 2^63, > 2^53
            },
            Event::Iteration {
                chain: 1,
                iter: 17,
                step_size: 0.03125,
                tree_depth: 5,
                leapfrogs: 31,
                divergent: true,
                accept: 0.875,
            },
            Event::Checkpoint {
                source: CheckpointSource::Online,
                iter: 250,
                max_rhat: 1.0625,
                streak: 2,
                converged: false,
            },
            Event::ShardAggregate {
                model: "tickets".into(),
                sweeps: 1000,
                shards: 16,
                threads: 4,
                tape_nodes: 123456,
                tape_bytes: 9876543,
                transcendental: 4242,
                elapsed_ns: 1_000_000_007,
            },
            Event::Elision {
                workload: "12cities".into(),
                total_iters: 2000,
                converged_at: Some(600),
                iter_saving: 0.7,
                work_saving: 0.53,
            },
            Event::Elision {
                workload: "hard".into(),
                total_iters: 100,
                converged_at: None,
                iter_saving: 0.0,
                work_saving: 0.0,
            },
            Event::Subsample {
                workload: "tickets".into(),
                fraction: 0.55,
                working_set_bytes: 1_900_000,
                speedup: 2.25,
            },
            Event::Counters {
                workload: "ad".into(),
                platform: "Skylake".into(),
                cores: 4,
                ipc: 1.5,
                llc_mpki: 3.25,
                bandwidth_gbs: 12.5,
                time_s: 42.0,
                energy_j: 4200.0,
            },
            Event::Platform {
                name: "Skylake".into(),
                processor: "i7-6700K".into(),
                cores: 4,
                llc_bytes: 8 * 1024 * 1024,
                mem_bw_gbs: 34.1,
                tdp_w: 91.0,
            },
            Event::RunEnd {
                model: "12cities".into(),
                chains: 4,
                stopped_at: Some(600),
                total_draws: 2400,
                divergences: 3,
                grad_evals: 987_654,
                span_ns: 1_234_567_890,
            },
            Event::ChainFault {
                chain: 2,
                attempt: 0,
                kind: "panic".into(),
                iter: Some(40),
                message: "injected panic (chain 2, iter 40)".into(),
            },
            Event::ChainFault {
                chain: 1,
                attempt: 1,
                kind: "stalled".into(),
                iter: None,
                message: "no progress within deadline".into(),
            },
            Event::ChainRetry {
                chain: 2,
                attempt: 1,
                reseed: true,
                seed: 9223372036854775809,
            },
            Event::CheckpointSaved {
                path: "/tmp/ckpt.json".into(),
                iter: 250,
                chains: 4,
            },
            Event::Resume {
                path: "/tmp/ckpt.json".into(),
                iter: 250,
                model: "12cities".into(),
            },
            Event::DegradedReport {
                model: "12cities".into(),
                survivors: 3,
                lost: 1,
                faults: 2,
                grad_evals: 500_000,
                span_ns: 0,
            },
            Event::JobSubmitted {
                job: 7,
                name: "nightly-ad".into(),
                workload: "ad".into(),
                priority: 2,
                chains: 4,
                iters: 2000,
                seed: 9223372036854775809,
                data_bytes: 48 * 1024 * 1024,
            },
            Event::JobPlaced {
                job: 7,
                cores: 8,
                inner_threads: 2,
                llc_bound: true,
                predicted_mpki: 9.125,
                resumed_from: None,
            },
            Event::JobPlaced {
                job: 3,
                cores: 2,
                inner_threads: 1,
                llc_bound: false,
                predicted_mpki: 0.5,
                resumed_from: Some(250),
            },
            Event::JobPreempted {
                job: 3,
                at_iter: 250,
                by: 7,
                checkpoint: "/tmp/job-3.ckpt".into(),
            },
            Event::JobCompleted {
                job: 7,
                stopped_at: Some(600),
                iters_done: 600,
                degraded: false,
                faults: 0,
                grad_evals: 987_654,
            },
            Event::JobCompleted {
                job: 3,
                stopped_at: None,
                iters_done: 2000,
                degraded: true,
                faults: 2,
                grad_evals: 500_000,
            },
            Event::JobRecovered {
                job: 4,
                resumed_from: Some(120),
                corrupt_skipped: 1,
            },
            Event::JobRecovered {
                job: 5,
                resumed_from: None,
                corrupt_skipped: 0,
            },
            Event::JobExpired {
                job: 6,
                deadline_ms: 1500,
                iters_done: 80,
            },
            Event::JobShed {
                job: 9,
                priority: 1,
                queue_depth: 4,
                queued_bytes: 96 * 1024 * 1024,
            },
            Event::JournalReplayed {
                path: "/tmp/serve.journal".into(),
                records: 17,
                jobs_recovered: 3,
            },
            Event::JournalTruncated {
                path: "/tmp/serve.journal".into(),
                truncated_bytes: 42,
                records: 16,
            },
            Event::MetricsSample {
                source: "12cities".into(),
                chain: None,
                seq: 3,
                iter: 180,
                elapsed_ns: 2_500_000_000,
                iters_per_sec: 72.5,
                grad_evals_per_sec: 2105.25,
                grad_share: 0.875,
                wal_appends: 0,
                wal_p50_ns: 0.0,
                wal_p99_ns: 0.0,
            },
            Event::MetricsSample {
                source: "server".into(),
                chain: Some(1),
                seq: 0,
                iter: 40,
                elapsed_ns: 125_000_000,
                iters_per_sec: 320.0,
                grad_evals_per_sec: 0.0,
                grad_share: 0.0,
                wal_appends: 12,
                wal_p50_ns: 1850.0,
                wal_p99_ns: 42_000.0,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for ev in samples() {
            let line = ev.to_json();
            let back = Event::from_json(&line).expect("decodes");
            assert_eq!(back, ev, "round trip failed for {line}");
            // Encoding is stable across a decode cycle.
            assert_eq!(back.to_json(), line);
        }
    }

    #[test]
    fn non_finite_floats_encode_as_null_and_decode_as_nan() {
        let ev = Event::Checkpoint {
            source: CheckpointSource::PostHoc,
            iter: 50,
            max_rhat: f64::NAN,
            streak: 0,
            converged: false,
        };
        let line = ev.to_json();
        assert!(line.contains("\"max_rhat\":null"), "{line}");
        match Event::from_json(&line).unwrap() {
            Event::Checkpoint { max_rhat, .. } => assert!(max_rhat.is_nan()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_type_and_missing_fields() {
        assert!(matches!(
            Event::from_json("{\"type\":\"nope\"}"),
            Err(DecodeError::Malformed(_))
        ));
        assert!(Event::from_json("{\"type\":\"run_start\",\"model\":\"x\"}").is_err());
        assert!(Event::from_json("not json").is_err());
    }

    #[test]
    fn rejects_newer_schema_majors_with_a_typed_error() {
        let newer = format!(
            "{{\"type\":\"trace_header\",\"schema_version\":\"{}.0\"}}",
            TRACE_SCHEMA_MAJOR + 1
        );
        assert_eq!(
            Event::from_json(&newer),
            Err(DecodeError::UnsupportedSchema {
                major: TRACE_SCHEMA_MAJOR + 1,
                supported: TRACE_SCHEMA_MAJOR,
            })
        );
        // Newer minors of the current major decode fine.
        let minor =
            format!("{{\"type\":\"trace_header\",\"schema_version\":\"{TRACE_SCHEMA_MAJOR}.99\"}}");
        assert!(Event::from_json(&minor).is_ok());
        // Garbled versions are malformed, not silently accepted.
        assert!(matches!(
            Event::from_json("{\"type\":\"trace_header\",\"schema_version\":\"v2\"}"),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn step_size_round_trips_bitwise() {
        // A step size with a long shortest-decimal representation.
        let eps = 0.1 + 0.2; // 0.30000000000000004
        let ev = Event::Iteration {
            chain: 0,
            iter: 0,
            step_size: eps,
            tree_depth: 1,
            leapfrogs: 1,
            divergent: false,
            accept: 1.0,
        };
        match Event::from_json(&ev.to_json()).unwrap() {
            Event::Iteration { step_size, .. } => {
                assert_eq!(step_size.to_bits(), eps.to_bits());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
