//! The structured-event schema.
//!
//! One [`Event`] is one line of a trace: a flat, self-describing record
//! tagged with a `type` field. The schema is documented in DESIGN.md §7;
//! every variant encodes to a single JSON object via [`Event::to_json`]
//! and decodes back via [`Event::from_json`].
//!
//! Encoding rules:
//!
//! * non-finite `f64` values encode as `null` and decode as `NaN`
//!   (JSON has no NaN/infinity literals);
//! * optional iteration counts encode as `null` when absent;
//! * integers keep full `u64` precision (seeds exceed 2^53).
//!
//! Note that the derived `PartialEq` follows IEEE float semantics, so
//! two events whose only difference is a `NaN` diagnostic compare
//! unequal; compare [`Event::to_json`] strings when that matters.

use crate::json::{parse, Json};
use crate::metrics::MetricsSnapshot;
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

impl CheckpointSource {
    fn tag(self) -> &'static str {
        match self {
            Self::Online => "online",
            Self::PostHoc => "posthoc",
        }
    }

    fn from_tag(tag: &str) -> Result<Self, String> {
        match tag {
            "online" => Ok(Self::Online),
            "posthoc" => Ok(Self::PostHoc),
            other => Err(format!("unknown checkpoint source '{other}'")),
        }
    }
}

/// One structured observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The first line of a JSONL trace file, announcing its schema
    /// version (written by `JsonlRecorder::create`).
    TraceHeader {
        /// `"MAJOR.MINOR"`; decoding rejects newer majors.
        schema_version: String,
    },
    /// A profiled span opened (coarse phases only — see `obs::span`).
    SpanStart {
        /// Chain index, or `None` for monitor/supervisor threads.
        chain: Option<u64>,
        /// Phase tag (`Phase::tag`).
        phase: String,
        /// Span-stack depth at open (0 = top level).
        depth: u64,
    },
    /// A profiled span closed. Wall-clock fields are non-deterministic
    /// and carved out of determinism comparisons.
    SpanEnd {
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
    Metrics {
        /// Model (workload) name.
        model: String,
        /// Merged counters/gauges/histograms for the run.
        snapshot: MetricsSnapshot,
    },
    /// A multi-chain run began.
    RunStart {
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
    Iteration {
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
    Checkpoint {
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
    ShardAggregate {
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
    Elision {
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
    Subsample {
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
    Counters {
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
    Platform {
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
    RunEnd {
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
    ChainFault {
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
    ChainRetry {
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
    CheckpointSaved {
        /// Checkpoint file path.
        path: String,
        /// Iteration the checkpoint captures.
        iter: u64,
        /// Chains serialized into the checkpoint.
        chains: u64,
    },
    /// A run resumed from a checkpoint file (supervisor).
    Resume {
        /// Checkpoint file path.
        path: String,
        /// Iteration the run resumed from.
        iter: u64,
        /// Model (workload) name.
        model: String,
    },
    /// A job entered the server's submission queue (job server).
    JobSubmitted {
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
    JobPlaced {
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
    JobPreempted {
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
    JobCompleted {
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
    JobRecovered {
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
    JobExpired {
        /// Server-assigned job id.
        job: u64,
        /// Configured deadline, milliseconds.
        deadline_ms: u64,
        /// Iterations completed before the cancel took effect.
        iters_done: u64,
    },
    /// Admission-side load shedding refused or evicted a job under
    /// overload (job server).
    JobShed {
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
    JournalReplayed {
        /// Journal file path.
        path: String,
        /// Valid records replayed.
        records: u64,
        /// Jobs reconstructed into the queue.
        jobs_recovered: u64,
    },
    /// A torn tail was truncated from the journal on open (job
    /// server) — everything up to the last complete record survives.
    JournalTruncated {
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
    MetricsSample {
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
    DegradedReport {
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

use crate::json::ObjWriter as Obj;

fn req<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    req(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not a u64"))
}

fn get_f64(obj: &Json, key: &str) -> Result<f64, String> {
    let v = req(obj, key)?;
    if v.is_null() {
        return Ok(f64::NAN); // non-finite values encode as null
    }
    v.as_f64()
        .ok_or_else(|| format!("field '{key}' is not a number"))
}

fn get_bool(obj: &Json, key: &str) -> Result<bool, String> {
    req(obj, key)?
        .as_bool()
        .ok_or_else(|| format!("field '{key}' is not a bool"))
}

fn get_str(obj: &Json, key: &str) -> Result<String, String> {
    Ok(req(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' is not a string"))?
        .to_string())
}

fn get_opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    let v = req(obj, key)?;
    if v.is_null() {
        return Ok(None);
    }
    v.as_u64()
        .map(Some)
        .ok_or_else(|| format!("field '{key}' is not a u64 or null"))
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
        match self {
            Event::TraceHeader { schema_version } => Obj::new("trace_header")
                .field_str("schema_version", schema_version)
                .finish(),
            Event::SpanStart {
                chain,
                phase,
                depth,
            } => Obj::new("span_start")
                .field_opt_u64("chain", *chain)
                .field_str("phase", phase)
                .field_u64("depth", *depth)
                .finish(),
            Event::SpanEnd {
                chain,
                phase,
                depth,
                elapsed_ns,
                self_ns,
            } => Obj::new("span_end")
                .field_opt_u64("chain", *chain)
                .field_str("phase", phase)
                .field_u64("depth", *depth)
                .field_u64("elapsed_ns", *elapsed_ns)
                .field_u64("self_ns", *self_ns)
                .finish(),
            Event::Metrics { model, snapshot } => {
                let mut rendered = String::new();
                snapshot.write_json(&mut rendered);
                Obj::new("metrics")
                    .field_str("model", model)
                    .field_raw("snapshot", &rendered)
                    .finish()
            }
            Event::RunStart {
                model,
                chains,
                iters,
                seed,
            } => Obj::new("run_start")
                .field_str("model", model)
                .field_u64("chains", *chains)
                .field_u64("iters", *iters)
                .field_u64("seed", *seed)
                .finish(),
            Event::Iteration {
                chain,
                iter,
                step_size,
                tree_depth,
                leapfrogs,
                divergent,
                accept,
            } => Obj::new("iteration")
                .field_u64("chain", *chain)
                .field_u64("iter", *iter)
                .field_f64("step_size", *step_size)
                .field_u64("tree_depth", *tree_depth)
                .field_u64("leapfrogs", *leapfrogs)
                .field_bool("divergent", *divergent)
                .field_f64("accept", *accept)
                .finish(),
            Event::Checkpoint {
                source,
                iter,
                max_rhat,
                streak,
                converged,
            } => Obj::new("checkpoint")
                .field_str("source", source.tag())
                .field_u64("iter", *iter)
                .field_f64("max_rhat", *max_rhat)
                .field_u64("streak", *streak)
                .field_bool("converged", *converged)
                .finish(),
            Event::ShardAggregate {
                model,
                sweeps,
                shards,
                threads,
                tape_nodes,
                tape_bytes,
                transcendental,
                elapsed_ns,
            } => Obj::new("shard_aggregate")
                .field_str("model", model)
                .field_u64("sweeps", *sweeps)
                .field_u64("shards", *shards)
                .field_u64("threads", *threads)
                .field_u64("tape_nodes", *tape_nodes)
                .field_u64("tape_bytes", *tape_bytes)
                .field_u64("transcendental", *transcendental)
                .field_u64("elapsed_ns", *elapsed_ns)
                .finish(),
            Event::Elision {
                workload,
                total_iters,
                converged_at,
                iter_saving,
                work_saving,
            } => Obj::new("elision")
                .field_str("workload", workload)
                .field_u64("total_iters", *total_iters)
                .field_opt_u64("converged_at", *converged_at)
                .field_f64("iter_saving", *iter_saving)
                .field_f64("work_saving", *work_saving)
                .finish(),
            Event::Subsample {
                workload,
                fraction,
                working_set_bytes,
                speedup,
            } => Obj::new("subsample")
                .field_str("workload", workload)
                .field_f64("fraction", *fraction)
                .field_u64("working_set_bytes", *working_set_bytes)
                .field_f64("speedup", *speedup)
                .finish(),
            Event::Counters {
                workload,
                platform,
                cores,
                ipc,
                llc_mpki,
                bandwidth_gbs,
                time_s,
                energy_j,
            } => Obj::new("counters")
                .field_str("workload", workload)
                .field_str("platform", platform)
                .field_u64("cores", *cores)
                .field_f64("ipc", *ipc)
                .field_f64("llc_mpki", *llc_mpki)
                .field_f64("bandwidth_gbs", *bandwidth_gbs)
                .field_f64("time_s", *time_s)
                .field_f64("energy_j", *energy_j)
                .finish(),
            Event::Platform {
                name,
                processor,
                cores,
                llc_bytes,
                mem_bw_gbs,
                tdp_w,
            } => Obj::new("platform")
                .field_str("name", name)
                .field_str("processor", processor)
                .field_u64("cores", *cores)
                .field_u64("llc_bytes", *llc_bytes)
                .field_f64("mem_bw_gbs", *mem_bw_gbs)
                .field_f64("tdp_w", *tdp_w)
                .finish(),
            Event::RunEnd {
                model,
                chains,
                stopped_at,
                total_draws,
                divergences,
                grad_evals,
                span_ns,
            } => Obj::new("run_end")
                .field_str("model", model)
                .field_u64("chains", *chains)
                .field_opt_u64("stopped_at", *stopped_at)
                .field_u64("total_draws", *total_draws)
                .field_u64("divergences", *divergences)
                .field_u64("grad_evals", *grad_evals)
                .field_u64("span_ns", *span_ns)
                .finish(),
            Event::ChainFault {
                chain,
                attempt,
                kind,
                iter,
                message,
            } => Obj::new("chain_fault")
                .field_u64("chain", *chain)
                .field_u64("attempt", *attempt)
                .field_str("kind", kind)
                .field_opt_u64("iter", *iter)
                .field_str("message", message)
                .finish(),
            Event::ChainRetry {
                chain,
                attempt,
                reseed,
                seed,
            } => Obj::new("chain_retry")
                .field_u64("chain", *chain)
                .field_u64("attempt", *attempt)
                .field_bool("reseed", *reseed)
                .field_u64("seed", *seed)
                .finish(),
            Event::CheckpointSaved { path, iter, chains } => Obj::new("checkpoint_saved")
                .field_str("path", path)
                .field_u64("iter", *iter)
                .field_u64("chains", *chains)
                .finish(),
            Event::Resume { path, iter, model } => Obj::new("resume")
                .field_str("path", path)
                .field_u64("iter", *iter)
                .field_str("model", model)
                .finish(),
            Event::JobSubmitted {
                job,
                name,
                workload,
                priority,
                chains,
                iters,
                seed,
                data_bytes,
            } => Obj::new("job_submitted")
                .field_u64("job", *job)
                .field_str("name", name)
                .field_str("workload", workload)
                .field_u64("priority", *priority)
                .field_u64("chains", *chains)
                .field_u64("iters", *iters)
                .field_u64("seed", *seed)
                .field_u64("data_bytes", *data_bytes)
                .finish(),
            Event::JobPlaced {
                job,
                cores,
                inner_threads,
                llc_bound,
                predicted_mpki,
                resumed_from,
            } => Obj::new("job_placed")
                .field_u64("job", *job)
                .field_u64("cores", *cores)
                .field_u64("inner_threads", *inner_threads)
                .field_bool("llc_bound", *llc_bound)
                .field_f64("predicted_mpki", *predicted_mpki)
                .field_opt_u64("resumed_from", *resumed_from)
                .finish(),
            Event::JobPreempted {
                job,
                at_iter,
                by,
                checkpoint,
            } => Obj::new("job_preempted")
                .field_u64("job", *job)
                .field_u64("at_iter", *at_iter)
                .field_u64("by", *by)
                .field_str("checkpoint", checkpoint)
                .finish(),
            Event::JobCompleted {
                job,
                stopped_at,
                iters_done,
                degraded,
                faults,
                grad_evals,
            } => Obj::new("job_completed")
                .field_u64("job", *job)
                .field_opt_u64("stopped_at", *stopped_at)
                .field_u64("iters_done", *iters_done)
                .field_bool("degraded", *degraded)
                .field_u64("faults", *faults)
                .field_u64("grad_evals", *grad_evals)
                .finish(),
            Event::JobRecovered {
                job,
                resumed_from,
                corrupt_skipped,
            } => Obj::new("job_recovered")
                .field_u64("job", *job)
                .field_opt_u64("resumed_from", *resumed_from)
                .field_u64("corrupt_skipped", *corrupt_skipped)
                .finish(),
            Event::JobExpired {
                job,
                deadline_ms,
                iters_done,
            } => Obj::new("job_expired")
                .field_u64("job", *job)
                .field_u64("deadline_ms", *deadline_ms)
                .field_u64("iters_done", *iters_done)
                .finish(),
            Event::JobShed {
                job,
                priority,
                queue_depth,
                queued_bytes,
            } => Obj::new("job_shed")
                .field_u64("job", *job)
                .field_u64("priority", *priority)
                .field_u64("queue_depth", *queue_depth)
                .field_u64("queued_bytes", *queued_bytes)
                .finish(),
            Event::JournalReplayed {
                path,
                records,
                jobs_recovered,
            } => Obj::new("journal_replayed")
                .field_str("path", path)
                .field_u64("records", *records)
                .field_u64("jobs_recovered", *jobs_recovered)
                .finish(),
            Event::JournalTruncated {
                path,
                truncated_bytes,
                records,
            } => Obj::new("journal_truncated")
                .field_str("path", path)
                .field_u64("truncated_bytes", *truncated_bytes)
                .field_u64("records", *records)
                .finish(),
            Event::MetricsSample {
                source,
                chain,
                seq,
                iter,
                elapsed_ns,
                iters_per_sec,
                grad_evals_per_sec,
                grad_share,
                wal_appends,
                wal_p50_ns,
                wal_p99_ns,
            } => Obj::new("metrics_sample")
                .field_str("source", source)
                .field_opt_u64("chain", *chain)
                .field_u64("seq", *seq)
                .field_u64("iter", *iter)
                .field_u64("elapsed_ns", *elapsed_ns)
                .field_f64("iters_per_sec", *iters_per_sec)
                .field_f64("grad_evals_per_sec", *grad_evals_per_sec)
                .field_f64("grad_share", *grad_share)
                .field_u64("wal_appends", *wal_appends)
                .field_f64("wal_p50_ns", *wal_p50_ns)
                .field_f64("wal_p99_ns", *wal_p99_ns)
                .finish(),
            Event::DegradedReport {
                model,
                survivors,
                lost,
                faults,
                grad_evals,
                span_ns,
            } => Obj::new("degraded_report")
                .field_str("model", model)
                .field_u64("survivors", *survivors)
                .field_u64("lost", *lost)
                .field_u64("faults", *faults)
                .field_u64("grad_evals", *grad_evals)
                .field_u64("span_ns", *span_ns)
                .finish(),
        }
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
        let v = parse(line).map_err(DecodeError::Malformed)?;
        let tag = get_str(&v, "type").map_err(DecodeError::Malformed)?;
        if tag == "trace_header" {
            let schema_version = get_str(&v, "schema_version").map_err(DecodeError::Malformed)?;
            let (major, _minor) =
                parse_schema_version(&schema_version).map_err(DecodeError::Malformed)?;
            if major > TRACE_SCHEMA_MAJOR {
                return Err(DecodeError::UnsupportedSchema {
                    major,
                    supported: TRACE_SCHEMA_MAJOR,
                });
            }
            return Ok(Event::TraceHeader { schema_version });
        }
        Self::decode(&v, &tag).map_err(DecodeError::Malformed)
    }

    fn decode(v: &Json, tag: &str) -> Result<Self, String> {
        match tag {
            "span_start" => Ok(Event::SpanStart {
                chain: get_opt_u64(v, "chain")?,
                phase: get_str(v, "phase")?,
                depth: get_u64(v, "depth")?,
            }),
            "span_end" => Ok(Event::SpanEnd {
                chain: get_opt_u64(v, "chain")?,
                phase: get_str(v, "phase")?,
                depth: get_u64(v, "depth")?,
                elapsed_ns: get_u64(v, "elapsed_ns")?,
                self_ns: get_u64(v, "self_ns")?,
            }),
            "metrics" => Ok(Event::Metrics {
                model: get_str(v, "model")?,
                snapshot: MetricsSnapshot::from_json(req(v, "snapshot")?)?,
            }),
            "run_start" => Ok(Event::RunStart {
                model: get_str(v, "model")?,
                chains: get_u64(v, "chains")?,
                iters: get_u64(v, "iters")?,
                seed: get_u64(v, "seed")?,
            }),
            "iteration" => Ok(Event::Iteration {
                chain: get_u64(v, "chain")?,
                iter: get_u64(v, "iter")?,
                step_size: get_f64(v, "step_size")?,
                tree_depth: get_u64(v, "tree_depth")?,
                leapfrogs: get_u64(v, "leapfrogs")?,
                divergent: get_bool(v, "divergent")?,
                accept: get_f64(v, "accept")?,
            }),
            "checkpoint" => Ok(Event::Checkpoint {
                source: CheckpointSource::from_tag(&get_str(v, "source")?)?,
                iter: get_u64(v, "iter")?,
                max_rhat: get_f64(v, "max_rhat")?,
                streak: get_u64(v, "streak")?,
                converged: get_bool(v, "converged")?,
            }),
            "shard_aggregate" => Ok(Event::ShardAggregate {
                model: get_str(v, "model")?,
                sweeps: get_u64(v, "sweeps")?,
                shards: get_u64(v, "shards")?,
                threads: get_u64(v, "threads")?,
                tape_nodes: get_u64(v, "tape_nodes")?,
                tape_bytes: get_u64(v, "tape_bytes")?,
                transcendental: get_u64(v, "transcendental")?,
                elapsed_ns: get_u64(v, "elapsed_ns")?,
            }),
            "elision" => Ok(Event::Elision {
                workload: get_str(v, "workload")?,
                total_iters: get_u64(v, "total_iters")?,
                converged_at: get_opt_u64(v, "converged_at")?,
                iter_saving: get_f64(v, "iter_saving")?,
                work_saving: get_f64(v, "work_saving")?,
            }),
            "subsample" => Ok(Event::Subsample {
                workload: get_str(v, "workload")?,
                fraction: get_f64(v, "fraction")?,
                working_set_bytes: get_u64(v, "working_set_bytes")?,
                speedup: get_f64(v, "speedup")?,
            }),
            "counters" => Ok(Event::Counters {
                workload: get_str(v, "workload")?,
                platform: get_str(v, "platform")?,
                cores: get_u64(v, "cores")?,
                ipc: get_f64(v, "ipc")?,
                llc_mpki: get_f64(v, "llc_mpki")?,
                bandwidth_gbs: get_f64(v, "bandwidth_gbs")?,
                time_s: get_f64(v, "time_s")?,
                energy_j: get_f64(v, "energy_j")?,
            }),
            "platform" => Ok(Event::Platform {
                name: get_str(v, "name")?,
                processor: get_str(v, "processor")?,
                cores: get_u64(v, "cores")?,
                llc_bytes: get_u64(v, "llc_bytes")?,
                mem_bw_gbs: get_f64(v, "mem_bw_gbs")?,
                tdp_w: get_f64(v, "tdp_w")?,
            }),
            "run_end" => Ok(Event::RunEnd {
                model: get_str(v, "model")?,
                chains: get_u64(v, "chains")?,
                stopped_at: get_opt_u64(v, "stopped_at")?,
                total_draws: get_u64(v, "total_draws")?,
                divergences: get_u64(v, "divergences")?,
                grad_evals: get_u64(v, "grad_evals")?,
                span_ns: get_u64(v, "span_ns")?,
            }),
            "chain_fault" => Ok(Event::ChainFault {
                chain: get_u64(v, "chain")?,
                attempt: get_u64(v, "attempt")?,
                kind: get_str(v, "kind")?,
                iter: get_opt_u64(v, "iter")?,
                message: get_str(v, "message")?,
            }),
            "chain_retry" => Ok(Event::ChainRetry {
                chain: get_u64(v, "chain")?,
                attempt: get_u64(v, "attempt")?,
                reseed: get_bool(v, "reseed")?,
                seed: get_u64(v, "seed")?,
            }),
            "checkpoint_saved" => Ok(Event::CheckpointSaved {
                path: get_str(v, "path")?,
                iter: get_u64(v, "iter")?,
                chains: get_u64(v, "chains")?,
            }),
            "resume" => Ok(Event::Resume {
                path: get_str(v, "path")?,
                iter: get_u64(v, "iter")?,
                model: get_str(v, "model")?,
            }),
            "job_submitted" => Ok(Event::JobSubmitted {
                job: get_u64(v, "job")?,
                name: get_str(v, "name")?,
                workload: get_str(v, "workload")?,
                priority: get_u64(v, "priority")?,
                chains: get_u64(v, "chains")?,
                iters: get_u64(v, "iters")?,
                seed: get_u64(v, "seed")?,
                data_bytes: get_u64(v, "data_bytes")?,
            }),
            "job_placed" => Ok(Event::JobPlaced {
                job: get_u64(v, "job")?,
                cores: get_u64(v, "cores")?,
                inner_threads: get_u64(v, "inner_threads")?,
                llc_bound: get_bool(v, "llc_bound")?,
                predicted_mpki: get_f64(v, "predicted_mpki")?,
                resumed_from: get_opt_u64(v, "resumed_from")?,
            }),
            "job_preempted" => Ok(Event::JobPreempted {
                job: get_u64(v, "job")?,
                at_iter: get_u64(v, "at_iter")?,
                by: get_u64(v, "by")?,
                checkpoint: get_str(v, "checkpoint")?,
            }),
            "job_completed" => Ok(Event::JobCompleted {
                job: get_u64(v, "job")?,
                stopped_at: get_opt_u64(v, "stopped_at")?,
                iters_done: get_u64(v, "iters_done")?,
                degraded: get_bool(v, "degraded")?,
                faults: get_u64(v, "faults")?,
                grad_evals: get_u64(v, "grad_evals")?,
            }),
            "job_recovered" => Ok(Event::JobRecovered {
                job: get_u64(v, "job")?,
                resumed_from: get_opt_u64(v, "resumed_from")?,
                corrupt_skipped: get_u64(v, "corrupt_skipped")?,
            }),
            "job_expired" => Ok(Event::JobExpired {
                job: get_u64(v, "job")?,
                deadline_ms: get_u64(v, "deadline_ms")?,
                iters_done: get_u64(v, "iters_done")?,
            }),
            "job_shed" => Ok(Event::JobShed {
                job: get_u64(v, "job")?,
                priority: get_u64(v, "priority")?,
                queue_depth: get_u64(v, "queue_depth")?,
                queued_bytes: get_u64(v, "queued_bytes")?,
            }),
            "journal_replayed" => Ok(Event::JournalReplayed {
                path: get_str(v, "path")?,
                records: get_u64(v, "records")?,
                jobs_recovered: get_u64(v, "jobs_recovered")?,
            }),
            "journal_truncated" => Ok(Event::JournalTruncated {
                path: get_str(v, "path")?,
                truncated_bytes: get_u64(v, "truncated_bytes")?,
                records: get_u64(v, "records")?,
            }),
            "metrics_sample" => Ok(Event::MetricsSample {
                source: get_str(v, "source")?,
                chain: get_opt_u64(v, "chain")?,
                seq: get_u64(v, "seq")?,
                iter: get_u64(v, "iter")?,
                elapsed_ns: get_u64(v, "elapsed_ns")?,
                iters_per_sec: get_f64(v, "iters_per_sec")?,
                grad_evals_per_sec: get_f64(v, "grad_evals_per_sec")?,
                grad_share: get_f64(v, "grad_share")?,
                wal_appends: get_u64(v, "wal_appends")?,
                wal_p50_ns: get_f64(v, "wal_p50_ns")?,
                wal_p99_ns: get_f64(v, "wal_p99_ns")?,
            }),
            "degraded_report" => Ok(Event::DegradedReport {
                model: get_str(v, "model")?,
                survivors: get_u64(v, "survivors")?,
                lost: get_u64(v, "lost")?,
                faults: get_u64(v, "faults")?,
                grad_evals: get_u64(v, "grad_evals")?,
                span_ns: get_u64(v, "span_ns")?,
            }),
            other => Err(format!("unknown event type '{other}'")),
        }
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
