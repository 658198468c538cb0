//! Trace aggregation for the `trace_report` characterization CLI.
//!
//! Ingests a bayes-obs JSONL trace (the `--trace` output of any bench
//! binary) and reduces it to the characterization aggregates of the
//! paper: per-run phase time breakdowns (from the span profiler's
//! `metrics` snapshots), simulated counter rollups (Table 2 style),
//! convergence/elision timelines, and fault/retry summaries.
//!
//! The same [`TraceReport`] renders both the human text report
//! (`Display`) and a flat CSV ([`TraceReport::to_csv`]) whose rows
//! round-trip through [`parse_csv`] without loss — every value is
//! written with Rust's shortest-round-trip float formatting.

use bayes_obs::{CheckpointSource, DecodeError, Event, MetricsSnapshot, Phase};
use std::fmt;

/// One convergence checkpoint in a run's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRow {
    /// `"online"` or `"posthoc"`.
    pub source: &'static str,
    /// Prefix length the checkpoint evaluated.
    pub iter: u64,
    /// Max split-R̂ at the checkpoint.
    pub max_rhat: f64,
    /// Consecutive sub-threshold checkpoints, this one included.
    pub streak: u64,
    /// Whether convergence was declared here.
    pub converged: bool,
}

/// Outcome of an elision study attached to a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ElisionRow {
    /// Workload name.
    pub workload: String,
    /// User-configured iterations.
    pub total_iters: u64,
    /// Detected stop point, if the run converged.
    pub converged_at: Option<u64>,
    /// Fraction of iterations elided.
    pub iter_saving: f64,
    /// Fraction of gradient work elided on the slowest chain.
    pub work_saving: f64,
}

/// Aggregate sharded-gradient telemetry for a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRow {
    /// Gradient sweeps accumulated.
    pub sweeps: u64,
    /// Shard count of the partition.
    pub shards: u64,
    /// Inner worker threads configured.
    pub threads: u64,
    /// Total tape bytes across sweeps.
    pub tape_bytes: u64,
    /// Wall-clock nanoseconds in gradient sweeps.
    pub elapsed_ns: u64,
}

/// One isolated chain fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Chain index.
    pub chain: u64,
    /// Attempt that failed.
    pub attempt: u64,
    /// Fault taxonomy tag.
    pub kind: String,
    /// Iteration where the fault surfaced, when known.
    pub iter: Option<u64>,
}

/// The `run_end` summary of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEndRow {
    /// Stop decision of the convergence monitor, if any.
    pub stopped_at: Option<u64>,
    /// Draws kept across all chains.
    pub total_draws: u64,
    /// Post-warmup divergences across all chains.
    pub divergences: u64,
    /// Total gradient evaluations across all chains.
    pub grad_evals: u64,
    /// Total profiled span nanoseconds.
    pub span_ns: u64,
}

/// The `degraded_report` summary of a run, when one was emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRow {
    /// Chains that completed.
    pub survivors: u64,
    /// Chains permanently lost.
    pub lost: u64,
    /// Total faults over the run.
    pub faults: u64,
}

/// One periodic live-telemetry sample (`metrics_sample` events).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRow {
    /// Emitting sampler: a model name, or `"server"`.
    pub source: String,
    /// Monotone sequence number within the source.
    pub seq: u64,
    /// Iteration (or scheduler tick) count at the sample.
    pub iter: u64,
    /// Wall nanoseconds since the sampler started.
    pub elapsed_ns: u64,
    /// Iterations per second over the sample window.
    pub iters_per_sec: f64,
    /// Gradient evaluations per second over the sample window.
    pub grad_evals_per_sec: f64,
    /// Fraction of windowed span time spent in gradient evaluation
    /// (NaN when no span time accrued).
    pub grad_share: f64,
    /// WAL appends over the sample window.
    pub wal_appends: u64,
    /// Median WAL append latency, nanoseconds (cumulative).
    pub wal_p50_ns: f64,
    /// 99th-percentile WAL append latency, nanoseconds (cumulative).
    pub wal_p99_ns: f64,
}

/// Per-source rollup of the telemetry stream, for the report footer.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// Emitting sampler.
    pub source: String,
    /// Samples observed.
    pub samples: u64,
    /// Iteration count of the last sample.
    pub last_iter: u64,
    /// Peak windowed iteration rate.
    pub peak_iters_per_sec: f64,
    /// Peak windowed gradient-evaluation rate.
    pub peak_grad_evals_per_sec: f64,
    /// Mean gradient share over samples with a finite share.
    pub mean_grad_share: f64,
    /// WAL appends summed over all sample windows.
    pub wal_appends: u64,
    /// Last reported p99 WAL append latency, nanoseconds.
    pub last_wal_p99_ns: f64,
}

/// Lifecycle of one job server job, folded from its `job_*` events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobRow {
    /// Server-assigned job id.
    pub job: u64,
    /// Client-supplied job name.
    pub name: String,
    /// Workload the job sampled.
    pub workload: String,
    /// Scheduling priority.
    pub priority: u64,
    /// Placements observed (`job_placed` events; first start plus any
    /// post-preemption resumes).
    pub placements: u64,
    /// Preemptions survived (`job_preempted` events).
    pub preemptions: u64,
    /// Cores of the most recent placement.
    pub cores: u64,
    /// Whether the predictor classified the job LLC-bound.
    pub llc_bound: bool,
    /// Predicted LLC MPKI at the job's working set.
    pub predicted_mpki: f64,
    /// Crash recoveries survived (`job_recovered` events).
    pub recoveries: u64,
    /// Checkpoint generations that failed their checksum during
    /// recovery lookups, summed over all recoveries.
    pub corrupt_skipped: u64,
    /// Terminal `job_completed` summary, when the job finished.
    pub completed: Option<JobEndRow>,
    /// Terminal `job_expired` summary, when the deadline fired.
    pub expired: Option<JobExpiredRow>,
    /// Terminal `job_shed` summary, when overload shedding evicted
    /// the job.
    pub shed: Option<JobShedRow>,
}

/// The `job_completed` summary of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEndRow {
    /// Stop decision of the convergence monitor, if any.
    pub stopped_at: Option<u64>,
    /// Iterations executed per chain.
    pub iters_done: u64,
    /// Whether the job finished under a degraded quorum (or failed).
    pub degraded: bool,
    /// Faults across all of the job's placements.
    pub faults: u64,
    /// Gradient evaluations across surviving chains.
    pub grad_evals: u64,
}

/// The `job_expired` summary of a job that ran past its deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct JobExpiredRow {
    /// Configured deadline, milliseconds.
    pub deadline_ms: u64,
    /// Iterations completed before the cancel took effect.
    pub iters_done: u64,
}

/// The `job_shed` summary of a job refused or evicted under overload.
#[derive(Debug, Clone, PartialEq)]
pub struct JobShedRow {
    /// Pending-queue depth at the shedding decision.
    pub queue_depth: u64,
    /// Summed predicted working set of queued + running jobs, bytes.
    pub queued_bytes: u64,
}

/// Journal replay observed on a server recovery, folded per journal
/// path from `journal_truncated` / `journal_replayed` events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JournalRow {
    /// Journal file path.
    pub path: String,
    /// Valid records replayed.
    pub records: u64,
    /// Jobs reconstructed into the queue.
    pub jobs_recovered: u64,
    /// Bytes dropped past the last valid record (torn tail).
    pub truncated_bytes: u64,
}

/// One simulated counter snapshot (Figure 1/2, Table 2 provenance).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRow {
    /// Workload name.
    pub workload: String,
    /// Platform codename.
    pub platform: String,
    /// Active cores simulated.
    pub cores: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// LLC misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Off-chip bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// End-to-end latency, seconds.
    pub time_s: f64,
    /// Energy, joules.
    pub energy_j: f64,
}

/// One row of the per-phase time breakdown, derived from the merged
/// `span.*` histograms of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase wire tag.
    pub phase: &'static str,
    /// Spans sampled.
    pub count: u64,
    /// Total self-time nanoseconds.
    pub total_ns: u64,
    /// Fraction of the run's profiled span time.
    pub share: f64,
    /// Mean span self-time, nanoseconds.
    pub mean_ns: f64,
    /// Upper bound on the median span, nanoseconds.
    pub p50_ns: u64,
    /// Upper bound on the 99th-percentile span, nanoseconds.
    pub p99_ns: u64,
}

/// Everything aggregated from one `run_start`..`run_end` window (plus
/// trailing post-hoc events, which attach to the most recent run).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSection {
    /// Model (workload) name.
    pub model: String,
    /// Configured chain count.
    pub chains: u64,
    /// Configured iterations per chain.
    pub iters: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Iteration events observed.
    pub iterations: u64,
    /// Leapfrog steps summed over iteration events.
    pub leapfrogs: u64,
    /// Divergent iteration events.
    pub divergent: u64,
    /// `span_start`/`span_end` events observed.
    pub span_events: u64,
    /// Merged metrics snapshots (a run may emit more than one, e.g. a
    /// post-hoc replay's follow-up; merge is associative so the order
    /// cannot matter).
    pub metrics: MetricsSnapshot,
    /// Convergence checkpoint timeline, in trace order.
    pub checkpoints: Vec<CheckpointRow>,
    /// Elision outcome, when an elision study ran.
    pub elision: Option<ElisionRow>,
    /// Sharded-gradient telemetry, when the model shards.
    pub shard: Option<ShardRow>,
    /// Isolated chain faults, in trace order.
    pub faults: Vec<FaultRow>,
    /// Chain retries attempted.
    pub retries: u64,
    /// Run-level checkpoint files written.
    pub checkpoint_saves: u64,
    /// Resumes from a checkpoint file.
    pub resumes: u64,
    /// Degraded-completion summary, when emitted.
    pub degraded: Option<DegradedRow>,
    /// The `run_end` summary, when the run completed.
    pub end: Option<RunEndRow>,
}

impl RunSection {
    /// Per-phase breakdown in [`Phase::ALL`] order, skipping phases
    /// with no samples. Shares are fractions of the run's total
    /// profiled span time.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        let total = self.metrics.span_total_ns();
        Phase::ALL
            .iter()
            .filter_map(|p| {
                let h = self.metrics.histograms.get(p.metric_name())?;
                if h.count() == 0 {
                    return None;
                }
                Some(PhaseRow {
                    phase: p.tag(),
                    count: h.count(),
                    total_ns: h.sum(),
                    share: if total > 0 {
                        h.sum() as f64 / total as f64
                    } else {
                        0.0
                    },
                    mean_ns: h.mean(),
                    p50_ns: h.quantile(0.5).unwrap_or(0),
                    p99_ns: h.quantile(0.99).unwrap_or(0),
                })
            })
            .collect()
    }

    /// The phase with the largest share of profiled time, if any span
    /// was sampled.
    pub fn dominant_phase(&self) -> Option<PhaseRow> {
        self.phase_rows()
            .into_iter()
            .max_by(|a, b| a.total_ns.cmp(&b.total_ns))
    }
}

/// The full aggregation of one trace file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceReport {
    /// Schema version announced by the trace header, when present.
    pub schema: Option<String>,
    /// Lines read.
    pub lines: usize,
    /// Lines that failed to decode (malformed; counted, not fatal).
    pub skipped: usize,
    /// Run sections, in trace order.
    pub runs: Vec<RunSection>,
    /// Simulated counter snapshots (report-level: emitted outside
    /// sampling runs by the characterization flows).
    pub counters: Vec<CounterRow>,
    /// Platform description rows seen.
    pub platforms: Vec<String>,
    /// Job server lifecycles, sorted by job id.
    pub jobs: Vec<JobRow>,
    /// Journal replays observed (one per recovered server journal).
    pub journal: Vec<JournalRow>,
    /// Periodic telemetry samples, in trace order.
    pub samples: Vec<SampleRow>,
}

impl TraceReport {
    /// Aggregates a whole trace.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnsupportedSchema`] when the trace
    /// header announces a schema major newer than this build
    /// understands; malformed lines are merely counted in `skipped`.
    pub fn parse(text: &str) -> Result<Self, DecodeError> {
        let mut r = TraceReport::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            r.lines += 1;
            match Event::from_json(line) {
                Ok(ev) => r.ingest(ev),
                Err(DecodeError::Malformed(_)) => r.skipped += 1,
                Err(e @ DecodeError::UnsupportedSchema { .. }) => return Err(e),
            }
        }
        // Rollup tables render in key order, not arrival order, so the
        // report bytes are stable across trace interleavings (runs and
        // samples keep trace order — they are timelines).
        r.jobs.sort_by_key(|j| j.job);
        r.counters.sort_by(|a, b| {
            (a.workload.as_str(), a.platform.as_str(), a.cores).cmp(&(
                b.workload.as_str(),
                b.platform.as_str(),
                b.cores,
            ))
        });
        r.journal.sort_by(|a, b| a.path.cmp(&b.path));
        r.platforms.sort();
        Ok(r)
    }

    /// Per-source telemetry rollups, sorted by source name.
    pub fn telemetry(&self) -> Vec<TelemetrySummary> {
        let mut out: Vec<TelemetrySummary> = Vec::new();
        for s in &self.samples {
            let row = match out.iter_mut().find(|t| t.source == s.source) {
                Some(row) => row,
                None => {
                    out.push(TelemetrySummary {
                        source: s.source.clone(),
                        samples: 0,
                        last_iter: 0,
                        peak_iters_per_sec: 0.0,
                        peak_grad_evals_per_sec: 0.0,
                        mean_grad_share: 0.0,
                        wal_appends: 0,
                        last_wal_p99_ns: 0.0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            row.samples += 1;
            row.last_iter = row.last_iter.max(s.iter);
            row.peak_iters_per_sec = row.peak_iters_per_sec.max(s.iters_per_sec);
            row.peak_grad_evals_per_sec = row.peak_grad_evals_per_sec.max(s.grad_evals_per_sec);
            if s.grad_share.is_finite() {
                // Running mean over finite shares only.
                row.mean_grad_share += s.grad_share;
            }
            row.wal_appends += s.wal_appends;
            if s.wal_p99_ns.is_finite() {
                row.last_wal_p99_ns = s.wal_p99_ns;
            }
        }
        for row in &mut out {
            let finite = self
                .samples
                .iter()
                .filter(|s| s.source == row.source && s.grad_share.is_finite())
                .count();
            if finite > 0 {
                row.mean_grad_share /= finite as f64;
            }
        }
        out.sort_by(|a, b| a.source.cmp(&b.source));
        out
    }

    /// The most recent run section, creating an implicit one when an
    /// event arrives before any `run_start` (tolerated, not expected).
    fn current(&mut self, model: Option<&str>) -> &mut RunSection {
        if self.runs.is_empty() {
            self.runs.push(RunSection {
                model: model.unwrap_or("(no run_start)").to_string(),
                ..RunSection::default()
            });
        }
        self.runs.last_mut().expect("non-empty")
    }

    /// The lifecycle row for `job`, creating one when its first event
    /// arrives (a trace may start mid-lifecycle).
    fn job(&mut self, job: u64) -> &mut JobRow {
        if let Some(i) = self.jobs.iter().position(|j| j.job == job) {
            return &mut self.jobs[i];
        }
        self.jobs.push(JobRow {
            job,
            ..JobRow::default()
        });
        self.jobs.last_mut().expect("non-empty")
    }

    /// The replay row for the journal at `path`, creating one when its
    /// first event arrives (`journal_truncated` precedes
    /// `journal_replayed` for the same recovery).
    fn journal(&mut self, path: &str) -> &mut JournalRow {
        if let Some(i) = self.journal.iter().position(|j| j.path == path) {
            return &mut self.journal[i];
        }
        self.journal.push(JournalRow {
            path: path.to_string(),
            ..JournalRow::default()
        });
        self.journal.last_mut().expect("non-empty")
    }

    fn ingest(&mut self, ev: Event) {
        match ev {
            Event::TraceHeader { schema_version } => self.schema = Some(schema_version),
            Event::RunStart {
                model,
                chains,
                iters,
                seed,
            } => self.runs.push(RunSection {
                model,
                chains,
                iters,
                seed,
                ..RunSection::default()
            }),
            Event::Iteration {
                leapfrogs,
                divergent,
                ..
            } => {
                let s = self.current(None);
                s.iterations += 1;
                s.leapfrogs += leapfrogs;
                s.divergent += u64::from(divergent);
            }
            Event::SpanStart { .. } => self.current(None).span_events += 1,
            Event::SpanEnd { .. } => self.current(None).span_events += 1,
            Event::Metrics { model, snapshot } => {
                self.current(Some(&model)).metrics.merge(&snapshot)
            }
            Event::Checkpoint {
                source,
                iter,
                max_rhat,
                streak,
                converged,
            } => self.current(None).checkpoints.push(CheckpointRow {
                source: match source {
                    CheckpointSource::Online => "online",
                    CheckpointSource::PostHoc => "posthoc",
                },
                iter,
                max_rhat,
                streak,
                converged,
            }),
            Event::ShardAggregate {
                sweeps,
                shards,
                threads,
                tape_bytes,
                elapsed_ns,
                ..
            } => {
                self.current(None).shard = Some(ShardRow {
                    sweeps,
                    shards,
                    threads,
                    tape_bytes,
                    elapsed_ns,
                })
            }
            Event::Elision {
                workload,
                total_iters,
                converged_at,
                iter_saving,
                work_saving,
            } => {
                let section = self.current(Some(&workload));
                section.elision = Some(ElisionRow {
                    workload,
                    total_iters,
                    converged_at,
                    iter_saving,
                    work_saving,
                })
            }
            Event::Subsample { .. } => {}
            Event::Counters {
                workload,
                platform,
                cores,
                ipc,
                llc_mpki,
                bandwidth_gbs,
                time_s,
                energy_j,
            } => self.counters.push(CounterRow {
                workload,
                platform,
                cores,
                ipc,
                llc_mpki,
                bandwidth_gbs,
                time_s,
                energy_j,
            }),
            Event::Platform { name, .. } => self.platforms.push(name),
            Event::RunEnd {
                stopped_at,
                total_draws,
                divergences,
                grad_evals,
                span_ns,
                ..
            } => {
                self.current(None).end = Some(RunEndRow {
                    stopped_at,
                    total_draws,
                    divergences,
                    grad_evals,
                    span_ns,
                })
            }
            Event::ChainFault {
                chain,
                attempt,
                kind,
                iter,
                ..
            } => self.current(None).faults.push(FaultRow {
                chain,
                attempt,
                kind,
                iter,
            }),
            Event::ChainRetry { .. } => self.current(None).retries += 1,
            Event::CheckpointSaved { .. } => self.current(None).checkpoint_saves += 1,
            Event::Resume { model, .. } => self.current(Some(&model)).resumes += 1,
            Event::DegradedReport {
                survivors,
                lost,
                faults,
                ..
            } => {
                self.current(None).degraded = Some(DegradedRow {
                    survivors,
                    lost,
                    faults,
                })
            }
            Event::JobSubmitted {
                job,
                name,
                workload,
                priority,
                ..
            } => {
                let row = self.job(job);
                row.name = name;
                row.workload = workload;
                row.priority = priority;
            }
            Event::JobPlaced {
                job,
                cores,
                llc_bound,
                predicted_mpki,
                ..
            } => {
                let row = self.job(job);
                row.placements += 1;
                row.cores = cores;
                row.llc_bound = llc_bound;
                row.predicted_mpki = predicted_mpki;
            }
            Event::JobPreempted { job, .. } => self.job(job).preemptions += 1,
            Event::JobCompleted {
                job,
                stopped_at,
                iters_done,
                degraded,
                faults,
                grad_evals,
            } => {
                self.job(job).completed = Some(JobEndRow {
                    stopped_at,
                    iters_done,
                    degraded,
                    faults,
                    grad_evals,
                })
            }
            Event::JobRecovered {
                job,
                corrupt_skipped,
                ..
            } => {
                let row = self.job(job);
                row.recoveries += 1;
                row.corrupt_skipped += corrupt_skipped;
            }
            Event::JobExpired {
                job,
                deadline_ms,
                iters_done,
            } => {
                self.job(job).expired = Some(JobExpiredRow {
                    deadline_ms,
                    iters_done,
                })
            }
            Event::JobShed {
                job,
                priority,
                queue_depth,
                queued_bytes,
            } => {
                let row = self.job(job);
                // A job shed at admission never got a `job_submitted`
                // event; the shed record is the only priority source.
                row.priority = priority;
                row.shed = Some(JobShedRow {
                    queue_depth,
                    queued_bytes,
                });
            }
            Event::JournalReplayed {
                path,
                records,
                jobs_recovered,
            } => {
                let row = self.journal(&path);
                row.records = records;
                row.jobs_recovered = jobs_recovered;
            }
            Event::JournalTruncated {
                path,
                truncated_bytes,
                records,
            } => {
                let row = self.journal(&path);
                row.truncated_bytes = truncated_bytes;
                row.records = records;
            }
            Event::MetricsSample {
                source,
                seq,
                iter,
                elapsed_ns,
                iters_per_sec,
                grad_evals_per_sec,
                grad_share,
                wal_appends,
                wal_p50_ns,
                wal_p99_ns,
                ..
            } => self.samples.push(SampleRow {
                source,
                seq,
                iter,
                elapsed_ns,
                iters_per_sec,
                grad_evals_per_sec,
                grad_share,
                wal_appends,
                wal_p50_ns,
                wal_p99_ns,
            }),
        }
    }
}

// ------------------------------------------------------------- CSV

/// One flat CSV row: `section,model,name,field,value`.
///
/// The five columns are free of commas by construction (numbers, wire
/// tags, registry workload names), so parsing splits on `,` directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvRow {
    /// Section tag: `run<N>`, `counters`, `jobs`, or `journal`.
    pub section: String,
    /// Model/workload name of the section.
    pub model: String,
    /// Row name within the section (phase tag, platform, `run`, …).
    pub name: String,
    /// Field name.
    pub field: String,
    /// Value, formatted for exact round-trip (`u64` or shortest `f64`).
    pub value: String,
}

/// Header line of the CSV output.
pub const CSV_HEADER: &str = "section,model,name,field,value";

fn push_row(
    rows: &mut Vec<CsvRow>,
    section: &str,
    model: &str,
    name: &str,
    field: &str,
    value: String,
) {
    rows.push(CsvRow {
        section: section.to_string(),
        model: model.to_string(),
        name: name.to_string(),
        field: field.to_string(),
        value,
    });
}

impl TraceReport {
    /// The flat rows the CSV output consists of. Parsing the rendered
    /// CSV with [`parse_csv`] reproduces exactly this vector.
    pub fn csv_rows(&self) -> Vec<CsvRow> {
        let mut rows = Vec::new();
        for (i, s) in self.runs.iter().enumerate() {
            let sec = format!("run{}", i + 1);
            let run_field = |field: &str, value: String, rows: &mut Vec<CsvRow>| {
                push_row(rows, &sec, &s.model, "run", field, value);
            };
            run_field("chains", s.chains.to_string(), &mut rows);
            run_field("iters", s.iters.to_string(), &mut rows);
            run_field("seed", s.seed.to_string(), &mut rows);
            run_field("iterations", s.iterations.to_string(), &mut rows);
            run_field("leapfrogs", s.leapfrogs.to_string(), &mut rows);
            run_field("divergent", s.divergent.to_string(), &mut rows);
            run_field("span_events", s.span_events.to_string(), &mut rows);
            run_field("checkpoints", s.checkpoints.len().to_string(), &mut rows);
            run_field("faults", s.faults.len().to_string(), &mut rows);
            run_field("retries", s.retries.to_string(), &mut rows);
            run_field(
                "checkpoint_saves",
                s.checkpoint_saves.to_string(),
                &mut rows,
            );
            run_field("resumes", s.resumes.to_string(), &mut rows);
            if let Some(end) = &s.end {
                run_field("total_draws", end.total_draws.to_string(), &mut rows);
                run_field("divergences", end.divergences.to_string(), &mut rows);
                run_field("grad_evals", end.grad_evals.to_string(), &mut rows);
                run_field("span_ns", end.span_ns.to_string(), &mut rows);
            }
            for p in s.phase_rows() {
                push_row(
                    &mut rows,
                    &sec,
                    &s.model,
                    p.phase,
                    "count",
                    p.count.to_string(),
                );
                push_row(
                    &mut rows,
                    &sec,
                    &s.model,
                    p.phase,
                    "total_ns",
                    p.total_ns.to_string(),
                );
                push_row(
                    &mut rows,
                    &sec,
                    &s.model,
                    p.phase,
                    "share",
                    p.share.to_string(),
                );
                push_row(
                    &mut rows,
                    &sec,
                    &s.model,
                    p.phase,
                    "p50_ns",
                    p.p50_ns.to_string(),
                );
                push_row(
                    &mut rows,
                    &sec,
                    &s.model,
                    p.phase,
                    "p99_ns",
                    p.p99_ns.to_string(),
                );
            }
            if let Some(e) = &s.elision {
                let at = e.converged_at.map_or("none".to_string(), |c| c.to_string());
                push_row(&mut rows, &sec, &s.model, "elision", "converged_at", at);
                push_row(
                    &mut rows,
                    &sec,
                    &s.model,
                    "elision",
                    "iter_saving",
                    e.iter_saving.to_string(),
                );
                push_row(
                    &mut rows,
                    &sec,
                    &s.model,
                    "elision",
                    "work_saving",
                    e.work_saving.to_string(),
                );
            }
        }
        for c in &self.counters {
            let push = |rows: &mut Vec<CsvRow>, field: &str, value: String| {
                push_row(rows, "counters", &c.workload, &c.platform, field, value);
            };
            push(&mut rows, "cores", c.cores.to_string());
            push(&mut rows, "ipc", c.ipc.to_string());
            push(&mut rows, "llc_mpki", c.llc_mpki.to_string());
            push(&mut rows, "bandwidth_gbs", c.bandwidth_gbs.to_string());
            push(&mut rows, "time_s", c.time_s.to_string());
            push(&mut rows, "energy_j", c.energy_j.to_string());
        }
        for j in &self.jobs {
            let name = format!("job{}", j.job);
            let push = |rows: &mut Vec<CsvRow>, field: &str, value: String| {
                push_row(rows, "jobs", &j.workload, &name, field, value);
            };
            push(&mut rows, "priority", j.priority.to_string());
            push(&mut rows, "placements", j.placements.to_string());
            push(&mut rows, "preemptions", j.preemptions.to_string());
            push(&mut rows, "cores", j.cores.to_string());
            push(&mut rows, "llc_bound", j.llc_bound.to_string());
            push(&mut rows, "predicted_mpki", j.predicted_mpki.to_string());
            push(&mut rows, "recoveries", j.recoveries.to_string());
            push(&mut rows, "corrupt_skipped", j.corrupt_skipped.to_string());
            if let Some(end) = &j.completed {
                let at = end.stopped_at.map_or("none".to_string(), |t| t.to_string());
                push(&mut rows, "stopped_at", at);
                push(&mut rows, "iters_done", end.iters_done.to_string());
                push(&mut rows, "degraded", end.degraded.to_string());
                push(&mut rows, "faults", end.faults.to_string());
                push(&mut rows, "grad_evals", end.grad_evals.to_string());
            }
            if let Some(e) = &j.expired {
                push(&mut rows, "deadline_ms", e.deadline_ms.to_string());
                push(&mut rows, "expired_iters_done", e.iters_done.to_string());
            }
            if let Some(sh) = &j.shed {
                push(&mut rows, "shed_queue_depth", sh.queue_depth.to_string());
                push(&mut rows, "shed_queued_bytes", sh.queued_bytes.to_string());
            }
        }
        // The journal path stays out of the CSV (paths are the one
        // string here not comma-free by construction); the text
        // rendering carries it.
        for (i, jr) in self.journal.iter().enumerate() {
            let name = format!("journal{}", i + 1);
            let push = |rows: &mut Vec<CsvRow>, field: &str, value: String| {
                push_row(rows, "journal", "-", &name, field, value);
            };
            push(&mut rows, "records", jr.records.to_string());
            push(&mut rows, "jobs_recovered", jr.jobs_recovered.to_string());
            push(&mut rows, "truncated_bytes", jr.truncated_bytes.to_string());
        }
        for t in self.telemetry() {
            let push = |rows: &mut Vec<CsvRow>, field: &str, value: String| {
                push_row(rows, "telemetry", &t.source, "rollup", field, value);
            };
            push(&mut rows, "samples", t.samples.to_string());
            push(&mut rows, "last_iter", t.last_iter.to_string());
            push(
                &mut rows,
                "peak_iters_per_sec",
                t.peak_iters_per_sec.to_string(),
            );
            push(
                &mut rows,
                "peak_grad_evals_per_sec",
                t.peak_grad_evals_per_sec.to_string(),
            );
            push(&mut rows, "mean_grad_share", t.mean_grad_share.to_string());
            push(&mut rows, "wal_appends", t.wal_appends.to_string());
            push(&mut rows, "last_wal_p99_ns", t.last_wal_p99_ns.to_string());
        }
        rows
    }

    /// Renders the CSV: header line plus one line per row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for r in self.csv_rows() {
            out.push_str(&r.section);
            out.push(',');
            out.push_str(&r.model);
            out.push(',');
            out.push_str(&r.name);
            out.push(',');
            out.push_str(&r.field);
            out.push(',');
            out.push_str(&r.value);
            out.push('\n');
        }
        out
    }
}

/// Parses [`TraceReport::to_csv`] output back into its rows.
///
/// # Errors
///
/// Returns a description of the first line that is not a five-column
/// record, or of a missing/incorrect header.
pub fn parse_csv(text: &str) -> Result<Vec<CsvRow>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h == CSV_HEADER => {}
        other => return Err(format!("bad CSV header: {other:?}")),
    }
    let mut rows = Vec::new();
    for (n, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 5 {
            return Err(format!(
                "line {}: expected 5 columns, got {}",
                n + 2,
                cols.len()
            ));
        }
        rows.push(CsvRow {
            section: cols[0].to_string(),
            model: cols[1].to_string(),
            name: cols[2].to_string(),
            field: cols[3].to_string(),
            value: cols[4].to_string(),
        });
    }
    Ok(rows)
}

// ------------------------------------------------------------ text

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn fmt_us(ns: f64) -> String {
    format!("{:.1}", ns / 1e3)
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} lines, {} undecodable, schema {}",
            self.lines,
            self.skipped,
            self.schema.as_deref().unwrap_or("(no header)")
        )?;
        for (i, s) in self.runs.iter().enumerate() {
            writeln!(
                f,
                "\n--- run {}: {} ({} chains x {} iters, seed {}) ---",
                i + 1,
                s.model,
                s.chains,
                s.iters,
                s.seed
            )?;
            if let Some(end) = &s.end {
                writeln!(
                    f,
                    "totals: {} draws, {} grad evals, {} divergences, span total {} ms{}",
                    end.total_draws,
                    end.grad_evals,
                    end.divergences,
                    fmt_ms(end.span_ns),
                    match end.stopped_at {
                        Some(t) => format!(", stopped at {t}"),
                        None => String::new(),
                    },
                )?;
            }
            let phases = s.phase_rows();
            if phases.is_empty() {
                writeln!(f, "phases: none profiled (run without --profile?)")?;
            } else {
                writeln!(
                    f,
                    "{:<16} {:>10} {:>12} {:>7} {:>10} {:>10} {:>10}",
                    "phase", "count", "total(ms)", "share", "mean(us)", "p50(us)", "p99(us)"
                )?;
                for p in &phases {
                    writeln!(
                        f,
                        "{:<16} {:>10} {:>12} {:>6.1}% {:>10} {:>10} {:>10}",
                        p.phase,
                        p.count,
                        fmt_ms(p.total_ns),
                        p.share * 100.0,
                        fmt_us(p.mean_ns),
                        fmt_us(p.p50_ns as f64),
                        fmt_us(p.p99_ns as f64),
                    )?;
                }
            }
            if s.iterations > 0 {
                writeln!(
                    f,
                    "sampler: {} iteration events, {} leapfrogs, {} divergent",
                    s.iterations, s.leapfrogs, s.divergent
                )?;
            }
            if let Some(sh) = &s.shard {
                writeln!(
                    f,
                    "shards: {} sweeps over {} shards ({} threads), {} tape bytes, {} ms swept",
                    sh.sweeps,
                    sh.shards,
                    sh.threads,
                    sh.tape_bytes,
                    fmt_ms(sh.elapsed_ns)
                )?;
            }
            if !s.checkpoints.is_empty() {
                let converged = s.checkpoints.iter().find(|c| c.converged);
                writeln!(
                    f,
                    "convergence: {} checkpoints{}",
                    s.checkpoints.len(),
                    match converged {
                        Some(c) => format!(
                            ", converged at {} ({}, max R-hat {:.3}, streak {})",
                            c.iter, c.source, c.max_rhat, c.streak
                        ),
                        None => ", no convergence declared".to_string(),
                    }
                )?;
            }
            if let Some(e) = &s.elision {
                writeln!(
                    f,
                    "elision: {}, {:.0}% iterations and {:.0}% work elided",
                    match e.converged_at {
                        Some(c) => format!("stop at {} of {}", c, e.total_iters),
                        None => format!("no stop within {}", e.total_iters),
                    },
                    e.iter_saving * 100.0,
                    e.work_saving * 100.0
                )?;
            }
            if !s.faults.is_empty() || s.retries > 0 {
                writeln!(
                    f,
                    "faults: {} ({} retries{})",
                    s.faults.len(),
                    s.retries,
                    match &s.degraded {
                        Some(d) => format!(
                            "; degraded: {} survivors, {} lost, {} faults",
                            d.survivors, d.lost, d.faults
                        ),
                        None => String::new(),
                    }
                )?;
                for fr in &s.faults {
                    writeln!(
                        f,
                        "  chain {} attempt {}: {}{}",
                        fr.chain,
                        fr.attempt,
                        fr.kind,
                        match fr.iter {
                            Some(it) => format!(" at iteration {it}"),
                            None => String::new(),
                        }
                    )?;
                }
            }
            if s.checkpoint_saves > 0 || s.resumes > 0 {
                writeln!(
                    f,
                    "checkpoints: {} saved, {} resumes",
                    s.checkpoint_saves, s.resumes
                )?;
            }
        }
        if !self.jobs.is_empty() {
            writeln!(f, "\n--- jobs ---")?;
            writeln!(
                f,
                "{:<6} {:<14} {:<12} {:>4} {:>7} {:>8} {:>6} {:>5} {:>6} {:>8} {:>10} {:>9}",
                "job",
                "name",
                "workload",
                "prio",
                "places",
                "preempt",
                "recov",
                "cores",
                "bound",
                "iters",
                "grad_evals",
                "outcome"
            )?;
            for j in &self.jobs {
                let (iters, grads, outcome) = match (&j.completed, &j.expired, &j.shed) {
                    (Some(end), _, _) => (
                        end.iters_done.to_string(),
                        end.grad_evals.to_string(),
                        if end.degraded { "degraded" } else { "ok" },
                    ),
                    (None, Some(e), _) => (e.iters_done.to_string(), "-".to_string(), "expired"),
                    (None, None, Some(_)) => ("-".to_string(), "-".to_string(), "shed"),
                    (None, None, None) => ("-".to_string(), "-".to_string(), "running"),
                };
                writeln!(
                    f,
                    "{:<6} {:<14} {:<12} {:>4} {:>7} {:>8} {:>6} {:>5} {:>6} {:>8} {:>10} {:>9}",
                    j.job,
                    j.name,
                    j.workload,
                    j.priority,
                    j.placements,
                    j.preemptions,
                    j.recoveries,
                    j.cores,
                    if j.llc_bound { "llc" } else { "cache" },
                    iters,
                    grads,
                    outcome
                )?;
            }
        }
        if !self.journal.is_empty() {
            writeln!(f, "\n--- journal replays ---")?;
            for jr in &self.journal {
                writeln!(
                    f,
                    "{}: {} records, {} jobs recovered{}",
                    jr.path,
                    jr.records,
                    jr.jobs_recovered,
                    if jr.truncated_bytes > 0 {
                        format!(", {} torn bytes truncated", jr.truncated_bytes)
                    } else {
                        String::new()
                    }
                )?;
            }
        }
        if !self.samples.is_empty() {
            writeln!(f, "\n--- telemetry ---")?;
            writeln!(
                f,
                "{:<14} {:>8} {:>10} {:>12} {:>12} {:>10} {:>9} {:>12}",
                "source",
                "samples",
                "last_iter",
                "peak_it/s",
                "peak_grad/s",
                "grad_shr",
                "wal_apnd",
                "wal_p99(us)"
            )?;
            for t in self.telemetry() {
                writeln!(
                    f,
                    "{:<14} {:>8} {:>10} {:>12.1} {:>12.1} {:>9.1}% {:>9} {:>12}",
                    t.source,
                    t.samples,
                    t.last_iter,
                    t.peak_iters_per_sec,
                    t.peak_grad_evals_per_sec,
                    t.mean_grad_share * 100.0,
                    t.wal_appends,
                    fmt_us(t.last_wal_p99_ns),
                )?;
            }
        }
        if !self.counters.is_empty() {
            writeln!(f, "\n--- simulated counters ---")?;
            writeln!(
                f,
                "{:<14} {:<14} {:>5} {:>6} {:>9} {:>9} {:>9} {:>10}",
                "workload",
                "platform",
                "cores",
                "ipc",
                "llc_mpki",
                "bw(GB/s)",
                "time(s)",
                "energy(J)"
            )?;
            for c in &self.counters {
                writeln!(
                    f,
                    "{:<14} {:<14} {:>5} {:>6.2} {:>9.2} {:>9.2} {:>9.3} {:>10.1}",
                    c.workload,
                    c.platform,
                    c.cores,
                    c.ipc,
                    c.llc_mpki,
                    c.bandwidth_gbs,
                    c.time_s,
                    c.energy_j
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_obs::{MetricsRegistry, TRACE_SCHEMA_MAJOR, TRACE_SCHEMA_MINOR};

    fn sample_trace() -> String {
        let mut reg = MetricsRegistry::new();
        for v in [1_000u64, 2_000, 4_000] {
            reg.record("span.gradient_eval", v);
        }
        reg.record("span.adaptation", 500);
        reg.counter_add("profiled_threads", 4);
        let events = vec![
            Event::trace_header(),
            Event::RunStart {
                model: "gauss".to_string(),
                chains: 2,
                iters: 100,
                seed: 7,
            },
            Event::Iteration {
                chain: 0,
                iter: 0,
                step_size: 0.5,
                tree_depth: 2,
                leapfrogs: 3,
                divergent: false,
                accept: 0.9,
            },
            Event::Iteration {
                chain: 1,
                iter: 0,
                step_size: 0.5,
                tree_depth: 3,
                leapfrogs: 7,
                divergent: true,
                accept: 0.4,
            },
            Event::Metrics {
                model: "gauss".to_string(),
                snapshot: reg.snapshot(),
            },
            Event::Checkpoint {
                source: CheckpointSource::PostHoc,
                iter: 50,
                max_rhat: 1.05,
                streak: 1,
                converged: true,
            },
            Event::RunEnd {
                model: "gauss".to_string(),
                chains: 2,
                stopped_at: None,
                total_draws: 200,
                divergences: 1,
                grad_evals: 10,
                span_ns: 7_500,
            },
            Event::Elision {
                workload: "gauss".to_string(),
                total_iters: 100,
                converged_at: Some(50),
                iter_saving: 0.5,
                work_saving: 0.25,
            },
            Event::Counters {
                workload: "12cities".to_string(),
                platform: "skylake".to_string(),
                cores: 4,
                ipc: 1.25,
                llc_mpki: 0.8,
                bandwidth_gbs: 3.5,
                time_s: 12.25,
                energy_j: 900.0,
            },
        ];
        let mut s = String::new();
        for e in events {
            s.push_str(&e.to_json());
            s.push('\n');
        }
        s
    }

    #[test]
    fn aggregates_one_run() {
        let r = TraceReport::parse(&sample_trace()).unwrap();
        assert_eq!(r.schema.as_deref(), Some("1.3"));
        assert_eq!(r.skipped, 0);
        assert_eq!(r.runs.len(), 1);
        let s = &r.runs[0];
        assert_eq!(s.model, "gauss");
        assert_eq!(s.iterations, 2);
        assert_eq!(s.leapfrogs, 10);
        assert_eq!(s.divergent, 1);
        let end = s.end.as_ref().unwrap();
        assert_eq!(end.grad_evals, 10);
        assert_eq!(end.span_ns, 7_500);
        assert_eq!(s.checkpoints.len(), 1);
        assert!(s.checkpoints[0].converged);
        assert_eq!(s.elision.as_ref().unwrap().converged_at, Some(50));
        assert_eq!(r.counters.len(), 1);

        let phases = s.phase_rows();
        assert_eq!(phases.len(), 2);
        // Phase::ALL order: gradient_eval before adaptation.
        assert_eq!(phases[0].phase, "gradient_eval");
        assert_eq!(phases[0].count, 3);
        assert_eq!(phases[0].total_ns, 7_000);
        assert!((phases[0].share - 7000.0 / 7500.0).abs() < 1e-12);
        assert_eq!(s.dominant_phase().unwrap().phase, "gradient_eval");
    }

    #[test]
    fn folds_job_lifecycles() {
        let events = vec![
            Event::trace_header(),
            Event::JobSubmitted {
                job: 1,
                name: "batch-lo".to_string(),
                workload: "12cities".to_string(),
                priority: 1,
                chains: 2,
                iters: 100,
                seed: 7,
                data_bytes: 4096,
            },
            Event::JobPlaced {
                job: 1,
                cores: 4,
                inner_threads: 2,
                llc_bound: false,
                predicted_mpki: 0.25,
                resumed_from: None,
            },
            Event::JobSubmitted {
                job: 2,
                name: "urgent".to_string(),
                workload: "ad".to_string(),
                priority: 5,
                chains: 2,
                iters: 50,
                seed: 9,
                data_bytes: 1 << 20,
            },
            Event::JobPreempted {
                job: 1,
                at_iter: 40,
                by: 2,
                checkpoint: "/tmp/job-1.ckpt".to_string(),
            },
            Event::JobPlaced {
                job: 2,
                cores: 4,
                inner_threads: 2,
                llc_bound: true,
                predicted_mpki: 6.5,
                resumed_from: None,
            },
            Event::JobCompleted {
                job: 2,
                stopped_at: Some(40),
                iters_done: 40,
                degraded: false,
                faults: 0,
                grad_evals: 900,
            },
            Event::JobPlaced {
                job: 1,
                cores: 4,
                inner_threads: 2,
                llc_bound: false,
                predicted_mpki: 0.25,
                resumed_from: Some(40),
            },
            Event::JobCompleted {
                job: 1,
                stopped_at: None,
                iters_done: 100,
                degraded: false,
                faults: 0,
                grad_evals: 2100,
            },
        ];
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let r = TraceReport::parse(&text).unwrap();
        assert_eq!(r.skipped, 0);
        assert_eq!(r.jobs.len(), 2);
        let preempted = &r.jobs[0];
        assert_eq!(preempted.job, 1);
        assert_eq!(preempted.name, "batch-lo");
        assert_eq!(preempted.placements, 2);
        assert_eq!(preempted.preemptions, 1);
        assert_eq!(preempted.completed.as_ref().unwrap().iters_done, 100);
        let urgent = &r.jobs[1];
        assert_eq!(urgent.preemptions, 0);
        assert!(urgent.llc_bound);
        assert_eq!(urgent.completed.as_ref().unwrap().stopped_at, Some(40));
        // The jobs section survives both renderings.
        assert!(r.to_string().contains("--- jobs ---"));
        let rows = parse_csv(&r.to_csv()).unwrap();
        assert!(rows
            .iter()
            .any(|row| row.section == "jobs" && row.name == "job1" && row.field == "preemptions"));
    }

    #[test]
    fn folds_durability_events() {
        let events = [
            Event::trace_header(),
            Event::JournalTruncated {
                path: "/tmp/state/journal.wal".to_string(),
                truncated_bytes: 13,
                records: 6,
            },
            Event::JournalReplayed {
                path: "/tmp/state/journal.wal".to_string(),
                records: 6,
                jobs_recovered: 2,
            },
            Event::JobSubmitted {
                job: 1,
                name: "batch".to_string(),
                workload: "12cities".to_string(),
                priority: 1,
                chains: 2,
                iters: 100,
                seed: 7,
                data_bytes: 4096,
            },
            Event::JobRecovered {
                job: 1,
                resumed_from: Some(40),
                corrupt_skipped: 1,
            },
            Event::JobExpired {
                job: 2,
                deadline_ms: 150,
                iters_done: 60,
            },
            Event::JobShed {
                job: 3,
                priority: 1,
                queue_depth: 4,
                queued_bytes: 1 << 20,
            },
        ];
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let r = TraceReport::parse(&text).unwrap();
        assert_eq!(r.skipped, 0);
        assert_eq!(r.journal.len(), 1);
        let jr = &r.journal[0];
        assert_eq!(jr.records, 6);
        assert_eq!(jr.jobs_recovered, 2);
        assert_eq!(jr.truncated_bytes, 13);
        let recovered = &r.jobs[0];
        assert_eq!(recovered.recoveries, 1);
        assert_eq!(recovered.corrupt_skipped, 1);
        let expired = r.jobs.iter().find(|j| j.job == 2).unwrap();
        assert_eq!(expired.expired.as_ref().unwrap().deadline_ms, 150);
        let shed = r.jobs.iter().find(|j| j.job == 3).unwrap();
        assert_eq!(shed.priority, 1);
        assert_eq!(shed.shed.as_ref().unwrap().queue_depth, 4);
        let rendered = r.to_string();
        assert!(rendered.contains("--- journal replays ---"));
        assert!(rendered.contains("13 torn bytes truncated"));
        assert!(rendered.contains("expired"));
        assert!(rendered.contains("shed"));
        let rows = parse_csv(&r.to_csv()).unwrap();
        assert!(rows.iter().any(|row| row.section == "journal"
            && row.field == "jobs_recovered"
            && row.value == "2"));
        assert!(rows
            .iter()
            .any(|row| row.name == "job2" && row.field == "deadline_ms" && row.value == "150"));
        assert!(rows
            .iter()
            .any(|row| row.name == "job3" && row.field == "shed_queue_depth" && row.value == "4"));
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let mut text = sample_trace();
        text.push_str("{\"type\":\"nope\"}\nnot json at all\n");
        let r = TraceReport::parse(&text).unwrap();
        assert_eq!(r.skipped, 2);
        assert_eq!(r.runs.len(), 1);
    }

    #[test]
    fn newer_schema_major_is_fatal() {
        let header = format!(
            "{{\"type\":\"trace_header\",\"schema_version\":\"{}.0\"}}",
            TRACE_SCHEMA_MAJOR + 1
        );
        match TraceReport::parse(&header) {
            Err(DecodeError::UnsupportedSchema { major, supported }) => {
                assert_eq!(major, TRACE_SCHEMA_MAJOR + 1);
                assert_eq!(supported, TRACE_SCHEMA_MAJOR);
            }
            other => panic!("expected UnsupportedSchema, got {other:?}"),
        }
        // Sanity: the current minor decodes fine.
        let _ = (TRACE_SCHEMA_MAJOR, TRACE_SCHEMA_MINOR);
    }

    #[test]
    fn csv_round_trips_into_identical_rows() {
        let r = TraceReport::parse(&sample_trace()).unwrap();
        let rows = r.csv_rows();
        assert!(!rows.is_empty());
        let parsed = parse_csv(&r.to_csv()).unwrap();
        assert_eq!(parsed, rows);
        // Float values survive exactly via shortest-round-trip display.
        let share = rows
            .iter()
            .find(|row| row.name == "gradient_eval" && row.field == "share")
            .unwrap();
        assert_eq!(share.value.parse::<f64>().unwrap(), 7000.0 / 7500.0);
    }

    #[test]
    fn folds_metrics_samples_into_telemetry_rollups() {
        let events = [
            Event::trace_header(),
            Event::MetricsSample {
                source: "server".to_string(),
                chain: None,
                seq: 0,
                iter: 10,
                elapsed_ns: 1_000_000,
                iters_per_sec: 10.0,
                grad_evals_per_sec: 0.0,
                grad_share: f64::NAN,
                wal_appends: 3,
                wal_p50_ns: 400.0,
                wal_p99_ns: 900.0,
            },
            Event::MetricsSample {
                source: "gauss".to_string(),
                chain: None,
                seq: 0,
                iter: 64,
                elapsed_ns: 2_000_000,
                iters_per_sec: 320.0,
                grad_evals_per_sec: 1_500.0,
                grad_share: 0.5,
                wal_appends: 0,
                wal_p50_ns: f64::NAN,
                wal_p99_ns: f64::NAN,
            },
            Event::MetricsSample {
                source: "gauss".to_string(),
                chain: None,
                seq: 1,
                iter: 128,
                elapsed_ns: 4_000_000,
                iters_per_sec: 250.0,
                grad_evals_per_sec: 2_000.0,
                grad_share: 0.7,
                wal_appends: 0,
                wal_p50_ns: f64::NAN,
                wal_p99_ns: f64::NAN,
            },
        ];
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let r = TraceReport::parse(&text).unwrap();
        assert_eq!(r.skipped, 0);
        assert_eq!(r.samples.len(), 3);
        let rollups = r.telemetry();
        assert_eq!(rollups.len(), 2);
        // Sorted by source: "gauss" before "server".
        assert_eq!(rollups[0].source, "gauss");
        assert_eq!(rollups[0].samples, 2);
        assert_eq!(rollups[0].last_iter, 128);
        assert_eq!(rollups[0].peak_iters_per_sec, 320.0);
        assert_eq!(rollups[0].peak_grad_evals_per_sec, 2_000.0);
        assert!((rollups[0].mean_grad_share - 0.6).abs() < 1e-12);
        assert_eq!(rollups[1].source, "server");
        assert_eq!(rollups[1].wal_appends, 3);
        assert_eq!(rollups[1].last_wal_p99_ns, 900.0);
        // NaN shares are excluded from the mean, not poisoning it.
        assert_eq!(rollups[1].mean_grad_share, 0.0);
        let rendered = r.to_string();
        assert!(rendered.contains("--- telemetry ---"));
        assert!(rendered.contains("server"));
        let rows = parse_csv(&r.to_csv()).unwrap();
        assert!(rows.iter().any(|row| row.section == "telemetry"
            && row.model == "gauss"
            && row.field == "peak_iters_per_sec"
            && row.value == "320"));
    }

    #[test]
    fn rollup_tables_render_in_key_order_regardless_of_arrival() {
        // The same logical content in two arrival orders must render
        // byte-identically: jobs by id, counters by workload/platform,
        // journal by path.
        let submitted = |job: u64, name: &str| Event::JobSubmitted {
            job,
            name: name.to_string(),
            workload: "12cities".to_string(),
            priority: 1,
            chains: 2,
            iters: 100,
            seed: 7,
            data_bytes: 4096,
        };
        let counters = |workload: &str| Event::Counters {
            workload: workload.to_string(),
            platform: "skylake".to_string(),
            cores: 4,
            ipc: 1.0,
            llc_mpki: 0.5,
            bandwidth_gbs: 3.0,
            time_s: 1.0,
            energy_j: 10.0,
        };
        let forward = [
            Event::trace_header(),
            submitted(1, "a"),
            submitted(2, "b"),
            counters("ad"),
            counters("votes"),
        ];
        let reversed = [
            Event::trace_header(),
            submitted(2, "b"),
            submitted(1, "a"),
            counters("votes"),
            counters("ad"),
        ];
        let render = |events: &[Event]| {
            let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
            let r = TraceReport::parse(&text).unwrap();
            (r.to_string(), r.to_csv())
        };
        let (text_a, csv_a) = render(&forward);
        let (text_b, csv_b) = render(&reversed);
        assert_eq!(text_a, text_b);
        assert_eq!(csv_a, csv_b);
        // And the order is the key order, not luck.
        assert!(text_a.find("ad").unwrap() < text_a.find("votes").unwrap());
    }

    #[test]
    fn text_report_names_the_phases() {
        let r = TraceReport::parse(&sample_trace()).unwrap();
        let text = r.to_string();
        assert!(text.contains("gradient_eval"));
        assert!(text.contains("adaptation"));
        assert!(text.contains("run 1: gauss"));
        assert!(text.contains("skylake"));
    }
}
