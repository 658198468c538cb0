//! # bayes-obs — structured-event observability
//!
//! A lightweight recording layer for the inference runtime: samplers,
//! convergence monitors, the sharded-gradient executor, and the
//! scheduler emit typed [`Event`]s into a [`Recorder`] sink. Three
//! sinks ship with the crate:
//!
//! * [`NullRecorder`] — the default; disabled, zero-cost;
//! * [`MemoryRecorder`] — collects events in memory for tests and
//!   in-process analysis;
//! * [`JsonlRecorder`] — streams one JSON object per line to a file
//!   (the `--trace out.jsonl` flag on the bench bins).
//!
//! On top of the raw event stream sit two aggregation layers:
//!
//! * [`metrics`] — monotonic counters, gauges, and deterministic
//!   log-linear histograms with associative + commutative
//!   snapshot/merge semantics;
//! * [`span`] — a hierarchical phase profiler with scoped RAII timers
//!   ([`span::span`]) feeding per-phase histograms and, for coarse
//!   phases, `span_start`/`span_end` events;
//! * [`telemetry`] — the live signal path: a wall-clock- and
//!   iteration-cadenced [`TelemetrySampler`] turns cumulative
//!   snapshots into window rates, ring-buffer [`TimeSeries`], and
//!   `metrics_sample` events, and a bounded [`FlightRecorder`] keeps
//!   the last-N events for post-mortem dumps.
//!
//! Two invariants make tracing safe to leave wired into hot paths:
//!
//! 1. **Zero-cost when disabled.** Call sites guard event construction
//!    on [`RecorderHandle::enabled`]; a null handle is one branch. The
//!    span profiler mirrors this with [`ProfilerHandle::enabled`].
//! 2. **Observation only.** Recording and profiling paths never use
//!    the RNG and never touch sampler state, so draws are bit-identical
//!    with any recorder or profiler attached (`tests/determinism.rs`
//!    proves it). Wall-clock payloads (`elapsed_ns`, span times) are
//!    the one non-deterministic carve-out.
//!
//! The crate is dependency-free: a small JSON parser ([`json`]) replaces
//! `serde_json`, and every record type of the workspace — trace events,
//! write-ahead-log records, the checkpoint state line — is declared once
//! through [`record!`], which generates its encoder and decoder from one
//! wire rule per field type ([`schema`]).

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod schema;
pub mod span;
pub mod telemetry;

pub use event::{CheckpointSource, DecodeError, Event, TRACE_SCHEMA_MAJOR, TRACE_SCHEMA_MINOR};
pub use json::fnv1a64;
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use recorder::{JsonlRecorder, MemoryRecorder, NullRecorder, Recorder, RecorderHandle};
pub use span::{span, Phase, Profiler, ProfilerHandle, ScopeGuard, SpanGuard};
pub use telemetry::{FlightRecorder, SamplePoint, TelemetryHandle, TelemetrySampler, TimeSeries};
