//! Hierarchical span/phase profiler with scoped RAII timers.
//!
//! The sampler hot paths are annotated with [`span`] guards naming a
//! [`Phase`] (gradient eval, leapfrog, tree doubling, …). Spans record
//! into a per-thread [`MetricsRegistry`] — no locks, no allocation on
//! the steady-state path — and the registry is merged into the
//! run-level [`Profiler`] when the chain's [`ScopeGuard`] ends. Because
//! snapshot merging is associative and commutative, the merged metrics
//! are identical regardless of chain completion order.
//!
//! **Determinism contract.** Profiling is observation only: spans never
//! touch RNG state and never change control flow, so draws are
//! bit-identical with profiling on or off (enforced by
//! `tests/determinism.rs`). The *wall-clock* fields (`elapsed_ns`,
//! `self_ns`, histogram samples) are non-deterministic and are carved
//! out of determinism comparisons exactly like `shard_aggregate`'s
//! `elapsed_ns`.
//!
//! **Event volume policy.** Every phase feeds the `span.<tag>`
//! histogram; only coarse phases ([`Phase::emits_events`]) additionally
//! emit `span_start`/`span_end` events. Per-leapfrog events would
//! dwarf the trace, so the fine phases (gradient eval, leapfrog, shard
//! sweep/reduce) are histogram-only.
//!
//! Nesting is accounted hierarchically: a span's histogram sample is
//! its *self* time (elapsed minus enclosed spans), so per-phase sums
//! partition sampled wall time without double counting.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::recorder::RecorderHandle;
use crate::Event;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often a chain thread folds its registry into the run-level
/// snapshot mid-run (checked only when a *top-level* span closes, so
/// the cost is one `Instant::now()` per outermost span, not per
/// leapfrog). Live consumers — the telemetry sampler polling
/// [`ProfilerHandle::snapshot`] — see metrics at most this stale.
const LIVE_PUBLISH_INTERVAL: Duration = Duration::from_millis(100);

/// A profiled phase of the inference runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One log-posterior gradient evaluation (inside leapfrog).
    GradientEval,
    /// One leapfrog step (kick–drift–kick around the gradient).
    Leapfrog,
    /// One NUTS tree doubling (contains its leapfrogs).
    TreeDoubling,
    /// Warmup adaptation bookkeeping (dual averaging + Welford).
    Adaptation,
    /// Parallel likelihood-shard sweep inside `ShardedModel`.
    ShardSweep,
    /// Fixed-order shard-gradient reduction on the calling thread.
    ShardReduce,
    /// Sufficient-statistics fast-path evaluation: log-density +
    /// gradient from precomputed group statistics, no data sweep.
    StatsReduce,
    /// One R̂ checkpoint diagnostic (online monitor or post-hoc).
    CheckpointDiag,
    /// Supervisor retry handling for one faulted chain.
    Retry,
    /// Run-checkpoint serialization to disk.
    Serialize,
    /// Checkpoint load + fingerprint validation on resume.
    Resume,
}

impl Phase {
    /// Every phase, in a fixed report order.
    pub const ALL: [Phase; 11] = [
        Phase::GradientEval,
        Phase::Leapfrog,
        Phase::TreeDoubling,
        Phase::Adaptation,
        Phase::ShardSweep,
        Phase::ShardReduce,
        Phase::StatsReduce,
        Phase::CheckpointDiag,
        Phase::Retry,
        Phase::Serialize,
        Phase::Resume,
    ];

    /// Stable wire tag (used in events and metric names).
    pub fn tag(self) -> &'static str {
        match self {
            Phase::GradientEval => "gradient_eval",
            Phase::Leapfrog => "leapfrog",
            Phase::TreeDoubling => "tree_doubling",
            Phase::Adaptation => "adaptation",
            Phase::ShardSweep => "shard_sweep",
            Phase::ShardReduce => "shard_reduce",
            Phase::StatsReduce => "stats_reduce",
            Phase::CheckpointDiag => "checkpoint_diag",
            Phase::Retry => "retry",
            Phase::Serialize => "serialize",
            Phase::Resume => "resume",
        }
    }

    /// Parses a wire tag back into a phase.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Phase::ALL.into_iter().find(|p| p.tag() == tag)
    }

    /// The `span.<tag>` histogram name this phase records into.
    pub fn metric_name(self) -> &'static str {
        match self {
            Phase::GradientEval => "span.gradient_eval",
            Phase::Leapfrog => "span.leapfrog",
            Phase::TreeDoubling => "span.tree_doubling",
            Phase::Adaptation => "span.adaptation",
            Phase::ShardSweep => "span.shard_sweep",
            Phase::ShardReduce => "span.shard_reduce",
            Phase::StatsReduce => "span.stats_reduce",
            Phase::CheckpointDiag => "span.checkpoint_diag",
            Phase::Retry => "span.retry",
            Phase::Serialize => "span.serialize",
            Phase::Resume => "span.resume",
        }
    }

    /// Whether spans of this phase emit `span_start`/`span_end` events
    /// (coarse phases only; fine phases are histogram-only — see the
    /// module docs).
    pub fn emits_events(self) -> bool {
        matches!(
            self,
            Phase::TreeDoubling
                | Phase::Adaptation
                | Phase::CheckpointDiag
                | Phase::Retry
                | Phase::Serialize
                | Phase::Resume
        )
    }
}

/// Run-level profiler: collects per-thread registries into one merged
/// [`MetricsSnapshot`] and carries the recorder span events go to.
#[derive(Debug)]
pub struct Profiler {
    recorder: RecorderHandle,
    merged: Mutex<MetricsSnapshot>,
}

/// A cheap, cloneable, possibly-disabled reference to a [`Profiler`]
/// (mirrors [`RecorderHandle`]). The disabled handle costs one branch
/// at scope installation and nothing per span.
#[derive(Debug, Clone, Default)]
pub struct ProfilerHandle {
    inner: Option<Arc<Profiler>>,
}

impl ProfilerHandle {
    /// The disabled profiler; spans are no-ops.
    pub fn null() -> Self {
        Self { inner: None }
    }

    /// An enabled profiler whose span events go to `recorder` (pass the
    /// run's recorder so spans land in the same trace; a disabled
    /// recorder still accumulates metrics, only event emission is
    /// skipped).
    pub fn new(recorder: RecorderHandle) -> Self {
        Self {
            inner: Some(Arc::new(Profiler {
                recorder,
                merged: Mutex::new(MetricsSnapshot::new()),
            })),
        }
    }

    /// Whether profiling is enabled.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs this profiler on the current thread for the duration of
    /// the returned guard. `chain` labels span events (`None` for
    /// monitor/supervisor threads). When the guard drops, the thread's
    /// registry is merged into the run-level snapshot.
    pub fn install(&self, chain: Option<u64>) -> ScopeGuard {
        let Some(profiler) = &self.inner else {
            return ScopeGuard {
                prev: None,
                active: false,
            };
        };
        let core = Rc::new(ThreadCore {
            chain,
            profiler: Arc::clone(profiler),
            registry: RefCell::new(MetricsRegistry::new()),
            stack: RefCell::new(Vec::new()),
            last_publish: Cell::new(Instant::now()),
        });
        let prev = CURRENT.with(|c| c.replace(Some(core)));
        ScopeGuard { prev, active: true }
    }

    /// A copy of the merged snapshot, for reading while a run is live.
    /// Running chains publish their registries periodically (each time
    /// a top-level span closes and `LIVE_PUBLISH_INTERVAL` has elapsed),
    /// so mid-run snapshots are live to within that interval; the
    /// remainder merges when each chain's scope ends.
    ///
    /// It reads empty once `chain::run`, the supervisor or the elision
    /// study has returned: each ends by draining the profiler through
    /// [`ProfilerHandle::emit_metrics`]. After a run, read its spans
    /// from the [`Event::Metrics`] event it recorded (or from the
    /// snapshot `emit_metrics` returned to the run).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(p) => lock(&p.merged).clone(),
            None => MetricsSnapshot::new(),
        }
    }

    /// Takes the merged snapshot, leaving the profiler empty — one run's
    /// metrics don't leak into the next when a handle is reused. Runs
    /// drain through [`ProfilerHandle::emit_metrics`], which records
    /// what it takes as the [`Event::Metrics`] event: that event, not
    /// a later `snapshot` or `drain`, is the read path after a run.
    pub fn drain(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(p) => std::mem::take(&mut *lock(&p.merged)),
            None => MetricsSnapshot::new(),
        }
    }

    /// Drains the merged snapshot, emits it as one [`Event::Metrics`]
    /// (when non-empty and the recorder is enabled), and returns it so
    /// callers can derive headline numbers for `run_end`.
    pub fn emit_metrics(&self, model: &str) -> MetricsSnapshot {
        let snap = self.drain();
        if let Some(p) = &self.inner {
            if !snap.is_empty() && p.recorder.enabled() {
                p.recorder.record(Event::Metrics {
                    model: model.to_string(),
                    snapshot: snap.clone(),
                });
            }
        }
        snap
    }
}

fn lock(m: &Mutex<MetricsSnapshot>) -> std::sync::MutexGuard<'_, MetricsSnapshot> {
    // A poisoned registry is still mergeable; metrics must never turn a
    // survivable chain panic into a run abort.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Frame {
    phase: Phase,
    child_ns: u64,
}

struct ThreadCore {
    chain: Option<u64>,
    profiler: Arc<Profiler>,
    registry: RefCell<MetricsRegistry>,
    stack: RefCell<Vec<Frame>>,
    last_publish: Cell<Instant>,
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<ThreadCore>>> = const { RefCell::new(None) };
}

/// Uninstalls the thread's profiler scope on drop, merging its registry
/// into the run-level snapshot (see [`ProfilerHandle::install`]).
#[must_use = "dropping the guard immediately uninstalls the profiler"]
pub struct ScopeGuard {
    prev: Option<Rc<ThreadCore>>,
    active: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let core = CURRENT.with(|c| c.replace(self.prev.take()));
        if let Some(core) = core {
            // Open frames can only remain here on panic-unwind; their
            // samples are simply lost, which is the safe choice.
            let snap = core.registry.borrow_mut().take();
            lock(&core.profiler.merged).merge(&snap);
        }
    }
}

/// Opens a span of `phase` on the current thread; the span closes when
/// the returned guard drops. A no-op (one TLS read) when no profiler
/// scope is installed.
pub fn span(phase: Phase) -> SpanGuard {
    let core = CURRENT.with(|c| c.borrow().clone());
    let Some(core) = core else {
        return SpanGuard { inner: None };
    };
    let depth = {
        let mut stack = core.stack.borrow_mut();
        stack.push(Frame { phase, child_ns: 0 });
        (stack.len() - 1) as u64
    };
    if phase.emits_events() && core.profiler.recorder.enabled() {
        core.profiler.recorder.record(Event::SpanStart {
            chain: core.chain,
            phase: phase.tag().to_string(),
            depth,
        });
    }
    SpanGuard {
        inner: Some(OpenSpan {
            core,
            phase,
            depth,
            start: Instant::now(),
        }),
    }
}

struct OpenSpan {
    core: Rc<ThreadCore>,
    phase: Phase,
    depth: u64,
    start: Instant,
}

/// RAII guard closing one span (see [`span`]).
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    inner: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else {
            return;
        };
        let elapsed = open.start.elapsed().as_nanos() as u64;
        let child_ns = {
            let mut stack = open.core.stack.borrow_mut();
            let frame = stack.pop();
            debug_assert!(
                frame.as_ref().map(|f| f.phase) == Some(open.phase),
                "span stack discipline violated"
            );
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += elapsed;
            }
            frame.map_or(0, |f| f.child_ns)
        };
        let self_ns = elapsed.saturating_sub(child_ns);
        open.core
            .registry
            .borrow_mut()
            .record(open.phase.metric_name(), self_ns);
        if open.phase.emits_events() && open.core.profiler.recorder.enabled() {
            open.core.profiler.recorder.record(Event::SpanEnd {
                chain: open.core.chain,
                phase: open.phase.tag().to_string(),
                depth: open.depth,
                elapsed_ns: elapsed,
                self_ns,
            });
        }
        // Live publish: when a top-level span closes and the interval
        // elapsed, fold this thread's registry into the run-level
        // snapshot so mid-run `ProfilerHandle::snapshot()` calls see
        // fresh metrics. Take + merge keeps totals exact — nothing is
        // counted twice, and the scope-end merge picks up the tail.
        if open.depth == 0 && open.core.last_publish.get().elapsed() >= LIVE_PUBLISH_INTERVAL {
            let snap = open.core.registry.borrow_mut().take();
            lock(&open.core.profiler.merged).merge(&snap);
            open.core.last_publish.set(Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryRecorder;

    #[test]
    fn disabled_profiler_makes_spans_inert() {
        let prof = ProfilerHandle::null();
        assert!(!prof.enabled());
        let _scope = prof.install(Some(0));
        {
            let _g = span(Phase::GradientEval);
        }
        assert!(prof.snapshot().is_empty());
    }

    #[test]
    fn spans_record_self_time_hierarchically() {
        let prof = ProfilerHandle::new(RecorderHandle::null());
        {
            let _scope = prof.install(Some(0));
            let _outer = span(Phase::TreeDoubling);
            for _ in 0..3 {
                let _inner = span(Phase::Leapfrog);
                std::hint::black_box(0u64);
            }
        }
        let snap = prof.snapshot();
        let outer = &snap.histograms["span.tree_doubling"];
        let inner = &snap.histograms["span.leapfrog"];
        assert_eq!(outer.count(), 1);
        assert_eq!(inner.count(), 3);
        // Self time excludes children, so phase sums never double count.
        assert!(snap.span_total_ns() >= outer.sum() + inner.sum());
    }

    #[test]
    fn coarse_phases_emit_matched_span_events() {
        let rec = Arc::new(MemoryRecorder::new());
        let prof = ProfilerHandle::new(RecorderHandle::new(rec.clone()));
        {
            let _scope = prof.install(Some(3));
            let _outer = span(Phase::Adaptation);
            let _fine = span(Phase::GradientEval); // histogram-only
        }
        let events = rec.take();
        assert_eq!(events.len(), 2);
        match &events[0] {
            Event::SpanStart {
                chain,
                phase,
                depth,
            } => {
                assert_eq!((*chain, phase.as_str(), *depth), (Some(3), "adaptation", 0));
            }
            other => panic!("expected span_start, got {other:?}"),
        }
        match &events[1] {
            Event::SpanEnd {
                chain,
                phase,
                depth,
                elapsed_ns,
                self_ns,
            } => {
                assert_eq!((*chain, phase.as_str(), *depth), (Some(3), "adaptation", 0));
                assert!(self_ns <= elapsed_ns);
            }
            other => panic!("expected span_end, got {other:?}"),
        }
    }

    #[test]
    fn merge_order_does_not_change_the_snapshot() {
        let run = |order: &[u64]| {
            let prof = ProfilerHandle::new(RecorderHandle::null());
            for &chain in order {
                let _scope = prof.install(Some(chain));
                for _ in 0..(chain + 1) {
                    let _g = span(Phase::GradientEval);
                }
            }
            let snap = prof.drain();
            // Wall-clock payloads differ; span counts must not depend
            // on the merge order.
            snap.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.count()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&[0, 1, 2]), run(&[2, 1, 0]));
    }

    #[test]
    fn drain_resets_between_runs() {
        let prof = ProfilerHandle::new(RecorderHandle::null());
        {
            let _scope = prof.install(None);
            let _g = span(Phase::CheckpointDiag);
        }
        assert!(!prof.drain().is_empty());
        assert!(prof.drain().is_empty());
    }

    #[test]
    fn phase_tags_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_tag(p.tag()), Some(p));
            assert_eq!(p.metric_name(), format!("span.{}", p.tag()));
        }
        assert_eq!(Phase::from_tag("nope"), None);
    }
}
