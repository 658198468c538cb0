//! Live telemetry: periodic metrics sampling into bounded time series,
//! plus a per-job flight recorder for post-mortem dumps.
//!
//! Everything else in this crate is post-hoc: registry snapshots
//! surface in `run_end`, traces are analyzed after the run. This
//! module is the *streaming* signal path. A [`TelemetrySampler`] is
//! polled off the hot path (from a monitor/scheduler thread, never a
//! chain worker) with cumulative [`MetricsSnapshot`]s; on an iteration
//! or wall-clock cadence it computes window rates, appends them to
//! fixed-capacity ring-buffer [`TimeSeries`], and emits a
//! `metrics_sample` event (schema minor 3).
//!
//! The crate-wide determinism contract extends here: sampling only
//! *observes* — it never feeds back into RNG state or control flow, so
//! telemetry on vs. off is draw-for-draw bit-identical. Wall-clock
//! payloads (`elapsed_ns`, rates) are the usual carve-out, exactly as
//! for `span_end` timings.

use crate::event::Event;
use crate::metrics::MetricsSnapshot;
use crate::recorder::{Recorder, RecorderHandle};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks a mutex, tolerating poisoning (telemetry must keep working
/// even if some thread panicked mid-update).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One timestamped observation in a [`TimeSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Nanoseconds since the sampler started (monotone within a series).
    pub t_ns: u64,
    /// The observed value (a rate, share, or level).
    pub value: f64,
}

/// A fixed-capacity ring buffer of timestamped samples.
///
/// Invariants (property-tested):
/// * never holds more than `capacity` points;
/// * timestamps are non-decreasing — [`TimeSeries::push`] clamps a
///   stale timestamp up to the previous one rather than reordering;
/// * [`TimeSeries::merge`] is associative and commutative for series
///   of equal capacity: it keeps the newest `capacity` points of the
///   multiset union under the total order `(t_ns, value bits)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    capacity: usize,
    points: VecDeque<SamplePoint>,
}

impl TimeSeries {
    /// An empty series holding at most `capacity` points (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            points: VecDeque::new(),
        }
    }

    /// Maximum number of retained points.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Appends a point, evicting the oldest when full. A timestamp
    /// older than the last point is clamped up to it so the series
    /// stays monotone even if callers race on a coarse clock.
    pub fn push(&mut self, t_ns: u64, value: f64) {
        let t_ns = match self.points.back() {
            Some(last) => t_ns.max(last.t_ns),
            None => t_ns,
        };
        self.points.push_back(SamplePoint { t_ns, value });
        while self.points.len() > self.capacity {
            self.points.pop_front();
        }
    }

    /// The most recent point, if any.
    pub fn latest(&self) -> Option<SamplePoint> {
        self.points.back().copied()
    }

    /// Iterates points oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &SamplePoint> {
        self.points.iter()
    }

    /// Merges another series into this one: the newest
    /// `self.capacity` points of the multiset union survive, ordered
    /// by `(t_ns, value bits)`. For equal capacities this is
    /// associative and commutative — a point evicted from any
    /// intermediate merge is older than at least `capacity` surviving
    /// points, so it could never appear in the final window either.
    pub fn merge(&mut self, other: &TimeSeries) {
        let mut all: Vec<SamplePoint> = self
            .points
            .iter()
            .chain(other.points.iter())
            .copied()
            .collect();
        all.sort_by_key(|p| (p.t_ns, p.value.to_bits()));
        let drop = all.len().saturating_sub(self.capacity);
        self.points = all.into_iter().skip(drop).collect();
    }
}

/// A rate in events/second from a window delta, clamped non-negative.
/// A zero-width window yields 0.0 rather than infinity.
pub fn rate_per_sec(delta: u64, dt_ns: u64) -> f64 {
    if dt_ns == 0 {
        0.0
    } else {
        delta as f64 * 1e9 / dt_ns as f64
    }
}

/// Cumulative gradient-evaluation count in a snapshot: the
/// `grad_evals` counter when present, else the `span.gradient_eval`
/// histogram count (one span per evaluation).
fn grad_evals(snap: &MetricsSnapshot) -> u64 {
    if let Some(&c) = snap.counters.get("grad_evals") {
        return c;
    }
    snap.histograms
        .get("span.gradient_eval")
        .map(|h| h.count())
        .unwrap_or(0)
}

/// Mutable sampler state behind one mutex (sampling happens on a
/// single monitor/scheduler thread; the mutex is for safety, not for
/// throughput).
#[derive(Debug)]
struct SamplerState {
    seq: u64,
    last_wall: Instant,
    last_iter: u64,
    last_snap: MetricsSnapshot,
    series: BTreeMap<String, TimeSeries>,
}

/// Periodically turns cumulative [`MetricsSnapshot`]s into window
/// rates, ring-buffer time series, and `metrics_sample` events.
///
/// Cadence: a call to [`TelemetrySampler::maybe_sample`] fires when
/// the iteration counter advanced by at least the iteration stride
/// *or* the wall-clock interval elapsed since the last sample —
/// whichever comes first. Callers poll from a thread that is already
/// off the sampling hot path.
#[derive(Debug)]
pub struct TelemetrySampler {
    recorder: RecorderHandle,
    wall_interval: Duration,
    iter_stride: u64,
    capacity: usize,
    started: Instant,
    state: Mutex<SamplerState>,
}

impl TelemetrySampler {
    /// A sampler with default cadence (200 ms wall interval, iteration
    /// stride 64, 256-point series) emitting into `recorder`.
    pub fn new(recorder: RecorderHandle) -> Self {
        let started = Instant::now();
        Self {
            recorder,
            wall_interval: Duration::from_millis(200),
            iter_stride: 64,
            capacity: 256,
            started,
            state: Mutex::new(SamplerState {
                seq: 0,
                last_wall: started,
                last_iter: 0,
                last_snap: MetricsSnapshot::new(),
                series: BTreeMap::new(),
            }),
        }
    }

    /// Sets the wall-clock cadence.
    pub fn with_wall_interval(mut self, interval: Duration) -> Self {
        self.wall_interval = interval;
        self
    }

    /// Sets the iteration cadence (0 disables iteration triggering).
    pub fn with_iter_stride(mut self, stride: u64) -> Self {
        self.iter_stride = stride;
        self
    }

    /// Sets the per-series ring capacity (min 1).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Samples if the cadence says so; returns whether a sample was
    /// emitted. `iter` is the caller's progress counter (min iteration
    /// across chains, or a scheduler tick count); `snap` is the
    /// *cumulative* metrics so far — the sampler differences
    /// consecutive snapshots itself.
    pub fn maybe_sample(&self, source: &str, iter: u64, snap: &MetricsSnapshot) -> bool {
        let mut st = lock(&self.state);
        let by_iter = self.iter_stride > 0 && iter >= st.last_iter.saturating_add(self.iter_stride);
        let by_wall = st.last_wall.elapsed() >= self.wall_interval;
        if !(by_iter || by_wall) {
            return false;
        }
        self.sample_locked(&mut st, source, iter, snap);
        true
    }

    /// Time left until the wall-clock cadence next fires a sample — how
    /// long a thread that only polls for this sampler may sleep.
    pub fn due_in(&self) -> Duration {
        self.wall_interval
            .saturating_sub(lock(&self.state).last_wall.elapsed())
    }

    /// Samples unconditionally (e.g. one final sample at run end).
    pub fn force_sample(&self, source: &str, iter: u64, snap: &MetricsSnapshot) {
        let mut st = lock(&self.state);
        self.sample_locked(&mut st, source, iter, snap);
    }

    fn sample_locked(
        &self,
        st: &mut SamplerState,
        source: &str,
        iter: u64,
        snap: &MetricsSnapshot,
    ) {
        let now = Instant::now();
        let elapsed_ns = now.duration_since(self.started).as_nanos() as u64;
        let dt_ns = now.duration_since(st.last_wall).as_nanos() as u64;

        let iters_delta = iter.saturating_sub(st.last_iter);
        let iters_per_sec = rate_per_sec(iters_delta, dt_ns);

        let grad_delta = grad_evals(snap).saturating_sub(grad_evals(&st.last_snap));
        let grad_evals_per_sec = rate_per_sec(grad_delta, dt_ns);

        // Window share of span time spent in gradient evaluation; NaN
        // (encoded null) when no span time accrued in the window —
        // e.g. when no profiler is installed.
        let span_delta = snap
            .span_total_ns()
            .saturating_sub(st.last_snap.span_total_ns());
        let grad_ns_delta = span_sum(snap, "span.gradient_eval")
            .saturating_sub(span_sum(&st.last_snap, "span.gradient_eval"));
        let grad_share = if span_delta == 0 {
            f64::NAN
        } else {
            grad_ns_delta as f64 / span_delta as f64
        };

        // WAL rollups: window append count, cumulative latency
        // quantiles (the log-linear histogram does not support
        // subtraction, and cumulative tails are what an operator
        // watches anyway).
        let wal = snap.histograms.get("wal.append_ns");
        let wal_appends = wal.map(|h| h.count()).unwrap_or(0).saturating_sub(
            st.last_snap
                .histograms
                .get("wal.append_ns")
                .map(|h| h.count())
                .unwrap_or(0),
        );
        let wal_p50_ns = wal
            .and_then(|h| h.quantile(0.5))
            .map(|v| v as f64)
            .unwrap_or(f64::NAN);
        let wal_p99_ns = wal
            .and_then(|h| h.quantile(0.99))
            .map(|v| v as f64)
            .unwrap_or(f64::NAN);

        for (name, value) in [
            ("iters_per_sec", iters_per_sec),
            ("grad_evals_per_sec", grad_evals_per_sec),
            ("grad_share", grad_share),
        ] {
            st.series
                .entry(name.to_string())
                .or_insert_with(|| TimeSeries::new(self.capacity))
                .push(elapsed_ns, value);
        }

        self.recorder.record(Event::MetricsSample {
            source: source.to_string(),
            chain: None,
            seq: st.seq,
            iter,
            elapsed_ns,
            iters_per_sec,
            grad_evals_per_sec,
            grad_share,
            wal_appends,
            wal_p50_ns,
            wal_p99_ns,
        });

        st.seq += 1;
        st.last_wall = now;
        st.last_iter = iter;
        st.last_snap = snap.clone();
    }

    /// Number of samples emitted so far.
    pub fn samples_emitted(&self) -> u64 {
        lock(&self.state).seq
    }

    /// A copy of the ring-buffer time series accumulated so far,
    /// keyed by series name (`iters_per_sec`, `grad_evals_per_sec`,
    /// `grad_share`).
    pub fn series(&self) -> BTreeMap<String, TimeSeries> {
        lock(&self.state).series.clone()
    }
}

/// Cumulative sum of one span histogram, 0 when absent.
fn span_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.histograms.get(name).map(|h| h.sum()).unwrap_or(0)
}

/// A cheap, always-cloneable handle to an optional sampler, mirroring
/// `ProfilerHandle`/`RecorderHandle`: the null handle makes every call
/// a no-op so call sites need no conditionals.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<TelemetrySampler>>,
}

impl TelemetryHandle {
    /// The disabled handle: every operation is a no-op.
    pub fn null() -> Self {
        Self { inner: None }
    }

    /// A handle driving the given sampler.
    pub fn new(sampler: TelemetrySampler) -> Self {
        Self {
            inner: Some(Arc::new(sampler)),
        }
    }

    /// Whether a sampler is attached.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// See [`TelemetrySampler::maybe_sample`]; `false` when disabled.
    pub fn maybe_sample(&self, source: &str, iter: u64, snap: &MetricsSnapshot) -> bool {
        match &self.inner {
            Some(s) => s.maybe_sample(source, iter, snap),
            None => false,
        }
    }

    /// See [`TelemetrySampler::due_in`]; `None` when disabled (nothing
    /// to wake for).
    pub fn due_in(&self) -> Option<Duration> {
        self.inner.as_ref().map(|s| s.due_in())
    }

    /// See [`TelemetrySampler::force_sample`]; no-op when disabled.
    pub fn force_sample(&self, source: &str, iter: u64, snap: &MetricsSnapshot) {
        if let Some(s) = &self.inner {
            s.force_sample(source, iter, snap);
        }
    }

    /// See [`TelemetrySampler::samples_emitted`]; 0 when disabled.
    pub fn samples_emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.samples_emitted())
    }

    /// See [`TelemetrySampler::series`]; empty when disabled.
    pub fn series(&self) -> BTreeMap<String, TimeSeries> {
        self.inner
            .as_ref()
            .map_or_else(BTreeMap::new, |s| s.series())
    }
}

/// A bounded ring of recent events, dumped to JSONL on faults.
///
/// Full traces are too expensive to keep for every job; the flight
/// recorder keeps only the last `capacity` events so that a
/// `chain_fault`, deadline expiry, shed, or crash-recovery can be
/// dumped with its immediate context. Implements [`Recorder`] so it
/// can sit in any recorder fan-out. The ring is not cleared by
/// [`FlightRecorder::dump`]; successive dumps overwrite the file with
/// the then-current window.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<Event>>,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        lock(&self.ring).len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        lock(&self.ring).is_empty()
    }

    /// Writes the ring as JSONL — a `trace_header` line followed by
    /// the retained events oldest-first — to `path`, replacing any
    /// existing file. Returns the number of events written (excluding
    /// the header).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn dump(&self, path: &Path) -> std::io::Result<usize> {
        let events: Vec<Event> = lock(&self.ring).iter().cloned().collect();
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "{}", Event::trace_header().to_json())?;
        for ev in &events {
            writeln!(out, "{}", ev.to_json())?;
        }
        out.flush()?;
        Ok(events.len())
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl Recorder for FlightRecorder {
    fn record(&self, event: &Event) {
        let mut ring = lock(&self.ring);
        ring.push_back(event.clone());
        while ring.len() > self.capacity {
            ring.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::recorder::MemoryRecorder;

    #[test]
    fn time_series_bounds_capacity_and_stays_monotone() {
        let mut ts = TimeSeries::new(4);
        for i in 0..10u64 {
            // Feed deliberately out-of-order timestamps.
            ts.push(if i % 3 == 0 { i.saturating_sub(2) } else { i }, i as f64);
        }
        assert_eq!(ts.len(), 4);
        let stamps: Vec<u64> = ts.iter().map(|p| p.t_ns).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
    }

    #[test]
    fn time_series_merge_keeps_newest_and_is_commutative() {
        let mut a = TimeSeries::new(3);
        let mut b = TimeSeries::new(3);
        for (t, v) in [(1u64, 1.0), (5, 2.0), (9, 3.0)] {
            a.push(t, v);
        }
        for (t, v) in [(2u64, 4.0), (6, 5.0), (10, 6.0)] {
            b.push(t, v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let stamps: Vec<u64> = ab.iter().map(|p| p.t_ns).collect();
        assert_eq!(stamps, vec![6, 9, 10]);
    }

    #[test]
    fn rate_is_finite_and_zero_on_degenerate_windows() {
        assert_eq!(rate_per_sec(0, 0), 0.0);
        assert_eq!(rate_per_sec(100, 0), 0.0);
        let r = rate_per_sec(100, 1_000_000_000);
        assert!((r - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sampler_fires_on_iteration_stride_and_diffs_snapshots() {
        let mem = Arc::new(MemoryRecorder::new());
        let sampler = TelemetrySampler::new(RecorderHandle::new(mem.clone()))
            .with_wall_interval(Duration::from_secs(3600))
            .with_iter_stride(10);
        let handle = TelemetryHandle::new(sampler);

        let mut reg = MetricsRegistry::new();
        reg.counter_add("grad_evals", 50);
        assert!(
            !handle.maybe_sample("m", 5, &reg.snapshot()),
            "below stride"
        );
        assert!(handle.maybe_sample("m", 10, &reg.snapshot()));
        reg.counter_add("grad_evals", 25);
        assert!(!handle.maybe_sample("m", 15, &reg.snapshot()));
        assert!(handle.maybe_sample("m", 20, &reg.snapshot()));
        assert_eq!(handle.samples_emitted(), 2);

        let events = mem.take();
        assert_eq!(events.len(), 2);
        match &events[1] {
            Event::MetricsSample {
                seq,
                iter,
                iters_per_sec,
                grad_evals_per_sec,
                ..
            } => {
                assert_eq!(*seq, 1);
                assert_eq!(*iter, 20);
                assert!(*iters_per_sec >= 0.0);
                assert!(*grad_evals_per_sec >= 0.0);
            }
            other => panic!("expected metrics_sample, got {other:?}"),
        }
        let series = handle.series();
        assert_eq!(series["iters_per_sec"].len(), 2);
    }

    #[test]
    fn null_handle_is_inert() {
        let h = TelemetryHandle::null();
        assert!(!h.enabled());
        assert!(!h.maybe_sample("m", 1_000_000, &MetricsSnapshot::new()));
        h.force_sample("m", 0, &MetricsSnapshot::new());
        assert_eq!(h.samples_emitted(), 0);
        assert!(h.series().is_empty());
    }

    #[test]
    fn flight_recorder_keeps_a_bounded_window_and_dumps_jsonl() {
        let fr = FlightRecorder::new(3);
        for i in 0..6u64 {
            fr.record(&Event::SpanStart {
                chain: Some(0),
                phase: "retry".to_string(),
                depth: i,
            });
        }
        assert_eq!(fr.len(), 3);
        let path = std::env::temp_dir().join("bayes_obs_flight_test.jsonl");
        let n = fr.dump(&path).expect("dump writes");
        assert_eq!(n, 3);
        let text = std::fs::read_to_string(&path).expect("read dump");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 events");
        assert!(matches!(
            Event::from_json(lines[0]).expect("header parses"),
            Event::TraceHeader { .. }
        ));
        // Oldest retained event is the 4th of the six recorded.
        match Event::from_json(lines[1]).expect("event parses") {
            Event::SpanStart { depth, .. } => assert_eq!(depth, 3),
            other => panic!("expected span_start, got {other:?}"),
        }
    }
}
