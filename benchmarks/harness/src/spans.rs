//! The harness's own in-memory span trace.
//!
//! A span is recorded around every call the harness makes into a layer
//! of the program (`<layer>.<what>`), kept in memory, and written to a
//! JSONL file only when the run ends. Spans of one round share its
//! round id; each names the span that caused it.
//!
//! Self time is what a span's interval holds beyond its children. Two
//! kinds of child are not on the parent's own timeline and carry a
//! `weight` below one so the arithmetic still closes:
//!
//! * spans taken on one of `n` concurrent client threads weigh `1/n`
//!   (two clients that are each busy for the whole loop together cover
//!   the loop's wall time once, not twice);
//! * *synthetic* spans carry a duration measured inside the program
//!   (the profiler's per-thread gradient time, already divided by the
//!   thread count) and are laid at the start of their parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub weight: f64,
    pub synthetic: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer is the part of the name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans when enabled; every method is a cheap no-op
/// otherwise, so the untraced run executes the same harness code.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<SpanId>,
}

impl SpanGuard<'_> {
    /// The span's id, for children opened on other threads.
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(id), Some(spans)) = (self.id, &self.tracer.spans) {
            let now = self.tracer.now_ns();
            spans.lock().expect("span store lock")[id].end_ns = now;
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` with the given weight.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        round: u64,
        weight: f64,
    ) -> SpanGuard<'_> {
        let id = self.spans.as_ref().map(|spans| {
            let now = self.now_ns();
            let mut spans = spans.lock().expect("span store lock");
            spans.push(Span {
                name,
                parent,
                round,
                start_ns: now,
                end_ns: now,
                weight,
                synthetic: false,
            });
            spans.len() - 1
        });
        SpanGuard { tracer: self, id }
    }

    /// Records a span whose two ends were clocked by the caller (a
    /// phase recognised only after the event that ended it arrived).
    pub fn closed(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        round: u64,
        weight: f64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = spans.lock().expect("span store lock");
        spans.push(Span {
            name,
            parent,
            round,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            weight,
            synthetic: false,
        });
        Some(spans.len() - 1)
    }

    /// Records a child whose duration was measured inside the program
    /// rather than by the harness's clock.
    pub fn synthetic(&self, name: &'static str, parent: &SpanGuard<'_>, round: u64, dur_ns: u64) {
        let (Some(spans), Some(pid)) = (&self.spans, parent.id) else {
            return;
        };
        let mut spans = spans.lock().expect("span store lock");
        let start_ns = spans[pid].start_ns;
        spans.push(Span {
            name,
            parent: Some(pid),
            round,
            start_ns,
            end_ns: start_ns + dur_ns,
            weight: 1.0,
            synthetic: true,
        });
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(s) => s.lock().expect("span store lock").clone(),
            None => Vec::new(),
        }
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"round\":{},\"start_ns\":{},\"end_ns\":{},\"weight\":{},\"synthetic\":{}}}",
                s.name, s.round, s.start_ns, s.end_ns, s.weight, s.synthetic
            )?;
        }
        out.flush()
    }
}

/// Weighted self time of every span, in nanoseconds of the root's
/// timeline: `weight × duration − Σ children (weight × duration)`,
/// floored at zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.weight * s.dur_ns() as f64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.weight * s.dur_ns() as f64;
        }
    }
    own.iter().map(|v| v.max(0.0)).collect()
}

/// Per-layer self time in seconds, plus the share of the root spans'
/// wall time that spans other than the roots themselves account for.
pub struct LayerBreakdown {
    pub self_s: BTreeMap<&'static str, f64>,
    pub root_wall_s: f64,
    pub coverage: f64,
}

/// Folds the spans named `root` and everything beneath them into a
/// per-layer table. The roots' own self time is the gap no layer span
/// explains; `coverage` is one minus its share.
pub fn breakdown(spans: &[Span], root: &str) -> LayerBreakdown {
    let own = self_times_ns(spans);
    let mut under_root = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents always precede their children in the store.
        under_root[i] = s.name == root || s.parent.is_some_and(|p| under_root[p]);
    }
    let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut root_wall_ns = 0.0;
    let mut gap_ns = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if !under_root[i] {
            continue;
        }
        if s.name == root {
            root_wall_ns += s.dur_ns() as f64;
            gap_ns += own[i];
        } else {
            *self_s.entry(s.layer()).or_insert(0.0) += own[i] / 1e9;
        }
    }
    let coverage = if root_wall_ns > 0.0 {
        1.0 - gap_ns / root_wall_ns
    } else {
        0.0
    };
    LayerBreakdown {
        self_s,
        root_wall_s: root_wall_ns / 1e9,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64, weight: f64) -> Span {
        Span {
            name,
            parent,
            round: 0,
            start_ns: start,
            end_ns: end,
            weight,
            synthetic: false,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            span("bench.round", None, 0, 1000, 1.0),
            span("mcmc.chain_run", Some(0), 100, 900, 1.0),
            span("autodiff.gradient", Some(1), 100, 700, 1.0),
            span("suite.score", Some(0), 900, 950, 1.0),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![150.0, 200.0, 600.0, 50.0]);
        let b = breakdown(&spans, "bench.round");
        assert_eq!(b.self_s["mcmc"], 200e-9);
        assert_eq!(b.self_s["autodiff"], 600e-9);
        assert_eq!(b.self_s["suite"], 50e-9);
        assert!((b.coverage - 0.85).abs() < 1e-12);
        assert!(!b.self_s.contains_key("bench"));
    }

    #[test]
    fn concurrent_lanes_weigh_their_share() {
        // Two client threads busy for the whole 1000 ns loop.
        let spans = vec![
            span("bench.round", None, 0, 1000, 1.0),
            span("serve.job", Some(0), 0, 1000, 0.5),
            span("serve.job", Some(0), 0, 1000, 0.5),
            span("mcmc.sampling", Some(1), 200, 800, 0.5),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![0.0, 200.0, 500.0, 300.0]);
        let b = breakdown(&spans, "bench.round");
        assert!((b.coverage - 1.0).abs() < 1e-12);
        assert!((b.self_s["serve"] - 700e-9).abs() < 1e-18);
    }

    #[test]
    fn children_longer_than_the_parent_floor_at_zero() {
        let spans = vec![
            span("bench.round", None, 0, 100, 1.0),
            span("mcmc.chain_run", Some(0), 0, 150, 1.0),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let g = t.open("bench.round", None, 0, 1.0);
        assert!(g.id().is_none());
        t.synthetic("autodiff.gradient", &g, 0, 10);
        drop(g);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parent_and_synthetic_child() {
        let t = Tracer::new(true);
        {
            let root = t.open("bench.round", None, 7, 1.0);
            let child = t.open("mcmc.chain_run", root.id(), 7, 1.0);
            t.synthetic("autodiff.gradient", &child, 7, 5);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[2].synthetic && spans[2].dur_ns() == 5);
        assert!(spans.iter().all(|s| s.round == 7 && s.end_ns >= s.start_ns));
    }
}
