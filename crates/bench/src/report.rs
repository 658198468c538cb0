//! Trace aggregation for the `trace_report` characterization CLI.
//!
//! Folds a bayes-obs JSONL trace (the `--trace` output of any bench
//! binary) into the characterization aggregates of the paper: per-run
//! phase time (from the span profiler's `metrics` snapshots), simulated
//! counters (Table 2 style), convergence and elision, faults and
//! retries, job-server lifecycles and live telemetry.
//!
//! The fold is data. A table of sections says how each section's events
//! group (by run, job id, journal path, telemetry source or counters
//! key) and which `(event tag, wire field, fold)` triples feed each of
//! its columns. Every line [`Event::from_json`] accepts is folded by
//! field name from its parsed JSON into [`Cell`]s, and both renderings
//! read the cells: the text report (`Display`, each section with its own
//! format strings) and a flat CSV ([`TraceReport::to_csv`]) whose rows
//! round-trip through [`parse_csv`] without loss. Numbers are written in
//! Rust's shortest round-trip form, and a CSV field holding `,`, `"`, CR
//! or LF is quoted as RFC 4180 does.

use bayes_obs::json::{self, Json};
use bayes_obs::schema::Field;
use bayes_obs::{DecodeError, Event, Histogram, MetricsSnapshot, Phase};
use std::fmt;
use Csv::{Always, No, Set};
use Fold::*;
use Row::{Code, Template};

/// How a column folds the values its events carry: the latest value or
/// latest finite number, the earliest value or the earliest of an event
/// whose named flag is true, the events seen (reading no field), an
/// integer sum (`true` counting one), the largest number from 0, the
/// finite values (read as their mean), every value, or
/// [`MetricsSnapshot::merge`] of every snapshot.
#[derive(Debug, Clone, Copy)]
enum Fold {
    Last,
    LastFinite,
    First,
    FirstWhere(&'static str),
    Count,
    Sum,
    Max,
    FiniteMean,
    List,
    Merge,
}

/// When a column is a CSV row: always (its absent text standing in
/// until an event sets it), once set, or never (the text report or a
/// CSV id reads it).
#[derive(Debug, Clone, Copy)]
enum Csv {
    Always,
    Set,
    No,
}

/// A column: its name (also its CSV `field`; `row.field` files the row
/// under `row`), when it is a CSV row, and the `(event tag, wire field,
/// fold)` triples that feed it.
type Column = (
    &'static str,
    Csv,
    &'static [(&'static str, &'static str, Fold)],
);

/// How a section's events find their group.
#[derive(Debug)]
enum Key {
    /// Each event of this tag opens a group; the section's other events
    /// join the latest one (opening one when none is open).
    OpenedBy(&'static str),
    /// One group per value of these wire fields, in key order.
    Fields(&'static [&'static str]),
}

/// One report section.
#[derive(Debug)]
struct Section {
    name: &'static str,
    key: Key,
    /// Its CSV `section`, `model` and `name`, filled as by
    /// [`Group::fill`]; `{n}` is the group's ordinal.
    ids: [&'static str; 3],
    /// Its text heading, written before its first group.
    heading: &'static str,
    row: Row,
    columns: &'static [Column],
}

/// How a section writes one group's text.
#[derive(Debug)]
enum Row {
    /// One line, filled as by [`Group::fill`].
    Template(&'static str),
    /// Lines a template cannot write, given the group's ordinal.
    Code(fn(&mut fmt::Formatter<'_>, usize, &Group) -> fmt::Result),
}

/// The sections, in the order both renderings write them.
#[rustfmt::skip]
const SECTIONS: &[Section] = &[
    Section { name: "trace", key: Key::Fields(&[]), ids: ["", "", ""], heading: "", row: Template(""), columns: &[
        ("schema_version",       No,     &[("trace_header", "schema_version", Last)]),
    ]},
    Section { name: "run", key: Key::OpenedBy("run_start"), ids: ["run{n}", "{model}", "run"], heading: "", row: Code(run), columns: &[
        // A run opened before any `run_start` takes the first model named.
        ("model",                No,     &[("run_start", "model", First), ("metrics", "model", First),
                                           ("elision", "workload", First), ("resume", "model", First)]),
        ("chains",               Always, &[("run_start", "chains", Last)]),
        ("iters",                Always, &[("run_start", "iters", Last)]),
        ("seed",                 Always, &[("run_start", "seed", Last)]),
        ("iterations",           Always, &[("iteration", "", Count)]),
        ("leapfrogs",            Always, &[("iteration", "leapfrogs", Sum)]),
        ("divergent",            Always, &[("iteration", "divergent", Sum)]),
        ("span_events",          Always, &[("span_start", "", Count), ("span_end", "", Count)]),
        ("checkpoints",          Always, &[("checkpoint", "", Count)]),
        ("faults",               Always, &[("chain_fault", "", Count)]),
        ("retries",              Always, &[("chain_retry", "", Count)]),
        ("checkpoint_saves",     Always, &[("checkpoint_saved", "", Count)]),
        ("resumes",              Always, &[("resume", "", Count)]),
        ("total_draws",          Set,    &[("run_end", "total_draws", Last)]),
        ("divergences",          Set,    &[("run_end", "divergences", Last)]),
        ("grad_evals",           Set,    &[("run_end", "grad_evals", Last)]),
        ("span_ns",              Set,    &[("run_end", "span_ns", Last)]),
        ("stopped_at",           No,     &[("run_end", "stopped_at", Last)]),
        // In CSV, five rows per profiled phase.
        ("metrics",              Always, &[("metrics", "snapshot", Merge)]),
        ("elision.converged_at", Set,    &[("elision", "converged_at", Last)]),
        ("elision.iter_saving",  Set,    &[("elision", "iter_saving", Last)]),
        ("elision.work_saving",  Set,    &[("elision", "work_saving", Last)]),
        ("elision.total_iters",  No,     &[("elision", "total_iters", Last)]),
        ("sweeps",               No,     &[("shard_aggregate", "sweeps", Last)]),
        ("shards",               No,     &[("shard_aggregate", "shards", Last)]),
        ("threads",              No,     &[("shard_aggregate", "threads", Last)]),
        ("tape_bytes",           No,     &[("shard_aggregate", "tape_bytes", Last)]),
        ("swept_ns",             No,     &[("shard_aggregate", "elapsed_ns", Last)]),
        ("converged_iter",       No,     &[("checkpoint", "iter", FirstWhere("converged"))]),
        ("converged_by",         No,     &[("checkpoint", "source", FirstWhere("converged"))]),
        ("converged_rhat",       No,     &[("checkpoint", "max_rhat", FirstWhere("converged"))]),
        ("converged_streak",     No,     &[("checkpoint", "streak", FirstWhere("converged"))]),
        ("fault_chain",          No,     &[("chain_fault", "chain", List)]),
        ("fault_attempt",        No,     &[("chain_fault", "attempt", List)]),
        ("fault_kind",           No,     &[("chain_fault", "kind", List)]),
        ("fault_iter",           No,     &[("chain_fault", "iter", List)]),
        ("survivors",            No,     &[("degraded_report", "survivors", Last)]),
        ("lost",                 No,     &[("degraded_report", "lost", Last)]),
        ("degraded_faults",      No,     &[("degraded_report", "faults", Last)]),
    ]},
    Section { name: "jobs", key: Key::Fields(&["job"]), ids: ["jobs", "{workload}", "job{job}"],
        heading: "\n--- jobs ---\njob    name           workload     prio  places  preempt  recov cores  bound    iters grad_evals   outcome\n",
        row: Code(job), columns: &[
        // A job shed at admission has no `job_submitted`: its shed record
        // is the only priority source.
        ("priority",             Always, &[("job_submitted", "priority", Last), ("job_shed", "priority", Last)]),
        ("placements",           Always, &[("job_placed", "", Count)]),
        ("preemptions",          Always, &[("job_preempted", "", Count)]),
        ("cores",                Always, &[("job_placed", "cores", Last)]),
        ("llc_bound",            Always, &[("job_placed", "llc_bound", Last)]),
        ("predicted_mpki",       Always, &[("job_placed", "predicted_mpki", Last)]),
        ("recoveries",           Always, &[("job_recovered", "", Count)]),
        ("corrupt_skipped",      Always, &[("job_recovered", "corrupt_skipped", Sum)]),
        ("stopped_at",           Set,    &[("job_completed", "stopped_at", Last)]),
        ("iters_done",           Set,    &[("job_completed", "iters_done", Last)]),
        ("degraded",             Set,    &[("job_completed", "degraded", Last)]),
        ("faults",               Set,    &[("job_completed", "faults", Last)]),
        ("grad_evals",           Set,    &[("job_completed", "grad_evals", Last)]),
        ("deadline_ms",          Set,    &[("job_expired", "deadline_ms", Last)]),
        ("expired_iters_done",   Set,    &[("job_expired", "iters_done", Last)]),
        ("shed_queue_depth",     Set,    &[("job_shed", "queue_depth", Last)]),
        ("shed_queued_bytes",    Set,    &[("job_shed", "queued_bytes", Last)]),
        ("name",                 No,     &[("job_submitted", "name", Last)]),
        ("workload",             No,     &[("job_submitted", "workload", Last)]),
    ]},
    // The journal path stays out of the CSV; the text carries it.
    Section { name: "journal", key: Key::Fields(&["path"]), ids: ["journal", "-", "journal{n}"],
        heading: "\n--- journal replays ---\n", row: Code(journal), columns: &[
        ("records",              Always, &[("journal_replayed", "records", Last), ("journal_truncated", "records", Last)]),
        ("jobs_recovered",       Always, &[("journal_replayed", "jobs_recovered", Last)]),
        ("truncated_bytes",      Always, &[("journal_truncated", "truncated_bytes", Last)]),
    ]},
    Section { name: "telemetry", key: Key::Fields(&["source"]), ids: ["telemetry", "{source}", "rollup"],
        heading: "\n--- telemetry ---\nsource          samples  last_iter    peak_it/s  peak_grad/s   grad_shr  wal_apnd  wal_p99(us)\n",
        row: Template("{source:<14} {samples:>8} {last_iter:>10} {peak_iters_per_sec:>12.1} {peak_grad_evals_per_sec:>12.1} {mean_grad_share:>10.1%} {wal_appends:>9} {last_wal_p99_ns:>12.1us}"),
        columns: &[
        ("samples",                 Always, &[("metrics_sample", "", Count)]),
        ("last_iter",               Always, &[("metrics_sample", "iter", Max)]),
        ("peak_iters_per_sec",      Always, &[("metrics_sample", "iters_per_sec", Max)]),
        ("peak_grad_evals_per_sec", Always, &[("metrics_sample", "grad_evals_per_sec", Max)]),
        ("mean_grad_share",         Always, &[("metrics_sample", "grad_share", FiniteMean)]),
        ("wal_appends",             Always, &[("metrics_sample", "wal_appends", Sum)]),
        ("last_wal_p99_ns",         Always, &[("metrics_sample", "wal_p99_ns", LastFinite)]),
        ("iters_per_sec",           No,     &[("metrics_sample", "iters_per_sec", List)]),
        ("grad_evals_per_sec",      No,     &[("metrics_sample", "grad_evals_per_sec", Last)]),
    ]},
    Section { name: "counters", key: Key::Fields(&["workload", "platform", "cores"]), ids: ["counters", "{workload}", "{platform}"],
        heading: "\n--- simulated counters ---\nworkload       platform       cores    ipc  llc_mpki  bw(GB/s)   time(s)  energy(J)\n",
        row: Template("{workload:<14} {platform:<14} {cores:>5} {ipc:>6.2} {llc_mpki:>9.2} {bandwidth_gbs:>9.2} {time_s:>9.3} {energy_j:>10.1}"),
        columns: &[
        ("cores",                Always, &[("counters", "cores", Last)]),
        ("ipc",                  Always, &[("counters", "ipc", Last)]),
        ("llc_mpki",             Always, &[("counters", "llc_mpki", Last)]),
        ("bandwidth_gbs",        Always, &[("counters", "bandwidth_gbs", Last)]),
        ("time_s",               Always, &[("counters", "time_s", Last)]),
        ("energy_j",             Always, &[("counters", "energy_j", Last)]),
    ]},
    Section { name: "subsample", key: Key::Fields(&["workload"]), ids: ["subsample", "{workload}", "advice"],
        heading: "\n--- subsample advice ---\nworkload       fraction      ws(bytes)  speedup\n",
        row: Template("{workload:<14} {fraction:>8.2} {working_set_bytes:>14} {speedup:>7.2}x"), columns: &[
        ("fraction",                Always, &[("subsample", "fraction", Last)]),
        ("working_set_bytes",       Always, &[("subsample", "working_set_bytes", Last)]),
        ("speedup",                 Always, &[("subsample", "speedup", Last)]),
    ]},
];

/// Columns whose text is not `0` while no event has set them.
const ABSENT: [(&str, &str); 4] = [
    ("model", "(no run_start)"),
    ("llc_bound", "false"),
    ("name", ""),
    ("workload", ""),
];

/// One folded value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// No event has set it.
    Absent,
    /// A JSON `null`: an absent count or a non-finite float.
    Null,
    /// An integer, and every count and sum.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A flag.
    Bool(bool),
    /// A string.
    Str(String),
    /// Values in trace order.
    List(Vec<Cell>),
    /// Merged metrics snapshots.
    Metrics(MetricsSnapshot),
}

impl Cell {
    /// A wire value; integers keep full `u64` precision.
    fn of(v: Option<&Json>) -> Cell {
        match v {
            Some(Json::Bool(b)) => Cell::Bool(*b),
            Some(Json::Num(s)) => s
                .parse()
                .map_or_else(|_| Cell::Num(s.parse().unwrap_or(f64::NAN)), Cell::Int),
            Some(Json::Str(s)) => Cell::Str(s.clone()),
            _ => Cell::Null,
        }
    }

    /// The cell as a number: 0 while absent, a list's mean (0 when
    /// empty), NaN for what is not a number.
    pub fn num(&self) -> f64 {
        match self {
            Cell::Absent => 0.0,
            Cell::Int(n) => *n as f64,
            Cell::Num(x) => *x,
            Cell::List(items) if !items.is_empty() => {
                items.iter().fold(0.0, |sum, x| sum + x.num()) / items.len() as f64
            }
            Cell::List(_) => 0.0,
            _ => f64::NAN,
        }
    }

    fn int(&self) -> u64 {
        match self {
            Cell::Int(n) => *n,
            Cell::Bool(b) => u64::from(*b),
            _ => 0,
        }
    }

    /// The cell as text: numbers in shortest round-trip form, a list as
    /// its mean, `null` as `none`.
    fn text(&self) -> String {
        match self {
            Cell::Null => "none".into(),
            Cell::Int(n) => n.to_string(),
            Cell::Num(_) | Cell::List(_) => self.num().to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Str(s) => s.clone(),
            Cell::Absent | Cell::Metrics(_) => String::new(),
        }
    }

    fn fold(&mut self, fold: Fold, ev: &Json, field: &str) {
        let v = Cell::of(ev.get(field));
        match (fold, &mut *self) {
            (Last, _) => *self = v,
            (LastFinite, _) if v.num().is_finite() => *self = v,
            (First, Cell::Absent) => *self = v,
            (FirstWhere(flag), Cell::Absent) if ev.get(flag) == Some(&Json::Bool(true)) => {
                *self = v
            }
            (Count, Cell::Int(n)) => *n = n.saturating_add(1),
            (Sum, Cell::Int(n)) => *n = n.saturating_add(v.int()),
            (Max, Cell::Int(n)) if matches!(v, Cell::Int(_)) => *n = v.int().max(*n),
            (Max, _) if v != Cell::Null => *self = Cell::Num(self.num().max(v.num())),
            (FiniteMean, Cell::List(items)) if v.num().is_finite() => items.push(v),
            (List, Cell::List(items)) => items.push(v),
            (Merge, Cell::Metrics(m)) => {
                if let Some(Ok(snapshot)) = ev.get(field).map(MetricsSnapshot::read) {
                    m.merge(&snapshot);
                }
            }
            _ => {}
        }
    }
}

/// The cells one group of a section folded: a run, a job, a journal,
/// a telemetry source or a counters configuration.
#[derive(Debug, Clone)]
pub struct Group {
    section: &'static Section,
    key: Vec<Cell>,
    cells: Vec<Cell>,
}

impl Group {
    fn new(section: &'static Section, key: Vec<Cell>) -> Self {
        let cells = section.columns.iter().map(|c| match c.2[0].2 {
            Count | Sum | Max => Cell::Int(0),
            FiniteMean | List => Cell::List(Vec::new()),
            Merge => Cell::Metrics(MetricsSnapshot::default()),
            _ => Cell::Absent,
        });
        let cells = cells.collect();
        Group {
            section,
            key,
            cells,
        }
    }

    /// The cell of a key field or column.
    ///
    /// # Panics
    ///
    /// When the section has neither by that name.
    fn cell(&self, name: &str) -> &Cell {
        let keys = match self.section.key {
            Key::Fields(keys) => keys,
            Key::OpenedBy(_) => &[],
        };
        let mut names = keys
            .iter()
            .copied()
            .chain(self.section.columns.iter().map(|c| c.0));
        let at = names.position(|n| n == name);
        let cell = at.and_then(|at| self.key.iter().chain(&self.cells).nth(at));
        cell.unwrap_or_else(|| panic!("section {} has no column {name}", self.section.name))
    }

    /// Whether an event has set the cell.
    pub fn has(&self, name: &str) -> bool {
        *self.cell(name) != Cell::Absent
    }

    /// The cell as a number (see [`Cell::num`]).
    pub fn f64(&self, name: &str) -> f64 {
        self.cell(name).num()
    }

    /// The cell's text; while it is absent, `0` or its column's text.
    fn text(&self, name: &str) -> String {
        match self.cell(name) {
            Cell::Absent => ABSENT
                .iter()
                .find(|a| a.0 == name)
                .map_or("0", |a| a.1)
                .into(),
            cell => cell.text(),
        }
    }

    /// The items of a list column.
    pub fn list(&self, name: &str) -> &[Cell] {
        match self.cell(name) {
            Cell::List(items) => items,
            _ => &[],
        }
    }

    /// `template` with each `{name:spec}` replaced by that cell laid out
    /// as `format!` lays out `spec`: `<` or `>` (the default), a width,
    /// and a `.precision` that formats the cell as a number, which a
    /// trailing `%` scales by 100 (appending `%`) and `ms` or `us` scale
    /// from nanoseconds.
    pub fn fill(&self, template: &str) -> String {
        let (mut out, mut rest) = (String::new(), template);
        while let Some((head, tail)) = rest.split_once('{') {
            let (field, tail) = tail.split_once('}').unwrap_or((tail, ""));
            let (name, spec) = field.split_once(':').unwrap_or((field, ""));
            let (width, precision) = spec.split_once('.').unwrap_or((spec, ""));
            let digits = precision.trim_end_matches(|c: char| !c.is_ascii_digit());
            let x = self.f64(name);
            let value = match (digits.parse::<usize>(), &precision[digits.len()..]) {
                (Err(_), _) => self.text(name),
                (Ok(p), "%") => format!("{:.p$}%", x * 100.0),
                (Ok(p), "ms") => format!("{:.p$}", x / 1e6),
                (Ok(p), "us") => format!("{:.p$}", x / 1e3),
                (Ok(p), _) => format!("{x:.p$}"),
            };
            let w = width.trim_start_matches(['<', '>']).parse().unwrap_or(0);
            out += &match width.starts_with('<') {
                true => format!("{head}{value:<w$}"),
                false => format!("{head}{value:>w$}"),
            };
            rest = tail;
        }
        out + rest
    }
}

/// The profiled phases of a merged snapshot in [`Phase::ALL`] order,
/// each with its share of the snapshot's span time.
fn phases(cell: &Cell) -> Vec<(&'static str, &Histogram, f64)> {
    let Cell::Metrics(m) = cell else {
        return Vec::new();
    };
    let total = m.span_total_ns();
    let share = |h: &Histogram| {
        if total > 0 {
            h.sum() as f64 / total as f64
        } else {
            0.0
        }
    };
    let phase = |p: &Phase| m.histograms.get(p.metric_name()).filter(|h| h.count() > 0);
    let profiled = Phase::ALL.iter().filter_map(|p| Some((p.tag(), phase(p)?)));
    profiled.map(|(tag, h)| (tag, h, share(h))).collect()
}

/// The full aggregation of one trace file.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Lines read.
    pub lines: usize,
    /// Lines that failed to decode (malformed; counted, not fatal).
    pub skipped: usize,
    /// Each section's groups, in section-table order.
    sections: Vec<Vec<Group>>,
}

impl TraceReport {
    /// Folds a whole trace.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnsupportedSchema`] when the trace
    /// header announces a schema major newer than this build
    /// understands; malformed lines are merely counted in `skipped`.
    pub fn parse(text: &str) -> Result<Self, DecodeError> {
        let sections = vec![Vec::new(); SECTIONS.len()];
        let mut r = TraceReport {
            lines: 0,
            skipped: 0,
            sections,
        };
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            r.lines += 1;
            match Event::from_json(line) {
                // A line that decodes is valid JSON.
                Ok(_) => r.fold(&json::parse(line).unwrap_or(Json::Null)),
                Err(DecodeError::Malformed(_)) => r.skipped += 1,
                Err(e) => return Err(e),
            }
        }
        // Keyed groups render in key order, not arrival order, so the
        // report bytes are stable across trace interleavings (runs keep
        // trace order: they are timelines).
        for groups in &mut r.sections {
            groups.sort_by_cached_key(|g| {
                let key = g.key.iter().map(|c| (c.int(), c.text()));
                key.collect::<Vec<_>>()
            });
        }
        Ok(r)
    }

    fn fold(&mut self, ev: &Json) {
        let tag = ev.get("type").and_then(Json::as_str).unwrap_or("");
        for (section, groups) in SECTIONS.iter().zip(&mut self.sections) {
            if !section
                .columns
                .iter()
                .any(|c| c.2.iter().any(|s| s.0 == tag))
            {
                continue;
            }
            let key: Vec<Cell> = match section.key {
                Key::Fields(names) => names.iter().map(|n| Cell::of(ev.get(n))).collect(),
                Key::OpenedBy(_) => Vec::new(),
            };
            let opens = matches!(section.key, Key::OpenedBy(opener) if opener == tag);
            let at = match groups.iter().rposition(|g| g.key == key) {
                Some(at) if !opens => at,
                _ => {
                    groups.push(Group::new(section, key));
                    groups.len() - 1
                }
            };
            for (cell, (_, _, from)) in groups[at].cells.iter_mut().zip(section.columns) {
                for &(_, field, fold) in from.iter().filter(|s| s.0 == tag) {
                    cell.fold(fold, ev, field);
                }
            }
        }
    }

    /// The groups of a section: `run` (in trace order), `jobs`,
    /// `journal`, `telemetry`, `counters`, `subsample` (in key order), or
    /// `trace`.
    ///
    /// # Panics
    ///
    /// When no section has that name.
    pub fn groups(&self, name: &str) -> &[Group] {
        let at = SECTIONS.iter().position(|s| s.name == name);
        &self.sections[at.unwrap_or_else(|| panic!("no report section {name}"))]
    }

    /// The schema version the trace header announced.
    pub fn schema(&self) -> String {
        let header = self.groups("trace").first();
        header.map_or_else(|| "(no header)".into(), |g| g.text("schema_version"))
    }

    /// Per-source telemetry rollups, sorted by source name.
    pub fn telemetry(&self) -> &[Group] {
        self.groups("telemetry")
    }
}

// ------------------------------------------------------------- CSV

/// One flat CSV row: `section,model,name,field,value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvRow {
    /// Section tag: `run<N>`, `counters`, `jobs`, `journal`, …
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

impl From<[String; 5]> for CsvRow {
    fn from([section, model, name, field, value]: [String; 5]) -> Self {
        CsvRow {
            section,
            model,
            name,
            field,
            value,
        }
    }
}

/// Header line of the CSV output.
pub const CSV_HEADER: &str = "section,model,name,field,value";

impl TraceReport {
    /// The flat rows the CSV output consists of, section by section and
    /// column by column. Parsing the rendered CSV with [`parse_csv`]
    /// reproduces exactly this vector.
    pub fn csv_rows(&self) -> Vec<CsvRow> {
        let mut rows: Vec<CsvRow> = Vec::new();
        for (section, groups) in SECTIONS.iter().zip(&self.sections) {
            for (n, g) in groups.iter().enumerate() {
                let ids = section
                    .ids
                    .map(|id| g.fill(&id.replace("{n}", &(n + 1).to_string())));
                let mut row = |name: &str, field: &str, value: String| {
                    let [section, model] = [&ids[0], &ids[1]].map(String::clone);
                    rows.push([section, model, name.into(), field.into(), value].into())
                };
                for (&(name, csv, _), cell) in section.columns.iter().zip(&g.cells) {
                    match (csv, cell) {
                        (No, _) | (Set, Cell::Absent) => {}
                        (_, Cell::Metrics(_)) => {
                            for (phase, h, share) in phases(cell) {
                                let q = |q| h.quantile(q).unwrap_or(0).to_string();
                                row(phase, "count", h.count().to_string());
                                row(phase, "total_ns", h.sum().to_string());
                                row(phase, "share", share.to_string());
                                row(phase, "p50_ns", q(0.5));
                                row(phase, "p99_ns", q(0.99));
                            }
                        }
                        _ => {
                            let (at, field) =
                                name.split_once('.').unwrap_or((ids[2].as_str(), name));
                            row(at, field, g.text(name));
                        }
                    }
                }
            }
        }
        rows
    }

    /// Renders the CSV: header line plus one record per row, a field
    /// quoted when it holds `,`, `"`, CR or LF.
    pub fn to_csv(&self) -> String {
        let mut out = format!("{CSV_HEADER}\n");
        for r in self.csv_rows() {
            let fields = [r.section, r.model, r.name, r.field, r.value].map(|v| {
                match v.contains([',', '"', '\r', '\n']) {
                    true => format!("\"{}\"", v.replace('"', "\"\"")),
                    false => v,
                }
            });
            out += &(fields.join(",") + "\n");
        }
        out
    }
}

/// Parses [`TraceReport::to_csv`] output back into its rows.
///
/// # Errors
///
/// Returns a description of the first record that is not five columns,
/// of an unterminated quoted field, or of a missing/incorrect header.
pub fn parse_csv(text: &str) -> Result<Vec<CsvRow>, String> {
    let mut records = csv_records(text)?.into_iter();
    match records.next() {
        Some((_, header)) if header.join(",") == CSV_HEADER => {}
        other => return Err(format!("bad CSV header: {:?}", other.map(|r| r.1))),
    }
    let row = |(line, cols): (usize, Vec<String>)| {
        let cols = <[String; 5]>::try_from(cols);
        cols.map(CsvRow::from)
            .map_err(|c| format!("line {line}: expected 5 columns, got {}", c.len()))
    };
    records.map(row).collect()
}

/// The records of an RFC 4180 text, each with the line it starts on;
/// blank lines are skipped.
fn csv_records(text: &str) -> Result<Vec<(usize, Vec<String>)>, String> {
    let (mut records, mut fields, mut field) = (Vec::new(), Vec::new(), String::new());
    let (mut line, mut start, mut quoted) = (1, 1, false);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        line += usize::from(c == '\n');
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => field.push(chars.next().unwrap_or(c)),
            '"' if quoted => quoted = false,
            '"' if field.is_empty() => quoted = true,
            ',' if !quoted => fields.push(std::mem::take(&mut field)),
            '\r' if !quoted && chars.peek() == Some(&'\n') => {}
            '\n' if !quoted => {
                fields.push(std::mem::take(&mut field));
                if fields != [""] {
                    records.push((start, std::mem::take(&mut fields)));
                }
                fields.clear();
                start = line;
            }
            c => field.push(c),
        }
    }
    if quoted {
        return Err(format!("line {start}: unterminated quoted field"));
    }
    if !field.is_empty() || !fields.is_empty() {
        fields.push(field);
        records.push((start, fields));
    }
    Ok(records)
}

// ------------------------------------------------------------ text

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lines, skipped, schema) = (self.lines, self.skipped, self.schema());
        writeln!(
            f,
            "trace: {lines} lines, {skipped} undecodable, schema {schema}"
        )?;
        // The trace section is the header line above.
        for (section, groups) in SECTIONS.iter().zip(&self.sections).skip(1) {
            if !groups.is_empty() {
                f.write_str(section.heading)?;
            }
            for (n, g) in groups.iter().enumerate() {
                match section.row {
                    Template(row) => writeln!(f, "{}", g.fill(row))?,
                    Code(row) => row(f, n + 1, g)?,
                }
            }
        }
        Ok(())
    }
}

fn run(f: &mut fmt::Formatter<'_>, n: usize, g: &Group) -> fmt::Result {
    let int = |name: &str| matches!(g.cell(name), Cell::Int(_));
    let mut line = |on: bool, text: String| if on { writeln!(f, "{text}") } else { Ok(()) };
    let pick = |on: bool, yes: &'static str, no: &'static str| if on { yes } else { no };
    let head = g.fill("{model} ({chains} chains x {iters} iters, seed {seed}) ---");
    line(true, format!("\n--- run {n}: {head}"))?;
    let stop = pick(int("stopped_at"), ", stopped at {stopped_at}", "");
    line(g.has("total_draws"), g.fill(&["totals: {total_draws} draws, {grad_evals} grad evals, {divergences} divergences, span total {span_ns:.2ms} ms", stop].concat()))?;
    let phases = phases(g.cell("metrics"));
    line(
        phases.is_empty(),
        "phases: none profiled (the run attached no span profiler)".into(),
    )?;
    line(
        !phases.is_empty(),
        "phase                 count    total(ms)   share   mean(us)    p50(us)    p99(us)".into(),
    )?;
    for (phase, h, share) in phases {
        let [p50, p99] = [0.5, 0.99].map(|q| h.quantile(q).unwrap_or(0) as f64 / 1e3);
        let (n, ms, share, mean) = (
            h.count(),
            h.sum() as f64 / 1e6,
            share * 100.0,
            h.mean() / 1e3,
        );
        line(
            true,
            format!(
                "{phase:<16} {n:>10} {ms:>12.2} {share:>6.1}% {mean:>10.1} {p50:>10.1} {p99:>10.1}"
            ),
        )?;
    }
    line(
        g.f64("iterations") > 0.0,
        g.fill(
            "sampler: {iterations} iteration events, {leapfrogs} leapfrogs, {divergent} divergent",
        ),
    )?;
    line(g.has("sweeps"), g.fill("shards: {sweeps} sweeps over {shards} shards ({threads} threads), {tape_bytes} tape bytes, {swept_ns:.2ms} ms swept"))?;
    let converged = pick(g.has("converged_iter"), ", converged at {converged_iter} ({converged_by}, max R-hat {converged_rhat:.3}, streak {converged_streak})", ", no convergence declared");
    line(
        g.f64("checkpoints") > 0.0,
        g.fill(&["convergence: {checkpoints} checkpoints", converged].concat()),
    )?;
    let stop = pick(
        int("elision.converged_at"),
        "stop at {elision.converged_at} of",
        "no stop within",
    );
    line(g.has("elision.total_iters"), g.fill(&["elision: ", stop, " {elision.total_iters}, {elision.iter_saving:.0%} iterations and {elision.work_saving:.0%} work elided"].concat()))?;
    let degraded = pick(
        g.has("survivors"),
        "; degraded: {survivors} survivors, {lost} lost, {degraded_faults} faults",
        "",
    );
    line(
        g.f64("faults") + g.f64("retries") > 0.0,
        g.fill(&["faults: {faults} ({retries} retries", degraded, ")"].concat()),
    )?;
    for (k, at) in g.list("fault_iter").iter().enumerate() {
        let [chain, attempt, kind] =
            ["fault_chain", "fault_attempt", "fault_kind"].map(|c| g.list(c)[k].text());
        let at = match at {
            Cell::Int(it) => format!(" at iteration {it}"),
            _ => String::new(),
        };
        line(
            true,
            format!("  chain {chain} attempt {attempt}: {kind}{at}"),
        )?;
    }
    line(
        g.f64("checkpoint_saves") + g.f64("resumes") > 0.0,
        g.fill("checkpoints: {checkpoint_saves} saved, {resumes} resumes"),
    )?;
    Ok(())
}

fn job(f: &mut fmt::Formatter<'_>, _: usize, g: &Group) -> fmt::Result {
    let (done, expired, shed) = (
        g.has("iters_done"),
        g.has("deadline_ms"),
        g.has("shed_queue_depth"),
    );
    let [iters, grads] = match (done, expired) {
        (true, _) => ["iters_done", "grad_evals"].map(|c| g.text(c)),
        (false, true) => [g.text("expired_iters_done"), "-".into()],
        _ => ["-", "-"].map(String::from),
    };
    let outcome = match (done, g.text("degraded") == "true", expired, shed) {
        (true, true, ..) => "degraded",
        (true, ..) => "ok",
        (_, _, true, _) => "expired",
        (.., true) => "shed",
        _ => "running",
    };
    let bound = if g.text("llc_bound") == "true" {
        "llc"
    } else {
        "cache"
    };
    let row = g.fill("{job:<6} {name:<14} {workload:<12} {priority:>4} {placements:>7} {preemptions:>8} {recoveries:>6} {cores:>5}");
    writeln!(f, "{row} {bound:>6} {iters:>8} {grads:>10} {outcome:>9}")?;
    Ok(())
}

fn journal(f: &mut fmt::Formatter<'_>, _: usize, g: &Group) -> fmt::Result {
    let torn = if g.f64("truncated_bytes") > 0.0 {
        ", {truncated_bytes} torn bytes truncated"
    } else {
        ""
    };
    writeln!(
        f,
        "{}",
        g.fill(
            &[
                "{path}: {records} records, {jobs_recovered} jobs recovered",
                torn
            ]
            .concat()
        )
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayes_obs::{CheckpointSource, MetricsRegistry, TRACE_SCHEMA_MAJOR, TRACE_SCHEMA_MINOR};

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
        assert_eq!(r.schema(), "1.3");
        assert_eq!(r.skipped, 0);
        assert_eq!(r.groups("run").len(), 1);
        let s = &r.groups("run")[0];
        assert_eq!(s.text("model"), "gauss");
        assert_eq!(s.text("iterations"), "2");
        assert_eq!(s.text("leapfrogs"), "10");
        assert_eq!(s.text("divergent"), "1");
        assert!(s.has("total_draws"));
        assert_eq!(s.text("grad_evals"), "10");
        assert_eq!(s.text("span_ns"), "7500");
        assert_eq!(s.text("checkpoints"), "1");
        assert_eq!(s.cell("converged_iter"), &Cell::Int(50));
        assert_eq!(s.cell("elision.converged_at"), &Cell::Int(50));
        assert_eq!(r.groups("counters").len(), 1);

        // The phase rows of the CSV, in Phase::ALL order: gradient_eval
        // before adaptation.
        let rows = r.csv_rows();
        let phase = |field: &str| -> Vec<(String, String)> {
            let rows = rows
                .iter()
                .filter(|row| row.section == "run1" && row.field == field);
            rows.map(|row| (row.name.clone(), row.value.clone()))
                .collect()
        };
        let counts = phase("count");
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[0], ("gradient_eval".into(), "3".into()));
        assert_eq!(counts[1].0, "adaptation");
        let totals = phase("total_ns");
        assert_eq!(totals[0].1, "7000");
        let share: f64 = phase("share")[0].1.parse().unwrap();
        assert!((share - 7000.0 / 7500.0).abs() < 1e-12);
        // The dominant phase: the largest total.
        let dominant = totals
            .iter()
            .max_by_key(|(_, ns)| ns.parse::<u64>().unwrap());
        assert_eq!(dominant.unwrap().0, "gradient_eval");
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
        let jobs = r.groups("jobs");
        assert_eq!(jobs.len(), 2);
        let preempted = &jobs[0];
        assert_eq!(preempted.text("job"), "1");
        assert_eq!(preempted.text("name"), "batch-lo");
        assert_eq!(preempted.text("placements"), "2");
        assert_eq!(preempted.text("preemptions"), "1");
        assert_eq!(preempted.text("iters_done"), "100");
        let urgent = &jobs[1];
        assert_eq!(urgent.text("preemptions"), "0");
        assert_eq!(urgent.cell("llc_bound"), &Cell::Bool(true));
        assert_eq!(urgent.cell("stopped_at"), &Cell::Int(40));
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
        assert_eq!(r.groups("journal").len(), 1);
        let jr = &r.groups("journal")[0];
        assert_eq!(jr.text("records"), "6");
        assert_eq!(jr.text("jobs_recovered"), "2");
        assert_eq!(jr.text("truncated_bytes"), "13");
        let jobs = r.groups("jobs");
        let recovered = &jobs[0];
        assert_eq!(recovered.text("recoveries"), "1");
        assert_eq!(recovered.text("corrupt_skipped"), "1");
        let expired = jobs.iter().find(|j| j.text("job") == "2").unwrap();
        assert_eq!(expired.text("deadline_ms"), "150");
        let shed = jobs.iter().find(|j| j.text("job") == "3").unwrap();
        assert_eq!(shed.text("priority"), "1");
        assert_eq!(shed.text("shed_queue_depth"), "4");
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
        assert_eq!(r.groups("run").len(), 1);
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
        let rollups = r.telemetry();
        let samples: f64 = rollups.iter().map(|t| t.f64("samples")).sum();
        assert_eq!(samples, 3.0);
        assert_eq!(rollups.len(), 2);
        // Sorted by source: "gauss" before "server".
        assert_eq!(rollups[0].text("source"), "gauss");
        assert_eq!(rollups[0].text("samples"), "2");
        assert_eq!(rollups[0].text("last_iter"), "128");
        assert_eq!(rollups[0].f64("peak_iters_per_sec"), 320.0);
        assert_eq!(rollups[0].f64("peak_grad_evals_per_sec"), 2_000.0);
        assert!((rollups[0].f64("mean_grad_share") - 0.6).abs() < 1e-12);
        assert_eq!(rollups[1].text("source"), "server");
        assert_eq!(rollups[1].text("wal_appends"), "3");
        assert_eq!(rollups[1].f64("last_wal_p99_ns"), 900.0);
        // NaN shares are excluded from the mean, not poisoning it.
        assert_eq!(rollups[1].f64("mean_grad_share"), 0.0);
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

    /// Every text line and each of its alternatives renders, so every
    /// template names a column its section has.
    #[test]
    fn every_text_line_renders() {
        let run = |model: &str, stop: Option<u64>| {
            [
                Event::RunStart {
                    model: model.into(),
                    chains: 2,
                    iters: 100,
                    seed: 7,
                },
                Event::ShardAggregate {
                    model: model.into(),
                    sweeps: 4,
                    shards: 2,
                    threads: 1,
                    tape_nodes: 10,
                    tape_bytes: 80,
                    transcendental: 1,
                    elapsed_ns: 2_000_000,
                },
                Event::Checkpoint {
                    source: CheckpointSource::Online,
                    iter: 50,
                    max_rhat: 1.01,
                    streak: 1,
                    converged: stop.is_some(),
                },
                Event::ChainFault {
                    chain: 1,
                    attempt: 0,
                    kind: "panic".into(),
                    iter: stop,
                    message: "injected".into(),
                },
                Event::ChainRetry {
                    chain: 1,
                    attempt: 1,
                    reseed: false,
                    seed: 9,
                },
                Event::CheckpointSaved {
                    path: "ck".into(),
                    iter: 50,
                    chains: 2,
                },
                Event::Resume {
                    path: "ck".into(),
                    iter: 50,
                    model: model.into(),
                },
                Event::RunEnd {
                    model: model.into(),
                    chains: 2,
                    stopped_at: stop,
                    total_draws: 100,
                    divergences: 0,
                    grad_evals: 500,
                    span_ns: 0,
                },
                Event::Elision {
                    workload: model.into(),
                    total_iters: 100,
                    converged_at: stop,
                    iter_saving: 0.5,
                    work_saving: 0.25,
                },
            ]
        };
        let job = |job: u64, degraded: bool| Event::JobCompleted {
            job,
            stopped_at: None,
            iters_done: 10,
            degraded,
            faults: 0,
            grad_evals: 20,
        };
        let mut events = vec![Event::trace_header()];
        events.extend(run("a", Some(50)));
        events.push(Event::DegradedReport {
            model: "a".into(),
            survivors: 1,
            lost: 1,
            faults: 2,
            grad_evals: 500,
            span_ns: 0,
        });
        events.extend(run("b", None));
        events.extend([
            job(1, false),
            job(2, true),
            Event::JobExpired {
                job: 3,
                deadline_ms: 5,
                iters_done: 3,
            },
            Event::JobShed {
                job: 4,
                priority: 1,
                queue_depth: 2,
                queued_bytes: 3,
            },
            Event::JobPreempted {
                job: 5,
                at_iter: 1,
                by: 1,
                checkpoint: "ck".into(),
            },
            Event::JournalTruncated {
                path: "wal".into(),
                truncated_bytes: 9,
                records: 3,
            },
            Event::Subsample {
                workload: "a".into(),
                fraction: 0.5,
                working_set_bytes: 1024,
                speedup: 1.5,
            },
        ]);
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let rendered = TraceReport::parse(&text).unwrap().to_string();
        for line in [
            "totals: 100 draws, 500 grad evals, 0 divergences, span total 0.00 ms, stopped at 50",
            "totals: 100 draws, 500 grad evals, 0 divergences, span total 0.00 ms\n",
            "shards: 4 sweeps over 2 shards (1 threads), 80 tape bytes, 2.00 ms swept",
            "convergence: 1 checkpoints, converged at 50 (online, max R-hat 1.010, streak 1)",
            "convergence: 1 checkpoints, no convergence declared",
            "elision: stop at 50 of 100, 50% iterations and 25% work elided",
            "elision: no stop within 100, 50% iterations and 25% work elided",
            "faults: 1 (1 retries; degraded: 1 survivors, 1 lost, 2 faults)",
            "faults: 1 (1 retries)",
            "  chain 1 attempt 0: panic at iteration 50",
            "  chain 1 attempt 0: panic\n",
            "checkpoints: 1 saved, 1 resumes",
            "       ok",
            " degraded",
            "   expired",
            "      shed",
            "   running",
            "wal: 3 records, 0 jobs recovered, 9 torn bytes truncated",
            "a                  0.50           1024    1.50x",
        ] {
            assert!(rendered.contains(line), "no {line:?} in\n{rendered}");
        }
    }

    /// Every `(tag, field)` pair the section table reads is declared by
    /// the schema, so renaming an event field cannot silently empty a
    /// column.
    #[test]
    fn the_section_table_reads_only_declared_fields() {
        let declared = |tag: &str| {
            let event = Event::TYPES.iter().find(|(t, _)| *t == tag);
            event.unwrap_or_else(|| panic!("no event type {tag}")).1
        };
        for s in SECTIONS {
            if let Key::OpenedBy(tag) = s.key {
                declared(tag);
            }
            for &(column, _, from) in s.columns {
                for &(tag, field, fold) in from {
                    let at = format!("{}.{column} reads {tag}", s.name);
                    assert_eq!(field.is_empty(), matches!(fold, Count), "{at}");
                    let mut read = vec![field];
                    if let FirstWhere(flag) = fold {
                        read.push(flag);
                    }
                    if let Key::Fields(keys) = s.key {
                        read.extend(keys);
                    }
                    for name in read.into_iter().filter(|n| !n.is_empty()) {
                        assert!(declared(tag).contains(&name), "{at}: no field {name}");
                    }
                }
            }
        }
    }
}
