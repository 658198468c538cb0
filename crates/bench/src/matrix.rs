//! The cross-sampler benchmark matrix and its `BENCH_matrix.json`
//! artifact.
//!
//! One [`BenchCell`] is one `{sampler} × {workload} × {scale}` run
//! scored against the cell's golden reference posterior
//! ([`bayes_suite::score`]). A [`BenchMatrix`] is a set of cells
//! plus a schema-versioned header; a cell is declared through the same
//! [`bayes_obs::record!`] schema as the trace events, so encoding
//! rules are identical across every artifact the repo writes.
//!
//! The document is a single JSON object (any JSON tool can load it)
//! that is also line-structured — header first, then one cell object
//! per line — so diffs stay readable. The decode contract mirrors the
//! `trace_header` contract in `bayes-obs`:
//!
//! * a document announcing a **newer major** schema is rejected with
//!   [`DecodeError::UnsupportedSchema`];
//! * a newer *minor* decodes fine (additive fields are ignored);
//! * malformed cell rows are **counted, not fatal**
//!   ([`BenchMatrix::malformed`]), so one corrupt row cannot take down
//!   a regression gate.

use bayes_obs::json::{parse, Json};
use bayes_obs::schema::{self, Field};
use bayes_obs::DecodeError;
use bayes_suite::RunScore;

/// Major version of the `BENCH_*.json` schema. Bump on breaking layout
/// changes; decoders reject anything newer than they know.
pub const BENCH_SCHEMA_MAJOR: u64 = 1;
/// Minor version of the `BENCH_*.json` schema (additive changes only).
/// 1.1 added the `fastpath` cell field; 1.0 documents decode with
/// `fastpath = true` (the runtime default for qualifying workloads).
pub const BENCH_SCHEMA_MINOR: u64 = 1;

/// Default factor by which ESS/sec may drop before the baseline
/// comparison calls it a regression. Wall-clock throughput varies a
/// lot across machines and build flavours, so the gate is deliberately
/// loose by default; tighten with `--time-factor` on a pinned runner.
pub const DEFAULT_TIME_FACTOR: f64 = 10.0;

/// Factor by which minimum ESS may drop before the comparison calls it
/// a regression. ESS is seed- and RNG-sensitive but machine-neutral,
/// so the gate is tighter than the wall-clock one.
pub const ESS_REGRESSION_FACTOR: f64 = 0.5;

bayes_obs::record! {
    /// One scored benchmark cell.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchCell = "bench_cell" {
        /// Workload name (registry canonical).
        pub workload: String,
        /// Sampler tag: `mh`, `hmc` or `nuts`.
        pub sampler: String,
        /// Data scale of the cell.
        pub scale: f64,
        /// Iterations per chain.
        pub iters: u64,
        /// Chain count.
        pub chains: u64,
        /// Chain seed of the run (data seed is always the registry's
        /// `REFERENCE_SEED`).
        pub seed: u64,
        /// Within-chain gradient workers the run used.
        pub inner_threads: u64,
        /// Whether the sufficient-statistics fast path was enabled for the
        /// run (workloads without one simply ignore it). Not part of the
        /// cell identity: on/off flavors live in separate matrix files.
        pub fastpath: bool,
        /// Wall-clock seconds of the sampling run.
        pub wall_time_s: f64,
        /// Minimum ESS across dimensions (NaN is written as `null`).
        pub min_ess: f64,
        /// `min_ess / wall_time_s`.
        pub ess_per_sec: f64,
        /// Maximum rank-normalized split-R̂ (NaN is written as `null`).
        pub max_rhat: f64,
        /// Gradient evaluations charged to the run.
        pub grad_evals: u64,
        /// Divergent transitions.
        pub divergences: u64,
        /// Normalized posterior error vs the reference (≤ 1 passes).
        pub norm_err: f64,
        /// Dimensions compared.
        pub checked_params: u64,
        /// Whether the cell passed its reference tolerance.
        pub pass: bool,
    }
}

impl BenchCell {
    /// Builds a cell from a scored run.
    #[allow(clippy::too_many_arguments)]
    pub fn from_score(
        workload: &str,
        sampler: &str,
        scale: f64,
        iters: usize,
        chains: usize,
        seed: u64,
        inner_threads: usize,
        fastpath: bool,
        score: &RunScore,
    ) -> Self {
        Self {
            workload: workload.to_string(),
            sampler: sampler.to_string(),
            scale,
            iters: iters as u64,
            chains: chains as u64,
            seed,
            inner_threads: inner_threads as u64,
            fastpath,
            wall_time_s: score.wall_time_s,
            min_ess: score.min_ess,
            ess_per_sec: score.ess_per_sec,
            max_rhat: score.max_rhat,
            grad_evals: score.grad_evals,
            divergences: score.divergences,
            norm_err: score.norm_err,
            checked_params: score.checked_params as u64,
            pass: score.pass,
        }
    }

    /// The cell's identity within a matrix: `workload/sampler@scale`.
    pub fn key(&self) -> String {
        format!("{}/{}@{}", self.workload, self.sampler, self.scale)
    }

    /// Encodes as one JSON object line.
    pub fn to_json(&self) -> String {
        schema::to_line(self)
    }

    /// Decodes one cell object. `null` numeric fields decode as NaN,
    /// mirroring the trace-event convention.
    pub fn from_json(v: &Json) -> Result<Self, DecodeError> {
        if schema::tag(v).ok() != Some("bench_cell") {
            return Err(DecodeError::Malformed("not a bench_cell object".into()));
        }
        // Added in schema 1.1; 1.0 documents ran with the runtime
        // default, which is fast-path on.
        let read = match v {
            Json::Obj(fields) if v.get("fastpath").is_none() => {
                let mut fields = fields.clone();
                fields.push(("fastpath".into(), Json::Bool(true)));
                Self::read(&Json::Obj(fields))
            }
            _ => Self::read(v),
        };
        read.map_err(|e| DecodeError::Malformed(format!("cell {e}")))
    }
}

/// A set of benchmark cells plus schema header.
#[derive(Debug, Clone, Default)]
pub struct BenchMatrix {
    /// The scored cells, in run order.
    pub cells: Vec<BenchCell>,
    /// Cell rows that failed to decode (counted, not fatal) when this
    /// matrix was read from JSON; always 0 for freshly-run matrices.
    pub malformed: usize,
}

impl BenchMatrix {
    /// Encodes the matrix as a single schema-versioned JSON document,
    /// one cell per line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 256 * self.cells.len());
        out.push_str(&format!(
            "{{\"type\":\"bench_matrix\",\"schema_major\":{BENCH_SCHEMA_MAJOR},\
             \"schema_minor\":{BENCH_SCHEMA_MINOR},\"cells\":[\n"
        ));
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str(&cell.to_json());
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Decodes a `BENCH_*.json` document.
    ///
    /// A newer schema major is rejected with
    /// [`DecodeError::UnsupportedSchema`]; malformed cell *rows* are
    /// skipped and counted in [`BenchMatrix::malformed`].
    pub fn from_json(text: &str) -> Result<Self, DecodeError> {
        let doc = parse(text).map_err(DecodeError::Malformed)?;
        let kind = doc.get("type").and_then(Json::as_str);
        if kind != Some("bench_matrix") {
            return Err(DecodeError::Malformed(
                "document is not a bench_matrix".into(),
            ));
        }
        let major = doc
            .get("schema_major")
            .and_then(Json::as_u64)
            .ok_or_else(|| DecodeError::Malformed("missing schema_major".into()))?;
        if major > BENCH_SCHEMA_MAJOR {
            return Err(DecodeError::UnsupportedSchema {
                major,
                supported: BENCH_SCHEMA_MAJOR,
            });
        }
        let Some(Json::Arr(rows)) = doc.get("cells") else {
            return Err(DecodeError::Malformed("missing cells array".into()));
        };
        let mut cells = Vec::with_capacity(rows.len());
        let mut malformed = 0usize;
        for row in rows {
            match BenchCell::from_json(row) {
                Ok(cell) => cells.push(cell),
                Err(_) => malformed += 1,
            }
        }
        Ok(Self { cells, malformed })
    }

    /// Looks up a cell by identity key.
    pub fn get(&self, key: &str) -> Option<&BenchCell> {
        self.cells.iter().find(|c| c.key() == key)
    }

    /// Renders the human-readable results table.
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "cell                        iters  time     min-ess   ess/sec  max-rhat  norm-err  pass\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:<26} {:>6}  {:>6}  {:>8.1}  {:>8.1}  {:>8.3}  {:>8.3}  {}\n",
                c.key(),
                c.iters,
                crate::fmt_time(c.wall_time_s),
                c.min_ess,
                c.ess_per_sec,
                c.max_rhat,
                c.norm_err,
                if c.pass { "ok" } else { "FAIL" }
            ));
        }
        out
    }
}

/// One flagged difference from [`compare`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Identity key of the affected cell.
    pub key: String,
    /// What regressed, human-readable.
    pub what: String,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.key, self.what)
    }
}

/// Compares a fresh matrix against a baseline, returning every
/// regression found. Flags, per cell present in the baseline:
///
/// * the cell disappeared from the new matrix;
/// * pass → fail on the reference tolerance;
/// * minimum ESS below [`ESS_REGRESSION_FACTOR`] × baseline;
/// * ESS/sec below baseline / `time_factor`
///   (see [`DEFAULT_TIME_FACTOR`]);
/// * normalized posterior error above 1 *and* more than double the
///   baseline's (a failing baseline cell does not gate).
///
/// New cells absent from the baseline are additions, never
/// regressions.
pub fn compare(new: &BenchMatrix, baseline: &BenchMatrix, time_factor: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in &baseline.cells {
        let key = base.key();
        let flag = |what: String| Regression {
            key: key.clone(),
            what,
        };
        let Some(cell) = new.get(&key) else {
            out.push(flag("cell missing from new matrix".into()));
            continue;
        };
        if base.pass && !cell.pass {
            out.push(flag(format!(
                "pass -> FAIL (norm_err {:.3} rhat {:.3})",
                cell.norm_err, cell.max_rhat
            )));
        }
        if cell.min_ess < ESS_REGRESSION_FACTOR * base.min_ess {
            out.push(flag(format!(
                "min ESS {:.1} below {ESS_REGRESSION_FACTOR}x baseline {:.1}",
                cell.min_ess, base.min_ess
            )));
        }
        if cell.ess_per_sec < base.ess_per_sec / time_factor {
            out.push(flag(format!(
                "ESS/sec {:.2} below baseline {:.2} / {time_factor}",
                cell.ess_per_sec, base.ess_per_sec
            )));
        }
        if cell.norm_err > 1.0 && cell.norm_err > 2.0 * base.norm_err {
            out.push(flag(format!(
                "posterior error {:.3} above tolerance and 2x baseline {:.3}",
                cell.norm_err, base.norm_err
            )));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(workload: &str, sampler: &str) -> BenchCell {
        BenchCell {
            workload: workload.into(),
            sampler: sampler.into(),
            scale: 0.25,
            iters: 400,
            chains: 4,
            seed: 7,
            inner_threads: 1,
            fastpath: true,
            wall_time_s: 1.5,
            min_ess: 210.0,
            ess_per_sec: 140.0,
            max_rhat: 1.01,
            grad_evals: 123456,
            divergences: 0,
            norm_err: 0.4,
            checked_params: 15,
            pass: true,
        }
    }

    #[test]
    fn json_round_trip() {
        let m = BenchMatrix {
            cells: vec![cell("12cities", "nuts"), cell("votes", "hmc")],
            malformed: 0,
        };
        let text = m.to_json();
        let back = BenchMatrix::from_json(&text).unwrap();
        assert_eq!(back.cells, m.cells);
        assert_eq!(back.malformed, 0);
    }

    #[test]
    fn nan_fields_round_trip_as_null() {
        let mut c = cell("ode", "nuts");
        c.min_ess = f64::NAN;
        c.max_rhat = f64::NAN;
        c.ess_per_sec = f64::NAN;
        let m = BenchMatrix {
            cells: vec![c],
            malformed: 0,
        };
        let text = m.to_json();
        assert!(text.contains("\"min_ess\":null"));
        let back = BenchMatrix::from_json(&text).unwrap();
        assert!(back.cells[0].min_ess.is_nan());
        assert!(back.cells[0].max_rhat.is_nan());
    }

    #[test]
    fn schema_1_0_cells_decode_with_fastpath_on() {
        // A pre-1.1 document has no `fastpath` field; those runs used
        // the runtime default, so the field must decode as true.
        let text = BenchMatrix {
            cells: vec![cell("memory", "nuts")],
            malformed: 0,
        }
        .to_json()
        .replace("\"schema_minor\":1", "\"schema_minor\":0")
        .replace("\"fastpath\":true,", "");
        let back = BenchMatrix::from_json(&text).unwrap();
        assert_eq!(back.cells.len(), 1);
        assert!(back.cells[0].fastpath);
    }

    #[test]
    fn newer_major_is_rejected() {
        let text = BenchMatrix {
            cells: vec![cell("ad", "nuts")],
            malformed: 0,
        }
        .to_json()
        .replace("\"schema_major\":1", "\"schema_major\":2");
        match BenchMatrix::from_json(&text) {
            Err(DecodeError::UnsupportedSchema { major, supported }) => {
                assert_eq!(major, 2);
                assert_eq!(supported, BENCH_SCHEMA_MAJOR);
            }
            other => panic!("expected UnsupportedSchema, got {other:?}"),
        }
    }

    #[test]
    fn newer_minor_is_fine() {
        let text = BenchMatrix {
            cells: vec![cell("ad", "nuts")],
            malformed: 0,
        }
        .to_json()
        .replace("\"schema_minor\":0", "\"schema_minor\":9");
        assert_eq!(BenchMatrix::from_json(&text).unwrap().cells.len(), 1);
    }

    #[test]
    fn malformed_rows_are_counted_not_fatal() {
        let good = cell("memory", "nuts");
        let text = format!(
            "{{\"type\":\"bench_matrix\",\"schema_major\":1,\"schema_minor\":0,\"cells\":[\n\
             {},\n\
             {{\"type\":\"bench_cell\",\"workload\":\"broken\"}},\n\
             {{\"type\":\"other\"}}\n\
             ]}}",
            good.to_json()
        );
        let m = BenchMatrix::from_json(&text).unwrap();
        assert_eq!(m.cells.len(), 1);
        assert_eq!(m.malformed, 2);
        assert_eq!(m.cells[0], good);
    }

    #[test]
    fn garbage_document_is_malformed() {
        assert!(matches!(
            BenchMatrix::from_json("not json"),
            Err(DecodeError::Malformed(_))
        ));
        assert!(matches!(
            BenchMatrix::from_json("{\"type\":\"trace_header\"}"),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn compare_flags_each_regression_kind() {
        let base = BenchMatrix {
            cells: vec![cell("12cities", "nuts"), cell("votes", "nuts")],
            malformed: 0,
        };
        let mut worse = cell("12cities", "nuts");
        worse.pass = false;
        worse.norm_err = 3.0;
        worse.min_ess = 50.0; // < 0.5 × 210
        worse.ess_per_sec = 1.0; // < 140 / 10
        let new = BenchMatrix {
            cells: vec![worse],
            malformed: 0,
        };
        let regs = compare(&new, &base, DEFAULT_TIME_FACTOR);
        let whats: Vec<&str> = regs.iter().map(|r| r.what.as_str()).collect();
        assert!(
            whats.iter().any(|w| w.contains("pass -> FAIL")),
            "{whats:?}"
        );
        assert!(whats.iter().any(|w| w.contains("min ESS")), "{whats:?}");
        assert!(whats.iter().any(|w| w.contains("ESS/sec")), "{whats:?}");
        assert!(
            whats.iter().any(|w| w.contains("posterior error")),
            "{whats:?}"
        );
        assert!(
            regs.iter().any(|r| r.what.contains("missing")),
            "votes cell disappeared: {regs:?}"
        );
        // Identical matrices: zero regressions.
        assert!(compare(&base, &base, DEFAULT_TIME_FACTOR).is_empty());
    }

    #[test]
    fn comparing_against_failing_baseline_does_not_gate() {
        let mut base_cell = cell("ad", "mh");
        base_cell.pass = false;
        base_cell.norm_err = 5.0;
        let base = BenchMatrix {
            cells: vec![base_cell.clone()],
            malformed: 0,
        };
        // Still failing, slightly worse error — not a regression.
        let mut still = base_cell;
        still.norm_err = 6.0;
        let new = BenchMatrix {
            cells: vec![still],
            malformed: 0,
        };
        assert!(compare(&new, &base, DEFAULT_TIME_FACTOR).is_empty());
    }

    #[test]
    fn table_lists_every_cell() {
        let m = BenchMatrix {
            cells: vec![cell("12cities", "nuts"), cell("votes", "hmc")],
            malformed: 0,
        };
        let t = m.render_table();
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("12cities/nuts@0.25"));
        assert!(t.contains("ok"));
    }
}
