//! Dependency-free metrics: monotonic counters, gauges, and
//! deterministic log-linear histograms with snapshot/merge semantics.
//!
//! The registry is the aggregation substrate under the span profiler
//! ([`mod@crate::span`]) and the `trace_report` characterization CLI. Two
//! properties carry all the weight:
//!
//! * **Deterministic bucketing.** A histogram maps a `u64` sample to a
//!   bucket index by pure integer arithmetic (16 linear sub-buckets per
//!   power of two, exact below 16), so the same samples always land in
//!   the same buckets on every platform.
//! * **Associative + commutative merge.** Merging snapshots adds `u64`
//!   bucket counts and counter values and takes the max of gauges, so
//!   per-chain registries combine into bit-identical aggregates
//!   regardless of join order — chain threads may finish in any order
//!   without perturbing the merged result.
//!
//! Wall-clock *samples* recorded into histograms are of course not
//! deterministic across runs; determinism here means the aggregation
//! itself never depends on thread scheduling.

use crate::json::Json;
use crate::schema::{read_field, Field};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Linear sub-buckets per power of two (relative error ≤ 1/16).
const SUB: u64 = 16;

/// Bucket index of a sample. Values below 16 get exact buckets; above
/// that, each power of two splits into 16 linear sub-buckets.
fn bucket_index(v: u64) -> u32 {
    if v < SUB {
        v as u32
    } else {
        let msb = 63 - v.leading_zeros(); // >= 4
        let sub = ((v >> (msb - 4)) & 15) as u32;
        (msb - 3) * 16 + sub
    }
}

/// Inclusive `[lower, upper]` value range of a bucket index.
fn bucket_bounds(index: u32) -> (u64, u64) {
    if index < SUB as u32 {
        (index as u64, index as u64)
    } else {
        let octave = index / 16 + 3; // msb of values in this bucket
        let sub = (index % 16) as u64;
        let width = 1u64 << (octave - 4);
        let lower = (SUB + sub) << (octave - 4);
        (lower, lower + (width - 1))
    }
}

/// A deterministic log-linear histogram over `u64` samples.
///
/// Tracks count, sum, min, max, and sparse bucket counts. Recording is
/// O(log buckets); merging is element-wise `u64` addition, hence
/// associative and commutative.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any was recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any was recorded.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile: the upper edge of the bucket
    /// holding the `⌈q·count⌉`-th smallest sample, clamped to the
    /// observed `[min, max]`. Within a factor of `1 + 1/16` of the true
    /// quantile by construction. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&idx, &c) in &self.buckets {
            seen += c;
            if seen >= target {
                let (_, hi) = bucket_bounds(idx);
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one. Associative and
    /// commutative: bucket counts and sums add, min/max combine.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
    }
}

impl Field for Histogram {
    fn write(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.count, self.sum, self.min, self.max
        );
        for (i, (&idx, &c)) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{idx},{c}]");
        }
        out.push_str("]}");
    }

    /// Reads a histogram back, refusing one its own methods could not
    /// use: a bucket index past the last bucket a `u64` can land in
    /// (its bounds would not be `u64`s), a repeated index, bucket counts
    /// that do not add up to `count`, or `min > max` in a non-empty one.
    fn read(v: &Json) -> Result<Self, String> {
        let (count, sum, min, max): (u64, u64, u64, u64) = (
            read_field(v, "count")?,
            read_field(v, "sum")?,
            read_field(v, "min")?,
            read_field(v, "max")?,
        );
        let mut buckets = BTreeMap::new();
        let mut total = 0u64;
        for pair in read_field::<Vec<Vec<u64>>>(v, "buckets")? {
            let [idx, c] = pair[..] else {
                return Err("histogram bucket is not an [index, count] pair".into());
            };
            let idx = u32::try_from(idx)
                .ok()
                .filter(|&i| i <= bucket_index(u64::MAX))
                .ok_or("histogram bucket index is out of range")?;
            total = total
                .checked_add(c)
                .ok_or("histogram bucket counts overflow")?;
            if buckets.insert(idx, c).is_some() {
                return Err(format!("histogram bucket {idx} appears twice"));
            }
        }
        if total != count {
            return Err(format!(
                "histogram bucket counts add up to {total}, count is {count}"
            ));
        }
        if count > 0 && min > max {
            return Err(format!("histogram min {min} exceeds max {max}"));
        }
        Ok(Self {
            count,
            sum,
            min,
            max,
            buckets,
        })
    }
}

crate::record! {
    /// A frozen, mergeable view of a [`MetricsRegistry`].
    ///
    /// Merge semantics: counters add, gauges take the max, histograms
    /// merge bucket-wise. All three are associative and commutative, so
    /// any join order over per-chain snapshots yields the same bytes.
    /// Encoded, each map is an object in key order, so encoding is
    /// deterministic.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct MetricsSnapshot {
        /// Monotonic counters by name.
        pub counters: BTreeMap<String, u64>,
        /// Gauges by name (merge keeps the max).
        pub gauges: BTreeMap<String, f64>,
        /// Histograms by name.
        pub histograms: BTreeMap<String, Histogram>,
    }
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another snapshot into this one (associative and
    /// commutative; see the type-level docs).
    ///
    /// Gauges are **max-gauges**: merging takes the per-key maximum,
    /// never last-write-wins, so the result is independent of merge
    /// order. `f64::max` semantics apply when both sides hold a value
    /// (NaN loses to any number, NaN only survives if both sides are
    /// NaN); a key present on one side only is copied verbatim.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        use std::collections::btree_map::Entry;
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            match self.gauges.entry(k.clone()) {
                Entry::Occupied(mut slot) => {
                    let cur = *slot.get();
                    *slot.get_mut() = cur.max(*v);
                }
                // Copy verbatim (even NaN) rather than seeding a
                // sentinel — max against a -inf seed would turn a
                // NaN-only gauge into -inf on one merge order but not
                // the other, breaking commutativity.
                Entry::Vacant(slot) => {
                    slot.insert(*v);
                }
            }
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Total nanoseconds across all `span.*` histograms — the headline
    /// "span totals" number carried by `run_end`/`degraded_report`.
    pub fn span_total_ns(&self) -> u64 {
        self.histograms
            .iter()
            .filter(|(k, _)| k.starts_with("span."))
            .map(|(_, h)| h.sum())
            .fold(0u64, u64::saturating_add)
    }
}

/// A live, single-threaded metrics registry.
///
/// The registry is deliberately not `Sync`: the span profiler keeps one
/// per chain thread (no contention on the hot path) and merges frozen
/// [`MetricsSnapshot`]s under a run-level mutex when each chain scope
/// ends.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    snap: MetricsSnapshot,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.snap.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge to `v` (last write wins locally; merges
    /// across registries keep the max).
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.snap.gauges.insert(name.to_string(), v);
    }

    /// Records one sample into the named histogram.
    pub fn record(&mut self, name: &str, v: u64) {
        self.snap
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// A frozen copy of the current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snap.clone()
    }

    /// Takes the current state, leaving the registry empty.
    pub fn take(&mut self) -> MetricsSnapshot {
        std::mem::take(&mut self.snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn buckets_are_exact_below_16_and_bounded_above() {
        for v in 0..16u64 {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
        for v in [16u64, 17, 31, 32, 100, 1_000, 123_456_789, u64::MAX / 2] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
            // Relative bucket width ≤ 1/16.
            assert!(hi - lo <= v / 16 + 1, "bucket too wide for {v}");
        }
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.min().is_none());
        assert!(h.mean().is_nan());
        for v in [5u64, 100, 7, 3000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 3112);
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(3000));
        assert!((h.mean() - 778.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_bounded_and_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!(est >= prev, "quantile not monotone at q={q}");
            assert!((1..=1000).contains(&est));
            prev = est;
        }
        // Upper edge of the max bucket clamps to the observed max.
        assert_eq!(h.quantile(1.0), Some(1000));
        let true_median = 500.0;
        let est = h.quantile(0.5).unwrap() as f64;
        assert!(est >= true_median && est <= true_median * (1.0 + 1.0 / 8.0));
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (mk(&[1, 50, 900]), mk(&[2, 2, 70000]), mk(&[0, 12345]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn snapshot_merge_combines_all_kinds() {
        let mut r1 = MetricsRegistry::new();
        r1.counter_add("evals", 10);
        r1.gauge_set("eps", 0.5);
        r1.record("span.gradient_eval", 100);
        let mut r2 = MetricsRegistry::new();
        r2.counter_add("evals", 7);
        r2.gauge_set("eps", 0.25);
        r2.record("span.gradient_eval", 300);
        r2.record("span.adaptation", 40);

        let mut m = r1.snapshot();
        m.merge(&r2.snapshot());
        assert_eq!(m.counters["evals"], 17);
        assert_eq!(m.gauges["eps"], 0.5); // max wins
        assert_eq!(m.histograms["span.gradient_eval"].count(), 2);
        assert_eq!(m.span_total_ns(), 440);
    }

    #[test]
    fn gauge_merge_is_commutative_and_takes_the_max() {
        let mut a = MetricsSnapshot::new();
        a.gauges.insert("eps".into(), -2.0);
        a.gauges.insert("only_a".into(), 1.5);
        a.gauges.insert("sick".into(), f64::NAN);
        let mut b = MetricsSnapshot::new();
        b.gauges.insert("eps".into(), -1.0);
        b.gauges.insert("only_b".into(), -7.0);
        b.gauges.insert("sick".into(), 3.0);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.gauges["eps"], -1.0, "max wins, not last write");
        assert_eq!(ab.gauges["only_a"], 1.5, "one-sided keys copied");
        assert_eq!(ab.gauges["only_b"], -7.0);
        assert_eq!(ab.gauges["sick"], 3.0, "NaN loses to any number");
        for k in ["eps", "only_a", "only_b", "sick"] {
            assert_eq!(ab.gauges[k].to_bits(), ba.gauges[k].to_bits(), "{k}");
        }

        // A NaN-only gauge survives merge in either direction — the
        // one-sided copy must not launder it through a -inf seed.
        let mut nan_only = MetricsSnapshot::new();
        nan_only.gauges.insert("sick".into(), f64::NAN);
        let mut empty_first = MetricsSnapshot::new();
        empty_first.merge(&nan_only);
        assert!(empty_first.gauges["sick"].is_nan());
        let mut nan_first = nan_only.clone();
        nan_first.merge(&MetricsSnapshot::new());
        assert!(nan_first.gauges["sick"].is_nan());

        // Associativity across three snapshots.
        let mut c = MetricsSnapshot::new();
        c.gauges.insert("eps".into(), 0.25);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c.gauges["eps"], a_bc.gauges["eps"]);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut r = MetricsRegistry::new();
        r.counter_add("grad_evals", 9223372036854775809 % 1_000_000_007);
        r.gauge_set("step_size", 0.30000000000000004);
        r.gauge_set("bad", f64::NAN);
        for v in [0u64, 3, 17, 1_000_000, u64::MAX / 3] {
            r.record("span.leapfrog", v);
        }
        let snap = r.snapshot();
        let mut s = String::new();
        snap.write(&mut s);
        let back = MetricsSnapshot::read(&parse(&s).unwrap()).unwrap();
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.histograms, snap.histograms);
        assert!(back.gauges["bad"].is_nan());
        assert_eq!(
            back.gauges["step_size"].to_bits(),
            snap.gauges["step_size"].to_bits()
        );
        // Encoding is stable across a decode cycle.
        let mut s2 = String::new();
        back.write(&mut s2);
        assert_eq!(s, s2);
    }

    /// A histogram whose buckets its own methods could not use is
    /// refused on read: before, a bucket index of 2000 decoded and
    /// `quantile` then shifted a `u64` by more than 63 bits.
    #[test]
    fn histograms_that_do_not_add_up_are_refused() {
        let read = |count: u64, min: u64, max: u64, buckets: &str| {
            let text = format!(
                r#"{{"count":{count},"sum":5,"min":{min},"max":{max},"buckets":[{buckets}]}}"#
            );
            Histogram::read(&parse(&text).unwrap())
        };
        let last = bucket_index(u64::MAX);
        let h = read(2, 1, u64::MAX, &format!("[1,1],[{last},1]")).unwrap();
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        for (count, min, buckets, why) in [
            (1, 5, "[2000,1]", "out of range"),
            (1, 5, "[976,1]", "out of range"),
            (1, 5, "[4294967301,1]", "out of range"),
            (3, 5, "[5,1]", "add up"),
            (0, 5, "[5,1]", "add up"),
            (1, 5, "[5,18446744073709551615],[6,1]", "overflow"),
            (2, 5, "[5,1],[5,1]", "twice"),
            (1, 5, "[5,1,1]", "pair"),
            (1, 6, "[5,1]", "exceeds"),
        ] {
            let err = read(count, min, 5, buckets).unwrap_err();
            assert!(err.contains(why), "{buckets}: {err}");
        }
    }

    #[test]
    fn empty_snapshot_encodes_and_decodes() {
        let snap = MetricsSnapshot::new();
        assert!(snap.is_empty());
        let mut s = String::new();
        snap.write(&mut s);
        let back = MetricsSnapshot::read(&parse(&s).unwrap()).unwrap();
        assert!(back.is_empty());
    }
}
