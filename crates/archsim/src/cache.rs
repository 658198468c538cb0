//! Set-associative cache simulator.
//!
//! L1/L2 use true LRU; the LLC uses pseudo-random replacement, as
//! modern shared LLCs do — which is also what gives cyclic data sweeps
//! a hit rate of roughly `capacity / working-set` instead of LRU's
//! pathological zero.

use crate::stream::CHAIN_SPACING;

/// Replacement policy for a [`CacheSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// True least-recently-used.
    Lru,
    /// Pseudo-random victim selection (xorshift; deterministic).
    Random,
}

/// Bytes per cache line, on every level of every platform modelled.
const LINE_BYTES: usize = 64;

/// Accesses a core issues per turn when [`Hierarchy::replay`]
/// interleaves the cores' streams: one bit each of a `u32` mask word.
pub const CHUNK: usize = u32::BITS as usize;

/// Seed of every random-replacement victim stream.
const RNG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Lines between consecutive chains' bases: [`CHAIN_SPACING`] in lines.
const CHAIN_SPACING_LINES: u64 = CHAIN_SPACING / LINE_BYTES as u64;

/// Advances a xorshift victim stream and returns its next victim among
/// `ways` ways.
fn next_victim(rng_state: &mut u64, ways: usize) -> usize {
    *rng_state ^= *rng_state << 13;
    *rng_state ^= *rng_state >> 7;
    *rng_state ^= *rng_state << 17;
    (*rng_state % ways as u64) as usize
}

/// Sets × ways of 64-byte lines.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    sets: usize,
    /// `log2(sets)` when `sets` is a power of two — every Table II
    /// geometry — so the set index and tag are a mask and a shift;
    /// other geometries (an odd way-partition of the LLC) divide.
    sets_log2: Option<u32>,
    ways: usize,
}

impl Geometry {
    /// The geometry of a cache of `size_bytes` (see [`CacheSim::new`]).
    fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            size_bytes.is_multiple_of(ways * LINE_BYTES) && size_bytes > 0,
            "cache size must be a positive multiple of ways × line size"
        );
        let sets = size_bytes / (ways * LINE_BYTES);
        Self {
            sets,
            sets_log2: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            ways,
        }
    }

    /// The set `line` maps to, and its tag there.
    fn locate(&self, line: u64) -> (usize, u64) {
        match self.sets_log2 {
            Some(shift) => ((line & (self.sets as u64 - 1)) as usize, line >> shift),
            None => ((line % self.sets as u64) as usize, line / self.sets as u64),
        }
    }
}

/// One level of set-associative cache.
#[derive(Debug, Clone)]
pub struct CacheSim {
    geometry: Geometry,
    policy: Replacement,
    /// tags[set * ways + way]; `u64::MAX` = invalid. Under LRU each set
    /// is kept in recency order, most recent first (invalid ways last),
    /// so the tags alone are the whole replacement state.
    tags: Vec<u64>,
    rng_state: u64,
    accesses: u64,
    misses: u64,
}

impl CacheSim {
    /// Builds a cache of `size_bytes` with the given associativity and
    /// 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, size not a
    /// multiple of `ways × 64`).
    pub fn new(size_bytes: usize, ways: usize, policy: Replacement) -> Self {
        Self::with_geometry(Geometry::new(size_bytes, ways), policy)
    }

    fn with_geometry(geometry: Geometry, policy: Replacement) -> Self {
        Self {
            geometry,
            policy,
            tags: vec![u64::MAX; geometry.sets * geometry.ways],
            rng_state: RNG_SEED,
            accesses: 0,
            misses: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.geometry.sets * self.geometry.ways * LINE_BYTES
    }

    /// Accesses the byte address; returns `true` on hit. On miss the
    /// line is installed (allocate-on-miss).
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let (set, tag) = self.geometry.locate(addr / LINE_BYTES as u64);
        let n = self.geometry.ways;
        let ways = &mut self.tags[set * n..(set + 1) * n];
        if let Some(w) = ways.iter().position(|&t| t == tag) {
            if self.policy == Replacement::Lru {
                ways.copy_within(..w, 1);
                ways[0] = tag;
            }
            return true;
        }
        self.misses += 1;
        match self.policy {
            // The least recently used way — or an invalid one, which
            // sits behind every valid way — drops off the end.
            Replacement::Lru => {
                ways.copy_within(..ways.len() - 1, 1);
                ways[0] = tag;
            }
            Replacement::Random => {
                // Prefer the first invalid way. Ways fill lowest first
                // and never empty again, so the invalid ones are a suffix.
                let victim = if ways[n - 1] == u64::MAX {
                    ways.partition_point(|&t| t != u64::MAX)
                } else {
                    next_victim(&mut self.rng_state, n)
                };
                ways[victim] = tag;
            }
        }
        false
    }

    /// Accesses seen so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Misses seen so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets the statistics counters, keeping the contents (use after
    /// warmup sweeps).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }

    /// Whether `self` answers any access sequence as `other` does: the
    /// same tags in the same order and the same victim stream.
    fn same_state(&self, other: &Self) -> bool {
        self.tags == other.tags && self.rng_state == other.rng_state
    }
}

/// One core's private levels: L1d, L2 and, when the LLC is
/// way-partitioned, the core's slice of it.
#[derive(Debug, Clone)]
struct Private {
    l1: CacheSim,
    l2: CacheSim,
    llc_slice: Option<CacheSim>,
}

impl Private {
    fn levels(&self) -> impl Iterator<Item = &CacheSim> {
        [&self.l1, &self.l2].into_iter().chain(&self.llc_slice)
    }

    /// Routes one access through the private levels, counting it in
    /// `s`; returns `true` when it misses them all and goes on to the
    /// shared LLC.
    fn access(&mut self, addr: u64, s: &mut LevelStats) -> bool {
        s.accesses += 1;
        if self.l1.access(addr) {
            return false;
        }
        s.l1_misses += 1;
        if self.l2.access(addr) {
            return false;
        }
        s.l2_misses += 1;
        match &mut self.llc_slice {
            Some(slice) => s.llc_misses += u64::from(!slice.access(addr)),
            None => return true,
        }
        false
    }

    fn same_state(&self, other: &Self) -> bool {
        self.levels()
            .zip(other.levels())
            .all(|(a, b)| a.same_state(b))
    }
}

/// A private L1d + private L2 + shared LLC hierarchy for `cores`
/// cores. Addresses from different cores must be disjoint (the
/// simulator does not model coherence traffic).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    private: Vec<Private>,
    /// The geometry of the LLC every core shares; `None` when it is
    /// way-partitioned into the cores' private slices.
    shared_llc: Option<Geometry>,
    /// The shared LLC as [`Hierarchy::access`] simulates it, built by
    /// the first access that reaches it. [`Hierarchy::replay`] never
    /// builds it: it keeps a [`Residency`] index instead.
    llc: Option<CacheSim>,
    /// Per-core counters: accesses, l1 misses, l2 misses, llc misses.
    stats: Vec<LevelStats>,
}

/// Per-core hit/miss tallies through the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Demand accesses issued by the core.
    pub accesses: u64,
    /// Misses leaving L1.
    pub l1_misses: u64,
    /// Misses leaving L2.
    pub l2_misses: u64,
    /// Misses leaving the shared LLC (off-chip transfers).
    pub llc_misses: u64,
}

impl std::ops::AddAssign for LevelStats {
    fn add_assign(&mut self, o: Self) {
        self.accesses += o.accesses;
        self.l1_misses += o.l1_misses;
        self.l2_misses += o.l2_misses;
        self.llc_misses += o.llc_misses;
    }
}

impl Hierarchy {
    /// Builds a hierarchy for `cores` cores on the given platform
    /// geometry.
    pub fn new(
        cores: usize,
        l1_bytes: usize,
        l2_bytes: usize,
        llc_bytes: usize,
        llc_ways: usize,
    ) -> Self {
        Self::with_partitioning(cores, l1_bytes, l2_bytes, llc_bytes, llc_ways, false)
    }

    /// Like [`Hierarchy::new`], but optionally way-partitioning the
    /// LLC: each core receives an isolated `llc_bytes / cores` slice
    /// with proportionally fewer ways.
    pub fn with_partitioning(
        cores: usize,
        l1_bytes: usize,
        l2_bytes: usize,
        llc_bytes: usize,
        llc_ways: usize,
        partitioned: bool,
    ) -> Self {
        let llc_slice = partitioned.then(|| {
            let ways = (llc_ways / cores).max(1);
            let bytes = (llc_bytes / cores / (ways * 64)).max(1) * ways * 64;
            CacheSim::new(bytes, ways, Replacement::Random)
        });
        let private = Private {
            l1: CacheSim::new(l1_bytes, 8, Replacement::Lru),
            l2: CacheSim::new(l2_bytes, 8, Replacement::Lru),
            llc_slice,
        };
        Self {
            private: vec![private; cores],
            shared_llc: (!partitioned).then(|| Geometry::new(llc_bytes, llc_ways)),
            llc: None,
            stats: vec![LevelStats::default(); cores],
        }
    }

    /// Routes one access from `core` through the hierarchy.
    pub fn access(&mut self, core: usize, addr: u64) {
        let s = &mut self.stats[core];
        if self.private[core].access(addr, s) {
            let geometry = self.shared_llc.expect("no slice, so a shared LLC");
            let llc = self
                .llc
                .get_or_insert_with(|| CacheSim::with_geometry(geometry, Replacement::Random));
            s.llc_misses += u64::from(!llc.access(addr));
        }
    }

    /// Replays `warmup` then `measured` passes in which every core
    /// issues `stream`, core `c` shifted by `c × CHAIN_SPACING`, in
    /// turns of [`CHUNK`] accesses, and returns each core's counts over
    /// the measured passes, as [`Hierarchy::access`] would count them.
    ///
    /// The shift moves no line to another set of a private level whose
    /// set span divides the spacing, so all cores' private levels answer
    /// alike and are simulated once; a pass that starts where the
    /// previous one started is not simulated again; the shared LLC is
    /// simulated by an index of which stream lines each core has
    /// resident, with no tag array (DESIGN.md §5).
    ///
    /// # Panics
    ///
    /// Panics on a used hierarchy, or on several cores with a private
    /// level whose set span does not divide the spacing or a stream line
    /// at or past the spacing (it would alias the next core's lines).
    ///
    /// Kept out of line. The release build's fat LTO inlines it into
    /// `perf::characterize`, and there the same instructions cost
    /// `charact_sweep` 5–8% at one code placement and nothing at another;
    /// out of line it stayed within 3% of the default build's at two
    /// placements (DESIGN.md §5e).
    #[inline(never)]
    pub fn replay(mut self, stream: &[u64], warmup: usize, measured: usize) -> Vec<LevelStats> {
        let fresh = self.stats.iter().all(|s| s.accesses == 0);
        assert!(fresh, "replay needs a fresh hierarchy");
        let mut private = self.private.swap_remove(0);
        let span_divides =
            |c: &CacheSim| CHAIN_SPACING.is_multiple_of((c.geometry.sets * LINE_BYTES) as u64);
        let cores = self.stats.len();
        assert!(
            cores == 1 || private.levels().all(span_divides),
            "a private level's set span does not divide the chain spacing"
        );
        let lines = stream
            .iter()
            .max()
            .map_or(0, |&a| a / LINE_BYTES as u64 + 1);
        assert!(
            cores == 1 || lines <= CHAIN_SPACING_LINES,
            "a stream line at or past the chain spacing would alias across cores"
        );
        let mut llc = self
            .shared_llc
            .map(|geometry| Residency::new(geometry, lines as usize, cores));
        // Core 0's private counts and private-miss bits (one word per
        // chunk) in the last simulated pass, and the state it began in.
        let mut pass = LevelStats::default();
        let mut missed: Vec<u32> = Vec::new();
        let mut began: Option<Private> = None;
        for p in 0..warmup + measured {
            if !began.as_ref().is_some_and(|b| b.same_state(&private)) {
                began = Some(private.clone());
                pass = LevelStats::default();
                missed.clear();
                for chunk in stream.chunks(CHUNK) {
                    let mut word = 0u32;
                    for (j, &addr) in chunk.iter().enumerate() {
                        if private.access(addr, &mut pass) {
                            word |= 1 << j;
                        }
                    }
                    missed.push(word);
                }
            }
            let measuring = p >= warmup;
            if measuring {
                for s in &mut self.stats {
                    *s += pass;
                }
            }
            let Some(llc) = &mut llc else {
                continue;
            };
            for (chunk, &word) in stream.chunks(CHUNK).zip(&missed) {
                for (c, s) in self.stats.iter_mut().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let line = chunk[bits.trailing_zeros() as usize] / LINE_BYTES as u64;
                        let miss = !llc.access(c, line);
                        s.llc_misses += u64::from(miss && measuring);
                        bits &= bits - 1;
                    }
                }
            }
        }
        self.stats
    }

    /// Per-core statistics.
    pub fn stats(&self, core: usize) -> LevelStats {
        self.stats[core]
    }

    /// Clears statistics (contents stay warm).
    pub fn reset_stats(&mut self) {
        for s in &mut self.stats {
            *s = LevelStats::default();
        }
    }
}

/// The shared LLC of [`Hierarchy::replay`], indexed by line instead of
/// searched by tag. Every line it sees is a stream line `l` of some
/// core `c`, shifted by `c × CHAIN_SPACING`, so each has the dense slot
/// `c × lines + l`. Under random replacement a hit changes no state:
/// it reads one bit of `resident`. A miss fills its set's next way
/// while the set has one (ways fill lowest first and never empty, as in
/// [`CacheSim`]), and otherwise evicts the way the same xorshift stream
/// names, clearing the bit of the slot that way `held`. So it hits,
/// misses and evicts exactly where a [`CacheSim`] of the same geometry
/// fed the shifted addresses would.
#[derive(Debug)]
struct Residency {
    geometry: Geometry,
    /// Stream lines per core: one past the highest.
    lines: usize,
    /// One bit per slot: whether the slot's line is cached.
    resident: Vec<u64>,
    /// Per set, the ways filled so far.
    filled: Vec<u32>,
    /// held[set * ways + way]: the slot cached in that way.
    held: Vec<u32>,
    rng_state: u64,
}

impl Residency {
    fn new(geometry: Geometry, lines: usize, cores: usize) -> Self {
        let slots = lines * cores;
        assert!(slots <= 1 << u32::BITS, "a slot must fit in a u32");
        Self {
            geometry,
            lines,
            resident: vec![0; slots.div_ceil(64)],
            filled: vec![0; geometry.sets],
            held: vec![0; geometry.sets * geometry.ways],
            rng_state: RNG_SEED,
        }
    }

    /// Accesses stream line `line` of `core`; returns `true` on hit.
    fn access(&mut self, core: usize, line: u64) -> bool {
        let slot = core * self.lines + line as usize;
        let bit = 1u64 << (slot % 64);
        if self.resident[slot / 64] & bit != 0 {
            return true;
        }
        self.resident[slot / 64] |= bit;
        let (set, _) = self
            .geometry
            .locate(line + core as u64 * CHAIN_SPACING_LINES);
        let ways = self.geometry.ways;
        let filled = self.filled[set] as usize;
        let way = if filled < ways {
            self.filled[set] += 1;
            filled
        } else {
            let way = next_victim(&mut self.rng_state, ways);
            let evicted = self.held[set * ways + way] as usize;
            self.resident[evicted / 64] &= !(1 << (evicted % 64));
            way
        };
        self.held[set * ways + way] = slot as u32;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_traced_lru_sequence() {
        // 2 sets × 2 ways × 64 B = 256 B cache. Lines A=0, B=128,
        // C=256 all map to set 0.
        let mut c = CacheSim::new(256, 2, Replacement::Lru);
        assert!(!c.access(0)); // A miss
        assert!(!c.access(128)); // B miss
        assert!(c.access(0)); // A hit
        assert!(!c.access(256)); // C miss, evicts B (LRU)
        assert!(c.access(0)); // A still resident
        assert!(!c.access(128)); // B was evicted
        assert_eq!(c.accesses(), 6);
        assert_eq!(c.misses(), 4);
    }

    #[test]
    fn same_line_offsets_hit() {
        let mut c = CacheSim::new(1024, 4, Replacement::Lru);
        assert!(!c.access(100));
        assert!(c.access(101)); // same 64-byte line
        assert!(c.access(127));
        assert!(!c.access(128)); // next line
    }

    #[test]
    fn fitting_working_set_has_no_steady_state_misses() {
        let mut c = CacheSim::new(64 * 1024, 8, Replacement::Lru);
        for _ in 0..3 {
            for a in (0..32 * 1024u64).step_by(64) {
                c.access(a);
            }
        }
        c.reset_stats();
        for a in (0..32 * 1024u64).step_by(64) {
            assert!(c.access(a), "steady-state sweep should hit");
        }
    }

    #[test]
    fn lru_thrashes_on_oversized_cyclic_sweep() {
        // Working set 2× the cache: LRU gives ~0 hits on cyclic sweeps.
        let mut c = CacheSim::new(16 * 1024, 8, Replacement::Lru);
        for _ in 0..3 {
            for a in (0..32 * 1024u64).step_by(64) {
                c.access(a);
            }
        }
        c.reset_stats();
        for a in (0..32 * 1024u64).step_by(64) {
            c.access(a);
        }
        assert_eq!(
            c.misses(),
            c.accesses(),
            "LRU cyclic over-capacity thrashes"
        );
    }

    #[test]
    fn random_replacement_retains_a_nonzero_fraction() {
        // Working set 2× the cache with random replacement: the
        // steady-state fixed point h = (1 − 1/ways)^(W_set·(1−h)) gives
        // h ≈ 0.19 for 16 ways — far from LRU's 0.
        let mut c = CacheSim::new(64 * 1024, 16, Replacement::Random);
        for _ in 0..6 {
            for a in (0..128 * 1024u64).step_by(64) {
                c.access(a);
            }
        }
        c.reset_stats();
        for _ in 0..4 {
            for a in (0..128 * 1024u64).step_by(64) {
                c.access(a);
            }
        }
        let hit_rate = 1.0 - c.misses() as f64 / c.accesses() as f64;
        assert!(
            (hit_rate - 0.19).abs() < 0.08,
            "hit rate {hit_rate} should be near the random-replacement fixed point 0.19"
        );
    }

    #[test]
    fn misses_never_exceed_accesses() {
        let mut c = CacheSim::new(4096, 4, Replacement::Random);
        for a in (0..1_000_000u64).step_by(97) {
            c.access(a);
        }
        assert!(c.misses() <= c.accesses());
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn rejects_bad_geometry() {
        let _ = CacheSim::new(1000, 3, Replacement::Lru);
    }

    #[test]
    fn hierarchy_counts_levels_correctly() {
        let mut h = Hierarchy::new(2, 1024, 4096, 64 * 1024, 16);
        // Core 0 touches one line twice: first access misses all the
        // way out, second hits in L1.
        h.access(0, 0);
        h.access(0, 0);
        let s = h.stats(0);
        assert_eq!(s.accesses, 2);
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l2_misses, 1);
        assert_eq!(s.llc_misses, 1);
        // Core 1 is untouched.
        assert_eq!(h.stats(1), LevelStats::default());
    }

    #[test]
    fn llc_is_shared_between_cores() {
        // One-set, 8-way L1 and L2 and a 64-set LLC. Core 0 caches line
        // 0, then pushes it out of its private levels with eight lines
        // that land in other LLC sets; core 1 then floods LLC set 0.
        // Returns whether core 0's second touch of line 0 missed the LLC.
        let second_touch_misses_llc = |partitioned| {
            let mut h = Hierarchy::with_partitioning(2, 512, 512, 64 * 1024, 16, partitioned);
            for line in 0..=8u64 {
                h.access(0, line * 64);
            }
            for k in 0..256u64 {
                h.access(1, (1 << 30) + k * 64 * 64);
            }
            let before = h.stats(0);
            h.access(0, 0);
            let after = h.stats(0);
            assert_eq!(
                after.l2_misses,
                before.l2_misses + 1,
                "left the private levels"
            );
            after.llc_misses > before.llc_misses
        };
        assert!(
            second_touch_misses_llc(false),
            "core 1 evicted it from the shared LLC"
        );
        assert!(
            !second_touch_misses_llc(true),
            "core 1 cannot reach core 0's slice"
        );
    }

    #[test]
    #[should_panic(expected = "stream line at or past the chain spacing")]
    fn replay_rejects_a_stream_line_past_the_chain_spacing() {
        // Core 0's line 2^24 would be core 1's line 0.
        let h = Hierarchy::new(2, 1024, 4096, 65536, 16);
        let _ = h.replay(&[0, CHAIN_SPACING], 1, 1);
    }

    /// The tags a [`CacheSim`] of the index's geometry holds when it
    /// has seen what the index has: way `w` of set `s` holds the line of
    /// slot `held[s × ways + w]` while `w` is below the set's fill.
    /// Checks on the way that every held slot, and no other, is resident.
    fn tags_of(index: &Residency) -> Vec<u64> {
        let g = index.geometry;
        let mut tags = vec![u64::MAX; g.sets * g.ways];
        for set in 0..g.sets {
            for way in 0..index.filled[set] as usize {
                let slot = index.held[set * g.ways + way] as usize;
                let (core, line) = (slot / index.lines, slot % index.lines);
                let (at, tag) = g.locate(line as u64 + core as u64 * CHAIN_SPACING_LINES);
                assert_eq!(at, set, "slot {slot} held in the wrong set");
                assert!(index.resident[slot / 64] & 1 << (slot % 64) != 0);
                tags[set * g.ways + way] = tag;
            }
        }
        let resident: u32 = index.resident.iter().map(|w| w.count_ones()).sum();
        let held: u32 = index.filled.iter().sum();
        assert_eq!(resident, held, "a resident slot that no way holds");
        tags
    }

    #[test]
    fn residency_index_hits_and_evicts_where_the_tag_array_does() {
        // One set, so every core's lines compete for the same ways, and
        // few lines, so a line comes back soon after another core's
        // turn in the same chunk evicted it.
        const LINES: u64 = 24;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let stream: Vec<u64> = (0..8 * CHUNK)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 33) % LINES
            })
            .collect();
        for ways in [1, 3, 20] {
            for cores in [2, 4] {
                let case = format!("{ways} ways, {cores} cores");
                let mut sim = CacheSim::new(ways * LINE_BYTES, ways, Replacement::Random);
                let mut index = Residency::new(sim.geometry, LINES as usize, cores);
                // Per slot: the core and chunk of the access that last
                // evicted it.
                let mut evicted_by = std::collections::HashMap::new();
                let mut retouched = 0;
                for (k, chunk) in stream.chunks(CHUNK).enumerate() {
                    for core in 0..cores {
                        for &line in chunk {
                            let slot = core * LINES as usize + line as usize;
                            if evicted_by
                                .get(&slot)
                                .is_some_and(|&(by, at)| by != core && at == k)
                            {
                                retouched += 1;
                            }
                            let before = index.resident.clone();
                            let addr = line * LINE_BYTES as u64 + core as u64 * CHAIN_SPACING;
                            assert_eq!(index.access(core, line), sim.access(addr), "{case}");
                            assert_eq!(tags_of(&index), sim.tags, "{case}: victims differ");
                            assert_eq!(index.rng_state, sim.rng_state, "{case}");
                            for (w, (b, a)) in before.iter().zip(&index.resident).enumerate() {
                                let mut gone = b & !a;
                                while gone != 0 {
                                    let evicted = w * 64 + gone.trailing_zeros() as usize;
                                    evicted_by.insert(evicted, (core, k));
                                    gone &= gone - 1;
                                }
                            }
                        }
                    }
                }
                assert!(
                    retouched > 0,
                    "{case}: no core touched a line another core evicted in the same chunk"
                );
            }
        }
    }
}
