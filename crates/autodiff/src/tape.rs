//! The operation tape (Wengert list) behind reverse-mode AD.

use crate::var::Var;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::ops::Deref;

/// One recorded elementary operation: up to two parents with the local
/// partial derivative of the node with respect to each.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) parents: [u32; 2],
    pub(crate) weights: [f64; 2],
}

/// Size statistics of a tape, used by the architecture simulation as a
/// working-set probe (Section V-A of the paper: intermediates in the
/// inference algorithm amplify KB-scale modeled data to MB-scale
/// working sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TapeStats {
    /// Number of recorded elementary operations (≈ flops per pass).
    pub nodes: usize,
    /// Bytes occupied by the tape nodes plus one adjoint slot per node.
    pub bytes: usize,
    /// Transcendental operations (`exp`, `ln`, `lgamma`, …) among
    /// [`TapeStats::nodes`] — long-latency kernels that depress IPC.
    /// The performance model uses the ratio to differentiate the
    /// dense-linear-algebra workloads (high IPC) from the
    /// special-function-heavy ones, as in Figure 1a of the paper.
    pub transcendental: usize,
}

impl TapeStats {
    fn of(nodes: usize, transcendental: usize) -> Self {
        Self {
            nodes,
            bytes: nodes * (std::mem::size_of::<Node>() + std::mem::size_of::<f64>()),
            transcendental,
        }
    }

    /// Merges the statistics of another tape (or of another term of a
    /// per-term gradient, see [`Leaves::grad_term`]) into this one.
    pub fn merge(&mut self, other: TapeStats) {
        self.nodes += other.nodes;
        self.bytes += other.bytes;
        self.transcendental += other.transcendental;
    }
}

impl std::ops::Add for TapeStats {
    type Output = TapeStats;

    fn add(mut self, rhs: TapeStats) -> TapeStats {
        self.merge(rhs);
        self
    }
}

impl std::ops::AddAssign for TapeStats {
    fn add_assign(&mut self, rhs: TapeStats) {
        self.merge(rhs);
    }
}

/// A reverse-mode AD tape. Create leaf variables with [`Tape::var`],
/// build an expression with [`Var`] arithmetic, then call [`Tape::grad`].
///
/// Interior mutability lets `Var` stay `Copy`; the tape is not `Sync`.
/// It is built to be long-lived: [`Tape::reset`] and
/// [`Tape::truncate`] keep the node allocation, and the reverse sweep
/// reuses one adjoint buffer, so a thread that evaluates gradients in
/// a loop on one tape stops allocating once the buffers have grown to
/// the largest expression it records.
///
/// # Example
///
/// ```
/// use bayes_autodiff::Tape;
///
/// let tape = Tape::new();
/// let x = tape.var(2.0);
/// let y = x * x + x.ln();
/// let g = tape.grad(y);
/// assert!((g[x.index()] - (4.0 + 0.5)).abs() < 1e-12);
/// ```
#[derive(Debug, Default)]
pub struct Tape {
    /// The recorded operations, reached only through
    /// [`Tape::with_nodes`]. Not a `RefCell`: every `Var` operation
    /// pushes a node, and the borrow flag's check, set and reset on
    /// each push cost about a fifth of `nuts_tape`'s throughput
    /// (DESIGN.md §5b).
    nodes: UnsafeCell<Vec<Node>>,
    /// One adjoint per node, rewritten by every sweep.
    adjoints: RefCell<Vec<f64>>,
    /// The allocation behind [`Tape::leaves`] between calls; always
    /// empty, so its `'static` never names a live borrow.
    leaf_buf: RefCell<Vec<Var<'static>>>,
    transcendental: Cell<usize>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tape with room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: UnsafeCell::new(Vec::with_capacity(cap)),
            ..Self::default()
        }
    }

    /// Clears the tape for reuse, keeping its allocations.
    pub fn reset(&self) {
        self.with_nodes(Vec::clear);
        self.transcendental.set(0);
    }

    /// Drops every node from index `len` on, keeping the allocation;
    /// the next node recorded gets index `len` again. Any [`Var`] at
    /// or past `len` is stale: recording an operation on one panics.
    /// The transcendental count of [`Tape::stats`] is not rewound.
    pub fn truncate(&self, len: usize) {
        self.with_nodes(|nodes| nodes.truncate(len));
    }

    /// Registers a new leaf (independent) variable with value `value`.
    #[inline]
    pub fn var(&self, value: f64) -> Var<'_> {
        let idx = self.push([0, 0], [0.0, 0.0], true);
        Var::new(self, idx, value)
    }

    /// Clears the tape and registers one leaf per element of `x`, so
    /// the leaves are nodes `0..x.len()`. The handles live in a buffer
    /// the tape takes back when the guard drops.
    pub fn leaves(&self, x: &[f64]) -> Leaves<'_> {
        self.reset();
        // Shortening `'static` to the borrow of `self` is plain
        // covariance; the buffer is empty, so it names no borrow yet.
        let mut vars: Vec<Var<'_>> = self.leaf_buf.take();
        vars.extend(x.iter().map(|&v| self.var(v)));
        Leaves { tape: self, vars }
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.with_nodes(|nodes| nodes.len())
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current size statistics: the nodes on the tape now, and the
    /// transcendental operations recorded since the last reset.
    pub fn stats(&self) -> TapeStats {
        TapeStats::of(self.len(), self.transcendental.get())
    }

    #[inline]
    pub(crate) fn note_transcendental(&self) {
        self.transcendental.set(self.transcendental.get() + 1);
    }

    /// Appends a node and returns its index.
    ///
    /// # Panics
    ///
    /// Panics unless every parent of a non-leaf node is below the new
    /// node's index: a parent at or past it can only be a [`Var`] that
    /// outlived a [`Tape::truncate`] or came from another tape. The
    /// reverse sweep indexes without bounds checks on the strength of
    /// this check.
    #[inline]
    pub(crate) fn push(&self, parents: [u32; 2], weights: [f64; 2], leaf: bool) -> u32 {
        self.with_nodes(|nodes| {
            debug_assert!(
                nodes.len() < u32::MAX as usize,
                "tape node index overflows u32"
            );
            let idx = nodes.len() as u32;
            if !leaf && ((parents[0] >= idx) | (parents[1] >= idx)) {
                dangling_parent(parents, idx);
            }
            // A leaf points at itself with zero weight so the reverse
            // sweep treats it as a source.
            let parents = if leaf { [idx, idx] } else { parents };
            nodes.push(Node { parents, weights });
            idx
        })
    }

    /// Runs `f` on the node list, which it borrows exclusively for the
    /// call. `f` must not reach this tape.
    #[inline]
    fn with_nodes<T>(&self, f: impl FnOnce(&mut Vec<Node>) -> T) -> T {
        // SAFETY: no other reference to the list exists while `f` runs.
        // `Tape` is not `Sync`, so no other thread holds one; every
        // caller in this module passes an `f` that does not call back
        // into the tape, so this thread holds none either; and none
        // outlives the call, since `T` cannot borrow from `f`'s
        // argument.
        f(unsafe { &mut *self.nodes.get() })
    }

    /// The reverse sweep. Propagates ∂`output` back through nodes
    /// `from..=output`, highest index first, and writes the adjoints of
    /// nodes `0..leaf_adjoints.len()` into `leaf_adjoints`.
    ///
    /// The nodes of the segment may refer only to each other and to
    /// those first nodes, which holds for anything recorded from the
    /// handles of [`Tape::leaves`] after a [`Tape::truncate`] back to
    /// `from`. The adjoint of a leaf is then the same sequence of `+=`
    /// it would see if the segment sat alone on a private tape behind
    /// its own copy of the leaves, so the result is the same to the
    /// bit — node indices shift, no floating-point operation does.
    ///
    /// # Panics
    ///
    /// Panics if `output` was created on a different tape, or if the
    /// leaves do not end before the segment starts.
    pub fn sweep_segment(&self, from: usize, output: Var<'_>, leaf_adjoints: &mut [f64]) {
        assert!(
            std::ptr::eq(output.tape(), self),
            "output variable belongs to a different tape"
        );
        let leaves = leaf_adjoints.len();
        assert!(leaves <= from, "leaves overlap the swept segment");
        let mut adj = self.adjoints.borrow_mut();
        self.with_nodes(|nodes| {
            adj.clear();
            adj.resize(nodes.len(), 0.0);
            let out = output.index();
            adj[out] = 1.0;
            // An output below `from` is a leaf (or a node the caller
            // excluded): there is nothing to propagate through.
            if out >= from {
                reverse(nodes, &mut adj, from, out);
            }
        });
        leaf_adjoints.copy_from_slice(&adj[..leaves]);
    }

    /// Reverse sweep over the whole tape: returns the adjoint
    /// (∂output/∂node) for every node. Index with [`Var::index`].
    ///
    /// # Panics
    ///
    /// Panics if `output` was created on a different tape.
    pub fn grad(&self, output: Var<'_>) -> Vec<f64> {
        self.sweep_segment(0, output, &mut []);
        self.adjoints.borrow().clone()
    }
}

#[cold]
#[inline(never)]
fn dangling_parent(parents: [u32; 2], idx: u32) -> ! {
    panic!("parent {parents:?} of tape node {idx} is not below it: a stale or foreign variable")
}

/// The reverse loop of [`Tape::sweep_segment`]: propagates the seeded
/// `adj[out]` back through nodes `from..=out`, highest index first,
/// applying `adj[p] += w·a` for each edge `p ← i` of weight `w` out of
/// a node whose adjoint `a` is nonzero. Every slot ends up with the
/// bits a plain indexed loop over the same edges leaves in it; what
/// differs is how the loop touches memory:
///
/// * No bounds checks on the parents' slots. [`Tape::push`] records a
///   non-leaf node only if both of its parents are below it, and the
///   output is checked against the tape once.
/// * No reloads. A node reads its parents' slots and the slot of node
///   `i − 1` before it stores anything, and computes its second edge
///   from its first in a register when both name one parent (every
///   unary node, and `x·x`). The adjoint of `i − 1` is final once node
///   `i` is done; the next iteration takes it from the register that
///   holds it — the sum just stored, or the value read before the
///   stores — instead of loading a slot that was just written, so no
///   store-to-load round trip sits on the chain from one node's
///   adjoint to the next.
///
/// Kept out of line: inlined into [`Tape::sweep_segment`], an earlier
/// form of this loop measured about 5% slower per node.
#[inline(never)]
fn reverse(nodes: &[Node], adj: &mut [f64], from: usize, out: usize) {
    assert!(
        out < nodes.len() && adj.len() == nodes.len(),
        "output {out} is not a node of the tape"
    );
    let mut i = out;
    let mut a = adj[i];
    loop {
        let Node { parents, weights } = nodes[i];
        let [p0, p1] = parents.map(|p| p as usize);
        // A zero adjoint passes nothing on, and neither does a leaf,
        // which names itself as its parent.
        let carried = if a == 0.0 || p0 == i {
            None
        } else {
            let below = i - 1;
            // SAFETY: `Tape::push` records a non-leaf node only if both
            // of its parents are below it, so `p0`, `p1` and `below`
            // are all below `i <= out < adj.len()`.
            unsafe {
                let s0 = *adj.get_unchecked(p0);
                let s1 = *adj.get_unchecked(p1);
                let s_below = *adj.get_unchecked(below);
                let v0 = s0 + weights[0] * a;
                // Second edge: the first edge's sum when both name one
                // parent.
                let base = if p1 == p0 { v0 } else { s1 };
                let v1 = base + weights[1] * a;
                *adj.get_unchecked_mut(p0) = v0;
                *adj.get_unchecked_mut(p1) = v1;
                Some(if p1 == below {
                    v1
                } else if p0 == below {
                    v0
                } else {
                    s_below
                })
            }
        };
        if i == from {
            break;
        }
        i -= 1;
        a = match carried {
            Some(adjoint) => adjoint,
            None => adj[i],
        };
    }
}

/// The leaf variables of a gradient evaluation, from [`Tape::leaves`]:
/// a slice of [`Var`] handles for nodes `0..len` of the tape.
#[derive(Debug)]
pub struct Leaves<'t> {
    tape: &'t Tape,
    vars: Vec<Var<'t>>,
}

impl<'t> Leaves<'t> {
    /// Evaluates one term of a sum over these leaves: records
    /// `f(leaves)` behind what is on the tape, sweeps only the nodes
    /// just recorded, writes ∂f/∂leaf into `grad`, and truncates the
    /// tape back to where it was. Returns the value of the term and
    /// its statistics, counted as a private tape would count them:
    /// the leaves plus the nodes of the term.
    ///
    /// # Panics
    ///
    /// Panics if `grad` is not one slot per leaf.
    #[inline]
    pub fn grad_term<F>(&self, grad: &mut [f64], f: F) -> (f64, TapeStats)
    where
        F: FnOnce(&[Var<'t>]) -> Var<'t>,
    {
        assert_eq!(grad.len(), self.vars.len(), "one gradient slot per leaf");
        let from = self.tape.len();
        let transcendental = self.tape.transcendental.get();
        let out = f(&self.vars);
        self.tape.sweep_segment(from, out, grad);
        let stats = TapeStats::of(
            self.vars.len() + self.tape.len() - from,
            self.tape.transcendental.get() - transcendental,
        );
        self.tape.truncate(from);
        self.tape.transcendental.set(transcendental);
        (out.value(), stats)
    }
}

impl<'t> Deref for Leaves<'t> {
    type Target = [Var<'t>];

    fn deref(&self) -> &[Var<'t>] {
        &self.vars
    }
}

impl Drop for Leaves<'_> {
    fn drop(&mut self) {
        let mut vars = std::mem::take(&mut self.vars);
        vars.clear();
        // Nothing is mapped; collecting an emptied vector into one of
        // the same element layout hands its allocation over.
        *self.tape.leaf_buf.borrow_mut() = vars
            .into_iter()
            .map(|_| -> Var<'static> { unreachable!("the vector was cleared") })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tape() {
        let t = Tape::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.stats().nodes, 0);
    }

    #[test]
    fn leaf_gradient_is_identity() {
        let t = Tape::new();
        let x = t.var(5.0);
        let g = t.grad(x);
        assert_eq!(g[x.index()], 1.0);
    }

    #[test]
    fn unused_leaf_gets_zero_adjoint() {
        let t = Tape::new();
        let x = t.var(1.0);
        let y = t.var(2.0);
        let out = x * x;
        let g = t.grad(out);
        assert_eq!(g[y.index()], 0.0);
        assert_eq!(g[x.index()], 2.0);
    }

    #[test]
    fn fan_out_accumulates_adjoints() {
        // f = x·x + x  →  f' = 2x + 1
        let t = Tape::new();
        let x = t.var(3.0);
        let f = x * x + x;
        let g = t.grad(f);
        assert!((g[x.index()] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn stats_grow_with_expression() {
        let t = Tape::new();
        let x = t.var(1.0);
        let before = t.stats().nodes;
        let _ = x.exp() + x.ln_1p();
        assert!(t.stats().nodes > before);
    }

    #[test]
    #[should_panic(expected = "different tape")]
    fn cross_tape_grad_panics() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let x = t1.var(1.0);
        let _ = t2.grad(x);
    }

    #[test]
    fn reset_clears_nodes_and_transcendental_count() {
        let t = Tape::new();
        let x = t.var(1.0);
        let _ = x.exp() + x * x;
        assert!(t.stats().nodes > 0);
        assert!(t.stats().transcendental > 0);
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.stats(), TapeStats::default());
        // The tape is fully usable again after a reset.
        let y = t.var(3.0);
        let g = t.grad(y * y);
        assert!((g[y.index()] - 6.0).abs() < 1e-12);
    }

    /// `f = a·b + exp(a)` on a tape of its own: the reference every
    /// segment sweep below must reproduce to the bit.
    fn private_tape(a: f64, b: f64) -> (f64, [f64; 2], TapeStats) {
        let t = Tape::new();
        let (x, y) = (t.var(a), t.var(b));
        let f = x * y + x.exp();
        let g = t.grad(f);
        (f.value(), [g[x.index()], g[y.index()]], t.stats())
    }

    #[test]
    fn segment_after_truncate_reuses_indices_and_matches_a_private_tape() {
        let t = Tape::new();
        let leaves = t.leaves(&[0.7, -1.3]);
        let mut g = [0.0; 2];
        // A first term leaves nothing behind it ...
        let first = leaves.grad_term(&mut g, |v| v[0] * v[0] * v[1] + v[1].ln_1p());
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats(), TapeStats::of(2, 0));
        assert_eq!(first.1, TapeStats::of(2 + 4, 1));
        // ... so the second is recorded at the same indices, by hand
        // here to see them.
        let f = leaves[0] * leaves[1] + leaves[0].exp();
        assert_eq!(f.index(), 4);
        t.sweep_segment(2, f, &mut g);
        t.truncate(2);
        let (value, grad, _) = private_tape(0.7, -1.3);
        assert_eq!(f.value().to_bits(), value.to_bits());
        assert_eq!(g.map(f64::to_bits), grad.map(f64::to_bits));
        assert_eq!(t.var(0.0).index(), 2);
    }

    #[test]
    fn grad_term_counts_the_leaves_once_per_term() {
        let t = Tape::new();
        let leaves = t.leaves(&[0.7, -1.3]);
        let mut g = [0.0; 2];
        let (value, stats) = leaves.grad_term(&mut g, |v| v[0] * v[1] + v[0].exp());
        let (ref_value, ref_grad, ref_stats) = private_tape(0.7, -1.3);
        assert_eq!(value.to_bits(), ref_value.to_bits());
        assert_eq!(g.map(f64::to_bits), ref_grad.map(f64::to_bits));
        assert_eq!(stats, ref_stats);
    }

    #[test]
    fn an_output_that_is_a_leaf_has_a_unit_gradient() {
        let t = Tape::new();
        let leaves = t.leaves(&[4.0, 5.0, 6.0]);
        let mut g = [f64::NAN; 3];
        let (value, stats) = leaves.grad_term(&mut g, |v| v[1]);
        assert_eq!(value, 5.0);
        assert_eq!(g, [0.0, 1.0, 0.0]);
        assert_eq!(stats.nodes, 3);
    }

    #[test]
    fn an_empty_shards_zero_term_has_a_zero_gradient() {
        // What a likelihood over an empty range records: `θ₀·0`.
        let t = Tape::new();
        let leaves = t.leaves(&[2.5, -1.0]);
        let mut g = [f64::NAN; 2];
        let (value, stats) = leaves.grad_term(&mut g, |v| v[0] * 0.0);
        assert_eq!(value, 0.0);
        assert_eq!(g, [0.0, 0.0]);
        assert_eq!(stats, TapeStats::of(3, 0));
    }

    #[test]
    fn a_panic_while_recording_leaves_the_tape_usable() {
        let t = Tape::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let leaves = t.leaves(&[1.0, 2.0]);
            let mut g = [0.0; 2];
            leaves.grad_term(&mut g, |v| {
                let _ = v[0].exp() * v[1];
                panic!("density failed");
            })
        }));
        assert!(unwound.is_err());
        // No `RefCell` is left borrowed, the stale nodes and count are
        // cleared by the next `leaves`, and its buffer came back.
        assert!(t.leaf_buf.borrow().capacity() >= 2);
        let leaves = t.leaves(&[0.7, -1.3]);
        let mut g = [0.0; 2];
        let (value, stats) = leaves.grad_term(&mut g, |v| v[0] * v[1] + v[0].exp());
        let (ref_value, ref_grad, ref_stats) = private_tape(0.7, -1.3);
        assert_eq!(value.to_bits(), ref_value.to_bits());
        assert_eq!(g.map(f64::to_bits), ref_grad.map(f64::to_bits));
        assert_eq!(stats, ref_stats);
    }

    #[test]
    #[should_panic(expected = "leaves overlap")]
    fn leaves_inside_the_segment_are_rejected() {
        let t = Tape::new();
        let leaves = t.leaves(&[1.0, 2.0]);
        t.sweep_segment(1, leaves[0] * leaves[1], &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "not below it")]
    fn a_var_that_outlived_a_truncate_panics() {
        let t = Tape::new();
        let leaves = t.leaves(&[1.5]);
        let stale = leaves[0].exp();
        t.truncate(1);
        // The next node takes the stale variable's index.
        let _ = leaves[0] * stale;
    }

    #[test]
    #[should_panic(expected = "not below it")]
    fn a_unary_op_on_a_stale_var_panics() {
        let t = Tape::new();
        let leaves = t.leaves(&[1.5, 2.5]);
        let stale = leaves[0] + leaves[1];
        let _ = stale * 3.0;
        t.truncate(2);
        let _ = stale.ln();
    }

    #[test]
    #[should_panic(expected = "different tapes")]
    fn a_var_from_another_tape_panics() {
        let (t1, t2) = (Tape::new(), Tape::new());
        let x = t1.var(1.0);
        let _ = t1.var(2.0);
        // Index 0 is below anything `t1` records next; only the tape
        // check can see that it is not `t1`'s node 0.
        let y = t2.var(3.0);
        let _ = x * y;
    }

    /// The reverse loop of `sweep_segment` as it stood before the
    /// register carry, the zero-weight skip and the unchecked indexing,
    /// verbatim: the reference the sweep is held to, sharing no code
    /// with it.
    fn sweep_segment_reference(
        tape: &Tape,
        from: usize,
        output: Var<'_>,
        leaf_adjoints: &mut [f64],
    ) {
        assert!(
            std::ptr::eq(output.tape(), tape),
            "output variable belongs to a different tape"
        );
        let leaves = leaf_adjoints.len();
        assert!(leaves <= from, "leaves overlap the swept segment");
        let nodes = tape.with_nodes(|nodes| nodes.clone());
        let mut adj = tape.adjoints.borrow_mut();
        adj.clear();
        adj.resize(nodes.len(), 0.0);
        let out = output.index();
        adj[out] = 1.0;
        // An output below `from` is a leaf (or a node the caller
        // excluded): there is nothing to propagate through.
        for i in (from..=out).rev() {
            let a = adj[i];
            if a == 0.0 {
                continue;
            }
            let node = nodes[i];
            for k in 0..2 {
                let p = node.parents[k] as usize;
                if p != i {
                    adj[p] += node.weights[k] * a;
                }
            }
        }
        leaf_adjoints.copy_from_slice(&adj[..leaves]);
    }

    /// SplitMix64: the property test's own reproducible stream.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A local partial: mostly ordinary, often exactly zero, now
        /// and then subnormal or non-finite.
        fn weight(&mut self) -> f64 {
            match self.below(40) {
                0..=7 => 0.0,
                8..=12 => 1.0,
                13..=15 => -1.0,
                16 | 17 => {
                    let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
                    sign * f64::from_bits(1 + self.next() % ((1 << 52) - 1))
                }
                18 => f64::INFINITY,
                19 => f64::NEG_INFINITY,
                20 => f64::NAN,
                _ => self.uniform(-3.0, 3.0),
            }
        }

        /// A parent of node `idx`: the node just before it half the
        /// time (the register carry's case), any earlier node otherwise.
        fn parent(&mut self, idx: u32) -> u32 {
            if self.below(2) == 0 {
                idx - 1
            } else {
                self.below(idx as usize) as u32
            }
        }
    }

    /// Records a random node of every kind the tape holds.
    fn push_random_node(t: &Tape, rng: &mut SplitMix) {
        let idx = t.len() as u32;
        match rng.below(9) {
            0 => {
                t.push([0, 0], [0.0, 0.0], true);
            }
            // Unary, as `Var::unary` records it: the second edge has
            // weight zero.
            1..=3 => {
                let p = rng.parent(idx);
                t.push([p, p], [rng.weight(), 0.0], false);
            }
            // `x·x`: both edges into one parent.
            4 => {
                let p = rng.parent(idx);
                t.push([p, p], [rng.weight(), rng.weight()], false);
            }
            _ => {
                let parents = [rng.parent(idx), rng.parent(idx)];
                t.push(parents, [rng.weight(), rng.weight()], false);
            }
        }
    }

    #[test]
    fn the_sweep_equals_the_reference_loop_to_the_bit() {
        let mut rng = SplitMix(0x005E_ED0F_5EE9);
        let (mut leaf_outputs, mut inner_leaves, mut non_finite) = (0, 0, 0);
        for case in 0..4000 {
            let t = Tape::new();
            let leaves = 1 + rng.below(4);
            for _ in 0..leaves {
                t.push([0, 0], [0.0, 0.0], true);
            }
            // Nodes between the leaves and the segment, which the
            // segment may read as well.
            for _ in 0..rng.below(3) {
                push_random_node(&t, &mut rng);
            }
            let from = t.len();
            for _ in 0..rng.below(48) {
                push_random_node(&t, &mut rng);
            }
            let len = t.len();
            let out = match rng.below(10) {
                0 => rng.below(leaves),
                1 | 2 => rng.below(len),
                _ => len - 1,
            };
            let output = Var::new(&t, out as u32, 0.0);
            if t.with_nodes(|nodes| {
                nodes[from..]
                    .iter()
                    .enumerate()
                    .any(|(k, n)| n.parents[0] as usize == from + k)
            }) {
                inner_leaves += 1;
            }
            if out < leaves {
                leaf_outputs += 1;
            }

            let mut expected_leaves = vec![0.0; leaves];
            sweep_segment_reference(&t, from, output, &mut expected_leaves);
            let expected = t.adjoints.borrow().clone();
            if expected.iter().any(|a| !a.is_finite()) {
                non_finite += 1;
            }
            let mut got_leaves = vec![f64::NAN; leaves];
            t.sweep_segment(from, output, &mut got_leaves);
            let got = t.adjoints.borrow();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expected), "case {case}: adjoints");
            assert_eq!(
                bits(&got_leaves),
                bits(&expected_leaves),
                "case {case}: leaf adjoints"
            );
        }
        // The stream reaches every situation the sweep special-cases.
        assert!(leaf_outputs > 100, "{leaf_outputs} leaf outputs");
        assert!(inner_leaves > 1000, "{inner_leaves} segments with leaves");
        assert!(non_finite > 200, "{non_finite} non-finite sweeps");
    }

    #[test]
    fn stats_merge_is_componentwise_sum() {
        let a = TapeStats {
            nodes: 3,
            bytes: 96,
            transcendental: 1,
        };
        let b = TapeStats {
            nodes: 5,
            bytes: 160,
            transcendental: 2,
        };
        let mut m = a;
        m += b;
        assert_eq!(m, a + b);
        assert_eq!(m.nodes, 8);
        assert_eq!(m.bytes, 256);
        assert_eq!(m.transcendental, 3);
    }
}
