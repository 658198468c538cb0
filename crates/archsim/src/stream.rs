//! Synthetic per-leapfrog access streams.
//!
//! One NUTS leapfrog step evaluates the log-posterior gradient once:
//! a forward pass that reads the modeled data and writes the AD tape,
//! then a reverse pass that walks the tape backwards accumulating
//! adjoints. The stream generator reproduces that reference pattern at
//! 64-byte-line granularity:
//!
//! * forward: an interleaved sequential sweep over the data region and
//!   the tape region (likelihood terms read data as they tape);
//! * reverse: a sequential sweep over the tape region, backwards;
//! * plus a small parameter/momentum region touched at both ends.
//!
//! Chain `c` starts at `c × CHAIN_SPACING` (chains share no state).

/// Bytes between consecutive chains' base addresses. A chain's working
/// set must fit in it, or neighbouring chains would share lines.
pub const CHAIN_SPACING: u64 = 1 << 30;

/// Memory layout of one chain's working set.
#[derive(Debug, Clone, Copy)]
pub struct ChainLayout {
    /// Base byte address of the chain's arena.
    pub base: u64,
    /// Bytes of modeled data.
    pub data_bytes: u64,
    /// Bytes of AD tape + adjoints.
    pub tape_bytes: u64,
    /// Bytes of parameter/momentum state.
    pub state_bytes: u64,
}

impl ChainLayout {
    /// Lays out chain `chain` for a workload with the given footprint.
    /// Chains are spaced [`CHAIN_SPACING`] apart so that, while the
    /// working set fits in it, their lines never alias as the same
    /// address (they may still conflict in cache sets, as in reality).
    pub fn for_chain(chain: usize, data_bytes: usize, tape_bytes: usize, dim: usize) -> Self {
        Self {
            base: chain as u64 * CHAIN_SPACING,
            data_bytes: data_bytes as u64,
            tape_bytes: tape_bytes as u64,
            state_bytes: (dim * 8 * 4) as u64,
        }
    }

    /// Working-set bytes of the chain, from `base` to the end of its
    /// last line: each region starts on a line and the state takes at
    /// least one.
    pub fn working_set(&self) -> u64 {
        self.data_bytes.next_multiple_of(LINE)
            + self.tape_bytes.next_multiple_of(LINE)
            + (self.state_bytes / LINE).max(1) * LINE
    }
}

const LINE: u64 = 64;

/// Generates the line addresses of one leapfrog step of the chain, in
/// program order.
pub fn leapfrog_stream(l: &ChainLayout) -> Vec<u64> {
    let data_base = l.base;
    let tape_base = l.base + l.data_bytes.next_multiple_of(LINE);
    let state_base = tape_base + l.tape_bytes.next_multiple_of(LINE);

    let data_lines = l.data_bytes / LINE;
    let tape_lines = l.tape_bytes / LINE;
    let state_lines = (l.state_bytes / LINE).max(1);

    let mut out = Vec::with_capacity((2 * tape_lines + data_lines + 2 * state_lines) as usize);

    // Read parameters / refresh momentum.
    for i in 0..state_lines {
        out.push(state_base + i * LINE);
    }
    // Forward pass: data and tape sweeps interleaved in proportion.
    if tape_lines > 0 {
        let ratio = data_lines as f64 / tape_lines as f64;
        let mut data_cursor = 0.0f64;
        let mut d = 0u64;
        for t in 0..tape_lines {
            out.push(tape_base + t * LINE);
            data_cursor += ratio;
            while (d as f64) < data_cursor && d < data_lines {
                out.push(data_base + d * LINE);
                d += 1;
            }
        }
        while d < data_lines {
            out.push(data_base + d * LINE);
            d += 1;
        }
    } else {
        for d in 0..data_lines {
            out.push(data_base + d * LINE);
        }
    }
    // Reverse pass over the tape.
    for t in (0..tape_lines).rev() {
        out.push(tape_base + t * LINE);
    }
    // Write updated parameters/momentum.
    for i in 0..state_lines {
        out.push(state_base + i * LINE);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_disjoint_across_chains() {
        let a = ChainLayout::for_chain(0, 1 << 20, 4 << 20, 100);
        let b = ChainLayout::for_chain(1, 1 << 20, 4 << 20, 100);
        assert!(a.base + a.working_set() < b.base);
        assert_eq!(a.working_set(), (1 << 20) + (4 << 20) + 3200);
    }

    #[test]
    fn stream_covers_tape_twice_and_data_once() {
        let l = ChainLayout::for_chain(0, 64 * 10, 64 * 20, 8);
        let s = leapfrog_stream(&l);
        let tape_base = l.base + l.data_bytes;
        let tape_hits = s
            .iter()
            .filter(|&&a| a >= tape_base && a < tape_base + l.tape_bytes)
            .count();
        let data_hits = s.iter().filter(|&&a| a < l.base + l.data_bytes).count();
        assert_eq!(tape_hits, 40, "tape swept forward + reverse");
        assert_eq!(data_hits, 10, "data swept once");
    }

    #[test]
    fn stream_is_line_aligned() {
        let l = ChainLayout::for_chain(2, 640, 1280, 4);
        for a in leapfrog_stream(&l) {
            assert_eq!(a % 64, 0);
            assert!(a >= l.base);
        }
    }
}
