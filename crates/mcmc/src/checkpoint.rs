//! Checkpoint/resume state for the fault-tolerant run supervisor.
//!
//! A [`RunCheckpoint`] captures everything needed to continue a
//! supervised run bit-identically: per-chain sampler state (position,
//! step size, mass matrix, adaptation accumulators, draw count) plus
//! the draw prefixes, the detector fingerprint, and the run
//! configuration it was taken under.
//!
//! # File layout
//!
//! A checkpoint file is a log of frames, one appended per checkpoint
//! boundary. A frame is one checksummed header line, one line of JSON
//! holding everything but the draw history (the structs below, each
//! declared once through [`bayes_obs::record!`], which writes and reads
//! that line), then one binary block per chain holding, as raw
//! little-endian words, the rows that chain drew since its previous
//! frame (every row, in a log's first frame):
//!
//! ```text
//! BAYESCKPT 3 <payload_len, 20 digits> <fnv1a64, 16 hex digits>\n
//! {"version":3,"model":…,"chain_states":[…]}\n
//! rows: u64 | draws: rows × dim f64 | evals_per_iter: rows u32     (chain 0)
//! rows: u64 | …                                                     (chain 1, …)
//! BAYESCKPT 3 …                                       (the next boundary's frame)
//! ```
//!
//! A frame's length and checksum cover everything after its header
//! line. A reader walks the frames in order and appends each block's
//! rows to its chain; the last frame that verifies supplies the state.
//! A torn or corrupt frame ends the walk, and a writer reopening the
//! log cuts the file there before it appends (DESIGN.md §8). The draws
//! are nearly all of a log; as raw bits they are written and read at
//! the cost of a copy and are exact by construction. The decoder checks
//! every length against `dim` and the bytes present before it
//! allocates.
//!
//! # Why no raw RNG state?
//!
//! Checkpoints deliberately do not serialize generator internals.
//! When checkpointing is enabled the sampler runs on *segmented* RNG
//! streams: at every detector checkpoint boundary `t` it re-derives
//! its generator from
//! `StreamKey::new(chain_stream_seed).chain(t).purpose(Purpose::Segment)`
//! (see [`segment_seed`]). A resumed chain reseeds at its resume
//! boundary exactly as the uninterrupted run would have, so the
//! remaining draws are bit-identical by construction. The trade-off:
//! a checkpointed run draws from different streams than a plain
//! (non-checkpointed) run of the same seed — consistent configs
//! compare bitwise, mixed configs do not (DESIGN.md §8).

use crate::stream::{Purpose, StreamKey};
use bayes_obs::json::{parse, Json};
use bayes_obs::schema::{read_field, Field};
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;

/// Current checkpoint-file schema version.
pub const CHECKPOINT_VERSION: u64 = 3;

/// Magic token opening the checksummed checkpoint header line.
const CHECKPOINT_MAGIC: &str = "BAYESCKPT";

/// How far into a file a reader looks for the header's newline: a
/// version, a 20-digit length and a 16-digit checksum fit with room to
/// spare.
const MAX_HEADER: usize = 64;

/// The `<name>.prev` sibling of `path`, where checkpoint versions 2
/// and earlier rotated their previous generation. Nothing writes it
/// any more: a log's earlier frames are its fallback. Callers that
/// clean up after older builds still name it through here.
pub fn previous_checkpoint_path(path: impl AsRef<Path>) -> std::path::PathBuf {
    let p = path.as_ref();
    let mut name = p.file_name().unwrap_or_default().to_os_string();
    name.push(".prev");
    p.with_file_name(name)
}

/// Seed of the RNG segment starting at iteration `iter` of the chain
/// whose transition stream seed is `chain_stream_seed`.
///
/// Segment boundaries are the detector checkpoint iterations, so the
/// schedule that decides where checkpoints may be written also decides
/// where streams are re-derived — resuming at a boundary reconstructs
/// the exact generator the uninterrupted run would have used there.
pub fn segment_seed(chain_stream_seed: u64, iter: usize) -> u64 {
    StreamKey::new(chain_stream_seed)
        .chain(iter as u64)
        .purpose(Purpose::Segment)
        .derive()
}

bayes_obs::record! {
    /// Serialized dual-averaging step-size adapter state.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct DualAveragingState {
        /// Shrinkage anchor `ln(10 ε₀)`.
        pub mu: f64,
        /// Current `ln ε`.
        pub log_eps: f64,
        /// Smoothed `ln ε` (frozen at warmup end).
        pub log_eps_bar: f64,
        /// Running acceptance-error average.
        pub h_bar: f64,
        /// Update count.
        pub t: f64,
        /// Target acceptance statistic.
        pub target: f64,
        /// Adaptation gain.
        pub gamma: f64,
        /// Iteration offset stabilizing early updates.
        pub t0: f64,
        /// Smoothing decay exponent.
        pub kappa: f64,
    }
}

bayes_obs::record! {
    /// Serialized Welford variance-accumulator state.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct WelfordState {
        /// Samples accumulated.
        pub n: f64,
        /// Running mean per dimension.
        pub mean: Vec<f64>,
        /// Running sum of squared deviations per dimension.
        pub m2: Vec<f64>,
    }
}

bayes_obs::record! {
    /// Everything one sampler needs to continue a chain from iteration
    /// [`SamplerCheckpoint::iter`] bit-identically (together with the
    /// segmented RNG stream — see [`segment_seed`]).
    ///
    /// The chain loop fills `iter` and the four counters below the
    /// adaptation states; [`crate::Sampler::snapshot`] fills the rest with
    /// what its state is. NUTS and static HMC use every field as named.
    /// Metropolis–Hastings keeps its position and log density in `q` and
    /// `lp` and its proposal scale in `eps`; its `grad` and `inv_mass` are
    /// empty and its adaptation states zero (DESIGN.md §8).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct SamplerCheckpoint {
        /// Iteration the checkpoint was taken at: the chain has completed
        /// iterations `[0, iter)` and resumes at `iter`, which must be a
        /// segment boundary.
        pub iter: usize,
        /// Current position (the draw of iteration `iter - 1`).
        pub q: Vec<f64>,
        /// Log-posterior at `q`.
        pub lp: f64,
        /// Gradient at `q`.
        pub grad: Vec<f64>,
        /// Step size the next iteration will use.
        pub eps: f64,
        /// Inverse mass diagonal.
        pub inv_mass: Vec<f64>,
        /// Dual-averaging adapter state.
        pub step_adapt: DualAveragingState,
        /// Mass-matrix Welford accumulator state.
        pub mass_adapt: WelfordState,
        /// Accumulated post-warmup acceptance statistic.
        pub accept_sum: f64,
        /// Post-warmup divergences so far.
        pub divergences: u64,
        /// Cumulative gradient evaluations so far.
        pub grad_evals: u64,
        /// Per-iteration gradient evaluations of iterations `[0, iter)`, as
        /// the chain hands it to the supervisor. The supervisor moves it
        /// into [`ChainCheckpoint::evals_per_iter`]; the file does not carry
        /// this one, so it is empty after a load.
        pub evals_per_iter: Vec<u32> = Vec::new(),
    }
}

bayes_obs::record! {
    /// One chain's slice of a [`RunCheckpoint`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct ChainCheckpoint {
        /// Chain index within the run.
        pub chain: usize,
        /// The transition-stream seed this chain runs on. Recorded
        /// explicitly (rather than re-derived from the run seed) because a
        /// reseeded retry may have moved the chain to a
        /// [`Purpose::Retry`]-derived stream.
        pub stream_seed: u64,
        /// Draws of iterations `[0, iter)`. Not in the state line: the
        /// chain's blocks hold them.
        pub draws: Vec<Vec<f64>> = Vec::new(),
        /// Gradient evaluations per iteration over the same prefix (in the
        /// blocks, too).
        pub evals_per_iter: Vec<u32> = Vec::new(),
        /// Sampler state at the checkpoint boundary.
        pub sampler: SamplerCheckpoint,
    }
}

bayes_obs::record! {
    /// Detector parameters a checkpoint was taken under. The checkpoint
    /// schedule doubles as the RNG segmentation schedule, so resuming with
    /// a different detector would silently change every stream — the
    /// fingerprint is validated on resume instead.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DetectorFingerprint {
        /// R̂ threshold.
        pub threshold: f64,
        /// Checking cadence.
        pub check_every: usize,
        /// First checkable iteration.
        pub min_iters: usize,
        /// Consecutive sub-threshold checkpoints required.
        pub consecutive: usize,
    }
}

bayes_obs::record! {
    /// A complete, resumable snapshot of a supervised run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunCheckpoint {
        /// Schema version ([`CHECKPOINT_VERSION`]).
        pub version: u64,
        /// Model (workload) name.
        pub model: String,
        /// Parameter dimensionality.
        pub dim: usize,
        /// Base run seed.
        pub seed: u64,
        /// Configured chain count.
        pub chains: usize,
        /// Configured iterations per chain.
        pub iters: usize,
        /// Configured warmup length.
        pub warmup: usize,
        /// Detector parameters (also the segmentation schedule).
        pub detector: DetectorFingerprint,
        /// Iteration the checkpoint captures: every chain has completed
        /// exactly `[0, iter)`.
        pub iter: usize,
        /// Per-chain state, in chain order.
        pub chain_states: Vec<ChainCheckpoint>,
    }
}

impl RunCheckpoint {
    /// Refuses per-dimension state of another length than `dim`: `q`
    /// always holds `dim` values; `grad`, `inv_mass` and the Welford
    /// vectors hold `dim` or none (a sampler that keeps no such state).
    fn check_dims(&self) -> Result<(), String> {
        for c in &self.chain_states {
            let s = &c.sampler;
            for (key, v, optional) in [
                ("q", &s.q, false),
                ("grad", &s.grad, true),
                ("inv_mass", &s.inv_mass, true),
                ("mean", &s.mass_adapt.mean, true),
                ("m2", &s.mass_adapt.m2, true),
            ] {
                if v.len() != self.dim && !(optional && v.is_empty()) {
                    return Err(format!(
                        "checkpoint: field '{key}' holds {} values, dim is {}",
                        v.len(),
                        self.dim
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The header line of a payload of `len` bytes with checksum `sum`.
/// Fixed-width, so a placeholder can be patched in place.
fn header(len: usize, sum: u64) -> String {
    format!("{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} {len:020} {sum:016x}\n")
}

/// Builds one frame: the JSON state, one block per chain from wherever
/// the caller keeps its rows, then the header's length and checksum.
/// [`RunCheckpoint::to_durable_bytes`] feeds it the checkpoint's own
/// chain states; the supervisor feeds it the rows its live buffers
/// gained since the log's previous frame, so no row is cloned on the
/// way to disk.
pub(crate) struct DurableWriter {
    out: Vec<u8>,
    header_len: usize,
}

impl DurableWriter {
    /// Starts the frame of `ck`: a placeholder header, then the JSON
    /// state. The chain states' `draws` and `evals_per_iter` are not
    /// read; one [`DurableWriter::block`] per chain state, in order,
    /// writes the rows.
    pub(crate) fn begin(ck: &RunCheckpoint) -> Self {
        let mut text = header(0, 0);
        let header_len = text.len();
        ck.write(&mut text);
        text.push('\n');
        Self {
            out: text.into_bytes(),
            header_len,
        }
    }

    /// Appends one chain's block: the row count, the rows as
    /// little-endian `f64`, one after another, then one little-endian
    /// `u32` eval count per row.
    pub(crate) fn block(&mut self, draws: &[Vec<f64>], evals_per_iter: &[u32]) {
        debug_assert_eq!(draws.len(), evals_per_iter.len(), "one eval count per row");
        let values: usize = draws.iter().map(Vec::len).sum();
        self.out.reserve(8 + 8 * values + 4 * evals_per_iter.len());
        self.out
            .extend_from_slice(&(draws.len() as u64).to_le_bytes());
        for v in draws.iter().flatten() {
            self.out.extend_from_slice(&v.to_le_bytes());
        }
        for n in evals_per_iter {
            self.out.extend_from_slice(&n.to_le_bytes());
        }
    }

    /// Fills in the header and returns the frame.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let payload = &self.out[self.header_len..];
        let line = header(payload.len(), bayes_obs::fnv1a64(payload));
        self.out[..self.header_len].copy_from_slice(line.as_bytes());
        self.out
    }
}

/// Splits the frame at the front of `bytes` into its payload, once the
/// header has been parsed and the length and checksum verified, and
/// the bytes after it.
fn next_frame(bytes: &[u8]) -> Result<(&[u8], &[u8]), String> {
    let rest = bytes
        .strip_prefix(CHECKPOINT_MAGIC.as_bytes())
        .and_then(|r| r.strip_prefix(b" "))
        .ok_or("checkpoint: no BAYESCKPT header")?;
    let end = rest
        .iter()
        .take(MAX_HEADER)
        .position(|&b| b == b'\n')
        .ok_or("checkpoint: header line is unterminated")?;
    let header = std::str::from_utf8(&rest[..end]).map_err(|_| "checkpoint: header is not text")?;
    let after = &rest[end + 1..];
    let mut fields = header.split(' ');
    let version: u64 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("checkpoint: header is missing the version")?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint: unsupported header version {version} (expected {CHECKPOINT_VERSION})"
        ));
    }
    let len: u64 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("checkpoint: header is missing the payload length")?;
    let sum = fields
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("checkpoint: header is missing the checksum")?;
    if fields.next().is_some() {
        return Err("checkpoint: header has trailing fields".into());
    }
    let len = usize::try_from(len)
        .ok()
        .filter(|&len| len <= after.len())
        .ok_or_else(|| {
            format!(
                "checkpoint: torn payload ({} bytes, header says {len})",
                after.len()
            )
        })?;
    let (payload, rest) = after.split_at(len);
    let actual = bayes_obs::fnv1a64(payload);
    if actual != sum {
        return Err(format!(
            "checkpoint: checksum mismatch (stored {sum:016x}, computed {actual:016x})"
        ));
    }
    Ok((payload, rest))
}

/// A chain's draws and per-row eval counts.
type Block = (Vec<Vec<f64>>, Vec<u32>);

/// Reads one chain block off the front of `bytes` and appends its rows
/// to `chain`; `expected` is its row count, when the frame dictates one.
/// The row count is checked against that, `dim` and the bytes actually
/// present before anything is allocated, so a forged count costs an
/// error, not memory; growth is exact, so a chain's rows never hold
/// more capacity than the log's blocks account for.
fn read_block(
    bytes: &mut &[u8],
    dim: usize,
    expected: Option<usize>,
    (draws, evals): &mut Block,
) -> Result<(), String> {
    let (count, rest) = bytes
        .split_first_chunk::<8>()
        .ok_or("checkpoint: chain block is missing its row count")?;
    let rows = u64::from_le_bytes(*count);
    if let Some(n) = expected.filter(|&n| n as u64 != rows) {
        return Err(format!(
            "checkpoint: chain block holds {rows} rows, the frame's iterations {n}"
        ));
    }
    let row_bytes = dim
        .checked_mul(8)
        .ok_or_else(|| format!("checkpoint: dim {dim} is out of range"))?;
    let len = usize::try_from(rows)
        .ok()
        .zip(row_bytes.checked_add(4))
        .and_then(|(rows, per_row)| rows.checked_mul(per_row))
        .filter(|&len| len <= rest.len())
        .ok_or_else(|| {
            format!(
                "checkpoint: chain block claims {rows} rows of dim {dim}, {} bytes remain",
                rest.len()
            )
        })?;
    // Checked just above: `rows × (row_bytes + 4)` fits in `rest`.
    let rows = rows as usize;
    let (block, rest) = rest.split_at(len);
    let (draw_bytes, eval_bytes) = block.split_at(rows * row_bytes);
    draws.reserve_exact(rows);
    draws.extend((0..rows).map(|r| {
        draw_bytes[r * row_bytes..(r + 1) * row_bytes]
            .chunks_exact(8)
            .map(|w| f64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .collect()
    }));
    evals.reserve_exact(rows);
    evals.extend(
        eval_bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk"))),
    );
    *bytes = rest;
    Ok(())
}

/// Decodes the frame at the front of `bytes`, appending its blocks'
/// rows to `rows` (one entry per chain, started by the first frame).
/// `prev` is the state of the frame before it: this one must keep its
/// `dim` and chain count, and its blocks must hold exactly the rows of
/// the iterations between the two. On error no row is added.
fn read_frame<'a>(
    bytes: &'a [u8],
    prev: Option<&RunCheckpoint>,
    rows: &mut Vec<Block>,
) -> Result<(RunCheckpoint, &'a [u8]), String> {
    let (payload, rest) = next_frame(bytes)?;
    let newline = payload
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("checkpoint: state line is unterminated")?;
    let state = std::str::from_utf8(&payload[..newline])
        .map_err(|_| "checkpoint: state line is not UTF-8")?;
    let ck = RunCheckpoint::read_state(&parse(state)?)?;
    let expected = match prev {
        None => {
            rows.resize_with(ck.chain_states.len(), Block::default);
            None
        }
        Some(p)
            if p.dim == ck.dim
                && p.chain_states.len() == ck.chain_states.len()
                && p.iter < ck.iter =>
        {
            Some(ck.iter - p.iter)
        }
        Some(p) => {
            return Err(format!(
                "checkpoint: frame at iteration {} does not extend the one at {}",
                ck.iter, p.iter
            ))
        }
    };
    let kept: Vec<usize> = rows.iter().map(|(draws, _)| draws.len()).collect();
    let mut blocks = &payload[newline + 1..];
    let read = rows
        .iter_mut()
        .try_for_each(|chain| read_block(&mut blocks, ck.dim, expected, chain))
        .and_then(|()| match blocks.len() {
            0 => Ok(()),
            n => Err(format!("checkpoint: {n} bytes past the last chain block")),
        });
    if let Err(e) = read {
        for ((draws, evals), &n) in rows.iter_mut().zip(&kept) {
            draws.truncate(n);
            evals.truncate(n);
        }
        return Err(e);
    }
    Ok((ck, rest))
}

/// Walks a checkpoint log: the checkpoint of its last frame that
/// verifies, with every row its frames hold up to that one, and the
/// bytes those frames take. The first frame that fails ends the walk;
/// when that is the first frame, its error is the log's.
fn read_log(bytes: &[u8]) -> Result<(RunCheckpoint, usize), String> {
    let mut rest = bytes;
    let mut last: Option<RunCheckpoint> = None;
    let mut rows: Vec<Block> = Vec::new();
    while !rest.is_empty() {
        match read_frame(rest, last.as_ref(), &mut rows) {
            Ok((ck, after)) => {
                last = Some(ck);
                rest = after;
            }
            Err(e) if last.is_none() => return Err(e),
            Err(_) => break,
        }
    }
    let mut ck = last.ok_or("checkpoint: empty file")?;
    for (c, (draws, evals)) in ck.chain_states.iter_mut().zip(rows) {
        c.draws = draws;
        c.evals_per_iter = evals;
    }
    Ok((ck, bytes.len() - rest.len()))
}

/// A checkpoint log read from disk by [`RunCheckpoint::load_log`].
#[derive(Debug)]
pub struct LoadedLog {
    /// The checkpoint of the log's last frame that verifies, with every
    /// row up to it.
    pub checkpoint: RunCheckpoint,
    /// Bytes the frames up to it take: where the next frame goes.
    pub valid_len: u64,
    /// Bytes after them: a torn or corrupt frame, and whatever follows
    /// it. Zero for a clean log.
    pub skipped_len: u64,
}

/// A run's checkpoint log, open for appending: each checkpoint boundary
/// adds one frame holding the rows since the frame before it.
pub(crate) struct CheckpointLog {
    file: File,
    /// Bytes the frames written so far take.
    len: u64,
    /// Rows per chain those frames hold.
    rows: usize,
}

impl CheckpointLog {
    /// Opens the log at `path` to extend its first `keep` bytes, whose
    /// frames hold `rows` rows per chain, and cuts off whatever follows
    /// them. `keep` 0 starts an empty log.
    pub(crate) fn open(path: &Path, keep: u64, rows: usize) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).create(true).open(path)?;
        file.set_len(keep)?;
        Ok(Self {
            file,
            len: keep,
            rows,
        })
    }

    /// Rows per chain the log holds: where the next frame's blocks
    /// start.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Appends `frame`, whose blocks end at row `rows` of every chain. A
    /// failed append is cut off again, so the next frame extends this
    /// one's predecessor and carries the rows this one did not land.
    pub(crate) fn append(&mut self, frame: &[u8], rows: usize) -> io::Result<()> {
        if let Err(e) = self.file.write_all(frame) {
            let _ = self.file.set_len(self.len);
            return Err(e);
        }
        self.len += frame.len() as u64;
        self.rows = rows;
        Ok(())
    }
}

impl RunCheckpoint {
    /// Serializes the checkpoint as a one-frame log: header line, JSON
    /// state, one raw block per chain holding all its rows (module docs).
    pub fn to_durable_bytes(&self) -> Vec<u8> {
        let mut doc = DurableWriter::begin(self);
        for c in &self.chain_states {
            doc.block(&c.draws, &c.evals_per_iter);
        }
        doc.finish()
    }

    /// Decodes a checkpoint log: walks its frames, each validated by
    /// the header's version, length and checksum, then its JSON state
    /// and one block per chain state, which must use up the payload.
    /// Returns the last frame that verifies, each chain's rows being
    /// those of every frame up to it; a torn or corrupt frame ends the
    /// walk.
    ///
    /// # Errors
    ///
    /// Returns a description of the first frame's framing, checksum, or
    /// schema violation when no frame verifies. Input without the
    /// header, or with another version's, is an error.
    pub fn from_durable_bytes(bytes: &[u8]) -> Result<Self, String> {
        read_log(bytes).map(|(ck, _)| ck)
    }

    /// The JSON state, with every chain's draws still empty.
    fn read_state(v: &Json) -> Result<Self, String> {
        let checkpoint = |e| format!("checkpoint: {e}");
        let version: u64 = read_field(v, "version").map_err(checkpoint)?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint: unsupported version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        let ck = Self::read(v).map_err(checkpoint)?;
        ck.check_dims()?;
        Ok(ck)
    }

    /// Reads the checkpoint log at `path` (see
    /// [`RunCheckpoint::from_durable_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O, framing, or schema failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        Self::load_log(path).map(|log| log.checkpoint)
    }

    /// [`RunCheckpoint::load`], plus where in the file the verified
    /// frames end.
    ///
    /// # Errors
    ///
    /// As [`RunCheckpoint::load`].
    pub fn load_log(path: impl AsRef<Path>) -> Result<LoadedLog, String> {
        let _span = bayes_obs::span(bayes_obs::Phase::Resume);
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| format!("checkpoint: cannot read {}: {e}", path.as_ref().display()))?;
        let (checkpoint, valid) = read_log(&bytes)?;
        Ok(LoadedLog {
            checkpoint,
            valid_len: valid as u64,
            skipped_len: (bytes.len() - valid) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> RunCheckpoint {
        let sampler = SamplerCheckpoint {
            iter: 50,
            q: vec![0.25, -1.5],
            lp: -3.75,
            grad: vec![-0.25, 1.5],
            eps: 0.30000000000000004,
            inv_mass: vec![1.0, 0.5],
            step_adapt: DualAveragingState {
                mu: 1.0986122886681098,
                log_eps: -1.2,
                log_eps_bar: -1.1,
                h_bar: 0.05,
                t: 50.0,
                target: 0.8,
                gamma: 0.05,
                t0: 10.0,
                kappa: 0.75,
            },
            mass_adapt: WelfordState {
                n: 25.0,
                mean: vec![0.1, -0.2],
                m2: vec![3.5, 7.25],
            },
            accept_sum: 12.5,
            divergences: 1,
            grad_evals: 1234,
            evals_per_iter: Vec::new(),
        };
        RunCheckpoint {
            version: CHECKPOINT_VERSION,
            model: "gauss \"quoted\"\nline".into(),
            dim: 2,
            seed: 9223372036854775809,
            chains: 2,
            iters: 200,
            warmup: 100,
            detector: DetectorFingerprint {
                threshold: 1.1,
                check_every: 25,
                min_iters: 50,
                consecutive: 3,
            },
            iter: 50,
            chain_states: (0..2)
                .map(|c| ChainCheckpoint {
                    chain: c,
                    stream_seed: 42 + c as u64,
                    draws: vec![vec![0.5, -0.0], vec![f64::MIN_POSITIVE / 3.0, 0.1 + 0.2]],
                    evals_per_iter: vec![3, u32::MAX],
                    sampler: sampler.clone(),
                })
                .collect(),
        }
    }

    /// `payload` behind a header whose length and checksum match it.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut out = header(payload.len(), bayes_obs::fnv1a64(payload)).into_bytes();
        out.extend_from_slice(payload);
        out
    }

    /// The payload of a document, split into its state line and blocks.
    fn state_and_blocks(doc: &[u8]) -> (String, Vec<u8>) {
        let (payload, _) = next_frame(doc).unwrap();
        let nl = payload.iter().position(|&b| b == b'\n').unwrap();
        let state = String::from_utf8(payload[..nl].to_vec()).unwrap();
        (state, payload[nl + 1..].to_vec())
    }

    fn resealed(state: &str, blocks: &[u8]) -> Vec<u8> {
        let mut payload = format!("{state}\n").into_bytes();
        payload.extend_from_slice(blocks);
        sealed(&payload)
    }

    #[test]
    fn checkpoint_round_trips_through_durable_bytes() {
        let ck = sample_checkpoint();
        let bytes = ck.to_durable_bytes();
        assert!(bytes.starts_with(b"BAYESCKPT 3 "));
        let back = RunCheckpoint::from_durable_bytes(&bytes).expect("decodes");
        assert_eq!(back, ck);
        // Encoding is stable across a decode cycle.
        assert_eq!(back.to_durable_bytes(), bytes);
    }

    #[test]
    fn step_size_survives_bitwise() {
        let ck = sample_checkpoint();
        let back = RunCheckpoint::from_durable_bytes(&ck.to_durable_bytes()).unwrap();
        let (a, b) = (
            ck.chain_states[0].sampler.eps,
            back.chain_states[0].sampler.eps,
        );
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let ck = sample_checkpoint();
        let path = std::env::temp_dir().join(format!(
            "bayes_mcmc_checkpoint_roundtrip_{}.json",
            std::process::id()
        ));
        let mut log = CheckpointLog::open(&path, 0, 0).expect("open");
        log.append(&ck.to_durable_bytes(), ck.iter).expect("append");
        let back = RunCheckpoint::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, ck);
    }

    #[test]
    fn rejects_wrong_version_and_malformed_input() {
        let mut ck = sample_checkpoint();
        ck.version = CHECKPOINT_VERSION + 1;
        assert!(RunCheckpoint::from_durable_bytes(&ck.to_durable_bytes())
            .unwrap_err()
            .contains("version"));
        assert!(RunCheckpoint::from_durable_bytes(b"not a checkpoint").is_err());
        assert!(RunCheckpoint::from_durable_bytes(&sealed(b"{\"version\":3}\n")).is_err());
    }

    /// A version-1 file (decimal JSON behind the same header) and a
    /// headerless document are both refused: the header is the only
    /// way in, and it must name this version.
    #[test]
    fn version_one_and_headerless_documents_are_rejected() {
        let (state, _) = state_and_blocks(&sample_checkpoint().to_durable_bytes());
        let v1_payload = state.replace("\"version\":3", "\"version\":1");
        let v1 = format!(
            "BAYESCKPT 1 {} {:016x}\n{v1_payload}",
            v1_payload.len(),
            bayes_obs::fnv1a64(v1_payload.as_bytes())
        );
        assert!(RunCheckpoint::from_durable_bytes(v1.as_bytes())
            .unwrap_err()
            .contains("unsupported header version 1"));
        assert!(RunCheckpoint::from_durable_bytes(state.as_bytes())
            .unwrap_err()
            .contains("no BAYESCKPT header"));
    }

    /// Counts are taken whole or not at all: a JSON counter past
    /// `u64::MAX` and a block row count of `u64::MAX` are errors, not
    /// truncations.
    #[test]
    fn out_of_range_counts_are_rejected() {
        let (state, blocks) = state_and_blocks(&sample_checkpoint().to_durable_bytes());
        let big = state.replacen(
            "\"divergences\":1",
            "\"divergences\":18446744073709551616",
            1,
        );
        assert!(RunCheckpoint::from_durable_bytes(&resealed(&big, &blocks))
            .unwrap_err()
            .contains("divergences"));
        let mut forged = blocks.clone();
        forged[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(
            RunCheckpoint::from_durable_bytes(&resealed(&state, &forged))
                .unwrap_err()
                .contains("rows")
        );
    }

    #[test]
    fn corrupted_and_torn_durable_bytes_are_rejected() {
        let good = sample_checkpoint().to_durable_bytes();

        // Flip one payload byte: the checksum must catch it.
        let mut flipped = good.clone();
        let last = flipped.len() - 10;
        flipped[last] ^= 0x01;
        assert!(RunCheckpoint::from_durable_bytes(&flipped)
            .unwrap_err()
            .contains("checksum"));

        // A torn tail (truncated payload) must be caught by length.
        assert!(RunCheckpoint::from_durable_bytes(&good[..good.len() - 7])
            .unwrap_err()
            .contains("torn"));
    }

    /// `ck` with each chain's rows cut to `rows`, taken at iteration
    /// `iter`.
    fn frame_of(ck: &RunCheckpoint, iter: usize, rows: std::ops::Range<usize>) -> Vec<u8> {
        let mut part = ck.clone();
        part.iter = iter;
        for c in &mut part.chain_states {
            c.draws = c.draws[rows.clone()].to_vec();
            c.evals_per_iter = c.evals_per_iter[rows.clone()].to_vec();
        }
        part.to_durable_bytes()
    }

    /// Frames appended one per boundary rebuild every chain's rows; a
    /// bad tail falls back to the frame before it, and reopening the
    /// log cuts it off.
    #[test]
    fn appended_frames_rebuild_the_rows_and_reopening_cuts_a_bad_tail() {
        let dir = std::env::temp_dir().join(format!("bayes-ckpt-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt.json");
        let whole = sample_checkpoint();
        let (first, second) = (frame_of(&whole, 49, 0..1), frame_of(&whole, 50, 1..2));
        let mut log = CheckpointLog::open(&path, 0, 0).unwrap();
        log.append(&first, 1).unwrap();
        log.append(&second, 2).unwrap();
        assert_eq!(log.rows(), 2);
        let read = RunCheckpoint::load_log(&path).unwrap();
        assert_eq!(read.checkpoint, whole);
        assert_eq!(read.valid_len, (first.len() + second.len()) as u64);
        assert_eq!(read.skipped_len, 0);

        // A torn third frame: the walk stops before it.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&second[..40])
            .unwrap();
        let read = RunCheckpoint::load_log(&path).unwrap();
        assert_eq!(read.checkpoint, whole);
        assert_eq!(read.skipped_len, 40);
        // Reopening at the verified length cuts the torn frame off.
        drop(CheckpointLog::open(&path, read.valid_len, 2).unwrap());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), read.valid_len);

        // A corrupt second frame: the first one's state and rows.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[first.len() + second.len() / 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let read = RunCheckpoint::load_log(&path).unwrap();
        assert_eq!(read.checkpoint.iter, 49);
        for (c, w) in read.checkpoint.chain_states.iter().zip(&whole.chain_states) {
            assert_eq!(c.draws, w.draws[..1]);
            assert_eq!(c.evals_per_iter, w.evals_per_iter[..1]);
        }
        assert_eq!(read.skipped_len, second.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_seeds_differ_across_boundaries_and_streams() {
        let a = segment_seed(7, 50);
        assert_eq!(a, segment_seed(7, 50), "derivation must be pure");
        assert_ne!(a, segment_seed(7, 100));
        assert_ne!(a, segment_seed(8, 50));
        // Segment streams never collide with the base chain stream.
        assert_ne!(a, 7);
    }
}
