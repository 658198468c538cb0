//! Checkpoint/resume state for the fault-tolerant run supervisor.
//!
//! A [`RunCheckpoint`] captures everything needed to continue a
//! supervised run bit-identically: per-chain sampler state (position,
//! step size, mass matrix, adaptation accumulators, draw count) plus
//! the draw prefixes, the detector fingerprint, and the run
//! configuration it was taken under. Serialization goes through the
//! `bayes-obs` hand-rolled JSON layer — one self-describing document,
//! no external dependencies.
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
use bayes_obs::json::{parse, write_escaped, Json};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Current checkpoint-file schema version.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Magic token opening the checksummed checkpoint header line.
const CHECKPOINT_MAGIC: &str = "BAYESCKPT";

/// Where [`RunCheckpoint::save`] rotates the previous generation of
/// `path` before the atomic rename lands the new one.
///
/// The two-generation scheme is what makes corruption recoverable: a
/// reader that finds the current file torn or checksum-broken falls
/// back to this path, which always holds the last fully-committed
/// checkpoint (one boundary earlier).
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
    /// into [`ChainCheckpoint::evals_per_iter`], so it is empty in the
    /// serialized form.
    pub evals_per_iter: Vec<u32>,
}

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
    /// Draws of iterations `[0, iter)`.
    pub draws: Vec<Vec<f64>>,
    /// Gradient evaluations per iteration over the same prefix.
    pub evals_per_iter: Vec<u32>,
    /// Sampler state at the checkpoint boundary.
    pub sampler: SamplerCheckpoint,
}

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

fn push_f64(buf: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(buf, "{v}");
    } else {
        // Same convention as the event schema: JSON has no non-finite
        // literals, so they encode as null and decode as NaN.
        buf.push_str("null");
    }
}

fn push_f64_arr(buf: &mut String, vs: &[f64]) {
    buf.push('[');
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        push_f64(buf, v);
    }
    buf.push(']');
}

fn push_u32_arr(buf: &mut String, vs: &[u32]) {
    buf.push('[');
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        let _ = write!(buf, "{v}");
    }
    buf.push(']');
}

fn push_draws(buf: &mut String, draws: &[Vec<f64>]) {
    buf.push('[');
    for (i, d) in draws.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        push_f64_arr(buf, d);
    }
    buf.push(']');
}

fn req<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("checkpoint: missing field '{key}'"))
}

fn get_f64(obj: &Json, key: &str) -> Result<f64, String> {
    let v = req(obj, key)?;
    if v.is_null() {
        return Ok(f64::NAN);
    }
    v.as_f64()
        .ok_or_else(|| format!("checkpoint: field '{key}' is not a number"))
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    req(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("checkpoint: field '{key}' is not a u64"))
}

fn get_usize(obj: &Json, key: &str) -> Result<usize, String> {
    Ok(get_u64(obj, key)? as usize)
}

fn get_str(obj: &Json, key: &str) -> Result<String, String> {
    Ok(req(obj, key)?
        .as_str()
        .ok_or_else(|| format!("checkpoint: field '{key}' is not a string"))?
        .to_string())
}

fn get_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match req(obj, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("checkpoint: field '{key}' is not an array")),
    }
}

fn f64_items(items: &[Json]) -> Result<Vec<f64>, String> {
    items
        .iter()
        .map(|j| {
            if j.is_null() {
                Ok(f64::NAN)
            } else {
                j.as_f64()
                    .ok_or_else(|| "checkpoint: non-numeric array element".to_string())
            }
        })
        .collect()
}

fn get_f64_arr(obj: &Json, key: &str) -> Result<Vec<f64>, String> {
    f64_items(get_arr(obj, key)?)
}

fn get_u32_arr(obj: &Json, key: &str) -> Result<Vec<u32>, String> {
    get_arr(obj, key)?
        .iter()
        .map(|j| {
            j.as_u64()
                .map(|v| v as u32)
                .ok_or_else(|| format!("checkpoint: field '{key}' holds a non-integer"))
        })
        .collect()
}

fn get_draws(obj: &Json, key: &str) -> Result<Vec<Vec<f64>>, String> {
    get_arr(obj, key)?
        .iter()
        .map(|row| match row {
            Json::Arr(items) => f64_items(items),
            _ => Err(format!("checkpoint: field '{key}' holds a non-array row")),
        })
        .collect()
}

impl DualAveragingState {
    fn write(&self, buf: &mut String) {
        let _ = write!(buf, "{{\"mu\":");
        push_f64(buf, self.mu);
        buf.push_str(",\"log_eps\":");
        push_f64(buf, self.log_eps);
        buf.push_str(",\"log_eps_bar\":");
        push_f64(buf, self.log_eps_bar);
        buf.push_str(",\"h_bar\":");
        push_f64(buf, self.h_bar);
        buf.push_str(",\"t\":");
        push_f64(buf, self.t);
        buf.push_str(",\"target\":");
        push_f64(buf, self.target);
        buf.push_str(",\"gamma\":");
        push_f64(buf, self.gamma);
        buf.push_str(",\"t0\":");
        push_f64(buf, self.t0);
        buf.push_str(",\"kappa\":");
        push_f64(buf, self.kappa);
        buf.push('}');
    }

    fn read(j: &Json) -> Result<Self, String> {
        Ok(Self {
            mu: get_f64(j, "mu")?,
            log_eps: get_f64(j, "log_eps")?,
            log_eps_bar: get_f64(j, "log_eps_bar")?,
            h_bar: get_f64(j, "h_bar")?,
            t: get_f64(j, "t")?,
            target: get_f64(j, "target")?,
            gamma: get_f64(j, "gamma")?,
            t0: get_f64(j, "t0")?,
            kappa: get_f64(j, "kappa")?,
        })
    }
}

impl WelfordState {
    fn write(&self, buf: &mut String) {
        buf.push_str("{\"n\":");
        push_f64(buf, self.n);
        buf.push_str(",\"mean\":");
        push_f64_arr(buf, &self.mean);
        buf.push_str(",\"m2\":");
        push_f64_arr(buf, &self.m2);
        buf.push('}');
    }

    fn read(j: &Json) -> Result<Self, String> {
        Ok(Self {
            n: get_f64(j, "n")?,
            mean: get_f64_arr(j, "mean")?,
            m2: get_f64_arr(j, "m2")?,
        })
    }
}

impl SamplerCheckpoint {
    fn write(&self, buf: &mut String) {
        let _ = write!(buf, "{{\"iter\":{}", self.iter);
        buf.push_str(",\"q\":");
        push_f64_arr(buf, &self.q);
        buf.push_str(",\"lp\":");
        push_f64(buf, self.lp);
        buf.push_str(",\"grad\":");
        push_f64_arr(buf, &self.grad);
        buf.push_str(",\"eps\":");
        push_f64(buf, self.eps);
        buf.push_str(",\"inv_mass\":");
        push_f64_arr(buf, &self.inv_mass);
        buf.push_str(",\"step_adapt\":");
        self.step_adapt.write(buf);
        buf.push_str(",\"mass_adapt\":");
        self.mass_adapt.write(buf);
        buf.push_str(",\"accept_sum\":");
        push_f64(buf, self.accept_sum);
        let _ = write!(
            buf,
            ",\"divergences\":{},\"grad_evals\":{}",
            self.divergences, self.grad_evals
        );
        buf.push_str(",\"evals_per_iter\":");
        push_u32_arr(buf, &self.evals_per_iter);
        buf.push('}');
    }

    fn read(j: &Json) -> Result<Self, String> {
        Ok(Self {
            iter: get_usize(j, "iter")?,
            q: get_f64_arr(j, "q")?,
            lp: get_f64(j, "lp")?,
            grad: get_f64_arr(j, "grad")?,
            eps: get_f64(j, "eps")?,
            inv_mass: get_f64_arr(j, "inv_mass")?,
            step_adapt: DualAveragingState::read(req(j, "step_adapt")?)?,
            mass_adapt: WelfordState::read(req(j, "mass_adapt")?)?,
            accept_sum: get_f64(j, "accept_sum")?,
            divergences: get_u64(j, "divergences")?,
            grad_evals: get_u64(j, "grad_evals")?,
            evals_per_iter: get_u32_arr(j, "evals_per_iter")?,
        })
    }
}

impl ChainCheckpoint {
    fn write(&self, buf: &mut String) {
        let _ = write!(
            buf,
            "{{\"chain\":{},\"stream_seed\":{}",
            self.chain, self.stream_seed
        );
        buf.push_str(",\"draws\":");
        push_draws(buf, &self.draws);
        buf.push_str(",\"evals_per_iter\":");
        push_u32_arr(buf, &self.evals_per_iter);
        buf.push_str(",\"sampler\":");
        self.sampler.write(buf);
        buf.push('}');
    }

    fn read(j: &Json) -> Result<Self, String> {
        Ok(Self {
            chain: get_usize(j, "chain")?,
            stream_seed: get_u64(j, "stream_seed")?,
            draws: get_draws(j, "draws")?,
            evals_per_iter: get_u32_arr(j, "evals_per_iter")?,
            sampler: SamplerCheckpoint::read(req(j, "sampler")?)?,
        })
    }
}

impl RunCheckpoint {
    /// Encodes the checkpoint as one JSON document.
    pub fn to_json(&self) -> String {
        let mut buf = String::with_capacity(4096);
        let _ = write!(buf, "{{\"version\":{}", self.version);
        buf.push_str(",\"model\":");
        write_escaped(&mut buf, &self.model);
        let _ = write!(
            buf,
            ",\"dim\":{},\"seed\":{},\"chains\":{},\"iters\":{},\"warmup\":{}",
            self.dim, self.seed, self.chains, self.iters, self.warmup
        );
        buf.push_str(",\"detector\":{\"threshold\":");
        push_f64(&mut buf, self.detector.threshold);
        let _ = write!(
            buf,
            ",\"check_every\":{},\"min_iters\":{},\"consecutive\":{}}}",
            self.detector.check_every, self.detector.min_iters, self.detector.consecutive
        );
        let _ = write!(buf, ",\"iter\":{}", self.iter);
        buf.push_str(",\"chain_states\":[");
        for (i, c) in self.chain_states.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            c.write(&mut buf);
        }
        buf.push_str("]}");
        buf
    }

    /// Decodes a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        let version = get_u64(&v, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint: unsupported version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        let det = req(&v, "detector")?;
        let chain_states = match req(&v, "chain_states")? {
            Json::Arr(items) => items
                .iter()
                .map(ChainCheckpoint::read)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("checkpoint: 'chain_states' is not an array".into()),
        };
        Ok(Self {
            version,
            model: get_str(&v, "model")?,
            dim: get_usize(&v, "dim")?,
            seed: get_u64(&v, "seed")?,
            chains: get_usize(&v, "chains")?,
            iters: get_usize(&v, "iters")?,
            warmup: get_usize(&v, "warmup")?,
            detector: DetectorFingerprint {
                threshold: get_f64(det, "threshold")?,
                check_every: get_usize(det, "check_every")?,
                min_iters: get_usize(det, "min_iters")?,
                consecutive: get_usize(det, "consecutive")?,
            },
            iter: get_usize(&v, "iter")?,
            chain_states,
        })
    }

    /// Serializes the checkpoint with its checksummed header line:
    /// `BAYESCKPT <version> <payload_bytes> <fnv1a64-hex>\n<json>`.
    pub fn to_durable_bytes(&self) -> String {
        let payload = self.to_json();
        let mut out = String::with_capacity(payload.len() + 48);
        let _ = writeln!(
            out,
            "{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} {} {:016x}",
            payload.len(),
            bayes_obs::fnv1a64(payload.as_bytes())
        );
        out.push_str(&payload);
        out
    }

    /// Decodes a durable checkpoint document: validates the header's
    /// length and checksum, then parses the JSON payload. Headerless
    /// input (a pre-durability checkpoint) is accepted as plain JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the first framing, checksum, or schema
    /// violation.
    pub fn from_durable_bytes(text: &str) -> Result<Self, String> {
        let Some(rest) = text.strip_prefix(CHECKPOINT_MAGIC) else {
            // Legacy headerless checkpoint: the payload is the file.
            return Self::from_json(text);
        };
        let (header, payload) = rest
            .split_once('\n')
            .ok_or("checkpoint: header line is unterminated")?;
        let mut fields = header.split_ascii_whitespace();
        let version: u64 = fields
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("checkpoint: header is missing the version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint: unsupported header version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        let len: usize = fields
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("checkpoint: header is missing the payload length")?;
        let sum: u64 = fields
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("checkpoint: header is missing the checksum")?;
        if payload.len() != len {
            return Err(format!(
                "checkpoint: torn payload ({} bytes, header says {len})",
                payload.len()
            ));
        }
        let actual = bayes_obs::fnv1a64(payload.as_bytes());
        if actual != sum {
            return Err(format!(
                "checkpoint: checksum mismatch (stored {sum:016x}, computed {actual:016x})"
            ));
        }
        Self::from_json(payload)
    }

    /// Writes the checkpoint to `path` atomically: the bytes land in a
    /// temporary sibling first, the previous generation (if any) is
    /// rotated to [`previous_checkpoint_path`], and a rename commits
    /// the new file. A crash at any point leaves either the old
    /// generation, the new one, or the old one under its `.prev` name
    /// — never a half-written current file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let _span = bayes_obs::span(bayes_obs::Phase::Serialize);
        let path = path.as_ref();
        let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        std::fs::write(&tmp, self.to_durable_bytes())?;
        if path.exists() {
            std::fs::rename(path, previous_checkpoint_path(path))?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Reads a checkpoint back from `path`, rejecting torn or
    /// corrupted files by header checksum.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O, framing, or schema failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let _span = bayes_obs::span(bayes_obs::Phase::Resume);
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("checkpoint: cannot read {}: {e}", path.as_ref().display()))?;
        Self::from_durable_bytes(&text)
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
            model: "gauss \"quoted\"".into(),
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
                    draws: vec![vec![0.5, -0.5], vec![1.25, 2.5]],
                    evals_per_iter: vec![3, 7],
                    sampler: sampler.clone(),
                })
                .collect(),
        }
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let ck = sample_checkpoint();
        let text = ck.to_json();
        let back = RunCheckpoint::from_json(&text).expect("decodes");
        assert_eq!(back, ck);
        // Encoding is stable across a decode cycle.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn step_size_survives_bitwise() {
        let ck = sample_checkpoint();
        let back = RunCheckpoint::from_json(&ck.to_json()).unwrap();
        let (a, b) = (
            ck.chain_states[0].sampler.eps,
            back.chain_states[0].sampler.eps,
        );
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let ck = sample_checkpoint();
        let path = std::env::temp_dir().join("bayes_mcmc_checkpoint_roundtrip.json");
        ck.save(&path).expect("save");
        let back = RunCheckpoint::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, ck);
    }

    #[test]
    fn rejects_wrong_version_and_malformed_input() {
        let mut ck = sample_checkpoint();
        ck.version = CHECKPOINT_VERSION + 1;
        assert!(RunCheckpoint::from_json(&ck.to_json())
            .unwrap_err()
            .contains("version"));
        assert!(RunCheckpoint::from_json("not json").is_err());
        assert!(RunCheckpoint::from_json("{\"version\":1}").is_err());
    }

    #[test]
    fn corrupted_and_torn_durable_bytes_are_rejected() {
        let ck = sample_checkpoint();
        let good = ck.to_durable_bytes();
        assert_eq!(RunCheckpoint::from_durable_bytes(&good).unwrap(), ck);

        // Flip one payload byte: the checksum must catch it.
        let mut flipped = good.clone().into_bytes();
        let last = flipped.len() - 10;
        flipped[last] ^= 0x01;
        let flipped = String::from_utf8(flipped).unwrap();
        assert!(RunCheckpoint::from_durable_bytes(&flipped)
            .unwrap_err()
            .contains("checksum"));

        // A torn tail (truncated payload) must be caught by length.
        let torn = &good[..good.len() - 7];
        assert!(RunCheckpoint::from_durable_bytes(torn)
            .unwrap_err()
            .contains("torn"));

        // Legacy headerless JSON still loads.
        assert_eq!(
            RunCheckpoint::from_durable_bytes(&ck.to_json()).unwrap(),
            ck
        );
    }

    #[test]
    fn save_rotates_the_previous_generation() {
        let dir = std::env::temp_dir().join(format!("bayes-ckpt-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt.json");
        let mut first = sample_checkpoint();
        first.iter = 25;
        first.save(&path).expect("first save");
        let second = sample_checkpoint();
        second.save(&path).expect("second save");
        assert_eq!(RunCheckpoint::load(&path).unwrap().iter, second.iter);
        let prev = previous_checkpoint_path(&path);
        assert_eq!(
            RunCheckpoint::load(&prev).unwrap().iter,
            25,
            "rotation must keep the last good generation"
        );
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
