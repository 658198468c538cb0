//! The checkpoint file codec: draw blocks round-trip to the bit, a log
//! of frames reads back as its last frame that verifies with every row
//! up to it, and no input makes the loader panic or allocate more than
//! the bytes it was handed can account for — arbitrary bytes, every
//! single-byte flip of a valid document, and valid-checksum documents
//! whose row count, `dim` or block length is forged up to `u64::MAX` all
//! come back as `Err`; every truncation, extension and single-byte flip
//! of a three-frame log comes back as the last frame before the damage.
//!
//! Its own test binary, because the allocation bound reads the counting
//! global allocator (`counting_alloc`).

mod counting_alloc;

use bayes_mcmc::checkpoint::{
    ChainCheckpoint, DetectorFingerprint, DualAveragingState, RunCheckpoint, SamplerCheckpoint,
    WelfordState, CHECKPOINT_VERSION,
};
use counting_alloc::largest_allocation_in;
use proptest::prelude::*;

const DIM: usize = 3;
const ROWS: usize = 40;

/// A two-chain checkpoint whose draws include the values decimal
/// formatting makes hard: negative zero, subnormals, the extremes,
/// non-finite values and a NaN with a payload.
fn checkpoint(lp: f64) -> RunCheckpoint {
    let awkward = [
        -0.0,
        f64::MIN_POSITIVE / 7.0,
        f64::MAX,
        f64::MIN,
        0.1 + 0.2,
        f64::INFINITY,
        f64::from_bits(0x7ff8_0000_dead_beef),
        1.0 / 3.0,
    ];
    let sampler = SamplerCheckpoint {
        iter: ROWS,
        q: vec![0.25, -1.5, 3.0e-300],
        lp,
        grad: vec![-0.25, 1.5, 0.0],
        eps: 0.30000000000000004,
        inv_mass: vec![1.0, 0.5, 2.0],
        step_adapt: DualAveragingState {
            mu: 1.0986122886681098,
            log_eps: -1.2,
            log_eps_bar: -1.1,
            h_bar: 0.05,
            t: 40.0,
            target: 0.8,
            gamma: 0.05,
            t0: 10.0,
            kappa: 0.75,
        },
        mass_adapt: WelfordState {
            n: 25.0,
            mean: vec![0.1, -0.2, 0.3],
            m2: vec![3.5, 7.25, 1.0],
        },
        accept_sum: 12.5,
        divergences: 1,
        grad_evals: 1234,
        evals_per_iter: Vec::new(),
    };
    RunCheckpoint {
        version: CHECKPOINT_VERSION,
        model: "codec".into(),
        dim: DIM,
        seed: u64::MAX,
        chains: 2,
        iters: 200,
        warmup: 20,
        detector: DetectorFingerprint {
            threshold: 1.05,
            check_every: 20,
            min_iters: 40,
            consecutive: 2,
        },
        iter: ROWS,
        chain_states: (0..2)
            .map(|c| ChainCheckpoint {
                chain: c,
                stream_seed: 7 + c as u64,
                draws: (0..ROWS)
                    .map(|r| {
                        (0..DIM)
                            .map(|d| awkward[(r * DIM + d + c) % awkward.len()] * (r as f64 + 1.0))
                            .collect()
                    })
                    .collect(),
                evals_per_iter: (0..ROWS as u32).map(|r| r * 7 + c as u32).collect(),
                sampler: sampler.clone(),
            })
            .collect(),
    }
}

/// Decodes `bytes`, holding the decoder to an allocation bound: no
/// single allocation may exceed a small multiple of the input, which
/// any allocation sized by a forged length would.
fn decode(bytes: &[u8]) -> Result<RunCheckpoint, String> {
    let (result, largest) = largest_allocation_in(|| RunCheckpoint::from_durable_bytes(bytes));
    assert!(
        largest <= 8 * bytes.len() + 4096,
        "decoding {} bytes allocated {largest} bytes at once",
        bytes.len()
    );
    result
}

/// `payload` behind a header whose length and checksum match it.
fn sealed(payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "BAYESCKPT {CHECKPOINT_VERSION} {:020} {:016x}\n",
        payload.len(),
        bayes_obs::fnv1a64(payload)
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

/// A valid document's state line and its chain blocks.
fn state_and_blocks(doc: &[u8]) -> (String, Vec<u8>) {
    let payload = &doc[doc.iter().position(|&b| b == b'\n').unwrap() + 1..];
    let nl = payload.iter().position(|&b| b == b'\n').unwrap();
    let state = String::from_utf8(payload[..nl].to_vec()).unwrap();
    (state, payload[nl + 1..].to_vec())
}

fn resealed(state: &str, blocks: &[u8]) -> Vec<u8> {
    let mut payload = format!("{state}\n").into_bytes();
    payload.extend_from_slice(blocks);
    sealed(&payload)
}

/// Bytes of one chain block of [`checkpoint`].
const BLOCK: usize = 8 + ROWS * (8 * DIM + 4);

fn bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
    values.into_iter().map(|v| v.to_bits()).collect()
}

#[test]
fn draws_and_state_round_trip_to_the_bit() {
    let ck = checkpoint(f64::NAN);
    let bytes = ck.to_durable_bytes();
    let back = decode(&bytes).expect("a valid document decodes");
    assert_eq!(back.chain_states.len(), ck.chain_states.len());
    for (a, b) in ck.chain_states.iter().zip(&back.chain_states) {
        assert_eq!(
            bits(a.draws.iter().flatten()),
            bits(b.draws.iter().flatten())
        );
        assert_eq!(a.evals_per_iter, b.evals_per_iter);
        assert_eq!(a.sampler.lp.to_bits(), b.sampler.lp.to_bits());
        assert_eq!(a.sampler.eps.to_bits(), b.sampler.eps.to_bits());
        assert_eq!(bits(&a.sampler.q), bits(&b.sampler.q));
    }
    // With the NaNs set aside, the whole checkpoint compares equal.
    let mut plain = back.clone();
    for (p, c) in plain.chain_states.iter_mut().zip(&ck.chain_states) {
        p.draws.clone_from(&c.draws);
        p.sampler.lp = c.sampler.lp;
    }
    assert_eq!(format!("{plain:?}"), format!("{ck:?}"));
    // Encoding is stable across a decode cycle.
    assert_eq!(back.to_durable_bytes(), bytes);
}

#[test]
fn blocks_wider_or_narrower_than_dim_are_rejected() {
    for dim in [DIM - 1, DIM + 1] {
        // Sampler state consistent with the forged `dim`, rows not.
        let mut ck = checkpoint(-1.0);
        ck.dim = dim;
        for c in &mut ck.chain_states {
            let s = &mut c.sampler;
            for v in [&mut s.q, &mut s.grad, &mut s.inv_mass] {
                v.resize(dim, 0.5);
            }
            s.mass_adapt.mean.resize(dim, 0.5);
            s.mass_adapt.m2.resize(dim, 0.5);
        }
        let err = decode(&ck.to_durable_bytes()).unwrap_err();
        assert!(
            err.contains("chain block") || err.contains("past the last"),
            "{err}"
        );
    }
    // A `dim` that disagrees with the sampler state is caught there.
    let (state, blocks) = state_and_blocks(&checkpoint(-1.0).to_durable_bytes());
    let forged = state.replacen("\"dim\":3", "\"dim\":2", 1);
    assert!(decode(&resealed(&forged, &blocks))
        .unwrap_err()
        .contains("dim is 2"));
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let good = checkpoint(-1.0).to_durable_bytes();
    for at in 0..good.len() {
        for mask in [0x01, 0x80, 0xff] {
            let mut bad = good.clone();
            bad[at] ^= mask;
            assert!(
                decode(&bad).is_err(),
                "flip {mask:#04x} at byte {at} decoded"
            );
        }
    }
}

/// [`checkpoint`] as a log of three frames, taken at iterations 10, 25
/// and 40, each holding the rows since the one before; and where each
/// frame ends.
fn three_frame_log() -> (Vec<u8>, [usize; 3]) {
    let whole = checkpoint(-1.0);
    let mut log = Vec::new();
    let mut ends = [0; 3];
    for (k, (from, to)) in [(0, 10), (10, 25), (25, ROWS)].into_iter().enumerate() {
        log.extend_from_slice(&prefix(&whole, to, from).to_durable_bytes());
        ends[k] = log.len();
    }
    (log, ends)
}

/// `ck` as it stood at iteration `to`, its chains holding rows
/// `from..to`.
fn prefix(ck: &RunCheckpoint, to: usize, from: usize) -> RunCheckpoint {
    let mut part = ck.clone();
    part.iter = to;
    for c in &mut part.chain_states {
        c.draws = c.draws[from..to].to_vec();
        c.evals_per_iter = c.evals_per_iter[from..to].to_vec();
    }
    part
}

/// What the first `frames` frames of [`three_frame_log`] read back as.
fn after_frames(frames: usize) -> Option<RunCheckpoint> {
    let iter = [0, 10, 25, ROWS][frames];
    (frames > 0).then(|| prefix(&checkpoint(-1.0), iter, 0))
}

/// Bit-exact equality: draws compared as bits, the rest (NaN-free in
/// these checkpoints) as values.
fn assert_same(got: &RunCheckpoint, want: &RunCheckpoint, what: &str) {
    assert_eq!(got.iter, want.iter, "{what}");
    for (a, b) in got.chain_states.iter().zip(&want.chain_states) {
        assert_eq!(a.draws.len(), b.draws.len(), "{what}");
        assert_eq!(
            bits(a.draws.iter().flatten()),
            bits(b.draws.iter().flatten()),
            "{what}"
        );
        assert_eq!(a.evals_per_iter, b.evals_per_iter, "{what}");
    }
    let states = |ck: &RunCheckpoint| {
        let mut ck = ck.clone();
        ck.chain_states.iter_mut().for_each(|c| c.draws.clear());
        ck
    };
    assert_eq!(states(got), states(want), "{what}");
}

/// A torn tail is every truncation of a log, and any bytes after its
/// last frame: each reads back as the last complete frame, with every
/// row up to it, or is refused when no frame is complete. Bytes inside
/// a frame's payload past its last block, resealed, are a corrupt
/// frame: a one-frame document is refused.
#[test]
fn every_truncation_and_extension_reads_as_a_torn_tail() {
    let (log, ends) = three_frame_log();
    for len in 0..=log.len() {
        let complete = ends.iter().filter(|&&end| end <= len).count();
        match (decode(&log[..len]), after_frames(complete)) {
            (Ok(got), Some(want)) => assert_same(&got, &want, &format!("cut at {len}")),
            (Err(_), None) => {}
            (got, _) => panic!("cut at {len}: {complete} complete frames, read {got:?}"),
        }
    }
    let good = checkpoint(-1.0).to_durable_bytes();
    let whole = after_frames(3).unwrap();
    for extra in [
        &[0u8][..],
        b"\n",
        b" ",
        &[0xff; 16],
        &good[..64],
        &log[..ends[0]],
    ] {
        let mut long = log.clone();
        long.extend_from_slice(extra);
        assert_same(
            &decode(&long).unwrap(),
            &whole,
            &format!("extension by {extra:?}"),
        );
        // Resealed, so only the trailing bytes are wrong.
        let (state, mut blocks) = state_and_blocks(&good);
        blocks.extend_from_slice(extra);
        assert!(decode(&resealed(&state, &blocks))
            .unwrap_err()
            .contains("past the last chain block"));
    }
}

/// A flipped byte anywhere in frame `k` of a log falls back to frame
/// `k - 1`, rows bit-exact; in the first frame it leaves nothing to
/// read.
#[test]
fn a_flipped_byte_in_frame_k_falls_back_to_frame_k_minus_one() {
    let (log, ends) = three_frame_log();
    for at in 0..log.len() {
        let frame = ends.iter().filter(|&&end| end <= at).count();
        for mask in [0x01, 0x80] {
            let mut bad = log.clone();
            bad[at] ^= mask;
            match (decode(&bad), after_frames(frame)) {
                (Ok(got), Some(want)) => {
                    assert_same(&got, &want, &format!("flip {mask:#04x} at {at}"))
                }
                (Err(_), None) => {}
                (got, _) => panic!("flip {mask:#04x} at {at} (frame {frame}): read {got:?}"),
            }
        }
    }
}

/// A later frame with forged lengths or row counts, with rows that are
/// not those of the iterations since the frame before, at an iteration
/// that does not advance, or with another `dim` — checksum intact in
/// every case — ends the walk there as a corrupt frame does, within the
/// allocation bound every decode here is held to.
#[test]
fn malformed_later_frames_fall_back_to_the_frame_before() {
    let (log, ends) = three_frame_log();
    let first = after_frames(1).unwrap();
    let (state, blocks) = state_and_blocks(&log[ends[0]..ends[1]]);
    let per_row = (8 * DIM + 4) as u64;
    // The second chain's block starts after the first's 15 rows.
    let second = 8 + 15 * (8 * DIM + 4);
    for (at, rows) in [0, second]
        .into_iter()
        .flat_map(|at| [14, 16, 1 << 32, u64::MAX / per_row + 1, u64::MAX].map(|r| (at, r)))
    {
        let mut forged = blocks.clone();
        forged[at..at + 8].copy_from_slice(&rows.to_le_bytes());
        let mut bad = log[..ends[0]].to_vec();
        bad.extend_from_slice(&resealed(&state, &forged));
        bad.extend_from_slice(&log[ends[1]..]);
        assert_same(
            &decode(&bad).unwrap(),
            &first,
            &format!("{rows} rows at {at}"),
        );
    }
    // Both blocks whole, then bytes past them: the rows the frame read
    // are dropped with it.
    let mut long = blocks.clone();
    long.extend_from_slice(&[0; 8]);
    let mut bad = log[..ends[0]].to_vec();
    bad.extend_from_slice(&resealed(&state, &long));
    assert_same(&decode(&bad).unwrap(), &first, "bytes past the last block");
    let payload = &log[ends[0]..ends[1]];
    let payload = &payload[payload.iter().position(|&b| b == b'\n').unwrap() + 1..];
    let sum = bayes_obs::fnv1a64(payload);
    for len in [0, payload.len() as u64 + 1, 1 << 40, u64::MAX] {
        let mut bad = log[..ends[0]].to_vec();
        bad.extend_from_slice(format!("BAYESCKPT 3 {len:020} {sum:016x}\n").as_bytes());
        bad.extend_from_slice(payload);
        bad.extend_from_slice(&log[ends[1]..]);
        assert_same(&decode(&bad).unwrap(), &first, &format!("length {len}"));
    }
    // A later frame must hold exactly the rows of the iterations since
    // the frame before, and must come after it.
    let whole = checkpoint(-1.0);
    let mut bad = log[..ends[0]].to_vec();
    bad.extend_from_slice(&prefix(&whole, 25, 9).to_durable_bytes());
    assert_same(&decode(&bad).unwrap(), &first, "16 rows for 15 iterations");
    let mut again = prefix(&whole, 10, 10);
    again.chain_states[0].sampler.lp = -2.0;
    let mut bad = log[..ends[0]].to_vec();
    bad.extend_from_slice(&again.to_durable_bytes());
    assert_same(
        &decode(&bad).unwrap(),
        &first,
        "a second frame at iteration 10",
    );
    // A later frame that changes `dim` is corrupt, too.
    let forged = state.replacen("\"dim\":3", "\"dim\":2", 1);
    let mut bad = log[..ends[0]].to_vec();
    bad.extend_from_slice(&resealed(&forged, &blocks));
    assert_same(&decode(&bad).unwrap(), &first, "dim 2");
}

#[test]
fn forged_row_counts_are_rejected_without_allocating() {
    let (state, blocks) = state_and_blocks(&checkpoint(-1.0).to_durable_bytes());
    assert_eq!(blocks.len(), 2 * BLOCK);
    let per_row = (8 * DIM + 4) as u64;
    let forged_counts = [
        ROWS as u64 - 1,
        ROWS as u64 + 1,
        1 << 32,
        1 << 61,
        u64::MAX / per_row,
        u64::MAX / per_row + 1,
        u64::MAX,
    ];
    for block in [0, BLOCK] {
        for rows in forged_counts {
            let mut forged = blocks.clone();
            forged[block..block + 8].copy_from_slice(&rows.to_le_bytes());
            assert!(
                decode(&resealed(&state, &forged)).is_err(),
                "{rows} rows in the block at {block} decoded"
            );
        }
    }
}

#[test]
fn forged_dims_and_lengths_are_rejected_without_allocating() {
    let doc = checkpoint(-1.0).to_durable_bytes();
    let (state, blocks) = state_and_blocks(&doc);
    for dim in [
        "0",
        "1",
        "4",
        "1099511627776",
        "18446744073709551615",
        "18446744073709551616",
    ] {
        let forged = state.replacen("\"dim\":3", &format!("\"dim\":{dim}"), 1);
        assert!(
            decode(&resealed(&forged, &blocks)).is_err(),
            "dim {dim} decoded"
        );
    }
    // A block cut short or overlong, with the header resealed over it.
    for cut in [1, 4, 8 * DIM, BLOCK - 8] {
        let mut short = blocks.clone();
        short.drain(BLOCK - cut..BLOCK);
        assert!(
            decode(&resealed(&state, &short)).is_err(),
            "block short by {cut} decoded"
        );
        let mut long = blocks.clone();
        long.splice(BLOCK..BLOCK, std::iter::repeat_n(0u8, cut));
        assert!(
            decode(&resealed(&state, &long)).is_err(),
            "block long by {cut} decoded"
        );
    }
    // A header whose payload length is forged, checksum intact.
    let payload = &doc[doc.iter().position(|&b| b == b'\n').unwrap() + 1..];
    let sum = bayes_obs::fnv1a64(payload);
    for len in [0, payload.len() as u64 + 1, 1 << 40, u64::MAX] {
        let mut forged = format!("BAYESCKPT 3 {len:020} {sum:016x}\n").into_bytes();
        forged.extend_from_slice(payload);
        // Shorter than the payload, the frame ends early and fails its
        // checksum; longer, it is torn.
        let expected = if len == 0 { "checksum" } else { "torn" };
        assert!(
            decode(&forged).unwrap_err().contains(expected),
            "length {len} decoded"
        );
    }
}

#[test]
fn a_deeply_nested_state_is_rejected() {
    // Checksum intact, so only the parser's nesting bound stands
    // between this state line and a stack overflow.
    let state = format!("{}{}", "[".repeat(1 << 20), "]".repeat(1 << 20));
    assert!(decode(&resealed(&state, &[]))
        .unwrap_err()
        .contains("nesting"));
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_rejected(bytes in proptest::collection::vec(0u8..=255, 0..700)) {
        prop_assert!(decode(&bytes).is_err());
        // Behind a magic and version, and behind a full valid header.
        let mut headed = b"BAYESCKPT 3 ".to_vec();
        headed.extend_from_slice(&bytes);
        prop_assert!(decode(&headed).is_err());
        prop_assert!(decode(&sealed(&bytes)).is_err());
        // Behind a valid state line: arbitrary chain blocks.
        let (state, _) = state_and_blocks(&checkpoint(-1.0).to_durable_bytes());
        prop_assert!(decode(&resealed(&state, &bytes)).is_err());
    }

    #[test]
    fn arbitrary_draw_bits_round_trip(
        bits in proptest::collection::vec(0u64..=u64::MAX, 0..(4 * DIM)),
        evals in 0u32..=u32::MAX,
    ) {
        let mut ck = checkpoint(-1.0);
        let rows = bits.len() / DIM;
        ck.chain_states[1].draws = bits
            .chunks_exact(DIM)
            .map(|row| row.iter().map(|&b| f64::from_bits(b)).collect())
            .collect();
        ck.chain_states[1].evals_per_iter = vec![evals; rows];
        let back = decode(&ck.to_durable_bytes()).expect("decodes");
        let got: Vec<u64> = back.chain_states[1].draws.iter().flatten().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&got[..], &bits[..rows * DIM]);
        prop_assert_eq!(&back.chain_states[1].evals_per_iter, &ck.chain_states[1].evals_per_iter);
    }
}
