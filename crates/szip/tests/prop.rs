//! Randomized tests: szip must be a lossless codec for arbitrary inputs and
//! a total function over arbitrary compressed garbage. Driven by simkit's
//! deterministic RNG (fixed seeds, offline-friendly — no proptest).

use oskit::mem::FillProfile;
use simkit::DetRng;
use szip::lzss::{self, BlockError, Counter, Scratch, MAX_MATCH, MIN_MATCH};
use szip::stream::BLOCK;

/// One input per adversarial family, sized by `rng`:
/// arbitrary bytes, single-byte runs (overlapping matches), repeated
/// phrases (long-range in-block matches), and block-boundary straddlers.
fn gen_input(rng: &mut DetRng) -> Vec<u8> {
    match rng.below(4) {
        0 => {
            let mut v = vec![0u8; rng.below(20_000) as usize];
            rng.fill_bytes(&mut v);
            v
        }
        1 => vec![rng.next_u32() as u8; rng.below(200_000) as usize],
        2 => {
            let unit: Vec<u8> = {
                let mut u = vec![0u8; rng.range(1, 64) as usize];
                rng.fill_bytes(&mut u);
                u
            };
            let reps = rng.range(1, 2_000) as usize;
            unit.iter()
                .copied()
                .cycle()
                .take(unit.len() * reps)
                .collect()
        }
        _ => {
            let b = rng.next_u32() as u8;
            let n = rng.range(
                (szip::stream::BLOCK - 3) as u64,
                (szip::stream::BLOCK + 3) as u64,
            );
            (0..n).map(|i| b.wrapping_add((i % 7) as u8)).collect()
        }
    }
}

const CASES: u64 = 64;

#[test]
fn roundtrip() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_0001);
    for case in 0..CASES {
        let input = gen_input(&mut rng);
        let comp = szip::compress(&input);
        assert_eq!(szip::decompress(&comp).unwrap(), input, "case {case}");
    }
}

#[test]
fn counting_matches_materializing() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_0002);
    for case in 0..CASES {
        let input = gen_input(&mut rng);
        assert_eq!(
            szip::compressed_len(&input),
            szip::compress(&input).len() as u64,
            "case {case}"
        );
    }
}

#[test]
fn chunking_is_invisible() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_0003);
    for case in 0..CASES {
        let input = gen_input(&mut rng);
        let chunk = rng.range(1, 10_000) as usize;
        let whole = szip::compress(&input);
        let mut c = szip::Compressor::new();
        for part in input.chunks(chunk) {
            c.write(part);
        }
        assert_eq!(c.finish(), whole, "case {case} (chunk {chunk})");
    }
}

#[test]
fn decompressor_never_panics_on_garbage() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_0004);
    for _ in 0..256 {
        let mut garbage = vec![0u8; rng.below(4096) as usize];
        rng.fill_bytes(&mut garbage);
        let _ = szip::decompress(&garbage);
        // Also with a valid magic prepended.
        let mut with_magic = szip::stream::MAGIC.to_vec();
        with_magic.append(&mut garbage);
        let _ = szip::decompress(&with_magic);
    }
    // The overlong-varint family: a header varint (raw_len, or payload_len
    // after a plausible raw_len + kind) whose continuation bits never clear,
    // followed by garbage. Corruption, so `BadHeader` — from the first
    // `write`, not `Truncated` at `finish` — however the tail is chunked.
    for case in 0..64 {
        let mut bad = szip::stream::MAGIC.to_vec();
        if rng.below(2) == 0 {
            bad.extend_from_slice(&[rng.range(1, 0x80) as u8, rng.below(2) as u8]);
        }
        let run = rng.range(11, 40) as usize;
        bad.extend((0..run).map(|_| 0x80 | rng.next_u32() as u8));
        let mut tail = vec![0u8; rng.below(64) as usize];
        rng.fill_bytes(&mut tail);
        bad.extend_from_slice(&tail);
        assert_eq!(
            szip::decompress(&bad),
            Err(szip::SzipError::BadHeader),
            "case {case}"
        );
        let mut d = szip::Decompressor::new();
        let chunk = rng.range(1, 16) as usize;
        let streamed = bad.chunks(chunk).try_for_each(|part| d.write(part));
        assert_eq!(streamed, Err(szip::SzipError::BadHeader), "case {case}");
    }
}

#[test]
fn corrupting_one_byte_never_yields_wrong_data_silently() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_0005);
    for case in 0..CASES {
        let mut input = vec![0u8; rng.range(64, 4096) as usize];
        rng.fill_bytes(&mut input);
        // Either decode fails, or it succeeds; if it succeeds with different
        // bytes than the original, the CRC the image layer stores alongside
        // must catch it. Emulate that contract here.
        let comp = szip::compress(&input);
        let crc = szip::crc32(&input);
        let mut bad = comp.clone();
        let idx = rng.below(bad.len() as u64) as usize;
        let delta = (rng.range(1, 256)) as u8;
        bad[idx] ^= delta;
        if let Ok(out) = szip::decompress(&bad) {
            if out != input {
                assert_ne!(
                    szip::crc32(&out),
                    crc,
                    "case {case}: corruption escaped CRC"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Kernel identity. The word-wide kernels in `szip::{crc, lzss}` must emit
// exactly what the byte-at-a-time ones they replaced did: every stored
// byte, every virtual-time charge and every committed baseline in this
// repository is downstream of these bytes. The byte-at-a-time kernels
// survive only here, as the oracle.
// ---------------------------------------------------------------------

/// The LZSS kernels as they stood at commit 6f29518, copied verbatim (hash
/// constants included), and CRC-32 straight from its bit-at-a-time
/// definition. Test-only: never a second runtime path.
mod oracle {
    use super::BlockError;

    const POLY: u32 = 0xEDB8_8320;
    const MIN_MATCH: usize = 3;
    const MAX_MATCH: usize = MIN_MATCH + 255;
    const MAX_BLOCK: usize = 1 << 16;
    const HASH_BITS: u32 = 14;
    const HASH_SIZE: usize = 1 << HASH_BITS;
    const MAX_CHAIN: usize = 32;
    const NIL: u32 = u32::MAX;

    pub fn crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    fn hash3(data: &[u8], i: usize) -> usize {
        let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], 0]);
        ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
    }

    pub fn compress_block(input: &[u8]) -> Vec<u8> {
        assert!(input.len() <= MAX_BLOCK, "block too large");
        let mut out = Vec::new();
        let mut head = vec![NIL; HASH_SIZE];
        let mut prev = vec![NIL; MAX_BLOCK];

        let n = input.len();
        let mut i = 0usize;
        let mut ctrl_pos = 0usize;
        let mut ctrl: u8 = 0;
        let mut ntok: u32 = 0;

        macro_rules! begin_token {
            () => {
                if ntok == 0 {
                    ctrl_pos = out.len();
                    out.push(0);
                }
            };
        }
        macro_rules! end_token {
            ($is_match:expr) => {
                if $is_match {
                    ctrl |= 1 << ntok;
                }
                ntok += 1;
                if ntok == 8 {
                    out[ctrl_pos] = ctrl;
                    ctrl = 0;
                    ntok = 0;
                }
            };
        }

        while i < n {
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            if i + MIN_MATCH <= n {
                let h = hash3(input, i);
                let mut cand = head[h];
                let mut chains = 0;
                let limit = (n - i).min(MAX_MATCH);
                while cand != NIL && chains < MAX_CHAIN {
                    let c = cand as usize;
                    if best_len == 0 || input[c + best_len] == input[i + best_len] {
                        let mut l = 0usize;
                        while l < limit && input[c + l] == input[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_off = i - c;
                            if l >= limit {
                                break;
                            }
                        }
                    }
                    cand = prev[c];
                    chains += 1;
                }
            }

            if best_len >= MIN_MATCH {
                begin_token!();
                out.push((best_off & 0xff) as u8);
                out.push((best_off >> 8) as u8);
                out.push((best_len - MIN_MATCH) as u8);
                end_token!(true);
                let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
                let mut j = i;
                while j < end {
                    let h = hash3(input, j);
                    prev[j] = head[h];
                    head[h] = j as u32;
                    j += 1;
                }
                i += best_len;
            } else {
                begin_token!();
                out.push(input[i]);
                end_token!(false);
                if i + MIN_MATCH <= n {
                    let h = hash3(input, i);
                    prev[i] = head[h];
                    head[h] = i as u32;
                }
                i += 1;
            }
        }
        if ntok > 0 {
            out[ctrl_pos] = ctrl;
        }
        out
    }

    pub fn decompress_block(
        payload: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), BlockError> {
        let base = out.len();
        let target = base + raw_len;
        let mut i = 0usize;
        while out.len() < target {
            if i >= payload.len() {
                return Err(BlockError::Truncated);
            }
            let ctrl = payload[i];
            i += 1;
            for bit in 0..8 {
                if out.len() >= target {
                    break;
                }
                if ctrl & (1 << bit) != 0 {
                    if i + 3 > payload.len() {
                        return Err(BlockError::Truncated);
                    }
                    let off = payload[i] as usize | ((payload[i + 1] as usize) << 8);
                    let len = payload[i + 2] as usize + MIN_MATCH;
                    i += 3;
                    let pos = out.len();
                    if off == 0 || off > pos - base {
                        return Err(BlockError::BadOffset { at: pos });
                    }
                    for k in 0..len {
                        let b = out[pos - off + k];
                        out.push(b);
                    }
                } else {
                    if i >= payload.len() {
                        return Err(BlockError::Truncated);
                    }
                    out.push(payload[i]);
                    i += 1;
                }
            }
        }
        if out.len() != target {
            return Err(BlockError::WrongLength {
                expected: raw_len,
                got: out.len() - base,
            });
        }
        Ok(())
    }
}

const PROFILES: [FillProfile; 5] = [
    FillProfile::Zeros,
    FillProfile::Random,
    FillProfile::Text,
    FillProfile::Code,
    FillProfile::Mixed {
        zero_pct: 30,
        text_pct: 30,
        code_pct: 20,
    },
];

/// `len` random bytes, none equal to `avoid`.
fn bytes_without(rng: &mut DetRng, len: usize, avoid: u8) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    for b in &mut v {
        if *b == avoid {
            *b = avoid.wrapping_add(1);
        }
    }
    v
}

/// A one-byte run of `b` embedded in random bytes: `head` bytes before it,
/// the last of them equal to `b` when `same_before` (so the run's first
/// match may reach one byte further back), and `tail` bytes after it that
/// differ from `b`, so the run ends exactly where it says.
fn embedded_run(
    rng: &mut DetRng,
    b: u8,
    head: usize,
    same_before: bool,
    run: usize,
    tail: usize,
) -> Vec<u8> {
    let mut v = bytes_without(rng, head, b);
    if same_before {
        if let Some(last) = v.last_mut() {
            *last = b;
        }
    }
    v.extend(std::iter::repeat_n(b, run));
    v.extend(bytes_without(rng, tail, b));
    v
}

/// Inputs where a match of offset 1 (a run of one byte) meets every edge
/// the compressor's interior insert has: run lengths around `MIN_MATCH`
/// and `MAX_MATCH`, what precedes the run, the block's end and the block
/// boundary, runs of other bytes right after, and an earlier run of the
/// same byte already in the hash chain.
fn run_inputs(rng: &mut DetRng) -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    // Every length from one below the shortest match to past the longest,
    // mid-block, preceded by the same byte and by a different one.
    for run in MIN_MATCH - 1..=MAX_MATCH + 3 {
        for same_before in [false, true] {
            let b = rng.next_u32() as u8;
            inputs.push(embedded_run(rng, b, 100, same_before, run, 100));
        }
    }
    // Runs ending 0, 1 or 2 bytes before the end of the block (and of
    // the input), so the last keys are never inserted.
    for run in [3, 4, 5, 6, MAX_MATCH - 1, MAX_MATCH, MAX_MATCH + 1, 1000] {
        for tail in 0..MIN_MATCH {
            for same_before in [false, true] {
                inputs.push(embedded_run(rng, 0, 50, same_before, run, tail));
                let head = BLOCK - run - tail;
                inputs.push(embedded_run(rng, 0xff, head, same_before, run, tail));
            }
        }
    }
    // Runs straddling the block boundary.
    for before in [1, 2, 3, 200, MAX_MATCH + 1] {
        for after in [1, 2, 3, 200] {
            let b = rng.next_u32() as u8;
            inputs.push(embedded_run(
                rng,
                b,
                BLOCK - before,
                false,
                before + after,
                64,
            ));
        }
    }
    // Back-to-back runs of different bytes, and a block holding several
    // runs of the same byte so the chain already has entries in `h`.
    for _ in 0..16 {
        let mut v = Vec::new();
        let mut b = 0u8;
        while v.len() < 20_000 {
            b = b.wrapping_add(rng.range(1, 4) as u8);
            let run = rng.range(1, 2 * MAX_MATCH as u64) as usize;
            v.extend(std::iter::repeat_n(b % 4, run));
        }
        inputs.push(v);
    }
    for _ in 0..16 {
        let mut v = Vec::new();
        while v.len() < 20_000 {
            let gap = rng.below(40) as usize;
            v.extend(bytes_without(rng, gap, 0));
            let run = rng.range(1, 600) as usize;
            v.extend(std::iter::repeat_n(0u8, run));
        }
        inputs.push(v);
    }
    inputs
}

/// The layout of a `realmem` workload's regions: 4 KiB pages cycling
/// through zeros, text, code and random bytes, two zero pages in ten.
fn page_mix(seed: u64, len: usize) -> Vec<u8> {
    use FillProfile::{Code, Random, Text, Zeros};
    const PAGE: usize = 4096;
    const MIX: [FillProfile; 10] = [
        Zeros, Text, Code, Random, Text, Code, Zeros, Text, Code, Random,
    ];
    let mut buf = vec![0u8; len];
    for (k, page) in buf.chunks_mut(PAGE).enumerate() {
        MIX[k % MIX.len()].fill(seed, (k * PAGE) as u64, page);
    }
    buf
}

/// The match finder's hash of the 3-byte key `k`, the way the kernel
/// computes it: 20 bits for the seen-key filter, whose top 14 are the
/// key's chain bucket.
fn filter_hash(k: u32) -> u32 {
    k.wrapping_mul(0x9E37_79B1) >> 12
}

/// Two distinct 3-byte keys whose hashes agree in the bits `keep` selects.
fn colliding_keys(rng: &mut DetRng, keep: u32) -> ([u8; 3], [u8; 3]) {
    let mut by_hash = std::collections::HashMap::new();
    loop {
        let k = rng.next_u32() & 0xFF_FFFF;
        let h = filter_hash(k) & keep;
        match by_hash.insert(h, k) {
            Some(other) if other != k => {
                let bytes = |k: u32| [k as u8, (k >> 8) as u8, (k >> 16) as u8];
                return (bytes(other), bytes(k));
            }
            _ => {}
        }
    }
}

/// Inputs aimed at the seen-key filter that lets the compressor skip a
/// chain walk: keys that share a chain bucket or a filter bit without
/// sharing the key, a key first seen only at a covered position a match's
/// end reaches past, and blocks of very different kinds through one
/// scratch (the filter must be clear again after each).
fn filter_inputs(rng: &mut DetRng) -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    // Filler with no letters, so the keys below occur only where placed.
    let filler = |rng: &mut DetRng, len: usize| -> Vec<u8> {
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v.iter_mut().for_each(|b| *b |= 0x80);
        v
    };
    // Same bucket, different keys: the later key's walk meets only
    // collisions (and its own earlier occurrences). Same 20-bit filter
    // hash, different keys: the filter bit is set, yet no candidate
    // shares the key.
    for keep in [0xF_FFC0, 0xF_FFFF] {
        for _ in 0..8 {
            let (a, b) = colliding_keys(rng, keep);
            let mut v = Vec::new();
            for round in 0..40 {
                let gap = rng.below(24) as usize;
                v.extend(filler(rng, gap));
                v.extend(if round % 3 == 2 { b } else { a });
            }
            inputs.push(v);
        }
    }
    // "abcdefgh" is matched the second time it appears; the match's last
    // two covered positions hold the keys "ghQ" and "hQ" + the next byte,
    // which nothing before has. They are searched again later, after
    // filler, at the block's end, and across a second match.
    for tail in [1usize, 2, 3, 40] {
        let mut v = filler(rng, 100);
        v.extend(b"abcdefgh");
        v.extend(filler(rng, 50));
        v.extend(b"abcdefghQR");
        v.extend(filler(rng, 50));
        v.extend(b"ghQR");
        v.extend(filler(rng, 50));
        v.extend(b"hQR");
        v.extend(filler(rng, 50));
        v.extend(b"abcdefghQRab");
        v.extend(filler(rng, tail));
        v.extend(&b"ghQR"[..tail.min(4)]);
        inputs.push(v);
    }
    // One scratch through a random block, a zero block, a 1 KiB tail,
    // then the page mix: a block that set most filter words, one that set
    // a few, a short one, then the mix.
    let mut v = vec![0u8; BLOCK];
    rng.fill_bytes(&mut v);
    v.extend(vec![0u8; BLOCK]);
    v.extend(filler(rng, 1024));
    inputs.push(v);
    inputs.push(page_mix(rng.next_u64(), 2 * BLOCK));
    inputs
}

/// `gen_input`'s families, the embedded runs, the filter's edge cases,
/// `realmem`'s page mix, and every fill profile at lengths straddling the
/// match-length cap and the block size.
fn identity_inputs(rng: &mut DetRng) -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = (0..CASES).map(|_| gen_input(rng)).collect();
    inputs.extend(run_inputs(rng));
    inputs.extend(filter_inputs(rng));
    for len in [3 * BLOCK, BLOCK + 3 * 4096 + 17] {
        inputs.push(page_mix(rng.next_u64(), len));
    }
    for profile in PROFILES {
        for len in [
            0,
            1,
            MAX_MATCH - 1,
            MAX_MATCH,
            MAX_MATCH + 1,
            2 * MAX_MATCH + 1,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            BLOCK + MAX_MATCH + 1,
        ] {
            inputs.push(profile.bytes(rng.next_u64(), len));
        }
    }
    inputs
}

#[test]
fn compress_kernel_is_byte_identical_to_the_oracle() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_0006);
    let mut scratch = Scratch::new();
    for (case, input) in identity_inputs(&mut rng).iter().enumerate() {
        for (b, block) in input.chunks(BLOCK).enumerate() {
            let want = oracle::compress_block(block);
            let mut got = Vec::new();
            lzss::compress_block(block, &mut scratch, &mut got);
            assert_eq!(got, want, "case {case} block {b}: compressed bytes");
            let mut counted = Counter::default();
            lzss::compress_block(block, &mut scratch, &mut counted);
            assert_eq!(counted.0, want.len() as u64, "case {case} block {b}: count");
        }
        assert_eq!(
            szip::compressed_len(input),
            szip::compress(input).len() as u64,
            "case {case}: compressed_len"
        );
    }
}

/// Decode `payload` with both decoders; result *and* whatever reached the
/// output buffer (a failed decode leaves a partial block behind) must agree.
fn assert_decoders_agree(payload: &[u8], raw_len: usize, what: &str) {
    let prefix = [0xA5u8; 5]; // a non-empty `out`, as mid-stream blocks see
    let mut want = prefix.to_vec();
    let mut got = prefix.to_vec();
    let want_r = oracle::decompress_block(payload, raw_len, &mut want);
    let got_r = lzss::decompress_block(payload, raw_len, &mut got);
    assert_eq!(got_r, want_r, "{what}: result");
    assert_eq!(got, want, "{what}: output bytes");
}

#[test]
fn decompress_kernel_agrees_with_the_oracle_on_valid_and_corrupt_payloads() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_0007);
    for (case, input) in identity_inputs(&mut rng).iter().enumerate() {
        for block in input.chunks(BLOCK) {
            let payload = oracle::compress_block(block);
            assert_decoders_agree(&payload, block.len(), &format!("case {case} valid"));
            // A header that lies about the length, both ways.
            assert_decoders_agree(&payload, block.len() + 1, &format!("case {case} long"));
            if !block.is_empty() {
                assert_decoders_agree(&payload, block.len() - 1, &format!("case {case} short"));
            }
            if payload.is_empty() {
                continue;
            }
            // Single-bit corruptions: early tokens cascade furthest, so
            // bias half the flips into the first 64 bytes.
            for flip in 0..24 {
                let span = if flip % 2 == 0 {
                    payload.len().min(64)
                } else {
                    payload.len()
                };
                let at = rng.below(span as u64) as usize;
                let bit = rng.below(8) as u8;
                let mut bad = payload.clone();
                bad[at] ^= 1 << bit;
                assert_decoders_agree(
                    &bad,
                    block.len(),
                    &format!("case {case} flip byte {at} bit {bit}"),
                );
            }
            // And a torn tail.
            let cut = rng.below(payload.len() as u64) as usize;
            assert_decoders_agree(
                &payload[..cut],
                block.len(),
                &format!("case {case} cut {cut}"),
            );
        }
    }
}

/// One token of a hand-built LZSS block payload.
#[derive(Clone, Copy)]
enum Tok {
    Lit(u8),
    Match { off: usize, len: usize },
}

/// `toks` as a block payload: a control byte before every eight tokens.
fn encode(toks: &[Tok]) -> Vec<u8> {
    let mut out = Vec::new();
    for group in toks.chunks(8) {
        let at = out.len();
        out.push(0);
        for (bit, tok) in group.iter().enumerate() {
            match *tok {
                Tok::Lit(b) => out.push(b),
                Tok::Match { off, len } => {
                    out[at] |= 1 << bit;
                    out.extend([off as u8, (off >> 8) as u8, (len - MIN_MATCH) as u8]);
                }
            }
        }
    }
    out
}

/// How many bytes `toks` decode to.
fn decoded_len(toks: &[Tok]) -> usize {
    toks.iter()
        .map(|t| match *t {
            Tok::Lit(_) => 1,
            Tok::Match { len, .. } => len,
        })
        .sum()
}

/// `n` literal tokens of random bytes.
fn literals(rng: &mut DetRng, n: usize) -> Vec<Tok> {
    (0..n).map(|_| Tok::Lit(rng.next_u32() as u8)).collect()
}

/// Decode `toks` with both decoders against its true length and lengths
/// one short and one long of it.
fn assert_tokens_agree(toks: &[Tok], what: &str) {
    let payload = encode(toks);
    let n = decoded_len(toks);
    assert_decoders_agree(&payload, n, &format!("{what}: exact"));
    assert_decoders_agree(&payload, n + 1, &format!("{what}: long"));
    if n > 0 {
        assert_decoders_agree(&payload, n - 1, &format!("{what}: short"));
    }
}

/// Each fast path of the decoder at the edges where it must give way: a
/// short match's fixed 16-byte copy with less than 16 bytes of the block
/// left, every offset a match may overlap itself at, and eight literals in
/// one copy when fewer than eight are left or the payload tears among them.
#[test]
fn decompress_fast_paths_agree_with_the_oracle_at_their_edges() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_000A);
    // Short non-overlapping matches ending `k` bytes before the block's
    // end, 0..=16: the 16-byte copy crosses the end for every `k < 16 -
    // len` and must give way to an exact one.
    for k in 0..=16 {
        for len in MIN_MATCH..=16 {
            for off in [len, len + 1, 16, 17, 24] {
                let mut toks = literals(&mut rng, 24);
                toks.push(Tok::Match { off, len });
                toks.extend(literals(&mut rng, k));
                assert_tokens_agree(&toks, &format!("short match off {off} len {len} then {k}"));
            }
        }
    }
    // Every offset 1..=17 against lengths 3..=20 and the longest, from
    // fills (offset 1) through overlapping to plain copies, in mid-block
    // and as the block's last token.
    for off in 1..=17 {
        for len in (MIN_MATCH..=20).chain([MAX_MATCH]) {
            for tail in [0, 20] {
                let mut toks = literals(&mut rng, 17);
                toks.push(Tok::Match { off, len });
                toks.extend(literals(&mut rng, tail));
                assert_tokens_agree(&toks, &format!("off {off} len {len} tail {tail}"));
            }
        }
    }
    // A zero control byte after a group holding a match, with 0..=8 of
    // its literals left in the block: all eight in the payload, or just
    // those left (as the compressor ends a block).
    for left in 0..=8 {
        let mut toks = literals(&mut rng, 7);
        toks.push(Tok::Match { off: 3, len: 5 });
        let head = decoded_len(&toks);
        toks.extend(literals(&mut rng, 8));
        let payload = encode(&toks);
        assert_decoders_agree(
            &payload,
            head + left,
            &format!("zero ctrl, {left} left of 8"),
        );
        let ended = encode(&toks[..8 + left]);
        assert_decoders_agree(&ended, head + left, &format!("zero ctrl, {left} literals"));
        // Torn inside the eight literals.
        let ctrl_at = payload.len() - 9;
        for cut in ctrl_at..payload.len() {
            assert_decoders_agree(
                &payload[..cut],
                head + 8,
                &format!("zero ctrl, torn at {cut}"),
            );
        }
    }
    // Long runs of literal groups and short matches, so that the fixed
    // copies' overshoot is overwritten by every kind of token that follows.
    for case in 0..64 {
        let mut toks = literals(&mut rng, 20);
        for _ in 0..rng.range(1, 200) {
            let tok = match rng.below(4) {
                0 => Tok::Lit(rng.next_u32() as u8),
                1 => Tok::Match {
                    off: rng.range(1, 20) as usize,
                    len: rng.range(MIN_MATCH as u64, 20) as usize,
                },
                2 => {
                    let len = rng.range(MIN_MATCH as u64, 17) as usize;
                    Tok::Match {
                        off: rng.range(len as u64, 20) as usize,
                        len,
                    }
                }
                _ => Tok::Match {
                    off: rng.range(1, 20) as usize,
                    len: rng.range(MIN_MATCH as u64, MAX_MATCH as u64 + 1) as usize,
                },
            };
            toks.push(tok);
        }
        assert_tokens_agree(&toks, &format!("mixed case {case}"));
    }
}

#[test]
fn crc_kernel_matches_the_bitwise_oracle_for_every_split() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_0008);
    let mut data = vec![0u8; 64];
    rng.fill_bytes(&mut data);
    // Every length 0..=40 at every start alignment 0..8, split at every
    // point: covers all (head, body, tail) shapes around the 8-byte stride.
    for start in 0..8 {
        for len in 0..=40usize {
            let buf = &data[start..start + len];
            let want = oracle::crc32(buf);
            assert_eq!(szip::crc32(buf), want, "one-shot start {start} len {len}");
            for split in 0..=len {
                let mut c = szip::Crc32::new();
                c.update(&buf[..split]);
                c.update(&buf[split..]);
                assert_eq!(c.finish(), want, "start {start} len {len} split {split}");
            }
        }
    }
    // Long inputs fed in pieces of 0..=17 bytes.
    for case in 0..16 {
        let mut long = vec![0u8; rng.range(1, 5_000) as usize];
        rng.fill_bytes(&mut long);
        let mut c = szip::Crc32::new();
        let mut fed = 0usize;
        while fed < long.len() {
            let take = (rng.below(18) as usize).min(long.len() - fed);
            c.update(&long[fed..fed + take]);
            fed += take;
        }
        assert_eq!(c.finish(), oracle::crc32(&long), "case {case}");
    }
    for profile in PROFILES {
        let page = profile.bytes(11, 4096 + 5);
        assert_eq!(szip::crc32(&page), oracle::crc32(&page), "{profile:?}");
    }
}

/// `head` nonzero bytes, `zeros` zero bytes, `tail` nonzero bytes.
fn zero_run_buf(rng: &mut DetRng, head: usize, zeros: usize, tail: usize) -> Vec<u8> {
    let mut v = bytes_without(rng, head, 0);
    v.resize(head + zeros, 0);
    v.extend(bytes_without(rng, tail, 0));
    v
}

#[test]
fn crc_kernel_matches_the_bitwise_oracle_across_zero_runs() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_0009);
    // Zero runs just below, at and above the length the kernel jumps,
    // starting at every alignment after a nonzero head, with and without
    // a nonzero tail, split inside and at the edges of the run.
    for head in 0..8 {
        for zeros in 248..=264 {
            for tail in [0, 1, 5, 8, 13] {
                let buf = zero_run_buf(&mut rng, head, zeros, tail);
                let want = oracle::crc32(&buf);
                assert_eq!(
                    szip::crc32(&buf),
                    want,
                    "head {head} zeros {zeros} tail {tail}"
                );
                let inside = head + rng.range(1, zeros as u64) as usize;
                for split in [
                    head,
                    head + 1,
                    head + 7,
                    inside,
                    head + zeros - 1,
                    head + zeros,
                ] {
                    let mut c = szip::Crc32::new();
                    c.update(&buf[..split]);
                    c.update(&buf[split..]);
                    assert_eq!(
                        c.finish(),
                        want,
                        "head {head} zeros {zeros} tail {tail} split {split}"
                    );
                }
            }
        }
    }
    // A 1 MiB run: every set bit of its length is a jump factor.
    for head in 0..8 {
        let zeros = (1 << 20) + head * 37;
        let buf = zero_run_buf(&mut rng, head, zeros, 11);
        let want = oracle::crc32(&buf);
        assert_eq!(szip::crc32(&buf), want, "head {head} 1 MiB");
        let mut c = szip::Crc32::new();
        for part in buf.chunks(rng.range(300, 70_000) as usize) {
            c.update(part);
        }
        assert_eq!(c.finish(), want, "head {head} 1 MiB in pieces");
    }
    // Zero words that never add up to a jump, between nonzero bytes.
    let mut sparse = Vec::new();
    while sparse.len() < 50_000 {
        let zeros = rng.below(300) as usize;
        let nonzero = rng.range(1, 20) as usize;
        sparse.extend(zero_run_buf(&mut rng, 0, zeros, nonzero));
    }
    assert_eq!(szip::crc32(&sparse), oracle::crc32(&sparse), "sparse zeros");
}

/// The CRC kernel's own thresholds: the shortest stretch between zero-run
/// jumps that folds as four stripes, and how far it scans ahead at most.
const STRIPED: usize = 1024;
const SEGMENT: usize = 64 * 1024;

/// `szip::crc32` and `update` split at each of `splits` agree with the
/// bitwise oracle on `buf`.
fn assert_crc_agrees(buf: &[u8], splits: &[usize], what: &str) {
    let want = oracle::crc32(buf);
    assert_eq!(szip::crc32(buf), want, "{what}: one shot");
    for &split in splits {
        let mut c = szip::Crc32::new();
        c.update(&buf[..split]);
        c.update(&buf[split..]);
        assert_eq!(c.finish(), want, "{what}: split at {split}");
    }
}

#[test]
fn crc_kernel_matches_the_bitwise_oracle_around_stripes_and_segments() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_000B);
    // No zero byte, so nothing is jumped: lengths 1..8 bytes either side
    // of the stripe threshold and of one and two segment bounds, at every
    // start alignment.
    let data = bytes_without(&mut rng, 2 * SEGMENT + 16, 0);
    for edge in [STRIPED, SEGMENT, 2 * SEGMENT] {
        for len in edge - 8..=edge + 8 {
            for start in 0..8 {
                let buf = &data[start..start + len];
                assert_crc_agrees(buf, &[], &format!("len {len} start {start}"));
            }
        }
    }
    // Splits on the stripe boundaries the one-shot fold cuts at, and one
    // byte either side of them.
    for len in [STRIPED, STRIPED + 8, STRIPED + 31, 5_000, SEGMENT + 100] {
        let buf = &data[..len];
        let l = len / 32 * 8;
        let mut splits = Vec::new();
        for k in 1..=4 {
            splits.extend(
                [k * l - 1, k * l, k * l + 1]
                    .into_iter()
                    .filter(|&at| at <= len),
            );
        }
        assert_crc_agrees(buf, &splits, &format!("stripes of {l} in {len}"));
        let mut c = szip::Crc32::new();
        for part in [&buf[..l], &buf[l..3 * l], &buf[3 * l..]] {
            c.update(part);
        }
        assert_eq!(c.finish(), oracle::crc32(buf), "len {len} in three pieces");
    }
    // Zero runs one short of, at and one past the jump threshold, before,
    // inside and after a striped stretch, after nonzero heads of every
    // length 0..8, split at the run's edges.
    for run in [255, 256, 257] {
        for head in 0..8 {
            let layouts = [
                (0, 3 * STRIPED),
                (2 * STRIPED, 2 * STRIPED),
                (3 * STRIPED, 0),
                (STRIPED - 8, STRIPED + 8),
            ];
            for (before, after) in layouts {
                let mut buf = bytes_without(&mut rng, head + before, 0);
                let at = buf.len();
                buf.resize(at + run, 0);
                buf.extend(bytes_without(&mut rng, after, 0));
                assert_crc_agrees(
                    &buf,
                    &[at, at + 1, at + run - 1, at + run],
                    &format!("run {run} head {head} between {before} and {after}"),
                );
            }
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(profile, seed, len, compress(..).len(), FNV-1a of the compressed bytes,
/// crc32 of the raw bytes)`, **recorded by running commit 6f29518** — the
/// last one with byte-at-a-time kernels and per-byte fills. The oracle above
/// and the kernels could be edited together; these cannot follow them.
#[test]
fn golden_constants_from_the_byte_at_a_time_kernels() {
    const MIXED: FillProfile = FillProfile::Mixed {
        zero_pct: 30,
        text_pct: 30,
        code_pct: 20,
    };
    const HALF: FillProfile = FillProfile::Mixed {
        zero_pct: 50,
        text_pct: 0,
        code_pct: 0,
    };
    #[rustfmt::skip]
    let golden: [(FillProfile, u64, usize, usize, u64, u32); 12] = [
        (FillProfile::Zeros, 1, 65_537, 812, 0x7276807408b7b022, 0xe50d43f3),
        (FillProfile::Zeros, 10, 258, 13, 0xcfa939ba322fd654, 0xae69bf9a),
        (FillProfile::Random, 2, 100_000, 100_018, 0xb49f81381cfc8cda, 0x3265c4e3),
        (FillProfile::Random, 8, 4_096, 4_105, 0x477ddde4ea15ae36, 0xf2d2b2d4),
        (FillProfile::Text, 3, 131_072, 16_071, 0x1b4283ee4e096c0e, 0x9786252a),
        (FillProfile::Text, 6, 259, 137, 0xf40d201bb01a418d, 0xb132fddd),
        (FillProfile::Code, 4, 131_072, 48_071, 0x908bb56ccdcbc083, 0xbc22ec9e),
        (FillProfile::Code, 7, 65_535, 23_815, 0x68a9850af49e717b, 0x6bc03922),
        (MIXED, 5, 300_000, 87_837, 0xb004feb9c5938a98, 0x907445bf),
        (MIXED, 7, 131_072, 52_378, 0xf8fcb1a94f9d9ba9, 0xdcb1c565),
        (HALF, 9, 1 << 20, 605_513, 0xcf04a346251d06b9, 0x0b317776),
        (HALF, 3, 65_536 + 261, 41_842, 0x2778a904d3b40764, 0x254341ec),
    ];
    for (profile, seed, len, comp_len, comp_fnv, crc) in golden {
        let what = format!("{profile:?} seed {seed} len {len}");
        let raw = profile.bytes(seed, len);
        let comp = szip::compress(&raw);
        assert_eq!(comp.len(), comp_len, "{what}: compressed length");
        assert_eq!(szip::compressed_len(&raw), comp_len as u64, "{what}");
        assert_eq!(fnv1a(&comp), comp_fnv, "{what}: compressed bytes");
        assert_eq!(szip::crc32(&raw), crc, "{what}: crc32");
        assert_eq!(szip::decompress(&comp).unwrap(), raw, "{what}: round trip");
    }
}
