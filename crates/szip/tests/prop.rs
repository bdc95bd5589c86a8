//! Randomized tests: szip must be a lossless codec for arbitrary inputs and
//! a total function over arbitrary compressed garbage. Driven by simkit's
//! deterministic RNG (fixed seeds, offline-friendly — no proptest).

use oskit::mem::FillProfile;
use simkit::DetRng;
use szip::lzss::{self, BlockError, Counter, Scratch, MAX_MATCH};
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

/// `gen_input`'s families plus every fill profile at lengths straddling
/// the match-length cap and the block size.
fn identity_inputs(rng: &mut DetRng) -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = (0..CASES).map(|_| gen_input(rng)).collect();
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
