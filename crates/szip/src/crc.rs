//! CRC-32 (IEEE 802.3 polynomial, the same one gzip uses).
//!
//! Checkpoint images carry a CRC per memory region so restore can verify
//! bit-identical reconstruction — including regions regenerated from
//! synthetic recipes rather than stored bytes.

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

const POLY: u32 = 0xEDB8_8320;

// Slice-by-8 (Intel's "slicing" refinement of Sarwate's byte table):
// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC state
// after byte `b` followed by `k` zero bytes, so eight input bytes fold into
// the state with eight independent lookups instead of eight dependent ones.
// Built at compile time so there is no runtime init to race.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Zero runs at least this long are jumped instead of folded word by word.
const ZERO_JUMP: usize = 256;
/// The words between two jumps fold as four stripes once there are at
/// least this many bytes of them.
const STRIPED: usize = 1024;
/// How far `update` scans ahead for the next jump before it folds what it
/// scanned: far enough that a stripe join is paid rarely, near enough that
/// the bytes are still in cache when they fold.
const SEGMENT: usize = 64 * 1024;

/// `a·b mod P` over GF(2), in the reflected representation the register
/// uses (bit 31 is the coefficient of x⁰): zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    // Bit 31 of `rest` is the coefficient of x^k in `a` at step `k`, and
    // `b` is then b·x^k: add it under a mask rather than a branch, whose
    // outcome would be a coin toss for most constants.
    let mut rest = a;
    let mut p = 0u32;
    while rest != 0 {
        p ^= b & (rest >> 31).wrapping_neg();
        rest <<= 1;
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
    }
    p
}

// `ZEROS[k]` is x^(8·2^k) mod P. Feeding a zero byte shifts the register
// eight times with no input, which is multiplication by x⁸ mod P; so `n`
// zero bytes multiply it by the product of `ZEROS[k]` over the set bits
// `k` of `n` (zlib's `x2nmodp`). Built at compile time like `TABLES`.
const ZEROS: [u32; 64] = {
    let mut zeros = [0u32; 64];
    zeros[0] = 1 << (31 - 8); // x⁸
    let mut k = 1;
    while k < 64 {
        zeros[k] = multmodp(zeros[k - 1], zeros[k - 1]);
        k += 1;
    }
    zeros
};

/// The register after `n` zero bytes, in one multiplication per set bit of
/// `n` instead of one table step per byte.
fn skip_zeros(mut c: u32, n: usize) -> u32 {
    let mut bits = n as u64;
    while bits != 0 {
        c = multmodp(ZEROS[bits.trailing_zeros() as usize], c);
        bits &= bits - 1;
    }
    c
}

/// The little-endian word an eight-byte slice holds.
#[inline(always)]
fn le(w: &[u8]) -> u64 {
    u64::from_le_bytes(w.try_into().expect("8 bytes"))
}

/// Length of the run of zero bytes `bytes` starts with: 32 bytes a step,
/// then the word and the byte it ends in.
#[inline(always)]
fn zero_run(bytes: &[u8]) -> usize {
    let mut n = 0;
    for block in bytes.chunks_exact(32) {
        if block.chunks_exact(8).fold(0, |acc, w| acc | le(w)) != 0 {
            break;
        }
        n += 32;
    }
    let mut words = bytes[n..].chunks_exact(8);
    for w in &mut words {
        let x = le(w);
        if x != 0 {
            return n + (x.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + words.remainder().iter().take_while(|&&b| b == 0).count()
}

/// Scan the words of `bytes` from `i` for the next zero run worth jumping:
/// its start and length, or the first word boundary at or past `limit` and
/// no run. A shorter zero run is scanned past, once. With `FOLD`, every
/// word scanned is folded into the register `c` on the way, and the
/// register comes back first.
#[inline(always)]
fn scan<const FOLD: bool>(
    mut c: u32,
    bytes: &[u8],
    mut i: usize,
    limit: usize,
) -> (u32, usize, usize) {
    while i + 8 <= limit {
        let w = le(&bytes[i..i + 8]);
        if w != 0 {
            if FOLD {
                c = fold8(c, w);
            }
            i += 8;
            continue;
        }
        let run = zero_run(&bytes[i..]);
        if run >= ZERO_JUMP {
            return (c, i, run);
        }
        if FOLD {
            for _ in 0..run / 8 {
                c = fold8(c, 0);
            }
        }
        i += run / 8 * 8;
    }
    (c, i, 0)
}

/// Fold one eight-byte word into the register.
#[inline]
fn fold8(c: u32, w: u64) -> u32 {
    let lo = w as u32 ^ c;
    let hi = (w >> 32) as u32;
    TABLES[7][(lo & 0xff) as usize]
        ^ TABLES[6][((lo >> 8) & 0xff) as usize]
        ^ TABLES[5][((lo >> 16) & 0xff) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xff) as usize]
        ^ TABLES[2][((hi >> 8) & 0xff) as usize]
        ^ TABLES[1][((hi >> 16) & 0xff) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// Fold `seg`, whole words, into the register. A long one is cut into four
/// equal stripes of `l` bytes that fold side by side from registers
/// `c, 0, 0, 0`, so four table walks overlap instead of one waiting on the
/// last; the register is linear in its start and its input, so the state
/// after two stripes is the first one's shifted past `l` zero bytes
/// (multiplied by x^(8l)) plus the second one's.
fn fold_words(mut c: u32, mut seg: &[u8]) -> u32 {
    if seg.len() >= STRIPED {
        let l = seg.len() / 32 * 8;
        let (s0, rest) = seg.split_at(l);
        let (s1, rest) = rest.split_at(l);
        let (s2, rest) = rest.split_at(l);
        let (s3, rest) = rest.split_at(l);
        let mut r = [c, 0, 0, 0];
        let stripes = s0.chunks_exact(8).zip(s1.chunks_exact(8));
        let stripes = stripes.zip(s2.chunks_exact(8).zip(s3.chunks_exact(8)));
        for ((w0, w1), (w2, w3)) in stripes {
            r[0] = fold8(r[0], le(w0));
            r[1] = fold8(r[1], le(w1));
            r[2] = fold8(r[2], le(w2));
            r[3] = fold8(r[3], le(w3));
        }
        let shift = skip_zeros(1 << 31, l);
        c = r[1..].iter().fold(r[0], |c, &r| multmodp(shift, c) ^ r);
        seg = rest;
    }
    for w in seg.chunks_exact(8) {
        c = fold8(c, le(w));
    }
    c
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh CRC computation.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let n = bytes.len();
        let mut c = self.state;
        let mut i = 0;
        while i + 8 <= n {
            // Fewer than `STRIPED` bytes left cannot stripe: they fold as
            // they are scanned. Otherwise the stretch up to the next jump is
            // scanned ahead first, so that it can fold as stripes.
            let (folded, end, run) = if n - i < STRIPED {
                scan::<true>(c, bytes, i, n)
            } else {
                let (_, end, run) = scan::<false>(c, bytes, i, n.min(i + SEGMENT));
                (fold_words(c, &bytes[i..end]), end, run)
            };
            c = skip_zeros(folded, run);
            i = end + run;
        }
        // The sub-word tail (and any split that leaves fewer than eight
        // bytes) goes a byte at a time; the state is the same either way,
        // so `update` may be called with any chunking.
        for &b in &bytes[i..] {
            c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final CRC value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = crc32(&data);
        for split in [0, 1, 9, 4096, data.len()] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc32(b"a"), crc32(b"b"));
        assert_ne!(crc32(&[0u8; 100]), crc32(&[0u8; 101]));
    }
}
