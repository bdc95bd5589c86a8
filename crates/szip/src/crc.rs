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

/// `a·b mod P` over GF(2), in the reflected representation the register
/// uses (bit 31 is the coefficient of x⁰): zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
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

/// Length of the run of zero bytes `bytes` starts with.
fn zero_run(bytes: &[u8]) -> usize {
    let mut words = bytes.chunks_exact(8);
    let mut n = 0;
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("8 bytes"));
        if x != 0 {
            return n + (x.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + words.remainder().iter().take_while(|&&b| b == 0).count()
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
        let mut c = self.state;
        let mut i = 0;
        while i + 8 <= bytes.len() {
            let w = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
            if w == 0 {
                // A zero word may open a run worth jumping. A shorter run's
                // whole words fold below without being scanned again.
                let run = zero_run(&bytes[i..]);
                if run >= ZERO_JUMP {
                    c = skip_zeros(c, run);
                    i += run;
                    continue;
                }
                for _ in 0..run / 8 {
                    c = fold8(c, 0);
                }
                i += run / 8 * 8;
                continue;
            }
            c = fold8(c, w);
            i += 8;
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
