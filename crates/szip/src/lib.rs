//! `szip` — the reproduction's stand-in for `gzip`.
//!
//! DMTCP pipes checkpoint images through `gzip` by default; this crate
//! provides the equivalent capability as a from-scratch, dependency-free
//! streaming LZSS codec. Ratios are *real* (computed by actually compressing
//! the bytes), so content-dependent effects from the paper — NAS/IS's
//! zero-heavy buckets compressing "both quickly and efficiently" (§5.4),
//! RunCMS's 680 MB → 225 MB image — emerge from the data rather than being
//! hard-coded.
//!
//! Format: a 4-byte magic, then blocks of up to [`stream::BLOCK`] (64 KiB)
//! input each: `raw_len varint · kind u8 (0 = stored, 1 = lzss) ·
//! payload_len varint · payload`. Blocks that would expand are stored raw,
//! so worst-case overhead is ~7 bytes per 64 KiB. Blocks are independent:
//! each starts with an empty match window and decodes from its own bytes
//! alone, so two buffers compressed or decompressed on different threads
//! give exactly the bytes one thread would. The per-block window reset
//! costs a few percent of ratio versus gzip's sliding window but makes
//! streaming and random-access verification trivial.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod estimate;
pub mod lzss;
pub mod stream;

pub use crc::{crc32, Crc32};
pub use estimate::SizeEstimator;
pub use stream::{decompress_into, Compressor, Decompressor, SzipError};

/// Compress a whole buffer in one call.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut c = Compressor::new();
    c.write(input);
    c.finish()
}

/// Decompress a whole buffer in one call, decoding straight from `input`.
/// Same bytes and same [`SzipError`] as a [`Decompressor`] fed `input` in
/// one [`Decompressor::write`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, SzipError> {
    let mut out = Vec::new();
    decompress_into(input, &mut out)?;
    Ok(out)
}

/// Compute only the compressed *size* of a buffer, without materializing the
/// output (used when the simulator needs an image size for multi-gigabyte
/// synthetic regions).
pub fn compressed_len(input: &[u8]) -> u64 {
    let mut c = Compressor::counting();
    c.write(input);
    c.finish_len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrip() {
        let c = compress(&[]);
        assert_eq!(decompress(&c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn zeros_compress_dramatically() {
        let input = vec![0u8; 1 << 20];
        let c = compress(&input);
        assert!(c.len() < input.len() / 50, "ratio too poor: {}", c.len());
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn text_compresses_meaningfully() {
        let para = b"DMTCP transparently checkpoints distributed computations. ";
        let mut input = Vec::new();
        while input.len() < 1 << 18 {
            input.extend_from_slice(para);
        }
        let c = compress(&input);
        assert!(
            c.len() < input.len() / 4,
            "text ratio: {} / {}",
            c.len(),
            input.len()
        );
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn random_data_barely_expands() {
        let mut rng = simple_rng(42);
        let input: Vec<u8> = (0..1 << 18).map(|_| rng() as u8).collect();
        let c = compress(&input);
        assert!(c.len() <= input.len() + input.len() / 64 + 64);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn counting_matches_real_compression() {
        let para = b"the quick brown fox jumps over the lazy dog 0123456789";
        let mut input = Vec::new();
        while input.len() < 300_000 {
            input.extend_from_slice(para);
            input.push((input.len() % 251) as u8);
        }
        assert_eq!(compressed_len(&input), compress(&input).len() as u64);
    }

    fn simple_rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }
}
