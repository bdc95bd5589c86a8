//! Streaming container around [`crate::lzss`] blocks.
//!
//! The checkpoint writer feeds memory regions chunk by chunk; the container
//! slices the stream into ≤64 KiB blocks, stores blocks that would expand,
//! and prefixes everything with a magic number so a restart can fail fast on
//! a file that is not an image.

use crate::lzss::{self, Scratch};

/// File magic: "SZ1\n".
pub const MAGIC: [u8; 4] = *b"SZ1\n";
/// Input block size. 64 KiB keeps offsets in u16 with full reach.
pub const BLOCK: usize = 1 << 16;

/// Errors surfaced by [`Decompressor`] (and [`crate::decompress`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SzipError {
    /// The stream did not start with [`MAGIC`].
    BadMagic,
    /// A block header was malformed or truncated.
    BadHeader,
    /// A block body failed to decode.
    BadBlock(lzss::BlockError),
    /// The stream ended mid-block.
    Truncated,
}

impl std::fmt::Display for SzipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SzipError::BadMagic => write!(f, "not an szip stream (bad magic)"),
            SzipError::BadHeader => write!(f, "malformed szip block header"),
            SzipError::BadBlock(e) => write!(f, "corrupt szip block: {e:?}"),
            SzipError::Truncated => write!(f, "szip stream truncated"),
        }
    }
}

impl std::error::Error for SzipError {}

/// Streaming compressor.
pub struct Compressor {
    pending: Vec<u8>,
    scratch: Scratch,
    out: Vec<u8>,
    raw_in: u64,
}

impl Default for Compressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor {
    /// A fresh compressor.
    pub fn new() -> Self {
        Compressor {
            pending: Vec::with_capacity(BLOCK),
            scratch: Scratch::new(),
            out: MAGIC.to_vec(),
            raw_in: 0,
        }
    }

    /// Total raw bytes fed in so far.
    pub fn raw_len(&self) -> u64 {
        self.raw_in
    }

    /// Feed input bytes.
    pub fn write(&mut self, mut input: &[u8]) {
        self.raw_in += input.len() as u64;
        while !input.is_empty() {
            let room = BLOCK - self.pending.len();
            let take = room.min(input.len());
            self.pending.extend_from_slice(&input[..take]);
            input = &input[take..];
            if self.pending.len() == BLOCK {
                self.flush_block();
            }
        }
    }

    fn flush_block(&mut self) {
        if !self.pending.is_empty() {
            put_block(&mut self.out, &self.pending, &mut self.scratch);
            self.pending.clear();
        }
    }

    /// Finish and return the compressed bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_block();
        self.out
    }
}

/// Append the block for `raw` (at most [`BLOCK`] bytes) to `out`: its lzss
/// tokens, or `raw` itself stored when the tokens would not be shorter.
pub(crate) fn put_block(out: &mut Vec<u8>, raw: &[u8], scratch: &mut Scratch) {
    let body = lzss::compress_tokens(raw, scratch);
    let (kind, payload) = if body.len() >= raw.len() {
        (0, raw) // stored
    } else {
        (1, body) // lzss
    };
    put_varint(out, raw.len() as u64);
    out.push(kind);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// How many bytes [`put_block`] appends for `raw`.
pub(crate) fn block_len(raw: &[u8], scratch: &mut Scratch) -> u64 {
    let payload = lzss::compress_tokens(raw, scratch).len().min(raw.len()) as u64;
    varint_len(raw.len() as u64) + 1 + varint_len(payload) + payload
}

/// Streaming decompressor. Feed compressed bytes with [`Decompressor::write`]
/// in any chunking; collect output with [`Decompressor::finish`].
pub struct Decompressor {
    input: Vec<u8>,
    pos: usize,
    out: Vec<u8>,
    magic_ok: bool,
}

impl Default for Decompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Decompressor {
    /// A fresh decompressor.
    pub fn new() -> Self {
        Decompressor {
            input: Vec::new(),
            pos: 0,
            out: Vec::new(),
            magic_ok: false,
        }
    }

    /// Feed compressed bytes; decodes every complete block eagerly.
    pub fn write(&mut self, bytes: &[u8]) -> Result<(), SzipError> {
        self.input.extend_from_slice(bytes);
        self.drain()
    }

    fn drain(&mut self) -> Result<(), SzipError> {
        if !self.magic_ok {
            if self.input.len() < MAGIC.len() {
                return Ok(());
            }
            if self.input[..MAGIC.len()] != MAGIC {
                return Err(SzipError::BadMagic);
            }
            self.pos = MAGIC.len();
            self.magic_ok = true;
        }
        while let Some(next) = decode_block(&self.input, self.pos, &mut self.out)? {
            self.pos = next;
            // Reclaim consumed input occasionally to bound memory.
            if self.pos > (1 << 20) {
                self.input.drain(..self.pos);
                self.pos = 0;
            }
        }
        Ok(())
    }

    /// Finish the stream; errors if it ends mid-block or never had a magic.
    pub fn finish(self) -> Result<Vec<u8>, SzipError> {
        if !self.magic_ok {
            return if self.input.is_empty() {
                Err(SzipError::Truncated)
            } else {
                Err(SzipError::BadMagic)
            };
        }
        if self.pos != self.input.len() {
            return Err(SzipError::Truncated);
        }
        Ok(self.out)
    }
}

/// [`crate::decompress`], appending the raw bytes to `out` — a buffer the
/// caller sized, or allocated where it wants the bytes to live. Decodes
/// straight from `input`, with the verdict a [`Decompressor`] gives for the
/// same bytes fed in one `write`; on error `out` holds whatever decoded
/// before the corruption.
pub fn decompress_into(input: &[u8], out: &mut Vec<u8>) -> Result<(), SzipError> {
    let Some(blocks) = input.strip_prefix(&MAGIC) else {
        return Err(if input.is_empty() {
            SzipError::Truncated
        } else {
            SzipError::BadMagic
        });
    };
    let mut pos = 0;
    while pos < blocks.len() {
        pos = decode_block(blocks, pos, out)?.ok_or(SzipError::Truncated)?;
    }
    Ok(())
}

/// Decode the block whose header starts at `buf[pos]`, appending its raw
/// bytes to `out`: `Ok(Some(next_pos))`, `Ok(None)` when `buf` ends before
/// the block does (more input may complete it), or the corruption found.
fn decode_block(buf: &[u8], pos: usize, out: &mut Vec<u8>) -> Result<Option<usize>, SzipError> {
    // An overlong varint is corruption (`?`); a short one is only an
    // incomplete header.
    let Some((raw_len, p)) = read_varint(buf, pos)? else {
        return Ok(None);
    };
    let Some(&kind) = buf.get(p) else {
        return Ok(None);
    };
    let Some((payload_len, p)) = read_varint(buf, p + 1)? else {
        return Ok(None);
    };
    if raw_len > (lzss::MAX_BLOCK) as u64 || payload_len > 2 * lzss::MAX_BLOCK as u64 {
        return Err(SzipError::BadHeader);
    }
    let Some(payload) = buf.get(p..p + payload_len as usize) else {
        return Ok(None); // body not fully arrived
    };
    match kind {
        0 => {
            if payload_len != raw_len {
                return Err(SzipError::BadHeader);
            }
            out.extend_from_slice(payload);
        }
        1 => {
            lzss::decompress_block(payload, raw_len as usize, out).map_err(SzipError::BadBlock)?;
        }
        _ => return Err(SzipError::BadHeader),
    }
    Ok(Some(p + payload_len as usize))
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn varint_len(v: u64) -> u64 {
    let bits = 64 - v.max(1).leading_zeros() as u64;
    bits.div_ceil(7).max(1)
}

/// Read one varint at `pos`: `Ok(Some((value, next_pos)))`, `Ok(None)` when
/// the buffer ends mid-varint (more input may complete it), or
/// `Err(BadHeader)` when ten bytes have gone by with the continuation bit
/// still set — no amount of further input makes that a `u64`, so a streaming
/// caller must not be told to keep waiting.
fn read_varint(buf: &[u8], mut pos: usize) -> Result<Option<(u64, usize)>, SzipError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if shift >= 64 {
            return Err(SzipError::BadHeader);
        }
        let Some(&b) = buf.get(pos) else {
            return Ok(None);
        };
        pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(Some((v, pos)));
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_len_matches_encoder() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len() as u64, "v = {v}");
            assert_eq!(read_varint(&buf, 0), Ok(Some((v, buf.len()))));
            // Every proper prefix is "incomplete", never an error.
            for cut in 0..buf.len() {
                assert_eq!(read_varint(&buf[..cut], 0), Ok(None), "v = {v} cut {cut}");
            }
        }
    }

    #[test]
    fn overlong_varint_is_a_bad_header_not_a_short_read() {
        // A bit-flipped header whose continuation bits never clear. Before
        // the fix `write` answered Ok (buffering without bound) and `finish`
        // answered Truncated — the torn-write verdict for a corrupt byte.
        let mut bad = MAGIC.to_vec();
        bad.extend_from_slice(&[0xFF; 11]);
        let mut d = Decompressor::new();
        assert_eq!(d.write(&bad), Err(SzipError::BadHeader));
        assert_eq!(crate::decompress(&bad), Err(SzipError::BadHeader));
        // Same in the second varint of a header (payload_len).
        let mut bad = MAGIC.to_vec();
        bad.extend_from_slice(&[5, 1]);
        bad.extend_from_slice(&[0x80; 11]);
        assert_eq!(crate::decompress(&bad), Err(SzipError::BadHeader));
        // Fed a byte at a time, the error comes as soon as it is certain
        // and not before: nine continuation bytes could still end well, a
        // tenth cannot (a u64 varint has at most ten bytes).
        let mut d = Decompressor::new();
        d.write(&MAGIC).unwrap();
        for _ in 0..9 {
            assert_eq!(d.write(&[0xFF]), Ok(()));
        }
        assert_eq!(d.write(&[0xFF]), Err(SzipError::BadHeader));
    }

    #[test]
    fn chunked_writes_equal_one_shot() {
        let input: Vec<u8> = (0..200_000usize).map(|i| (i % 251) as u8).collect();
        let whole = crate::compress(&input);
        let mut c = Compressor::new();
        for chunk in input.chunks(777) {
            c.write(chunk);
        }
        assert_eq!(c.finish(), whole);
    }

    #[test]
    fn chunked_reads_equal_one_shot() {
        let input: Vec<u8> = (0..200_000usize).map(|i| (i % 13) as u8).collect();
        let comp = crate::compress(&input);
        let mut d = Decompressor::new();
        for chunk in comp.chunks(311) {
            d.write(chunk).unwrap();
        }
        assert_eq!(d.finish().unwrap(), input);
    }

    #[test]
    fn one_shot_decode_gives_the_streaming_verdict() {
        // Every prefix and every single-byte corruption of a two-block
        // stream (one lzss, one stored), plus short and foreign inputs:
        // the slice decoder answers exactly what the streaming one does.
        let streamed = |input: &[u8]| {
            let mut d = Decompressor::new();
            d.write(input)?;
            d.finish()
        };
        let mut x: u64 = 0x5eed;
        let mut input: Vec<u8> = (0..BLOCK).map(|i| (i / 1000) as u8).collect();
        input.extend((0..300).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        }));
        let comp = crate::compress(&input);
        assert_eq!(crate::decompress(&comp), Ok(input));
        let mut cases: Vec<Vec<u8>> = (0..=comp.len()).map(|n| comp[..n].to_vec()).collect();
        for i in 0..comp.len() {
            let mut bad = comp.clone();
            bad[i] ^= [0x01, 0x80, 0xFF][i % 3];
            cases.push(bad);
        }
        cases.extend([b"SZ".to_vec(), b"GZIP....".to_vec(), MAGIC.to_vec()]);
        for case in &cases {
            assert_eq!(crate::decompress(case), streamed(case), "{case:?}");
        }
    }

    #[test]
    fn bad_magic_detected() {
        assert_eq!(
            crate::decompress(b"GZIP....").unwrap_err(),
            SzipError::BadMagic
        );
    }

    #[test]
    fn truncated_stream_detected() {
        let comp = crate::compress(&[1u8; 100_000]);
        for cut in [5, comp.len() / 2, comp.len() - 1] {
            let r = crate::decompress(&comp[..cut]);
            assert!(r.is_err(), "cut at {cut} succeeded");
        }
    }

    #[test]
    fn random_chunk_boundaries_round_trip() {
        // Property test: feed a mixed compressible/incompressible stream
        // through Compressor/Decompressor with random write-chunk sizes from
        // 1 B up to 600 KiB (spanning many BLOCK boundaries), and check that
        // (a) the result matches the one-shot encoder bit for bit and
        // (b) the round trip reproduces the input. The input alternates
        // runs of repeats with xorshift noise so both the stored and the
        // lzss block kinds are exercised.
        let mut x: u64 = 0xDEC0_DE00;
        let mut rng = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let mut input = Vec::new();
        while input.len() < 3_000_000 {
            if rng(2) == 0 {
                let byte = rng(256) as u8;
                let run = 1 + rng(200_000) as usize;
                input.extend(std::iter::repeat_n(byte, run));
            } else {
                let run = 1 + rng(200_000) as usize;
                input.extend((0..run).map(|_| rng(256) as u8));
            }
        }
        let whole = crate::compress(&input);

        let mut c = Compressor::new();
        let mut fed = 0usize;
        while fed < input.len() {
            let take = (1 + rng(600 * 1024) as usize).min(input.len() - fed);
            c.write(&input[fed..fed + take]);
            fed += take;
        }
        let streamed = c.finish();
        assert_eq!(streamed, whole, "chunking changed the encoding");
        let kinds: std::collections::BTreeSet<u8> = {
            // Walk the container to confirm both block kinds occur.
            let mut ks = std::collections::BTreeSet::new();
            let mut p = MAGIC.len();
            while p < whole.len() {
                let (_, p1) = read_varint(&whole, p).unwrap().unwrap();
                ks.insert(whole[p1]);
                let (plen, p2) = read_varint(&whole, p1 + 1).unwrap().unwrap();
                p = p2 + plen as usize;
            }
            ks
        };
        assert_eq!(
            kinds.len(),
            2,
            "input should produce both stored and lzss blocks, got {kinds:?}"
        );

        let mut d = Decompressor::new();
        let mut fed = 0usize;
        while fed < streamed.len() {
            let take = (1 + rng(600 * 1024) as usize).min(streamed.len() - fed);
            d.write(&streamed[fed..fed + take]).unwrap();
            fed += take;
        }
        assert_eq!(d.finish().unwrap(), input, "round trip mismatch");
    }

    #[test]
    fn incompressible_blocks_are_stored() {
        // A stream with essentially no 3-byte repeats: size must stay within
        // the stored-block overhead bound.
        let mut x: u64 = 0x12345;
        let input: Vec<u8> = (0..(1 << 17))
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let comp = crate::compress(&input);
        assert!(comp.len() <= input.len() + 16 + 8 * (input.len() / BLOCK + 1));
        assert_eq!(crate::decompress(&comp).unwrap(), input);
    }
}
