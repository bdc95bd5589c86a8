//! Block LZSS: greedy hash-chain match finding within a block, flag-byte
//! token stream.
//!
//! Token stream layout: a control byte carries flags for the next 8 tokens
//! (bit `i` set ⇒ token `i` is a match). A literal token is one raw byte; a
//! match token is `offset: u16 LE (1-based, ≤ block size)` then
//! `len - MIN_MATCH: u8` (so match lengths span 3..=258).

/// Upper bound on block input size; offsets must fit in u16.
pub const MAX_BLOCK: usize = 1 << 16;
/// Minimum match length worth encoding (3 bytes ≙ one match token).
pub const MIN_MATCH: usize = 3;
/// Maximum match length (`MIN_MATCH + u8::MAX`).
pub const MAX_MATCH: usize = MIN_MATCH + 255;

const HASH_BITS: u32 = 14;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// How many chain links the match finder follows before giving up. 32 is
/// the classic speed/ratio compromise (zlib level ~6 territory).
const MAX_CHAIN: usize = 32;
/// Sentinel for "no position" in the hash structures.
const NIL: u32 = u32::MAX;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], 0]);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `a` and `b` (equal-length slices), found
/// eight bytes at a time: the first differing byte of a word pair is the
/// lowest set byte of their XOR.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let mut l = 0usize;
    while l + 8 <= n {
        let x = u64::from_le_bytes(a[l..l + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(b[l..l + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < n && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Sink for compressed output: a real buffer or a byte counter, so the
/// simulator can size multi-gigabyte images without materializing them.
pub trait Sink {
    /// Append one byte.
    fn push(&mut self, b: u8);
    /// Append a slice.
    fn extend(&mut self, bytes: &[u8]);
    /// Bytes emitted so far.
    fn len(&self) -> u64;
    /// Whether nothing has been emitted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Overwrite a previously pushed byte (control-byte backpatching).
    fn patch(&mut self, pos: u64, b: u8);
}

impl Sink for Vec<u8> {
    fn push(&mut self, b: u8) {
        Vec::push(self, b);
    }
    fn extend(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    fn len(&self) -> u64 {
        Vec::len(self) as u64
    }
    fn patch(&mut self, pos: u64, b: u8) {
        self[pos as usize] = b;
    }
}

/// A sink that only counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counter(pub u64);

impl Sink for Counter {
    fn push(&mut self, _b: u8) {
        self.0 += 1;
    }
    fn extend(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
    fn len(&self) -> u64 {
        self.0
    }
    fn patch(&mut self, _pos: u64, _b: u8) {}
}

/// Reusable match-finder scratch space (hash heads + chains), so per-block
/// compression does not allocate in the checkpoint write path.
pub struct Scratch {
    head: Vec<u32>,
    prev: Vec<u32>,
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

impl Scratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        Scratch {
            head: vec![NIL; HASH_SIZE],
            prev: vec![NIL; MAX_BLOCK],
        }
    }
}

/// Compress one block (`input.len() <= MAX_BLOCK`) into `out`.
///
/// Returns the number of bytes emitted.
pub fn compress_block<S: Sink>(input: &[u8], scratch: &mut Scratch, out: &mut S) -> u64 {
    assert!(input.len() <= MAX_BLOCK, "block too large");
    let before = out.len();
    scratch.head.fill(NIL);

    let n = input.len();
    let mut i = 0usize;
    let mut ctrl_pos: u64 = 0;
    let mut ctrl: u8 = 0;
    let mut ntok: u32 = 0;

    macro_rules! begin_token {
        () => {
            if ntok == 0 {
                ctrl_pos = out.len();
                out.push(0); // placeholder control byte
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
                out.patch(ctrl_pos, ctrl);
                ctrl = 0;
                ntok = 0;
            }
        };
    }

    while i < n {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        // Positions within MIN_MATCH of the end are neither searched nor
        // inserted; everywhere else the position is hashed exactly once.
        let searchable = i + MIN_MATCH <= n;
        let mut h = 0usize;
        if searchable {
            h = hash3(input, i);
            let mut cand = scratch.head[h];
            let mut chains = 0;
            let limit = (n - i).min(MAX_MATCH);
            let here = &input[i..i + limit];
            while cand != NIL && chains < MAX_CHAIN {
                let c = cand as usize;
                debug_assert!(c < i);
                // Quick-reject on the byte just past the current best, then
                // extend. A hash collision yields a length below MIN_MATCH,
                // which never wins and never blocks a real match, so it is
                // dropped (it still costs its chain step).
                if input[c + best_len] == here[best_len] {
                    let l = common_prefix(&input[c..c + limit], here);
                    if l >= MIN_MATCH && l > best_len {
                        best_len = l;
                        best_off = i - c;
                        if l >= limit {
                            break;
                        }
                    }
                }
                cand = scratch.prev[c];
                chains += 1;
            }
        }

        if best_len >= MIN_MATCH {
            begin_token!();
            out.extend(&[
                (best_off & 0xff) as u8,
                (best_off >> 8) as u8,
                (best_len - MIN_MATCH) as u8,
            ]);
            end_token!(true);
            // Insert every covered position into the chains so later matches
            // can reference the interior of this one.
            scratch.prev[i] = scratch.head[h];
            scratch.head[h] = i as u32;
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let mut j = i + 1;
            if best_off == 1 {
                // A one-byte run: bytes `i-1 ..= i+best_len-1` are all one
                // byte, so every position whose key ends inside the match
                // has the key (and bucket `h`) of `i`. Inserting them one by
                // one would link each to its predecessor and leave the last
                // at the head; write exactly that. The last two positions,
                // whose keys reach past the match, take the generic insert.
                let run_end = i + best_len + 1 - MIN_MATCH;
                for (p, slot) in scratch.prev[j..run_end].iter_mut().enumerate() {
                    *slot = (i + p) as u32;
                }
                scratch.head[h] = (run_end - 1) as u32;
                j = run_end;
            }
            for j in j..end {
                let h = hash3(input, j);
                scratch.prev[j] = scratch.head[h];
                scratch.head[h] = j as u32;
            }
            i += best_len;
        } else {
            begin_token!();
            out.push(input[i]);
            end_token!(false);
            if searchable {
                scratch.prev[i] = scratch.head[h];
                scratch.head[h] = i as u32;
            }
            i += 1;
        }
    }
    if ntok > 0 {
        out.patch(ctrl_pos, ctrl);
    }
    out.len() - before
}

/// Errors from block decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// Input ended mid-token.
    Truncated,
    /// A match referenced data before the start of the block.
    BadOffset {
        /// Output position at which the bad reference occurred.
        at: usize,
    },
    /// Decompressed size disagreed with the declared size.
    WrongLength {
        /// Size the header promised.
        expected: usize,
        /// Size actually produced.
        got: usize,
    },
}

/// Decompress one block; `raw_len` is the declared decompressed size.
///
/// `out` is sized once to hold the block and decoded into by index. On
/// error it keeps exactly the tokens decoded before the failing one, and an
/// overlong last match is still finished, so the result and the bytes left
/// in `out` are what a decoder pushing one byte at a time gives.
pub fn decompress_block(
    payload: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), BlockError> {
    let base = out.len();
    let target = base + raw_len;
    out.resize(target, 0);
    let buf = &mut out[..];
    // `buf[..o]` is decoded; `buf[o..]` may hold the overshoot of a short
    // match's fixed-width copy, which the next tokens overwrite.
    let mut o = base;
    let mut i = 0usize;
    // A match that runs past the declared size can only be the last token.
    let mut overlong = None;
    let result = 'decode: loop {
        if o >= target {
            break Ok(());
        }
        let Some(&ctrl) = payload.get(i) else {
            break Err(BlockError::Truncated);
        };
        i += 1;
        if ctrl == 0 && i + 8 <= payload.len() && o + 8 <= target {
            // Eight literals in one copy.
            buf[o..o + 8].copy_from_slice(&payload[i..i + 8]);
            i += 8;
            o += 8;
            continue;
        }
        for bit in 0..8 {
            if o >= target {
                break;
            }
            if ctrl & (1 << bit) == 0 {
                let Some(&b) = payload.get(i) else {
                    break 'decode Err(BlockError::Truncated);
                };
                buf[o] = b;
                i += 1;
                o += 1;
                continue;
            }
            let Some(tok) = payload.get(i..i + 3) else {
                break 'decode Err(BlockError::Truncated);
            };
            let off = tok[0] as usize | ((tok[1] as usize) << 8);
            let len = tok[2] as usize + MIN_MATCH;
            i += 3;
            if off == 0 || off > o - base {
                break 'decode Err(BlockError::BadOffset { at: o });
            }
            if o + len > target {
                overlong = Some((off, len));
                break 'decode Ok(());
            }
            copy_match(buf, o, off, len);
            o += len;
        }
    };
    if let Some((off, len)) = overlong {
        // Finished anyway, so `WrongLength` counts all of it.
        out.resize(o + len, 0);
        copy_match(out, o, off, len);
        o += len;
    }
    out.truncate(o);
    match result {
        Ok(()) if o != target => Err(BlockError::WrongLength {
            expected: raw_len,
            got: o - base,
        }),
        r => r,
    }
}

/// Write the match `off` bytes back, `len` long, at `out[o..]`, where
/// `out[..o]` is decoded. A short match that does not overlap itself is
/// copied as a fixed 16 bytes when `out` has room for them: the bytes past
/// `o + len` are not yet decoded, and decoding writes every position below
/// the block's end in order, so the tokens that follow overwrite them.
#[inline(always)]
fn copy_match(out: &mut [u8], o: usize, off: usize, len: usize) {
    let src = o - off;
    if off == 1 {
        let b = out[src];
        out[o..o + len].fill(b);
    } else if off >= len {
        if len <= 16 && o + 16 <= out.len() {
            out.copy_within(src..src + 16, o);
        } else {
            out.copy_within(src..src + len, o);
        }
    } else {
        // Overlapping (off < len): the output is periodic in `off` from
        // `src` on, so each span may reuse everything written so far and
        // the spans double.
        let end = o + len;
        let mut to = o;
        while to < end {
            let span = (end - to).min(to - src);
            out.copy_within(src..src + span, to);
            to += span;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &[u8]) -> usize {
        let mut scratch = Scratch::new();
        let mut comp = Vec::new();
        compress_block(input, &mut scratch, &mut comp);
        let mut out = Vec::new();
        decompress_block(&comp, input.len(), &mut out).expect("decode");
        assert_eq!(out, input);
        comp.len()
    }

    #[test]
    fn empty_block() {
        assert_eq!(roundtrip(&[]), 0);
    }

    #[test]
    fn single_byte() {
        assert_eq!(roundtrip(&[7]), 2); // control byte + literal
    }

    #[test]
    fn run_of_zeros_uses_overlapping_matches() {
        let n = roundtrip(&[0u8; 4096]);
        assert!(n < 80, "4096 zeros compressed to {n}");
    }

    #[test]
    fn repeated_phrase() {
        let mut input = Vec::new();
        for _ in 0..200 {
            input.extend_from_slice(b"abcdefgh-12345678.");
        }
        let n = roundtrip(&input);
        assert!(n < input.len() / 4);
    }

    #[test]
    fn alternating_incompressible() {
        // De Bruijn-ish pattern with few 3-byte repeats.
        let input: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        roundtrip(&input);
    }

    #[test]
    fn max_block_roundtrips() {
        let input: Vec<u8> = (0..MAX_BLOCK).map(|i| (i / 7) as u8).collect();
        roundtrip(&input);
    }

    #[test]
    fn counting_sink_agrees_with_vec_sink() {
        let input: Vec<u8> = (0..50_000u64).map(|i| ((i * i) % 253) as u8).collect();
        let mut scratch = Scratch::new();
        let mut v = Vec::new();
        compress_block(&input, &mut scratch, &mut v);
        let mut c = Counter::default();
        compress_block(&input, &mut scratch, &mut c);
        assert_eq!(c.0, v.len() as u64);
    }

    #[test]
    fn bad_offset_is_detected() {
        // control byte says "match", offset 5 at output position 0.
        let payload = [0b0000_0001u8, 5, 0, 0];
        let mut out = Vec::new();
        let err = decompress_block(&payload, 10, &mut out).unwrap_err();
        assert!(matches!(err, BlockError::BadOffset { .. }));
    }

    #[test]
    fn truncated_payload_is_detected() {
        let mut scratch = Scratch::new();
        let input = vec![9u8; 1000];
        let mut comp = Vec::new();
        compress_block(&input, &mut scratch, &mut comp);
        for cut in 0..comp.len().min(16) {
            let mut out = Vec::new();
            assert!(decompress_block(&comp[..cut], input.len(), &mut out).is_err());
        }
    }
}
