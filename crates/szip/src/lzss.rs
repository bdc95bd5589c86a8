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
/// Bits of a key's filter hash: its bucket's 14, then 6 that pick one bit
/// of the bucket's 64-bit filter word.
const FILTER_BITS: u32 = HASH_BITS + 6;
/// How many chain links the match finder follows before giving up. 32 is
/// the classic speed/ratio compromise (zlib level ~6 territory).
const MAX_CHAIN: usize = 32;
/// Sentinel for "no position" in the chains. Only positions `≤ n − 3` of a
/// block of `n ≤ MAX_BLOCK` bytes are linked, so position 65 535 never is.
const NIL: u16 = u16::MAX;
/// The longest token stream a block can give: every byte a literal, plus
/// one control byte per eight tokens.
const MAX_TOKENS: usize = MAX_BLOCK + MAX_BLOCK / 8;

/// The filter hash of the 3-byte key at `i`. Its top [`HASH_BITS`] bits are
/// the key's bucket: both come from the one multiply.
#[inline]
fn key_hash(data: &[u8], i: usize) -> usize {
    // One 4-byte load where the block has the byte after the key.
    let v = match data.get(i..i + 4) {
        Some(w) => u32::from_le_bytes(w.try_into().expect("4 bytes")) & 0xFF_FFFF,
        None => u32::from_le_bytes([data[i], data[i + 1], data[i + 2], 0]),
    };
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - FILTER_BITS)) as usize
}

/// The eight bytes at `data[i..]` as one little-endian word.
#[inline(always)]
fn word8(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().expect("8 bytes"))
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
        let diff = word8(a, l) ^ word8(b, l);
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

/// Sink for a compressed block: a real buffer or a byte counter.
pub trait Sink {
    /// Append a slice.
    fn extend(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn extend(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that only counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counter(pub u64);

impl Sink for Counter {
    fn extend(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

/// Reusable match-finder and token scratch, so compressing a block neither
/// allocates nor clears more than the block used.
///
/// Between calls every `seen` word is zero. During a call, bucket `b`'s
/// word has bit `k` set exactly when a position linked so far has filter
/// hash `b << 6 | k`; so a bucket's `head` is this block's only where its
/// word is nonzero, and `head` and `prev` are never cleared: each entry is
/// written before it is read.
pub struct Scratch {
    /// Newest linked position of each bucket.
    head: Box<[u16; HASH_SIZE]>,
    /// The next older linked position of the same bucket.
    prev: Box<[u16; MAX_BLOCK]>,
    /// The seen-key filter, one word per bucket.
    seen: Box<[u64; HASH_SIZE]>,
    /// The buckets whose word this block made nonzero, in order.
    touched: Box<[u16; HASH_SIZE]>,
    /// The block's token stream.
    tokens: Box<[u8; MAX_TOKENS]>,
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

/// A zeroed boxed array, allocated without passing through the stack.
fn zeroed<T: Copy + Default + std::fmt::Debug, const N: usize>() -> Box<[T; N]> {
    vec![T::default(); N]
        .into_boxed_slice()
        .try_into()
        .expect("a vec of N elements")
}

impl Scratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        Scratch {
            head: zeroed(),
            prev: zeroed(),
            seen: zeroed(),
            touched: zeroed(),
            tokens: zeroed(),
        }
    }
}

/// The longest match for position `i` among the chain from `cand`: its
/// length and offset, or a length of 0 when no candidate shares
/// [`MIN_MATCH`] bytes. The first candidate of the greatest length wins.
fn longest_match(input: &[u8], i: usize, mut cand: u16, prev: &[u16; MAX_BLOCK]) -> (usize, usize) {
    let mut best_len = 0usize;
    let mut best_off = 0usize;
    let mut chains = 0;
    let limit = (input.len() - i).min(MAX_MATCH);
    let here = &input[i..i + limit];
    while cand != NIL && chains < MAX_CHAIN {
        let c = cand as usize;
        debug_assert!(c < i);
        // Quick-reject, then extend. A candidate wins only by matching
        // `best_len + 1` bytes, so it must match the up to eight bytes that
        // end there. A bucket collision yields a length below MIN_MATCH,
        // which never wins and never blocks a real match, so it is dropped
        // (it still costs its chain step).
        let passes = if best_len >= 7 {
            let at = best_len + 1 - 8;
            word8(input, c + at) == word8(here, at)
        } else if best_len >= MIN_MATCH {
            let at = best_len + 1 - 4;
            input[c + at..c + at + 4] == here[at..at + 4]
        } else {
            input[c + best_len] == here[best_len]
        };
        if passes {
            let l = common_prefix(&input[c..c + limit], here);
            if l >= MIN_MATCH && l > best_len {
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
    (best_len, best_off)
}

/// Compress one block (`input.len() <= MAX_BLOCK`) into `out`.
///
/// Returns the number of bytes emitted.
pub fn compress_block<S: Sink>(input: &[u8], scratch: &mut Scratch, out: &mut S) -> u64 {
    let tokens = compress_tokens(input, scratch);
    out.extend(tokens);
    tokens.len() as u64
}

/// Compress one block (`input.len() <= MAX_BLOCK`) into `scratch`'s token
/// buffer and return the tokens.
///
/// Every position `p ≤ n − 3` is linked into its bucket's chain before the
/// search at any later position, so at search time the chain holds exactly
/// the block's earlier linked positions of that bucket. When the key's
/// filter bit is clear, none of them shares the 3-byte key: each candidate
/// would match fewer than [`MIN_MATCH`] bytes, so the walk is skipped and a
/// literal emitted — the token a full walk gives.
pub(crate) fn compress_tokens<'s>(input: &[u8], scratch: &'s mut Scratch) -> &'s [u8] {
    assert!(input.len() <= MAX_BLOCK, "block too large");
    let Scratch {
        head,
        prev,
        seen,
        touched,
        tokens,
    } = scratch;
    let n = input.len();
    let mut i = 0usize;
    // Token bytes written; the pending control byte's slot, its flags and
    // how many of its tokens are out.
    let mut o = 0usize;
    let mut ctrl_pos = 0usize;
    let mut ctrl: u8 = 0;
    let mut ntok: u32 = 0;
    // How many buckets' words this block made nonzero.
    let mut fresh = 0usize;

    macro_rules! begin_token {
        () => {
            if ntok == 0 {
                ctrl_pos = o;
                o += 1;
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
                tokens[ctrl_pos] = ctrl;
                ctrl = 0;
                ntok = 0;
            }
        };
    }
    // Link position `$p`, whose key has filter hash `$kh`, at the head of
    // its bucket's chain and set its filter bit; a bucket new to this block
    // starts its chain and is recorded for the clear.
    macro_rules! link {
        ($p:expr, $kh:expr) => {{
            let b = $kh >> 6;
            let word = seen[b];
            prev[$p] = if word == 0 { NIL } else { head[b] };
            head[b] = $p as u16;
            seen[b] = word | 1 << ($kh & 63);
            if word == 0 {
                touched[fresh] = b as u16;
                fresh += 1;
            }
        }};
    }

    while i < n {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        // Positions within MIN_MATCH of the end are neither searched nor
        // linked; everywhere else the position is hashed exactly once.
        let searchable = i + MIN_MATCH <= n;
        let mut kh = 0usize;
        if searchable {
            kh = key_hash(input, i);
            if seen[kh >> 6] & 1 << (kh & 63) != 0 {
                (best_len, best_off) = longest_match(input, i, head[kh >> 6], prev);
            }
        }

        if best_len >= MIN_MATCH {
            begin_token!();
            tokens[o] = (best_off & 0xff) as u8;
            tokens[o + 1] = (best_off >> 8) as u8;
            tokens[o + 2] = (best_len - MIN_MATCH) as u8;
            o += 3;
            end_token!(true);
            // Link every covered position too, so later matches can
            // reference the interior of this one. An inner position, whose
            // key ends inside the match, has the key of the position
            // `best_off` back, which is linked: its bucket's word and
            // filter bit are set already, so it only joins the chain. Only
            // the last two, whose keys reach past the match, may bring a
            // key new to the block.
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let inner = i + best_len + 1 - MIN_MATCH;
            if best_off == 1 {
                // A one-byte run: bytes `i-1 ..= i+best_len-1` are all one
                // byte, so every inner position has the key of `i`. Linking
                // them one by one would link each to its predecessor and
                // leave the last at the head; write exactly that.
                let b = kh >> 6;
                prev[i] = head[b];
                for (p, slot) in prev[i + 1..inner].iter_mut().enumerate() {
                    *slot = (i + p) as u16;
                }
                head[b] = (inner - 1) as u16;
            } else {
                for j in i..inner {
                    let b = key_hash(input, j) >> 6;
                    prev[j] = head[b];
                    head[b] = j as u16;
                }
            }
            for j in inner..end {
                link!(j, key_hash(input, j));
            }
            i += best_len;
        } else {
            begin_token!();
            tokens[o] = input[i];
            o += 1;
            end_token!(false);
            if searchable {
                link!(i, kh);
            }
            i += 1;
        }
    }
    if ntok > 0 {
        tokens[ctrl_pos] = ctrl;
    }
    // Leave every filter word zero for the next block: clear the words
    // this block set, or all of them when it set most.
    if fresh > HASH_SIZE / 2 {
        seen.fill(0);
    } else {
        for &b in &touched[..fresh] {
            seen[b as usize] = 0;
        }
    }
    &tokens[..o]
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
