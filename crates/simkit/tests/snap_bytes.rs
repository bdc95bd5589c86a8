//! Mutation suite for the bulk `Vec<u8>` path of the snap codec.
//!
//! `u8` overrides the `Snap` slice hooks so a byte vector — every program
//! state in every image header — is coded in one loop instead of one varint
//! call per byte. The bulk loop must be invisible: [`PerByte`] below keeps
//! the per-element reference codec (a byte coded through the default hooks),
//! and every case checks that both write the same bytes, and read back the
//! same values or fail with the same `SnapError`, on random vectors and on
//! random and mutated inputs: truncations, flipped bytes, spliced
//! non-canonical varints (`80 00`, `ff 01` read as a byte, `80 02` out of
//! range), hostile lengths.

use simkit::{DetRng, Snap, SnapError, SnapReader, SnapWriter};

const CASES: u64 = 2_000;

/// A byte coded one varint at a time — the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PerByte(u8);

impl Snap for PerByte {
    fn save(&self, w: &mut SnapWriter) {
        w.put_varint(self.0 as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.get_varint()?;
        u8::try_from(v)
            .map(PerByte)
            .map_err(|_| SnapError::BadLen(v))
    }
}

fn reference(v: &[u8]) -> Vec<PerByte> {
    v.iter().copied().map(PerByte).collect()
}

fn unwrap_bytes(v: Vec<PerByte>) -> Vec<u8> {
    v.into_iter().map(|b| b.0).collect()
}

/// A byte vector whose values cluster the way program state does: runs of
/// small bytes, runs of high ones, and noise.
fn random_bytes(rng: &mut DetRng) -> Vec<u8> {
    let n = match rng.below(4) {
        0 => rng.below(4),
        1 => rng.below(64),
        _ => rng.below(2_000),
    } as usize;
    let skew = rng.below(4);
    (0..n)
        .map(|_| match skew {
            0 => rng.below(0x80) as u8,
            1 => 0x80 | rng.below(0x80) as u8,
            _ => rng.next_u64() as u8,
        })
        .collect()
}

/// Damage an encoding the ways a torn or corrupted image would, plus the
/// ways a varint decoder can be fooled.
fn mutate(rng: &mut DetRng, mut bytes: Vec<u8>) -> Vec<u8> {
    let at = |rng: &mut DetRng, len: usize| rng.below(len as u64 + 1) as usize;
    match rng.below(6) {
        0 => {
            let cut = at(rng, bytes.len());
            bytes.truncate(cut);
        }
        1 => {
            for _ in 0..rng.range(1, 4) {
                if !bytes.is_empty() {
                    let i = rng.below(bytes.len() as u64) as usize;
                    bytes[i] ^= 1 << rng.below(8);
                }
            }
        }
        2 => {
            let splice: &[u8] = match rng.below(5) {
                0 => &[0x80, 0x00],
                1 => &[0xff, 0x01],
                2 => &[0x80, 0x02],
                3 => &[0x80, 0x80, 0x00],
                _ => &[0xff],
            };
            let i = at(rng, bytes.len());
            bytes.splice(i..i, splice.iter().copied());
        }
        3 => {
            let i = at(rng, bytes.len());
            bytes.insert(i, rng.next_u64() as u8);
        }
        4 => {
            if !bytes.is_empty() {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes.remove(i);
            }
        }
        _ => {
            bytes = (0..rng.below(40)).map(|_| rng.next_u64() as u8).collect();
        }
    }
    bytes
}

#[test]
fn bulk_bytes_encode_exactly_like_per_element_varints() {
    let mut rng = DetRng::seed_from_u64(0x5A1C_E001);
    for case in 0..CASES {
        let v = random_bytes(&mut rng);
        assert_eq!(
            v.to_snap_bytes(),
            reference(&v).to_snap_bytes(),
            "case {case}"
        );
        let nested: Vec<Vec<u8>> = (0..rng.below(5)).map(|_| random_bytes(&mut rng)).collect();
        let nested_ref: Vec<Vec<PerByte>> = nested.iter().map(|v| reference(v)).collect();
        assert_eq!(
            nested.to_snap_bytes(),
            nested_ref.to_snap_bytes(),
            "case {case} nested"
        );
        assert_eq!(Vec::<u8>::from_snap_bytes(&v.to_snap_bytes()), Ok(v));
    }
}

#[test]
fn bulk_bytes_decode_or_fail_exactly_like_per_element_varints() {
    let mut rng = DetRng::seed_from_u64(0x5A1C_E002);
    let mut ok = 0;
    for case in 0..CASES {
        let nested = rng.chance(0.3);
        let clean = if nested {
            let v: Vec<Vec<u8>> = (0..rng.below(4)).map(|_| random_bytes(&mut rng)).collect();
            v.to_snap_bytes()
        } else {
            random_bytes(&mut rng).to_snap_bytes()
        };
        let input = mutate(&mut rng, clean);
        if nested {
            let bulk = Vec::<Vec<u8>>::from_snap_bytes(&input);
            let per = Vec::<Vec<PerByte>>::from_snap_bytes(&input)
                .map(|v| v.into_iter().map(unwrap_bytes).collect());
            assert_eq!(bulk, per, "case {case} nested input {input:02x?}");
            ok += bulk.is_ok() as u64;
        } else {
            let bulk = Vec::<u8>::from_snap_bytes(&input);
            let per = Vec::<PerByte>::from_snap_bytes(&input).map(unwrap_bytes);
            assert_eq!(bulk, per, "case {case} input {input:02x?}");
            ok += bulk.is_ok() as u64;
        }
    }
    // Both outcomes were exercised plenty.
    let failed = CASES - ok;
    assert!(ok > 200 && failed > 200, "ok {ok} failed {failed}");
}

/// The varints a byte-at-a-time decoder has always accepted or refused.
#[test]
fn non_canonical_and_out_of_range_byte_varints() {
    type Decoded = Result<Vec<u8>, SnapError>;
    let cases: [(&[u8], Decoded); 6] = [
        (&[2, 0x80, 0x00, 7], Ok(vec![0, 7])),
        (&[2, 0xff, 0x01, 0x80, 0x01], Ok(vec![255, 128])),
        (&[1, 0x80, 0x02], Err(SnapError::BadLen(256))),
        (&[2, 5, 0x80], Err(SnapError::Eof)),
        (&[1, 0x81, 0x80, 0x00], Ok(vec![1])),
        (&[3, 1, 2], Err(SnapError::BadLen(3))),
    ];
    for (input, want) in cases {
        assert_eq!(Vec::<u8>::from_snap_bytes(input), want, "{input:02x?}");
        assert_eq!(
            Vec::<PerByte>::from_snap_bytes(input).map(unwrap_bytes),
            want,
            "reference {input:02x?}"
        );
    }
}
