//! `snap` — a tiny deterministic binary codec.
//!
//! Simulated programs must be able to persist their complete control state
//! into their thread's stack region at checkpoint time and reconstitute it
//! at restart. `serde` alone cannot do this without a format crate, so we
//! carry a ~300-line codec in-tree: little-endian fixed integers for typed
//! fields, LEB128 varints for lengths, no self-description (both sides share
//! the schema, exactly as a real stack layout is shared by the code that
//! wrote it).
//!
//! The `impl_snap!` macro derives implementations for plain structs and
//! fieldless-or-tuple enums, which covers every program in this repository.

use std::collections::BTreeMap;
use std::fmt;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Input ended before the value was complete.
    Eof,
    /// An enum discriminant or bool byte was out of range.
    BadTag(u64),
    /// A declared length was implausibly large for the remaining input.
    BadLen(u64),
    /// A UTF-8 string field held invalid bytes.
    BadUtf8,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof => write!(f, "unexpected end of snap input"),
            SnapError::BadTag(t) => write!(f, "invalid snap tag {t}"),
            SnapError::BadLen(l) => write!(f, "implausible snap length {l}"),
            SnapError::BadUtf8 => write!(f, "invalid utf-8 in snap string"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Encoding sink.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a fixed-width little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a fixed-width little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an LEB128 varint (used for lengths and enum tags).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Append raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append length-prefixed bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.put_raw(bytes);
    }
}

/// Decoding source.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        let b = *self.buf.get(self.pos).ok_or(SnapError::Eof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a fixed-width little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.get_raw(4)?.try_into().expect("length checked"),
        ))
    }

    /// Read a fixed-width little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.get_raw(8)?.try_into().expect("length checked"),
        ))
    }

    /// Read an LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64, SnapError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.get_u8()?;
            if shift >= 64 {
                return Err(SnapError::BadLen(v));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read length-prefixed bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_varint()?;
        if n > self.remaining() as u64 {
            return Err(SnapError::BadLen(n));
        }
        self.get_raw(n as usize)
    }
}

/// Types that can round-trip through the snap codec.
pub trait Snap: Sized {
    /// Encode `self` into `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Decode a value from `r`.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;

    /// Encode a run of values back to back — the body of a `Vec<Self>`
    /// after its length. The default saves each element; a type whose
    /// elements admit a bulk loop overrides it with one that writes the
    /// same bytes.
    fn save_slice(items: &[Self], w: &mut SnapWriter) {
        for item in items {
            item.save(w);
        }
    }

    /// Decode `n` values back to back onto `out` — the inverse of
    /// [`Snap::save_slice`]. An override must return the values and the
    /// error the per-element default would.
    fn load_slice(n: usize, r: &mut SnapReader<'_>, out: &mut Vec<Self>) -> Result<(), SnapError> {
        for _ in 0..n {
            out.push(Self::load(r)?);
        }
        Ok(())
    }

    /// Convenience: encode into a fresh byte vector.
    fn to_snap_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.save(&mut w);
        w.into_bytes()
    }

    /// Convenience: decode from a byte slice, requiring full consumption.
    fn from_snap_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        let v = Self::load(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapError::BadLen(r.remaining() as u64));
        }
        Ok(v)
    }
}

macro_rules! snap_uint {
    ($t:ty) => {
        impl Snap for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.put_varint(*self as u64);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let v = r.get_varint()?;
                <$t>::try_from(v).map_err(|_| SnapError::BadLen(v))
            }
        }
    };
}

impl Snap for u8 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_varint(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.get_varint()?;
        u8::try_from(v).map_err(|_| SnapError::BadLen(v))
    }

    /// A byte's varint is the byte itself below 0x80 and `b, 0x01` from
    /// there up. The loop is branch-free: it writes every byte followed by
    /// `0x01` and steps past the `0x01` only for a byte from 0x80 up (the
    /// next byte overwrites it otherwise).
    fn save_slice(items: &[u8], w: &mut SnapWriter) {
        let start = w.buf.len();
        w.buf.resize(start + 2 * items.len(), 0);
        let out = &mut w.buf[start..];
        let mut j = 0;
        for &b in items {
            out[j] = b;
            out[j + 1] = 0x01;
            j += 1 + (b >> 7) as usize;
        }
        w.buf.truncate(start + j);
    }

    /// Takes canonical one- and two-byte varints in bulk; at the first
    /// element that is anything else (a longer or non-canonical varint, a
    /// value past 255, a cut) it hands the rest to the per-element loop.
    fn load_slice(n: usize, r: &mut SnapReader<'_>, out: &mut Vec<u8>) -> Result<(), SnapError> {
        let input = &r.buf[r.pos..];
        let (mut i, mut done) = (0, 0);
        while done < n {
            let Some(&b) = input.get(i) else { break };
            let wide = (b >> 7) as usize;
            // A byte from 0x80 up must be followed by exactly 0x01.
            let next = input.get(i + 1).copied().unwrap_or(0);
            if wide & (next != 0x01) as usize != 0 {
                break;
            }
            out.push(b);
            i += 1 + wide;
            done += 1;
        }
        r.pos += i;
        for _ in done..n {
            out.push(u8::load(r)?);
        }
        Ok(())
    }
}

snap_uint!(u16);
snap_uint!(u32);
snap_uint!(u64);
snap_uint!(usize);

macro_rules! snap_sint {
    ($t:ty) => {
        impl Snap for $t {
            fn save(&self, w: &mut SnapWriter) {
                // zig-zag
                let v = *self as i64;
                w.put_varint(((v << 1) ^ (v >> 63)) as u64);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let z = r.get_varint()?;
                let v = ((z >> 1) as i64) ^ -((z & 1) as i64);
                <$t>::try_from(v).map_err(|_| SnapError::BadLen(z))
            }
        }
    };
}

snap_sint!(i8);
snap_sint!(i16);
snap_sint!(i32);
snap_sint!(i64);
snap_sint!(isize);

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u8(*self as u8);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag(t as u64)),
        }
    }
}

impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl Snap for f32 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u32(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f32::from_bits(r.get_u32()?))
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.put_bytes(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let b = r.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::BadUtf8)
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_varint(self.len() as u64);
        T::save_slice(self, w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_varint()?;
        // Each element costs at least one input byte, so `n` can never
        // exceed the remaining input — reject before allocating.
        if n > r.remaining() as u64 {
            return Err(SnapError::BadLen(n));
        }
        let mut v = Vec::with_capacity(n as usize);
        T::load_slice(n as usize, r, &mut v)?;
        Ok(v)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            t => Err(SnapError::BadTag(t as u64)),
        }
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_varint(self.len() as u64);
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_varint()?;
        if n > r.remaining() as u64 {
            return Err(SnapError::BadLen(n));
        }
        let mut m = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl Snap for () {
    fn save(&self, _w: &mut SnapWriter) {}
    fn load(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

macro_rules! snap_tuple {
    ($($n:tt $t:ident),+) => {
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn save(&self, w: &mut SnapWriter) {
                $(self.$n.save(w);)+
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($t::load(r)?,)+))
            }
        }
    };
}

snap_tuple!(0 A);
snap_tuple!(0 A, 1 B);
snap_tuple!(0 A, 1 B, 2 C);
snap_tuple!(0 A, 1 B, 2 C, 3 D);
snap_tuple!(0 A, 1 B, 2 C, 3 D, 4 E);

impl Snap for crate::time::Nanos {
    fn save(&self, w: &mut SnapWriter) {
        w.put_varint(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::time::Nanos(r.get_varint()?))
    }
}

impl Snap for crate::rng::DetRng {
    fn save(&self, w: &mut SnapWriter) {
        w.put_raw(&self.state_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let raw = r.get_raw(32)?;
        Ok(crate::rng::DetRng::from_state_bytes(
            raw.try_into().expect("length checked"),
        ))
    }
}

/// Derive [`Snap`] for a struct (`struct Name { a, b, c }`) or an enum whose
/// variants are unit or tuple variants.
///
/// ```
/// use simkit::{impl_snap, Snap};
///
/// #[derive(Debug, PartialEq)]
/// struct P { x: u32, name: String }
/// impl_snap!(struct P { x, name });
///
/// #[derive(Debug, PartialEq)]
/// enum E { A, B(u32), C(String, bool) }
/// impl_snap!(enum E { A, B(a), C(a, b) });
///
/// let p = P { x: 7, name: "hi".into() };
/// assert_eq!(P::from_snap_bytes(&p.to_snap_bytes()).unwrap(), p);
/// let e = E::C("x".into(), true);
/// assert_eq!(E::from_snap_bytes(&e.to_snap_bytes()).unwrap(), e);
/// ```
#[macro_export]
macro_rules! impl_snap {
    (struct $name:ident { $($f:ident),* $(,)? }) => {
        impl $crate::snap::Snap for $name {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $( $crate::snap::Snap::save(&self.$f, w); )*
            }
            fn load(r: &mut $crate::snap::SnapReader<'_>)
                -> ::core::result::Result<Self, $crate::snap::SnapError>
            {
                Ok($name { $( $f: $crate::snap::Snap::load(r)?, )* })
            }
        }
    };
    (enum $name:ident { $( $variant:ident $( ( $($tf:ident),+ ) )? $( { $($sf:ident),+ } )? ),* $(,)? }) => {
        impl $crate::snap::Snap for $name {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let mut tag: u64 = 0;
                $(
                    if let $name::$variant $( ( $($tf),+ ) )? $( { $($sf),+ } )? = self {
                        w.put_varint(tag);
                        $( $( $crate::snap::Snap::save($tf, w); )+ )?
                        $( $( $crate::snap::Snap::save($sf, w); )+ )?
                        return;
                    }
                    tag += 1;
                )*
                let _ = tag;
                unreachable!("non-exhaustive impl_snap! enum listing");
            }
            fn load(r: &mut $crate::snap::SnapReader<'_>)
                -> ::core::result::Result<Self, $crate::snap::SnapError>
            {
                let got = r.get_varint()?;
                let mut tag: u64 = 0;
                $(
                    if got == tag {
                        return Ok($name::$variant $( (
                            $( { let $tf = $crate::snap::Snap::load(r)?; $tf } ),+
                        ) )? $( {
                            $( $sf: $crate::snap::Snap::load(r)? ),+
                        } )? );
                    }
                    tag += 1;
                )*
                let _ = tag;
                Err($crate::snap::SnapError::BadTag(got))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_snap_bytes();
        let back = T::from_snap_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u64::MAX);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(i32::MIN);
        roundtrip(true);
        roundtrip(1.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(-0.0f64);
        roundtrip(String::from("héllo"));
        roundtrip(String::new());
    }

    #[test]
    fn nan_payload_is_preserved() {
        let v = f64::from_bits(0x7ff8_dead_beef_0001);
        let back = f64::from_snap_bytes(&v.to_snap_bytes()).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip((1u8, String::from("x"), -9i32));
        let mut m = BTreeMap::new();
        m.insert(1u32, String::from("one"));
        m.insert(2, String::from("two"));
        roundtrip(m);
    }

    #[test]
    fn macro_struct_and_enum() {
        #[derive(Debug, PartialEq)]
        struct S {
            a: u64,
            b: Vec<i32>,
            c: Option<String>,
        }
        impl_snap!(struct S { a, b, c });
        roundtrip(S {
            a: 9,
            b: vec![-1, 2],
            c: Some("z".into()),
        });

        #[derive(Debug, PartialEq)]
        enum E {
            A,
            B(u32),
            C(String, bool),
        }
        impl_snap!(
            enum E {
                A,
                B(x),
                C(x, y),
            }
        );
        roundtrip(E::A);
        roundtrip(E::B(42));
        roundtrip(E::C("hi".into(), false));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = vec![1u32, 2, 3].to_snap_bytes();
        for cut in 0..bytes.len() {
            let r = Vec::<u32>::from_snap_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} decoded to {r:?}");
        }
    }

    #[test]
    fn hostile_length_is_rejected_without_allocation() {
        // Claims 2^40 elements with 1 byte of payload.
        let mut w = SnapWriter::new();
        w.put_varint(1u64 << 40);
        w.put_u8(0);
        let r = Vec::<u8>::from_snap_bytes(&w.into_bytes());
        assert!(matches!(r, Err(SnapError::BadLen(_))));
    }

    #[test]
    fn trailing_garbage_is_rejected_by_from_snap_bytes() {
        let mut bytes = 5u32.to_snap_bytes();
        bytes.push(0xff);
        assert!(u32::from_snap_bytes(&bytes).is_err());
    }

    #[test]
    fn bad_enum_tag_is_rejected() {
        #[derive(Debug, PartialEq)]
        enum E {
            A,
            B,
        }
        impl_snap!(
            enum E {
                A,
                B,
            }
        );
        let mut w = SnapWriter::new();
        w.put_varint(9);
        assert_eq!(
            E::from_snap_bytes(&w.into_bytes()),
            Err(SnapError::BadTag(9))
        );
    }

    #[test]
    fn detrng_roundtrips_mid_stream() {
        let mut r = crate::rng::DetRng::seed_from_u64(11);
        for _ in 0..37 {
            r.next_u64();
        }
        let mut copy = crate::rng::DetRng::from_snap_bytes(&r.to_snap_bytes()).unwrap();
        for _ in 0..100 {
            assert_eq!(copy.next_u64(), r.next_u64());
        }
    }
}
