//! A tiny self-describing binary codec for syntax-layer data.
//!
//! The compiled-module store serializes bytecode, datums, and spans to
//! `compiled/<name>.lagc` files. This module provides the byte-level
//! primitives — LEB128 varints, zigzag signed integers, raw-bit floats,
//! length-prefixed strings — plus the [`Datum`], [`Symbol`], and
//! [`Span`] encodings those files are built from.
//!
//! Two properties matter:
//!
//! * **Symbols survive re-interning.** A symbol is encoded by *name*
//!   and decoded with [`Symbol::intern`], so artifacts written by one
//!   process link correctly in another. The gensyms a module's compile
//!   makes are scoped, and so interned (see [`Symbol::fresh`]): each
//!   decodes to itself on the thread that made it. Only an unscoped
//!   gensym decodes to an interned namesake of a different identity,
//!   and no compile writes one to an artifact.
//! * **Decoding hostile bytes never panics.** Every read is
//!   bounds-checked, claimed collection lengths are capped by the bytes
//!   actually remaining, and recursion is depth-limited; failures
//!   surface as a structured [`WireError`].

use crate::datum::Datum;
use crate::span::Span;
use crate::symbol::Symbol;
use std::fmt;
use std::sync::Arc;

/// Maximum nesting depth accepted when decoding recursive structures.
pub const MAX_DEPTH: usize = 512;

/// A structured decode failure: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl WireError {
    /// A decode failure at `offset`.
    pub fn new(message: impl Into<String>, offset: usize) -> WireError {
        WireError {
            message: message.into(),
            offset,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------

/// An append-only byte buffer with the codec's primitive encoders.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one raw byte.
    pub fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends raw bytes verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends an unsigned LEB128 varint.
    pub fn uint(&mut self, mut n: u64) {
        loop {
            let byte = (n & 0x7f) as u8;
            n >>= 7;
            if n == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a `u32` as a varint.
    pub fn u32(&mut self, n: u32) {
        self.uint(u64::from(n));
    }

    /// Appends a `usize` as a varint.
    pub fn len(&mut self, n: usize) {
        self.uint(n as u64);
    }

    /// Appends a signed integer, zigzag-encoded.
    pub fn int(&mut self, n: i64) {
        self.uint(((n << 1) ^ (n >> 63)) as u64);
    }

    /// Appends an `f64` as its raw little-endian bits.
    pub fn f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    /// Appends a boolean as one byte.
    pub fn bool(&mut self, b: bool) {
        self.buf.push(u8::from(b));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a symbol by name (decoding re-interns).
    pub fn symbol(&mut self, s: Symbol) {
        s.with_str(|name| self.str(name));
    }

    /// Appends a span: source symbol plus four varint coordinates.
    pub fn span(&mut self, s: Span) {
        self.symbol(s.source);
        self.u32(s.start);
        self.u32(s.end);
        self.u32(s.line);
        self.u32(s.col);
    }

    /// Appends a datum, tagged by variant.
    pub fn datum(&mut self, d: &Datum) {
        match d {
            Datum::Symbol(s) => {
                self.u8(0);
                self.symbol(*s);
            }
            Datum::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Datum::Int(n) => {
                self.u8(2);
                self.int(*n);
            }
            Datum::Float(x) => {
                self.u8(3);
                self.f64(*x);
            }
            Datum::Complex(re, im) => {
                self.u8(4);
                self.f64(*re);
                self.f64(*im);
            }
            Datum::Str(s) => {
                self.u8(5);
                self.str(s);
            }
            Datum::Char(c) => {
                self.u8(6);
                self.u32(*c as u32);
            }
            Datum::Keyword(s) => {
                self.u8(7);
                self.symbol(*s);
            }
            Datum::List(items) => {
                self.u8(8);
                self.len(items.len());
                for item in items {
                    self.datum(item);
                }
            }
            Datum::Improper(items, tail) => {
                self.u8(9);
                self.len(items.len());
                for item in items {
                    self.datum(item);
                }
                self.datum(tail);
            }
            Datum::Vector(items) => {
                self.u8(10);
                self.len(items.len());
                for item in items {
                    self.datum(item);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------

/// A bounds-checked cursor over encoded bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// The current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn err(&self, message: impl Into<String>) -> WireError {
        WireError::new(message, self.pos)
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.err("truncated input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.err("truncated input"))?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// Fails on truncation or an over-long encoding.
    pub fn uint(&mut self) -> Result<u64, WireError> {
        let mut n: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 63 && byte > 1 {
                return Err(self.err("varint overflows 64 bits"));
            }
            n |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(n);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.err("varint too long"));
            }
        }
    }

    /// Reads a varint that must fit a `u32`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or out-of-range values.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let n = self.uint()?;
        u32::try_from(n).map_err(|_| self.err("value out of u32 range"))
    }

    /// Reads a varint that must fit a `u16`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or out-of-range values.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let n = self.uint()?;
        u16::try_from(n).map_err(|_| self.err("value out of u16 range"))
    }

    /// Reads a collection length, capped by the bytes remaining (each
    /// element costs at least one byte, so a larger claim is corrupt).
    ///
    /// # Errors
    ///
    /// Fails on truncation or an implausible length claim.
    pub fn len(&mut self) -> Result<usize, WireError> {
        let n = self.uint()?;
        let n = usize::try_from(n).map_err(|_| self.err("length out of range"))?;
        if n > self.remaining() {
            return Err(self.err(format!(
                "length claim {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a zigzag-encoded signed integer.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn int(&mut self) -> Result<i64, WireError> {
        let n = self.uint()?;
        Ok(((n >> 1) as i64) ^ -((n & 1) as i64))
    }

    /// Reads an `f64` from raw little-endian bits.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let bytes = self.raw(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// Reads a boolean byte.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a byte other than 0/1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.err(format!("bad boolean byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.len()?;
        let bytes = self.raw(n)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::new("invalid UTF-8", self.pos))
    }

    /// Reads a symbol, interning its name.
    ///
    /// # Errors
    ///
    /// Fails on truncation or invalid UTF-8.
    pub fn symbol(&mut self) -> Result<Symbol, WireError> {
        Ok(Symbol::intern(self.str()?))
    }

    /// Reads a span.
    ///
    /// # Errors
    ///
    /// Fails on truncation or malformed fields.
    pub fn span(&mut self) -> Result<Span, WireError> {
        let source = self.symbol()?;
        let start = self.u32()?;
        let end = self.u32()?;
        let line = self.u32()?;
        let col = self.u32()?;
        Ok(Span::new(source, start, end, line, col))
    }

    /// Reads a datum.
    ///
    /// # Errors
    ///
    /// Fails on truncation, bad tags, or excessive nesting.
    pub fn datum(&mut self) -> Result<Datum, WireError> {
        self.datum_at(0)
    }

    fn datum_at(&mut self, depth: usize) -> Result<Datum, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err("datum nests too deeply"));
        }
        match self.u8()? {
            0 => Ok(Datum::Symbol(self.symbol()?)),
            1 => Ok(Datum::Bool(self.bool()?)),
            2 => Ok(Datum::Int(self.int()?)),
            3 => Ok(Datum::Float(self.f64()?)),
            4 => {
                let re = self.f64()?;
                let im = self.f64()?;
                Ok(Datum::Complex(re, im))
            }
            5 => Ok(Datum::Str(Arc::from(self.str()?))),
            6 => {
                let code = self.u32()?;
                char::from_u32(code)
                    .map(Datum::Char)
                    .ok_or_else(|| self.err(format!("bad character scalar {code}")))
            }
            7 => Ok(Datum::Keyword(self.symbol()?)),
            8 => {
                let n = self.len()?;
                let mut items = Vec::with_capacity(n.min(self.remaining()));
                for _ in 0..n {
                    items.push(self.datum_at(depth + 1)?);
                }
                Ok(Datum::List(items))
            }
            9 => {
                let n = self.len()?;
                let mut items = Vec::with_capacity(n.min(self.remaining()));
                for _ in 0..n {
                    items.push(self.datum_at(depth + 1)?);
                }
                let tail = self.datum_at(depth + 1)?;
                Ok(Datum::Improper(items, Box::new(tail)))
            }
            10 => {
                let n = self.len()?;
                let mut items = Vec::with_capacity(n.min(self.remaining()));
                for _ in 0..n {
                    items.push(self.datum_at(depth + 1)?);
                }
                Ok(Datum::Vector(items))
            }
            tag => Err(self.err(format!("bad datum tag {tag}"))),
        }
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 accumulator step over an 8-byte word.
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// XXH64 with seed 0 over `bytes`: every digest the store records (an
/// artifact's content, a source text, a language, the base environment)
/// and the deterministic gensym-scope seeds. Not cryptographic; it only
/// needs to make accidental staleness collisions vanishingly unlikely.
/// It reads 32-byte stripes of little-endian words, not single bytes,
/// because every build and load hashes each artifact it touches.
pub fn digest(bytes: &[u8]) -> u64 {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        P5
    } else {
        let mut acc = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (v, word) in acc.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *v = xxh_round(*v, u64::from_le_bytes(*word));
            }
        }
        let mut h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        for v in acc {
            h = (h ^ xxh_round(0, v)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    };
    h = h.wrapping_add(bytes.len() as u64);
    let (words, mut rest) = tail.as_chunks::<8>();
    for word in words {
        h ^= xxh_round(0, u64::from_le_bytes(*word));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    if let Some((half, after)) = rest.split_first_chunk::<4>() {
        h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = after;
    }
    for &b in rest {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut w = Writer::new();
        w.uint(0);
        w.uint(127);
        w.uint(128);
        w.uint(u64::MAX);
        w.int(0);
        w.int(-1);
        w.int(i64::MIN);
        w.int(i64::MAX);
        w.f64(3.25);
        w.f64(f64::NEG_INFINITY);
        w.bool(true);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.uint().unwrap(), 0);
        assert_eq!(r.uint().unwrap(), 127);
        assert_eq!(r.uint().unwrap(), 128);
        assert_eq!(r.uint().unwrap(), u64::MAX);
        assert_eq!(r.int().unwrap(), 0);
        assert_eq!(r.int().unwrap(), -1);
        assert_eq!(r.int().unwrap(), i64::MIN);
        assert_eq!(r.int().unwrap(), i64::MAX);
        assert_eq!(r.f64().unwrap(), 3.25);
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn datum_round_trips() {
        let d = Datum::List(vec![
            Datum::sym("lambda"),
            Datum::Improper(
                vec![Datum::Int(-7), Datum::Float(1.5)],
                Box::new(Datum::sym("rest")),
            ),
            Datum::Vector(vec![Datum::Bool(true), Datum::Char('λ')]),
            Datum::string("s\"x"),
            Datum::Keyword(Symbol::intern("kw")),
            Datum::Complex(1.0, -2.0),
        ]);
        let mut w = Writer::new();
        w.datum(&d);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.datum().unwrap(), d);
        assert!(r.is_empty());
    }

    #[test]
    fn span_round_trips() {
        let s = Span::new(Symbol::intern("m.lag"), 3, 9, 2, 5);
        let mut w = Writer::new();
        w.span(s);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).span().unwrap(), s);
    }

    #[test]
    fn scoped_gensyms_decode_to_themselves() {
        let g = {
            let _scope = crate::symbol::fresh_scope(0xCAC4E);
            Symbol::fresh("cache")
        };
        let mut w = Writer::new();
        w.symbol(g);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).symbol().unwrap(), g);
    }

    #[test]
    fn gensyms_decode_to_interned_twins() {
        // an unscoped gensym, as a program's `gensym` call makes at run time
        let g = Symbol::fresh("cache");
        let mut w = Writer::new();
        w.symbol(g);
        let bytes = w.into_bytes();
        let decoded = Reader::new(&bytes).symbol().unwrap();
        assert_ne!(decoded, g, "gensym identity is not preserved");
        assert_eq!(decoded.as_str(), g.as_str(), "the name is");
    }

    #[test]
    fn truncation_and_bad_tags_error_cleanly() {
        let mut w = Writer::new();
        w.datum(&Datum::List(vec![Datum::Int(1), Datum::string("abc")]));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let _ = Reader::new(&bytes[..cut]).datum(); // must not panic
        }
        assert!(Reader::new(&[99]).datum().is_err());
        // implausible length claim: a list of 2^40 elements in 3 bytes
        let mut w = Writer::new();
        w.u8(8);
        w.uint(1 << 40);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).datum().is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let mut w = Writer::new();
        for _ in 0..(MAX_DEPTH + 10) {
            w.u8(8); // List
            w.uint(1); // of one element
        }
        w.datum(&Datum::Int(0));
        let bytes = w.into_bytes();
        let e = Reader::new(&bytes).datum().unwrap_err();
        assert!(e.message.contains("deep"), "{e}");
    }

    #[test]
    fn digest_is_xxh64_with_seed_0() {
        // XXH64's sanity buffer: byte i is the top byte of
        // 2654435761 * 11400714785074694797^i (mod 2^64)
        let mut buffer = Vec::with_capacity(222);
        let mut gen: u64 = 2_654_435_761;
        for _ in 0..222 {
            buffer.push((gen >> 56) as u8);
            gen = gen.wrapping_mul(11_400_714_785_074_694_797);
        }
        // 222 bytes run the 32-byte stripe loop and every tail step
        for (len, expected) in [
            (0, 0xEF46_DB37_51D8_E999),
            (1, 0xE934_A84A_DB05_2768),
            (14, 0x8282_DCC4_994E_35C8),
            (222, 0xB641_AE8C_B691_C174),
        ] {
            assert_eq!(digest(&buffer[..len]), expected, "length {len}");
        }
        assert_ne!(digest(b"a"), digest(b"b"));
    }
}
