//! Byte-level codecs: LEB128 varints, length-prefixed strings, optional
//! content features, CRC-32, and prefix-delta Dewey posting lists.
//!
//! All multi-byte fixed-width integers in the format are little-endian;
//! everything variable-length goes through the varint below. Every
//! decoder of `.xks`, `.xksm` and WAL bytes reads through one
//! [`ByteReader`], and this module, like the other decoder modules,
//! denies the lints that would let a read panic.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use validrtf::fragment::Cid;
use xks_xmltree::{Dewey, DeweyListBuf};

use crate::error::PersistError;

// ---------------------------------------------------------------- varint

/// Appends `value` as an LEB128 varint (1–10 bytes).
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

// ---------------------------------------------------------------- strings

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// --------------------------------------------------- optional (min, max)

/// Appends an optional `(min, max)` content feature (tag byte + pair).
pub fn put_cid(out: &mut Vec<u8>, cid: &Option<(String, String)>) {
    match cid {
        None => out.push(0),
        Some((min, max)) => {
            out.push(1);
            put_str(out, min);
            put_str(out, max);
        }
    }
}

// ------------------------------------------------------------------ crc32

/// CRC-32 (IEEE 802.3, the zlib polynomial), one-shot.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Incremental CRC-32 for streaming verification.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let idx = ((self.state ^ u32::from(b)) & 0xFF) as usize;
            // The mask keeps `idx` below the table's 256 entries.
            #[allow(clippy::indexing_slicing)]
            let entry = CRC_TABLE[idx];
            self.state = entry ^ (self.state >> 8);
        }
    }

    /// The final checksum value.
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

const CRC_TABLE: [u32; 256] = build_crc_table();

// The loop bound keeps `i` below the table's 256 entries.
#[allow(clippy::indexing_slicing)]
const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

// ------------------------------------------------- Dewey posting lists

/// Appends a sorted Dewey posting list with prefix-delta compression:
/// the first code is stored whole; every later code stores how many
/// leading components it shares with its predecessor plus the new tail.
/// Document-order sorting makes neighbouring codes share long prefixes,
/// so postings shrink to a few bytes per node.
pub fn put_postings(out: &mut Vec<u8>, deweys: &[Dewey]) {
    put_varint(out, deweys.len() as u64);
    let mut prev: &[u32] = &[];
    for d in deweys {
        let comps = d.components();
        let shared = prev
            .iter()
            .zip(comps.iter())
            .take_while(|(a, b)| a == b)
            .count();
        // Writers dedup, so after the first entry every tail is
        // non-empty and diverges upward — which is exactly what
        // `ByteReader::postings_into` enforces on the way back in.
        put_varint(out, shared as u64);
        put_varint(out, (comps.len() - shared) as u64);
        for &c in comps.iter().skip(shared) {
            put_varint(out, u64::from(c));
        }
        prev = comps;
    }
}

// ------------------------------------------------------------ ByteReader

/// The one way the reader builds a `Corrupt` error: out of line, so the
/// reads that check for one stay small enough to inline.
#[cold]
#[inline(never)]
fn corrupt(what: std::fmt::Arguments<'_>) -> PersistError {
    PersistError::Corrupt {
        what: what.to_string(),
    }
}

/// A bounded cursor over bytes read from an `.xks`, `.xksm` or WAL
/// file, and the only way this crate decodes them. A read that runs
/// past the end is [`PersistError::Truncated`], a value no writer
/// produces is [`PersistError::Corrupt`], and no read panics, whatever
/// the bytes hold.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    /// Offset of the next unread byte, never past `bytes.len()`.
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader on the first byte of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// A reader `offset` bytes into `bytes`. The offset comes from a
    /// stored offset table, so one beyond the end is `Corrupt`.
    #[inline]
    pub fn at(bytes: &'a [u8], offset: u64) -> Result<Self, PersistError> {
        match usize::try_from(offset) {
            Ok(pos) if pos <= bytes.len() => Ok(ByteReader { bytes, pos }),
            _ => Err(corrupt(format_args!(
                "offset {offset} outside its {}-byte section",
                bytes.len()
            ))),
        }
    }

    /// Offset of the next unread byte.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Rejects a stored count of items, one byte or more each, that the
    /// bytes left cannot hold, before it sizes an allocation or bounds
    /// a loop.
    #[inline]
    pub fn check_items(&self, count: u64) -> Result<(), PersistError> {
        if count > self.remaining() as u64 {
            return Err(PersistError::Truncated {
                what: "record ran past the end of its section",
            });
        }
        Ok(())
    }

    /// Checks the little-endian CRC-32 in the last four bytes against
    /// every byte before it, and returns a reader over those bytes at
    /// this reader's position. A mismatch is `ChecksumMismatch` naming
    /// `section`.
    pub fn unseal(self, section: &'static str) -> Result<Self, PersistError> {
        let Some((body, stored)) = self.bytes.split_last_chunk::<4>() else {
            return Err(PersistError::Truncated {
                what: "checksum missing",
            });
        };
        if crc32(body) != u32::from_le_bytes(*stored) {
            return Err(PersistError::ChecksumMismatch { section });
        }
        ByteReader::at(body, self.pos as u64)
    }

    /// The next `N` bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let Some((head, _)) = self
            .bytes
            .get(self.pos..)
            .and_then(<[u8]>::split_first_chunk::<N>)
        else {
            return Err(PersistError::Truncated {
                what: "fixed-width field ran past the end of its bytes",
            });
        };
        self.pos += N;
        Ok(*head)
    }

    /// A little-endian `u16`.
    pub fn u16_le(&mut self) -> Result<u16, PersistError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32_le(&mut self) -> Result<u32, PersistError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64_le(&mut self) -> Result<u64, PersistError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An LEB128 varint (1–10 bytes).
    #[inline]
    pub fn varint(&mut self) -> Result<u64, PersistError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(PersistError::Truncated {
                    what: "varint ran past the end of its section",
                });
            };
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err(corrupt(format_args!("varint overflows u64")));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(corrupt(format_args!("varint longer than 10 bytes")));
            }
        }
    }

    /// A varint that must fit a `u32`; `what` names the field in the
    /// error.
    #[inline]
    pub fn u32_varint(&mut self, what: &'static str) -> Result<u32, PersistError> {
        let value = self.varint()?;
        u32::try_from(value).map_err(|_| corrupt(format_args!("{what} overflows u32")))
    }

    /// The next `n` bytes, borrowed.
    #[inline]
    pub fn bytes(&mut self, n: u64) -> Result<&'a [u8], PersistError> {
        let Some(taken) = usize::try_from(n)
            .ok()
            .and_then(|n| self.bytes.get(self.pos..self.pos.checked_add(n)?))
        else {
            return Err(PersistError::Truncated {
                what: "record ran past the end of its section",
            });
        };
        self.pos += taken.len();
        Ok(taken)
    }

    /// A length-prefixed UTF-8 string, borrowed.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, PersistError> {
        let len = self.varint()?;
        std::str::from_utf8(self.bytes(len)?)
            .map_err(|_| corrupt(format_args!("string is not valid UTF-8")))
    }

    /// A content feature's tag byte: whether a `(min, max)` pair
    /// follows.
    fn cid_tag(&mut self) -> Result<bool, PersistError> {
        match self.array()? {
            [0] => Ok(false),
            [1] => Ok(true),
            [other] => Err(corrupt(format_args!(
                "content-feature tag {other} (expected 0 or 1)"
            ))),
        }
    }

    /// An optional `(min, max)` content feature, as owned strings.
    pub fn cid(&mut self) -> Result<Option<(String, String)>, PersistError> {
        if !self.cid_tag()? {
            return Ok(None);
        }
        Ok(Some((self.str()?.to_owned(), self.str()?.to_owned())))
    }

    /// A content feature decoded straight into shared strings: one
    /// allocation per string, none for an absent feature.
    pub fn shared_cid(&mut self) -> Result<Cid, PersistError> {
        if !self.cid_tag()? {
            return Ok(None);
        }
        Ok(Some((self.str()?.into(), self.str()?.into())))
    }

    /// Steps over a content feature without decoding its strings.
    pub fn skip_cid(&mut self) -> Result<(), PersistError> {
        if self.cid_tag()? {
            for _ in 0..2 {
                let len = self.varint()?;
                self.bytes(len)?;
            }
        }
        Ok(())
    }

    /// Decodes a prefix-delta posting list into a flat [`DeweyListBuf`]
    /// arena, enforcing the writer's contract that codes are **strictly
    /// ascending in document order** (deduplicated). Postings live in
    /// the one paged section, which is not checksummed per lookup, so
    /// this ordering check is what turns a bit flip that survives varint
    /// framing into a typed error instead of a silently reordered result
    /// list.
    ///
    /// The arena is cleared first and rebuilt in place: the shared
    /// prefix of each code is copied from its predecessor *within the
    /// arena* (`copy_prefix_of_last`), so a warm buffer decodes a whole
    /// run with zero heap allocations however many codes it holds.
    pub fn postings_into(&mut self, out: &mut DeweyListBuf) -> Result<(), PersistError> {
        out.clear();
        let count = self.varint()?;
        for i in 0..count {
            let shared = self.varint()? as usize;
            let extra = self.varint()?;
            let prev = out.last().unwrap_or(&[]);
            if shared > prev.len() {
                return Err(corrupt(format_args!(
                    "posting shares {shared} components but predecessor has {}",
                    prev.len()
                )));
            }
            // With a non-empty predecessor, an empty tail means the code
            // is a duplicate (shared == len) or a prefix (< previous) —
            // both violate strict document order.
            if i > 0 && extra == 0 {
                return Err(corrupt(format_args!(
                    "postings not strictly ascending (duplicate or prefix)"
                )));
            }
            // Where the new code diverges, its component must sort after
            // the predecessor's.
            let boundary = prev.get(shared).copied();
            out.begin();
            out.copy_prefix_of_last(shared);
            for j in 0..extra {
                let comp = self.u32_varint("Dewey component")?;
                if j == 0 && boundary.is_some_and(|old| comp <= old) {
                    return Err(corrupt(format_args!("postings not in document order")));
                }
                out.push_component(comp);
            }
            if out.last().is_some_and(<[u32]>::is_empty) {
                return Err(corrupt(format_args!("empty Dewey code in postings")));
            }
        }
        Ok(())
    }

    /// Checks that every byte was read: a record that decodes with bytes
    /// to spare is `Corrupt`, and `what` names it in the error.
    pub fn finish(&self, what: &'static str) -> Result<(), PersistError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(corrupt(format_args!("{what} has {extra} trailing bytes"))),
        }
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing, clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Decodes `bytes` as one posting list into owned codes, checking
    /// that the list spans every byte.
    fn postings(bytes: &[u8]) -> Result<Vec<Dewey>, PersistError> {
        let mut r = ByteReader::new(bytes);
        let mut buf = DeweyListBuf::new();
        r.postings_into(&mut buf)?;
        assert_eq!(r.remaining(), 0);
        Ok(buf.to_deweys())
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_truncation_is_typed() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.pop();
        assert!(matches!(
            ByteReader::new(&buf).varint(),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn varint_overflow_is_corrupt() {
        let buf = [0xFFu8; 11];
        assert!(matches!(
            ByteReader::new(&buf).varint(),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn string_round_trip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo wörld");
        put_str(&mut buf, "");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.str().unwrap(), "héllo wörld");
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn string_bad_utf8_is_corrupt() {
        let buf = [2u8, 0xFF, 0xFE];
        assert!(matches!(
            ByteReader::new(&buf).str(),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn cid_round_trip() {
        let mut buf = Vec::new();
        put_cid(&mut buf, &None);
        put_cid(&mut buf, &Some(("alpha".into(), "zeta".into())));
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.cid().unwrap(), None);
        assert_eq!(r.cid().unwrap(), Some(("alpha".into(), "zeta".into())));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_streaming_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut inc = Crc32::new();
        inc.update(&data[..10]);
        inc.update(&data[10..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    #[test]
    fn postings_round_trip_and_compress() {
        let list = vec![
            d("0"),
            d("0.0"),
            d("0.2"),
            d("0.2.0"),
            d("0.2.0.1"),
            d("0.2.0.3.0"),
            d("0.2.1"),
            d("0.2.1.1"),
            d("1.0.3"),
        ];
        let mut buf = Vec::new();
        put_postings(&mut buf, &list);
        assert_eq!(postings(&buf).unwrap(), list);
        // Prefix sharing must beat the naive "every component" encoding.
        let naive: usize = list.iter().map(|x| 1 + x.components().len()).sum();
        assert!(buf.len() < naive + list.len());
    }

    #[test]
    fn postings_empty_list() {
        let mut buf = Vec::new();
        put_postings(&mut buf, &[]);
        assert!(postings(&buf).unwrap().is_empty());
    }

    #[test]
    fn postings_out_of_order_is_corrupt() {
        // Hand-encode "0.5" then "0.3": framing is valid but document
        // order is violated — the decoder must reject it.
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        put_varint(&mut buf, 0); // first: no shared prefix
        put_varint(&mut buf, 2);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 5); // 0.5
        put_varint(&mut buf, 1); // second: shares "0"
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 3); // 0.3 < 0.5
        assert!(matches!(postings(&buf), Err(PersistError::Corrupt { .. })));
    }

    #[test]
    fn postings_duplicate_is_corrupt() {
        // "0.1" followed by an empty tail (the duplicate encoding).
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 2);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 1); // 0.1
        put_varint(&mut buf, 2); // shares all of 0.1
        put_varint(&mut buf, 0); // empty tail -> duplicate
        assert!(matches!(postings(&buf), Err(PersistError::Corrupt { .. })));
    }

    #[test]
    fn postings_corrupt_share_count() {
        // First entry claims to share a component with a non-existent
        // predecessor.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // one entry
        put_varint(&mut buf, 3); // shares 3 comps with "nothing"
        put_varint(&mut buf, 0); // no tail
        assert!(matches!(postings(&buf), Err(PersistError::Corrupt { .. })));
    }
}
