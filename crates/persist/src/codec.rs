//! Byte-level codecs: LEB128 varints, length-prefixed strings, optional
//! content features, CRC-32, and prefix-delta Dewey posting lists.
//!
//! All multi-byte fixed-width integers in the format are little-endian;
//! everything variable-length goes through the varint below.

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

/// Decodes an LEB128 varint from `bytes[*pos..]`, advancing `pos`.
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, PersistError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(PersistError::Truncated {
                what: "varint ran past the end of its section",
            });
        };
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(PersistError::Corrupt {
                what: "varint overflows u64".to_owned(),
            });
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(PersistError::Corrupt {
                what: "varint longer than 10 bytes".to_owned(),
            });
        }
    }
}

// ---------------------------------------------------------------- strings

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Decodes a length-prefixed UTF-8 string.
pub fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String, PersistError> {
    let len = get_varint(bytes, pos)? as usize;
    let end =
        pos.checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or(PersistError::Truncated {
                what: "string ran past the end of its section",
            })?;
    let s = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| PersistError::Corrupt {
        what: "string is not valid UTF-8".to_owned(),
    })?;
    *pos = end;
    Ok(s.to_owned())
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

/// Decodes an optional `(min, max)` content feature.
pub fn get_cid(bytes: &[u8], pos: &mut usize) -> Result<Option<(String, String)>, PersistError> {
    let Some(&tag) = bytes.get(*pos) else {
        return Err(PersistError::Truncated {
            what: "content-feature tag missing",
        });
    };
    *pos += 1;
    match tag {
        0 => Ok(None),
        1 => {
            let min = get_str(bytes, pos)?;
            let max = get_str(bytes, pos)?;
            Ok(Some((min, max)))
        }
        other => Err(PersistError::Corrupt {
            what: format!("content-feature tag {other} (expected 0 or 1)"),
        }),
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
            self.state = CRC_TABLE[idx] ^ (self.state >> 8);
        }
    }

    /// The final checksum value.
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

const CRC_TABLE: [u32; 256] = build_crc_table();

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
        // `get_postings` enforces on the way back in.
        put_varint(out, shared as u64);
        put_varint(out, (comps.len() - shared) as u64);
        for &c in &comps[shared..] {
            put_varint(out, u64::from(c));
        }
        prev = comps;
    }
}

/// Decodes a prefix-delta posting list into a flat [`DeweyListBuf`]
/// arena, enforcing the writer's contract that codes are **strictly
/// ascending in document order** (deduplicated). Postings live in the
/// one paged section, which is not checksummed per lookup, so this
/// ordering check is what turns a bit flip that survives varint framing
/// into a typed error instead of a silently reordered result list.
///
/// The arena is cleared first and rebuilt in place: the shared prefix
/// of each code is copied from its predecessor *within the arena*
/// (`copy_prefix_of_last`), so a warm buffer decodes a whole run with
/// zero heap allocations however many codes it holds.
pub fn get_postings_into(
    bytes: &[u8],
    pos: &mut usize,
    out: &mut DeweyListBuf,
) -> Result<(), PersistError> {
    out.clear();
    let count = get_varint(bytes, pos)? as usize;
    for i in 0..count {
        let shared = get_varint(bytes, pos)? as usize;
        let extra = get_varint(bytes, pos)? as usize;
        let prev = out.last().unwrap_or(&[]);
        if shared > prev.len() {
            return Err(PersistError::Corrupt {
                what: format!(
                    "posting shares {shared} components but predecessor has {}",
                    prev.len()
                ),
            });
        }
        // With a non-empty predecessor, an empty tail means the code is
        // a duplicate (shared == len) or a prefix (< previous) — both
        // violate strict document order.
        if i > 0 && extra == 0 {
            return Err(PersistError::Corrupt {
                what: "postings not strictly ascending (duplicate or prefix)".to_owned(),
            });
        }
        // Where the new code diverges, its component must sort after
        // the predecessor's.
        let boundary = prev.get(shared).copied();
        out.begin();
        out.copy_prefix_of_last(shared);
        for j in 0..extra {
            let comp = get_varint(bytes, pos)?;
            let comp = u32::try_from(comp).map_err(|_| PersistError::Corrupt {
                what: "Dewey component overflows u32".to_owned(),
            })?;
            if j == 0 {
                if let Some(old) = boundary {
                    if comp <= old {
                        return Err(PersistError::Corrupt {
                            what: "postings not in document order".to_owned(),
                        });
                    }
                }
            }
            out.push_component(comp);
        }
        if out.last().is_some_and(<[u32]>::is_empty) {
            return Err(PersistError::Corrupt {
                what: "empty Dewey code in postings".to_owned(),
            });
        }
    }
    Ok(())
}

/// Decodes a prefix-delta posting list into owned [`Dewey`] codes — an
/// allocating convenience over [`get_postings_into`].
pub fn get_postings(bytes: &[u8], pos: &mut usize) -> Result<Vec<Dewey>, PersistError> {
    let mut buf = DeweyListBuf::new();
    get_postings_into(bytes, pos, &mut buf)?;
    Ok(buf.to_deweys())
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncation_is_typed() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert!(matches!(
            get_varint(&buf, &mut pos),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn varint_overflow_is_corrupt() {
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert!(matches!(
            get_varint(&buf, &mut pos),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn string_round_trip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo wörld");
        put_str(&mut buf, "");
        let mut pos = 0;
        assert_eq!(get_str(&buf, &mut pos).unwrap(), "héllo wörld");
        assert_eq!(get_str(&buf, &mut pos).unwrap(), "");
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn string_bad_utf8_is_corrupt() {
        let buf = [2u8, 0xFF, 0xFE];
        let mut pos = 0;
        assert!(matches!(
            get_str(&buf, &mut pos),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn cid_round_trip() {
        let mut buf = Vec::new();
        put_cid(&mut buf, &None);
        put_cid(&mut buf, &Some(("alpha".into(), "zeta".into())));
        let mut pos = 0;
        assert_eq!(get_cid(&buf, &mut pos).unwrap(), None);
        assert_eq!(
            get_cid(&buf, &mut pos).unwrap(),
            Some(("alpha".into(), "zeta".into()))
        );
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
        let mut pos = 0;
        assert_eq!(get_postings(&buf, &mut pos).unwrap(), list);
        assert_eq!(pos, buf.len());
        // Prefix sharing must beat the naive "every component" encoding.
        let naive: usize = list.iter().map(|x| 1 + x.components().len()).sum();
        assert!(buf.len() < naive + list.len());
    }

    #[test]
    fn postings_empty_list() {
        let mut buf = Vec::new();
        put_postings(&mut buf, &[]);
        let mut pos = 0;
        assert!(get_postings(&buf, &mut pos).unwrap().is_empty());
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
        let mut pos = 0;
        assert!(matches!(
            get_postings(&buf, &mut pos),
            Err(PersistError::Corrupt { .. })
        ));
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
        let mut pos = 0;
        assert!(matches!(
            get_postings(&buf, &mut pos),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn postings_corrupt_share_count() {
        // First entry claims to share a component with a non-existent
        // predecessor.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // one entry
        put_varint(&mut buf, 3); // shares 3 comps with "nothing"
        put_varint(&mut buf, 0); // no tail
        let mut pos = 0;
        assert!(matches!(
            get_postings(&buf, &mut pos),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
