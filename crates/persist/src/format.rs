//! The `.xks` container layout: header, section directory, constants.
//!
//! See `crates/persist/FORMAT.md` for the byte-level specification. In
//! short: a fixed header in page 0 (magic, version, page size, counts,
//! section directory with per-section CRC-32s, header CRC-32), followed
//! by six page-aligned sections:
//!
//! | id | section          | contents                                    |
//! |----|------------------|---------------------------------------------|
//! | 0  | labels           | label dictionary, id-ordered                 |
//! | 1  | element offsets  | `u64` offset per element row (rel. to §2)   |
//! | 2  | elements         | Dewey, label, level, label path, features    |
//! | 3  | keyword offsets  | `u64` offset per dict entry (rel. to §4)    |
//! | 4  | keyword dict     | keyword, posting count, postings (off, len)  |
//! | 5  | postings         | prefix-delta varint Dewey runs               |

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use crate::codec::{crc32, ByteReader};
use crate::error::PersistError;

/// File magic: "XKSP" (Xml Keyword Search, Paged).
pub const MAGIC: [u8; 4] = *b"XKSP";

/// Format version this build writes by default. Version 2 appends a
/// per-keyword document-frequency varint to each keyword-dict entry
/// (planner statistics); version 1 files (no stored stats) remain fully
/// readable, with stats derived lazily from the postings on demand.
pub const VERSION: u16 = 2;

/// Oldest format version this build still reads.
pub const MIN_VERSION: u16 = 1;

/// Default page size for writer and buffer pool.
pub const DEFAULT_PAGE_SIZE: u32 = 4096;

/// Smallest allowed page size (the header must fit in page 0).
pub const MIN_PAGE_SIZE: u32 = 512;

/// Largest allowed page size.
pub const MAX_PAGE_SIZE: u32 = 1 << 20;

/// Number of sections in the directory.
pub const SECTION_COUNT: usize = 6;

/// Section indices into [`Header::sections`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Section {
    /// Label dictionary.
    Labels = 0,
    /// Element-row offset array.
    ElementOffsets = 1,
    /// Element rows.
    Elements = 2,
    /// Keyword-dict-entry offset array.
    KeywordOffsets = 3,
    /// Keyword dictionary entries.
    KeywordDict = 4,
    /// Posting-list blob.
    Postings = 5,
}

impl Section {
    /// The section's display name (used in error messages).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Section::Labels => "labels",
            Section::ElementOffsets => "element-offsets",
            Section::Elements => "elements",
            Section::KeywordOffsets => "keyword-offsets",
            Section::KeywordDict => "keyword-dict",
            Section::Postings => "postings",
        }
    }

    /// All sections in directory order.
    #[must_use]
    pub fn all() -> [Section; SECTION_COUNT] {
        [
            Section::Labels,
            Section::ElementOffsets,
            Section::Elements,
            Section::KeywordOffsets,
            Section::KeywordDict,
            Section::Postings,
        ]
    }
}

/// One directory entry: where a section lives and its checksum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionEntry {
    /// Absolute byte offset of the section start (page-aligned).
    pub offset: u64,
    /// Payload length in bytes (excluding alignment padding).
    pub len: u64,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
}

/// Size of one encoded directory entry.
const SECTION_ENTRY_LEN: usize = 8 + 8 + 4;

/// Size of the encoded header: fixed fields + directory + trailing CRC.
pub const HEADER_LEN: usize = 4 + 2 + 2 + 4 + 8 + 8 + 8 + SECTION_COUNT * SECTION_ENTRY_LEN + 4;

/// The decoded header of an `.xks` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Format version of the file ([`MIN_VERSION`]..=[`VERSION`]).
    /// Determines the keyword-dict entry layout (v2 stores per-keyword
    /// document frequencies; v1 does not).
    pub version: u16,
    /// Page size used for alignment and the buffer pool.
    pub page_size: u32,
    /// Number of element rows.
    pub element_count: u64,
    /// Number of distinct keywords.
    pub keyword_count: u64,
    /// Number of labels in the dictionary.
    pub label_count: u64,
    /// The section directory.
    pub sections: [SectionEntry; SECTION_COUNT],
}

/// Validates a page size (power of two within bounds).
pub fn check_page_size(page_size: u32) -> Result<(), PersistError> {
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) || !page_size.is_power_of_two() {
        return Err(PersistError::BadPageSize { found: page_size });
    }
    Ok(())
}

impl Header {
    /// Serializes the header (exactly [`HEADER_LEN`] bytes, CRC last).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&self.page_size.to_le_bytes());
        out.extend_from_slice(&self.element_count.to_le_bytes());
        out.extend_from_slice(&self.keyword_count.to_le_bytes());
        out.extend_from_slice(&self.label_count.to_le_bytes());
        for s in &self.sections {
            out.extend_from_slice(&s.offset.to_le_bytes());
            out.extend_from_slice(&s.len.to_le_bytes());
            out.extend_from_slice(&s.crc.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        out
    }

    /// Parses and validates a header: magic, version, page size, CRC.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let sealed = bytes.get(..HEADER_LEN).ok_or(PersistError::Truncated {
            what: "file shorter than the header",
        })?;
        let mut r = ByteReader::new(sealed);
        let magic = r.array()?;
        if magic != MAGIC {
            return Err(PersistError::BadMagic { found: magic });
        }
        let version = r.u16_le()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(PersistError::UnsupportedVersion { found: version });
        }
        let mut r = r.unseal("header")?;
        r.array::<2>()?; // reserved
        let page_size = r.u32_le()?;
        check_page_size(page_size)?;
        let element_count = r.u64_le()?;
        let keyword_count = r.u64_le()?;
        let label_count = r.u64_le()?;
        let mut sections = [SectionEntry::default(); SECTION_COUNT];
        for s in &mut sections {
            s.offset = r.u64_le()?;
            s.len = r.u64_le()?;
            s.crc = r.u32_le()?;
        }
        Ok(Header {
            version,
            page_size,
            element_count,
            keyword_count,
            label_count,
            sections,
        })
    }

    /// The directory entry for `section`.
    #[must_use]
    // `Section`'s discriminants are `0..SECTION_COUNT`, the array's length.
    #[allow(clippy::indexing_slicing)]
    pub fn section(&self, section: Section) -> SectionEntry {
        self.sections[section as usize]
    }
}

/// Rounds `offset` up to the next multiple of `page_size`.
#[must_use]
pub fn align_up(offset: u64, page_size: u64) -> u64 {
    offset.div_ceil(page_size) * page_size
}

#[cfg(test)]
#[allow(clippy::indexing_slicing, clippy::unwrap_used)]
mod tests {
    use super::*;

    fn header() -> Header {
        let mut sections = [SectionEntry::default(); SECTION_COUNT];
        for (i, s) in sections.iter_mut().enumerate() {
            s.offset = (i as u64 + 1) * 4096;
            s.len = 100 + i as u64;
            s.crc = 0xAB00 + i as u32;
        }
        Header {
            version: VERSION,
            page_size: 4096,
            element_count: 12,
            keyword_count: 34,
            label_count: 5,
            sections,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let h = header();
        let bytes = h.encode();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(Header::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = header().encode();
        bytes[0] = b'Z';
        assert!(matches!(
            Header::decode(&bytes),
            Err(PersistError::BadMagic { .. })
        ));
    }

    #[test]
    fn v1_headers_still_decode() {
        let mut h = header();
        h.version = 1;
        let decoded = Header::decode(&h.encode()).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(decoded.version, 1);
    }

    #[test]
    fn wrong_version_detected() {
        let mut h = header().encode();
        h[4] = 99;
        // Re-seal the CRC so only the version is wrong.
        let crc = crc32(&h[..HEADER_LEN - 4]).to_le_bytes();
        h[HEADER_LEN - 4..].copy_from_slice(&crc);
        assert!(matches!(
            Header::decode(&h),
            Err(PersistError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn header_crc_detects_flip() {
        let mut bytes = header().encode();
        bytes[20] ^= 0x40; // flip a bit inside keyword_count
        assert!(matches!(
            Header::decode(&bytes),
            Err(PersistError::ChecksumMismatch { section: "header" })
        ));
    }

    #[test]
    fn truncated_header_detected() {
        let bytes = header().encode();
        assert!(matches!(
            Header::decode(&bytes[..HEADER_LEN - 10]),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn page_size_validation() {
        assert!(check_page_size(4096).is_ok());
        assert!(check_page_size(512).is_ok());
        for bad in [0u32, 100, 511, 513, 3000, 2 << 20] {
            assert!(matches!(
                check_page_size(bad),
                Err(PersistError::BadPageSize { .. })
            ));
        }
    }

    #[test]
    fn align_up_math() {
        assert_eq!(align_up(0, 4096), 0);
        assert_eq!(align_up(1, 4096), 4096);
        assert_eq!(align_up(4096, 4096), 4096);
        assert_eq!(align_up(4097, 4096), 8192);
    }
}
