//! Corruption handling: damaged `.xks` files must produce *typed*
//! errors — never panics — whether the damage hits the header, one of
//! the sections checksummed at open, or the lazily-paged postings.

use std::fs;
use std::path::PathBuf;

use xks_persist::codec::crc32;
use xks_persist::format::{Header, Section, HEADER_LEN};
use xks_persist::{IndexReader, IndexWriter, PersistError};
use xks_xmltree::fixtures::publications;

fn fresh_index(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xks-persist-corruption-test");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    IndexWriter::new()
        .write_tree(&publications(), &path)
        .unwrap();
    path
}

#[test]
fn empty_file_is_truncated() {
    let dir = std::env::temp_dir().join("xks-persist-corruption-test");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.xks");
    fs::write(&path, b"").unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::Truncated { .. } | PersistError::Io(_))
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn garbage_file_is_bad_magic() {
    let dir = std::env::temp_dir().join("xks-persist-corruption-test");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.xks");
    fs::write(&path, vec![0xABu8; 4096]).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::BadMagic {
            found: [0xAB, 0xAB, 0xAB, 0xAB]
        })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_header_detected() {
    let path = fresh_index("trunc-header.xks");
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..HEADER_LEN / 2]).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::Truncated { .. })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_body_detected_at_open() {
    // Keep the header intact but cut the file before the promised
    // section ends: the directory bounds check must catch it.
    let path = fresh_index("trunc-body.xks");
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::Truncated { .. })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn wrong_version_detected() {
    let path = fresh_index("version.xks");
    let mut bytes = fs::read(&path).unwrap();
    bytes[4] = 99;
    bytes[5] = 0;
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::UnsupportedVersion { found: 99 })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn header_bitflip_is_checksum_mismatch() {
    let path = fresh_index("header-flip.xks");
    let mut bytes = fs::read(&path).unwrap();
    bytes[16] ^= 0x01; // inside element_count
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::ChecksumMismatch { section: "header" })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn label_section_bitflip_fails_open() {
    let path = fresh_index("labels-flip.xks");
    let bytes = fs::read(&path).unwrap();
    let header = Header::decode(&bytes).unwrap();
    let labels = header.section(Section::Labels);
    let mut corrupted = bytes.clone();
    corrupted[labels.offset as usize + 3] ^= 0x10;
    fs::write(&path, &corrupted).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::ChecksumMismatch { section: "labels" })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn postings_bitflip_passes_open_but_fails_verify() {
    // The postings are paged, not read at open, so open cannot check
    // them; `verify()` must still catch the damage.
    let path = fresh_index("postings-flip.xks");
    let bytes = fs::read(&path).unwrap();
    let header = Header::decode(&bytes).unwrap();
    let postings = header.section(Section::Postings);
    let mut corrupted = bytes.clone();
    corrupted[postings.offset as usize + 1] ^= 0x20;
    fs::write(&path, &corrupted).unwrap();
    let reader = IndexReader::open(&path).expect("open is lazy");
    assert!(matches!(
        reader.verify(),
        Err(PersistError::ChecksumMismatch {
            section: "postings"
        })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn element_section_bitflip_fails_open() {
    let path = fresh_index("elements-flip.xks");
    let bytes = fs::read(&path).unwrap();
    let header = Header::decode(&bytes).unwrap();
    let elements = header.section(Section::Elements);
    let mut corrupted = bytes.clone();
    corrupted[(elements.offset + elements.len / 2) as usize] ^= 0x04;
    fs::write(&path, &corrupted).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::ChecksumMismatch {
            section: "elements"
        })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn unsealed_flip_in_each_resident_section_fails_open() {
    // Sections 1–4 are read whole at open and checked against their
    // CRCs, so damage anywhere in them is named before any lookup.
    let path = fresh_index("resident-flip.xks");
    let bytes = fs::read(&path).unwrap();
    let header = Header::decode(&bytes).unwrap();
    for section in [
        Section::ElementOffsets,
        Section::Elements,
        Section::KeywordOffsets,
        Section::KeywordDict,
    ] {
        let entry = header.section(section);
        for at in [0, entry.len / 2, entry.len - 1] {
            let mut corrupted = bytes.clone();
            corrupted[(entry.offset + at) as usize] ^= 0x01;
            fs::write(&path, &corrupted).unwrap();
            match IndexReader::open(&path) {
                Err(PersistError::ChecksumMismatch { section: named }) => {
                    assert_eq!(named, section.name());
                }
                other => panic!("{} byte {at}: {other:?}", section.name()),
            }
        }
    }
    fs::remove_file(&path).unwrap();
}

#[test]
fn hostile_counts_in_lazy_sections_stay_typed_errors() {
    // Corrupt an element row's component-count varint into a huge
    // value and re-seal the CRCs: the decoder itself must clamp
    // allocations and fail with a typed error — not abort.
    let reader = damaged_index("hostile-count.xks", |bytes, header| {
        // First row starts at the section start; overwrite its leading
        // varint (component count) with a 10-byte max varint. This
        // tramples the row, which is fine — we only care that the
        // reader stays typed.
        let start = header.section(Section::Elements).offset as usize;
        for b in &mut bytes[start..start + 9] {
            *b = 0xFF;
        }
        bytes[start + 9] = 0x01;
    });
    let root: xks_xmltree::Dewey = "0".parse().unwrap();
    assert!(matches!(
        reader.try_element(&root),
        Err(PersistError::Truncated { .. } | PersistError::Corrupt { .. })
    ));
}

/// Writes a fresh index, lets `damage` rewrite its bytes (given the
/// decoded header), re-seals every section CRC and the header CRC, and
/// opens the result: the checks at open pass, so the damage is met by
/// the row decoder the lookups run.
fn damaged_index(name: &str, damage: impl FnOnce(&mut [u8], &Header)) -> IndexReader {
    let path = fresh_index(name);
    let mut bytes = fs::read(&path).unwrap();
    let mut header = Header::decode(&bytes).unwrap();
    damage(&mut bytes, &header);
    for section in Section::all() {
        let entry = header.section(section);
        let payload = &bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
        header.sections[section as usize].crc = crc32(payload);
    }
    bytes[..HEADER_LEN].copy_from_slice(&header.encode());
    fs::write(&path, &bytes).unwrap();
    let reader = IndexReader::open(&path).expect("re-sealed damage passes open");
    fs::remove_file(&path).unwrap();
    reader
}

/// Repoints the last element row at the final `tail.len()` bytes of
/// the elements section and writes `tail` there. Zero padding follows
/// the section up to the page boundary, so a decoder that read past
/// the section end would find clean bytes instead of failing.
fn retail_last_row(bytes: &mut [u8], header: &Header, tail: &[u8]) {
    let elements = header.section(Section::Elements);
    let offsets = header.section(Section::ElementOffsets);
    let row_off = elements.len - tail.len() as u64;
    let entry = (offsets.offset + (header.element_count - 1) * 8) as usize;
    bytes[entry..entry + 8].copy_from_slice(&row_off.to_le_bytes());
    let start = (elements.offset + row_off) as usize;
    bytes[start..start + tail.len()].copy_from_slice(tail);
}

/// Every element entry point must turn row damage into a typed error.
/// `target` sorts after every row, so whatever the finger's start the
/// search ends on the last row; the root lookup starts on row 0.
fn assert_element_lookups_fail(reader: &IndexReader, target: &str) {
    use validrtf::source::CorpusSource;
    let target: xks_xmltree::Dewey = target.parse().unwrap();
    assert!(matches!(
        reader.try_element(&target),
        Err(PersistError::Truncated { .. } | PersistError::Corrupt { .. })
    ));
    assert!(reader.try_element_label(&target).is_err());
    assert!(reader.try_keyword_node(&target).is_err());
}

#[test]
fn component_varint_past_the_section_end_is_typed() {
    // One component whose varint still has its continuation bit set on
    // the section's last byte.
    let reader = damaged_index("comp-past-end.xks", |bytes, header| {
        retail_last_row(bytes, header, &[0x01, 0x80]);
    });
    assert_element_lookups_fail(&reader, "9");
}

#[test]
fn component_count_beyond_the_bytes_left_is_typed() {
    // Five components promised, two bytes left. The first component
    // already differs from the target, so only the count check stands
    // between this row and a wrong "sorts below" answer.
    let reader = damaged_index("ncomp-past-end.xks", |bytes, header| {
        retail_last_row(bytes, header, &[0x05, 0x00, 0x00]);
    });
    assert_element_lookups_fail(&reader, "9");
}

#[test]
fn component_overflowing_u32_is_typed() {
    let reader = damaged_index("comp-overflow.xks", |bytes, header| {
        // Row 0: one component, 2^35 - 1.
        let start = header.section(Section::Elements).offset as usize;
        bytes[start..start + 6].copy_from_slice(&[0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
    });
    let root: xks_xmltree::Dewey = "0".parse().unwrap();
    assert!(matches!(
        reader.try_element(&root),
        Err(PersistError::Corrupt { .. })
    ));
    assert_element_lookups_fail(&reader, "0");
}

#[test]
fn offset_entry_outside_the_elements_section_is_typed() {
    for bogus in [None, Some(u64::MAX)] {
        let reader = damaged_index("offset-outside.xks", |bytes, header| {
            let elements = header.section(Section::Elements);
            let entry = header.section(Section::ElementOffsets).offset as usize;
            let bogus = bogus.unwrap_or(elements.len + 1);
            bytes[entry..entry + 8].copy_from_slice(&bogus.to_le_bytes());
        });
        assert_element_lookups_fail(&reader, "0");
    }
}

#[test]
fn mismatched_offset_array_rejected_at_open() {
    // A header whose element count disagrees with the offset-array
    // length (CRC re-sealed so only the count lies) must be rejected
    // before any lookup can multiply the bogus count.
    let path = fresh_index("bad-count.xks");
    let mut bytes = fs::read(&path).unwrap();
    bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes()); // element_count
    let crc = crc32(&bytes[..HEADER_LEN - 4]);
    bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::Corrupt { .. })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn clean_file_passes_everything() {
    let path = fresh_index("clean.xks");
    let reader = IndexReader::open(&path).unwrap();
    reader.verify().unwrap();
    assert!(!reader.try_keyword_deweys("keyword").unwrap().is_empty());
    fs::remove_file(&path).unwrap();
}

/// Counts of one class of flips in [`single_byte_flip_sweep`].
#[derive(Debug, Default)]
struct PostingsFlips {
    /// Some keyword lookup returned a typed error.
    typed_at_lookup: usize,
    /// Every lookup succeeded and some answer differed from the clean
    /// index's: only `verify()` saw these.
    silently_altered: usize,
    /// Every lookup answered exactly as on the clean index.
    unchanged: usize,
}

#[test]
fn single_byte_flip_sweep() {
    // Every payload byte of a small index — the header's and each
    // section's, padding excluded — flipped one bit at a time and as a
    // whole byte, one flip per file. A flip in the header or sections
    // 0–4 must fail open with a typed error. A flip in the postings
    // opens; its keyword lookups either fail typed, answer unchanged,
    // or answer wrongly, and `verify()` must catch every one of them.
    // A panic anywhere fails the test.
    const MASKS: [u8; 9] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF];
    let path = fresh_index("flip-sweep.xks");
    let clean = fs::read(&path).unwrap();
    let header = Header::decode(&clean).unwrap();
    let keywords: Vec<(String, Vec<xks_xmltree::Dewey>)> = {
        let reader = IndexReader::open(&path).unwrap();
        (0..reader.keyword_count())
            .map(|i| reader.keyword_at(i).unwrap())
            .collect()
    };

    let mut regions = vec![("header", 0, HEADER_LEN)];
    for section in Section::all() {
        let entry = header.section(section);
        regions.push((section.name(), entry.offset as usize, entry.len as usize));
    }
    let (mut rejected_at_open, mut postings) = (0usize, PostingsFlips::default());
    for (name, start, len) in regions {
        for at in start..start + len {
            for mask in MASKS {
                let mut bytes = clean.clone();
                bytes[at] ^= mask;
                fs::write(&path, &bytes).unwrap();
                let opened = IndexReader::open(&path);
                if name != "postings" {
                    assert!(opened.is_err(), "{name} byte {at} ^ {mask:#04x} opened");
                    rejected_at_open += 1;
                    continue;
                }
                let reader = opened.unwrap_or_else(|e| panic!("postings flip failed open: {e}"));
                let answers: Vec<_> = keywords
                    .iter()
                    .map(|(kw, want)| reader.try_keyword_deweys(kw).map(|got| &got == want))
                    .collect();
                if answers.iter().any(Result::is_err) {
                    postings.typed_at_lookup += 1;
                } else if answers.iter().any(|same| matches!(same, Ok(false))) {
                    postings.silently_altered += 1;
                } else {
                    postings.unchanged += 1;
                }
                assert!(
                    matches!(
                        reader.verify(),
                        Err(PersistError::ChecksumMismatch {
                            section: "postings"
                        })
                    ),
                    "postings byte {at} ^ {mask:#04x} passed verify"
                );
            }
        }
    }
    let postings_len = header.section(Section::Postings).len as usize;
    eprintln!(
        "{rejected_at_open} flips rejected at open; {} postings flips: {postings:?}",
        postings_len * MASKS.len()
    );
    assert_eq!(
        postings.typed_at_lookup + postings.silently_altered + postings.unchanged,
        postings_len * MASKS.len()
    );
    assert!(postings.typed_at_lookup > 0 && postings.silently_altered > 0);
    fs::remove_file(&path).unwrap();
}
