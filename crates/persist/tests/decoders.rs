//! The field decoders behind the checksums. The flip sweeps in
//! `corruption.rs` and `shard.rs` stop at a CRC; here every byte of an
//! `.xks` header, of a v1 and a v2 shard manifest, and of each WAL frame
//! payload is mutated, and every prefix of each is cut, with the
//! enclosing CRC re-sealed after the damage. The decoder behind the
//! checksum then meets the bytes itself, and must answer `Ok` or a typed
//! [`PersistError`]. A panic anywhere fails the test.

use std::fs;
use std::path::{Path, PathBuf};

use xks_persist::codec::{crc32, put_str, put_varint};
use xks_persist::format::{Header, HEADER_LEN};
use xks_persist::shard::MANIFEST_MAGIC;
use xks_persist::wal::WAL_HEADER_LEN;
use xks_persist::{
    write_sharded, IndexReader, IndexWriter, Injector, PersistError, ShardManifest, Wal, WalRecord,
};
use xks_xmltree::fixtures::publications;

/// A named rewrite of one byte.
type Mutation = (&'static str, fn(u8) -> u8);

/// The byte mutations every position is put through.
const MUTATIONS: [Mutation; 4] = [
    ("^0x01", |b| b ^ 0x01),
    ("^0x80", |b| b ^ 0x80),
    ("=0x00", |_| 0x00),
    ("=0xFF", |_| 0xFF),
];

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("xks-persist-decoders-test");
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A decoder's answer is acceptable when it is `Ok` or a typed error
/// about the bytes. `Io` would mean the decoder blamed the file system
/// for damage it was handed in memory.
fn assert_typed<T>(result: &Result<T, PersistError>, what: &str) {
    if let Err(PersistError::Io(e)) = result {
        panic!("{what}: I/O error for in-file damage: {e}");
    }
}

/// Re-seals the header CRC over `bytes[..HEADER_LEN - 4]`.
fn reseal_header(bytes: &mut [u8]) {
    let crc = crc32(&bytes[..HEADER_LEN - 4]);
    bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Opens `bytes` as an index and, when that succeeds, runs every kind
/// of lookup the opened reader serves, so a header that decodes to odd
/// but accepted values still meets the row and dictionary decoders.
fn open_and_probe(path: &Path, bytes: &[u8], what: &str) -> bool {
    fs::write(path, bytes).unwrap();
    let opened = IndexReader::open(path);
    assert_typed(&opened, what);
    let Ok(reader) = opened else {
        return false;
    };
    for i in 0..reader.keyword_count() {
        assert_typed(&reader.keyword_at(i), what);
    }
    for i in 0..reader.element_count() {
        assert_typed(&reader.element_record(i), what);
    }
    let root: xks_xmltree::Dewey = "0".parse().unwrap();
    assert_typed(&reader.try_element(&root), what);
    assert_typed(&reader.try_keyword_deweys("keyword"), what);
    assert_typed(&reader.keyword_stats("keyword"), what);
    assert_typed(&reader.verify(), what);
    true
}

fn header_sweep(name: &str, clean: &[u8]) {
    let path = temp_dir().join(name);
    let (mut opened, mut rejected) = (0usize, 0usize);
    for at in 0..HEADER_LEN {
        for (label, mutate) in MUTATIONS {
            let mut bytes = clean.to_vec();
            bytes[at] = mutate(bytes[at]);
            reseal_header(&mut bytes);
            let what = format!("{name} header byte {at} {label}");
            if open_and_probe(&path, &bytes, &what) {
                opened += 1;
            } else {
                rejected += 1;
            }
        }
    }
    for cut in 0..=HEADER_LEN {
        let what = format!("{name} cut at {cut}");
        assert!(
            !open_and_probe(&path, &clean[..cut], &what),
            "{what} opened"
        );
    }
    eprintln!("{name}: {rejected} re-sealed header mutations rejected, {opened} opened");
    assert!(rejected > 0 && opened > 0);
    fs::remove_file(&path).unwrap();
}

#[test]
fn resealed_header_mutations_stay_typed() {
    let path = temp_dir().join("header-v2.xks");
    IndexWriter::new()
        .write_tree(&publications(), &path)
        .unwrap();
    let v2 = fs::read(&path).unwrap();
    fs::remove_file(&path).unwrap();
    assert_eq!(Header::decode(&v2).unwrap().version, 2);
    header_sweep("v2.xks", &v2);

    let v1 =
        fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/publications-v1.xks"))
            .unwrap();
    assert_eq!(Header::decode(&v1).unwrap().version, 1);
    header_sweep("v1.xks", &v1);
}

/// Encodes `manifest` in the v1 layout: the v2 fixed header with
/// `version = 1`, and entries that stop after `file_len`.
fn encode_v1(manifest: &ShardManifest) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MANIFEST_MAGIC);
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(manifest.shards.len() as u32).to_le_bytes());
    out.extend_from_slice(&manifest.total_elements.to_le_bytes());
    out.extend_from_slice(&manifest.total_keywords.to_le_bytes());
    out.extend_from_slice(&manifest.label_count.to_le_bytes());
    for shard in &manifest.shards {
        put_str(&mut out, &shard.file_name);
        out.extend_from_slice(&shard.first_doc.to_le_bytes());
        put_varint(&mut out, shard.doc_count);
        put_varint(&mut out, shard.element_count);
        put_varint(&mut out, shard.keyword_count);
        put_varint(&mut out, shard.file_len);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// `body` followed by its CRC-32: a manifest sealed over whatever the
/// body now holds.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

fn manifest_sweep(name: &str, clean: &[u8]) {
    assert!(ShardManifest::decode(clean).is_ok(), "{name} decodes clean");
    let body = &clean[..clean.len() - 4];
    let (mut decoded, mut rejected) = (0usize, 0usize);
    for at in 0..body.len() {
        for (label, mutate) in MUTATIONS {
            let mut damaged = body.to_vec();
            damaged[at] = mutate(damaged[at]);
            let result = ShardManifest::decode(&sealed(&damaged));
            assert_typed(&result, &format!("{name} byte {at} {label}"));
            if result.is_ok() {
                decoded += 1;
            } else {
                rejected += 1;
            }
        }
    }
    for cut in 0..body.len() {
        let result = ShardManifest::decode(&sealed(&body[..cut]));
        assert_typed(&result, &format!("{name} body cut at {cut}"));
        assert!(result.is_err(), "{name} body cut at {cut} decoded");
    }
    for cut in 0..clean.len() {
        let result = ShardManifest::decode(&clean[..cut]);
        assert_typed(&result, &format!("{name} cut at {cut}"));
        assert!(result.is_err(), "{name} cut at {cut} decoded");
    }
    eprintln!("{name}: {rejected} re-sealed mutations rejected, {decoded} decoded");
    assert!(rejected > 0 && decoded > 0);
}

#[test]
fn resealed_manifest_mutations_stay_typed() {
    let dir = temp_dir().join("manifest");
    fs::create_dir_all(&dir).unwrap();
    let doc = xks_store::shred(&publications());
    let summary = write_sharded(&IndexWriter::new(), &doc, &dir.join("corpus.xksm"), 2).unwrap();
    let v2 = summary.manifest.encode();
    assert_eq!(u16::from_le_bytes([v2[4], v2[5]]), 2);
    assert!(summary.manifest.shards[0].keyword_filter.is_some());
    manifest_sweep("v2.xksm", &v2);
    manifest_sweep("v1.xksm", &encode_v1(&summary.manifest));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifest_element_counts_that_overflow_are_corrupt() {
    // Per-shard counts whose sum wraps around to the stored total: the
    // sum must be checked, not wrapped (release) or trapped (debug).
    let dir = temp_dir().join("manifest-overflow");
    fs::create_dir_all(&dir).unwrap();
    let doc = xks_store::shred(&publications());
    let summary = write_sharded(&IndexWriter::new(), &doc, &dir.join("corpus.xksm"), 2).unwrap();
    let mut manifest = summary.manifest;
    manifest.shards[0].element_count = u64::MAX;
    manifest.shards[1].element_count = 2;
    manifest.total_elements = 1;
    assert!(matches!(
        ShardManifest::decode(&manifest.encode()),
        Err(PersistError::Corrupt { .. })
    ));
    fs::remove_dir_all(&dir).unwrap();
}

/// The payload ranges of every frame in a clean log.
fn frames(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        out.push(pos + 8..pos + 8 + len);
        pos += 8 + len;
    }
    out
}

/// `bytes` with the frame whose payload is `frame` replaced by
/// `payload`, its length and CRC re-sealed to match.
fn with_payload(bytes: &[u8], frame: &std::ops::Range<usize>, payload: &[u8]) -> Vec<u8> {
    let mut out = bytes[..frame.start - 8].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bytes[frame.end..]);
    out
}

#[test]
fn resealed_wal_payload_mutations_stay_typed() {
    let records = [
        WalRecord::Init {
            root_label: "dblp".to_owned(),
        },
        WalRecord::Insert {
            ordinal: 300,
            xml: "<paper><title>xml keyword search</title></paper>".to_owned(),
        },
        WalRecord::Delete { ordinal: 300 },
        WalRecord::Insert {
            ordinal: u32::MAX,
            xml: String::new(),
        },
    ];
    let path = temp_dir().join("payloads.wal");
    let _ = fs::remove_file(&path);
    let mut wal = Wal::create(&path, 0xDEAD_BEEF, Injector::none()).unwrap();
    for record in &records {
        wal.append(record).unwrap();
    }
    drop(wal);
    let clean = fs::read(&path).unwrap();
    fs::remove_file(&path).unwrap();
    assert_eq!(Wal::scan(&clean).unwrap().records, records);

    let (mut scanned, mut rejected) = (0usize, 0usize);
    for frame in frames(&clean) {
        let payload = &clean[frame.clone()];
        for at in 0..payload.len() {
            for (label, mutate) in MUTATIONS {
                let mut damaged = payload.to_vec();
                damaged[at] = mutate(damaged[at]);
                let result = Wal::scan(&with_payload(&clean, &frame, &damaged));
                assert_typed(&result, &format!("payload at {} {label}", frame.start + at));
                if result.is_ok() {
                    scanned += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        for cut in 0..payload.len() {
            let result = Wal::scan(&with_payload(&clean, &frame, &payload[..cut]));
            assert_typed(&result, &format!("payload at {} cut to {cut}", frame.start));
            assert!(result.is_err(), "payload at {} cut to {cut}", frame.start);
        }
    }
    // The header and frame headers carry no CRC of their own: mutate
    // them raw, and cut the log at every byte.
    for at in (0..clean.len()).filter(|at| frames(&clean).iter().all(|f| !f.contains(at))) {
        for (label, mutate) in MUTATIONS {
            let mut bytes = clean.clone();
            bytes[at] = mutate(bytes[at]);
            assert_typed(&Wal::scan(&bytes), &format!("byte {at} {label}"));
        }
    }
    for cut in 0..clean.len() {
        assert_typed(&Wal::scan(&clean[..cut]), &format!("cut at {cut}"));
    }
    eprintln!("WAL: {rejected} re-sealed payload mutations rejected, {scanned} scanned");
    assert!(rejected > 0 && scanned > 0);
}
