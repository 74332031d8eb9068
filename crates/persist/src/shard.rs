//! Sharded corpora on disk: N independent `.xks` shard files tied
//! together by a CRC'd manifest.
//!
//! A monolithic `.xks` index bounds a corpus by what one file (and one
//! posting-merge stream) can serve. [`write_sharded`] instead
//! partitions the documents (`xks_store::partition` — contiguous
//! top-level ranges balanced by element rows, root rows in shard 0,
//! label table replicated) and writes one ordinary `.xks` file per
//! shard plus a **shard manifest** (`.xksm`) recording the topology and
//! per-shard stats. [`ShardedCorpus::open`] validates the manifest
//! (magic, version, trailing CRC-32 — the same single-byte-flip
//! guarantees as the `.xks` header) and opens every shard through its own
//! [`IndexReader`] with its own buffer pool and caches.
//!
//! `ShardedCorpus` implements [`CorpusSource`] by delegating to a
//! [`validrtf::shards::ShardSet`] built over the readers: keyword
//! lookups concatenate per-shard postings in document order, skipping
//! the shards whose keyword filter rules the keyword out; element
//! lookups route to the owning shard. Hand the set to
//! [`validrtf::engine::SearchEngine::from_shard_set`] (which also
//! reports the skips in its stats), or the corpus itself to
//! `from_source` — both read the same way and are byte-identical to an
//! unsharded index over the same corpus (pinned by
//! `tests/conformance.rs` against the golden digest).
//!
//! See `FORMAT.md` §"Shard manifest" for the byte-level layout.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use validrtf::fragment::Cid;
use validrtf::shards::ShardSet;
use validrtf::source::{CorpusSource, SourceElement, SourceError};
use xks_store::{partition, ShreddedDoc};
use xks_xmltree::Dewey;

use crate::codec::{crc32, put_str, put_varint, ByteReader};
use crate::error::PersistError;
use crate::reader::{IndexReader, IndexStats};
use crate::writer::{IndexWriter, WriteSummary};

/// Manifest magic: "XKSM" (Xml Keyword Search, Manifest).
pub const MANIFEST_MAGIC: [u8; 4] = *b"XKSM";

/// Manifest format version this build writes. Version 2 appends
/// per-shard planner statistics to each entry: the shard's total
/// posting count and a keyword Bloom filter
/// ([`validrtf::plan::KeywordFilter`]) that lets a lookup skip the
/// `(keyword, shard)` probes for shards a keyword provably misses.
/// Version 1 manifests (no stats, no filters) remain readable.
pub const MANIFEST_VERSION: u16 = 2;

/// Oldest manifest version this build still reads.
pub const MANIFEST_MIN_VERSION: u16 = 1;

/// Conventional file extension of a shard manifest.
pub const MANIFEST_EXT: &str = "xksm";

/// One shard's entry in the manifest: where it lives and what it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Shard file name, relative to the manifest's directory.
    pub file_name: String,
    /// First top-level document ordinal the shard owns (shard 0 also
    /// owns the corpus root's rows).
    pub first_doc: u32,
    /// Top-level documents in the shard.
    pub doc_count: u64,
    /// Element rows in the shard.
    pub element_count: u64,
    /// Distinct keywords in the shard.
    pub keyword_count: u64,
    /// Shard file length in bytes, as written.
    pub file_len: u64,
    /// Total postings (keyword-node occurrences) in the shard.
    /// Zero on entries decoded from v1 manifests.
    pub postings_total: u64,
    /// Bloom filter over the shard's keyword vocabulary — `false`
    /// from `may_contain` proves the shard has no postings for a
    /// keyword. `None` on entries decoded from v1 manifests (no
    /// skipping possible).
    pub keyword_filter: Option<validrtf::plan::KeywordFilter>,
}

/// The decoded shard manifest: corpus-wide totals plus one
/// [`ShardEntry`] per shard, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Element rows across all shards.
    pub total_elements: u64,
    /// Distinct keywords in the corpus (global union, which is ≤ the
    /// sum of per-shard counts — shards share vocabulary).
    pub total_keywords: u64,
    /// Labels in the (replicated) label dictionary.
    pub label_count: u64,
    /// Per-shard entries.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Serializes the manifest: magic, version, counts, entries, and a
    /// trailing CRC-32 over everything before it.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.shards.len() * 48);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.total_elements.to_le_bytes());
        out.extend_from_slice(&self.total_keywords.to_le_bytes());
        out.extend_from_slice(&self.label_count.to_le_bytes());
        for shard in &self.shards {
            put_str(&mut out, &shard.file_name);
            out.extend_from_slice(&shard.first_doc.to_le_bytes());
            put_varint(&mut out, shard.doc_count);
            put_varint(&mut out, shard.element_count);
            put_varint(&mut out, shard.keyword_count);
            put_varint(&mut out, shard.file_len);
            // v2 planner stats: postings total + keyword filter words
            // (0 words = no filter).
            put_varint(&mut out, shard.postings_total);
            let words = shard.keyword_filter.as_ref().map_or(&[][..], |f| f.words());
            put_varint(&mut out, words.len() as u64);
            for w in words {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates a manifest: magic, version, trailing CRC,
    /// and the shard topology (≥ 1 shard, ranges starting at 0 and
    /// strictly increasing). Every violation is a typed
    /// [`PersistError`] — a corrupted manifest can never open.
    #[deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        const FIXED: usize = 4 + 2 + 2 + 4 + 8 + 8 + 8;
        if bytes.len() < FIXED + 4 {
            return Err(PersistError::Truncated {
                what: "file shorter than the shard manifest header",
            });
        }
        let mut r = ByteReader::new(bytes);
        let magic = r.array()?;
        if magic != MANIFEST_MAGIC {
            return Err(PersistError::BadMagic { found: magic });
        }
        let version = r.u16_le()?;
        if !(MANIFEST_MIN_VERSION..=MANIFEST_VERSION).contains(&version) {
            return Err(PersistError::UnsupportedVersion { found: version });
        }
        let mut r = r.unseal("shard manifest")?;
        r.array::<2>()?; // reserved
        let shard_count = r.u32_le()?;
        let total_elements = r.u64_le()?;
        let total_keywords = r.u64_le()?;
        let label_count = r.u64_le()?;
        if shard_count == 0 {
            return Err(PersistError::Corrupt {
                what: "shard manifest declares zero shards".to_owned(),
            });
        }
        // A hostile count cannot size the allocation past the bytes left.
        let mut shards = Vec::with_capacity((shard_count as usize).min(r.remaining()));
        for i in 0..shard_count {
            let file_name = r.str()?.to_owned();
            let first_doc = r.u32_le()?;
            let doc_count = r.varint()?;
            let element_count = r.varint()?;
            let keyword_count = r.varint()?;
            let file_len = r.varint()?;
            let (postings_total, keyword_filter) = if version >= 2 {
                let postings_total = r.varint()?;
                let word_count = r.varint()?;
                let filter = if word_count == 0 {
                    None
                } else {
                    r.check_items(word_count.saturating_mul(8))?;
                    let mut words = Vec::with_capacity(word_count as usize);
                    for _ in 0..word_count {
                        words.push(r.u64_le()?);
                    }
                    Some(
                        validrtf::plan::KeywordFilter::from_words(words).ok_or_else(|| {
                            PersistError::Corrupt {
                                what: format!("shard {i} has an invalid keyword-filter size"),
                            }
                        })?,
                    )
                };
                (postings_total, filter)
            } else {
                (0, None)
            };
            if file_name.is_empty() || file_name.contains(['/', '\\']) {
                return Err(PersistError::Corrupt {
                    what: format!("shard {i} has invalid file name {file_name:?}"),
                });
            }
            shards.push(ShardEntry {
                file_name,
                first_doc,
                doc_count,
                element_count,
                keyword_count,
                file_len,
                postings_total,
                keyword_filter,
            });
        }
        if let Some(first) = shards.first().filter(|s| s.first_doc != 0) {
            return Err(PersistError::Corrupt {
                what: format!(
                    "shard 0 must own document 0, manifest says {}",
                    first.first_doc
                ),
            });
        }
        if shards
            .iter()
            .zip(shards.iter().skip(1))
            .any(|(a, b)| a.first_doc >= b.first_doc)
        {
            return Err(PersistError::Corrupt {
                what: "shard document ranges are not strictly increasing".to_owned(),
            });
        }
        let summed = shards
            .iter()
            .try_fold(0u64, |sum, s| sum.checked_add(s.element_count));
        if summed != Some(total_elements) {
            return Err(PersistError::Corrupt {
                what: "per-shard element counts do not sum to the manifest total".to_owned(),
            });
        }
        Ok(ShardManifest {
            total_elements,
            total_keywords,
            label_count,
            shards,
        })
    }
}

/// What [`write_sharded`] produced.
#[derive(Debug, Clone)]
pub struct ShardedWriteSummary {
    /// Where the manifest was written.
    pub manifest_path: PathBuf,
    /// The manifest, as written.
    pub manifest: ShardManifest,
    /// Per-shard writer summaries, in shard order.
    pub per_shard: Vec<WriteSummary>,
}

impl ShardedWriteSummary {
    /// Total bytes across the manifest's shard files.
    #[must_use]
    pub fn total_file_len(&self) -> u64 {
        self.per_shard.iter().map(|s| s.file_len).sum()
    }
}

/// Shard file name for shard `i` of the manifest at `manifest_path`
/// (e.g. `corpus.xksm` → `corpus-shard000.xks`).
fn shard_file_name(manifest_path: &Path, i: usize) -> String {
    let stem = manifest_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("corpus");
    format!("{stem}-shard{i:03}.xks")
}

/// Partitions `doc` into at most `shards` document-contiguous parts and
/// writes one `.xks` file per part next to the manifest at
/// `manifest_path` (`corpus.xksm` → `corpus-shard000.xks`, …).
/// The part count is clamped to the number of top-level documents, so
/// the manifest may record fewer shards than requested.
///
/// Every shard file is an ordinary `.xks` index — [`IndexReader::open`]
/// reads one in isolation — and the manifest is written **last**, so a
/// crash mid-build never leaves a manifest pointing at missing shards.
pub fn write_sharded(
    writer: &IndexWriter,
    doc: &ShreddedDoc,
    manifest_path: &Path,
    shards: usize,
) -> Result<ShardedWriteSummary, PersistError> {
    let dir = manifest_path.parent().unwrap_or_else(|| Path::new("."));
    let parts = partition(doc, shards);
    let mut entries = Vec::with_capacity(parts.len());
    let mut per_shard = Vec::with_capacity(parts.len());
    for (i, part) in parts.iter().enumerate() {
        let file_name = shard_file_name(manifest_path, i);
        let summary = writer.write(&part.doc, &dir.join(&file_name))?;
        let postings = part.doc.postings();
        let postings_total = postings.values().map(|d| d.len() as u64).sum();
        let keyword_filter = Some(validrtf::plan::KeywordFilter::from_keywords(
            postings.keys().map(String::as_str),
        ));
        entries.push(ShardEntry {
            file_name,
            first_doc: part.first_doc,
            doc_count: part.doc_count,
            element_count: summary.element_count,
            keyword_count: summary.keyword_count,
            file_len: summary.file_len,
            postings_total,
            keyword_filter,
        });
        per_shard.push(summary);
    }
    let manifest = ShardManifest {
        total_elements: doc.element_count() as u64,
        total_keywords: doc.postings().len() as u64,
        label_count: doc.labels.len() as u64,
        shards: entries,
    };
    std::fs::write(manifest_path, manifest.encode())?;
    Ok(ShardedWriteSummary {
        manifest_path: manifest_path.to_owned(),
        manifest,
        per_shard,
    })
}

/// An opened sharded corpus: the manifest plus one [`IndexReader`] per
/// shard, glued into one logical [`CorpusSource`] (see the module
/// docs).
#[derive(Debug)]
pub struct ShardedCorpus {
    manifest: ShardManifest,
    readers: Vec<Arc<IndexReader>>,
    set: ShardSet,
}

impl ShardedCorpus {
    /// Opens a manifest and every shard it names. Shard paths resolve
    /// relative to the manifest's directory; each shard file goes
    /// through the full `.xks` open-time validation (header CRC, section
    /// bounds, count cross-checks), and each shard's element count,
    /// keyword count, and file length are additionally cross-checked
    /// against the manifest, so a swapped-in foreign shard file is
    /// rejected at open even when internally valid.
    pub fn open(manifest_path: &Path) -> Result<Self, PersistError> {
        let manifest = ShardManifest::decode(&std::fs::read(manifest_path)?)?;
        let dir = manifest_path.parent().unwrap_or_else(|| Path::new("."));
        let mut readers = Vec::with_capacity(manifest.shards.len());
        for entry in &manifest.shards {
            let reader = IndexReader::open(&dir.join(&entry.file_name))?;
            let stats = reader.stats();
            for (what, found, promised) in [
                ("elements", reader.element_count(), entry.element_count),
                ("keywords", reader.keyword_count(), entry.keyword_count),
                ("bytes", stats.file_len, entry.file_len),
            ] {
                if found != promised {
                    return Err(PersistError::Corrupt {
                        what: format!(
                            "shard {} holds {found} {what} but the manifest promises {promised}",
                            entry.file_name,
                        ),
                    });
                }
            }
            readers.push(Arc::new(reader));
        }
        // v2 manifests carry per-shard keyword filters: wire them into
        // the set so every lookup skips the (keyword, shard) probes a
        // filter proves empty. v1 entries decode to `None` (no filter,
        // always probed) — same results, no skipping.
        let set = ShardSet::with_filters(
            readers
                .iter()
                .map(|r| Arc::clone(r) as Arc<dyn CorpusSource>)
                .collect(),
            manifest.shards.iter().map(|s| s.first_doc).collect(),
            manifest
                .shards
                .iter()
                .map(|s| s.keyword_filter.clone())
                .collect(),
        )
        .map_err(|e| PersistError::Corrupt {
            what: format!("manifest topology rejected: {e}"),
        })?;
        Ok(ShardedCorpus {
            manifest,
            readers,
            set,
        })
    }

    /// The decoded manifest.
    #[must_use]
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.readers.len()
    }

    /// The per-shard readers, in document order.
    #[must_use]
    pub fn readers(&self) -> &[Arc<IndexReader>] {
        &self.readers
    }

    /// A [`ShardSet`] over this corpus's readers — what
    /// [`validrtf::engine::SearchEngine::from_shard_set`] consumes.
    /// Cheap: a clone of the set validated
    /// at open (`Arc` handles, not readers), so the returned set and
    /// this corpus share buffer pools and caches.
    #[must_use]
    pub fn shard_set(&self) -> ShardSet {
        self.set.clone()
    }

    /// Live per-shard stats, in shard order (see [`IndexReader::stats`]).
    #[must_use]
    pub fn shard_stats(&self) -> Vec<IndexStats> {
        self.readers.iter().map(|r| r.stats()).collect()
    }

    /// Verifies every shard's section checksums
    /// ([`IndexReader::verify`] per shard; first failure wins).
    pub fn verify(&self) -> Result<(), PersistError> {
        for reader in &self.readers {
            reader.verify()?;
        }
        Ok(())
    }
}

impl xks_obs::MetricSource for ShardedCorpus {
    /// Contributes one gauge for the shard count plus every shard
    /// reader's full counter set under `<prefix>shard.<i>.` — so one
    /// snapshot shows per-shard buffer-pool and cache traffic side by
    /// side (shard load skew is exactly what per-shard counters exist
    /// to reveal).
    fn collect_into(&self, prefix: &str, snap: &mut xks_obs::Snapshot) {
        snap.gauge(format!("{prefix}shard_count"), self.readers.len() as u64);
        for (i, reader) in self.readers.iter().enumerate() {
            reader.collect_into(&format!("{prefix}shard.{i}."), snap);
        }
    }
}

impl CorpusSource for ShardedCorpus {
    fn label_name(&self, label: u32) -> Option<String> {
        self.set.label_name(label)
    }

    fn node_count(&self) -> usize {
        self.manifest.total_elements as usize
    }

    fn keyword_stats(&self, keyword: &str) -> Option<validrtf::plan::KeywordStats> {
        self.set.keyword_stats(keyword)
    }

    fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        self.set.try_keyword_deweys(keyword)
    }

    fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        self.set.try_element(dewey)
    }

    fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        self.set.try_element_label(dewey)
    }

    fn try_keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, SourceError> {
        self.set.try_keyword_node(dewey)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xks_store::shred;
    use xks_xmltree::fixtures::publications;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("xks-persist-shard-test")
            .join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_publications(name: &str, shards: usize) -> (ShardedWriteSummary, PathBuf) {
        let dir = temp_dir(name);
        let doc = shred(&publications());
        let path = dir.join("corpus.xksm");
        let summary = write_sharded(&IndexWriter::new(), &doc, &path, shards).unwrap();
        (summary, path)
    }

    #[test]
    fn manifest_round_trips() {
        let (summary, _) = write_publications("round-trip", 2);
        let bytes = summary.manifest.encode();
        assert_eq!(ShardManifest::decode(&bytes).unwrap(), summary.manifest);
        assert_eq!(summary.manifest.shards.len(), 2);
        assert_eq!(summary.manifest.shards[0].first_doc, 0);
        assert_eq!(
            summary.total_file_len(),
            summary.per_shard.iter().map(|s| s.file_len).sum::<u64>()
        );
    }

    /// Re-encodes a manifest in the v1 layout: same fixed header with
    /// `version = 1`, entries stopping after the `file_len` varint (no
    /// planner-stats tail), trailing CRC-32.
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

    #[test]
    fn v1_manifest_still_opens_without_filters() {
        let (summary, path) = write_publications("v1-compat", 2);

        // Decode of hand-built v1 bytes: topology intact, planner
        // stats absent (zero postings, no filter).
        let v1_bytes = encode_v1(&summary.manifest);
        let decoded = ShardManifest::decode(&v1_bytes).unwrap();
        assert_eq!(decoded.total_elements, summary.manifest.total_elements);
        assert_eq!(decoded.shards.len(), summary.manifest.shards.len());
        for (v1, v2) in decoded.shards.iter().zip(&summary.manifest.shards) {
            assert_eq!(v1.file_name, v2.file_name);
            assert_eq!(v1.first_doc, v2.first_doc);
            assert_eq!(v1.element_count, v2.element_count);
            assert_eq!(v1.postings_total, 0);
            assert_eq!(v1.keyword_filter, None);
            assert!(v2.keyword_filter.is_some());
            assert!(v2.postings_total > 0);
        }

        // A corpus opened through the v1 manifest answers identically
        // to the v2 one — no filters just means no shard skipping.
        let v2_corpus = ShardedCorpus::open(&path).unwrap();
        std::fs::write(&path, &v1_bytes).unwrap();
        let v1_corpus = ShardedCorpus::open(&path).unwrap();
        let set = v1_corpus.shard_set();
        for kw in ["liu", "keyword", "xml", "unobtainium"] {
            assert_eq!(set.shard_skips(kw), 0, "{kw}: v1 manifest has no filters");
            assert_eq!(
                v1_corpus.try_keyword_deweys(kw).unwrap(),
                v2_corpus.try_keyword_deweys(kw).unwrap(),
                "{kw}"
            );
            // Per-shard stats come from the shard readers, not the
            // manifest, so the planner still sees sealed stats.
            assert_eq!(
                v1_corpus.keyword_stats(kw),
                v2_corpus.keyword_stats(kw),
                "{kw}"
            );
        }
        let engine = validrtf::engine::SearchEngine::from_shard_set(set);
        let response = engine
            .execute(&validrtf::SearchRequest::parse("liu keyword").unwrap())
            .unwrap();
        assert_eq!(response.hits.len(), 2);
        assert_eq!(response.stats.shards_skipped, 0);
    }

    #[test]
    fn sharded_corpus_matches_memory_backend() {
        let (_, path) = write_publications("differential", 3);
        let corpus = ShardedCorpus::open(&path).unwrap();
        assert_eq!(corpus.shard_count(), 3);
        let doc = shred(&publications());
        let memory = validrtf::source::MemoryCorpus::new(doc.clone());
        for kw in ["liu", "keyword", "xml", "publications", "unobtainium"] {
            assert_eq!(
                corpus.try_keyword_deweys(kw).unwrap(),
                memory.try_keyword_deweys(kw).unwrap(),
                "{kw}"
            );
        }
        for row in &doc.elements {
            let dewey: Dewey = row.dewey.parse().unwrap();
            assert_eq!(
                corpus.try_element(&dewey).unwrap(),
                memory.try_element(&dewey).unwrap(),
                "{dewey}"
            );
        }
        assert_eq!(corpus.node_count(), memory.node_count());
        assert_eq!(corpus.label_name(0), memory.label_name(0));
        corpus.verify().unwrap();
    }

    #[test]
    fn every_shard_is_a_valid_standalone_index() {
        let (summary, path) = write_publications("standalone", 2);
        let dir = path.parent().unwrap();
        let mut elements = 0u64;
        for entry in &summary.manifest.shards {
            let reader = IndexReader::open(&dir.join(&entry.file_name)).unwrap();
            assert_eq!(reader.element_count(), entry.element_count);
            assert_eq!(reader.keyword_count(), entry.keyword_count);
            reader.verify().unwrap();
            elements += reader.element_count();
        }
        assert_eq!(elements, summary.manifest.total_elements);
    }

    #[test]
    fn corrupted_manifest_is_rejected_typed() {
        let (_, path) = write_publications("corrupt", 2);
        let clean = std::fs::read(&path).unwrap();

        // Any single byte flip must be caught (magic, version, or CRC).
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x20;
            let err = ShardManifest::decode(&bytes).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::BadMagic { .. }
                        | PersistError::UnsupportedVersion { .. }
                        | PersistError::ChecksumMismatch { .. }
                        | PersistError::Truncated { .. }
                        | PersistError::Corrupt { .. }
                ),
                "flip at {i} slipped through: {err}"
            );
        }

        // Truncation.
        assert!(matches!(
            ShardManifest::decode(&clean[..clean.len() - 3]),
            Err(PersistError::ChecksumMismatch { .. } | PersistError::Truncated { .. })
        ));

        // A re-sealed manifest with a broken topology is still typed.
        let (summary, _) = write_publications("corrupt-topo", 2);
        let mut manifest = summary.manifest.clone();
        manifest.shards[1].first_doc = 0;
        assert!(matches!(
            ShardManifest::decode(&manifest.encode()),
            Err(PersistError::Corrupt { .. })
        ));
        let mut manifest = summary.manifest.clone();
        manifest.total_elements += 1;
        assert!(matches!(
            ShardManifest::decode(&manifest.encode()),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn missing_shard_file_fails_open() {
        let (summary, path) = write_publications("missing-shard", 2);
        let dir = path.parent().unwrap().to_owned();
        std::fs::remove_file(dir.join(&summary.manifest.shards[1].file_name)).unwrap();
        assert!(matches!(
            ShardedCorpus::open(&path),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn mismatched_shard_file_fails_open() {
        // Swap shard 1 for a foreign index: the manifest cross-check
        // must reject it even though the file itself is valid.
        let (summary, path) = write_publications("swapped-shard", 2);
        let dir = path.parent().unwrap().to_owned();
        IndexWriter::new()
            .write_tree(
                &xks_xmltree::parse("<r><a>alien</a></r>").unwrap(),
                &dir.join(&summary.manifest.shards[1].file_name),
            )
            .unwrap();
        assert!(matches!(
            ShardedCorpus::open(&path),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn shard_count_clamps_to_documents() {
        let (summary, path) = write_publications("clamped", 64);
        assert!(summary.manifest.shards.len() <= 64);
        let corpus = ShardedCorpus::open(&path).unwrap();
        assert_eq!(corpus.shard_count(), summary.manifest.shards.len());
        // Engine over the clamped set still answers.
        let engine = validrtf::engine::SearchEngine::from_shard_set(corpus.shard_set());
        let response = engine
            .execute(&validrtf::SearchRequest::parse("liu keyword").unwrap())
            .unwrap();
        assert_eq!(response.hits.len(), 2);
    }
}
