//! `MutableCorpus`: a WAL-backed, compactable corpus directory.
//!
//! This is the durable half of the mutable-corpus subsystem (the query
//! semantics — delta, tombstones, anchor-pass filtering — live in
//! `validrtf`'s [`MutableSource`]). A corpus is one directory:
//!
//! ```text
//! corpus.xksm              sealed base: shard manifest   (absent when fresh)
//! corpus-g<G>-shard<NNN>.xks  sealed base: shard files, generation G
//! corpus.wal               write-ahead log of every op since the seal
//! ```
//!
//! **Write path.** An insert or delete is parsed/validated, framed into
//! the WAL, fsynced, and only then applied to the in-memory delta — the
//! operation is acknowledged exactly when it is durable. **Recovery**
//! re-opens the base, repairs a torn WAL tail, and replays the clean
//! record prefix into a fresh delta. **Compaction** seals base + delta
//! into a new generation of `.xks` shards (each fsynced), swaps the
//! manifest atomically (temp file + rename, manifest written *last*),
//! and resets the WAL bound to the new manifest's CRC.
//!
//! The manifest-CRC binding closes the one crash window rename-ordering
//! alone leaves open: a crash *between* the manifest swap and the WAL
//! reset leaves a new manifest next to an old WAL whose records are all
//! already sealed inside it. The WAL header stores a fingerprint of the
//! manifest it was opened against, so recovery detects the mismatch and
//! discards the stale log instead of replaying documents twice. Every
//! crash point therefore recovers to exactly the pre-op or the post-op
//! corpus — the invariant `tests/crash_matrix.rs` enumerates and
//! `docs/DURABILITY.md` walks through.
//!
//! All write/fsync/rename boundaries go through an [`Injector`]
//! ([`crate::fault`]), which is how the crash matrix drives them.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use validrtf::mutable::{MutableSource, MutationError};
use validrtf::source::CorpusSource;
use xks_obs::{global, Counter, Histogram};
use xks_store::{partition, ElementRow, ShreddedDoc, ValueRow, WordSource};

use crate::codec::crc32;
use crate::error::PersistError;
use crate::fault::{fault_rename, fault_sync_dir, FaultFile, Injector};
use crate::shard::{ShardEntry, ShardManifest, ShardedCorpus};
use crate::wal::{Wal, WalRecord, NO_MANIFEST_CRC};
use crate::writer::IndexWriter;

/// File stem shared by everything in a corpus directory.
pub const CORPUS_STEM: &str = "corpus";

/// The fingerprint of a manifest's bytes, stored in the WAL header to
/// detect a log left behind by an interrupted compaction.
///
/// This must NOT be the CRC-32 of the whole file: the manifest ends
/// with its own CRC-32 trailer, and a CRC over data-plus-trailer is the
/// fixed residue `0x2144_DF1C` for *every* valid manifest — a whole-file
/// CRC would match any manifest and the staleness check would be
/// vacuous (the crash matrix caught exactly this). Hashing the content
/// region, excluding the trailer, restores a content-dependent value.
fn manifest_fingerprint(manifest_bytes: &[u8]) -> u32 {
    let content_len = manifest_bytes.len().saturating_sub(4);
    crc32(&manifest_bytes[..content_len])
}

/// Everything that can go wrong operating a mutable corpus.
#[derive(Debug)]
pub enum MutableError {
    /// The durable layer failed: I/O, torn files, corruption.
    Persist(PersistError),
    /// The logical mutation was invalid (bad XML, unknown ordinal).
    Mutation(MutationError),
}

impl std::fmt::Display for MutableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutableError::Persist(e) => write!(f, "{e}"),
            MutableError::Mutation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MutableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutableError::Persist(e) => Some(e),
            MutableError::Mutation(e) => Some(e),
        }
    }
}

impl From<PersistError> for MutableError {
    fn from(e: PersistError) -> Self {
        MutableError::Persist(e)
    }
}

impl From<MutationError> for MutableError {
    fn from(e: MutationError) -> Self {
        MutableError::Mutation(e)
    }
}

impl From<std::io::Error> for MutableError {
    fn from(e: std::io::Error) -> Self {
        MutableError::Persist(e.into())
    }
}

/// Registers every durability metric with the global registry so a
/// snapshot of a healthy process exports explicit zeros — "no WAL
/// appends" and "not instrumented" must look different. Idempotent;
/// called by every [`MutableCorpus`] constructor and by `xks stats`.
pub fn preregister_durability_metrics() {
    let g = global();
    g.counter("wal.appends");
    g.counter("wal.fsyncs");
    g.counter("recovery.records_replayed");
    g.counter("recovery.tail_truncated");
    g.counter("recovery.stale_wal_discarded");
    g.counter("compaction.runs");
    g.counter("compaction.docs_sealed");
    g.histogram("compaction.duration_ns");
}

struct CompactionMetrics {
    runs: Counter,
    docs_sealed: Counter,
    duration_ns: Histogram,
    stale_discarded: Counter,
}

fn compaction_metrics() -> &'static CompactionMetrics {
    use std::sync::OnceLock;
    static CELL: OnceLock<CompactionMetrics> = OnceLock::new();
    CELL.get_or_init(|| CompactionMetrics {
        runs: global().counter("compaction.runs"),
        docs_sealed: global().counter("compaction.docs_sealed"),
        duration_ns: global().histogram("compaction.duration_ns"),
        stale_discarded: global().counter("recovery.stale_wal_discarded"),
    })
}

/// What one compaction run sealed.
#[derive(Debug, Clone)]
pub struct CompactionSummary {
    /// Shard-file generation this run wrote.
    pub generation: u32,
    /// Shards in the new base.
    pub shard_count: usize,
    /// Live top-level documents sealed into it.
    pub sealed_docs: u64,
    /// Element rows across the new shards.
    pub total_elements: u64,
    /// Where the manifest lives.
    pub manifest_path: PathBuf,
}

/// An open mutable corpus — see the module docs for the write path,
/// recovery, and compaction.
#[derive(Debug)]
pub struct MutableCorpus {
    dir: PathBuf,
    injector: Injector,
    source: Arc<MutableSource>,
    base: Option<Arc<ShardedCorpus>>,
    wal: Wal,
    /// Set when a compaction failed after its point of no return (the
    /// manifest rename): the on-disk corpus is already post-op while
    /// this handle still serves pre-op, so further writes through it
    /// could be silently discarded by the next recovery. Reopen.
    poisoned: bool,
}

impl MutableCorpus {
    fn manifest_path(dir: &Path) -> PathBuf {
        dir.join(format!("{CORPUS_STEM}.xksm"))
    }

    fn wal_path(dir: &Path) -> PathBuf {
        dir.join(format!("{CORPUS_STEM}.wal"))
    }

    /// True when `dir` already holds a corpus (a WAL or a manifest) —
    /// the open-vs-create dispatch the CLI uses.
    #[must_use]
    pub fn exists(dir: &Path) -> bool {
        Self::wal_path(dir).exists() || Self::manifest_path(dir).exists()
    }

    /// Creates a fresh corpus in `dir` (created if missing) whose root
    /// element is `<root_label/>`. Fails if a corpus already lives
    /// there.
    pub fn create(dir: &Path, root_label: &str) -> Result<Self, MutableError> {
        Self::create_with(dir, root_label, Injector::none())
    }

    /// [`MutableCorpus::create`] with an explicit fault [`Injector`].
    pub fn create_with(
        dir: &Path,
        root_label: &str,
        injector: Injector,
    ) -> Result<Self, MutableError> {
        preregister_durability_metrics();
        std::fs::create_dir_all(dir)?;
        let wal_path = Self::wal_path(dir);
        if wal_path.exists() || Self::manifest_path(dir).exists() {
            return Err(PersistError::Corrupt {
                what: format!("a corpus already exists in {}", dir.display()),
            }
            .into());
        }
        let source = Arc::new(MutableSource::create(root_label)?);
        let mut wal = Wal::create(&wal_path, NO_MANIFEST_CRC, injector.clone())?;
        wal.append(&WalRecord::Init {
            root_label: root_label.to_owned(),
        })?;
        Ok(MutableCorpus {
            dir: dir.to_owned(),
            injector,
            source,
            base: None,
            wal,
            poisoned: false,
        })
    }

    /// Opens (and recovers) the corpus in `dir`: open the sealed base
    /// if a manifest exists, repair the WAL's torn tail, discard the
    /// WAL entirely when it predates the manifest, replay the rest into
    /// a fresh delta, and sweep shard files no manifest references.
    pub fn open(dir: &Path) -> Result<Self, MutableError> {
        Self::open_with(dir, Injector::none())
    }

    /// [`MutableCorpus::open`] with an explicit fault [`Injector`].
    pub fn open_with(dir: &Path, injector: Injector) -> Result<Self, MutableError> {
        preregister_durability_metrics();
        let wal_path = Self::wal_path(dir);
        let manifest_path = Self::manifest_path(dir);
        let (mut wal, mut scan) = Wal::open(&wal_path, injector.clone())?;

        let base = if manifest_path.exists() {
            let manifest_bytes = std::fs::read(&manifest_path)?;
            let manifest_crc = manifest_fingerprint(&manifest_bytes);
            if scan.base_crc != manifest_crc {
                // The WAL predates the manifest: a crash hit between a
                // compaction's manifest swap and its WAL reset. Every
                // record is already sealed in the shards — replaying
                // would double-apply, so the stale log is discarded.
                drop(wal);
                wal = Wal::reset(&wal_path, manifest_crc, injector.clone())?;
                scan.records.clear();
                compaction_metrics().stale_discarded.inc();
            }
            Some(Arc::new(ShardedCorpus::open(&manifest_path)?))
        } else {
            None
        };

        let mut records = scan.records.into_iter();
        let source = match &base {
            Some(base) => {
                let labels = base.readers()[0].labels().to_vec();
                // Next ordinal = one past the highest ordinal the base
                // still holds. `first_doc + doc_count` would be wrong:
                // doc_count counts *surviving* documents, so a hole
                // (deleted ordinal) compacted away in the middle would
                // shrink it below the real maximum and a reopened
                // corpus would re-issue a live ordinal. Element rows
                // are document-ordered, so the last row of the last
                // shard belongs to the highest ordinal (a one-component
                // dewey there means a root-only corpus). Trailing
                // tombstoned ordinals leave no trace after compaction
                // and may be reused — middle holes persist.
                let reader = base.readers().last().expect("≥1 shard");
                let last_row = reader.element_record(reader.element_count() - 1)?;
                let next_doc = match last_row.dewey.components() {
                    [_, ordinal, ..] => ordinal + 1,
                    _ => 0,
                };
                let base = Arc::clone(base) as Arc<dyn CorpusSource>;
                let source = MutableSource::from_base(base, labels, next_doc);
                Arc::new(source.map_err(MutationError::from)?)
            }
            None => match records.next() {
                Some(WalRecord::Init { root_label }) => {
                    Arc::new(MutableSource::create(&root_label)?)
                }
                Some(other) => {
                    return Err(PersistError::Corrupt {
                        what: format!(
                            "WAL of an unsealed corpus must start with Init, found {other:?}"
                        ),
                    }
                    .into())
                }
                None => {
                    return Err(PersistError::Corrupt {
                        what: "corpus creation never completed (empty WAL, no manifest)".to_owned(),
                    }
                    .into())
                }
            },
        };
        for record in records {
            match record {
                WalRecord::Init { .. } => {
                    return Err(PersistError::Corrupt {
                        what: "unexpected second Init record in WAL".to_owned(),
                    }
                    .into())
                }
                WalRecord::Insert { ordinal, xml } => source.apply_insert(ordinal, &xml)?,
                WalRecord::Delete { ordinal } => source.delete(ordinal)?,
            }
        }

        let referenced: HashSet<String> = base
            .as_ref()
            .map(|b| {
                b.manifest()
                    .shards
                    .iter()
                    .map(|s| s.file_name.clone())
                    .collect()
            })
            .unwrap_or_default();
        sweep_unreferenced(dir, &referenced);

        Ok(MutableCorpus {
            dir: dir.to_owned(),
            injector,
            source,
            base,
            wal,
            poisoned: false,
        })
    }

    /// The query-side source — share it with a
    /// [`validrtf::engine::SearchEngine`] via `from_source`.
    #[must_use]
    pub fn source(&self) -> Arc<MutableSource> {
        Arc::clone(&self.source)
    }

    /// The sealed base, when one exists.
    #[must_use]
    pub fn base(&self) -> Option<&Arc<ShardedCorpus>> {
        self.base.as_ref()
    }

    /// The corpus directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes of clean, durable WAL.
    #[must_use]
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    fn ensure_usable(&self) -> Result<(), MutableError> {
        if self.poisoned {
            return Err(PersistError::Corrupt {
                what: "corpus handle poisoned by a failed compaction — reopen to recover"
                    .to_owned(),
            }
            .into());
        }
        Ok(())
    }

    /// Inserts one document (XML text), returning its ordinal. The
    /// document is durable in the WAL before this returns.
    pub fn insert_xml(&mut self, xml: &str) -> Result<u32, MutableError> {
        self.ensure_usable()?;
        // Validate before logging: garbage must never reach the WAL.
        xks_xmltree::parse(xml).map_err(MutationError::Xml)?;
        let ordinal = self.source.next_ordinal();
        self.wal.append(&WalRecord::Insert {
            ordinal,
            xml: xml.to_owned(),
        })?;
        self.source.apply_insert(ordinal, xml)?;
        Ok(ordinal)
    }

    /// Deletes document `ordinal`. The tombstone is durable in the WAL
    /// before this returns.
    pub fn delete(&mut self, ordinal: u32) -> Result<(), MutableError> {
        self.ensure_usable()?;
        if !self
            .source
            .try_exists(ordinal)
            .map_err(MutationError::from)?
        {
            return Err(MutationError::UnknownDocument(ordinal).into());
        }
        self.wal.append(&WalRecord::Delete { ordinal })?;
        self.source.delete(ordinal)?;
        Ok(())
    }

    /// Next shard generation: one past the highest generation the
    /// current manifest references (`-g<N>-` in a shard file name;
    /// generation-less names from `build-index` count as 0).
    fn next_generation(&self) -> u32 {
        self.base
            .as_ref()
            .and_then(|b| {
                b.manifest()
                    .shards
                    .iter()
                    .map(|s| parse_generation(&s.file_name))
                    .max()
            })
            .map_or(1, |g| g + 1)
    }

    /// Seals base + live delta into a new generation of `.xks` shards,
    /// swaps the manifest atomically, and resets the WAL. On success
    /// the delta and tombstones are empty and the WAL holds no records;
    /// ordinals are **not** renumbered (deleted documents stay holes).
    ///
    /// Failure before the manifest rename leaves the corpus untouched
    /// (new-generation files are cleaned up or swept at the next open).
    /// Failure after it poisons this handle — the directory is already
    /// post-op; reopen to continue.
    pub fn compact(&mut self, shards: usize) -> Result<CompactionSummary, MutableError> {
        self.ensure_usable()?;
        let started = Instant::now();
        let doc = self.merged_tables()?;
        let generation = self.next_generation();
        let parts = partition(&doc, shards.max(1));
        let manifest_path = Self::manifest_path(&self.dir);
        let writer = IndexWriter::new();

        // Phase 1: write + fsync every new shard. These files are not
        // referenced by any manifest yet, so any failure here (or a
        // crash) leaves the corpus untouched.
        let mut entries = Vec::with_capacity(parts.len());
        let mut written: Vec<PathBuf> = Vec::new();
        let mut phase1 = || -> Result<(), MutableError> {
            for (i, part) in parts.iter().enumerate() {
                let file_name = format!("{CORPUS_STEM}-g{generation}-shard{i:03}.xks");
                let path = self.dir.join(&file_name);
                self.injector
                    .check(&format!("compact.shard{i}.write"))
                    .map_err(PersistError::from)?;
                let summary = writer.write(&part.doc, &path)?;
                written.push(path.clone());
                self.injector
                    .check(&format!("compact.shard{i}.fsync"))
                    .map_err(PersistError::from)?;
                std::fs::File::open(&path)?.sync_data()?;
                entries.push(ShardEntry {
                    file_name,
                    first_doc: part.first_doc,
                    doc_count: part.doc_count,
                    element_count: summary.element_count,
                    keyword_count: summary.keyword_count,
                    file_len: summary.file_len,
                    postings_total: part.doc.postings().values().map(|d| d.len() as u64).sum(),
                    keyword_filter: Some(validrtf::plan::KeywordFilter::from_keywords(
                        part.doc.postings().keys().map(String::as_str),
                    )),
                });
            }
            Ok(())
        };
        let manifest_bytes = match phase1() {
            Ok(()) => ShardManifest {
                total_elements: doc.element_count() as u64,
                total_keywords: doc.postings().len() as u64,
                label_count: doc.labels.len() as u64,
                shards: entries,
            }
            .encode(),
            Err(e) => {
                remove_best_effort(&written);
                return Err(e);
            }
        };

        // Phase 2: manifest to a temp file, fsynced. Still invisible.
        let tmp = manifest_path.with_file_name(format!("{CORPUS_STEM}.xksm.tmp"));
        let phase2 = (|| -> Result<(), MutableError> {
            let mut file = FaultFile::create(&tmp, self.injector.clone(), "compact.manifest")?;
            file.write_all(&manifest_bytes)?;
            file.sync_data()?;
            Ok(())
        })();
        if let Err(e) = phase2 {
            remove_best_effort(&written);
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }

        // Phase 3: the commit point. `fault_rename` consults the
        // injector *before* renaming and `rename(2)` is atomic, so a
        // failure here means the swap did not happen.
        if let Err(e) = fault_rename(
            &self.injector,
            "compact.manifest.rename",
            &tmp,
            &manifest_path,
        ) {
            remove_best_effort(&written);
            let _ = std::fs::remove_file(&tmp);
            return Err(PersistError::from(e).into());
        }

        // Phase 4: past the point of no return — the directory is
        // post-op. Any failure now poisons the handle (recovery at the
        // next open discards the now-stale WAL and lands post-op).
        let phase4 = (|| -> Result<(Wal, Arc<ShardedCorpus>), MutableError> {
            fault_sync_dir(&self.injector, "compact.manifest.dirsync", &manifest_path)
                .map_err(PersistError::from)?;
            let wal = Wal::reset(
                &Self::wal_path(&self.dir),
                manifest_fingerprint(&manifest_bytes),
                self.injector.clone(),
            )?;
            let base = Arc::new(ShardedCorpus::open(&manifest_path)?);
            let labels = base.readers()[0].labels().to_vec();
            self.source
                .swap_base(Arc::clone(&base) as Arc<dyn CorpusSource>, labels)
                .map_err(MutationError::from)?;
            Ok((wal, base))
        })();
        let (wal, base) = match phase4 {
            Ok(pair) => pair,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };

        let old_names: Vec<PathBuf> = self
            .base
            .as_ref()
            .map(|b| {
                b.manifest()
                    .shards
                    .iter()
                    .map(|s| self.dir.join(&s.file_name))
                    .collect()
            })
            .unwrap_or_default();
        self.base = Some(Arc::clone(&base));
        self.wal = wal;
        remove_best_effort(&old_names);

        let sealed_docs: u64 = base.manifest().shards.iter().map(|s| s.doc_count).sum();
        let metrics = compaction_metrics();
        metrics.runs.inc();
        metrics.docs_sealed.add(sealed_docs);
        metrics
            .duration_ns
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Ok(CompactionSummary {
            generation,
            shard_count: base.shard_count(),
            sealed_docs,
            total_elements: base.manifest().total_elements,
            manifest_path,
        })
    }

    /// Materializes the full live corpus (base minus tombstones, plus
    /// live delta) as one set of shredded tables — compaction's input.
    fn merged_tables(&self) -> Result<ShreddedDoc, MutableError> {
        let labels = self.source.labels_snapshot();
        let tombstones: BTreeSet<u32> = self.source.tombstones().into_iter().collect();
        let mut elements = Vec::new();
        let mut values = Vec::new();
        if let Some(base) = &self.base {
            export_base_rows(base, &tombstones, &mut elements, &mut values)?;
        }
        let (delta_rows, delta_values) = self.source.export_delta_rows();
        elements.extend(delta_rows);
        values.extend(delta_values);
        let mut doc = ShreddedDoc::from_tables(labels, elements, values);
        doc.rebuild_indexes();
        Ok(doc)
    }
}

impl xks_obs::MetricSource for MutableCorpus {
    /// Contributes the mutable-layer gauges plus (under
    /// `<prefix>base.`) the full sealed-base shard counters.
    fn collect_into(&self, prefix: &str, snap: &mut xks_obs::Snapshot) {
        snap.gauge(format!("{prefix}wal_len"), self.wal.len());
        snap.gauge(
            format!("{prefix}delta_docs"),
            self.source.delta_doc_count() as u64,
        );
        snap.gauge(
            format!("{prefix}tombstones"),
            self.source.tombstone_count() as u64,
        );
        snap.gauge(
            format!("{prefix}next_ordinal"),
            u64::from(self.source.next_ordinal()),
        );
        if let Some(base) = &self.base {
            base.collect_into(&format!("{prefix}base."), snap);
        }
    }
}

/// Re-derives a sealed base's element and value rows by enumerating its
/// readers, dropping every row inside a tombstoned document.
///
/// Value rows are synthesized from the inverted index — one `(keyword,
/// dewey)` row per posting, [`WordSource::Text`] as the provenance (the
/// index does not store word provenance; nothing downstream reads it).
/// That reproduces the posting lists exactly (postings are the
/// deduplicated value rows); own-content features are copied from the
/// stored rows, not re-derived.
fn export_base_rows(
    base: &ShardedCorpus,
    tombstones: &BTreeSet<u32>,
    elements: &mut Vec<ElementRow>,
    values: &mut Vec<ValueRow>,
) -> Result<(), PersistError> {
    let dead = |components: &[u32]| components.len() >= 2 && tombstones.contains(&components[1]);
    for reader in base.readers() {
        let mut label_of: HashMap<String, u32> = HashMap::new();
        for idx in 0..reader.element_count() {
            let rec = reader.element_record(idx)?;
            if dead(rec.dewey.components()) {
                continue;
            }
            let dewey = rec.dewey.to_string();
            label_of.insert(dewey.clone(), rec.label);
            elements.push(ElementRow {
                label: rec.label,
                dewey,
                level: rec.level,
                label_path: rec.label_path,
                content_feature: rec.subtree_cid,
                own_feature: rec.own_cid,
            });
        }
        for idx in 0..reader.keyword_count() {
            let (keyword, deweys) = reader.keyword_at(idx)?;
            for d in deweys {
                if dead(d.components()) {
                    continue;
                }
                let dewey = d.to_string();
                let label = label_of.get(&dewey).copied().unwrap_or(0);
                values.push(ValueRow {
                    label,
                    dewey,
                    source: WordSource::Text,
                    keyword: keyword.clone(),
                });
            }
        }
    }
    Ok(())
}

/// `corpus-g3-shard000.xks` → 3; generation-less names → 0.
fn parse_generation(name: &str) -> u32 {
    name.find("-g")
        .and_then(|i| {
            let rest = &name[i + 2..];
            rest[..rest.find('-')?].parse().ok()
        })
        .unwrap_or(0)
}

/// Removes every shard-pattern or temp file in `dir` that `referenced`
/// does not name — the open-time sweep that collects debris from
/// crashed compactions. Best-effort: a sweep failure never blocks an
/// open.
fn sweep_unreferenced(dir: &Path, referenced: &HashSet<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let stray_shard = name.starts_with(&format!("{CORPUS_STEM}-"))
            && name.contains("-shard")
            && name.ends_with(".xks")
            && !referenced.contains(&name);
        let stray_tmp = name.starts_with(&format!("{CORPUS_STEM}.")) && name.ends_with(".tmp");
        if stray_shard || stray_tmp {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn remove_best_effort(paths: &[PathBuf]) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validrtf::engine::SearchEngine;
    use validrtf::SearchRequest;

    fn temp_corpus(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("xks-mutable-test").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn hits(source: Arc<MutableSource>, query: &str) -> usize {
        let engine = SearchEngine::from_source(source as Arc<dyn CorpusSource>);
        engine
            .execute(&SearchRequest::parse(query).unwrap())
            .unwrap()
            .hits
            .len()
    }

    #[test]
    fn create_insert_reopen_replays() {
        let dir = temp_corpus("replay");
        {
            let mut corpus = MutableCorpus::create(&dir, "pubs").unwrap();
            corpus
                .insert_xml("<paper><title>xml keyword search</title></paper>")
                .unwrap();
            corpus
                .insert_xml("<paper><title>skyline keyword</title></paper>")
                .unwrap();
            corpus.delete(1).unwrap();
            assert_eq!(hits(corpus.source(), "keyword"), 1);
        }
        let corpus = MutableCorpus::open(&dir).unwrap();
        assert_eq!(corpus.source().next_ordinal(), 2);
        assert_eq!(corpus.source().tombstone_count(), 1);
        assert_eq!(hits(corpus.source(), "keyword"), 1);
        assert_eq!(hits(corpus.source(), "skyline"), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_seals_delta_and_resets_wal() {
        let dir = temp_corpus("compact");
        let mut corpus = MutableCorpus::create(&dir, "pubs").unwrap();
        for i in 0..6 {
            corpus
                .insert_xml(&format!(
                    "<paper><title>paper number{i} xml</title></paper>"
                ))
                .unwrap();
        }
        corpus.delete(2).unwrap();
        let wal_before = corpus.wal_len();
        let summary = corpus.compact(2).unwrap();
        assert_eq!(summary.generation, 1);
        assert_eq!(summary.shard_count, 2);
        assert_eq!(summary.sealed_docs, 5, "the tombstoned doc is gone");
        assert!(corpus.wal_len() < wal_before, "WAL reset to empty");
        assert_eq!(corpus.source().delta_doc_count(), 0);
        assert_eq!(corpus.source().tombstone_count(), 0);
        // Query results survive the seal; the hole stays a hole.
        assert_eq!(hits(corpus.source(), "xml"), 5);
        assert_eq!(hits(corpus.source(), "number2"), 0);
        assert_eq!(corpus.source().next_ordinal(), 6);
        // Mutations continue against the sealed base.
        let ord = corpus
            .insert_xml("<paper><title>post compaction xml</title></paper>")
            .unwrap();
        assert_eq!(ord, 6);
        assert_eq!(hits(corpus.source(), "xml"), 6);
        // A second compaction bumps the generation and replaces files.
        let summary2 = corpus.compact(2).unwrap();
        assert_eq!(summary2.generation, 2);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().all(|n| !n.contains("-g1-")), "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_compact_uses_the_base() {
        let dir = temp_corpus("reopen-base");
        {
            let mut corpus = MutableCorpus::create(&dir, "pubs").unwrap();
            corpus
                .insert_xml("<paper><title>xml keyword</title></paper>")
                .unwrap();
            corpus.compact(1).unwrap();
            corpus
                .insert_xml("<paper><title>delta keyword</title></paper>")
                .unwrap();
        }
        let corpus = MutableCorpus::open(&dir).unwrap();
        assert!(corpus.base().is_some());
        assert_eq!(
            corpus.source().delta_doc_count(),
            1,
            "only the delta replays"
        );
        assert_eq!(hits(corpus.source(), "keyword"), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_compacted_middle_hole_never_reissues_a_live_ordinal() {
        let dir = temp_corpus("middle-hole");
        {
            let mut corpus = MutableCorpus::create(&dir, "pubs").unwrap();
            for i in 0..3 {
                corpus
                    .insert_xml(&format!("<paper><title>doc number{i}</title></paper>"))
                    .unwrap();
            }
            corpus.delete(1).unwrap();
            corpus.compact(1).unwrap(); // base holds ordinals {0, 2}
        }
        let mut corpus = MutableCorpus::open(&dir).unwrap();
        assert_eq!(
            corpus.source().next_ordinal(),
            3,
            "first_doc + doc_count would say 2, colliding with the live doc 2"
        );
        let ord = corpus
            .insert_xml("<paper><title>doc number3</title></paper>")
            .unwrap();
        assert_eq!(ord, 3);
        assert_eq!(hits(corpus.source(), "number2"), 1, "doc 2 untouched");
        assert_eq!(hits(corpus.source(), "number3"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_wal_from_interrupted_compaction_is_discarded() {
        // Reconstruct the exact crash window: manifest swapped, WAL not
        // yet reset. The old log's records are all sealed in the new
        // base, so recovery must discard it rather than replay.
        let dir = temp_corpus("stale-wal");
        let mut corpus = MutableCorpus::create(&dir, "pubs").unwrap();
        for i in 0..3 {
            corpus
                .insert_xml(&format!("<paper><title>doc number{i}</title></paper>"))
                .unwrap();
        }
        let stale_wal = std::fs::read(MutableCorpus::wal_path(&dir)).unwrap();
        corpus.compact(1).unwrap();
        drop(corpus);
        // Crash simulation: the pre-compaction WAL reappears next to
        // the new manifest.
        std::fs::write(MutableCorpus::wal_path(&dir), &stale_wal).unwrap();

        let corpus = MutableCorpus::open(&dir).unwrap();
        assert_eq!(corpus.source().delta_doc_count(), 0, "stale log replayed");
        assert_eq!(corpus.source().next_ordinal(), 3);
        assert_eq!(hits(corpus.source(), "number1"), 1, "each doc exactly once");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_fingerprint_sees_through_the_crc_residue() {
        // A whole-file CRC of any self-checksummed manifest collapses
        // to the fixed residue 0x2144_DF1C — useless as a fingerprint.
        let a = ShardManifest {
            total_elements: 10,
            total_keywords: 4,
            label_count: 2,
            shards: vec![],
        }
        .encode();
        let b = ShardManifest {
            total_elements: 11,
            total_keywords: 4,
            label_count: 2,
            shards: vec![],
        }
        .encode();
        assert_eq!(crc32(&a), crc32(&b), "whole-file CRC cannot distinguish");
        assert_eq!(crc32(&a), 0x2144_DF1C);
        assert_ne!(manifest_fingerprint(&a), manifest_fingerprint(&b));
    }

    #[test]
    fn double_create_is_rejected() {
        let dir = temp_corpus("double-create");
        let _first = MutableCorpus::create(&dir, "pubs").unwrap();
        assert!(matches!(
            MutableCorpus::create(&dir, "pubs"),
            Err(MutableError::Persist(PersistError::Corrupt { .. }))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_parsing() {
        assert_eq!(parse_generation("corpus-g3-shard000.xks"), 3);
        assert_eq!(parse_generation("corpus-g12-shard001.xks"), 12);
        assert_eq!(parse_generation("corpus-shard000.xks"), 0);
    }
}
