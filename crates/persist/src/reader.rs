//! Opening and querying `.xks` index files.
//!
//! [`IndexReader::open`] validates the header, then reads sections 0–4
//! — labels, element offsets, element rows, keyword offsets, keyword
//! dictionary — whole, one read each, and checks every one against its
//! CRC. Sections 1–4 stay resident as immutable buffers: an element
//! lookup is a finger search over the row offsets that compares Dewey
//! components in place, and a keyword lookup binary-searches the
//! dictionary the same way. Only the postings stay on disk, paged
//! through the LRU [`BufferPool`] as lookups demand — a keyword lookup
//! reads exactly the pages its posting run spans, and the pool counters
//! in [`IndexReader::stats`] make that laziness observable.
//!
//! Every row, dictionary, label and postings decode reads through
//! [`ByteReader`], and the module denies the lints that would let one
//! panic.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use std::cmp::Ordering as Cmp;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use validrtf::fragment::{shared_cid, Cid};
use validrtf::plan::KeywordStats;
use validrtf::source::{CorpusSource, SourceElement, SourceError};
use xks_xmltree::{Dewey, DeweyListBuf};

use crate::codec::{crc32, ByteReader, Crc32};
use crate::error::PersistError;
use crate::format::{Header, Section, HEADER_LEN};
use crate::pool::{lock_unpoisoned, BufferPool, PoolStats};

/// Buffer-pool capacity of every reader, in pages (clamped to ≥ 8).
const POOL_PAGES: usize = 256;

/// Capacity of every reader's decoded-postings LRU cache, in keywords.
/// A hit skips the pool reads *and* the varint decode for the
/// keyword's whole posting run.
const POSTINGS_CACHE_KEYWORDS: usize = 64;

/// A tiny LRU keyed by keyword, holding decoded posting runs as shared
/// flat arenas. Capacities are small (tens of entries), so eviction is
/// an O(n) scan — no intrusive list needed.
///
/// Thread-safe: slots sit behind one `Mutex` (critical sections are a
/// short scan — the expensive decode happens outside, and a racing
/// double-decode just inserts twice, last write wins); counters are
/// relaxed atomics.
#[derive(Debug)]
struct PostingsCache {
    capacity: usize,
    tick: AtomicU64,
    slots: Mutex<Vec<CacheSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug)]
struct CacheSlot {
    keyword: String,
    postings: Arc<DeweyListBuf>,
    last_used: u64,
}

impl PostingsCache {
    fn new(capacity: usize) -> Self {
        PostingsCache {
            capacity,
            tick: AtomicU64::new(0),
            slots: Mutex::new(Vec::with_capacity(capacity.min(64))),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn bump(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn len(&self) -> usize {
        lock_unpoisoned(&self.slots).len()
    }

    fn get(&self, keyword: &str) -> Option<Arc<DeweyListBuf>> {
        let tick = self.bump();
        let mut slots = lock_unpoisoned(&self.slots);
        if let Some(slot) = slots.iter_mut().find(|s| s.keyword == keyword) {
            slot.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(&slot.postings));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn insert(&self, keyword: &str, postings: Arc<DeweyListBuf>) {
        let last_used = self.bump();
        let slot = CacheSlot {
            keyword: keyword.to_owned(),
            postings,
            last_used,
        };
        let mut slots = lock_unpoisoned(&self.slots);
        if let Some(existing) = slots.iter_mut().find(|s| s.keyword == slot.keyword) {
            *existing = slot;
            return;
        }
        if slots.len() < self.capacity {
            slots.push(slot);
        } else if let Some(lru) = slots.iter_mut().min_by_key(|s| s.last_used) {
            *lru = slot;
        }
    }
}

/// A decoded element-table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementRecord {
    /// The node's Dewey code.
    pub dewey: Dewey,
    /// Label id into the label dictionary.
    pub label: u32,
    /// Depth (root = 0).
    pub level: u32,
    /// Label ids along the root path (the paper's label number
    /// sequence).
    pub label_path: Vec<u32>,
    /// `(min, max)` of the subtree content (the `element` table's cID).
    pub subtree_cid: Option<(String, String)>,
    /// `(min, max)` of the node's own content `Cv`.
    pub own_cid: Option<(String, String)>,
}

/// Aggregate facts about an open index, including live pool counters.
///
/// The `element_cache_*` fields describe the feature memo: one slot per
/// element row, filled by the first keyword-node lookup of that row and
/// never evicted.
#[derive(Debug, Clone, Copy)]
pub struct IndexStats {
    /// Total file length.
    pub file_len: u64,
    /// Page size from the header.
    pub page_size: u32,
    /// Element rows.
    pub element_count: u64,
    /// Distinct keywords.
    pub keyword_count: u64,
    /// Labels in the dictionary.
    pub label_count: u64,
    /// Bytes of the postings section.
    pub postings_len: u64,
    /// Pages the postings section spans.
    pub postings_pages: u64,
    /// Buffer-pool counters (postings reads only: every other section
    /// is resident from open).
    pub pool: PoolStats,
    /// Keywords currently resident in the decoded-postings cache.
    pub postings_cache_entries: usize,
    /// Keyword lookups served from the decoded-postings cache.
    pub postings_cache_hits: u64,
    /// Keyword lookups that had to decode from pages.
    pub postings_cache_misses: u64,
    /// Feature-memo slots filled so far.
    pub element_cache_entries: usize,
    /// Keyword-node lookups whose feature the memo already held.
    pub element_cache_hits: u64,
    /// Keyword-node lookups that decoded the feature from the row (the
    /// first of each row, plus the losers of a race to be first).
    pub element_cache_misses: u64,
    /// Element rows compared against a lookup's Dewey code, over every
    /// element-table search.
    pub element_probes: u64,
}

impl xks_obs::MetricSource for IndexStats {
    /// Contributes every reader counter to a snapshot under `prefix`:
    /// structural facts as gauges (`<prefix>file_len`,
    /// `<prefix>pool.cached_pages`, ...), traffic as counters
    /// (`<prefix>pool.cache_hits`, `<prefix>postings_cache.misses`,
    /// ...) — one naming scheme shared by monolithic readers
    /// (`index.`) and shards (`index.shard.N.`).
    fn collect_into(&self, prefix: &str, snap: &mut xks_obs::Snapshot) {
        snap.gauge(format!("{prefix}file_len"), self.file_len);
        snap.gauge(format!("{prefix}page_size"), u64::from(self.page_size));
        snap.gauge(format!("{prefix}element_count"), self.element_count);
        snap.gauge(format!("{prefix}keyword_count"), self.keyword_count);
        snap.gauge(format!("{prefix}label_count"), self.label_count);
        snap.gauge(format!("{prefix}postings_len"), self.postings_len);
        snap.gauge(format!("{prefix}postings_pages"), self.postings_pages);
        snap.gauge(
            format!("{prefix}pool.capacity_pages"),
            self.pool.capacity_pages as u64,
        );
        snap.gauge(
            format!("{prefix}pool.cached_pages"),
            self.pool.cached_pages as u64,
        );
        snap.counter(format!("{prefix}pool.pages_read"), self.pool.pages_read);
        snap.counter(format!("{prefix}pool.cache_hits"), self.pool.cache_hits);
        snap.counter(format!("{prefix}pool.cache_misses"), self.pool.cache_misses);
        snap.counter(format!("{prefix}pool.evictions"), self.pool.evictions);
        snap.gauge(
            format!("{prefix}postings_cache.entries"),
            self.postings_cache_entries as u64,
        );
        snap.counter(
            format!("{prefix}postings_cache.hits"),
            self.postings_cache_hits,
        );
        snap.counter(
            format!("{prefix}postings_cache.misses"),
            self.postings_cache_misses,
        );
        snap.gauge(
            format!("{prefix}element_cache.entries"),
            self.element_cache_entries as u64,
        );
        snap.counter(
            format!("{prefix}element_cache.hits"),
            self.element_cache_hits,
        );
        snap.counter(
            format!("{prefix}element_cache.misses"),
            self.element_cache_misses,
        );
        snap.counter(format!("{prefix}element_probes"), self.element_probes);
        // Derived hit-rate ratios, emitted only for caches that saw
        // traffic — an untouched cache has no rate, not a NaN one.
        for (name, hits, misses) in [
            (
                "pool.hit_rate",
                self.pool.cache_hits,
                self.pool.cache_misses,
            ),
            (
                "postings_cache.hit_rate",
                self.postings_cache_hits,
                self.postings_cache_misses,
            ),
            (
                "element_cache.hit_rate",
                self.element_cache_hits,
                self.element_cache_misses,
            ),
        ] {
            let total = hits + misses;
            if total > 0 {
                snap.ratio(format!("{prefix}{name}"), hits as f64 / total as f64);
            }
        }
    }
}

/// The own-content feature of every element row, indexed by row
/// number: what the fragment constructor would otherwise re-decode on
/// each keyword-node lookup. A slot is filled by the first lookup of its
/// row and never evicted, so a lookup takes no lock and hashes nothing.
/// Two first lookups of one row may race: both decode, one result is
/// stored, and the two are equal.
#[derive(Debug)]
struct FeatureMemo {
    slots: Box<[OnceLock<Cid>]>,
    hits: AtomicU64,
    decodes: AtomicU64,
    filled: AtomicU64,
}

impl FeatureMemo {
    fn new(rows: usize) -> Self {
        FeatureMemo {
            slots: std::iter::repeat_with(OnceLock::new).take(rows).collect(),
            hits: AtomicU64::new(0),
            decodes: AtomicU64::new(0),
            filled: AtomicU64::new(0),
        }
    }
}

/// A read-only handle on an `.xks` index file: sections 0–4 resident
/// and CRC-checked from open, postings paged through a buffer pool with
/// a small decoded-postings cache in front, and a by-row memo of
/// keyword-node features.
///
/// `IndexReader` is `Send + Sync`: one opened index can serve many
/// query threads concurrently behind an `Arc` (the resident sections
/// are immutable, the feature memo fills each slot once, the buffer
/// pool is sharded-locked, the postings cache is lock-guarded, and
/// every counter is atomic). See the workspace's `PERFORMANCE.md`
/// "Concurrency model" section for the lock layout.
#[derive(Debug)]
pub struct IndexReader {
    path: PathBuf,
    pool: BufferPool,
    header: Header,
    labels: Vec<String>,
    /// Section 1: one little-endian `u64` row offset per element row.
    element_offsets: Box<[u8]>,
    /// Section 2: the element rows.
    elements: Box<[u8]>,
    /// Section 3: one little-endian `u64` entry offset per keyword.
    keyword_offsets: Box<[u8]>,
    /// Section 4: the keyword dictionary entries.
    keyword_dict: Box<[u8]>,
    postings_cache: PostingsCache,
    features: FeatureMemo,
    /// The search finger: the element row a lookup probes first.
    /// Fragment construction asks for nodes in document order, so the
    /// row after the last one found is usually the answer or next to
    /// it. Any value is a correct start (the search only gets longer),
    /// which is why a relaxed atomic shared by all threads is enough.
    element_finger: AtomicU64,
    element_probes: AtomicU64,
}

impl IndexReader {
    /// Opens an index, validating magic, version, header checksum,
    /// section bounds and the header counts against the offset arrays,
    /// then reading sections 0–4 whole and checking each one's CRC
    /// (`ChecksumMismatch` naming the section). Only the postings are
    /// left for lookups to page in; use [`IndexReader::verify`] to
    /// check them too.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        Self::open_sized(path, POOL_PAGES, POSTINGS_CACHE_KEYWORDS)
    }

    /// [`IndexReader::open`] with the pool and postings-cache
    /// capacities given; unit tests size small caches through it.
    fn open_sized(
        path: &Path,
        pool_pages: usize,
        postings_cache_keywords: usize,
    ) -> Result<Self, PersistError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();

        let mut header_bytes = vec![0u8; HEADER_LEN.min(file_len as usize)];
        file.read_exact(&mut header_bytes)?;
        let header = Header::decode(&header_bytes)?;

        for section in Section::all() {
            let entry = header.section(section);
            if entry
                .offset
                .checked_add(entry.len)
                .is_none_or(|end| end > file_len)
            {
                return Err(PersistError::Truncated {
                    what: section.name(),
                });
            }
        }

        // Offset arrays must agree with the header counts — this also
        // bounds every later `idx * 8` (idx < count <= file_len / 8),
        // so crafted counts cannot overflow or index past the section.
        for (count, section) in [
            (header.element_count, Section::ElementOffsets),
            (header.keyword_count, Section::KeywordOffsets),
        ] {
            let entry = header.section(section);
            if count.checked_mul(8) != Some(entry.len) {
                return Err(PersistError::Corrupt {
                    what: format!(
                        "{} section holds {} bytes but the header count {} needs {}",
                        section.name(),
                        entry.len,
                        count,
                        count.saturating_mul(8),
                    ),
                });
            }
        }

        let mut read = |section| read_section(&mut file, &header, section);
        let labels = decode_labels(&read(Section::Labels)?, header.label_count)?;
        let element_offsets = read(Section::ElementOffsets)?;
        let elements = read(Section::Elements)?;
        let keyword_offsets = read(Section::KeywordOffsets)?;
        let keyword_dict = read(Section::KeywordDict)?;

        let pool = BufferPool::new(file, file_len, header.page_size as usize, pool_pages);
        Ok(IndexReader {
            path: path.to_owned(),
            pool,
            labels,
            element_offsets,
            elements,
            keyword_offsets,
            keyword_dict,
            postings_cache: PostingsCache::new(postings_cache_keywords),
            features: FeatureMemo::new(header.element_count as usize),
            element_finger: AtomicU64::new(0),
            element_probes: AtomicU64::new(0),
            header,
        })
    }

    /// Aggregate stats, including live buffer-pool counters.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        let postings = self.header.section(Section::Postings);
        let page = u64::from(self.header.page_size);
        IndexStats {
            file_len: self.pool.file_len(),
            page_size: self.header.page_size,
            element_count: self.header.element_count,
            keyword_count: self.header.keyword_count,
            label_count: self.header.label_count,
            postings_len: postings.len,
            postings_pages: postings.len.div_ceil(page),
            pool: self.pool.stats(),
            postings_cache_entries: self.postings_cache.len(),
            postings_cache_hits: self.postings_cache.hits.load(Ordering::Relaxed),
            postings_cache_misses: self.postings_cache.misses.load(Ordering::Relaxed),
            element_cache_entries: self.features.filled.load(Ordering::Relaxed) as usize,
            element_cache_hits: self.features.hits.load(Ordering::Relaxed),
            element_cache_misses: self.features.decodes.load(Ordering::Relaxed),
            element_probes: self.element_probes.load(Ordering::Relaxed),
        }
    }

    /// The file this reader was opened from. Informational only — all
    /// reads (including [`IndexReader::verify`]) go through the file
    /// handle opened at [`IndexReader::open`] time, not this path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The label string for an id.
    #[must_use]
    pub fn label(&self, id: u32) -> Option<&str> {
        self.labels.get(id as usize).map(String::as_str)
    }

    /// The whole label dictionary, in id order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of element rows.
    #[must_use]
    pub fn element_count(&self) -> u64 {
        self.header.element_count
    }

    /// Number of distinct keywords.
    #[must_use]
    pub fn keyword_count(&self) -> u64 {
        self.header.keyword_count
    }

    /// The decoded posting run for `keyword` as a shared flat arena
    /// (empty when the keyword is absent). Runs decode into a
    /// [`DeweyListBuf`] — one components vector + offsets instead of
    /// one heap code per posting — and land in a small per-reader LRU,
    /// so repeated keywords skip both the page reads and the
    /// prefix-delta decode.
    pub fn keyword_postings(&self, keyword: &str) -> Result<Arc<DeweyListBuf>, PersistError> {
        if let Some(cached) = self.postings_cache.get(keyword) {
            return Ok(cached);
        }
        let mut buf = DeweyListBuf::new();
        self.keyword_postings_into(keyword, &mut buf)?;
        let decoded = Arc::new(buf);
        self.postings_cache.insert(keyword, Arc::clone(&decoded));
        Ok(decoded)
    }

    /// Sorted Dewey postings for `keyword` (empty when absent), reading
    /// only the pages the lookup touches (and none at all on a postings
    /// cache hit).
    pub fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, PersistError> {
        Ok(self.keyword_postings(keyword)?.to_deweys())
    }

    /// Decodes `keyword`'s posting run directly into a **caller-owned**
    /// arena, bypassing the shared decoded-postings cache entirely
    /// (what [`IndexReader::keyword_postings`] fills that cache with):
    /// a warm arena re-decodes without allocating and without taking
    /// the cache lock, which suits vocabulary-scan workloads whose
    /// keywords would only churn the shared LRU. Returns the number of
    /// codes decoded; `buf` is cleared first.
    pub fn keyword_postings_into(
        &self,
        keyword: &str,
        buf: &mut DeweyListBuf,
    ) -> Result<usize, PersistError> {
        buf.clear();
        if let Some(entry) = self.find_keyword(keyword)? {
            self.decode_run(keyword, &entry, buf)?;
        }
        Ok(buf.len())
    }

    /// Sealed selectivity statistics for `keyword`. On format-v2 files
    /// the document frequency comes straight from the dictionary entry
    /// (one binary search, no postings read); on v1 files it is derived
    /// on demand from the decoded posting run (served by the postings
    /// LRU, so repeats are free). Absent keywords yield zero stats.
    pub fn keyword_stats(&self, keyword: &str) -> Result<KeywordStats, PersistError> {
        match self.find_keyword(keyword)? {
            None => Ok(KeywordStats::default()),
            Some(DictEntry {
                count,
                doc_freq: Some(df),
                ..
            }) => Ok(KeywordStats {
                postings: count,
                docs: df,
            }),
            Some(DictEntry { count, .. }) => {
                // v1 file: derive the document frequency lazily.
                let run = self.keyword_postings(keyword)?;
                let mut df = 0u64;
                let mut last: Option<Option<u32>> = None;
                for comps in run.iter() {
                    let doc = comps.get(1).copied();
                    if last != Some(doc) {
                        df += 1;
                        last = Some(doc);
                    }
                }
                Ok(KeywordStats {
                    postings: count,
                    docs: df,
                })
            }
        }
    }

    /// The element row for a Dewey code, `None` when absent. The row is
    /// located by a finger search over the resident offset array,
    /// starting at the row after the last one found; probes compare
    /// Dewey components in place, and the rest (label path,
    /// content-feature strings) is decoded once, on the matching row.
    pub fn try_element(&self, dewey: &Dewey) -> Result<Option<ElementRecord>, PersistError> {
        match self.find_row(dewey.components())? {
            Some((_, r)) => Ok(Some(decode_row_rest(r, dewey.clone())?)),
            None => Ok(None),
        }
    }

    /// The element row at table index `idx` (document order) —
    /// sequential enumeration for compaction's shard export, sharing
    /// the search's row decoder.
    pub fn element_record(&self, idx: u64) -> Result<ElementRecord, PersistError> {
        if idx >= self.header.element_count {
            return Err(PersistError::Corrupt {
                what: format!(
                    "element index {idx} out of range (table has {} rows)",
                    self.header.element_count
                ),
            });
        }
        let mut r = self.row_reader(idx)?;
        let dewey = read_dewey(&mut r)?;
        decode_row_rest(r, dewey)
    }

    /// The keyword at dictionary index `idx` (lexicographic order)
    /// together with its decoded posting list — sequential enumeration
    /// for compaction's shard export. Bypasses the postings LRU: an
    /// export sweep would only churn it.
    pub fn keyword_at(&self, idx: u64) -> Result<(String, Vec<Dewey>), PersistError> {
        if idx >= self.header.keyword_count {
            return Err(PersistError::Corrupt {
                what: format!(
                    "keyword index {idx} out of range (dictionary has {} entries)",
                    self.header.keyword_count
                ),
            });
        }
        let mut r = self.dict_reader(idx)?;
        let word = r.str()?;
        let entry = self.dict_entry(&mut r)?;
        let mut buf = DeweyListBuf::new();
        self.decode_run(word, &entry, &mut buf)?;
        Ok((word.to_owned(), buf.to_deweys()))
    }

    /// Verifies every section checksum by streaming the open index in
    /// fixed-size chunks (O(chunk) memory however large the index).
    /// Reads go through the pool's own file handle, so the bytes
    /// checked are the same inode lookups are served from even if the
    /// file on disk has since been replaced by a rebuild.
    // `take` is at most `chunk.len()`, so `chunk[..take]` is in bounds.
    #[allow(clippy::indexing_slicing)]
    pub fn verify(&self) -> Result<(), PersistError> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut chunk = vec![0u8; 64 * 1024];
        for section in Section::all() {
            let entry = self.header.section(section);
            let crc = self
                .pool
                .with_file(|mut file| -> Result<u32, PersistError> {
                    file.seek(SeekFrom::Start(entry.offset))?;
                    let mut crc = Crc32::new();
                    let mut remaining = entry.len as usize;
                    while remaining > 0 {
                        let take = remaining.min(chunk.len());
                        file.read_exact(&mut chunk[..take])?;
                        crc.update(&chunk[..take]);
                        remaining -= take;
                    }
                    Ok(crc.finish())
                })?;
            if crc != entry.crc {
                return Err(PersistError::ChecksumMismatch {
                    section: section.name(),
                });
            }
        }
        Ok(())
    }

    /// A node's label id. Decodes nothing of the row past the label.
    fn element_label(&self, dewey: &Dewey) -> Result<Option<u32>, PersistError> {
        match self.find_row(dewey.components())? {
            Some((_, mut r)) => Ok(Some(r.u32_varint(LABEL)?)),
            None => Ok(None),
        }
    }

    /// A keyword node's label id and own-content feature. The feature
    /// comes from the memo; the first lookup of a row skips over its
    /// level, label path and subtree feature without materializing
    /// them and decodes the feature straight into two `Arc<str>`.
    fn keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, PersistError> {
        let Some((row, mut r)) = self.find_row(dewey.components())? else {
            return Ok(None);
        };
        let label = r.u32_varint(LABEL)?;
        let memo = &self.features;
        // `find_row` returns rows below the element count, which sized
        // the memo at open.
        #[allow(clippy::indexing_slicing)]
        let slot = &memo.slots[row as usize];
        if let Some(feature) = slot.get() {
            memo.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some((label, feature.clone())));
        }
        r.varint()?; // level
        let path_len = r.varint()?;
        r.check_items(path_len)?;
        for _ in 0..path_len {
            r.varint()?;
        }
        r.skip_cid()?; // subtree feature
        let feature = r.shared_cid()?;
        memo.decodes.fetch_add(1, Ordering::Relaxed);
        if slot.set(feature.clone()).is_ok() {
            memo.filled.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Some((label, feature)))
    }

    // ---------------------------------------------------------- internal

    /// Finds the element row holding `target`, returning its table
    /// index and a reader standing on the row's label field.
    ///
    /// A finger search: it probes the row the finger points at, gallops
    /// away from it in the direction of `target` with doubling steps
    /// until a row on the other side brackets the answer, then bisects
    /// the bracket. Next to the finger that is one to three probes;
    /// from a useless finger it is at most twice the plain binary
    /// search's. The probes are counted once per search, not per probe:
    /// the counter is a cache line every thread shares.
    fn find_row(&self, target: &[u32]) -> Result<Option<(u64, ByteReader<'_>)>, PersistError> {
        // Rows before `lo` sort below `target`, rows from `hi` on above.
        let (mut lo, mut hi) = (0u64, self.header.element_count);
        let mut at = self.element_finger.load(Ordering::Relaxed);
        let mut step = 1u64;
        // Whether some probed row sorted below / above the target.
        let (mut below, mut above) = (false, false);
        let mut probes = 0u64;
        let found = loop {
            if lo >= hi {
                break None;
            }
            at = at.clamp(lo, hi - 1);
            probes += 1;
            let mut r = self.row_reader(at)?;
            match compare_dewey(&mut r, target)? {
                Cmp::Equal => break Some((at, r)),
                Cmp::Less => {
                    lo = at + 1;
                    below = true;
                }
                Cmp::Greater => {
                    hi = at;
                    above = true;
                }
            }
            at = if below && above {
                lo + (hi - lo) / 2
            } else if below {
                at.saturating_add(step)
            } else {
                at.saturating_sub(step)
            };
            step = step.saturating_mul(2);
        };
        self.element_probes.fetch_add(probes, Ordering::Relaxed);
        let next = found.as_ref().map_or(lo, |(row, _)| row + 1);
        self.element_finger.store(next, Ordering::Relaxed);
        Ok(found)
    }

    /// A reader on the first byte of element row `idx`.
    #[inline]
    fn row_reader(&self, idx: u64) -> Result<ByteReader<'_>, PersistError> {
        let row_off = ByteReader::at(&self.element_offsets, idx * 8)?.u64_le()?;
        ByteReader::at(&self.elements, row_off)
    }

    /// A reader on the first byte of dictionary entry `idx`.
    fn dict_reader(&self, idx: u64) -> Result<ByteReader<'_>, PersistError> {
        let entry_off = ByteReader::at(&self.keyword_offsets, idx * 8)?.u64_le()?;
        ByteReader::at(&self.keyword_dict, entry_off)
    }

    /// The rest of a dictionary entry after its keyword; the document
    /// frequency is stored from format v2 on, `None` for v1 files.
    fn dict_entry(&self, r: &mut ByteReader<'_>) -> Result<DictEntry, PersistError> {
        Ok(DictEntry {
            count: r.varint()?,
            run_off: r.varint()?,
            run_len: r.varint()?,
            doc_freq: if self.header.version >= 2 {
                Some(r.varint()?)
            } else {
                None
            },
        })
    }

    /// Binary search in the keyword dictionary.
    fn find_keyword(&self, keyword: &str) -> Result<Option<DictEntry>, PersistError> {
        let mut lo = 0u64;
        let mut hi = self.header.keyword_count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut r = self.dict_reader(mid)?;
            match r.str()?.cmp(keyword) {
                Cmp::Equal => return self.dict_entry(&mut r).map(Some),
                Cmp::Less => lo = mid + 1,
                Cmp::Greater => hi = mid,
            }
        }
        Ok(None)
    }

    /// Reads `keyword`'s posting run through the pool and decodes it
    /// into `buf`, after checking that the entry's `(run_off, run_len)`
    /// stays inside the postings section, and rejects a run that decodes
    /// to a different number of codes than the entry promises.
    fn decode_run(
        &self,
        keyword: &str,
        entry: &DictEntry,
        buf: &mut DeweyListBuf,
    ) -> Result<(), PersistError> {
        let postings = self.header.section(Section::Postings);
        if entry
            .run_off
            .checked_add(entry.run_len)
            .is_none_or(|end| end > postings.len)
        {
            return Err(PersistError::Corrupt {
                what: format!("postings run for {keyword:?} outside the postings section"),
            });
        }
        let bytes = self
            .pool
            .read_at(postings.offset + entry.run_off, entry.run_len as usize)?;
        ByteReader::new(&bytes).postings_into(buf)?;
        if buf.len() as u64 != entry.count {
            return Err(PersistError::Corrupt {
                what: format!(
                    "postings run for {keyword:?} decodes {} codes, dictionary says {}",
                    buf.len(),
                    entry.count
                ),
            });
        }
        Ok(())
    }
}

/// One decoded keyword-dictionary entry: posting count, the posting
/// run's offset/length, and (v2 files only) the document frequency.
struct DictEntry {
    count: u64,
    run_off: u64,
    run_len: u64,
    doc_freq: Option<u64>,
}

// The field names the row decoders give `ByteReader::u32_varint`.
const LABEL: &str = "label id";
const COMPONENT: &str = "Dewey component";

/// Compares the Dewey code at `r` — a component count, then that many
/// varints — with `target` component by component, stopping at the
/// first that differs. On `Equal` the whole code has been consumed.
fn compare_dewey(r: &mut ByteReader<'_>, target: &[u32]) -> Result<Cmp, PersistError> {
    let ncomp = r.varint()?;
    r.check_items(ncomp)?;
    for i in 0..ncomp {
        let component = r.u32_varint(COMPONENT)?;
        match target.get(i as usize) {
            // `target` is a proper prefix of the row's code.
            None => return Ok(Cmp::Greater),
            Some(&t) if component != t => return Ok(component.cmp(&t)),
            Some(_) => {}
        }
    }
    Ok(if ncomp < target.len() as u64 {
        Cmp::Less
    } else {
        Cmp::Equal
    })
}

/// Decodes the Dewey code at `r`.
fn read_dewey(r: &mut ByteReader<'_>) -> Result<Dewey, PersistError> {
    let ncomp = r.varint()?;
    r.check_items(ncomp)?;
    let mut components = Vec::with_capacity(ncomp as usize);
    for _ in 0..ncomp {
        components.push(r.u32_varint(COMPONENT)?);
    }
    Ok(Dewey::from_components(components))
}

/// Decodes the remainder of an element row once its Dewey is known.
fn decode_row_rest(mut r: ByteReader<'_>, dewey: Dewey) -> Result<ElementRecord, PersistError> {
    let label = r.u32_varint(LABEL)?;
    let level = r.u32_varint("level")?;
    let path_len = r.varint()?;
    r.check_items(path_len)?;
    let mut label_path = Vec::with_capacity(path_len as usize);
    for _ in 0..path_len {
        label_path.push(r.u32_varint(LABEL)?);
    }
    Ok(ElementRecord {
        dewey,
        label,
        level,
        label_path,
        subtree_cid: r.cid()?,
        own_cid: r.cid()?,
    })
}

/// Reads `section` whole with one positioned read and checks its CRC.
/// Open has already checked that the section lies inside the file, so
/// its length is bounded by the file's.
fn read_section(
    file: &mut File,
    header: &Header,
    section: Section,
) -> Result<Box<[u8]>, PersistError> {
    use std::io::{Seek, SeekFrom};
    let entry = header.section(section);
    file.seek(SeekFrom::Start(entry.offset))?;
    let mut bytes = vec![0u8; entry.len as usize].into_boxed_slice();
    file.read_exact(&mut bytes)?;
    if crc32(&bytes) != entry.crc {
        return Err(PersistError::ChecksumMismatch {
            section: section.name(),
        });
    }
    Ok(bytes)
}

fn decode_labels(bytes: &[u8], expected: u64) -> Result<Vec<String>, PersistError> {
    let mut r = ByteReader::new(bytes);
    let count = r.varint()?;
    if count != expected {
        return Err(PersistError::Corrupt {
            what: format!("label section holds {count} labels, header says {expected}"),
        });
    }
    r.check_items(count)?;
    let mut labels = Vec::with_capacity(count as usize);
    for _ in 0..count {
        labels.push(r.str()?.to_owned());
    }
    Ok(labels)
}

// Every PersistError met after a successful open (I/O, truncation,
// checksum, corruption) becomes a typed SourceError, keeping the
// engine's execute path panic-free on any backend failure.
impl CorpusSource for IndexReader {
    fn label_name(&self, label: u32) -> Option<String> {
        self.label(label).map(str::to_owned)
    }

    fn node_count(&self) -> usize {
        self.header.element_count as usize
    }

    fn keyword_stats(&self, keyword: &str) -> Option<KeywordStats> {
        // An I/O failure degrades to "no sealed stats" (legacy merge
        // path) rather than surfacing an error mid-planning.
        IndexReader::keyword_stats(self, keyword).ok()
    }

    fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        // Inherent method (returns PersistError), not this trait fn.
        IndexReader::try_keyword_deweys(self, keyword).map_err(SourceError::new)
    }

    /// The whole row, decoded from the element table each time: the
    /// feature memo holds only what fragment construction reads
    /// (`try_keyword_node`).
    fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        let record = IndexReader::try_element(self, dewey).map_err(SourceError::new)?;
        Ok(record.map(|record| SourceElement {
            label: record.label,
            level: record.level,
            keyword_cid: shared_cid(record.own_cid),
            subtree_cid: shared_cid(record.subtree_cid),
        }))
    }

    fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        self.element_label(dewey).map_err(SourceError::new)
    }

    fn try_keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, SourceError> {
        self.keyword_node(dewey).map_err(SourceError::new)
    }
}

impl xks_obs::MetricSource for IndexReader {
    /// A live reader contributes its current [`IndexReader::stats`]
    /// reading (buffer pool, postings LRU, feature memo and probes) to
    /// a snapshot — the collection path behind `xks stats`.
    fn collect_into(&self, prefix: &str, snap: &mut xks_obs::Snapshot) {
        self.stats().collect_into(prefix, snap);
    }
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
mod tests {
    use super::*;
    use crate::writer::IndexWriter;
    use xks_store::shred;
    use xks_xmltree::fixtures::{publications, team};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("xks-persist-reader-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn open_publications(name: &str) -> (IndexReader, PathBuf) {
        let path = temp_path(name);
        IndexWriter::new()
            .write_tree(&publications(), &path)
            .unwrap();
        (IndexReader::open(&path).unwrap(), path)
    }

    #[test]
    fn element_and_dictionary_lookups_page_nothing() {
        let (reader, path) = open_publications("lazy-open.xks");
        let stats = reader.stats();
        assert_eq!(stats.pool.pages_read, 0, "no pool pages at open");
        assert!(stats.label_count > 5);
        assert_eq!(reader.label(0).unwrap(), "Publications");
        // Sections 1–4 answer from the bytes read at open; only a
        // posting run goes through the pool.
        let title = reader.try_element(&"0.2.0.1".parse().unwrap()).unwrap();
        assert!(title.is_some());
        assert!(reader.keyword_stats("keyword").unwrap().postings > 0);
        assert_eq!(reader.stats().pool.pages_read, 0);
        assert!(!reader.try_keyword_deweys("keyword").unwrap().is_empty());
        assert!(reader.stats().pool.pages_read > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn keyword_lookup_matches_store() {
        let (reader, path) = open_publications("kw.xks");
        let doc = shred(&publications());
        for kw in ["liu", "keyword", "xml", "title", "skyline"] {
            let got: Vec<String> = reader
                .try_keyword_deweys(kw)
                .unwrap()
                .iter()
                .map(ToString::to_string)
                .collect();
            let want: Vec<String> = doc.postings()[kw].iter().map(ToString::to_string).collect();
            assert_eq!(got, want, "{kw}");
        }
        assert!(reader.try_keyword_deweys("unobtainium").unwrap().is_empty());
        assert!(reader.stats().pool.pages_read > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn element_lookup_matches_store() {
        let (reader, path) = open_publications("elem.xks");
        let doc = shred(&publications());
        for row in &doc.elements {
            let dewey: Dewey = row.dewey.parse().unwrap();
            let record = reader.try_element(&dewey).unwrap().expect("present");
            assert_eq!(record.label, row.label);
            assert_eq!(record.level, row.level);
            assert_eq!(record.label_path, row.label_path);
            assert_eq!(record.subtree_cid, row.content_feature);
            assert_eq!(record.own_cid, row.own_feature);
        }
        assert!(reader
            .try_element(&"0.9.9".parse().unwrap())
            .unwrap()
            .is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_index_reads_identically_with_derived_stats() {
        // The committed fixture is `publications()` as the v1 writer
        // laid it out (no dictionary document frequencies); against the
        // same corpus written now, every lookup must agree, and
        // `keyword_stats` on v1 must derive the df that v2 stores.
        let v1_path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/publications-v1.xks");
        let v1 = IndexReader::open(&v1_path).unwrap();
        let (v2, v2_path) = open_publications("compat-v2.xks");
        let version = |path: &Path| {
            Header::decode(&std::fs::read(path).unwrap())
                .unwrap()
                .version
        };
        assert_eq!(version(&v1_path), 1);
        assert_eq!(version(&v2_path), 2);

        // v1 open pages nothing through the pool, like v2.
        assert_eq!(v1.stats().pool.pages_read, 0);

        let doc = shred(&publications());
        let mut keywords: Vec<&str> = doc.postings().keys().map(String::as_str).collect();
        keywords.push("unobtainium");
        for kw in keywords {
            assert_eq!(
                v1.try_keyword_deweys(kw).unwrap(),
                v2.try_keyword_deweys(kw).unwrap(),
                "{kw}: postings differ across format versions"
            );
            assert_eq!(
                v1.keyword_stats(kw).unwrap(),
                v2.keyword_stats(kw).unwrap(),
                "{kw}: derived v1 stats differ from stored v2 stats"
            );
        }
        for row in &doc.elements {
            let dewey: Dewey = row.dewey.parse().unwrap();
            assert_eq!(
                v1.try_element(&dewey).unwrap(),
                v2.try_element(&dewey).unwrap()
            );
        }
        v1.verify().unwrap();
        v2.verify().unwrap();
        std::fs::remove_file(&v2_path).unwrap();
    }

    #[test]
    fn corpus_source_impl_serves_engine_facts() {
        let (reader, path) = open_publications("source.xks");
        let title = CorpusSource::try_element(&reader, &"0.2.0.1".parse().unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(reader.label_name(title.label).as_deref(), Some("title"));
        assert_eq!(title.keyword_cid, Some(("keyword".into(), "xml".into())));
        assert_eq!(reader.node_count() as u64, reader.element_count());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn postings_cache_serves_repeats_without_page_reads() {
        let (reader, path) = open_publications("postings-cache.xks");
        let first = reader.try_keyword_deweys("keyword").unwrap();
        let after_first = reader.stats();
        assert_eq!(after_first.postings_cache_misses, 1);

        let second = reader.try_keyword_deweys("keyword").unwrap();
        let after_second = reader.stats();
        assert_eq!(first, second);
        // The repeat is served from the decoded-postings LRU: no new
        // pool traffic of any kind, one recorded cache hit.
        assert_eq!(after_second.pool.pages_read, after_first.pool.pages_read);
        assert_eq!(after_second.pool.cache_hits, after_first.pool.cache_hits);
        assert_eq!(after_second.postings_cache_hits, 1);
        assert!(after_second.postings_cache_entries >= 1);

        // Absent keywords are cached too (negative lookups).
        assert!(reader.try_keyword_deweys("unobtainium").unwrap().is_empty());
        assert!(reader.try_keyword_deweys("unobtainium").unwrap().is_empty());
        assert_eq!(reader.stats().postings_cache_hits, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn keyword_postings_into_bypasses_shared_cache() {
        let (reader, path) = open_publications("ctx-decode.xks");
        let mut arena = DeweyListBuf::new();
        for kw in ["keyword", "liu", "keyword", "unobtainium"] {
            let n = reader.keyword_postings_into(kw, &mut arena).unwrap();
            assert_eq!(n, arena.len());
            assert_eq!(
                arena.to_deweys(),
                reader.try_keyword_deweys(kw).unwrap(),
                "{kw}"
            );
        }
        // Per-context decodes never populate (or hit) the shared LRU —
        // the try_keyword_deweys calls above account for all of its
        // traffic (4 lookups: keyword, liu, keyword-again = 1 hit,
        // unobtainium).
        let stats = reader.stats();
        assert_eq!(stats.postings_cache_hits, 1);
        assert_eq!(stats.postings_cache_misses, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn postings_cache_evicts_least_recently_used() {
        let path = temp_path("postings-cache-evict.xks");
        IndexWriter::new()
            .write_tree(&publications(), &path)
            .unwrap();
        let reader = IndexReader::open_sized(&path, POOL_PAGES, 2).unwrap();
        for kw in ["liu", "keyword", "xml"] {
            reader.try_keyword_deweys(kw).unwrap();
        }
        let stats = reader.stats();
        assert_eq!(stats.postings_cache_entries, 2, "capacity respected");
        // "liu" was evicted by "xml"; re-reading it is a miss, while
        // "xml" (most recent) stays a hit.
        reader.try_keyword_deweys("xml").unwrap();
        assert_eq!(reader.stats().postings_cache_hits, 1);
        reader.try_keyword_deweys("liu").unwrap();
        assert_eq!(reader.stats().postings_cache_misses, 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reader_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IndexReader>();
    }

    #[test]
    fn concurrent_lookups_share_one_reader() {
        let (reader, path) = open_publications("mt-reader.xks");
        let doc = shred(&publications());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reader = &reader;
                let doc = &doc;
                scope.spawn(move || {
                    for _ in 0..8 {
                        for kw in ["liu", "keyword", "xml", "title", "skyline"] {
                            assert_eq!(
                                reader.try_keyword_deweys(kw).unwrap(),
                                doc.postings()[kw],
                                "{kw}"
                            );
                        }
                        for row in doc.elements.iter().take(10) {
                            let dewey: Dewey = row.dewey.parse().unwrap();
                            let label = reader.try_element_label(&dewey).unwrap().expect("present");
                            assert_eq!(label, row.label);
                            let (label, _) =
                                reader.try_keyword_node(&dewey).unwrap().expect("present");
                            assert_eq!(label, row.label);
                        }
                    }
                });
            }
        });
        let stats = reader.stats();
        assert!(stats.postings_cache_hits > 0, "repeats must hit the cache");
        assert!(stats.element_cache_hits > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_passes_on_clean_file() {
        let path = temp_path("verify.xks");
        IndexWriter::new().write_tree(&team(), &path).unwrap();
        let reader = IndexReader::open(&path).unwrap();
        reader.verify().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn small_pool_still_answers_with_evictions() {
        let path = temp_path("small-pool.xks");
        IndexWriter::with_page_size(512)
            .unwrap()
            .write_tree(&publications(), &path)
            .unwrap();
        let reader = IndexReader::open_sized(&path, 1, 1).unwrap();
        let doc = shred(&publications());
        for kw in ["liu", "keyword", "xml", "liu"] {
            let got = reader.try_keyword_deweys(kw).unwrap();
            assert_eq!(got, doc.postings()[kw], "{kw}");
        }
        // Capacity is clamped to 8 pages; with 512-byte pages and one
        // cached keyword, every lookup goes through the tiny pool.
        assert!(reader.stats().pool.pages_read > 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// A generated corpus (a few thousand rows) behind a fresh reader,
    /// plus its Dewey codes in row order.
    fn open_generated(name: &str) -> (IndexReader, Vec<Dewey>) {
        use xks_datagen::{generate_dblp, DblpConfig};
        let doc = shred(&generate_dblp(&DblpConfig::with_records(250, 12)));
        let path = temp_path(name);
        IndexWriter::new().write(&doc, &path).unwrap();
        let reader = IndexReader::open(&path).unwrap();
        // The open handle outlives the directory entry.
        std::fs::remove_file(&path).unwrap();
        let rows = doc
            .elements
            .iter()
            .map(|row| row.dewey.parse().unwrap())
            .collect();
        (reader, rows)
    }

    proptest::proptest! {
        #[test]
        fn finger_search_agrees_with_plain_binary_search(
            draws in proptest::prop::collection::vec(proptest::prelude::any::<u64>(), 1..40),
        ) {
            use std::sync::OnceLock;
            static FIXTURE: OnceLock<(IndexReader, Vec<Dewey>)> = OnceLock::new();
            let (reader, rows) = FIXTURE.get_or_init(|| open_generated("finger-prop.xks"));
            let n = rows.len() as u64;
            for draw in draws {
                let (kind, pick, finger) = (draw % 6, (draw >> 8) % n, draw >> 24);
                let row = &rows[pick as usize];
                let target = match kind {
                    0 | 1 => row.clone(),
                    2 => row.child(u32::MAX),             // absent, inside the table
                    3 => Dewey::empty(),                   // before the first row
                    4 => Dewey::from_components(vec![9]),  // after the last row
                    _ => Dewey::root(),
                };
                // Odd kinds search from a finger left anywhere, stale
                // values at and far past the end of the table included.
                if kind % 2 == 1 {
                    let stale = [finger % n, n, n + finger % 7, u64::MAX][(finger % 4) as usize];
                    reader.element_finger.store(stale, Ordering::Relaxed);
                }
                let expected = rows.binary_search(&target).ok().map(|i| i as u64);
                let found = reader.find_row(target.components()).unwrap().map(|(i, _)| i);
                proptest::prop_assert_eq!(found, expected, "{}", target);
                let record = reader.try_element(&target).unwrap();
                proptest::prop_assert_eq!(record.map(|r| r.dewey), expected.map(|_| target));
            }
        }
    }

    #[test]
    fn document_order_sweep_costs_a_few_probes_per_lookup() {
        let (reader, rows) = open_generated("finger-sweep.xks");
        for dewey in &rows {
            assert!(reader.try_element_label(dewey).unwrap().is_some());
        }
        let stats = reader.stats();
        // A label lookup reads the row and leaves the feature memo alone.
        assert_eq!(stats.element_cache_hits + stats.element_cache_misses, 0);
        assert!(
            stats.element_probes <= 3 * rows.len() as u64,
            "{} probes for {} in-order lookups",
            stats.element_probes,
            rows.len()
        );
        // The same lookups in a scattered order pay the full search.
        let (scattered, _) = open_generated("finger-scatter.xks");
        for i in 0..rows.len() {
            let dewey = &rows[i * 7919 % rows.len()];
            assert!(scattered.try_element_label(dewey).unwrap().is_some());
        }
        assert!(scattered.stats().element_probes > 3 * stats.element_probes);
    }

    #[test]
    fn feature_memo_decodes_each_row_once() {
        let (reader, rows) = open_generated("feature-memo.xks");
        let n = rows.len() as u64;
        for pass in 0..2 {
            for dewey in &rows {
                let (label, feature) = reader.try_keyword_node(dewey).unwrap().expect("present");
                let record = reader.try_element(dewey).unwrap().expect("present");
                assert_eq!(label, record.label, "pass {pass}: {dewey}");
                assert_eq!(feature, shared_cid(record.own_cid), "pass {pass}: {dewey}");
            }
        }
        let stats = reader.stats();
        assert_eq!(stats.element_cache_misses, n, "one decode per row");
        assert_eq!(stats.element_cache_hits, n, "the second pass is all memo");
        assert_eq!(stats.element_cache_entries as u64, n);
        assert!(reader
            .try_keyword_node(&rows[0].child(u32::MAX))
            .unwrap()
            .is_none());
    }
}
