//! Opening and querying `.xks` index files.
//!
//! [`IndexReader::open`] validates the header and loads only the label
//! dictionary (a handful of strings). Everything else — element rows,
//! keyword dictionary, postings — stays on disk and is fetched page by
//! page through the LRU [`BufferPool`] as lookups demand: a keyword
//! lookup binary-searches the offset array (one 8-byte read per probe),
//! decodes one dictionary entry per probe, and finally reads exactly
//! the pages its posting run spans. The pool counters in
//! [`IndexReader::stats`] make that laziness observable.

use std::cmp::Ordering as Cmp;
use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use validrtf::fragment::{shared_cid, Cid};
use validrtf::plan::KeywordStats;
use validrtf::source::{CorpusSource, SourceElement, SourceError};
use xks_xmltree::{Dewey, DeweyListBuf};

use crate::codec::{crc32, get_postings_into, get_varint, Crc32};
use crate::error::PersistError;
use crate::format::{Header, Section, HEADER_LEN};
use crate::pool::{lock_unpoisoned, BufferPool, PoolStats};

/// Tuning knobs for [`IndexReader::open_with`].
#[derive(Debug, Clone, Copy)]
pub struct ReaderOptions {
    /// Buffer-pool capacity in pages (default 256; clamped to ≥ 8).
    pub pool_pages: usize,
    /// Capacity of the decoded-postings LRU cache in keywords
    /// (default 64; 0 disables caching). A hit skips the pool reads
    /// *and* the varint decode for the keyword's whole posting run.
    pub postings_cache_keywords: usize,
    /// Capacity of the decoded-element cache in nodes (default 16384;
    /// 0 disables caching). A hit skips the element-table search; a
    /// full cache evicts one entry per new one, so a working set
    /// somewhat larger than the cache keeps most of its hits.
    pub element_cache_nodes: usize,
}

impl Default for ReaderOptions {
    fn default() -> Self {
        ReaderOptions {
            pool_pages: 256,
            postings_cache_keywords: 64,
            element_cache_nodes: 16_384,
        }
    }
}

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
        if self.capacity == 0 {
            return None;
        }
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
        if self.capacity == 0 {
            return;
        }
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
        } else {
            let lru = slots
                .iter_mut()
                .min_by_key(|s| s.last_used)
                .expect("capacity > 0");
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
    /// Buffer-pool counters.
    pub pool: PoolStats,
    /// Keywords currently resident in the decoded-postings cache.
    pub postings_cache_entries: usize,
    /// Keyword lookups served from the decoded-postings cache.
    pub postings_cache_hits: u64,
    /// Keyword lookups that had to decode from pages.
    pub postings_cache_misses: u64,
    /// Nodes currently resident in the decoded-element cache.
    pub element_cache_entries: usize,
    /// Element lookups served from the decoded-element cache.
    pub element_cache_hits: u64,
    /// Element lookups that went to the paged element table.
    pub element_cache_misses: u64,
    /// Entries the decoded-element cache replaced to admit new ones.
    pub element_cache_evictions: u64,
    /// Element rows compared against a lookup's Dewey code, over every
    /// element-table search (cached or not).
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
        snap.counter(
            format!("{prefix}element_cache.evictions"),
            self.element_cache_evictions,
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

/// Number of independently locked element-cache shards (power of two).
const ELEMENT_SHARDS: usize = 8;

/// Of the entries that replace an evicted one, every `KEEP_EVERY`-th
/// moves the clock hand on; the others stay under it and are the next
/// victim unless a hit reaches them first. Plain second-chance turns
/// into FIFO — zero hits — on a sweep that cycles over slightly more
/// nodes than fit, which is what a query list over a corpus a little
/// larger than the cache is; holding the hand keeps the resident
/// entries through such a sweep, and the kept share lets a new working
/// set take the cache over. Replaying a `zipf100-disk` lookup trace
/// (17 276 distinct nodes, 16 384 slots): 0.98 hits at 4, 0.96 for
/// plain second-chance (1); a 110 % cyclic sweep: 0.88 against 0.
const KEEP_EVERY: u32 = 4;

/// What the fragment constructor reads of one node, plus the row it
/// was decoded from.
#[derive(Debug)]
struct ElementSlot {
    dewey: Dewey,
    /// Index of the node's row in the element table; a hit points the
    /// reader's search finger at it.
    row: u64,
    label: u32,
    /// The node's own-content feature once a keyword-node lookup has
    /// decoded it; `None` while only the label has been read.
    keyword_cid: Option<Cid>,
    /// Second-chance bit: set by a hit, cleared as the hand passes.
    referenced: bool,
}

#[derive(Debug, Default)]
struct ElementShard {
    by_dewey: HashMap<Dewey, usize>,
    slots: Vec<ElementSlot>,
    /// The slot the next eviction examines first.
    hand: usize,
    /// Evictions so far, for the [`KEEP_EVERY`] cadence.
    replaced: u32,
}

/// A second-chance (CLOCK) cache of decoded element facts.
///
/// Thread-safe: the slots are split into [`ELEMENT_SHARDS`] shards,
/// each behind its own `Mutex` and evicting within its slice of the
/// capacity, so concurrent element lookups on different nodes rarely
/// contend. Counters are relaxed atomics.
#[derive(Debug)]
struct ElementCache {
    shard_capacity: usize,
    shards: [Mutex<ElementShard>; ELEMENT_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ElementCache {
    fn new(capacity: usize) -> Self {
        let shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(ELEMENT_SHARDS).max(1)
        };
        ElementCache {
            shard_capacity,
            shards: std::array::from_fn(|_| Mutex::new(ElementShard::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Shard index for a Dewey code: cheap component fold, masked to
    /// the power-of-two shard count.
    fn shard(&self, dewey: &Dewey) -> &Mutex<ElementShard> {
        let h = dewey
            .components()
            .iter()
            .fold(0u32, |h, c| h.wrapping_mul(31).wrapping_add(*c));
        &self.shards[(h as usize) & (ELEMENT_SHARDS - 1)]
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s).slots.len())
            .sum()
    }

    /// Answers a lookup from the cache. `read` takes what the caller
    /// needs from the slot, or `None` when the slot does not hold it
    /// yet (a keyword-node lookup of a node cached for its label);
    /// that, like an absent node, counts as a miss. Whenever the node
    /// is cached its row moves `finger`, so the search a miss goes on
    /// to starts where this lookup is.
    fn get<R>(
        &self,
        dewey: &Dewey,
        finger: &AtomicU64,
        read: impl FnOnce(&ElementSlot) -> Option<R>,
    ) -> Option<R> {
        if self.shard_capacity == 0 {
            return None;
        }
        // Same recover-and-count poison policy as every other persist
        // lock site: a cache shard holds no invariant a panic can
        // break, so one panicked thread must not wedge element reads.
        let mut shard = lock_unpoisoned(self.shard(dewey));
        let found = shard.by_dewey.get(dewey).copied().and_then(|at| {
            let slot = &mut shard.slots[at];
            let answer = read(slot);
            // A served node is behind the caller (the next lookup in
            // document order lands after its row); one that needs the
            // table is searched for at its row.
            finger.store(slot.row + u64::from(answer.is_some()), Ordering::Relaxed);
            slot.referenced = true;
            answer
        });
        drop(shard);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Caches what a table lookup decoded. A node already present (a
    /// label-only entry gaining its feature, or two threads missing
    /// together) is updated in place; otherwise the entry takes a free
    /// slot, or the first slot from the hand on that no hit has touched
    /// since the hand last passed it.
    fn insert(&self, dewey: &Dewey, row: u64, label: u32, keyword_cid: Option<Cid>) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut guard = lock_unpoisoned(self.shard(dewey));
        let shard = &mut *guard;
        if let Some(&at) = shard.by_dewey.get(dewey) {
            let slot = &mut shard.slots[at];
            if keyword_cid.is_some() {
                slot.keyword_cid = keyword_cid;
            }
            return;
        }
        let slot = ElementSlot {
            dewey: dewey.clone(),
            row,
            label,
            keyword_cid,
            referenced: false,
        };
        let at = if shard.slots.len() < self.shard_capacity {
            shard.slots.push(slot);
            shard.slots.len() - 1
        } else {
            while shard.slots[shard.hand].referenced {
                shard.slots[shard.hand].referenced = false;
                shard.hand = (shard.hand + 1) % self.shard_capacity;
            }
            let at = shard.hand;
            shard.by_dewey.remove(&shard.slots[at].dewey);
            shard.slots[at] = slot;
            shard.replaced = shard.replaced.wrapping_add(1);
            if shard.replaced.is_multiple_of(KEEP_EVERY) {
                shard.hand = (at + 1) % self.shard_capacity;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
            at
        };
        shard.by_dewey.insert(dewey.clone(), at);
    }
}

/// A read-only handle on an `.xks` index file, with small per-reader
/// caches of decoded postings and element facts in front of the buffer
/// pool.
///
/// `IndexReader` is `Send + Sync`: one opened index can serve many
/// query threads concurrently behind an `Arc` (the buffer pool is
/// sharded-locked, the caches are lock-guarded, and every counter is
/// atomic). See the workspace's `PERFORMANCE.md` "Concurrency model"
/// section for the lock layout.
#[derive(Debug)]
pub struct IndexReader {
    path: PathBuf,
    pool: BufferPool,
    header: Header,
    labels: Vec<String>,
    postings_cache: PostingsCache,
    element_cache: ElementCache,
    /// The search finger: the element row a lookup probes first.
    /// Fragment construction asks for nodes in document order, so the
    /// row after the last one found is usually the answer or next to
    /// it. Any value is a correct start (the search only gets longer),
    /// which is why a relaxed atomic shared by all threads is enough.
    element_finger: AtomicU64,
    element_probes: AtomicU64,
}

impl IndexReader {
    /// Opens an index with default options.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        Self::open_with(path, ReaderOptions::default())
    }

    /// Opens an index, validating magic, version, header checksum, and
    /// the label dictionary (checksummed and loaded eagerly — it is the
    /// only eagerly-read section). Use [`IndexReader::verify`] for a
    /// full-file integrity pass.
    pub fn open_with(path: &Path, options: ReaderOptions) -> Result<Self, PersistError> {
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

        let labels_entry = header.section(Section::Labels);
        let labels_bytes =
            read_exact_at(&mut file, labels_entry.offset, labels_entry.len as usize)?;
        if crc32(&labels_bytes) != labels_entry.crc {
            return Err(PersistError::ChecksumMismatch { section: "labels" });
        }
        let labels = decode_labels(&labels_bytes, header.label_count)?;

        let pool = BufferPool::new(
            file,
            file_len,
            header.page_size as usize,
            options.pool_pages,
        );
        Ok(IndexReader {
            path: path.to_owned(),
            pool,
            header,
            labels,
            postings_cache: PostingsCache::new(options.postings_cache_keywords),
            element_cache: ElementCache::new(options.element_cache_nodes),
            element_finger: AtomicU64::new(0),
            element_probes: AtomicU64::new(0),
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
            element_cache_entries: self.element_cache.len(),
            element_cache_hits: self.element_cache.hits.load(Ordering::Relaxed),
            element_cache_misses: self.element_cache.misses.load(Ordering::Relaxed),
            element_cache_evictions: self.element_cache.evictions.load(Ordering::Relaxed),
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

    /// On-disk format version of the opened file (see
    /// [`crate::format::VERSION`]). v2 files carry document
    /// frequencies in the dictionary; v1 files derive them on demand.
    #[must_use]
    pub fn format_version(&self) -> u16 {
        self.header.version
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
        let Some(DictEntry {
            count,
            run_off,
            run_len,
            ..
        }) = self.find_keyword(keyword)?
        else {
            return Ok(0);
        };
        let postings = self.header.section(Section::Postings);
        if run_off
            .checked_add(run_len)
            .is_none_or(|end| end > postings.len)
        {
            return Err(PersistError::Corrupt {
                what: format!("postings run for {keyword:?} outside the postings section"),
            });
        }
        let bytes = self
            .pool
            .read_at(postings.offset + run_off, run_len as usize)?;
        let mut pos = 0;
        get_postings_into(&bytes, &mut pos, buf)?;
        if buf.len() as u64 != count {
            return Err(PersistError::Corrupt {
                what: format!(
                    "postings run for {keyword:?} decodes {} codes, dictionary says {count}",
                    buf.len()
                ),
            });
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
    /// located by a finger search over the paged offset array, starting
    /// at the row after the last one found; probes compare Dewey
    /// components in place, and the rest (label path, content-feature
    /// strings) is decoded once, on the matching row.
    pub fn try_element(&self, dewey: &Dewey) -> Result<Option<ElementRecord>, PersistError> {
        match self.find_row(dewey.components())? {
            Some((_, cursor)) => Ok(Some(decode_row_rest(cursor, dewey.clone())?)),
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
        let mut cursor = self.row_cursor(idx)?;
        let dewey = cursor.read_dewey()?;
        decode_row_rest(cursor, dewey)
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
        let entry_off = self.offset_entry(Section::KeywordOffsets, idx)?;
        let mut cursor = self.cursor(Section::KeywordDict, entry_off)?;
        let word = cursor.read_str()?;
        let count = cursor.read_varint()?;
        let run_off = cursor.read_varint()?;
        let run_len = cursor.read_varint()?;
        let postings = self.header.section(Section::Postings);
        if run_off
            .checked_add(run_len)
            .is_none_or(|end| end > postings.len)
        {
            return Err(PersistError::Corrupt {
                what: format!("postings run for {word:?} outside the postings section"),
            });
        }
        let bytes = self
            .pool
            .read_at(postings.offset + run_off, run_len as usize)?;
        let mut pos = 0;
        let deweys = crate::codec::get_postings(&bytes, &mut pos)?;
        if deweys.len() as u64 != count {
            return Err(PersistError::Corrupt {
                what: format!(
                    "postings run for {word:?} decodes {} codes, dictionary says {count}",
                    deweys.len()
                ),
            });
        }
        Ok((word, deweys))
    }

    /// Verifies every section checksum by streaming the open index in
    /// fixed-size chunks (O(chunk) memory however large the index).
    /// Reads go through the pool's own file handle, so the bytes
    /// checked are the same inode lookups are served from even if the
    /// file on disk has since been replaced by a rebuild.
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

    /// A node's label id through the decoded-element cache. A miss
    /// decodes nothing of the row past the label.
    fn cached_label(&self, dewey: &Dewey) -> Result<Option<u32>, PersistError> {
        let cached = self
            .element_cache
            .get(dewey, &self.element_finger, |slot| Some(slot.label));
        if cached.is_some() {
            return Ok(cached);
        }
        let Some((row, mut cursor)) = self.find_row(dewey.components())? else {
            return Ok(None);
        };
        let label = cursor.read_u32()?;
        self.element_cache.insert(dewey, row, label, None);
        Ok(Some(label))
    }

    /// A keyword node's label id and own-content feature through the
    /// decoded-element cache. A miss skips over the row's level, label
    /// path and subtree feature without materializing them.
    fn cached_keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, PersistError> {
        let cached = self.element_cache.get(dewey, &self.element_finger, |slot| {
            Some((slot.label, slot.keyword_cid.clone()?))
        });
        if cached.is_some() {
            return Ok(cached);
        }
        let Some((row, mut cursor)) = self.find_row(dewey.components())? else {
            return Ok(None);
        };
        let label = cursor.read_u32()?;
        cursor.read_varint()?; // level
        let path_len = cursor.read_varint()?;
        cursor.check_items(path_len)?;
        for _ in 0..path_len {
            cursor.read_varint()?;
        }
        cursor.skip_cid()?; // subtree feature
        let keyword_cid = shared_cid(cursor.read_cid()?);
        self.element_cache
            .insert(dewey, row, label, Some(keyword_cid.clone()));
        Ok(Some((label, keyword_cid)))
    }

    // ---------------------------------------------------------- internal

    /// Finds the element row holding `target`, returning its table
    /// index and a cursor standing on the row's label field.
    ///
    /// A finger search: it probes the row the finger points at, gallops
    /// away from it in the direction of `target` with doubling steps
    /// until a row on the other side brackets the answer, then bisects
    /// the bracket. Next to the finger that is one to three probes;
    /// from a useless finger it is at most twice the plain binary
    /// search's.
    fn find_row(&self, target: &[u32]) -> Result<Option<(u64, SectionCursor<'_>)>, PersistError> {
        // Rows before `lo` sort below `target`, rows from `hi` on above.
        let (mut lo, mut hi) = (0u64, self.header.element_count);
        let mut at = self.element_finger.load(Ordering::Relaxed);
        let mut step = 1u64;
        // Whether some probed row sorted below / above the target.
        let (mut below, mut above) = (false, false);
        while lo < hi {
            at = at.clamp(lo, hi - 1);
            self.element_probes.fetch_add(1, Ordering::Relaxed);
            let mut cursor = self.row_cursor(at)?;
            match cursor.compare_dewey(target)? {
                Cmp::Equal => {
                    self.element_finger.store(at + 1, Ordering::Relaxed);
                    return Ok(Some((at, cursor)));
                }
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
        }
        self.element_finger.store(lo, Ordering::Relaxed);
        Ok(None)
    }

    /// A cursor on the first byte of element row `idx`.
    fn row_cursor(&self, idx: u64) -> Result<SectionCursor<'_>, PersistError> {
        let row_off = self.offset_entry(Section::ElementOffsets, idx)?;
        self.cursor(Section::Elements, row_off)
    }

    /// Reads entry `idx` of a `u64` offset array section (stack buffer,
    /// no heap allocation — this runs once per binary-search probe).
    fn offset_entry(&self, section: Section, idx: u64) -> Result<u64, PersistError> {
        let entry = self.header.section(section);
        let mut bytes = [0u8; 8];
        self.pool.read_into(entry.offset + idx * 8, &mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Binary search in the keyword dictionary; the document frequency
    /// is stored from format v2 on, `None` for v1 files.
    fn find_keyword(&self, keyword: &str) -> Result<Option<DictEntry>, PersistError> {
        let mut lo = 0u64;
        let mut hi = self.header.keyword_count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let entry_off = self.offset_entry(Section::KeywordOffsets, mid)?;
            let mut cursor = self.cursor(Section::KeywordDict, entry_off)?;
            let word = cursor.read_str()?;
            match word.as_str().cmp(keyword) {
                std::cmp::Ordering::Equal => {
                    let count = cursor.read_varint()?;
                    let run_off = cursor.read_varint()?;
                    let run_len = cursor.read_varint()?;
                    let doc_freq = if self.header.version >= 2 {
                        Some(cursor.read_varint()?)
                    } else {
                        None
                    };
                    return Ok(Some(DictEntry {
                        count,
                        run_off,
                        run_len,
                        doc_freq,
                    }));
                }
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(None)
    }

    fn cursor(&self, section: Section, rel_off: u64) -> Result<SectionCursor<'_>, PersistError> {
        let entry = self.header.section(section);
        if rel_off > entry.len {
            return Err(PersistError::Corrupt {
                what: format!("offset {rel_off} outside section {}", section.name()),
            });
        }
        Ok(SectionCursor {
            pool: &self.pool,
            pos: entry.offset + rel_off,
            end: entry.offset + entry.len,
            window: [0; WINDOW],
            at: 0,
            filled: 0,
        })
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

/// Bytes a [`SectionCursor`] pulls through the pool at a time: an
/// element row's Dewey code, label and level fit at any inline depth,
/// so a probe is one offset read plus one window read.
const WINDOW: usize = 64;

/// Sequential decoder over one section, pulling bytes through the pool
/// a window at a time and decoding from the window in place.
struct SectionCursor<'a> {
    pool: &'a BufferPool,
    /// Absolute offset of the next unread byte.
    pos: u64,
    /// Absolute end of the section; the window never reaches past it.
    end: u64,
    window: [u8; WINDOW],
    /// `window[at..filled]` holds the bytes at `pos..`.
    at: usize,
    filled: usize,
}

impl SectionCursor<'_> {
    /// Bytes left in the section.
    fn remaining(&self) -> u64 {
        self.end - self.pos
    }

    /// Tops the window up to `want` unread bytes, or to all the section
    /// still has.
    fn fill(&mut self, want: usize) -> Result<(), PersistError> {
        let have = self.filled - self.at;
        if have >= want {
            return Ok(());
        }
        let take = (self.remaining() - have as u64).min((WINDOW - have) as u64) as usize;
        if take > 0 {
            self.window.copy_within(self.at..self.filled, 0);
            self.pool
                .read_into(self.pos + have as u64, &mut self.window[have..have + take])?;
            self.at = 0;
            self.filled = have + take;
        }
        Ok(())
    }

    fn read_varint(&mut self) -> Result<u64, PersistError> {
        self.fill(10)?;
        let mut at = self.at;
        let v = get_varint(&self.window[..self.filled], &mut at)?;
        self.pos += (at - self.at) as u64;
        self.at = at;
        Ok(v)
    }

    fn read_u32(&mut self) -> Result<u32, PersistError> {
        let v = self.read_varint()?;
        u32::try_from(v).map_err(|_| PersistError::Corrupt {
            what: "field overflows u32".to_owned(),
        })
    }

    /// Rejects a stored count of items (one byte or more each) that the
    /// rest of the section cannot hold. Counts come from lazily-read,
    /// non-CRC-checked sections: they must fail typed before they size
    /// an allocation or bound a loop.
    fn check_items(&self, count: u64) -> Result<(), PersistError> {
        if count > self.remaining() {
            return Err(PersistError::Truncated {
                what: "record ran past the end of its section",
            });
        }
        Ok(())
    }

    /// Compares the Dewey code at the cursor — a component count, then
    /// that many varints — with `target` component by component,
    /// stopping at the first that differs. On `Equal` the whole code
    /// has been consumed.
    fn compare_dewey(&mut self, target: &[u32]) -> Result<Cmp, PersistError> {
        let ncomp = self.read_varint()?;
        self.check_items(ncomp)?;
        for i in 0..ncomp {
            let component = self.read_component()?;
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

    /// Decodes the Dewey code at the cursor.
    fn read_dewey(&mut self) -> Result<Dewey, PersistError> {
        let ncomp = self.read_varint()?;
        self.check_items(ncomp)?;
        let mut components = Vec::with_capacity(ncomp as usize);
        for _ in 0..ncomp {
            components.push(self.read_component()?);
        }
        Ok(Dewey::from_components(components))
    }

    fn read_component(&mut self) -> Result<u32, PersistError> {
        let c = self.read_varint()?;
        u32::try_from(c).map_err(|_| PersistError::Corrupt {
            what: "Dewey component overflows u32".to_owned(),
        })
    }

    /// Steps over `len` bytes without reading them.
    fn skip(&mut self, len: u64) -> Result<(), PersistError> {
        self.check_items(len)?;
        let have = (self.filled - self.at) as u64;
        if len <= have {
            self.at += len as usize;
        } else {
            self.at = self.filled;
        }
        self.pos += len;
        Ok(())
    }

    fn read_bytes(&mut self, len: u64) -> Result<Vec<u8>, PersistError> {
        self.check_items(len)?;
        let len = len as usize;
        let mut bytes = Vec::with_capacity(len);
        let have = (self.filled - self.at).min(len);
        bytes.extend_from_slice(&self.window[self.at..self.at + have]);
        self.at += have;
        if len > have {
            // The window is spent; the rest comes straight from the pool.
            self.pool
                .read_extend(self.pos + have as u64, len - have, &mut bytes)?;
        }
        self.pos += len as u64;
        Ok(bytes)
    }

    fn read_str(&mut self) -> Result<String, PersistError> {
        let len = self.read_varint()?;
        let bytes = self.read_bytes(len)?;
        String::from_utf8(bytes).map_err(|_| PersistError::Corrupt {
            what: "string is not valid UTF-8".to_owned(),
        })
    }

    /// Reads a content feature's tag byte: whether a `(min, max)` pair
    /// follows.
    fn read_cid_tag(&mut self) -> Result<bool, PersistError> {
        self.fill(1)?;
        let Some(&tag) = self.window[..self.filled].get(self.at) else {
            return Err(PersistError::Truncated {
                what: "record ran past the end of its section",
            });
        };
        self.at += 1;
        self.pos += 1;
        match tag {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::Corrupt {
                what: format!("content-feature tag {other} (expected 0 or 1)"),
            }),
        }
    }

    fn read_cid(&mut self) -> Result<Option<(String, String)>, PersistError> {
        if !self.read_cid_tag()? {
            return Ok(None);
        }
        let min = self.read_str()?;
        let max = self.read_str()?;
        Ok(Some((min, max)))
    }

    fn skip_cid(&mut self) -> Result<(), PersistError> {
        if self.read_cid_tag()? {
            for _ in 0..2 {
                let len = self.read_varint()?;
                self.skip(len)?;
            }
        }
        Ok(())
    }
}

/// Decodes the remainder of an element row once its Dewey is known.
fn decode_row_rest(
    mut cursor: SectionCursor<'_>,
    dewey: Dewey,
) -> Result<ElementRecord, PersistError> {
    let label = cursor.read_u32()?;
    let level = cursor.read_u32()?;
    let path_len = cursor.read_varint()?;
    cursor.check_items(path_len)?;
    let mut label_path = Vec::with_capacity(path_len as usize);
    for _ in 0..path_len {
        label_path.push(cursor.read_u32()?);
    }
    let subtree_cid = cursor.read_cid()?;
    let own_cid = cursor.read_cid()?;
    Ok(ElementRecord {
        dewey,
        label,
        level,
        label_path,
        subtree_cid,
        own_cid,
    })
}

fn read_exact_at(file: &mut File, offset: u64, len: usize) -> Result<Vec<u8>, PersistError> {
    use std::io::{Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    let mut bytes = vec![0u8; len];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

fn decode_labels(bytes: &[u8], expected: u64) -> Result<Vec<String>, PersistError> {
    let mut pos = 0;
    let count = get_varint(bytes, &mut pos)?;
    if count != expected {
        return Err(PersistError::Corrupt {
            what: format!("label section holds {count} labels, header says {expected}"),
        });
    }
    let plausible = bytes.len().saturating_sub(pos) + 1;
    let mut labels = Vec::with_capacity((count as usize).min(plausible));
    for _ in 0..count {
        labels.push(crate::codec::get_str(bytes, &mut pos)?);
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
    /// cache holds only what fragment construction reads
    /// (`try_element_label`, `try_keyword_node`).
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
        self.cached_label(dewey).map_err(SourceError::new)
    }

    fn try_keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, SourceError> {
        self.cached_keyword_node(dewey).map_err(SourceError::new)
    }
}

impl xks_obs::MetricSource for IndexReader {
    /// A live reader contributes its current [`IndexReader::stats`]
    /// reading (buffer pool, postings LRU, element cache and probes) to a
    /// snapshot — the collection path behind `xks stats`.
    fn collect_into(&self, prefix: &str, snap: &mut xks_obs::Snapshot) {
        self.stats().collect_into(prefix, snap);
    }
}

#[cfg(test)]
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
    fn open_reads_only_header_and_labels() {
        let (reader, path) = open_publications("lazy-open.xks");
        let stats = reader.stats();
        assert_eq!(stats.pool.pages_read, 0, "no pool pages at open");
        assert!(stats.label_count > 5);
        assert_eq!(reader.label(0).unwrap(), "Publications");
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
            let want: Vec<String> = doc
                .keyword_deweys(kw)
                .iter()
                .map(ToString::to_string)
                .collect();
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
        assert_eq!(v1.format_version(), 1);
        assert_eq!(v2.format_version(), 2);

        // v1 open stays as lazy as v2: header + labels only.
        assert_eq!(v1.stats().pool.pages_read, 0);

        let doc = shred(&publications());
        let mut keywords: Vec<&str> = doc.keyword_stats().map(|(kw, _)| kw).collect();
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
        let reader = IndexReader::open_with(
            &path,
            ReaderOptions {
                pool_pages: 256,
                postings_cache_keywords: 2,
                ..ReaderOptions::default()
            },
        )
        .unwrap();
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
                                doc.keyword_deweys(kw),
                                "{kw}"
                            );
                        }
                        for row in doc.elements.iter().take(10) {
                            let dewey: Dewey = row.dewey.parse().unwrap();
                            let label = reader.try_element_label(&dewey).unwrap().expect("present");
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
        let reader = IndexReader::open_with(
            &path,
            ReaderOptions {
                pool_pages: 1,
                postings_cache_keywords: 0,
                ..ReaderOptions::default()
            },
        )
        .unwrap();
        let doc = shred(&publications());
        for kw in ["liu", "keyword", "xml", "liu"] {
            let got = reader.try_keyword_deweys(kw).unwrap();
            assert_eq!(got, doc.keyword_deweys(kw), "{kw}");
        }
        // Capacity is clamped to 8 pages; with 512-byte pages the three
        // distinct lookups still force traffic through the tiny pool.
        assert!(reader.stats().pool.pages_read > 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// A generated corpus (a few thousand rows) behind a reader with the
    /// given element-cache capacity, plus its Dewey codes in row order.
    fn open_generated(name: &str, element_cache_nodes: usize) -> (IndexReader, Vec<Dewey>) {
        use xks_datagen::{generate_dblp, DblpConfig};
        let doc = shred(&generate_dblp(&DblpConfig::with_records(250, 12)));
        let path = temp_path(name);
        IndexWriter::new().write(&doc, &path).unwrap();
        let reader = IndexReader::open_with(
            &path,
            ReaderOptions {
                element_cache_nodes,
                ..ReaderOptions::default()
            },
        )
        .unwrap();
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
            let (reader, rows) = FIXTURE.get_or_init(|| open_generated("finger-prop.xks", 0));
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
        let (reader, rows) = open_generated("finger-sweep.xks", 0);
        for dewey in &rows {
            assert!(reader.try_element_label(dewey).unwrap().is_some());
        }
        let stats = reader.stats();
        assert_eq!(
            stats.element_cache_hits + stats.element_cache_entries as u64,
            0
        );
        assert!(
            stats.element_probes <= 3 * rows.len() as u64,
            "{} probes for {} in-order lookups",
            stats.element_probes,
            rows.len()
        );
        // The same lookups in a scattered order pay the full search.
        let (scattered, _) = open_generated("finger-scatter.xks", 0);
        for i in 0..rows.len() {
            let dewey = &rows[i * 7919 % rows.len()];
            assert!(scattered.try_element_label(dewey).unwrap().is_some());
        }
        assert!(scattered.stats().element_probes > 3 * stats.element_probes);
    }

    #[test]
    fn cyclic_sweep_past_capacity_keeps_most_hits() {
        const CAPACITY: usize = 1024;
        let (reader, rows) = open_generated("clock-sweep.xks", CAPACITY);
        let swept = &rows[..CAPACITY * 11 / 10];
        let sweep = || {
            let before = reader.stats();
            for dewey in swept {
                assert!(reader.try_element_label(dewey).unwrap().is_some());
            }
            let after = reader.stats();
            (
                after.element_cache_hits - before.element_cache_hits,
                after.element_cache_entries,
            )
        };
        let (_, mut resident) = sweep(); // cold: fills the cache
        for cycle in 1..6 {
            let (hits, entries) = sweep();
            assert!(
                hits * 100 >= swept.len() as u64 * 80,
                "cycle {cycle}: {hits} hits in {} lookups",
                swept.len()
            );
            assert!(entries >= resident, "cycle {cycle}: the cache shrank");
            resident = entries;
        }
        // Per-entry eviction: every miss the slots could not absorb
        // replaced exactly one entry.
        let stats = reader.stats();
        assert_eq!(
            stats.element_cache_evictions,
            stats.element_cache_misses - stats.element_cache_entries as u64
        );
        assert!(stats.element_cache_evictions > 0);
    }
}
