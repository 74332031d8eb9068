//! Fixed-size page abstraction with a sharded, thread-safe LRU buffer
//! pool.
//!
//! The reader holds the small sections resident from open; the postings
//! section — an index's bulk — is never slurped: every posting run
//! flows through [`BufferPool::read_at`], which assembles the range from
//! fixed-size pages fetched on demand and cached under an LRU policy
//! (in the spirit of a database buffer manager — see bustub/willow-db).
//! Counters expose exactly how many pages were touched, which the
//! differential tests use to prove postings lookups are lazy.
//!
//! # Concurrency
//!
//! The pool is `Send + Sync`: frames are partitioned into
//! [`SHARD_COUNT`] shards keyed by page number, each behind its own
//! `Mutex`, so concurrent lookups on different pages rarely contend.
//! Cache misses fetch with **positioned reads** (`pread` on Unix) —
//! no file cursor, no file lock — so misses in different shards hit
//! the disk in parallel; only cursor-based access
//! ([`BufferPool::with_file`], and the page fetch on non-Unix
//! platforms) serializes on a cursor `Mutex`. All counters are relaxed
//! [`AtomicU64`]s — they are statistics, not synchronization.

use std::collections::HashMap;
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::error::PersistError;

/// Locks a mutex, recovering from poisoning instead of propagating the
/// panic: pool frames and the file cursor hold no invariant a panic
/// mid-read could break (the worst case is an unindexed frame, which
/// later lookups simply refetch), and a reader shared across query
/// threads must not let one panicked thread wedge every other. Each
/// recovery increments the global `lock.poison_recovered` counter —
/// the process keeps serving, but operators can see it is wounded.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e: PoisonError<_>| {
        xks_obs::count_poison_recovery();
        e.into_inner()
    })
}

/// Number of independently locked frame shards. A power of two so the
/// shard of a page is a mask away; 8 keeps per-shard capacity useful
/// even for small pools while allowing 8-way lookup concurrency.
pub const SHARD_COUNT: usize = 8;

/// Shard of a page: a Fibonacci-hash mix so regular access strides
/// (every 8th page, section-aligned scans) spread across shards
/// instead of ganging up on one — plain `page_no & 7` would give a
/// stride-8 hot set 0% associativity however large the pool.
fn shard_of(page_no: u64) -> usize {
    const SHIFT: u32 = 64 - SHARD_COUNT.trailing_zeros();
    (page_no.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> SHIFT) as usize
}

/// Observable pool counters (cheap to copy, returned by
/// [`BufferPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Maximum resident pages (sum over shards).
    pub capacity_pages: usize,
    /// Pages currently cached.
    pub cached_pages: usize,
    /// Pages fetched from disk (equals `cache_misses`).
    pub pages_read: u64,
    /// Lookups served from the cache.
    pub cache_hits: u64,
    /// Lookups that went to disk.
    pub cache_misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

#[derive(Debug)]
struct Frame {
    page_no: u64,
    data: Vec<u8>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    by_page: HashMap<u64, usize>,
    frames: Vec<Frame>,
}

/// A sharded LRU page cache over one read-only file.
///
/// Methods take `&self`; the pool is `Send + Sync` and is designed to
/// be shared across query threads behind an `Arc` (one open index, many
/// engines).
#[derive(Debug)]
pub struct BufferPool {
    /// The read-only file. Page fetches use positioned reads (no
    /// cursor) where the platform provides them; cursor-based access
    /// goes through [`BufferPool::with_file`] under `cursor`.
    file: File,
    /// Serializes everything that moves the file cursor.
    cursor: Mutex<()>,
    file_len: u64,
    page_size: usize,
    /// Per-shard frame capacity (total capacity = `SHARD_COUNT` ×
    /// this, matching the configured total within rounding).
    shard_capacity: usize,
    shards: [Mutex<Shard>; SHARD_COUNT],
    tick: AtomicU64,
    pages_read: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    evictions: AtomicU64,
}

impl BufferPool {
    /// Wraps an open file. `capacity` is clamped to at least 8 pages
    /// (one per shard).
    #[must_use]
    pub fn new(file: File, file_len: u64, page_size: usize, capacity: usize) -> Self {
        BufferPool {
            file,
            cursor: Mutex::new(()),
            file_len,
            page_size,
            shard_capacity: capacity.max(SHARD_COUNT).div_ceil(SHARD_COUNT),
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            tick: AtomicU64::new(0),
            pages_read: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Length of the underlying file.
    #[must_use]
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Current counters. Under concurrency the snapshot is advisory:
    /// each counter is exact, but the set is not taken atomically.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let cached = self
            .shards
            .iter()
            .map(|s| lock_unpoisoned(s).frames.len())
            .sum();
        PoolStats {
            capacity_pages: self.shard_capacity * SHARD_COUNT,
            cached_pages: cached,
            pages_read: self.pages_read.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` with the pool's underlying file handle — used by
    /// full-file verification so it checks the same inode lookups are
    /// served from (re-opening by path could race an index rebuild).
    /// The cursor lock is held for the duration, so `f` may seek
    /// freely (`&File` implements `Read + Seek`); positioned page
    /// fetches never touch the cursor and keep running concurrently.
    pub fn with_file<R>(&self, f: impl FnOnce(&File) -> R) -> R {
        let _cursor = lock_unpoisoned(&self.cursor);
        f(&self.file)
    }

    /// Reads `len` bytes at absolute `offset`, assembling across pages.
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, PersistError> {
        let end = offset
            .checked_add(len as u64)
            .filter(|&e| e <= self.file_len)
            .ok_or(PersistError::Truncated {
                what: "read past end of index file",
            })?;
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while pos < end {
            let page_no = pos / self.page_size as u64;
            let page_start = page_no * self.page_size as u64;
            let in_page = (pos - page_start) as usize;
            let take = ((end - pos) as usize).min(self.page_size - in_page);
            self.with_page(page_no, |data| {
                out.extend_from_slice(&data[in_page..in_page + take]);
            })?;
            pos += take as u64;
        }
        Ok(out)
    }

    /// Runs `f` over the cached page, fetching and possibly evicting
    /// first. Only the page's shard is locked; a miss additionally
    /// takes the file lock inside the shard lock (shard → file is the
    /// one nesting order in this module). Two threads missing on the
    /// same page serialize on the shard and the second finds the frame
    /// resident — each page is fetched once.
    fn with_page<R>(&self, page_no: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R, PersistError> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let shard = &self.shards[shard_of(page_no)];
        let mut shard = lock_unpoisoned(shard);

        if let Some(&idx) = shard.by_page.get(&page_no) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            shard.frames[idx].last_used = tick;
            return Ok(f(&shard.frames[idx].data));
        }

        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        let data = self.fetch_page(page_no)?;

        let idx = if shard.frames.len() < self.shard_capacity {
            shard.frames.push(Frame {
                page_no,
                data,
                last_used: tick,
            });
            shard.frames.len() - 1
        } else {
            // Evict the least recently used frame of this shard.
            let victim = shard
                .frames
                .iter()
                .enumerate()
                .min_by_key(|(_, fr)| fr.last_used)
                .map(|(i, _)| i)
                .expect("shard capacity >= 1 frame");
            let old = shard.frames[victim].page_no;
            shard.by_page.remove(&old);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            shard.frames[victim] = Frame {
                page_no,
                data,
                last_used: tick,
            };
            victim
        };
        shard.by_page.insert(page_no, idx);
        Ok(f(&shard.frames[idx].data))
    }

    /// Reads one page from disk (the final page may be short; it is
    /// zero-padded so in-page slicing stays uniform).
    ///
    /// On Unix this is a positioned read (`pread`): no cursor, no
    /// lock, so misses in different shards fetch in parallel. The
    /// portable fallback seeks under the cursor lock.
    fn fetch_page(&self, page_no: u64) -> Result<Vec<u8>, PersistError> {
        let start = page_no * self.page_size as u64;
        if start >= self.file_len {
            return Err(PersistError::Truncated {
                what: "page beyond end of index file",
            });
        }
        let avail = ((self.file_len - start) as usize).min(self.page_size);
        let mut data = vec![0u8; self.page_size];
        self.read_exact_at(&mut data[..avail], start)?;
        Ok(data)
    }

    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<(), PersistError> {
        use std::os::unix::fs::FileExt as _;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<(), PersistError> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let _cursor = lock_unpoisoned(&self.cursor);
        let mut file = &self.file;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn temp_file(bytes: &[u8], name: &str) -> (File, u64) {
        let dir = std::env::temp_dir().join("xks-persist-pool-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        (File::open(&path).unwrap(), bytes.len() as u64)
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
    }

    #[test]
    fn read_spanning_pages() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let (file, len) = temp_file(&bytes, "span.bin");
        let pool = BufferPool::new(file, len, 64, 8);
        // Range [60, 200) crosses pages 0..=3 of 64 bytes.
        let got = pool.read_at(60, 140).unwrap();
        assert_eq!(got, &bytes[60..200]);
        assert_eq!(pool.stats().pages_read, 4);
        assert_eq!(pool.read_at(120, 20).unwrap(), &bytes[120..140]);
        assert!(matches!(
            pool.read_at(250, 20),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn cache_hits_do_not_reread() {
        let bytes = vec![7u8; 1024];
        let (file, len) = temp_file(&bytes, "hits.bin");
        let pool = BufferPool::new(file, len, 256, 8);
        pool.read_at(0, 10).unwrap();
        pool.read_at(5, 10).unwrap();
        pool.read_at(100, 10).unwrap();
        let s = pool.stats();
        assert_eq!(s.pages_read, 1);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn lru_evicts_oldest_in_shard() {
        let bytes = vec![1u8; 64 * 64];
        let (file, len) = temp_file(&bytes, "lru.bin");
        // Capacity 8 = 1 frame per shard: two pages in the same shard
        // evict each other, pages in different shards coexist.
        let pool = BufferPool::new(file, len, 64, 8);
        let first = 0u64;
        let colliding = (1..64u64)
            .find(|&p| shard_of(p) == shard_of(first))
            .expect("some page shares a shard with page 0");
        let elsewhere = (1..64u64)
            .find(|&p| shard_of(p) != shard_of(first))
            .expect("some page lands in another shard");

        pool.read_at(first * 64, 1).unwrap();
        pool.read_at(elsewhere * 64, 1).unwrap();
        pool.read_at(colliding * 64, 1).unwrap(); // evicts `first`
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.cached_pages, 2);
        // The collider is resident (hit); `first` was evicted (miss,
        // evicting the collider back out); the other shard's page is
        // untouched by any of this (hit).
        pool.read_at(colliding * 64, 1).unwrap();
        pool.read_at(first * 64, 1).unwrap();
        pool.read_at(elsewhere * 64, 1).unwrap();
        let s = pool.stats();
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn stride_patterns_spread_across_shards() {
        // The Fibonacci mix must not let a regular stride collapse
        // into one shard (the failure mode of sharding by low bits:
        // a stride-SHARD_COUNT hot set would thrash a single shard).
        for stride in [1u64, 2, 4, 8, 16, 64] {
            let shards: std::collections::HashSet<usize> =
                (0..32).map(|i| shard_of(i * stride)).collect();
            assert!(
                shards.len() >= SHARD_COUNT / 2,
                "stride {stride} uses only {} of {SHARD_COUNT} shards",
                shards.len()
            );
        }
    }

    #[test]
    fn short_final_page_is_padded() {
        let bytes = vec![9u8; 100];
        let (file, len) = temp_file(&bytes, "short.bin");
        let pool = BufferPool::new(file, len, 64, 8);
        let got = pool.read_at(64, 36).unwrap();
        assert_eq!(got, &bytes[64..100]);
    }

    #[test]
    fn read_past_end_is_truncated_error() {
        let bytes = vec![0u8; 100];
        let (file, len) = temp_file(&bytes, "past.bin");
        let pool = BufferPool::new(file, len, 64, 8);
        assert!(matches!(
            pool.read_at(90, 20),
            Err(PersistError::Truncated { .. })
        ));
        assert!(matches!(
            pool.read_at(u64::MAX, 2),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn concurrent_reads_agree_and_count() {
        let bytes: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let (file, len) = temp_file(&bytes, "mt.bin");
        // 256 frames = 32 per shard: the 64-page working set fits even
        // under a skewed hash distribution, so no page is ever fetched
        // twice.
        let pool = BufferPool::new(file, len, 64, 256);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let pool = &pool;
                let bytes = &bytes;
                scope.spawn(move || {
                    for i in 0..64u64 {
                        let off = ((i * 61 + t * 17) % 63) * 64;
                        let got = pool.read_at(off, 70).unwrap();
                        assert_eq!(got, &bytes[off as usize..off as usize + 70]);
                    }
                });
            }
        });
        let s = pool.stats();
        // Every byte read was correct; each distinct page was fetched
        // from disk at most once (misses never duplicate within a
        // shard lock).
        assert!(s.pages_read <= 64);
        assert!(s.cache_hits + s.cache_misses >= 4 * 64);
    }
}
