//! Sharded-vs-unsharded differential over the 43-query golden workload.
//!
//! The sharded read path must be **byte-identical** to the unsharded
//! one — same fragments, same rendering, same stats — whatever the
//! shard count or backend. This test replays the full Figure 5/6
//! workload (DBLP + XMark, 43 queries × 3 algorithms) through sharded
//! engines at 1, 2, and 4 shards on **both** backends:
//!
//! * **memory** — `xks_store::partition` parts wrapped in
//!   `MemoryCorpus` shards under a `validrtf::ShardSet`;
//! * **disk** — `xks_persist::write_sharded` corpora reopened through
//!   `ShardedCorpus`, searched both via its set
//!   (`SearchEngine::from_shard_set`) and as a plain `CorpusSource`
//!   (`SearchEngine::from_source`),
//!
//! and asserts every configuration reproduces
//! `tests/golden/workload_digest.txt` line for line — the digest
//! captured before the zero-allocation rewrite and pinned ever since.
//! A corrupted shard manifest must fail open with a typed error, never
//! panic or serve wrong results, and every reader of a sharded corpus
//! — its set, the corpus itself, a mutable corpus over it — leaves the
//! shards its keyword filters rule out untouched.

mod common;

use std::sync::Arc;

use common::{digest_line, ALGORITHMS, GOLDEN};
use xks::core::{CorpusSource, MemoryCorpus, SearchEngine, SearchRequest, ShardSet};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::persist::{write_sharded, IndexWriter, MutableCorpus, PersistError, ShardedCorpus};
use xks::store::{partition, shred, ShreddedDoc};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

struct Corpus {
    name: &'static str,
    doc: ShreddedDoc,
    workload: Vec<(&'static str, String)>,
}

fn corpora() -> Vec<Corpus> {
    vec![
        Corpus {
            name: "dblp",
            doc: shred(&generate_dblp(&DblpConfig::with_records(1_000, 42))),
            workload: dblp_workload(),
        },
        Corpus {
            name: "xmark",
            doc: shred(&generate_xmark(&XmarkConfig::sized(
                XmarkSize::Standard,
                60,
                42,
            ))),
            workload: xmark_workload(),
        },
    ]
}

fn golden_lines() -> Vec<String> {
    std::fs::read_to_string(GOLDEN)
        .expect("golden digest present")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// Runs one corpus's workload through `engine` and returns its digest
/// lines (same format as the golden file).
fn digest_corpus(engine: &SearchEngine, corpus: &Corpus) -> Vec<String> {
    let source = engine.corpus().expect("sharded engines expose a source");
    let mut lines = Vec::new();
    for (abbrev, keywords) in &corpus.workload {
        let request = SearchRequest::parse(keywords).unwrap();
        for kind in ALGORITHMS {
            let response = engine.execute(&request.clone().algorithm(kind)).unwrap();
            let fragments: Vec<xks::core::Fragment> = response.into_fragments();
            lines.push(digest_line(corpus.name, abbrev, kind, &fragments, source));
        }
    }
    lines
}

fn memory_shard_set(doc: &ShreddedDoc, shards: usize) -> ShardSet {
    let parts = partition(doc, shards);
    let first_docs: Vec<u32> = parts.iter().map(|p| p.first_doc).collect();
    let sources: Vec<Arc<dyn CorpusSource>> = parts
        .into_iter()
        .map(|p| Arc::new(MemoryCorpus::new(p.doc)) as Arc<dyn CorpusSource>)
        .collect();
    ShardSet::new(sources, first_docs).unwrap()
}

fn sharded_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("xks-sharded-differential")
        .join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sharded_backends_reproduce_the_golden_digest() {
    let golden = golden_lines();
    let corpora = corpora();
    assert_eq!(golden.len(), 43 * 3, "golden digest covers the workload");

    for &shards in &SHARD_COUNTS {
        let mut engines: Vec<(String, Vec<SearchEngine>)> = Vec::new();
        for corpus in &corpora {
            let mut variants = Vec::new();

            // Memory shards as a set.
            variants.push(SearchEngine::from_shard_set(memory_shard_set(
                &corpus.doc,
                shards,
            )));

            // Disk shards via the manifest, as a set…
            let manifest = sharded_dir(&format!("{}-{shards}", corpus.name)).join("corpus.xksm");
            write_sharded(&IndexWriter::new(), &corpus.doc, &manifest, shards).unwrap();
            let opened = ShardedCorpus::open(&manifest).unwrap();
            assert_eq!(opened.shard_count(), shards, "{}", corpus.name);
            variants.push(SearchEngine::from_shard_set(opened.shard_set()));

            // …and the same opened corpus as a plain source.
            variants.push(SearchEngine::from_source(Arc::new(opened)));

            engines.push((corpus.name.to_owned(), variants));
        }

        for (variant, label) in [(0, "memory/set"), (1, "disk/set"), (2, "disk/source")] {
            let mut lines = Vec::new();
            for ((_, variants), corpus) in engines.iter().zip(&corpora) {
                lines.extend(digest_corpus(&variants[variant], corpus));
            }
            assert_eq!(
                lines.len(),
                golden.len(),
                "{label} with {shards} shard(s): line count"
            );
            for (i, (got, want)) in lines.iter().zip(&golden).enumerate() {
                assert_eq!(
                    got, want,
                    "{label} with {shards} shard(s): digest line {i} diverged"
                );
            }
        }
    }
}

#[test]
fn corrupted_manifest_fails_open_with_typed_errors() {
    let corpus = shred(&generate_dblp(&DblpConfig::with_records(50, 7)));
    let dir = sharded_dir("corrupt");
    let manifest_path = dir.join("corpus.xksm");
    write_sharded(&IndexWriter::new(), &corpus, &manifest_path, 2).unwrap();
    let clean = std::fs::read(&manifest_path).unwrap();

    // A bit flip anywhere in the manifest is caught at open.
    for i in (0..clean.len()).step_by(7) {
        let mut bytes = clean.clone();
        bytes[i] ^= 0x10;
        std::fs::write(&manifest_path, &bytes).unwrap();
        let err = ShardedCorpus::open(&manifest_path).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::BadMagic { .. }
                    | PersistError::UnsupportedVersion { .. }
                    | PersistError::ChecksumMismatch { .. }
                    | PersistError::Truncated { .. }
                    | PersistError::Corrupt { .. }
            ),
            "flip at byte {i}: {err}"
        );
    }

    // Restore the manifest, then corrupt one shard file: the engine's
    // execute path must surface a typed SearchError, not panic.
    std::fs::write(&manifest_path, &clean).unwrap();
    let corpus = ShardedCorpus::open(&manifest_path).unwrap();
    let shard_file = dir.join(&corpus.manifest().shards[1].file_name);
    let engine = SearchEngine::from_shard_set(corpus.shard_set());
    let ok = engine
        .execute(&SearchRequest::parse("data algorithm").unwrap())
        .unwrap();
    assert!(!ok.hits.is_empty(), "healthy corpus answers");
    // Truncate the live shard under the open engine.
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&shard_file)
        .unwrap();
    file.set_len(4096).unwrap();
    drop(file);
    let fresh = ShardedCorpus::open(&manifest_path);
    assert!(fresh.is_err(), "reopen catches the truncated shard");
}

/// Postings lookups (hits and misses of each shard's postings LRU) per
/// shard reader.
fn postings_lookups(corpus: &ShardedCorpus) -> Vec<u64> {
    corpus
        .shard_stats()
        .iter()
        .map(|s| s.postings_cache_hits + s.postings_cache_misses)
        .collect()
}

#[test]
fn keyword_filters_skip_shards_for_every_reader() {
    // Four one-document shards; only document 2 holds "solo".
    let dir = sharded_dir("filter-skips");
    std::fs::remove_dir_all(&dir).unwrap();
    let mut corpus = MutableCorpus::create(&dir, "lib").unwrap();
    for doc in 0..4 {
        let word = if doc == 2 { "solo" } else { "plain" };
        corpus
            .insert_xml(&format!("<doc><t>common {word}</t></doc>"))
            .unwrap();
    }
    corpus.compact(4).unwrap();
    let base = Arc::clone(corpus.base().expect("compaction seals a base"));
    assert_eq!(base.shard_count(), 4);
    let set = base.shard_set();
    let rejected: Vec<usize> = (0..4)
        .filter(|&i| !set.shard_may_contain(i, "solo"))
        .collect();
    assert!(!rejected.is_empty(), "some filter rules \"solo\" out");

    let request = SearchRequest::parse("solo").unwrap();
    for (reader, engine) in [
        ("corpus", SearchEngine::from_source(Arc::clone(&base) as _)),
        ("mutable", SearchEngine::from_source(corpus.source() as _)),
    ] {
        let before = postings_lookups(&base);
        assert_eq!(engine.execute(&request).unwrap().hits.len(), 1, "{reader}");
        let after = postings_lookups(&base);
        for shard in 0..4 {
            if rejected.contains(&shard) {
                assert_eq!(after[shard], before[shard], "{reader} probed shard {shard}");
            } else if shard == 2 {
                assert!(after[shard] > before[shard], "{reader} skipped the owner");
            }
        }
    }
}
