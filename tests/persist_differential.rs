//! Differential test for the persistence subsystem: over generated DBLP
//! and XMark corpora and the full Figure 5/6 workloads (43 queries),
//! `SearchEngine` results over an `xks-persist` `IndexReader` must be
//! **byte-identical** — same fragments, same order after ranking — to
//! results over the in-memory `ShreddedDoc` backend. The buffer-pool
//! counters additionally prove the reader never slurps the postings
//! section eagerly.

use std::sync::Arc;

use xks::core::rank::RankWeights;
use xks::core::{AlgorithmKind, CorpusSource, MemoryCorpus, SearchEngine, SearchRequest};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::index::Query;
use xks::persist::{IndexReader, IndexWriter, ReaderOptions};
use xks::store::shred;
use xks::xmltree::XmlTree;

struct Corpora {
    name: &'static str,
    tree: XmlTree,
    workload: Vec<(&'static str, String)>,
}

fn corpora() -> Vec<Corpora> {
    vec![
        Corpora {
            name: "dblp",
            tree: generate_dblp(&DblpConfig::with_records(1_000, 42)),
            workload: dblp_workload(),
        },
        Corpora {
            name: "xmark",
            tree: generate_xmark(&XmarkConfig::sized(XmarkSize::Standard, 60, 42)),
            workload: xmark_workload(),
        },
    ]
}

fn index_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xks-persist-differential");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.xks"))
}

#[test]
fn disk_and_memory_backends_are_byte_identical() {
    let mut queries_checked = 0usize;
    let mut nonempty = 0usize;
    let default_cache = ReaderOptions::default().element_cache_nodes;
    for corpus in corpora() {
        let doc = shred(&corpus.tree);
        let path = index_path(corpus.name);
        IndexWriter::new().write(&doc, &path).unwrap();
        let memory = SearchEngine::from_owned_source(MemoryCorpus::new(doc));
        let weights = RankWeights::default();

        // Element cache off, thrashing (1 and 64 nodes: every lookup
        // path — miss, eviction, label entry gaining its feature, finger
        // search from wherever the last query left it) and as shipped.
        for element_cache_nodes in [0, 1, 64, default_cache] {
            let options = ReaderOptions {
                element_cache_nodes,
                ..ReaderOptions::default()
            };
            let reader = Arc::new(IndexReader::open_with(&path, options).unwrap());
            assert_eq!(
                reader.stats().pool.pages_read,
                0,
                "{}: open must not touch data pages through the pool",
                corpus.name
            );
            // One opened index (one buffer pool, one set of caches)
            // backs the engine while this test keeps reading its stats
            // — the shared index-handle pattern.
            let disk = SearchEngine::from_source(Arc::clone(&reader) as Arc<dyn CorpusSource>);

            for (abbrev, keywords) in &corpus.workload {
                let query = Query::parse(keywords).unwrap();
                for kind in [
                    AlgorithmKind::ValidRtf,
                    AlgorithmKind::MaxMatchRtf,
                    AlgorithmKind::MaxMatchSlca,
                ] {
                    let case = format!(
                        "{}/{abbrev}/{kind:?}/cache {element_cache_nodes}",
                        corpus.name
                    );
                    // Ranked requests through the one execute path:
                    // hits, scores, and signals must all agree across
                    // backends.
                    let request = SearchRequest::from_query(query.clone())
                        .algorithm(kind)
                        .weights(weights);
                    let m = memory.execute(&request).unwrap();
                    let d = disk.execute(&request).unwrap();
                    assert_eq!(m.hits, d.hits, "{case}: hits diverge");
                    assert_eq!(m.stats, d.stats, "{case}");
                    // Rendered output must match byte for byte too
                    // (labels resolve through each backend's own
                    // dictionary).
                    let mem_text: Vec<String> = m
                        .fragments()
                        .map(|f| f.render_source(memory.corpus().expect("source-backed")))
                        .collect();
                    let disk_text: Vec<String> = d
                        .fragments()
                        .map(|f| f.render_source(disk.corpus().expect("source-backed")))
                        .collect();
                    assert_eq!(mem_text, disk_text, "{case}: rendering diverges");
                    if !m.hits.is_empty() {
                        nonempty += 1;
                    }
                }
                queries_checked += 1;
            }

            let stats = reader.stats();
            let total_pages = stats.file_len / u64::from(stats.page_size);
            assert!(
                stats.pool.pages_read > 0,
                "{}: queries must flow through the pool",
                corpus.name
            );
            assert!(
                stats.pool.cache_hits > stats.pool.cache_misses,
                "{}: repeated lookups should mostly hit the cache \
                 (hits {} vs misses {})",
                corpus.name,
                stats.pool.cache_hits,
                stats.pool.cache_misses
            );
            assert!(
                stats.element_cache_entries <= element_cache_nodes.next_multiple_of(8),
                "{}: {} nodes cached, capacity {element_cache_nodes}",
                corpus.name,
                stats.element_cache_entries
            );
            eprintln!(
                "{} (element cache {element_cache_nodes}): {} file pages, {} fetched, \
                 {} pool hits, {} element hits / {} misses / {} evictions, {} probes",
                corpus.name,
                total_pages,
                stats.pool.pages_read,
                stats.pool.cache_hits,
                stats.element_cache_hits,
                stats.element_cache_misses,
                stats.element_cache_evictions,
                stats.element_probes,
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
    assert!(queries_checked >= 4 * 20, "only {queries_checked} queries");
    assert!(nonempty >= 4 * 20, "only {nonempty} non-empty results");
}

#[test]
fn single_query_reads_a_fraction_of_the_postings_section() {
    let tree = generate_dblp(&DblpConfig::with_records(2_000, 7));
    let doc = shred(&tree);
    let path = index_path("lazy-postings");
    IndexWriter::new().write(&doc, &path).unwrap();

    let reader = IndexReader::open(&path).unwrap();
    let stats = reader.stats();
    assert!(
        stats.postings_pages >= 4,
        "corpus too small to demonstrate laziness ({} postings pages)",
        stats.postings_pages
    );
    assert_eq!(stats.pool.pages_read, 0);

    // Resolve one two-keyword query directly against the reader.
    for kw in ["data", "algorithm"] {
        assert!(!reader.try_keyword_deweys(kw).unwrap().is_empty());
    }
    let after = reader.stats();
    assert!(
        after.pool.pages_read < after.postings_pages,
        "one query fetched {} pages — at least the {}-page postings \
         section was slurped eagerly",
        after.pool.pages_read,
        after.postings_pages
    );
    std::fs::remove_file(&path).unwrap();
}
