//! Differential test for the persistence subsystem: over generated DBLP
//! and XMark corpora and the full Figure 5/6 workloads (43 queries),
//! `SearchEngine` results over an `xks-persist` `IndexReader` must be
//! **byte-identical** — same fragments, same order after ranking — to
//! results over the in-memory `ShreddedDoc` backend. The buffer-pool
//! counters additionally prove that only posting runs are paged, and
//! that the reader never slurps the postings section eagerly.

use std::sync::Arc;

use xks::core::rank::RankWeights;
use xks::core::{AlgorithmKind, CorpusSource, MemoryCorpus, SearchEngine, SearchRequest};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::index::Query;
use xks::persist::{IndexReader, IndexWriter};
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

/// Every workload query × algorithm, ranked, in the given order.
fn requests(workload: &[(&'static str, String)]) -> Vec<(String, SearchRequest)> {
    let weights = RankWeights::default();
    let mut out = Vec::new();
    for (abbrev, keywords) in workload {
        let query = Query::parse(keywords).unwrap();
        for kind in [
            AlgorithmKind::ValidRtf,
            AlgorithmKind::MaxMatchRtf,
            AlgorithmKind::MaxMatchSlca,
        ] {
            let request = SearchRequest::from_query(query.clone())
                .algorithm(kind)
                .weights(weights);
            out.push((format!("{abbrev}/{kind:?}"), request));
        }
    }
    out
}

#[test]
fn disk_and_memory_backends_are_byte_identical() {
    let mut queries_checked = 0usize;
    let mut nonempty = 0usize;
    for corpus in corpora() {
        let doc = shred(&corpus.tree);
        let path = index_path(corpus.name);
        IndexWriter::new().write(&doc, &path).unwrap();
        let memory = SearchEngine::from_owned_source(MemoryCorpus::new(doc));
        let requests = requests(&corpus.workload);

        // A fresh reader, whose feature memo the workload itself fills,
        // and one the workload already ran through in reverse order, so
        // every keyword node is answered from a slot another query
        // filled.
        for warmed in [false, true] {
            let reader = Arc::new(IndexReader::open(&path).unwrap());
            assert_eq!(
                reader.stats().pool.pages_read,
                0,
                "{}: open must not touch data pages through the pool",
                corpus.name
            );
            // One opened index (one buffer pool, one feature memo)
            // backs the engine while this test keeps reading its stats
            // — the shared index-handle pattern.
            let disk = SearchEngine::from_source(Arc::clone(&reader) as Arc<dyn CorpusSource>);
            if warmed {
                for (_, request) in requests.iter().rev() {
                    disk.execute(request).unwrap();
                }
                assert!(reader.stats().element_cache_entries > 0);
            }

            for (case, request) in &requests {
                let case = format!("{}/{case}/warmed {warmed}", corpus.name);
                // Ranked requests through the one execute path: hits,
                // scores, and signals must all agree across backends.
                let m = memory.execute(request).unwrap();
                let d = disk.execute(request).unwrap();
                assert_eq!(m.hits, d.hits, "{case}: hits diverge");
                assert_eq!(m.stats, d.stats, "{case}");
                // Rendered output must match byte for byte too (labels
                // resolve through each backend's own dictionary).
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
                queries_checked += 1;
            }

            // Element rows and the keyword dictionary are resident from
            // open: only posting runs go through the pool.
            let stats = reader.stats();
            assert!(
                stats.pool.pages_read > 0,
                "{}: queries must flow through the pool",
                corpus.name
            );
            assert!(
                stats.pool.pages_read <= stats.postings_pages,
                "{}: {} pages fetched, but the postings span only {}",
                corpus.name,
                stats.pool.pages_read,
                stats.postings_pages
            );
            eprintln!(
                "{} (warmed {warmed}): {} postings pages, {} fetched, {} pool hits, \
                 feature memo {} hits / {} decodes / {} slots, {} probes",
                corpus.name,
                stats.postings_pages,
                stats.pool.pages_read,
                stats.pool.cache_hits,
                stats.element_cache_hits,
                stats.element_cache_misses,
                stats.element_cache_entries,
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
