//! End-to-end integration over the generated corpora: the full workload
//! pipelines of Figures 5/6 at test scale.

use xks::core::{AlgorithmKind, SearchEngine, SearchRequest};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::index::Query;

fn dblp_engine() -> SearchEngine {
    SearchEngine::new(generate_dblp(&DblpConfig::with_records(2_000, 42)))
}

fn xmark_engine(size: XmarkSize) -> SearchEngine {
    // 80 base items keeps the workload's pruning profile stable across
    // RNG streams (at 40 the rare-keyword plantings are so sparse that
    // the pruning counts below become seed-sensitive).
    SearchEngine::new(generate_xmark(&XmarkConfig::sized(size, 80, 42)))
}

#[test]
fn dblp_workload_runs_end_to_end() {
    let engine = dblp_engine();
    let mut nonempty = 0;
    for (abbrev, keywords) in dblp_workload() {
        let query = Query::parse(&keywords).unwrap();
        let cmp = engine.compare(&query).unwrap();
        // Anchor sets align, CFR is a valid ratio.
        assert!((0.0..=1.0).contains(&cmp.effectiveness.cfr), "{abbrev}");
        assert!(cmp.effectiveness.max_apr <= 1.0, "{abbrev}");
        if cmp.rtf_count > 0 {
            nonempty += 1;
        }
    }
    // At test scale some rare-keyword queries may be empty, but the bulk
    // must produce results.
    assert!(
        nonempty >= dblp_workload().len() / 2,
        "only {nonempty} non-empty"
    );
}

#[test]
fn dblp_fragments_cover_their_queries() {
    let engine = dblp_engine();
    let tree = engine.parsed_tree().expect("a parsed-tree engine");
    for (_, keywords) in dblp_workload().into_iter().take(6) {
        let query = Query::parse(&keywords).unwrap();
        let out = engine
            .execute(&SearchRequest::from_query(query.clone()))
            .unwrap();
        for frag in out.fragments() {
            // Every fragment must contain at least one keyword node per
            // query keyword (keyword requirement of §2).
            for kw in query.keywords() {
                let covered = frag.iter().any(|n| {
                    tree.node_by_dewey(&n.dewey)
                        .map(|id| xks::xmltree::content::node_content(tree, id).contains(kw))
                        .unwrap_or(false)
                });
                assert!(covered, "fragment at {} misses {kw}", frag.anchor);
            }
        }
    }
}

#[test]
fn xmark_standard_workload_runs() {
    let engine = xmark_engine(XmarkSize::Standard);
    let mut with_pruning = 0;
    for (abbrev, keywords) in xmark_workload() {
        let query = Query::parse(&keywords).unwrap();
        let cmp = engine.compare(&query).unwrap();
        assert!((0.0..=1.0).contains(&cmp.effectiveness.cfr), "{abbrev}");
        if cmp.effectiveness.max_apr > 0.0 {
            with_pruning += 1;
        }
    }
    // The paper's XMark profile: ValidRTF prunes beyond MaxMatch on most
    // queries (Figure 6(b): Max APR near 1, APR' > 0).
    assert!(
        with_pruning >= xmark_workload().len() / 2,
        "only {with_pruning} pruned"
    );
}

#[test]
fn xmark_ladder_monotone_in_size() {
    // Bigger datasets → more keyword nodes → at least as many RTFs for
    // the permissive queries.
    let std_engine = xmark_engine(XmarkSize::Standard);
    let d1_engine = xmark_engine(XmarkSize::Data1);
    for (_, keywords) in xmark_workload().into_iter().take(5) {
        let query = Query::parse(&keywords).unwrap();
        let a = std_engine.compare(&query).unwrap().rtf_count;
        let b = d1_engine.compare(&query).unwrap().rtf_count;
        // Not strictly guaranteed per query, but gross inversions would
        // signal a generator bug; allow slack.
        assert!(b * 3 >= a, "rtf count collapsed: {a} → {b}");
    }
}

#[test]
fn valid_rtf_and_maxmatch_runtime_same_order() {
    // §4.3 claim (4): competent performance. At integration-test scale
    // we only guard against asymptotic blowups (>20x).
    let engine = dblp_engine();
    let request = SearchRequest::parse("data algorithm").unwrap();
    let v = engine.execute(&request.clone()).unwrap();
    let x = engine
        .execute(&request.algorithm(AlgorithmKind::MaxMatchRtf))
        .unwrap();
    let (vt, xt) = (v.timings.total(), x.timings.total());
    assert!(
        vt < xt * 20 && xt < vt * 20,
        "runtime divergence: ValidRTF {vt:?} vs MaxMatch {xt:?}"
    );
}

#[test]
fn store_shreds_generated_corpus_consistently() {
    // The store path (shred → keyword lookup) agrees with the in-memory
    // index on posting lists.
    let tree = generate_dblp(&DblpConfig::with_records(300, 7));
    let doc = xks::store::shred(&tree);
    let index = xks::index::InvertedIndex::build(&tree);
    for kw in ["data", "xml", "keyword", "algorithm"] {
        let from_store: Vec<String> = doc.postings()[kw].iter().map(ToString::to_string).collect();
        let from_index: Vec<String> = index.postings(kw).iter().map(ToString::to_string).collect();
        assert_eq!(from_store, from_index, "postings differ for {kw}");
    }
}

#[test]
fn stemmed_index_reproduces_lucene_style_matching() {
    // The paper's Example 2 relies on "Skyline Querying" matching the
    // query keyword "query" (Lucene analysis). The exact-match default
    // cannot do that; the stemmed index can.
    use xks::xmltree::stem::light_stem;
    let tree = xks::xmltree::parse(
        "<pubs><paper><title>Efficient Skyline Querying with Preferences</title></paper></pubs>",
    )
    .unwrap();

    let exact = xks::index::InvertedIndex::build(&tree);
    assert!(exact.postings("query").is_empty());

    let stemmed = xks::index::InvertedIndex::build_with(&tree, light_stem);
    assert_eq!(stemmed.postings("query").len(), 1);
    assert_eq!(stemmed.postings("preference").len(), 1);
    // Resolve a stemmed query end to end.
    let q = Query::from_words(["Querying", "skyline"].iter().map(|w| light_stem(w))).unwrap();
    assert!(stemmed.resolve(&q).is_some());
}

#[test]
fn degenerate_documents_are_handled() {
    // Single-node document: the root is keyword node, anchor, and
    // fragment all at once.
    let tree = xks::xmltree::parse("<note>xml keyword</note>").unwrap();
    let engine = SearchEngine::new(tree);
    let out = engine
        .execute(&SearchRequest::parse("xml keyword").unwrap())
        .unwrap();
    assert_eq!(out.hits.len(), 1);
    assert_eq!(out.hits[0].fragment.len(), 1);
    assert_eq!(out.hits[0].fragment.anchor.to_string(), "0");

    // Keyword split across root text and root label.
    let tree = xks::xmltree::parse("<note>keyword</note>").unwrap();
    let engine = SearchEngine::new(tree);
    let out = engine
        .execute(&SearchRequest::parse("note keyword").unwrap())
        .unwrap();
    assert_eq!(out.hits.len(), 1);

    // Single keyword, many matches: every match is its own fragment.
    let tree = xks::xmltree::parse("<a><b>w</b><b>w</b><b>w</b></a>").unwrap();
    let engine = SearchEngine::new(tree);
    let out = engine.execute(&SearchRequest::parse("w").unwrap()).unwrap();
    assert_eq!(out.hits.len(), 3);
    for h in &out.hits {
        assert_eq!(h.fragment.len(), 1);
    }
}
