//! End-to-end reproduction of the paper's worked Examples 1–7 and
//! Figures 2–3, through the public API only.
//!
//! Each test names the paper artifact it pins down. The fixtures are the
//! reconstructed Figure 1(a) *Publications* instance and Figure 1(b)
//! *team* segment (`xks::xmltree::fixtures`).

use xks::core::{AlgorithmKind, SearchEngine, SearchRequest};
use xks::index::Query;
use xks::xmltree::fixtures::{publications, team, PAPER_QUERIES};
use xks::xmltree::Dewey;

fn d(s: &str) -> Dewey {
    s.parse().unwrap()
}

fn q(s: &str) -> Query {
    Query::parse(s).unwrap()
}

fn frag_deweys(frag: &xks::core::Fragment) -> Vec<String> {
    frag.deweys().iter().map(ToString::to_string).collect()
}

/// One search through the request/response API, unwrapped to the
/// fragment list (the paper artifacts are about fragments, not hits).
struct Results {
    fragments: Vec<xks::core::Fragment>,
}

fn search(engine: &SearchEngine, query: &Query, kind: AlgorithmKind) -> Results {
    let request = SearchRequest::from_query(query.clone()).algorithm(kind);
    Results {
        fragments: engine
            .execute(&request)
            .expect("tree backend cannot fail")
            .hits
            .into_iter()
            .map(|h| h.fragment)
            .collect(),
    }
}

/// Example 1, "[SLCA v.s LCA]": for Q2 the SLCA semantics returns only
/// the ref fragment (Figure 2(a)); the LCA fragment rooted at the
/// article (Figure 2(b)) is also interesting and ValidRTF returns both.
#[test]
fn example1_slca_vs_lca() {
    let engine = SearchEngine::new(publications());
    let query = q(PAPER_QUERIES[1]); // Q2 = "liu keyword"

    let slca_only = search(&engine, &query, AlgorithmKind::MaxMatchSlca);
    assert_eq!(slca_only.fragments.len(), 1);
    assert_eq!(slca_only.fragments[0].anchor, d("0.2.0.3.0"));
    // Figure 2(a): the single ref node.
    assert_eq!(frag_deweys(&slca_only.fragments[0]), ["0.2.0.3.0"]);

    let valid = search(&engine, &query, AlgorithmKind::ValidRtf);
    assert_eq!(valid.fragments.len(), 2);
    // Figure 2(b): article with authors-name, title, abstract paths.
    assert_eq!(
        frag_deweys(&valid.fragments[0]),
        [
            "0.2.0",
            "0.2.0.0",
            "0.2.0.0.0",
            "0.2.0.0.0.0",
            "0.2.0.1",
            "0.2.0.2"
        ]
    );
    assert_eq!(frag_deweys(&valid.fragments[1]), ["0.2.0.3.0"]);
}

/// Example 1, "[Returning only LCA/SLCA nodes]": for Q3 the only
/// interesting LCA is the root, and the raw fragment (Figure 2(c))
/// contains the uninteresting skyline title, which the meaningful RTF
/// (Figure 2(d)) prunes.
#[test]
fn example1_returning_only_lca_nodes_is_redundant() {
    let engine = SearchEngine::new(publications());
    let query = q(PAPER_QUERIES[2]); // Q3

    let valid = search(&engine, &query, AlgorithmKind::ValidRtf);
    assert_eq!(valid.fragments.len(), 1);
    let result = frag_deweys(&valid.fragments[0]);
    // Figure 2(d): everything about the XML-keyword-search paper plus
    // the conference title; the skyline article is gone.
    assert_eq!(
        result,
        [
            "0",
            "0.0",
            "0.2",
            "0.2.0",
            "0.2.0.1",
            "0.2.0.2",
            "0.2.0.3",
            "0.2.0.3.0"
        ]
    );
    assert!(!result.contains(&"0.2.1.1".to_owned()));
}

/// Example 2 "[Positive example]" / Figure 3(a): Q5 keeps only the
/// Gassol player under both filters.
#[test]
fn example2_positive_example_q5() {
    let engine = SearchEngine::new(team());
    let query = q(PAPER_QUERIES[4]); // Q5

    for kind in [AlgorithmKind::ValidRtf, AlgorithmKind::MaxMatchRtf] {
        let out = search(&engine, &query, kind);
        assert_eq!(out.fragments.len(), 1, "{kind:?}");
        let nodes = frag_deweys(&out.fragments[0]);
        assert!(nodes.contains(&"0.1.0.0".to_owned()), "Gassol kept");
        assert!(!nodes.contains(&"0.1.1".to_owned()), "Miller pruned");
        assert!(!nodes.contains(&"0.1.2".to_owned()), "Warrick pruned");
    }
}

/// Example 2 "[False positive problem]" / Figures 3(b)+3(c): MaxMatch
/// discards the title of the skyline paper for Q1; ValidRTF keeps it.
#[test]
fn example2_false_positive_q1() {
    let engine = SearchEngine::new(publications());
    let query = q(PAPER_QUERIES[0]); // Q1

    let valid = search(&engine, &query, AlgorithmKind::ValidRtf);
    assert_eq!(valid.fragments.len(), 1);
    // Figure 3(b): the full SLCA fragment.
    assert_eq!(
        frag_deweys(&valid.fragments[0]),
        [
            "0.2.1",
            "0.2.1.0",
            "0.2.1.0.0",
            "0.2.1.0.0.0",
            "0.2.1.0.1",
            "0.2.1.0.1.0",
            "0.2.1.1",
            "0.2.1.2"
        ]
    );

    let mm = search(&engine, &query, AlgorithmKind::MaxMatchRtf);
    // Figure 3(c): same minus the title.
    assert_eq!(
        frag_deweys(&mm.fragments[0]),
        [
            "0.2.1",
            "0.2.1.0",
            "0.2.1.0.0",
            "0.2.1.0.0.0",
            "0.2.1.0.1",
            "0.2.1.0.1.0",
            "0.2.1.2"
        ]
    );
}

/// Example 2 "[Redundancy problem]" / Figure 3(d): MaxMatch keeps both
/// "forward" players for Q4; ValidRTF deduplicates.
#[test]
fn example2_redundancy_q4() {
    let engine = SearchEngine::new(team());
    let query = q(PAPER_QUERIES[3]); // Q4

    let mm = search(&engine, &query, AlgorithmKind::MaxMatchRtf);
    let mm_nodes = frag_deweys(&mm.fragments[0]);
    for p in ["0.1.0.1", "0.1.1.1", "0.1.2.1"] {
        assert!(mm_nodes.contains(&p.to_owned()), "MaxMatch keeps {p}");
    }

    let valid = search(&engine, &query, AlgorithmKind::ValidRtf);
    let v_nodes = frag_deweys(&valid.fragments[0]);
    assert!(v_nodes.contains(&"0.1.0.1".to_owned()), "first forward");
    assert!(v_nodes.contains(&"0.1.1.1".to_owned()), "guard");
    assert!(!v_nodes.contains(&"0.1.2".to_owned()), "duplicate forward");
}

/// Example 3: the ECT_Q enumeration for Q2 has 11 elements (not 21,
/// because ref appears in both keyword lists).
#[test]
fn example3_ect_enumeration_count() {
    use xks::core::spec::enumerate_ect;
    let engine = SearchEngine::new(publications());
    let sets = engine
        .index()
        .resolve(&q(PAPER_QUERIES[1]))
        .expect("Q2 resolves");
    let ect = enumerate_ect(sets.sets()).expect("tiny input");
    assert_eq!(ect.len(), 11);
}

/// Example 4: exactly two of those combinations are RTFs — {r} and
/// {n, t, a} — and the pipeline's partitions match the specification.
#[test]
fn example4_rtfs_match_specification() {
    use xks::core::spec::spec_rtfs;
    use xks::lca::elca_stack;

    let engine = SearchEngine::new(publications());
    let sets = engine.index().resolve(&q(PAPER_QUERIES[1])).unwrap();

    let spec = spec_rtfs(sets.sets()).expect("tiny input");
    assert_eq!(spec.len(), 2);

    let anchors = elca_stack(sets.sets());
    let rtfs = xks::core::get_rtf(&anchors, &sets);
    assert_eq!(rtfs.len(), spec.len());
    for (got, want) in rtfs.iter().zip(&spec) {
        assert_eq!(got.anchor, want.anchor);
        let got_nodes: Vec<&Dewey> = got.knodes.iter().map(|(d, _)| d).collect();
        let want_nodes: Vec<&Dewey> = want.nodes.iter().collect();
        assert_eq!(got_nodes, want_nodes);
    }
}

/// Examples 6–7: the running Q3 walk-through — keyword node sets, the
/// single root anchor, and the pruning decisions on nodes 0 and 0.2.
#[test]
fn examples6_7_running_example() {
    let engine = SearchEngine::new(publications());
    let query = q(PAPER_QUERIES[2]);

    // Example 6: D1..D5.
    let sets = engine.index().resolve(&query).unwrap();
    let as_strings =
        |i: usize| -> Vec<String> { sets.set(i).iter().map(ToString::to_string).collect() };
    assert_eq!(as_strings(0), ["0.0"]); // vldb
    assert_eq!(as_strings(1), ["0.0", "0.2.0.1", "0.2.1.1"]); // title
    for i in 2..5 {
        assert_eq!(as_strings(i), ["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]);
    }

    // Example 7: pruning keeps both children of the root (distinct
    // labels), keeps child 0.2.0 of Articles (key number 15, largest)
    // and discards 0.2.1 (8, covered by 15).
    let valid = search(&engine, &query, AlgorithmKind::ValidRtf);
    let nodes = frag_deweys(&valid.fragments[0]);
    assert!(nodes.contains(&"0.0".to_owned()));
    assert!(nodes.contains(&"0.2".to_owned()));
    assert!(nodes.contains(&"0.2.0".to_owned()));
    assert!(!nodes.contains(&"0.2.1".to_owned()));
}

/// The paper's §4.3 performance claim is about parity, not speedups —
/// sanity-check that both algorithms complete and agree on anchors for
/// every paper query on the fixtures.
#[test]
fn all_paper_queries_run_on_both_algorithms() {
    for (tree, queries) in [
        (publications(), &PAPER_QUERIES[..3]),
        (team(), &PAPER_QUERIES[3..]),
    ] {
        let engine = SearchEngine::new(tree);
        for query in queries {
            let v = search(&engine, &q(query), AlgorithmKind::ValidRtf);
            let x = search(&engine, &q(query), AlgorithmKind::MaxMatchRtf);
            assert_eq!(v.fragments.len(), x.fragments.len(), "{query}");
            for (a, b) in v.fragments.iter().zip(&x.fragments) {
                assert_eq!(a.anchor, b.anchor, "{query}");
            }
        }
    }
}
