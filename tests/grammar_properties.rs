//! Property tests of the query operator grammar.
//!
//! Three contracts:
//!
//! 1. **No panic**: `QuerySpec::parse` over arbitrary input (including
//!    control characters and non-ASCII planes) returns `Ok` or a typed
//!    `ParseError`, never panics;
//! 2. **Round-trip**: a parsed spec re-parses from its own `Display`
//!    rendering to an equal spec with an identical rendering, and the
//!    second parse is fully canonical (nothing left to normalize);
//! 3. **Plain-query equivalence**: operator-free input lowers to
//!    exactly the `Query` the legacy flat parser produces, and
//!    executing it returns byte-identical fragments through both the
//!    legacy and the request path. (The 43-query golden workload digest
//!    in `tests/conformance.rs` pins the same equivalence against
//!    the recorded pre-redesign results at corpus scale.)

use proptest::prelude::*;
use xks::core::{AlgorithmKind, SearchEngine, SearchRequest, SearchResponse};
use xks::index::{Query, QuerySpec};
use xks::xmltree::fixtures::publications;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_input_never_panics(text in ".{0,60}") {
        // Ok or typed error — either is fine; a panic fails the test.
        let _ = QuerySpec::parse(&text);
    }

    #[test]
    fn operator_soup_never_panics(tokens in prop::collection::vec(
        prop::sample::select(vec![
            "xml", "Keyword", "search", "\"a b\"", "\"x\"", "-skip",
            "title:xml", "a:b:c", "--x", "-", ":", "\"", "\"\"",
            "-\"a b\"", "label:", ":word", "\"unclosed", "W\u{130}DE",
        ]),
        0..8,
    )) {
        let text = tokens.join(" ");
        if let Ok(spec) = QuerySpec::parse(&text) {
            // Whatever parses must round-trip (property 2 on the
            // operator-dense distribution).
            let rendered = spec.to_string();
            let again = QuerySpec::parse(&rendered)
                .expect("canonical rendering re-parses");
            prop_assert_eq!(&spec, &again);
            prop_assert_eq!(rendered, again.to_string());
            prop_assert!(again.report().is_clean());
        }
    }

    #[test]
    fn parse_display_parse_round_trips(text in ".{1,40}") {
        if let Ok(spec) = QuerySpec::parse(&text) {
            let rendered = spec.to_string();
            let again = QuerySpec::parse(&rendered)
                .expect("canonical rendering re-parses");
            prop_assert_eq!(&spec, &again);
            prop_assert_eq!(rendered, again.to_string());
        }
    }

    #[test]
    fn plain_queries_lower_to_the_legacy_parser(words in prop::collection::vec(
        prop::sample::select(vec![
            "xml", "Keyword", "search", "liu", "VLDB", "skyline", "title",
        ]),
        1..6,
    )) {
        let text = words.join(" ");
        let spec = QuerySpec::parse(&text).expect("plain words parse");
        let legacy = Query::parse(&text).expect("plain words parse");
        prop_assert!(spec.is_plain());
        prop_assert_eq!(spec.query(), &legacy);
    }
}

/// Deterministic end-to-end check of property 3: for every paper query,
/// a request built from the legacy `Query` and one parsed through the
/// operator grammar return identical fragments on every algorithm.
#[test]
fn plain_requests_match_legacy_search_end_to_end() {
    let engine = SearchEngine::new(publications());
    for text in xks::xmltree::fixtures::PAPER_QUERIES {
        let query = Query::parse(text).unwrap();
        let request = SearchRequest::parse(text).unwrap();
        assert_eq!(request.query(), &query, "{text}");
        for kind in [
            AlgorithmKind::ValidRtf,
            AlgorithmKind::MaxMatchRtf,
            AlgorithmKind::MaxMatchSlca,
        ] {
            let legacy = SearchRequest::from_query(query.clone()).algorithm(kind);
            let legacy = engine.execute(&legacy).unwrap();
            let response = engine.execute(&request.clone().algorithm(kind)).unwrap();
            let fragments =
                |r: SearchResponse| -> Vec<_> { r.hits.into_iter().map(|h| h.fragment).collect() };
            assert_eq!(fragments(legacy), fragments(response), "{text} / {kind:?}");
        }
    }
}
