//! Golden pin of the rendered wire bytes (`docs/API.md`'s result
//! object), recorded from the `Value`-tree renderer the streaming
//! `wire::write_response` replaced.
//!
//! `tests/golden/render_digest.txt` holds one line per rendered body:
//! its byte length and FNV-1a with the wall-clock `timings_us` block
//! (and any `trace`) cut. The lines cover the 43-query Figure 5/6
//! workload (the corpora `conformance.rs` builds) and the
//! `s10-flat-uniform-single` matrix cell, on the tree, memory and
//! `.xks` backends, all three algorithms, and four shapes of response:
//! plain, `limit 3` (`hits_omitted`), `limit 0`, and ranked `top_k 5`
//! (`score` + `signals`). Every body must also be in canonical form:
//! parsing it and writing it back yields the same bytes.
//!
//! Regenerate deliberately with `XKS_BLESS_GOLDEN=1 cargo test -q
//! --test render_golden` after a change that is *supposed* to alter
//! the wire form.

mod common;

use common::{algorithm_name, ALGORITHMS};
use xks::core::wire;
use xks::core::{MemoryCorpus, SearchEngine, SearchRequest};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::scenario::ScenarioSpec;
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::persist::{IndexReader, IndexWriter};
use xks::store::json;
use xks::store::shred;
use xks::xmltree::XmlTree;

const GOLDEN_RENDER: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/render_digest.txt"
);

const MATRIX_CELL: &str = "s10-flat-uniform-single";

/// One response shape: its name in the golden file, how it shapes the
/// request, and the hit cap handed to the renderer.
type Variant = (&'static str, fn(SearchRequest) -> SearchRequest, usize);

const VARIANTS: [Variant; 4] = [
    ("plain", |r| r, usize::MAX),
    ("limit3", |r| r, 3),
    ("limit0", |r| r, 0),
    ("top5-ranked", |r| r.rank().top_k(5), usize::MAX),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The body without its wall-clock parts: the `"timings_us":{...}`
/// block (flat, so it ends at its first `}`) and the trailing
/// `"trace"` member, when present.
fn cut_wallclock(body: &str) -> String {
    let mut kept = body.to_owned();
    if let Some(at) = kept.find(",\"trace\":") {
        kept.replace_range(at..kept.len() - 1, "");
    }
    let at = kept
        .find("\"timings_us\":{")
        .expect("every body has timings_us");
    let close = at + kept[at..].find('}').expect("timings_us closes");
    kept.replace_range(at..=close, "");
    kept
}

/// Asserts `body` is valid JSON already in the writer's canonical form.
fn assert_canonical(body: &str, at: &str) {
    let value = json::parse(body).unwrap_or_else(|e| panic!("{at}: invalid JSON ({e})"));
    assert_eq!(json::to_string(&value), body, "{at}: not in canonical form");
}

/// The tree, memory and `.xks` engines over one corpus.
fn engines(name: &str, tree: &XmlTree) -> [(&'static str, SearchEngine); 3] {
    let dir = std::env::temp_dir().join("xks-render-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.xks"));
    IndexWriter::new().write_tree(tree, &path).unwrap();
    let reader = IndexReader::open(&path).unwrap();
    [
        ("tree", SearchEngine::new(tree.clone())),
        (
            "memory",
            SearchEngine::from_owned_source(MemoryCorpus::new(shred(tree))),
        ),
        ("xks", SearchEngine::from_owned_source(reader)),
    ]
}

/// Renders every (query, backend, algorithm, variant) of one corpus.
fn digest_corpus(name: &str, tree: &XmlTree, queries: &[(String, String)]) -> Vec<String> {
    let engines = engines(name, tree);
    let mut lines = Vec::new();
    for (abbrev, text) in queries {
        for (backend, engine) in &engines {
            for kind in ALGORITHMS {
                for (variant, shape, limit) in VARIANTS {
                    let request = shape(SearchRequest::parse(text).unwrap().algorithm(kind));
                    let response = engine.execute(&request).unwrap();
                    let at = format!(
                        "{name}/{abbrev} {backend} {} {variant}",
                        algorithm_name(kind)
                    );
                    let body =
                        json::to_string(&wire::response_json(engine, &request, &response, limit));
                    assert_canonical(&body, &at);
                    let kept = cut_wallclock(&body);
                    lines.push(format!(
                        "{at}: bytes={} fnv={:016x}",
                        kept.len(),
                        fnv1a(kept.as_bytes())
                    ));
                }
            }
        }
    }
    lines
}

#[test]
fn rendered_bodies_match_golden_digest() {
    let named = |workload: Vec<(&str, String)>| -> Vec<(String, String)> {
        workload
            .into_iter()
            .map(|(abbrev, text)| (abbrev.to_owned(), text))
            .collect()
    };
    let mut lines = digest_corpus(
        "dblp",
        &generate_dblp(&DblpConfig::with_records(1_000, 42)),
        &named(dblp_workload()),
    );
    lines.extend(digest_corpus(
        "xmark",
        &generate_xmark(&XmarkConfig::sized(XmarkSize::Standard, 60, 42)),
        &named(xmark_workload()),
    ));
    let cell = ScenarioSpec::parse(MATRIX_CELL)
        .expect("known cell")
        .generate();
    let cell_queries: Vec<(String, String)> = cell
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| (format!("{}{i}", q.class.name()), q.text.clone()))
        .collect();
    lines.extend(digest_corpus(MATRIX_CELL, &cell.tree, &cell_queries));
    assert_eq!(
        lines.len(),
        (43 + cell_queries.len()) * 3 * ALGORITHMS.len() * VARIANTS.len()
    );

    let rendered = lines.join("\n") + "\n";
    if std::env::var_os("XKS_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_RENDER, &rendered).unwrap();
        eprintln!("blessed {GOLDEN_RENDER}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_RENDER)
        .expect("render golden digest missing; run with XKS_BLESS_GOLDEN=1 to record it");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got, want,
            "render digest line {i} diverged from the golden file"
        );
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "render digest line count diverged"
    );
}

/// Queries whose canonical text needs escaping — quotes, backslashes,
/// non-ASCII — and labels outside `[a-z]`: the rendered body is
/// canonical JSON, and what it says parses back to the exact query
/// text and label names.
#[test]
fn escaped_queries_and_labels_render_canonically() {
    let xml = "<bib>\
        <ns:bõok-item.x><tïtle>Café au lait</tïtle><a-b.c>keyword x\\y</a-b.c></ns:bõok-item.x>\
        <ns:bõok-item.x><tïtle>keyword café</tïtle><a-b.c>naïve search</a-b.c></ns:bõok-item.x>\
        </bib>";
    let tree = xks::xmltree::parse(xml).expect("labels with ':', '-', '.' and non-ASCII parse");
    for (backend, engine) in engines("escapes", &tree) {
        for text in [
            "café keyword",
            "\"keyword café\" naïve",
            "\"keyword x\\y\" lait",
            "keyword a\"b",
            "tïtle:café keyword",
        ] {
            for kind in ALGORITHMS {
                let request = SearchRequest::parse(text).unwrap().algorithm(kind);
                let response = engine.execute(&request).unwrap();
                let body = json::to_string(&wire::response_json(
                    &engine,
                    &request,
                    &response,
                    usize::MAX,
                ));
                let at = format!("{backend} {text:?} {}", algorithm_name(kind));
                assert_canonical(&body, &at);
                let value = json::parse(&body).unwrap();
                assert_eq!(
                    value.get("query").and_then(json::Value::as_str),
                    Some(request.spec().to_string().as_str()),
                    "{at}"
                );
                let labels: Vec<&str> = value
                    .get("hits")
                    .unwrap()
                    .as_arr()
                    .unwrap()
                    .iter()
                    .flat_map(|hit| hit.get("nodes").unwrap().as_arr().unwrap())
                    .map(|node| node.get("label").unwrap().as_str().unwrap())
                    .collect();
                for label in &labels {
                    assert!(
                        ["bib", "ns:bõok-item.x", "tïtle", "a-b.c"].contains(label),
                        "{at}: unexpected label {label:?}"
                    );
                }
                if text == "café keyword" {
                    assert!(
                        labels.contains(&"ns:bõok-item.x") && labels.contains(&"tïtle"),
                        "{at}: the query must reach the escaped labels ({labels:?})"
                    );
                }
            }
        }
    }
}
