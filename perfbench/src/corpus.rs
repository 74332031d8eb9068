//! Seeded inputs and the correctness oracle.
//!
//! Every corpus is an `xks-datagen` corpus whose top-level records are
//! put in an order drawn from `--seed`, serialized to XML text and
//! parsed back — the way a user's file would arrive, so
//! `xks_xmltree::parse` is on the set-up path and the engine under test
//! and the oracle see the same parsed tree.
//!
//! Why the seed orders the records instead of seeding the generators:
//! a fresh draw of a generator moves the work per query (fragments,
//! postings, rendered bytes) by 10–40 % — far more than the bounds
//! later changes are judged by — because 22 or 43 queries sample a
//! heavy-tailed cost distribution. A permutation of the records changes
//! every Dewey code, every postings list, the page each element lands
//! on and the shard each document routes to, while the tree stays
//! isomorphic, so the amount of work is the committed cell's. The
//! generators keep the seeds the repository's goldens use
//! (`MATRIX_SEED` for matrix cells, 2009 for the Figure 5/6 corpora).

use std::time::Instant;

use validrtf::engine::{AlgorithmKind, SearchEngine};
use validrtf::request::{SearchRequest, SearchResponse};
use validrtf::wire;
use xks_datagen::queries::{dblp_workload, xmark_workload};
use xks_datagen::scenario::{ScenarioSpec, Shape, Skew, Tenancy, MATRIX_SEED};
use xks_datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks_store::{shred, ShreddedDoc};
use xks_xmltree::writer::to_xml_subtree;
use xks_xmltree::XmlTree;

use crate::harness::{fnv1a, rotate, FNV_SEED};

/// Generator seed of the Figure 5/6 corpora (the harness seed of
/// `crates/bench`, which the workload golden digest is pinned to).
const PAPER_SEED: u64 = 2009;

/// DBLP-alike records of `paper43-mem`.
pub const DBLP_RECORDS: usize = 2_000;
/// XMark-alike base items per region of `paper43-mem`.
pub const XMARK_BASE_ITEMS: usize = 40;

/// One corpus and its query list, with the set-up ladder's timings.
pub struct Corpus {
    /// The parsed document.
    pub tree: XmlTree,
    /// Its shredded tables.
    pub doc: ShreddedDoc,
    /// Query texts, one operation each.
    pub queries: Vec<String>,
    /// Size of the XML text the tree was parsed from.
    pub xml_bytes: usize,
    /// Seconds in `xks_xmltree::parse`.
    pub parse_s: f64,
    /// Seconds in `xks_store::shred`.
    pub shred_s: f64,
}

impl Corpus {
    /// `generated` with its top-level records in the order `seed` draws.
    fn from_generated(generated: &XmlTree, queries: Vec<String>, seed: u64) -> Corpus {
        let root = generated.root();
        let mut records: Vec<String> = generated
            .node(root)
            .children()
            .iter()
            .map(|&child| to_xml_subtree(generated, child))
            .collect();
        rotate(&mut records, seed);
        let label = generated.label_name(root);
        let xml = format!("<{label}>{}</{label}>", records.concat());
        let started = Instant::now();
        let tree = xks_xmltree::parse(&xml).expect("generated XML parses");
        let parse_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let doc = shred(&tree);
        let shred_s = started.elapsed().as_secs_f64();
        Corpus {
            tree,
            doc,
            queries,
            xml_bytes: xml.len(),
            parse_s,
            shred_s,
        }
    }

    /// Drops the parsed tree and the tables and keeps the query list:
    /// once the backend under test is built and the gate has passed they
    /// are the harness's memory, not the program's, and `rss_peak_mb`
    /// must not carry them.
    pub fn release(&mut self) {
        self.tree = XmlTree::default();
        self.doc = ShreddedDoc::default();
    }

    /// The DBLP-alike half of the paper's workload (18 queries).
    pub fn dblp(seed: u64) -> Corpus {
        let tree = generate_dblp(&DblpConfig::with_records(DBLP_RECORDS, PAPER_SEED));
        let queries = dblp_workload().into_iter().map(|(_, q)| q).collect();
        Corpus::from_generated(&tree, queries, seed)
    }

    /// The XMark-alike half of the paper's workload (25 queries).
    pub fn xmark(seed: u64) -> Corpus {
        let tree = generate_xmark(&XmarkConfig::sized(
            XmarkSize::Standard,
            XMARK_BASE_ITEMS,
            PAPER_SEED,
        ));
        let queries = xmark_workload().into_iter().map(|(_, q)| q).collect();
        Corpus::from_generated(&tree, queries, seed)
    }

    /// A flat single-tenant matrix cell with all of its full-grammar
    /// queries (plain, phrase, exclusion, label, adversarial).
    /// `generator_seed` is the cell's own seed; `seed` orders the records.
    pub fn scenario(scale: u32, skew: Skew, generator_seed: u64, seed: u64) -> Corpus {
        let scenario = ScenarioSpec {
            seed: generator_seed,
            ..ScenarioSpec::new(scale, Shape::Flat, skew, Tenancy::Single)
        }
        .generate();
        let queries = scenario.queries.iter().map(|q| q.text.clone()).collect();
        Corpus::from_generated(&scenario.tree, queries, seed)
    }

    /// The committed matrix cell `s<scale>-flat-<skew>-single`.
    pub fn matrix_cell(scale: u32, skew: Skew, seed: u64) -> Corpus {
        Corpus::scenario(scale, skew, MATRIX_SEED, seed)
    }
}

/// Parses query text the way every workload does: ValidRTF, exact mode.
pub fn request(text: &str) -> SearchRequest {
    SearchRequest::parse(text)
        .expect("workload queries parse")
        .algorithm(AlgorithmKind::ValidRtf)
}

/// Renders a response to the documented JSON bytes.
pub fn render(engine: &SearchEngine, request: &SearchRequest, response: &SearchResponse) -> String {
    xks_store::json::to_string(&wire::response_json(engine, request, response, usize::MAX))
}

/// Cuts the wall-clock `"timings_us":{...}` block out of a rendered
/// body, returning the bytes before and after it (the block holds no
/// nested object, so it ends at its first `}`).
pub fn strip_timings(body: &[u8]) -> Option<(&[u8], &[u8])> {
    const KEY: &[u8] = b"\"timings_us\":{";
    let at = body.windows(KEY.len()).position(|w| w == KEY)?;
    let close = body[at..].iter().position(|&b| b == b'}')?;
    Some((&body[..at], &body[at + close + 1..]))
}

/// The engine-side total, microseconds, a rendered body reports.
pub fn timings_total_us(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"timings_us\":{";
    let at = body.windows(KEY.len()).position(|w| w == KEY)?;
    let block = &body[at..at + body[at..].iter().position(|&b| b == b'}')?];
    const TOTAL: &[u8] = b"\"total\":";
    let t = block.windows(TOTAL.len()).position(|w| w == TOTAL)? + TOTAL.len();
    let digits: Vec<u8> = block[t..]
        .iter()
        .copied()
        .take_while(u8::is_ascii_digit)
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// FNV of a rendered body up to its timings block. Nothing but the
/// optional `trace` block of a traced request may follow the timings,
/// so traced and untraced bodies of one answer hash alike.
pub fn body_fnv(body: &[u8]) -> Option<u64> {
    let (head, tail) = strip_timings(body)?;
    if tail != b"}" && !tail.starts_with(b",\"trace\":") {
        return None;
    }
    let mut hash = FNV_SEED;
    fnv1a(head, &mut hash);
    Some(hash)
}

/// FNV of the part of a rendered body that is the answer itself —
/// algorithm, hits, query — leaving out the `stats` block, whose plan
/// fields legitimately differ between a sealed backend and a mutable
/// overlay (which always takes the merge fallback).
pub fn answer_fnv(body: &[u8]) -> Option<u64> {
    const STATS: &[u8] = b",\"stats\":{";
    let (head, _) = strip_timings(body)?;
    let at = head.windows(STATS.len()).rposition(|w| w == STATS)?;
    let mut hash = FNV_SEED;
    fnv1a(&head[..at], &mut hash);
    Some(hash)
}

/// `e2e.cold_query_ms`: open the backend from its stored form, answer
/// one query, render it, drop everything — what every one-shot
/// `xks search --index` pays. Every query of the list is asked cold in
/// pass after pass — at least `min_passes`, and on until a second has
/// gone by (20 at most); the metric is the plain mean over every cold
/// query asked. Returns it with the number of cold queries behind it.
pub fn cold_query_ms(
    min_passes: usize,
    queries: &[String],
    open: impl Fn() -> SearchEngine,
) -> (f64, usize) {
    let (begun, mut passes) = (Instant::now(), 0);
    let mut total_ms = 0.0;
    while passes < min_passes || (passes < 20 && begun.elapsed().as_secs_f64() < 1.0) {
        for text in queries {
            let started = Instant::now();
            let engine = open();
            let request = request(text);
            let response = engine.execute(&request).expect("cold query executes");
            std::hint::black_box(render(&engine, &request, &response));
            drop(engine);
            total_ms += started.elapsed().as_secs_f64() * 1e3;
        }
        passes += 1;
    }
    let asked = passes * queries.len();
    (total_ms / asked as f64, asked)
}

/// What a correct answer to one query looks like, kept as counts and
/// hashes so the expectation costs no memory worth measuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Hits in the response.
    pub hits: usize,
    /// FNV over the hits' anchor Dewey components, in order.
    pub anchors_fnv: u64,
    /// FNV of the rendered body up to its timings block.
    pub body_fnv: u64,
    /// FNV of the rendered hits alone ([`answer_fnv`]).
    pub answer_fnv: u64,
    /// Resolved postings (`SearchStats.plan_postings`).
    pub postings: u64,
    /// Rendered body length in bytes, timings block not counted.
    pub body_len: usize,
}

/// The cheap per-response check: hit count plus FNV of the anchors.
pub fn anchors_fnv(response: &SearchResponse) -> u64 {
    let mut hash = FNV_SEED;
    for hit in &response.hits {
        for component in hit.fragment.anchor.components() {
            fnv1a(&component.to_le_bytes(), &mut hash);
        }
        fnv1a(&[0xFF], &mut hash);
    }
    hash
}

impl Expected {
    /// True when `other` is the same answer — hits, anchors, rendered
    /// hits — whatever its `stats` block says about the plan.
    pub fn same_answer(&self, other: &Expected) -> bool {
        (self.hits, self.anchors_fnv, self.answer_fnv)
            == (other.hits, other.anchors_fnv, other.answer_fnv)
    }

    /// True when `response` has the expected hits and anchors.
    pub fn matches(&self, response: &SearchResponse) -> bool {
        response.hits.len() == self.hits && anchors_fnv(response) == self.anchors_fnv
    }
}

/// Runs every query through `engine` and returns what it answered.
pub fn answers(engine: &SearchEngine, queries: &[String]) -> Vec<Expected> {
    queries
        .iter()
        .map(|text| {
            let request = request(text);
            let response = engine.execute(&request).expect("workload query executes");
            let body = render(engine, &request, &response);
            let (head, tail) = strip_timings(body.as_bytes()).expect("rendered body has timings");
            Expected {
                hits: response.hits.len(),
                anchors_fnv: anchors_fnv(&response),
                body_fnv: body_fnv(body.as_bytes()).expect("nothing follows the timings"),
                answer_fnv: answer_fnv(body.as_bytes()).expect("rendered body has stats"),
                postings: response.stats.plan_postings,
                body_len: head.len() + tail.len(),
            }
        })
        .collect()
}

/// The correctness gate: `engine` must answer every query exactly as
/// the `SearchEngine::new(tree)` oracle does — same hits, same anchors,
/// same rendered bytes once `timings_us` is cut. Returns the oracle's
/// answers, which the measured loops re-check each response against.
pub fn gate(
    label: &str,
    tree: &XmlTree,
    queries: &[String],
    engine: &SearchEngine,
) -> Vec<Expected> {
    let oracle = SearchEngine::new(tree.clone());
    let want = answers(&oracle, queries);
    let got = answers(engine, queries);
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        // `plan_postings` is planner telemetry inside the body; the
        // backends agree on it, so it takes part in the byte equality.
        if w != g {
            eprintln!(
                "perfbench: correctness gate failed on {label} query {:?}: oracle {w:?}, engine {g:?}",
                queries[i]
            );
            std::process::exit(2);
        }
    }
    want
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_cut_and_read() {
        let body = br#"{"hits":[],"timings_us":{"get_lca":3,"total":41},"trace":{}}"#;
        let (head, tail) = strip_timings(body).unwrap();
        assert_eq!(head, br#"{"hits":[],"#);
        assert_eq!(tail, br#","trace":{}}"#);
        assert_eq!(timings_total_us(body), Some(41));
        let a = br#"{"hits":[1],"query":"q","stats":{"plan_strategy":"gallop"},"timings_us":{"total":1}}"#;
        let b = br#"{"hits":[1],"query":"q","stats":{"plan_strategy":"full-merge"},"timings_us":{"total":9}}"#;
        assert_eq!(answer_fnv(a), answer_fnv(b));
        assert_ne!(body_fnv(a), body_fnv(b));
        assert!(strip_timings(b"{}").is_none());
    }

    #[test]
    fn gate_accepts_the_memory_backend() {
        let corpus = Corpus::matrix_cell(1, Skew::Zipf, 7);
        let engine =
            SearchEngine::from_owned_source(validrtf::MemoryCorpus::new(corpus.doc.clone()));
        let expected = gate("test", &corpus.tree, &corpus.queries, &engine);
        assert_eq!(expected.len(), corpus.queries.len());
        assert!(expected.iter().any(|e| e.hits > 0));
    }
}
