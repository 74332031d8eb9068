//! Operator differential against a literal reference.
//!
//! For every scale-1 matrix cell (flat/deep/wide × uniform/zipf ×
//! single/multi8), each backend — the parsed tree, a `MemoryCorpus` and
//! a monolithic `.xks` reader — answers every operator query of the
//! cell, plus seeded random phrase, exclusion and label specs drawn
//! from its vocabulary, under ValidRTF and MaxMatch. The expected
//! answer is the operator-free query with the same positive keywords,
//! filtered by docs/API.md's three rules, read literally in
//! `tests/common/reference.rs`. Hits, `filtered_out` and
//! `total_before_top_k` must all agree.

mod common;

use common::reference::{judge, postings};
use xks::core::{AlgorithmKind, MemoryCorpus, SearchEngine, SearchRequest};
use xks::datagen::scenario::{Scenario, ScenarioSpec, Shape, Skew, Tenancy};
use xks::persist::{IndexReader, IndexWriter};
use xks::xmltree::Dewey;

const ALGORITHMS: [AlgorithmKind; 2] = [AlgorithmKind::ValidRtf, AlgorithmKind::MaxMatchRtf];

/// Random operator specs drawn per cell.
const RANDOM_SPECS: usize = 64;

/// Labels the random label filters pick from: every element name the
/// generator writes, and one it never does.
const LABELS: [&str; 9] = [
    "corpus", "tenant", "rec", "title", "body", "sec", "p", "f", "nosuch",
];

/// The scale-1 cells: every shape × skew × tenancy.
fn cells() -> Vec<ScenarioSpec> {
    let mut cells = Vec::new();
    for shape in [Shape::Flat, Shape::Deep, Shape::Wide] {
        for skew in [Skew::Uniform, Skew::Zipf] {
            for tenancy in [Tenancy::Single, Tenancy::Multi(8)] {
                cells.push(ScenarioSpec::new(1, shape, skew, tenancy));
            }
        }
    }
    cells
}

/// A small deterministic generator (xorshift64*), so the random specs
/// are the same on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

/// A planted word of the cell, biased toward the frequent ranks so the
/// positive keywords usually co-occur.
fn word(rng: &mut Rng, scenario: &Scenario) -> String {
    let rank = rng.below(12).min(rng.below(40));
    match scenario.tenants {
        1 => format!("w{rank}"),
        tenants => format!("t{}w{rank}", rng.below(tenants)),
    }
}

/// Seeded phrase, exclusion, label and mixed specs over the cell's
/// vocabulary.
fn random_specs(scenario: &Scenario, seed: u64) -> Vec<String> {
    let mut rng = Rng(seed | 1);
    (0..RANDOM_SPECS)
        .map(|i| {
            let mut w = || word(&mut rng, scenario);
            let (a, b, c, d) = (w(), w(), w(), w());
            let label = LABELS[rng.below(LABELS.len())];
            // The longer forms leave room for a sibling whose keyword
            // set strictly contains the witness's, so pruning can drop
            // a witness the raw RTF had.
            match i % 6 {
                0 => format!("\"{a} {b}\" {c}"),
                1 => format!("{a} {b} -{c}"),
                2 => format!("{label}:{a} {b}"),
                3 => format!("\"{a} {b}\" {label}:{c} -{d}"),
                4 => format!("\"{a} {b}\" {c} {d}"),
                _ => format!("{label}:{a} {b} {c} {d}"),
            }
        })
        .collect()
}

/// Fragments the reference rejected, per rule, over the whole run.
#[derive(Debug, Default)]
struct Rejects {
    phrase: usize,
    label: usize,
    exclusion: usize,
    kept: usize,
}

/// Runs one operator query on `engine` and checks it against the
/// literal reference; `at` names the case in failure messages.
fn check(engine: &SearchEngine, request: &SearchRequest, at: &str, rejects: &mut Rejects) {
    let spec = request.spec();
    let source = engine.source();
    let plain = engine
        .execute(&SearchRequest::from_query(spec.query().clone()).algorithm(request.kind()))
        .expect("in-process query");
    let rtfs = plain.stats.total_before_top_k;
    let postings = postings(spec, |word| {
        source.try_keyword_deweys(word).expect("in-process read")
    });
    let mut want = Vec::new();
    for fragment in plain.hits.into_iter().map(|h| h.fragment) {
        let knodes: Vec<(&Dewey, String)> = (fragment.iter().filter(|n| n.is_keyword))
            .map(|n| {
                (
                    &n.dewey,
                    source.label_name(n.label.as_u32()).unwrap_or_default(),
                )
            })
            .collect();
        let verdict = judge(&fragment.anchor, &knodes, spec, &postings);
        rejects.phrase += usize::from(verdict.phrase);
        rejects.label += usize::from(verdict.label);
        rejects.exclusion += usize::from(verdict.exclusion);
        if verdict.keeps() {
            want.push(fragment);
        }
    }
    rejects.kept += want.len();

    let got = engine.execute(request).expect("in-process query");
    assert_eq!(got.stats.filtered_out, rtfs - want.len(), "{at}");
    assert_eq!(got.stats.total_before_top_k, want.len(), "{at}");
    assert!(!got.stats.truncated, "{at}");
    let got: Vec<_> = got.hits.into_iter().map(|h| h.fragment).collect();
    assert_eq!(got, want, "{at}");
}

#[test]
fn operator_queries_match_the_literal_rules_on_every_small_cell() {
    let dir = std::env::temp_dir().join(format!("xks-operator-filters-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rejects = Rejects::default();
    let mut queries = 0;
    for (c, cell) in cells().into_iter().enumerate() {
        let scenario = cell.generate();
        let doc = xks::store::shred(&scenario.tree);
        let path = dir.join(format!("{}.xks", cell.name()));
        IndexWriter::new().write(&doc, &path).unwrap();
        let engines = [
            ("tree", SearchEngine::new(scenario.tree.clone())),
            (
                "memory",
                SearchEngine::from_owned_source(MemoryCorpus::new(doc)),
            ),
            (
                "xks",
                SearchEngine::from_owned_source(IndexReader::open(&path).unwrap()),
            ),
        ];
        let mut texts: Vec<String> = scenario
            .queries
            .iter()
            .map(|q| q.text.clone())
            .filter(|text| !SearchRequest::parse(text).unwrap().spec().is_plain())
            .collect();
        texts.extend(random_specs(&scenario, 0x2009 + c as u64));
        for text in &texts {
            // A random draw can repeat a word in a way the grammar
            // refuses; such a spec has no answer to compare.
            let Ok(request) = SearchRequest::parse(text) else {
                continue;
            };
            queries += 1;
            for (backend, engine) in &engines {
                for kind in ALGORITHMS {
                    let at = format!("{} {backend} {text:?} {kind:?}", cell.name());
                    check(engine, &request.clone().algorithm(kind), &at, &mut rejects);
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    // The run must exercise every rule and keep answers too, or the
    // comparison above proves nothing.
    assert!(queries >= 12 * RANDOM_SPECS, "only {queries} specs parsed");
    assert!(
        rejects.phrase > 0 && rejects.label > 0 && rejects.exclusion > 0 && rejects.kept > 0,
        "{rejects:?}"
    );
}
