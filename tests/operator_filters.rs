//! Operator differential against a literal reference.
//!
//! For every scale-1 matrix cell (flat/deep/wide × uniform/zipf ×
//! single/multi8), each backend — the parsed tree, a `MemoryCorpus` and
//! a monolithic `.xks` reader — answers every operator query of the
//! cell, plus seeded random phrase, exclusion and label specs drawn
//! from its vocabulary, under ValidRTF and MaxMatch. The expected
//! answer is the operator-free query with the same positive keywords,
//! filtered by docs/API.md's three rules read literally here: a phrase
//! needs one keyword node of the fragment holding every word of the
//! group, a label filter one keyword node holding the word under that
//! label, and an exclusion no posting of the word anywhere in the
//! anchor's subtree. Hits, `filtered_out` and `total_before_top_k`
//! must all agree, with and without a `max_fragments` cap.

use std::collections::HashMap;

use xks::core::{AlgorithmKind, CorpusSource, Fragment, MemoryCorpus, SearchEngine, SearchRequest};
use xks::datagen::scenario::{Scenario, ScenarioSpec, Shape, Skew, Tenancy};
use xks::index::QuerySpec;
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

/// Which of docs/API.md's rules reject a fragment, read literally over
/// the corpus postings (node-level: a node is in a word's postings when
/// its own content holds the word).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Verdict {
    phrase: bool,
    label: bool,
    exclusion: bool,
}

impl Verdict {
    fn keeps(self) -> bool {
        !(self.phrase || self.label || self.exclusion)
    }
}

/// Every word of `spec`, positive or excluded, with its postings.
type Postings<'a> = HashMap<&'a String, Vec<Dewey>>;

fn postings<'a>(spec: &'a QuerySpec, source: &dyn CorpusSource) -> Postings<'a> {
    (spec.query().keywords().iter())
        .chain(spec.exclusions())
        .map(|word| {
            (
                word,
                source.try_keyword_deweys(word).expect("in-process read"),
            )
        })
        .collect()
}

fn judge(
    fragment: &Fragment,
    spec: &QuerySpec,
    postings: &Postings<'_>,
    source: &dyn CorpusSource,
) -> Verdict {
    let holds = |dewey: &Dewey, word: &String| postings[word].binary_search(dewey).is_ok();
    let keywords = spec.query().keywords();
    let phrase = !spec.phrases().iter().all(|group| {
        fragment
            .iter()
            .any(|n| n.is_keyword && group.iter().all(|&p| holds(&n.dewey, &keywords[p])))
    });
    let label = !spec.label_filters().iter().all(|filter| {
        fragment.iter().any(|n| {
            n.is_keyword
                && holds(&n.dewey, &keywords[filter.position])
                && source
                    .label_name(n.label.as_u32())
                    .is_some_and(|name| name.to_lowercase() == filter.label)
        })
    });
    let exclusion = spec.exclusions().iter().any(|word| {
        postings[word]
            .iter()
            .any(|d| fragment.anchor.is_ancestor_or_self(d))
    });
    Verdict {
        phrase,
        label,
        exclusion,
    }
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
    let postings = postings(spec, source);
    let mut want = Vec::new();
    for fragment in plain.into_fragments() {
        let verdict = judge(&fragment, spec, &postings, source);
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
    assert_eq!(got.into_fragments(), want, "{at}");

    // The cap applies after the checks, in document order.
    let cap = 2;
    let capped = engine
        .execute(&request.clone().max_fragments(cap))
        .expect("in-process query");
    assert_eq!(capped.stats.total_before_top_k, want.len(), "{at} capped");
    assert_eq!(capped.stats.truncated, want.len() > cap, "{at} capped");
    want.truncate(cap);
    assert_eq!(capped.into_fragments(), want, "{at} capped");
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
