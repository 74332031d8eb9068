//! Property tests for the PR 10 quality harness itself
//! (`validrtf::quality`): score bounds over random documents, the
//! ValidRTF fixed point on every generated scenario, and detection of
//! deliberately broken oracles (an SLCA miss on a crafted nesting and
//! a monotonicity-breaking duplicator).

use proptest::prelude::*;
use xks::core::axioms::Algorithm;
use xks::core::quality::{algorithms, assess, assess_all, QualityConfig};
use xks::core::{max_match_slca, valid_rtf, Fragment};
use xks::datagen::random_tree::{random_document, word, RandomDocConfig};
use xks::datagen::scenario::{QueryClass, Scenario, ScenarioSpec};
use xks::index::{InvertedIndex, Query};
use xks::xmltree::XmlTree;

fn doc(nodes: usize, seed: u64) -> XmlTree {
    random_document(&RandomDocConfig {
        nodes,
        labels: 3,
        words: 4,
        max_words_per_node: 2,
        seed,
    })
}

/// Keyword-only queries of a scenario, as the quality pass consumes
/// them (grammar operators are engine-level; `Algorithm` speaks plain
/// conjunctions).
fn quality_queries(scenario: &Scenario) -> Vec<Query> {
    let mut queries = Vec::new();
    for class in [QueryClass::Plain, QueryClass::Adversarial] {
        for text in scenario.queries_of(class) {
            queries.push(Query::parse(text).expect("plain/adversarial queries are keyword lists"));
        }
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Precision, recall, F1, and the combined score all stay in
    /// `[0, 1]` for every algorithm over random documents and queries.
    #[test]
    fn scores_stay_in_bounds(
        nodes in 2usize..40,
        seed in any::<u64>(),
        k in 1usize..4,
    ) {
        let tree = doc(nodes, seed);
        let words: Vec<String> = (0..k).map(word).collect();
        let queries = vec![Query::from_words(&words).expect("non-empty")];
        for (name, algo) in algorithms() {
            let report = assess(&tree, &queries, algo, &QualityConfig::default());
            for (metric, v) in [
                ("precision", report.precision),
                ("recall", report.recall),
                ("f1", report.f1),
                ("score", report.score()),
            ] {
                prop_assert!(
                    (0.0..=1.0).contains(&v),
                    "{name}: {metric} = {v} out of bounds"
                );
            }
            prop_assert!(report.axioms.violations() <= report.axioms.checks);
        }
    }
}

/// ValidRTF is the fixed point of its own reference: perfect
/// precision/recall and zero axiom violations — score exactly 1.0 —
/// on every smoke scenario (every shape, both skews, both tenancy
/// mixes) — and neither baseline outscores it in any cell. The full
/// 12-cell grid runs under `XKS_FULL_MATRIX=1`.
#[test]
fn valid_rtf_scores_one_on_every_scenario() {
    let specs = if std::env::var_os("XKS_FULL_MATRIX").is_some() {
        ScenarioSpec::matrix()
    } else {
        ScenarioSpec::smoke()
    };
    for spec in specs {
        let scenario = spec.generate();
        let queries = quality_queries(&scenario);
        assert!(!queries.is_empty(), "{}: no quality queries", spec.name());
        let cfg = QualityConfig::for_tree(&scenario.tree);
        let reports = assess_all(&scenario.tree, &queries, &cfg);
        let (first, report) = &reports[0];
        assert_eq!(*first, "valid_rtf");
        assert_eq!(report.precision, 1.0, "{}", spec.name());
        assert_eq!(report.recall, 1.0, "{}", spec.name());
        assert_eq!(
            report.axioms.violations(),
            0,
            "{}: {:?}",
            spec.name(),
            report.axioms
        );
        assert_eq!(report.score(), 1.0, "{}", spec.name());
        for (algo, baseline) in &reports[1..] {
            assert!(
                baseline.score() <= report.score(),
                "{}: {algo} scored {} above valid_rtf",
                spec.name(),
                baseline.score()
            );
        }
    }
}

/// A crafted nesting where the root is an interesting LCA *above* the
/// SLCA: SLCA-MaxMatch misses the upper anchor, and the harness must
/// report the recall loss rather than a perfect score.
#[test]
fn slca_on_crafted_nesting_is_detected() {
    use xks::xmltree::TreeBuilder;
    let mut b = TreeBuilder::new("r");
    b.open("s");
    b.leaf("t", "xml keyword");
    b.close();
    b.leaf("u", "xml");
    b.leaf("v", "keyword");
    let tree = b.build();

    let queries = vec![Query::parse("xml keyword").unwrap()];
    let report = assess(&tree, &queries, max_match_slca, &QualityConfig::default());
    assert!(report.recall < 1.0, "recall = {}", report.recall);
    assert!(report.score() < 1.0);
}

/// A deliberately broken oracle — returns nothing as soon as the
/// corpus contains a label it has never seen — scores perfectly on the
/// unperturbed set-overlap metrics, but the axiom pass inserts exactly
/// such a node (labeled `probe`) and must flag the resulting
/// data-monotonicity collapse with a nonzero violation count that
/// drags the combined score below F1.
#[test]
fn broken_oracle_yields_nonzero_violations() {
    fn broken(tree: &XmlTree, index: &InvertedIndex, query: &Query) -> Vec<Fragment> {
        if tree.preorder().any(|id| tree.label_name(id) == "probe") {
            return Vec::new();
        }
        valid_rtf(tree, index, query)
    }

    let scenario = ScenarioSpec::parse("s1-flat-zipf-single")
        .expect("known cell")
        .generate();
    let queries = quality_queries(&scenario);
    let report = assess(
        &scenario.tree,
        &queries,
        broken as Algorithm,
        &QualityConfig::default(),
    );
    assert!(
        report.axioms.violations() > 0,
        "broken oracle not flagged: {:?}",
        report.axioms
    );
    assert!(report.score() < report.f1);
}
