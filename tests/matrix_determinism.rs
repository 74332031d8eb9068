//! Determinism pin for the workload matrix: the same [`ScenarioSpec`]
//! must expand to a byte-identical corpus and query set every time —
//! otherwise the matrix golden digest, `perfbench`'s workloads over
//! these cells, and any cross-machine comparison are meaningless.
//!
//! `cargo test` checks the smoke cells (scale 1, every shape/skew/
//! tenancy); the full 12-cell grid — including the 6000-record
//! scale-100 corners — runs under `XKS_FULL_MATRIX=1`, mirroring the
//! crash-matrix lane's env-gated full sweep.

use xks::datagen::scenario::{Scenario, ScenarioSpec};
use xks::xmltree::writer::to_xml_compact;

fn specs_under_test() -> Vec<ScenarioSpec> {
    if std::env::var_os("XKS_FULL_MATRIX").is_some() {
        ScenarioSpec::matrix()
    } else {
        ScenarioSpec::smoke()
    }
}

fn queries_blob(scenario: &Scenario) -> String {
    scenario
        .queries
        .iter()
        .map(|q| format!("{}\t{}\n", q.class.name(), q.text))
        .collect()
}

/// Same spec, two expansions → byte-identical XML and query set.
#[test]
fn same_seed_is_byte_identical() {
    for spec in specs_under_test() {
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(
            to_xml_compact(&a.tree),
            to_xml_compact(&b.tree),
            "{}: corpus XML diverged between generations",
            spec.name()
        );
        assert_eq!(
            queries_blob(&a),
            queries_blob(&b),
            "{}: query set diverged between generations",
            spec.name()
        );
    }
}

/// The structural fingerprint (labels, deweys, text) agrees too — the
/// XML writer cannot mask a tree-level divergence.
#[test]
fn same_seed_has_identical_fingerprint() {
    for spec in specs_under_test() {
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(
            a.tree.fingerprint(),
            b.tree.fingerprint(),
            "{}: tree fingerprint diverged",
            spec.name()
        );
    }
}

/// A different seed must actually change the corpus (the seed is
/// load-bearing, not decorative).
#[test]
fn different_seed_changes_the_corpus() {
    let base = ScenarioSpec::parse("s1-flat-zipf-single").expect("known cell");
    let reseeded = ScenarioSpec {
        seed: base.seed ^ 1,
        ..base
    };
    assert_ne!(
        to_xml_compact(&base.generate().tree),
        to_xml_compact(&reseeded.generate().tree),
    );
}
