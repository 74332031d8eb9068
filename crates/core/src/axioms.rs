//! Checkers for the four axiomatic XKS properties (Liu & Chen, §1 of the
//! paper).
//!
//! The paper claims (§4.3, analysis (2)) that ValidRTF satisfies all
//! four. Each checker runs an algorithm before and after a perturbation
//! (data insertion or query extension) and verifies the property; the
//! property tests in `tests/axiom_properties.rs` exercise them over
//! random documents, queries and perturbations, for ValidRTF *and* the
//! revised MaxMatch.
//!
//! The result-counting unit is the fragment (one result per interesting
//! LCA anchor), matching the paper's "number of query results".

use std::collections::BTreeSet;

use xks_index::{InvertedIndex, Query};
use xks_xmltree::content::node_content;
use xks_xmltree::{Dewey, XmlTree};

use crate::fragment::Fragment;

/// An algorithm under test: document + query → meaningful fragments.
pub type Algorithm = fn(&XmlTree, &InvertedIndex, &Query) -> Vec<Fragment>;

/// Outcome of one axiom check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxiomOutcome {
    /// The property holds for this instance.
    Holds,
    /// The property is violated; the message explains how.
    Violated(String),
}

impl AxiomOutcome {
    /// `true` when the property holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, AxiomOutcome::Holds)
    }
}

fn run(algo: Algorithm, tree: &XmlTree, query: &Query) -> Vec<Fragment> {
    let index = InvertedIndex::build(tree);
    algo(tree, &index, query)
}

/// **Data monotonicity**: inserting a node never decreases the number of
/// query results.
#[must_use]
pub fn check_data_monotonicity(
    algo: Algorithm,
    before: &XmlTree,
    after: &XmlTree,
    query: &Query,
) -> AxiomOutcome {
    let nb = run(algo, before, query).len();
    let na = run(algo, after, query).len();
    if na >= nb {
        AxiomOutcome::Holds
    } else {
        AxiomOutcome::Violated(format!(
            "result count dropped from {nb} to {na} after data insertion"
        ))
    }
}

/// **Query monotonicity**: adding a keyword never increases the number
/// of query results.
#[must_use]
pub fn check_query_monotonicity(
    algo: Algorithm,
    tree: &XmlTree,
    query: &Query,
    extended: &Query,
) -> AxiomOutcome {
    let nq = run(algo, tree, query).len();
    let ne = run(algo, tree, extended).len();
    if ne <= nq {
        AxiomOutcome::Holds
    } else {
        AxiomOutcome::Violated(format!(
            "result count grew from {nq} to {ne} after adding a keyword"
        ))
    }
}

/// **Data consistency** (result-level reading): after inserting one
/// node, every fragment appearing at a **new anchor** must contain the
/// inserted node.
///
/// Liu & Chen state the axiom as "each additional subtree which becomes
/// (part of) a query result should contain the newly inserted node".
/// This checker reads "additional subtree" at the granularity of whole
/// results (new anchors); [`check_data_consistency_strict`] reads it at
/// node granularity and is *provably violated* by both contributor and
/// valid-contributor pruning over all-LCA anchors — see its docs.
#[must_use]
pub fn check_data_consistency(
    algo: Algorithm,
    before: &XmlTree,
    after: &XmlTree,
    inserted: &Dewey,
    query: &Query,
) -> AxiomOutcome {
    let fb = run(algo, before, query);
    let fa = run(algo, after, query);

    let anchors_before: BTreeSet<Dewey> = fb.iter().map(|f| f.anchor.clone()).collect();
    for f in &fa {
        if !anchors_before.contains(&f.anchor) && !f.contains(inserted) {
            return AxiomOutcome::Violated(format!(
                "new fragment at {} does not contain the inserted node {}",
                f.anchor, inserted
            ));
        }
    }
    AxiomOutcome::Holds
}

/// **Data consistency, strict node-level reading**: additionally
/// requires that an *existing* anchor's fragment may only gain nodes
/// when it contains the inserted node.
///
/// This stricter reading does **not** hold for RTF-based retrieval —
/// neither for MaxMatch's contributor nor for the valid contributor.
/// The mechanism: inserting a keyword occurrence can turn an interior
/// node into a new (deeper) interesting LCA, which *drains* the keyword
/// nodes of one branch out of an ancestor's partition; with that branch
/// gone, a sibling whose keyword set used to be strictly covered by the
/// branch's is suddenly uncovered and re-qualifies — the ancestor's
/// fragment gains a node that has nothing to do with the insertion.
/// `tests::strict_data_consistency_counterexample` in this module pins
/// a concrete counterexample.
#[must_use]
pub fn check_data_consistency_strict(
    algo: Algorithm,
    before: &XmlTree,
    after: &XmlTree,
    inserted: &Dewey,
    query: &Query,
) -> AxiomOutcome {
    if let AxiomOutcome::Violated(v) = check_data_consistency(algo, before, after, inserted, query)
    {
        return AxiomOutcome::Violated(v);
    }
    let fb = run(algo, before, query);
    let fa = run(algo, after, query);
    for f in &fa {
        let Some(old) = fb.iter().find(|g| g.anchor == f.anchor) else {
            continue;
        };
        let old_nodes: BTreeSet<Dewey> = old.deweys().into_iter().collect();
        let new_nodes: BTreeSet<Dewey> = f.deweys().into_iter().collect();
        let added: Vec<&Dewey> = new_nodes.difference(&old_nodes).collect();
        if !added.is_empty() && !new_nodes.contains(inserted) {
            return AxiomOutcome::Violated(format!(
                "fragment at {} gained nodes {:?} without containing the inserted node {}",
                f.anchor, added, inserted
            ));
        }
    }
    AxiomOutcome::Holds
}

/// **Query consistency**: after adding keyword `w`, every result
/// fragment must contain at least one match to `w`.
#[must_use]
pub fn check_query_consistency(
    algo: Algorithm,
    tree: &XmlTree,
    extended: &Query,
    added_keyword: &str,
) -> AxiomOutcome {
    let fragments = run(algo, tree, extended);
    for f in &fragments {
        let has_match = f.iter().any(|n| {
            tree.node_by_dewey(&n.dewey)
                .is_some_and(|id| node_content(tree, id).contains(added_keyword))
        });
        if !has_match {
            return AxiomOutcome::Violated(format!(
                "fragment at {} has no match for added keyword {added_keyword:?}",
                f.anchor
            ));
        }
    }
    AxiomOutcome::Holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{max_match_rtf, valid_rtf};
    use xks_xmltree::fixtures::publications;

    fn q(s: &str) -> Query {
        Query::parse(s).unwrap()
    }

    #[test]
    fn data_monotonicity_on_fixture_insertion() {
        let before = publications();
        let mut after = before.clone();
        // A second article about XML keyword search creates a second
        // all-keyword partition for Q = "xml keyword".
        let articles = after.node_by_dewey(&"0.2".parse().unwrap()).unwrap();
        let art = after.insert_subtree(articles, "article", None);
        after.insert_subtree(art, "title", Some("XML keyword search revisited"));
        for algo in [valid_rtf as Algorithm, max_match_rtf as Algorithm] {
            assert!(check_data_monotonicity(algo, &before, &after, &q("xml keyword")).holds());
        }
    }

    #[test]
    fn query_monotonicity_on_fixture() {
        let tree = publications();
        let base = q("keyword");
        let ext = base.with_keyword("liu").unwrap();
        for algo in [valid_rtf as Algorithm, max_match_rtf as Algorithm] {
            assert!(check_query_monotonicity(algo, &tree, &base, &ext).holds());
        }
    }

    #[test]
    fn data_consistency_on_fixture() {
        let before = publications();
        let mut after = before.clone();
        let articles = after.node_by_dewey(&"0.2".parse().unwrap()).unwrap();
        let art = after.insert_subtree(articles, "article", None);
        let title = after.insert_subtree(art, "title", Some("XML keyword search revisited"));
        let inserted = after.dewey(title).clone();
        for algo in [valid_rtf as Algorithm, max_match_rtf as Algorithm] {
            assert!(
                check_data_consistency(algo, &before, &after, &inserted, &q("xml keyword")).holds()
            );
        }
    }

    #[test]
    fn query_consistency_on_fixture() {
        let tree = publications();
        let ext = q("keyword").with_keyword("liu").unwrap();
        for algo in [valid_rtf as Algorithm, max_match_rtf as Algorithm] {
            assert!(check_query_consistency(algo, &tree, &ext, "liu").holds());
        }
    }

    /// The minimal counterexample behind the strict-reading caveat (see
    /// [`check_data_consistency_strict`]): inserting `w2` under `0.0`
    /// turns `0.0` into a new interesting LCA, drains its keyword nodes
    /// out of the root partition, and thereby *un-prunes* the siblings
    /// `0.1`/`0.2` whose keyword sets had been covered by branch `0.0`.
    /// Both pruning policies gain nodes unrelated to the insertion —
    /// the strict reading fails while the result-level axiom holds.
    #[test]
    fn strict_data_consistency_counterexample() {
        use xks_xmltree::TreeBuilder;

        let mut b = TreeBuilder::new("r");
        b.open("a");
        b.leaf("b", "w0 w1");
        b.close();
        b.leaf("a", "w0");
        b.leaf("a", "w1");
        b.leaf("a", "w2");
        let before = b.build();

        let mut after = before.clone();
        let branch = after.node_by_dewey(&"0.0".parse().unwrap()).unwrap();
        let ins = after.insert_subtree(branch, "c", Some("w2"));
        let inserted = after.dewey(ins).clone();
        let query = q("w0 w1 w2");

        for algo in [valid_rtf as Algorithm, max_match_rtf as Algorithm] {
            let strict = check_data_consistency_strict(algo, &before, &after, &inserted, &query);
            assert!(
                matches!(strict, AxiomOutcome::Violated(ref m) if m.contains("gained")),
                "expected strict violation, got {strict:?}"
            );
            assert!(
                check_data_consistency(algo, &before, &after, &inserted, &query).holds(),
                "result-level reading must hold"
            );
        }
    }

    #[test]
    fn violation_is_reported() {
        // A deliberately broken "algorithm" that returns more fragments
        // for longer queries.
        fn broken(tree: &XmlTree, index: &InvertedIndex, query: &Query) -> Vec<Fragment> {
            let frags = valid_rtf(tree, index, query);
            if query.len() > 1 {
                // duplicate everything
                frags.iter().cloned().chain(frags.clone()).collect()
            } else {
                frags
            }
        }
        let tree = publications();
        let base = q("keyword");
        let ext = base.with_keyword("xml").unwrap();
        let out = check_query_monotonicity(broken as Algorithm, &tree, &base, &ext);
        assert!(!out.holds());
        assert!(matches!(out, AxiomOutcome::Violated(msg) if msg.contains("grew")));
    }
}
