//! Property tests for the pruning step, aimed at the one builder
//! (`lay_out` → `decide` → `emit`): structural invariants plus
//! Definition 4 and the contributor filter checked **group by group**
//! against their literal statement (`tests/common/reference.rs`), on
//! random documents.

mod common;

use common::reference::{contributors, valid_contributors, Child};
use proptest::prelude::*;
use xks::core::fragment::FragNode;
use xks::core::prune::{prune, Policy};
use xks::core::{dispatch, Fragment, QueryContext};
use xks::datagen::random_tree::{random_document, word, RandomDocConfig};
use xks::index::{InvertedIndex, Query};
use xks::lca::{elca_into_context, SkeletonScratch};
use xks::xmltree::{Dewey, XmlTree};

/// Per RTF of the `k`-keyword query: the raw fragment and the fragment
/// the builder prunes in one pass under each policy.
struct Built {
    raw: Fragment,
    valid: Fragment,
    contributor: Fragment,
}

fn build_all(tree: &XmlTree, k: usize) -> Vec<Built> {
    let index = InvertedIndex::build(tree);
    let keywords: Vec<String> = (0..k).map(word).collect();
    let query = Query::from_words(&keywords).expect("non-empty");
    let Some(sets) = index.resolve(&query) else {
        return Vec::new();
    };
    let mut ctx = QueryContext::new();
    elca_into_context(sets.sets(), &mut ctx);
    let parts = dispatch(&ctx.anchors, &ctx.merged, k, true, &mut ctx.rtf);
    let mut skel = SkeletonScratch::default();
    (0..parts.len())
        .map(|i| {
            let mut build = |policy| {
                Fragment::build(tree, parts.anchor(i), parts.knodes(i), policy, &mut skel)
                    .expect("tree holds every keyword node")
            };
            Built {
                raw: build(None),
                valid: build(Some(Policy::ValidContributor)),
                contributor: build(Some(Policy::Contributor)),
            }
        })
        .collect()
}

/// A fragment node as the literal rules see it.
fn child(n: &FragNode) -> Child<'_> {
    Child {
        dewey: &n.dewey,
        kset: n.kset.0,
        cid: n.cid.as_ref().map(|(min, max)| (&**min, &**max)),
    }
}

/// Definition 4 rules 1, 2(a), 2(b) under every surviving parent: the
/// kept children are exactly the rule's survivors of the raw same-label
/// groups.
fn assert_valid_contributors(built: &Built) {
    for n in built.valid.iter() {
        let mut want: Vec<&Dewey> = built
            .raw
            .label_groups(&n.dewey)
            .iter()
            .flat_map(|g| {
                valid_contributors(&g.children.iter().map(|c| child(c)).collect::<Vec<_>>())
            })
            .collect();
        want.sort_unstable();
        let got: Vec<&Dewey> = built.valid.children(&n.dewey).map(|c| &c.dewey).collect();
        assert_eq!(got, want, "children of {}", n.dewey);
    }
}

fn doc(nodes: usize, labels: usize, words: usize, seed: u64) -> XmlTree {
    random_document(&RandomDocConfig {
        nodes,
        labels,
        words,
        max_words_per_node: 2,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pruning_structural_invariants(
        nodes in 2usize..50,
        labels in 1usize..4,
        words in 2usize..5,
        seed in any::<u64>(),
        k in 1usize..4,
    ) {
        let tree = doc(nodes, labels, words, seed);
        for built in build_all(&tree, k) {
            let raw = &built.raw;
            for (policy, pruned) in [
                (Policy::ValidContributor, &built.valid),
                (Policy::Contributor, &built.contributor),
            ] {
                // One pass and the public two-step agree.
                prop_assert_eq!(pruned, &prune(raw, policy));
                // Subset of the raw fragment, anchor retained.
                prop_assert!(pruned.contains(&raw.anchor));
                prop_assert!(pruned.len() <= raw.len());
                let mut linked = 1; // the anchor
                for n in pruned.iter() {
                    // Kept nodes keep their raw keyword set and feature.
                    let source = raw.node(&n.dewey);
                    prop_assert!(source.is_some(), "{} not in raw", n.dewey);
                    let source = source.unwrap();
                    prop_assert_eq!(
                        (n.label, n.kset, &n.cid, n.is_keyword),
                        (source.label, source.kset, &source.cid, source.is_keyword)
                    );
                    // Connectivity: parent of every non-anchor node kept.
                    if n.dewey != pruned.anchor {
                        let parent = n.dewey.parent().expect("non-anchor has parent");
                        prop_assert!(pruned.contains(&parent), "orphan {}", n.dewey);
                    }
                    // Child links reach kept children of this node only,
                    // in document order, and between them reach all.
                    let mut last: Option<&Dewey> = None;
                    for c in pruned.children(&n.dewey) {
                        prop_assert!(pruned.contains(&c.dewey), "dangling child {}", c.dewey);
                        prop_assert_eq!(c.dewey.parent().as_ref(), Some(&n.dewey));
                        prop_assert!(last < Some(&c.dewey));
                        last = Some(&c.dewey);
                        linked += 1;
                    }
                }
                prop_assert_eq!(linked, pruned.len());
            }
        }
    }

    #[test]
    fn valid_contributor_postconditions(
        nodes in 2usize..50,
        labels in 1usize..4,
        words in 2usize..5,
        seed in any::<u64>(),
        k in 1usize..4,
    ) {
        let tree = doc(nodes, labels, words, seed);
        for built in build_all(&tree, k) {
            assert_valid_contributors(&built);
        }
    }

    #[test]
    fn contributor_postconditions(
        nodes in 2usize..50,
        labels in 1usize..4,
        words in 2usize..5,
        seed in any::<u64>(),
        k in 1usize..4,
    ) {
        // MaxMatch's filter under every surviving parent: a raw child
        // stays iff no sibling (any label) has a strictly larger
        // keyword set.
        let tree = doc(nodes, labels, words, seed);
        for built in build_all(&tree, k) {
            for n in built.contributor.iter() {
                let siblings: Vec<Child> = built.raw.children(&n.dewey).map(child).collect();
                let want = contributors(&siblings);
                let got: Vec<&Dewey> =
                    built.contributor.children(&n.dewey).map(|c| &c.dewey).collect();
                prop_assert_eq!(got, want, "children of {}", n.dewey);
            }
        }
    }

    #[test]
    fn valid_contributor_keeps_unique_labels(
        nodes in 2usize..50,
        words in 2usize..5,
        seed in any::<u64>(),
        k in 1usize..4,
    ) {
        // Rule 1: when all children of a node have distinct labels,
        // ValidRTF prunes nothing below that node (only whole subtrees
        // pruned higher up can remove them).
        // Large label alphabet → most sibling labels distinct.
        let tree = doc(nodes, 64, words, seed);
        for built in build_all(&tree, k) {
            let raw = &built.raw;
            // All raw groups have counter 1 (labels unique with high
            // probability — verify, skip otherwise).
            let all_unique = raw.iter().all(|n| {
                raw.label_groups(&n.dewey)
                    .iter()
                    .all(|g| g.counter() == 1)
            });
            prop_assume!(all_unique);
            prop_assert_eq!(built.valid.len(), raw.len(), "rule 1 must keep everything");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn wide_same_label_group_follows_definition_4(
        children in prop::collection::vec(any::<u16>(), 1_000..1_300),
    ) {
        // One parent over ≥ 1 000 `c` children. Each holds one of the six
        // partial keyword sets of {w0, w1, w2} — so no child covers the
        // query and the root's one fragment holds them all — and up to
        // two fillers from a pool of six each, giving many repeated and
        // many distinct content features: rule 2(a) covers the
        // singletons, rule 2(b) decides among the pairs.
        const PARTIAL: [&str; 6] = ["w0", "w1", "w2", "w0 w1", "w0 w2", "w1 w2"];
        let mut xml = String::from("<r>");
        for &c in &children {
            let c = usize::from(c);
            let filler = |at: usize, prefix: char| match c / at % 7 {
                6 => String::new(),
                x => format!(" {prefix}{x}"),
            };
            xml.push_str(&format!("<c>{}{}{}</c>", PARTIAL[c % 6], filler(6, 'a'), filler(42, 'z')));
        }
        xml.push_str("</r>");
        let tree = xks::xmltree::parse(&xml).expect("well-formed");
        let built = build_all(&tree, 3);
        prop_assert_eq!(built.len(), 1);
        let raw = &built[0].raw;
        prop_assert_eq!(raw.label_groups(&raw.anchor)[0].counter(), children.len());
        prop_assert!(built[0].valid.len() < raw.len(), "the group must prune");
        assert_valid_contributors(&built[0]);
    }
}
