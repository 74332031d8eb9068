//! Differential property tests: every fast algorithm must agree with the
//! brute-force oracle on random trees and random keyword-node sets.

mod reference;

use std::collections::HashMap;

use proptest::prelude::*;
use reference::reference_merge;
use xks_lca::naive::{naive_elca, naive_slca};
use xks_lca::{
    elca_stack, extract_anchored_into, gallop_elca, indexed_lookup_eager, merge_postings,
    merge_postings_into, GallopScratch,
};
use xks_xmltree::Dewey;

/// Builds a random tree from parent-choice bytes: node 0 is the root;
/// node i+1 attaches to the node selected by `choices[i] % (i+1)`.
/// Returns all node Dewey codes in creation order.
fn random_tree(choices: &[u8]) -> Vec<Dewey> {
    let mut nodes: Vec<Dewey> = vec![Dewey::root()];
    let mut child_count: HashMap<Dewey, u32> = HashMap::new();
    for &c in choices {
        let parent = nodes[(c as usize) % nodes.len()].clone();
        let n = child_count.entry(parent.clone()).or_insert(0);
        let child = parent.child(*n);
        *n += 1;
        nodes.push(child);
    }
    nodes
}

/// Selects the keyword-node lists: keyword `i` matches node `j` when bit
/// `i` of `marks[j]` is set. Guarantees nothing about non-emptiness.
fn keyword_sets(nodes: &[Dewey], marks: &[u8], k: usize) -> Vec<Vec<Dewey>> {
    (0..k)
        .map(|i| {
            let mut list: Vec<Dewey> = nodes
                .iter()
                .zip(marks.iter().cycle())
                .filter(|(_, m)| (*m >> i) & 1 == 1)
                .map(|(d, _)| d.clone())
                .collect();
            list.sort();
            list.dedup();
            list
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn merges_agree_with_reference_fold(
        choices in prop::collection::vec(any::<u8>(), 0..80),
        marks in prop::collection::vec(any::<u64>(), 1..81),
        k in prop::sample::select(vec![1usize, 2, 3, 8, 64]),
        shape in 0u8..4,
        picks in prop::collection::vec(any::<u8>(), 0..6),
    ) {
        // Both k-way merges — the full one and the anchored extraction —
        // against a BTreeMap fold, on sorted lists of every shape the
        // merge must fold: random overlap, some empty lists, one node
        // in every list, and k identical lists.
        let nodes = random_tree(&choices);
        let mut sets: Vec<Vec<Dewey>> = (0..k)
            .map(|i| {
                let mut list: Vec<Dewey> = nodes
                    .iter()
                    .zip(marks.iter().cycle())
                    .filter(|(_, m)| (*m >> i) & 1 == 1)
                    .map(|(d, _)| d.clone())
                    .collect();
                list.sort();
                list
            })
            .collect();
        match shape {
            1 => sets.iter_mut().step_by(2).for_each(Vec::clear),
            2 => {
                let shared = nodes[(marks[0] as usize) % nodes.len()].clone();
                for list in &mut sets {
                    if let Err(at) = list.binary_search(&shared) {
                        list.insert(at, shared.clone());
                    }
                }
            }
            3 => {
                let first = sets[0].clone();
                sets.iter_mut().for_each(|list| list.clone_from(&first));
            }
            _ => {}
        }
        let expected = reference_merge(&sets);
        prop_assert_eq!(&merge_postings(&sets), &expected);
        let mut reused = vec![(Dewey::root(), u64::MAX)];
        merge_postings_into(&sets, &mut reused);
        prop_assert_eq!(&reused, &expected);

        let mut anchors: Vec<Dewey> =
            picks.iter().map(|&p| nodes[p as usize % nodes.len()].clone()).collect();
        anchors.sort();
        anchors.dedup();
        let mut extracted = vec![(Dewey::root(), u64::MAX)];
        extract_anchored_into(&sets, &anchors, &mut extracted);
        let under_anchors: Vec<(Dewey, u64)> = expected
            .into_iter()
            .filter(|(d, _)| anchors.iter().any(|a| a.is_ancestor_or_self(d)))
            .collect();
        prop_assert_eq!(extracted, under_anchors);
    }

    #[test]
    fn slca_algorithms_agree_with_oracle(
        choices in prop::collection::vec(any::<u8>(), 0..60),
        marks in prop::collection::vec(any::<u8>(), 1..61),
        k in 1usize..5,
    ) {
        let nodes = random_tree(&choices);
        let sets = keyword_sets(&nodes, &marks, k);
        prop_assume!(sets.iter().all(|s| !s.is_empty()));
        let expected = naive_slca(&sets);
        prop_assert_eq!(&indexed_lookup_eager(&sets), &expected, "ILE mismatch");
    }

    #[test]
    fn elca_stack_agrees_with_oracle(
        choices in prop::collection::vec(any::<u8>(), 0..60),
        marks in prop::collection::vec(any::<u8>(), 1..61),
        k in 1usize..5,
    ) {
        let nodes = random_tree(&choices);
        let sets = keyword_sets(&nodes, &marks, k);
        prop_assume!(sets.iter().all(|s| !s.is_empty()));
        prop_assert_eq!(elca_stack(&sets), naive_elca(&sets));
    }

    #[test]
    fn gallop_agrees_with_merge_for_every_driver(
        choices in prop::collection::vec(any::<u8>(), 0..60),
        marks in prop::collection::vec(any::<u8>(), 1..61),
        k in 2usize..5,
    ) {
        // The planner's galloping intersection must produce the exact
        // ELCA anchor set of the full k-way merge — for ANY driver
        // list, not just the rarest one the planner picks — and its
        // anchored extraction must keep exactly the merged postings
        // that fall inside some anchor's subtree (the only ones
        // `getRTF` dispatches).
        let nodes = random_tree(&choices);
        let sets = keyword_sets(&nodes, &marks, k);
        prop_assume!(sets.iter().all(|s| !s.is_empty()));
        let expected = elca_stack(&sets);
        let mut scratch = GallopScratch::default();
        let mut anchors = Vec::new();
        for driver in 0..sets.len() {
            gallop_elca(&sets, driver, &mut scratch, &mut anchors);
            prop_assert_eq!(&anchors, &expected, "driver {} diverges", driver);
        }
        let mut extracted = Vec::new();
        extract_anchored_into(&sets, &expected, &mut extracted);
        let anchored: Vec<(Dewey, u64)> = merge_postings(&sets)
            .into_iter()
            .filter(|(d, _)| expected.iter().any(|a| a.is_ancestor_or_self(d)))
            .collect();
        prop_assert_eq!(extracted, anchored);
    }

    #[test]
    fn gallop_handles_disjoint_and_identical_lists(
        choices in prop::collection::vec(any::<u8>(), 1..60),
        k in 2usize..5,
        seed in any::<u8>(),
    ) {
        let nodes = random_tree(&choices);
        let mut scratch = GallopScratch::default();
        let mut anchors = Vec::new();

        // Fully-overlapping: every list identical. ELCAs = the nodes
        // themselves (each node covers all keywords at itself).
        let mut shared: Vec<Dewey> = nodes.iter()
            .skip((seed as usize) % nodes.len())
            .cloned().collect();
        shared.sort();
        shared.dedup();
        prop_assume!(!shared.is_empty());
        let identical: Vec<Vec<Dewey>> = vec![shared.clone(); k];
        let expected = elca_stack(&identical);
        for driver in 0..k {
            gallop_elca(&identical, driver, &mut scratch, &mut anchors);
            prop_assert_eq!(&anchors, &expected, "identical lists, driver {}", driver);
        }

        // Disjoint: round-robin the nodes across k lists. Anchors can
        // only sit at common ancestors; both algorithms must agree.
        let mut disjoint: Vec<Vec<Dewey>> = vec![Vec::new(); k];
        for (i, d) in nodes.iter().enumerate() {
            disjoint[i % k].push(d.clone());
        }
        for list in &mut disjoint {
            list.sort();
            list.dedup();
        }
        prop_assume!(disjoint.iter().all(|s| !s.is_empty()));
        let expected = elca_stack(&disjoint);
        for driver in 0..k {
            gallop_elca(&disjoint, driver, &mut scratch, &mut anchors);
            prop_assert_eq!(&anchors, &expected, "disjoint lists, driver {}", driver);
        }

        // Empty input: any empty list means no anchors from either.
        let mut with_empty = disjoint;
        with_empty[0].clear();
        gallop_elca(&with_empty, 1, &mut scratch, &mut anchors);
        prop_assert!(anchors.is_empty());
        prop_assert!(elca_stack(&with_empty).is_empty());
    }

    #[test]
    fn slca_subset_of_elca(
        choices in prop::collection::vec(any::<u8>(), 0..60),
        marks in prop::collection::vec(any::<u8>(), 1..61),
        k in 1usize..5,
    ) {
        // The SLCA nodes are always interesting LCAs (the paper's claim
        // that RTFs generalize the SLCA fragments).
        let nodes = random_tree(&choices);
        let sets = keyword_sets(&nodes, &marks, k);
        prop_assume!(sets.iter().all(|s| !s.is_empty()));
        let slca = indexed_lookup_eager(&sets);
        let elca = elca_stack(&sets);
        for s in &slca {
            prop_assert!(elca.contains(s), "SLCA {} missing from ELCA set", s);
        }
    }

    #[test]
    fn elca_nodes_cover_query(
        choices in prop::collection::vec(any::<u8>(), 0..60),
        marks in prop::collection::vec(any::<u8>(), 1..61),
        k in 1usize..5,
    ) {
        // Every reported ELCA's subtree contains every keyword.
        let nodes = random_tree(&choices);
        let sets = keyword_sets(&nodes, &marks, k);
        prop_assume!(sets.iter().all(|s| !s.is_empty()));
        for e in elca_stack(&sets) {
            for (i, list) in sets.iter().enumerate() {
                prop_assert!(
                    list.iter().any(|d| e.is_ancestor_or_self(d)),
                    "ELCA {} misses keyword {}",
                    e,
                    i
                );
            }
        }
    }
}
