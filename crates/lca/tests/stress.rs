//! Stress and shape tests for the LCA algorithms: deep chains, broad
//! fan-out, and fully-overlapping lists — shapes that exercise stack
//! depth and mask merging beyond what random trees typically produce.

mod reference;

use reference::reference_merge;
use xks_lca::naive::{naive_elca, naive_slca};
use xks_lca::{elca_stack, indexed_lookup_eager, merge_postings};
use xks_xmltree::Dewey;

fn chain(depth: usize) -> Dewey {
    Dewey::from_components(vec![0; depth + 1])
}

#[test]
fn deep_chain_alternating_keywords() {
    // A 2,000-deep chain with k1 on even depths and k2 on odd depths:
    // every node above the last pair is CA; SLCA is the deepest pair's
    // LCA; ELCA must not blow the stack.
    let depth = 2_000;
    let k1: Vec<Dewey> = (0..=depth).step_by(2).map(chain).collect();
    let k2: Vec<Dewey> = (1..=depth).step_by(2).map(chain).collect();
    let sets = vec![k1, k2];

    let slca = indexed_lookup_eager(&sets);
    assert_eq!(slca.len(), 1);
    assert_eq!(slca[0], chain(depth - 1), "deepest covering node");

    let elca = elca_stack(&sets);
    // Every node 0..=depth-1 contains both keywords below it, but all
    // witnesses except the deepest pair are shadowed: only the deepest
    // CA is an ELCA.
    assert_eq!(elca, vec![chain(depth - 1)]);
}

#[test]
fn broad_fanout_each_child_full() {
    // Root with 5,000 children, each containing both keywords: each
    // child is an SLCA/ELCA; the root is shadowed everywhere.
    let n = 5_000u32;
    let root = Dewey::root();
    let k1: Vec<Dewey> = (0..n).map(|i| root.child(i).child(0)).collect();
    let k2: Vec<Dewey> = (0..n).map(|i| root.child(i).child(1)).collect();
    let sets = vec![k1, k2];

    let slca = indexed_lookup_eager(&sets);
    assert_eq!(slca.len(), n as usize);
    let elca = elca_stack(&sets);
    assert_eq!(elca, slca);
}

#[test]
fn identical_lists_every_node_is_its_own_anchor() {
    // D1 == D2: every keyword node covers the query by itself.
    let root = Dewey::root();
    let nodes: Vec<Dewey> = (0..100).map(|i| root.child(i)).collect();
    let sets = vec![nodes.clone(), nodes.clone()];
    assert_eq!(elca_stack(&sets), nodes);
    assert_eq!(indexed_lookup_eager(&sets), nodes);
}

#[test]
fn skewed_list_sizes() {
    // One singleton list against a huge list: ILE must drive from the
    // singleton; all algorithms agree with the oracles.
    let root = Dewey::root();
    let single = vec![root.child(500).child(0)];
    let huge: Vec<Dewey> = (0..2_000).map(|i| root.child(i).child(1)).collect();
    let sets = vec![single, huge];

    let slca = indexed_lookup_eager(&sets);
    assert_eq!(slca, naive_slca(&sets));
    assert_eq!(slca, vec![root.child(500)]);

    let elca = elca_stack(&sets);
    assert_eq!(elca, naive_elca(&sets));
    // The root is *not* an ELCA: its only k1 witness lives under the CA
    // node 0.500 and is therefore shadowed.
    assert_eq!(elca, vec![root.child(500)]);
}

#[test]
fn three_way_overlap() {
    // Three keywords sharing some nodes pairwise.
    let d = |s: &str| s.parse::<Dewey>().unwrap();
    let sets = vec![
        vec![d("0.0"), d("0.1.0"), d("0.2")],
        vec![d("0.0"), d("0.1.1")],
        vec![d("0.1.0"), d("0.1.1"), d("0.3")],
    ];
    assert_eq!(indexed_lookup_eager(&sets), naive_slca(&sets));
    assert_eq!(elca_stack(&sets), naive_elca(&sets));
}

#[test]
fn sixty_four_keywords() {
    // The mask width limit: 64 lists, one node each, all under the root.
    let root = Dewey::root();
    let sets: Vec<Vec<Dewey>> = (0..64).map(|i| vec![root.child(i)]).collect();
    let merged = merge_postings(&sets);
    assert_eq!(merged, reference_merge(&sets));
    assert_eq!(merged[63], (root.child(63), 1u64 << 63), "the top mask bit");
    assert_eq!(elca_stack(&sets), vec![root.clone()]);
    assert_eq!(indexed_lookup_eager(&sets), vec![root]);
}
