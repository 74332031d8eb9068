//! The *pruning step* of `pruneRTF` — and the MaxMatch baseline filter.
//!
//! Both filters walk the fragment top-down from the anchor and decide,
//! per parent, which children survive; a discarded child takes its whole
//! subtree with it. They differ in the predicate:
//!
//! * [`Policy::ValidContributor`] — Definition 4 / Algorithm 1 lines
//!   16–26. Children are grouped by label. A unique-label child always
//!   survives (rule 1 — fixes MaxMatch's *false positive problem*).
//!   Within a same-label group, a child is discarded when its keyword
//!   set is a strict subset of a sibling's (rule 2(a), inherited from
//!   the contributor), and when its keyword set ties a kept sibling, it
//!   survives only if its content (cID) differs (rule 2(b) — fixes the
//!   *redundancy problem*).
//! * [`Policy::Contributor`] — MaxMatch's filter: a child survives iff
//!   **no sibling whatsoever** (any label) has a strictly larger keyword
//!   set.
//!
//! The decision ([`decide`]) runs over the flat skeleton of
//! [`crate::fragment`], before any output node exists, so discarded
//! nodes are never materialized.

use std::sync::Arc;

use xks_lca::{SkelNode, SkeletonScratch, NONE};

use crate::fragment::{emit, Fragment};

/// Which filtering mechanism to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The paper's valid-contributor filter (ValidRTF).
    ValidContributor,
    /// MaxMatch's contributor filter (the baseline).
    Contributor,
}

/// Prunes a fragment under the chosen policy, returning the meaningful
/// fragment (a sub-fragment containing the anchor). Surviving nodes
/// keep the keyword sets and content features they had in `fragment`.
#[must_use]
pub fn prune(fragment: &Fragment, policy: Policy) -> Fragment {
    let mut skel = SkeletonScratch::default();
    fragment.load_into(&mut skel);
    decide(&mut skel, policy);
    emit(&mut skel, &fragment.anchor)
}

/// Marks the nodes of a freshly laid-out fragment that survive `policy`
/// (Algorithm 1 line 16): the anchor, and every child that survives its
/// sibling group under a surviving parent. Allocation-free on warm
/// buffers.
pub fn decide(skel: &mut SkeletonScratch, policy: Policy) {
    let SkeletonScratch {
        nodes,
        feats,
        order,
        ksets,
        feature_takers,
        dominance_tests,
        feature_probes,
    } = skel;
    if let Some(anchor) = nodes.first_mut() {
        anchor.kept = true;
    }
    for parent in 0..nodes.len() {
        order.clear();
        // A node's first child, if any, is the node right after it.
        let mut child = parent as u32 + 1;
        let is_leaf = nodes.get(child as usize).map(|n| n.parent) != Some(parent as u32);
        if !nodes[parent].kept || is_leaf {
            continue;
        }
        while child != NONE {
            order.push(child);
            child = nodes[child as usize].next_sibling;
        }
        if policy == Policy::Contributor {
            // MaxMatch compares all children as one group and keeps ties.
            decide_group(nodes, order, ksets, dominance_tests);
            continue;
        }
        // Label runs from one sort; document order within each run.
        order.sort_unstable_by_key(|&c| (nodes[c as usize].label, c));
        let mut rest = order.as_mut_slice();
        while let Some(&first) = rest.first() {
            let label = nodes[first as usize].label;
            let run = rest
                .iter()
                .take_while(|&&c| nodes[c as usize].label == label)
                .count();
            let (group, tail) = rest.split_at_mut(run);
            if decide_group(nodes, group, ksets, dominance_tests) {
                dedup_content(nodes, feats, group, feature_takers, feature_probes);
            }
            rest = tail;
        }
    }
}

/// Decides one sibling group (document order): a child whose keyword
/// set is strictly covered by a sibling's is discarded — tested between
/// the group's *distinct* keyword sets, not between siblings — and
/// every child learns whether it is the first with its keyword set.
/// Returns whether a non-covered child ties an earlier one's keyword
/// set, the only case in which rule 2(b) ([`dedup_content`]) can
/// discard anything.
fn decide_group(
    nodes: &mut [SkelNode],
    group: &[u32],
    ksets: &mut Vec<(u64, bool, bool)>,
    dominance_tests: &mut u64,
) -> bool {
    if let [only] = group {
        nodes[*only as usize].kept = true; // rule 1
        return false;
    }
    ksets.clear();
    ksets.extend(
        group
            .iter()
            .map(|&c| (nodes[c as usize].kset, false, false)),
    );
    ksets.sort_unstable_by_key(|e| e.0);
    ksets.dedup_by_key(|e| e.0);
    // A strict superset is numerically larger, so it sorts later.
    for i in 0..ksets.len() {
        let set = ksets[i].0;
        for j in i + 1..ksets.len() {
            *dominance_tests += 1;
            if set & ksets[j].0 == set {
                ksets[i].1 = true;
                break;
            }
        }
    }
    let mut tie = false;
    for &c in group.iter() {
        let node = &mut nodes[c as usize];
        let at = ksets
            .binary_search_by_key(&node.kset, |e| e.0)
            .expect("every group member's set was collected");
        let (_, dominated, seen) = &mut ksets[at];
        node.kept = !*dominated;
        node.kset_first = !*seen;
        tie |= *seen && !*dominated;
        *seen = true;
    }
    tie
}

/// Definition 4 rule 2(b) over one decided same-label group, in one
/// pass in document order. The features already taken when a child is
/// reached are exactly those of the earlier non-covered siblings, so
/// the first non-covered child with a feature takes it, and a later one
/// with the same feature stays only if it introduced its keyword set.
/// Takers are found through `takers`, an open-addressing table keyed by
/// [`feature_hash`] and resolved by string equality; warm, the pass
/// allocates nothing.
fn dedup_content(
    nodes: &mut [SkelNode],
    feats: &[(Arc<str>, Arc<str>)],
    group: &[u32],
    takers: &mut Vec<u32>,
    probes: &mut u64,
) {
    let feature = |cid: (u32, u32)| match cid {
        (NONE, _) => ("", ""),
        (min, max) => (&*feats[min as usize].0, &*feats[max as usize].1),
    };
    let slots = (2 * group.len()).next_power_of_two();
    takers.clear();
    takers.resize(slots, NONE);
    for &c in group {
        if !nodes[c as usize].kept {
            continue; // covered: neither takes a feature nor survives
        }
        let f = feature(nodes[c as usize].cid);
        let mut at = feature_hash(f) as usize & (slots - 1);
        loop {
            *probes += 1;
            match takers[at] {
                NONE => {
                    takers[at] = c;
                    break;
                }
                taker if feature(nodes[taker as usize].cid) == f => {
                    let node = &mut nodes[c as usize];
                    node.kept = node.kset_first;
                    break;
                }
                _ => at = (at + 1) & (slots - 1),
            }
        }
    }
}

/// FNV-1a over a content feature's two words, joined by a byte no UTF-8
/// text contains, with the high half folded into the low bits the table
/// indexes by.
fn feature_hash((min, max): (&str, &str)) -> u64 {
    let bytes = min.as_bytes().iter().chain(&[0xff]).chain(max.as_bytes());
    let h = bytes.fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragment;
    use crate::keyset::KeySet;
    use crate::rtf::get_rtf;
    use xks_index::{InvertedIndex, Query};
    use xks_lca::elca_stack;
    use xks_xmltree::fixtures::{publications, team, PAPER_QUERIES};
    use xks_xmltree::{Dewey, XmlTree};

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn fragments(tree: &XmlTree, query: &str) -> Vec<Fragment> {
        let index = InvertedIndex::build(tree);
        let sets = index.resolve(&Query::parse(query).unwrap()).unwrap();
        let anchors = elca_stack(sets.sets());
        get_rtf(&anchors, &sets)
            .iter()
            .map(|r| Fragment::construct(tree, r))
            .collect()
    }

    fn deweys(frag: &Fragment) -> Vec<String> {
        frag.deweys().iter().map(ToString::to_string).collect()
    }

    #[test]
    fn q3_valid_contributor_yields_figure_2d() {
        // Example 5 (closing) + Example 7: ValidRTF prunes article 0.2.1
        // (keyword set {title} ⊂ {title,xml,keyword,search} of the
        // same-label sibling 0.2.0) but keeps everything else.
        let tree = publications();
        let frags = fragments(&tree, PAPER_QUERIES[2]);
        assert_eq!(frags.len(), 1);
        let pruned = prune(&frags[0], Policy::ValidContributor);
        assert_eq!(
            deweys(&pruned),
            [
                "0",
                "0.0",
                "0.2",
                "0.2.0",
                "0.2.0.1",
                "0.2.0.2",
                "0.2.0.3",
                "0.2.0.3.0"
            ]
        );
    }

    #[test]
    fn q1_false_positive_fixed_by_valid_contributor() {
        // Example 2/5: MaxMatch discards title 0.2.1.1 (subset of the
        // abstract's keyword set); ValidRTF keeps it because its label
        // is unique among its siblings (rule 1).
        let tree = publications();
        let frags = fragments(&tree, PAPER_QUERIES[0]);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].anchor, d("0.2.1"));

        let valid = prune(&frags[0], Policy::ValidContributor);
        assert!(valid.contains(&d("0.2.1.1")), "title kept by ValidRTF");
        // Figure 3(b): the whole SLCA fragment survives.
        assert_eq!(deweys(&valid), deweys(&frags[0]));

        let mm = prune(&frags[0], Policy::Contributor);
        assert!(!mm.contains(&d("0.2.1.1")), "title dropped by MaxMatch");
        // Figure 3(c): everything else survives.
        assert_eq!(
            deweys(&mm),
            [
                "0.2.1",
                "0.2.1.0",
                "0.2.1.0.0",
                "0.2.1.0.0.0",
                "0.2.1.0.1",
                "0.2.1.0.1.0",
                "0.2.1.2"
            ]
        );
    }

    #[test]
    fn q4_redundancy_fixed_by_valid_contributor() {
        // Example 2/5 on the team segment: Q4 = "grizzlies position".
        // MaxMatch keeps all three players (equal keyword sets);
        // ValidRTF drops the duplicate {position, forward} player.
        let tree = team();
        let frags = fragments(&tree, PAPER_QUERIES[3]);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].anchor, d("0"));

        let mm = prune(&frags[0], Policy::Contributor);
        // Figure 3(d): all three position paths survive.
        for p in ["0.1.0", "0.1.1", "0.1.2"] {
            assert!(mm.contains(&d(p)), "MaxMatch keeps player {p}");
        }

        let valid = prune(&frags[0], Policy::ValidContributor);
        assert!(valid.contains(&d("0.1.0")), "first forward kept");
        assert!(valid.contains(&d("0.1.1")), "guard kept");
        assert!(
            !valid.contains(&d("0.1.2")),
            "duplicate forward discarded by rule 2(b)"
        );
        // The distinct position values both survive.
        assert!(valid.contains(&d("0.1.0.1")));
        assert!(valid.contains(&d("0.1.1.1")));
    }

    #[test]
    fn q5_positive_example_matches_maxmatch() {
        // Example 5 (covering the positive example): Q5 keeps only the
        // Gassol player under both filters — Figure 3(a).
        let tree = team();
        let frags = fragments(&tree, PAPER_QUERIES[4]);
        assert_eq!(frags.len(), 1);
        let valid = prune(&frags[0], Policy::ValidContributor);
        let mm = prune(&frags[0], Policy::Contributor);
        assert_eq!(deweys(&valid), deweys(&mm));
        assert!(valid.contains(&d("0.1.0")));
        assert!(!valid.contains(&d("0.1.1")));
        assert!(!valid.contains(&d("0.1.2")));
        assert!(valid.contains(&d("0.0")), "team name kept");
    }

    #[test]
    fn q2_both_rtfs_survive_unchanged() {
        // Q2 = "liu keyword": the ref RTF is a single node; the article
        // RTF has all-distinct labels below each parent → nothing to
        // prune under either policy.
        let tree = publications();
        let frags = fragments(&tree, PAPER_QUERIES[1]);
        assert_eq!(frags.len(), 2);
        for f in &frags {
            let v = prune(f, Policy::ValidContributor);
            assert_eq!(deweys(&v), deweys(f));
        }
    }

    #[test]
    fn pruned_fragment_children_links_consistent() {
        let tree = team();
        let frags = fragments(&tree, "grizzlies position");
        let valid = prune(&frags[0], Policy::ValidContributor);
        let mut linked = 1; // the anchor
        for n in valid.iter() {
            for c in valid.children(&n.dewey) {
                assert!(valid.contains(&c.dewey), "dangling child {}", c.dewey);
                assert_eq!(c.dewey.parent().as_ref(), Some(&n.dewey));
                linked += 1;
            }
        }
        assert_eq!(linked, valid.len(), "every node hangs off its parent");
    }

    #[test]
    fn discarded_subtree_fully_removed() {
        let tree = publications();
        let frags = fragments(&tree, PAPER_QUERIES[2]);
        let valid = prune(&frags[0], Policy::ValidContributor);
        // 0.2.1 discarded → its descendant 0.2.1.1 gone too.
        assert!(!valid.contains(&d("0.2.1")));
        assert!(!valid.contains(&d("0.2.1.1")));
    }

    #[test]
    fn anchor_always_survives() {
        let tree = team();
        for q in ["grizzlies position", "gassol position", "position"] {
            for f in fragments(&tree, q) {
                for policy in [Policy::ValidContributor, Policy::Contributor] {
                    let p = prune(&f, policy);
                    assert!(p.contains(&f.anchor));
                }
            }
        }
    }

    #[test]
    fn wide_same_label_group_is_decided_over_distinct_keyword_sets() {
        // One parent, 20 000 same-label children over 8 distinct
        // keyword sets. Definition 4 rule 2(a) needs the strict-subset
        // test between *distinct keyword sets* (at most 8·7/2 of them),
        // not between the 2·10⁸ sibling pairs.
        const CHILDREN: usize = 20_000;
        let sets = [
            "ka", "kb", "ka kb", "kc", "ka kc", "kb kc", "ka kb kc", "kd",
        ];
        let mut xml = String::from("<r>");
        for i in 0..CHILDREN {
            // A filler word gives each child content of its own, except
            // that every second child of a set repeats the one before.
            let filler = if i % 16 >= 8 { i - 8 } else { i };
            xml.push_str(&format!("<c>{} w{filler}</c>", sets[i % 8]));
        }
        xml.push_str("</r>");
        let tree = xks_xmltree::parse(&xml).unwrap();
        let raw = fragments(&tree, "ka kb kc kd").swap_remove(0);
        assert_eq!(raw.len(), CHILDREN + 1, "the root's fragment");

        let mut skel = SkeletonScratch::default();
        raw.load_into(&mut skel);
        decide(&mut skel, Policy::ValidContributor);
        assert!(
            skel.dominance_tests <= 28,
            "{} strict-subset tests",
            skel.dominance_tests
        );
        // Rule 2(b) is one hashed pass: linear in the group, a probe or
        // two per child.
        assert!(
            (1..=2 * CHILDREN as u64).contains(&skel.feature_probes),
            "{} feature probes",
            skel.feature_probes
        );
        // Only {ka,kb,kc} and {kd} are not covered; half of each one's
        // 2 500 children repeat a sibling's content (rule 2(b)).
        let valid = emit(&mut skel, &raw.anchor);
        assert!(valid
            .iter()
            .skip(1)
            .all(|n| n.kset.len() == 3 || n.kset == KeySet(0b1000)));
        assert_eq!(valid.len(), 1 + 2 * 1250);
        assert_eq!(valid, prune(&raw, Policy::ValidContributor));

        raw.load_into(&mut skel);
        skel.dominance_tests = 0;
        decide(&mut skel, Policy::Contributor);
        assert!(skel.dominance_tests <= 28);
        assert_eq!(emit(&mut skel, &raw.anchor).len(), 1 + 2 * 2500);
    }
}
