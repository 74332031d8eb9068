//! Relaxed Tightest Fragments — the `getRTF` stage of Algorithm 1.
//!
//! `getRTF` partitions the query's keyword nodes among the interesting
//! LCA (ELCA) anchors. By Definition 2 a keyword node `v` belongs to
//! the partition of its **deepest common ancestor** — the deepest
//! ancestor-or-self whose subtree holds every keyword — and only when
//! that node is an anchor:
//!
//! 1. a node no common ancestor covers is an orphan and is dropped;
//! 2. a node whose deepest common ancestor is a *shadowed* (non-ELCA)
//!    node is dropped too — Definition 2's third rule: `v` "can compose
//!    a partition with other keyword nodes so that the new LCA is
//!    lower". The paper's pseudo-code omits this check, assuming (§4.3
//!    analysis (1), footnote) that such a deeper LCA is always itself
//!    interesting; [`get_rtf_unchecked`] keeps that literal behaviour.
//!
//! Both are verified against the executable specification in
//! [`crate::spec`].
//!
//! [`dispatch`] decides all of it in one walk of the merged
//! `(dewey, mask)` stream, with a stack mirroring the current root path
//! that accumulates each open node's subtree mask. A keyword node waits
//! in a pending list; the first path node above it to close with a full
//! mask is its deepest common ancestor, and takes it into its partition
//! (anchor) or discards it (shadowed). O(n · depth), no searches over
//! the posting lists. The stream may be the full merge or the planner's
//! anchor-restricted one (`xks_lca::extract_anchored_into`): every
//! common ancestor at or below an anchor has its whole subtree in both,
//! and every node of the restricted stream lies below an anchor.

use xks_index::KeywordNodeSets;
use xks_lca::common::{full_mask, merge_postings};
use xks_lca::{RtfScratch, SweepEntry, NONE};
use xks_xmltree::Dewey;

use crate::keyset::KeySet;

/// One Relaxed Tightest Fragment in *keyword-node form*: the anchor `a`
/// (an interesting LCA node) and the sorted keyword nodes dispatched to
/// it (`R.knodes` in the paper's pseudo-code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rtf {
    /// The anchor LCA node (the paper's `R.a`).
    pub anchor: Dewey,
    /// The keyword nodes of this partition, in document order, each with
    /// the keywords it contains.
    pub knodes: Vec<(Dewey, KeySet)>,
}

impl Rtf {
    /// The keyword union over the partition. A well-formed RTF covers
    /// the whole query.
    #[must_use]
    pub fn keyword_union(&self) -> KeySet {
        self.knodes
            .iter()
            .fold(KeySet::EMPTY, |acc, (_, m)| acc.union(*m))
    }

    /// The Dewey codes of the keyword nodes.
    #[must_use]
    pub fn keyword_deweys(&self) -> Vec<Dewey> {
        self.knodes.iter().map(|(d, _)| d.clone()).collect()
    }
}

/// The partitions of one query, borrowed from the buffers [`dispatch`]
/// filled: partition `i` belongs to `anchors[i]`.
#[derive(Debug, Clone, Copy)]
pub struct Partitions<'a> {
    anchors: &'a [Dewey],
    merged: &'a [(Dewey, u64)],
    scratch: &'a RtfScratch,
}

impl<'a> Partitions<'a> {
    /// The view over the buffers of a finished [`dispatch`].
    #[must_use]
    pub fn new(anchors: &'a [Dewey], merged: &'a [(Dewey, u64)], scratch: &'a RtfScratch) -> Self {
        debug_assert_eq!(anchors.len(), scratch.ranges.len(), "dispatch ran");
        Partitions {
            anchors,
            merged,
            scratch,
        }
    }

    /// Number of partitions (= anchors).
    #[must_use]
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// `true` when the query has no anchor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }

    /// The anchor of partition `i`.
    #[must_use]
    pub fn anchor(&self, i: usize) -> &'a Dewey {
        &self.anchors[i]
    }

    /// The keyword nodes of partition `i`, in document order.
    pub fn knodes(&self, i: usize) -> impl Iterator<Item = (&'a Dewey, KeySet)> + 'a {
        let (start, len) = self.scratch.ranges[i];
        let merged = self.merged;
        self.scratch.nodes[start as usize..(start + len) as usize]
            .iter()
            .map(move |&n| (&merged[n as usize].0, KeySet(merged[n as usize].1)))
    }

    /// The partitions as owned [`Rtf`]s, in anchor order.
    #[must_use]
    pub fn to_rtfs(&self) -> Vec<Rtf> {
        (0..self.len())
            .map(|i| Rtf {
                anchor: self.anchors[i].clone(),
                knodes: self.knodes(i).map(|(d, m)| (d.clone(), m)).collect(),
            })
            .collect()
    }
}

/// Partitions the keyword nodes of `merged` among `anchors` with one
/// document-order sweep (see the module docs).
///
/// `anchors` must be sorted in document order (as the `xks_lca` anchor
/// passes produce them) and `merged` must be a merged posting stream of
/// the `k` keyword lists — full or anchor-restricted. With a warm
/// `scratch` the sweep performs no heap allocation.
///
/// `checked == false` is the paper's literal pseudo-code: a node goes
/// to its lowest anchor ancestor-or-self whatever lies between them.
pub fn dispatch<'a>(
    anchors: &'a [Dewey],
    merged: &'a [(Dewey, u64)],
    k: usize,
    checked: bool,
    scratch: &'a mut RtfScratch,
) -> Partitions<'a> {
    let full = full_mask(k.clamp(1, 64));
    scratch.stack.clear();
    scratch.path.clear();
    scratch.pending.clear();
    scratch.nodes.clear();
    scratch.ranges.clear();
    scratch.ranges.resize(anchors.len(), (0, 0));
    // Path nodes open in document order, so one cursor finds anchors.
    let mut next_anchor = 0usize;
    for (i, (dewey, mask)) in merged.iter().enumerate() {
        let comps = dewey.components();
        let common = (scratch.path.iter().zip(comps))
            .take_while(|(a, b)| a == b)
            .count();
        close_to(scratch, common, full, checked);
        for &c in &comps[common..] {
            scratch.path.push(c);
            let path = scratch.path.as_slice();
            while anchors
                .get(next_anchor)
                .is_some_and(|a| a.components() < path)
            {
                next_anchor += 1;
            }
            let is_anchor = anchors
                .get(next_anchor)
                .is_some_and(|a| a.components() == path);
            scratch.stack.push(SweepEntry {
                mask: 0,
                pending_start: scratch.pending.len() as u32,
                anchor: if is_anchor { next_anchor as u32 } else { NONE },
            });
            next_anchor += usize::from(is_anchor);
        }
        if let Some(top) = scratch.stack.last_mut() {
            top.mask |= mask;
            scratch.pending.push(i as u32);
        }
    }
    // Whatever is still pending after the root closes is orphaned.
    close_to(scratch, 0, full, checked);
    Partitions::new(anchors, merged, scratch)
}

/// Closes path nodes until `depth` remain open. A closing node with a
/// full mask is the deepest common ancestor of the keyword nodes still
/// pending below it: an anchor takes them as its partition, a shadowed
/// node discards them (the literal variant instead hands every
/// non-anchor's nodes on to its parent).
fn close_to(scratch: &mut RtfScratch, depth: usize, full: u64, checked: bool) {
    while scratch.stack.len() > depth {
        let entry = scratch.stack.pop().expect("len > depth");
        scratch.path.pop();
        let start = entry.pending_start as usize;
        let common_ancestor = entry.mask & full == full;
        if entry.anchor != NONE && (common_ancestor || !checked) {
            let run = scratch.nodes.len() as u32;
            scratch.nodes.extend_from_slice(&scratch.pending[start..]);
            scratch.ranges[entry.anchor as usize] = (run, scratch.nodes.len() as u32 - run);
            scratch.pending.truncate(start);
        } else if common_ancestor && checked {
            scratch.pending.truncate(start);
        }
        if let Some(parent) = scratch.stack.last_mut() {
            parent.mask |= entry.mask;
        }
    }
}

/// Dispatches every keyword node of `sets` to its anchor — `getRTF`
/// over a freshly merged stream. `anchors` must be sorted in document
/// order; the result preserves that order.
#[must_use]
pub fn get_rtf(anchors: &[Dewey], sets: &KeywordNodeSets) -> Vec<Rtf> {
    let merged = merge_postings(sets.sets());
    dispatch(
        anchors,
        &merged,
        sets.len(),
        true,
        &mut RtfScratch::default(),
    )
    .to_rtfs()
}

/// The paper's **literal** `getRTF` pseudo-code, without the
/// deepest-common-ancestor check.
///
/// Kept for ablation and to demonstrate the divergence from
/// Definition 2: when a keyword node's deepest common ancestor is a
/// *shadowed* (non-interesting) node, this variant still assigns it to
/// its lowest interesting-LCA ancestor, violating the RTF completeness
/// conditions (see `tests::unchecked_variant_diverges_from_definition_2`
/// below and `tests/rtf_spec_oracle.rs`). Use [`get_rtf`] unless you
/// specifically want the paper's verbatim behaviour.
#[must_use]
pub fn get_rtf_unchecked(anchors: &[Dewey], sets: &KeywordNodeSets) -> Vec<Rtf> {
    let merged = merge_postings(sets.sets());
    dispatch(
        anchors,
        &merged,
        sets.len(),
        false,
        &mut RtfScratch::default(),
    )
    .to_rtfs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xks_index::{InvertedIndex, Query};
    use xks_lca::elca_stack;
    use xks_xmltree::fixtures::publications;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn resolve(query: &str) -> KeywordNodeSets {
        let tree = publications();
        let index = InvertedIndex::build(&tree);
        index
            .resolve(&Query::parse(query).unwrap())
            .expect("all keywords match")
    }

    fn run(query: &str) -> Vec<Rtf> {
        let sets = resolve(query);
        let anchors = elca_stack(sets.sets());
        get_rtf(&anchors, &sets)
    }

    #[test]
    fn q2_partitions_match_example_3() {
        // Example 3/4: RTFs are {r} anchored at ref and {n, t, a}
        // anchored at article 0.2.0.
        let rtfs = run("liu keyword");
        assert_eq!(rtfs.len(), 2);

        assert_eq!(rtfs[0].anchor, d("0.2.0"));
        let knodes: Vec<String> = rtfs[0]
            .keyword_deweys()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(knodes, ["0.2.0.0.0.0", "0.2.0.1", "0.2.0.2"]);

        assert_eq!(rtfs[1].anchor, d("0.2.0.3.0"));
        let knodes: Vec<String> = rtfs[1]
            .keyword_deweys()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(knodes, ["0.2.0.3.0"]);
    }

    #[test]
    fn q3_single_partition_with_all_keyword_nodes() {
        // Example 6: one anchor (the root) collecting all five nodes.
        let rtfs = run("vldb title xml keyword search");
        assert_eq!(rtfs.len(), 1);
        assert_eq!(rtfs[0].anchor, d("0"));
        let knodes: Vec<String> = rtfs[0]
            .keyword_deweys()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            knodes,
            ["0.0", "0.2.0.1", "0.2.0.2", "0.2.0.3.0", "0.2.1.1"]
        );
    }

    #[test]
    fn every_rtf_covers_the_query() {
        for q in [
            "liu keyword",
            "vldb title xml keyword search",
            "skyline query",
        ] {
            let sets = resolve(q);
            let anchors = elca_stack(sets.sets());
            for rtf in get_rtf(&anchors, &sets) {
                assert!(
                    rtf.keyword_union().covers_query(sets.query().len()),
                    "query {q}: anchor {} does not cover",
                    rtf.anchor
                );
            }
        }
    }

    #[test]
    fn keyword_masks_recorded_per_node() {
        let rtfs = run("liu keyword");
        // ref contains both keywords.
        let (_, mask) = &rtfs[1].knodes[0];
        assert_eq!(mask.len(), 2);
        // name contains only "liu" (keyword 0).
        let (_, mask) = &rtfs[0].knodes[0];
        assert!(mask.contains(0) && !mask.contains(1));
    }

    #[test]
    fn orphan_keyword_nodes_are_dropped() {
        use xks_index::Query;
        // Hand-built: anchors = {0.0.0} only; keyword node 0.1 (k1) has
        // no covering anchor.
        let q = Query::parse("k1 k2").unwrap();
        let sets = KeywordNodeSets::new(
            q,
            vec![vec![d("0.0.0.0"), d("0.0.1")], vec![d("0.0.0.1"), d("0.1")]],
        );
        let anchors = elca_stack(sets.sets());
        assert_eq!(anchors, vec![d("0.0.0")]);
        let rtfs = get_rtf(&anchors, &sets);
        assert_eq!(rtfs.len(), 1);
        let knodes: Vec<String> = rtfs[0]
            .keyword_deweys()
            .iter()
            .map(ToString::to_string)
            .collect();
        // 0.0.1 and 0.1 are orphans (outside the only anchor 0.0.0).
        assert_eq!(knodes, ["0.0.0.0", "0.0.0.1"]);
    }

    #[test]
    fn unchecked_variant_diverges_from_definition_2() {
        // The shadowed-combination counterexample: root = 0, chain
        // 0.0 → 0.0.0 with k1+k2 under 0.0.0 plus an extra k1 under 0.0
        // (0.0.1) and root-level witnesses 0.1 (k1), 0.2 (k2).
        // ELCA = {0, 0.0.0}. The keyword node 0.0.1 (k1) combines with
        // 0.0.0's k2 to an LCA of 0.0 — a CA but *shadowed* node — so
        // Definition 2 bars it from the root partition; the paper's
        // literal dispatch includes it.
        let q = Query::parse("k1 k2").unwrap();
        let sets = KeywordNodeSets::new(
            q,
            vec![
                vec![d("0.0.0.0"), d("0.0.1"), d("0.1")],
                vec![d("0.0.0.1"), d("0.2")],
            ],
        );
        let anchors = xks_lca::elca_stack(sets.sets());
        assert_eq!(anchors, vec![d("0"), d("0.0.0")]);

        let faithful = get_rtf(&anchors, &sets);
        let root_nodes: Vec<String> = faithful[0]
            .keyword_deweys()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(root_nodes, ["0.1", "0.2"], "0.0.1 excluded by rule 3");

        let literal = get_rtf_unchecked(&anchors, &sets);
        let root_nodes: Vec<String> = literal[0]
            .keyword_deweys()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            root_nodes,
            ["0.0.1", "0.1", "0.2"],
            "the paper's dispatch keeps the shadowed node"
        );
        // The literal variant's partition violates the spec oracle.
        let spec = crate::spec::spec_rtfs(sets.sets()).unwrap();
        assert_eq!(spec.len(), 2);
        assert_eq!(
            spec[0].nodes.len(),
            2,
            "spec agrees with the checked variant"
        );
    }

    #[test]
    fn nested_anchors_assign_to_lowest() {
        let q = Query::parse("k1 k2").unwrap();
        // Anchors will be 0.0 (outer, via 0.0.0+0.0.1... ) — construct
        // the independent-witness shape: ELCA = {0, 0.0}.
        let sets = KeywordNodeSets::new(
            q,
            vec![vec![d("0.0.0"), d("0.1")], vec![d("0.0.1"), d("0.2")]],
        );
        let anchors = elca_stack(sets.sets());
        assert_eq!(anchors, vec![d("0"), d("0.0")]);
        let rtfs = get_rtf(&anchors, &sets);
        // Inner nodes go to 0.0, outer to 0.
        let outer: Vec<String> = rtfs[0]
            .keyword_deweys()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(outer, ["0.1", "0.2"]);
        let inner: Vec<String> = rtfs[1]
            .keyword_deweys()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(inner, ["0.0.0", "0.0.1"]);
    }
}
