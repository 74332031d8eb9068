//! Galloping (binary-search driven) anchor computation for planned
//! queries — the rarest-first alternative to the full k-way merge.
//!
//! The legacy anchor pass ([`crate::elca_into_context`]) merges *every*
//! posting of *every* keyword into one document-ordered stream and runs
//! a stack pass over it, so a single stop-word-ish keyword dominates
//! latency regardless of how selective the other terms are. This module
//! computes the same ELCA set without materializing the merge:
//!
//! 1. the **SLCA frontier** comes from the eager indexed lookup
//!    ([`crate::indexed_lookup_eager_into`]), which is already driven by
//!    the smallest list and probes the others by binary search;
//! 2. **candidates** are the deepest covering-combination LCA prefixes
//!    of the *rarest* list's nodes ([`deepest_combination_len`]) — by
//!    the witness argument documented at [`gallop_elca`], this
//!    candidate set is complete for any choice of driver;
//! 3. each candidate is **verified** exactly against the ELCA
//!    definition: `u` is an ELCA iff every list has a witness inside
//!    `subtree(u)` but outside the *shadow* of `u` — the union of the
//!    subtrees of `u`'s children that contain an SLCA strictly below
//!    `u` (every common ancestor strictly below `u` is ancestor-or-self
//!    of such an SLCA and therefore inside one of those child subtrees,
//!    and conversely each such child is itself a common ancestor, so
//!    its whole subtree is shadowed). The witness check walks the gaps
//!    between consecutive child subtrees with `partition_point` range
//!    probes — `O(#children · log |list|)` per list, never touching the
//!    postings in between.
//!
//! Total cost is `O(|driver| · k · depth · log N)` instead of the
//! merge's `O(N log k + N · depth)`, a large win when the driver list
//! is small and some other list is huge. [`extract_anchored_into`]
//! then rebuilds the merged stream `getRTF` consumes, restricted to
//! the postings inside the anchors' subtrees — everything outside is
//! an orphan the RTF dispatch would drop anyway, so downstream results
//! are byte-identical to the merge path (differential-tested here and
//! at the engine layer).

use xks_xmltree::Dewey;

use crate::common::{deepest_combination_len, merge_runs_into};
use crate::slca::indexed_lookup_eager_into;

/// Reusable buffers for the galloping anchor pass, owned by
/// [`crate::QueryContext`] so a warm planned query allocates nothing.
#[derive(Debug, Default)]
pub struct GallopScratch {
    /// The SLCA frontier of the current query (document order).
    pub slcas: Vec<Dewey>,
    /// Candidate anchors derived from the driver list.
    pub candidates: Vec<Dewey>,
    /// Children of the candidate under verification that contain an
    /// SLCA strictly below it (the shadow roots).
    pub children: Vec<Dewey>,
}

impl GallopScratch {
    /// A fresh scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes the **ELCA** anchor set of `sets` into `out` (document
/// order, deduplicated) by galloping from the driver list instead of
/// merging all postings. Output-equivalent to [`crate::elca_stack`];
/// `driver` should be the index of the smallest list (any index is
/// correct, the smallest is fastest).
///
/// Why candidates from one list suffice and the check is exact:
///
/// 1. **Candidates.** Every ELCA `u` has, in each `D_i`, a witness
///    whose *deepest covering-combination LCA* is exactly `u`
///    (a deeper one would be a CA node shadowing the witness). So the
///    set `{deepest-combination-LCA(v) : v ∈ D_driver}` covers all
///    ELCAs — `O(|D_driver| · k)` binary searches.
/// 2. **Shadows.** A node `n` is shadowed w.r.t. an ancestor `u`
///    iff some CA node sits strictly between them; since every CA node
///    is an ancestor-or-self of an SLCA, that holds iff `n` lies under
///    a child of `u` that contains an SLCA — a property of the SLCA
///    frontier alone, which is all the verification probes.
///
/// Nodes whose subtree upper bound overflows (`u32::MAX` ordinals —
/// unreachable for real corpora) are skipped.
///
/// # Panics
/// Panics when `driver >= sets.len()` on non-empty input.
pub fn gallop_elca(
    sets: &[Vec<Dewey>],
    driver: usize,
    scratch: &mut GallopScratch,
    out: &mut Vec<Dewey>,
) {
    out.clear();
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        return;
    }
    let GallopScratch {
        slcas,
        candidates,
        children,
    } = scratch;
    indexed_lookup_eager_into(sets, slcas);

    candidates.clear();
    for v in &sets[driver] {
        let len = deepest_combination_len(v, sets);
        if len == 0 {
            continue; // no common prefix with some list: not a node
        }
        candidates.push(Dewey::from_slice(&v.components()[..len]));
    }
    candidates.sort_unstable();
    candidates.dedup();

    for u in candidates.iter() {
        if is_elca(u, sets, slcas, children) {
            out.push(u.clone());
        }
    }
}

/// Exact ELCA verification of one candidate `u` against the SLCA
/// frontier: every list must have a witness in `subtree(u)` outside the
/// shadow of `u`'s SLCA-bearing children.
fn is_elca(u: &Dewey, sets: &[Vec<Dewey>], slcas: &[Dewey], children: &mut Vec<Dewey>) -> bool {
    let Some(ub) = u.subtree_upper_bound() else {
        return false;
    };
    // SLCAs strictly below u occupy the document-order interval (u, ub).
    let lo = slcas.partition_point(|s| s <= u);
    let hi = slcas.partition_point(|s| s < &ub);
    children.clear();
    for s in &slcas[lo..hi] {
        let c = Dewey::from_slice(&s.components()[..u.len() + 1]);
        if children.last() != Some(&c) {
            children.push(c); // slcas sorted => consecutive dedup works
        }
    }
    'lists: for list in sets {
        let mut pos = list.partition_point(|d| d < u);
        for c in children.iter() {
            // Gap before this child's subtree: [pos, first >= c).
            if list.partition_point(|d| d < c) > pos {
                continue 'lists; // witness found
            }
            match c.subtree_upper_bound() {
                Some(cub) => pos = list.partition_point(|d| d < &cub),
                None => {
                    // c's ordinal is u32::MAX: no later sibling can
                    // exist, so subtree(c) runs to the end of
                    // subtree(u) and shadows everything after it.
                    pos = list.partition_point(|d| d < &ub);
                    break;
                }
            }
        }
        // Final gap: after the last child subtree, before ub.
        if list.partition_point(|d| d < &ub) > pos {
            continue 'lists;
        }
        return false; // some list has every witness shadowed
    }
    true
}

/// Rebuilds the merged `(dewey, keyword-bitmask)` stream for `getRTF`,
/// restricted to postings inside the subtrees of `anchors` (sorted,
/// deduplicated — as produced by the anchor passes). Per maximal
/// (outermost) anchor, each list contributes its document-order run
/// `[anchor, subtree upper bound)` found by two binary searches, and
/// those k runs go through the same k-way merge as
/// [`crate::merge_postings_into`], so for every node that survives the
/// filter the emitted `(dewey, mask)` pair is identical to the full
/// merge's. The maximal anchors' subtrees are disjoint and visited in
/// document order, so the appended merges are already one sorted
/// stream. Nodes outside every anchor's subtree are exactly the
/// orphans the RTF dispatch drops, hence downstream fragments are
/// byte-identical.
///
/// When an anchor's subtree upper bound overflows (unreachable
/// ordinals), its runs extend to the end of each list — a superset
/// that only adds orphans, preserving correctness.
///
/// # Panics
/// Panics when given more than 64 lists (the width of the mask).
pub fn extract_anchored_into(sets: &[Vec<Dewey>], anchors: &[Dewey], out: &mut Vec<(Dewey, u64)>) {
    debug_assert!(sets.iter().all(|l| l.is_sorted()), "unsorted posting list");
    out.clear();
    let mut pos = [0usize; 64];
    let mut end = [0usize; 64];
    let mut i = 0;
    while i < anchors.len() {
        let a = &anchors[i];
        let ub = a.subtree_upper_bound();
        for (ki, list) in sets.iter().enumerate() {
            pos[ki] = list.partition_point(|d| d < a);
            end[ki] = match &ub {
                Some(ub) => list.partition_point(|d| d < ub),
                None => list.len(),
            };
        }
        merge_runs_into(sets, &mut pos, &end, out);
        i += 1;
        match &ub {
            // Skip nested anchors: their subtrees are already covered.
            Some(ub) => {
                while i < anchors.len() && anchors[i] < *ub {
                    i += 1;
                }
            }
            None => break, // runs above already reached the list ends
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::merge_postings;
    use crate::elca::elca_stack;
    use crate::naive::naive_elca;
    use crate::slca::indexed_lookup_eager;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn list(items: &[&str]) -> Vec<Dewey> {
        items.iter().map(|s| d(s)).collect()
    }

    fn paper_sets() -> Vec<Vec<Dewey>> {
        vec![
            vec![d("0.0"), d("0.2.0.0.0.0"), d("0.2.0.3.0")],
            vec![d("0.2.0.1"), d("0.2.1.1")],
        ]
    }

    /// Deterministic pseudo-random posting lists sharing the document
    /// root, exercising nesting, duplicates across lists, and skew.
    fn random_sets(seed: u64, k: usize, max_len: usize) -> Vec<Vec<Dewey>> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound.max(1)
        };
        (0..k)
            .map(|_| {
                let len = next(max_len as u64) as usize + 1;
                let mut l: Vec<Dewey> = (0..len)
                    .map(|_| {
                        let depth = next(5) as usize + 1;
                        let mut comps = vec![0u32];
                        for _ in 0..depth {
                            comps.push(next(4) as u32);
                        }
                        Dewey::from_slice(&comps)
                    })
                    .collect();
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect()
    }

    #[test]
    fn matches_stack_on_paper_sets() {
        let sets = paper_sets();
        let mut scratch = GallopScratch::new();
        let mut out = Vec::new();
        for driver in 0..sets.len() {
            gallop_elca(&sets, driver, &mut scratch, &mut out);
            assert_eq!(out, elca_stack(&sets), "driver {driver}");
        }
    }

    #[test]
    fn matches_stack_and_naive_on_random_sets() {
        for seed in 0..200u64 {
            let k = (seed % 4 + 1) as usize;
            let sets = random_sets(seed, k, 24);
            let expected = elca_stack(&sets);
            assert_eq!(expected, naive_elca(&sets), "oracle disagrees, seed {seed}");
            let driver = (seed % k as u64) as usize;
            let mut scratch = GallopScratch::new();
            let mut out = Vec::new();
            gallop_elca(&sets, driver, &mut scratch, &mut out);
            assert_eq!(out, expected, "seed {seed} driver {driver}");
        }
    }

    #[test]
    fn single_list_yields_the_list() {
        // ELCA of one list is the list itself: each node is its own
        // unshadowed witness.
        let sets = vec![list(&["0.1", "0.1.0", "0.3"])];
        let mut scratch = GallopScratch::new();
        let mut out = Vec::new();
        gallop_elca(&sets, 0, &mut scratch, &mut out);
        assert_eq!(out, list(&["0.1", "0.1.0", "0.3"]));
        assert_eq!(out, elca_stack(&sets));
    }

    #[test]
    fn empty_and_disjoint_inputs() {
        let mut scratch = GallopScratch::new();
        let mut out = vec![d("0.9")];
        gallop_elca(&[], 0, &mut scratch, &mut out);
        assert!(out.is_empty());
        gallop_elca(&[list(&["0.1"]), vec![]], 0, &mut scratch, &mut out);
        assert!(out.is_empty());

        // Disjoint subtrees: the only common ancestor is the root.
        let sets = vec![list(&["0.0.1"]), list(&["0.1.2"])];
        gallop_elca(&sets, 0, &mut scratch, &mut out);
        assert_eq!(out, elca_stack(&sets));
        assert_eq!(out, list(&["0"]));
    }

    #[test]
    fn fully_overlapping_lists() {
        let l = list(&["0.0", "0.0.1", "0.2"]);
        let sets = vec![l.clone(), l.clone(), l];
        let mut scratch = GallopScratch::new();
        let mut out = Vec::new();
        gallop_elca(&sets, 1, &mut scratch, &mut out);
        assert_eq!(out, elca_stack(&sets));
    }

    #[test]
    fn extraction_equals_filtered_merge() {
        for seed in 0..200u64 {
            let k = (seed % 4 + 1) as usize;
            let sets = random_sets(seed.wrapping_add(7_777), k, 24);
            let anchors = elca_stack(&sets);
            let mut got = Vec::new();
            extract_anchored_into(&sets, &anchors, &mut got);
            let expected: Vec<(Dewey, u64)> = merge_postings(&sets)
                .into_iter()
                .filter(|(node, _)| anchors.iter().any(|a| a.is_ancestor_or_self(node)))
                .collect();
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn extraction_over_slca_anchors() {
        // The SLCA path uses the same extraction with a sparser anchor
        // set: still exactly the under-anchor slice of the full merge.
        let sets = paper_sets();
        let anchors = indexed_lookup_eager(&sets);
        let mut got = Vec::new();
        extract_anchored_into(&sets, &anchors, &mut got);
        let expected: Vec<(Dewey, u64)> = merge_postings(&sets)
            .into_iter()
            .filter(|(node, _)| anchors.iter().any(|a| a.is_ancestor_or_self(node)))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn extraction_with_no_anchors_is_empty() {
        let sets = paper_sets();
        let mut got = vec![(d("0"), 1u64)];
        extract_anchored_into(&sets, &[], &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn scratch_buffers_are_reused() {
        let sets = paper_sets();
        let mut scratch = GallopScratch::new();
        let mut out = Vec::new();
        gallop_elca(&sets, 0, &mut scratch, &mut out);
        let caps = (
            scratch.slcas.capacity(),
            scratch.candidates.capacity(),
            scratch.children.capacity(),
        );
        gallop_elca(&sets, 0, &mut scratch, &mut out);
        assert_eq!(
            caps,
            (
                scratch.slcas.capacity(),
                scratch.candidates.capacity(),
                scratch.children.capacity(),
            )
        );
    }
}
