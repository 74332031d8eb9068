//! ELCA computation — the paper's `getLCA` stage.
//!
//! ValidRTF anchors its RTFs at **all interesting LCA nodes**, i.e. the
//! ELCA set of Xu & Papakonstantinou (EDBT 2008), computed there by the
//! *Indexed Stack* algorithm. We implement an output-equivalent
//! single-pass algorithm over the merged, document-ordered keyword-node
//! stream, maintaining a stack that mirrors the Dewey path of the
//! current node (one entry per path component).
//!
//! Each stack entry tracks two keyword bitmasks for the corresponding
//! path node:
//!
//! * `raw`  — keywords occurring anywhere in the node's subtree
//!   (decides CA-ness);
//! * `excl` — keywords occurring in the subtree **excluding** the
//!   subtrees of CA descendants (decides ELCA-ness: the witness
//!   condition says a witness shadowed by a CA proper descendant does
//!   not count).
//!
//! When an entry is popped (the scan has left its subtree), it is an
//! ELCA iff `excl` covers the query; it contributes `raw` to its
//! parent's `raw`, and to the parent's `excl` **only when it is not
//! itself CA** (a CA child's occurrences are all shadowed for every
//! ancestor).
//!
//! Complexity: `O(Σ|D_i| · depth)` time, `O(depth)` stack space — the
//! same asymptotics Indexed Stack achieves on these inputs, which is
//! why this pass stands in for it.

use xks_xmltree::Dewey;

use crate::common::{full_mask, merge_postings_into};

#[derive(Debug)]
struct Entry {
    /// Keywords in the subtree (so far).
    raw: u64,
    /// Keywords in the subtree excluding CA-descendant subtrees (so far).
    excl: u64,
}

/// Reusable working memory for [`elca_from_merged`]. A warm scratch
/// (capacities grown by an earlier query) makes the ELCA pass perform
/// **zero heap allocations** for documents up to the warmed depth —
/// asserted by the workspace's counting-allocator test.
#[derive(Debug, Default)]
pub struct ElcaScratch {
    /// The mask stack, one entry per component of the current path.
    entries: Vec<Entry>,
    /// The current path's components (mirrors `entries`), so a result
    /// code is built by slicing instead of collecting a fresh vector.
    path: Vec<u32>,
}

/// Computes the ELCA set from an already-merged document-ordered
/// `(dewey, keyword-bitmask)` stream (see
/// [`crate::common::merge_postings_into`]) into `results`, reusing
/// every buffer involved.
///
/// `k` is the number of query keywords. The caller must guarantee the
/// stream covers all `k` lists' postings; empty input yields empty
/// results.
pub fn elca_from_merged(
    merged: &[(Dewey, u64)],
    k: usize,
    scratch: &mut ElcaScratch,
    results: &mut Vec<Dewey>,
) {
    results.clear();
    if merged.is_empty() || k == 0 {
        return;
    }
    let full = full_mask(k);
    scratch.entries.clear();
    scratch.path.clear();

    for (dewey, mask) in merged {
        let components = dewey.components();
        // Length of the common prefix between the stack path and this
        // node's path.
        let mut common = 0usize;
        while common < scratch.path.len()
            && common < components.len()
            && scratch.path[common] == components[common]
        {
            common += 1;
        }
        // Leave the subtrees we are no longer inside.
        pop_to(scratch, common, full, results);
        // Enter the new path components.
        for &c in &components[common..] {
            scratch.entries.push(Entry { raw: 0, excl: 0 });
            scratch.path.push(c);
        }
        // The node itself carries `mask`.
        let top = scratch
            .entries
            .last_mut()
            .expect("path has at least one component");
        top.raw |= mask;
        top.excl |= mask;
    }
    pop_to(scratch, 0, full, results);
    results.sort_unstable();
}

/// Computes the ELCA set of the keyword-node lists, in document order.
///
/// `sets[i]` is the sorted Dewey list `D_i`; any empty list (or no lists)
/// yields an empty result, since no node can cover the query.
///
/// Convenience wrapper allocating its own buffers; hot callers hold a
/// scratch and use [`elca_from_merged`] instead.
#[must_use]
pub fn elca_stack(sets: &[Vec<Dewey>]) -> Vec<Dewey> {
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    let mut merged = Vec::new();
    merge_postings_into(sets, &mut merged);
    let mut scratch = ElcaScratch::default();
    let mut results = Vec::new();
    elca_from_merged(&merged, sets.len(), &mut scratch, &mut results);
    results
}

/// Pops stack entries until `entries.len() == target`, finalizing each
/// popped node: report it when its exclusive mask covers the query, and
/// fold its masks into the parent. The popped node's Dewey code is the
/// scratch path up to and including its component — built by slicing,
/// which stays allocation-free for codes within `Dewey::INLINE_CAP`.
fn pop_to(scratch: &mut ElcaScratch, target: usize, full: u64, results: &mut Vec<Dewey>) {
    while scratch.entries.len() > target {
        let entry = scratch.entries.pop().expect("len > target >= 0");
        if entry.excl & full == full {
            results.push(Dewey::from_slice(&scratch.path));
        }
        scratch.path.pop();
        if let Some(parent) = scratch.entries.last_mut() {
            parent.raw |= entry.raw;
            if entry.raw & full != full {
                // Not a CA subtree: its occurrences stay visible to
                // ancestors.
                parent.excl |= entry.raw;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_elca;

    fn list(items: &[&str]) -> Vec<Dewey> {
        items.iter().map(|s| s.parse().unwrap()).collect()
    }

    fn strs(v: &[Dewey]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    fn check(sets: &[Vec<Dewey>], expected: &[&str]) {
        assert_eq!(strs(&elca_stack(sets)), expected, "elca_stack");
        assert_eq!(strs(&naive_elca(sets)), expected, "naive oracle");
    }

    #[test]
    fn paper_q2_two_interesting_lcas() {
        // Example 3/4: "liu keyword" on Figure 1(a) → {0.2.0, 0.2.0.3.0}.
        let sets = vec![
            list(&["0.2.0.0.0.0", "0.2.0.3.0"]),
            list(&["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]),
        ];
        check(&sets, &["0.2.0", "0.2.0.3.0"]);
    }

    #[test]
    fn paper_q3_root_only() {
        let sets = vec![
            list(&["0.0"]),
            list(&["0.0", "0.2.0.1", "0.2.1.1"]),
            list(&["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]),
            list(&["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]),
            list(&["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]),
        ];
        check(&sets, &["0"]);
    }

    #[test]
    fn ca_shadowing_blocks_ancestor() {
        // The subtle case: d = 0.0 is CA but not ELCA; its witnesses are
        // shadowed for the root, which therefore is not ELCA either.
        let sets = vec![list(&["0.0.0.0", "0.0.1"]), list(&["0.0.0.1", "0.1"])];
        check(&sets, &["0.0.0"]);
    }

    #[test]
    fn independent_witnesses_keep_ancestor() {
        let sets = vec![list(&["0.0.0", "0.1"]), list(&["0.0.1", "0.2"])];
        check(&sets, &["0", "0.0"]);
    }

    #[test]
    fn keyword_node_is_its_own_elca() {
        let sets = vec![list(&["0.3"]), list(&["0.3"])];
        check(&sets, &["0.3"]);
    }

    #[test]
    fn nested_full_nodes() {
        // ref-style chain: node contains all keywords, ancestor has
        // another full child: both ELCAs.
        let sets = vec![list(&["0.0.0", "0.1.0"]), list(&["0.0.0", "0.1.1"])];
        check(&sets, &["0.0.0", "0.1"]);
    }

    #[test]
    fn empty_inputs() {
        assert!(elca_stack(&[]).is_empty());
        let sets = vec![list(&["0.1"]), vec![]];
        assert!(elca_stack(&sets).is_empty());
    }

    #[test]
    fn single_keyword_every_node_elca() {
        let sets = vec![list(&["0.0", "0.0.0", "0.2"])];
        check(&sets, &["0.0", "0.0.0", "0.2"]);
    }

    #[test]
    fn results_sorted_in_document_order() {
        // Sorted lists (the crate's input contract) whose nodes
        // interleave: each list's i-th node pairs with the other's.
        let sets = vec![
            list(&["0.0.0", "0.1.0", "0.2.0"]),
            list(&["0.0.1", "0.1.1", "0.2.1"]),
        ];
        let got = elca_stack(&sets);
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(got, sorted);
    }
}
