//! SLCA algorithms (Xu & Papakonstantinou, SIGMOD 2005).
//!
//! [`indexed_lookup_eager`] computes, for each node `v` of the smallest
//! keyword list, the candidate `slca({v}, S_2, …, S_k)` — the deepest
//! LCA reachable from `v` using the *closest* match in every other
//! list, found by binary search (`lm`/`rm`) per lookup,
//! `O(|S_1| · k · log |S_max|)` — and then drops candidates that are
//! ancestors of other candidates (`removeAncestorNodes`).
//!
//! The original MaxMatch retrieves its SLCA anchors this way; ValidRTF
//! replaces this stage with the ELCA computation in [`crate::elca`].

use xks_xmltree::Dewey;

use crate::common::{deeper, left_match, push_frontier, remove_ancestors, right_match};

/// One step of the candidate computation: the deepest LCA of `x` with
/// the closest match in `list`.
fn closest_lca(x: &Dewey, list: &[Dewey]) -> Option<Dewey> {
    let l = left_match(list, x).map(|m| x.lca(m));
    let r = right_match(list, x).map(|m| x.lca(m));
    deeper(l, r)
}

/// Folds a freshly computed candidate into the result frontier. The
/// eager generators emit candidates satisfying the
/// [`push_frontier`] precondition, so this is O(1) amortized; the
/// release-mode fallback (dirty flag) keeps the function total should
/// the precondition ever break.
fn fold_candidate(out: &mut Vec<Dewey>, cand: Dewey, dirty: &mut bool) {
    if *dirty {
        out.push(cand);
    } else if let Err(rejected) = push_frontier(out, cand) {
        debug_assert!(false, "eager candidates violated frontier order");
        out.push(rejected);
        *dirty = true;
    }
}

/// The Indexed Lookup Eager SLCA algorithm, writing the SLCA set into a
/// caller-owned buffer. With a warm buffer the whole pass performs no
/// Dewey-related heap allocation: candidates are folded into the result
/// frontier incrementally (`removeAncestorNodes` as a single on-line
/// O(n) pass) instead of materializing a candidate list first.
pub fn indexed_lookup_eager_into(sets: &[Vec<Dewey>], out: &mut Vec<Dewey>) {
    out.clear();
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        return;
    }
    let driver = sets
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.len())
        .map(|(i, _)| i)
        .expect("non-empty sets");

    let mut dirty = false;
    'outer: for v in &sets[driver] {
        let mut x = v.clone();
        for (i, list) in sets.iter().enumerate() {
            if i == driver {
                continue;
            }
            match closest_lca(&x, list) {
                Some(next) => x = next,
                None => continue 'outer,
            }
        }
        fold_candidate(out, x, &mut dirty);
    }
    if dirty {
        *out = remove_ancestors(std::mem::take(out));
    }
}

/// The Indexed Lookup Eager SLCA algorithm.
///
/// `sets` are the sorted keyword-node lists `D_1..D_k`; the result is the
/// SLCA set in document order. Empty input (or any empty list) yields an
/// empty result.
#[must_use]
pub fn indexed_lookup_eager(sets: &[Vec<Dewey>]) -> Vec<Dewey> {
    let mut out = Vec::new();
    indexed_lookup_eager_into(sets, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_slca;

    fn list(items: &[&str]) -> Vec<Dewey> {
        items.iter().map(|s| s.parse().unwrap()).collect()
    }

    fn strs(v: &[Dewey]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    fn check_all(sets: &[Vec<Dewey>], expected: &[&str]) {
        assert_eq!(strs(&indexed_lookup_eager(sets)), expected, "ILE");
        assert_eq!(strs(&naive_slca(sets)), expected, "naive");
    }

    #[test]
    fn paper_q2_slca() {
        let sets = vec![
            list(&["0.2.0.0.0.0", "0.2.0.3.0"]),
            list(&["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]),
        ];
        check_all(&sets, &["0.2.0.3.0"]);
    }

    #[test]
    fn paper_q3_slca_is_root() {
        // Q3 on Figure 1(a): VLDB only at 0.0, rest under 0.2 — SLCA = 0.
        let sets = vec![
            list(&["0.0"]),
            list(&["0.0", "0.2.0.1", "0.2.1.1"]),
            list(&["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]),
            list(&["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]),
            list(&["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]),
        ];
        check_all(&sets, &["0"]);
    }

    #[test]
    fn multiple_slcas_across_siblings() {
        // Two articles, each containing both keywords.
        let sets = vec![list(&["0.0.0", "0.1.0"]), list(&["0.0.1", "0.1.1"])];
        check_all(&sets, &["0.0", "0.1"]);
    }

    #[test]
    fn keyword_node_containing_all() {
        let sets = vec![list(&["0.3"]), list(&["0.3"])];
        check_all(&sets, &["0.3"]);
    }

    #[test]
    fn empty_inputs() {
        assert!(indexed_lookup_eager(&[]).is_empty());
        let sets = vec![list(&["0.1"]), vec![]];
        assert!(indexed_lookup_eager(&sets).is_empty());
    }

    #[test]
    fn single_list_slca_is_deepest_nodes() {
        let sets = vec![list(&["0.0", "0.0.0", "0.1"])];
        check_all(&sets, &["0.0.0", "0.1"]);
    }

    #[test]
    fn ancestor_candidates_removed() {
        // Driver nodes produce nested candidates; only deepest survive.
        let sets = vec![list(&["0.0.0.0", "0.5"]), list(&["0.0.0.1", "0.5.0"])];
        check_all(&sets, &["0.0.0", "0.5"]);
    }
}
