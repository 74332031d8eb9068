//! Executable specification of Definitions 1 and 2.
//!
//! Definition 1 enumerates `ECT_Q` — all ways of choosing a non-empty
//! subset from every keyword-node list and uniting them. Definition 2
//! filters `ECT_Q` down to the Relaxed Tightest Fragments through three
//! conditions (uniqueness + completeness). This module implements them
//! with exponential enumeration as a ground-truth oracle — conditions 1
//! and 3 literally, condition 2 as *maximality among the condition-1∧3
//! survivors*: the literal text contradicts the paper's own Example 4
//! (see the inline comment at the condition-2 pass). Purpose:
//! the paper's analysis claim (1) — *"after getting all the interesting
//! LCA nodes, the getRTF procedure can retrieve all the basic RTFs"* —
//! is verified by differential tests between this oracle and the
//! `getLCA → getRTF` pipeline (see `tests/rtf_spec_oracle.rs`).
//!
//! Inputs must be tiny (the enumeration is `∏(2^|D_i|−1)`); the entry
//! point refuses anything above a hard bound instead of hanging.

use std::collections::BTreeSet;

use xks_xmltree::Dewey;

/// A partition in keyword-node form: the anchor and the sorted keyword
/// node set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpecRtf {
    /// `LCA(ECT_Q,j)`.
    pub anchor: Dewey,
    /// The keyword nodes of the partition.
    pub nodes: BTreeSet<Dewey>,
}

/// Upper bound on `∏(2^|D_i|−1)` before [`spec_rtfs`] refuses to run.
pub const MAX_ENUMERATION: u128 = 200_000;

/// Enumerates `ECT_Q` (Definition 1) as deduplicated unions, each with
/// its per-keyword decomposition implicit (recoverable as `E ∩ D_i`).
///
/// Returns `None` when the enumeration would exceed [`MAX_ENUMERATION`].
#[must_use]
pub fn enumerate_ect(sets: &[Vec<Dewey>]) -> Option<BTreeSet<BTreeSet<Dewey>>> {
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        return Some(BTreeSet::new());
    }
    let mut size: u128 = 1;
    for s in sets {
        if s.len() > 16 {
            return None;
        }
        size = size.checked_mul((1u128 << s.len()) - 1)?;
        if size > MAX_ENUMERATION {
            return None;
        }
    }

    let mut out: BTreeSet<BTreeSet<Dewey>> = BTreeSet::new();
    let mut stack: Vec<BTreeSet<Dewey>> = vec![BTreeSet::new()];
    for list in sets {
        let mut next = Vec::new();
        for base in &stack {
            for subset_mask in 1u32..(1 << list.len()) {
                let mut e = base.clone();
                for (i, d) in list.iter().enumerate() {
                    if (subset_mask >> i) & 1 == 1 {
                        e.insert(d.clone());
                    }
                }
                next.push(e);
            }
        }
        stack = next;
    }
    out.extend(stack);
    Some(out)
}

fn lca_of(nodes: &BTreeSet<Dewey>) -> Dewey {
    let v: Vec<Dewey> = nodes.iter().cloned().collect();
    Dewey::lca_of_all(&v).expect("non-empty node set")
}

/// Non-empty subsets of a small slice, as vectors of references.
fn non_empty_subsets(items: &[Dewey]) -> Vec<BTreeSet<Dewey>> {
    let mut out = Vec::with_capacity((1 << items.len()) - 1);
    for mask in 1u32..(1 << items.len()) {
        let mut s = BTreeSet::new();
        for (i, d) in items.iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                s.insert(d.clone());
            }
        }
        out.push(s);
    }
    out
}

/// Applies Definition 2's three conditions to the enumeration, returning
/// the RTF set. `None` when inputs are too large to enumerate.
#[must_use]
pub fn spec_rtfs(sets: &[Vec<Dewey>]) -> Option<Vec<SpecRtf>> {
    let ect = enumerate_ect(sets)?;
    let k = sets.len();
    let mut rtfs: Vec<SpecRtf> = Vec::new();

    'candidates: for e in &ect {
        let anchor = lca_of(e);
        // Decompose: E|i = E ∩ D_i, with every element of E in some D_i
        // by construction.
        let decomp: Vec<Vec<Dewey>> = sets
            .iter()
            .map(|di| {
                di.iter()
                    .filter(|d| e.contains(*d))
                    .cloned()
                    .collect::<Vec<Dewey>>()
            })
            .collect();
        if decomp.iter().any(Vec::is_empty) {
            continue; // not a covering combination (can't happen for ECT)
        }

        // Condition 1: every choice of non-empty subsets S_i ⊆ E|i has
        // the same LCA as E.
        {
            let subset_lists: Vec<Vec<BTreeSet<Dewey>>> =
                decomp.iter().map(|l| non_empty_subsets(l)).collect();
            let mut idx = vec![0usize; k];
            loop {
                let mut union: BTreeSet<Dewey> = BTreeSet::new();
                for (i, lists) in subset_lists.iter().enumerate() {
                    union.extend(lists[idx[i]].iter().cloned());
                }
                if lca_of(&union) != anchor {
                    continue 'candidates;
                }
                // advance mixed-radix counter
                let mut pos = 0;
                loop {
                    if pos == k {
                        break;
                    }
                    idx[pos] += 1;
                    if idx[pos] < subset_lists[pos].len() {
                        break;
                    }
                    idx[pos] = 0;
                    pos += 1;
                }
                if pos == k {
                    break;
                }
            }
        }

        // Condition 3: no keyword node of E can participate in a
        // combination whose LCA is a proper descendant of the anchor.
        // Shrinking sets only deepens LCAs, so singleton probes decide.
        for ei in &decomp {
            for v in ei {
                let choices: Vec<&Vec<Dewey>> = sets.iter().collect();
                if exists_descendant_combination(&anchor, v, &choices) {
                    continue 'candidates;
                }
            }
        }

        rtfs.push(SpecRtf {
            anchor,
            nodes: e.clone(),
        });
    }

    // Condition 2 — maximality. The literal text ("no strict superset
    // of E|i within D_i preserves the LCA") contradicts the paper's own
    // Example 4: {n,t,a} is declared an RTF although adding r preserves
    // the LCA — because {n,t,r,a} is itself invalid (r violates rule 3).
    // The consistent reading, which also matches the getRTF dispatch, is
    // maximality *among the candidates that survive rules 1 and 3*: a
    // survivor is an RTF iff no strict superset with the same anchor
    // also survives.
    let survivors = rtfs;
    let mut out: Vec<SpecRtf> = survivors
        .iter()
        .filter(|e| {
            !survivors.iter().any(|bigger| {
                bigger.anchor == e.anchor
                    && bigger.nodes.len() > e.nodes.len()
                    && e.nodes.is_subset(&bigger.nodes)
            })
        })
        .cloned()
        .collect();
    out.sort();
    Some(out)
}

/// Is there a choice of one node per list such that
/// `LCA(v, picks…)` is a proper descendant of `anchor`?
///
/// Every candidate LCA is a prefix of `v`, so the deepest achievable
/// combination LCA has length `min(len(v), min over lists of the deepest
/// per-list `lca(v, ·)`)` — per-list choices are independent. The
/// combination is a proper descendant of `anchor` (an ancestor-or-self
/// of `v`) iff that length exceeds `anchor`'s.
fn exists_descendant_combination(anchor: &Dewey, v: &Dewey, lists: &[&Vec<Dewey>]) -> bool {
    debug_assert!(anchor.is_ancestor_or_self(v));
    let mut best_len = v.len();
    for list in lists {
        let deepest = list
            .iter()
            .map(|d| v.lca(d).len())
            .max()
            .expect("non-empty list");
        best_len = best_len.min(deepest);
    }
    best_len > anchor.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn list(items: &[&str]) -> Vec<Dewey> {
        items.iter().map(|s| d(s)).collect()
    }

    #[test]
    fn example_3_and_4_reproduced() {
        // Q = "Liu keyword" on Figure 1(a):
        // D1 = {n, r}, D2 = {t, r, a}; exactly two RTFs: {r} and {n,t,a}.
        let sets = vec![
            list(&["0.2.0.0.0.0", "0.2.0.3.0"]),
            list(&["0.2.0.1", "0.2.0.3.0", "0.2.0.2"]),
        ];
        // Example 3: |ECT_Q| = 11, not 21, because r occurs in both lists.
        let ect = enumerate_ect(&sets).unwrap();
        assert_eq!(ect.len(), 11);

        let rtfs = spec_rtfs(&sets).unwrap();
        assert_eq!(rtfs.len(), 2);
        assert_eq!(rtfs[0].anchor, d("0.2.0"));
        let nodes: Vec<String> = rtfs[0].nodes.iter().map(ToString::to_string).collect();
        assert_eq!(nodes, ["0.2.0.0.0.0", "0.2.0.1", "0.2.0.2"]);
        assert_eq!(rtfs[1].anchor, d("0.2.0.3.0"));
        assert_eq!(rtfs[1].nodes.len(), 1);
    }

    #[test]
    fn q3_spec_single_rtf_at_root() {
        let sets = vec![
            list(&["0.0"]),
            list(&["0.0", "0.2.0.1", "0.2.1.1"]),
            list(&["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]),
            list(&["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]),
            list(&["0.2.0.1", "0.2.0.2", "0.2.0.3.0"]),
        ];
        let rtfs = spec_rtfs(&sets).unwrap();
        assert_eq!(rtfs.len(), 1);
        assert_eq!(rtfs[0].anchor, d("0"));
        // All keyword nodes belong to the single partition.
        assert_eq!(rtfs[0].nodes.len(), 5);
    }

    #[test]
    fn refuses_oversized_inputs() {
        let big: Vec<Dewey> = (0..17).map(|i| Dewey::root().child(i)).collect();
        assert!(enumerate_ect(&[big.clone(), big]).is_none());
    }

    #[test]
    fn empty_sets_give_empty_spec() {
        assert_eq!(spec_rtfs(&[]), Some(vec![]));
        let sets = vec![list(&["0.1"]), vec![]];
        assert_eq!(spec_rtfs(&sets), Some(vec![]));
    }

    #[test]
    fn disjoint_keywords_single_rtf() {
        let sets = vec![list(&["0.0"]), list(&["0.1"])];
        let rtfs = spec_rtfs(&sets).unwrap();
        assert_eq!(rtfs.len(), 1);
        assert_eq!(rtfs[0].anchor, d("0"));
        assert_eq!(rtfs[0].nodes.len(), 2);
    }
}
