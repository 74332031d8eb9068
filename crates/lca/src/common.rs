//! Shared helpers over sorted Dewey lists.

use xks_xmltree::Dewey;

/// `lm(S, v)`: the right-most node in sorted `S` that is `<= v`
/// (the *left match* of Xu & Papakonstantinou).
#[must_use]
pub fn left_match<'a>(list: &'a [Dewey], v: &Dewey) -> Option<&'a Dewey> {
    match list.binary_search(v) {
        Ok(i) => Some(&list[i]),
        Err(0) => None,
        Err(i) => Some(&list[i - 1]),
    }
}

/// `rm(S, v)`: the left-most node in sorted `S` that is `>= v`
/// (the *right match*).
#[must_use]
pub fn right_match<'a>(list: &'a [Dewey], v: &Dewey) -> Option<&'a Dewey> {
    match list.binary_search(v) {
        Ok(i) => Some(&list[i]),
        Err(i) => list.get(i),
    }
}

/// The deeper (longer) of two optional LCA results; ties broken toward
/// `a`. Both inputs being `None` yields `None`.
#[must_use]
pub fn deeper(a: Option<Dewey>, b: Option<Dewey>) -> Option<Dewey> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if y.len() > x.len() { y } else { x }),
        (Some(x), None) => Some(x),
        (None, y) => y,
    }
}

/// Pushes one SLCA-style candidate onto a document-ordered *frontier* —
/// the incremental form of `removeAncestorNodes`. Maintains the
/// invariant that `out` is sorted in document order and contains no
/// ancestor pairs, in O(1) amortized per push.
///
/// The eager candidate generators satisfy the precondition this relies
/// on: each new candidate is either `>=` the last kept one in document
/// order, or an ancestor of it (for driver nodes `v < v'`, the
/// candidate of `v'` that precedes the candidate of `v` must contain
/// `v' > v` in its subtree, hence be its ancestor). Hands the candidate
/// back as `Err` without pushing when the precondition is violated —
/// callers fall back to the sort-based path.
///
/// # Errors
/// `Err(cand)` when `cand` precedes the kept frontier without being an
/// ancestor of its last element (out-of-order unrelated candidate).
pub fn push_frontier(out: &mut Vec<Dewey>, cand: Dewey) -> Result<(), Dewey> {
    while let Some(last) = out.last() {
        if *last == cand || cand.is_ancestor_of(last) {
            return Ok(()); // duplicate, or ancestor of a kept deeper node
        }
        if last.is_ancestor_of(&cand) {
            out.pop(); // kept node was an ancestor of the new candidate
            continue;
        }
        if *last < cand {
            break;
        }
        return Err(cand); // out-of-order unrelated candidate
    }
    out.push(cand);
    Ok(())
}

/// Removes from a candidate multiset every node that is a proper
/// ancestor of another candidate, plus duplicates. Returns the result in
/// document order. This is `removeAncestorNodes` of Xu &
/// Papakonstantinou: applied to the SLCA candidate list it yields the
/// SLCA set.
///
/// A document-ordered input (what the eager candidate generators
/// produce) is processed in a single O(n) pass; unordered input costs
/// one `sort_unstable` first.
#[must_use]
pub fn remove_ancestors(mut candidates: Vec<Dewey>) -> Vec<Dewey> {
    if !candidates.is_sorted() {
        candidates.sort_unstable();
    }
    // Sorted input satisfies the `push_frontier` precondition trivially
    // (each candidate is >= its predecessor, so >= the last kept one).
    let mut out: Vec<Dewey> = Vec::with_capacity(candidates.len());
    for cand in candidates {
        let pushed = push_frontier(&mut out, cand);
        debug_assert!(pushed.is_ok(), "sorted input cannot violate order");
    }
    out
}

/// Merges sorted per-keyword posting lists into one document-ordered
/// stream of `(dewey, keyword-bitmask)` pairs, OR-ing the masks of nodes
/// that appear in several lists. The lists are already in document
/// order, so this is a k-way merge of their heads — `O(N log k)` code
/// comparisons, no sort — into `out`'s reused capacity: a warm caller
/// holding its buffer merges allocation-free.
///
/// # Panics
/// Panics when given more than 64 lists (the width of the mask).
pub fn merge_postings_into(sets: &[Vec<Dewey>], out: &mut Vec<(Dewey, u64)>) {
    debug_assert!(sets.iter().all(|l| l.is_sorted()), "unsorted posting list");
    out.clear();
    let mut pos = [0usize; 64];
    let mut end = [0usize; 64];
    for (e, list) in end.iter_mut().zip(sets) {
        *e = list.len();
    }
    merge_runs_into(sets, &mut pos, &end, out);
}

/// Appends the k-way merge of the sorted runs `sets[i][pos[i]..end[i]]`
/// to `out`, folding a code equal to the last one pushed into it by
/// OR-ing in its list's bit. The next code comes off a binary min-heap
/// of list indices keyed by each run's head, so a pop costs `O(log k)`
/// comparisons however many lists there are. Shared by
/// [`merge_postings_into`] and the planner's anchored extraction
/// ([`crate::gallop::extract_anchored_into`]), so both fold masks
/// identically.
pub(crate) fn merge_runs_into(
    sets: &[Vec<Dewey>],
    pos: &mut [usize; 64],
    end: &[usize; 64],
    out: &mut Vec<(Dewey, u64)>,
) {
    assert!(sets.len() <= 64, "{} lists overflow the mask", sets.len());
    let mut heap = [0u8; 64];
    let mut n = 0;
    for i in 0..sets.len() {
        if pos[i] < end[i] {
            heap[n] = i as u8;
            n += 1;
        }
    }
    for root in (0..n / 2).rev() {
        sift_down(&mut heap[..n], root, |a, b| {
            sets[a][pos[a]] < sets[b][pos[b]]
        });
    }
    while n > 0 {
        let i = usize::from(heap[0]);
        let head = &sets[i][pos[i]];
        let bit = 1u64 << i;
        match out.last_mut() {
            Some((last, mask)) if last == head => *mask |= bit,
            _ => out.push((head.clone(), bit)),
        }
        pos[i] += 1;
        if pos[i] == end[i] {
            n -= 1;
            heap[0] = heap[n];
        }
        sift_down(&mut heap[..n], 0, |a, b| sets[a][pos[a]] < sets[b][pos[b]]);
    }
}

/// Restores the min-heap order of `heap` below `at` under `less`.
fn sift_down(heap: &mut [u8], mut at: usize, less: impl Fn(usize, usize) -> bool) {
    loop {
        let left = 2 * at + 1;
        if left >= heap.len() {
            return;
        }
        let right = left + 1;
        let child = if right < heap.len() && less(heap[right].into(), heap[left].into()) {
            right
        } else {
            left
        };
        if !less(heap[child].into(), heap[at].into()) {
            return;
        }
        heap.swap(at, child);
        at = child;
    }
}

/// Allocating convenience wrapper over [`merge_postings_into`].
#[must_use]
pub fn merge_postings(sets: &[Vec<Dewey>]) -> Vec<(Dewey, u64)> {
    let mut out = Vec::new();
    merge_postings_into(sets, &mut out);
    out
}

/// The deepest `lca(v, ·)` length achievable against a sorted list —
/// attained at `v`'s document-order neighbors (`lm`/`rm`), so two
/// binary searches suffice. Returns 0 for an empty list.
#[must_use]
pub fn deepest_lca_len(list: &[Dewey], v: &Dewey) -> usize {
    let l = left_match(list, v).map_or(0, |m| v.lca(m).len());
    let r = right_match(list, v).map_or(0, |m| v.lca(m).len());
    l.max(r)
}

/// Length (code length = depth + 1) of the deepest covering-combination
/// LCA through `v`: one pick per keyword list, `v` included. This is
/// the quantity Definition 2's third rule compares anchors against, and
/// the candidate generator of the verification-based ELCA algorithm.
#[must_use]
pub fn deepest_combination_len(v: &Dewey, sets: &[Vec<Dewey>]) -> usize {
    let mut best = v.len();
    for list in sets {
        best = best.min(deepest_lca_len(list, v));
    }
    best
}

/// The full-query bitmask for `k` keywords.
#[must_use]
pub fn full_mask(k: usize) -> u64 {
    debug_assert!((1..=64).contains(&k));
    if k == 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
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
    fn left_and_right_match() {
        let l = list(&["0.0", "0.2", "0.4"]);
        assert_eq!(left_match(&l, &d("0.2")), Some(&d("0.2")));
        assert_eq!(left_match(&l, &d("0.3")), Some(&d("0.2")));
        assert_eq!(left_match(&l, &d("0")), None);
        assert_eq!(right_match(&l, &d("0.2")), Some(&d("0.2")));
        assert_eq!(right_match(&l, &d("0.3")), Some(&d("0.4")));
        assert_eq!(right_match(&l, &d("0.5")), None);
    }

    #[test]
    fn deeper_picks_longer() {
        assert_eq!(deeper(Some(d("0.1")), Some(d("0.1.2"))), Some(d("0.1.2")));
        assert_eq!(deeper(Some(d("0.1.2")), Some(d("0.1"))), Some(d("0.1.2")));
        assert_eq!(deeper(None, Some(d("0"))), Some(d("0")));
        assert_eq!(deeper(None, None), None);
        // Ties keep the first argument.
        assert_eq!(deeper(Some(d("0.1")), Some(d("0.2"))), Some(d("0.1")));
    }

    #[test]
    fn remove_ancestors_keeps_deepest() {
        let got = remove_ancestors(list(&["0", "0.2.0", "0.2", "0.3", "0.2.0"]));
        assert_eq!(got, list(&["0.2.0", "0.3"]));
    }

    #[test]
    fn remove_ancestors_empty_and_single() {
        assert!(remove_ancestors(vec![]).is_empty());
        assert_eq!(remove_ancestors(list(&["0.1"])), list(&["0.1"]));
    }

    #[test]
    fn merge_postings_ors_masks() {
        let sets = vec![list(&["0.1", "0.3"]), list(&["0.2", "0.3"])];
        let merged = merge_postings(&sets);
        let rendered: Vec<(String, u64)> =
            merged.iter().map(|(d, m)| (d.to_string(), *m)).collect();
        assert_eq!(
            rendered,
            vec![
                ("0.1".to_owned(), 0b01),
                ("0.2".to_owned(), 0b10),
                ("0.3".to_owned(), 0b11),
            ]
        );
    }

    #[test]
    fn full_mask_widths() {
        assert_eq!(full_mask(1), 0b1);
        assert_eq!(full_mask(3), 0b111);
        assert_eq!(full_mask(64), u64::MAX);
    }
}
