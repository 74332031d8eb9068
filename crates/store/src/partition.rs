//! Partitioning a shredded corpus into document-contiguous parts — the
//! storage-layer half of the sharded-corpus design.
//!
//! A *document* here is one top-level child of the corpus root (one
//! `<article>` under `<dblp>`, one `<item>` region under `<site>`, …):
//! the subtree rooted at a Dewey code with exactly two components.
//! [`partition`] splits a [`ShreddedDoc`] into at most `parts`
//! contiguous document ranges, balanced by element-row count, with
//! three invariants the sharded search layers build on:
//!
//! 1. **Document contiguity.** Part `i` owns the documents whose
//!    top-level ordinal lies in `[first_doc(i), first_doc(i+1))`, so
//!    concatenating per-part posting lists in part order yields a
//!    globally document-ordered list — the sharded postings merge is a
//!    plain concatenation, never a k-way merge.
//! 2. **Root ownership.** Rows of the corpus root itself (Dewey `0`,
//!    one component) — its element row and any value rows its own
//!    label/text contributes — go to part 0 exactly once, so no
//!    posting is duplicated or lost across parts.
//! 3. **Shared label table.** Every part carries the *full* label
//!    dictionary of the source corpus, so label ids embedded in
//!    element rows mean the same string in every part (fragments
//!    assembled from different shards render identically).
//!
//! The split is deterministic: the same corpus and part count always
//! produce the same partition.

use crate::tables::ShreddedDoc;

/// One part of a partitioned corpus: the contiguous document range it
/// owns plus its own fully-indexed [`ShreddedDoc`].
#[derive(Debug, Clone)]
pub struct CorpusPart {
    /// First top-level document ordinal this part owns. Part 0 always
    /// starts at 0 (and additionally owns the corpus root's rows).
    pub first_doc: u32,
    /// Number of top-level documents in the part.
    pub doc_count: u64,
    /// The part's tables (full label dictionary, its slice of the
    /// element/value rows, derived indexes rebuilt).
    pub doc: ShreddedDoc,
}

/// The top-level document ordinal of a dotted Dewey string, `None` for
/// the root (or an empty code).
fn top_ordinal(dewey: &str) -> Option<u32> {
    let rest = &dewey[dewey.find('.')? + 1..];
    let second = rest.split('.').next().unwrap_or(rest);
    second.parse().ok()
}

/// Splits `doc` into at most `parts` document-contiguous parts balanced
/// by element-row count (see the module docs for the invariants).
///
/// `parts` is clamped to `[1, document count]` — a corpus with fewer
/// top-level documents than requested parts yields one part per
/// document, and a root-only corpus yields a single part. The returned
/// parts are in document order and non-empty.
#[must_use]
pub fn partition(doc: &ShreddedDoc, parts: usize) -> Vec<CorpusPart> {
    // Count element rows per top-level document, in document order
    // (element rows are stored pre-order, so ordinals appear grouped
    // and ascending).
    let mut docs: Vec<(u32, usize)> = Vec::new();
    for row in &doc.elements {
        // Root rows (no top ordinal) always land in part 0; only
        // document rows drive the balance.
        if let Some(ordinal) = top_ordinal(&row.dewey) {
            match docs.last_mut() {
                Some((last, count)) if *last == ordinal => *count += 1,
                _ => docs.push((ordinal, 1)),
            }
        }
    }

    let parts = parts.clamp(1, docs.len().max(1));

    // Greedy approximately-balanced split: after each document, compare
    // the accumulated rows against the average of what the remaining
    // parts must absorb, and cut on whichever side of that target is
    // nearer (so one huge document can't swallow every boundary).
    // A cut is forced when exactly one document per remaining part is
    // left, so no part ever comes out empty.
    let mut boundaries: Vec<u32> = vec![0]; // first_doc per part
    if parts > 1 {
        let mut rest: usize = docs.iter().map(|&(_, n)| n).sum();
        let mut remaining_parts = parts;
        let mut acc = 0usize;
        for (i, &(_, rows)) in docs.iter().enumerate() {
            acc += rows;
            rest -= rows;
            let docs_left = docs.len() - i - 1;
            if remaining_parts <= 1 || docs_left == 0 {
                continue;
            }
            let target = (acc + rest).div_ceil(remaining_parts);
            let must_cut = docs_left == remaining_parts - 1;
            let next_rows = docs[i + 1].1;
            let overshoots_nearer = acc + next_rows > target
                && target.saturating_sub(acc) <= (acc + next_rows).saturating_sub(target);
            if must_cut || acc >= target || overshoots_nearer {
                boundaries.push(docs[i + 1].0);
                remaining_parts -= 1;
                acc = 0;
            }
        }
    }

    // Route every row to its part. Rows are in document order, so a
    // forward scan with a moving part index suffices.
    let route = |dewey: &str| -> usize {
        match top_ordinal(dewey) {
            None => 0,
            Some(ordinal) => boundaries.partition_point(|&b| b <= ordinal) - 1,
        }
    };
    let mut elements: Vec<Vec<crate::tables::ElementRow>> = vec![Vec::new(); boundaries.len()];
    for row in &doc.elements {
        elements[route(&row.dewey)].push(row.clone());
    }
    let mut values: Vec<Vec<crate::tables::ValueRow>> = vec![Vec::new(); boundaries.len()];
    for row in &doc.values {
        values[route(&row.dewey)].push(row.clone());
    }

    boundaries
        .iter()
        .enumerate()
        .map(|(i, &first_doc)| {
            let next = boundaries.get(i + 1).copied();
            let doc_count = docs
                .iter()
                .filter(|&&(o, _)| o >= first_doc && next.is_none_or(|n| o < n))
                .count() as u64;
            let mut part = ShreddedDoc::from_tables(
                doc.labels.clone(),
                std::mem::take(&mut elements[i]),
                std::mem::take(&mut values[i]),
            );
            part.rebuild_indexes();
            CorpusPart {
                first_doc,
                doc_count,
                doc: part,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shred;
    use xks_xmltree::fixtures::publications;

    #[test]
    fn partition_preserves_every_row_exactly_once() {
        let doc = shred(&publications());
        for parts in [1, 2, 3, 8] {
            let split = partition(&doc, parts);
            let elements: usize = split.iter().map(|p| p.doc.elements.len()).sum();
            let values: usize = split.iter().map(|p| p.doc.values.len()).sum();
            assert_eq!(elements, doc.elements.len(), "{parts} parts");
            assert_eq!(values, doc.values.len(), "{parts} parts");
            for part in &split {
                assert_eq!(part.doc.labels, doc.labels, "label table replicated");
                assert!(!part.doc.elements.is_empty());
            }
        }
    }

    #[test]
    fn root_rows_live_in_part_zero_only() {
        let doc = shred(&publications());
        let split = partition(&doc, 3);
        assert!(split[0].doc.elements.iter().any(|r| r.dewey == "0"));
        for part in &split[1..] {
            assert!(part.doc.elements.iter().all(|r| r.dewey != "0"));
            assert!(part.doc.values.iter().all(|r| r.dewey != "0"));
        }
    }

    #[test]
    fn boundaries_are_contiguous_and_ordered() {
        let doc = shred(&publications());
        let split = partition(&doc, 2);
        assert_eq!(split[0].first_doc, 0);
        assert!(split.windows(2).all(|w| w[0].first_doc < w[1].first_doc));
        let total_docs: u64 = split.iter().map(|p| p.doc_count).sum();
        let roots = doc
            .elements
            .iter()
            .filter(|r| r.dewey.matches('.').count() == 1)
            .count() as u64;
        assert_eq!(total_docs, roots);
    }

    #[test]
    fn more_parts_than_documents_clamps() {
        let doc = shred(&xks_xmltree::parse("<r><a>x</a><b>y</b></r>").unwrap());
        let split = partition(&doc, 16);
        assert_eq!(split.len(), 2, "one part per document");
        let one = partition(&doc, 0);
        assert_eq!(one.len(), 1, "zero parts clamps to one");
    }

    #[test]
    fn concatenated_postings_stay_document_ordered() {
        let doc = shred(&publications());
        let split = partition(&doc, 3);
        for (kw, deweys) in doc.postings() {
            let mut gathered = Vec::new();
            for part in &split {
                gathered.extend(part.doc.postings().get(kw).into_iter().flatten().cloned());
            }
            assert_eq!(&gathered, deweys, "{kw}");
        }
    }
}
