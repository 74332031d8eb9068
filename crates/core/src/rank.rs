//! Ranking of meaningful RTFs — the paper's stated future work.
//!
//! §7: *"the ranking of the retrieved meaningful RTFs is still needed
//! for carrying out the keyword search over XML data, and this is also
//! a part of our future work."* This module supplies that missing
//! stage with a transparent scoring scheme built from three signals the
//! XKS literature converges on:
//!
//! * **specificity** — deeper anchors answer the query more precisely
//!   than shallow ones (the intuition behind preferring SLCAs; XRank's
//!   decay has the same effect);
//! * **compactness** — among fragments covering the query, fewer glue
//!   nodes per keyword node means a tighter answer (the proximity
//!   intuition of GDMCT/MIU);
//! * **keyword density** — fragments whose keyword nodes each match
//!   many query keywords beat fragments assembling one keyword per
//!   node.
//!
//! Scores are normalized to `[0, 1]` per signal and combined by the
//! fixed [`WEIGHTS`], so rankings are comparable across queries.

use xks_xmltree::Dewey;

use crate::fragment::Fragment;
use crate::rtf::Partitions;

/// Weights of specificity, compactness and density; the combined score
/// is normalized by their sum.
const WEIGHTS: [f64; 3] = [1.0, 1.0, 0.5];

/// A scored fragment.
#[derive(Debug, Clone)]
pub(crate) struct RankedFragment {
    /// Index into the input fragment list.
    pub(crate) index: usize,
    /// Combined score in `[0, 1]`, higher is better.
    pub(crate) score: f64,
    /// The individual signals (same order: specificity, compactness,
    /// density), for explainability.
    pub(crate) signals: [f64; 3],
}

/// The specificity normalizer of a candidate set: its deepest anchor
/// level, at least 1, as a float.
pub(crate) fn depth_normalizer<'a>(anchors: impl Iterator<Item = &'a Dewey>) -> f64 {
    anchors.map(Dewey::level).max().unwrap_or(0).max(1) as f64
}

/// Scores one fragment of a query of `k` keywords against the depth
/// normalizer `max_depth` (see [`depth_normalizer`]). Scores are
/// comparable only under one normalizer.
pub(crate) fn score_fragment(f: &Fragment, k: usize, max_depth: f64) -> (f64, [f64; 3]) {
    let specificity = f.anchor.level() as f64 / max_depth;

    let keyword_nodes = f.iter().filter(|n| n.is_keyword).count().max(1);
    // 1.0 when every node is a keyword node; decays with glue.
    let compactness = keyword_nodes as f64 / f.len() as f64;

    // Average share of the query each keyword node matches.
    let density = f
        .iter()
        .filter(|n| n.is_keyword)
        .map(|n| n.kset.len() as f64 / k.max(1) as f64)
        .sum::<f64>()
        / keyword_nodes as f64;

    let signals = [specificity, compactness, density];
    let [ws, wc, wd] = WEIGHTS;
    let score = (ws * specificity + wc * compactness + wd * density) / (ws + wc + wd);
    (score, signals)
}

/// The visit order of a plain ranked top-k: RTFs best score **upper
/// bound** first, skipping each whose bound falls below the `top`-th
/// best score built so far. A skipped RTF's fragment scores strictly
/// lower than `top` built ones, so ranking the built fragments yields
/// the hits of building all. The bound of an RTF:
///
/// * specificity is exact, since pruning keeps the anchor;
/// * compactness is at most 1;
/// * density is at most the best keyword node's share of the query,
///   since pruning only removes nodes and an average of shares never
///   exceeds their maximum;
/// * the `1e-9` margin absorbs rounding differences against
///   [`score_fragment`], so a bound below a score implies a strictly
///   lower score.
#[derive(Debug)]
pub(crate) struct TopK {
    top: usize,
    k: usize,
    /// The depth normalizer over every anchor: each RTF of a plain
    /// query is a fragment, built or skipped.
    pub(crate) max_depth: f64,
    /// RTF indices and their bounds, best bound first (ties by index).
    order: Vec<(usize, f64)>,
    /// The `top` best scores built so far, descending.
    best: Vec<f64>,
}

impl TopK {
    /// The visit of `parts` for the `top` best fragments of a query of
    /// `k` keywords (`top >= 1`).
    pub(crate) fn new(parts: Partitions<'_>, k: usize, top: usize) -> Self {
        let max_depth = depth_normalizer((0..parts.len()).map(|i| parts.anchor(i)));
        let [ws, wc, wd] = WEIGHTS;
        let bound = |i: usize| {
            let specificity = parts.anchor(i).level() as f64 / max_depth;
            let density = parts
                .knodes(i)
                .map(|(_, kset)| kset.len() as f64 / k.max(1) as f64)
                .fold(0.0f64, f64::max);
            (ws * specificity + wc + wd * density) / (ws + wc + wd) + 1e-9
        };
        let mut order: Vec<(usize, f64)> = (0..parts.len()).map(|i| (i, bound(i))).collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        TopK {
            top,
            k,
            max_depth,
            order,
            best: Vec::with_capacity(top.min(parts.len())),
        }
    }

    /// The RTF to visit `n`-th, or `None` when it cannot make the cut.
    pub(crate) fn visit(&self, n: usize) -> Option<usize> {
        let (i, bound) = self.order[n];
        let full = self.best.len() == self.top;
        (!full || bound >= self.best[self.top - 1]).then_some(i)
    }

    /// Records the score of a fragment built from a visited RTF.
    pub(crate) fn built(&mut self, fragment: &Fragment) {
        let (score, _) = score_fragment(fragment, self.k, self.max_depth);
        let pos = self.best.partition_point(|&s| s >= score);
        if pos < self.top {
            self.best.truncate(self.top - 1);
            self.best.insert(pos, score);
        }
    }
}

/// Scores and sorts fragments of a query of `k` keywords, best first.
/// Ties break toward the earlier anchor in document order, so the
/// ranking is deterministic and does not depend on the input order.
pub(crate) fn rank(fragments: &[Fragment], k: usize, max_depth: f64) -> Vec<RankedFragment> {
    let mut ranked: Vec<RankedFragment> = fragments
        .iter()
        .enumerate()
        .map(|(index, f)| {
            let (score, signals) = score_fragment(f, k, max_depth);
            RankedFragment {
                index,
                score,
                signals,
            }
        })
        .collect();

    ranked.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| fragments[a.index].anchor.cmp(&fragments[b.index].anchor))
    });
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::valid_rtf;
    use xks_index::{InvertedIndex, Query};
    use xks_xmltree::fixtures::publications;

    fn fragments(query: &str) -> (Vec<Fragment>, usize) {
        let tree = publications();
        let index = InvertedIndex::build(&tree);
        let q = Query::parse(query).unwrap();
        let k = q.len();
        (valid_rtf(&tree, &index, &q), k)
    }

    fn ranked(frags: &[Fragment], k: usize) -> Vec<RankedFragment> {
        rank(frags, k, depth_normalizer(frags.iter().map(|f| &f.anchor)))
    }

    #[test]
    fn deeper_tighter_fragment_ranks_first() {
        // Q2 = "liu keyword": the single-node ref fragment (deep,
        // maximally compact, both keywords in one node) must beat the
        // article fragment.
        let (frags, k) = fragments("liu keyword");
        assert_eq!(frags.len(), 2);
        let ranked = ranked(&frags, k);
        assert_eq!(frags[ranked[0].index].anchor.to_string(), "0.2.0.3.0");
        assert!(ranked[0].score > ranked[1].score);
    }

    #[test]
    fn scores_are_normalized() {
        let (frags, k) = fragments("liu keyword");
        for r in ranked(&frags, k) {
            assert!((0.0..=1.0).contains(&r.score), "score {}", r.score);
            for s in r.signals {
                assert!((0.0..=1.0).contains(&s), "signal {s}");
            }
        }
    }

    #[test]
    fn equal_scores_break_toward_the_earlier_anchor() {
        // Two copies of the same fragment under anchors of one depth
        // score alike; whatever the input order, the earlier anchor wins.
        let (frags, k) = fragments("liu keyword");
        assert_eq!(frags[0].anchor.to_string(), "0.2.0");
        let mut later = frags[0].clone();
        later.anchor = "0.9.0".parse().unwrap();
        for input in [
            vec![frags[0].clone(), later.clone()],
            vec![later, frags[0].clone()],
        ] {
            let ranked = rank(&input, k, 4.0);
            assert_eq!(ranked[0].score, ranked[1].score);
            assert_eq!(input[ranked[0].index].anchor, frags[0].anchor);
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(rank(&[], 2, 1.0).is_empty());
    }
}
