//! The §5.1 keyword frequency tables and the planting engine.
//!
//! The paper selects 20 DBLP keywords and 13 XMark keywords and reports
//! each one's corpus frequency (e.g. `keyword (90)`, `data (25840)`;
//! `particle (12, 33, 69)` across the three XMark sizes). The
//! generators scale those frequencies by the corpus size ratio and plant
//! each keyword at that many pseudo-random text positions, so that the
//! *relative* selectivities — which drive the Figure 5/6 behaviour —
//! match the paper.

use rand::rngs::StdRng;
use rand::Rng;

/// DBLP keyword frequencies from §5.1 (`dblp20040213`, 197.6 MB).
pub const PAPER_DBLP_FREQS: &[(&str, u64)] = &[
    ("keyword", 90),
    ("similarity", 1242),
    ("recognition", 6447),
    ("algorithm", 14181),
    ("data", 25840),
    ("probabilistic", 2284),
    ("xml", 2121),
    ("dynamic", 7281),
    ("sigmod", 3983),
    ("tree", 3549),
    ("query", 3560),
    ("automata", 3337),
    ("pattern", 6513),
    ("retrieval", 5111),
    ("efficient", 8279),
    ("understanding", 1450),
    ("searching", 4618),
    ("vldb", 2313),
    ("henry", 1322),
    ("semantics", 3694),
];

/// XMark keyword frequencies from §5.1: `(keyword, [standard, data1,
/// data2])` for the 111.1 / 334.9 / 669.6 MB datasets.
pub const PAPER_XMARK_FREQS: &[(&str, [u64; 3])] = &[
    ("particle", [12, 33, 69]),
    ("dominator", [56, 150, 285]),
    ("threshold", [123, 405, 804]),
    ("chronicle", [426, 1286, 2568]),
    ("method", [552, 1667, 3356]),
    ("strings", [615, 1847, 3620]),
    ("unjust", [1000, 3044, 6150]),
    ("invention", [1546, 4715, 9404]),
    ("egypt", [2064, 5255, 12466]),
    ("leon", [2519, 7647, 15210]),
    ("preventions", [66216, 199365, 397672]),
    ("description", [11681, 35168, 70230]),
    ("order", [12705, 38141, 76271]),
];

/// A corpus of text blocks under construction: the generators first lay
/// out every block as background words, then [`TextCorpus::plant`]
/// overwrites sampled positions with query keywords, and finally the
/// blocks are consumed in order while building the tree.
#[derive(Debug)]
pub struct TextCorpus {
    blocks: Vec<Vec<String>>,
    planted: Vec<Vec<bool>>,
    /// Flat count of word positions across all blocks.
    positions: usize,
    /// Positions not yet holding a planted keyword.
    free: usize,
}

impl TextCorpus {
    /// Creates a corpus from pre-filled background blocks.
    #[must_use]
    pub fn new(blocks: Vec<Vec<String>>) -> Self {
        let positions = blocks.iter().map(Vec::len).sum();
        let planted = blocks.iter().map(|b| vec![false; b.len()]).collect();
        TextCorpus {
            blocks,
            planted,
            positions,
            free: positions,
        }
    }

    /// Number of word positions available.
    #[must_use]
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Number of blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when the corpus has no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Overwrites `count` uniformly-sampled word positions with
    /// `keyword`. Positions already holding a planted keyword are
    /// skipped (re-sampled), so successive plants do not evict each
    /// other; `count` is capped at the number of free positions.
    pub fn plant(&mut self, rng: &mut StdRng, keyword: &str, count: u64) {
        let target = (count as usize).min(self.free);
        let mut placed = 0;
        while placed < target {
            let b = rng.gen_range(0..self.blocks.len());
            if self.blocks[b].is_empty() {
                continue;
            }
            let w = rng.gen_range(0..self.blocks[b].len());
            if self.planted[b][w] {
                continue;
            }
            self.blocks[b][w] = keyword.to_owned();
            self.planted[b][w] = true;
            self.free -= 1;
            placed += 1;
        }
    }

    /// Like [`TextCorpus::plant`], but with *topical clustering*: each
    /// occurrence lands in one of the `hubs` blocks with probability
    /// `hub_p` (falling back to a uniform position when the chosen hub
    /// is full). Different keywords planted with the same hub list
    /// co-occur inside hub blocks the way topically related words
    /// co-occur in real corpora — which is what creates non-root LCA
    /// anchors for multi-keyword queries.
    pub fn plant_clustered(
        &mut self,
        rng: &mut StdRng,
        keyword: &str,
        count: u64,
        hubs: &[usize],
        hub_p: f64,
    ) {
        let target = (count as usize).min(self.free);
        let mut placed = 0;
        while placed < target {
            let in_hub = !hubs.is_empty() && rng.gen_bool(hub_p);
            let b = if in_hub {
                hubs[rng.gen_range(0..hubs.len())]
            } else {
                rng.gen_range(0..self.blocks.len())
            };
            if self.blocks[b].is_empty() {
                continue;
            }
            if in_hub && self.planted[b].iter().all(|p| *p) {
                // Hub saturated: place uniformly instead.
                self.plant(rng, keyword, 1);
                placed += 1;
                continue;
            }
            let w = rng.gen_range(0..self.blocks[b].len());
            if self.planted[b][w] {
                continue;
            }
            self.blocks[b][w] = keyword.to_owned();
            self.planted[b][w] = true;
            self.free -= 1;
            placed += 1;
        }
    }

    /// Consumes the corpus, returning the blocks joined into text
    /// strings in order.
    #[must_use]
    pub fn into_texts(self) -> Vec<String> {
        self.blocks.into_iter().map(|b| b.join(" ")).collect()
    }
}

/// Samples `n` distinct hub block indices out of `blocks`.
#[must_use]
pub fn sample_hubs(rng: &mut StdRng, blocks: usize, n: usize) -> Vec<usize> {
    let n = n.min(blocks);
    let mut hubs: Vec<usize> = Vec::with_capacity(n);
    while hubs.len() < n {
        let b = rng.gen_range(0..blocks);
        if !hubs.contains(&b) {
            hubs.push(b);
        }
    }
    hubs
}

/// Rank-frequency counts following a Zipf law: `count(r) ∝ r^-exponent`
/// for ranks `1..=ranks`, scaled so the counts sum to roughly `total`
/// (every rank keeps at least one occurrence).
///
/// `exponent = 0.0` is a uniform vocabulary; natural text sits near
/// `1.0`; higher exponents concentrate the mass in the head. The head
/// ranks become *stop words* — keywords so frequent that any query
/// containing one degenerates to scanning their posting list under a
/// k-way merge. That is exactly the adversarial regime the cost-based
/// planner targets: pairing a head word with a tail word gives the
/// rarest-first galloping intersection a posting-count ratio far above
/// `validrtf::plan::GALLOP_MIN_RATIO`, while a uniform vocabulary
/// (low exponent) keeps every list the same size and the planner on
/// the merge path. See `PERFORMANCE.md` §"How the planner picks an
/// order".
#[must_use]
pub fn zipf_counts(ranks: usize, total: u64, exponent: f64) -> Vec<u64> {
    if ranks == 0 {
        return Vec::new();
    }
    let weights: Vec<f64> = (1..=ranks).map(|r| (r as f64).powf(-exponent)).collect();
    let norm: f64 = weights.iter().sum();
    weights
        .iter()
        .map(|w| (((w / norm) * total as f64).round() as u64).max(1))
        .collect()
}

/// Scales a paper frequency by `scale`, with a floor of 5 occurrences:
/// below that, queries containing the keyword degenerate to a single
/// trivial fragment and stop exercising the pruning machinery at all
/// (the paper's rarest keyword, `particle`, has 12 occurrences even in
/// the smallest corpus).
#[must_use]
pub fn scaled(freq: u64, scale: f64) -> u64 {
    (((freq as f64) * scale).round() as u64).max(5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn corpus(blocks: usize, words: usize) -> TextCorpus {
        TextCorpus::new(vec![vec!["filler".to_owned(); words]; blocks])
    }

    #[test]
    fn plant_places_exact_counts() {
        let mut c = corpus(50, 10);
        let mut rng = StdRng::seed_from_u64(1);
        c.plant(&mut rng, "xml", 37);
        c.plant(&mut rng, "keyword", 11);
        let texts = c.into_texts();
        let count = |w: &str| {
            texts
                .iter()
                .flat_map(|t| t.split(' '))
                .filter(|t| *t == w)
                .count()
        };
        assert_eq!(count("xml"), 37);
        assert_eq!(count("keyword"), 11);
        assert_eq!(count("filler"), 500 - 48);
    }

    #[test]
    fn plant_caps_at_capacity() {
        let mut c = corpus(2, 3);
        let mut rng = StdRng::seed_from_u64(2);
        c.plant(&mut rng, "xml", 100);
        let texts = c.into_texts();
        let total: usize = texts
            .iter()
            .flat_map(|t| t.split(' '))
            .filter(|t| *t == "xml")
            .count();
        assert_eq!(total, 6);
    }

    #[test]
    fn free_count_tracks_saturated_hubs() {
        let mut c = corpus(10, 4);
        let mut rng = StdRng::seed_from_u64(3);
        // Two 4-word hubs take 30 placements at p = 1: they saturate,
        // and the rest falls back to uniform placement.
        c.plant_clustered(&mut rng, "xml", 30, &[2, 7], 1.0);
        c.plant(&mut rng, "keyword", 5);
        let recount = c.planted.iter().flatten().filter(|p| !**p).count();
        assert_eq!(c.free, recount);
        assert_eq!(c.free, 40 - 35);
        assert!(c.planted[2].iter().chain(&c.planted[7]).all(|p| *p));
    }

    #[test]
    fn plants_are_deterministic() {
        let run = || {
            let mut c = corpus(20, 5);
            let mut rng = StdRng::seed_from_u64(42);
            c.plant(&mut rng, "xml", 9);
            c.into_texts()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scaled_applies_floor_of_five() {
        assert_eq!(scaled(90, 1.0 / 50.0), 5);
        assert_eq!(scaled(12, 1.0 / 100.0), 5);
        assert_eq!(scaled(25840, 0.01), 258);
    }

    #[test]
    fn zipf_counts_follow_the_exponent() {
        // Uniform at exponent 0.
        let uniform = zipf_counts(10, 1000, 0.0);
        assert!(uniform.iter().all(|&c| c == 100), "{uniform:?}");

        // Skewed: monotone non-increasing, head dominates, total is
        // preserved to within rounding (+ the per-rank floor of 1).
        let skewed = zipf_counts(100, 100_000, 1.2);
        assert!(skewed.windows(2).all(|w| w[0] >= w[1]));
        assert!(skewed[0] > 20 * skewed[50], "head must dominate the tail");
        let total: u64 = skewed.iter().sum();
        assert!((99_000..=101_000).contains(&total), "{total}");
        assert!(skewed.iter().all(|&c| c >= 1));

        assert!(zipf_counts(0, 100, 1.0).is_empty());
    }

    #[test]
    fn paper_tables_have_expected_sizes() {
        assert_eq!(PAPER_DBLP_FREQS.len(), 20);
        assert_eq!(PAPER_XMARK_FREQS.len(), 13);
        // XMark columns grow with dataset size.
        for (kw, [s, d1, d2]) in PAPER_XMARK_FREQS {
            assert!(s < d1 && d1 < d2, "{kw} frequencies must grow");
        }
    }
}
