//! Cost-based query planning: selectivity statistics, rarest-first
//! term ordering, and the gallop-vs-merge strategy choice.
//!
//! The anchor pass historically merged *every* posting of *every*
//! keyword (`xks_lca::merge_postings_into`), so one stop-word-ish term
//! dominated latency regardless of how selective the others were. The
//! planner instead:
//!
//! 1. reads per-keyword statistics ([`KeywordStats`]) that sealed
//!    backends store in the `.xks` keyword dict (format v2) or derive
//!    from the postings (v1);
//! 2. orders terms rarest-first and, when the skew pays for it
//!    ([`choose_strategy`]), drives the anchor pass by **galloping**
//!    from the rarest list (`xks_lca::gallop_elca`) instead of merging
//!    everything;
//! 3. lets the sharded backend *skip* `(keyword, shard)` probes via a
//!    per-shard [`KeywordFilter`] stored in the `.xksm` manifest;
//! 4. when `top_k` is set, bounds each RTF's best possible score so
//!    fragments that provably cannot enter the top k are never built
//!    (see `engine`).
//!
//! The chosen plan is surfaced per query as scalars in
//! [`crate::SearchStats`], as a `plan` trace stage, and in full via
//! [`PlanReport`] (the `xks explain` subcommand).

use xks_index::Query;
use xks_xmltree::Dewey;

use crate::source::CorpusSource;

/// Number of distinct documents a sorted posting run touches.
/// Documents are the second Dewey component (children of the corpus
/// root — the shard partition unit); sorted input makes distinct
/// ordinals consecutive, so one pass suffices. The root itself (a code
/// with no second component) counts as its own bucket.
#[must_use]
pub fn doc_frequency(deweys: &[Dewey]) -> u64 {
    let mut df = 0u64;
    let mut last: Option<Option<u32>> = None;
    for d in deweys {
        let doc = d.components().get(1).copied();
        if last != Some(doc) {
            df += 1;
            last = Some(doc);
        }
    }
    df
}

/// Sealed per-keyword selectivity statistics.
///
/// `None` from [`CorpusSource::keyword_stats`] means *unknown* — the
/// backend has no sealed statistics for the keyword (e.g. a mutable
/// delta touched it); the planner then falls back to the full merge.
/// `Some` with zero counts means the keyword is known absent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeywordStats {
    /// Total posting (keyword-node) count.
    pub postings: u64,
    /// Distinct documents containing the keyword (document frequency).
    pub docs: u64,
}

/// How the anchor pass executes the query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanStrategy {
    /// Legacy full k-way merge of all posting lists.
    #[default]
    FullMerge,
    /// Galloping intersection driven by the rarest list.
    Gallop,
}

impl PlanStrategy {
    /// Lowercase display name (`full-merge` / `gallop`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PlanStrategy::FullMerge => "full-merge",
            PlanStrategy::Gallop => "gallop",
        }
    }
}

/// Minimum ratio of total postings to the rarest list's length before
/// galloping pays for its per-candidate binary-search probes. Below
/// this the lists are near-uniform and the linear merge's cache
/// behavior wins.
pub const GALLOP_MIN_RATIO: u64 = 8;

/// Picks the anchor-pass strategy from the resolved list lengths.
/// Galloping requires at least two terms, sealed statistics for every
/// term (`all_sealed` — mutable deltas fall back to the merge), and
/// enough skew that the rarest list is [`GALLOP_MIN_RATIO`]× smaller
/// than the total.
#[must_use]
pub fn choose_strategy(lens: &[usize], all_sealed: bool) -> PlanStrategy {
    if !all_sealed || lens.len() < 2 {
        return PlanStrategy::FullMerge;
    }
    let total: u64 = lens.iter().map(|&l| l as u64).sum();
    let min = lens.iter().copied().min().unwrap_or(0) as u64;
    if total >= min.saturating_mul(GALLOP_MIN_RATIO) {
        PlanStrategy::Gallop
    } else {
        PlanStrategy::FullMerge
    }
}

/// Index of the rarest (shortest) list — the gallop driver. Ties break
/// toward the first list. Returns 0 for empty input.
#[must_use]
pub fn choose_driver(lens: &[usize]) -> usize {
    lens.iter()
        .enumerate()
        .min_by_key(|(_, &l)| l)
        .map_or(0, |(i, _)| i)
}

// ---------------------------------------------------------------------
// Per-shard keyword filter (manifest v2)

/// Smallest filter size in bits.
const FILTER_MIN_BITS: usize = 1024;
/// Largest filter size in bits (8 KiB per shard at the cap).
const FILTER_MAX_BITS: usize = 65536;
/// Hash probes per key.
const FILTER_PROBES: u32 = 2;

/// A small double-hashed Bloom filter over a shard's keyword
/// vocabulary, stored in the `.xksm` manifest so a
/// [`ShardSet`](crate::shards::ShardSet) can skip `(keyword, shard)`
/// probes for shards that provably miss the keyword. No false
/// negatives: `may_contain` returning `false` is proof of absence;
/// `true` may be a false positive (~3% at the sized 8 bits/key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordFilter {
    words: Vec<u64>,
}

impl KeywordFilter {
    /// Builds a filter sized for `keywords.len()` keys (~8 bits/key,
    /// clamped to `[1024, 65536]` bits, power-of-two).
    pub fn from_keywords<I, S>(keywords: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let keys: Vec<_> = keywords.into_iter().collect();
        let bits = (keys.len().max(1).saturating_mul(8))
            .next_power_of_two()
            .clamp(FILTER_MIN_BITS, FILTER_MAX_BITS);
        let mut filter = KeywordFilter {
            words: vec![0u64; bits / 64],
        };
        for key in &keys {
            filter.insert(key.as_ref());
        }
        filter
    }

    /// Reconstructs a filter from its stored words. `None` unless the
    /// length is a power of two within the sizing bounds (corrupt or
    /// foreign manifests).
    #[must_use]
    pub fn from_words(words: Vec<u64>) -> Option<Self> {
        let bits = words.len().checked_mul(64)?;
        if !(FILTER_MIN_BITS..=FILTER_MAX_BITS).contains(&bits) || !bits.is_power_of_two() {
            return None;
        }
        Some(KeywordFilter { words })
    }

    /// The backing words (for manifest serialization).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn insert(&mut self, keyword: &str) {
        let (h1, h2) = Self::probes(keyword);
        let mask = (self.words.len() as u64 * 64) - 1;
        for j in 0..FILTER_PROBES {
            let bit = (h1.wrapping_add(u64::from(j).wrapping_mul(h2))) & mask;
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// `false` proves the shard has no postings for `keyword`.
    #[must_use]
    pub fn may_contain(&self, keyword: &str) -> bool {
        let (h1, h2) = Self::probes(keyword);
        let mask = (self.words.len() as u64 * 64) - 1;
        (0..FILTER_PROBES).all(|j| {
            let bit = (h1.wrapping_add(u64::from(j).wrapping_mul(h2))) & mask;
            self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// FNV-1a 64 split into two probe hashes (`h2` forced odd so the
    /// double-hash walk covers the power-of-two bit space).
    fn probes(keyword: &str) -> (u64, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in keyword.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h & 0xffff_ffff, (h >> 32) | 1)
    }
}

// ---------------------------------------------------------------------
// Explain report

/// One term of an explained plan, in execution (rarest-first) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermPlan {
    /// The keyword.
    pub keyword: String,
    /// Resolved posting count.
    pub postings: u64,
    /// Sealed document frequency, `None` when the backend has no
    /// sealed statistics for this term.
    pub doc_freq: Option<u64>,
    /// Whether sealed statistics exist for this term.
    pub sealed: bool,
    /// Shards whose keyword filter proves this term absent (0 on
    /// unsharded backends).
    pub shards_skipped: u32,
}

/// The full plan for one query — what `xks explain` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// Terms in the planner's execution order (rarest first).
    pub terms: Vec<TermPlan>,
    /// Chosen anchor-pass strategy.
    pub strategy: PlanStrategy,
    /// Shard count of the backend (0 when unsharded).
    pub shards: u32,
}

impl PlanReport {
    /// Builds a report against one source: resolves each keyword's
    /// postings for exact lengths, reads sealed stats where available,
    /// and orders terms rarest-first. `shard_skips(keyword)` supplies
    /// the per-term filter-skip count (always 0 for unsharded
    /// backends).
    pub fn build(
        source: &dyn CorpusSource,
        query: &Query,
        shards: u32,
        mut shard_skips: impl FnMut(&str) -> u32,
    ) -> Result<Self, crate::source::SourceError> {
        let mut terms = Vec::with_capacity(query.len());
        let mut lens = Vec::with_capacity(query.len());
        for kw in query.keywords() {
            let postings = source.try_keyword_deweys(kw)?.len() as u64;
            let stats = source.keyword_stats(kw);
            lens.push(postings as usize);
            terms.push(TermPlan {
                keyword: kw.to_owned(),
                postings,
                doc_freq: stats.map(|s| s.docs),
                sealed: stats.is_some(),
                shards_skipped: shard_skips(kw),
            });
        }
        let all_sealed = terms.iter().all(|t| t.sealed);
        let strategy = choose_strategy(&lens, all_sealed);
        terms.sort_by(|a, b| a.postings.cmp(&b.postings).then(a.keyword.cmp(&b.keyword)));
        Ok(PlanReport {
            terms,
            strategy,
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_requires_skew_and_sealed_stats() {
        // Uniform lists: merge.
        assert_eq!(choose_strategy(&[10, 12, 9], true), PlanStrategy::FullMerge);
        // Skewed: gallop.
        assert_eq!(choose_strategy(&[5, 1000], true), PlanStrategy::Gallop);
        // Same skew, unsealed stats: merge.
        assert_eq!(choose_strategy(&[5, 1000], false), PlanStrategy::FullMerge);
        // Single term: merge.
        assert_eq!(choose_strategy(&[1000], true), PlanStrategy::FullMerge);
        assert_eq!(choose_strategy(&[], true), PlanStrategy::FullMerge);
        // Boundary: total == min * ratio gallops.
        assert_eq!(choose_strategy(&[10, 70], true), PlanStrategy::Gallop);
        assert_eq!(choose_strategy(&[10, 60], true), PlanStrategy::FullMerge);
    }

    #[test]
    fn driver_is_rarest_first_tie() {
        assert_eq!(choose_driver(&[30, 4, 4, 99]), 1);
        assert_eq!(choose_driver(&[7]), 0);
        assert_eq!(choose_driver(&[]), 0);
    }

    #[test]
    fn filter_has_no_false_negatives() {
        let keys: Vec<String> = (0..500).map(|i| format!("kw{i}")).collect();
        let filter = KeywordFilter::from_keywords(keys.iter());
        for k in &keys {
            assert!(filter.may_contain(k), "false negative for {k}");
        }
    }

    #[test]
    fn filter_rejects_most_foreign_keys() {
        let keys: Vec<String> = (0..500).map(|i| format!("kw{i}")).collect();
        let filter = KeywordFilter::from_keywords(keys.iter());
        let false_positives = (0..1000)
            .filter(|i| filter.may_contain(&format!("other{i}")))
            .count();
        // ~8 bits/key, 2 probes => a few percent; 20% is a loose cap.
        assert!(false_positives < 200, "{false_positives} false positives");
    }

    #[test]
    fn filter_sizes_clamp_and_round_trip() {
        let tiny = KeywordFilter::from_keywords(["a"]);
        assert_eq!(tiny.words().len() * 64, 1024);
        let big = KeywordFilter::from_keywords((0..100_000).map(|i| format!("k{i}")));
        assert_eq!(big.words().len() * 64, 65536);
        let rebuilt = KeywordFilter::from_words(tiny.words().to_vec()).unwrap();
        assert_eq!(rebuilt, tiny);
        assert!(KeywordFilter::from_words(vec![0; 3]).is_none());
        assert!(KeywordFilter::from_words(Vec::new()).is_none());
        assert!(KeywordFilter::from_words(vec![0; 4096]).is_none());
    }
}
