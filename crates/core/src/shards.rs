//! Sharded corpora: one routing [`CorpusSource`] over N document
//! partitions.
//!
//! # Topology
//!
//! A sharded corpus splits the document set (the top-level children of
//! the corpus root) into **contiguous ordinal ranges**, one shard per
//! range; shard 0 additionally owns the corpus root's own rows. Every
//! shard is an ordinary [`CorpusSource`] over its slice — an
//! `xks-persist` index file, a [`MemoryCorpus`](crate::MemoryCorpus)
//! over a partitioned table set, anything. [`ShardSet`] glues them back
//! into one logical corpus:
//!
//! * **keyword → postings** concatenates the per-shard lists in shard
//!   order — contiguity makes that a document-ordered merge with no
//!   k-way comparison — and never probes a shard whose keyword filter
//!   rejects the keyword;
//! * **Dewey → element** routes to the owning shard with one binary
//!   search over the range boundaries (`O(log shards)`).
//!
//! # Why the shard set sits *below* the anchor stages
//!
//! Per-shard end-to-end pipelines cannot be merged exactly: an ELCA
//! anchor may sit **above** the document level (the corpus root is an
//! interesting LCA whenever unshadowed witnesses live in different
//! documents — Example 3 of the paper's workload hits this constantly),
//! and such an anchor's fragment draws keyword nodes from *every*
//! shard. A shard searching alone either misses the anchor (its
//! keyword lists look empty for terms it doesn't hold) or reports a
//! root fragment covering only its slice. Either way the gathered
//! result would diverge from the unsharded engine.
//!
//! So sharding stays a storage concern: a [`ShardSet`] answers the two
//! storage questions of Algorithm 1 for the whole corpus, and the
//! engine runs `getKeywordNodes → getLCA → getRTF → pruneRTF` over it
//! exactly as over any other source, in one pass on the caller's
//! thread. `getKeywordNodes` sees exactly the unsharded keyword-node
//! sets, and a root-anchored fragment's lookups route to whichever
//! shards hold its nodes. Results are therefore **byte-identical** to
//! the unsharded engine by construction — not just on friendly
//! workloads — which the workspace pins against the golden digest in
//! `tests/sharded_differential.rs`. Parallelism comes from running
//! many queries at once ([`crate::executor`], `xks serve`), not from
//! splitting one.

use std::sync::Arc;

use xks_xmltree::Dewey;

use crate::fragment::Cid;
use crate::source::{CorpusSource, SourceElement, SourceError};

/// N corpus shards glued into one logical [`CorpusSource`] (see the
/// module docs for the topology and merge/routing invariants).
///
/// `ShardSet` is `Send + Sync` like every corpus source: one set can
/// back many engines and query threads at once behind an `Arc`.
/// Cloning is cheap — shard handles are `Arc`s — and clones share the
/// underlying shards (and, for disk shards, their pools and caches).
#[derive(Debug, Clone)]
pub struct ShardSet {
    shards: Vec<Arc<dyn CorpusSource>>,
    /// `first_docs[i]` is the first top-level document ordinal shard
    /// `i` owns; ranges are contiguous, so shard `i` ends where shard
    /// `i + 1` begins.
    first_docs: Vec<u32>,
    /// Optional per-shard keyword filters (`filters[i]` covers shard
    /// `i`'s vocabulary). Empty when the topology carries none; a
    /// `None` entry means that one shard has no filter. Filters have
    /// no false negatives, so a rejecting filter proves the shard's
    /// postings list is empty and the lookup is skipped.
    filters: Vec<Option<crate::plan::KeywordFilter>>,
}

impl ShardSet {
    /// Builds a set from shards and their range starts.
    ///
    /// `first_docs` must have one entry per shard, start at 0 (shard 0
    /// owns the corpus root and the first documents), and be strictly
    /// increasing; anything else is a corrupted topology and comes back
    /// as a [`SourceError`].
    pub fn new(
        shards: Vec<Arc<dyn CorpusSource>>,
        first_docs: Vec<u32>,
    ) -> Result<Self, SourceError> {
        if shards.is_empty() {
            return Err(SourceError::new("shard set holds no shards"));
        }
        if shards.len() != first_docs.len() {
            return Err(SourceError::new(format!(
                "{} shards but {} range starts",
                shards.len(),
                first_docs.len()
            )));
        }
        if first_docs[0] != 0 {
            return Err(SourceError::new(format!(
                "shard 0 must start at document 0, found {}",
                first_docs[0]
            )));
        }
        if !first_docs.windows(2).all(|w| w[0] < w[1]) {
            return Err(SourceError::new(
                "shard range starts must be strictly increasing",
            ));
        }
        Ok(ShardSet {
            shards,
            first_docs,
            filters: Vec::new(),
        })
    }

    /// Builds a set like [`ShardSet::new`] and attaches per-shard
    /// keyword filters (one entry per shard, `None` where a shard has
    /// none). Every postings and statistics lookup consults them to
    /// skip the shards a filter proves empty; filters must therefore
    /// have **no false negatives** over the shard's vocabulary or
    /// results will silently lose postings.
    pub fn with_filters(
        shards: Vec<Arc<dyn CorpusSource>>,
        first_docs: Vec<u32>,
        filters: Vec<Option<crate::plan::KeywordFilter>>,
    ) -> Result<Self, SourceError> {
        let mut set = Self::new(shards, first_docs)?;
        if filters.len() != set.shards.len() {
            return Err(SourceError::new(format!(
                "{} shards but {} keyword filters",
                set.shards.len(),
                filters.len()
            )));
        }
        set.filters = filters;
        Ok(set)
    }

    /// A single-shard set over any source (the degenerate topology —
    /// useful for differential tests and CLI fallbacks).
    #[must_use]
    pub fn single(shard: Arc<dyn CorpusSource>) -> Self {
        ShardSet {
            shards: vec![shard],
            first_docs: vec![0],
            filters: Vec::new(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in document order.
    #[must_use]
    pub fn shards(&self) -> &[Arc<dyn CorpusSource>] {
        &self.shards
    }

    /// First top-level document ordinal of each shard.
    #[must_use]
    pub fn first_docs(&self) -> &[u32] {
        &self.first_docs
    }

    /// Index of the shard owning `dewey`: codes at or above the
    /// document level (the corpus root) belong to shard 0; everything
    /// else routes by its top-level ordinal. Codes past the last range
    /// route to the last shard, which simply reports them absent.
    #[must_use]
    pub fn owning_shard(&self, dewey: &Dewey) -> usize {
        match dewey.components().get(1) {
            None => 0,
            Some(&ordinal) => self.first_docs.partition_point(|&f| f <= ordinal) - 1,
        }
    }

    /// The shard owning `dewey`, as a source.
    #[must_use]
    pub fn route(&self, dewey: &Dewey) -> &Arc<dyn CorpusSource> {
        &self.shards[self.owning_shard(dewey)]
    }

    /// Whether shard `shard` can possibly hold postings for `keyword`.
    /// `true` when the shard carries no filter (unknown ⇒ must probe);
    /// `false` only on a filter rejection, which is a proof of absence.
    #[must_use]
    pub fn shard_may_contain(&self, shard: usize, keyword: &str) -> bool {
        match self.filters.get(shard) {
            Some(Some(filter)) => filter.may_contain(keyword),
            _ => true,
        }
    }

    /// How many of the set's shards prove (via their keyword filter)
    /// that they hold no postings for `keyword` — the lookups
    /// [`CorpusSource::try_keyword_deweys`] skips for this term.
    #[must_use]
    pub fn shard_skips(&self, keyword: &str) -> u32 {
        (0..self.shards.len())
            .filter(|&i| !self.shard_may_contain(i, keyword))
            .count() as u32
    }
}

impl CorpusSource for ShardSet {
    fn label_name(&self, label: u32) -> Option<String> {
        // Label tables are replicated in full across shards (a
        // partition invariant — `xks_store::partition`), so any shard
        // answers for the whole corpus.
        self.shards[0].label_name(label)
    }

    fn node_count(&self) -> usize {
        self.shards.iter().map(|s| s.node_count()).sum()
    }

    fn keyword_stats(&self, keyword: &str) -> Option<crate::plan::KeywordStats> {
        // Sealed only when every shard knows its stats; one unknown
        // shard makes the whole sum unknown. Filter-rejected shards
        // contribute provable zeros without being probed.
        let mut total = crate::plan::KeywordStats::default();
        for (i, shard) in self.shards.iter().enumerate() {
            if !self.shard_may_contain(i, keyword) {
                continue;
            }
            let stats = shard.keyword_stats(keyword)?;
            total.postings += stats.postings;
            total.docs += stats.docs;
        }
        Some(total)
    }

    fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        // Contiguous document ranges ⇒ concatenation in shard order IS
        // document order; disjoint ranges ⇒ nothing to dedup. A shard
        // whose filter rejects the keyword would answer an empty list,
        // so it is not asked.
        let mut merged = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if self.shard_may_contain(i, keyword) {
                merged.extend(shard.try_keyword_deweys(keyword)?);
            }
        }
        debug_assert!(merged.is_sorted(), "shard ranges out of document order");
        Ok(merged)
    }

    fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        self.route(dewey).try_element(dewey)
    }

    fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        self.route(dewey).try_element_label(dewey)
    }

    fn try_keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, SourceError> {
        self.route(dewey).try_keyword_node(dewey)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemoryCorpus;
    use xks_store::{partition, shred};
    use xks_xmltree::fixtures::publications;

    fn sharded(parts: usize) -> (ShardSet, MemoryCorpus) {
        let doc = shred(&publications());
        let whole = MemoryCorpus::new(doc.clone());
        let split = partition(&doc, parts);
        let first_docs: Vec<u32> = split.iter().map(|p| p.first_doc).collect();
        let shards: Vec<Arc<dyn CorpusSource>> = split
            .into_iter()
            .map(|p| Arc::new(MemoryCorpus::new(p.doc)) as Arc<dyn CorpusSource>)
            .collect();
        (ShardSet::new(shards, first_docs).unwrap(), whole)
    }

    #[test]
    fn merged_postings_match_unsharded() {
        for parts in [1, 2, 3] {
            let (set, whole) = sharded(parts);
            for kw in ["liu", "keyword", "xml", "publications", "unobtainium"] {
                assert_eq!(
                    set.try_keyword_deweys(kw).unwrap(),
                    whole.try_keyword_deweys(kw).unwrap(),
                    "{kw} with {parts} parts"
                );
            }
        }
    }

    #[test]
    fn element_lookups_route_to_the_owner() {
        let (set, whole) = sharded(3);
        // Root and deep nodes alike.
        for dewey in ["0", "0.0", "0.2.0.1", "0.2.1.1", "0.9.9"] {
            let d: Dewey = dewey.parse().unwrap();
            assert_eq!(
                set.try_element(&d).unwrap(),
                whole.try_element(&d).unwrap(),
                "{dewey}"
            );
            assert_eq!(
                set.try_element_label(&d).unwrap(),
                whole.try_element_label(&d).unwrap()
            );
        }
        assert_eq!(set.node_count(), whole.node_count());
        assert_eq!(set.label_name(0), whole.label_name(0));
        assert!(set.owning_shard(&"0".parse().unwrap()) == 0);
    }

    #[test]
    fn topology_validation_rejects_bad_inputs() {
        let (set, _) = sharded(2);
        let shards: Vec<Arc<dyn CorpusSource>> = set.shards().to_vec();
        assert!(ShardSet::new(Vec::new(), Vec::new()).is_err(), "no shards");
        assert!(
            ShardSet::new(shards.clone(), vec![0]).is_err(),
            "count mismatch"
        );
        assert!(
            ShardSet::new(shards.clone(), vec![1, 2]).is_err(),
            "must start at 0"
        );
        assert!(
            ShardSet::new(shards.clone(), vec![0, 0]).is_err(),
            "must strictly increase"
        );
        assert!(ShardSet::new(shards, vec![0, 2]).is_ok());
    }

    #[test]
    fn set_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardSet>();
    }

    fn shard_tree(tree: &xks_xmltree::XmlTree, parts: usize) -> ShardSet {
        let doc = shred(tree);
        let split = partition(&doc, parts);
        let first_docs: Vec<u32> = split.iter().map(|p| p.first_doc).collect();
        let shards: Vec<Arc<dyn CorpusSource>> = split
            .into_iter()
            .map(|p| Arc::new(MemoryCorpus::new(p.doc)) as Arc<dyn CorpusSource>)
            .collect();
        ShardSet::new(shards, first_docs).unwrap()
    }

    #[test]
    fn sharded_engine_matches_unsharded_for_every_shard_count() {
        use crate::request::SearchRequest;
        let tree = publications();
        let whole = crate::engine::SearchEngine::from_owned_source(MemoryCorpus::new(shred(&tree)));
        for parts in [1, 2, 3] {
            let engine = crate::engine::SearchEngine::from_shard_set(shard_tree(&tree, parts));
            assert_eq!(engine.shard_set().unwrap().shard_count(), parts);
            for text in xks_xmltree::fixtures::PAPER_QUERIES {
                let request = SearchRequest::parse(text).unwrap();
                assert_eq!(
                    whole.execute(&request).unwrap().hits,
                    engine.execute(&request).unwrap().hits,
                    "{text} ({parts} shards)"
                );
            }
        }
    }

    #[test]
    fn root_anchored_fragments_span_shards_exactly() {
        use crate::request::SearchRequest;
        // "alpha" lives only in document 0, "beta" only in document 1:
        // the sole interesting LCA is the corpus root, whose fragment
        // draws keyword nodes from BOTH shards. Per-shard pipelines
        // would miss it entirely (each shard lacks one keyword); a set
        // below the anchor stages must reproduce it byte for byte.
        let tree = xks_xmltree::parse(
            "<lib><a><t>alpha</t></a><b><t>beta</t></b><c><t>gamma</t></c></lib>",
        )
        .unwrap();
        let whole = crate::engine::SearchEngine::from_owned_source(MemoryCorpus::new(shred(&tree)));
        let request = SearchRequest::parse("alpha beta").unwrap();
        let expect = whole.execute(&request).unwrap();
        assert_eq!(expect.hits.len(), 1, "root anchor exists unsharded");
        assert_eq!(expect.hits[0].fragment.anchor.to_string(), "0");
        for parts in [2, 3] {
            let engine = crate::engine::SearchEngine::from_shard_set(shard_tree(&tree, parts));
            let got = engine.execute(&request).unwrap();
            assert_eq!(expect.hits, got.hits, "{parts} shards");
            // And the ranked/top-k merge shapes identically too.
            let ranked = request.clone().top_k(1);
            assert_eq!(
                whole.execute(&ranked).unwrap().hits,
                engine.execute(&ranked).unwrap().hits,
            );
        }
    }

    /// Shards the fixture with an exact per-shard keyword filter built
    /// from each part's vocabulary.
    fn sharded_filtered(parts: usize) -> (ShardSet, MemoryCorpus) {
        let doc = shred(&publications());
        let whole = MemoryCorpus::new(doc.clone());
        let split = partition(&doc, parts);
        let first_docs: Vec<u32> = split.iter().map(|p| p.first_doc).collect();
        let filters: Vec<Option<crate::plan::KeywordFilter>> = split
            .iter()
            .map(|p| {
                Some(crate::plan::KeywordFilter::from_keywords(
                    p.doc.postings().keys().map(String::as_str),
                ))
            })
            .collect();
        let shards: Vec<Arc<dyn CorpusSource>> = split
            .into_iter()
            .map(|p| Arc::new(MemoryCorpus::new(p.doc)) as Arc<dyn CorpusSource>)
            .collect();
        (
            ShardSet::with_filters(shards, first_docs, filters).unwrap(),
            whole,
        )
    }

    #[test]
    fn keyword_filters_skip_shards_without_changing_results() {
        use crate::request::SearchRequest;
        let whole = crate::engine::SearchEngine::from_owned_source(MemoryCorpus::new(shred(
            &publications(),
        )));
        for parts in [2, 3] {
            let (set, _) = sharded_filtered(parts);
            // "liu" lives in one document only: at least one shard's
            // filter must prove it absent.
            assert!(set.shard_skips("liu") > 0, "{parts} parts");
            assert_eq!(set.shard_skips("unobtainium"), parts as u32);
            let engine = crate::engine::SearchEngine::from_shard_set(set);
            for text in xks_xmltree::fixtures::PAPER_QUERIES {
                let request = SearchRequest::parse(text).unwrap();
                let got = engine.execute(&request).unwrap();
                assert_eq!(
                    whole.execute(&request).unwrap().hits,
                    got.hits,
                    "{text} ({parts} parts)"
                );
                // Tracing observes a query; it must not change its stats.
                let traced = engine.execute(&request.clone().trace(true)).unwrap();
                assert_eq!(traced.hits, got.hits, "{text} traced ({parts} parts)");
                assert_eq!(traced.stats, got.stats, "{text} traced ({parts} parts)");
            }
            let r = engine
                .execute(&SearchRequest::parse("liu keyword").unwrap())
                .unwrap();
            assert!(r.stats.shards_skipped > 0, "skips surface in the stats");
        }
    }

    #[test]
    fn sharded_ranked_top_k_skips_fragments_like_unsharded() {
        use crate::request::SearchRequest;
        let tree = publications();
        let whole = crate::engine::SearchEngine::from_owned_source(MemoryCorpus::new(shred(&tree)));
        let sharded = crate::engine::SearchEngine::from_shard_set(shard_tree(&tree, 3));
        let request = SearchRequest::parse("liu keyword").unwrap().top_k(1);
        let want = whole.execute(&request).unwrap();
        assert!(want.stats.rtfs_skipped_topk > 0, "the bound path skips");
        let got = sharded.execute(&request).unwrap();
        assert_eq!(got.hits, want.hits);
        assert_eq!(got.stats.rtfs_skipped_topk, want.stats.rtfs_skipped_topk);
    }

    #[test]
    fn set_keyword_stats_sum_across_shards() {
        let (set, whole) = sharded_filtered(3);
        for kw in ["liu", "keyword", "xml", "unobtainium"] {
            assert_eq!(
                set.keyword_stats(kw),
                whole.keyword_stats(kw),
                "{kw}: sharded sum matches unsharded"
            );
        }
        // A shard without stats makes the whole sum unknown.
        let (plain, _) = sharded(2);
        #[derive(Debug)]
        struct Opaque(Arc<dyn CorpusSource>);
        impl CorpusSource for Opaque {
            fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
                self.0.try_keyword_deweys(keyword)
            }
            fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
                self.0.try_element(dewey)
            }
            fn label_name(&self, label: u32) -> Option<String> {
                self.0.label_name(label)
            }
            fn node_count(&self) -> usize {
                self.0.node_count()
            }
        }
        let mut shards = plain.shards().to_vec();
        shards[1] = Arc::new(Opaque(Arc::clone(&shards[1])));
        let mixed = ShardSet::new(shards, plain.first_docs().to_vec()).unwrap();
        assert_eq!(mixed.keyword_stats("keyword"), None);
    }

    #[test]
    fn filter_count_must_match_shard_count() {
        let (set, _) = sharded(2);
        assert!(ShardSet::with_filters(
            set.shards().to_vec(),
            set.first_docs().to_vec(),
            vec![None]
        )
        .is_err());
        let ok = ShardSet::with_filters(
            set.shards().to_vec(),
            set.first_docs().to_vec(),
            vec![None, None],
        )
        .unwrap();
        assert!(ok.shard_may_contain(0, "anything"), "no filter ⇒ probe");
        assert_eq!(ok.shard_skips("anything"), 0);
    }

    #[test]
    fn dead_shard_surfaces_backend_errors_typed() {
        use crate::request::SearchRequest;
        /// A shard whose postings lookups always fail.
        #[derive(Debug)]
        struct DeadShard;
        impl CorpusSource for DeadShard {
            fn try_element(&self, _: &Dewey) -> Result<Option<SourceElement>, SourceError> {
                Ok(None)
            }
            fn label_name(&self, _: u32) -> Option<String> {
                None
            }
            fn node_count(&self) -> usize {
                0
            }
            fn try_keyword_deweys(&self, _: &str) -> Result<Vec<Dewey>, SourceError> {
                Err(SourceError::new("synthetic shard I/O failure"))
            }
        }
        let tree = publications();
        let healthy = shard_tree(&tree, 2);
        let mut shards = healthy.shards().to_vec();
        shards.push(Arc::new(DeadShard));
        let set = ShardSet::new(shards, vec![0, healthy.first_docs()[1], u32::MAX]).unwrap();
        let engine = crate::engine::SearchEngine::from_shard_set(set);
        let err = engine
            .execute(&SearchRequest::parse("liu keyword").unwrap())
            .unwrap_err();
        assert!(
            matches!(err, crate::request::SearchError::Backend(_)),
            "{err}"
        );
        assert!(err.to_string().contains("shard I/O failure"));
    }
}
