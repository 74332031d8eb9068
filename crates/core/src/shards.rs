//! Sharded corpora: routing [`CorpusSource`] over N document
//! partitions, plus the scatter-gather execution the engine drives.
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
//!   k-way comparison;
//! * **Dewey → element** routes to the owning shard with one binary
//!   search over the range boundaries (`O(log shards)`, no fan-out).
//!
//! # Why scatter-gather happens *below* the anchor stages
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
//! The engine therefore scatters only the **storage-bound** stages and
//! keeps the cheap in-memory pass global:
//!
//! 1. `getKeywordNodes` — fan out (shard × keyword) lookups across
//!    worker threads, gather by concatenation ([`ShardSet`] invariant
//!    above). Exactly the unsharded keyword-node sets come out.
//! 2. `getLCA` / `getRTF` — one single-pass scan over the merged
//!    stream, unchanged (it is allocation-free and memory-bound; a
//!    parallel version would buy nothing and lose determinism).
//! 3. `pruneRTF` — fan out per-RTF fragment construction; each lookup
//!    routes to the owning shard, root-anchored fragments transparently
//!    read from all of them. Gather preserves RTF order.
//!
//! Results are therefore **byte-identical** to the unsharded engine by
//! construction — not just on friendly workloads — which the workspace
//! pins against the golden digest in `tests/sharded_differential.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use xks_index::{KeywordNodeSets, Query};
use xks_xmltree::Dewey;

use crate::engine::SearchEngine;
use crate::fragment::Cid;
use crate::source::{CorpusSource, SourceElement, SourceError};
use crate::QueryContext;

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
    /// postings list is empty and the scatter may skip the lookup.
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
    /// none). The scatter stage consults them to skip (keyword × shard)
    /// lookups a filter proves empty; filters must therefore have **no
    /// false negatives** over the shard's vocabulary or results will
    /// silently lose postings.
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
    /// that they hold no postings for `keyword` — the lookups the
    /// scatter stage skips for this term.
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
        // document order; disjoint ranges ⇒ nothing to dedup.
        let mut lists = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            lists.push(shard.try_keyword_deweys(keyword)?);
        }
        let mut merged = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        for list in lists {
            merged.extend(list);
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

/// Runs the cursor-strided scatter loop shared by both fan-out stages
/// (keyword resolution here, per-RTF fragment building in the engine's
/// construct stage): `threads` workers claim task indices from one
/// atomic cursor — the same work-stealing shape as [`crate::executor`]
/// — and results land in input order. Each worker hands its tasks one
/// piece of a warm [`QueryContext`], picked by `lend`: with one thread
/// the loop runs inline on `own`, the caller's piece; otherwise every
/// worker draws a context from the engine's pool. The first failing
/// task (lowest index among those run) stops the claiming and is the
/// error returned.
pub(crate) fn scatter<W: ?Sized, T: Send, E: Send>(
    engine: &SearchEngine,
    tasks: usize,
    threads: usize,
    own: &mut W,
    lend: impl Fn(&mut QueryContext) -> &mut W + Sync,
    task: impl Fn(usize, &mut W) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let threads = threads.clamp(1, tasks.max(1));
    if threads == 1 {
        let mut results = Vec::with_capacity(tasks);
        for i in 0..tasks {
            results.push(task(i, own)?);
        }
        return Ok(results);
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<T, E>>> = (0..tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut ctx = engine.checkout_context();
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        let result = task(i, lend(&mut ctx));
                        if result.is_err() {
                            cursor.store(tasks, Ordering::Relaxed);
                        }
                        mine.push((i, result));
                    }
                    engine.checkin_context(ctx);
                    mine
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("scatter worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    // Indices are claimed in order, so the unclaimed ones all lie past
    // the first failure.
    slots.into_iter().map_while(|slot| slot).collect()
}

/// `getKeywordNodes`, scattered: every (keyword × shard) lookup is one
/// task; the gather concatenates per-shard lists in shard order (see
/// the module docs for why that IS document order). Returns `None` when
/// a keyword matches nothing in **any** shard — the same empty-result
/// contract as unsharded resolution, even when individual shards lack
/// the term. Lookups a shard's keyword filter proves empty are skipped
/// without touching the shard; `skipped` counts them (exactness is
/// preserved because filters have no false negatives — a skipped lookup
/// would have returned an empty list).
pub(crate) fn scatter_resolve(
    engine: &SearchEngine,
    set: &ShardSet,
    threads: usize,
    query: &Query,
    ctx: &mut QueryContext,
    skipped: &mut u32,
) -> Result<Option<KeywordNodeSets>, SourceError> {
    let keywords = query.keywords();
    let shards = set.shards();
    *skipped = keywords.iter().map(|kw| set.shard_skips(kw)).sum();
    let lists = scatter(
        engine,
        keywords.len() * shards.len(),
        threads,
        &mut ctx.postings,
        |worker| &mut worker.postings,
        |i, arena| -> Result<Vec<Dewey>, SourceError> {
            let shard_idx = i % shards.len();
            let keyword = &keywords[i / shards.len()];
            if !set.shard_may_contain(shard_idx, keyword) {
                return Ok(Vec::new());
            }
            // Decode into the worker's warm arena (reused across every
            // shard it visits), bypassing shard-shared caches.
            shards[shard_idx].try_keyword_deweys_into(keyword, arena)?;
            Ok(arena.to_deweys())
        },
    )?;
    let mut lists = lists.into_iter();
    let mut sets: Vec<Vec<Dewey>> = Vec::with_capacity(keywords.len());
    for _ in keywords {
        let per_shard: Vec<Vec<Dewey>> = lists.by_ref().take(shards.len()).collect();
        let mut merged = Vec::with_capacity(per_shard.iter().map(Vec::len).sum());
        per_shard.into_iter().for_each(|list| merged.extend(list));
        if merged.is_empty() {
            return Ok(None);
        }
        sets.push(merged);
    }
    Ok(Some(KeywordNodeSets::new(query.clone(), sets)))
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
    fn sharded_engine_matches_unsharded_for_every_thread_count() {
        use crate::request::SearchRequest;
        let tree = publications();
        let whole = crate::engine::SearchEngine::from_owned_source(MemoryCorpus::new(shred(&tree)));
        for parts in [1, 2, 3] {
            for threads in [1, 2, 4] {
                let engine = crate::engine::SearchEngine::from_shard_set(shard_tree(&tree, parts))
                    .with_scatter_threads(threads);
                assert_eq!(engine.scatter_threads(), Some(threads));
                assert_eq!(engine.shard_set().unwrap().shard_count(), parts);
                for text in xks_xmltree::fixtures::PAPER_QUERIES {
                    let request = SearchRequest::parse(text).unwrap();
                    assert_eq!(
                        whole.execute(&request).unwrap().hits,
                        engine.execute(&request).unwrap().hits,
                        "{text} ({parts} shards, {threads} threads)"
                    );
                }
            }
        }
    }

    #[test]
    fn root_anchored_fragments_span_shards_exactly() {
        use crate::request::SearchRequest;
        // "alpha" lives only in document 0, "beta" only in document 1:
        // the sole interesting LCA is the corpus root, whose fragment
        // draws keyword nodes from BOTH shards. Per-shard pipelines
        // would miss it entirely (each shard lacks one keyword); the
        // scatter-below-anchors design must reproduce it byte for byte.
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
            let engine = crate::engine::SearchEngine::from_shard_set(shard_tree(&tree, parts))
                .with_scatter_threads(2);
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
                    p.doc.keyword_stats().map(|(kw, _)| kw),
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
            let engine = crate::engine::SearchEngine::from_shard_set(set).with_scatter_threads(2);
            for text in xks_xmltree::fixtures::PAPER_QUERIES {
                let request = SearchRequest::parse(text).unwrap();
                assert_eq!(
                    whole.execute(&request).unwrap().hits,
                    engine.execute(&request).unwrap().hits,
                    "{text} ({parts} parts)"
                );
            }
            let r = engine
                .execute(&SearchRequest::parse("liu keyword").unwrap())
                .unwrap();
            assert!(r.stats.shards_skipped > 0, "skips surface in the stats");
        }
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
    fn scatter_surfaces_backend_errors_typed() {
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
        let engine = crate::engine::SearchEngine::from_shard_set(set).with_scatter_threads(2);
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
