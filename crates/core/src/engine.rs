//! The search engine: one object owning document + index, executing
//! [`SearchRequest`]s through a single pipeline and producing the §5.1
//! comparison in one call.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use xks_index::{InvertedIndex, KeywordNodeSets, Query, QuerySpec};
use xks_lca::{FilterScratch, QueryContext, SkeletonScratch};
use xks_obs::{Counter, Expired, Histogram, QueryMeter, Stage};
use xks_xmltree::{Dewey, XmlTree};

use crate::algorithms::{get_lca, AnchorExec, AnchorSemantics, StageTimings};
use crate::fragment::{Fragment, Gate};
use crate::metrics::{effectiveness, Effectiveness};
use crate::plan::{choose_driver, choose_strategy, PlanReport, PlanStrategy};
use crate::prune::Policy;
use crate::rank::{self, RankedFragment, TopK};
use crate::request::{Hit, SearchError, SearchRequest, SearchResponse, SearchStats, SearchTimeout};
use crate::rtf::{dispatch, Partitions};
use crate::shards::ShardSet;
use crate::source::{CorpusSource, TreeCorpus};

/// Which end-to-end algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// ValidRTF: all interesting LCAs + valid-contributor pruning.
    ValidRtf,
    /// Revised MaxMatch: all interesting LCAs + contributor pruning.
    MaxMatchRtf,
    /// Original MaxMatch: SLCA anchors + contributor pruning.
    MaxMatchSlca,
}

impl AlgorithmKind {
    fn anchor(self) -> AnchorSemantics {
        match self {
            AlgorithmKind::MaxMatchSlca => AnchorSemantics::SlcaOnly,
            _ => AnchorSemantics::AllLca,
        }
    }

    fn policy(self) -> Policy {
        match self {
            AlgorithmKind::ValidRtf => Policy::ValidContributor,
            _ => Policy::Contributor,
        }
    }
}

/// The per-query comparison of ValidRTF against the revised MaxMatch —
/// one data point of Figures 5 and 6.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Number of RTFs (the "RTFs" line of Figure 5).
    pub rtf_count: usize,
    /// ValidRTF elapsed time.
    pub valid_rtf_time: Duration,
    /// Revised MaxMatch elapsed time.
    pub max_match_time: Duration,
    /// CFR / APR / APR' / Max APR (Figure 6).
    pub effectiveness: Effectiveness,
}

/// One corpus, ready to answer keyword queries.
///
/// `SearchEngine` is the shared **immutable** half of the read path —
/// it is `Send + Sync` and designed to be queried from many threads at
/// once (see [`crate::executor`]). It holds exactly one
/// [`CorpusSource`] — a parsed tree ([`TreeCorpus`]), shredded tables,
/// an `xks-persist` on-disk index, a [`ShardSet`], … — and runs every
/// request through the same pipeline over it, on the caller's thread
/// (see [`crate::shards`] for why a shard set is just another source).
///
/// All per-query mutable state lives in a [`QueryContext`]:
///
/// * [`SearchEngine::execute_with`] takes an explicit `&mut
///   QueryContext` — the per-thread, lock-free path the concurrent
///   executor uses;
/// * [`SearchEngine::execute`] keeps the convenient `&self` signature
///   by checking a context in and out of a small internal pool (one
///   uncontended `Mutex` lock each way, never held across the query).
///
/// A warm context answers queries without heap allocation in the
/// anchor pipeline (asserted by the workspace's counting-allocator
/// test).
#[derive(Debug)]
pub struct SearchEngine {
    source: Arc<dyn CorpusSource>,
    /// `source` again, typed, when it is a parsed tree — what
    /// [`SearchEngine::parsed_tree`] and [`SearchEngine::index`] hand
    /// out.
    parsed: Option<Arc<TreeCorpus>>,
    /// `source` again, typed, when it is a shard set — the topology
    /// `shards_skipped` and `explain` read.
    shards: Option<Arc<ShardSet>>,
    /// Pool of warm contexts for the `&self` entry points. Capped so a
    /// burst of threads cannot pin unbounded scratch memory.
    contexts: Mutex<Vec<QueryContext>>,
    /// Handles into the global metrics registry, resolved once at
    /// construction so the per-query recording path is pure lock-free
    /// atomics (see [`EngineMetrics`]).
    metrics: EngineMetrics,
}

/// Most contexts a [`SearchEngine`] keeps warm for its `&self` entry
/// points; checked-in contexts beyond this are dropped.
const CONTEXT_POOL_CAP: usize = 64;

impl SearchEngine {
    fn over(source: Arc<dyn CorpusSource>) -> Self {
        SearchEngine {
            source,
            parsed: None,
            shards: None,
            contexts: Mutex::new(Vec::new()),
            metrics: EngineMetrics::from_global(),
        }
    }

    /// Builds the engine from a parsed tree (index construction happens
    /// here).
    #[must_use]
    pub fn new(tree: XmlTree) -> Self {
        let parsed = Arc::new(TreeCorpus::new(tree));
        SearchEngine {
            parsed: Some(Arc::clone(&parsed)),
            ..Self::over(parsed)
        }
    }

    /// Builds the engine over a **shared** [`CorpusSource`] backend —
    /// the index-handle form: one opened corpus (e.g. an
    /// `xks_persist::IndexReader` with its buffer pool and caches) can
    /// back any number of engines and outside observers without
    /// reopening the file. ValidRTF / MaxMatch run against the source's
    /// stored postings and node facts — identical results to the tree
    /// path for the same corpus, without requiring the parsed document
    /// in memory.
    #[must_use]
    pub fn from_source(source: Arc<dyn CorpusSource>) -> Self {
        Self::over(source)
    }

    /// Convenience form of [`SearchEngine::from_source`] for callers
    /// that don't need to keep a handle on the source: wraps an owned
    /// corpus in an `Arc` internally.
    #[must_use]
    pub fn from_owned_source(source: impl CorpusSource + 'static) -> Self {
        Self::over(Arc::new(source))
    }

    /// Builds the engine over a sharded corpus. It runs like any other
    /// source; keeping the set typed adds only the per-query
    /// `shards_skipped` count and the shard lines of `explain`.
    #[must_use]
    pub fn from_shard_set(set: ShardSet) -> Self {
        let set = Arc::new(set);
        SearchEngine {
            shards: Some(Arc::clone(&set)),
            ..Self::over(set)
        }
    }

    /// Does nothing: sharded engines run every stage inline on the
    /// caller's thread. Kept only for callers written against the old
    /// per-query fan-out (the `perfbench` harness); ROADMAP item 1(d)
    /// drops it together with that last call.
    #[must_use]
    pub fn with_scatter_threads(self, _threads: usize) -> Self {
        self
    }

    /// The shard set of a sharded engine (`None` otherwise).
    #[must_use]
    pub fn shard_set(&self) -> Option<&ShardSet> {
        self.shards.as_deref()
    }

    /// The parsed document, for engines built with
    /// [`SearchEngine::new`] (`None` otherwise) — the only backend that
    /// keeps original text and attributes around for display.
    #[must_use]
    pub fn parsed_tree(&self) -> Option<&XmlTree> {
        self.parsed.as_deref().map(TreeCorpus::tree)
    }

    /// The underlying inverted index.
    ///
    /// # Panics
    /// Panics for engines not built with [`SearchEngine::new`]; use
    /// [`SearchEngine::corpus`] instead.
    #[must_use]
    pub fn index(&self) -> &InvertedIndex {
        self.parsed
            .as_deref()
            .expect("SearchEngine::index() on a source-backed engine")
            .index()
    }

    /// The engine's one corpus source.
    #[must_use]
    pub fn source(&self) -> &dyn CorpusSource {
        self.source.as_ref()
    }

    /// [`SearchEngine::source`] behind the `Option` it had when
    /// tree-backed engines kept no source: `Some` for every engine.
    #[must_use]
    pub fn corpus(&self) -> Option<&dyn CorpusSource> {
        Some(self.source())
    }

    /// Executes a [`SearchRequest`] — **the** entry point of the read
    /// path. Checks a warm [`QueryContext`] out of the engine's pool
    /// (one short `Mutex` lock each way; the query itself runs
    /// lock-free) and delegates to [`SearchEngine::execute_with`].
    pub fn execute(&self, request: &SearchRequest) -> Result<SearchResponse, SearchError> {
        let mut ctx = self.checkout_context();
        let result = self.execute_with(request, &mut ctx);
        self.checkin_context(ctx);
        result
    }

    /// Executes a [`SearchRequest`] with a caller-owned per-thread
    /// [`QueryContext`] — the lock-free path the concurrent
    /// [`crate::executor`] drives. Threads sharing one engine each
    /// bring their own context. One straight-line pipeline for every
    /// backend: `getKeywordNodes → plan → getLCA → getRTF → pruneRTF →
    /// rank`, the operator checks inside `pruneRTF`'s build loop, the
    /// anchor stages allocation-free on a warm context (asserted by the
    /// workspace's counting-allocator test).
    ///
    /// Every failure comes back typed: grammar errors as
    /// [`SearchError::Parse`] (from [`SearchRequest::parse`]), backend
    /// I/O and index corruption as [`SearchError::Backend`]. No query
    /// path panics.
    pub fn execute_with(
        &self,
        request: &SearchRequest,
        ctx: &mut QueryContext,
    ) -> Result<SearchResponse, SearchError> {
        let spec = request.spec();
        let kind = request.kind();
        let mut stats = SearchStats {
            dropped_terms: spec.report().dropped.clone(),
            normalized_terms: spec.report().normalized.clone(),
            ..SearchStats::default()
        };

        // The meter reads the clock once here and once per stage
        // boundary. Each reading closes a stage into its total (the
        // response's `StageTimings`), ends its span on a traced request
        // and is what the deadline is checked against: before resolve
        // (a request queued past its budget dies here, before touching
        // storage), anchor, construct and post-process, and every
        // `DEADLINE_STRIDE` fragments inside construct.
        let (traced, parse_ns) = (request.traced(), request.parse_time_ns());
        ctx.meter
            .begin(traced, parse_ns, request.deadline())
            .check("resolve")
            .map_err(self.timeout(&stats))?;

        // getKeywordNodes — the one stage that touches cold storage,
        // excluded words included. A shard set skips the shards its
        // keyword filters rule out.
        let keywords = spec.query().keywords();
        if let Some(set) = self.shard_set() {
            stats.shards_skipped = keywords.iter().map(|kw| set.shard_skips(kw)).sum();
        }
        let resolved = resolve(self.source(), spec, ctx)?;
        ctx.meter.lap(Stage::Resolve);
        let Some(sets) = resolved else {
            // Some keyword matches nothing: empty result, not an error.
            return Ok(self.respond(&ctx.meter, Vec::new(), stats));
        };
        ctx.meter.check("anchor").map_err(self.timeout(&stats))?;

        // Plan: pick the anchor-pass strategy from the resolved list
        // lengths and the backend's sealed statistics (scalars only —
        // the warm path stays allocation-free).
        let exec = self.plan_anchor_exec(&sets, &mut stats);
        ctx.meter.lap(Stage::Plan);

        // getLCA + getRTF over the context's shared scratch buffers; the
        // partitions stay in the context, one per anchor.
        get_lca(&sets, kind.anchor(), exec, ctx);
        ctx.meter.lap(Stage::MergeAnchor);
        dispatch(&ctx.anchors, &ctx.merged, sets.len(), true, &mut ctx.rtf);
        let rtf_count = ctx.anchors.len();
        ctx.meter
            .lap(Stage::RtfDispatch)
            .check("construct")
            .map_err(self.timeout(&stats))?;

        // pruneRTF — lay out, decide, emit, one RTF at a time, each
        // stopped at the first step where one of the query's operator
        // constraints fails (see `Operators`; plain keyword queries
        // check nothing). A plain ranked top-k visits the RTFs best
        // score bound first and skips those that cannot make the cut
        // (see `TopK`); every other request visits them in document
        // order.
        let parts = Partitions::new(&ctx.anchors, &ctx.merged, &ctx.rtf);
        let (policy, k) = (kind.policy(), spec.query().len());
        let mut operators =
            (!spec.is_plain()).then(|| Operators::new(spec, self.source(), &mut ctx.filters));
        let mut topk = request
            .top_k_limit()
            .filter(|&top| top >= 1 && spec.is_plain())
            .map(|top| TopK::new(parts, k, top));
        let mut fragments = Vec::with_capacity(rtf_count);
        for n in 0..rtf_count {
            ctx.meter.tick(n).map_err(self.timeout(&stats))?;
            let Some(i) = topk.as_ref().map_or(Some(n), |topk| topk.visit(n)) else {
                stats.rtfs_skipped_topk += 1;
                continue;
            };
            let (skel, meter) = (&mut ctx.skeleton, &mut ctx.meter);
            match self.build(parts, i, policy, skel, meter, operators.as_mut())? {
                Some(fragment) => {
                    if let Some(topk) = topk.as_mut() {
                        topk.built(&fragment);
                    }
                    fragments.push(fragment);
                }
                None => stats.filtered_out += 1,
            }
        }
        let split: &[Stage] = match operators {
            Some(_) => &[Stage::Construct, Stage::PostFilter],
            None => &[Stage::Construct],
        };
        // A pooled context holds no query's excluded postings.
        ctx.filters.exclusions.clear();
        ctx.meter
            .lap_split(Stage::Prune, split)
            .check("post_process")
            .map_err(self.timeout(&stats))?;

        // Everything past the paper's pipeline is the post-process
        // stage: rank, truncate, materialize hits. A skipped RTF counts:
        // it would have been a fragment.
        stats.total_before_top_k = fragments.len() + stats.rtfs_skipped_topk as usize;
        let hits = if request.is_ranked() {
            // Specificity's depth normalizer. A bounded top-k built only
            // part of a plain query's RTFs, so it normalized over every
            // anchor; any other request normalizes over the fragments it
            // built, so a ranked operator query ranks against its hits.
            let max_depth = topk.map_or_else(
                || rank::depth_normalizer(fragments.iter().map(|f| &f.anchor)),
                |topk| topk.max_depth,
            );
            let mut order = rank::rank(&fragments, k, max_depth);
            if let Some(top) = request.top_k_limit() {
                stats.truncated = stats.total_before_top_k > top;
                order.truncate(top);
            }
            take_ranked(fragments, &order)
        } else {
            fragments
                .into_iter()
                .map(|fragment| Hit {
                    fragment,
                    score: None,
                    signals: None,
                })
                .collect()
        };
        ctx.meter.lap(Stage::Rank);
        Ok(self.respond(&ctx.meter, hits, stats))
    }

    /// The response of a finished query: its timings are the meter's
    /// stage totals, and it carries the meter's trace when traced. Also
    /// records the query in the engine's metrics.
    fn respond(&self, meter: &QueryMeter, hits: Vec<Hit>, stats: SearchStats) -> SearchResponse {
        let timings = StageTimings::from_meter(meter);
        self.metrics.observe(&timings, &stats, hits.len());
        SearchResponse {
            hits,
            timings,
            stats,
            trace: meter.trace().cloned(),
        }
    }

    /// Turns an [`Expired`] deadline into a typed
    /// [`SearchError::Timeout`] carrying the stats accumulated so far
    /// (partial — enough for a server's `503` body), and bumps the
    /// global `search.deadline_exceeded` counter.
    fn timeout<'a>(&'a self, stats: &'a SearchStats) -> impl FnOnce(Expired) -> SearchError + 'a {
        move |expired| {
            self.metrics.deadline_exceeded.inc();
            SearchError::Timeout(Box::new(SearchTimeout {
                stage: expired.stage,
                elapsed: expired.elapsed,
                stats: stats.clone(),
            }))
        }
    }

    /// Chooses the anchor-pass execution — legacy k-way merge or the
    /// planner's rarest-first gallop — from the resolved list lengths
    /// and the backend's sealed statistics, recording the choice in
    /// `stats`. Scalar-only on purpose: lengths land in a fixed stack
    /// array (queries carry ≤ 64 keywords — the `KeySet` mask width),
    /// so the warm path performs no allocation here.
    fn plan_anchor_exec(&self, sets: &KeywordNodeSets, stats: &mut SearchStats) -> AnchorExec {
        let lists = sets.sets();
        let k = lists.len();
        let mut lens = [0usize; 64];
        for (slot, list) in lens.iter_mut().zip(lists) {
            *slot = list.len();
        }
        stats.plan_postings = lists.iter().map(|l| l.len() as u64).sum();
        if !(2..=64).contains(&k) {
            return AnchorExec::Merge;
        }
        let lens = &lens[..k];
        // Sealed means every term has authoritative stored statistics;
        // the source answers per keyword (`None` = unknown, e.g. a
        // mutable delta touched the term → whole query merges).
        let all_sealed = sets
            .query()
            .keywords()
            .iter()
            .all(|kw| self.source.keyword_stats(kw).is_some());
        match choose_strategy(lens, all_sealed) {
            PlanStrategy::FullMerge => AnchorExec::Merge,
            PlanStrategy::Gallop => {
                let driver = choose_driver(lens);
                stats.plan_strategy = PlanStrategy::Gallop;
                stats.plan_driver = driver as u32;
                AnchorExec::Gallop { driver }
            }
        }
    }

    /// [`Fragment::build_gated`] over the source's node facts:
    /// partition `i`, pruned under `policy` — or `None` when one of the
    /// query's `operators` rejects it, at the earliest step that can.
    /// On a traced query the layout and the checks are timed as the
    /// construct stage's parts.
    fn build(
        &self,
        parts: Partitions<'_>,
        i: usize,
        policy: Policy,
        skel: &mut SkeletonScratch,
        meter: &mut QueryMeter,
        mut operators: Option<&mut Operators<'_>>,
    ) -> Result<Option<Fragment>, SearchError> {
        if operators
            .as_deref_mut()
            .is_some_and(|ops| !meter.time(Stage::PostFilter, || ops.admits(parts, i)))
        {
            return Ok(None);
        }
        let (anchor, knodes) = (parts.anchor(i), parts.knodes(i));
        let layout = meter.mark();
        let gate = |gate, skel: &SkeletonScratch| {
            if gate == Gate::LaidOut {
                meter.accumulate(Stage::Construct, layout);
            }
            operators
                .as_deref_mut()
                .is_none_or(|ops| meter.time(Stage::PostFilter, || ops.witnessed(gate, skel)))
        };
        Ok(Fragment::build_gated(
            self.source(),
            anchor,
            knodes,
            Some(policy),
            skel,
            gate,
        )?)
    }

    /// Explains how the planner would execute `request` against this
    /// backend **without running it**: per-term postings/doc-frequency
    /// statistics in rarest-first order, the gallop-vs-merge choice,
    /// and per-term shard-filter skips (see [`PlanReport`] and the
    /// `xks explain` CLI subcommand).
    pub fn explain(&self, request: &SearchRequest) -> Result<PlanReport, SearchError> {
        let set = self.shard_set();
        Ok(PlanReport::build(
            self.source(),
            request.query(),
            set.map_or(0, |set| set.shard_count() as u32),
            |kw| set.map_or(0, |set| set.shard_skips(kw)),
        )?)
    }

    /// Takes a warm context from the pool (or makes a fresh one). The
    /// executor's workers use this too, so batches stay warm across
    /// calls. A poisoned pool is recovered, not propagated: contexts
    /// are plain scratch buffers with no invariants a panic could
    /// break, so one panicked thread must not take down every
    /// subsequent `&self` query. Each recovery increments the global
    /// `lock.poison_recovered` counter so a wounded process is visible
    /// to operators.
    pub(crate) fn checkout_context(&self) -> QueryContext {
        self.contexts
            .lock()
            .unwrap_or_else(|e| {
                xks_obs::count_poison_recovery();
                e.into_inner()
            })
            .pop()
            .unwrap_or_default()
    }

    /// Returns a context to the pool, dropping it if the pool is full
    /// (same poison recovery as [`SearchEngine::checkout_context`]).
    pub(crate) fn checkin_context(&self, ctx: QueryContext) {
        let mut pool = self.contexts.lock().unwrap_or_else(|e| {
            xks_obs::count_poison_recovery();
            e.into_inner()
        });
        if pool.len() < CONTEXT_POOL_CAP {
            pool.push(ctx);
        }
    }

    /// Runs ValidRTF and revised MaxMatch on the same query and computes
    /// the Figure 5/6 data point.
    pub fn compare(&self, query: &Query) -> Result<Comparison, SearchError> {
        let valid = self.execute(
            &SearchRequest::from_query(query.clone()).algorithm(AlgorithmKind::ValidRtf),
        )?;
        let mm = self.execute(
            &SearchRequest::from_query(query.clone()).algorithm(AlgorithmKind::MaxMatchRtf),
        )?;
        debug_assert_eq!(valid.hits.len(), mm.hits.len());
        let pairs: Vec<(Fragment, Fragment)> = valid
            .hits
            .iter()
            .zip(mm.hits.iter())
            .map(|(v, m)| (v.fragment.clone(), m.fragment.clone()))
            .collect();
        Ok(Comparison {
            rtf_count: valid.hits.len(),
            valid_rtf_time: valid.timings.total(),
            max_match_time: mm.timings.total(),
            effectiveness: effectiveness(&pairs),
        })
    }
}

/// Handles into the global [`xks_obs`] registry, resolved once per
/// engine so the per-query `observe` call is pure lock-free atomics —
/// no registry lock, no allocation, preserving the warm path's
/// zero-allocation contract. All engines in a process share the same
/// underlying metrics (they are keyed by name in [`xks_obs::global`]).
#[derive(Debug)]
struct EngineMetrics {
    queries: Counter,
    empty: Counter,
    hits: Counter,
    truncated: Counter,
    filtered_out: Counter,
    plan_gallop: Counter,
    plan_full_merge: Counter,
    plan_shards_skipped: Counter,
    plan_topk_skipped: Counter,
    deadline_exceeded: Counter,
    total_ns: Histogram,
    get_keyword_nodes_ns: Histogram,
    get_lca_ns: Histogram,
    get_rtf_ns: Histogram,
    prune_rtf_ns: Histogram,
    post_process_ns: Histogram,
}

impl EngineMetrics {
    fn from_global() -> Self {
        let registry = xks_obs::global();
        EngineMetrics {
            queries: registry.counter("search.queries"),
            empty: registry.counter("search.empty"),
            hits: registry.counter("search.hits"),
            truncated: registry.counter("search.truncated"),
            filtered_out: registry.counter("search.filtered_out"),
            plan_gallop: registry.counter("plan.gallop"),
            plan_full_merge: registry.counter("plan.full_merge"),
            plan_shards_skipped: registry.counter("plan.shards_skipped"),
            plan_topk_skipped: registry.counter("plan.topk_skipped"),
            deadline_exceeded: registry.counter("search.deadline_exceeded"),
            total_ns: registry.histogram("search.total_ns"),
            get_keyword_nodes_ns: registry.histogram("search.get_keyword_nodes_ns"),
            get_lca_ns: registry.histogram("search.get_lca_ns"),
            get_rtf_ns: registry.histogram("search.get_rtf_ns"),
            prune_rtf_ns: registry.histogram("search.prune_rtf_ns"),
            post_process_ns: registry.histogram("search.post_process_ns"),
        }
    }

    /// Records one finished query from its already-computed timings
    /// and stats — every query pays for it, traced or not (the count is
    /// in docs/OBSERVABILITY.md, "Overhead guarantees").
    fn observe(&self, timings: &StageTimings, stats: &SearchStats, hits: usize) {
        self.queries.inc();
        if hits == 0 {
            self.empty.inc();
        }
        self.hits.add(hits as u64);
        if stats.truncated {
            self.truncated.inc();
        }
        self.filtered_out.add(stats.filtered_out as u64);
        match stats.plan_strategy {
            PlanStrategy::Gallop => self.plan_gallop.inc(),
            PlanStrategy::FullMerge => self.plan_full_merge.inc(),
        }
        self.plan_shards_skipped
            .add(u64::from(stats.shards_skipped));
        self.plan_topk_skipped
            .add(u64::from(stats.rtfs_skipped_topk));
        self.total_ns.record_duration(timings.total());
        self.get_keyword_nodes_ns
            .record_duration(timings.get_keyword_nodes);
        self.get_lca_ns.record_duration(timings.get_lca);
        self.get_rtf_ns.record_duration(timings.get_rtf);
        self.prune_rtf_ns.record_duration(timings.prune_rtf);
        self.post_process_ns.record_duration(timings.post_process);
    }
}

/// `getKeywordNodes`: the same loop as the default
/// `CorpusSource::try_resolve` (empty list ⇒ `None`), with one
/// [`Stage::PostingsDecode`] span per keyword when the trace is armed.
/// Once every positive keyword has matched, the excluded words'
/// postings are read the same way into `ctx.filters` (an absent word
/// excludes nothing).
fn resolve(
    source: &dyn CorpusSource,
    spec: &QuerySpec,
    ctx: &mut QueryContext,
) -> Result<Option<KeywordNodeSets>, SearchError> {
    let mut read = |word: &str| -> Result<Vec<Dewey>, SearchError> {
        let at = ctx.meter.mark();
        let list = source.try_keyword_deweys(word)?;
        ctx.meter.record(Stage::PostingsDecode, at);
        Ok(list)
    };
    let query = spec.query();
    let mut sets = Vec::with_capacity(query.len());
    for kw in query.keywords() {
        let list = read(kw)?;
        if list.is_empty() {
            return Ok(None);
        }
        sets.push(list);
    }
    ctx.filters.exclusions.clear();
    for word in spec.exclusions() {
        let list = read(word)?;
        ctx.filters.exclusions.push(list);
    }
    Ok(Some(KeywordNodeSets::new(query.clone(), sets)))
}

/// A query's operator constraints (docs/API.md, "Operator semantics
/// over fragments"), checked per RTF inside the build loop at the
/// earliest step where each is exact:
///
/// * an exclusion depends only on the anchor: decided before the
///   layout, with no storage lookup;
/// * a phrase needs one keyword node whose own mask covers the group,
///   and a pruned fragment's keyword nodes are a subset of its RTF's:
///   when no keyword node of the partition covers a group, the RTF is
///   rejected before the layout;
/// * a label filter needs the label of a keyword node, which the
///   layout fetches: decided on the raw skeleton, before the decision;
/// * phrases and labels are checked once more on the decided skeleton
///   before anything is emitted, since pruning can remove a witness.
struct Operators<'a> {
    spec: &'a QuerySpec,
    source: &'a dyn CorpusSource,
    scratch: &'a mut FilterScratch,
}

impl<'a> Operators<'a> {
    /// The checks of `spec`. Its exclusion postings are already in
    /// `scratch` (read by [`resolve`]).
    fn new(
        spec: &'a QuerySpec,
        source: &'a dyn CorpusSource,
        scratch: &'a mut FilterScratch,
    ) -> Self {
        scratch.phrases.clear();
        scratch.phrases.extend(
            spec.phrases()
                .iter()
                .map(|group| group.iter().fold(0u64, |m, &p| m | (1 << p))),
        );
        scratch.labels.clear();
        Operators {
            spec,
            source,
            scratch,
        }
    }

    /// Whether RTF `i` passes the checks decided before its layout: no
    /// excluded word under the anchor, and every phrase group covered
    /// by one keyword node of the partition.
    fn admits(&mut self, parts: Partitions<'_>, i: usize) -> bool {
        if self.scratch.exclusions.is_empty() && self.scratch.phrases.is_empty() {
            return true;
        }
        let anchor = parts.anchor(i);
        !self
            .scratch
            .exclusions
            .iter()
            .any(|list| subtree_contains(anchor, list))
            && self
                .scratch
                .phrases
                .iter()
                .all(|&group| parts.knodes(i).any(|(_, mask)| mask.0 & group == group))
    }

    /// Whether the keyword nodes of `skel` witness every label filter
    /// and, once decided, every phrase: after the layout each keyword
    /// node is a candidate witness, after the decision only the kept
    /// ones. Label names are compared once per (filter, label) and
    /// query.
    fn witnessed(&mut self, gate: Gate, skel: &SkeletonScratch) -> bool {
        let phrases = gate == Gate::Decided && !self.scratch.phrases.is_empty();
        if !phrases && self.spec.label_filters().is_empty() {
            return true;
        }
        let Operators {
            spec,
            source,
            scratch,
        } = self;
        let witnesses = || {
            skel.nodes
                .iter()
                .filter(|n| n.is_keyword && (gate == Gate::LaidOut || n.kept))
        };
        let phrases_met = !phrases
            || scratch
                .phrases
                .iter()
                .all(|&group| witnesses().any(|n| n.own & group == group));
        phrases_met
            && spec.label_filters().iter().enumerate().all(|(f, filter)| {
                let bit = 1u64 << filter.position;
                witnesses().any(|n| {
                    n.own & bit != 0
                        && *scratch
                            .labels
                            .entry((f as u64) << 32 | u64::from(n.label))
                            .or_insert_with(|| label_name_matches(*source, n.label, &filter.label))
                })
            })
    }
}

/// Case-insensitive label comparison through the source's label table
/// (`want` is already lowercased by the grammar).
fn label_name_matches(source: &dyn CorpusSource, label: u32, want: &str) -> bool {
    source
        .label_name(label)
        .is_some_and(|name| name.to_lowercase() == want)
}

/// Materializes ranked hits by **moving** fragments into rank order:
/// the permutation is applied through option-slot takes, and top-k
/// truncation happens on the (index, score) order before this runs —
/// reordering never clones a fragment.
fn take_ranked(fragments: Vec<Fragment>, order: &[RankedFragment]) -> Vec<Hit> {
    let mut slots: Vec<Option<Fragment>> = fragments.into_iter().map(Some).collect();
    order
        .iter()
        .filter_map(|r| {
            let fragment = slots.get_mut(r.index).and_then(Option::take)?;
            Some(Hit {
                fragment,
                score: Some(r.score),
                signals: Some(r.signals),
            })
        })
        .collect()
}

/// True when `sorted` (a document-ordered posting list) contains a node
/// inside `anchor`'s subtree. The first posting ≥ `anchor` is either
/// the anchor itself, one of its descendants, or past the subtree — one
/// binary search decides.
fn subtree_contains(anchor: &Dewey, sorted: &[Dewey]) -> bool {
    let i = sorted.partition_point(|d| d < anchor);
    sorted.get(i).is_some_and(|d| anchor.is_ancestor_or_self(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{MemoryCorpus, SourceElement, SourceError};
    use std::time::Instant;
    use xks_obs::DEADLINE_STRIDE;
    use xks_xmltree::fixtures::{publications, team, PAPER_QUERIES};

    fn q(s: &str) -> Query {
        Query::parse(s).unwrap()
    }

    fn req(s: &str) -> SearchRequest {
        SearchRequest::parse(s).unwrap()
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SearchEngine>();
    }

    #[test]
    fn execute_with_matches_pooled_execute() {
        let engine = SearchEngine::new(publications());
        let request = req(PAPER_QUERIES[2]);
        let pooled = engine.execute(&request).unwrap();
        let mut ctx = QueryContext::new();
        let explicit = engine.execute_with(&request, &mut ctx).unwrap();
        assert_eq!(pooled.hits, explicit.hits);
        // The pooled context was checked back in and gets reused.
        assert_eq!(engine.contexts.lock().unwrap().len(), 1);
        let _ = engine.execute(&request).unwrap();
        assert_eq!(engine.contexts.lock().unwrap().len(), 1);
    }

    #[test]
    fn shared_source_backs_many_engines() {
        use std::sync::Arc;
        let corpus: Arc<dyn crate::source::CorpusSource> =
            Arc::new(MemoryCorpus::new(xks_store::shred(&publications())));
        let a = SearchEngine::from_source(Arc::clone(&corpus));
        let b = SearchEngine::from_source(corpus);
        let request = req(PAPER_QUERIES[2]);
        assert_eq!(
            a.execute(&request).unwrap().hits,
            b.execute(&request).unwrap().hits,
        );
    }

    #[test]
    fn engine_answers_paper_queries() {
        let engine = SearchEngine::new(publications());
        let r = engine.execute(&req(PAPER_QUERIES[2])).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].fragment.len(), 8); // Figure 2(d)
        assert_eq!(r.stats.total_before_top_k, 1);
        assert!(!r.stats.truncated);
    }

    #[test]
    fn compare_produces_figure6_point() {
        let engine = SearchEngine::new(team());
        let c = engine.compare(&q("grizzlies position")).unwrap();
        assert_eq!(c.rtf_count, 1);
        assert_eq!(c.effectiveness.cfr, 0.0);
        assert!(c.effectiveness.max_apr > 0.2);
    }

    #[test]
    fn unmatched_query_is_empty_not_panic() {
        let engine = SearchEngine::new(team());
        let r = engine.execute(&req("nonexistent")).unwrap();
        assert!(r.hits.is_empty());
        assert_eq!(r.stats.total_before_top_k, 0);
        let c = engine.compare(&q("nonexistent")).unwrap();
        assert_eq!(c.rtf_count, 0);
        assert_eq!(c.effectiveness.cfr, 1.0);
    }

    #[test]
    fn ranked_execute_orders_best_first_and_scores() {
        let engine = SearchEngine::new(publications());
        let r = engine.execute(&req("liu keyword").rank()).unwrap();
        assert_eq!(r.hits.len(), 2);
        // The tight single-node ref fragment ranks above the article.
        assert_eq!(r.hits[0].fragment.anchor.to_string(), "0.2.0.3.0");
        assert!(r.hits[0].score.unwrap() > r.hits[1].score.unwrap());
        assert!(r.hits.iter().all(|h| h.signals.is_some()));
    }

    #[test]
    fn top_k_truncates_after_ranking() {
        let engine = SearchEngine::new(publications());
        let r = engine.execute(&req("liu keyword").top_k(1)).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].fragment.anchor.to_string(), "0.2.0.3.0");
        assert!(r.stats.truncated);
        assert_eq!(r.stats.total_before_top_k, 2);
        // A roomy top_k truncates nothing.
        let r = engine.execute(&req("liu keyword").top_k(10)).unwrap();
        assert_eq!(r.hits.len(), 2);
        assert!(!r.stats.truncated);
        // Nor does the largest one: it reserves room for the RTFs only.
        let r = engine
            .execute(&req("liu keyword").top_k(usize::MAX))
            .unwrap();
        assert_eq!(r.hits.len(), 2);
    }

    /// A corpus that counts the construct stage's lookups and can make
    /// each keyword-node lookup slow. Everything else, statistics
    /// included, is the memory corpus's, so it plans as that one does.
    #[derive(Debug)]
    struct ProbedCorpus {
        inner: MemoryCorpus,
        keyword_nodes: Arc<std::sync::atomic::AtomicUsize>,
        labels: Arc<std::sync::atomic::AtomicUsize>,
        nap: Duration,
    }

    impl CorpusSource for ProbedCorpus {
        fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
            self.inner.try_keyword_deweys(keyword)
        }
        fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
            self.inner.try_element(dewey)
        }
        fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
            self.labels
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.try_element_label(dewey)
        }
        fn label_name(&self, label: u32) -> Option<String> {
            self.inner.label_name(label)
        }
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
        fn try_keyword_node(
            &self,
            dewey: &Dewey,
        ) -> Result<Option<(u32, crate::fragment::Cid)>, SourceError> {
            self.keyword_nodes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(self.nap);
            self.inner.try_keyword_node(dewey)
        }
        fn keyword_stats(&self, keyword: &str) -> Option<crate::plan::KeywordStats> {
            self.inner.keyword_stats(keyword)
        }
    }

    /// The lookups a [`ProbedCorpus`] served since they were last read.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    struct Lookups {
        keyword_nodes: usize,
        labels: usize,
    }

    fn probed_engine(tree: &XmlTree, nap: Duration) -> (SearchEngine, impl Fn() -> Lookups) {
        let keyword_nodes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let labels = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let engine = SearchEngine::from_owned_source(ProbedCorpus {
            inner: MemoryCorpus::new(xks_store::shred(tree)),
            keyword_nodes: Arc::clone(&keyword_nodes),
            labels: Arc::clone(&labels),
            nap,
        });
        let lookups = move || Lookups {
            keyword_nodes: keyword_nodes.swap(0, std::sync::atomic::Ordering::Relaxed),
            labels: labels.swap(0, std::sync::atomic::Ordering::Relaxed),
        };
        (engine, lookups)
    }

    #[test]
    fn deadline_fires_inside_the_construct_stage() {
        // 1 000 single-node fragments at ≥ 1 ms each: the stage alone
        // would run a second, the deadline falls 200 ms in. Both the
        // document-order loop and the ranked top-k loop must stop.
        let mut xml = String::from("<lib>");
        for _ in 0..1000 {
            xml.push_str("<b><t>common</t></b>");
        }
        xml.push_str("</lib>");
        let tree = xks_xmltree::parse(&xml).unwrap();
        let budget = Duration::from_millis(200);
        for request in [req("common"), req("common").top_k(1)] {
            let (engine, lookups) = probed_engine(&tree, Duration::from_millis(1));
            let err = engine.execute(&request.timeout(budget)).unwrap_err();
            let SearchError::Timeout(timeout) = &err else {
                panic!("expected Timeout, got {err:?}");
            };
            assert_eq!(timeout.stage, "construct");
            assert!(timeout.elapsed >= budget);
            assert_eq!(
                timeout.stats.plan_postings, 1000,
                "partial stats ride along"
            );
            // It fired mid-stage, and the overshoot is what is built
            // between two checks — not the 800 fragments that were left.
            let built = lookups().keyword_nodes;
            assert!(built >= DEADLINE_STRIDE, "built {built}");
            assert!(
                built <= budget.as_millis() as usize + DEADLINE_STRIDE,
                "built {built}"
            );
        }
    }

    #[test]
    fn slca_variant_returns_subset_of_anchors() {
        let engine = SearchEngine::new(publications());
        let slca = engine
            .execute(&req("liu keyword").algorithm(AlgorithmKind::MaxMatchSlca))
            .unwrap();
        let all = engine
            .execute(&req("liu keyword").algorithm(AlgorithmKind::MaxMatchRtf))
            .unwrap();
        assert!(slca.hits.len() <= all.hits.len());
        for h in &slca.hits {
            assert!(all
                .hits
                .iter()
                .any(|g| g.fragment.anchor == h.fragment.anchor));
        }
    }

    // ---- operator post-filters ----------------------------------------

    /// Two books: in the first, "rust" and "async" co-occur in the
    /// title; in the second they sit in different nodes.
    fn library() -> XmlTree {
        xks_xmltree::parse(
            "<lib>\
             <book><title>rust async</title><author>liu</author></book>\
             <book><title>rust</title><note>async</note><author>chen</author></book>\
             </lib>",
        )
        .unwrap()
    }

    #[test]
    fn plain_spec_skips_post_filters() {
        let engine = SearchEngine::new(library());
        let r = engine.execute(&req("rust async")).unwrap();
        assert_eq!(r.hits.len(), 2, "both books answer the flat query");
        assert_eq!(r.stats.filtered_out, 0);
    }

    #[test]
    fn phrase_demands_cooccurrence_in_one_node() {
        let engine = SearchEngine::new(library());
        let r = engine.execute(&req("\"rust async\"")).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.stats.filtered_out, 1);
        // The surviving book is the one whose title holds both words.
        assert!(r.hits[0]
            .fragment
            .iter()
            .any(|n| n.is_keyword && n.kset.len() == 2));
    }

    #[test]
    fn label_filter_constrains_the_matching_node() {
        let engine = SearchEngine::new(library());
        // async must be matched by a <title> node: only book 1.
        let r = engine.execute(&req("rust title:async")).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.stats.filtered_out, 1);
        // async matched by a <note> node: only book 2.
        let r = engine.execute(&req("rust note:async")).unwrap();
        assert_eq!(r.hits.len(), 1);
        // A label nothing carries filters everything.
        let r = engine.execute(&req("rust chapter:async")).unwrap();
        assert_eq!(r.hits.len(), 0);
        assert_eq!(r.stats.filtered_out, 2);
    }

    #[test]
    fn pruning_can_remove_the_only_witness() {
        // The first <sec> holds the phrase and the <title>, but its
        // keyword set {rust, async} is a strict subset of its sibling's
        // {rust, async, tokio}: both policies prune it, so the raw RTF
        // passes every check and its pruned fragment none.
        let engine = SearchEngine::new(
            xks_xmltree::parse(
                "<lib><rec>\
                 <sec><title>rust async</title></sec>\
                 <sec><p>rust</p><p>async</p><p>tokio</p></sec>\
                 <x>mio</x>\
                 </rec></lib>",
            )
            .unwrap(),
        );
        for kind in [AlgorithmKind::ValidRtf, AlgorithmKind::MaxMatchRtf] {
            let plain = engine
                .execute(&req("rust async tokio mio").algorithm(kind))
                .unwrap();
            assert_eq!(plain.hits.len(), 1);
            assert!(!plain.hits[0].fragment.contains(&"0.0.0".parse().unwrap()));
            for text in ["\"rust async\" tokio mio", "title:rust async tokio mio"] {
                let r = engine.execute(&req(text).algorithm(kind)).unwrap();
                assert_eq!((r.hits.len(), r.stats.filtered_out), (0, 1), "{text}");
            }
            let r = engine
                .execute(&req("p:rust async tokio mio").algorithm(kind))
                .unwrap();
            assert_eq!(r.hits, plain.hits, "a surviving witness keeps it");
        }
    }

    #[test]
    fn exclusion_rejects_fragments_containing_the_word() {
        let engine = SearchEngine::new(library());
        // "chen" occurs only in book 2's subtree — and in a node that
        // is NOT part of the fragment (author isn't a query keyword),
        // proving exclusions consult the corpus, not just the fragment.
        let r = engine.execute(&req("rust async -chen")).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.stats.filtered_out, 1);
        // Excluding an absent word excludes nothing.
        let r = engine.execute(&req("rust async -cobol")).unwrap();
        assert_eq!(r.hits.len(), 2);
    }

    #[test]
    fn rejected_rtfs_cost_no_lookups() {
        let (engine, lookups) = probed_engine(&library(), Duration::ZERO);
        // An exclusion and a phrase decide before the layout: the only
        // RTF of each query costs storage nothing.
        for text in ["rust liu -async", "\"rust liu\""] {
            let r = engine.execute(&req(text)).unwrap();
            assert_eq!((r.hits.len(), r.stats.filtered_out), (0, 1), "{text}");
            assert_eq!(lookups(), Lookups::default(), "{text}");
        }
        // Where some RTFs survive, the query costs what building the
        // listed ones alone does: the survivors, plus the label-rejected
        // RTF, which is laid out but never emitted.
        let mut ctx = QueryContext::new();
        for (text, built, survivor) in [
            ("rust async -chen", &["0.0.0"][..], "0.0.0"),
            ("\"rust async\"", &["0.0.0"][..], "0.0.0"),
            ("rust title:async", &["0.0.0", "0.1"][..], "0.0.0"),
        ] {
            let r = engine.execute_with(&req(text), &mut ctx).unwrap();
            let spent = lookups();
            let anchors: Vec<String> = r
                .hits
                .iter()
                .map(|h| h.fragment.anchor.to_string())
                .collect();
            assert_eq!(anchors, [survivor], "{text}");
            assert_eq!(r.stats.filtered_out, 1, "{text}");
            assert_eq!(r.stats.total_before_top_k, 1, "{text}");
            let parts = Partitions::new(&ctx.anchors, &ctx.merged, &ctx.rtf);
            assert_eq!(parts.len(), 2, "{text}");
            let mut skel = SkeletonScratch::default();
            for i in 0..parts.len() {
                if built.contains(&parts.anchor(i).to_string().as_str()) {
                    let (anchor, knodes) = (parts.anchor(i), parts.knodes(i));
                    Fragment::build(engine.source(), anchor, knodes, None, &mut skel).unwrap();
                }
            }
            assert_eq!(spent, lookups(), "{text}");
            assert!(spent.keyword_nodes > 0, "{text}");
        }
    }

    #[test]
    fn post_filters_work_over_sources_too() {
        let corpus = MemoryCorpus::new(xks_store::shred(&library()));
        let engine = SearchEngine::from_owned_source(corpus);
        for (text, expect) in [
            ("\"rust async\"", 1),
            ("rust title:async", 1),
            ("rust async -chen", 1),
            ("rust async", 2),
        ] {
            let r = engine.execute(&req(text)).unwrap();
            assert_eq!(r.hits.len(), expect, "{text}");
        }
    }

    #[test]
    fn dropped_and_normalized_terms_reach_the_stats() {
        let engine = SearchEngine::new(library());
        let r = engine.execute(&req("Rust rust async")).unwrap();
        assert_eq!(r.stats.dropped_terms, ["rust"]);
        assert_eq!(
            r.stats.normalized_terms,
            [("Rust".to_owned(), "rust".to_owned())]
        );
    }

    // ---- failure paths ------------------------------------------------

    /// A corpus whose lookups fail like a dying disk would.
    #[derive(Debug, Default)]
    struct Failures {
        all_postings: bool,
        keyword: Option<&'static str>,
        elements: bool,
    }

    #[derive(Debug)]
    struct FailingCorpus {
        inner: MemoryCorpus,
        fail: Failures,
    }

    impl CorpusSource for FailingCorpus {
        fn label_name(&self, label: u32) -> Option<String> {
            self.inner.label_name(label)
        }
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
        fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
            if self.fail.all_postings || self.fail.keyword == Some(keyword) {
                return Err(SourceError::new("synthetic postings I/O failure"));
            }
            self.inner.try_keyword_deweys(keyword)
        }
        fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
            if self.fail.elements {
                return Err(SourceError::new("synthetic element I/O failure"));
            }
            self.inner.try_element(dewey)
        }
    }

    fn failing_engine(fail: Failures) -> SearchEngine {
        SearchEngine::from_owned_source(FailingCorpus {
            inner: MemoryCorpus::new(xks_store::shred(&library())),
            fail,
        })
    }

    #[test]
    fn backend_errors_surface_typed_not_panicking() {
        // Resolution failure (stage 1).
        let err = failing_engine(Failures {
            all_postings: true,
            ..Failures::default()
        })
        .execute(&req("rust async"))
        .unwrap_err();
        assert!(matches!(err, SearchError::Backend(_)), "{err}");
        assert!(err.to_string().contains("postings"));
        // The traced resolve and `explain` read the same lookups.
        let dead = failing_engine(Failures {
            all_postings: true,
            ..Failures::default()
        });
        for result in [
            dead.execute(&req("rust async").trace(true)).map(drop),
            dead.explain(&req("rust async")).map(drop),
        ] {
            assert!(matches!(result, Err(SearchError::Backend(_))), "{result:?}");
        }
        // Fragment-construction failure (stage 4).
        let err = failing_engine(Failures {
            elements: true,
            ..Failures::default()
        })
        .execute(&req("rust async"))
        .unwrap_err();
        assert!(matches!(err, SearchError::Backend(_)), "{err}");
        assert!(err.to_string().contains("element"));
        // Exclusion resolution failure: positive keywords resolve
        // fine, only the excluded word's lookup dies.
        let engine = failing_engine(Failures {
            keyword: Some("chen"),
            ..Failures::default()
        });
        assert!(engine.execute(&req("rust async")).is_ok());
        let err = engine.execute(&req("rust async -chen")).unwrap_err();
        assert!(matches!(err, SearchError::Backend(_)), "{err}");
    }

    // ---- planner ------------------------------------------------------

    /// A corpus where "rare" occurs once and "common" floods 40+ nodes
    /// — enough skew for [`choose_strategy`] to pick the gallop.
    fn skewed() -> XmlTree {
        let mut xml = String::from("<lib>");
        for i in 0..40 {
            xml.push_str(&format!("<b><t>common w{i}</t></b>"));
        }
        xml.push_str("<b><t>common rare</t></b></lib>");
        xks_xmltree::parse(&xml).unwrap()
    }

    /// A source with no sealed statistics: the default
    /// `keyword_stats` (`None`) forces the planner onto the legacy
    /// merge, giving an engine-level merge-vs-gallop differential.
    #[derive(Debug)]
    struct NoStats(MemoryCorpus);

    impl CorpusSource for NoStats {
        fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
            self.0.try_keyword_deweys(keyword)
        }
        fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
            self.0.try_element(dewey)
        }
        fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
            self.0.try_element_label(dewey)
        }
        fn label_name(&self, label: u32) -> Option<String> {
            self.0.label_name(label)
        }
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
    }

    #[test]
    fn planner_gallops_on_skew_and_matches_forced_merge() {
        let tree = skewed();
        let galloping = SearchEngine::new(tree.clone());
        let merging =
            SearchEngine::from_owned_source(NoStats(MemoryCorpus::new(xks_store::shred(&tree))));
        for kind in [
            AlgorithmKind::ValidRtf,
            AlgorithmKind::MaxMatchRtf,
            AlgorithmKind::MaxMatchSlca,
        ] {
            let g = galloping
                .execute(&req("rare common").algorithm(kind))
                .unwrap();
            let m = merging
                .execute(&req("rare common").algorithm(kind))
                .unwrap();
            assert_eq!(g.hits, m.hits, "{kind:?}");
            assert_eq!(g.stats.plan_strategy, crate::plan::PlanStrategy::Gallop);
            assert_eq!(g.stats.plan_driver, 0, "rare is the driver");
            assert!(g.stats.plan_postings >= 41);
            assert_eq!(m.stats.plan_strategy, crate::plan::PlanStrategy::FullMerge);
        }
    }

    #[test]
    fn uniform_lists_keep_the_merge_path() {
        let engine = SearchEngine::new(publications());
        // "liu" and "keyword" are both small lists — no 8× skew.
        let r = engine.execute(&req("liu keyword")).unwrap();
        assert_eq!(r.stats.plan_strategy, crate::plan::PlanStrategy::FullMerge);
        assert!(r.stats.plan_postings > 0);
    }

    #[test]
    fn bounded_topk_matches_full_ranking_and_skips() {
        // Two deep tight fragments and 20 shallow ones: the deep pair
        // fills the top 2 with score 1.0 and every shallow bound
        // (spec 0.5 at best) falls strictly below — all 20 skipped.
        let mut xml = String::from(
            "<lib><x><y><z><t>common</t></z></y></x>\
             <x><y><z><t>common</t></z></y></x>",
        );
        for _ in 0..20 {
            xml.push_str("<b><t>common</t></b>");
        }
        xml.push_str("</lib>");
        let engine = SearchEngine::new(xks_xmltree::parse(&xml).unwrap());
        let full = engine.execute(&req("common").rank()).unwrap();
        let topk = engine.execute(&req("common").top_k(2)).unwrap();
        assert_eq!(
            topk.hits,
            full.hits[..2].to_vec(),
            "same top 2, same scores"
        );
        assert!(
            topk.stats.rtfs_skipped_topk >= 20,
            "skipped {}",
            topk.stats.rtfs_skipped_topk
        );
        assert!(topk.stats.truncated);
        assert_eq!(topk.stats.total_before_top_k, 22);
        assert_eq!(full.stats.rtfs_skipped_topk, 0, "no top_k, no skipping");
        // The traced run takes the same path: same hits, same skips
        // (its spans are pinned by `traced_stages_tile_the_query`).
        let traced = engine.execute(&req("common").top_k(2).trace(true)).unwrap();
        assert_eq!(traced.hits, topk.hits);
        assert_eq!(traced.stats.rtfs_skipped_topk, topk.stats.rtfs_skipped_topk);
    }

    /// The `StageTimings` field a span's time counts toward, if any.
    fn timing_field(stage: Stage) -> Option<usize> {
        match stage {
            Stage::Resolve => Some(0),
            Stage::MergeAnchor => Some(1),
            Stage::RtfDispatch => Some(2),
            Stage::Construct | Stage::PostFilter | Stage::Prune => Some(3),
            Stage::Rank => Some(4),
            Stage::Parse | Stage::Plan | Stage::PostingsDecode => None,
        }
    }

    /// Asserts `trace` has exactly the spans `want` after its parse
    /// span (absent when parsing took no measurable time), that the
    /// stage spans tile the query from its start with the per-keyword
    /// decodes nested in `resolve`, and returns the per-field sums.
    fn check_spans(trace: &xks_obs::QueryTrace, want: &[Stage], at: &str) -> [u64; 5] {
        let spans = match trace.spans() {
            [first, rest @ ..] if first.stage == Stage::Parse => rest,
            spans => spans,
        };
        let got: Vec<Stage> = spans.iter().map(|s| s.stage).collect();
        assert_eq!(got, want, "{at}");
        assert_eq!(trace.dropped(), 0, "{at}");
        let (decodes, stages) =
            spans.split_at(got.iter().filter(|&&s| s == Stage::PostingsDecode).count());
        let mut end = 0;
        for span in stages {
            assert_eq!(
                span.start_ns, end,
                "{at}: {:?} starts where the last stage ended",
                span.stage
            );
            end += span.dur_ns;
        }
        let resolve = stages[0];
        for decode in decodes {
            assert!(
                decode.start_ns + decode.dur_ns <= resolve.dur_ns,
                "{at}: decode nests in resolve"
            );
        }
        let mut sums = [0; 5];
        for span in spans {
            if let Some(field) = timing_field(span.stage) {
                sums[field] += span.dur_ns;
            }
        }
        sums
    }

    #[test]
    fn traced_stages_tile_the_query() {
        use Stage::*;
        let laps = [Resolve, Plan, MergeAnchor, RtfDispatch];
        let pipeline = |decodes: usize, construct: &[Stage], rank: &[Stage]| -> Vec<Stage> {
            let mut want = vec![PostingsDecode; decodes];
            want.extend(laps.iter().chain(construct).chain(rank));
            want
        };
        let (publications, library) = (
            SearchEngine::new(publications()),
            SearchEngine::new(library()),
        );
        let cases = [
            (
                "plain",
                &publications,
                req("liu keyword"),
                pipeline(2, &[Construct, Prune], &[Rank]),
            ),
            (
                "operators",
                &library,
                req("rust async -chen"),
                pipeline(3, &[Construct, PostFilter, Prune], &[Rank]),
            ),
            (
                "ranked top-k",
                &publications,
                req("liu keyword").top_k(1),
                pipeline(2, &[Construct, Prune], &[Rank]),
            ),
            (
                "empty",
                &publications,
                req("liu nonexistent"),
                vec![PostingsDecode, PostingsDecode, Resolve],
            ),
        ];
        let mut ctx = QueryContext::new();
        for (at, engine, request, want) in cases {
            let untraced = engine.execute_with(&request, &mut ctx).unwrap();
            assert!(
                untraced.trace.is_none(),
                "{at}: untraced requests carry no trace"
            );
            let r = engine.execute_with(&request.trace(true), &mut ctx).unwrap();
            let sums = check_spans(r.trace.as_ref().expect("traced"), &want, at);
            let t = r.timings;
            let fields = [
                t.get_keyword_nodes,
                t.get_lca,
                t.get_rtf,
                t.prune_rtf,
                t.post_process,
            ];
            // One reading closes a stage's total and its span alike.
            assert_eq!(fields.map(|d| d.as_nanos() as u64), sums, "{at}");
        }

        // A request that times out inside the construct stage leaves
        // the spans up to its last boundary in the context's meter.
        let mut xml = String::from("<lib>");
        for _ in 0..100 {
            xml.push_str("<b><t>common</t></b>");
        }
        xml.push_str("</lib>");
        let tree = xks_xmltree::parse(&xml).unwrap();
        let (engine, _) = probed_engine(&tree, Duration::from_millis(1));
        let request = req("common").trace(true).timeout(Duration::from_millis(20));
        let err = engine.execute_with(&request, &mut ctx).unwrap_err();
        assert!(
            matches!(&err, SearchError::Timeout(t) if t.stage == "construct"),
            "{err:?}"
        );
        let trace = ctx.meter.trace().expect("armed");
        check_spans(trace, &pipeline(1, &[], &[]), "timeout");
    }

    #[test]
    fn explain_reports_rarest_first_plan() {
        let engine = SearchEngine::new(skewed());
        let report = engine.explain(&req("common rare")).unwrap();
        assert_eq!(report.strategy, crate::plan::PlanStrategy::Gallop);
        assert_eq!(report.shards, 0);
        assert_eq!(report.terms.len(), 2);
        assert_eq!(report.terms[0].keyword, "rare", "rarest first");
        assert_eq!(report.terms[0].postings, 1);
        assert_eq!(report.terms[0].doc_freq, Some(1));
        assert!(report.terms[0].sealed);
        assert!(report.terms[1].postings >= 41);
        // Same report through a sealed source backend.
        let source =
            SearchEngine::from_owned_source(MemoryCorpus::new(xks_store::shred(&skewed())));
        let via_source = source.explain(&req("common rare")).unwrap();
        assert_eq!(via_source.terms, report.terms);
        assert_eq!(via_source.strategy, report.strategy);
    }

    #[test]
    fn expired_deadline_is_typed_timeout_with_partial_stats() {
        let engine = SearchEngine::new(publications());
        // Already-expired deadline: cut at admission, before resolve.
        let request = req("liu keyword").deadline_at(Instant::now() - Duration::from_millis(1));
        let err = engine.execute(&request).unwrap_err();
        match &err {
            SearchError::Timeout(t) => assert_eq!(t.stage, "resolve"),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(err.to_string().contains("deadline exceeded"), "{err}");
        // A roomy budget is invisible: byte-identical hits.
        let roomy = engine
            .execute(&req("liu keyword").timeout(Duration::from_secs(60)))
            .unwrap();
        let plain = engine.execute(&req("liu keyword")).unwrap();
        assert_eq!(roomy.hits, plain.hits);
    }

    #[test]
    fn deadline_is_not_request_identity() {
        let a = req("liu keyword");
        let b = req("liu keyword").timeout(Duration::from_millis(5));
        assert_eq!(a, b, "deadline rides along like parse_ns");
    }

    #[test]
    fn poisoned_context_pool_recovers() {
        let engine = SearchEngine::new(library());
        // Seed the pool, then poison its mutex by panicking mid-lock.
        let _ = engine.execute(&req("rust")).unwrap();
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.contexts.lock().unwrap();
            panic!("poison the context pool");
        }));
        assert!(poison.is_err());
        assert!(engine.contexts.lock().is_err(), "pool mutex is poisoned");
        // Queries keep working: checkout/checkin recover the poison.
        let r = engine.execute(&req("rust async")).unwrap();
        assert_eq!(r.hits.len(), 2);
    }
}
