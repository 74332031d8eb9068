//! The request/response search API.
//!
//! [`SearchRequest`] is the one description of a search — query text in
//! the operator grammar (phrases, exclusions, label filters; see
//! [`xks_index::grammar`]), the algorithm, and the result-shaping knobs
//! (`top_k`, ranking weights, `max_fragments`). It is executed by the
//! single pair of entry points
//! [`SearchEngine::execute`](crate::engine::SearchEngine::execute) /
//! [`execute_with`](crate::engine::SearchEngine::execute_with), which
//! return a [`SearchResponse`]: scored [`Hit`]s, per-stage timings, and
//! the [`SearchStats`] observability block. Failures are typed
//! [`SearchError`]s — parse errors from the grammar, backend I/O or
//! corruption from the storage layer — so no query path panics.
//!
//! ```
//! use validrtf::{AlgorithmKind, SearchEngine, SearchRequest};
//!
//! let tree = xks_xmltree::parse(
//!     "<pubs><paper><title>xml keyword search</title></paper>\
//!      <paper><title>skyline queries</title></paper></pubs>",
//! )
//! .unwrap();
//! let engine = SearchEngine::new(tree);
//! let request = SearchRequest::parse("xml keyword")?
//!     .algorithm(AlgorithmKind::ValidRtf)
//!     .top_k(10);
//! let response = engine.execute(&request)?;
//! assert_eq!(response.hits.len(), 1);
//! assert!(response.hits[0].score.is_some()); // top_k implies ranking
//! # Ok::<(), validrtf::SearchError>(())
//! ```

use std::fmt;
use std::time::{Duration, Instant};

use xks_index::{ParseError, Query, QueryError, QuerySpec};

use crate::algorithms::StageTimings;
use crate::engine::AlgorithmKind;
use crate::fragment::Fragment;
use crate::rank::RankWeights;
use crate::source::SourceError;

/// Everything that can go wrong executing a search — the one error
/// type of the read path.
#[derive(Debug)]
pub enum SearchError {
    /// The query text failed the operator grammar (also absorbs the
    /// legacy [`QueryError`]).
    Parse(ParseError),
    /// The storage backend failed: I/O, index corruption, a poisoned
    /// resource — anything [`SourceError`] wraps.
    Backend(SourceError),
    /// A corpus mutation failed (bad document XML, unknown ordinal) —
    /// surfaced here so read/write services share one error type.
    Mutation(crate::mutable::MutationError),
    /// The request's deadline expired before the pipeline finished.
    /// Boxed because the partial stats it carries are bigger than every
    /// other variant; see [`SearchTimeout`].
    Timeout(Box<SearchTimeout>),
}

/// The evidence behind a [`SearchError::Timeout`]: where the pipeline
/// was cut, how long it had run, and the [`SearchStats`] accumulated so
/// far — enough for a server to answer `503` with a partial-stats body
/// instead of a bare error string.
#[derive(Debug, Clone)]
pub struct SearchTimeout {
    /// The pipeline stage the deadline check fired **before** (the
    /// stages themselves always run to completion): `"resolve"`,
    /// `"anchor"`, `"construct"`, or `"post_process"`.
    pub stage: &'static str,
    /// Wall time spent in the pipeline when the check fired.
    pub elapsed: Duration,
    /// The stats accumulated up to the cut — plan strategy and postings
    /// totals are valid once the `"anchor"` check is reached.
    pub stats: SearchStats,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::Parse(e) => write!(f, "bad query: {e}"),
            SearchError::Backend(e) => write!(f, "{e}"),
            SearchError::Mutation(e) => write!(f, "mutation failed: {e}"),
            SearchError::Timeout(t) => write!(
                f,
                "deadline exceeded after {:?} (before the {} stage)",
                t.elapsed, t.stage
            ),
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Parse(e) => Some(e),
            SearchError::Backend(e) => Some(e),
            SearchError::Mutation(e) => Some(e),
            SearchError::Timeout(_) => None,
        }
    }
}

impl From<crate::mutable::MutationError> for SearchError {
    fn from(e: crate::mutable::MutationError) -> Self {
        SearchError::Mutation(e)
    }
}

impl From<ParseError> for SearchError {
    fn from(e: ParseError) -> Self {
        SearchError::Parse(e)
    }
}

impl From<QueryError> for SearchError {
    fn from(e: QueryError) -> Self {
        SearchError::Parse(e.into())
    }
}

impl From<SourceError> for SearchError {
    fn from(e: SourceError) -> Self {
        SearchError::Backend(e)
    }
}

/// A fully-described search: parsed query plus execution knobs.
///
/// Build one with [`SearchRequest::parse`] (operator grammar) or
/// [`SearchRequest::from_query`] / [`SearchRequest::from_spec`], then
/// chain the builder methods:
///
/// ```
/// use validrtf::{AlgorithmKind, RankWeights, SearchRequest};
///
/// let request = SearchRequest::parse("title:xml \"keyword search\" -skyline")?
///     .algorithm(AlgorithmKind::ValidRtf)
///     .weights(RankWeights::default())
///     .top_k(10)
///     .max_fragments(1000);
/// assert_eq!(request.query().keywords(), ["xml", "keyword", "search"]);
/// # Ok::<(), validrtf::SearchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SearchRequest {
    spec: QuerySpec,
    algorithm: AlgorithmKind,
    top_k: Option<usize>,
    weights: Option<RankWeights>,
    max_fragments: Option<usize>,
    trace: bool,
    parse_ns: u64,
    deadline: Option<Instant>,
}

// Manual: two requests are the same search if every knob matches;
// `parse_ns` is telemetry riding along and `deadline` is a property of
// one particular execution, not part of request identity.
impl PartialEq for SearchRequest {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.algorithm == other.algorithm
            && self.top_k == other.top_k
            && self.weights == other.weights
            && self.max_fragments == other.max_fragments
            && self.trace == other.trace
    }
}

impl SearchRequest {
    /// Parses query text in the operator grammar and wraps it in a
    /// request with default knobs ([`AlgorithmKind::ValidRtf`], no
    /// ranking, no truncation).
    pub fn parse(text: &str) -> Result<Self, SearchError> {
        let started = std::time::Instant::now();
        let spec = QuerySpec::parse(text)?;
        let parse_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut request = Self::from_spec(spec);
        request.parse_ns = parse_ns;
        Ok(request)
    }

    /// A request over an already-parsed operator-grammar spec.
    #[must_use]
    pub fn from_spec(spec: QuerySpec) -> Self {
        SearchRequest {
            spec,
            algorithm: AlgorithmKind::ValidRtf,
            top_k: None,
            weights: None,
            max_fragments: None,
            trace: false,
            parse_ns: 0,
            deadline: None,
        }
    }

    /// A request over a plain lowered [`Query`] (no operators).
    #[must_use]
    pub fn from_query(query: Query) -> Self {
        Self::from_spec(QuerySpec::from_query(query))
    }

    /// Selects the algorithm (default [`AlgorithmKind::ValidRtf`]).
    #[must_use]
    pub fn algorithm(mut self, kind: AlgorithmKind) -> Self {
        self.algorithm = kind;
        self
    }

    /// Keeps only the `k` best hits. Setting `top_k` implies ranking:
    /// the response's hits come back best-first and scored (with
    /// [`SearchRequest::weights`] or the default weights), and
    /// truncation happens **before** any hit is materialized.
    #[must_use]
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Ranks hits best-first with these weights (without `top_k`, all
    /// hits come back, ranked).
    #[must_use]
    pub fn weights(mut self, weights: RankWeights) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Caps how many fragments the response may carry **in document
    /// order, before ranking** — a response-size guard for queries that
    /// explode. A hit dropped here is reported via
    /// [`SearchStats::truncated`], never silently.
    #[must_use]
    pub fn max_fragments(mut self, cap: usize) -> Self {
        self.max_fragments = Some(cap);
        self
    }

    /// Enables per-query stage tracing: the response's
    /// [`SearchResponse::trace`] carries a span per pipeline stage
    /// (parse, per-keyword postings decode, merge/anchor, construct,
    /// prune, rank). Tracing never changes results and stays on the
    /// zero-allocation warm path; overhead is a few `Instant` reads
    /// per query.
    #[must_use]
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Whether this request asks for a stage trace.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Gives this execution a wall-clock budget: the deadline is `now +
    /// budget`, and [`SearchEngine::execute_with`] checks it **between**
    /// pipeline stages (a stage that has started runs to completion, so
    /// the overshoot is bounded by one stage). An expired deadline
    /// surfaces as [`SearchError::Timeout`] carrying the partial stats.
    ///
    /// [`SearchEngine::execute_with`]: crate::engine::SearchEngine::execute_with
    #[must_use]
    pub fn timeout(self, budget: Duration) -> Self {
        self.deadline_at(Instant::now() + budget)
    }

    /// Sets the absolute deadline directly (what a server computes once
    /// at admission, so queueing time counts against the budget too).
    #[must_use]
    pub fn deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The execution deadline, if one was set.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Nanoseconds [`SearchRequest::parse`] spent in the grammar
    /// (zero for requests built from a pre-parsed spec or query).
    #[must_use]
    pub fn parse_time_ns(&self) -> u64 {
        self.parse_ns
    }

    /// The parsed operator-grammar spec.
    #[must_use]
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// The lowered flat query.
    #[must_use]
    pub fn query(&self) -> &Query {
        self.spec.query()
    }

    /// The selected algorithm.
    #[must_use]
    pub fn kind(&self) -> AlgorithmKind {
        self.algorithm
    }

    /// The `top_k` limit, if set.
    #[must_use]
    pub fn top_k_limit(&self) -> Option<usize> {
        self.top_k
    }

    /// The `max_fragments` cap, if set.
    #[must_use]
    pub fn max_fragments_cap(&self) -> Option<usize> {
        self.max_fragments
    }

    /// Whether execution ranks the hits (an explicit `weights` call or
    /// any `top_k`).
    #[must_use]
    pub fn is_ranked(&self) -> bool {
        self.weights.is_some() || self.top_k.is_some()
    }

    /// The weights execution will rank with (`None` when unranked).
    #[must_use]
    pub fn effective_weights(&self) -> Option<RankWeights> {
        if self.is_ranked() {
            Some(self.weights.unwrap_or_default())
        } else {
            None
        }
    }
}

/// One search hit: the fragment plus its ranking evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// The meaningful fragment.
    pub fragment: Fragment,
    /// Combined rank score in `[0, 1]` (set when the request ranked).
    pub score: Option<f64>,
    /// The individual rank signals (specificity, compactness, density)
    /// behind [`Hit::score`], for explainability.
    pub signals: Option<[f64; 3]>,
}

/// The observability block of a [`SearchResponse`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// True when `top_k` / `max_fragments` cut hits away.
    pub truncated: bool,
    /// Meaningful fragments that passed the operator checks, before
    /// any truncation.
    pub total_before_top_k: usize,
    /// RTFs rejected by the operator checks (phrase, exclusion,
    /// label).
    pub filtered_out: usize,
    /// Query terms the parser dropped as duplicates (raw, as typed).
    pub dropped_terms: Vec<String>,
    /// Query terms the parser rewrote, as `(raw, normalized)` pairs.
    pub normalized_terms: Vec<(String, String)>,
    /// How the anchor pass ran: legacy full merge or rarest-first
    /// gallop (see [`crate::plan`]). The full term order is available
    /// via `SearchEngine::explain`.
    pub plan_strategy: crate::plan::PlanStrategy,
    /// Query-order index of the rarest keyword (the gallop driver;
    /// 0 when the plan fell back to the full merge).
    pub plan_driver: u32,
    /// Total resolved postings across the query's keyword lists.
    pub plan_postings: u64,
    /// `(keyword × shard)` postings lookups skipped because a shard's
    /// keyword filter proved the term absent (0 on unsharded backends).
    pub shards_skipped: u32,
    /// RTFs whose fragment was never built because its score upper
    /// bound provably misses the requested `top_k`.
    pub rtfs_skipped_topk: u32,
}

/// What a search returns: scored hits, per-stage timings, stats.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// The hits — best-first when the request ranked, document order
    /// otherwise.
    pub hits: Vec<Hit>,
    /// Wall-clock per pipeline stage.
    pub timings: StageTimings,
    /// Truncation / filtering / parse observability.
    pub stats: SearchStats,
    /// The structured stage trace — `Some` exactly when the request
    /// set [`SearchRequest::trace`]. Where [`SearchResponse::timings`]
    /// is the coarse always-on summary, this is the fine-grained form:
    /// ordered wall-time spans (including per-keyword postings
    /// decodes) serializable to Chrome trace-event JSON.
    pub trace: Option<xks_obs::QueryTrace>,
}

impl SearchResponse {
    /// The hit fragments, in response order.
    pub fn fragments(&self) -> impl Iterator<Item = &Fragment> {
        self.hits.iter().map(|h| &h.fragment)
    }

    /// Consumes the response into its fragments, in response order.
    #[must_use]
    pub fn into_fragments(self) -> Vec<Fragment> {
        self.hits.into_iter().map(|h| h.fragment).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let r = SearchRequest::parse("xml keyword")
            .unwrap()
            .algorithm(AlgorithmKind::MaxMatchRtf)
            .top_k(5)
            .max_fragments(100);
        assert_eq!(r.kind(), AlgorithmKind::MaxMatchRtf);
        assert_eq!(r.top_k_limit(), Some(5));
        assert_eq!(r.max_fragments_cap(), Some(100));
        assert!(r.is_ranked(), "top_k implies ranking");
        assert_eq!(r.effective_weights(), Some(RankWeights::default()));
        assert_eq!(r.query().keywords(), ["xml", "keyword"]);
    }

    #[test]
    fn defaults_are_unranked_valid_rtf() {
        let r = SearchRequest::parse("xml").unwrap();
        assert_eq!(r.kind(), AlgorithmKind::ValidRtf);
        assert!(!r.is_ranked());
        assert_eq!(r.effective_weights(), None);
        assert_eq!(r.top_k_limit(), None);
    }

    #[test]
    fn parse_errors_are_typed() {
        let err = SearchRequest::parse("\"unclosed").unwrap_err();
        assert!(matches!(
            err,
            SearchError::Parse(ParseError::UnclosedPhrase)
        ));
        assert!(err.to_string().contains("unclosed"));
    }

    #[test]
    fn query_error_absorbed() {
        let e: SearchError = QueryError::Empty.into();
        assert!(matches!(e, SearchError::Parse(ParseError::Empty)));
    }

    #[test]
    fn backend_error_chains_source() {
        use std::error::Error as _;
        let e = SearchError::Backend(SourceError::new("disk on fire"));
        assert!(e.to_string().contains("disk on fire"));
        assert!(e.source().is_some());
    }
}
