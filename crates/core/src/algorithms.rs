//! End-to-end algorithms: ValidRTF (Algorithm 1) and the MaxMatch
//! baselines.
//!
//! All three share the staged shape of Algorithm 1 —
//! `getKeywordNodes → getLCA → getRTF → pruneRTF` — and differ in the
//! anchor semantics and the pruning policy:
//!
//! | algorithm           | anchors (`getLCA`)          | pruning            |
//! |---------------------|-----------------------------|--------------------|
//! | [`valid_rtf`]       | all interesting LCAs (ELCA) | valid contributor  |
//! | [`max_match_rtf`]   | all interesting LCAs (ELCA) | contributor        |
//! | [`max_match_slca`]  | SLCA only                   | contributor        |
//!
//! `max_match_rtf` is the paper's "revised MaxMatch" used in every
//! comparison (§4.3 footnote 10); `max_match_slca` is Liu & Chen's
//! original algorithm, kept for the SLCA-vs-LCA illustrations of
//! Example 1.

use std::time::{Duration, Instant};

use xks_index::{InvertedIndex, KeywordNodeSets, Query};
use xks_lca::{elca_into_context, slca_into_context, QueryContext};
use xks_xmltree::XmlTree;

use crate::fragment::{Fragment, NodeFacts};
use crate::prune::{prune, Policy};
use crate::rtf::{dispatch, Partitions, Rtf};

/// Which anchor semantics stage 2 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorSemantics {
    /// All interesting LCA nodes (ELCA) — the paper's `getLCA`.
    AllLca,
    /// Smallest LCAs only — original MaxMatch.
    SlcaOnly,
}

/// Per-stage wall-clock timings of one run (for the Figure 5 harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// `getKeywordNodes` (index resolution).
    pub get_keyword_nodes: Duration,
    /// `getLCA`.
    pub get_lca: Duration,
    /// `getRTF`.
    pub get_rtf: Duration,
    /// `pruneRTF` (construction + pruning).
    pub prune_rtf: Duration,
    /// Everything after the paper's pipeline: the operator post-filter
    /// stage (including its exclusion-posting lookups), ranking, and
    /// hit materialization. Zero on the legacy four-stage entry points.
    pub post_process: Duration,
}

impl StageTimings {
    /// Total elapsed time over all stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.get_keyword_nodes + self.get_lca + self.get_rtf + self.prune_rtf + self.post_process
    }

    /// Elapsed time excluding keyword-node retrieval and response
    /// post-processing — the paper's measurement boundary ("we record
    /// the elapsed time after retrieving the Dewey codes of the
    /// keyword nodes", §5.3, over its four-stage pipeline).
    #[must_use]
    pub fn algorithm_time(&self) -> Duration {
        self.get_lca + self.get_rtf + self.prune_rtf
    }
}

/// Result of a full run: the meaningful fragments plus instrumentation.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The pruned (meaningful) fragments, in anchor document order.
    pub fragments: Vec<Fragment>,
    /// The raw (unpruned) fragments, same order.
    pub raw: Vec<Fragment>,
    /// The keyword-node partitions.
    pub rtfs: Vec<Rtf>,
    /// Per-stage timings.
    pub timings: StageTimings,
}

/// Runs the staged pipeline with explicit anchor semantics and pruning
/// policy. Returns `None` when some query keyword has no match.
#[must_use]
pub fn run(
    tree: &XmlTree,
    index: &InvertedIndex,
    query: &Query,
    anchors: AnchorSemantics,
    policy: Policy,
) -> Option<RunOutput> {
    let mut timings = StageTimings::default();

    let t0 = Instant::now();
    let sets = index.resolve(query)?;
    timings.get_keyword_nodes = t0.elapsed();

    Some(run_from_sets(tree, &sets, anchors, policy, timings))
}

/// Like [`run`] but starting from already-resolved keyword-node sets —
/// the timing boundary the paper uses ("we record the elapsed time
/// *after retrieving the Dewey codes* of the keyword nodes", §5.3) —
/// and keeping every intermediate artifact: partitions, raw fragments,
/// pruned fragments. `facts` is where node facts come from: the parsed
/// tree or any [`crate::CorpusSource`] (resolve with its `try_resolve`);
/// results are byte-identical across backends storing the same corpus.
#[must_use]
pub fn run_from_sets(
    facts: &(impl NodeFacts + ?Sized),
    sets: &KeywordNodeSets,
    anchors: AnchorSemantics,
    policy: Policy,
    mut timings: StageTimings,
) -> RunOutput {
    let mut ctx = QueryContext::default();
    anchor_stages(sets, anchors, AnchorExec::Merge, &mut timings, &mut ctx);
    let rtfs = Partitions::new(&ctx.anchors, &ctx.merged, &ctx.rtf).to_rtfs();

    let t = Instant::now();
    let raw: Vec<Fragment> = rtfs.iter().map(|r| Fragment::construct(facts, r)).collect();
    let fragments: Vec<Fragment> = raw.iter().map(|f| prune(f, policy)).collect();
    timings.prune_rtf = t.elapsed();

    RunOutput {
        fragments,
        raw,
        rtfs,
        timings,
    }
}

/// How [`anchor_stages`] computes anchors and the dispatch stream: the
/// legacy full k-way merge, or the planner's rarest-first gallop
/// (anchors via `xks_lca::gallop_elca`, dispatch stream via anchored
/// extraction — proven anchor- and RTF-identical to the merge by the
/// lca crate's differential tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnchorExec {
    /// Merge every posting list, then the stack pass (legacy path).
    Merge,
    /// Gallop from the rarest list (its index in query order).
    Gallop {
        /// Index of the driving (rarest) keyword list.
        driver: usize,
    },
}

/// `getLCA` + `getRTF` with shared buffers: merge the posting stream
/// **once** into the context, compute anchors from it, dispatch keyword
/// nodes over it. Anchors stay in `ctx.anchors`, their partitions in
/// `ctx.rtf` (read them through [`Partitions`]).
/// (Crate-visible: `SearchEngine::execute_with` drives the same stages.)
pub(crate) fn anchor_stages(
    sets: &KeywordNodeSets,
    anchors: AnchorSemantics,
    exec: AnchorExec,
    timings: &mut StageTimings,
    ctx: &mut QueryContext,
) {
    let t = Instant::now();
    match (anchors, exec) {
        (AnchorSemantics::AllLca, AnchorExec::Merge) => elca_into_context(sets.sets(), ctx),
        (AnchorSemantics::SlcaOnly, AnchorExec::Merge) => slca_into_context(sets.sets(), ctx),
        (AnchorSemantics::AllLca, AnchorExec::Gallop { driver }) => {
            xks_lca::planned_elca_into_context(sets.sets(), driver, ctx);
        }
        (AnchorSemantics::SlcaOnly, AnchorExec::Gallop { .. }) => {
            xks_lca::planned_slca_into_context(sets.sets(), ctx);
        }
    }
    timings.get_lca = t.elapsed();
    ctx.trace.record_since(xks_obs::Stage::MergeAnchor, t);

    let t = Instant::now();
    dispatch(&ctx.anchors, &ctx.merged, sets.len(), true, &mut ctx.rtf);
    timings.get_rtf = t.elapsed();
    ctx.trace.record_since(xks_obs::Stage::RtfDispatch, t);
}

/// ValidRTF (Algorithm 1): meaningful RTFs at all interesting LCA nodes,
/// valid-contributor pruning.
#[must_use]
pub fn valid_rtf(tree: &XmlTree, index: &InvertedIndex, query: &Query) -> Vec<Fragment> {
    run(
        tree,
        index,
        query,
        AnchorSemantics::AllLca,
        Policy::ValidContributor,
    )
    .map(|o| o.fragments)
    .unwrap_or_default()
}

/// Revised MaxMatch: same RTFs, contributor pruning.
#[must_use]
pub fn max_match_rtf(tree: &XmlTree, index: &InvertedIndex, query: &Query) -> Vec<Fragment> {
    run(
        tree,
        index,
        query,
        AnchorSemantics::AllLca,
        Policy::Contributor,
    )
    .map(|o| o.fragments)
    .unwrap_or_default()
}

/// Original MaxMatch: SLCA anchors, contributor pruning.
#[must_use]
pub fn max_match_slca(tree: &XmlTree, index: &InvertedIndex, query: &Query) -> Vec<Fragment> {
    run(
        tree,
        index,
        query,
        AnchorSemantics::SlcaOnly,
        Policy::Contributor,
    )
    .map(|o| o.fragments)
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xks_xmltree::fixtures::{publications, team, PAPER_QUERIES};
    use xks_xmltree::Dewey;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn q(s: &str) -> Query {
        Query::parse(s).unwrap()
    }

    #[test]
    fn q2_slca_vs_all_lca_anchor_counts() {
        // Example 1: SLCA semantics sees only the ref fragment; the
        // all-LCA semantics also returns the article fragment.
        let tree = publications();
        let index = InvertedIndex::build(&tree);
        let slca = max_match_slca(&tree, &index, &q(PAPER_QUERIES[1]));
        assert_eq!(slca.len(), 1);
        assert_eq!(slca[0].anchor, d("0.2.0.3.0"));
        let all = valid_rtf(&tree, &index, &q(PAPER_QUERIES[1]));
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].anchor, d("0.2.0"));
        assert_eq!(all[1].anchor, d("0.2.0.3.0"));
    }

    #[test]
    fn unmatched_keyword_returns_empty() {
        let tree = publications();
        let index = InvertedIndex::build(&tree);
        assert!(valid_rtf(&tree, &index, &q("liu unobtainium")).is_empty());
        assert!(max_match_rtf(&tree, &index, &q("liu unobtainium")).is_empty());
    }

    #[test]
    fn run_reports_all_artifacts() {
        let tree = team();
        let index = InvertedIndex::build(&tree);
        let out = run(
            &tree,
            &index,
            &q("grizzlies position"),
            AnchorSemantics::AllLca,
            Policy::ValidContributor,
        )
        .unwrap();
        assert_eq!(out.fragments.len(), 1);
        assert_eq!(out.raw.len(), 1);
        assert_eq!(out.rtfs.len(), 1);
        assert!(out.raw[0].len() >= out.fragments[0].len());
        assert!(out.timings.total() > Duration::ZERO);
    }

    #[test]
    fn stage_timings_arithmetic() {
        let t = StageTimings {
            get_keyword_nodes: Duration::from_millis(5),
            get_lca: Duration::from_millis(2),
            get_rtf: Duration::from_millis(3),
            prune_rtf: Duration::from_millis(4),
            post_process: Duration::from_millis(1),
        };
        assert_eq!(t.total(), Duration::from_millis(15));
        // The paper's measurement boundary excludes keyword retrieval
        // and the response post-processing outside its pipeline.
        assert_eq!(t.algorithm_time(), Duration::from_millis(9));
    }

    #[test]
    fn run_from_sets_matches_run() {
        // Feeding pre-resolved keyword-node sets must produce the same
        // fragments as the end-to-end entry point.
        let tree = publications();
        let index = InvertedIndex::build(&tree);
        let query = q("liu keyword");
        let via_run = run(
            &tree,
            &index,
            &query,
            AnchorSemantics::AllLca,
            Policy::ValidContributor,
        )
        .unwrap();
        let sets = index.resolve(&query).unwrap();
        let via_sets = run_from_sets(
            &tree,
            &sets,
            AnchorSemantics::AllLca,
            Policy::ValidContributor,
            StageTimings::default(),
        );
        assert_eq!(via_run.fragments, via_sets.fragments);
        assert_eq!(via_run.rtfs, via_sets.rtfs);
    }

    #[test]
    fn valid_rtf_and_maxmatch_share_anchors() {
        let tree = publications();
        let index = InvertedIndex::build(&tree);
        for query in PAPER_QUERIES.iter().take(3) {
            let v = valid_rtf(&tree, &index, &q(query));
            let x = max_match_rtf(&tree, &index, &q(query));
            let va: Vec<&Dewey> = v.iter().map(|f| &f.anchor).collect();
            let xa: Vec<&Dewey> = x.iter().map(|f| &f.anchor).collect();
            assert_eq!(va, xa, "anchor sets differ for {query}");
        }
    }

    #[test]
    fn fragments_ordered_by_anchor() {
        let tree = publications();
        let index = InvertedIndex::build(&tree);
        let frags = valid_rtf(&tree, &index, &q("skyline query"));
        let anchors: Vec<&Dewey> = frags.iter().map(|f| &f.anchor).collect();
        let mut sorted = anchors.clone();
        sorted.sort();
        assert_eq!(anchors, sorted);
    }
}
