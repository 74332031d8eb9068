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
//!
//! The three functions are an engine-free, planner-free, merge-only
//! path because the axiom and quality checkers want a paper-literal
//! `fn(&XmlTree, &InvertedIndex, &Query) -> Vec<Fragment>` over a
//! borrowed tree. They drive the same stages and the same single
//! builder as `SearchEngine::execute_with`, which serves every query.

use std::time::Duration;

use xks_index::{InvertedIndex, KeywordNodeSets, Query};
use xks_lca::{elca_into_context, slca_into_context, QueryContext};
use xks_obs::{QueryMeter, Stage};
use xks_xmltree::XmlTree;

use crate::fragment::Fragment;
use crate::prune::Policy;
use crate::rtf::dispatch;

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
    /// `getKeywordNodes` (index resolution, the excluded words included).
    pub get_keyword_nodes: Duration,
    /// `getLCA`.
    pub get_lca: Duration,
    /// `getRTF`.
    pub get_rtf: Duration,
    /// `pruneRTF` (construction + pruning, the operator checks
    /// included).
    pub prune_rtf: Duration,
    /// Everything after the paper's pipeline: ranking and hit
    /// materialization.
    pub post_process: Duration,
}

impl StageTimings {
    /// The stage totals of one query's meter: `prune_rtf` is the whole
    /// construct stage (layout, pruning and operator checks).
    pub(crate) fn from_meter(meter: &QueryMeter) -> Self {
        StageTimings {
            get_keyword_nodes: meter.total(Stage::Resolve),
            get_lca: meter.total(Stage::MergeAnchor),
            get_rtf: meter.total(Stage::RtfDispatch),
            prune_rtf: meter.total(Stage::Prune),
            post_process: meter.total(Stage::Rank),
        }
    }

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

/// How [`get_lca`] computes anchors and the dispatch stream: the
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

/// `getLCA` with shared buffers: merge the posting stream **once** into
/// the context and compute the anchors from it. Anchors land in
/// `ctx.anchors`; `getRTF` ([`dispatch`]) then partitions the same
/// stream into `ctx.rtf` (read it through [`crate::rtf::Partitions`]).
/// (Crate-visible: `SearchEngine::execute_with` drives the same stages.)
pub(crate) fn get_lca(
    sets: &KeywordNodeSets,
    anchors: AnchorSemantics,
    exec: AnchorExec,
    ctx: &mut QueryContext,
) {
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
}

/// Algorithm 1 over a borrowed tree: resolve, the merge-only anchor
/// stages, then the engine's single builder per partition. Empty when
/// some query keyword has no match.
fn pipeline(
    tree: &XmlTree,
    index: &InvertedIndex,
    query: &Query,
    anchors: AnchorSemantics,
    policy: Policy,
) -> Vec<Fragment> {
    let Some(sets) = index.resolve(query) else {
        return Vec::new();
    };
    let mut ctx = QueryContext::default();
    get_lca(&sets, anchors, AnchorExec::Merge, &mut ctx);
    let parts = dispatch(&ctx.anchors, &ctx.merged, sets.len(), true, &mut ctx.rtf);
    (0..parts.len())
        .map(|i| {
            let (anchor, knodes) = (parts.anchor(i), parts.knodes(i));
            Fragment::build(tree, anchor, knodes, Some(policy), &mut ctx.skeleton)
                .expect("keyword nodes resolved from this tree's own index are in the tree")
        })
        .collect()
}

/// ValidRTF (Algorithm 1): meaningful RTFs at all interesting LCA nodes,
/// valid-contributor pruning.
#[must_use]
pub fn valid_rtf(tree: &XmlTree, index: &InvertedIndex, query: &Query) -> Vec<Fragment> {
    pipeline(
        tree,
        index,
        query,
        AnchorSemantics::AllLca,
        Policy::ValidContributor,
    )
}

/// Revised MaxMatch: same RTFs, contributor pruning.
#[must_use]
pub fn max_match_rtf(tree: &XmlTree, index: &InvertedIndex, query: &Query) -> Vec<Fragment> {
    pipeline(
        tree,
        index,
        query,
        AnchorSemantics::AllLca,
        Policy::Contributor,
    )
}

/// Original MaxMatch: SLCA anchors, contributor pruning.
#[must_use]
pub fn max_match_slca(tree: &XmlTree, index: &InvertedIndex, query: &Query) -> Vec<Fragment> {
    pipeline(
        tree,
        index,
        query,
        AnchorSemantics::SlcaOnly,
        Policy::Contributor,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xks_xmltree::fixtures::{publications, PAPER_QUERIES};
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
