//! Per-thread query working memory: the mutable half of the read path.
//!
//! The concurrency model of the workspace splits every query into two
//! halves: a shared **immutable** index handle (`CorpusSource` backends
//! — safe to share across threads behind an `Arc`) and a per-thread
//! [`QueryContext`] owning every buffer a query mutates — the merged
//! posting stream, the anchor list, the ELCA mask stack, the gallop
//! scratch, the `getRTF` sweep and fragment-skeleton buffers, and the
//! query's meter. One context per query thread — a query never spreads
//! over more than one — means the anchor pipeline stays allocation-free
//! when warm (asserted by the workspace's counting-allocator test)
//! *without* any lock on the hot path.
//!
//! The context lives in this crate — the lowest layer that owns the
//! scratch-taking algorithms — so [`elca_into_context`] and
//! [`slca_into_context`] can accept it directly and higher layers
//! (`validrtf`'s engine and executor) reuse the same type.

use std::collections::HashMap;
use std::sync::Arc;

use xks_xmltree::Dewey;

use crate::common::merge_postings_into;
use crate::elca::{elca_from_merged, ElcaScratch};
use crate::gallop::{extract_anchored_into, gallop_elca, GallopScratch};
use crate::slca::indexed_lookup_eager_into;

/// "No such index" in the `u32` links of [`SweepEntry`] and
/// [`SkelNode`].
pub const NONE: u32 = u32::MAX;

/// One open path node of the `getRTF` sweep (see `validrtf::rtf`).
#[derive(Debug, Clone, Copy)]
pub struct SweepEntry {
    /// Keywords seen in the node's subtree so far.
    pub mask: u64,
    /// Length of [`RtfScratch::pending`] when the node was opened: the
    /// keyword nodes below it that no deeper node has claimed start
    /// here.
    pub pending_start: u32,
    /// Index into the anchor list when the node is an anchor, else
    /// [`NONE`].
    pub anchor: u32,
}

/// Buffers of the `getRTF` sweep. After a sweep, `ranges[a]` is the
/// `(start, len)` window of `nodes` holding anchor `a`'s partition as
/// indices into the merged stream, in document order.
#[derive(Debug, Default)]
pub struct RtfScratch {
    /// Open path nodes, outermost first.
    pub stack: Vec<SweepEntry>,
    /// Components of the current path (mirrors `stack`).
    pub path: Vec<u32>,
    /// Keyword nodes (merged-stream indices) not yet claimed by a
    /// common ancestor.
    pub pending: Vec<u32>,
    /// Partition members, one contiguous run per anchor.
    pub nodes: Vec<u32>,
    /// Per anchor: its run in `nodes`.
    pub ranges: Vec<(u32, u32)>,
}

/// One node of a raw fragment laid out flat in pre-order (see
/// `validrtf::fragment`): what `pruneRTF` decides over before any
/// output node exists.
#[derive(Debug, Clone)]
pub struct SkelNode {
    /// Dewey code.
    pub dewey: Dewey,
    /// Label id.
    pub label: u32,
    /// Keyword mask of the subtree within the fragment.
    pub kset: u64,
    /// The keywords the node itself contains (its mask in the merged
    /// stream); 0 for a path node.
    pub own: u64,
    /// Index of the parent ([`NONE`] for the anchor).
    pub parent: u32,
    /// Index of the next sibling, or [`NONE`]. A node's first child,
    /// if any, is the node right after it.
    pub next_sibling: u32,
    /// The child linked last — by the layout while the node is open,
    /// by the emit step (as an output index) afterwards.
    pub last_child: u32,
    /// The subtree's content feature as indices into
    /// [`SkeletonScratch::feats`]: whose `min` and whose `max` it is
    /// ([`NONE`] when no content lies below).
    pub cid: (u32, u32),
    /// The node is itself a keyword node.
    pub is_keyword: bool,
    /// The pruning decision.
    pub kept: bool,
    /// The node is the first of its sibling group with its keyword set.
    pub kset_first: bool,
}

impl Default for SkelNode {
    /// An unlinked, undecided node without keywords or content.
    fn default() -> Self {
        SkelNode {
            dewey: Dewey::empty(),
            label: 0,
            kset: 0,
            own: 0,
            parent: NONE,
            next_sibling: NONE,
            last_child: NONE,
            cid: (NONE, NONE),
            is_keyword: false,
            kept: false,
            kset_first: false,
        }
    }
}

/// Buffers one fragment is laid out, decided and emitted from. Bounded
/// by the largest single raw fragment, not by the result.
#[derive(Debug, Default)]
pub struct SkeletonScratch {
    /// The raw fragment, pre-order.
    pub nodes: Vec<SkelNode>,
    /// The keyword nodes' own `(min, max)` content features.
    pub feats: Vec<(Arc<str>, Arc<str>)>,
    /// Node indices, one use per step: the open root path (layout), the
    /// sibling group under decision, the emitted root path (emit).
    pub order: Vec<u32>,
    /// Distinct keyword sets of the group under decision, each with
    /// its "dominated" and "seen" flags.
    pub ksets: Vec<(u64, bool, bool)>,
    /// Open-addressing table of the group under rule 2(b): per slot, the
    /// node that took a content feature, or [`NONE`]. Its length is a
    /// power of two at least twice the group's.
    pub feature_takers: Vec<u32>,
    /// Strict-subset tests performed by the decisions so far (the
    /// quadratic term of Definition 4 rule 2(a); tests pin its growth).
    pub dominance_tests: u64,
    /// Slots of `feature_takers` probed by the decisions so far (rule
    /// 2(b); tests pin it linear in the group size).
    pub feature_probes: u64,
}

/// Buffers of a query's operator checks — phrases, label filters,
/// exclusions (see `validrtf::engine`): filled once per query, read
/// per RTF inside the build loop.
#[derive(Debug, Default)]
pub struct FilterScratch {
    /// One keyword mask per phrase group.
    pub phrases: Vec<u64>,
    /// The excluded words' posting lists, in document order.
    pub exclusions: Vec<Vec<Dewey>>,
    /// Label verdicts of the current query, keyed `filter << 32 |
    /// label id`: whether the label's name is the filter's label.
    pub labels: HashMap<u64, bool>,
}

/// Working buffers reused across queries by **one thread** (or one
/// single-threaded engine).
///
/// All fields are public: they are plumbing buffers, and callers such
/// as the counting-allocator test need to warm and inspect them
/// directly. Contents are transient per query — nothing here survives
/// as an answer; results are copied out by the caller.
#[derive(Debug, Default)]
pub struct QueryContext {
    /// Merged `(dewey, keyword-bitmask)` posting stream in document
    /// order — computed once per query, consumed by both `getLCA` and
    /// `getRTF`.
    pub merged: Vec<(Dewey, u64)>,
    /// The anchor nodes of the current query (ELCA or SLCA set).
    pub anchors: Vec<Dewey>,
    /// The ELCA stack's mask/path buffers.
    pub elca: ElcaScratch,
    /// The `getRTF` sweep's buffers and its result, the keyword-node
    /// partitions of the current query.
    pub rtf: RtfScratch,
    /// The flat raw fragment `pruneRTF` decides over, one fragment at
    /// a time.
    pub skeleton: SkeletonScratch,
    /// The operator checks' phrase masks, exclusion postings and label
    /// verdicts; untouched by plain keyword queries.
    pub filters: FilterScratch,
    /// Scratch buffers for the planner's galloping anchor pass
    /// ([`planned_elca_into_context`]); untouched on the legacy merge
    /// path.
    pub gallop: GallopScratch,
    /// The query's clock: stage totals, deadline checks and, for a
    /// traced request, the span buffer. Storage is inline, so it
    /// allocates nothing, armed or not.
    pub meter: xks_obs::QueryMeter,
}

impl QueryContext {
    /// A fresh context (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the buffered capacity (e.g. after an unusually large
    /// query, to return memory to the allocator).
    pub fn shrink(&mut self) {
        *self = Self::default();
    }
}

/// Merges the posting sets into `ctx.merged` and computes the **ELCA**
/// anchors into `ctx.anchors` — the context-taking form of
/// [`merge_postings_into`] + [`elca_from_merged`]. The merged stream is
/// left in the context for `getRTF` to consume.
///
/// Empty input (no sets, or any empty set) clears both buffers: no
/// node can cover the query.
pub fn elca_into_context(sets: &[Vec<Dewey>], ctx: &mut QueryContext) {
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        ctx.merged.clear();
        ctx.anchors.clear();
        return;
    }
    merge_postings_into(sets, &mut ctx.merged);
    elca_from_merged(&ctx.merged, sets.len(), &mut ctx.elca, &mut ctx.anchors);
}

/// Merges the posting sets into `ctx.merged` and computes the **SLCA**
/// anchors into `ctx.anchors` — the context-taking form of
/// [`indexed_lookup_eager_into`] (the merged stream is still produced,
/// because `getRTF` dispatches keyword nodes over it).
pub fn slca_into_context(sets: &[Vec<Dewey>], ctx: &mut QueryContext) {
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        ctx.merged.clear();
        ctx.anchors.clear();
        return;
    }
    merge_postings_into(sets, &mut ctx.merged);
    indexed_lookup_eager_into(sets, &mut ctx.anchors);
}

/// Planned form of [`elca_into_context`]: computes the same ELCA
/// anchors by galloping from the `driver` (rarest) list
/// ([`gallop_elca`]) and rebuilds `ctx.merged` restricted to the
/// anchors' subtrees ([`extract_anchored_into`]) — the only nodes
/// `getRTF` keeps anyway, so downstream results are byte-identical to
/// the merge path.
pub fn planned_elca_into_context(sets: &[Vec<Dewey>], driver: usize, ctx: &mut QueryContext) {
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        ctx.merged.clear();
        ctx.anchors.clear();
        return;
    }
    gallop_elca(sets, driver, &mut ctx.gallop, &mut ctx.anchors);
    extract_anchored_into(sets, &ctx.anchors, &mut ctx.merged);
}

/// Planned form of [`slca_into_context`]: the SLCA anchors already come
/// from a binary-search driven lookup, so only the merge is replaced by
/// the anchored extraction.
pub fn planned_slca_into_context(sets: &[Vec<Dewey>], ctx: &mut QueryContext) {
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        ctx.merged.clear();
        ctx.anchors.clear();
        return;
    }
    indexed_lookup_eager_into(sets, &mut ctx.anchors);
    extract_anchored_into(sets, &ctx.anchors, &mut ctx.merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elca::elca_stack;
    use crate::slca::indexed_lookup_eager;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn sets() -> Vec<Vec<Dewey>> {
        vec![
            vec![d("0.0"), d("0.2.0.0.0.0"), d("0.2.0.3.0")],
            vec![d("0.2.0.1"), d("0.2.1.1")],
        ]
    }

    #[test]
    fn context_forms_match_free_functions() {
        let sets = sets();
        let mut ctx = QueryContext::new();
        elca_into_context(&sets, &mut ctx);
        assert_eq!(ctx.anchors, elca_stack(&sets));
        assert!(!ctx.merged.is_empty());

        slca_into_context(&sets, &mut ctx);
        assert_eq!(ctx.anchors, indexed_lookup_eager(&sets));
    }

    #[test]
    fn empty_input_clears_buffers() {
        let mut ctx = QueryContext::new();
        elca_into_context(&sets(), &mut ctx);
        assert!(!ctx.anchors.is_empty());
        elca_into_context(&[], &mut ctx);
        assert!(ctx.anchors.is_empty() && ctx.merged.is_empty());

        slca_into_context(&sets(), &mut ctx);
        slca_into_context(&[vec![d("0.1")], vec![]], &mut ctx);
        assert!(ctx.anchors.is_empty() && ctx.merged.is_empty());
    }

    #[test]
    fn planned_forms_match_legacy_forms() {
        let sets = sets();
        let mut legacy = QueryContext::new();
        let mut planned = QueryContext::new();

        elca_into_context(&sets, &mut legacy);
        for driver in 0..sets.len() {
            planned_elca_into_context(&sets, driver, &mut planned);
            assert_eq!(planned.anchors, legacy.anchors, "driver {driver}");
            // Every under-anchor node of the legacy merge survives with
            // an identical mask; the planned stream has nothing else.
            let filtered: Vec<(Dewey, u64)> = legacy
                .merged
                .iter()
                .filter(|(node, _)| legacy.anchors.iter().any(|a| a.is_ancestor_or_self(node)))
                .cloned()
                .collect();
            assert_eq!(planned.merged, filtered);
        }

        slca_into_context(&sets, &mut legacy);
        planned_slca_into_context(&sets, &mut planned);
        assert_eq!(planned.anchors, legacy.anchors);

        planned_elca_into_context(&[], 0, &mut planned);
        assert!(planned.anchors.is_empty() && planned.merged.is_empty());
        planned_slca_into_context(&[vec![d("0.1")], vec![]], &mut planned);
        assert!(planned.anchors.is_empty() && planned.merged.is_empty());
    }

    #[test]
    fn contexts_are_independent_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueryContext>();

        let sets = sets();
        let mut a = QueryContext::new();
        let mut b = QueryContext::new();
        elca_into_context(&sets, &mut a);
        slca_into_context(&sets, &mut b);
        assert_eq!(a.anchors, elca_stack(&sets));
        assert_eq!(b.anchors, indexed_lookup_eager(&sets));
    }
}
