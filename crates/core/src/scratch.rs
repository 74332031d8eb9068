//! Per-thread query working memory — re-exported from `xks-lca`.
//!
//! PR 2 introduced a per-engine `QueryScratch` holding the merged
//! posting stream, anchor list, and ELCA buffers. The concurrency
//! refactor generalized it into [`xks_lca::QueryContext`] — the
//! *mutable per-thread half* of the read path, owned one-per-thread by
//! the [`crate::executor`] and checked in/out of a pool by
//! [`crate::engine::SearchEngine::search`] — and moved it down into
//! `xks-lca` so the scratch-taking LCA entry points
//! ([`xks_lca::elca_into_context`], [`xks_lca::slca_into_context`])
//! accept it directly.

pub use xks_lca::QueryContext;

/// The pre-concurrency name of [`QueryContext`]: the alias only
/// preserves the *type* name for code that constructed a `QueryScratch`
/// directly (the scratch-taking `run_from_sets_with_*` entry points are
/// gone; [`crate::engine::SearchEngine::execute_with`] is the
/// context-taking path).
pub type QueryScratch = QueryContext;
