//! **ValidRTF** — meaningful Relaxed Tightest Fragments for XML keyword
//! search.
//!
//! This crate implements the primary contribution of *"Retrieving
//! Meaningful Relaxed Tightest Fragments for XML Keyword Search"*
//! (Kong, Gilleron, Lemay — EDBT 2009):
//!
//! * the **RTF** result model — one fragment per *interesting LCA*
//!   (ELCA) anchor, holding exactly the related keyword nodes
//!   ([`rtf`], [`fragment`]), formally specified by Definitions 1–2
//!   ([`spec`]);
//! * the **valid contributor** filter (Definition 4) that prunes RTFs
//!   without MaxMatch's false-positive and redundancy problems
//!   ([`mod@prune`]);
//! * the **ValidRTF** algorithm (Algorithm 1) and the revised/original
//!   **MaxMatch** baselines ([`algorithms`], [`engine`]);
//! * the §5.1 effectiveness metrics CFR / APR / APR′ / Max APR
//!   ([`metrics`]) and the four axiomatic XKS property checkers
//!   ([`axioms`]);
//! * RTF **ranking** ([`SearchRequest::rank`]) — the future-work stage §7
//!   calls for.
//!
//! # Quickstart
//!
//! Searches are described by a [`SearchRequest`] (query text in the
//! operator grammar plus execution knobs) and executed by
//! [`SearchEngine::execute`], which returns a [`SearchResponse`] of
//! scored hits or a typed [`SearchError`]:
//!
//! ```
//! use validrtf::{AlgorithmKind, SearchEngine, SearchRequest};
//! use xks_xmltree::parse;
//!
//! let tree = parse(
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
//! # Ok::<(), validrtf::SearchError>(())
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod algorithms;
pub mod axioms;
pub mod engine;
pub mod executor;
pub mod fragment;
pub mod keyset;
pub mod metrics;
pub mod mutable;
pub mod plan;
pub mod prune;
pub mod quality;
mod rank;
pub mod request;
pub mod rtf;
pub mod shards;
pub mod source;
pub mod spec;
pub mod wire;

pub use algorithms::{max_match_rtf, max_match_slca, valid_rtf};
pub use engine::{AlgorithmKind, SearchEngine};
pub use executor::{run_batch, run_batch_stats, BatchResult, BatchStats};
pub use fragment::Fragment;
pub use keyset::KeySet;
pub use metrics::{effectiveness, Effectiveness};
pub use mutable::{MutableSource, MutationError};
pub use plan::{
    choose_driver, choose_strategy, KeywordFilter, KeywordStats, PlanReport, PlanStrategy, TermPlan,
};
pub use prune::{prune, Policy};
pub use quality::{assess, assess_all, AxiomCounts, QualityConfig, QualityReport};
pub use request::{Hit, SearchError, SearchRequest, SearchResponse, SearchStats, SearchTimeout};
pub use rtf::{dispatch, get_rtf, get_rtf_unchecked, Partitions, Rtf};
pub use shards::ShardSet;
pub use source::{CorpusSource, MemoryCorpus, SourceElement, SourceError, TreeCorpus};
/// Per-thread query working memory — the mutable half of the read path,
/// owned one per thread by the [`executor`] and checked in and out of a
/// pool by [`SearchEngine::execute`].
pub use xks_lca::QueryContext;
