//! LCA computation substrate: SLCA and ELCA algorithms.
//!
//! Stage 2 of the paper's pipeline (`getLCA`, Algorithm 1) computes
//! *all the interesting LCA nodes* of the keyword-node sets `D_1..D_k` —
//! the ELCA semantics of Xu & Papakonstantinou (EDBT 2008, the "Indexed
//! Stack" algorithm the paper reuses verbatim). MaxMatch in its original
//! form instead computes the SLCA subset (Xu & Papakonstantinou, SIGMOD
//! 2005).
//!
//! This crate implements one kernel per semantics, each checked against
//! a brute-force oracle by the differential and stress tests:
//!
//! * [`slca::indexed_lookup_eager`] — binary-search driven SLCA;
//! * [`elca::elca_stack`] — single-pass Dewey-path stack computing the
//!   ELCA set in merged document order (output-equivalent to Indexed
//!   Stack; see the module docs for the substitution note);
//! * [`gallop::gallop_elca`] — the same ELCA set for planned queries,
//!   galloping from the rarest list instead of merging every posting;
//! * [`naive`] — the brute-force oracles for both semantics.
//!
//! Throughout, the inputs are the sorted Dewey posting lists produced by
//! `xks-index`, and outputs are sorted in document order.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod common;
pub mod context;
pub mod elca;
pub mod gallop;
pub mod naive;
pub mod slca;

pub use common::{merge_postings, merge_postings_into, push_frontier, remove_ancestors};
pub use context::{
    elca_into_context, planned_elca_into_context, planned_slca_into_context, slca_into_context,
    FilterScratch, QueryContext, RtfScratch, SkelNode, SkeletonScratch, SweepEntry, NONE,
};
pub use elca::{elca_from_merged, elca_stack, ElcaScratch};
pub use gallop::{extract_anchored_into, gallop_elca, GallopScratch};
pub use slca::{indexed_lookup_eager, indexed_lookup_eager_into};
