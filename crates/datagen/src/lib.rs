//! Synthetic corpora for the experiments.
//!
//! The paper evaluates on DBLP (`dblp20040213`, 197.6 MB) and three
//! XMark datasets (111.1 / 334.9 / 669.6 MB). Neither corpus ships with
//! this repository, so this crate generates scaled stand-ins that
//! preserve what the experiments actually measure:
//!
//! * the **document shapes** — flat, regular bibliography records for
//!   DBLP ([`dblp`]); the deeply nested auction-site schema for XMark
//!   ([`xmark`]);
//! * the **§5.1 query keywords at the paper's frequencies**, scaled by
//!   the corpus size ratio and planted at deterministic pseudo-random
//!   text positions ([`freq`]);
//! * the **query workloads** of Figures 5/6, reconstructed from the
//!   paper's letter abbreviations ([`queries`]).
//!
//! All generators are deterministic under an explicit seed.
//! [`random_tree`] additionally provides small random documents for the
//! workspace's property tests.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod dblp;
pub mod freq;
pub mod queries;
pub mod random_tree;
pub mod scenario;
pub mod vocab;
pub mod xmark;

pub use dblp::{generate_dblp, DblpConfig};
pub use xmark::{generate_xmark, XmarkConfig, XmarkSize};
