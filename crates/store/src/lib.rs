//! Relational-style shredding store.
//!
//! The paper (§5.2) shreds every XML document into three PostgreSQL
//! tables before the algorithms run:
//!
//! * `label (label, ID)` — distinct labels with a unique number,
//! * `element (node's label, Dewey, level, label number sequence,
//!   content feature)` — one row per element node,
//! * `value (node's label, Dewey, attribute, keyword)` — one row per
//!   interesting word occurrence.
//!
//! This crate reproduces those three tables in memory (columnar structs
//! of rows) and is the one place rows become the facts the algorithms
//! read: the shredder fills each element row's subtree *and* own-content
//! features, and [`ShreddedDoc::postings`] holds *keyword → Dewey codes*
//! derived once from the `value` table. The in-memory backend, the
//! mutable delta and the `.xks` writer (`xks-persist`, the stored form)
//! borrow those; [`json`] is the JSON value model the CLI, `wire` and
//! the HTTP server share.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod json;
pub mod partition;
pub mod shred;
pub mod tables;

pub use partition::{partition, CorpusPart};
pub use shred::{shred, shred_document};
pub use tables::{ElementRow, ShreddedDoc, ValueRow, WordSource};
