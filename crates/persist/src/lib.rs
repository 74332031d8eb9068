//! `xks-persist` — a paged binary on-disk index for shredded XML
//! corpora.
//!
//! The paper's §5.2 setup shreds every document into PostgreSQL tables
//! before ValidRTF/MaxMatch run. This crate is the workspace's real
//! persistence subsystem in that spirit (and in the spirit of
//! disk-based keyword-search engines like EMBANKS): a query session
//! opens a prebuilt `.xks` file and answers from paged postings without
//! re-parsing or re-shredding any XML.
//!
//! * [`IndexWriter`] serializes a [`xks_store::ShreddedDoc`] (or a
//!   parsed tree) into a sectioned binary file: header with
//!   magic/version/CRC-32s, label dictionary, element table (Dewey,
//!   level, label number sequence, content features), and an inverted
//!   keyword index stored as prefix-delta varint Dewey postings.
//! * [`IndexReader`] opens the file, validates it, reads the element
//!   table and keyword dictionary whole and checks their CRCs, then
//!   serves `Dewey → element` lookups from those bytes in place and
//!   `keyword → postings` lookups through a fixed-size page abstraction
//!   with an LRU [`pool::BufferPool`] — a postings lookup touches only
//!   the pages its run spans, observable via [`IndexReader::stats`].
//! * [`IndexReader`] implements `validrtf`'s
//!   [`CorpusSource`](validrtf::source::CorpusSource) and is
//!   `Send + Sync`, so
//!   `SearchEngine::from_owned_source(IndexReader::open(..)?)` runs
//!   ValidRTF and MaxMatch directly off disk with results
//!   byte-identical to the in-memory backends — and one opened index
//!   behind an `Arc` can serve many engines and query threads at once.
//! * [`shard`] scales past one file: [`write_sharded`] partitions the
//!   corpus into N independent `.xks` shards under a CRC'd manifest,
//!   and [`ShardedCorpus`] opens them back into one logical corpus
//!   whose postings lookups skip the shards a keyword filter rules
//!   out — searched through its own `CorpusSource` impl or via
//!   `SearchEngine::from_shard_set(corpus.shard_set())`, which also
//!   counts the skips; either way results stay byte-identical to the
//!   unsharded index.
//!
//! See `FORMAT.md` (next to this crate's manifest) for the byte-level
//! layout.
//!
//! # Quickstart
//!
//! ```
//! use validrtf::{SearchEngine, SearchRequest};
//! use xks_persist::{IndexReader, IndexWriter};
//!
//! let tree = xks_xmltree::parse(
//!     "<pubs><paper><title>xml keyword search</title></paper></pubs>",
//! )
//! .unwrap();
//! let path = std::env::temp_dir().join("xks-persist-doctest.xks");
//! IndexWriter::new().write_tree(&tree, &path).unwrap();
//!
//! let reader = IndexReader::open(&path).unwrap();
//! let engine = SearchEngine::from_owned_source(reader);
//! let response = engine
//!     .execute(&SearchRequest::parse("xml keyword").unwrap())
//!     .unwrap();
//! assert_eq!(response.hits.len(), 1);
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod error;
pub mod fault;
pub mod format;
pub mod mutable;
pub mod pool;
pub mod reader;
pub mod shard;
pub mod wal;
pub mod writer;

pub use error::PersistError;
pub use fault::{FaultFile, FaultKind, Injector};
pub use mutable::{preregister_durability_metrics, MutableCorpus, MutableError};
pub use pool::PoolStats;
pub use reader::{ElementRecord, IndexReader, IndexStats};
pub use shard::{write_sharded, ShardEntry, ShardManifest, ShardedCorpus, ShardedWriteSummary};
pub use wal::{Wal, WalRecord, WalScan};
pub use writer::{IndexWriter, WriteSummary};
