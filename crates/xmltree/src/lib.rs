//! XML substrate for the `xks` workspace.
//!
//! This crate provides everything the XML-keyword-search algorithms need
//! from the document side, built from scratch (the paper used Xerces +
//! Lucene):
//!
//! * [`dewey`] — Dewey codes (`0.2.0.1`) with pre-order ordering,
//!   ancestor tests, and longest-common-prefix LCA — small codes are
//!   stored inline (no heap) for the zero-allocation query hot path;
//! * [`deweybuf`] — [`DeweyListBuf`], a flat arena packing a whole
//!   posting list of Dewey codes into one components vector;
//! * [`tree`] / [`builder`] — the arena XML tree model `T = (r, V, E, Σ, λ)`
//!   and a programmatic builder;
//! * [`parser`] / [`writer`] — a dependency-free XML 1.0 subset parser
//!   and serializer;
//! * [`tokenizer`] / [`stopwords`] / [`stem`] / [`content`] — word
//!   extraction, the embedded stop-word list, an opt-in light stemmer
//!   (the paper's Lucene analysis matched "Querying" to "query"), node
//!   content sets `Cv`, and the `cID = (min, max)` content feature of
//!   §4.1;
//! * [`fixtures`] — the paper's Figure 1(a)/(b) running examples.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod builder;
pub mod content;
pub mod dewey;
pub mod deweybuf;
pub mod error;
pub mod fixtures;
pub mod label;
pub mod parser;
pub mod stem;
pub mod stopwords;
pub mod tokenizer;
pub mod tree;
pub mod writer;

pub use builder::TreeBuilder;
pub use dewey::Dewey;
pub use deweybuf::DeweyListBuf;
pub use error::{ParseError, ParseErrorKind};
pub use label::{LabelId, LabelTable};
pub use parser::parse;
pub use tree::{Attribute, Node, NodeId, XmlTree};
