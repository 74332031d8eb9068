//! Corpus-source abstraction: one interface over every storage backend.
//!
//! The paper's algorithms only ever ask two questions of the storage
//! layer (§5.2: everything else is derived from the shredded tables):
//!
//! 1. *keyword → sorted Dewey codes* of its keyword nodes
//!    (`getKeywordNodes`), and
//! 2. *Dewey → node facts* — label, level, and the content feature of
//!    the node's own content `Cv` (what `pruneRTF`'s constructing step
//!    seeds keyword nodes with).
//!
//! [`CorpusSource`] captures exactly that, so ValidRTF/MaxMatch run
//! identically over the in-memory [`ShreddedDoc`] tables (via
//! [`MemoryCorpus`]) or an `xks-persist` on-disk index opened with a
//! buffer pool — see [`crate::engine::SearchEngine::from_source`] and
//! [`crate::algorithms::run_source`].

use std::collections::HashMap;
use std::fmt;

use xks_index::{KeywordNodeSets, Query};
use xks_store::ShreddedDoc;
use xks_xmltree::Dewey;

use crate::fragment::{shared_cid, Cid};

/// A storage-backend failure surfaced on the query path — the typed
/// alternative to the panics the infallible [`CorpusSource`] accessors
/// raise. Wraps whatever error the backend produces (`xks-persist`'s
/// `PersistError`, an I/O error, …) so `validrtf` stays independent of
/// any particular storage crate.
#[derive(Debug)]
pub struct SourceError(Box<dyn std::error::Error + Send + Sync + 'static>);

impl SourceError {
    /// Wraps a backend error.
    pub fn new(error: impl Into<Box<dyn std::error::Error + Send + Sync + 'static>>) -> Self {
        SourceError(error.into())
    }

    /// The error for an RTF referencing a node the corpus does not
    /// contain — keyword nodes always come from the same corpus, so
    /// this indicates a corrupted index.
    #[must_use]
    pub fn missing_node(dewey: &Dewey) -> Self {
        SourceError::new(format!("node {dewey} is missing from the corpus"))
    }

    /// The wrapped backend error.
    #[must_use]
    pub fn inner(&self) -> &(dyn std::error::Error + Send + Sync + 'static) {
        self.0.as_ref()
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage backend error: {}", self.0)
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.0.as_ref() as &(dyn std::error::Error + 'static))
    }
}

/// The per-node facts a fragment constructor needs from storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceElement {
    /// Label id (resolve via [`CorpusSource::label_name`]).
    pub label: u32,
    /// Depth of the node (root = 0).
    pub level: u32,
    /// Content feature of the node's **own** content `Cv` — the
    /// `(min, max)` word pair seeding keyword nodes in the
    /// constructing step (§4.1). `None` for content-free nodes.
    pub keyword_cid: Cid,
    /// Content feature of the node's whole subtree — the `element`
    /// table's `cID` column (§5.2).
    pub subtree_cid: Cid,
}

/// A read-only corpus: the storage interface of Algorithm 1.
///
/// Implementations must present postings **sorted in document order and
/// deduplicated**, and label ids consistent between
/// [`CorpusSource::element`] and [`CorpusSource::label_name`].
///
/// The trait requires `Send + Sync`: a corpus is the shared immutable
/// half of the read path (the *index handle*), designed to back many
/// engines and query threads at once behind an `Arc` — all per-query
/// mutable state lives in a per-thread
/// [`QueryContext`](crate::QueryContext) instead.
pub trait CorpusSource: std::fmt::Debug + Send + Sync {
    /// Sorted Dewey codes of the keyword nodes for `keyword`
    /// (empty when the keyword is absent).
    fn keyword_deweys(&self, keyword: &str) -> Vec<Dewey>;

    /// The stored facts for one node, `None` if `dewey` is not in the
    /// corpus.
    fn element(&self, dewey: &Dewey) -> Option<SourceElement>;

    /// The label id of one node only — what the fragment constructor
    /// needs for the (far more numerous) non-keyword path nodes.
    /// Backends override this to skip materializing the content-feature
    /// strings a full [`CorpusSource::element`] carries.
    fn element_label(&self, dewey: &Dewey) -> Option<u32> {
        self.element(dewey).map(|e| e.label)
    }

    /// The label string for a label id, `None` for a foreign id.
    fn label_name(&self, label: u32) -> Option<String>;

    /// Number of element nodes in the corpus.
    fn node_count(&self) -> usize;

    /// Sealed selectivity statistics for `keyword`, `None` when the
    /// backend has no sealed stats for it (the planner then falls back
    /// to the full merge — see [`crate::plan`]). `Some` with zero
    /// counts means the keyword is known absent. The default is
    /// *unknown*, so existing backends stay on the legacy path until
    /// they opt in.
    fn keyword_stats(&self, _keyword: &str) -> Option<crate::plan::KeywordStats> {
        None
    }

    /// Resolves a query to its `D_1..D_k` keyword-node sets
    /// (`getKeywordNodes`); `None` when some keyword has no match.
    fn resolve(&self, query: &Query) -> Option<KeywordNodeSets> {
        let mut sets = Vec::with_capacity(query.len());
        for kw in query.keywords() {
            let list = self.keyword_deweys(kw);
            if list.is_empty() {
                return None;
            }
            sets.push(list);
        }
        Some(KeywordNodeSets::new(query.clone(), sets))
    }

    // ---- fallible accessors -------------------------------------------
    //
    // The `try_` family is what `SearchEngine::execute` drives: backends
    // that can fail after opening (an on-disk index hitting I/O errors
    // or latent corruption) override these to surface a typed
    // [`SourceError`] instead of panicking. The defaults delegate to
    // the infallible accessors, so purely in-memory backends implement
    // nothing extra.

    /// Fallible form of [`CorpusSource::keyword_deweys`].
    fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        Ok(self.keyword_deweys(keyword))
    }

    /// Fallible form of [`CorpusSource::element`].
    fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        Ok(self.element(dewey))
    }

    /// Fallible form of [`CorpusSource::element_label`].
    fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        Ok(self.element_label(dewey))
    }

    /// Everything the constructing step reads of a **keyword node** —
    /// its label id and the feature of its own content `Cv` — from one
    /// lookup. The default goes through [`CorpusSource::try_element`];
    /// backends override it to skip the subtree feature that call
    /// would materialize only to drop.
    fn try_keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, SourceError> {
        Ok(self.try_element(dewey)?.map(|e| (e.label, e.keyword_cid)))
    }

    /// Decodes `keyword`'s postings into a **caller-owned** arena
    /// (cleared first), returning the number of codes. The default
    /// delegates to [`CorpusSource::try_keyword_deweys`] and repacks;
    /// disk backends override it with their cache-bypassing decode
    /// (`xks-persist`'s `IndexReader::keyword_postings_into`) so a
    /// scatter worker sweeping many shards reuses one warm per-thread
    /// arena instead of churning every shard's shared postings LRU.
    fn try_keyword_deweys_into(
        &self,
        keyword: &str,
        arena: &mut xks_xmltree::DeweyListBuf,
    ) -> Result<usize, SourceError> {
        arena.clear();
        for dewey in self.try_keyword_deweys(keyword)? {
            arena.push(dewey.components());
        }
        Ok(arena.len())
    }

    /// Fallible form of [`CorpusSource::resolve`] — built on
    /// [`CorpusSource::try_keyword_deweys`], so overriding that one
    /// method is enough to make resolution error-aware.
    fn try_resolve(&self, query: &Query) -> Result<Option<KeywordNodeSets>, SourceError> {
        let mut sets = Vec::with_capacity(query.len());
        for kw in query.keywords() {
            let list = self.try_keyword_deweys(kw)?;
            if list.is_empty() {
                return Ok(None);
            }
            sets.push(list);
        }
        Ok(Some(KeywordNodeSets::new(query.clone(), sets)))
    }
}

macro_rules! delegate_corpus_source {
    ($($ptr:ident),*) => {$(
        /// Delegation so engines can share a source with outside
        /// observers (e.g. keep reading an index reader's stats while a
        /// `SearchEngine` owns it). `Rc` deliberately has no delegation:
        /// a corpus is the shared `Send + Sync` half of the read path,
        /// so cross-owner sharing goes through `Arc`.
        impl<S: CorpusSource + ?Sized> CorpusSource for $ptr<S> {
            fn keyword_deweys(&self, keyword: &str) -> Vec<Dewey> {
                (**self).keyword_deweys(keyword)
            }
            fn element(&self, dewey: &Dewey) -> Option<SourceElement> {
                (**self).element(dewey)
            }
            fn element_label(&self, dewey: &Dewey) -> Option<u32> {
                (**self).element_label(dewey)
            }
            fn label_name(&self, label: u32) -> Option<String> {
                (**self).label_name(label)
            }
            fn node_count(&self) -> usize {
                (**self).node_count()
            }
            fn keyword_stats(&self, keyword: &str) -> Option<crate::plan::KeywordStats> {
                (**self).keyword_stats(keyword)
            }
            fn resolve(&self, query: &Query) -> Option<KeywordNodeSets> {
                (**self).resolve(query)
            }
            fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
                (**self).try_keyword_deweys(keyword)
            }
            fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
                (**self).try_element(dewey)
            }
            fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
                (**self).try_element_label(dewey)
            }
            fn try_keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, SourceError> {
                (**self).try_keyword_node(dewey)
            }
            fn try_keyword_deweys_into(
                &self,
                keyword: &str,
                arena: &mut xks_xmltree::DeweyListBuf,
            ) -> Result<usize, SourceError> {
                (**self).try_keyword_deweys_into(keyword, arena)
            }
            fn try_resolve(
                &self,
                query: &Query,
            ) -> Result<Option<KeywordNodeSets>, SourceError> {
                (**self).try_resolve(query)
            }
        }
    )*};
}

use std::sync::Arc;
delegate_corpus_source!(Box, Arc);

/// The in-memory backend: shredded tables plus the derived own-content
/// features (the shredder stores subtree features only; the keyword-node
/// seed needs the node's own `Cv` feature, so we compute it once from
/// the `value` table here).
///
/// Posting lists are parsed out of the tables' dotted-string form
/// **once**, at construction — the shredded tables store Dewey codes as
/// strings, and re-parsing them per query dominated the warm hot path.
#[derive(Debug)]
pub struct MemoryCorpus {
    doc: ShreddedDoc,
    postings: HashMap<String, Vec<Dewey>>,
    elements: HashMap<Dewey, SourceElement>,
    stats: HashMap<String, crate::plan::KeywordStats>,
}

impl MemoryCorpus {
    /// Wraps a shredded document (derived lookups must already be
    /// rebuilt, which [`xks_store::shred()`] and the snapshot loader do).
    ///
    /// Element facts are keyed by parsed [`Dewey`] here — the tables
    /// key rows by dotted strings, and formatting a code per lookup
    /// (`dewey.to_string()`) used to dominate warm fragment
    /// construction.
    #[must_use]
    pub fn new(doc: ShreddedDoc) -> Self {
        let own_features = own_content_features(&doc);
        let postings: HashMap<String, Vec<Dewey>> = doc
            .keyword_stats()
            .map(|(kw, _)| (kw.to_owned(), doc.keyword_deweys(kw)))
            .collect();
        let elements = doc
            .elements
            .iter()
            .map(|row| {
                let dewey: Dewey = row.dewey.parse().expect("stored dewey is valid");
                let element = SourceElement {
                    label: row.label,
                    level: row.level,
                    keyword_cid: shared_cid(own_features.get(&row.dewey).cloned()),
                    subtree_cid: shared_cid(row.content_feature.clone()),
                };
                (dewey, element)
            })
            .collect();
        let stats = postings
            .iter()
            .map(|(kw, deweys)| {
                let stats = crate::plan::KeywordStats {
                    postings: deweys.len() as u64,
                    docs: crate::plan::doc_frequency(deweys),
                };
                (kw.clone(), stats)
            })
            .collect();
        MemoryCorpus {
            doc,
            postings,
            elements,
            stats,
        }
    }

    /// The wrapped tables.
    #[must_use]
    pub fn doc(&self) -> &ShreddedDoc {
        &self.doc
    }
}

/// Computes each node's own-content `(min, max)` feature from the
/// `value` table (the node's value rows *are* its content set `Cv`).
#[must_use]
pub fn own_content_features(doc: &ShreddedDoc) -> HashMap<String, (String, String)> {
    let mut features: HashMap<String, (String, String)> = HashMap::new();
    for row in &doc.values {
        match features.get_mut(&row.dewey) {
            None => {
                features.insert(
                    row.dewey.clone(),
                    (row.keyword.clone(), row.keyword.clone()),
                );
            }
            Some((min, max)) => {
                if row.keyword < *min {
                    min.clone_from(&row.keyword);
                }
                if row.keyword > *max {
                    max.clone_from(&row.keyword);
                }
            }
        }
    }
    features
}

impl CorpusSource for MemoryCorpus {
    fn keyword_deweys(&self, keyword: &str) -> Vec<Dewey> {
        // One memcpy-style clone of the pre-parsed list; the codes
        // themselves are inline for ordinary document depths.
        self.postings.get(keyword).cloned().unwrap_or_default()
    }

    fn element(&self, dewey: &Dewey) -> Option<SourceElement> {
        self.elements.get(dewey).cloned()
    }

    fn element_label(&self, dewey: &Dewey) -> Option<u32> {
        self.elements.get(dewey).map(|e| e.label)
    }

    fn try_keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, SourceError> {
        Ok(self
            .elements
            .get(dewey)
            .map(|e| (e.label, e.keyword_cid.clone())))
    }

    fn label_name(&self, label: u32) -> Option<String> {
        self.doc.labels.get(label as usize).cloned()
    }

    fn node_count(&self) -> usize {
        self.doc.element_count()
    }

    fn keyword_stats(&self, keyword: &str) -> Option<crate::plan::KeywordStats> {
        // In-memory postings are sealed by construction; absent
        // keywords are known absent (zero stats), not unknown.
        Some(self.stats.get(keyword).copied().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xks_store::shred;
    use xks_xmltree::fixtures::publications;

    fn corpus() -> MemoryCorpus {
        MemoryCorpus::new(shred(&publications()))
    }

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    #[test]
    fn keyword_deweys_match_tables() {
        let c = corpus();
        let liu: Vec<String> = c
            .keyword_deweys("liu")
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(liu, ["0.2.0.0.0.0", "0.2.0.3.0"]);
        assert!(c.keyword_deweys("unobtainium").is_empty());
    }

    #[test]
    fn element_exposes_own_and_subtree_features() {
        let c = corpus();
        // Leaf title node: own content = subtree content.
        let title = c.element(&d("0.2.0.1")).unwrap();
        assert_eq!(title.keyword_cid, Some(("keyword".into(), "xml".into())));
        assert_eq!(title.subtree_cid, Some(("keyword".into(), "xml".into())));
        assert_eq!(c.label_name(title.label).as_deref(), Some("title"));
        // Interior node: own feature spans only its own words, the
        // subtree feature spans all descendants.
        let articles = c.element(&d("0.2")).unwrap();
        assert_eq!(
            articles.keyword_cid,
            Some(("articles".into(), "articles".into()))
        );
        let (smin, smax) = articles.subtree_cid.clone().unwrap();
        assert!(&*smin < "articles" || &*smax > "articles");
        assert!(c.element(&d("0.9.9")).is_none());
    }

    #[test]
    fn resolve_builds_keyword_node_sets() {
        let c = corpus();
        let q = Query::parse("liu keyword").unwrap();
        let sets = c.resolve(&q).unwrap();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets.set(0).len(), 2);
        assert!(c
            .resolve(&Query::parse("liu unobtainium").unwrap())
            .is_none());
    }

    #[test]
    fn label_name_bounds() {
        let c = corpus();
        assert!(c.label_name(0).is_some());
        assert!(c.label_name(9999).is_none());
        assert!(c.node_count() > 10);
    }
}
