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
//! identically over a parsed document ([`TreeCorpus`]), the in-memory
//! [`ShreddedDoc`] tables ([`MemoryCorpus`]) or an `xks-persist`
//! on-disk index opened with a buffer pool — every
//! [`crate::engine::SearchEngine`] holds exactly one.

use std::collections::HashMap;
use std::fmt;

use xks_index::{InvertedIndex, KeywordNodeSets, Query};
use xks_store::ShreddedDoc;
use xks_xmltree::content::{content_feature, node_content, tree_content};
use xks_xmltree::{Dewey, LabelId, XmlTree};

use crate::fragment::{shared_cid, tree_keyword_node, tree_label, Cid};
use crate::plan::{doc_frequency, KeywordStats};

/// A storage-backend failure surfaced on the query path. Wraps whatever
/// error the backend produces (`xks-persist`'s `PersistError`, an I/O
/// error, …) so `validrtf` stays independent of any particular storage
/// crate.
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
/// [`CorpusSource::try_element`] and [`CorpusSource::label_name`].
///
/// Every lookup that can touch storage is fallible: a backend that can
/// fail after opening (an on-disk index hitting I/O errors or latent
/// corruption) reports a typed [`SourceError`], which
/// `SearchEngine::execute` surfaces as `SearchError::Backend`. Four
/// methods are required — [`try_keyword_deweys`](Self::try_keyword_deweys),
/// [`try_element`](Self::try_element), [`label_name`](Self::label_name),
/// [`node_count`](Self::node_count) — and the other five default to
/// them; backends override a default only to answer it cheaper.
///
/// The trait requires `Send + Sync`: a corpus is the shared immutable
/// half of the read path (the *index handle*), designed to back many
/// engines and query threads at once behind an `Arc` — all per-query
/// mutable state lives in a per-thread
/// [`QueryContext`](crate::QueryContext) instead.
pub trait CorpusSource: std::fmt::Debug + Send + Sync {
    /// Sorted Dewey codes of the keyword nodes for `keyword`
    /// (empty when the keyword is absent).
    fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError>;

    /// The stored facts for one node, `None` if `dewey` is not in the
    /// corpus.
    fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError>;

    /// The label string for a label id, `None` for a foreign id.
    fn label_name(&self, label: u32) -> Option<String>;

    /// Number of element nodes in the corpus.
    fn node_count(&self) -> usize;

    /// The label id of one node only — what the fragment constructor
    /// needs for the (far more numerous) non-keyword path nodes.
    /// Backends override this to skip materializing the content-feature
    /// strings a full [`CorpusSource::try_element`] carries.
    fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        Ok(self.try_element(dewey)?.map(|e| e.label))
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

    /// Sealed selectivity statistics for `keyword`, `None` when the
    /// backend has no sealed stats for it (the planner then falls back
    /// to the full merge — see [`crate::plan`]). `Some` with zero
    /// counts means the keyword is known absent. The default is
    /// *unknown*.
    fn keyword_stats(&self, _keyword: &str) -> Option<KeywordStats> {
        None
    }

    /// Resolves a query to its `D_1..D_k` keyword-node sets
    /// (`getKeywordNodes`); `None` when some keyword has no match.
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

/// Per-keyword sealed statistics of fully resident postings — the table
/// the in-memory backends build once at construction, so the planner
/// never scans a list per query.
fn sealed_stats<'a>(
    postings: impl Iterator<Item = (&'a str, &'a [Dewey])>,
) -> HashMap<String, KeywordStats> {
    postings
        .map(|(kw, deweys)| {
            let stats = KeywordStats {
                postings: deweys.len() as u64,
                docs: doc_frequency(deweys),
            };
            (kw.to_owned(), stats)
        })
        .collect()
}

/// The parsed-document backend: an [`XmlTree`] with the
/// [`InvertedIndex`] built over it. Postings come from the index, node
/// facts straight from the tree — no shredding in between, which is
/// what makes this backend the independent oracle the shredded and
/// on-disk backends are compared against.
#[derive(Debug)]
pub struct TreeCorpus {
    tree: XmlTree,
    index: InvertedIndex,
    stats: HashMap<String, KeywordStats>,
}

impl TreeCorpus {
    /// Indexes `tree` (index construction happens here).
    #[must_use]
    pub fn new(tree: XmlTree) -> Self {
        let index = InvertedIndex::build(&tree);
        let stats = sealed_stats(index.frequencies().map(|(kw, _)| (kw, index.postings(kw))));
        TreeCorpus { tree, index, stats }
    }

    /// The parsed document.
    #[must_use]
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// The inverted index over it.
    #[must_use]
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }
}

impl CorpusSource for TreeCorpus {
    fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        Ok(self.index.postings(keyword).to_vec())
    }

    fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        let Some(id) = self.tree.node_by_dewey(dewey) else {
            return Ok(None);
        };
        let feature = |words| shared_cid(content_feature(&words));
        Ok(Some(SourceElement {
            label: self.tree.node(id).label.as_u32(),
            level: dewey.level() as u32,
            keyword_cid: feature(node_content(&self.tree, id)),
            subtree_cid: feature(tree_content(&self.tree, id)),
        }))
    }

    fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        Ok(tree_label(&self.tree, dewey))
    }

    fn try_keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, SourceError> {
        Ok(tree_keyword_node(&self.tree, dewey))
    }

    fn label_name(&self, label: u32) -> Option<String> {
        let labels = self.tree.labels();
        ((label as usize) < labels.len()).then(|| labels.name(LabelId(label)).to_owned())
    }

    fn node_count(&self) -> usize {
        self.tree.len()
    }

    fn keyword_stats(&self, keyword: &str) -> Option<KeywordStats> {
        // The index is authoritative by construction: an absent keyword
        // is known absent (zero stats), not unknown.
        Some(self.stats.get(keyword).copied().unwrap_or_default())
    }
}

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
    stats: HashMap<String, KeywordStats>,
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
        let stats = sealed_stats(postings.iter().map(|(kw, d)| (kw.as_str(), d.as_slice())));
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
    fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        // One memcpy-style clone of the pre-parsed list; the codes
        // themselves are inline for ordinary document depths.
        Ok(self.postings.get(keyword).cloned().unwrap_or_default())
    }

    fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        Ok(self.elements.get(dewey).cloned())
    }

    fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        Ok(self.elements.get(dewey).map(|e| e.label))
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

    fn keyword_stats(&self, keyword: &str) -> Option<KeywordStats> {
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
            .try_keyword_deweys("liu")
            .unwrap()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(liu, ["0.2.0.0.0.0", "0.2.0.3.0"]);
        assert!(c.try_keyword_deweys("unobtainium").unwrap().is_empty());
    }

    #[test]
    fn element_exposes_own_and_subtree_features() {
        let c = corpus();
        // Leaf title node: own content = subtree content.
        let title = c.try_element(&d("0.2.0.1")).unwrap().unwrap();
        assert_eq!(title.keyword_cid, Some(("keyword".into(), "xml".into())));
        assert_eq!(title.subtree_cid, Some(("keyword".into(), "xml".into())));
        assert_eq!(c.label_name(title.label).as_deref(), Some("title"));
        // Interior node: own feature spans only its own words, the
        // subtree feature spans all descendants.
        let articles = c.try_element(&d("0.2")).unwrap().unwrap();
        assert_eq!(
            articles.keyword_cid,
            Some(("articles".into(), "articles".into()))
        );
        let (smin, smax) = articles.subtree_cid.clone().unwrap();
        assert!(&*smin < "articles" || &*smax > "articles");
        assert!(c.try_element(&d("0.9.9")).unwrap().is_none());
    }

    #[test]
    fn resolve_builds_keyword_node_sets() {
        let c = corpus();
        let q = Query::parse("liu keyword").unwrap();
        let sets = c.try_resolve(&q).unwrap().unwrap();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets.set(0).len(), 2);
        assert!(c
            .try_resolve(&Query::parse("liu unobtainium").unwrap())
            .unwrap()
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
