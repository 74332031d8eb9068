//! The mutable read path: an immutable base corpus plus an in-memory
//! delta and a tombstone set.
//!
//! [`MutableSource`] is the `validrtf`-side half of the mutable-corpus
//! subsystem (`xks-persist`'s `MutableCorpus` owns the WAL and the
//! compactor; this type owns query semantics). It layers three pieces
//! under one [`CorpusSource`]:
//!
//! * an optional **base** — any immutable backend (sealed `.xks`
//!   shards, a `MemoryCorpus`, …) holding documents `0..next` at the
//!   time it was sealed;
//! * a **delta** — the documents inserted since, shredded by
//!   [`xks_store::shred_document`] into the base's label dictionary,
//!   addressed as `0.<ordinal>` subtrees and appended to a
//!   [`MemoryCorpus`] whose labels are that shared dictionary (so the
//!   delta derives its query facts exactly as the in-memory backend
//!   does);
//! * a **tombstone set** of deleted document ordinals, consulted at
//!   the anchor pass: [`MutableSource::try_keyword_deweys`] (the feed
//!   of `getKeywordNodes`) drops every posting inside a tombstoned
//!   document, so a deleted document can never anchor or join a
//!   result fragment.
//!
//! Document ordinals are assigned monotonically and **never reused** —
//! deletion leaves a hole. That makes the merge in the anchor pass a
//! plain concatenation (every delta posting sorts after every base
//! posting) and keeps replayed WALs unambiguous.
//!
//! Two deliberate staleness windows, both proven harmless by the query
//! engine's structure (and pinned by the differential tests):
//! the corpus root's stored *subtree* feature is not refreshed on
//! insert (fragment construction derives interior features by folding
//! keyword-node own-features, never reading stored subtree features
//! above keyword nodes), and [`MutableSource::node_count`] is an upper
//! bound that still counts tombstoned base documents (node counts feed
//! stats, never result sets).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, RwLock};

use xks_store::{shred, shred_document, ElementRow, ShreddedDoc, ValueRow};
use xks_xmltree::{Dewey, ParseError, XmlTree};

use crate::fragment::Cid;
use crate::source::{CorpusSource, MemoryCorpus, SourceElement, SourceError};

/// Everything that can go wrong mutating a corpus.
#[derive(Debug)]
pub enum MutationError {
    /// The inserted document is not well-formed XML.
    Xml(ParseError),
    /// A delete (or replayed operation) named a document that does not
    /// exist or was already deleted.
    UnknownDocument(u32),
    /// A replayed insert carried an ordinal below the high-water mark —
    /// the log and the corpus disagree about history.
    OrdinalRegression {
        /// The ordinal the operation carried.
        ordinal: u32,
        /// The corpus's next unassigned ordinal.
        next: u32,
    },
    /// The sealed base could not be read while checking a document.
    Backend(SourceError),
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::Xml(e) => write!(f, "bad document: {e}"),
            MutationError::UnknownDocument(ord) => {
                write!(f, "document {ord} does not exist (or is already deleted)")
            }
            MutationError::OrdinalRegression { ordinal, next } => write!(
                f,
                "replayed ordinal {ordinal} regresses below the corpus high-water mark {next}"
            ),
            MutationError::Backend(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::Xml(e) => Some(e),
            MutationError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for MutationError {
    fn from(e: ParseError) -> Self {
        MutationError::Xml(e)
    }
}

impl From<SourceError> for MutationError {
    fn from(e: SourceError) -> Self {
        MutationError::Backend(e)
    }
}

/// The label id of the corpus root `0`, which every base must hold.
fn root_label_of(base: &dyn CorpusSource) -> Result<u32, SourceError> {
    let root = Dewey::from_components(vec![0]);
    base.try_element_label(&root)?
        .ok_or_else(|| SourceError::missing_node(&root))
}

/// The rows of one delta document, kept for compaction export.
#[derive(Debug, Clone)]
pub struct DeltaDoc {
    /// The document's top-level ordinal.
    pub ordinal: u32,
    /// Its `element`-table rows (deweys under `0.<ordinal>`).
    pub elements: Vec<ElementRow>,
    /// Its `value`-table rows.
    pub values: Vec<ValueRow>,
}

#[derive(Debug)]
struct State {
    base: Option<Arc<dyn CorpusSource>>,
    /// Documents inserted since the base was sealed. Its labels are the
    /// shared dictionary: the base's labels as a prefix, extended by
    /// names first seen in delta documents.
    delta: MemoryCorpus,
    root_label: u32,
    delta_docs: Vec<DeltaDoc>,
    /// Root rows of a corpus created empty (no base holds them yet);
    /// exported to compaction so the sealed shards gain a root.
    root_rows: Option<(Vec<ElementRow>, Vec<ValueRow>)>,
    tombstones: BTreeSet<u32>,
    next_doc: u32,
}

impl State {
    /// True when `dewey` lies inside a tombstoned document.
    fn tombstoned(&self, dewey: &Dewey) -> bool {
        if self.tombstones.is_empty() {
            return false;
        }
        let comps = dewey.components();
        comps.len() >= 2 && self.tombstones.contains(&comps[1])
    }
}

/// An empty delta over the label dictionary `labels`.
fn empty_delta(labels: Vec<String>) -> MemoryCorpus {
    MemoryCorpus::new(ShreddedDoc::with_labels(labels))
}

/// A corpus that accepts inserts and deletes while staying a valid
/// [`CorpusSource`] — see the module docs for the layering.
///
/// All mutation goes through `&self` (the engine shares sources behind
/// `Arc`); a single `RwLock` serializes writers against the read path.
#[derive(Debug)]
pub struct MutableSource {
    state: RwLock<State>,
}

impl MutableSource {
    /// Creates an empty corpus whose root element is `<root_label/>` —
    /// exactly what shredding the zero-document corpus produces, so an
    /// empty mutable corpus and an empty rebuilt corpus are
    /// indistinguishable.
    pub fn create(root_label: &str) -> Result<Self, MutationError> {
        let tree = xks_xmltree::parse(&format!("<{root_label}/>"))?;
        let doc = shred(&tree);
        Ok(MutableSource {
            state: RwLock::new(State {
                base: None,
                root_label: doc.elements[0].label,
                root_rows: Some((doc.elements.clone(), doc.values.clone())),
                delta: MemoryCorpus::new(doc),
                delta_docs: Vec::new(),
                tombstones: BTreeSet::new(),
                next_doc: 0,
            }),
        })
    }

    /// Wraps a sealed base corpus holding documents `0..next_doc`.
    /// `labels` must be the base's own dictionary (delta documents
    /// extend it); a base that cannot be read or lacks the corpus root
    /// `0` is an error.
    pub fn from_base(
        base: Arc<dyn CorpusSource>,
        labels: Vec<String>,
        next_doc: u32,
    ) -> Result<Self, SourceError> {
        let root_label = root_label_of(base.as_ref())?;
        Ok(MutableSource {
            state: RwLock::new(State {
                base: Some(base),
                delta: empty_delta(labels),
                root_label,
                delta_docs: Vec::new(),
                root_rows: None,
                tombstones: BTreeSet::new(),
                next_doc,
            }),
        })
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, State> {
        self.state.read().unwrap_or_else(|e| {
            xks_obs::count_poison_recovery();
            e.into_inner()
        })
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, State> {
        self.state.write().unwrap_or_else(|e| {
            xks_obs::count_poison_recovery();
            e.into_inner()
        })
    }

    /// The ordinal the next insert will be assigned — what the WAL
    /// layer logs *before* applying the insert.
    #[must_use]
    pub fn next_ordinal(&self) -> u32 {
        self.read().next_doc
    }

    /// True when document `ordinal` exists and is not deleted; an
    /// error when only the base could tell and it cannot be read.
    pub fn try_exists(&self, ordinal: u32) -> Result<bool, SourceError> {
        let state = self.read();
        if state.tombstones.contains(&ordinal) || ordinal >= state.next_doc {
            return Ok(false);
        }
        let dewey = Dewey::from_components(vec![0, ordinal]);
        if state.delta.elements.contains_key(&dewey) {
            return Ok(true);
        }
        // Compaction never renumbers, so a base may have ordinal holes
        // from deletes sealed before it was built.
        match &state.base {
            Some(base) => Ok(base.try_element_label(&dewey)?.is_some()),
            None => Ok(false),
        }
    }

    /// [`MutableSource::try_exists`] for callers with no error path: an
    /// unreadable base counts as not holding the document.
    #[must_use]
    pub fn exists(&self, ordinal: u32) -> bool {
        self.try_exists(ordinal).unwrap_or(false)
    }

    /// Inserts a document from XML text, returning its ordinal.
    pub fn insert_xml(&self, xml: &str) -> Result<u32, MutationError> {
        let tree = xks_xmltree::parse(xml)?;
        self.insert_tree(&tree)
    }

    /// Inserts an already-parsed document, returning its ordinal.
    pub fn insert_tree(&self, tree: &XmlTree) -> Result<u32, MutationError> {
        let ordinal = self.read().next_doc;
        self.apply_insert_tree(ordinal, tree)?;
        Ok(ordinal)
    }

    /// Applies an insert at an explicit ordinal — the WAL replay path.
    /// Ordinals must never regress; gaps are allowed (they are deletes
    /// whose tombstones compaction already sealed away).
    pub fn apply_insert(&self, ordinal: u32, xml: &str) -> Result<(), MutationError> {
        let tree = xks_xmltree::parse(xml)?;
        self.apply_insert_tree(ordinal, &tree)
    }

    fn apply_insert_tree(&self, ordinal: u32, tree: &XmlTree) -> Result<(), MutationError> {
        let mut state = self.write();
        if ordinal < state.next_doc {
            return Err(MutationError::OrdinalRegression {
                ordinal,
                next: state.next_doc,
            });
        }
        let root_label = state.root_label;
        let (elements, values) = shred_document(tree, ordinal, root_label, &mut state.delta.labels);
        let mut doc = ShreddedDoc::from_tables(Vec::new(), elements, values);
        doc.rebuild_indexes();
        state.delta.append(&doc);
        state.delta_docs.push(DeltaDoc {
            ordinal,
            elements: doc.elements,
            values: doc.values,
        });
        state.next_doc = ordinal + 1;
        Ok(())
    }

    /// Tombstones document `ordinal`; every posting and element inside
    /// it disappears from the read path immediately.
    pub fn delete(&self, ordinal: u32) -> Result<(), MutationError> {
        if !self.try_exists(ordinal)? {
            return Err(MutationError::UnknownDocument(ordinal));
        }
        self.write().tombstones.insert(ordinal);
        Ok(())
    }

    /// Number of documents inserted since the base was sealed
    /// (tombstoned ones included — they still occupy delta memory).
    #[must_use]
    pub fn delta_doc_count(&self) -> usize {
        self.read().delta_docs.len()
    }

    /// Number of tombstoned documents.
    #[must_use]
    pub fn tombstone_count(&self) -> usize {
        self.read().tombstones.len()
    }

    /// Snapshot of the tombstoned ordinals, ascending.
    #[must_use]
    pub fn tombstones(&self) -> Vec<u32> {
        self.read().tombstones.iter().copied().collect()
    }

    /// Snapshot of the shared label dictionary.
    #[must_use]
    pub fn labels_snapshot(&self) -> Vec<String> {
        self.read().delta.labels.clone()
    }

    /// Exports every **live** row the base does not hold, in document
    /// order — compaction's input. Root rows lead when the corpus was
    /// created empty; tombstoned delta documents are dropped (their
    /// deletion is thereby sealed).
    #[must_use]
    pub fn export_delta_rows(&self) -> (Vec<ElementRow>, Vec<ValueRow>) {
        let state = self.read();
        let mut elements = Vec::new();
        let mut values = Vec::new();
        if let Some((e, v)) = &state.root_rows {
            elements.extend(e.iter().cloned());
            values.extend(v.iter().cloned());
        }
        for doc in &state.delta_docs {
            if state.tombstones.contains(&doc.ordinal) {
                continue;
            }
            elements.extend(doc.elements.iter().cloned());
            values.extend(doc.values.iter().cloned());
        }
        (elements, values)
    }

    /// Replaces the layering after compaction: the freshly sealed base
    /// takes over, the delta and tombstones reset. The ordinal
    /// high-water mark is preserved (sealed holes stay holes). A base
    /// that cannot be read or lacks the corpus root is an error and
    /// leaves the layering as it was.
    pub fn swap_base(
        &self,
        base: Arc<dyn CorpusSource>,
        labels: Vec<String>,
    ) -> Result<(), SourceError> {
        let root_label = root_label_of(base.as_ref())?;
        let mut state = self.write();
        state.root_label = root_label;
        state.base = Some(base);
        state.delta = empty_delta(labels);
        state.delta_docs.clear();
        state.root_rows = None;
        state.tombstones.clear();
        Ok(())
    }
}

impl CorpusSource for MutableSource {
    fn keyword_stats(&self, keyword: &str) -> Option<crate::plan::KeywordStats> {
        // Sealed statistics exist only where the live overlay cannot
        // have changed them: any tombstone may have removed base
        // postings for any keyword, and a delta insert adds postings
        // the base never counted. Either case returns `None` (unknown)
        // so the planner falls back to the full merge — the mutable
        // differential test pins that fallback's equivalence.
        let state = self.read();
        if !state.tombstones.is_empty() || state.delta.postings.contains_key(keyword) {
            return None;
        }
        state.base.as_ref()?.keyword_stats(keyword)
    }

    fn label_name(&self, label: u32) -> Option<String> {
        self.read().delta.label_name(label)
    }

    /// Upper bound: live delta elements plus the whole base, including
    /// any base documents tombstoned since (counting their nodes would
    /// mean scanning the base). Node counts feed stats and sanity
    /// checks, never result sets.
    fn node_count(&self) -> usize {
        let state = self.read();
        let base = state.base.as_ref().map_or(0, |b| b.node_count());
        let delta = state
            .delta
            .elements
            .keys()
            .filter(|d| !state.tombstoned(d))
            .count();
        base + delta
    }

    fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        let state = self.read();
        let mut out = match &state.base {
            Some(base) => base.try_keyword_deweys(keyword)?,
            None => Vec::new(),
        };
        if !state.tombstones.is_empty() {
            out.retain(|d| !state.tombstoned(d));
        }
        if let Some((delta, _)) = state.delta.postings.get(keyword) {
            out.extend(delta.iter().filter(|d| !state.tombstoned(d)).cloned());
        }
        Ok(out)
    }

    fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        self.overlaid(dewey, Clone::clone, |base| base.try_element(dewey))
    }

    fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        self.overlaid(dewey, |e| e.label, |base| base.try_element_label(dewey))
    }

    fn try_keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, SourceError> {
        self.overlaid(
            dewey,
            |e| (e.label, e.keyword_cid.clone()),
            |base| base.try_keyword_node(dewey),
        )
    }
}

impl MutableSource {
    /// The overlay rule of every node lookup: nothing inside a
    /// tombstoned document, else the delta's row (read by `delta`),
    /// else whatever the base answers (asked by `base`).
    fn overlaid<T>(
        &self,
        dewey: &Dewey,
        delta: impl FnOnce(&SourceElement) -> T,
        base: impl FnOnce(&dyn CorpusSource) -> Result<Option<T>, SourceError>,
    ) -> Result<Option<T>, SourceError> {
        let state = self.read();
        if state.tombstoned(dewey) {
            return Ok(None);
        }
        if let Some(found) = state.delta.elements.get(dewey) {
            return Ok(Some(delta(found)));
        }
        state.base.as_deref().map_or(Ok(None), base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AlgorithmKind, SearchEngine};
    use crate::request::SearchRequest;
    use crate::source::MemoryCorpus;

    fn render_all(engine: &SearchEngine, query: &str) -> Vec<String> {
        let request = SearchRequest::parse(query)
            .unwrap()
            .algorithm(AlgorithmKind::ValidRtf);
        let response = engine.execute(&request).unwrap();
        let source = engine.corpus().expect("source-backed engine");
        response
            .hits
            .iter()
            .map(|h| h.fragment.render_source(source))
            .collect()
    }

    /// Sealed statistics go *unknown* — never stale — the moment the
    /// live overlay could have changed them, so the planner falls back
    /// to the full-merge path for delta-touched keywords.
    #[test]
    fn keyword_stats_unknown_once_overlay_touches_them() {
        use crate::source::CorpusSource as _;
        let base = MemoryCorpus::new(shred(
            &xks_xmltree::parse("<pubs><paper><title>xml keyword search</title></paper></pubs>")
                .unwrap(),
        ));
        let labels = (0..)
            .map_while(|i| base.label_name(i))
            .collect::<Vec<String>>();
        assert!(base.keyword_stats("xml").is_some());
        let src = MutableSource::from_base(std::sync::Arc::new(base), labels, 1).unwrap();
        // Untouched keywords delegate to the sealed base.
        assert!(src.keyword_stats("xml").is_some());
        assert_eq!(
            src.keyword_stats("xml").unwrap().postings,
            1,
            "delegated base stats"
        );
        // A delta insert makes exactly the touched keywords unknown.
        src.insert_xml("<paper><title>skyline xml</title></paper>")
            .unwrap();
        assert_eq!(src.keyword_stats("xml"), None, "delta-touched");
        assert_eq!(src.keyword_stats("skyline"), None, "delta-touched");
        assert!(src.keyword_stats("keyword").is_some(), "untouched");
        // Any tombstone invalidates everything.
        src.delete(0).unwrap();
        assert_eq!(src.keyword_stats("keyword"), None);
        // And the planner honors the fallback end-to-end.
        let engine = SearchEngine::from_owned_source(src);
        let r = engine
            .execute(&SearchRequest::parse("skyline xml").unwrap())
            .unwrap();
        assert_eq!(
            r.stats.plan_strategy,
            crate::plan::PlanStrategy::FullMerge,
            "unsealed stats force the merge path"
        );
    }

    /// Insert-only interleaving: the mutable source must answer
    /// identically to shredding the equivalent whole corpus.
    #[test]
    fn inserts_match_rebuild_from_scratch() {
        let src = MutableSource::create("pubs").unwrap();
        src.insert_xml("<paper><title>xml keyword search</title></paper>")
            .unwrap();
        src.insert_xml("<paper><title>skyline keyword queries</title></paper>")
            .unwrap();

        let oracle = MemoryCorpus::new(shred(
            &xks_xmltree::parse(
                "<pubs><paper><title>xml keyword search</title></paper>\
                 <paper><title>skyline keyword queries</title></paper></pubs>",
            )
            .unwrap(),
        ));
        let mutable_engine = SearchEngine::from_owned_source(src);
        let oracle_engine = SearchEngine::from_owned_source(oracle);
        for q in ["xml keyword", "skyline", "keyword", "title search"] {
            assert_eq!(
                render_all(&mutable_engine, q),
                render_all(&oracle_engine, q),
                "query {q:?}"
            );
        }
    }

    /// Deleting a document removes it from the anchor pass immediately.
    #[test]
    fn delete_tombstones_the_anchor_pass() {
        let src = MutableSource::create("pubs").unwrap();
        let keep = src
            .insert_xml("<paper><title>xml keyword</title></paper>")
            .unwrap();
        let drop = src
            .insert_xml("<paper><title>xml skyline</title></paper>")
            .unwrap();
        assert_eq!(src.try_keyword_deweys("xml").unwrap().len(), 2);
        src.delete(drop).unwrap();
        assert!(src.exists(keep));
        assert!(!src.exists(drop));
        let xml_nodes = src.try_keyword_deweys("xml").unwrap();
        assert_eq!(xml_nodes.len(), 1);
        assert_eq!(xml_nodes[0].components()[1], keep);
        assert!(src.try_keyword_deweys("skyline").unwrap().is_empty());
        assert!(src
            .try_element(&Dewey::from_components(vec![0, drop]))
            .unwrap()
            .is_none());
        // Deleting again (or a never-assigned ordinal) is typed.
        assert!(matches!(
            src.delete(drop),
            Err(MutationError::UnknownDocument(_))
        ));
        assert!(matches!(
            src.delete(99),
            Err(MutationError::UnknownDocument(99))
        ));
    }

    /// Ordinals are never reused after a delete, so replay stays
    /// unambiguous.
    #[test]
    fn ordinals_are_never_reused() {
        let src = MutableSource::create("pubs").unwrap();
        let a = src.insert_xml("<a><t>alpha</t></a>").unwrap();
        src.delete(a).unwrap();
        let b = src.insert_xml("<b><t>beta</t></b>").unwrap();
        assert_eq!((a, b), (0, 1));
        assert!(matches!(
            src.apply_insert(0, "<c/>"),
            Err(MutationError::OrdinalRegression {
                ordinal: 0,
                next: 2
            })
        ));
    }

    /// New labels from delta documents extend the dictionary without
    /// renumbering existing labels.
    #[test]
    fn delta_labels_extend_the_dictionary() {
        let src = MutableSource::create("pubs").unwrap();
        let before = src.labels_snapshot();
        src.insert_xml("<paper><venue>edbt</venue></paper>")
            .unwrap();
        let after = src.labels_snapshot();
        assert_eq!(&after[..before.len()], &before[..]);
        assert!(after.iter().any(|l| l == "venue"));
        let venue_nodes = src.try_keyword_deweys("venue").unwrap();
        assert_eq!(venue_nodes.len(), 1);
        let label = src.try_element_label(&venue_nodes[0]).unwrap().unwrap();
        assert_eq!(src.label_name(label).as_deref(), Some("venue"));
    }

    /// Malformed XML is rejected before any state changes.
    #[test]
    fn bad_xml_is_rejected_atomically() {
        let src = MutableSource::create("pubs").unwrap();
        assert!(matches!(
            src.insert_xml("<broken><unclosed>"),
            Err(MutationError::Xml(_))
        ));
        assert_eq!(src.next_ordinal(), 0);
        assert_eq!(src.delta_doc_count(), 0);
    }
}
