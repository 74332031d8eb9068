//! The three shredded tables and the postings derived from them.
//!
//! The shredder fills every column a query reads, including each
//! element row's own-content feature, so [`ShreddedDoc::rebuild_indexes`]
//! is the one place that turns the `value` table into typed, sorted,
//! deduplicated [`Dewey`] postings. The in-memory backend, the mutable
//! delta and the `.xks` writer all borrow those postings from here.

use std::collections::BTreeMap;

use xks_xmltree::Dewey;

/// Where a `value`-table word occurrence came from.
///
/// The paper's `value` table has an `attribute` column distinguishing
/// attribute words; we additionally distinguish label words, because the
/// content definition `Cv` counts the node's label as matchable content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordSource {
    /// The word occurs in the element's label.
    Label,
    /// The word occurs in the element's text.
    Text,
    /// The word occurs in the named attribute (name or value).
    Attribute(String),
}

/// One row of the `element` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementRow {
    /// Label id of the node (into the label table).
    pub label: u32,
    /// Dewey code, serialized in dotted form.
    pub dewey: String,
    /// Depth of the node (root = 0).
    pub level: u32,
    /// The paper's "label number sequence": label ids of the ancestors on
    /// the path from the root down to (and including) this node.
    pub label_path: Vec<u32>,
    /// The paper's "content feature" — the `cID = (min, max)` word pair
    /// of the subtree content, `None` for content-free subtrees.
    pub content_feature: Option<(String, String)>,
    /// The `(min, max)` word pair of the node's **own** content `Cv`
    /// (its `value` rows), `None` when it has none — what the
    /// constructing step seeds a keyword node with.
    pub own_feature: Option<(String, String)>,
}

/// One row of the `value` table: one interesting word occurring at one
/// node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueRow {
    /// Label id of the node.
    pub label: u32,
    /// Dewey code of the node, dotted form.
    pub dewey: String,
    /// Provenance of the word.
    pub source: WordSource,
    /// The (lowercased, stop-word-filtered) word itself.
    pub keyword: String,
}

/// A shredded document: the paper's three tables plus the postings
/// derived from the `value` table.
#[derive(Debug, Clone, Default)]
pub struct ShreddedDoc {
    /// `label` table: index = id, value = label string.
    pub labels: Vec<String>,
    /// `element` table rows in document (pre-)order.
    pub elements: Vec<ElementRow>,
    /// `value` table rows.
    pub values: Vec<ValueRow>,
    /// Derived: keyword → sorted, deduplicated Dewey codes, built from
    /// the `value` table by [`ShreddedDoc::rebuild_indexes`].
    postings: BTreeMap<String, Vec<Dewey>>,
}

impl ShreddedDoc {
    /// Creates an empty document with the given label table.
    #[must_use]
    pub fn with_labels(labels: Vec<String>) -> Self {
        ShreddedDoc {
            labels,
            ..Default::default()
        }
    }

    /// Assembles a document from raw table rows (the postings are
    /// empty until [`ShreddedDoc::rebuild_indexes`] runs). Used by the
    /// partitioner and the mutable corpus's compaction.
    #[must_use]
    pub fn from_tables(
        labels: Vec<String>,
        elements: Vec<ElementRow>,
        values: Vec<ValueRow>,
    ) -> Self {
        ShreddedDoc {
            labels,
            elements,
            values,
            ..Default::default()
        }
    }

    /// Derives the postings from the `value` table (called by the
    /// shredder and after [`ShreddedDoc::from_tables`]). Each value
    /// row's Dewey is parsed at most once: consecutive rows of one node
    /// share the parse.
    ///
    /// # Panics
    ///
    /// On a value row whose Dewey is not a dotted code.
    pub fn rebuild_indexes(&mut self) {
        let mut postings: BTreeMap<String, Vec<Dewey>> = BTreeMap::new();
        let mut last: Option<(&str, Dewey)> = None;
        for row in &self.values {
            let dewey = match &last {
                Some((text, dewey)) if *text == row.dewey => dewey.clone(),
                _ => {
                    let dewey: Dewey = row.dewey.parse().expect("stored dewey is valid");
                    last = Some((&row.dewey, dewey.clone()));
                    dewey
                }
            };
            match postings.get_mut(row.keyword.as_str()) {
                Some(list) => list.push(dewey),
                None => {
                    postings.insert(row.keyword.clone(), vec![dewey]);
                }
            }
        }
        for list in postings.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        self.postings = postings;
    }

    /// The label string for a label id.
    #[must_use]
    pub fn label_name(&self, id: u32) -> &str {
        &self.labels[id as usize]
    }

    /// SQL-equivalent of the paper's stage-1 lookup for every keyword
    /// at once: keyword (in byte order) → the Dewey codes of the nodes
    /// whose content contains it, in document order. What the in-memory
    /// backend serves and the `.xks` writer encodes.
    #[must_use]
    pub fn postings(&self) -> &BTreeMap<String, Vec<Dewey>> {
        &self.postings
    }

    /// Total occurrences of `keyword` in the value table (the frequency
    /// numbers reported in the paper's §5.1 keyword list).
    #[must_use]
    pub fn keyword_frequency(&self, keyword: &str) -> usize {
        self.values.iter().filter(|r| r.keyword == keyword).count()
    }

    /// Number of element rows.
    #[must_use]
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> ShreddedDoc {
        let mut d = ShreddedDoc {
            labels: vec!["a".into(), "b".into()],
            elements: vec![
                ElementRow {
                    label: 0,
                    dewey: "0".into(),
                    level: 0,
                    label_path: vec![0],
                    content_feature: Some(("alpha".into(), "zeta".into())),
                    own_feature: Some(("alpha".into(), "alpha".into())),
                },
                ElementRow {
                    label: 1,
                    dewey: "0.0".into(),
                    level: 1,
                    label_path: vec![0, 1],
                    content_feature: Some(("alpha".into(), "alpha".into())),
                    own_feature: Some(("alpha".into(), "alpha".into())),
                },
            ],
            values: vec![
                ValueRow {
                    label: 1,
                    dewey: "0.0".into(),
                    source: WordSource::Text,
                    keyword: "alpha".into(),
                },
                ValueRow {
                    label: 0,
                    dewey: "0".into(),
                    source: WordSource::Label,
                    keyword: "alpha".into(),
                },
                ValueRow {
                    label: 1,
                    dewey: "0.0".into(),
                    source: WordSource::Text,
                    keyword: "alpha".into(),
                },
            ],
            ..Default::default()
        };
        d.rebuild_indexes();
        d
    }

    #[test]
    fn keyword_deweys_sorted_and_deduped() {
        let d = doc();
        let deweys: Vec<String> = d.postings()["alpha"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(deweys, ["0", "0.0"]);
        assert!(!d.postings().contains_key("missing"));
    }

    #[test]
    fn frequencies() {
        let d = doc();
        assert_eq!(d.keyword_frequency("alpha"), 3);
        assert_eq!(d.postings().len(), 1);
        let stats: Vec<(&str, usize)> = d
            .postings()
            .iter()
            .map(|(kw, deweys)| (kw.as_str(), deweys.len()))
            .collect();
        assert_eq!(stats, vec![("alpha", 2)]);
    }
}
