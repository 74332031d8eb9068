//! The three shredded tables and their lookup API.

use std::collections::{BTreeMap, HashMap};

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

/// A shredded document: the paper's three tables plus derived indexes.
#[derive(Debug, Clone, Default)]
pub struct ShreddedDoc {
    /// `label` table: index = id, value = label string.
    pub labels: Vec<String>,
    /// `element` table rows in document (pre-)order.
    pub elements: Vec<ElementRow>,
    /// `value` table rows.
    pub values: Vec<ValueRow>,
    /// Derived: keyword → sorted, deduplicated Dewey strings, built from
    /// the `value` table by [`ShreddedDoc::rebuild_indexes`].
    keyword_index: BTreeMap<String, Vec<String>>,
    /// Derived: dewey string → row offset in `elements`.
    element_offsets: HashMap<String, usize>,
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

    /// Assembles a document from raw table rows (derived lookups are
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

    /// Rebuilds the derived lookup structures (called by the shredder and
    /// after [`ShreddedDoc::from_tables`]).
    pub fn rebuild_indexes(&mut self) {
        self.element_offsets = self
            .elements
            .iter()
            .enumerate()
            .map(|(i, row)| (row.dewey.clone(), i))
            .collect();
        if self.keyword_index.is_empty() {
            let mut index: BTreeMap<String, Vec<String>> = BTreeMap::new();
            for row in &self.values {
                index
                    .entry(row.keyword.clone())
                    .or_default()
                    .push(row.dewey.clone());
            }
            for deweys in index.values_mut() {
                deweys.sort_by_key(|d| d.parse::<Dewey>().expect("stored dewey is valid"));
                deweys.dedup();
            }
            self.keyword_index = index;
        }
    }

    /// The label string for a label id.
    #[must_use]
    pub fn label_name(&self, id: u32) -> &str {
        &self.labels[id as usize]
    }

    /// SQL-equivalent of the paper's stage-1 lookup: all Dewey codes of
    /// nodes whose content contains `keyword`, in document order.
    #[must_use]
    pub fn keyword_deweys(&self, keyword: &str) -> Vec<Dewey> {
        self.keyword_index
            .get(keyword)
            .map(|v| {
                v.iter()
                    .map(|d| d.parse().expect("stored dewey is valid"))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The `element` row for a Dewey code.
    #[must_use]
    pub fn element(&self, dewey: &Dewey) -> Option<&ElementRow> {
        self.element_offsets
            .get(&dewey.to_string())
            .map(|&i| &self.elements[i])
    }

    /// Number of distinct words in the value table.
    #[must_use]
    pub fn vocabulary_size(&self) -> usize {
        self.keyword_index.len()
    }

    /// Total occurrences of `keyword` in the value table (the frequency
    /// numbers reported in the paper's §5.1 keyword list).
    #[must_use]
    pub fn keyword_frequency(&self, keyword: &str) -> usize {
        self.values.iter().filter(|r| r.keyword == keyword).count()
    }

    /// Iterates all `(keyword, node-count)` pairs in lexical order.
    pub fn keyword_stats(&self) -> impl Iterator<Item = (&str, usize)> {
        self.keyword_index
            .iter()
            .map(|(k, v)| (k.as_str(), v.len()))
    }

    /// Exports the derived keyword index as raw postings — what the
    /// `.xks` writer encodes into the keyword dictionary and postings
    /// sections.
    #[must_use]
    pub fn to_postings(&self) -> Vec<(String, Vec<Dewey>)> {
        self.keyword_index
            .iter()
            .map(|(word, deweys)| {
                (
                    word.clone(),
                    deweys
                        .iter()
                        .map(|d| d.parse().expect("stored dewey is valid"))
                        .collect(),
                )
            })
            .collect()
    }

    /// Number of element rows.
    #[must_use]
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// The ancestor label names of a node, root first — decoding the
    /// paper's *label number sequence* (§5.2, footnote 11: the
    /// root-path labels are what lets Algorithm 1 fill node information
    /// without touching the original document).
    #[must_use]
    pub fn ancestor_labels(&self, dewey: &Dewey) -> Option<Vec<&str>> {
        let row = self.element(dewey)?;
        Some(
            row.label_path
                .iter()
                .map(|&id| self.label_name(id))
                .collect(),
        )
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
                },
                ElementRow {
                    label: 1,
                    dewey: "0.0".into(),
                    level: 1,
                    label_path: vec![0, 1],
                    content_feature: None,
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
        let deweys: Vec<String> = d
            .keyword_deweys("alpha")
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(deweys, ["0", "0.0"]);
        assert!(d.keyword_deweys("missing").is_empty());
    }

    #[test]
    fn element_lookup() {
        let d = doc();
        let row = d.element(&"0.0".parse().unwrap()).unwrap();
        assert_eq!(row.level, 1);
        assert_eq!(row.label_path, vec![0, 1]);
        assert!(d.element(&"0.7".parse().unwrap()).is_none());
    }

    #[test]
    fn ancestor_labels_decode_label_path() {
        let d = doc();
        assert_eq!(
            d.ancestor_labels(&"0.0".parse().unwrap()),
            Some(vec!["a", "b"])
        );
        assert_eq!(d.ancestor_labels(&"0.9".parse().unwrap()), None);
    }

    #[test]
    fn frequencies() {
        let d = doc();
        assert_eq!(d.keyword_frequency("alpha"), 3);
        assert_eq!(d.vocabulary_size(), 1);
        let stats: Vec<(&str, usize)> = d.keyword_stats().collect();
        assert_eq!(stats, vec![("alpha", 2)]);
    }
}
