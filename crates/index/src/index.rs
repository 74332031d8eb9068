//! The inverted index and keyword-node resolution.

use std::collections::BTreeMap;

use xks_xmltree::content::node_content;
use xks_xmltree::{Dewey, XmlTree};

use crate::query::Query;

/// Inverted index: word → sorted list of Dewey codes of the nodes whose
/// content `Cv` contains the word.
///
/// The postings are *node-level* (a word occurring three times in one
/// text contributes one posting), which is exactly the `D_i` semantics
/// the LCA algorithms need and the unit of the §5.1 frequency
/// statistics.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: BTreeMap<String, Vec<Dewey>>,
    node_count: usize,
}

impl InvertedIndex {
    /// Builds the index from a document in one pre-order pass.
    #[must_use]
    pub fn build(tree: &XmlTree) -> Self {
        let mut postings: BTreeMap<String, Vec<Dewey>> = BTreeMap::new();
        for id in tree.preorder() {
            let dewey = tree.dewey(id);
            for word in node_content(tree, id) {
                // node_content returns a set, so each (node, word) pair
                // is seen once; postings stay duplicate-free and sorted
                // because preorder visits in Dewey order.
                postings.entry(word).or_default().push(dewey.clone());
            }
        }
        InvertedIndex {
            postings,
            node_count: tree.len(),
        }
    }

    /// Builds the index with a word normalizer applied to every content
    /// word (e.g. `xks_xmltree::stem::light_stem` to reproduce the
    /// paper's Lucene-style loose matching). Apply the same normalizer
    /// to query keywords before [`InvertedIndex::resolve`].
    #[must_use]
    pub fn build_with<F>(tree: &XmlTree, normalize: F) -> Self
    where
        F: Fn(&str) -> String,
    {
        let mut postings: BTreeMap<String, Vec<Dewey>> = BTreeMap::new();
        for id in tree.preorder() {
            let dewey = tree.dewey(id);
            let mut seen: Vec<String> = Vec::new();
            for word in node_content(tree, id) {
                let norm = normalize(&word);
                if seen.contains(&norm) {
                    continue; // normalization can merge distinct words
                }
                postings
                    .entry(norm.clone())
                    .or_default()
                    .push(dewey.clone());
                seen.push(norm);
            }
        }
        InvertedIndex {
            postings,
            node_count: tree.len(),
        }
    }

    /// Builds an index from raw postings (used by tests and by callers
    /// that shredded through `xks-store`). Lists are sorted and deduped.
    #[must_use]
    pub fn from_postings<I>(postings: I, node_count: usize) -> Self
    where
        I: IntoIterator<Item = (String, Vec<Dewey>)>,
    {
        let mut map: BTreeMap<String, Vec<Dewey>> = BTreeMap::new();
        for (word, deweys) in postings {
            map.entry(word).or_default().extend(deweys);
        }
        for deweys in map.values_mut() {
            deweys.sort();
            deweys.dedup();
        }
        InvertedIndex {
            postings: map,
            node_count,
        }
    }

    /// The sorted posting list for `word` (empty slice if absent).
    #[must_use]
    pub fn postings(&self, word: &str) -> &[Dewey] {
        self.postings.get(word).map_or(&[], Vec::as_slice)
    }

    /// Number of keyword nodes for `word` (the frequency figures the
    /// paper lists next to each chosen keyword in §5.1).
    #[must_use]
    pub fn frequency(&self, word: &str) -> usize {
        self.postings.get(word).map_or(0, Vec::len)
    }

    /// Number of distinct indexed words.
    #[must_use]
    pub fn vocabulary_size(&self) -> usize {
        self.postings.len()
    }

    /// Number of nodes in the indexed document.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Iterates `(word, node-frequency)` in lexical order.
    pub fn frequencies(&self) -> impl Iterator<Item = (&str, usize)> {
        self.postings.iter().map(|(w, d)| (w.as_str(), d.len()))
    }

    /// Resolves a query to its keyword-node sets `D_1..D_k`
    /// (`getKeywordNodes` of Algorithm 1).
    ///
    /// Returns `None` when some keyword has no match at all — then no
    /// fragment can cover the query and every downstream stage would
    /// return empty.
    #[must_use]
    pub fn resolve(&self, query: &Query) -> Option<KeywordNodeSets> {
        let mut sets = Vec::with_capacity(query.len());
        for kw in query.keywords() {
            let list = self.postings(kw);
            if list.is_empty() {
                return None;
            }
            sets.push(list.to_vec());
        }
        Some(KeywordNodeSets {
            query: query.clone(),
            sets,
        })
    }
}

/// The resolved `D_1..D_k` lists for one query — input to `getLCA` and
/// `getRTF`.
#[derive(Debug, Clone)]
pub struct KeywordNodeSets {
    query: Query,
    sets: Vec<Vec<Dewey>>,
}

impl KeywordNodeSets {
    /// Builds directly from pre-computed lists (each will be sorted and
    /// deduped). Panics if `sets.len() != query.len()`.
    ///
    /// Storage backends hand over already-sorted postings, so the
    /// common case is a linear `is_sorted` check — no stable-sort
    /// scratch allocation on the query hot path.
    #[must_use]
    pub fn new(query: Query, mut sets: Vec<Vec<Dewey>>) -> Self {
        assert_eq!(query.len(), sets.len(), "one Dewey list per keyword");
        for s in &mut sets {
            if !s.is_sorted() {
                s.sort_unstable();
            }
            s.dedup();
        }
        KeywordNodeSets { query, sets }
    }

    /// The originating query.
    #[must_use]
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The list `D_i` for keyword index `i`.
    #[must_use]
    pub fn set(&self, i: usize) -> &[Dewey] {
        &self.sets[i]
    }

    /// All lists in keyword order.
    #[must_use]
    pub fn sets(&self) -> &[Vec<Dewey>] {
        &self.sets
    }

    /// Number of keywords.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Always false (queries are non-empty); for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Index of the smallest `D_i` (the driver list of the Indexed
    /// Lookup Eager SLCA algorithm).
    #[must_use]
    pub fn smallest_set(&self) -> usize {
        self.sets
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.len())
            .map(|(i, _)| i)
            .expect("non-empty query")
    }

    /// Union of all lists, sorted and deduplicated — every keyword node
    /// of the query in document order (what `getRTF` dispatches).
    #[must_use]
    pub fn all_keyword_nodes(&self) -> Vec<Dewey> {
        let mut all: Vec<Dewey> = self.sets.iter().flatten().cloned().collect();
        all.sort();
        all.dedup();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xks_xmltree::fixtures::publications;

    fn idx() -> InvertedIndex {
        InvertedIndex::build(&publications())
    }

    fn q(s: &str) -> Query {
        Query::parse(s).unwrap()
    }

    #[test]
    fn postings_are_sorted_node_level() {
        let i = idx();
        let liu: Vec<String> = i.postings("liu").iter().map(ToString::to_string).collect();
        assert_eq!(liu, ["0.2.0.0.0.0", "0.2.0.3.0"]);
        let title: Vec<String> = i
            .postings("title")
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(title, ["0.0", "0.2.0.1", "0.2.1.1"]);
    }

    #[test]
    fn frequency_counts_nodes() {
        let i = idx();
        assert_eq!(i.frequency("liu"), 2);
        assert_eq!(i.frequency("missing"), 0);
        assert!(i.vocabulary_size() > 10);
        assert_eq!(i.node_count(), publications().len());
    }

    #[test]
    fn resolve_returns_per_keyword_sets() {
        let i = idx();
        let sets = i.resolve(&q("liu keyword")).unwrap();
        assert_eq!(sets.len(), 2);
        assert_eq!(sets.set(0).len(), 2);
        assert_eq!(sets.set(1).len(), 3);
        assert_eq!(sets.smallest_set(), 0);
    }

    #[test]
    fn resolve_fails_on_unmatched_keyword() {
        let i = idx();
        assert!(i.resolve(&q("liu unobtainium")).is_none());
    }

    #[test]
    fn all_keyword_nodes_union() {
        let i = idx();
        let sets = i.resolve(&q("liu keyword")).unwrap();
        let all: Vec<String> = sets
            .all_keyword_nodes()
            .iter()
            .map(ToString::to_string)
            .collect();
        // Union of {name, ref} and {title, abstract, ref}, dedup'd.
        assert_eq!(all, ["0.2.0.0.0.0", "0.2.0.1", "0.2.0.2", "0.2.0.3.0"]);
    }

    #[test]
    fn from_postings_sorts_and_dedups() {
        let d = |s: &str| s.parse::<Dewey>().unwrap();
        let i = InvertedIndex::from_postings(
            vec![("w".to_owned(), vec![d("0.2"), d("0.1"), d("0.2"), d("0.0")])],
            4,
        );
        let got: Vec<String> = i.postings("w").iter().map(ToString::to_string).collect();
        assert_eq!(got, ["0.0", "0.1", "0.2"]);
        assert_eq!(i.frequency("w"), 3);
    }

    #[test]
    fn keyword_node_sets_new_normalizes() {
        let d = |s: &str| s.parse::<Dewey>().unwrap();
        let sets = KeywordNodeSets::new(
            q("a b"),
            vec![vec![d("0.1"), d("0.0"), d("0.1")], vec![d("0.2")]],
        );
        assert_eq!(sets.set(0).len(), 2);
        assert!(sets.set(0)[0] < sets.set(0)[1]);
    }
}

#[cfg(test)]
mod build_with_tests {
    use super::*;
    use xks_xmltree::parse;

    #[test]
    fn normalizer_merging_words_in_one_node_dedups_postings() {
        // Three surface forms of one stem inside a single text: the
        // posting list must contain the node once.
        let tree = parse("<a><t>query queries querying</t></a>").unwrap();
        let idx = InvertedIndex::build_with(&tree, xks_xmltree::stem::light_stem);
        assert_eq!(idx.postings("query").len(), 1);
    }

    #[test]
    fn build_with_identity_equals_build() {
        let tree = xks_xmltree::fixtures::publications();
        let a = InvertedIndex::build(&tree);
        let b = InvertedIndex::build_with(&tree, str::to_owned);
        assert_eq!(a.vocabulary_size(), b.vocabulary_size());
        for (word, n) in a.frequencies() {
            assert_eq!(b.frequency(word), n, "{word}");
        }
    }
}
