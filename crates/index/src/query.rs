//! Keyword queries.

use std::fmt;

use xks_xmltree::tokenizer::normalize_keyword;

/// Maximum number of keywords per query.
///
/// The node data structure of §4.1 encodes a node's tree keyword set as a
/// bit list whose "key number" fits machine arithmetic; we use a `u64`
/// bitmask, so queries carry at most 64 keywords (the paper's largest
/// query has 7).
pub const MAX_KEYWORDS: usize = 64;

/// A parsed keyword query `Q = {w1, …, wk}`.
///
/// Keywords are normalized (lowercased, trimmed) and deduplicated while
/// preserving first-occurrence order; the position of a keyword is its
/// bit index in the `KeySet` masks used downstream.
///
/// `Query` is the *lowered* form the retrieval pipeline consumes. The
/// richer operator grammar — quoted phrases, `-word` exclusions,
/// `label:word` filters — lives in [`crate::grammar::QuerySpec`], which
/// lowers every positive term into one of these flat keyword lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    keywords: Vec<String>,
}

/// Query construction failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// No keywords after normalization.
    Empty,
    /// More than [`MAX_KEYWORDS`] distinct keywords.
    TooManyKeywords(usize),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Empty => write!(f, "query has no keywords"),
            QueryError::TooManyKeywords(n) => {
                write!(f, "query has {n} keywords; the maximum is {MAX_KEYWORDS}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl Query {
    /// Parses a whitespace-separated keyword string.
    pub fn parse(text: &str) -> Result<Self, QueryError> {
        Self::from_words(text.split_whitespace())
    }

    /// Builds a query from individual keywords.
    pub fn from_words<I, S>(words: I) -> Result<Self, QueryError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut keywords: Vec<String> = Vec::new();
        for w in words {
            let norm = normalize_keyword(w.as_ref());
            if norm.is_empty() || keywords.contains(&norm) {
                continue;
            }
            keywords.push(norm);
        }
        if keywords.is_empty() {
            return Err(QueryError::Empty);
        }
        if keywords.len() > MAX_KEYWORDS {
            return Err(QueryError::TooManyKeywords(keywords.len()));
        }
        Ok(Query { keywords })
    }

    /// The normalized keywords, in query order (= bit index order).
    #[must_use]
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// Number of keywords `k`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    /// Queries are never empty; provided for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }

    /// The bit index of `keyword`, if present.
    #[must_use]
    pub fn position(&self, keyword: &str) -> Option<usize> {
        self.keywords.iter().position(|k| k == keyword)
    }

    /// A new query extended with one more keyword (used by the
    /// query-monotonicity / query-consistency property checks).
    pub fn with_keyword(&self, keyword: &str) -> Result<Self, QueryError> {
        Self::from_words(
            self.keywords
                .iter()
                .map(String::as_str)
                .chain(std::iter::once(keyword)),
        )
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.keywords.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalizes() {
        let q = Query::parse("  XML   Keyword  search ").unwrap();
        assert_eq!(q.keywords(), ["xml", "keyword", "search"]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.to_string(), "xml keyword search");
    }

    #[test]
    fn deduplicates_preserving_order() {
        let q = Query::parse("xml keyword XML search keyword").unwrap();
        assert_eq!(q.keywords(), ["xml", "keyword", "search"]);
    }

    #[test]
    fn positions_are_bit_indexes() {
        let q = Query::parse("vldb title xml").unwrap();
        assert_eq!(q.position("vldb"), Some(0));
        assert_eq!(q.position("xml"), Some(2));
        assert_eq!(q.position("missing"), None);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Query::parse("   "), Err(QueryError::Empty));
    }

    #[test]
    fn too_many_rejected() {
        let words: Vec<String> = (0..65).map(|i| format!("w{i}")).collect();
        assert!(matches!(
            Query::from_words(&words),
            Err(QueryError::TooManyKeywords(65))
        ));
        let ok: Vec<String> = (0..64).map(|i| format!("w{i}")).collect();
        assert!(Query::from_words(&ok).is_ok());
    }

    #[test]
    fn with_keyword_extends() {
        let q = Query::parse("liu keyword").unwrap();
        let q2 = q.with_keyword("XML").unwrap();
        assert_eq!(q2.keywords(), ["liu", "keyword", "xml"]);
        // Adding an existing keyword is a no-op.
        let q3 = q.with_keyword("liu").unwrap();
        assert_eq!(q3, q);
    }
}
