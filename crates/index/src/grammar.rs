//! The query operator grammar: phrases, exclusions, label filters.
//!
//! [`Query`] is the *lowered* form the retrieval pipeline consumes — a
//! flat, deduplicated keyword list whose positions are bit indexes.
//! [`QuerySpec`] is the richer surface grown on top of it:
//!
//! | syntax        | meaning                                            |
//! |---------------|----------------------------------------------------|
//! | `word`        | plain keyword (exactly [`Query::parse`] semantics)  |
//! | `"w1 w2"`     | phrase: the words must co-occur in one keyword node |
//! | `-word`       | exclusion: no match may contain the word            |
//! | `label:word`  | the word must be matched by a node labeled `label`  |
//!
//! Parsing **lowers** every positive term (plain, phrase, labeled) into
//! the keyword list of an ordinary [`Query`] — stage 1–3 of the
//! pipeline run unchanged — and records the operators as constraints
//! ([`QuerySpec::phrases`], [`QuerySpec::exclusions`],
//! [`QuerySpec::label_filters`]) that the execution layer checks per
//! RTF while it builds the fragments. A plain keyword query therefore
//! lowers to exactly the same [`Query`] the legacy path parsed,
//! byte-identical results included.
//!
//! Errors are typed ([`ParseError`]); terms the parser drops or
//! rewrites (duplicates, case folding) are reported in the
//! [`ParseReport`] instead of silently vanishing. [`QuerySpec`]
//! round-trips through its [`fmt::Display`] rendering:
//! `parse(display(spec))` always reproduces `spec`.

use std::fmt;

use xks_xmltree::tokenizer::normalize_keyword;

use crate::query::{Query, QueryError, MAX_KEYWORDS};

/// One normalized term of the operator grammar, in input order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A plain keyword.
    Word(String),
    /// A quoted phrase: distinct keywords that must co-occur in one
    /// keyword node (normally two or more; a one-word phrase survives
    /// only when unquoting would change how the word re-parses).
    Phrase(Vec<String>),
    /// An excluded keyword (`-word`).
    Exclude(String),
    /// A label-constrained keyword (`label:word`).
    Labeled {
        /// The required element label (normalized; matched
        /// case-insensitively against corpus labels).
        label: String,
        /// The keyword.
        word: String,
    },
}

/// A label constraint on one query keyword: the keyword at
/// [`LabelFilter::position`] must be matched by at least one keyword
/// node whose element label equals [`LabelFilter::label`]
/// (case-insensitively).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelFilter {
    /// Bit position of the constrained keyword in the lowered
    /// [`Query`].
    pub position: usize,
    /// The required label, normalized to lowercase.
    pub label: String,
}

/// What the parser did to terms it did not take verbatim — the
/// "reported dropped/normalized terms" contract: nothing is silently
/// thrown away.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseReport {
    /// Raw terms dropped as duplicates of an earlier term.
    pub dropped: Vec<String>,
    /// `(raw, normalized)` pairs for terms the normalizer rewrote
    /// (case folding, surrounding whitespace).
    pub normalized: Vec<(String, String)>,
}

impl ParseReport {
    /// True when every input term survived verbatim.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.dropped.is_empty() && self.normalized.is_empty()
    }
}

/// Typed failures of the operator grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// No positive keywords after normalization (exclusions alone
    /// cannot drive a search).
    Empty,
    /// More than [`MAX_KEYWORDS`] distinct positive keywords.
    TooManyKeywords(usize),
    /// More than [`MAX_KEYWORDS`] distinct exclusions. Exclusions
    /// don't consume keyword bit positions, but each one costs a
    /// posting lookup at execution time, so they are bounded the same
    /// way — an unbounded `-w1 -w2 …` list would be a per-request
    /// amplification vector against a disk backend.
    TooManyExclusions(usize),
    /// A `"` opened a phrase that never closes.
    UnclosedPhrase,
    /// A quoted phrase holds no keywords (`""` or only whitespace).
    EmptyPhrase,
    /// A bare `-` with no keyword to exclude.
    EmptyExclusion,
    /// `-"…"` — phrases cannot be excluded.
    ExcludedPhrase,
    /// `:word` — a label filter with no label.
    MissingLabel {
        /// The word the filter would have constrained.
        word: String,
    },
    /// `label:` — a label filter with no keyword.
    MissingLabelWord {
        /// The label with no word.
        label: String,
    },
    /// A keyword is both required and excluded.
    Contradiction {
        /// The contradicting keyword.
        word: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "query has no keywords"),
            ParseError::TooManyKeywords(n) => {
                write!(f, "query has {n} keywords; the maximum is {MAX_KEYWORDS}")
            }
            ParseError::TooManyExclusions(n) => {
                write!(f, "query has {n} exclusions; the maximum is {MAX_KEYWORDS}")
            }
            ParseError::UnclosedPhrase => write!(f, "unclosed \" in phrase"),
            ParseError::EmptyPhrase => write!(f, "empty phrase \"\""),
            ParseError::EmptyExclusion => write!(f, "`-` with no keyword to exclude"),
            ParseError::ExcludedPhrase => {
                write!(f, "phrases cannot be excluded (drop the `-` or the quotes)")
            }
            ParseError::MissingLabel { word } => {
                write!(f, "label filter `:{word}` is missing its label")
            }
            ParseError::MissingLabelWord { label } => {
                write!(f, "label filter `{label}:` is missing its keyword")
            }
            ParseError::Contradiction { word } => {
                write!(f, "keyword {word:?} is both required and excluded")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<QueryError> for ParseError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Empty => ParseError::Empty,
            QueryError::TooManyKeywords(n) => ParseError::TooManyKeywords(n),
        }
    }
}

/// A parsed operator-grammar query: the lowered flat [`Query`] plus the
/// operator constraints and the parse report.
///
/// Equality ignores the [`ParseReport`] (a spec re-parsed from its own
/// [`fmt::Display`] output has nothing left to normalize but denotes
/// the same search).
#[derive(Debug, Clone)]
pub struct QuerySpec {
    terms: Vec<Term>,
    query: Query,
    phrases: Vec<Vec<usize>>,
    label_filters: Vec<LabelFilter>,
    exclusions: Vec<String>,
    report: ParseReport,
}

impl PartialEq for QuerySpec {
    fn eq(&self, other: &Self) -> bool {
        self.terms == other.terms
    }
}

impl Eq for QuerySpec {}

impl QuerySpec {
    /// Parses the operator grammar. See the module docs for the syntax.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut builder = SpecBuilder::default();
        for raw in RawTerms::new(text) {
            builder.push(raw?)?;
        }
        builder.finish()
    }

    /// Wraps an already-lowered [`Query`] as a plain-keyword spec (no
    /// operators) — the adapter for callers holding a `Query`.
    #[must_use]
    pub fn from_query(query: Query) -> Self {
        QuerySpec {
            terms: query
                .keywords()
                .iter()
                .map(|w| Term::Word(w.clone()))
                .collect(),
            query,
            phrases: Vec::new(),
            label_filters: Vec::new(),
            exclusions: Vec::new(),
            report: ParseReport::default(),
        }
    }

    /// The normalized terms, in input order.
    #[must_use]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The lowered flat query (all positive keywords, bit-indexed).
    #[must_use]
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Phrase groups as sorted keyword positions into
    /// [`QuerySpec::query`]: each group's keywords must co-occur in one
    /// keyword node.
    #[must_use]
    pub fn phrases(&self) -> &[Vec<usize>] {
        &self.phrases
    }

    /// The label constraints.
    #[must_use]
    pub fn label_filters(&self) -> &[LabelFilter] {
        &self.label_filters
    }

    /// The excluded keywords (normalized).
    #[must_use]
    pub fn exclusions(&self) -> &[String] {
        &self.exclusions
    }

    /// What the parser dropped or rewrote.
    #[must_use]
    pub fn report(&self) -> &ParseReport {
        &self.report
    }

    /// True when the spec carries no operators — the pipeline checks
    /// nothing and behaves exactly like the legacy flat path.
    #[must_use]
    pub fn is_plain(&self) -> bool {
        self.phrases.is_empty() && self.label_filters.is_empty() && self.exclusions.is_empty()
    }
}

impl fmt::Display for QuerySpec {
    /// Canonical rendering; [`QuerySpec::parse`] of the output
    /// reproduces the spec (the round-trip property, tested below and
    /// in `tests/grammar_properties.rs`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, term) in self.terms.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            match term {
                Term::Word(w) => f.write_str(w)?,
                Term::Phrase(words) => write!(f, "\"{}\"", words.join(" "))?,
                Term::Exclude(w) => write!(f, "-{w}")?,
                Term::Labeled { label, word } => write!(f, "{label}:{word}")?,
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- scanner

/// Raw (pre-normalization) terms scanned off the input text.
#[derive(Debug)]
struct RawTerm {
    /// The input slice as typed (for the report).
    raw: String,
    kind: RawKind,
}

#[derive(Debug)]
enum RawKind {
    Word(String),
    Phrase(Vec<String>),
    Exclude(String),
    Labeled { label: String, word: String },
}

/// Iterator of raw terms; quotes group whitespace-separated words into
/// one phrase term, everything else splits at whitespace.
struct RawTerms<'a> {
    rest: &'a str,
}

impl<'a> RawTerms<'a> {
    fn new(text: &'a str) -> Self {
        RawTerms { rest: text }
    }
}

impl Iterator for RawTerms<'_> {
    type Item = Result<RawTerm, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.rest = self.rest.trim_start();
        if self.rest.is_empty() {
            return None;
        }
        if let Some(body) = self.rest.strip_prefix('"') {
            // Phrase: everything up to the closing quote.
            let Some(end) = body.find('"') else {
                self.rest = "";
                return Some(Err(ParseError::UnclosedPhrase));
            };
            let content = &body[..end];
            self.rest = &body[end + 1..];
            let words: Vec<String> = content.split_whitespace().map(str::to_owned).collect();
            if words.is_empty() {
                return Some(Err(ParseError::EmptyPhrase));
            }
            return Some(Ok(RawTerm {
                raw: format!("\"{content}\""),
                kind: RawKind::Phrase(words),
            }));
        }
        // Bare token: up to the next whitespace.
        let end = self
            .rest
            .find(char::is_whitespace)
            .unwrap_or(self.rest.len());
        let token = &self.rest[..end];
        self.rest = &self.rest[end..];
        let raw = token.to_owned();
        if let Some(excluded) = token.strip_prefix('-') {
            if excluded.is_empty() {
                return Some(Err(ParseError::EmptyExclusion));
            }
            if excluded.starts_with('"') {
                return Some(Err(ParseError::ExcludedPhrase));
            }
            return Some(Ok(RawTerm {
                raw,
                kind: RawKind::Exclude(excluded.to_owned()),
            }));
        }
        if let Some((label, word)) = token.split_once(':') {
            if label.is_empty() {
                return Some(Err(ParseError::MissingLabel {
                    word: word.to_owned(),
                }));
            }
            if word.is_empty() {
                return Some(Err(ParseError::MissingLabelWord {
                    label: label.to_owned(),
                }));
            }
            return Some(Ok(RawTerm {
                raw,
                kind: RawKind::Labeled {
                    label: label.to_owned(),
                    word: word.to_owned(),
                },
            }));
        }
        Some(Ok(RawTerm {
            raw,
            kind: RawKind::Word(token.to_owned()),
        }))
    }
}

// ---------------------------------------------------------------- builder

/// Accumulates normalized terms, deduplicating and lowering as it goes.
#[derive(Debug, Default)]
struct SpecBuilder {
    terms: Vec<Term>,
    keywords: Vec<String>,
    phrases: Vec<Vec<usize>>,
    label_filters: Vec<LabelFilter>,
    exclusions: Vec<String>,
    report: ParseReport,
}

impl SpecBuilder {
    /// The bit position of `word`, appending it if new.
    fn position_of(&mut self, word: &str) -> usize {
        match self.keywords.iter().position(|k| k == word) {
            Some(i) => i,
            None => {
                self.keywords.push(word.to_owned());
                self.keywords.len() - 1
            }
        }
    }

    /// Records a raw→normalized rewrite when the normalizer changed the
    /// term's rendering.
    fn note_normalized(&mut self, raw: &str, canonical: &str) {
        if raw != canonical {
            self.report
                .normalized
                .push((raw.to_owned(), canonical.to_owned()));
        }
    }

    fn push(&mut self, term: RawTerm) -> Result<(), ParseError> {
        match term.kind {
            RawKind::Word(w) => {
                let word = normalize_keyword(&w);
                self.note_normalized(&term.raw, &word);
                if self.keywords.contains(&word) {
                    self.report.dropped.push(term.raw);
                    return Ok(());
                }
                self.position_of(&word);
                self.terms.push(Term::Word(word));
            }
            RawKind::Phrase(raw_words) => {
                // Normalize and deduplicate within the phrase; a phrase
                // of one distinct word degrades to a plain word.
                let mut words: Vec<String> = Vec::with_capacity(raw_words.len());
                for w in &raw_words {
                    let norm = normalize_keyword(w);
                    if !words.contains(&norm) {
                        words.push(norm);
                    }
                }
                // A one-word "phrase" is just that word — degrade it,
                // unless unquoting would change how the word re-parses
                // (a leading `-` or an embedded `:` must stay quoted
                // for the Display round-trip).
                if words.len() == 1 && !words[0].starts_with('-') && !words[0].contains(':') {
                    let word = words.pop().expect("one word");
                    self.note_normalized(&term.raw, &word);
                    if self.keywords.contains(&word) {
                        self.report.dropped.push(term.raw);
                        return Ok(());
                    }
                    self.position_of(&word);
                    self.terms.push(Term::Word(word));
                    return Ok(());
                }
                let canonical = format!("\"{}\"", words.join(" "));
                self.note_normalized(&term.raw, &canonical);
                if self
                    .terms
                    .iter()
                    .any(|t| matches!(t, Term::Phrase(ws) if *ws == words))
                {
                    self.report.dropped.push(term.raw);
                    return Ok(());
                }
                let mut group: Vec<usize> = words.iter().map(|w| self.position_of(w)).collect();
                group.sort_unstable();
                self.phrases.push(group);
                self.terms.push(Term::Phrase(words));
            }
            RawKind::Exclude(w) => {
                let word = normalize_keyword(&w);
                self.note_normalized(&term.raw, &format!("-{word}"));
                if self.exclusions.contains(&word) {
                    self.report.dropped.push(term.raw);
                    return Ok(());
                }
                self.exclusions.push(word.clone());
                self.terms.push(Term::Exclude(word));
            }
            RawKind::Labeled { label, word } => {
                let label = normalize_keyword(&label);
                let word = normalize_keyword(&word);
                self.note_normalized(&term.raw, &format!("{label}:{word}"));
                if self
                    .label_filters
                    .iter()
                    .any(|f| f.label == label && self.keywords[f.position] == word)
                {
                    self.report.dropped.push(term.raw);
                    return Ok(());
                }
                let position = self.position_of(&word);
                self.label_filters.push(LabelFilter {
                    position,
                    label: label.clone(),
                });
                self.terms.push(Term::Labeled { label, word });
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<QuerySpec, ParseError> {
        if self.keywords.is_empty() {
            return Err(ParseError::Empty);
        }
        if self.keywords.len() > MAX_KEYWORDS {
            return Err(ParseError::TooManyKeywords(self.keywords.len()));
        }
        if self.exclusions.len() > MAX_KEYWORDS {
            return Err(ParseError::TooManyExclusions(self.exclusions.len()));
        }
        for excluded in &self.exclusions {
            if self.keywords.contains(excluded) {
                return Err(ParseError::Contradiction {
                    word: excluded.clone(),
                });
            }
        }
        // `from_words` re-normalizes (a no-op — words are already
        // normalized and deduplicated) and enforces the Query invariants.
        let query = Query::from_words(&self.keywords)?;
        debug_assert_eq!(query.keywords(), self.keywords);
        Ok(QuerySpec {
            terms: self.terms,
            query,
            phrases: self.phrases,
            label_filters: self.label_filters,
            exclusions: self.exclusions,
            report: self.report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> QuerySpec {
        QuerySpec::parse(s).unwrap()
    }

    #[test]
    fn plain_queries_lower_to_the_legacy_query() {
        let s = spec("  XML   Keyword  search ");
        assert_eq!(s.query(), &Query::parse("xml keyword search").unwrap());
        assert!(s.is_plain());
        assert_eq!(s.to_string(), "xml keyword search");
        // Case folding is reported, not silent.
        assert_eq!(
            s.report().normalized,
            [
                ("XML".to_owned(), "xml".to_owned()),
                ("Keyword".to_owned(), "keyword".to_owned())
            ]
        );
    }

    #[test]
    fn phrase_groups_positions() {
        let s = spec("\"xml keyword\" search");
        assert_eq!(s.query().keywords(), ["xml", "keyword", "search"]);
        assert_eq!(s.phrases(), [vec![0, 1]]);
        assert_eq!(s.to_string(), "\"xml keyword\" search");
    }

    #[test]
    fn phrase_shares_positions_with_plain_words() {
        // "xml" appears first as a plain word; the phrase reuses bit 0.
        let s = spec("xml \"xml keyword\"");
        assert_eq!(s.query().keywords(), ["xml", "keyword"]);
        assert_eq!(s.phrases(), [vec![0, 1]]);
    }

    #[test]
    fn single_word_phrase_degrades_to_word() {
        let s = spec("\"xml\" keyword");
        assert!(s.is_plain());
        assert_eq!(s.to_string(), "xml keyword");
        // The de-quoting is a reported rewrite.
        assert_eq!(
            s.report().normalized,
            [("\"xml\"".to_owned(), "xml".to_owned())]
        );
    }

    #[test]
    fn exclusions_do_not_consume_bit_positions() {
        let s = spec("xml -skyline keyword");
        assert_eq!(s.query().keywords(), ["xml", "keyword"]);
        assert_eq!(s.exclusions(), ["skyline"]);
        assert_eq!(s.to_string(), "xml -skyline keyword");
    }

    #[test]
    fn label_filters_constrain_positions() {
        let s = spec("title:xml keyword");
        assert_eq!(s.query().keywords(), ["xml", "keyword"]);
        assert_eq!(
            s.label_filters(),
            [LabelFilter {
                position: 0,
                label: "title".to_owned()
            }]
        );
        assert_eq!(s.to_string(), "title:xml keyword");
    }

    #[test]
    fn duplicates_are_dropped_and_reported() {
        let s = spec("xml keyword XML -a -a title:x title:x \"p q\" \"p q\"");
        assert_eq!(s.query().keywords(), ["xml", "keyword", "x", "p", "q"]);
        assert_eq!(s.report().dropped, ["XML", "-a", "title:x", "\"p q\""]);
    }

    #[test]
    fn typed_errors() {
        assert_eq!(QuerySpec::parse("   "), Err(ParseError::Empty));
        assert_eq!(QuerySpec::parse("-only"), Err(ParseError::Empty));
        assert_eq!(QuerySpec::parse("\"a b"), Err(ParseError::UnclosedPhrase));
        assert_eq!(QuerySpec::parse("x \"\""), Err(ParseError::EmptyPhrase));
        assert_eq!(QuerySpec::parse("x \"  \""), Err(ParseError::EmptyPhrase));
        assert_eq!(QuerySpec::parse("x -"), Err(ParseError::EmptyExclusion));
        assert_eq!(
            QuerySpec::parse("x -\"a b\""),
            Err(ParseError::ExcludedPhrase)
        );
        assert_eq!(
            QuerySpec::parse("x :word"),
            Err(ParseError::MissingLabel {
                word: "word".to_owned()
            })
        );
        assert_eq!(
            QuerySpec::parse("x label:"),
            Err(ParseError::MissingLabelWord {
                label: "label".to_owned()
            })
        );
        assert_eq!(
            QuerySpec::parse("xml -XML"),
            Err(ParseError::Contradiction {
                word: "xml".to_owned()
            })
        );
        let many: String = (0..65).map(|i| format!("w{i} ")).collect();
        assert_eq!(
            QuerySpec::parse(&many),
            Err(ParseError::TooManyKeywords(65))
        );
        // Exclusions are bounded too: each costs a posting lookup at
        // execution time.
        let many_excluded: String = std::iter::once("x ".to_owned())
            .chain((0..65).map(|i| format!("-w{i} ")))
            .collect();
        assert_eq!(
            QuerySpec::parse(&many_excluded),
            Err(ParseError::TooManyExclusions(65))
        );
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "xml keyword search",
            "\"xml keyword\" search",
            "title:xml -skyline \"a b c\" plain",
            "a:b:c",  // word may contain ':' after the first
            "x -a:b", // exclusions swallow the rest verbatim
            "x --y",  // exclusion of "-y"
        ] {
            let first = spec(text);
            let second = spec(&first.to_string());
            assert_eq!(first, second, "round-trip of {text:?}");
            assert_eq!(first.to_string(), second.to_string());
            assert!(second.report().is_clean(), "second parse is canonical");
        }
    }

    #[test]
    fn from_query_is_plain() {
        let q = Query::parse("xml keyword").unwrap();
        let s = QuerySpec::from_query(q.clone());
        assert_eq!(s.query(), &q);
        assert!(s.is_plain());
        assert_eq!(s.to_string(), "xml keyword");
        assert_eq!(s, spec("xml keyword"));
    }
}
