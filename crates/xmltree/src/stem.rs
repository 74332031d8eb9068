//! Light suffix stemming (opt-in).
//!
//! The paper's pipeline runs text through Lucene's English analysis,
//! which is why its Example 2 matches the query keyword *query* against
//! the title word *Querying*. Exact-match tokenization (this crate's
//! default) cannot reproduce that; this module provides the standard
//! light "S-stemmer" plus `-ing`/`-ed` stripping so callers that want
//! the paper's looser matching can normalize both documents and
//! queries the same way (`InvertedIndex` stays agnostic — stem before
//! indexing and before querying).
//!
//! The rules are deliberately conservative (a subset of Harman's
//! S-stemmer): they never touch short tokens and avoid the classic
//! overstemming traps (`ies`→`y`, keep `ss`, keep `-ing` on short
//! stems).

/// Stems one lowercase token.
#[must_use]
pub fn light_stem(word: &str) -> String {
    let mut w = word.to_owned();

    // -ing: "querying" → "query"; require a stem of ≥ 4 chars so
    // "ring"/"king" survive.
    if let Some(stem) = w.strip_suffix("ing") {
        if stem.len() >= 4 {
            w = stem.to_owned();
            return finish_e_restore(w);
        }
    }
    // -ed: "matched" → "match"; same guard.
    if let Some(stem) = w.strip_suffix("ed") {
        if stem.len() >= 4 {
            return finish_e_restore(stem.to_owned());
        }
    }
    // S-stemmer plural rules.
    if let Some(stem) = w.strip_suffix("ies") {
        if stem.len() >= 2 {
            return format!("{stem}y");
        }
    }
    if w.ends_with("ss") || w.ends_with("us") {
        return w;
    }
    if let Some(stem) = w.strip_suffix("es") {
        // "searches" → "search", "boxes" → "box".
        if stem.ends_with("ch")
            || stem.ends_with("sh")
            || stem.ends_with('x')
            || stem.ends_with('s')
        {
            return stem.to_owned();
        }
    }
    if let Some(stem) = w.strip_suffix('s') {
        if stem.len() >= 3 && !stem.ends_with('s') {
            return stem.to_owned();
        }
    }
    w
}

/// After stripping `-ing`/`-ed`, undo consonant doubling ("matching" →
/// "match" not "matchh" is already fine; "stopping" → "stop") and keep
/// single trailing letters intact.
fn finish_e_restore(w: String) -> String {
    let bytes = w.as_bytes();
    let n = bytes.len();
    if n >= 2 && bytes[n - 1] == bytes[n - 2] && !matches!(bytes[n - 1], b'l' | b's' | b'z') {
        // "stopp" → "stop", but keep "fell"/"miss"-style endings.
        return w[..n - 1].to_owned();
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_motivating_case() {
        // Example 2: "Skyline Querying" must match query keyword
        // "query".
        assert_eq!(light_stem("querying"), "query");
        assert_eq!(light_stem("query"), "query");
    }

    #[test]
    fn plural_rules() {
        assert_eq!(light_stem("queries"), "query");
        assert_eq!(light_stem("searches"), "search");
        assert_eq!(light_stem("fragments"), "fragment");
        assert_eq!(light_stem("preferences"), "preference");
        assert_eq!(light_stem("boxes"), "box");
        assert_eq!(light_stem("class"), "class");
        assert_eq!(light_stem("status"), "status");
    }

    #[test]
    fn ing_ed_rules() {
        assert_eq!(light_stem("matching"), "match");
        assert_eq!(light_stem("matched"), "match");
        assert_eq!(light_stem("stopping"), "stop");
        assert_eq!(light_stem("ranked"), "rank");
        // Short stems untouched.
        assert_eq!(light_stem("ring"), "ring");
        assert_eq!(light_stem("king"), "king");
        assert_eq!(light_stem("red"), "red");
    }

    #[test]
    fn idempotent_on_common_vocabulary() {
        for w in ["xml", "keyword", "skyline", "data", "vldb", "tree"] {
            assert_eq!(light_stem(w), w);
            let once = light_stem(w);
            assert_eq!(light_stem(&once), once, "{w} not idempotent");
        }
    }
}
