//! The Figure 5/6 query workloads.
//!
//! The paper abbreviates each query by the underlined letters of its
//! keywords (e.g. `vdo` = "preventions description order", the one
//! mapping §5.1 spells out). The letter→keyword maps below follow that
//! convention; where the scanned figure axis is ambiguous we chose the
//! closest consistent reading.

/// DBLP letter → keyword map (20 keywords of §5.1).
pub const DBLP_LETTERS: &[(char, &str)] = &[
    ('k', "keyword"),
    ('s', "similarity"),
    ('r', "recognition"),
    ('a', "algorithm"),
    ('d', "data"),
    ('p', "probabilistic"),
    ('x', "xml"),
    ('y', "dynamic"),
    ('g', "sigmod"),
    ('t', "tree"),
    ('q', "query"),
    ('o', "automata"),
    ('n', "pattern"),
    ('l', "retrieval"),
    ('f', "efficient"),
    ('u', "understanding"),
    ('c', "searching"),
    ('v', "vldb"),
    ('h', "henry"),
    ('m', "semantics"),
];

/// XMark letter → keyword map (12 of the 13 §5.1 keywords appear in
/// queries; `dominator` is planted but never queried).
pub const XMARK_LETTERS: &[(char, &str)] = &[
    ('a', "particle"),
    ('t', "threshold"),
    ('c', "chronicle"),
    ('m', "method"),
    ('s', "strings"),
    ('u', "unjust"),
    ('i', "invention"),
    ('e', "egypt"),
    ('l', "leon"),
    ('v', "preventions"),
    ('d', "description"),
    ('o', "order"),
];

/// The 18 DBLP query abbreviations of Figures 5(a)/6(a).
pub const DBLP_QUERIES: &[&str] = &[
    "ks", "kr", "ka", "drpx", "aygt", "tqops", "xtna", "xkly", "pfy", "pfl", "xkla", "uscx",
    "ftdrx", "dkla", "xayn", "vfxdkl", "ushckpg", "kcmsf",
];

/// The 25 XMark query abbreviations of Figures 5(b–d)/6(b–d), shared by
/// all three dataset sizes.
pub const XMARK_QUERIES: &[&str] = &[
    "at", "ad", "av", "cm", "do", "vd", "tcm", "cms", "iel", "sdc", "vdo", "atcm", "cmsu", "suie",
    "iadm", "vdoi", "tcmsu", "uiel", "atcms", "atcmd", "atcmv", "atcdv", "atcdve", "atcmve",
    "dtcmvo",
];

/// Expands an abbreviation into the keyword string, e.g. `"vdo"` →
/// `"preventions description order"`. Panics on an unmapped letter
/// (workload constants are validated by tests).
#[must_use]
pub fn expand(abbrev: &str, letters: &[(char, &str)]) -> String {
    abbrev
        .chars()
        .map(|c| {
            letters
                .iter()
                .find(|(l, _)| *l == c)
                .unwrap_or_else(|| panic!("unmapped query letter {c:?}"))
                .1
        })
        .collect::<Vec<&str>>()
        .join(" ")
}

/// The full DBLP workload as `(abbreviation, keyword string)` pairs.
#[must_use]
pub fn dblp_workload() -> Vec<(&'static str, String)> {
    DBLP_QUERIES
        .iter()
        .map(|a| (*a, expand(a, DBLP_LETTERS)))
        .collect()
}

/// The full XMark workload as `(abbreviation, keyword string)` pairs.
#[must_use]
pub fn xmark_workload() -> Vec<(&'static str, String)> {
    XMARK_QUERIES
        .iter()
        .map(|a| (*a, expand(a, XMARK_LETTERS)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vdo_is_the_paper_example() {
        assert_eq!(
            expand("vdo", XMARK_LETTERS),
            "preventions description order"
        );
    }

    #[test]
    fn all_workload_letters_are_mapped() {
        // Expanding panics on unmapped letters; running it over both
        // workloads validates the constants.
        for (a, q) in dblp_workload() {
            assert_eq!(q.split(' ').count(), a.len());
        }
        for (a, q) in xmark_workload() {
            assert_eq!(q.split(' ').count(), a.len());
        }
    }

    #[test]
    fn workload_sizes() {
        assert_eq!(DBLP_QUERIES.len(), 18);
        assert_eq!(XMARK_QUERIES.len(), 25);
    }

    #[test]
    fn no_duplicate_letters_within_a_query() {
        for a in DBLP_QUERIES.iter().chain(XMARK_QUERIES) {
            let mut chars: Vec<char> = a.chars().collect();
            chars.sort_unstable();
            chars.dedup();
            assert_eq!(chars.len(), a.len(), "duplicate letter in {a}");
        }
    }

    #[test]
    fn letter_maps_have_unique_letters_and_keywords() {
        for map in [DBLP_LETTERS, XMARK_LETTERS] {
            let mut letters: Vec<char> = map.iter().map(|(c, _)| *c).collect();
            letters.sort_unstable();
            letters.dedup();
            assert_eq!(letters.len(), map.len());
            let mut kws: Vec<&str> = map.iter().map(|(_, k)| *k).collect();
            kws.sort_unstable();
            kws.dedup();
            assert_eq!(kws.len(), map.len());
        }
    }

    #[test]
    fn arities_span_two_to_seven() {
        let min = DBLP_QUERIES.iter().map(|a| a.len()).min().unwrap();
        let max = DBLP_QUERIES.iter().map(|a| a.len()).max().unwrap();
        assert_eq!(min, 2);
        assert_eq!(max, 7);
        let xmin = XMARK_QUERIES.iter().map(|a| a.len()).min().unwrap();
        let xmax = XMARK_QUERIES.iter().map(|a| a.len()).max().unwrap();
        assert_eq!(xmin, 2);
        assert_eq!(xmax, 6);
    }
}
