//! The rules the engine's answers are checked against, each read
//! literally from its source, with no engine code in between:
//!
//! * Definition 4 (valid contributors) and MaxMatch's contributor
//!   filter, over one node's children ([`valid_contributors`],
//!   [`contributors`]);
//! * docs/API.md's three operator rules over one fragment ([`judge`]):
//!   a phrase needs one keyword node of the fragment holding every
//!   word of the group, a label filter one keyword node holding the
//!   word under that label, and an exclusion no posting of the word
//!   anywhere in the anchor's subtree. A node is in a word's postings
//!   when its own content holds the word.

use std::collections::{HashMap, HashSet};

use xks::index::QuerySpec;
use xks::xmltree::Dewey;

/// One child as the pruning rules see it: its keyword set (bit `i` =
/// query keyword `i`) and its content feature `(min, max)`.
#[derive(Debug, Clone, Copy)]
pub struct Child<'a> {
    pub dewey: &'a Dewey,
    pub kset: u64,
    pub cid: Option<(&'a str, &'a str)>,
}

fn strict_subset(a: u64, b: u64) -> bool {
    a & !b == 0 && a != b
}

/// Definition 4 over one same-label sibling group, in document order:
/// the survivors.
pub fn valid_contributors<'a>(group: &[Child<'a>]) -> Vec<&'a Dewey> {
    if group.len() == 1 {
        return vec![group[0].dewey]; // rule 1
    }
    let mut used_ksets = HashSet::new();
    let mut used_cids = HashSet::new();
    let mut out = Vec::new();
    for ch in group {
        if used_ksets.contains(&ch.kset) {
            // Rule 2(b): ties a kept sibling — keep only novel content.
            if used_cids.insert(ch.cid) {
                out.push(ch.dewey);
            }
        } else if !group.iter().any(|o| strict_subset(ch.kset, o.kset)) {
            // Not rule 2(a): no same-label sibling strictly covers it.
            out.push(ch.dewey);
            used_ksets.insert(ch.kset);
            used_cids.insert(ch.cid);
        }
    }
    out
}

/// MaxMatch's filter over all children of one node: a child stays iff
/// no sibling (any label) has a strictly larger keyword set.
pub fn contributors<'a>(siblings: &[Child<'a>]) -> Vec<&'a Dewey> {
    siblings
        .iter()
        .filter(|c| !siblings.iter().any(|o| strict_subset(c.kset, o.kset)))
        .map(|c| c.dewey)
        .collect()
}

/// Which of docs/API.md's rules reject a fragment.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub phrase: bool,
    pub label: bool,
    pub exclusion: bool,
}

impl Verdict {
    pub fn keeps(self) -> bool {
        !(self.phrase || self.label || self.exclusion)
    }
}

/// Every word of a spec, positive or excluded, with its postings.
pub type Postings<'a> = HashMap<&'a String, Vec<Dewey>>;

/// The postings of every word of `spec`, read through `lookup`.
pub fn postings<'a>(spec: &'a QuerySpec, lookup: impl Fn(&str) -> Vec<Dewey>) -> Postings<'a> {
    (spec.query().keywords().iter())
        .chain(spec.exclusions())
        .map(|word| (word, lookup(word)))
        .collect()
}

/// The rules over one fragment: its anchor, and its keyword nodes with
/// their label names.
pub fn judge(
    anchor: &Dewey,
    keyword_nodes: &[(&Dewey, String)],
    spec: &QuerySpec,
    postings: &Postings<'_>,
) -> Verdict {
    let holds = |dewey: &Dewey, word: &String| postings[word].binary_search(dewey).is_ok();
    let keywords = spec.query().keywords();
    let phrase = !spec.phrases().iter().all(|group| {
        keyword_nodes
            .iter()
            .any(|(d, _)| group.iter().all(|&p| holds(d, &keywords[p])))
    });
    let label = !spec.label_filters().iter().all(|filter| {
        keyword_nodes.iter().any(|(d, name)| {
            holds(d, &keywords[filter.position]) && name.to_lowercase() == filter.label
        })
    });
    // Postings are in document order, so the subtree's first posting,
    // if any, is the first one at or after the anchor.
    let exclusion = spec.exclusions().iter().any(|word| {
        let p = &postings[word];
        (p.get(p.partition_point(|d| d < anchor))).is_some_and(|d| anchor.is_ancestor_or_self(d))
    });
    Verdict {
        phrase,
        label,
        exclusion,
    }
}
