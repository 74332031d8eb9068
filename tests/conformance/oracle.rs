//! The paper-literal reference: small random corpora, and the answer
//! Definitions 1–4 and docs/API.md's operator rules give on them with
//! no engine code in between.
//!
//! 1. `spec::spec_rtfs` enumerates the RTFs of Definitions 1–2;
//!    MaxMatch-SLCA keeps those anchored at an SLCA of
//!    `xks_lca::naive_slca`.
//! 2. Each RTF's raw fragment is every node on a path from the anchor
//!    to one of its keyword nodes, with the keyword set and content
//!    feature of the keyword nodes below it (§4.1, Definition 3).
//! 3. From the anchor down, each kept node keeps the children
//!    Definition 4 (ValidRTF) or the contributor filter (MaxMatch)
//!    keeps.
//! 4. A fragment is returned when docs/API.md's operator rules keep
//!    it.

use std::collections::{BTreeMap, BTreeSet};

use crate::common::reference::{contributors, judge, postings, valid_contributors, Child};
use crate::sources::{documents, Corpus};
use xks::core::spec::spec_rtfs;
use xks::core::{AlgorithmKind, SearchRequest, TreeCorpus};
use xks::datagen::random_tree::{random_document, RandomDocConfig};
use xks::index::QuerySpec;
use xks::lca::naive::naive_slca;
use xks::xmltree::content::{content_feature, node_content};
use xks::xmltree::{Dewey, XmlTree};

/// One answer: each fragment's anchor and kept nodes, in document
/// order.
pub type Answer = Vec<(Dewey, Vec<Dewey>)>;

/// Random corpora the reference runs on.
pub const RANDOM_CORPORA: u64 = 12;

/// Plain queries asked of every random corpus.
const PLAIN: [&str; 5] = ["w0", "w1", "w0 w1", "w1 w2", "w0 w1 w2"];

/// xorshift64*: deterministic draws from one seed.
pub struct Gen(pub u64);

impl Gen {
    pub fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// Random corpus `seed`: a `random_document` at the sizes
/// `tests/rtf_spec_oracle.rs` uses, whose root text is dropped so its
/// top-level children are its documents.
pub fn random_corpus(seed: u64) -> (Corpus, RandomDocConfig) {
    let config = RandomDocConfig {
        nodes: 8 + seed as usize % 6,
        labels: 1 + seed as usize % 3,
        words: 3 + seed as usize % 2,
        max_words_per_node: 2,
        seed,
    };
    let (root, docs) = documents(&random_document(&config));
    let tree = xks::xmltree::parse(&format!("<{root}>{}</{root}>", docs.concat())).unwrap();
    (Corpus::new(&format!("random{seed}"), tree), config)
}

/// The plain queries, or seeded operator specs in the six shapes of
/// `tests/operator_filters.rs` over the corpus' words and labels (and
/// one label it never uses), that the grammar accepts and the
/// Definitions 1–2 enumeration can afford.
pub fn random_queries(corpus: &Corpus, config: &RandomDocConfig, operators: bool) -> Vec<String> {
    let texts: Vec<String> = if operators {
        let mut gen = Gen(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut spec = |i| {
            let mut w = || format!("w{}", gen.below(config.words as u64));
            let (a, b, c, d) = (w(), w(), w(), w());
            let label = match gen.below(config.labels as u64 + 1) as usize {
                l if l == config.labels => "nosuch".to_owned(),
                l => format!("l{l}"),
            };
            match i % 6 {
                0 => format!("\"{a} {b}\" {c}"),
                1 => format!("{a} {b} -{c}"),
                2 => format!("{label}:{a} {b}"),
                3 => format!("\"{a} {b}\" {label}:{c} -{d}"),
                4 => format!("\"{a} {b}\" {c} {d}"),
                _ => format!("{label}:{a} {b} {c} {d}"),
            }
        };
        (0..12).map(&mut spec).collect()
    } else {
        PLAIN.map(str::to_owned).to_vec()
    };
    let affordable = |text: &String| {
        SearchRequest::parse(text)
            .is_ok_and(|r| reference(&corpus.oracle, r.spec(), AlgorithmKind::ValidRtf).is_some())
    };
    texts.into_iter().filter(affordable).collect()
}

/// The reference answer of `spec` under `kind`; `None` when the
/// Definitions 1–2 enumeration is too large.
pub fn reference(oracle: &TreeCorpus, spec: &QuerySpec, kind: AlgorithmKind) -> Option<Answer> {
    let (tree, index) = (oracle.tree(), oracle.index());
    let sets: Vec<Vec<Dewey>> = (spec.query().keywords().iter())
        .map(|word| index.postings(word).to_vec())
        .collect();
    if sets.iter().any(|s| s.len() > 4) {
        return None;
    }
    let rtfs = spec_rtfs(&sets)?;
    let slcas = naive_slca(&sets);
    let postings = postings(spec, |word| index.postings(word).to_vec());
    let mut answer = Vec::new();
    for rtf in rtfs {
        if kind == AlgorithmKind::MaxMatchSlca && !slcas.contains(&rtf.anchor) {
            continue;
        }
        let kept = prune(tree, &rtf.anchor, &rtf.nodes, &sets, kind);
        let keyword_nodes: Vec<(&Dewey, String)> = (kept.iter())
            .filter(|d| rtf.nodes.contains(*d))
            .map(|d| {
                (
                    d,
                    tree.label_name(tree.node_by_dewey(d).unwrap()).to_owned(),
                )
            })
            .collect();
        if judge(&rtf.anchor, &keyword_nodes, spec, &postings).keeps() {
            answer.push((rtf.anchor, kept));
        }
    }
    Some(answer)
}

/// Steps 2 and 3 for one RTF: its kept nodes, sorted.
fn prune(
    tree: &XmlTree,
    anchor: &Dewey,
    knodes: &BTreeSet<Dewey>,
    sets: &[Vec<Dewey>],
    kind: AlgorithmKind,
) -> Vec<Dewey> {
    type Feature = Option<(String, String)>;
    let mut raw: BTreeMap<Dewey, (u64, Feature)> = BTreeMap::new();
    for knode in knodes {
        let mask = (sets.iter().enumerate())
            .filter(|(_, set)| set.binary_search(knode).is_ok())
            .fold(0, |mask, (i, _)| mask | 1 << i);
        let own = content_feature(&node_content(tree, tree.node_by_dewey(knode).unwrap()));
        let mut node = knode.clone();
        loop {
            let (kset, feature) = raw.entry(node.clone()).or_default();
            *kset |= mask;
            *feature = match (feature.take(), &own) {
                (Some((lo, hi)), Some((min, max))) => {
                    Some((lo.min(min.clone()), hi.max(max.clone())))
                }
                (mine, other) => mine.or_else(|| other.clone()),
            };
            if &node == anchor {
                break;
            }
            node = node.parent().unwrap();
        }
    }
    let label = |d: &Dewey| tree.node(tree.node_by_dewey(d).unwrap()).label.as_u32();
    let mut kept = vec![anchor.clone()];
    let mut next = 0;
    while let Some(parent) = kept.get(next).cloned() {
        next += 1;
        let children: Vec<Child> = (raw.iter())
            .filter(|(d, _)| d.parent().as_ref() == Some(&parent))
            .map(|(dewey, (kset, cid))| Child {
                dewey,
                kset: *kset,
                cid: cid.as_ref().map(|(min, max)| (min.as_str(), max.as_str())),
            })
            .collect();
        if kind == AlgorithmKind::ValidRtf {
            let labels: BTreeSet<_> = children.iter().map(|c| label(c.dewey)).collect();
            for l in labels {
                let group: Vec<Child> = (children.iter().copied())
                    .filter(|c| label(c.dewey) == l)
                    .collect();
                kept.extend(valid_contributors(&group).into_iter().cloned());
            }
        } else {
            kept.extend(contributors(&children).into_iter().cloned());
        }
    }
    kept.sort();
    kept
}
