//! Materialized RTF fragments — the §4.1 node data structure and the
//! *constructing step* of `pruneRTF`.
//!
//! A [`Fragment`] is the tree induced by an RTF: the anchor, its keyword
//! nodes, and every node on the paths between them. Each node carries
//! the "Self Info" of §4.1 — Dewey code, label, `kList` ([`KeySet`]) and
//! `cID` content feature — and its "Children Info" is derivable on
//! demand as per-label groups ([`Fragment::label_groups`]): counter,
//! `chkList` (distinct key numbers) and `chcIDList`.
//!
//! # Decide before you build
//!
//! Every fragment, raw or pruned, comes out of one three-step builder
//! ([`Fragment::build`]) over a reusable [`SkeletonScratch`]:
//!
//! 1. [`lay_out`] walks the document-ordered keyword nodes with a stack
//!    mirroring the current root path and writes the raw fragment as a
//!    flat **pre-order skeleton** — Dewey, label, keyword mask, parent
//!    and sibling links, and the content feature as a pair of *indices*
//!    into the keyword nodes' own features, so the upward propagation
//!    of §4.1 (the paper's lines 11–12) compares strings but never
//!    copies them. Storage is asked once per node, in document order.
//! 2. [`crate::prune::decide`] marks the survivors over the skeleton.
//! 3. [`emit`] materializes only the survivors, once, into an exactly
//!    sized node vector.
//!
//! A caller may stop a fragment after either of the first two steps
//! ([`Fragment::build_gated`]): the engine's operator checks reject an
//! RTF there, before anything is emitted.

use std::sync::Arc;

use xks_lca::{SkelNode, SkeletonScratch, NONE};
use xks_xmltree::content::{content_feature, node_content};
use xks_xmltree::{Dewey, LabelId, XmlTree};

use crate::keyset::KeySet;
use crate::prune::{decide, Policy};
use crate::rtf::Rtf;
use crate::source::{CorpusSource, SourceError};

/// The `cID` content feature: lexical `(min, max)` of a tree content
/// set (§4.1). `None` when no keyword-node content is below the node.
/// The words are shared, so storage, skeleton and fragments hand the
/// same two strings around by reference count.
pub type Cid = Option<(Arc<str>, Arc<str>)>;

/// A stored `(min, max)` word pair as a shareable [`Cid`].
#[must_use]
pub fn shared_cid(feature: Option<(String, String)>) -> Cid {
    feature.map(|(min, max)| (min.into(), max.into()))
}

/// One node of a materialized fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragNode {
    /// Dewey code.
    pub dewey: Dewey,
    /// Interned label (resolve via the source tree's label table).
    pub label: LabelId,
    /// The tree keyword set `TK_v` restricted to the **raw** fragment
    /// (= `dMatch(v)` of MaxMatch); pruning does not shrink it.
    pub kset: KeySet,
    /// The content feature of the tree content set `TC_v` (Definition 3:
    /// union over the *keyword nodes* of the raw subtree).
    pub cid: Cid,
    /// `true` when the node is itself a keyword node of the query.
    pub is_keyword: bool,
    /// Position of the parent in the fragment ([`NONE`] for the anchor).
    parent: u32,
    /// Position of the next sibling in the fragment, or [`NONE`].
    next_sibling: u32,
}

/// A materialized RTF: anchor plus all path nodes, stored as one flat
/// vector **sorted by Dewey code** (= document order, pre-order).
/// Lookups are binary searches; a node's first child is the node right
/// after it and its further children follow the sibling links
/// ([`Fragment::children`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// The anchor LCA node.
    pub anchor: Dewey,
    nodes: Vec<FragNode>,
}

/// One per-label child group of a node — the §4.1 "label item".
#[derive(Debug, Clone)]
pub struct LabelGroup<'a> {
    /// The shared label of the children in this group.
    pub label: LabelId,
    /// The children, in document order.
    pub children: Vec<&'a FragNode>,
}

impl LabelGroup<'_> {
    /// The group's `counter` field.
    #[must_use]
    pub fn counter(&self) -> usize {
        self.children.len()
    }

    /// The sorted distinct key numbers of the group (`chkList`).
    #[must_use]
    pub fn chk_list(&self, k: usize) -> Vec<u64> {
        let mut nums: Vec<u64> = self.children.iter().map(|c| c.kset.key_number(k)).collect();
        nums.sort_unstable();
        nums.dedup();
        nums
    }
}

/// What the constructing step asks of storage: the label of a path
/// node, and label plus own-content feature of a keyword node. A node
/// the corpus does not contain is an error — keyword nodes always come
/// from the same corpus, so it indicates a corrupted index.
pub trait NodeFacts {
    /// The label id of `dewey`.
    fn label(&self, dewey: &Dewey) -> Result<u32, SourceError>;
    /// The label id and the feature of the own content `Cv` of `dewey`.
    fn keyword_node(&self, dewey: &Dewey) -> Result<(u32, Cid), SourceError>;
}

/// The label id of `dewey` read straight off the parsed tree.
pub(crate) fn tree_label(tree: &XmlTree, dewey: &Dewey) -> Option<u32> {
    let id = tree.node_by_dewey(dewey)?;
    Some(tree.node(id).label.as_u32())
}

/// The label id and own-content feature of `dewey` read straight off
/// the parsed tree.
pub(crate) fn tree_keyword_node(tree: &XmlTree, dewey: &Dewey) -> Option<(u32, Cid)> {
    let id = tree.node_by_dewey(dewey)?;
    let cid = shared_cid(content_feature(&node_content(tree, id)));
    Some((tree.node(id).label.as_u32(), cid))
}

impl NodeFacts for XmlTree {
    fn label(&self, dewey: &Dewey) -> Result<u32, SourceError> {
        tree_label(self, dewey).ok_or_else(|| SourceError::missing_node(dewey))
    }

    fn keyword_node(&self, dewey: &Dewey) -> Result<(u32, Cid), SourceError> {
        tree_keyword_node(self, dewey).ok_or_else(|| SourceError::missing_node(dewey))
    }
}

impl<S: CorpusSource + ?Sized> NodeFacts for S {
    fn label(&self, dewey: &Dewey) -> Result<u32, SourceError> {
        self.try_element_label(dewey)?
            .ok_or_else(|| SourceError::missing_node(dewey))
    }

    fn keyword_node(&self, dewey: &Dewey) -> Result<(u32, Cid), SourceError> {
        self.try_keyword_node(dewey)?
            .ok_or_else(|| SourceError::missing_node(dewey))
    }
}

/// Lays the raw fragment of one RTF out in `skel` (step 1 of the module
/// docs). `knodes` are the partition's keyword nodes in document order,
/// all at or below `anchor`. With a warm `skel` and a backend that
/// shares its features, the layout performs no heap allocation.
pub fn lay_out<'k>(
    facts: &(impl NodeFacts + ?Sized),
    anchor: &Dewey,
    knodes: impl Iterator<Item = (&'k Dewey, KeySet)>,
    skel: &mut SkeletonScratch,
) -> Result<(), SourceError> {
    skel.nodes.clear();
    skel.feats.clear();
    skel.order.clear(); // the open root path, outermost first
    let mut knodes = knodes.peekable();
    // An anchor that is itself the first keyword node (every
    // single-keyword SLCA) is fetched as one.
    let anchor_is_keyword = knodes.peek().is_some_and(|(kd, _)| *kd == anchor);
    open(facts, skel, anchor.clone(), anchor_is_keyword)?;
    for (kd, mask) in knodes {
        debug_assert!(anchor.is_ancestor_or_self(kd), "knode outside anchor");
        let comps = kd.components();
        // The common prefix with the deepest open node bounds how far
        // we close; the anchor itself always stays open.
        let deepest = skel.nodes[top(skel)].dewey.components();
        let common = deepest
            .iter()
            .zip(comps)
            .take_while(|(a, b)| a == b)
            .count();
        while skel.order.len() > 1 && skel.nodes[top(skel)].dewey.len() > common {
            close(skel);
        }
        // Open the path down to the keyword node, fetched as one.
        let mut open_len = skel.nodes[top(skel)].dewey.len();
        while open_len < comps.len() {
            open_len += 1;
            let dewey = Dewey::from_slice(&comps[..open_len]);
            open(facts, skel, dewey, open_len == comps.len())?;
        }
        let node = top(skel);
        let node = &mut skel.nodes[node];
        debug_assert!(node.is_keyword && &node.dewey == kd);
        node.kset |= mask.0;
        node.own = mask.0;
    }
    while !skel.order.is_empty() {
        close(skel);
    }
    Ok(())
}

fn top(skel: &SkeletonScratch) -> usize {
    *skel.order.last().expect("anchor open") as usize
}

/// Appends `dewey` under the deepest open node and opens it.
fn open(
    facts: &(impl NodeFacts + ?Sized),
    skel: &mut SkeletonScratch,
    dewey: Dewey,
    is_keyword: bool,
) -> Result<(), SourceError> {
    let (label, own) = if is_keyword {
        facts.keyword_node(&dewey)?
    } else {
        (facts.label(&dewey)?, None)
    };
    let cid = own_feature(skel, own);
    let index = skel.nodes.len() as u32;
    let parent = skel.order.last().copied().unwrap_or(NONE);
    if parent != NONE {
        let elder = std::mem::replace(&mut skel.nodes[parent as usize].last_child, index);
        if elder != NONE {
            skel.nodes[elder as usize].next_sibling = index;
        }
    }
    skel.order.push(index);
    skel.nodes.push(SkelNode {
        dewey,
        label,
        parent,
        cid,
        is_keyword,
        ..SkelNode::default()
    });
    Ok(())
}

/// Files a node's own content feature, returning where its `min` and
/// `max` now live in the skeleton's feature list.
fn own_feature(skel: &mut SkeletonScratch, feature: Cid) -> (u32, u32) {
    feature.map_or((NONE, NONE), |feature| {
        skel.feats.push(feature);
        let own = skel.feats.len() as u32 - 1;
        (own, own)
    })
}

/// Closes the deepest open node, folding its keyword set and content
/// feature into its parent — §4.1's upward propagation, done once per
/// node instead of once per keyword node × ancestor.
fn close(skel: &mut SkeletonScratch) {
    let child = skel.order.pop().expect("close on an open path") as usize;
    let Some(&parent) = skel.order.last() else {
        return;
    };
    let (kset, (cmin, cmax)) = (skel.nodes[child].kset, skel.nodes[child].cid);
    let parent = &mut skel.nodes[parent as usize];
    parent.kset |= kset;
    if cmin == NONE {
        return;
    }
    let f = |i: u32| &skel.feats[i as usize];
    parent.cid = match parent.cid {
        (NONE, _) => (cmin, cmax),
        (pmin, pmax) => (
            if f(cmin).0 < f(pmin).0 { cmin } else { pmin },
            if f(cmax).1 > f(pmax).1 { cmax } else { pmax },
        ),
    };
}

/// Materializes the nodes `skel` marks as kept (step 3 of the module
/// docs) — one allocation, sized exactly. The kept set must be closed
/// under parents (the anchor included), which both
/// [`crate::prune::decide`] and keeping everything guarantee. Consumes
/// the skeleton's Dewey codes: lay out again before the next emit.
pub fn emit(skel: &mut SkeletonScratch, anchor: &Dewey) -> Fragment {
    let SkeletonScratch {
        nodes: raw,
        feats,
        order: path, // output positions of the emitted root path
        ..
    } = skel;
    let mut nodes: Vec<FragNode> = Vec::with_capacity(raw.iter().filter(|n| n.kept).count());
    path.clear();
    for node in raw.iter_mut().filter(|n| n.kept) {
        let index = nodes.len() as u32;
        // Everything at or below this depth on the emitted path is
        // done; the last such node is the elder sibling.
        let mut elder = NONE;
        while let Some(&open) = path.last() {
            if nodes[open as usize].dewey.len() < node.dewey.len() {
                break;
            }
            elder = open;
            path.pop();
        }
        if elder != NONE {
            nodes[elder as usize].next_sibling = index;
        }
        let parent = path.last().copied().unwrap_or(NONE);
        path.push(index);
        let (min, max) = node.cid;
        nodes.push(FragNode {
            dewey: std::mem::take(&mut node.dewey),
            label: LabelId(node.label),
            kset: KeySet(node.kset),
            cid: (min != NONE)
                .then(|| (feats[min as usize].0.clone(), feats[max as usize].1.clone())),
            is_keyword: node.is_keyword,
            parent,
            next_sibling: NONE,
        });
    }
    Fragment {
        anchor: anchor.clone(),
        nodes,
    }
}

/// Where [`Fragment::build_gated`] asks its caller whether to go on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The raw fragment is laid out; nothing is decided yet.
    LaidOut,
    /// The survivors are marked `kept`; nothing is emitted yet.
    Decided,
}

impl Fragment {
    /// **The** builder every fragment comes out of: lays out the raw
    /// fragment of `anchor` and `knodes`, prunes it under `policy`
    /// (`None` keeps the raw fragment) and materializes the result.
    /// Buffers come from `skel`, so a warm caller pays one allocation
    /// per fragment.
    pub fn build<'k>(
        facts: &(impl NodeFacts + ?Sized),
        anchor: &Dewey,
        knodes: impl Iterator<Item = (&'k Dewey, KeySet)>,
        policy: Option<Policy>,
        skel: &mut SkeletonScratch,
    ) -> Result<Self, SourceError> {
        let built = Self::build_gated(facts, anchor, knodes, policy, skel, |_, _| true)?;
        Ok(built.expect("an open gate stops no fragment"))
    }

    /// [`Fragment::build`] with a `gate` asked after the layout and
    /// after the decision: a `false` answer stops the fragment there
    /// (`Ok(None)`), before the emit step allocates anything.
    pub fn build_gated<'k>(
        facts: &(impl NodeFacts + ?Sized),
        anchor: &Dewey,
        knodes: impl Iterator<Item = (&'k Dewey, KeySet)>,
        policy: Option<Policy>,
        skel: &mut SkeletonScratch,
        mut gate: impl FnMut(Gate, &SkeletonScratch) -> bool,
    ) -> Result<Option<Self>, SourceError> {
        lay_out(facts, anchor, knodes, skel)?;
        if !gate(Gate::LaidOut, skel) {
            return Ok(None);
        }
        match policy {
            Some(policy) => decide(skel, policy),
            None => skel.nodes.iter_mut().for_each(|n| n.kept = true),
        }
        if !gate(Gate::Decided, skel) {
            return Ok(None);
        }
        Ok(Some(emit(skel, anchor)))
    }

    /// Builds the raw fragment for one RTF — the constructing step —
    /// from a parsed tree or any [`CorpusSource`]. `rtf` is a
    /// keyword-node partition from [`crate::rtf::get_rtf`].
    ///
    /// # Panics
    /// Panics on a backend failure or a node missing from the corpus;
    /// [`Fragment::build`] reports both as a typed [`SourceError`].
    #[must_use]
    pub fn construct(facts: &(impl NodeFacts + ?Sized), rtf: &Rtf) -> Self {
        let knodes = rtf.knodes.iter().map(|(d, m)| (d, *m));
        let mut skel = SkeletonScratch::default();
        Self::build(facts, &rtf.anchor, knodes, None, &mut skel)
            .unwrap_or_else(|e| panic!("fragment construction failed: {e}"))
    }

    /// Loads this fragment into `skel` as [`lay_out`] would have left
    /// it — the way back into the builder for an already materialized
    /// fragment ([`crate::prune::prune`]).
    pub(crate) fn load_into(&self, skel: &mut SkeletonScratch) {
        skel.nodes.clear();
        skel.feats.clear();
        for n in &self.nodes {
            let cid = own_feature(skel, n.cid.clone());
            skel.nodes.push(SkelNode {
                dewey: n.dewey.clone(),
                label: n.label.as_u32(),
                kset: n.kset.0,
                parent: n.parent,
                next_sibling: n.next_sibling,
                cid,
                is_keyword: n.is_keyword,
                ..SkelNode::default()
            });
        }
    }

    fn position(&self, dewey: &Dewey) -> Option<usize> {
        self.nodes.binary_search_by(|n| n.dewey.cmp(dewey)).ok()
    }

    /// Node lookup (binary search over the sorted vector).
    #[must_use]
    pub fn node(&self, dewey: &Dewey) -> Option<&FragNode> {
        self.position(dewey).map(|i| &self.nodes[i])
    }

    /// `true` when the fragment contains `dewey`.
    #[must_use]
    pub fn contains(&self, dewey: &Dewey) -> bool {
        self.position(dewey).is_some()
    }

    /// All nodes in document order.
    pub fn iter(&self) -> impl Iterator<Item = &FragNode> {
        self.nodes.iter()
    }

    /// The children of `dewey` within the fragment, in document order
    /// (empty when `dewey` is a leaf or not in the fragment).
    pub fn children(&self, dewey: &Dewey) -> impl Iterator<Item = &FragNode> {
        let first = self.position(dewey).and_then(|parent| {
            self.nodes
                .get(parent + 1)
                .filter(|n| n.parent as usize == parent)
        });
        std::iter::successors(first, move |n| self.nodes.get(n.next_sibling as usize))
    }

    /// All Dewey codes in document order.
    #[must_use]
    pub fn deweys(&self) -> Vec<Dewey> {
        self.nodes.iter().map(|n| n.dewey.clone()).collect()
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Fragments are never empty (the anchor is always present).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The children of `dewey` grouped by distinct label, in order of
    /// first appearance — the `chlList` of §4.1.
    #[must_use]
    pub fn label_groups(&self, dewey: &Dewey) -> Vec<LabelGroup<'_>> {
        let mut groups: Vec<LabelGroup<'_>> = Vec::new();
        for child in self.children(dewey) {
            match groups.iter_mut().find(|g| g.label == child.label) {
                Some(g) => g.children.push(child),
                None => groups.push(LabelGroup {
                    label: child.label,
                    children: vec![child],
                }),
            }
        }
        groups
    }

    /// Serializes the fragment as an XML snippet (kept nodes only),
    /// pulling labels, attributes, and keyword-node text from the
    /// source tree. Interior non-keyword nodes are emitted without
    /// text, matching the paper's figures which show only the matched
    /// values.
    #[must_use]
    pub fn to_xml(&self, tree: &XmlTree) -> String {
        fn emit(frag: &Fragment, tree: &XmlTree, node: &FragNode, depth: usize, out: &mut String) {
            use std::fmt::Write as _;
            let d = &node.dewey;
            let label = tree.labels().name(node.label);
            let indent = "  ".repeat(depth);
            let _ = write!(out, "{indent}<{label}");
            if let Some(id) = tree.node_by_dewey(d) {
                for attr in &tree.node(id).attributes {
                    let _ = write!(
                        out,
                        " {}=\"{}\"",
                        attr.name,
                        xks_xmltree::writer::escape_attr(&attr.value)
                    );
                }
            }
            let text = if node.is_keyword {
                tree.node_by_dewey(d)
                    .and_then(|id| tree.node(id).text.clone())
            } else {
                None
            };
            let mut children = frag.children(d).peekable();
            if children.peek().is_none() && text.is_none() {
                out.push_str("/>\n");
                return;
            }
            out.push('>');
            if let Some(t) = &text {
                out.push_str(&xks_xmltree::writer::escape_text(t));
            }
            if children.peek().is_some() {
                out.push('\n');
                for c in children {
                    emit(frag, tree, c, depth + 1, out);
                }
                out.push_str(&"  ".repeat(depth));
            }
            let _ = writeln!(out, "</{label}>");
        }
        let mut out = String::new();
        emit(self, tree, &self.nodes[0], 0, &mut out);
        out
    }

    /// Renders one node's §4.1 data structure the way Figure 4(c)
    /// presents it: the "Self Info" frame (dewey, label, kList, key
    /// number, cID) and one "Children Info" line per label item
    /// (counter, chkList, chcIDList).
    ///
    /// `k` is the query keyword count (needed for the paper's key-number
    /// convention). Returns `None` for nodes outside the fragment.
    #[must_use]
    pub fn render_node_info(&self, tree: &XmlTree, dewey: &Dewey, k: usize) -> Option<String> {
        use std::fmt::Write as _;
        let node = self.node(dewey)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Self Info: dewey={} label={} kList={} knum={} cID={:?}",
            node.dewey,
            tree.labels().name(node.label),
            render_klist(node.kset, k),
            node.kset.key_number(k),
            node.cid,
        );
        for group in self.label_groups(dewey) {
            let cids: Vec<&Cid> = group.children.iter().map(|c| &c.cid).collect();
            let _ = writeln!(
                out,
                "Children Info [{}]: counter={} chkList={:?} chcIDList={:?}",
                tree.labels().name(group.label),
                group.counter(),
                group.chk_list(k),
                cids,
            );
        }
        Some(out)
    }

    /// Renders the fragment as an indented outline resolving labels
    /// through a [`CorpusSource`]. Unlike [`Fragment::render`] no
    /// original text is available (shredded stores keep keywords, not
    /// raw text), so keyword nodes are marked with `*`.
    #[must_use]
    pub fn render_source<S: CorpusSource + ?Sized>(&self, source: &S) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let base = self.anchor.level();
        for n in self.iter() {
            let indent = "  ".repeat(n.dewey.level() - base);
            let label = source
                .label_name(n.label.as_u32())
                .unwrap_or_else(|| n.label.to_string());
            let marker = if n.is_keyword { " *" } else { "" };
            let _ = writeln!(out, "{indent}{label} [{}]{marker}", n.dewey);
        }
        out
    }

    /// Renders the fragment as an indented outline using the source
    /// tree's label table (for examples and debugging).
    #[must_use]
    pub fn render(&self, tree: &XmlTree) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let base = self.anchor.level();
        for n in self.iter() {
            let indent = "  ".repeat(n.dewey.level() - base);
            let label = tree.labels().name(n.label);
            let _ = write!(out, "{indent}{label} [{}]", n.dewey);
            if n.is_keyword {
                if let Some(id) = tree.node_by_dewey(&n.dewey) {
                    if let Some(text) = &tree.node(id).text {
                        let _ = write!(out, " {text:?}");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

/// The paper's bit-list rendering of a keyword set: `kList = 0 1 1 1 1`
/// with the first query keyword leftmost.
fn render_klist(kset: KeySet, k: usize) -> String {
    (0..k)
        .map(|i| if kset.contains(i) { "1" } else { "0" })
        .collect::<Vec<&str>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xks_index::{InvertedIndex, Query};
    use xks_lca::elca_stack;
    use xks_xmltree::fixtures::publications;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn q3_fragment() -> (XmlTree, Fragment) {
        let tree = publications();
        let index = InvertedIndex::build(&tree);
        let q = Query::parse("vldb title xml keyword search").unwrap();
        let sets = index.resolve(&q).unwrap();
        let anchors = elca_stack(sets.sets());
        let rtfs = crate::rtf::get_rtf(&anchors, &sets);
        assert_eq!(rtfs.len(), 1);
        let frag = Fragment::construct(&tree, &rtfs[0]);
        (tree, frag)
    }

    #[test]
    fn q3_fragment_is_figure_2c() {
        // The raw RTF of Figure 2(c): root, 0.0, the path through 0.2 to
        // all keyword nodes of both articles.
        let (_, frag) = q3_fragment();
        let got: Vec<String> = frag.deweys().iter().map(ToString::to_string).collect();
        assert_eq!(
            got,
            [
                "0",
                "0.0",
                "0.2",
                "0.2.0",
                "0.2.0.1",
                "0.2.0.2",
                "0.2.0.3",
                "0.2.0.3.0",
                "0.2.1",
                "0.2.1.1"
            ]
        );
    }

    #[test]
    fn q3_ksets_match_example_7_key_numbers() {
        // §4.1/Example 7: node 0.2 has kList 0 1 1 1 1 → key number 15;
        // child 0.2.0 → 15; child 0.2.1 → 8 (title only); and for the
        // MaxMatch illustration 0 0 1 1 1 → 7 would be a node with only
        // xml/keyword/search.
        let (_, frag) = q3_fragment();
        let k = 5;
        assert_eq!(frag.node(&d("0.2")).unwrap().kset.key_number(k), 15);
        assert_eq!(frag.node(&d("0.2.0")).unwrap().kset.key_number(k), 15);
        assert_eq!(frag.node(&d("0.2.1")).unwrap().kset.key_number(k), 8);
        assert_eq!(frag.node(&d("0.2.0.2")).unwrap().kset.key_number(k), 7);
        // Root covers everything.
        assert!(frag.node(&d("0")).unwrap().kset.covers_query(k));
    }

    #[test]
    fn q3_cids_aggregate_keyword_content() {
        let (_, frag) = q3_fragment();
        // Leaf keyword node: title 0.2.0.1 spans keyword..xml (§4.1).
        assert_eq!(
            frag.node(&d("0.2.0.1")).unwrap().cid,
            Some(("keyword".into(), "xml".into()))
        );
        // 0.2 absorbs both articles' keyword nodes: min is "abstract"
        // (the abstract node's label word; the paper's worked example
        // said "attribute" because it ignored labels — see
        // fixtures.rs docs), max "xml".
        assert_eq!(
            frag.node(&d("0.2")).unwrap().cid,
            Some(("abstract".into(), "xml".into()))
        );
        // Non-keyword interior node on a single path: inherits the one
        // keyword node's feature below it.
        assert_eq!(
            frag.node(&d("0.2.0.3")).unwrap().cid,
            frag.node(&d("0.2.0.3.0")).unwrap().cid
        );
    }

    #[test]
    fn children_groups_by_label() {
        let (_, frag) = q3_fragment();
        // Node 0.2 has two children with the same label "article": one
        // group, counter 2 (Example 7).
        let groups = frag.label_groups(&d("0.2"));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].counter(), 2);
        assert_eq!(groups[0].chk_list(5), vec![8, 15]);
        // Root has children 0.0 (title) and 0.2 (Articles): two groups.
        let groups = frag.label_groups(&d("0"));
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.counter() == 1));
    }

    #[test]
    fn keyword_flags() {
        let (_, frag) = q3_fragment();
        assert!(frag.node(&d("0.0")).unwrap().is_keyword);
        assert!(frag.node(&d("0.2.0.1")).unwrap().is_keyword);
        assert!(!frag.node(&d("0.2")).unwrap().is_keyword);
        assert!(!frag.node(&d("0.2.0.3")).unwrap().is_keyword);
    }

    #[test]
    fn anchor_equals_keyword_node_degenerate_fragment() {
        let tree = publications();
        let index = InvertedIndex::build(&tree);
        let q = Query::parse("liu keyword").unwrap();
        let sets = index.resolve(&q).unwrap();
        let anchors = elca_stack(sets.sets());
        let rtfs = crate::rtf::get_rtf(&anchors, &sets);
        // Second RTF: the ref node alone.
        let frag = Fragment::construct(&tree, &rtfs[1]);
        assert_eq!(frag.len(), 1);
        let n = frag.node(&d("0.2.0.3.0")).unwrap();
        assert!(n.is_keyword);
        assert!(n.kset.covers_query(2));
    }

    #[test]
    fn render_node_info_matches_figure_4c() {
        // Figure 4(c), top frame: node "0.2 (Articles)" for Q3 —
        // kList 0 1 1 1 1, key number 15, one "article" label item with
        // counter 2 and chkList [8, 15].
        let (tree, frag) = q3_fragment();
        let info = frag
            .render_node_info(&tree, &d("0.2"), 5)
            .expect("0.2 in fragment");
        assert!(info.contains("label=Articles"), "{info}");
        assert!(info.contains("kList=0 1 1 1 1"), "{info}");
        assert!(info.contains("knum=15"), "{info}");
        assert!(
            info.contains("[article]: counter=2 chkList=[8, 15]"),
            "{info}"
        );
        assert!(frag.render_node_info(&tree, &d("0.9"), 5).is_none());
    }

    #[test]
    fn to_xml_emits_kept_subtree() {
        let tree = publications();
        let index = InvertedIndex::build(&tree);
        let q = Query::parse("liu keyword").unwrap();
        let sets = index.resolve(&q).unwrap();
        let anchors = elca_stack(sets.sets());
        let rtfs = crate::rtf::get_rtf(&anchors, &sets);
        let frag = Fragment::construct(&tree, &rtfs[0]);
        let xml = frag.to_xml(&tree);
        assert!(xml.starts_with("<article>"));
        assert!(xml.contains("<name>Liu</name>"));
        assert!(xml.contains("</article>"));
        // Interior nodes carry no text.
        assert!(xml.contains("<authors>\n"));
        // Round-trips through the parser.
        let parsed = xks_xmltree::parse(&xml).unwrap();
        assert_eq!(parsed.len(), frag.len());
    }

    #[test]
    fn render_outline_readable() {
        let (tree, frag) = q3_fragment();
        let s = frag.render(&tree);
        assert!(s.starts_with("Publications [0]\n"));
        assert!(s.contains("  Articles [0.2]"));
        assert!(s.contains("\"VLDB\""));
    }
}
