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
//! Construction propagates each keyword node's keyword mask and content
//! feature to **all** its ancestors up to the anchor — the paper adds
//! lines 11–12 to `pruneRTF` precisely to guarantee this full
//! propagation; we implement the propagation directly per keyword node,
//! which yields the same summaries.

use xks_xmltree::content::{content_feature, node_content};
use xks_xmltree::{Dewey, LabelId, XmlTree};

use crate::keyset::KeySet;
use crate::rtf::Rtf;
use crate::source::{CorpusSource, SourceError};

/// The `cID` content feature: lexical `(min, max)` of a tree content
/// set (§4.1). `None` when no keyword-node content is below the node.
pub type Cid = Option<(String, String)>;

/// One node of a materialized fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragNode {
    /// Dewey code.
    pub dewey: Dewey,
    /// Interned label (resolve via the source tree's label table).
    pub label: LabelId,
    /// The tree keyword set `TK_v` restricted to this fragment
    /// (= `dMatch(v)` of MaxMatch).
    pub kset: KeySet,
    /// The content feature of the tree content set `TC_v` (Definition 3:
    /// union over the *keyword nodes* of the subtree).
    pub cid: Cid,
    /// `true` when the node is itself a keyword node of the query.
    pub is_keyword: bool,
    /// Children within the fragment, in document order.
    pub children: Vec<Dewey>,
}

/// A materialized RTF: anchor plus all path nodes, stored as one flat
/// vector **sorted by Dewey code** (= document order). Lookups are
/// binary searches; construction is a single stack pass over the
/// document-ordered keyword nodes, so building a fragment performs one
/// allocation for the vector instead of one tree node per entry.
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

/// The single-pass constructor shared by both backends: walks the
/// document-ordered keyword nodes with a stack mirroring the current
/// root-path inside the anchor subtree, emitting nodes **pre-order**
/// (= sorted by Dewey) and folding each popped child's keyword set and
/// content feature into its parent. One visit per fragment node instead
/// of one ancestor walk per keyword node, and no search tree.
///
/// Storage is asked once per node: `label_of` for the path nodes,
/// `keyword_node_of` — label and own-content feature together — for
/// the keyword nodes.
fn construct_stream(
    anchor: &Dewey,
    knodes: &[(Dewey, KeySet)],
    mut label_of: impl FnMut(&Dewey) -> LabelId,
    mut keyword_node_of: impl FnMut(&Dewey) -> (LabelId, Cid),
) -> Fragment {
    let mut nodes: Vec<FragNode> = Vec::new();
    let mut stack: Vec<usize> = Vec::new(); // indices into `nodes`, path order

    let open = |nodes: &mut Vec<FragNode>, stack: &mut Vec<usize>, dewey: Dewey, label| {
        if let Some(&parent) = stack.last() {
            nodes[parent].children.push(dewey.clone());
        }
        stack.push(nodes.len());
        nodes.push(FragNode {
            dewey,
            label,
            kset: KeySet::EMPTY,
            cid: None,
            is_keyword: false,
            children: Vec::new(),
        });
    };
    // Fold a popped child's summaries into its parent (§4.1's upward
    // propagation, done once per node instead of once per keyword
    // node × ancestor).
    let pop = |nodes: &mut Vec<FragNode>, stack: &mut Vec<usize>| {
        let child = stack.pop().expect("pop on non-empty stack");
        if let Some(&parent) = stack.last() {
            let (head, tail) = nodes.split_at_mut(child);
            let (parent, child) = (&mut head[parent], &tail[0]);
            parent.kset = parent.kset.union(child.kset);
            parent.cid = merge_cid_ref(parent.cid.take(), child.cid.as_ref());
        }
    };

    // The own-content feature of the keyword node opened last, until
    // the marking step below takes it.
    let mut own: Option<Cid> = None;
    // An anchor that is itself the first keyword node (every
    // single-keyword SLCA) is fetched as one.
    let anchor_label = if knodes.first().is_some_and(|(kd, _)| kd == anchor) {
        let (label, cid) = keyword_node_of(anchor);
        own = Some(cid);
        label
    } else {
        label_of(anchor)
    };
    open(&mut nodes, &mut stack, anchor.clone(), anchor_label);
    for (kd, mask) in knodes {
        debug_assert!(anchor.is_ancestor_or_self(kd), "knode outside anchor");
        let comps = kd.components();
        // Common prefix with the deepest open node bounds how far we
        // pop; the anchor itself always stays open.
        let deepest = &nodes[*stack.last().expect("anchor open")].dewey;
        let common = deepest
            .components()
            .iter()
            .zip(comps.iter())
            .take_while(|(a, b)| a == b)
            .count();
        while stack.len() > 1 && nodes[*stack.last().expect("non-empty")].dewey.len() > common {
            pop(&mut nodes, &mut stack);
        }
        // Open the path down to the keyword node; the last node opened
        // is the keyword node itself.
        let mut open_len = nodes[*stack.last().expect("non-empty")].dewey.len();
        while open_len < comps.len() {
            open_len += 1;
            let dewey = Dewey::from_slice(&comps[..open_len]);
            let label = if open_len == comps.len() {
                let (label, cid) = keyword_node_of(&dewey);
                own = Some(cid);
                label
            } else {
                label_of(&dewey)
            };
            open(&mut nodes, &mut stack, dewey, label);
        }
        // Mark the keyword node itself. Only a code listed twice in
        // `knodes` arrives here already open without its feature.
        let cid = own.take().unwrap_or_else(|| keyword_node_of(kd).1);
        let top = &mut nodes[*stack.last().expect("non-empty")];
        debug_assert_eq!(&top.dewey, kd);
        top.is_keyword = true;
        top.kset = top.kset.union(*mask);
        top.cid = match top.cid.take() {
            None => cid,
            held => merge_cid_ref(held, cid.as_ref()),
        };
    }
    while !stack.is_empty() {
        pop(&mut nodes, &mut stack);
    }

    Fragment {
        anchor: anchor.clone(),
        nodes,
    }
}

impl Fragment {
    /// Builds the fragment for one RTF — the constructing step.
    ///
    /// `tree` is the source document (for labels and keyword-node
    /// contents); `rtf` the keyword-node partition from
    /// [`crate::rtf::get_rtf`].
    #[must_use]
    pub fn construct(tree: &XmlTree, rtf: &Rtf) -> Self {
        construct_stream(
            &rtf.anchor,
            &rtf.knodes,
            |d| tree.node(tree_node(tree, d)).label,
            |d| {
                let id = tree_node(tree, d);
                let content = node_content(tree, id);
                (tree.node(id).label, content_feature(&content))
            },
        )
    }

    /// Builds the fragment for one RTF from a [`CorpusSource`] — the
    /// same constructing step as [`Fragment::construct`], but reading
    /// node facts (label, own-content feature) from the storage
    /// abstraction instead of the parsed tree. Used by the engine when
    /// it runs over shredded tables or an on-disk index.
    ///
    /// Path nodes cost one [`CorpusSource::try_element_label`] each (no
    /// content strings materialized), keyword nodes one
    /// [`CorpusSource::try_keyword_node`].
    ///
    /// Panics on what [`Fragment::try_construct_from_source`] reports
    /// as an error: a backend failure, or an RTF referencing a Dewey
    /// code the corpus does not contain (keyword nodes always come from
    /// the same corpus, so this indicates a corrupted index).
    #[must_use]
    pub fn construct_from_source<S: CorpusSource + ?Sized>(source: &S, rtf: &Rtf) -> Self {
        Self::try_construct_from_source(source, rtf)
            .unwrap_or_else(|e| panic!("fragment construction failed: {e}"))
    }

    /// Fallible form of [`Fragment::construct_from_source`]: backend
    /// failures (I/O, corruption, a node the corpus lost) surface as a
    /// typed [`SourceError`] instead of a panic — the constructing step
    /// `SearchEngine::execute` drives.
    pub fn try_construct_from_source<S: CorpusSource + ?Sized>(
        source: &S,
        rtf: &Rtf,
    ) -> Result<Self, SourceError> {
        use std::cell::RefCell;
        // The two lookup closures can't both borrow an error slot
        // mutably, so it rides in a RefCell; construction finishes the
        // walk on dummy facts after a failure and the error wins below.
        let first_error: RefCell<Option<SourceError>> = RefCell::new(None);
        let fail = |e: SourceError| {
            let mut slot = first_error.borrow_mut();
            if slot.is_none() {
                *slot = Some(e);
            }
        };
        let fragment = construct_stream(
            &rtf.anchor,
            &rtf.knodes,
            |d| match source.try_element_label(d) {
                Ok(Some(label)) => LabelId(label),
                Ok(None) => {
                    fail(SourceError::missing_node(d));
                    LabelId(0)
                }
                Err(e) => {
                    fail(e);
                    LabelId(0)
                }
            },
            |d| match source.try_keyword_node(d) {
                Ok(Some((label, cid))) => (LabelId(label), cid),
                Ok(None) => {
                    fail(SourceError::missing_node(d));
                    (LabelId(0), None)
                }
                Err(e) => {
                    fail(e);
                    (LabelId(0), None)
                }
            },
        );
        match first_error.into_inner() {
            Some(e) => Err(e),
            None => Ok(fragment),
        }
    }

    /// A fragment with exactly the given nodes, which must be sorted in
    /// document order (used by the pruning step to emit the filtered
    /// result).
    #[must_use]
    pub(crate) fn with_nodes(anchor: Dewey, nodes: Vec<FragNode>) -> Self {
        debug_assert!(nodes.is_sorted_by(|a, b| a.dewey < b.dewey));
        Fragment { anchor, nodes }
    }

    /// Consumes the fragment into its sorted node vector (the owned
    /// pruning path).
    #[must_use]
    pub(crate) fn into_nodes(self) -> Vec<FragNode> {
        self.nodes
    }

    /// Node lookup (binary search over the sorted vector).
    #[must_use]
    pub fn node(&self, dewey: &Dewey) -> Option<&FragNode> {
        self.nodes
            .binary_search_by(|n| n.dewey.cmp(dewey))
            .ok()
            .map(|i| &self.nodes[i])
    }

    /// `true` when the fragment contains `dewey`.
    #[must_use]
    pub fn contains(&self, dewey: &Dewey) -> bool {
        self.node(dewey).is_some()
    }

    /// All nodes in document order.
    pub fn iter(&self) -> impl Iterator<Item = &FragNode> {
        self.nodes.iter()
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
        let Some(node) = self.node(dewey) else {
            return Vec::new();
        };
        let mut groups: Vec<LabelGroup<'_>> = Vec::new();
        for child_d in &node.children {
            let child = self.node(child_d).expect("child in fragment");
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
        fn emit(frag: &Fragment, tree: &XmlTree, d: &Dewey, depth: usize, out: &mut String) {
            use std::fmt::Write as _;
            let node = frag.node(d).expect("emit called on fragment node");
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
            if node.children.is_empty() && text.is_none() {
                out.push_str("/>\n");
                return;
            }
            out.push('>');
            if let Some(t) = &text {
                out.push_str(&xks_xmltree::writer::escape_text(t));
            }
            if !node.children.is_empty() {
                out.push('\n');
                for c in &node.children {
                    emit(frag, tree, c, depth + 1, out);
                }
                out.push_str(&"  ".repeat(depth));
            }
            let _ = writeln!(out, "</{label}>");
        }
        let mut out = String::new();
        emit(self, tree, &self.anchor, 0, &mut out);
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

fn tree_node(tree: &XmlTree, dewey: &Dewey) -> xks_xmltree::NodeId {
    tree.node_by_dewey(dewey)
        .unwrap_or_else(|| panic!("RTF references node {dewey} missing from the tree"))
}

/// The paper's bit-list rendering of a keyword set: `kList = 0 1 1 1 1`
/// with the first query keyword leftmost.
fn render_klist(kset: KeySet, k: usize) -> String {
    (0..k)
        .map(|i| if kset.contains(i) { "1" } else { "0" })
        .collect::<Vec<&str>>()
        .join(" ")
}

/// Merges a borrowed content feature into an owned one: lexical min of
/// mins, max of maxes. Exact for `(min, max)` of a union of sets; `b`'s
/// strings are cloned only when they win (keyword-node features are
/// merged into every ancestor, so the non-winning — common — case must
/// not clone).
fn merge_cid_ref(a: Cid, b: Option<&(String, String)>) -> Cid {
    match (a, b) {
        (Some((amin, amax)), Some((bmin, bmax))) => Some((
            if *bmin < amin { bmin.clone() } else { amin },
            if *bmax > amax { bmax.clone() } else { amax },
        )),
        (Some(x), None) => Some(x),
        (None, Some(x)) => Some(x.clone()),
        (None, None) => None,
    }
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
