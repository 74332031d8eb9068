//! The shredder: `XmlTree` → [`ShreddedDoc`].
//!
//! One row emitter serves both entry points. It walks the tree once in
//! pre-order, emitting each node's `value` rows (label, text and
//! attribute words, stop words removed) and its `element` row: the
//! paper's *label number sequence* (the label ids along the root path,
//! §5.2 footnote 11) and the `(min, max)` feature of the node's own
//! content, folded from the words just emitted. A reverse pass then
//! widens each subtree's content feature (cID) into its parent's.
//! [`shred`] emits a tree as its own corpus; [`shred_document`] emits
//! one document spliced under an existing corpus root.

use xks_xmltree::tokenizer::tokenize_filtered;
use xks_xmltree::tree::{NodeId, XmlTree};
use xks_xmltree::Dewey;

use crate::tables::{ElementRow, ShreddedDoc, ValueRow, WordSource};

/// Shreds a document into the three tables.
#[must_use]
pub fn shred(tree: &XmlTree) -> ShreddedDoc {
    let labels: Vec<String> = tree.labels().iter().map(|(_, n)| n.to_owned()).collect();
    let identity: Vec<u32> = (0..labels.len() as u32).collect();
    let (elements, values) = emit_rows(tree, &identity, None);
    let mut doc = ShreddedDoc::from_tables(labels, elements, values);
    doc.rebuild_indexes();
    doc
}

/// Shreds one standalone document *into* an existing corpus: rows come
/// back re-addressed as the `ordinal`-th child of the corpus root
/// (document root `0` becomes `0.<ordinal>`, levels shift down one,
/// label paths gain the corpus root's label in front) and label ids are
/// resolved against — extending, when a name is new — the shared
/// corpus dictionary in `labels`.
///
/// This is the mutable-corpus insert path: appending these rows to the
/// corpus tables yields exactly what re-shredding the whole corpus with
/// the document spliced in would, because the emitter derives every
/// row locally from the node and its root path (a sibling subtree never
/// influences another's rows).
#[must_use]
pub fn shred_document(
    tree: &XmlTree,
    ordinal: u32,
    corpus_root_label: u32,
    labels: &mut Vec<String>,
) -> (Vec<ElementRow>, Vec<ValueRow>) {
    // Local label id -> shared corpus label id, find-or-append by name.
    let label_map: Vec<u32> = tree
        .labels()
        .iter()
        .map(|(_, name)| match labels.iter().position(|l| l == name) {
            Some(idx) => idx as u32,
            None => {
                labels.push((*name).to_owned());
                (labels.len() - 1) as u32
            }
        })
        .collect();
    let splice = Splice {
        ordinal,
        root_label: corpus_root_label,
    };
    emit_rows(tree, &label_map, Some(splice))
}

/// Where [`shred_document`] puts a document: under the corpus root, as
/// its `ordinal`-th child.
struct Splice {
    ordinal: u32,
    root_label: u32,
}

/// Emits the `element` and `value` rows of every node of `tree`, in
/// pre-order, with label ids translated through `label_map` and, under
/// a [`Splice`], Deweys, levels and label paths re-rooted.
fn emit_rows(
    tree: &XmlTree,
    label_map: &[u32],
    splice: Option<Splice>,
) -> (Vec<ElementRow>, Vec<ValueRow>) {
    let order: Vec<NodeId> = tree.preorder().collect();
    let mut row_of = vec![0usize; tree.len()];
    let mut elements: Vec<ElementRow> = Vec::with_capacity(order.len());
    let mut values = Vec::new();
    for (row, &id) in order.iter().enumerate() {
        row_of[id.index()] = row;
        let node = tree.node(id);
        let label = label_map[node.label.as_u32() as usize];
        let dewey = match &splice {
            None => node.dewey.to_string(),
            Some(splice) => {
                let comps = node.dewey.components();
                let mut out = Vec::with_capacity(comps.len() + 1);
                out.extend([0, splice.ordinal]);
                out.extend_from_slice(&comps[1..]);
                Dewey::from_components(out).to_string()
            }
        };

        let mut own_feature = None;
        let mut push_value = |source: WordSource, keyword: String| {
            widen(&mut own_feature, &keyword, &keyword);
            values.push(ValueRow {
                label,
                dewey: dewey.clone(),
                source,
                keyword,
            });
        };
        for word in tokenize_filtered(tree.label_name(id)) {
            push_value(WordSource::Label, word);
        }
        if let Some(text) = &node.text {
            for word in tokenize_filtered(text) {
                push_value(WordSource::Text, word);
            }
        }
        for attr in &node.attributes {
            for word in tokenize_filtered(&attr.name).chain(tokenize_filtered(&attr.value)) {
                push_value(WordSource::Attribute(attr.name.clone()), word);
            }
        }

        let mut label_path = match node.parent() {
            Some(parent) => elements[row_of[parent.index()]].label_path.clone(),
            None => splice.iter().map(|s| s.root_label).collect(),
        };
        label_path.push(label);
        elements.push(ElementRow {
            label,
            dewey,
            level: (label_path.len() - 1) as u32,
            label_path,
            content_feature: own_feature.clone(),
            own_feature,
        });
    }

    // Children follow their parent in pre-order, so walking the rows
    // backwards finishes every subtree feature before it is widened
    // into the parent's.
    for (row, &id) in order.iter().enumerate().rev() {
        let Some(parent) = tree.node(id).parent() else {
            continue;
        };
        let (head, tail) = elements.split_at_mut(row);
        if let Some((min, max)) = &tail[0].content_feature {
            widen(&mut head[row_of[parent.index()]].content_feature, min, max);
        }
    }
    (elements, values)
}

/// Widens a `(min, max)` content feature to cover `min..=max` — the one
/// fold behind both the own-content and the subtree features.
fn widen(feature: &mut Option<(String, String)>, min: &str, max: &str) {
    match feature {
        None => *feature = Some((min.to_owned(), max.to_owned())),
        Some((lo, hi)) => {
            if min < lo.as_str() {
                min.clone_into(lo);
            }
            if max > hi.as_str() {
                max.clone_into(hi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xks_xmltree::fixtures::publications;
    use xks_xmltree::TreeBuilder;

    #[test]
    fn element_rows_cover_all_nodes_in_preorder() {
        let t = publications();
        let doc = shred(&t);
        assert_eq!(doc.elements.len(), t.len());
        let deweys: Vec<&str> = doc.elements.iter().map(|r| r.dewey.as_str()).collect();
        let mut sorted = deweys.clone();
        sorted.sort_by_key(|d| d.parse::<xks_xmltree::Dewey>().unwrap());
        assert_eq!(deweys, sorted);
    }

    #[test]
    fn label_paths_follow_root_path() {
        let t = publications();
        let doc = shred(&t);
        let row = doc
            .elements
            .iter()
            .find(|r| r.dewey == "0.2.0.0.0.0")
            .unwrap();
        let names: Vec<&str> = row.label_path.iter().map(|&l| doc.label_name(l)).collect();
        assert_eq!(
            names,
            [
                "Publications",
                "Articles",
                "article",
                "authors",
                "author",
                "name"
            ]
        );
        assert_eq!(row.level, 5);
    }

    #[test]
    fn value_rows_distinguish_sources() {
        let mut b = TreeBuilder::new("article");
        b.open_with_attrs("ref", &[("venue", "sigmod")]);
        b.text("skyline");
        b.close();
        let t = b.build();
        let doc = shred(&t);
        let sources: Vec<(&str, &WordSource)> = doc
            .values
            .iter()
            .filter(|r| r.dewey == "0.0")
            .map(|r| (r.keyword.as_str(), &r.source))
            .collect();
        assert!(sources.contains(&("ref", &WordSource::Label)));
        assert!(sources.contains(&("skyline", &WordSource::Text)));
        assert!(sources
            .iter()
            .any(|(w, s)| *w == "sigmod" && matches!(s, WordSource::Attribute(a) if a == "venue")));
        // attribute *name* words are emitted too
        assert!(sources
            .iter()
            .any(|(w, s)| *w == "venue" && matches!(s, WordSource::Attribute(_))));
    }

    #[test]
    fn keyword_lookup_matches_fixture_expectations() {
        let doc = shred(&publications());
        let liu: Vec<String> = doc.postings()["liu"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(liu, ["0.2.0.0.0.0", "0.2.0.3.0"]);
    }

    #[test]
    fn content_features_aggregate_subtrees() {
        let doc = shred(&publications());
        let row = |dewey: &str| doc.elements.iter().find(|r| r.dewey == dewey).unwrap();
        // Leaf: title of the skyline paper; own content = subtree content.
        let title = row("0.2.0.1");
        let words = Some(("keyword".into(), "xml".into()));
        assert_eq!(title.content_feature, words);
        assert_eq!(title.own_feature, words);
        // Interior: the whole document spans "2008" .. "z", while the
        // root's own content is its label alone.
        let root = row("0");
        let (min, max) = root.content_feature.clone().unwrap();
        assert!(min.as_str() <= "abstract");
        assert!(max.as_str() >= "xml");
        assert_eq!(
            root.own_feature,
            Some(("publications".into(), "publications".into()))
        );
    }

    #[test]
    fn own_features_fold_the_value_rows() {
        let doc = shred(&publications());
        for row in &doc.elements {
            let words = doc.values.iter().filter(|v| v.dewey == row.dewey);
            let min = words.clone().map(|v| v.keyword.clone()).min();
            let max = words.map(|v| v.keyword.clone()).max();
            assert_eq!(row.own_feature, min.zip(max), "{}", row.dewey);
        }
    }

    #[test]
    fn shred_document_matches_whole_corpus_shred() {
        let combined = xks_xmltree::parse(
            "<pubs><paper><title>alpha beta</title></paper>\
             <note venue=\"gamma\">delta</note></pubs>",
        )
        .unwrap();
        let oracle = shred(&combined);

        // Rebuild the same corpus incrementally: empty root, then each
        // document shredded standalone and spliced in at its ordinal.
        let empty = shred(&xks_xmltree::parse("<pubs/>").unwrap());
        let mut labels = empty.labels.clone();
        let mut elements = empty.elements.clone();
        let mut values = empty.values.clone();
        for (ordinal, xml) in [
            "<paper><title>alpha beta</title></paper>",
            "<note venue=\"gamma\">delta</note>",
        ]
        .iter()
        .enumerate()
        {
            let tree = xks_xmltree::parse(xml).unwrap();
            let (e, v) = shred_document(&tree, ordinal as u32, 0, &mut labels);
            elements.extend(e);
            values.extend(v);
        }

        assert_eq!(labels, oracle.labels);
        assert_eq!(values, oracle.values);
        assert_eq!(elements.len(), oracle.elements.len());
        for (got, want) in elements.iter().zip(&oracle.elements) {
            if want.dewey == "0" {
                // The corpus root's subtree feature goes stale under
                // incremental insert (and is never read by queries);
                // everything else about the row must match.
                assert_eq!(got.label, want.label);
                assert_eq!(got.label_path, want.label_path);
            } else {
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn stop_words_do_not_reach_value_table() {
        let doc = shred(&publications());
        assert_eq!(doc.keyword_frequency("with"), 0);
        assert_eq!(doc.keyword_frequency("for"), 0);
        assert!(doc.keyword_frequency("xml") > 0);
    }
}
