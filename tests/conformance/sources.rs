//! The source axis: every backend a query can run over, opened over one
//! corpus, and the contract every source must keep before any cell
//! queries it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use xks::core::fragment::Cid;
use xks::core::{CorpusSource, MemoryCorpus, SearchEngine, SearchRequest, ShardSet};
use xks::core::{SourceElement, SourceError, TreeCorpus};
use xks::persist::{write_sharded, IndexReader, IndexWriter, MutableCorpus, ShardedCorpus};
use xks::store::{partition, shred};
use xks::xmltree::writer::to_xml_subtree;
use xks::xmltree::{Dewey, XmlTree};

/// Shards of every sharded source.
pub const SHARDS: usize = 3;

/// The source axis, in the order [`open_all`] returns the sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `TreeCorpus`, the parsed document.
    Tree,
    /// `MemoryCorpus` over the shredded tables.
    Memory,
    /// A mono `.xks` reader opened for the cell alone.
    XksFresh,
    /// A mono `.xks` reader the workload already ran through in
    /// reverse, so lookups meet the state other queries left.
    XksWarmed,
    /// A `ShardSet` of `MemoryCorpus` parts, through `from_shard_set`.
    ShardsMemory,
    /// `write_sharded` on disk, reopened, through `from_shard_set`.
    ShardsDisk,
    /// The same `ShardedCorpus` as a plain source.
    ShardsDiskPlain,
    /// A `MutableCorpus` filled one document at a time, compacted and
    /// reopened halfway, then reopened so the rest replays from the WAL.
    Mutable,
}

/// The anchor pass as the source's statistics choose it, or forced
/// onto the k-way merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    Planned,
    Merge,
}

/// A corpus under test: a tree whose root holds no text, so its
/// top-level children are its documents (what a live corpus stores).
pub struct Corpus {
    pub name: String,
    pub oracle: Arc<TreeCorpus>,
}

impl Corpus {
    pub fn new(name: &str, tree: XmlTree) -> Self {
        assert!(tree.node(tree.root()).text.is_none(), "{name}: root text");
        let oracle = Arc::new(TreeCorpus::new(tree));
        Corpus {
            name: name.to_owned(),
            oracle,
        }
    }

    pub fn tree(&self) -> &XmlTree {
        self.oracle.tree()
    }
}

/// One source opened over one corpus: the source, the set when the
/// engine is built with `from_shard_set`, and the file a fresh reader
/// reopens.
pub struct Opened(Arc<dyn CorpusSource>, Option<ShardSet>, Option<PathBuf>);

/// What one cell queries.
pub struct Handle(Arc<dyn CorpusSource>, Option<ShardSet>);

impl Handle {
    /// A new engine; engines of one handle share every cache.
    pub fn engine(&self) -> SearchEngine {
        match &self.1 {
            Some(set) => SearchEngine::from_shard_set(set.clone()),
            None => SearchEngine::from_source(Arc::clone(&self.0)),
        }
    }
}

impl Opened {
    /// The handle one cell queries. A fresh `.xks` source is reopened
    /// from its file on every call.
    pub fn handle(&self, plan: Plan) -> Handle {
        let source = match &self.2 {
            Some(file) => Arc::new(IndexReader::open(file).unwrap()),
            None => Arc::clone(&self.0),
        };
        match (plan, &self.1) {
            (Plan::Planned, set) => Handle(source, set.clone()),
            (Plan::Merge, Some(set)) => {
                let shards = set.shards().iter().map(|s| no_stats(Arc::clone(s)));
                let set = ShardSet::new(shards.collect(), set.first_docs().to_vec());
                Handle(source, Some(set.unwrap()))
            }
            (Plan::Merge, None) => Handle(no_stats(source), None),
        }
    }
}

/// Opens every source over `corpus`, writing its files under `dir`,
/// warms the warmed reader with `warm_up` in reverse, and checks each
/// source's contract against the tree.
pub fn open_all(corpus: &Corpus, dir: &Path, warm_up: &[SearchRequest]) -> Vec<Opened> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let doc = shred(corpus.tree());
    let xks = dir.join("corpus.xks");
    IndexWriter::new().write(&doc, &xks).unwrap();
    let manifest = dir.join("shards").join("corpus.xksm");
    std::fs::create_dir_all(manifest.parent().unwrap()).unwrap();
    write_sharded(&IndexWriter::new(), &doc, &manifest, SHARDS).unwrap();
    let disk = Arc::new(ShardedCorpus::open(&manifest).unwrap());

    let parts = partition(&doc, SHARDS);
    let first_docs = parts.iter().map(|p| p.first_doc).collect();
    let parts = parts
        .into_iter()
        .map(|p| Arc::new(MemoryCorpus::new(p.doc)) as _);
    let memory_set = ShardSet::new(parts.collect(), first_docs).unwrap();

    let warmed = Arc::new(IndexReader::open(&xks).unwrap());
    let engine = SearchEngine::from_source(Arc::clone(&warmed) as _);
    for request in warm_up.iter().rev() {
        engine.execute(request).unwrap();
    }

    let (mutable, sealed_docs) = fill_mutable(corpus.tree(), &dir.join("mutable"));
    let fresh = Arc::new(IndexReader::open(&xks).unwrap());
    let all = vec![
        Opened(Arc::clone(&corpus.oracle) as _, None, None),
        Opened(Arc::new(MemoryCorpus::new(doc)), None, None),
        Opened(fresh, None, Some(xks)),
        Opened(warmed, None, None),
        Opened(Arc::new(memory_set.clone()), Some(memory_set), None),
        Opened(Arc::new(disk.shard_set()), Some(disk.shard_set()), None),
        Opened(disk, None, None),
        Opened(mutable, None, None),
    ];
    let facts = tree_facts(&corpus.oracle);
    std::thread::scope(|scope| {
        for (i, opened) in all.iter().enumerate() {
            let at = format!("{} on source {i}", corpus.name);
            let base_docs = if i == Source::Mutable as usize {
                sealed_docs
            } else {
                u32::MAX
            };
            let oracle = (corpus.oracle.as_ref(), &facts);
            let sealed = sealed_below(Some(base_docs));
            scope.spawn(move || check_contract(&at, opened.0.as_ref(), oracle, sealed));
        }
    });
    all
}

/// A tree's documents, one XML string each, and its root label.
pub fn documents(tree: &XmlTree) -> (String, Vec<String>) {
    let root = tree.root();
    let docs = tree
        .node(root)
        .children()
        .iter()
        .map(|&c| to_xml_subtree(tree, c));
    (tree.label_name(root).to_owned(), docs.collect())
}

/// The live corpus of [`Source::Mutable`], and how many documents its
/// sealed base holds.
fn fill_mutable(tree: &XmlTree, dir: &Path) -> (Arc<dyn CorpusSource>, u32) {
    let (root_label, docs) = documents(tree);
    let half = docs.len() / 2;
    let mut corpus = MutableCorpus::create(dir, &root_label).unwrap();
    for (i, xml) in docs.iter().enumerate() {
        if i == half {
            // Reopened on the fresh base: recovery derives the next
            // ordinal from the base alone.
            corpus.compact(SHARDS).unwrap();
            drop(corpus);
            corpus = MutableCorpus::open(dir).unwrap();
        }
        assert_eq!(corpus.insert_xml(xml).unwrap() as usize, i);
    }
    drop(corpus);
    let corpus = MutableCorpus::open(dir).unwrap();
    (corpus.source(), half as u32)
}

/// When a live corpus holds sealed statistics for a posting list:
/// when a base exists and holds every posting, which it does for the
/// root and for the documents below `base_docs`.
pub fn sealed_below(base_docs: Option<u32>) -> impl Fn(&[Dewey]) -> bool {
    move |postings| {
        base_docs.is_some_and(|docs| {
            (postings.iter()).all(|d| d.components().get(1).is_none_or(|&o| o < docs))
        })
    }
}

/// What the tree says of each node (and of one absent node): label
/// name, level and own-content feature.
pub type Facts = Vec<(Dewey, Option<(String, u32, Cid)>)>;

pub fn tree_facts(oracle: &TreeCorpus) -> Facts {
    let tree = oracle.tree();
    let absent: Dewey = "0.9999.9".parse().unwrap();
    let nodes = tree.preorder().map(|id| tree.dewey(id).clone());
    (nodes.chain([absent]))
        .map(|d| {
            let e = oracle.try_element(&d).unwrap();
            let facts = e.map(|e| (oracle.label_name(e.label).unwrap(), e.level, e.keyword_cid));
            (d, facts)
        })
        .collect()
}

/// The source contract, fact by fact against the parsed tree: every
/// node's label, level and own-content feature, `try_keyword_node`
/// equal to `try_element`'s parts, every word's postings sorted and
/// deduplicated and equal to the tree's, and statistics equal to the
/// tree's wherever `sealed` says the source holds them.
pub fn check_contract(
    at: &str,
    source: &dyn CorpusSource,
    (oracle, facts): (&TreeCorpus, &Facts),
    sealed: impl Fn(&[Dewey]) -> bool,
) {
    assert_eq!(source.node_count(), oracle.node_count(), "{at}: node count");
    for (dewey, want) in facts {
        let got = source.try_element(dewey).unwrap();
        let label = source.try_element_label(dewey).unwrap();
        let knode = source.try_keyword_node(dewey).unwrap();
        assert_eq!(
            got.as_ref().map(|e| e.label),
            label,
            "{at}: label of {dewey}"
        );
        let got = got.map(|e| (e.label, e.level, e.keyword_cid));
        let parts = got.as_ref().map(|(label, _, cid)| (*label, cid.clone()));
        assert_eq!(parts, knode, "{at}: keyword node {dewey}");
        let got = got.map(|(l, level, cid)| (source.label_name(l).unwrap(), level, cid));
        assert_eq!(&got, want, "{at}: {dewey}");
    }
    let vocabulary = oracle.index().frequencies().map(|(word, _)| word);
    for word in vocabulary.chain(["unobtainium"]) {
        let postings = source.try_keyword_deweys(word).unwrap();
        assert!(
            postings.windows(2).all(|w| w[0] < w[1]),
            "{at}: {word:?} order"
        );
        assert_eq!(
            postings,
            oracle.index().postings(word),
            "{at}: postings of {word:?}"
        );
        let want = sealed(&postings).then(|| oracle.keyword_stats(word).unwrap());
        assert_eq!(source.keyword_stats(word), want, "{at}: stats of {word:?}");
    }
}

fn no_stats(source: Arc<dyn CorpusSource>) -> Arc<dyn CorpusSource> {
    Arc::new(NoStats(source))
}

/// A source without sealed statistics: the default `keyword_stats`
/// (`None`) forces the planner onto the k-way merge.
#[derive(Debug)]
struct NoStats(Arc<dyn CorpusSource>);

impl CorpusSource for NoStats {
    fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        self.0.try_keyword_deweys(keyword)
    }
    fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        self.0.try_element(dewey)
    }
    fn label_name(&self, label: u32) -> Option<String> {
        self.0.label_name(label)
    }
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        self.0.try_element_label(dewey)
    }
    fn try_keyword_node(&self, dewey: &Dewey) -> Result<Option<(u32, Cid)>, SourceError> {
        self.0.try_keyword_node(dewey)
    }
}
