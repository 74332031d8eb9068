//! What the query commands share: opening the backend they name and
//! turning query strings (or a query file) into requests.

use std::path::Path;
use std::sync::Arc;

use xks::core::engine::{AlgorithmKind, SearchEngine};
use xks::core::executor::run_batch_stats;
use xks::core::SearchRequest;
use xks::obs::MetricSource;
use xks::persist::{IndexReader, MutableCorpus, PersistError, ShardedCorpus};
use xks::xmltree::XmlTree;

use super::Args;

pub fn load_tree(path: &str) -> Result<XmlTree, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    xks::xmltree::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The live-metrics handle of an opened index: shares its readers with
/// the engine (`Arc` all the way down), so the counters a workload
/// bumps are the ones it collects.
pub type IndexMetrics = Arc<dyn MetricSource + Send + Sync>;

/// A stored backend's live-metrics handle and the prefix its counters
/// report under (`index.` / `corpus.`); a parsed XML file has none.
pub type Collector = (&'static str, IndexMetrics);

/// An index file opened as what its magic says it is: a shard manifest
/// (`build-index --shards N`) or a monolithic `.xks`.
pub enum StoredIndex {
    Sharded(ShardedCorpus),
    Single(Arc<IndexReader>),
}

impl StoredIndex {
    pub fn open(path: &str) -> Result<Self, String> {
        use std::io::Read as _;
        let mut magic = [0u8; 4];
        let mut file =
            std::fs::File::open(path).map_err(|e| format!("cannot open index {path}: {e}"))?;
        // A file shorter than any magic is left to the reader to diagnose.
        if file.read_exact(&mut magic).is_ok() && magic == xks::persist::shard::MANIFEST_MAGIC {
            let corpus = ShardedCorpus::open(Path::new(path));
            let corpus = corpus.map_err(|e| format!("cannot open sharded index {path}: {e}"))?;
            Ok(Self::Sharded(corpus))
        } else {
            let reader = IndexReader::open(Path::new(path));
            let reader = reader.map_err(|e| format!("cannot open index {path}: {e}"))?;
            Ok(Self::Single(Arc::new(reader)))
        }
    }

    /// Streams the CRC verification of every section (of every shard).
    pub fn verify(&self) -> Result<(), PersistError> {
        match self {
            Self::Sharded(corpus) => corpus.verify(),
            Self::Single(reader) => reader.verify(),
        }
    }
}

/// Opens the backend a query command names — `--corpus <dir>`,
/// `--index <file.xks|file.xksm>`, or a leading `<file.xml>`
/// positional — and returns the positionals it did not consume.
pub fn open_engine(args: &Args) -> Result<(SearchEngine, Option<Collector>, &[String]), String> {
    let positionals = args.positionals.as_slice();
    if let Some(dir) = args.str("corpus") {
        let corpus = MutableCorpus::open(Path::new(dir))
            .map_err(|e| format!("cannot open corpus {dir}: {e}"))?;
        let engine = SearchEngine::from_source(corpus.source() as _);
        Ok((engine, Some(("corpus.", Arc::new(corpus))), positionals))
    } else if let Some(index_file) = args.str("index") {
        // A manifest becomes a sharded engine, a monolithic `.xks` the
        // single-reader engine.
        let (engine, metrics): (_, IndexMetrics) = match StoredIndex::open(index_file)? {
            StoredIndex::Sharded(corpus) => (
                SearchEngine::from_shard_set(corpus.shard_set()),
                Arc::new(corpus),
            ),
            StoredIndex::Single(reader) => {
                (SearchEngine::from_source(Arc::clone(&reader) as _), reader)
            }
        };
        Ok((engine, Some(("index.", metrics)), positionals))
    } else {
        let [file, rest @ ..] = positionals else {
            return Err(args.usage_error("names no backend"));
        };
        Ok((SearchEngine::new(load_tree(file)?), None, rest))
    }
}

/// Builds one request per query string, applying the shared flags.
pub fn build_requests(
    texts: &[String],
    algo: AlgorithmKind,
    top_k: Option<usize>,
    ranked: bool,
    traced: bool,
) -> Result<Vec<SearchRequest>, String> {
    texts
        .iter()
        .map(|text| {
            let mut request = SearchRequest::parse(text)
                .map_err(|e| format!("{e} (in query {text:?})"))?
                .algorithm(algo)
                .trace(traced);
            if let Some(k) = top_k {
                request = request.top_k(k);
            }
            if ranked {
                request = request.rank();
            }
            Ok(request)
        })
        .collect()
}

/// Runs a query workload file once through the executor — one query per
/// line, blank lines and `#` comments skipped — failing on the first
/// backend error, and returns its requests for further sweeps.
pub fn replay(
    engine: &SearchEngine,
    queries_file: &str,
    algo: AlgorithmKind,
    (top_k, threads): (Option<usize>, usize),
) -> Result<Vec<SearchRequest>, String> {
    let text = std::fs::read_to_string(queries_file)
        .map_err(|e| format!("cannot read {queries_file}: {e}"))?;
    let lines: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect();
    let requests = build_requests(&lines, algo, top_k, false, false)?;
    if requests.is_empty() {
        return Err(format!("{queries_file} holds no queries"));
    }
    for result in run_batch_stats(engine, &requests, threads).0 {
        result.map_err(|e| e.to_string())?;
    }
    Ok(requests)
}
