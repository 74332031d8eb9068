//! One conformance harness for every way a query can be answered.
//!
//! A cell picks one value on each of six axes: the source (see
//! [`sources::Source`]), the entry point (`execute_with`, pooled
//! `execute`, `run_batch` at 1 and 2 threads, `POST /search` over a
//! socket), the plan (as the source's statistics choose, or forced onto
//! the k-way merge), tracing, the algorithm, and the spec (plain
//! keywords, or operators). [`CELLS`] is an all-pairs table of them:
//! every pair of values of two axes meets in at least one cell.
//!
//! Every cell answers against two oracles:
//!
//! * the golden digests: the 43 Figure 5/6 queries on the DBLP and
//!   XMark corpora must reproduce `tests/golden/workload_digest.txt`
//!   line for line; under operators, each query's operator variant must
//!   return exactly the plain answer's fragments that docs/API.md's
//!   rules keep (`tests/common/reference.rs`);
//! * the paper-literal reference of [`oracle`] on small random corpora:
//!   anchors and kept nodes of every fragment.
//!
//! Every source passes the source contract against `TreeCorpus` before
//! any cell queries it. The named tests after the cells keep what no
//! cell states: ranked answers, buffer-pool laziness, typed errors on a
//! damaged manifest, shard filters, racing threads, and live-corpus
//! histories.
//!
//! Re-bless the golden files deliberately with `XKS_BLESS_GOLDEN=1
//! cargo test -q --test conformance digest`.

mod common;
#[path = "conformance/oracle.rs"]
mod oracle;
#[path = "conformance/sources.rs"]
mod sources;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, OnceLock};

use common::reference::{judge, postings};
use common::{digest_line, ALGORITHMS, GOLDEN, MATRIX_GOLDEN};
use oracle::{random_corpus, random_queries, Answer, Gen, RANDOM_CORPORA};
use sources::{check_contract, documents, open_all, sealed_below, tree_facts};
use sources::{Corpus, Opened, Plan, Source};
use xks::core::plan::PlanStrategy;
use xks::core::TreeCorpus;
use xks::core::{run_batch, wire, AlgorithmKind, CorpusSource, Fragment, MemoryCorpus};
use xks::core::{QueryContext, SearchEngine, SearchRequest, SearchResponse};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::scenario::ScenarioSpec;
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::persist::ShardedCorpus;
use xks::persist::{write_sharded, IndexReader, IndexWriter, MutableCorpus, PersistError};
use xks::serve::client::Conn;
use xks::serve::{Server, ServerConfig};
use xks::store::json;
use xks::store::{shred, ShreddedDoc};
use xks::xmltree::{Dewey, XmlTree};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    ExecuteWith,
    Execute,
    Batch(usize),
    Http,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trace {
    Off,
    On,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spec {
    Plain,
    Operators,
}

#[derive(Debug, Clone, Copy)]
struct Cell(Source, Entry, Plan, Trace, AlgorithmKind, Spec);

use AlgorithmKind::{MaxMatchRtf as MaxMatch, MaxMatchSlca as Slca, ValidRtf as Valid};
use Entry::{Batch, Execute, ExecuteWith, Http};
use Plan::{Merge, Planned};
use Source::{
    Memory, Mutable, ShardsDisk, ShardsDiskPlain, ShardsMemory, Tree, XksFresh, XksWarmed,
};
use Spec::{Operators, Plain};
use Trace::{Off, On};

/// The all-pairs table: 40 of the 960 combinations.
#[rustfmt::skip]
const CELLS: [Cell; 40] = [
    Cell(Tree, ExecuteWith, Merge, Off, MaxMatch, Plain),
    Cell(Memory, ExecuteWith, Planned, Off, Valid, Operators),
    Cell(XksFresh, ExecuteWith, Merge, Off, Valid, Plain),
    Cell(XksWarmed, ExecuteWith, Merge, Off, MaxMatch, Plain),
    Cell(ShardsMemory, ExecuteWith, Planned, On, Slca, Operators),
    Cell(ShardsDisk, ExecuteWith, Merge, Off, Slca, Plain),
    Cell(ShardsDiskPlain, ExecuteWith, Planned, Off, Valid, Operators),
    Cell(Mutable, ExecuteWith, Merge, On, Valid, Plain),
    Cell(Tree, Execute, Planned, On, Slca, Plain),
    Cell(Memory, Execute, Planned, On, Slca, Plain),
    Cell(XksFresh, Execute, Planned, Off, MaxMatch, Plain),
    Cell(XksWarmed, Execute, Merge, On, Valid, Operators),
    Cell(ShardsMemory, Execute, Planned, Off, Slca, Plain),
    Cell(ShardsDisk, Execute, Planned, Off, MaxMatch, Operators),
    Cell(ShardsDiskPlain, Execute, Planned, On, MaxMatch, Operators),
    Cell(Mutable, Execute, Merge, On, Slca, Operators),
    Cell(Tree, Batch(1), Planned, Off, Valid, Operators),
    Cell(Memory, Batch(1), Merge, On, Slca, Plain),
    Cell(XksFresh, Batch(1), Merge, On, Slca, Plain),
    Cell(XksWarmed, Batch(1), Merge, On, MaxMatch, Operators),
    Cell(ShardsMemory, Batch(1), Planned, Off, Valid, Plain),
    Cell(ShardsDisk, Batch(1), Merge, Off, MaxMatch, Operators),
    Cell(ShardsDiskPlain, Batch(1), Merge, Off, MaxMatch, Operators),
    Cell(Mutable, Batch(1), Merge, On, MaxMatch, Plain),
    Cell(Tree, Batch(2), Planned, On, Slca, Operators),
    Cell(Memory, Batch(2), Planned, On, MaxMatch, Plain),
    Cell(XksFresh, Batch(2), Planned, Off, MaxMatch, Operators),
    Cell(XksWarmed, Batch(2), Planned, Off, Slca, Operators),
    Cell(ShardsMemory, Batch(2), Merge, On, Slca, Operators),
    Cell(ShardsDisk, Batch(2), Planned, On, Valid, Operators),
    Cell(ShardsDiskPlain, Batch(2), Planned, Off, Slca, Plain),
    Cell(Mutable, Batch(2), Planned, On, MaxMatch, Plain),
    Cell(Tree, Http, Planned, Off, MaxMatch, Operators),
    Cell(Memory, Http, Merge, On, Slca, Plain),
    Cell(XksFresh, Http, Planned, Off, Slca, Plain),
    Cell(XksWarmed, Http, Merge, Off, Valid, Plain),
    Cell(ShardsMemory, Http, Planned, Off, MaxMatch, Operators),
    Cell(ShardsDisk, Http, Merge, Off, Slca, Operators),
    Cell(ShardsDiskPlain, Http, Merge, On, MaxMatch, Operators),
    Cell(Mutable, Http, Planned, Off, Valid, Operators),
];

fn algorithm_index(kind: AlgorithmKind) -> usize {
    ALGORITHMS.iter().position(|&a| a == kind).unwrap()
}

#[test]
fn table_covers_every_pair() {
    let entries = [ExecuteWith, Execute, Batch(1), Batch(2), Http];
    let axes = |Cell(s, e, p, t, a, o): Cell| {
        let e = entries.iter().position(|&x| x == e).unwrap();
        [
            s as usize,
            e,
            p as usize,
            t as usize,
            algorithm_index(a),
            o as usize,
        ]
    };
    let sizes = [8, 5, 2, 2, 3, 2];
    for a in 0..6 {
        for b in a + 1..6 {
            let mut seen = vec![false; sizes[a] * sizes[b]];
            for v in CELLS.map(axes) {
                seen[v[a] * sizes[b] + v[b]] = true;
            }
            assert!(seen.iter().all(|&s| s), "axes {a} and {b} miss a pair");
        }
    }
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("conformance")
        .join(name)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = scratch(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn request(text: &str, kind: AlgorithmKind) -> SearchRequest {
    SearchRequest::parse(text).unwrap().algorithm(kind)
}

/// A corpus with every source opened over it, and its queries.
struct Setup {
    corpus: Corpus,
    opened: Vec<Opened>,
    /// Plain queries: name and text.
    plain: Vec<(String, String)>,
    /// Operator queries: text, and the plain query they refine.
    operators: Vec<(String, usize)>,
    /// Reference answers (random corpora only), by text and algorithm.
    reference: HashMap<(String, usize), Answer>,
}

impl Setup {
    fn new(corpus: Corpus, plain: Vec<(String, String)>, operators: Vec<(String, usize)>) -> Self {
        let warm_up: Vec<_> = plain.iter().map(|(_, t)| request(t, Valid)).collect();
        let opened = open_all(&corpus, &scratch(&corpus.name), &warm_up);
        let reference = HashMap::new();
        Setup {
            corpus,
            opened,
            plain,
            operators,
            reference,
        }
    }

    fn opened(&self, source: Source) -> &Opened {
        &self.opened[source as usize]
    }
}

/// The DBLP and XMark corpora of the golden digest (the random corpora
/// are built alongside).
fn paper() -> &'static [Setup] {
    static PAPER: OnceLock<Vec<Setup>> = OnceLock::new();
    PAPER.get_or_init(|| {
        std::thread::scope(|scope| {
            scope.spawn(random);
            let xmark = scope.spawn(|| {
                let tree = generate_xmark(&XmarkConfig::sized(XmarkSize::Standard, 60, 42));
                paper_setup("xmark", tree, xmark_workload())
            });
            let dblp = generate_dblp(&DblpConfig::with_records(1_000, 42));
            vec![
                paper_setup("dblp", dblp, dblp_workload()),
                xmark.join().unwrap(),
            ]
        })
    })
}

/// One operator variant per workload query: a phrase, an exclusion of
/// the next query's first word, or a label filter on the label of the
/// first keyword's first posting (variants the grammar refuses are
/// dropped).
fn paper_setup(name: &str, tree: XmlTree, workload: Vec<(&str, String)>) -> Setup {
    let corpus = Corpus::new(name, tree);
    let first = |text: &str| text.split_whitespace().next().unwrap().to_owned();
    let mut operators = Vec::new();
    for (i, (_, text)) in workload.iter().enumerate() {
        let q: Vec<&str> = text.split_whitespace().collect();
        let variant = match i % 3 {
            0 if q.len() > 1 => format!("\"{} {}\" {}", q[0], q[1], q[2..].join(" ")),
            1 => format!("{text} -{}", first(&workload[(i + 1) % workload.len()].1)),
            _ => {
                let parsed = request(text, Valid);
                let postings = corpus
                    .oracle
                    .index()
                    .postings(&parsed.query().keywords()[0]);
                let tree = corpus.tree();
                let label = tree.label_name(tree.node_by_dewey(&postings[0]).unwrap());
                format!("{label}:{text}")
            }
        };
        if SearchRequest::parse(&variant).is_ok() {
            operators.push((variant, i));
        }
    }
    let plain = workload.into_iter().map(|(a, t)| (a.to_owned(), t));
    Setup::new(corpus, plain.collect(), operators)
}

/// The random corpora, each with its plain queries, operator specs and
/// reference answers.
fn random() -> &'static [Setup] {
    static RANDOM: OnceLock<Vec<Setup>> = OnceLock::new();
    RANDOM.get_or_init(|| {
        let setup = |seed| {
            let (corpus, config) = random_corpus(seed);
            let plain = random_queries(&corpus, &config, false);
            let operators = random_queries(&corpus, &config, true);
            let mut reference = HashMap::new();
            for text in plain.iter().chain(&operators) {
                for (a, kind) in ALGORITHMS.into_iter().enumerate() {
                    let spec = request(text, kind).spec().clone();
                    let answer = oracle::reference(&corpus.oracle, &spec, kind).unwrap();
                    reference.insert((text.clone(), a), answer);
                }
            }
            let plain = plain.into_iter().map(|t| (t.clone(), t)).collect();
            let operators = operators.into_iter().map(|t| (t, 0)).collect();
            Setup {
                reference,
                ..Setup::new(corpus, plain, operators)
            }
        };
        (0..RANDOM_CORPORA).map(setup).collect()
    })
}

/// Runs `texts` through the cell's entry point and checks what every
/// response says of tracing and the plan.
fn answer(cell: Cell, opened: &Opened, texts: &[&String]) -> (Vec<SearchResponse>, SearchEngine) {
    let Cell(_, entry, plan, trace, kind, _) = cell;
    let request = |t: &&String| request(t, kind).trace(trace == On);
    let requests: Vec<_> = texts.iter().map(request).collect();
    let handle = opened.handle(plan);
    let engine = handle.engine();
    let responses: Vec<SearchResponse> = match entry {
        ExecuteWith => {
            let mut ctx = QueryContext::new();
            let mut execute = |r| engine.execute_with(r, &mut ctx).unwrap();
            requests.iter().map(&mut execute).collect()
        }
        Execute => requests
            .iter()
            .map(|r| engine.execute(r).unwrap())
            .collect(),
        Batch(threads) => {
            let results = run_batch(&engine, &requests, threads);
            results.into_iter().map(Result::unwrap).collect()
        }
        Http => over_http(handle.engine(), &engine, texts, &requests),
    };
    for (text, response) in texts.iter().zip(&responses) {
        let spans = response.trace.as_ref().map_or(0, |t| t.spans().len());
        assert_eq!(spans > 0, trace == On, "{cell:?} {text}: trace");
        let merged = response.stats.plan_strategy == PlanStrategy::FullMerge;
        assert!(plan == Planned || merged, "{cell:?} {text}");
    }
    (responses, engine)
}

/// Each request answered locally and by a server over the same source
/// on one keep-alive connection: the body must equal the local render
/// byte for byte up to the wall-clock `timings_us` and `trace` blocks,
/// the body's last keys.
fn over_http(
    server: SearchEngine,
    local: &SearchEngine,
    texts: &[&String],
    requests: &[SearchRequest],
) -> Vec<SearchResponse> {
    let config = ServerConfig {
        request_timeout: None,
        ..ServerConfig::default()
    };
    let server = Server::bind(server, config).unwrap();
    let (addr, shutdown) = (server.local_addr(), server.shutdown_handle());
    let thread = std::thread::spawn(move || server.run().unwrap());
    let mut conn = Conn::connect(addr).unwrap();
    let comparable = |body: &str, traced: bool| {
        let (head, tail) = body.rsplit_once(",\"timings_us\":").unwrap();
        assert_eq!(tail.contains(",\"trace\":"), traced);
        head.to_owned()
    };
    let mut responses = Vec::new();
    for (text, request) in texts.iter().zip(requests) {
        let response = local.execute(request).unwrap();
        let mut want = String::new();
        wire::write_response(local, request, &response, usize::MAX, &mut want);
        let (kind, traced) = (wire::algorithm_name(request.kind()), request.traced());
        let mut body = String::from("{\"query\":");
        json::write_string(text, &mut body);
        body += &format!(",\"algorithm\":\"{kind}\",\"trace\":{traced}}}");
        let got = conn.request("POST", "/search", body.as_bytes()).unwrap();
        assert_eq!(got.status, 200, "{text}: {}", got.text());
        let (got, want) = (comparable(got.text(), traced), comparable(&want, traced));
        assert_eq!(got, want, "{text}: socket and local bodies differ");
        responses.push(response);
    }
    drop(conn);
    shutdown.shutdown();
    assert!(thread.join().unwrap().drained_cleanly);
    responses
}

/// Checks one digest line against its line of the golden file.
fn check_golden(line: &str, at: &str) {
    static LINES: OnceLock<HashMap<String, String>> = OnceLock::new();
    let lines = LINES.get_or_init(|| {
        let text = std::fs::read_to_string(GOLDEN).expect("golden digest present");
        let key = |l: &str| l.split(':').next().unwrap().to_owned();
        text.lines().map(|l| (key(l), l.to_owned())).collect()
    });
    assert_eq!(line, lines[line.split(':').next().unwrap()], "{at}");
}

/// The fragments of `plain` that docs/API.md's rules keep for `text`.
fn judged(text: &str, plain: &SearchResponse, source: &dyn CorpusSource) -> Vec<Fragment> {
    let spec = request(text, Valid).spec().clone();
    let postings = postings(&spec, |word| source.try_keyword_deweys(word).unwrap());
    let keep = |f: &&Fragment| {
        let label = |n: &xks::core::fragment::FragNode| source.label_name(n.label.as_u32());
        let knodes: Vec<(&Dewey, String)> = (f.iter().filter(|n| n.is_keyword))
            .map(|n| (&n.dewey, label(n).unwrap()))
            .collect();
        judge(&f.anchor, &knodes, &spec, &postings).keeps()
    };
    plain.fragments().filter(keep).cloned().collect()
}

fn run_cell(cell: Cell) {
    let Cell(source, _, _, _, kind, spec) = cell;
    for setup in paper() {
        let mut texts: Vec<&String> = setup.plain.iter().map(|(_, t)| t).collect();
        if spec == Operators {
            texts.extend(setup.operators.iter().map(|(t, _)| t));
        }
        let (responses, engine) = answer(cell, setup.opened(source), &texts);
        let name = &setup.corpus.name;
        for ((abbrev, _), response) in setup.plain.iter().zip(&responses) {
            let fragments: Vec<Fragment> = response.fragments().cloned().collect();
            let line = digest_line(name, abbrev, kind, &fragments, engine.source());
            check_golden(&line, &format!("{cell:?}"));
        }
        let operator_responses = responses.iter().skip(setup.plain.len());
        for ((text, plain), got) in setup.operators.iter().zip(operator_responses) {
            let want = judged(text, &responses[*plain], engine.source());
            let filtered = responses[*plain].hits.len() - want.len();
            assert_eq!(got.stats.filtered_out, filtered, "{cell:?} {name} {text}");
            assert!(got.fragments().eq(&want), "{cell:?} {name} {text}");
        }
    }
    for setup in random() {
        let texts: Vec<&String> = match spec {
            Plain => setup.plain.iter().map(|(_, t)| t).collect(),
            Operators => setup.operators.iter().map(|(t, _)| t).collect(),
        };
        let (responses, _) = answer(cell, setup.opened(source), &texts);
        for (text, response) in texts.into_iter().zip(responses) {
            let fragment = |f: &Fragment| (f.anchor.clone(), f.deweys());
            let got: Answer = response.fragments().map(fragment).collect();
            let want = &setup.reference[&(text.clone(), algorithm_index(kind))];
            assert_eq!(&got, want, "{cell:?} {} {text}", setup.corpus.name);
        }
    }
}

macro_rules! cells {
    ($($name:ident: $entry:expr),*) => {
        $(#[test]
        fn $name() {
            CELLS.iter().filter(|c| c.1 == $entry).for_each(|&cell| run_cell(cell));
        })*
    };
}

cells!(cells_execute_with: ExecuteWith, cells_execute: Execute, cells_http: Http);
cells!(cells_batch_1: Batch(1), cells_batch_2: Batch(2));

/// The digest lines of the plain queries of `setup` under `kind`.
fn digest(setup: &Setup, engine: &SearchEngine, kind: AlgorithmKind, traced: bool) -> Vec<String> {
    let mut ctx = QueryContext::new();
    let name = &setup.corpus.name;
    let line = |(abbrev, text): &(String, String)| {
        let request = request(text, kind).trace(traced);
        let response = engine.execute_with(&request, &mut ctx).unwrap();
        let spans = response.trace.as_ref().map_or(0, |t| t.spans().len());
        assert_eq!(spans > 0, traced, "{name}/{abbrev}: trace");
        let fragments: Vec<_> = response.hits.into_iter().map(|h| h.fragment).collect();
        let src = engine.source();
        digest_line(name, abbrev, kind, &fragments, src)
    };
    setup.plain.iter().map(line).collect()
}

fn check_or_bless(path: &str, lines: &[String]) {
    let rendered = lines.join("\n") + "\n";
    if std::env::var_os("XKS_BLESS_GOLDEN").is_some() {
        std::fs::write(path, &rendered).unwrap();
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden digest missing; run with XKS_BLESS_GOLDEN=1 to record it");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "digest line {i} diverged from {path}");
    }
    assert_eq!(rendered.lines().count(), golden.lines().count(), "{path}");
}

/// The whole workload digest, file for file. Tracing only observes the
/// pipeline, so a traced replay must not move a byte. Blesses the file
/// from an untraced replay.
#[test]
fn workload_digest_holds_on_a_traced_replay() {
    let traced = std::env::var_os("XKS_BLESS_GOLDEN").is_none();
    let mut lines = Vec::new();
    for setup in paper() {
        let engine = setup.opened(Memory).handle(Planned).engine();
        let by_kind = ALGORITHMS.map(|kind| digest(setup, &engine, kind, traced));
        for i in 0..setup.plain.len() {
            lines.extend(by_kind.iter().map(|lines| lines[i].clone()));
        }
    }
    assert_eq!(lines.len(), 43 * 3, "43 workload queries x 3 algorithms");
    check_or_bless(GOLDEN, &lines);
}

/// `s10-flat-zipf-single` (600 records, Zipf vocabulary, every query
/// class of the grammar) on memory, a mono `.xks` and 3 shards on disk:
/// the three agree byte for byte, and equal `matrix_digest.txt`.
#[test]
fn matrix_digest_holds_on_memory_xks_and_shards() {
    const CELL: &str = "s10-flat-zipf-single";
    let scenario = ScenarioSpec::parse(CELL).unwrap().generate();
    let doc = shred(&scenario.tree);
    let dir = fresh_dir("matrix");
    let (xks, manifest) = (dir.join("cell.xks"), dir.join("cell.xksm"));
    IndexWriter::new().write(&doc, &xks).unwrap();
    write_sharded(&IndexWriter::new(), &doc, &manifest, sources::SHARDS).unwrap();
    let engines = [
        SearchEngine::from_owned_source(MemoryCorpus::new(doc)),
        SearchEngine::from_owned_source(IndexReader::open(&xks).unwrap()),
        SearchEngine::from_shard_set(ShardedCorpus::open(&manifest).unwrap().shard_set()),
    ];
    let digests = engines.map(|engine| {
        let mut lines = Vec::new();
        for (i, q) in scenario.queries.iter().enumerate() {
            let abbrev = format!("{}{i}", q.class.name());
            for kind in ALGORITHMS {
                let response = engine.execute(&request(&q.text, kind)).unwrap();
                let fragments: Vec<_> = response.hits.into_iter().map(|h| h.fragment).collect();
                let src = engine.source();
                lines.push(digest_line(CELL, &abbrev, kind, &fragments, src));
            }
        }
        lines
    });
    assert_eq!(digests[0], digests[1], "memory and mono .xks");
    assert_eq!(digests[0], digests[2], "memory and 3 shards");
    check_or_bless(MATRIX_GOLDEN, &digests[0]);
}

/// Ranked hits (scores and signals) and stats agree between the tree
/// and the memory, sharded-memory and warmed `.xks` sources, and the
/// tree and memory explain one plan.
#[test]
fn ranked_hits_and_stats_agree_across_sources() {
    for setup in paper() {
        let engine = |source| setup.opened(source).handle(Planned).engine();
        let oracle = engine(Tree);
        for source in [Memory, ShardsMemory, XksWarmed] {
            let engine = engine(source);
            for (abbrev, text) in &setup.plain {
                let plain = request(text, Valid);
                if source == Memory {
                    let explain = |e: &SearchEngine| e.explain(&plain).unwrap();
                    assert_eq!(explain(&oracle), explain(&engine), "{abbrev}");
                }
                for kind in ALGORITHMS {
                    let ranked = plain.clone().algorithm(kind).rank();
                    let want = oracle.execute(&ranked).unwrap();
                    let got = engine.execute(&ranked).unwrap();
                    let at = format!("{}/{abbrev}/{kind:?} on {source:?}", setup.corpus.name);
                    assert_eq!((got.hits, got.stats), (want.hits, want.stats), "{at}");
                }
            }
        }
    }
}

/// One postings query on a fresh reader pages in only part of the
/// postings section, and a whole workload stays within it: open reads
/// none of it, and element lookups never touch the pool.
#[test]
fn single_query_reads_a_fraction_of_the_postings_section() {
    let doc = shred(&generate_dblp(&DblpConfig::with_records(2_000, 7)));
    let path = fresh_dir("lazy-postings").join("corpus.xks");
    IndexWriter::new().write(&doc, &path).unwrap();
    let reader = Arc::new(IndexReader::open(&path).unwrap());
    let pages = |r: &IndexReader| r.stats().postings_pages;
    let read = |r: &IndexReader| r.stats().pool.pages_read;
    assert!(pages(&reader) >= 4, "corpus too small to show laziness");
    assert_eq!(read(&reader), 0, "open pages nothing in");
    for kw in ["data", "algorithm"] {
        assert!(!reader.try_keyword_deweys(kw).unwrap().is_empty());
    }
    assert!(read(&reader) < pages(&reader), "one query read them all");
    let engine = SearchEngine::from_source(Arc::clone(&reader) as _);
    for (_, text) in dblp_workload() {
        engine.execute(&request(&text, Valid)).unwrap();
    }
    assert!(read(&reader) <= pages(&reader), "only postings are paged");
    assert!(reader.stats().element_cache_entries > 0, "memo unused");
}

/// A bit flip anywhere in a shard manifest fails open with a typed
/// error, and so does a truncated shard.
#[test]
fn corrupted_manifest_fails_open_with_typed_errors() {
    let corpus = shred(&generate_dblp(&DblpConfig::with_records(50, 7)));
    let dir = fresh_dir("corrupt");
    let manifest = dir.join("corpus.xksm");
    write_sharded(&IndexWriter::new(), &corpus, &manifest, 2).unwrap();
    let clean = std::fs::read(&manifest).unwrap();
    for i in (0..clean.len()).step_by(7) {
        let mut bytes = clean.clone();
        bytes[i] ^= 0x10;
        std::fs::write(&manifest, &bytes).unwrap();
        let err = ShardedCorpus::open(&manifest).unwrap_err();
        let typed = matches!(
            err,
            PersistError::BadMagic { .. }
                | PersistError::UnsupportedVersion { .. }
                | PersistError::ChecksumMismatch { .. }
                | PersistError::Truncated { .. }
                | PersistError::Corrupt { .. }
        );
        assert!(typed, "flip at byte {i}: {err}");
    }
    std::fs::write(&manifest, &clean).unwrap();
    let corpus = ShardedCorpus::open(&manifest).unwrap();
    let engine = SearchEngine::from_shard_set(corpus.shard_set());
    let ok = engine.execute(&request("data algorithm", Valid)).unwrap();
    assert!(!ok.hits.is_empty(), "healthy corpus answers");
    let shard = dir.join(&corpus.manifest().shards[1].file_name);
    let shard = std::fs::OpenOptions::new().write(true).open(shard).unwrap();
    shard.set_len(4096).unwrap();
    assert!(ShardedCorpus::open(&manifest).is_err(), "truncated shard");
}

/// Every reader of a sharded corpus (its set, the corpus, a mutable
/// corpus over it) leaves the shards its keyword filters rule out
/// untouched.
#[test]
fn keyword_filters_skip_shards_for_every_reader() {
    let mut corpus = MutableCorpus::create(&fresh_dir("filter-skips"), "lib").unwrap();
    for doc in 0..4 {
        let word = if doc == 2 { "solo" } else { "plain" };
        corpus
            .insert_xml(&format!("<doc><t>common {word}</t></doc>"))
            .unwrap();
    }
    corpus.compact(4).unwrap();
    let base = Arc::clone(corpus.base().expect("compaction seals a base"));
    let set = base.shard_set();
    assert_eq!(set.shard_count(), 4);
    let rejected: Vec<usize> = (0..4)
        .filter(|&i| !set.shard_may_contain(i, "solo"))
        .collect();
    assert!(!rejected.is_empty(), "some filter rules \"solo\" out");
    let lookups = || -> Vec<u64> {
        let stats = base.shard_stats();
        stats
            .iter()
            .map(|s| s.postings_cache_hits + s.postings_cache_misses)
            .collect()
    };
    for (reader, engine) in [
        ("set", SearchEngine::from_shard_set(set.clone())),
        ("corpus", SearchEngine::from_source(Arc::clone(&base) as _)),
        ("mutable", SearchEngine::from_source(corpus.source() as _)),
    ] {
        let before = lookups();
        let hits = engine.execute(&request("solo", Valid)).unwrap().hits;
        assert_eq!(hits.len(), 1, "{reader}");
        for (shard, after) in lookups().into_iter().enumerate() {
            if rejected.contains(&shard) {
                assert_eq!(after, before[shard], "{reader} probed shard {shard}");
            } else if shard == 2 {
                assert!(after > before[shard], "{reader} skipped the owner");
            }
        }
    }
}

/// Threads the concurrency tests run.
const THREADS: usize = 8;

/// One thread's share: the golden lines of its algorithm, through its
/// own context.
fn check_thread(setup: &Setup, engine: &SearchEngine, thread: usize) {
    for line in digest(setup, engine, ALGORITHMS[thread % 3], false) {
        check_golden(&line, &format!("thread {thread}"));
    }
}

/// Eight threads share one engine over a fresh `.xks` reader per
/// corpus and reproduce the golden digest, while two sweepers look up
/// every row as a keyword node, one from each end, so first touches of
/// the feature memo race the workload's own.
#[test]
fn eight_threads_share_one_engine_with_racing_first_touches() {
    let engines: Vec<_> = paper()
        .iter()
        .map(|s| s.opened(XksFresh).handle(Planned))
        .collect();
    let engines: Vec<SearchEngine> = engines.iter().map(|h| h.engine()).collect();
    let start = Barrier::new(THREADS + 2);
    std::thread::scope(|scope| {
        for reversed in [false, true] {
            let (engines, start) = (&engines, &start);
            scope.spawn(move || {
                start.wait();
                for (setup, engine) in paper().iter().zip(engines) {
                    let tree = setup.corpus.tree();
                    let mut nodes: Vec<&Dewey> = tree.preorder().map(|id| tree.dewey(id)).collect();
                    if reversed {
                        nodes.reverse();
                    }
                    for node in nodes {
                        let row = engine.source().try_element(node).unwrap().unwrap();
                        let knode = engine.source().try_keyword_node(node).unwrap();
                        assert_eq!(knode, Some((row.label, row.keyword_cid)), "{node}");
                    }
                }
            });
        }
        for thread in 0..THREADS {
            let (engines, start) = (&engines, &start);
            scope.spawn(move || {
                start.wait();
                for (setup, engine) in paper().iter().zip(engines) {
                    check_thread(setup, engine, thread);
                }
            });
        }
    });
}

/// One opened `.xks` file behind an `Arc` backs a separate engine per
/// thread, and the threads share its one postings cache.
#[test]
fn one_shared_reader_backs_engines_on_many_threads() {
    let setup = &paper()[0];
    let reader = Arc::new(IndexReader::open(&scratch("dblp").join("corpus.xks")).unwrap());
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let engine = SearchEngine::from_source(Arc::clone(&reader) as _);
            scope.spawn(move || check_thread(setup, &engine, thread));
        }
    });
    assert!(reader.stats().postings_cache_hits > 0, "one shared cache");
}

/// The documents of a generated DBLP corpus, and its root label.
fn document_pool() -> (String, Vec<String>) {
    documents(&generate_dblp(&DblpConfig::with_records(90, 42)))
}

/// Random insert/compact/reopen histories keep the source contract
/// against the parsed XML of what was inserted; a keyword has sealed
/// statistics exactly when the base holds all its postings.
#[test]
fn insert_only_histories_match_the_parsed_xml() {
    let (root, pool) = document_pool();
    for seed in [3u64, 11] {
        let dir = fresh_dir(&format!("insert-only-{seed}"));
        let (mut gen, mut inserted, mut base_docs) = (Gen(seed), 0, None);
        let mut corpus = MutableCorpus::create(&dir, &root).unwrap();
        for step in 0..48 {
            match gen.below(100) {
                0..=74 => {
                    corpus.insert_xml(&pool[inserted]).unwrap();
                    inserted += 1;
                }
                75..=89 => {
                    corpus.compact(1 + gen.below(3) as usize).unwrap();
                    base_docs = Some(inserted as u32);
                }
                _ => {
                    drop(corpus);
                    corpus = MutableCorpus::open(&dir).unwrap();
                }
            }
            if step % 8 == 7 {
                let xml = format!("<{root}>{}</{root}>", pool[..inserted].concat());
                let oracle = TreeCorpus::new(xks::xmltree::parse(&xml).unwrap());
                let facts = (&oracle, &tree_facts(&oracle));
                let at = format!("seed {seed}, step {step}");
                let source = corpus.source();
                check_contract(&at, source.as_ref(), facts, sealed_below(base_docs));
            }
        }
    }
}

/// Rebuild-from-scratch oracle: every inserted document at its original
/// ordinal, the deleted ones dropped at the table level, holes and all.
fn rebuilt(root: &str, inserted: &[String], deleted: &[u32]) -> Arc<dyn CorpusSource> {
    let xml = format!("<{root}>{}</{root}>", inserted.concat());
    let full = shred(&xks::xmltree::parse(&xml).unwrap());
    let live = |dewey: &String| {
        let ordinal = dewey.split('.').nth(1).map(|o| o.parse::<u32>().unwrap());
        ordinal.is_none_or(|o| !deleted.contains(&o))
    };
    let elements = full.elements.iter().filter(|r| live(&r.dewey));
    let values = full.values.iter().filter(|r| live(&r.dewey));
    let (elements, values) = (elements.cloned().collect(), values.cloned().collect());
    let mut doc = ShreddedDoc::from_tables(full.labels.clone(), elements, values);
    doc.rebuild_indexes();
    Arc::new(MemoryCorpus::new(doc))
}

/// Every hit of every DBLP workload query under `kind`, rendered.
fn render_all(source: Arc<dyn CorpusSource>, kind: AlgorithmKind) -> Vec<String> {
    let engine = SearchEngine::from_source(Arc::clone(&source));
    let mut out = Vec::new();
    for (abbrev, text) in dblp_workload() {
        let response = engine.execute(&request(&text, kind)).unwrap();
        out.push(format!("## {abbrev}: {} hits", response.hits.len()));
        out.extend(
            response
                .fragments()
                .map(|f| f.render_source(source.as_ref())),
        );
    }
    out
}

/// Random insert/delete/compact/reopen histories answer byte for byte
/// like a corpus rebuilt from scratch out of the surviving documents:
/// at checkpoints along the way, after recovery, and sealed.
#[test]
fn random_interleavings_match_rebuild_from_scratch() {
    let (root, pool) = document_pool();
    for seed in [1u64, 7, 42] {
        let dir = fresh_dir(&format!("interleavings-{seed}"));
        let mut gen = Gen(seed);
        let mut corpus = MutableCorpus::create(&dir, &root).unwrap();
        let (mut inserted, mut deleted): (Vec<String>, Vec<u32>) = (Vec::new(), Vec::new());
        let check = |at: &str, source: Arc<dyn CorpusSource>, live: (&[String], &[u32])| {
            let oracle = rebuilt(&root, live.0, live.1);
            let kinds = if at.starts_with("step") {
                &ALGORITHMS[..1]
            } else {
                &ALGORITHMS
            };
            for &kind in kinds {
                let want = render_all(Arc::clone(&oracle), kind);
                let got = render_all(Arc::clone(&source), kind);
                assert_eq!(got, want, "seed {seed}, {at}: {kind:?}");
            }
        };
        for step in 0..60 {
            match gen.below(100) {
                0..=59 if inserted.len() < pool.len() => {
                    let ordinal = corpus.insert_xml(&pool[inserted.len()]).unwrap();
                    assert_eq!(ordinal as usize, inserted.len(), "assignment order");
                    inserted.push(pool[inserted.len()].clone());
                }
                0..=59 => {}
                60..=84 => {
                    let all = 0..inserted.len() as u32;
                    let live: Vec<u32> = all.filter(|o| !deleted.contains(o)).collect();
                    let pick = gen.below(live.len().max(1) as u64) as usize;
                    if let Some(&ordinal) = live.get(pick) {
                        corpus.delete(ordinal).unwrap();
                        deleted.push(ordinal);
                    }
                }
                85..=94 => {
                    corpus.compact(1 + gen.below(3) as usize).unwrap();
                }
                _ => {
                    drop(corpus);
                    corpus = MutableCorpus::open(&dir).unwrap();
                }
            }
            if step % 10 == 9 {
                let at = format!("step {step}");
                check(&at, corpus.source(), (&inserted, &deleted));
            }
        }
        drop(corpus);
        let mut corpus = MutableCorpus::open(&dir).unwrap();
        check("recovered", corpus.source(), (&inserted, &deleted));
        corpus.compact(2).unwrap();
        drop(corpus);
        let sealed = Arc::new(ShardedCorpus::open(&dir.join("corpus.xksm")).unwrap());
        check("sealed", sealed, (&inserted, &deleted));
    }
}
