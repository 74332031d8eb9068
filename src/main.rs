//! `xks` — command-line XML keyword search.
//!
//! The commands and their flags are listed once, in `USAGE` (`xks help`).
//!
//! Queries use the operator grammar: plain keywords, quoted
//! `"phrases"`, `-word` exclusions, and `label:word` filters (see
//! `docs/API.md`). All query commands route through the
//! request/response API (`SearchRequest` → `SearchEngine::execute`),
//! so backend failures surface as clean errors, never panics.
//!
//! `--index` accepts either a monolithic `.xks` index or a shard
//! manifest written by `build-index --shards N` — the file magic
//! decides, not the extension. Sharded corpora are searched with
//! scatter-gather (`--shard-threads` caps the per-query fan-out);
//! results are byte-identical either way.
//!
//! Mutable corpora (docs/DURABILITY.md): `insert`/`delete` append to a
//! WAL-backed corpus *directory* (created on first insert), `compact`
//! seals the accumulated delta into `.xks` shards, and `search
//! --corpus <dir>` / `stats --corpus <dir>` query the live corpus —
//! sealed base plus un-compacted delta — after crash recovery. `verify`
//! streams the CRC verification of any index and exits non-zero on the
//! first corrupt section.
//!
//! Observability (docs/OBSERVABILITY.md): `--trace` prints a per-stage
//! breakdown of each query, `--trace-out` writes the same spans as a
//! Chrome-trace-event JSON file, and `xks stats --index` dumps one
//! `xks-obs/1` snapshot of the process-wide metrics registry merged
//! with the index's cache counters.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use xks::core::algorithms::StageTimings;
use xks::core::engine::{AlgorithmKind, SearchEngine};
use xks::core::executor::run_batch_stats;
use xks::core::wire::{self, obj};
use xks::core::{RankWeights, SearchRequest, SearchResponse};
use xks::index::Query;
use xks::obs::{HistogramSnapshot, MetricSource, QueryTrace};
use xks::persist::{
    preregister_durability_metrics, IndexReader, IndexWriter, MutableCorpus, ShardedCorpus,
};
use xks::serve::{Server, ServerConfig};
use xks::store::json::{self, Value};
use xks::xmltree::XmlTree;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "search" => cmd_search(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "explain" => cmd_explain(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "build-index" => cmd_build_index(&args[1..]),
        "index-stats" => cmd_index_stats(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        "insert" => cmd_insert(&args[1..]),
        "delete" => cmd_delete(&args[1..]),
        "compact" => cmd_compact(&args[1..]),
        "workload" => cmd_workload(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("xks: {msg}");
            ExitCode::from(1)
        }
    }
}

const USAGE: &str = "usage:
  xks search  <file.xml> \"<query>\" [\"<query>\" ...] [--algo valid|maxmatch|slca] [--top-k N] [--format json|text] [--limit N] [--xml] [--rank] [--threads N] [--trace] [--trace-out <trace.json>]
  xks search  --index <file.xks|file.xksm> \"<query>\" [\"<query>\" ...] [same flags, no --xml] [--shard-threads N]
  xks serve   --index <file.xks|file.xksm> | --corpus <dir> | <file.xml>  [--addr HOST:PORT] [--workers N] [--queue-depth N] [--timeout-ms N] [--drain-ms N] [--idle-ms N] [--max-body-bytes N] [--shard-threads N]
  xks explain \"<query>\" --index <file.xks|file.xksm> [--algo valid|maxmatch|slca] [--format json|text]
  xks explain <file.xml> \"<query>\" [same flags]
  xks explain \"<query>\" --corpus <dir> [same flags]
  xks bench   --index <file.xks|file.xksm> --queries <queries.txt> [--threads N] [--sweeps N] [--algo valid|maxmatch|slca] [--top-k N] [--format json|text] [--shard-threads N]
  xks bench   <file.xml> | --corpus <dir>  --queries <queries.txt> [same flags]
  xks compare <file.xml> \"<query>\" [--format json|text]
  xks stats   <file.xml> [--top N]
  xks stats   --index <file.xks|file.xksm> [--queries <queries.txt>] [--threads N] [--algo valid|maxmatch|slca] [--top-k N] [--shard-threads N]
  xks build-index <file.xml> <out.xks> [--page-size N]
  xks build-index <file.xml> <out.xksm> --shards N [--page-size N]
  xks index-stats <file.xks|file.xksm> [--format json|text]
  xks verify  --index <file.xks|file.xksm>
  xks insert  --corpus <dir> <file.xml> [--root <label>]
  xks delete  --corpus <dir> --doc <ordinal>
  xks compact --corpus <dir> [--shards N]
  xks search  --corpus <dir> \"<query>\" [\"<query>\" ...] [same flags, no --xml]
  xks stats   --corpus <dir> [--queries <queries.txt>] [same flags as stats --index]
  xks workload list [--format json|text]
  xks workload show <cell> [--format json|text]
  xks workload generate <cell>|all [--out <dir>]

query grammar: plain keywords, \"quoted phrases\", -excluded, label:word
(docs/API.md documents the grammar, the JSON output schemas, and the
workload-matrix cells behind xks workload are named
s<scale>-<shape>-<skew>-<tenancy>, see docs/WORKLOADS.md;
sharded index surface; --index sniffs the file magic, so a shard
manifest from build-index --shards works everywhere a .xks does;
docs/OBSERVABILITY.md covers --trace and the stats --index snapshot;
docs/DURABILITY.md covers the WAL-backed mutable corpus directories
behind insert/delete/compact and their crash-recovery guarantees;
docs/SERVER.md covers the xks serve HTTP endpoints, admission control,
deadlines, and graceful shutdown)";

fn load_tree(path: &str) -> Result<XmlTree, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    xks::xmltree::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// True when the file at `path` starts with the shard-manifest magic
/// (`XKSM`) — the format sniff behind every `--index` flag.
fn is_shard_manifest(path: &str) -> Result<bool, String> {
    use std::io::Read as _;
    let mut magic = [0u8; 4];
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("cannot open index {path}: {e}"))?;
    match file.read_exact(&mut magic) {
        Ok(()) => Ok(magic == xks::persist::shard::MANIFEST_MAGIC),
        Err(_) => Ok(false), // shorter than any magic; let the opener diagnose
    }
}

/// The live-metrics handle of an opened index: shares its readers with
/// the engine (`Arc` all the way down), so the counters a workload
/// bumps are the ones it collects.
type IndexMetrics = Arc<dyn MetricSource + Send + Sync>;

/// Opens `--index` as whatever it is: a shard manifest becomes a
/// scatter-gather engine over a [`ShardedCorpus`] (fan-out from
/// `--shard-threads`, default `min(shards, cores)`), a monolithic
/// `.xks` becomes the familiar single-reader engine.
fn open_index_engine(path: &str, flags: &Flags) -> Result<(SearchEngine, IndexMetrics), String> {
    if is_shard_manifest(path)? {
        let corpus = ShardedCorpus::open(Path::new(path))
            .map_err(|e| format!("cannot open sharded index {path}: {e}"))?;
        let mut engine = SearchEngine::from_shard_set(corpus.shard_set());
        if let Some(threads) = flags.get_usize("shard-threads")? {
            engine = engine.with_scatter_threads(threads);
        }
        Ok((engine, Arc::new(corpus)))
    } else {
        let reader = Arc::new(
            IndexReader::open(Path::new(path))
                .map_err(|e| format!("cannot open index {path}: {e}"))?,
        );
        let engine = SearchEngine::from_source(Arc::clone(&reader) as _);
        Ok((engine, reader))
    }
}

/// A stored backend's live-metrics handle and the prefix its counters
/// report under (`index.` / `corpus.`); a parsed XML file has none.
type Collector = (&'static str, IndexMetrics);

/// Opens the backend a query command names — `--corpus <dir>`,
/// `--index <file.xks|file.xksm>`, or a leading `<file.xml>`
/// positional — and returns the positionals it did not consume.
fn open_engine<'a>(
    positional: &'a [String],
    flags: &Flags,
) -> Result<(SearchEngine, Option<Collector>, &'a [String]), String> {
    if let Some(dir) = flags.get_str("corpus") {
        let corpus = MutableCorpus::open(Path::new(dir))
            .map_err(|e| format!("cannot open corpus {dir}: {e}"))?;
        let engine = SearchEngine::from_source(corpus.source() as _);
        Ok((engine, Some(("corpus.", Arc::new(corpus))), positional))
    } else if let Some(index_file) = flags.get_str("index") {
        let (engine, metrics) = open_index_engine(index_file, flags)?;
        Ok((engine, Some(("index.", metrics)), positional))
    } else {
        let [file, rest @ ..] = positional else {
            return Err(format!(
                "needs --index <file.xks|file.xksm>, --corpus <dir>, or <file.xml>\n{USAGE}"
            ));
        };
        Ok((SearchEngine::new(load_tree(file)?), None, rest))
    }
}

/// Which output shape the query commands emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

impl Format {
    fn from_flags(flags: &Flags) -> Result<Self, String> {
        match flags.get_str("format") {
            None | Some("text") => Ok(Format::Text),
            Some("json") => Ok(Format::Json),
            Some(other) => Err(format!("unknown --format {other:?} (json|text)")),
        }
    }
}

fn parse_algo(flags: &Flags) -> Result<AlgorithmKind, String> {
    let name = flags.get_str("algo").unwrap_or("valid");
    wire::parse_algorithm(name).ok_or_else(|| format!("unknown --algo {name:?}"))
}

/// Builds one request per query string, applying the shared flags.
fn build_requests(
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
                request = request.weights(RankWeights::default());
            }
            Ok(request)
        })
        .collect()
}

/// Reads a bench/stats query workload file: one query per line, blank
/// lines and `#` comments skipped.
fn read_query_file(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect())
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("search", args, accepts::SEARCH)?;
    let algo = parse_algo(&flags)?;
    let format = Format::from_flags(&flags)?;
    let limit = flags.get_usize("limit")?.unwrap_or(usize::MAX);
    let top_k = flags.get_usize("top-k")?;
    let threads = flags.get_usize("threads")?.unwrap_or(1);
    let as_xml = flags.has("xml");
    let ranked = flags.has("rank");
    let trace_out = flags.get_str("trace-out").map(str::to_owned);
    let traced = flags.has("trace") || trace_out.is_some();
    let timeout = flags
        .get_usize("timeout-ms")?
        .map(|ms| Duration::from_millis(ms as u64));

    // One or more query strings; several queries fan out over the
    // executor's worker threads (`--threads N`).
    let (engine, _, query_args) = open_engine(&positional, &flags)?;
    if query_args.is_empty() {
        return Err(format!("search needs at least one <query>\n{USAGE}"));
    }
    if as_xml && engine.parsed_tree().is_none() {
        return Err(
            "--xml needs the original document; stored indexes and corpora keep only \
             keywords (drop --xml or search the .xml file)"
                .to_owned(),
        );
    }
    let mut requests = build_requests(query_args, algo, top_k, ranked, traced)?;
    if let Some(budget) = timeout {
        // Each query gets its own budget, measured from here — queueing
        // behind other queries in the batch counts against it, matching
        // the server's admission-time deadline semantics.
        requests = requests.into_iter().map(|r| r.timeout(budget)).collect();
    }
    if trace_out.is_some() && requests.len() != 1 {
        return Err(format!(
            "--trace-out records exactly one query per file (got {})",
            requests.len()
        ));
    }
    let (results, _) = run_batch_stats(&engine, &requests, threads);

    let mut json_results: Vec<Value> = Vec::new();
    let many = requests.len() > 1;
    for (request, result) in requests.iter().zip(results) {
        let response = result.map_err(|e| e.to_string())?;
        if let (Some(path), Some(trace)) = (trace_out.as_deref(), response.trace.as_ref()) {
            std::fs::write(path, trace.to_chrome_json(&request.spec().to_string()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote Chrome trace to {path} (chrome://tracing, Perfetto)");
        }
        match format {
            Format::Json => {
                json_results.push(wire::response_json(&engine, request, &response, limit))
            }
            Format::Text => {
                print_text_response(&engine, request, &response, limit, as_xml, many);
                if let Some(trace) = &response.trace {
                    print_text_trace(trace);
                }
            }
        }
    }
    if format == Format::Json {
        println!(
            "{}",
            json::to_string(&Value::Obj(obj([("results", Value::Arr(json_results),)])))
        );
    }
    Ok(())
}

/// `xks serve`: a resident HTTP query server over any backend — a
/// monolithic `.xks`, a shard manifest, a mutable corpus directory, or
/// a parsed XML file. The engine (and its warm `QueryContext` pool) is
/// built once and shared by every worker; `POST /search` responses are
/// byte-identical to `xks search --format json` results by
/// construction (both render through `xks::core::wire`). Admission
/// control, deadlines, and graceful shutdown are documented in
/// docs/SERVER.md.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("serve", args, accepts::SERVE)?;
    let addr = match (flags.get_str("addr"), flags.get_usize("port")?) {
        (Some(_), Some(_)) => {
            return Err("--addr and --port are mutually exclusive (addr carries the port)".into())
        }
        (Some(addr), None) => addr.to_owned(),
        (None, Some(port)) => format!("127.0.0.1:{port}"),
        (None, None) => "127.0.0.1:7878".to_owned(),
    };
    let mut config = ServerConfig {
        addr,
        ..ServerConfig::default()
    };
    if let Some(n) = flags.get_usize("workers")? {
        config.workers = n.max(1);
    }
    if let Some(n) = flags.get_usize("queue-depth")? {
        config.queue_depth = n;
    }
    if let Some(ms) = flags.get_usize("timeout-ms")? {
        config.request_timeout = Some(Duration::from_millis(ms as u64));
    }
    if let Some(ms) = flags.get_usize("drain-ms")? {
        config.drain_timeout = Duration::from_millis(ms as u64);
    }
    if let Some(ms) = flags.get_usize("idle-ms")? {
        config.limits.idle_timeout = Duration::from_millis(ms as u64);
    }
    if let Some(n) = flags.get_usize("max-body-bytes")? {
        config.limits.max_body_bytes = n;
    }
    config.watch_signals = true;

    // The full metric catalog (durability + server) shows up in /stats
    // as explicit zeros even before any traffic.
    preregister_durability_metrics();
    let (engine, collector, rest) = open_engine(&positional, &flags)?;
    if let [extra, ..] = rest {
        return Err(format!(
            "serve takes one backend and no further arguments (got {extra:?})\n{USAGE}"
        ));
    }

    let addr = config.addr.clone();
    let mut server =
        Server::bind(engine, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    if let Some((prefix, source)) = collector {
        server = server.with_collector(prefix, source);
    }
    // The parseable startup line (tests and scripts read the bound
    // address from it — port 0 resolves to a real port here).
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!("endpoints: POST /search  GET /stats  GET /healthz  (SIGINT/SIGTERM drains)");
    let report = server.run().map_err(|e| format!("server failed: {e}"))?;
    eprintln!(
        "server drained: {} response(s) served, {} shed (429), {} deadline timeout(s), drain {}",
        report.served,
        report.shed,
        report.timeouts,
        if report.drained_cleanly {
            "clean"
        } else {
            "timed out"
        },
    );
    Ok(())
}

/// `xks explain`: show the query plan — rarest-first term order,
/// per-term selectivity, chosen intersection strategy, shard skips —
/// without executing the query.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("explain", args, accepts::EXPLAIN)?;
    let algo = parse_algo(&flags)?;
    let format = Format::from_flags(&flags)?;

    let (engine, _, rest) = open_engine(&positional, &flags)?;
    let [query_text] = rest else {
        return Err(format!("explain needs exactly one <query>\n{USAGE}"));
    };

    let request = SearchRequest::parse(query_text)
        .map_err(|e| format!("{e} (in query {query_text:?})"))?
        .algorithm(algo);
    let report = engine.explain(&request).map_err(|e| e.to_string())?;

    match format {
        Format::Json => {
            let terms: Vec<Value> = report
                .terms
                .iter()
                .map(|t| {
                    Value::Obj(obj([
                        ("keyword", Value::Str(t.keyword.clone())),
                        ("postings", Value::Num(t.postings)),
                        ("doc_freq", t.doc_freq.map_or(Value::Null, Value::Num)),
                        ("sealed", Value::Bool(t.sealed)),
                        ("shards_skipped", Value::Num(u64::from(t.shards_skipped))),
                    ]))
                })
                .collect();
            println!(
                "{}",
                json::to_string(&Value::Obj(obj([
                    ("query", Value::Str(request.spec().to_string())),
                    (
                        "algorithm",
                        Value::Str(wire::algorithm_name(algo).to_owned())
                    ),
                    ("strategy", Value::Str(report.strategy.as_str().to_owned())),
                    ("shards", Value::Num(u64::from(report.shards))),
                    ("terms", Value::Arr(terms)),
                ])))
            );
        }
        Format::Text => {
            println!(
                "plan for {:?} — strategy {}, {} term(s){}",
                request.spec().to_string(),
                report.strategy.as_str(),
                report.terms.len(),
                if report.shards > 0 {
                    format!(", {} shard(s)", report.shards)
                } else {
                    String::new()
                }
            );
            if let Some(driver) = report.terms.first() {
                if report.strategy == xks::core::PlanStrategy::Gallop {
                    println!(
                        "driver: {:?} (rarest term anchors the gallop)",
                        driver.keyword
                    );
                }
            }
            for (i, t) in report.terms.iter().enumerate() {
                let df = t.doc_freq.map_or_else(|| "?".to_owned(), |d| d.to_string());
                let sealed = if t.sealed { "sealed" } else { "unsealed" };
                let skips = if report.shards > 0 {
                    format!("  skips {}/{} shard(s)", t.shards_skipped, report.shards)
                } else {
                    String::new()
                };
                println!(
                    "  {}. {:<20} postings={:<8} docs={:<8} {}{}",
                    i + 1,
                    t.keyword,
                    t.postings,
                    df,
                    sealed,
                    skips
                );
            }
            if report.strategy == xks::core::PlanStrategy::FullMerge {
                println!(
                    "note: full k-way merge (gallop needs ≥2 terms, sealed stats, and a \
                     {}× rarest-to-total skew)",
                    xks::core::plan::GALLOP_MIN_RATIO
                );
            }
        }
    }
    Ok(())
}

/// The text rendering of one response (the legacy human-readable form,
/// now with scores and truncation/parse reporting).
fn print_text_response(
    engine: &SearchEngine,
    request: &SearchRequest,
    response: &SearchResponse,
    limit: usize,
    as_xml: bool,
    show_header: bool,
) {
    if show_header {
        println!("## query: {}", request.spec());
    }
    let stats = &response.stats;
    eprintln!(
        "{} hit(s) in {:?} ({:?} after keyword retrieval)",
        response.hits.len(),
        response.timings.total(),
        response.timings.algorithm_time()
    );
    if stats.truncated {
        eprintln!(
            "truncated to {} of {} fragment(s)",
            response.hits.len(),
            stats.total_before_top_k
        );
    }
    if stats.filtered_out > 0 {
        eprintln!(
            "{} fragment(s) removed by query operators",
            stats.filtered_out
        );
    }
    for (raw, normalized) in &stats.normalized_terms {
        eprintln!("note: term {raw:?} normalized to {normalized:?}");
    }
    for raw in &stats.dropped_terms {
        eprintln!("note: duplicate term {raw:?} dropped");
    }
    // Only a parsed tree keeps the original text `--xml` and the
    // stored-text outline show; every other backend marks keyword nodes.
    let tree = engine.parsed_tree();
    for hit in response.hits.iter().take(limit) {
        match hit.score {
            Some(score) => println!("# anchor {} (score {score:.3})", hit.fragment.anchor),
            None => println!("# anchor {}", hit.fragment.anchor),
        }
        match tree {
            None => print!("{}", hit.fragment.render_source(engine.source())),
            Some(tree) if as_xml => println!("{}", hit.fragment.to_xml(tree)),
            Some(tree) => print!("{}", hit.fragment.render(tree)),
        }
    }
    if response.hits.len() > limit {
        eprintln!("… {} more (raise --limit)", response.hits.len() - limit);
    }
}

/// The `--trace` text rendering: one line per recorded span, offsets
/// and durations in microseconds from the trace origin. Goes to stderr
/// with the other diagnostics so fragment output stays clean.
fn print_text_trace(trace: &QueryTrace) {
    eprintln!("trace ({} span(s)):", trace.spans().len());
    for span in trace.spans() {
        eprintln!(
            "  {:<16} @{:>12}  {:>12}",
            span.stage.as_str(),
            format_us(span.start_ns),
            format_us(span.dur_ns)
        );
    }
    if trace.dropped() > 0 {
        eprintln!("  … {} span(s) dropped (buffer full)", trace.dropped());
    }
}

/// Nanoseconds as a `µs` literal with three fractional digits.
fn format_us(ns: u64) -> String {
    format!("{}.{:03}µs", ns / 1_000, ns % 1_000)
}

/// Batch mode: run a whole query file through the concurrent executor
/// against one shared engine and report aggregate throughput.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("bench", args, accepts::BENCH)?;
    let algo = parse_algo(&flags)?;
    let format = Format::from_flags(&flags)?;
    let top_k = flags.get_usize("top-k")?;
    let threads = flags.get_usize("threads")?.unwrap_or(1).max(1);
    let sweeps = flags.get_usize("sweeps")?.unwrap_or(3).max(1);
    let Some(queries_file) = flags.get_str("queries") else {
        return Err(format!("bench needs --queries <file>\n{USAGE}"));
    };

    let (engine, _, rest) = open_engine(&positional, &flags)?;
    if let [extra, ..] = rest {
        return Err(format!(
            "bench takes one backend and no further arguments (got {extra:?})\n{USAGE}"
        ));
    }

    let lines = read_query_file(queries_file)?;
    let requests = build_requests(&lines, algo, top_k, false, false)?;
    if requests.is_empty() {
        return Err(format!("{queries_file} holds no queries"));
    }

    // Untimed warm-up sweep, then timed sweeps. Any backend failure
    // aborts the bench with the typed error. Timed sweeps also feed
    // each query's engine-side timings into a latency histogram and a
    // per-stage aggregate, so throughput comes with a breakdown.
    let (warmup, _) = run_batch_stats(&engine, &requests, threads);
    for result in warmup {
        result.map_err(|e| e.to_string())?;
    }
    let start = std::time::Instant::now();
    let mut fragments = 0usize;
    let mut last_stats = None;
    let mut stages = StageTimings::default();
    let latency = xks::obs::Histogram::new();
    for _ in 0..sweeps {
        let (results, stats) = run_batch_stats(&engine, &requests, threads);
        for result in results {
            let response = result.map_err(|e| e.to_string())?;
            fragments += response.hits.len();
            let t = &response.timings;
            stages.get_keyword_nodes += t.get_keyword_nodes;
            stages.get_lca += t.get_lca;
            stages.get_rtf += t.get_rtf;
            stages.prune_rtf += t.prune_rtf;
            stages.post_process += t.post_process;
            latency.record_duration(t.total());
        }
        last_stats = Some(stats);
    }
    let elapsed = start.elapsed();
    let lat = latency.snapshot();
    let total = requests.len() * sweeps;
    let qps = total as f64 / elapsed.as_secs_f64();
    // Report the worker count the executor actually ran (it clamps the
    // request to the batch size), not the requested --threads.
    let ran = last_stats.as_ref().map_or(threads, |s| s.threads);
    match format {
        Format::Json => {
            let mut fields = obj([
                ("bench", Value::Str("batch".to_owned())),
                (
                    "algorithm",
                    Value::Str(wire::algorithm_name(algo).to_owned()),
                ),
                ("queries", Value::Num(requests.len() as u64)),
                ("sweeps", Value::Num(sweeps as u64)),
                ("threads", Value::Num(ran as u64)),
                ("total_queries", Value::Num(total as u64)),
                ("elapsed_us", Value::Num(elapsed.as_micros() as u64)),
                ("queries_per_sec", Value::Float(qps)),
                ("fragments", Value::Num(fragments as u64)),
                ("stages_us", wire::stage_timings_json(&stages)),
                ("latency_ns", histogram_json(&lat)),
            ]);
            if let Some(stats) = &last_stats {
                fields.insert(
                    "last_sweep_work_split".to_owned(),
                    Value::Arr(
                        stats
                            .per_thread
                            .iter()
                            .map(|&n| Value::Num(n as u64))
                            .collect(),
                    ),
                );
            }
            println!("{}", json::to_string(&Value::Obj(fields)));
        }
        Format::Text => {
            println!(
                "{total} queries ({} x {sweeps} sweeps), {ran} thread(s): \
                 {qps:.0} queries/sec ({elapsed:?} total, {fragments} fragments)",
                requests.len()
            );
            if let Some(stats) = last_stats {
                println!("last sweep work split: {:?}", stats.per_thread);
            }
            println!(
                "stage totals: get_keyword_nodes {:?} | get_lca {:?} | get_rtf {:?} | \
                 prune_rtf {:?} | post_process {:?}",
                stages.get_keyword_nodes,
                stages.get_lca,
                stages.get_rtf,
                stages.prune_rtf,
                stages.post_process
            );
            println!(
                "per-query latency: p50 {}  p90 {}  p99 {}  max {}  ({} samples)",
                format_us(lat.p50()),
                format_us(lat.p90()),
                format_us(lat.p99()),
                format_us(lat.max),
                lat.count
            );
        }
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("compare", args, accepts::COMPARE)?;
    let format = Format::from_flags(&flags)?;
    let [file, keywords] = positional.as_slice() else {
        return Err(format!("compare needs <file.xml> and <query>\n{USAGE}"));
    };
    let tree = load_tree(file)?;
    let engine = SearchEngine::new(tree);
    let query = Query::parse(keywords).map_err(|e| format!("bad query: {e}"))?;
    let cmp = engine.compare(&query).map_err(|e| e.to_string())?;
    match format {
        Format::Json => {
            let value = Value::Obj(obj([
                ("query", Value::Str(query.to_string())),
                ("rtf_count", Value::Num(cmp.rtf_count as u64)),
                (
                    "valid_rtf_us",
                    Value::Num(cmp.valid_rtf_time.as_micros() as u64),
                ),
                (
                    "max_match_us",
                    Value::Num(cmp.max_match_time.as_micros() as u64),
                ),
                ("cfr", Value::Float(cmp.effectiveness.cfr)),
                ("apr", Value::Float(cmp.effectiveness.apr)),
                ("apr_prime", Value::Float(cmp.effectiveness.apr_prime)),
                ("max_apr", Value::Float(cmp.effectiveness.max_apr)),
            ]));
            println!("{}", json::to_string(&value));
        }
        Format::Text => {
            println!("RTFs      : {}", cmp.rtf_count);
            println!("ValidRTF  : {:?}", cmp.valid_rtf_time);
            println!("MaxMatch  : {:?}", cmp.max_match_time);
            println!("CFR       : {:.3}", cmp.effectiveness.cfr);
            println!("APR       : {:.3}", cmp.effectiveness.apr);
            println!("APR'      : {:.3}", cmp.effectiveness.apr_prime);
            println!("Max APR   : {:.3}", cmp.effectiveness.max_apr);
        }
    }
    Ok(())
}

// -- JSON rendering -----------------------------------------------------
// The response/timings/trace renderers live in `xks::core::wire`,
// shared with the HTTP server so both surfaces emit identical bytes.

/// A histogram snapshot as JSON: summary statistics plus the non-empty
/// `[lo, hi, count]` buckets (mirrors the `xks-obs/1` histogram form).
fn histogram_json(hist: &HistogramSnapshot) -> Value {
    Value::Obj(obj([
        ("count", Value::Num(hist.count)),
        ("sum", Value::Num(hist.sum)),
        ("max", Value::Num(hist.max)),
        ("mean", Value::Num(hist.mean())),
        ("p50", Value::Num(hist.p50())),
        ("p90", Value::Num(hist.p90())),
        ("p99", Value::Num(hist.p99())),
        (
            "buckets",
            Value::Arr(
                hist.nonzero_buckets()
                    .map(|(lo, hi, n)| {
                        Value::Arr(vec![Value::Num(lo), Value::Num(hi), Value::Num(n)])
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// An `xks-obs` snapshot as a JSON value (for embedding inside another
/// document; `xks stats --index` prints the canonical string form).
fn snapshot_json(snap: &xks::obs::Snapshot) -> Value {
    Value::Obj(obj([
        (
            "counters",
            Value::Obj(
                snap.counters()
                    .map(|(name, v)| (name.to_owned(), Value::Num(v)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Value::Obj(
                snap.gauges()
                    .map(|(name, v)| (name.to_owned(), Value::Num(v)))
                    .collect(),
            ),
        ),
        (
            "ratios",
            Value::Obj(
                snap.ratios()
                    .map(|(name, v)| (name.to_owned(), Value::Float(v)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Value::Obj(
                snap.histograms()
                    .map(|(name, h)| (name.to_owned(), histogram_json(h)))
                    .collect(),
            ),
        ),
    ]))
}

// -- remaining commands (unchanged surface) -----------------------------

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("stats", args, accepts::STATS)?;
    if flags.has("index") || flags.has("corpus") {
        return cmd_stats_live(&positional, &flags);
    }
    let [file] = positional.as_slice() else {
        return Err(format!("stats needs <file.xml>\n{USAGE}"));
    };
    let top = flags.get_usize("top")?.unwrap_or(20);
    let tree = load_tree(file)?;
    let index = xks::index::InvertedIndex::build(&tree);
    println!("nodes          : {}", tree.len());
    println!("distinct labels: {}", tree.labels().len());
    println!("vocabulary     : {}", index.vocabulary_size());
    let mut freqs: Vec<(&str, usize)> = index.frequencies().collect();
    freqs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("top {top} words by keyword-node count:");
    for (word, n) in freqs.into_iter().take(top) {
        println!("  {word:<24} {n}");
    }
    Ok(())
}

/// `xks stats --index` / `--corpus`: the live-metrics form. Opens the
/// stored backend (opening a corpus runs recovery, so its `recovery.*`
/// and `wal.*` counters reflect what this open did), optionally replays
/// a `--queries` workload through the engine, then prints one
/// `xks-obs/1` snapshot — the process-wide registry (search/executor/
/// lock metrics) merged with the backend's own counters under the
/// `index.` or `corpus.` prefix.
fn cmd_stats_live(positional: &[String], flags: &Flags) -> Result<(), String> {
    if let [extra, ..] = positional {
        return Err(format!(
            "stats --index/--corpus takes no positional file (got {extra:?}); \
             drop the flag for the vocabulary report\n{USAGE}"
        ));
    }
    // Durability counters are part of the documented snapshot even when
    // no mutable corpus is involved — explicit zeros, not absence.
    preregister_durability_metrics();
    let algo = parse_algo(flags)?;
    let top_k = flags.get_usize("top-k")?;
    let threads = flags.get_usize("threads")?.unwrap_or(1).max(1);

    let (engine, collector, _) = open_engine(positional, flags)?;

    if let Some(queries_file) = flags.get_str("queries") {
        let lines = read_query_file(queries_file)?;
        let requests = build_requests(&lines, algo, top_k, false, false)?;
        if requests.is_empty() {
            return Err(format!("{queries_file} holds no queries"));
        }
        let (results, _) = run_batch_stats(&engine, &requests, threads);
        for result in results {
            result.map_err(|e| e.to_string())?;
        }
    }

    let mut snap = xks::obs::global().snapshot();
    if let Some((prefix, metrics)) = collector {
        metrics.collect_into(prefix, &mut snap);
    }
    println!("{}", snap.to_json());
    Ok(())
}

fn cmd_build_index(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("build-index", args, accepts::BUILD_INDEX)?;
    let [file, out] = positional.as_slice() else {
        return Err(format!(
            "build-index needs <file.xml> and <out.xks>\n{USAGE}"
        ));
    };
    let writer = match flags.get_usize("page-size")? {
        None => IndexWriter::new(),
        Some(size) => {
            let size = u32::try_from(size).map_err(|_| "--page-size too large".to_owned())?;
            IndexWriter::with_page_size(size).map_err(|e| e.to_string())?
        }
    };
    let tree = load_tree(file)?;
    // Any explicit --shards (including 1) writes the manifest format;
    // the partitioner clamps the count, never this dispatch — so the
    // output format follows the flag, not an arithmetic accident.
    match flags.get_usize("shards")?.map(|n| n.max(1)) {
        None => {
            let summary = writer
                .write_tree(&tree, Path::new(out))
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!(
                "indexed {} elements / {} keywords ({} postings bytes) -> {out} \
                 ({} bytes, {}-byte pages)",
                summary.element_count,
                summary.keyword_count,
                summary.postings_len,
                summary.file_len,
                summary.page_size
            );
        }
        Some(shards) => {
            let doc = xks::store::shred(&tree);
            let summary = xks::persist::write_sharded(&writer, &doc, Path::new(out), shards)
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            let manifest = &summary.manifest;
            eprintln!(
                "indexed {} elements / {} keywords into {} shard(s) -> {out} \
                 ({} bytes total)",
                manifest.total_elements,
                manifest.total_keywords,
                manifest.shards.len(),
                summary.total_file_len(),
            );
            for entry in &manifest.shards {
                eprintln!(
                    "  {}: docs {}..{} ({}), {} elements, {} keywords, {} bytes",
                    entry.file_name,
                    entry.first_doc,
                    u64::from(entry.first_doc) + entry.doc_count.saturating_sub(1),
                    entry.doc_count,
                    entry.element_count,
                    entry.keyword_count,
                    entry.file_len
                );
            }
            if manifest.shards.len() < shards {
                eprintln!(
                    "note: --shards {shards} clamped to {} (one shard per document at most)",
                    manifest.shards.len()
                );
            }
        }
    }
    Ok(())
}

/// The JSON fields shared by single-index stats and each shard's entry
/// (documented in docs/API.md).
fn index_stats_json(stats: &xks::persist::IndexStats) -> BTreeMap<String, Value> {
    obj([
        ("file_len", Value::Num(stats.file_len)),
        ("page_size", Value::Num(u64::from(stats.page_size))),
        ("elements", Value::Num(stats.element_count)),
        ("keywords", Value::Num(stats.keyword_count)),
        ("labels", Value::Num(stats.label_count)),
        ("postings_len", Value::Num(stats.postings_len)),
        ("postings_pages", Value::Num(stats.postings_pages)),
    ])
}

fn cmd_index_stats(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("index-stats", args, accepts::INDEX_STATS)?;
    let format = Format::from_flags(&flags)?;
    let [file] = positional.as_slice() else {
        return Err(format!("index-stats needs <file.xks|file.xksm>\n{USAGE}"));
    };
    if is_shard_manifest(file)? {
        let corpus = ShardedCorpus::open(Path::new(file))
            .map_err(|e| format!("cannot open sharded index {file}: {e}"))?;
        corpus
            .verify()
            .map_err(|e| format!("sharded index {file} fails verification: {e}"))?;
        let manifest = corpus.manifest();
        let shard_stats = corpus.shard_stats();
        match format {
            Format::Json => {
                let shards: Vec<Value> = manifest
                    .shards
                    .iter()
                    .zip(&shard_stats)
                    .map(|(entry, stats)| {
                        let mut fields = index_stats_json(stats);
                        fields.insert("file".to_owned(), Value::Str(entry.file_name.clone()));
                        fields.insert(
                            "first_doc".to_owned(),
                            Value::Num(u64::from(entry.first_doc)),
                        );
                        fields.insert("docs".to_owned(), Value::Num(entry.doc_count));
                        Value::Obj(fields)
                    })
                    .collect();
                let value = Value::Obj(obj([
                    ("sharded", Value::Bool(true)),
                    ("shard_count", Value::Num(manifest.shards.len() as u64)),
                    (
                        "totals",
                        Value::Obj(obj([
                            (
                                "file_len",
                                Value::Num(shard_stats.iter().map(|s| s.file_len).sum()),
                            ),
                            ("elements", Value::Num(manifest.total_elements)),
                            ("keywords", Value::Num(manifest.total_keywords)),
                            ("labels", Value::Num(manifest.label_count)),
                        ])),
                    ),
                    ("shards", Value::Arr(shards)),
                    ("checksums", Value::Str("ok".to_owned())),
                    ("metrics", {
                        let mut snap = xks::obs::Snapshot::new();
                        corpus.collect_into("", &mut snap);
                        snapshot_json(&snap)
                    }),
                ]));
                println!("{}", json::to_string(&value));
            }
            Format::Text => {
                println!("shards         : {}", manifest.shards.len());
                println!("elements       : {}", manifest.total_elements);
                println!(
                    "keywords       : {} (distinct, corpus-wide)",
                    manifest.total_keywords
                );
                println!("labels         : {}", manifest.label_count);
                println!(
                    "file length    : {} bytes across shards",
                    shard_stats.iter().map(|s| s.file_len).sum::<u64>()
                );
                for (entry, stats) in manifest.shards.iter().zip(&shard_stats) {
                    println!(
                        "  {} : docs {}+{}, {} elements, {} keywords, {} bytes",
                        entry.file_name,
                        entry.first_doc,
                        entry.doc_count,
                        stats.element_count,
                        stats.keyword_count,
                        stats.file_len
                    );
                }
                println!("checksums      : ok");
            }
        }
        return Ok(());
    }
    let reader =
        IndexReader::open(Path::new(file)).map_err(|e| format!("cannot open index {file}: {e}"))?;
    reader
        .verify()
        .map_err(|e| format!("index {file} fails verification: {e}"))?;
    let stats = reader.stats();
    match format {
        Format::Json => {
            let mut fields = index_stats_json(&stats);
            fields.insert("sharded".to_owned(), Value::Bool(false));
            fields.insert("checksums".to_owned(), Value::Str("ok".to_owned()));
            let mut snap = xks::obs::Snapshot::new();
            reader.collect_into("", &mut snap);
            fields.insert("metrics".to_owned(), snapshot_json(&snap));
            println!("{}", json::to_string(&Value::Obj(fields)));
        }
        Format::Text => {
            println!("file length    : {} bytes", stats.file_len);
            println!("page size      : {}", stats.page_size);
            println!("elements       : {}", stats.element_count);
            println!("keywords       : {}", stats.keyword_count);
            println!("labels         : {}", stats.label_count);
            println!(
                "postings       : {} bytes ({} pages)",
                stats.postings_len, stats.postings_pages
            );
            println!("checksums      : ok");
        }
    }
    Ok(())
}

// -- durability commands ------------------------------------------------

/// `xks verify --index`: stream the full CRC verification of a
/// monolithic `.xks` or every shard of a `.xksm` corpus. Exits non-zero
/// (via the `Err` path) on the first corrupt section, naming it.
fn cmd_verify(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("verify", args, accepts::VERIFY)?;
    let path = match (flags.get_str("index"), positional.as_slice()) {
        (Some(p), []) => p.to_owned(),
        (None, [p]) => p.clone(),
        _ => {
            return Err(format!(
                "verify needs --index <file.xks|file.xksm>\n{USAGE}"
            ))
        }
    };
    if is_shard_manifest(&path)? {
        let corpus = ShardedCorpus::open(Path::new(&path))
            .map_err(|e| format!("{path}: verification FAILED: {e}"))?;
        corpus
            .verify()
            .map_err(|e| format!("{path}: verification FAILED: {e}"))?;
        let manifest = corpus.manifest();
        println!(
            "{path}: ok ({} shard(s), {} elements, {} keywords, every checksum verified)",
            manifest.shards.len(),
            manifest.total_elements,
            manifest.total_keywords
        );
    } else {
        let reader = IndexReader::open(Path::new(&path))
            .map_err(|e| format!("{path}: verification FAILED: {e}"))?;
        reader
            .verify()
            .map_err(|e| format!("{path}: verification FAILED: {e}"))?;
        let stats = reader.stats();
        println!(
            "{path}: ok ({} elements, {} keywords, every checksum verified)",
            stats.element_count, stats.keyword_count
        );
    }
    Ok(())
}

/// Opens the mutable corpus in `dir`, creating it (root `<{root}/>`)
/// when the directory holds no corpus yet and creation is allowed.
fn open_or_create_corpus(
    dir: &str,
    root: Option<&str>,
    create: bool,
) -> Result<MutableCorpus, String> {
    let path = Path::new(dir);
    if MutableCorpus::exists(path) {
        MutableCorpus::open(path).map_err(|e| format!("cannot open corpus {dir}: {e}"))
    } else if create {
        let root = root.unwrap_or("corpus");
        eprintln!("creating new corpus in {dir} (root <{root}>)");
        MutableCorpus::create(path, root).map_err(|e| format!("cannot create corpus {dir}: {e}"))
    } else {
        Err(format!("no corpus in {dir} (insert creates one)"))
    }
}

/// `xks insert`: append one document to a WAL-backed corpus directory,
/// creating the corpus on first use. The document is durable (framed,
/// checksummed, fsynced) before the ordinal is reported.
fn cmd_insert(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("insert", args, accepts::INSERT)?;
    let Some(dir) = flags.get_str("corpus") else {
        return Err(format!("insert needs --corpus <dir>\n{USAGE}"));
    };
    let [file] = positional.as_slice() else {
        return Err(format!("insert needs <file.xml>\n{USAGE}"));
    };
    let xml = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let mut corpus = open_or_create_corpus(dir, flags.get_str("root"), true)?;
    let ordinal = corpus
        .insert_xml(xml.trim())
        .map_err(|e| format!("cannot insert {file}: {e}"))?;
    eprintln!(
        "inserted document {ordinal} ({} WAL bytes durable, {} delta doc(s) pending compaction)",
        corpus.wal_len(),
        corpus.source().delta_doc_count()
    );
    Ok(())
}

/// `xks delete`: tombstone one document by ordinal. Durable in the WAL
/// before this reports success; the ordinal is never reused.
fn cmd_delete(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("delete", args, accepts::DELETE)?;
    let Some(dir) = flags.get_str("corpus") else {
        return Err(format!("delete needs --corpus <dir>\n{USAGE}"));
    };
    if let [extra, ..] = positional.as_slice() {
        return Err(format!(
            "delete takes no positional file (got {extra:?})\n{USAGE}"
        ));
    }
    let Some(doc) = flags.get_usize("doc")? else {
        return Err(format!("delete needs --doc <ordinal>\n{USAGE}"));
    };
    let ordinal = u32::try_from(doc).map_err(|_| "--doc too large".to_owned())?;
    let mut corpus = open_or_create_corpus(dir, None, false)?;
    corpus
        .delete(ordinal)
        .map_err(|e| format!("cannot delete document {ordinal}: {e}"))?;
    eprintln!(
        "deleted document {ordinal} ({} tombstone(s) pending compaction)",
        corpus.source().tombstone_count()
    );
    Ok(())
}

/// `xks compact`: seal base + delta into a new generation of `.xks`
/// shards, swap the manifest atomically, and reset the WAL.
fn cmd_compact(args: &[String]) -> Result<(), String> {
    let (positional, flags) = split_flags("compact", args, accepts::COMPACT)?;
    let Some(dir) = flags.get_str("corpus") else {
        return Err(format!("compact needs --corpus <dir>\n{USAGE}"));
    };
    if let [extra, ..] = positional.as_slice() {
        return Err(format!(
            "compact takes no positional file (got {extra:?})\n{USAGE}"
        ));
    }
    let shards = flags.get_usize("shards")?.unwrap_or(1).max(1);
    let mut corpus = open_or_create_corpus(dir, None, false)?;
    let summary = corpus
        .compact(shards)
        .map_err(|e| format!("compaction failed: {e}"))?;
    eprintln!(
        "sealed {} document(s) / {} element(s) into {} shard(s) (generation {}) -> {}",
        summary.sealed_docs,
        summary.total_elements,
        summary.shard_count,
        summary.generation,
        summary.manifest_path.display()
    );
    Ok(())
}

// -- workload matrix ----------------------------------------------------

/// `xks workload` — list, inspect, and materialize the scenario cells
/// of the workload matrix (see docs/WORKLOADS.md). Generated corpora
/// and query files feed straight into `xks bench`/`xks search`.
fn cmd_workload(args: &[String]) -> Result<(), String> {
    use xks::datagen::scenario::ScenarioSpec;

    let (positional, flags) = split_flags("workload", args, accepts::WORKLOAD)?;
    match positional.first().map(String::as_str) {
        Some("list") => cmd_workload_list(&flags),
        Some("show") => {
            let name = positional
                .get(1)
                .ok_or_else(|| format!("workload show expects a cell name\n{USAGE}"))?;
            let spec = ScenarioSpec::parse(name).ok_or_else(|| {
                format!("unknown workload cell {name:?} (try: xks workload list)")
            })?;
            cmd_workload_show(&spec, &flags)
        }
        Some("generate") => {
            let which = positional.get(1).ok_or_else(|| {
                format!("workload generate expects a cell name or \"all\"\n{USAGE}")
            })?;
            let specs = if which == "all" {
                ScenarioSpec::matrix()
            } else {
                vec![ScenarioSpec::parse(which).ok_or_else(|| {
                    format!("unknown workload cell {which:?} (try: xks workload list)")
                })?]
            };
            cmd_workload_generate(&specs, flags.get_str("out").unwrap_or("."))
        }
        Some(other) => Err(format!(
            "unknown workload subcommand {other:?} (list | show | generate)\n{USAGE}"
        )),
        None => Err(format!(
            "workload expects a subcommand: list | show <cell> | generate <cell>|all\n{USAGE}"
        )),
    }
}

fn workload_cell_meta(spec: &xks::datagen::scenario::ScenarioSpec) -> Value {
    Value::Obj(wire::obj([
        ("name", Value::Str(spec.name())),
        ("scale", Value::Num(u64::from(spec.scale))),
        ("shape", Value::Str(spec.shape.token().to_owned())),
        ("skew", Value::Str(spec.skew.token().to_owned())),
        ("tenancy", Value::Str(spec.tenancy.token())),
        ("records", Value::Num(spec.records() as u64)),
    ]))
}

fn cmd_workload_list(flags: &Flags) -> Result<(), String> {
    use xks::datagen::scenario::ScenarioSpec;

    let matrix = ScenarioSpec::matrix();
    match Format::from_flags(flags)? {
        Format::Json => {
            let cells: Vec<Value> = matrix.iter().map(workload_cell_meta).collect();
            let root = Value::Obj(wire::obj([
                ("schema", Value::Str("xks-workload-list/1".to_owned())),
                ("cells", Value::Arr(cells)),
            ]));
            println!("{}", json::to_string(&root));
        }
        Format::Text => {
            println!(
                "{:<26} {:>5}  {:<5} {:<8} {:<8} {:>8}",
                "cell", "scale", "shape", "skew", "tenancy", "records"
            );
            for spec in &matrix {
                println!(
                    "{:<26} {:>5}  {:<5} {:<8} {:<8} {:>8}",
                    spec.name(),
                    spec.scale,
                    spec.shape.token(),
                    spec.skew.token(),
                    spec.tenancy.token(),
                    spec.records(),
                );
            }
        }
    }
    Ok(())
}

fn cmd_workload_show(
    spec: &xks::datagen::scenario::ScenarioSpec,
    flags: &Flags,
) -> Result<(), String> {
    use xks::datagen::scenario::QueryClass;

    let scenario = spec.generate();
    let max_depth = scenario
        .tree
        .preorder()
        .map(|id| scenario.tree.depth(id))
        .max()
        .unwrap_or(0);
    match Format::from_flags(flags)? {
        Format::Json => {
            let classes: Vec<Value> = QueryClass::ALL
                .iter()
                .map(|class| {
                    Value::Obj(wire::obj([
                        ("class", Value::Str(class.name().to_owned())),
                        (
                            "queries",
                            Value::Arr(
                                scenario
                                    .queries_of(*class)
                                    .iter()
                                    .map(|q| Value::Str((*q).to_owned()))
                                    .collect(),
                            ),
                        ),
                    ]))
                })
                .collect();
            let mut root = workload_cell_meta(spec);
            if let Value::Obj(map) = &mut root {
                map.insert(
                    "schema".to_owned(),
                    Value::Str("xks-workload-show/1".to_owned()),
                );
                map.insert(
                    "elements".to_owned(),
                    Value::Num(scenario.tree.len() as u64),
                );
                map.insert("tenants".to_owned(), Value::Num(scenario.tenants as u64));
                map.insert("max_depth".to_owned(), Value::Num(max_depth as u64));
                map.insert("classes".to_owned(), Value::Arr(classes));
            }
            println!("{}", json::to_string(&root));
        }
        Format::Text => {
            println!(
                "{}: {} records, {} elements, {} tenant(s), max depth {}",
                spec.name(),
                scenario.records,
                scenario.tree.len(),
                scenario.tenants,
                max_depth,
            );
            for class in QueryClass::ALL {
                let queries = scenario.queries_of(class);
                println!("  {} ({}):", class.name(), queries.len());
                for q in queries {
                    println!("    {q}");
                }
            }
        }
    }
    Ok(())
}

fn cmd_workload_generate(
    specs: &[xks::datagen::scenario::ScenarioSpec],
    out: &str,
) -> Result<(), String> {
    use std::fmt::Write as _;
    use xks::datagen::scenario::QueryClass;
    use xks::xmltree::writer::to_xml_compact;

    let dir = Path::new(out);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {out}: {e}"))?;
    for spec in specs {
        let name = spec.name();
        let scenario = spec.generate();

        let xml_path = dir.join(format!("{name}.xml"));
        std::fs::write(&xml_path, to_xml_compact(&scenario.tree))
            .map_err(|e| format!("cannot write {}: {e}", xml_path.display()))?;

        // The query file doubles as an `xks bench --queries` workload:
        // class markers are comments, which the bench reader skips.
        let mut queries = format!("# workload cell {name} (seed {:#x})\n", spec.seed);
        for class in QueryClass::ALL {
            let _ = writeln!(queries, "# class: {}", class.name());
            for q in scenario.queries_of(class) {
                let _ = writeln!(queries, "{q}");
            }
        }
        let q_path = dir.join(format!("{name}.queries.txt"));
        std::fs::write(&q_path, queries)
            .map_err(|e| format!("cannot write {}: {e}", q_path.display()))?;

        eprintln!(
            "wrote {} ({} records, {} elements) and {} ({} queries)",
            xml_path.display(),
            scenario.records,
            scenario.tree.len(),
            q_path.display(),
            scenario.queries.len(),
        );
    }
    Ok(())
}

// -- tiny flag parser ---------------------------------------------------

struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }
    fn get_str(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }
    fn get_usize(&self, name: &str) -> Result<Option<usize>, String> {
        match self.get_str(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} expects a number, got {v:?}")),
        }
    }
}

/// The flags each command takes: `(name, takes a value)`.
#[rustfmt::skip]
mod accepts {
    pub const SEARCH: &[(&str, bool)] = &[
        ("algo", true), ("format", true), ("limit", true), ("top-k", true), ("threads", true),
        ("trace-out", true), ("timeout-ms", true), ("xml", false), ("rank", false),
        ("trace", false), ("index", true), ("corpus", true), ("shard-threads", true),
    ];
    pub const SERVE: &[(&str, bool)] = &[
        ("addr", true), ("port", true), ("workers", true), ("queue-depth", true),
        ("timeout-ms", true), ("drain-ms", true), ("idle-ms", true), ("max-body-bytes", true),
        ("index", true), ("corpus", true), ("shard-threads", true),
    ];
    pub const EXPLAIN: &[(&str, bool)] = &[
        ("algo", true), ("format", true), ("index", true), ("corpus", true), ("shard-threads", true),
    ];
    pub const BENCH: &[(&str, bool)] = &[
        ("algo", true), ("format", true), ("top-k", true), ("threads", true), ("sweeps", true),
        ("queries", true), ("index", true), ("corpus", true), ("shard-threads", true),
    ];
    pub const COMPARE: &[(&str, bool)] = &[("format", true)];
    pub const STATS: &[(&str, bool)] = &[
        ("top", true), ("algo", true), ("top-k", true), ("threads", true), ("queries", true),
        ("index", true), ("corpus", true), ("shard-threads", true),
    ];
    pub const BUILD_INDEX: &[(&str, bool)] = &[("page-size", true), ("shards", true)];
    pub const INDEX_STATS: &[(&str, bool)] = &[("format", true)];
    pub const VERIFY: &[(&str, bool)] = &[("index", true)];
    pub const INSERT: &[(&str, bool)] = &[("corpus", true), ("root", true)];
    pub const DELETE: &[(&str, bool)] = &[("corpus", true), ("doc", true)];
    pub const COMPACT: &[(&str, bool)] = &[("corpus", true), ("shards", true)];
    pub const WORKLOAD: &[(&str, bool)] = &[("format", true), ("out", true)];
}

/// Splits positional arguments from `--flag [value]` pairs. `accepted`
/// lists the flags `command` takes; any other flag is a usage error.
fn split_flags(
    command: &str,
    args: &[String],
    accepted: &[(&str, bool)],
) -> Result<(Vec<String>, Flags), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let Some(&(_, valued)) = accepted.iter().find(|(n, _)| *n == name) else {
                return Err(format!("{command}: unknown flag --{name}"));
            };
            let value = if valued {
                let value = it.next().cloned();
                Some(value.ok_or_else(|| format!("--{name} expects a value"))?)
            } else {
                None
            };
            flags.push((name.to_owned(), value));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, Flags(flags)))
}
