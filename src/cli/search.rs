//! `xks search` and its text renderers.

use xks::core::engine::SearchEngine;
use xks::core::executor::run_batch_stats;
use xks::core::wire::{self, obj};
use xks::core::{SearchRequest, SearchResponse};
use xks::obs::QueryTrace;
use xks::store::json::Value;

use super::backend::{build_requests, open_engine};
use super::{print_json, Args, Format};

pub fn run(args: &Args) -> Result<(), String> {
    let algo = args.algo()?;
    let format = args.format()?;
    let limit = args.num("limit")?.unwrap_or(usize::MAX);
    let (top_k, threads) = args.batch()?;
    let as_xml = args.has("xml");
    let trace_out = args.str("trace-out");
    let traced = args.has("trace") || trace_out.is_some();
    let timeout = args.millis("timeout-ms")?;

    // One or more query strings; several queries fan out over the
    // executor's worker threads (`--threads N`).
    let (engine, _, query_args) = open_engine(args)?;
    if query_args.is_empty() {
        return Err(args.usage_error("needs at least one <query>"));
    }
    if as_xml && engine.parsed_tree().is_none() {
        return Err(
            "--xml needs the original document; stored indexes and corpora keep only \
             keywords (drop --xml or search the .xml file)"
                .to_owned(),
        );
    }
    let mut requests = build_requests(query_args, algo, top_k, args.has("rank"), traced)?;
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
        if let (Some(path), Some(trace)) = (trace_out, response.trace.as_ref()) {
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
        print_json(&Value::Obj(obj([("results", Value::Arr(json_results))])));
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
pub fn format_us(ns: u64) -> String {
    format!("{}.{:03}µs", ns / 1_000, ns % 1_000)
}
