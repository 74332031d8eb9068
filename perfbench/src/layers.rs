//! The layer ladder: one query list pushed through each layer in turn —
//! grammar parse, LCA kernels, `execute_with`, pooled `execute`,
//! `run_batch`, wire render — plus the probes of the on-disk reader and
//! of the telemetry primitives. Every function here drives the program
//! through public functions only and reads the counters those already
//! return (`StageTimings`, `SearchStats`, `IndexStats`).
//!
//! Each metric names, in `perfbench/README.md`, the end-to-end metric it
//! should move and on which workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use validrtf::engine::SearchEngine;
use validrtf::plan::PlanStrategy;
use validrtf::request::SearchRequest;
use validrtf::{run_batch, QueryContext};
use xks_lca::{elca_into_context, planned_elca_into_context};
use xks_persist::{IndexReader, IndexStats};
use xks_xmltree::Dewey;

use crate::corpus::{render, request, Expected};
use crate::harness::{median_ns, ns_since, percentile, Raw};
use crate::metrics::Values;

/// One engine with the queries it answers and the oracle's answers.
pub struct Unit<'a> {
    /// The engine under test.
    pub engine: &'a SearchEngine,
    /// Query texts.
    pub queries: &'a [String],
    /// What each query must answer.
    pub expected: &'a [Expected],
}

fn until(budget: Duration, mut cycle: impl FnMut()) {
    let started = Instant::now();
    loop {
        cycle();
        if started.elapsed() >= budget {
            break;
        }
    }
}

/// What set-up spent in each layer, summed over a workload's corpora.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupLadder {
    /// Bytes of XML text parsed.
    pub xml_bytes: usize,
    /// Seconds in `xks_xmltree::parse`.
    pub parse_s: f64,
    /// Seconds in `xks_store::shred`.
    pub shred_s: f64,
    /// Seconds in `IndexWriter::write` (0 without an index file).
    pub write_s: f64,
    /// Seconds in `IndexReader::open` / `MutableCorpus::open`.
    pub open_s: f64,
    /// Bytes stored on disk: `.xks` files, shards, manifest, WAL.
    pub stored_bytes: u64,
}

impl SetupLadder {
    /// One corpus's parse and shred time, with what storing it cost.
    pub fn new(
        corpus: &crate::corpus::Corpus,
        write_s: f64,
        open_s: f64,
        stored_bytes: u64,
    ) -> Self {
        SetupLadder {
            xml_bytes: corpus.xml_bytes,
            parse_s: corpus.parse_s,
            shred_s: corpus.shred_s,
            write_s,
            open_s,
            stored_bytes,
        }
    }

    /// Adds another corpus's ladder to this one.
    pub fn add(&mut self, other: &SetupLadder) {
        self.xml_bytes += other.xml_bytes;
        self.parse_s += other.parse_s;
        self.shred_s += other.shred_s;
        self.write_s += other.write_s;
        self.open_s += other.open_s;
        self.stored_bytes += other.stored_bytes;
    }

    /// `xmltree.parse_mb_per_s`, `store.shred_ms`, `persist.write_ms`,
    /// `persist.open_us`, `e2e.index_bytes_per_input_byte`.
    pub fn emit(&self, out: &mut Values) {
        out.set(
            "xmltree.parse_mb_per_s",
            self.xml_bytes as f64 / 1e6 / self.parse_s,
        );
        out.set("store.shred_ms", self.shred_s * 1e3);
        out.set("persist.write_ms", self.write_s * 1e3);
        out.set("persist.open_us", self.open_s * 1e6);
        out.set(
            "e2e.index_bytes_per_input_byte",
            self.stored_bytes as f64 / self.xml_bytes as f64,
        );
    }
}

/// `index.parse_ns`, `core.execute_with_ns`, `core.pool_overhead_ns`,
/// `core.render_*`, the stage shares, and the exact work counts.
pub fn engine_ladder(units: &[Unit<'_>], seconds: f64, out: &mut Values) {
    let (mut parse, mut with_ctx, mut rendering) = (vec![], vec![], vec![]);
    let mut pool_delta: Vec<i64> = Vec::new();
    let mut stage_ns = [0u128; 5];
    let (mut gallops, mut executions, mut render_bytes) = (0u64, 0u64, 0u64);
    let mut ctx = QueryContext::new();
    let mut cycle = 0usize;
    until(Duration::from_secs_f64(seconds), || {
        for unit in units {
            for text in unit.queries {
                let started = Instant::now();
                let req = black_box(request(black_box(text)));
                parse.push(ns_since(started));

                // The second execution of a query finds the caches the
                // first one filled, so the pooled and the caller-owned
                // entry point take turns going first and the pool's
                // cost is the median of their paired differences.
                let pooled_first = cycle % 2 == 1;
                let mut pooled_ns = 0;
                if pooled_first {
                    let started = Instant::now();
                    black_box(unit.engine.execute(&req).expect("executes"));
                    pooled_ns = ns_since(started);
                }
                let started = Instant::now();
                let response = unit.engine.execute_with(&req, &mut ctx).expect("executes");
                let with_ctx_ns = ns_since(started);
                if !pooled_first {
                    let started = Instant::now();
                    black_box(unit.engine.execute(&req).expect("executes"));
                    pooled_ns = ns_since(started);
                }
                with_ctx.push(with_ctx_ns);
                pool_delta.push(pooled_ns as i64 - with_ctx_ns as i64);

                let t = &response.timings;
                for (slot, d) in stage_ns.iter_mut().zip([
                    t.get_keyword_nodes,
                    t.get_lca,
                    t.get_rtf,
                    t.prune_rtf,
                    t.post_process,
                ]) {
                    *slot += d.as_nanos();
                }
                gallops += u64::from(response.stats.plan_strategy == PlanStrategy::Gallop);
                executions += 1;

                let started = Instant::now();
                let body = render(unit.engine, &req, &response);
                rendering.push(ns_since(started));
                render_bytes += body.len() as u64;
                black_box(body);
            }
        }
        cycle += 1;
    });
    let n = parse.len();
    out.set_n("index.parse_ns", median_ns(&parse), n);
    out.set_n("core.execute_with_ns", median_ns(&with_ctx), n);
    pool_delta.sort_unstable();
    out.set_n("core.pool_overhead_ns", pool_delta[n / 2] as f64, n);
    out.set_n("core.render_ns", median_ns(&rendering), n);
    out.set(
        "core.render_bytes_per_query",
        render_bytes as f64 / executions as f64,
    );
    out.set("core.plan.gallop_share", gallops as f64 / executions as f64);
    let total: u128 = stage_ns.iter().sum::<u128>().max(1);
    for (name, ns) in [
        "core.stage.resolve_share",
        "core.stage.lca_share",
        "core.stage.rtf_share",
        "core.stage.prune_share",
        "core.stage.post_share",
    ]
    .into_iter()
    .zip(stage_ns)
    {
        out.set(name, ns as f64 / total as f64);
    }
    let queries: usize = units.iter().map(|u| u.queries.len()).sum();
    let expected = || units.iter().flat_map(|u| u.expected);
    out.set(
        "core.postings_per_query",
        expected().map(|e| e.postings).sum::<u64>() as f64 / queries as f64,
    );
    out.set(
        "core.fragments_per_query",
        expected().map(|e| e.hits).sum::<usize>() as f64 / queries as f64,
    );
}

/// Resolves each query's keyword sets `D_1..D_k` once, the way
/// `getKeywordNodes` does; queries with an absent keyword resolve to
/// nothing and are left out of the kernel replay.
fn resolved_sets(unit: &Unit<'_>) -> Vec<Vec<Vec<Dewey>>> {
    unit.queries
        .iter()
        .filter_map(|text| {
            let req = request(text);
            let sets = match unit.engine.corpus() {
                Some(source) => source.try_resolve(req.query()).expect("resolves"),
                None => unit.engine.index().resolve(req.query()),
            }?;
            Some(sets.sets().to_vec())
        })
        .collect()
}

/// `lca.elca_ns_per_posting` — the merge kernel on every query — and
/// `lca.planned_elca_ns_per_posting` — the galloping kernel on the
/// queries the planner would gallop (`choose_strategy` on the resolved
/// list lengths) — both per posting of the lists they were given.
pub fn lca_replay(units: &[Unit<'_>], seconds: f64, out: &mut Values) {
    let all: Vec<Vec<Vec<Dewey>>> = units.iter().flat_map(resolved_sets).collect();
    let lens = |sets: &[Vec<Dewey>]| sets.iter().map(Vec::len).collect::<Vec<_>>();
    let postings = |queries: &[&Vec<Vec<Dewey>>]| -> u64 {
        queries
            .iter()
            .flat_map(|q| q.iter())
            .map(|s| s.len() as u64)
            .sum()
    };
    let every: Vec<&Vec<Vec<Dewey>>> = all.iter().collect();
    let galloped: Vec<&Vec<Vec<Dewey>>> = all
        .iter()
        .filter(|sets| validrtf::choose_strategy(&lens(sets), true) == PlanStrategy::Gallop)
        .collect();
    if postings(&every) == 0 {
        return;
    }
    let mut ctx = QueryContext::new();
    let (mut merge_ns, mut gallop_ns, mut sweeps) = (0u64, 0u64, 0u64);
    until(Duration::from_secs_f64(seconds), || {
        let started = Instant::now();
        for sets in &every {
            elca_into_context(black_box(sets), &mut ctx);
            black_box(ctx.anchors.len());
        }
        merge_ns += ns_since(started);
        let started = Instant::now();
        for sets in &galloped {
            planned_elca_into_context(
                black_box(sets),
                validrtf::choose_driver(&lens(sets)),
                &mut ctx,
            );
            black_box(ctx.anchors.len());
        }
        gallop_ns += ns_since(started);
        sweeps += 1;
    });
    out.set_n(
        "lca.elca_ns_per_posting",
        merge_ns as f64 / (sweeps * postings(&every)) as f64,
        sweeps as usize,
    );
    if !galloped.is_empty() {
        out.set_n(
            "lca.planned_elca_ns_per_posting",
            gallop_ns as f64 / (sweeps * postings(&galloped)) as f64,
            sweeps as usize,
        );
    }
}

/// Queries per second of `run_batch` over the whole list on `threads`.
fn batch_qps(
    units: &[Unit<'_>],
    requests: &[Vec<SearchRequest>],
    threads: usize,
    seconds: f64,
) -> f64 {
    let (mut done, started) = (0usize, Instant::now());
    until(Duration::from_secs_f64(seconds), || {
        for (unit, reqs) in units.iter().zip(requests) {
            let results = run_batch(unit.engine, reqs, threads);
            assert!(results.iter().all(Result::is_ok), "batch request failed");
            done += black_box(results).len();
        }
    });
    done as f64 / started.elapsed().as_secs_f64()
}

/// `core.batch_qps_t1` and `core.batch_qps_t2`.
pub fn batch_ladder(units: &[Unit<'_>], seconds: f64, out: &mut Values) {
    let requests: Vec<Vec<SearchRequest>> = units
        .iter()
        .map(|u| u.queries.iter().map(|q| request(q)).collect())
        .collect();
    out.set(
        "core.batch_qps_t1",
        batch_qps(units, &requests, 1, seconds / 2.0),
    );
    out.set(
        "core.batch_qps_t2",
        batch_qps(units, &requests, 2, seconds / 2.0),
    );
}

/// Plain `execute` rate of one engine over its list — how the three
/// backends are compared on identical inputs.
pub fn execute_qps(unit: &Unit<'_>, seconds: f64) -> f64 {
    let requests: Vec<SearchRequest> = unit.queries.iter().map(|q| request(q)).collect();
    let (mut done, mut busy_ns) = (0u64, 0u64);
    until(Duration::from_secs_f64(seconds), || {
        for (req, want) in requests.iter().zip(unit.expected) {
            let started = Instant::now();
            let response = unit.engine.execute(req).expect("executes");
            busy_ns += ns_since(started);
            assert!(want.matches(&response), "backend answered wrongly");
            done += 1;
        }
    });
    done as f64 / (busy_ns as f64 / 1e9)
}

/// The reader counters over a measured stretch: hit ratios and pages
/// per query from two `IndexReader::stats()` readings (exact with one
/// caller).
pub fn reader_deltas(before: &IndexStats, after: &IndexStats, queries: u64, out: &mut Values) {
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    out.set(
        "persist.element_cache_hit_ratio",
        ratio(
            after.element_cache_hits - before.element_cache_hits,
            after.element_cache_misses - before.element_cache_misses,
        ),
    );
    out.set(
        "persist.postings_cache_hit_ratio",
        ratio(
            after.postings_cache_hits - before.postings_cache_hits,
            after.postings_cache_misses - before.postings_cache_misses,
        ),
    );
    out.set(
        "persist.pool_hit_ratio",
        ratio(
            after.pool.cache_hits - before.pool.cache_hits,
            after.pool.cache_misses - before.pool.cache_misses,
        ),
    );
    let per_query = |delta: u64| delta as f64 / queries.max(1) as f64;
    out.set(
        "persist.pages_read_per_query",
        per_query(after.pool.pages_read - before.pool.pages_read),
    );
    out.set(
        "persist.pool_evictions_per_query",
        per_query(after.pool.evictions - before.pool.evictions),
    );
}

/// `persist.postings_decode_ns_per_posting` (first touch of every query
/// keyword on a fresh reader) and `persist.element_fetch_ns`
/// (`try_element` on nodes the first pass already brought in).
pub fn reader_probes(index_path: &std::path::Path, queries: &[String], out: &mut Values) {
    let reader = IndexReader::open(index_path).expect("index opens");
    let mut keywords: Vec<String> = queries
        .iter()
        .flat_map(|q| request(q).query().keywords().to_vec())
        .collect();
    keywords.sort();
    keywords.dedup();
    let (mut decode_ns, mut postings) = (0u64, 0u64);
    let mut nodes: Vec<Dewey> = Vec::new();
    for keyword in &keywords {
        let started = Instant::now();
        let list = reader.try_keyword_deweys(keyword).expect("postings decode");
        decode_ns += ns_since(started);
        postings += list.len() as u64;
        nodes.extend(list.into_iter().take(64));
    }
    if postings > 0 {
        out.set_n(
            "persist.postings_decode_ns_per_posting",
            decode_ns as f64 / postings as f64,
            keywords.len(),
        );
    }
    for node in &nodes {
        black_box(reader.try_element(node).expect("element reads"));
    }
    let fetch: Vec<u64> = nodes
        .iter()
        .map(|node| {
            let started = Instant::now();
            black_box(reader.try_element(node).expect("element reads"));
            ns_since(started)
        })
        .collect();
    let n = fetch.len();
    out.set_n("persist.element_fetch_ns", median_ns(&fetch), n);
}

/// `obs.histogram_record_ns`: what one `Histogram::record` costs — the
/// unit every per-query telemetry update is made of.
pub fn histogram_probe(out: &mut Values) {
    const RECORDS: u64 = 2_000_000;
    let histogram = xks_obs::Histogram::new();
    let started = Instant::now();
    for v in 0..RECORDS {
        histogram.record(black_box(v));
    }
    out.set_n(
        "obs.histogram_record_ns",
        ns_since(started) as f64 / RECORDS as f64,
        RECORDS as usize,
    );
    black_box(histogram.snapshot().count);
}

/// `e2e.p99_us`, `e2e.max_us`, `e2e.fail_ratio` over every operation a
/// per-layer run made — raw samples, nothing filtered. Returns
/// (attempted, failed).
pub fn tail_metrics(stretches: &[&Raw], out: &mut Values) -> (u64, u64) {
    let (mut all, mut attempted, mut failed) = (Vec::new(), 0, 0);
    for raw in stretches {
        all.extend_from_slice(&raw.latencies_ns);
        attempted += raw.attempted;
        failed += raw.failed;
    }
    all.sort_unstable();
    out.set_n("e2e.p99_us", percentile(&all, 0.99) as f64 / 1e3, all.len());
    out.set_n("e2e.max_us", percentile(&all, 1.0) as f64 / 1e3, all.len());
    out.set("e2e.fail_ratio", failed as f64 / attempted.max(1) as f64);
    (attempted, failed)
}
