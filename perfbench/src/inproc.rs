//! The two in-process workloads, one caller thread, closed loop:
//!
//! * `paper43-mem` — the paper's 43 Figure 5/6 queries over the
//!   DBLP-alike and XMark-alike corpora on `MemoryCorpus`. Small
//!   results, all time in `lca` + `core`; the control that `persist`
//!   and `serve` changes must not move.
//! * `zipf100-disk` — `s100-flat-zipf-single` through one `IndexReader`
//!   with default `ReaderOptions`; the working set is larger than the
//!   element cache, results are thousands of fragments per query.
//!
//! An operation is query text in → rendered JSON bytes out:
//! `SearchRequest::parse` → `SearchEngine::execute` →
//! `wire::response_json(..).to_string()`.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use validrtf::engine::SearchEngine;
use validrtf::MemoryCorpus;
use xks_datagen::scenario::Skew;
use xks_persist::{write_sharded, IndexReader, IndexWriter, ShardedCorpus};

use crate::corpus::{cold_query_ms, gate, render, request, Corpus, Expected};
use crate::harness::{closed_loop, ns_since, reset_rss_peak, Measured, Plan, Raw, Scratch};
use crate::layers::{self, SetupLadder, Unit};
use crate::metrics::Values;
use crate::spans::SpanLog;
use crate::{Outcome, RunConfig};

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `paper43-mem`.
    Paper43Mem,
    /// `zipf100-disk`.
    Zipf100Disk,
}

/// One corpus with the engine under test over it.
struct Group {
    corpus: Corpus,
    engine: SearchEngine,
    /// Disk workloads: the shared reader (for `stats()`) and its file.
    disk: Option<(Arc<IndexReader>, PathBuf)>,
    ladder: SetupLadder,
}

fn memory_group(corpus: Corpus) -> Group {
    let engine = SearchEngine::from_owned_source(MemoryCorpus::new(corpus.doc.clone()));
    Group {
        ladder: SetupLadder::new(&corpus, 0.0, 0.0, 0),
        corpus,
        engine,
        disk: None,
    }
}

fn disk_group(corpus: Corpus, scratch: &Scratch) -> Group {
    let path = scratch.path().join("corpus.xks");
    let started = Instant::now();
    let summary = IndexWriter::new()
        .write(&corpus.doc, &path)
        .expect("index writes");
    let write_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let reader = Arc::new(IndexReader::open(&path).expect("index opens"));
    let open_s = started.elapsed().as_secs_f64();
    Group {
        engine: SearchEngine::from_source(Arc::clone(&reader) as _),
        ladder: SetupLadder::new(&corpus, write_s, open_s, summary.file_len),
        corpus,
        disk: Some((reader, path)),
    }
}

/// Everything `setup_s` covers: generate + parse + shred + (index write
/// + open) + one warm-up cycle of the query list.
fn set_up(kind: Kind, seed: u64, scratch: &Scratch) -> Vec<Group> {
    let groups = match kind {
        Kind::Paper43Mem => vec![
            memory_group(Corpus::dblp(seed)),
            memory_group(Corpus::xmark(seed)),
        ],
        Kind::Zipf100Disk => vec![disk_group(
            Corpus::matrix_cell(100, Skew::Zipf, seed),
            scratch,
        )],
    };
    for group in &groups {
        for text in &group.corpus.queries {
            let req = request(text);
            let response = group.engine.execute(&req).expect("warm-up executes");
            black_box(render(&group.engine, &req, &response));
        }
    }
    groups
}

/// The operation list: (unit, query) pairs in list order.
fn operations(units: &[Unit<'_>]) -> Vec<(usize, usize)> {
    units
        .iter()
        .enumerate()
        .flat_map(|(u, unit)| (0..unit.queries.len()).map(move |q| (u, q)))
        .collect()
}

/// The untraced closed loop over the whole operation list.
fn measure(units: &[Unit<'_>], plan: Plan) -> Vec<Raw> {
    let ops = operations(units);
    closed_loop(plan, ops.len(), |i| {
        let (u, q) = ops[i];
        let unit = &units[u];
        let started = Instant::now();
        let req = request(&unit.queries[q]);
        let response = unit.engine.execute(&req).map_err(drop)?;
        let body = render(unit.engine, &req, &response);
        let ns = ns_since(started);
        black_box(body.len());
        unit.expected[q].matches(&response).then_some(ns).ok_or(())
    })
}

/// The traced stretch: the same loop with `SearchRequest::trace(true)` and
/// benchmark-side spans around every layer call.
fn measure_traced(units: &[Unit<'_>], seconds: f64, log: &mut SpanLog) -> Raw {
    let ops = operations(units);
    let mut contexts: Vec<validrtf::QueryContext> =
        units.iter().map(|_| Default::default()).collect();
    closed_loop(Plan::stretch(seconds), ops.len(), |i| {
        let (u, q) = ops[i];
        let unit = &units[u];
        let started = Instant::now();
        let op = log.open_op(started);
        let req = request(&unit.queries[q]).trace(true);
        let parsed = Instant::now();
        let response = unit
            .engine
            .execute_with(&req, &mut contexts[u])
            .map_err(drop)?;
        let executed = Instant::now();
        let body = render(unit.engine, &req, &response);
        let ended = Instant::now();
        let ns = u64::try_from((ended - started).as_nanos()).unwrap_or(u64::MAX);
        log.child(op, "parse", started, parsed);
        let execute = log.child(op, "execute", parsed, executed);
        if let Some(trace) = &response.trace {
            log.adopt_engine_trace(execute, trace);
        }
        log.child(op, "render", executed, ended);
        log.close(op, ended);
        black_box(body.len());
        unit.expected[q].matches(&response).then_some(ns).ok_or(())
    })
    .pop()
    .expect("one stretch")
}

fn gate_all(kind: Kind, groups: &[Group]) -> Vec<Vec<Expected>> {
    groups
        .iter()
        .enumerate()
        .map(|(g, group)| {
            gate(
                &format!("{kind:?}/{g}"),
                &group.corpus.tree,
                &group.corpus.queries,
                &group.engine,
            )
        })
        .collect()
}

/// `--trace 0`: the end-to-end metrics, tracing off.
pub fn end_to_end(kind: Kind, cfg: &RunConfig) -> Outcome {
    let scratch = Scratch::new(cfg.workload).expect("scratch directory");
    let mut setups = Vec::new();
    let mut groups = Vec::new();
    while cfg.set_up_again(&setups) {
        drop(std::mem::take(&mut groups));
        let started = Instant::now();
        groups = set_up(kind, cfg.seed, &scratch);
        setups.push(started.elapsed().as_secs_f64());
    }
    let expected = gate_all(kind, &groups);
    for group in &mut groups {
        group.corpus.release();
    }
    let units: Vec<Unit<'_>> = groups
        .iter()
        .zip(&expected)
        .map(|(group, expected)| Unit {
            engine: &group.engine,
            queries: &group.corpus.queries,
            expected,
        })
        .collect();
    reset_rss_peak();
    let measured = Measured::from_slices(measure(&units, cfg.plan()));
    Outcome::end_to_end(&measured, setups)
}

/// `--trace 1`: the per-layer metrics and the trace file.
pub fn per_layer(kind: Kind, cfg: &RunConfig) -> Outcome {
    let scratch = Scratch::new(cfg.workload).expect("scratch directory");
    let groups = set_up(kind, cfg.seed, &scratch);
    let expected = gate_all(kind, &groups);
    let mut values = Values::default();

    let mut ladder = SetupLadder::default();
    for group in &groups {
        ladder.add(&group.ladder);
    }
    ladder.emit(&mut values);

    let units: Vec<Unit<'_>> = groups
        .iter()
        .zip(&expected)
        .map(|(group, expected)| Unit {
            engine: &group.engine,
            queries: &group.corpus.queries,
            expected,
        })
        .collect();

    // Untraced reference stretch (with the reader's counters around
    // it), then the traced one; their rate ratio is the tracing overhead.
    let s = cfg.seconds;
    let before = groups[0].disk.as_ref().map(|(reader, _)| reader.stats());
    let reference = measure(&units, Plan::stretch(0.15 * s))
        .pop()
        .expect("one stretch");
    if let (Some(before), Some((reader, path))) = (before, &groups[0].disk) {
        layers::reader_deltas(&before, &reader.stats(), reference.attempted, &mut values);
        layers::reader_probes(path, &groups[0].corpus.queries, &mut values);
        // What every one-shot `xks search --index` pays.
        let queries = &groups[0].corpus.queries;
        let (cold_ms, n) = cold_query_ms(cfg.cold_passes(), queries, || {
            SearchEngine::from_owned_source(IndexReader::open(path).expect("index opens"))
        });
        values.set_n("e2e.cold_query_ms", cold_ms, n);
    }
    let mut log = SpanLog::at(Instant::now());
    let traced = measure_traced(&units, 0.20 * s, &mut log);
    values.set(
        "core.trace_overhead_ratio",
        traced.rate() / reference.rate(),
    );
    log.report(&cfg.trace_path(), cfg.envelope(), &mut values);

    layers::engine_ladder(&units, 0.20 * s, &mut values);
    layers::lca_replay(&units, 0.10 * s, &mut values);
    layers::batch_ladder(&units, 0.15 * s, &mut values);
    if kind == Kind::Zipf100Disk {
        backend_ladder(&groups[0], &expected[0], &scratch, 0.20 * s, &mut values);
    }
    layers::histogram_probe(&mut values);

    let (attempted, failed) = layers::tail_metrics(&[&reference, &traced], &mut values);
    Outcome::new(values, attempted, failed)
}

/// The three backends ROADMAP item 3 collapses, on identical inputs:
/// the parsed tree, the shredded tables in memory, and a 4-shard
/// `.xksm` searched with scatter-gather (fan-out fixed at 2, not
/// `available_parallelism`).
fn backend_ladder(
    group: &Group,
    expected: &[Expected],
    scratch: &Scratch,
    seconds: f64,
    out: &mut Values,
) {
    let manifest = scratch.path().join("sharded.xksm");
    write_sharded(&IndexWriter::new(), &group.corpus.doc, &manifest, 4).expect("shards write");
    let sharded = ShardedCorpus::open(&manifest).expect("shards open");
    let engines = [
        (
            "core.tree_backend_qps",
            SearchEngine::new(group.corpus.tree.clone()),
        ),
        (
            "core.memory_backend_qps",
            SearchEngine::from_owned_source(MemoryCorpus::new(group.corpus.doc.clone())),
        ),
        (
            "core.shards.scatter4_qps",
            SearchEngine::from_shard_set(sharded.shard_set()).with_scatter_threads(2),
        ),
    ];
    for (metric, engine) in &engines {
        let unit = Unit {
            engine,
            queries: &group.corpus.queries,
            expected,
        };
        out.set(metric, layers::execute_qps(&unit, seconds / 3.0));
    }
}
