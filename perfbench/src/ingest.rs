//! `ingest-mixed` — reads beside writes on a WAL-backed `MutableCorpus`.
//!
//! The base is `s10-flat-zipf-single`'s 600 records, inserted one by one
//! and compacted to 4 shards. From there the workload runs a **fixed
//! schedule on evolving state**, the issue's round shape: each round is
//! 20 cycles of the 22 queries through
//! `SearchEngine::from_source(corpus.source())`, then 20 `insert_xml` of
//! fresh records from the cell's next draw (same vocabulary, so queries
//! hit the delta), then 2 `delete`; `compact(4)` follows every 10th
//! round and the last one. Only the round count scales with
//! `--seconds` — 1.5 rounds per second, so the 20 s `BENCHMARK.json`
//! runs for are the issue's 30 rounds and 3 compactions — and both
//! commits of a comparison do identical work. `qps` is every correct
//! operation (queries, inserts, deletes) over the time inside them plus
//! the compactions; `p50_us` / `p95_us` pool every query of the
//! schedule. The flush policy is the program's own: WAL `fdatasync` per
//! operation.
//!
//! The only workload that times `xmltree` parse on the write path, WAL
//! append, the delta overlay (always merge fallback), shard routing and
//! compaction: a read-path gain paid for by the write path shows here.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use validrtf::engine::SearchEngine;
use validrtf::source::CorpusSource;
use validrtf::MemoryCorpus;
use xks_datagen::scenario::{Skew, MATRIX_SEED};
use xks_persist::{Injector, MutableCorpus, Wal, WalRecord};
use xks_store::{shred, ShreddedDoc};
use xks_xmltree::writer::to_xml_subtree;

use crate::corpus::{answers, cold_query_ms, render, request, Corpus, Expected};
use crate::harness::{
    dir_bytes, median_ns, ns_since, percentile, reset_rss_peak, Measured, Raw, Scratch,
};
use crate::layers::{self, SetupLadder, Unit};
use crate::metrics::Values;
use crate::spans::SpanLog;
use crate::{Outcome, RunConfig};

/// Cycles of the query list per round.
const CYCLES: usize = 20;
/// Documents inserted per round.
const INSERTS: usize = 20;
/// Documents deleted per round.
const DELETES: usize = 2;
/// Shards every compaction seals into.
const SHARDS: usize = 4;
/// A compaction follows every this-many rounds (and the last round).
const COMPACT_EVERY: usize = 10;
/// Rounds per second of `--seconds`: a round takes about two thirds of
/// a second on the 2-core build box, so 20 s are 30 rounds.
const ROUNDS_PER_SECOND: f64 = 1.5;
/// Most rounds a schedule can have: the fresh cell's 600 records are
/// spent after 30 rounds of 20 inserts.
const MAX_ROUNDS: usize = 30;

/// The schedule's length for `seconds` of run.
fn rounds_for(seconds: f64) -> usize {
    ((seconds * ROUNDS_PER_SECOND).round() as usize).clamp(1, MAX_ROUNDS)
}

/// The generated inputs: base corpus, its records as XML documents, and
/// the fresh records the schedule inserts.
struct Inputs {
    corpus: Corpus,
    root_label: String,
    base_docs: Vec<String>,
    fresh_docs: Vec<String>,
}

fn record_documents(corpus: &Corpus) -> Vec<String> {
    let tree = &corpus.tree;
    tree.node(tree.root())
        .children()
        .iter()
        .map(|&child| to_xml_subtree(tree, child))
        .collect()
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let corpus = Corpus::matrix_cell(10, Skew::Zipf, seed);
        // Same vocabulary, other records: the cell re-drawn from the
        // next generator seed, in this run's order.
        let fresh = Corpus::scenario(10, Skew::Zipf, MATRIX_SEED + 1, seed);
        let fresh_docs = record_documents(&fresh);
        assert!(
            fresh_docs.len() >= MAX_ROUNDS * INSERTS,
            "not enough fresh records"
        );
        Inputs {
            root_label: corpus.tree.label_name(corpus.tree.root()).to_owned(),
            base_docs: record_documents(&corpus),
            fresh_docs,
            corpus,
        }
    }

    /// The base ordinal the `j`-th delete of round `r` removes: distinct
    /// for every (round, j) and spread over the base (37 is coprime to
    /// 600). The records behind the ordinals are this run's draw.
    fn delete_target(&self, round: usize, j: usize) -> u32 {
        (((round * DELETES + j) * 37) % self.base_docs.len()) as u32
    }

    /// Rebuild-from-scratch oracle of the state after `rounds` rounds of
    /// writes: every document ever inserted at its original ordinal,
    /// minus the deleted ones — holes and all — behind `MemoryCorpus`.
    fn oracle(&self, rounds: usize) -> MemoryCorpus {
        let inserted = &self.fresh_docs[..rounds * INSERTS];
        let deleted: Vec<u32> = (0..rounds)
            .flat_map(|r| (0..DELETES).map(move |j| (r, j)))
            .map(|(r, j)| self.delete_target(r, j))
            .collect();
        let xml = format!(
            "<{root}>{}{}</{root}>",
            self.base_docs.concat(),
            inserted.concat(),
            root = self.root_label
        );
        let full = shred(&xks_xmltree::parse(&xml).expect("oracle XML parses"));
        let live = |dewey: &str| top_ordinal(dewey).is_none_or(|o| !deleted.contains(&o));
        let elements = full
            .elements
            .iter()
            .filter(|r| live(&r.dewey))
            .cloned()
            .collect();
        let values = full
            .values
            .iter()
            .filter(|r| live(&r.dewey))
            .cloned()
            .collect();
        let mut doc = ShreddedDoc::from_tables(full.labels.clone(), elements, values);
        doc.rebuild_indexes();
        MemoryCorpus::new(doc)
    }

    /// What every query must answer at the start of each of `rounds`
    /// rounds, plus the state after the last one (index `rounds`).
    fn expectations(&self, rounds: usize) -> Vec<Vec<Expected>> {
        (0..=rounds)
            .map(|rounds| {
                let engine = SearchEngine::from_owned_source(self.oracle(rounds));
                answers(&engine, &self.corpus.queries)
            })
            .collect()
    }
}

/// The top-level document ordinal of a dotted Dewey string (`None` for
/// the corpus root).
fn top_ordinal(dewey: &str) -> Option<u32> {
    let rest = &dewey[dewey.find('.')? + 1..];
    rest.split('.').next().unwrap_or(rest).parse().ok()
}

/// What building the base cost, layer by layer.
struct Base {
    dir: PathBuf,
    ladder: SetupLadder,
}

/// Generate + parse + shred, then the program's own write path: create,
/// 600 durable inserts, `compact(4)`; then reopen, and one warm-up cycle.
fn set_up(seed: u64, scratch: &Scratch, tag: usize) -> (Inputs, Base) {
    let inputs = Inputs::generate(seed);
    let dir = scratch.path().join(format!("base-{tag}"));
    let mut corpus = MutableCorpus::create(&dir, &inputs.root_label).expect("corpus creates");
    for doc in &inputs.base_docs {
        corpus.insert_xml(doc).expect("base insert");
    }
    let started = Instant::now();
    corpus.compact(SHARDS).expect("base compacts");
    let write_s = started.elapsed().as_secs_f64();
    drop(corpus);
    let started = Instant::now();
    let corpus = MutableCorpus::open(&dir).expect("base reopens");
    let open_s = started.elapsed().as_secs_f64();
    let engine = SearchEngine::from_source(corpus.source());
    for text in &inputs.corpus.queries {
        let req = request(text);
        let response = engine.execute(&req).expect("warm-up executes");
        black_box(render(&engine, &req, &response));
    }
    let ladder = SetupLadder::new(&inputs.corpus, write_s, open_s, dir_bytes(&dir));
    (inputs, Base { dir, ladder })
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("epoch directory");
    for entry in std::fs::read_dir(from).expect("base directory").flatten() {
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("base file copies");
    }
}

/// What one run of the schedule measured.
#[derive(Default)]
struct ScheduleLog {
    queries: Raw,
    inserts: Raw,
    deletes: Raw,
    compact_ns: Vec<u64>,
    /// Longest gap between two completed queries.
    stall_ns: u64,
    /// WAL bytes appended plus bytes the compactions wrote.
    written_bytes: u64,
    inserted_xml_bytes: u64,
}

impl ScheduleLog {
    /// Query latencies, with every operation and every compaction in
    /// the busy time and the tally: the rate is the whole schedule's.
    fn raw(self) -> Raw {
        let mut raw = self.queries;
        for mut writes in [self.inserts, self.deletes] {
            writes.latencies_ns.clear();
            raw.absorb(writes);
        }
        raw.busy_ns += self.compact_ns.iter().sum::<u64>();
        raw
    }
}

/// Bytes of the files a compaction of `generation` left in `dir`.
fn sealed_bytes(dir: &Path, generation: u32) -> u64 {
    let generation = format!("-g{generation}-");
    std::fs::read_dir(dir)
        .expect("corpus directory")
        .flatten()
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.contains(&generation) || name.ends_with(".xksm")
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Runs `rounds` rounds of the schedule in `dir` (a fresh copy of the
/// base) and leaves the compacted corpus there. With a span log the
/// queries carry `trace(true)` and every layer call gets a span.
fn run_schedule(
    inputs: &Inputs,
    expected: &[Vec<Expected>],
    dir: &Path,
    rounds: usize,
    mut log: Option<&mut SpanLog>,
) -> ScheduleLog {
    let mut out = ScheduleLog::default();
    let mut corpus = MutableCorpus::open(dir).expect("corpus opens");
    let engine = SearchEngine::from_source(corpus.source());
    let mut ctx = validrtf::QueryContext::new();
    let mut last_query_done = Instant::now();
    let queries = &inputs.corpus.queries;
    for (round, wants) in expected.iter().enumerate().take(rounds) {
        for _ in 0..CYCLES {
            for (text, want) in queries.iter().zip(wants) {
                let started = Instant::now();
                let req = request(text).trace(log.is_some());
                let parsed = Instant::now();
                let Ok(response) = engine.execute_with(&req, &mut ctx) else {
                    out.queries.record(Err(()));
                    continue;
                };
                let executed = Instant::now();
                let body = render(&engine, &req, &response);
                let ended = Instant::now();
                black_box(body.len());
                if let Some(log) = log.as_deref_mut() {
                    let op = log.open_op(started);
                    log.child(op, "parse", started, parsed);
                    let execute = log.child(op, "execute", parsed, executed);
                    if let Some(trace) = &response.trace {
                        log.adopt_engine_trace(execute, trace);
                    }
                    log.child(op, "render", executed, ended);
                    log.close(op, ended);
                }
                let ns = u64::try_from((ended - started).as_nanos()).unwrap_or(u64::MAX);
                let gap = u64::try_from((ended - last_query_done).as_nanos()).unwrap_or(u64::MAX);
                out.stall_ns = out.stall_ns.max(gap);
                last_query_done = ended;
                out.queries
                    .record(want.matches(&response).then_some(ns).ok_or(()));
            }
        }
        let wal_start = corpus.wal_len();
        for j in 0..INSERTS {
            let doc = &inputs.fresh_docs[round * INSERTS + j];
            out.inserted_xml_bytes += doc.len() as u64;
            let started = Instant::now();
            let acked = corpus.insert_xml(doc);
            let ended = Instant::now();
            if let Some(log) = log.as_deref_mut() {
                let op = log.open_op(started);
                log.child(op, "write", started, ended);
                log.close(op, ended);
            }
            let ns = u64::try_from((ended - started).as_nanos()).unwrap_or(u64::MAX);
            // Ordinals are assignment order: base records, then inserts.
            let want = (inputs.base_docs.len() + round * INSERTS + j) as u32;
            let correct = acked.is_ok_and(|ordinal| ordinal == want);
            out.inserts.record(correct.then_some(ns).ok_or(()));
        }
        for j in 0..DELETES {
            let started = Instant::now();
            let acked = corpus.delete(inputs.delete_target(round, j));
            let ns = ns_since(started);
            out.deletes.record(acked.map(|()| ns).map_err(drop));
        }
        out.written_bytes += corpus.wal_len() - wal_start;
        if (round + 1) % COMPACT_EVERY == 0 || round + 1 == rounds {
            let started = Instant::now();
            let summary = corpus.compact(SHARDS).expect("corpus compacts");
            out.compact_ns.push(ns_since(started));
            out.written_bytes += sealed_bytes(dir, summary.generation);
        }
    }
    out
}

/// The closing check: reopen the directory and require every
/// acknowledged insert present, every delete gone, and every query
/// answered exactly as the rebuild-from-scratch oracle answers it.
fn verify_final_state(inputs: &Inputs, expected: &[Vec<Expected>], dir: &Path) {
    let rounds = expected.len() - 1;
    let corpus = MutableCorpus::open(dir).expect("final corpus reopens");
    let source = corpus.source();
    let fail = |what: String| -> ! {
        eprintln!("perfbench: ingest-mixed final state is wrong: {what}");
        std::process::exit(2);
    };
    for k in 0..rounds * INSERTS {
        let ordinal = (inputs.base_docs.len() + k) as u32;
        if !source.exists(ordinal) {
            fail(format!(
                "acknowledged insert {ordinal} is missing after reopen"
            ));
        }
    }
    for round in 0..rounds {
        for j in 0..DELETES {
            let ordinal = inputs.delete_target(round, j);
            if source.exists(ordinal) {
                fail(format!("deleted document {ordinal} is back after reopen"));
            }
        }
    }
    let oracle = inputs.oracle(rounds);
    if source.node_count() != oracle.node_count() {
        fail(format!(
            "{} nodes after reopen, the oracle has {}",
            source.node_count(),
            oracle.node_count()
        ));
    }
    let engine = SearchEngine::from_source(source);
    let got = answers(&engine, &inputs.corpus.queries);
    for ((text, want), got) in inputs
        .corpus
        .queries
        .iter()
        .zip(&expected[rounds])
        .zip(&got)
    {
        if !want.same_answer(got) {
            fail(format!(
                "query {text:?}: oracle {want:?}, reopened corpus {got:?}"
            ));
        }
    }
}

/// The gate before any timing: the freshly built base must answer as
/// the round-0 oracle does.
fn gate_base(inputs: &Inputs, expected: &[Vec<Expected>], base: &Base) {
    let corpus = MutableCorpus::open(&base.dir).expect("base opens");
    let engine = SearchEngine::from_source(corpus.source());
    let got = answers(&engine, &inputs.corpus.queries);
    for ((text, want), got) in inputs.corpus.queries.iter().zip(&expected[0]).zip(&got) {
        if !want.same_answer(got) {
            eprintln!("perfbench: correctness gate failed on ingest-mixed query {text:?}: oracle {want:?}, corpus {got:?}");
            std::process::exit(2);
        }
    }
}

/// One run of the schedule from a fresh copy of the base — as many
/// rounds as `expected` covers — verified after reopening.
fn run_verified(
    inputs: &Inputs,
    expected: &[Vec<Expected>],
    base: &Base,
    scratch: &Scratch,
    log: Option<&mut SpanLog>,
) -> ScheduleLog {
    let dir = scratch.path().join("schedule");
    copy_dir(&base.dir, &dir);
    let out = run_schedule(inputs, expected, &dir, expected.len() - 1, log);
    verify_final_state(inputs, expected, &dir);
    out
}

/// `--trace 0`: the end-to-end metrics, tracing off.
pub fn end_to_end(cfg: &RunConfig) -> Outcome {
    let scratch = Scratch::new(cfg.workload).expect("scratch directory");
    let mut setups = Vec::new();
    let mut built = None;
    while cfg.set_up_again(&setups) {
        let tag = setups.len();
        let started = Instant::now();
        built = Some(set_up(cfg.seed, &scratch, tag));
        setups.push(started.elapsed().as_secs_f64());
    }
    let (mut inputs, base) = built.expect("set up at least once");
    let expected = inputs.expectations(rounds_for(cfg.seconds));
    gate_base(&inputs, &expected, &base);
    inputs.corpus.release();
    reset_rss_peak();
    let schedule = run_verified(&inputs, &expected, &base, &scratch, None);
    let measured = Measured::from_slices(vec![schedule.raw()]);
    Outcome::end_to_end(&measured, setups)
}

/// `persist.wal_append_us`: the WAL driven directly with the records
/// the schedule inserts first — frame, write, `fdatasync`.
fn wal_probe(inputs: &Inputs, scratch: &Scratch, out: &mut Values) {
    let path = scratch.path().join("probe.wal");
    let mut wal = Wal::create(&path, 0, Injector::none()).expect("probe WAL creates");
    let appends: Vec<u64> = inputs.fresh_docs[..5 * INSERTS]
        .iter()
        .enumerate()
        .map(|(k, xml)| {
            let record = WalRecord::Insert {
                ordinal: k as u32,
                xml: xml.clone(),
            };
            let started = Instant::now();
            wal.append(&record).expect("probe append");
            ns_since(started)
        })
        .collect();
    let n = appends.len();
    out.set_n("persist.wal_append_us", median_ns(&appends) / 1e3, n);
}

/// `--trace 1`: the per-layer metrics and the trace file.
pub fn per_layer(cfg: &RunConfig) -> Outcome {
    let scratch = Scratch::new(cfg.workload).expect("scratch directory");
    let (inputs, base) = set_up(cfg.seed, &scratch, 0);
    let s = cfg.seconds;
    // The untraced reference schedule, then a shorter traced one.
    let expected = inputs.expectations(rounds_for(0.40 * s));
    gate_base(&inputs, &expected, &base);
    let mut values = Values::default();
    base.ladder.emit(&mut values);

    let mut reference = run_verified(&inputs, &expected, &base, &scratch, None);
    let mut log = SpanLog::at(Instant::now());
    let traced_rounds = rounds_for(0.25 * s);
    let traced = run_verified(
        &inputs,
        &expected[..=traced_rounds],
        &base,
        &scratch,
        Some(&mut log),
    );
    log.report(&cfg.trace_path(), cfg.envelope(), &mut values);

    let writes = &mut reference.inserts.latencies_ns;
    writes.sort_unstable();
    values.set_n(
        "e2e.write_p50_us",
        percentile(writes, 0.50) as f64 / 1e3,
        writes.len(),
    );
    values.set_n(
        "e2e.write_p95_us",
        percentile(writes, 0.95) as f64 / 1e3,
        writes.len(),
    );
    let compactions = reference.compact_ns.len();
    values.set_n(
        "persist.compact_ms",
        median_ns(&reference.compact_ns) / 1e6,
        compactions,
    );
    values.set(
        "persist.write_amp",
        reference.written_bytes as f64 / reference.inserted_xml_bytes as f64,
    );
    values.set("core.mutable.stall_max_ms", reference.stall_ns as f64 / 1e6);
    wal_probe(&inputs, &scratch, &mut values);

    // The tracing overhead compares like with like: the traced rounds
    // against the same first rounds of the reference, queries only (the
    // delta they search grows with the round).
    let (plain, spanned) = (reference.raw(), traced.raw());
    let like = traced_rounds * CYCLES * inputs.corpus.queries.len();
    let mean = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64;
    values.set(
        "core.trace_overhead_ratio",
        mean(&plain.latencies_ns[..like.min(plain.latencies_ns.len())])
            / mean(&spanned.latencies_ns),
    );

    // Cold: a directory with an un-compacted WAL to replay — the base
    // plus one round of inserts.
    let cold_dir = scratch.path().join("cold");
    copy_dir(&base.dir, &cold_dir);
    {
        let mut corpus = MutableCorpus::open(&cold_dir).expect("cold corpus opens");
        for doc in &inputs.fresh_docs[..INSERTS] {
            corpus.insert_xml(doc).expect("cold insert");
        }
    }
    let queries = &inputs.corpus.queries;
    let (cold_ms, n) = cold_query_ms(cfg.cold_passes(), queries, || {
        let corpus = MutableCorpus::open(&cold_dir).expect("cold corpus opens");
        SearchEngine::from_source(corpus.source())
    });
    values.set_n("e2e.cold_query_ms", cold_ms, n);

    // The engine-side ladder on the base state (sealed shards, no delta).
    let corpus = MutableCorpus::open(&base.dir).expect("base opens");
    let engine = SearchEngine::from_source(corpus.source() as Arc<dyn CorpusSource>);
    let units = [Unit {
        engine: &engine,
        queries: &inputs.corpus.queries,
        expected: &expected[0],
    }];
    layers::engine_ladder(&units, 0.15 * s, &mut values);
    layers::lca_replay(&units, 0.05 * s, &mut values);
    layers::batch_ladder(&units, 0.10 * s, &mut values);
    layers::histogram_probe(&mut values);

    let (attempted, failed) = layers::tail_metrics(&[&plain, &spanned], &mut values);
    Outcome::new(values, attempted, failed)
}
