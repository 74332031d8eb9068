//! The documented JSON wire form of a search — shared by the CLI
//! (`xks search --format json`) and the HTTP server (`xks serve`).
//!
//! Both surfaces promise the *same bytes* for the same query (modulo
//! the `timings_us` block, which is wall-clock), so the rendering
//! lives here exactly once: [`write_response`] streams a
//! [`SearchResponse`] as the `docs/API.md` result object into a
//! caller's buffer, and the two binaries only differ in how they frame
//! it (the server sends the buffer as one reply body; the CLI wraps
//! [`response_json`]'s copy in `{"results":[...]}`).
//!
//! The writer emits keys in sorted order, the canonical form
//! [`xks_store::json::write`] gives objects, so parsing a body and
//! writing it back reproduces it. Hits and nodes — the part that grows
//! with the answer — are written field by field: Dewey codes digit by
//! digit, each label name looked up and escaped once per response. The
//! constant-size `stats`, `timings_us` and `trace` blocks are small
//! [`Value`] builders, which the 503 body and `xks bench` share.

use std::collections::BTreeMap;

use xks_store::json::{self, Value};
use xks_xmltree::{Dewey, LabelId};

use crate::algorithms::StageTimings;
use crate::engine::{AlgorithmKind, SearchEngine};
use crate::request::{Hit, SearchRequest, SearchResponse, SearchStats, SearchTimeout};
use crate::source::CorpusSource;
use xks_obs::QueryTrace;

/// Builds a JSON object from literal key/value pairs.
pub fn obj<const N: usize>(entries: [(&str, Value); N]) -> BTreeMap<String, Value> {
    entries
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
}

/// The CLI name of an algorithm (`valid` / `maxmatch` / `slca`) — the
/// value of the `algorithm` field in every wire document, and what
/// [`parse_algorithm`] accepts back.
#[must_use]
pub fn algorithm_name(kind: AlgorithmKind) -> &'static str {
    match kind {
        AlgorithmKind::ValidRtf => "valid",
        AlgorithmKind::MaxMatchRtf => "maxmatch",
        AlgorithmKind::MaxMatchSlca => "slca",
    }
}

/// Parses a CLI/wire algorithm name (the inverse of
/// [`algorithm_name`]); `None` for anything else.
#[must_use]
pub fn parse_algorithm(name: &str) -> Option<AlgorithmKind> {
    match name {
        "valid" => Some(AlgorithmKind::ValidRtf),
        "maxmatch" => Some(AlgorithmKind::MaxMatchRtf),
        "slca" => Some(AlgorithmKind::MaxMatchSlca),
        _ => None,
    }
}

/// A [`StageTimings`] block as the documented `timings_us` /
/// `stages_us` JSON object (microsecond integers plus their total).
#[must_use]
pub fn stage_timings_json(timings: &StageTimings) -> Value {
    Value::Obj(obj([
        (
            "get_keyword_nodes",
            Value::Num(timings.get_keyword_nodes.as_micros() as u64),
        ),
        ("get_lca", Value::Num(timings.get_lca.as_micros() as u64)),
        ("get_rtf", Value::Num(timings.get_rtf.as_micros() as u64)),
        (
            "prune_rtf",
            Value::Num(timings.prune_rtf.as_micros() as u64),
        ),
        (
            "post_process",
            Value::Num(timings.post_process.as_micros() as u64),
        ),
        ("total", Value::Num(timings.total().as_micros() as u64)),
    ]))
}

/// A recorded query trace as JSON: spans in record order with
/// nanosecond offsets from the trace origin.
#[must_use]
pub fn trace_json(trace: &QueryTrace) -> Value {
    let spans = trace
        .spans()
        .iter()
        .map(|span| {
            Value::Obj(obj([
                ("stage", Value::Str(span.stage.as_str().to_owned())),
                ("start_ns", Value::Num(span.start_ns)),
                ("dur_ns", Value::Num(span.dur_ns)),
            ]))
        })
        .collect();
    Value::Obj(obj([
        ("spans", Value::Arr(spans)),
        ("dropped", Value::Num(u64::from(trace.dropped()))),
    ]))
}

/// The `stats` block of a response — also the partial-stats body of a
/// deadline `503`, so a dashboard reads one shape either way.
#[must_use]
pub fn stats_json(stats: &SearchStats) -> Value {
    Value::Obj(obj([
        ("truncated", Value::Bool(stats.truncated)),
        (
            "total_before_top_k",
            Value::Num(stats.total_before_top_k as u64),
        ),
        ("filtered_out", Value::Num(stats.filtered_out as u64)),
        (
            "dropped_terms",
            Value::Arr(
                stats
                    .dropped_terms
                    .iter()
                    .map(|t| Value::Str(t.clone()))
                    .collect(),
            ),
        ),
        (
            "normalized_terms",
            Value::Arr(
                stats
                    .normalized_terms
                    .iter()
                    .map(|(raw, norm)| {
                        Value::Arr(vec![Value::Str(raw.clone()), Value::Str(norm.clone())])
                    })
                    .collect(),
            ),
        ),
        (
            "plan_strategy",
            Value::Str(stats.plan_strategy.as_str().to_owned()),
        ),
        ("plan_postings", Value::Num(stats.plan_postings)),
        (
            "shards_skipped",
            Value::Num(u64::from(stats.shards_skipped)),
        ),
        (
            "rtfs_skipped_topk",
            Value::Num(u64::from(stats.rtfs_skipped_topk)),
        ),
    ]))
}

/// A [`SearchTimeout`] as the documented deadline-`503` JSON body:
/// which stage the pipeline was cut before, the wall time spent, and
/// the partial [`stats_json`] accumulated up to the cut.
#[must_use]
pub fn timeout_json(timeout: &SearchTimeout) -> Value {
    Value::Obj(obj([
        ("error", Value::Str("deadline_exceeded".to_owned())),
        ("stage", Value::Str(timeout.stage.to_owned())),
        ("elapsed_us", Value::Num(timeout.elapsed.as_micros() as u64)),
        ("stats", stats_json(&timeout.stats)),
    ]))
}

/// One response as the documented JSON schema (docs/API.md), appended
/// to `out` — the one renderer behind every surface. `limit` caps the
/// emitted hits exactly like the CLI's text renderer; anything cut is
/// reported via `hits_omitted`, never dropped silently. Pass
/// `usize::MAX` for no cap.
///
/// Nothing is built per hit or per node: with `out` already large
/// enough, a response allocates a constant handful of times (the
/// `stats` / `timings_us` builders, the query text, one lookup per
/// distinct label), whatever its hit count (`tests/zero_alloc.rs` §7).
pub fn write_response(
    engine: &SearchEngine,
    request: &SearchRequest,
    response: &SearchResponse,
    limit: usize,
    out: &mut String,
) {
    let shown = &response.hits[..response.hits.len().min(limit)];
    out.reserve(size_hint(shown));
    let mut labels = LabelNames::new(engine.source());
    out.push_str("{\"algorithm\":");
    json::write_string(algorithm_name(request.kind()), out);
    out.push_str(",\"hits\":[");
    for (i, hit) in shown.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"anchor\":");
        write_dewey(&hit.fragment.anchor, out);
        out.push_str(",\"nodes\":[");
        for (j, node) in hit.fragment.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"dewey\":");
            write_dewey(&node.dewey, out);
            out.push_str(if node.is_keyword {
                ",\"keyword\":true,\"label\":"
            } else {
                ",\"keyword\":false,\"label\":"
            });
            labels.write(node.label, out);
            out.push('}');
        }
        out.push_str("],\"score\":");
        json::write(&hit.score.map_or(Value::Null, Value::Float), out);
        if let Some(signals) = hit.signals {
            out.push_str(",\"signals\":[");
            for (k, &signal) in signals.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                json::write(&Value::Float(signal), out);
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push(']');
    if response.hits.len() > limit {
        out.push_str(",\"hits_omitted\":");
        push_decimal((response.hits.len() - limit) as u64, out);
    }
    out.push_str(",\"query\":");
    json::write_string(&request.spec().to_string(), out);
    out.push_str(",\"stats\":");
    json::write(&stats_json(&response.stats), out);
    out.push_str(",\"timings_us\":");
    json::write(&stage_timings_json(&response.timings), out);
    if let Some(trace) = &response.trace {
        out.push_str(",\"trace\":");
        json::write(&trace_json(trace), out);
    }
    out.push('}');
}

/// [`write_response`]'s bytes as a [`Value::Raw`], for callers that
/// compose documents around responses (the CLI's `{"results":[...]}`).
#[must_use]
pub fn response_json(
    engine: &SearchEngine,
    request: &SearchRequest,
    response: &SearchResponse,
    limit: usize,
) -> Value {
    let mut out = String::new();
    write_response(engine, request, response, limit, &mut out);
    Value::Raw(out)
}

/// About what the emitted hits render to, so one reservation usually
/// holds the whole body: a node is `{"dewey":"…","keyword":…,"label":"…"}`
/// with a mid-depth code and a short label; a hit adds its anchor,
/// brackets and score; the rest is the fixed blocks.
fn size_hint(hits: &[Hit]) -> usize {
    const NODE_BYTES: usize = 64;
    const HIT_BYTES: usize = 48;
    const FIXED_BYTES: usize = 512;
    hits.iter()
        .map(|hit| HIT_BYTES + NODE_BYTES * hit.fragment.len())
        .sum::<usize>()
        + FIXED_BYTES
}

/// A Dewey code as a JSON string, its components written digit by
/// digit (`"ε"` for the empty sentinel, as `Display` prints it).
fn write_dewey(dewey: &Dewey, out: &mut String) {
    out.push('"');
    match dewey.components().split_first() {
        None => out.push('ε'),
        Some((&first, rest)) => {
            push_decimal(u64::from(first), out);
            for &component in rest {
                out.push('.');
                push_decimal(u64::from(component), out);
            }
        }
    }
    out.push('"');
}

/// `n` in decimal, without the `fmt` machinery.
fn push_decimal(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// The quoted, escaped label names of one response, resolved on first
/// use: a label is looked up in the source and escaped once, however
/// many nodes carry it.
struct LabelNames<'a> {
    source: &'a dyn CorpusSource,
    /// Label id → its span of `names`; an empty span is not resolved
    /// yet (a resolved name has at least its two quotes).
    spans: Vec<(usize, usize)>,
    names: String,
}

impl<'a> LabelNames<'a> {
    fn new(source: &'a dyn CorpusSource) -> Self {
        LabelNames {
            source,
            spans: Vec::new(),
            names: String::new(),
        }
    }

    fn write(&mut self, label: LabelId, out: &mut String) {
        let id = label.as_u32() as usize;
        if id >= self.spans.len() {
            self.spans.resize(id + 1, (0, 0));
        }
        let (mut start, mut end) = self.spans[id];
        if start == end {
            start = self.names.len();
            // A label unknown to the dictionary prints as `Display`'s `#<id>`.
            let name = self
                .source
                .label_name(label.as_u32())
                .unwrap_or_else(|| label.to_string());
            json::write_string(&name, &mut self.names);
            end = self.names.len();
            self.spans[id] = (start, end);
        }
        out.push_str(&self.names[start..end]);
    }
}
