//! Per-query stage tracing with a preallocated inline span buffer.
//!
//! A [`QueryTrace`] rides inside the per-thread query context. All
//! storage is inline (`[Span; TRACE_SPAN_CAP]` plus a handful of
//! scalars), so enabling tracing on a warm query performs **zero heap
//! allocations** — the counting-allocator proof in
//! `tests/zero_alloc.rs` asserts this. When a query records more spans
//! than the buffer holds (it never does today: a worst-case query
//! produces one span per pipeline stage plus one per keyword), the
//! excess is counted in [`QueryTrace::dropped`] rather than grown.
//!
//! Span timestamps are nanosecond offsets from [`QueryTrace::begin`],
//! so a trace is self-contained and serializes directly to the
//! Chrome-trace-event JSON (`chrome://tracing`, Perfetto) via
//! [`QueryTrace::to_chrome_json`].

use std::time::Instant;

/// Maximum spans one query trace can hold without dropping.
pub const TRACE_SPAN_CAP: usize = 32;

/// The read-path pipeline stages a trace can attribute time to.
///
/// These are finer-grained than `StageTimings` in the core crate: the
/// coarse `get_keyword_nodes` stage splits into per-keyword
/// [`Stage::PostingsDecode`] spans under an umbrella
/// [`Stage::Resolve`], and the fragment loop splits into
/// [`Stage::Construct`] / [`Stage::Prune`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Query-string parsing (recorded by `SearchRequest::parse`).
    Parse,
    /// Whole keyword-resolution stage (`getKeywordNodes`).
    Resolve,
    /// Cost-based plan selection (term ordering, gallop-vs-merge).
    Plan,
    /// One keyword's postings lookup/decode within resolution.
    PostingsDecode,
    /// Posting-list merge plus anchor computation (`getLCA`).
    MergeAnchor,
    /// Anchor-set dispatch into fragment construction (`getRTF`).
    RtfDispatch,
    /// Fragment construction across all anchors.
    Construct,
    /// Fragment pruning (`pruneRTF`).
    Prune,
    /// The operator checks (phrase, label, exclusion), run per RTF
    /// inside the build loop.
    PostFilter,
    /// Ranking, top-k selection, and hit materialization.
    Rank,
}

impl Stage {
    /// Stable lowercase name used in every serialized form.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Resolve => "resolve",
            Stage::Plan => "plan",
            Stage::PostingsDecode => "postings_decode",
            Stage::MergeAnchor => "merge_anchor",
            Stage::RtfDispatch => "rtf_dispatch",
            Stage::Construct => "construct",
            Stage::Prune => "prune",
            Stage::PostFilter => "post_filter",
            Stage::Rank => "rank",
        }
    }
}

/// One timed stage execution: a `[start, start+dur)` wall-time window
/// relative to the trace origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which pipeline stage this span covers.
    pub stage: Stage,
    /// Nanoseconds from [`QueryTrace::begin`] to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

impl Span {
    const EMPTY: Span = Span {
        stage: Stage::Parse,
        start_ns: 0,
        dur_ns: 0,
    };
}

/// A preallocated per-query span recorder (see the module docs).
///
/// Disabled traces (the default) cost one branch per record call;
/// query contexts carry one permanently and the engine enables it only
/// for traced requests.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    enabled: bool,
    origin: Option<Instant>,
    len: usize,
    dropped: u32,
    spans: [Span; TRACE_SPAN_CAP],
}

impl Default for QueryTrace {
    fn default() -> Self {
        QueryTrace {
            enabled: false,
            origin: None,
            len: 0,
            dropped: 0,
            spans: [Span::EMPTY; TRACE_SPAN_CAP],
        }
    }
}

impl QueryTrace {
    /// A fresh, disabled trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the trace: clears recorded spans and anchors the origin at
    /// now. Called by the engine at the top of a traced query.
    pub fn begin(&mut self) {
        self.enabled = true;
        self.origin = Some(Instant::now());
        self.len = 0;
        self.dropped = 0;
    }

    /// Disarms the trace (record calls become no-ops) and clears any
    /// recorded spans. Called by the engine for untraced queries so a
    /// pooled context never leaks a previous query's trace.
    pub fn disarm(&mut self) {
        self.enabled = false;
        self.len = 0;
        self.dropped = 0;
    }

    /// Nanosecond offset of `at` from the trace origin (saturating to
    /// zero if `at` precedes it; zero when disarmed).
    #[must_use]
    pub fn offset_ns(&self, at: Instant) -> u64 {
        match self.origin {
            Some(origin) => {
                u64::try_from(at.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
            }
            None => 0,
        }
    }

    /// Records a span for `stage` covering `started` ..= now. No-op
    /// when disarmed.
    #[inline]
    pub fn record_since(&mut self, stage: Stage, started: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns = self.offset_ns(started);
        let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.push(Span {
            stage,
            start_ns,
            dur_ns,
        });
    }

    /// Records a span from precomputed offsets — for durations
    /// accumulated across a loop (construct/prune interleave per
    /// anchor) or measured before the trace existed (parse time, which
    /// `SearchRequest::parse` captures ahead of execution). No-op when
    /// disarmed.
    #[inline]
    pub fn record_manual(&mut self, stage: Stage, start_ns: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        self.push(Span {
            stage,
            start_ns,
            dur_ns,
        });
    }

    #[inline]
    fn push(&mut self, span: Span) {
        if self.len < TRACE_SPAN_CAP {
            self.spans[self.len] = span;
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded spans, in record order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.len]
    }

    /// Spans that did not fit in the buffer (zero today; a nonzero
    /// value means [`TRACE_SPAN_CAP`] needs raising).
    #[must_use]
    pub fn dropped(&self) -> u32 {
        self.dropped
    }

    /// The trace as a Chrome-trace-event JSON document (loadable in
    /// `chrome://tracing` or Perfetto): one complete (`"ph":"X"`)
    /// event per span, timestamps in microseconds relative to the
    /// trace origin, the query string attached as metadata.
    #[must_use]
    pub fn to_chrome_json(&self, query: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"xks\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1}}",
                span.stage.as_str(),
                micros(span.start_ns),
                micros(span.dur_ns),
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"query\":");
        crate::snapshot::push_json_string(&mut out, query);
        out.push_str("}}");
        out
    }
}

/// Nanoseconds as a decimal microsecond literal with fixed three
/// fractional digits (Chrome trace timestamps are microseconds).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_traces_record_nothing() {
        let mut trace = QueryTrace::new();
        trace.record_manual(Stage::Resolve, 0, 100);
        trace.record_since(Stage::Parse, Instant::now());
        assert!(trace.spans().is_empty());
    }

    #[test]
    fn spans_accumulate_in_order_and_cap_without_growing() {
        let mut trace = QueryTrace::new();
        trace.begin();
        for i in 0..(TRACE_SPAN_CAP as u64 + 3) {
            trace.record_manual(Stage::PostingsDecode, i * 10, 5);
        }
        assert_eq!(trace.spans().len(), TRACE_SPAN_CAP);
        assert_eq!(trace.dropped(), 3);
        assert_eq!(trace.spans()[1].start_ns, 10);
        trace.disarm();
        assert!(trace.spans().is_empty());
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let mut trace = QueryTrace::new();
        trace.begin();
        trace.record_manual(Stage::Parse, 0, 1_500);
        trace.record_manual(Stage::Resolve, 1_500, 42_000);
        let json = trace.to_chrome_json("data \"mining\"");
        assert!(json.contains("\"name\":\"parse\""));
        assert!(json.contains("\"ts\":1.500,\"dur\":42.000"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"query\":\"data \\\"mining\\\"\""));
    }

    #[test]
    fn real_instants_produce_monotonic_offsets() {
        let mut trace = QueryTrace::new();
        trace.begin();
        let t0 = Instant::now();
        std::hint::black_box((0..1000).sum::<u64>());
        trace.record_since(Stage::Resolve, t0);
        let t1 = Instant::now();
        std::hint::black_box((0..1000).sum::<u64>());
        trace.record_since(Stage::MergeAnchor, t1);
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }
}
