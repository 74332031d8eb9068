//! Per-query stage timing. A [`QueryMeter`] in the query context reads
//! the clock once when a query begins and once per stage boundary
//! ([`QueryMeter::lap`]). That one reading closes the stage into its
//! total (what `StageTimings` reports), ends its span on a traced
//! request, and is what the deadline is checked against
//! ([`QueryMeter::check`]); [`QueryMeter::tick`] checks it inside a
//! stage. Sub-spans read the clock on traced requests only.
//!
//! The [`QueryTrace`] span buffer is inline storage, so a traced warm
//! query performs **zero heap allocations** (`tests/zero_alloc.rs`).
//! Spans past [`TRACE_SPAN_CAP`] are counted in
//! [`QueryTrace::dropped`], never grown. Span timestamps are nanosecond
//! offsets from the query's start, so a trace is self-contained and
//! serializes directly to Chrome-trace-event JSON (`chrome://tracing`,
//! Perfetto) via [`QueryTrace::to_chrome_json`].

use std::time::{Duration, Instant};

/// Maximum spans one query trace can hold without dropping.
pub const TRACE_SPAN_CAP: usize = 32;

/// The read-path pipeline stages a trace can attribute time to.
///
/// These are finer-grained than `StageTimings` in the core crate: the
/// coarse `get_keyword_nodes` stage splits into per-keyword
/// [`Stage::PostingsDecode`] spans under an umbrella
/// [`Stage::Resolve`], and the fragment loop splits into
/// [`Stage::Construct`] / [`Stage::Prune`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Stage {
    /// Query-string parsing (recorded by `SearchRequest::parse`).
    #[default]
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
    /// How many stages there are (the meter's per-stage arrays);
    /// `Rank` is the last variant.
    const COUNT: usize = Stage::Rank as usize + 1;

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
/// relative to the query's start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Which pipeline stage this span covers.
    pub stage: Stage,
    /// Nanoseconds from the query's start to the span's start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// A preallocated per-query span recorder (see the module docs),
/// filled by a [`QueryMeter`] for a traced request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    len: usize,
    dropped: u32,
    spans: [Span; TRACE_SPAN_CAP],
}

impl QueryTrace {
    fn push(&mut self, stage: Stage, start_ns: u64, dur_ns: u64) {
        match self.spans.get_mut(self.len) {
            Some(span) => {
                *span = Span {
                    stage,
                    start_ns,
                    dur_ns,
                };
                self.len += 1;
            }
            None => self.dropped += 1,
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

/// Units of work (built fragments) between two deadline checks inside
/// a stage — the most a query with a deadline overshoots it by there.
pub const DEADLINE_STRIDE: usize = 64;

/// A query that ran past its deadline: where the check caught it, and
/// how long it had run.
#[derive(Debug, Clone, Copy)]
pub struct Expired {
    /// The stage the check guards (see [`QueryMeter::check`]).
    pub stage: &'static str,
    /// Time from the query's start to the reading that caught it.
    pub elapsed: Duration,
}

/// One query's clock (see the module docs): its start and deadline,
/// per-stage nanosecond totals, and the [`QueryTrace`] it fills when
/// the request is traced — fixed-size storage, so it never allocates.
#[derive(Debug)]
pub struct QueryMeter {
    start: Instant,
    /// The reading the open stage started at.
    lap: Instant,
    deadline: Option<Instant>,
    /// The stage the last [`QueryMeter::check`] guarded.
    guarded: &'static str,
    totals: [u64; Stage::COUNT],
    /// The open stage's part totals (traced only).
    parts: [u64; Stage::COUNT],
    traced: bool,
    trace: QueryTrace,
}

impl Default for QueryMeter {
    fn default() -> Self {
        let now = Instant::now();
        QueryMeter {
            start: now,
            lap: now,
            deadline: None,
            guarded: "",
            totals: [0; Stage::COUNT],
            parts: [0; Stage::COUNT],
            traced: false,
            trace: QueryTrace::default(),
        }
    }
}

impl QueryMeter {
    /// Starts a query at one clock reading: clears the totals and the
    /// trace, and arms the trace only for a traced request (opening it
    /// with the parse span, when parsing took `parse_ns`).
    pub fn begin(&mut self, traced: bool, parse_ns: u64, deadline: Option<Instant>) -> &mut Self {
        let now = Instant::now();
        (self.start, self.lap, self.deadline, self.guarded) = (now, now, deadline, "");
        (self.totals, self.parts) = ([0; Stage::COUNT], [0; Stage::COUNT]);
        (self.traced, self.trace.len, self.trace.dropped) = (traced, 0, 0);
        if traced && parse_ns > 0 {
            self.trace.push(Stage::Parse, 0, parse_ns);
        }
        self
    }

    /// Closes the open stage as `stage` at one clock reading: adds its
    /// time to `stage`'s total and, when traced, records its span.
    pub fn lap(&mut self, stage: Stage) -> &mut Self {
        self.lap_split(stage, &[])
    }

    /// [`QueryMeter::lap`] for a stage whose span splits into `parts`:
    /// each part's [`QueryMeter::accumulate`]d total becomes a span,
    /// laid end to end from the stage's start, and `stage`'s span is
    /// the rest. `stage`'s total is the whole stage.
    pub fn lap_split(&mut self, stage: Stage, parts: &[Stage]) -> &mut Self {
        let now = Instant::now();
        let ns = nanos(now.saturating_duration_since(self.lap));
        self.totals[stage as usize] += ns;
        if self.traced {
            let (mut at, mut rest) = (self.offset_ns(self.lap), ns);
            for &part in parts {
                let part_ns = std::mem::take(&mut self.parts[part as usize]);
                self.trace.push(part, at, part_ns);
                (at, rest) = (at + part_ns, rest.saturating_sub(part_ns));
            }
            self.trace.push(stage, at, rest);
        }
        self.lap = now;
        self
    }

    /// Checks the deadline against the last reading (no clock read),
    /// naming `stage`, the stage about to start, when it has passed.
    /// [`QueryMeter::tick`] names it too until the next check.
    pub fn check(&mut self, stage: &'static str) -> Result<(), Expired> {
        self.guarded = stage;
        self.expired_at(self.lap)
    }

    /// The in-stage deadline check before unit `done` of the open
    /// stage's work: a clock read every [`DEADLINE_STRIDE`] units, and
    /// only when the query has a deadline.
    pub fn tick(&self, done: usize) -> Result<(), Expired> {
        if self.deadline.is_none() || done == 0 || !done.is_multiple_of(DEADLINE_STRIDE) {
            return Ok(());
        }
        self.expired_at(Instant::now())
    }

    fn expired_at(&self, now: Instant) -> Result<(), Expired> {
        match self.deadline {
            Some(deadline) if now >= deadline => Err(Expired {
                stage: self.guarded,
                elapsed: now.saturating_duration_since(self.start),
            }),
            _ => Ok(()),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        nanos(at.saturating_duration_since(self.start))
    }

    /// A clock reading for a sub-span: `None`, and no read, untraced.
    #[must_use]
    pub fn mark(&self) -> Option<Instant> {
        self.traced.then(Instant::now)
    }

    /// Records a `stage` span from `since` (a [`QueryMeter::mark`]) to
    /// now. No-op untraced.
    pub fn record(&mut self, stage: Stage, since: Option<Instant>) {
        if let Some(since) = since {
            let dur_ns = nanos(since.elapsed());
            self.trace.push(stage, self.offset_ns(since), dur_ns);
        }
    }

    /// Adds the time from `since` (a [`QueryMeter::mark`]) to now to
    /// the open stage's `part` (see [`QueryMeter::lap_split`]). No-op
    /// untraced.
    pub fn accumulate(&mut self, part: Stage, since: Option<Instant>) {
        if let Some(since) = since {
            self.parts[part as usize] += nanos(since.elapsed());
        }
    }

    /// Runs `f`, timed as the open stage's `part` on a traced request.
    pub fn time<T>(&mut self, part: Stage, f: impl FnOnce() -> T) -> T {
        let at = self.mark();
        let out = f();
        self.accumulate(part, at);
        out
    }

    /// The time `stage`'s laps took in this query.
    #[must_use]
    pub fn total(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.totals[stage as usize])
    }

    /// The query's trace — `Some` exactly when it began traced.
    #[must_use]
    pub fn trace(&self) -> Option<&QueryTrace> {
        self.traced.then_some(&self.trace)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
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
        let mut meter = QueryMeter::default();
        meter.begin(false, 5, None);
        assert_eq!(meter.mark(), None, "no clock read untraced");
        meter.record(Stage::PostingsDecode, meter.mark());
        meter.lap(Stage::Resolve);
        assert!(meter.trace().is_none());
        assert_eq!(meter.trace.spans(), []);
    }

    #[test]
    fn spans_accumulate_in_order_and_cap_without_growing() {
        let mut trace = QueryTrace::default();
        for i in 0..(TRACE_SPAN_CAP as u64 + 3) {
            trace.push(Stage::PostingsDecode, i * 10, 5);
        }
        assert_eq!(trace.spans().len(), TRACE_SPAN_CAP);
        assert_eq!(trace.dropped(), 3);
        assert_eq!(trace.spans()[1].start_ns, 10);
        let mut meter = QueryMeter {
            trace,
            ..QueryMeter::default()
        };
        meter.begin(true, 0, None);
        assert_eq!(meter.trace().map(QueryTrace::dropped), Some(0));
        assert!(meter.trace.spans().is_empty(), "a new query starts clean");
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let mut trace = QueryTrace::default();
        trace.push(Stage::Parse, 0, 1_500);
        trace.push(Stage::Resolve, 1_500, 42_000);
        let json = trace.to_chrome_json("data \"mining\"");
        assert!(json.contains("\"name\":\"parse\""));
        assert!(json.contains("\"ts\":1.500,\"dur\":42.000"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"query\":\"data \\\"mining\\\"\""));
    }

    #[test]
    fn real_instants_produce_monotonic_offsets() {
        let mut meter = QueryMeter::default();
        meter.begin(true, 0, None);
        let t0 = meter.mark();
        std::hint::black_box((0..1000).sum::<u64>());
        meter.record(Stage::PostingsDecode, t0);
        let t1 = meter.mark();
        std::hint::black_box((0..1000).sum::<u64>());
        meter.record(Stage::PostingsDecode, t1);
        let spans = meter.trace().expect("armed").spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[1].start_ns >= spans[0].start_ns + spans[0].dur_ns);
    }

    #[test]
    fn laps_tile_the_query_and_feed_totals_and_spans_alike() {
        let mut meter = QueryMeter::default();
        meter.begin(true, 700, None);
        std::hint::black_box((0..1000).sum::<u64>());
        meter.lap(Stage::Resolve);
        let at = meter.mark();
        std::hint::black_box((0..1000).sum::<u64>());
        meter.accumulate(Stage::Construct, at);
        meter.lap_split(Stage::Prune, &[Stage::Construct]);
        let trace = meter.trace().expect("armed").clone();
        let stages: Vec<Stage> = trace.spans().iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            [Stage::Parse, Stage::Resolve, Stage::Construct, Stage::Prune]
        );
        let [parse, resolve, construct, prune] = trace.spans() else {
            unreachable!()
        };
        assert_eq!((parse.start_ns, parse.dur_ns), (0, 700));
        assert_eq!(resolve.start_ns, 0, "the first lap starts at the origin");
        assert_eq!(
            meter.total(Stage::Resolve).as_nanos(),
            u128::from(resolve.dur_ns)
        );
        assert_eq!(construct.start_ns, resolve.start_ns + resolve.dur_ns);
        assert_eq!(prune.start_ns, construct.start_ns + construct.dur_ns);
        assert_eq!(
            meter.total(Stage::Prune).as_nanos(),
            u128::from(construct.dur_ns + prune.dur_ns)
        );
        // A new query starts from zero.
        meter.begin(false, 0, None);
        assert_eq!(meter.total(Stage::Resolve), Duration::ZERO);
    }

    #[test]
    fn deadline_checks_name_the_guarded_stage() {
        let mut meter = QueryMeter::default();
        let past = Instant::now();
        let err = meter
            .begin(false, 0, Some(past))
            .check("resolve")
            .unwrap_err();
        assert_eq!(err.stage, "resolve");
        assert!(meter.tick(DEADLINE_STRIDE - 1).is_ok(), "between strides");
        assert!(meter.tick(0).is_ok(), "not before the first unit");
        assert_eq!(
            meter.tick(2 * DEADLINE_STRIDE).unwrap_err().stage,
            "resolve"
        );
        let mut roomy = QueryMeter::default();
        roomy.begin(false, 0, Some(past + Duration::from_secs(60)));
        assert!(roomy.lap(Stage::Resolve).check("anchor").is_ok());
        assert!(roomy.tick(DEADLINE_STRIDE).is_ok());
    }
}
