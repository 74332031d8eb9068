//! Benchmark-side spans for the traced run.
//!
//! Nothing inside the program is instrumented by this benchmark: spans
//! are recorded here, around each call into a layer, kept in memory,
//! and written out once when the run ends. Spans of one operation share
//! its id; a span's self time is its duration minus what its children
//! cover. For in-process workloads the engine's own `QueryTrace` stages
//! (the program's existing tracer) are re-based under the `execute`
//! span, so the table reaches down to resolve / merge_anchor /
//! construct / prune.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use xks_obs::{QueryTrace, Stage};
use xks_store::json::Value;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the parent span in the log, `u32::MAX` for an operation.
    pub parent: u32,
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Nanoseconds from the log's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Aggregate of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of durations minus children.
    pub self_ns: u64,
}

const NO_PARENT: u32 = u32::MAX;

/// The in-memory span log of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<SpanRec>,
    next_op: u64,
}

impl SpanLog {
    /// An empty log whose clock starts at `origin`; logs that will be
    /// merged with [`SpanLog::absorb`] share one origin.
    pub fn at(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::with_capacity(1 << 16),
            next_op: 0,
        }
    }

    /// Appends another connection's log, renumbering its operations and
    /// parent links after this log's.
    pub fn absorb(&mut self, other: SpanLog) {
        let shift = u32::try_from(self.spans.len()).expect("span log fits u32");
        let first_op = self.next_op;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.op += first_op;
            if span.parent != NO_PARENT {
                span.parent += shift;
            }
            span
        }));
        self.next_op += other.next_op;
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of a new operation; close it with
    /// [`SpanLog::close`].
    pub fn open_op(&mut self, started: Instant) -> u32 {
        let op = self.next_op;
        self.next_op += 1;
        self.push(op, NO_PARENT, "op", started, 0)
    }

    /// Records a finished child span of `parent` covering
    /// `[started, ended)`; returns its index.
    pub fn child(
        &mut self,
        parent: u32,
        name: &'static str,
        started: Instant,
        ended: Instant,
    ) -> u32 {
        let op = self.spans[parent as usize].op;
        let dur =
            u64::try_from(ended.saturating_duration_since(started).as_nanos()).unwrap_or(u64::MAX);
        self.push(op, parent, name, started, dur)
    }

    /// Sets the end of a span opened with [`SpanLog::open_op`].
    pub fn close(&mut self, index: u32, ended: Instant) {
        let end = self.offset(ended);
        let span = &mut self.spans[index as usize];
        span.dur_ns = end.saturating_sub(span.start_ns);
    }

    fn push(
        &mut self,
        op: u64,
        parent: u32,
        name: &'static str,
        started: Instant,
        dur_ns: u64,
    ) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("span log fits u32");
        let start_ns = self.offset(started);
        self.spans.push(SpanRec {
            op,
            parent,
            name,
            start_ns,
            dur_ns,
        });
        index
    }

    /// Re-bases the engine's stage spans (offsets from the start of
    /// `execute_with`) under the benchmark's `execute` span. Per-keyword
    /// `postings_decode` spans nest under `resolve`; `parse` is skipped
    /// because the benchmark times parsing itself.
    pub fn adopt_engine_trace(&mut self, execute: u32, trace: &QueryTrace) {
        let (op, base) = {
            let span = &self.spans[execute as usize];
            (span.op, span.start_ns)
        };
        let mut resolve = execute;
        for span in trace.spans() {
            let parent = match span.stage {
                Stage::Parse => continue,
                Stage::PostingsDecode => resolve,
                _ => execute,
            };
            let index = u32::try_from(self.spans.len()).expect("span log fits u32");
            self.spans.push(SpanRec {
                op,
                parent,
                name: span.stage.as_str(),
                start_ns: base + span.start_ns,
                dur_ns: span.dur_ns,
            });
            if span.stage == Stage::Resolve {
                resolve = index;
            }
        }
    }

    /// Operations recorded.
    pub fn ops(&self) -> u64 {
        self.next_op
    }

    /// The self-time table: per span name, count, total and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                children_ns[span.parent as usize] += span.dur_ns;
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, &covered) in self.spans.iter().zip(&children_ns) {
            let row = table.entry(span.name).or_default();
            row.count += 1;
            row.total_ns += span.dur_ns;
            row.self_ns += span.dur_ns.saturating_sub(covered);
        }
        table
    }

    /// Ends the traced stretch: sets `span.<name>_self_us` — mean self
    /// time per operation, microseconds — for every benchmark-side span
    /// that was recorded, and writes the log to `path`.
    pub fn report(
        &self,
        path: &Path,
        envelope: BTreeMap<String, Value>,
        out: &mut crate::metrics::Values,
    ) {
        const METRICS: [(&str, &str); 7] = [
            ("parse", "span.parse_self_us"),
            ("execute", "span.execute_self_us"),
            ("render", "span.render_self_us"),
            ("connect", "span.connect_self_us"),
            ("send", "span.send_self_us"),
            ("read", "span.read_self_us"),
            ("write", "span.write_self_us"),
        ];
        let table = self.self_times();
        let ops = self.ops().max(1);
        for (span, metric) in METRICS {
            if let Some(row) = table.get(span) {
                out.set_n(metric, row.self_ns as f64 / 1e3 / ops as f64, ops as usize);
            }
        }
        self.write(path, envelope).expect("trace file writes");
    }

    /// Writes the log — self-time table first, then every span — as one
    /// JSON document.
    fn write(&self, path: &Path, envelope: BTreeMap<String, Value>) -> std::io::Result<()> {
        let mut root = envelope;
        let table = self
            .self_times()
            .into_iter()
            .map(|(name, row)| {
                (
                    name.to_owned(),
                    Value::Obj(validrtf::wire::obj([
                        ("count", Value::Num(row.count)),
                        ("total_ns", Value::Num(row.total_ns)),
                        ("self_ns", Value::Num(row.self_ns)),
                    ])),
                )
            })
            .collect();
        root.insert("operations".to_owned(), Value::Num(self.ops()));
        root.insert("self_time".to_owned(), Value::Obj(table));
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Arr(vec![
                    Value::Num(s.op),
                    if s.parent == NO_PARENT {
                        Value::Null
                    } else {
                        Value::Num(u64::from(s.parent))
                    },
                    Value::Str(s.name.to_owned()),
                    Value::Num(s.start_ns),
                    Value::Num(s.dur_ns),
                ])
            })
            .collect();
        root.insert(
            "span_columns".to_owned(),
            Value::Arr(
                ["op", "parent_index", "name", "start_ns", "dur_ns"]
                    .map(|c| Value::Str(c.to_owned()))
                    .into(),
            ),
        );
        root.insert("spans".to_owned(), Value::Arr(spans));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, xks_store::json::to_string(&Value::Obj(root)) + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut log = SpanLog::at(t0);
        let op = log.open_op(t0);
        let a = log.child(op, "execute", t0, t0 + Duration::from_micros(70));
        log.child(a, "construct", t0, t0 + Duration::from_micros(50));
        log.child(
            op,
            "render",
            t0 + Duration::from_micros(70),
            t0 + Duration::from_micros(90),
        );
        log.close(op, t0 + Duration::from_micros(100));
        let table = log.self_times();
        assert_eq!(table["op"].self_ns, 10_000);
        assert_eq!(table["execute"].self_ns, 20_000);
        assert_eq!(table["construct"].self_ns, 50_000);
        assert_eq!(log.ops(), 1);
    }
}
