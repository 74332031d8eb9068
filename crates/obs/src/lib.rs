//! Telemetry substrate for the read path: a process-wide metrics
//! registry, log2-bucketed latency histograms, and a zero-allocation
//! per-query stage tracer.
//!
//! The crate is deliberately dependency-free (the build environment has
//! no registry access) and splits into three layers:
//!
//! * [`metric`] — the primitives: [`Counter`] and [`Gauge`] are shared
//!   `AtomicU64` cells, [`Histogram`] is a fixed array of 64 log2
//!   buckets. All updates are single relaxed atomic operations — no
//!   lock, no allocation — so they are safe on the query hot path.
//! * [`registry`] — a named [`Registry`] of metrics. Registration
//!   takes a short mutex and may allocate (do it once, at component
//!   construction); the returned handles update lock-free thereafter.
//!   [`global()`] is the process-wide instance every subsystem
//!   (engine, executor, buffer pool, caches) registers into.
//! * [`trace`] + [`snapshot`] — the read side. A [`QueryMeter`] in
//!   the per-thread query context reads the clock once per stage
//!   boundary for the stage totals, the deadline checks and, on traced
//!   requests, the [`QueryTrace`] spans (a preallocated inline buffer);
//!   [`Snapshot`] captures a point-in-time copy of every metric and
//!   serializes it through one hand-rolled, deterministic JSON schema
//!   (`xks-obs/1`).
//!
//! Components that own internal counters outside the registry (e.g.
//! the persist layer's `IndexStats`) implement [`MetricSource`] to
//! contribute them to a snapshot at collection time.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod metric;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use metric::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{count_poison_recovery, global, Registry};
pub use snapshot::{MetricSource, Snapshot};
pub use trace::{Expired, QueryMeter, QueryTrace, Span, Stage, DEADLINE_STRIDE, TRACE_SPAN_CAP};
