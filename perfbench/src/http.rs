//! The two socket workloads: `s10-flat-uniform-single` (fits every
//! cache, ~0.25 ms of engine time per query) behind `xks_serve::Server`
//! started in this process with `workers: 2`.
//!
//! * `uniform10-http-fresh` — one closed-loop client, a new
//!   `Connection: close` socket per request. Engine work is a few
//!   percent of the latency; the rest is accept, queue and framing.
//! * `uniform10-http-keepalive` — two persistent connections, open loop
//!   at a fixed 400 requests/s (200 per connection), each request timed
//!   from when it was due. Bypasses accept entirely.
//!
//! Load comes from at most two threads and two connections (the box
//! has two cores). A `429`, a `503`, a transport error or a body that
//! differs from the local `wire::response_json` render is a failed
//! operation.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use validrtf::engine::SearchEngine;
use xks_datagen::scenario::Skew;
use xks_persist::{IndexReader, IndexWriter};
use xks_serve::client::{self, Conn, Response};
use xks_serve::{Server, ServerConfig, ServerReport, ShutdownHandle};
use xks_store::json::{self, Value};

use crate::corpus::{body_fnv, gate, timings_total_us, Corpus, Expected};
use crate::harness::{
    closed_loop, median_ns, ns_since, open_loop, percentile, reset_rss_peak, Measured, Plan, Raw,
    Scheduled, Scratch,
};
use crate::layers::{self, SetupLadder, Unit};
use crate::metrics::Values;
use crate::spans::SpanLog;
use crate::{Outcome, RunConfig};

/// Which socket workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `uniform10-http-fresh`.
    Fresh,
    /// `uniform10-http-keepalive`.
    KeepAlive,
}

/// Server worker threads — fixed, not `available_parallelism`.
const WORKERS: usize = 2;
/// Persistent connections of the keep-alive workload.
const CONNECTIONS: usize = 2;
/// Offered rate of the keep-alive workload, requests per second.
const OFFERED_RATE: f64 = 400.0;

/// The running server with everything the client side checks against.
struct Served {
    corpus: Corpus,
    reader: Arc<IndexReader>,
    index_path: std::path::PathBuf,
    /// A second engine over the same reader: the local render every
    /// HTTP body must equal, and the engine ladder's subject.
    local: SearchEngine,
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: std::thread::JoinHandle<ServerReport>,
    ladder: SetupLadder,
}

impl Served {
    /// Generate + parse + shred + index write + open + bind + one
    /// warm-up cycle over the socket.
    fn start(seed: u64, scratch: &Scratch) -> Served {
        let corpus = Corpus::matrix_cell(10, Skew::Uniform, seed);
        let index_path = scratch.path().join("corpus.xks");
        let started = Instant::now();
        let summary = IndexWriter::new()
            .write(&corpus.doc, &index_path)
            .expect("index writes");
        let write_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let reader = Arc::new(IndexReader::open(&index_path).expect("index opens"));
        let open_s = started.elapsed().as_secs_f64();
        let engine = SearchEngine::from_source(Arc::clone(&reader) as _);
        let config = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let server = Server::bind(engine, config).expect("server binds");
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run().expect("server runs"));
        for text in &corpus.queries {
            let response = client::request(addr, "POST", "/search", &search_body(text, false))
                .expect("warm-up request");
            assert_eq!(response.status, 200, "warm-up request refused");
        }
        Served {
            ladder: SetupLadder::new(&corpus, write_s, open_s, summary.file_len),
            local: SearchEngine::from_source(Arc::clone(&reader) as _),
            corpus,
            reader,
            index_path,
            addr,
            shutdown,
            thread,
        }
    }

    /// Graceful drain; the report carries the shed and timeout counts.
    fn stop(self) -> ServerReport {
        self.shutdown.shutdown();
        let report = self.thread.join().expect("server thread");
        assert!(report.drained_cleanly, "server must drain cleanly");
        report
    }

    /// Oracle gate on the local engine, then every HTTP body against
    /// the local render (timings cut).
    fn gate(&self, label: &str) -> Vec<Expected> {
        let expected = gate(label, &self.corpus.tree, &self.corpus.queries, &self.local);
        for (text, want) in self.corpus.queries.iter().zip(&expected) {
            let response = client::request(self.addr, "POST", "/search", &search_body(text, false))
                .expect("gate request");
            if !answer_is(&response, want) {
                eprintln!("perfbench: correctness gate failed on {label}: HTTP body for {text:?} differs from the local render");
                std::process::exit(2);
            }
        }
        expected
    }
}

/// The documented `/search` body for one query.
fn search_body(text: &str, traced: bool) -> Vec<u8> {
    let mut fields = validrtf::wire::obj([("query", Value::Str(text.to_owned()))]);
    if traced {
        fields.insert("trace".to_owned(), Value::Bool(true));
    }
    json::to_string(&Value::Obj(fields)).into_bytes()
}

/// The same request as raw wire bytes, for the traced run's separate
/// `send` and `read` spans.
fn raw_request(body: &[u8], close: bool) -> Vec<u8> {
    let mut head = format!(
        "POST /search HTTP/1.1\r\nHost: xks\r\nContent-Length: {}\r\n",
        body.len()
    );
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

fn answer_is(response: &Response, want: &Expected) -> bool {
    response.status == 200 && body_fnv(&response.body) == Some(want.body_fnv)
}

/// What the per-layer run reads off each exchange besides its latency.
#[derive(Default)]
struct WireStats {
    /// Client service time minus the body's `timings_us.total`, ns.
    overhead_ns: Vec<u64>,
    /// Client service time (sent → last byte), ns.
    service_ns: Vec<u64>,
    body_bytes: u64,
    responses: u64,
}

impl WireStats {
    fn record(&mut self, service_ns: u64, response: &Response) {
        self.service_ns.push(service_ns);
        if let Some(total_us) = timings_total_us(&response.body) {
            self.overhead_ns
                .push(service_ns.saturating_sub(total_us * 1_000));
        }
        self.body_bytes += response.body.len() as u64;
        self.responses += 1;
    }

    fn absorb(&mut self, other: WireStats) {
        self.overhead_ns.extend(other.overhead_ns);
        self.service_ns.extend(other.service_ns);
        self.body_bytes += other.body_bytes;
        self.responses += other.responses;
    }
}

/// What a load run needs to know about its requests.
struct Load<'a> {
    addr: SocketAddr,
    bodies: &'a [Vec<u8>],
    expected: &'a [Expected],
    traced: bool,
}

/// Fresh-connection closed loop, one client. Untraced it is the
/// one-shot `client::request`; traced it is the same exchange taken
/// apart — `Conn::connect`, send, read — with a span around each.
fn run_fresh(load: &Load<'_>, plan: Plan, log: Option<&mut SpanLog>) -> (Vec<Raw>, WireStats) {
    let mut wire = WireStats::default();
    let mut log = log;
    let raw: Vec<Vec<u8>> = load.bodies.iter().map(|b| raw_request(b, true)).collect();
    let slices = closed_loop(plan, load.bodies.len(), |i| {
        let started = Instant::now();
        let response = match log.as_deref_mut() {
            None => client::request(load.addr, "POST", "/search", &load.bodies[i]).map_err(drop)?,
            Some(log) => {
                let op = log.open_op(started);
                let mut conn = Conn::connect(load.addr).map_err(drop)?;
                let connected = Instant::now();
                conn.send_raw(&raw[i]).map_err(drop)?;
                let sent = Instant::now();
                let response = conn.read_response().map_err(drop)?;
                let ended = Instant::now();
                log.child(op, "connect", started, connected);
                log.child(op, "send", connected, sent);
                log.child(op, "read", sent, ended);
                log.close(op, ended);
                response
            }
        };
        let ns = ns_since(started);
        wire.record(ns, &response);
        answer_is(&response, &load.expected[i])
            .then_some(ns)
            .ok_or(())
    });
    (slices, wire)
}

/// Keep-alive open loop: `CONNECTIONS` threads, one persistent
/// connection each, `OFFERED_RATE / CONNECTIONS` requests/s per
/// connection on interleaved schedules. A broken connection fails the
/// request that met it and is reopened for the next one.
fn run_keepalive(
    load: &Load<'_>,
    plan: Plan,
    log: Option<&mut SpanLog>,
) -> (Vec<Scheduled>, WireStats) {
    let per_conn = OFFERED_RATE / CONNECTIONS as f64;
    let origin = Instant::now() + Duration::from_millis(20);
    let n = load.bodies.len();
    let results: Vec<(Scheduled, WireStats, SpanLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut wire = WireStats::default();
                    let mut spans = SpanLog::at(origin);
                    let mut conn = Conn::connect(load.addr).ok();
                    let raw: Vec<Vec<u8>> =
                        load.bodies.iter().map(|b| raw_request(b, false)).collect();
                    // Connection `c` starts `c / CONNECTIONS` of an
                    // interval late and part-way down the query list.
                    let start = origin + Duration::from_secs_f64(c as f64 / OFFERED_RATE);
                    let first = c * n / CONNECTIONS;
                    let measured = open_loop(start, per_conn, plan, n, first, |i| {
                        let sent_at = Instant::now();
                        let mut exchange = |conn: &mut Conn| -> std::io::Result<Response> {
                            if load.traced {
                                let op = spans.open_op(sent_at);
                                conn.send_raw(&raw[i])?;
                                let sent = Instant::now();
                                let response = conn.read_response()?;
                                let ended = Instant::now();
                                spans.child(op, "send", sent_at, sent);
                                spans.child(op, "read", sent, ended);
                                spans.close(op, ended);
                                Ok(response)
                            } else {
                                conn.request("POST", "/search", &load.bodies[i])
                            }
                        };
                        let outcome = match conn.as_mut() {
                            Some(open) => exchange(open),
                            None => Err(std::io::ErrorKind::NotConnected.into()),
                        };
                        match outcome {
                            Ok(response) => {
                                wire.record(ns_since(sent_at), &response);
                                answer_is(&response, &load.expected[i])
                                    .then_some(())
                                    .ok_or(())
                            }
                            Err(_) => {
                                conn = Conn::connect(load.addr).ok();
                                Err(())
                            }
                        }
                    });
                    (measured, wire, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut schedules = Vec::new();
    let mut wire = WireStats::default();
    let mut log = log;
    for (scheduled, w, spans) in results {
        schedules.push(scheduled);
        wire.absorb(w);
        if let Some(log) = log.as_deref_mut() {
            log.absorb(spans);
        }
    }
    (schedules, wire)
}

/// One stretch of the workload's own kind of load.
struct Stretch {
    /// Closed loop: the plan's slices. Open loop: one per connection.
    parts: Vec<Raw>,
    /// Open loop: how late each request left, ns, ascending.
    send_lag_ns: Vec<u64>,
    wire: WireStats,
}

impl Stretch {
    /// The end-to-end reading. Closed loop: pooled latencies, median
    /// slice rate. Open loop: latencies from due pooled over the
    /// connections, and as rate the completions per second of schedule,
    /// summed over them — the offered rate unless the server falls
    /// behind.
    fn measured(self, mode: Mode) -> Measured {
        let achieved: f64 = self.parts.iter().map(Raw::rate).sum();
        let mut measured = Measured::from_slices(self.parts);
        if mode == Mode::KeepAlive {
            measured.rate = achieved;
        }
        measured
    }

    /// Every sample and the whole tally of `parts` in one [`Raw`].
    fn pool(parts: Vec<Raw>) -> Raw {
        let mut pooled = Raw::default();
        for part in parts {
            pooled.absorb(part);
        }
        pooled
    }
}

fn run(mode: Mode, load: &Load<'_>, plan: Plan, log: Option<&mut SpanLog>) -> Stretch {
    match mode {
        Mode::Fresh => {
            let (parts, wire) = run_fresh(load, plan, log);
            Stretch {
                parts,
                send_lag_ns: Vec::new(),
                wire,
            }
        }
        Mode::KeepAlive => {
            let (schedules, wire) = run_keepalive(load, plan, log);
            let (mut parts, mut send_lag_ns) = (Vec::new(), Vec::new());
            for scheduled in schedules {
                parts.push(scheduled.raw);
                send_lag_ns.extend(scheduled.send_lag_ns);
            }
            send_lag_ns.sort_unstable();
            Stretch {
                parts,
                send_lag_ns,
                wire,
            }
        }
    }
}

fn bodies(corpus: &Corpus, traced: bool) -> Vec<Vec<u8>> {
    corpus
        .queries
        .iter()
        .map(|q| search_body(q, traced))
        .collect()
}

/// `--trace 0`: the end-to-end metrics, tracing off.
pub fn end_to_end(mode: Mode, cfg: &RunConfig) -> Outcome {
    let scratch = Scratch::new(cfg.workload).expect("scratch directory");
    let mut setups = Vec::new();
    let mut served: Option<Served> = None;
    while cfg.set_up_again(&setups) {
        if let Some(previous) = served.take() {
            previous.stop();
        }
        let started = Instant::now();
        served = Some(Served::start(cfg.seed, &scratch));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut served = served.expect("set up at least once");
    let expected = served.gate(cfg.workload);
    let bodies = bodies(&served.corpus, false);
    let load = Load {
        addr: served.addr,
        bodies: &bodies,
        expected: &expected,
        traced: false,
    };
    served.corpus.release();
    reset_rss_peak();
    let measured = run(mode, &load, cfg.plan(), None).measured(mode);
    if mode == Mode::KeepAlive {
        println!(
            "# qps below is the achieved rate of the fixed {OFFERED_RATE}/s offer: printed \
             because every workload prints every metric, not to be judged"
        );
    }
    let outcome = Outcome::end_to_end(&measured, setups);
    let report = served.stop();
    // Anything the server shed or timed out already failed client-side.
    assert!(
        report.shed + report.timeouts <= measured.failed,
        "server refused requests the client counted as served"
    );
    outcome
}

/// `--trace 1`: the per-layer metrics and the trace file.
pub fn per_layer(mode: Mode, cfg: &RunConfig) -> Outcome {
    let scratch = Scratch::new(cfg.workload).expect("scratch directory");
    let served = Served::start(cfg.seed, &scratch);
    let expected = served.gate(cfg.workload);
    let mut values = Values::default();
    served.ladder.emit(&mut values);

    // `serve.connect_us`: connect and drop, before any load occupies
    // the workers.
    let connects: Vec<u64> = (0..30)
        .map(|_| {
            let started = Instant::now();
            drop(Conn::connect(served.addr).expect("connects"));
            ns_since(started)
        })
        .collect();
    values.set_n("serve.connect_us", median_ns(&connects) / 1e3, 30);

    // Untraced reference stretch, with the server's own request histogram
    // and the reader's counters read before and after it.
    let s = cfg.seconds;
    let handler = xks_obs::global().histogram("http.request_ns");
    let (handler_before, reader_before) = (handler.snapshot(), served.reader.stats());
    let plain = bodies(&served.corpus, false);
    let load = Load {
        addr: served.addr,
        bodies: &plain,
        expected: &expected,
        traced: false,
    };
    let Stretch {
        parts,
        send_lag_ns: lag,
        wire,
    } = run(mode, &load, Plan::stretch(0.25 * s), None);
    let reference = Stretch::pool(parts);
    let handler_after = handler.snapshot();
    layers::reader_deltas(
        &reader_before,
        &served.reader.stats(),
        reference.attempted,
        &mut values,
    );
    let n = wire.overhead_ns.len();
    values.set_n(
        "serve.roundtrip_overhead_us",
        median_ns(&wire.overhead_ns) / 1e3,
        n,
    );
    let handled = (handler_after.count - handler_before.count).max(1);
    let handler_mean_ns = (handler_after.sum - handler_before.sum) as f64 / handled as f64;
    let service_mean_ns =
        wire.service_ns.iter().sum::<u64>() as f64 / wire.service_ns.len().max(1) as f64;
    values.set_n(
        "serve.outside_handler_us",
        (service_mean_ns - handler_mean_ns) / 1e3,
        wire.service_ns.len(),
    );
    values.set(
        "serve.response_bytes_per_req",
        wire.body_bytes as f64 / wire.responses.max(1) as f64,
    );
    if mode == Mode::KeepAlive {
        values.set_n(
            "serve.gen_lag_p99_us",
            percentile(&lag, 0.99) as f64 / 1e3,
            lag.len(),
        );
    }

    // Traced stretch: `"trace": true` in every body, spans around every
    // client-side call.
    let traced_bodies = bodies(&served.corpus, true);
    let traced_load = Load {
        bodies: &traced_bodies,
        traced: true,
        ..load
    };
    let mut log = SpanLog::at(Instant::now());
    let traced =
        Stretch::pool(run(mode, &traced_load, Plan::stretch(0.25 * s), Some(&mut log)).parts);
    if mode == Mode::Fresh {
        // The offered rate of the open loop is fixed; only the closed
        // loop's rate can show what tracing costs.
        values.set(
            "core.trace_overhead_ratio",
            traced.rate() / reference.rate(),
        );
    }
    log.report(&cfg.trace_path(), cfg.envelope(), &mut values);

    // The engine-side ladder, on the local engine over the same reader,
    // with no traffic on the socket.
    let units = [Unit {
        engine: &served.local,
        queries: &served.corpus.queries,
        expected: &expected,
    }];
    layers::engine_ladder(&units, 0.15 * s, &mut values);
    layers::lca_replay(&units, 0.05 * s, &mut values);
    layers::batch_ladder(&units, 0.10 * s, &mut values);
    layers::reader_probes(&served.index_path, &served.corpus.queries, &mut values);
    layers::histogram_probe(&mut values);

    let report = served.stop();
    values.set("serve.shed_429", report.shed as f64);
    values.set("serve.timeouts_503", report.timeouts as f64);
    let (attempted, failed) = layers::tail_metrics(&[&reference, &traced], &mut values);
    Outcome::new(values, attempted, failed)
}
