//! The server proper: acceptor, bounded admission, worker pool,
//! deadlines, keep-alive, and graceful drain.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use validrtf::engine::SearchEngine;
use xks_obs::MetricSource;

use crate::api::Handlers;
use crate::http::{self, Limits, ReadOutcome};
use crate::metrics::{preregister_server_metrics, ServerMetrics};
use crate::queue::Bounded;
use crate::signals;

/// Everything tunable about a [`Server`]; `Default` is the CLI's
/// defaults (docs/SERVER.md documents each knob's wire behavior).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads — the number of requests in service at once.
    pub workers: usize,
    /// Connections allowed to *wait* beyond the in-service ones;
    /// further connections are shed with `429`.
    pub queue_depth: usize,
    /// Per-request wall-clock budget, measured from connection
    /// admission (queue time counts). `None` = unbounded.
    pub request_timeout: Option<Duration>,
    /// How long drain waits for in-flight work before `run` gives up
    /// and reports an unclean drain.
    pub drain_timeout: Duration,
    /// Keep-alive idle limit and framing size caps.
    pub limits: Limits,
    /// When set, SIGINT/SIGTERM (via [`signals::install`]) trigger the
    /// same graceful drain as [`ShutdownHandle::shutdown`].
    pub watch_signals: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 16)),
            queue_depth: 64,
            request_timeout: Some(Duration::from_secs(10)),
            drain_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            watch_signals: false,
        }
    }
}

/// What one `run` served, for the final log line.
#[derive(Debug, Clone, Copy)]
pub struct ServerReport {
    /// Responses written (every status).
    pub served: u64,
    /// Connections shed with `429` at admission.
    pub shed: u64,
    /// Requests cut by their deadline (`503`).
    pub timeouts: u64,
    /// False when the drain deadline passed with workers still busy.
    pub drained_cleanly: bool,
}

/// Triggers a graceful drain from another thread (or a test).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Stop accepting, serve everything admitted, return from `run`.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// One admitted connection, stamped so the first request's deadline
/// budget includes its time in the queue.
struct Admitted {
    stream: TcpStream,
    at: Instant,
}

/// A bound, not-yet-running server. [`Server::bind`] claims the socket
/// (so `local_addr` is real immediately); [`Server::run`] blocks
/// serving until shutdown.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    handlers: Handlers,
    shutdown: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
}

impl Server {
    /// Binds `config.addr` and prepares the worker state. The engine
    /// moves behind an `Arc` — its warm `QueryContext` pool is shared
    /// by all workers.
    pub fn bind(engine: SearchEngine, config: ServerConfig) -> std::io::Result<Server> {
        preregister_server_metrics();
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            config,
            handlers: Handlers {
                engine: Arc::new(engine),
                collectors: Vec::new(),
                metrics: ServerMetrics::new(),
            },
            shutdown: Arc::new(AtomicBool::new(false)),
            served: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Adds a `/stats` collector: `source`'s metrics appear in the
    /// snapshot under `prefix` (pass e.g. `"index."` — trailing dot
    /// included), exactly like `xks stats --index`.
    #[must_use]
    pub fn with_collector(
        mut self,
        prefix: impl Into<String>,
        source: Arc<dyn MetricSource + Send + Sync>,
    ) -> Server {
        self.handlers.collectors.push((prefix.into(), source));
        self
    }

    /// The address actually bound (resolves port `0`).
    ///
    /// # Panics
    /// Never in practice: the listener is already bound.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// A handle that triggers graceful shutdown from anywhere.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Serves until shutdown (handle or watched signal), then drains:
    /// admission stops, every admitted connection finishes its
    /// in-flight request (responses carry `Connection: close`), and
    /// the report is returned. Total drain time is bounded by
    /// `drain_timeout`.
    pub fn run(self) -> std::io::Result<ServerReport> {
        let Server {
            listener,
            config,
            handlers,
            shutdown,
            served,
        } = self;
        if config.watch_signals {
            signals::install();
        }
        let metrics = ServerMetrics::new();
        let queue = Arc::new(Bounded::<Admitted>::new(
            config.queue_depth.max(1),
            metrics.queue_depth.clone(),
        ));
        let draining = Arc::new(AtomicBool::new(false));
        let handlers = Arc::new(handlers);

        let workers: Vec<_> = (0..config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let draining = Arc::clone(&draining);
                let handlers = Arc::clone(&handlers);
                let config = config.clone();
                let served = Arc::clone(&served);
                std::thread::Builder::new()
                    .name(format!("xks-serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(conn) = queue.pop() {
                            serve_connection(conn, &handlers, &config, &draining, &served);
                        }
                    })
                    .expect("worker thread spawns")
            })
            .collect();

        // The acceptor loop — this thread. Nonblocking accept + short
        // sleep keeps shutdown latency in the tens of milliseconds
        // without a wakeup pipe.
        let shed = metrics.shed_429.clone();
        loop {
            if shutdown.load(Ordering::SeqCst) || (config.watch_signals && signals::signaled()) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    let admitted = Admitted {
                        stream,
                        at: Instant::now(),
                    };
                    if let Err(rejected) = queue.try_push(admitted) {
                        shed.inc();
                        metrics.count_status(429);
                        shed_connection(rejected.stream, &served);
                    } else {
                        metrics.connections.inc();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: stop admitting, let workers finish what was admitted.
        draining.store(true, Ordering::SeqCst);
        queue.close();
        drop(listener);
        let deadline = Instant::now() + config.drain_timeout;
        let mut drained_cleanly = true;
        for worker in workers {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if !join_with_deadline(worker, remaining) {
                drained_cleanly = false;
            }
        }
        Ok(ServerReport {
            served: served.load(Ordering::SeqCst),
            shed: shed.get(),
            timeouts: handlers.metrics.timeouts_503.get(),
            drained_cleanly,
        })
    }
}

/// Joins `worker` but gives up after `deadline` (threads cannot be
/// killed; an unclean drain is reported, and the process exit reaps
/// the stragglers). Returns true when the worker finished in time.
fn join_with_deadline(worker: std::thread::JoinHandle<()>, deadline: Duration) -> bool {
    let end = Instant::now() + deadline;
    while !worker.is_finished() {
        if Instant::now() >= end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    worker.join().is_ok()
}

/// The `429` written by the acceptor to a connection the queue
/// refused. A short write timeout keeps a slow-reading client from
/// stalling admission.
fn shed_connection(mut stream: TcpStream, served: &AtomicU64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let body = b"{\"error\":\"overloaded\",\"detail\":\"admission queue is full\"}";
    let _ = http::write_response(
        &mut stream,
        429,
        "Too Many Requests",
        body,
        &[("Retry-After", "1".to_owned())],
        true,
    );
    served.fetch_add(1, Ordering::SeqCst);
}

/// One worker serving one admitted connection to completion:
/// keep-alive loop, per-request deadlines, typed framing errors, and
/// drain awareness between requests.
fn serve_connection(
    conn: Admitted,
    handlers: &Handlers,
    config: &ServerConfig,
    draining: &AtomicBool,
    served: &AtomicU64,
) {
    let Admitted { mut stream, at } = conn;
    let _ = stream.set_read_timeout(Some(http::POLL_TICK));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut carry = Vec::new();
    let mut first_request = true;
    loop {
        let is_draining = || draining.load(Ordering::SeqCst);
        match http::read_request(&mut stream, &mut carry, &config.limits, &is_draining) {
            Ok(ReadOutcome::Closed) => break,
            Ok(ReadOutcome::Request(request)) => {
                let handled_at = Instant::now();
                handlers.metrics.requests.inc();
                // The first request's budget starts at admission so
                // queue time counts; later keep-alive requests start
                // at their own arrival.
                let budget_start = if first_request { at } else { handled_at };
                first_request = false;
                let deadline = config.request_timeout.map(|t| budget_start + t);
                let reply = handlers.handle(&request, deadline, is_draining());
                let close = is_draining() || request.wants_close();
                handlers.metrics.count_status(reply.status);
                handlers
                    .metrics
                    .request_ns
                    .record_duration(handled_at.elapsed());
                let wrote = http::write_response(
                    &mut stream,
                    reply.status,
                    reply.reason,
                    reply.body.as_bytes(),
                    &reply.extra,
                    close,
                );
                served.fetch_add(1, Ordering::SeqCst);
                if wrote.is_err() || close {
                    break;
                }
            }
            Err(e) => {
                // Typed framing failure: answer when the wire allows,
                // then close. Never a panic, never a stuck worker.
                if let Some((status, reason)) = e.status() {
                    handlers.metrics.requests.inc();
                    handlers.metrics.count_status(status);
                    let body = format!(
                        "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
                        e.tag(),
                        e.to_string().replace('"', "'")
                    );
                    let _ = http::write_response(
                        &mut stream,
                        status,
                        reason,
                        body.as_bytes(),
                        &[],
                        true,
                    );
                    served.fetch_add(1, Ordering::SeqCst);
                }
                break;
            }
        }
    }
    handlers.metrics.connections.add_signed(-1);
}
