//! `xks serve`: a resident HTTP query server over any backend
//! (docs/SERVER.md). The engine and its warm `QueryContext` pool are
//! built once and shared by every worker; `POST /search` responses are
//! byte-identical to `xks search --format json` by construction (both
//! render through `xks::core::wire`).

use xks::persist::preregister_durability_metrics;
use xks::serve::{Server, ServerConfig};

use super::backend::open_engine;
use super::Args;

pub fn run(args: &Args) -> Result<(), String> {
    let addr = match (args.str("addr"), args.num("port")?) {
        (Some(_), Some(_)) => {
            return Err("--addr and --port are mutually exclusive (addr carries the port)".into())
        }
        (Some(addr), None) => addr.to_owned(),
        (None, Some(port)) => format!("127.0.0.1:{port}"),
        (None, None) => "127.0.0.1:7878".to_owned(),
    };
    let mut config = ServerConfig {
        addr,
        watch_signals: true,
        ..ServerConfig::default()
    };
    if let Some(n) = args.num("workers")? {
        config.workers = n.max(1);
    }
    config.queue_depth = args.num("queue-depth")?.unwrap_or(config.queue_depth);
    config.request_timeout = args.millis("timeout-ms")?.or(config.request_timeout);
    config.drain_timeout = args.millis("drain-ms")?.unwrap_or(config.drain_timeout);
    let limits = &mut config.limits;
    limits.idle_timeout = args.millis("idle-ms")?.unwrap_or(limits.idle_timeout);
    limits.max_body_bytes = args.num("max-body-bytes")?.unwrap_or(limits.max_body_bytes);

    // The full metric catalog (durability + server) shows up in /stats
    // as explicit zeros even before any traffic.
    preregister_durability_metrics();
    let (engine, collector, rest) = open_engine(args)?;
    let [] = args.expect_positionals(rest)?;

    let addr = config.addr.clone();
    let mut server =
        Server::bind(engine, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    if let Some((prefix, source)) = collector {
        server = server.with_collector(prefix, source);
    }
    // The parseable startup line (tests and scripts read the bound
    // address from it — port 0 resolves to a real port here).
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!("endpoints: POST /search  GET /stats  GET /healthz  (SIGINT/SIGTERM drains)");
    let report = server.run().map_err(|e| format!("server failed: {e}"))?;
    let drain = if report.drained_cleanly {
        "clean"
    } else {
        "timed out"
    };
    eprintln!(
        "server drained: {} response(s) served, {} shed (429), {} deadline timeout(s), drain {drain}",
        report.served, report.shed, report.timeouts,
    );
    Ok(())
}
