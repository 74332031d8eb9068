//! Route dispatch and the endpoint handlers — pure functions from a
//! parsed [`Request`] to a [`Reply`], so they unit-test without
//! sockets. The `/search` body schema and every error shape are
//! specified in docs/SERVER.md.

use std::sync::Arc;
use std::time::Instant;

use validrtf::engine::SearchEngine;
use validrtf::wire;
use validrtf::{RankWeights, SearchError, SearchRequest};
use xks_obs::{MetricSource, Snapshot};
use xks_store::json::{self, Value};

use crate::http::Request;
use crate::metrics::ServerMetrics;

/// A computed response, one write away from the wire.
pub(crate) struct Reply {
    pub status: u16,
    pub reason: &'static str,
    pub body: String,
    /// Extra headers (`Retry-After` on backpressure statuses).
    pub extra: Vec<(&'static str, String)>,
}

impl Reply {
    fn json(status: u16, reason: &'static str, value: &Value) -> Self {
        Reply {
            status,
            reason,
            body: json::to_string(value),
            extra: Vec::new(),
        }
    }

    fn error(status: u16, reason: &'static str, tag: &str, detail: String) -> Self {
        Reply::json(
            status,
            reason,
            &Value::Obj(wire::obj([
                ("error", Value::Str(tag.to_owned())),
                ("detail", Value::Str(detail)),
            ])),
        )
    }
}

/// Everything the handlers need besides the request itself.
pub(crate) struct Handlers {
    pub engine: Arc<SearchEngine>,
    pub collectors: Vec<(String, Arc<dyn MetricSource + Send + Sync>)>,
    pub metrics: ServerMetrics,
}

impl Handlers {
    /// Dispatches one request. `deadline` is the absolute per-request
    /// deadline (admission time + budget), already computed by the
    /// worker; `draining` flips `/healthz` to `503` so load balancers
    /// stop routing here during shutdown.
    pub fn handle(&self, request: &Request, deadline: Option<Instant>, draining: bool) -> Reply {
        match (request.method.as_str(), path_of(&request.target)) {
            ("GET", "/healthz") => self.healthz(draining),
            ("POST", "/search") => self.search(request, deadline),
            ("GET", "/stats") => self.stats(),
            (_, "/healthz" | "/search" | "/stats") => {
                let allow = if path_of(&request.target) == "/search" {
                    "POST"
                } else {
                    "GET"
                };
                let mut reply = Reply::error(
                    405,
                    "Method Not Allowed",
                    "method_not_allowed",
                    format!(
                        "{} does not accept {}",
                        path_of(&request.target),
                        request.method
                    ),
                );
                reply.extra.push(("Allow", allow.to_owned()));
                reply
            }
            _ => Reply::error(
                404,
                "Not Found",
                "not_found",
                format!("no route for {}", request.target),
            ),
        }
    }

    fn healthz(&self, draining: bool) -> Reply {
        if draining {
            Reply::json(
                503,
                "Service Unavailable",
                &Value::Obj(wire::obj([("status", Value::Str("draining".to_owned()))])),
            )
        } else {
            Reply::json(
                200,
                "OK",
                &Value::Obj(wire::obj([("status", Value::Str("ok".to_owned()))])),
            )
        }
    }

    /// `GET /stats`: the same `xks-obs/1` snapshot bytes `xks stats
    /// --index` prints — the global registry merged with the backend's
    /// cache counters under each collector's prefix.
    fn stats(&self) -> Reply {
        let mut snap: Snapshot = xks_obs::global().snapshot();
        for (prefix, source) in &self.collectors {
            source.collect_into(prefix, &mut snap);
        }
        Reply {
            status: 200,
            reason: "OK",
            body: snap.to_json(),
            extra: Vec::new(),
        }
    }

    /// `POST /search`: the JSON body maps onto a [`SearchRequest`],
    /// and the response body is byte-identical (modulo `timings_us`)
    /// to one element of `xks search --format json`'s `results` array
    /// — both render through [`validrtf::wire::write_response`], here
    /// straight into the reply body.
    fn search(&self, request: &Request, deadline: Option<Instant>) -> Reply {
        let body = match std::str::from_utf8(&request.body) {
            Ok(text) => text,
            Err(_) => {
                return Reply::error(
                    400,
                    "Bad Request",
                    "bad_body",
                    "body is not UTF-8".to_owned(),
                )
            }
        };
        let parsed = match json::parse(body) {
            Ok(value) => value,
            Err(e) => {
                return Reply::error(400, "Bad Request", "bad_json", e.to_string());
            }
        };
        let search = match build_request(&parsed) {
            Ok(s) => s,
            Err(detail) => return Reply::error(400, "Bad Request", "bad_request", detail),
        };
        let mut engine_request = search.request;
        if let Some(deadline) = deadline {
            engine_request = engine_request.deadline_at(deadline);
        }
        match self.engine.execute(&engine_request) {
            Ok(response) => {
                let mut body = String::new();
                wire::write_response(
                    &self.engine,
                    &engine_request,
                    &response,
                    search.limit,
                    &mut body,
                );
                Reply {
                    status: 200,
                    reason: "OK",
                    body,
                    extra: Vec::new(),
                }
            }
            Err(SearchError::Timeout(timeout)) => {
                self.metrics.timeouts_503.inc();
                let mut reply =
                    Reply::json(503, "Service Unavailable", &wire::timeout_json(&timeout));
                reply.extra.push(("Retry-After", "1".to_owned()));
                reply
            }
            Err(e @ SearchError::Parse(_)) => {
                Reply::error(400, "Bad Request", "bad_query", e.to_string())
            }
            Err(e) => Reply::error(500, "Internal Server Error", "backend", e.to_string()),
        }
    }
}

/// The target's path component (everything before `?`).
fn path_of(target: &str) -> &str {
    target.split('?').next().unwrap_or(target)
}

#[derive(Debug)]
struct BuiltRequest {
    request: SearchRequest,
    limit: usize,
}

/// Maps the documented `/search` body onto a [`SearchRequest`].
/// Unknown fields are typed errors, not silent drops — a misspelled
/// `top_k` must not quietly run unbounded.
fn build_request(body: &Value) -> Result<BuiltRequest, String> {
    let obj = body.as_obj().ok_or("body must be a JSON object")?;
    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "query" | "algorithm" | "top_k" | "limit" | "rank" | "trace"
        ) {
            return Err(format!("unknown field {key:?}"));
        }
    }
    let query = obj
        .get("query")
        .ok_or("missing required field \"query\"")?
        .as_str()
        .ok_or("\"query\" must be a string")?;
    let algorithm = match obj.get("algorithm") {
        None => validrtf::engine::AlgorithmKind::ValidRtf,
        Some(v) => {
            let name = v.as_str().ok_or("\"algorithm\" must be a string")?;
            wire::parse_algorithm(name)
                .ok_or_else(|| format!("unknown algorithm {name:?} (valid|maxmatch|slca)"))?
        }
    };
    let mut request = SearchRequest::parse(query)
        .map_err(|e| format!("{e}"))?
        .algorithm(algorithm);
    if let Some(v) = obj.get("top_k") {
        let k = v
            .as_u64()
            .ok_or("\"top_k\" must be a non-negative integer")?;
        request = request.top_k(usize::try_from(k).map_err(|_| "\"top_k\" too large")?);
    }
    let limit = match obj.get("limit") {
        None => usize::MAX,
        Some(v) => {
            let n = v
                .as_u64()
                .ok_or("\"limit\" must be a non-negative integer")?;
            usize::try_from(n).map_err(|_| "\"limit\" too large")?
        }
    };
    match obj.get("rank") {
        None => {}
        Some(Value::Bool(true)) => request = request.weights(RankWeights::default()),
        Some(Value::Bool(false)) => {}
        Some(_) => return Err("\"rank\" must be a boolean".to_owned()),
    }
    match obj.get("trace") {
        None => {}
        Some(Value::Bool(flag)) => request = request.trace(*flag),
        Some(_) => return Err("\"trace\" must be a boolean".to_owned()),
    }
    Ok(BuiltRequest { request, limit })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<BuiltRequest, String> {
        build_request(&json::parse(text).unwrap())
    }

    #[test]
    fn accepts_the_documented_fields() {
        let built = parse(
            "{\"query\":\"liu keyword\",\"algorithm\":\"maxmatch\",\
             \"top_k\":3,\"limit\":2,\"rank\":true,\"trace\":false}",
        )
        .unwrap();
        assert_eq!(built.limit, 2);
        assert_eq!(
            built.request.kind(),
            validrtf::engine::AlgorithmKind::MaxMatchRtf
        );
    }

    #[test]
    fn rejects_unknown_and_mistyped_fields() {
        assert!(parse("{\"query\":\"x\",\"topk\":3}")
            .unwrap_err()
            .contains("unknown field"));
        assert!(parse("{\"top_k\":3}").unwrap_err().contains("query"));
        assert!(parse("{\"query\":3}").unwrap_err().contains("string"));
        assert!(parse("{\"query\":\"x\",\"algorithm\":\"bm25\"}")
            .unwrap_err()
            .contains("unknown algorithm"));
        assert!(parse("{\"query\":\"x\",\"rank\":1}")
            .unwrap_err()
            .contains("boolean"));
    }
}
