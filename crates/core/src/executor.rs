//! Concurrent request executor: many [`SearchRequest`]s, one shared
//! engine.
//!
//! The read path splits into a shared immutable half (the
//! [`SearchEngine`] over its corpus — `Send + Sync`) and a per-thread
//! mutable half (the `QueryContext`). [`run_batch`] exploits that
//! split: worker threads share one engine by reference, each owns one
//! warm context, and they **steal work** from a single atomic cursor
//! over the request slice — no queue, no channel, no lock on the query
//! path. A thread that draws expensive requests simply claims fewer of
//! them; idle threads drain the remainder.
//!
//! Each request is answered independently through
//! [`SearchEngine::execute_with`], so one failing request (a backend
//! I/O error, say) yields one `Err` slot — the rest of the batch still
//! completes. Results come back in input order regardless of which
//! thread answered which request, so `run_batch(.., 1)` and
//! `run_batch(.., N)` are byte-identical (asserted by the tests here
//! and the workspace's concurrent differential test).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::engine::SearchEngine;
use crate::request::{SearchError, SearchRequest, SearchResponse};

/// Global-registry handles for batch accounting, resolved once per
/// process. Per-worker draw counts feed a histogram, so the registry
/// snapshot shows how evenly the work-stealing cursor spread a
/// workload (a wide distribution means a few workers drew all the
/// expensive requests).
struct ExecutorMetrics {
    batches: xks_obs::Counter,
    requests: xks_obs::Counter,
    threads: xks_obs::Gauge,
    worker_draws: xks_obs::Histogram,
}

impl ExecutorMetrics {
    fn get() -> &'static ExecutorMetrics {
        static CELL: OnceLock<ExecutorMetrics> = OnceLock::new();
        CELL.get_or_init(|| {
            let registry = xks_obs::global();
            ExecutorMetrics {
                batches: registry.counter("executor.batches"),
                requests: registry.counter("executor.requests"),
                threads: registry.gauge("executor.last_batch_threads"),
                worker_draws: registry.histogram("executor.worker_draws"),
            }
        })
    }

    fn observe(stats: &BatchStats) {
        let metrics = Self::get();
        metrics.batches.inc();
        metrics
            .requests
            .add(stats.per_thread.iter().map(|&n| n as u64).sum());
        metrics.threads.set(stats.threads as u64);
        for &drawn in &stats.per_thread {
            metrics.worker_draws.record(drawn as u64);
        }
    }
}

/// How a batch run distributed its work (returned by
/// [`run_batch_stats`]).
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Worker threads actually spawned.
    pub threads: usize,
    /// Requests answered by each worker (sums to the batch size).
    pub per_thread: Vec<usize>,
}

/// One request's outcome within a batch.
pub type BatchResult = Result<SearchResponse, SearchError>;

/// Executes every request through `engine`, fanned out over `threads`
/// worker threads, returning responses **in input order**.
///
/// `threads == 0` is treated as 1; `threads == 1` runs inline on the
/// calling thread (no spawn). The engine is borrowed, not cloned — all
/// workers share its corpus, caches, and buffer pool.
#[must_use]
pub fn run_batch(
    engine: &SearchEngine,
    requests: &[SearchRequest],
    threads: usize,
) -> Vec<BatchResult> {
    run_batch_stats(engine, requests, threads).0
}

/// Like [`run_batch`] but also reporting how many requests each worker
/// claimed — the observability hook `xks bench` and `xks stats` use.
#[must_use]
pub fn run_batch_stats(
    engine: &SearchEngine,
    requests: &[SearchRequest],
    threads: usize,
) -> (Vec<BatchResult>, BatchStats) {
    let threads = threads.max(1).min(requests.len().max(1));
    if threads == 1 {
        // Contexts come from the engine's warm pool (and go back), so
        // repeated batches don't re-grow their buffers.
        let mut ctx = engine.checkout_context();
        let results = requests
            .iter()
            .map(|r| engine.execute_with(r, &mut ctx))
            .collect();
        engine.checkin_context(ctx);
        let stats = BatchStats {
            threads: 1,
            per_thread: vec![requests.len()],
        };
        ExecutorMetrics::observe(&stats);
        return (results, stats);
    }

    // Work-stealing cursor: each worker claims the next unanswered
    // request index. Workers collect (index, result) pairs locally, so
    // the only shared write is the cursor itself.
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<Vec<(usize, BatchResult)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut ctx = engine.checkout_context();
                let mut mine = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(request) = requests.get(i) else {
                        break;
                    };
                    mine.push((i, engine.execute_with(request, &mut ctx)));
                }
                engine.checkin_context(ctx);
                mine
            }));
        }
        for handle in handles {
            collected.push(handle.join().expect("executor worker panicked"));
        }
    });

    let per_thread: Vec<usize> = collected.iter().map(Vec::len).collect();
    let mut results: Vec<Option<BatchResult>> = (0..requests.len()).map(|_| None).collect();
    for (i, result) in collected.into_iter().flatten() {
        results[i] = Some(result);
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every request index claimed exactly once"))
        .collect();
    let stats = BatchStats {
        threads,
        per_thread,
    };
    ExecutorMetrics::observe(&stats);
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AlgorithmKind;
    use crate::source::MemoryCorpus;
    use std::sync::Arc;
    use xks_store::shred;
    use xks_xmltree::fixtures::{publications, PAPER_QUERIES};

    fn requests() -> Vec<SearchRequest> {
        // Repeat the paper queries so the batch is bigger than the
        // thread count and the cursor actually strides.
        PAPER_QUERIES
            .iter()
            .cycle()
            .take(24)
            .map(|s| SearchRequest::parse(s).unwrap())
            .collect()
    }

    fn fragments(result: &BatchResult) -> Vec<crate::Fragment> {
        result
            .as_ref()
            .expect("request succeeds")
            .fragments()
            .cloned()
            .collect()
    }

    #[test]
    fn concurrent_batch_matches_sequential() {
        let engine = SearchEngine::from_owned_source(MemoryCorpus::new(shred(&publications())));
        let requests = requests();
        let sequential = run_batch(&engine, &requests, 1);
        for threads in [2, 4, 8] {
            let concurrent = run_batch(&engine, &requests, threads);
            assert_eq!(sequential.len(), concurrent.len());
            for (s, c) in sequential.iter().zip(&concurrent) {
                assert_eq!(fragments(s), fragments(c), "{threads} threads");
            }
        }
    }

    #[test]
    fn stats_account_for_every_request() {
        let engine = SearchEngine::from_owned_source(MemoryCorpus::new(shred(&publications())));
        let requests: Vec<SearchRequest> = requests()
            .into_iter()
            .map(|r| r.algorithm(AlgorithmKind::MaxMatchRtf))
            .collect();
        let (results, stats) = run_batch_stats(&engine, &requests, 3);
        assert_eq!(results.len(), requests.len());
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.per_thread.iter().sum::<usize>(), requests.len());
    }

    #[test]
    fn degenerate_batches() {
        let engine = SearchEngine::new(publications());
        assert!(run_batch(&engine, &[], 4).is_empty());
        let one = vec![SearchRequest::parse(PAPER_QUERIES[2]).unwrap()];
        // 0 threads clamps to 1; more threads than requests clamps down.
        let a = run_batch(&engine, &one, 0);
        let b = run_batch(&engine, &one, 16);
        assert_eq!(fragments(&a[0]), fragments(&b[0]));
        assert_eq!(fragments(&a[0]).len(), 1);
    }

    #[test]
    fn per_request_knobs_apply_within_one_batch() {
        // Requests carry their own algorithm and shaping; a mixed batch
        // must honor each independently.
        let engine = SearchEngine::new(publications());
        let batch = vec![
            SearchRequest::parse("liu keyword").unwrap(),
            SearchRequest::parse("liu keyword").unwrap().top_k(1),
            SearchRequest::parse("liu keyword")
                .unwrap()
                .algorithm(AlgorithmKind::MaxMatchSlca),
        ];
        let results = run_batch(&engine, &batch, 2);
        assert_eq!(fragments(&results[0]).len(), 2);
        let capped = results[1].as_ref().unwrap();
        assert_eq!(capped.hits.len(), 1);
        assert!(capped.stats.truncated);
        assert_eq!(capped.stats.total_before_top_k, 2);
        assert_eq!(fragments(&results[2]).len(), 1);
    }

    #[test]
    fn engines_over_one_shared_source_run_batches_concurrently() {
        let corpus: Arc<dyn crate::source::CorpusSource> =
            Arc::new(MemoryCorpus::new(shred(&publications())));
        let engine = SearchEngine::from_source(corpus);
        let requests = requests();
        let (results, _) = run_batch_stats(&engine, &requests, 4);
        assert_eq!(results.len(), requests.len());
        assert!(results.iter().all(Result::is_ok));
    }
}
