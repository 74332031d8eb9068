//! The work ledger: what each query costs, counted rather than timed.
//!
//! `tests/golden/work_ledger.txt` holds one line of integers per
//! (corpus, query, source, algorithm, shape). The queries are the 43
//! Figure 5/6 queries on the DBLP and XMark corpora `conformance.rs`
//! builds, and the 22 `s10-flat-zipf-single` queries (every class of
//! the grammar). The sources are `MemoryCorpus` and a mono `.xks`
//! reader; the shapes are the plain request and a ranked `top_k 5`,
//! which visits the RTFs best score bound first. Everything runs on one
//! thread in a fixed order, so every count is exact and the same on
//! every machine and build profile.
//!
//! Each line records, from a first run on the source's context:
//!
//! * `postings`, `gallop`: the planner's `plan_postings`, and 1 when it
//!   chose the gallop;
//! * `merged`, `anchors`: the context's merged-stream and anchor
//!   lengths after the query;
//! * `before_topk`, `filtered`, `skipped`, `hits`, `nodes`: the
//!   response's `total_before_top_k`, `filtered_out` and
//!   `rtfs_skipped_topk`, its hits, and the nodes of their fragments;
//! * `dominance`, `probes`: the skeleton's `dominance_tests` and
//!   `feature_probes` deltas;
//! * `kw`, `label`, `post`: keyword-node, label and postings lookups,
//!   counted by [`Counted`], which forwards every other method
//!   (`keyword_stats` included, so the plan is the production one);
//! * on `.xks` only, `elem_probes`, `elem_misses`, `post_misses`: the
//!   reader's `element_probes`, `element_cache_misses` and
//!   `postings_cache_misses` deltas;
//!
//! then, from a second run of the same request on the now warm context,
//! `allocs` and `alloc_bytes` (a counting global allocator, so the whole
//! ledger is one `#[test]`, as in `zero_alloc.rs`), and `response`: the
//! bytes `wire::write_response` renders, with the wall-clock
//! `timings_us` block cut. Gallop probes have no counter yet and are
//! not in the ledger.
//!
//! A change that moves a line says why. Re-bless deliberately with
//! `XKS_BLESS_GOLDEN=1 cargo test -q --test work_ledger`.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use common::{algorithm_name, ALGORITHMS};
use xks::core::plan::{KeywordStats, PlanStrategy};
use xks::core::{wire, CorpusSource, MemoryCorpus, QueryContext, SearchEngine, SearchRequest};
use xks::core::{SourceElement, SourceError};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::scenario::ScenarioSpec;
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::persist::{IndexReader, IndexStats, IndexWriter};
use xks::store::shred;
use xks::xmltree::{Dewey, XmlTree};

const GOLDEN_LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/work_ledger.txt");

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its result with the allocations and bytes it
/// asked for.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    COUNTING.store(true, Ordering::SeqCst);
    let (allocs, bytes) = (
        ALLOCATIONS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    );
    let out = f();
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs;
    let bytes = BYTES.load(Ordering::SeqCst) - bytes;
    COUNTING.store(false, Ordering::SeqCst);
    (out, allocs, bytes)
}

/// A source that counts the lookups the engine makes of it and
/// forwards everything to `inner`.
#[derive(Debug)]
struct Counted {
    inner: Arc<dyn CorpusSource>,
    keyword_nodes: AtomicU64,
    labels: AtomicU64,
    postings: AtomicU64,
}

impl Counted {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// `(keyword nodes, labels, postings)` since the last call.
    fn take(&self) -> (u64, u64, u64) {
        let take = |c: &AtomicU64| c.swap(0, Ordering::Relaxed);
        (
            take(&self.keyword_nodes),
            take(&self.labels),
            take(&self.postings),
        )
    }
}

impl CorpusSource for Counted {
    fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        Self::bump(&self.postings);
        self.inner.try_keyword_deweys(keyword)
    }
    fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        self.inner.try_element(dewey)
    }
    fn label_name(&self, label: u32) -> Option<String> {
        self.inner.label_name(label)
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        Self::bump(&self.labels);
        self.inner.try_element_label(dewey)
    }
    fn try_keyword_node(
        &self,
        dewey: &Dewey,
    ) -> Result<Option<(u32, xks::core::fragment::Cid)>, SourceError> {
        Self::bump(&self.keyword_nodes);
        self.inner.try_keyword_node(dewey)
    }
    fn keyword_stats(&self, keyword: &str) -> Option<KeywordStats> {
        self.inner.keyword_stats(keyword)
    }
}

/// One source of the ledger: the counting engine over it, its context,
/// and the reader behind it when it is `.xks`.
struct Source {
    name: &'static str,
    counted: Arc<Counted>,
    engine: SearchEngine,
    reader: Option<Arc<IndexReader>>,
    ctx: QueryContext,
}

impl Source {
    fn new(
        name: &'static str,
        inner: Arc<dyn CorpusSource>,
        reader: Option<Arc<IndexReader>>,
    ) -> Self {
        let counted = Arc::new(Counted {
            inner,
            keyword_nodes: AtomicU64::new(0),
            labels: AtomicU64::new(0),
            postings: AtomicU64::new(0),
        });
        let engine = SearchEngine::from_source(Arc::clone(&counted) as Arc<dyn CorpusSource>);
        Source {
            name,
            counted,
            engine,
            reader,
            ctx: QueryContext::new(),
        }
    }

    fn index_stats(&self) -> Option<IndexStats> {
        self.reader.as_ref().map(|r| r.stats())
    }

    /// The ledger entry of one request on this source.
    fn entry(&mut self, request: &SearchRequest) -> String {
        self.counted.take();
        let index_before = self.index_stats();
        let (dominance, probes) = skeleton_counts(&self.ctx);
        let response = self.engine.execute_with(request, &mut self.ctx).unwrap();
        let (kw, label, post) = self.counted.take();
        let (dominance_after, probes_after) = skeleton_counts(&self.ctx);
        let stats = &response.stats;
        let nodes: usize = response.hits.iter().map(|h| h.fragment.len()).sum();
        let mut line = format!(
            "postings={} gallop={} merged={} anchors={} before_topk={} filtered={} skipped={} \
             hits={} nodes={nodes} dominance={} probes={} kw={kw} label={label} post={post}",
            stats.plan_postings,
            u8::from(stats.plan_strategy == PlanStrategy::Gallop),
            self.ctx.merged.len(),
            self.ctx.anchors.len(),
            stats.total_before_top_k,
            stats.filtered_out,
            stats.rtfs_skipped_topk,
            response.hits.len(),
            dominance_after - dominance,
            probes_after - probes,
        );
        if let (Some(before), Some(after)) = (index_before, self.index_stats()) {
            line += &format!(
                " elem_probes={} elem_misses={} post_misses={}",
                after.element_probes - before.element_probes,
                after.element_cache_misses - before.element_cache_misses,
                after.postings_cache_misses - before.postings_cache_misses,
            );
        }

        let (warm, allocs, bytes) =
            count_allocs(|| self.engine.execute_with(request, &mut self.ctx).unwrap());
        assert_eq!(
            warm.hits, response.hits,
            "{line}: the warm run answers alike"
        );
        let mut body = String::new();
        wire::write_response(&self.engine, request, &response, usize::MAX, &mut body);
        line + &format!(
            " allocs={allocs} alloc_bytes={bytes} response={}",
            without_timings(&body).len()
        )
    }
}

fn skeleton_counts(ctx: &QueryContext) -> (u64, u64) {
    (ctx.skeleton.dominance_tests, ctx.skeleton.feature_probes)
}

/// `body` without its `"timings_us":{...}` block (flat, so it ends at
/// its first `}`). An untraced body carries no `trace` block.
fn without_timings(body: &str) -> String {
    let at = body
        .find("\"timings_us\":{")
        .expect("every body has timings_us");
    let close = at + body[at..].find('}').expect("timings_us closes");
    format!("{}{}", &body[..at], &body[close + 1..])
}

/// The memory and mono `.xks` sources over one corpus.
fn sources(name: &str, tree: &XmlTree) -> [Source; 2] {
    let doc = shred(tree);
    let dir = std::env::temp_dir().join("xks-work-ledger");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.xks"));
    IndexWriter::new().write(&doc, &path).unwrap();
    let reader = Arc::new(IndexReader::open(&path).unwrap());
    [
        Source::new("memory", Arc::new(MemoryCorpus::new(doc)), None),
        Source::new(
            "xks",
            Arc::clone(&reader) as Arc<dyn CorpusSource>,
            Some(reader),
        ),
    ]
}

/// A request shape: its name in the ledger, and how it shapes the
/// parsed request.
type Shape = (&'static str, fn(SearchRequest) -> SearchRequest);

/// The two request shapes: as parsed, and ranked top 5.
const SHAPES: [Shape; 2] = [("plain", |r| r), ("top5", |r| r.top_k(5))];

/// Every line of one corpus, sources outermost so each source's
/// context and caches see one fixed sequence of requests.
fn ledger_corpus(name: &str, tree: &XmlTree, queries: &[(String, String)]) -> Vec<String> {
    let mut lines = Vec::new();
    for mut source in sources(name, tree) {
        for (abbrev, text) in queries {
            for kind in ALGORITHMS {
                for (shape, apply) in SHAPES {
                    let request = apply(SearchRequest::parse(text).unwrap().algorithm(kind));
                    let entry = source.entry(&request);
                    lines.push(format!(
                        "{name}/{abbrev} {} {} {shape}: {entry}",
                        source.name,
                        algorithm_name(kind)
                    ));
                }
            }
        }
    }
    lines
}

#[test]
fn work_ledger_matches_golden() {
    let named = |workload: Vec<(&str, String)>| -> Vec<(String, String)> {
        workload
            .into_iter()
            .map(|(abbrev, text)| (abbrev.to_owned(), text))
            .collect()
    };
    let mut lines = ledger_corpus(
        "dblp",
        &generate_dblp(&DblpConfig::with_records(1_000, 42)),
        &named(dblp_workload()),
    );
    lines.extend(ledger_corpus(
        "xmark",
        &generate_xmark(&XmarkConfig::sized(XmarkSize::Standard, 60, 42)),
        &named(xmark_workload()),
    ));
    const CELL: &str = "s10-flat-zipf-single";
    let cell = ScenarioSpec::parse(CELL).unwrap().generate();
    let cell_queries: Vec<(String, String)> = cell
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| (format!("{}{i}", q.class.name()), q.text.clone()))
        .collect();
    lines.extend(ledger_corpus(CELL, &cell.tree, &cell_queries));
    assert_eq!(
        lines.len(),
        (43 + cell_queries.len()) * 2 * ALGORITHMS.len() * SHAPES.len()
    );

    let ledger = lines.join("\n") + "\n";
    if std::env::var_os("XKS_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_LEDGER, &ledger).unwrap();
        eprintln!("blessed {GOLDEN_LEDGER}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_LEDGER)
        .expect("work ledger missing; run with XKS_BLESS_GOLDEN=1 to record it");
    for (i, (got, want)) in ledger.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "work ledger line {} moved", i + 1);
    }
    assert_eq!(
        ledger.lines().count(),
        golden.lines().count(),
        "work ledger line count moved"
    );
}
