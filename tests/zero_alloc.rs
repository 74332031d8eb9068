//! Counting-allocator proof of the zero-allocation hot path.
//!
//! A global allocator wrapper counts every `alloc`/`realloc` while a
//! measurement window is open. The assertions pin the PR's contract:
//!
//! 1. every Dewey operation on codes within `Dewey::INLINE_CAP`
//!    components is heap-free (clone, child/parent, LCA, ancestor
//!    iteration, in-place push/truncate);
//! 2. a **warm** anchor pipeline — posting merge, ELCA stack, SLCA
//!    eager lookup over real resolved keyword-node sets, with reused
//!    scratch buffers — performs zero heap allocations;
//! 3. a **warm** `.xks` postings decode into a reused [`DeweyListBuf`]
//!    arena performs zero heap allocations;
//! 4. per-thread [`QueryContext`]s keep that contract, and so does the
//!    `.xks` element lookup the fragment constructor drives — a cache
//!    hit, and with the cache off the whole finger search over resident
//!    pages;
//! 5. with a warm context the `getRTF` sweep, the fragment skeleton and
//!    the pruning decision perform zero heap allocations and emitting a
//!    fragment performs exactly one — however many raw nodes the
//!    decision discarded — and the request path built on them reaches
//!    a steady state;
//! 6. stage tracing adds nothing to that;
//! 7. rendering a response allocates a small constant number of times
//!    (at most 48), whether it carries 1 hit or 7 454.
//!
//! The whole proof lives in ONE `#[test]` so no concurrently running
//! test can disturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use xks::datagen::{generate_dblp, DblpConfig};
use xks::index::{InvertedIndex, Query};
use xks::lca::{
    elca_from_merged, elca_into_context, indexed_lookup_eager_into, merge_postings_into,
    slca_into_context, ElcaScratch, QueryContext,
};
use xks::persist::codec::{get_postings_into, put_postings};
use xks::xmltree::{Dewey, DeweyListBuf};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Counts heap allocations performed by `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    count_allocs_of(f).0
}

/// Counts heap allocations performed by `f` and hands its result on.
fn count_allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNTING.store(true, Ordering::SeqCst);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(false, Ordering::SeqCst);
    (after - before, out)
}

#[test]
fn warm_query_hot_path_is_allocation_free() {
    // ---- 1. Inline Dewey operations ------------------------------------
    let a: Dewey = "0.2.0.1".parse().unwrap();
    let b: Dewey = "0.2.0.3.0".parse().unwrap();
    assert!(a.is_inline() && b.is_inline());
    let n = count_allocs(|| {
        let mut cursor = a.clone();
        cursor.push_component(7);
        cursor.truncate(2);
        cursor.pop_component();
        let child = a.child(3);
        let parent = b.parent();
        let lca = a.lca(&b);
        let upper = b.subtree_upper_bound();
        let ancestors = b.ancestors().count();
        let ord = a < b && a.is_ancestor_of(&b) == b.is_descendant_of(&a);
        std::hint::black_box((cursor, child, parent, lca, upper, ancestors, ord));
    });
    assert_eq!(n, 0, "inline Dewey ops allocated {n} times");

    // ---- 2. Warm anchor pipeline over a real corpus --------------------
    let tree = generate_dblp(&DblpConfig::with_records(500, 7));
    let index = InvertedIndex::build(&tree);
    let query = Query::parse("data algorithm").unwrap();
    let sets = index.resolve(&query).expect("both keywords present");
    assert!(
        sets.sets()
            .iter()
            .flatten()
            .all(|d| d.len() <= Dewey::INLINE_CAP),
        "corpus codes must fit inline for the zero-allocation contract"
    );

    let mut merged = Vec::new();
    let mut elca_scratch = ElcaScratch::default();
    let mut anchors = Vec::new();
    let mut slcas = Vec::new();
    // Warm pass grows every buffer to steady-state capacity.
    merge_postings_into(sets.sets(), &mut merged);
    elca_from_merged(&merged, sets.len(), &mut elca_scratch, &mut anchors);
    indexed_lookup_eager_into(sets.sets(), &mut slcas);
    let warm_anchors = anchors.len();
    assert!(warm_anchors > 0, "workload query must produce anchors");

    let n = count_allocs(|| {
        merge_postings_into(sets.sets(), &mut merged);
        elca_from_merged(&merged, sets.len(), &mut elca_scratch, &mut anchors);
        indexed_lookup_eager_into(sets.sets(), &mut slcas);
    });
    assert_eq!(n, 0, "warm anchor pipeline allocated {n} times");
    assert_eq!(anchors.len(), warm_anchors, "results unchanged when warm");

    // ---- 3. Warm postings decode into the flat arena -------------------
    let postings: Vec<Dewey> = sets.set(0).to_vec();
    let mut encoded = Vec::new();
    put_postings(&mut encoded, &postings);
    let mut arena = DeweyListBuf::new();
    let mut pos = 0;
    get_postings_into(&encoded, &mut pos, &mut arena).expect("clean decode");
    assert_eq!(arena.len(), postings.len());

    let n = count_allocs(|| {
        let mut pos = 0;
        get_postings_into(&encoded, &mut pos, &mut arena).expect("clean decode");
    });
    assert_eq!(n, 0, "warm arena decode allocated {n} times");

    // ---- 4. Per-thread QueryContexts stay allocation-free when warm ----
    // The concurrency refactor moved the scratch buffers into
    // per-thread `QueryContext`s. The zero-allocation contract must
    // hold *per context*: two contexts (as two executor threads would
    // own), each warmed once, then both run the full anchor pipeline —
    // ELCA on one, SLCA on the other, then swapped — without a single
    // heap allocation.
    let mut ctx_a = QueryContext::new();
    let mut ctx_b = QueryContext::new();
    elca_into_context(sets.sets(), &mut ctx_a); // warm A
    slca_into_context(sets.sets(), &mut ctx_b); // warm B
    elca_into_context(sets.sets(), &mut ctx_b); // B also needs ELCA capacity
    slca_into_context(sets.sets(), &mut ctx_a); // A also needs SLCA capacity
    let n = count_allocs(|| {
        elca_into_context(sets.sets(), &mut ctx_a);
        slca_into_context(sets.sets(), &mut ctx_b);
        elca_into_context(sets.sets(), &mut ctx_b);
        slca_into_context(sets.sets(), &mut ctx_a);
    });
    assert_eq!(n, 0, "warm per-thread contexts allocated {n} times");
    assert_eq!(ctx_b.anchors.len(), warm_anchors, "ELCA results unchanged");

    // Decoding a postings run into a caller's warm arena (what
    // `IndexReader::keyword_postings_into` does) is allocation-free too.
    let mut local = DeweyListBuf::new();
    let mut pos = 0;
    get_postings_into(&encoded, &mut pos, &mut local).expect("warm-up decode");
    let n = count_allocs(|| {
        let mut pos = 0;
        get_postings_into(&encoded, &mut pos, &mut local).expect("clean decode");
    });
    assert_eq!(n, 0, "warm local decode arena allocated {n} times");

    // The element lookups fragment construction makes against an `.xks`
    // index: a label served by the decoded-element cache, and — cache
    // off — the full search for it: offset reads, row windows and the
    // in-place Dewey compare all live on the stack. The far node is
    // looked up right after the root, so the finger is a whole table
    // away and the search runs its gallop and its bisection.
    use xks::core::CorpusSource as _;
    use xks::persist::{IndexReader, IndexWriter, ReaderOptions};
    let dir = std::env::temp_dir().join("xks-zero-alloc");
    std::fs::create_dir_all(&dir).unwrap();
    let index_path = dir.join("elements.xks");
    IndexWriter::new().write_tree(&tree, &index_path).unwrap();
    let root = Dewey::root();
    let far = sets.set(0).last().expect("keyword has postings").clone();
    assert!(far.is_inline());

    let cached = IndexReader::open(&index_path).unwrap();
    let label = cached.try_element_label(&far).unwrap(); // miss: fills the cache
    let n = count_allocs(|| {
        assert_eq!(cached.try_element_label(&far).unwrap(), label);
    });
    assert_eq!(n, 0, "element-cache hit allocated {n} times");
    assert_eq!(cached.stats().element_cache_hits, 1);

    let uncached = IndexReader::open_with(
        &index_path,
        ReaderOptions {
            element_cache_nodes: 0,
            ..ReaderOptions::default()
        },
    )
    .unwrap();
    let lookups = |reader: &IndexReader| {
        assert!(reader.try_element_label(&root).unwrap().is_some());
        assert_eq!(reader.try_element_label(&far).unwrap(), label);
    };
    // Two rounds bring every page the searches touch into the pool:
    // the first root lookup starts on its row, the later ones gallop
    // back from the far end.
    lookups(&uncached);
    lookups(&uncached);
    let before = uncached.stats();
    let n = count_allocs(|| lookups(&uncached));
    let after = uncached.stats();
    assert_eq!(n, 0, "uncached element search allocated {n} times");
    assert_eq!(after.pool.pages_read, before.pool.pages_read);
    assert!(
        after.element_probes - before.element_probes > 4,
        "the search must have had to gallop and bisect"
    );
    std::fs::remove_file(&index_path).unwrap();

    // ---- 5. getRTF and pruneRTF: decide before you build ---------------
    // The sweep writes the partitions into the context, the raw
    // fragment is laid out and decided over in the context's skeleton,
    // and only `emit` touches the heap: one exactly-sized node vector
    // per fragment, whatever the decision threw away (content features
    // are shared with the corpus, so copying them allocates nothing).
    use xks::core::fragment::{emit, lay_out};
    use xks::core::prune::{decide, Policy};
    use xks::core::{dispatch, MemoryCorpus, SearchEngine, SearchRequest};
    let corpus = MemoryCorpus::new(xks::store::shred(&tree));
    // (sweep, layout + decision, emit) allocations, then fragments, raw
    // and surviving node counts of one pass over every RTF.
    let staged = |ctx: &mut QueryContext| {
        elca_into_context(sets.sets(), ctx);
        let QueryContext {
            anchors,
            merged,
            rtf,
            skeleton,
            ..
        } = ctx;
        let (sweep, parts) = count_allocs_of(|| dispatch(anchors, merged, sets.len(), true, rtf));
        let (mut decided, mut emitted, mut raw, mut kept) = (0, 0, 0, 0);
        for i in 0..parts.len() {
            decided += count_allocs(|| {
                lay_out(&corpus, parts.anchor(i), parts.knodes(i), skeleton).expect("in memory");
                decide(skeleton, Policy::ValidContributor);
            });
            raw += skeleton.nodes.len();
            let (n, fragment) = count_allocs_of(|| emit(skeleton, parts.anchor(i)));
            emitted += n;
            kept += fragment.len();
        }
        (sweep, decided, emitted, parts.len() as u64, raw, kept)
    };
    let mut staged_ctx = QueryContext::new();
    staged(&mut staged_ctx); // grow the buffers
    let (sweep, decided, emitted, fragments, raw, kept) = staged(&mut staged_ctx);
    assert!(fragments > 1 && kept < raw, "the workload must prune");
    assert_eq!(sweep, 0, "warm getRTF sweep allocated {sweep} times");
    assert_eq!(
        decided, 0,
        "warm skeleton + decision allocated {decided} times"
    );
    assert_eq!(
        emitted, fragments,
        "emit allocates once per fragment ({raw} raw nodes, {kept} kept)"
    );

    // `SearchEngine::execute_with` drives the exact stages asserted
    // above through the same `QueryContext`.
    // A warm context must reach a steady state: the second and third
    // warm executions allocate exactly the same amount (only the
    // unavoidable per-query output — postings clones, fragments, hits —
    // and no scratch re-growth), and strictly less than the cold run
    // that grew the buffers.
    let engine = SearchEngine::from_owned_source(corpus);
    let request = SearchRequest::parse("data algorithm").expect("parses");
    let mut ctx = QueryContext::new();
    let run = |ctx: &mut QueryContext| {
        std::hint::black_box(
            engine
                .execute_with(&request, ctx)
                .expect("memory backend cannot fail")
                .hits
                .len(),
        );
    };
    let cold = count_allocs(|| run(&mut ctx));
    let warm1 = count_allocs(|| run(&mut ctx));
    let warm2 = count_allocs(|| run(&mut ctx));
    assert!(
        warm1 < cold,
        "warm execute_with must reuse the context scratch (cold {cold}, warm {warm1})"
    );
    assert_eq!(
        warm1, warm2,
        "warm execute_with must be in steady state: no per-query scratch growth"
    );

    // ---- 6. Stage tracing adds zero allocations to the warm path ------
    // A traced request records spans into the context's preallocated
    // `QueryTrace` (inline `[Span; TRACE_SPAN_CAP]`, no heap) and the
    // response carries a by-value copy. The warm traced path must be in
    // the same steady state as the untraced one — allocation counts
    // identical, spans present, nothing dropped.
    let traced_request = SearchRequest::parse("data algorithm")
        .expect("parses")
        .trace(true);
    let run_traced = |ctx: &mut QueryContext| {
        let response = engine
            .execute_with(&traced_request, ctx)
            .expect("memory backend cannot fail");
        let trace = response
            .trace
            .as_ref()
            .expect("traced response has a trace");
        assert!(
            trace.spans().len() >= 5,
            "trace covers the pipeline stages (got {:?})",
            trace.spans()
        );
        assert_eq!(trace.dropped(), 0, "span buffer must not overflow");
        std::hint::black_box(response.hits.len());
    };
    run_traced(&mut ctx); // reach traced steady state
    let traced_warm1 = count_allocs(|| run_traced(&mut ctx));
    let traced_warm2 = count_allocs(|| run_traced(&mut ctx));
    assert_eq!(
        traced_warm1, traced_warm2,
        "traced warm execute_with must be in steady state"
    );
    assert_eq!(
        traced_warm1, warm1,
        "tracing must not allocate on the warm path (untraced {warm1}, traced {traced_warm1})"
    );

    // ---- 7. The render streams: nothing is built per hit or node -------
    // `write_response` writes hits and nodes straight into the caller's
    // buffer. What allocates is per response — the `stats` and
    // `timings_us` builders, the query text, one lookup per distinct
    // label, `response_json`'s one reservation — so a 1-hit and a
    // 7 454-hit answer over the same corpus stay under the same bound.
    use xks::core::wire;
    use xks::datagen::scenario::ScenarioSpec;
    const RENDER_ALLOCS: u64 = 48;
    let cell = ScenarioSpec::parse("s100-flat-zipf-single")
        .expect("known cell")
        .generate();
    let engine = SearchEngine::from_owned_source(MemoryCorpus::new(xks::store::shred(&cell.tree)));
    let mut body = String::new();
    for (text, hits) in [("w37 w38 w39", 1..=1), ("w0", 5_000..=usize::MAX)] {
        let request = SearchRequest::parse(text).expect("parses");
        let response = engine
            .execute(&request)
            .expect("memory backend cannot fail");
        assert!(
            hits.contains(&response.hits.len()),
            "{text:?} answers {} hits",
            response.hits.len()
        );
        let render = |body: &mut String| {
            body.clear();
            wire::write_response(&engine, &request, &response, usize::MAX, body);
        };
        render(&mut body); // grow the buffer
        let warm = count_allocs(|| render(&mut body));
        let fresh = count_allocs(|| {
            std::hint::black_box(wire::response_json(
                &engine,
                &request,
                &response,
                usize::MAX,
            ));
        });
        assert!(
            warm <= RENDER_ALLOCS && fresh <= RENDER_ALLOCS,
            "rendering {} hits ({} bytes) allocated {warm} times into a warm buffer, \
             {fresh} times through response_json (bound {RENDER_ALLOCS})",
            response.hits.len(),
            body.len()
        );
    }
}
