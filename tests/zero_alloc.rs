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
//! 4. per-thread [`QueryContext`]s keep that contract — the planned
//!    (galloped) anchor pass and its anchored merge included — and so
//!    do the `.xks` element lookups the fragment constructor drives: a
//!    label, and a keyword node whose feature the memo holds, each after
//!    a whole finger search over the resident element table; the first
//!    lookup of a keyword node allocates its feature's two strings and
//!    nothing else;
//! 5. with a warm context the `getRTF` sweep, the fragment skeleton and
//!    the pruning decision (a rule 2(b) tie included) perform zero heap
//!    allocations and emitting a
//!    fragment performs exactly one — however many raw nodes the
//!    decision discarded — and the request path built on them reaches
//!    a steady state, a request with phrase, label and exclusion
//!    operators included (its rejected fragments are never emitted);
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
    planned_elca_into_context, slca_into_context, ElcaScratch, QueryContext,
};
use xks::persist::codec::{put_postings, ByteReader};
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
    ByteReader::new(&encoded)
        .postings_into(&mut arena)
        .expect("clean decode");
    assert_eq!(arena.len(), postings.len());

    let n = count_allocs(|| {
        ByteReader::new(&encoded)
            .postings_into(&mut arena)
            .expect("clean decode");
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

    // A galloped query takes the planned path: the gallop scratch, then
    // the anchored extraction's k-way merge into `merged`.
    let driver = (0..sets.len())
        .min_by_key(|&i| sets.set(i).len())
        .expect("two keywords");
    planned_elca_into_context(sets.sets(), driver, &mut ctx_a); // warm
    let n = count_allocs(|| planned_elca_into_context(sets.sets(), driver, &mut ctx_a));
    assert_eq!(n, 0, "warm planned ELCA context allocated {n} times");
    assert_eq!(ctx_a.anchors.len(), warm_anchors, "planned ELCA unchanged");
    assert!(!ctx_a.merged.is_empty(), "the extraction merged postings");

    // Decoding a postings run into a caller's warm arena (what
    // `IndexReader::keyword_postings_into` does) is allocation-free too.
    let mut local = DeweyListBuf::new();
    ByteReader::new(&encoded)
        .postings_into(&mut local)
        .expect("warm-up decode");
    let n = count_allocs(|| {
        ByteReader::new(&encoded)
            .postings_into(&mut local)
            .expect("clean decode");
    });
    assert_eq!(n, 0, "warm local decode arena allocated {n} times");

    // The element lookups fragment construction makes against an `.xks`
    // index answer from the element table read at open: offset entries,
    // row bytes and the in-place Dewey compare need no heap. The far
    // node is looked up right after the root, and the root right after
    // the far node, so the finger is a whole table away and each search
    // runs its gallop and its bisection.
    use xks::core::CorpusSource as _;
    use xks::persist::{IndexReader, IndexWriter};
    let dir = std::env::temp_dir().join("xks-zero-alloc");
    std::fs::create_dir_all(&dir).unwrap();
    let index_path = dir.join("elements.xks");
    IndexWriter::new().write_tree(&tree, &index_path).unwrap();
    let root = Dewey::root();
    let far = sets.set(0).last().expect("keyword has postings").clone();
    assert!(far.is_inline());

    let reader = IndexReader::open(&index_path).unwrap();
    // First touch: the feature decodes straight into two `Arc<str>`.
    let (n, node) = count_allocs_of(|| reader.try_keyword_node(&far).unwrap());
    let (label, feature) = node.clone().expect("far node present");
    assert!(feature.is_some(), "a keyword node has own content");
    assert!(n <= 2, "first keyword-node lookup allocated {n} times");
    assert_eq!(reader.stats().element_cache_misses, 1);

    let lookups = |reader: &IndexReader| {
        assert!(reader.try_element_label(&root).unwrap().is_some());
        assert_eq!(reader.try_keyword_node(&far).unwrap(), node);
        assert!(reader.try_element_label(&root).unwrap().is_some());
        assert_eq!(reader.try_element_label(&far).unwrap(), Some(label));
    };
    let before = reader.stats();
    let n = count_allocs(|| lookups(&reader));
    let after = reader.stats();
    assert_eq!(n, 0, "resident element search allocated {n} times");
    assert_eq!(after.element_cache_hits - before.element_cache_hits, 1);
    assert_eq!(after.element_cache_misses, before.element_cache_misses);
    assert_eq!(
        after.pool.pages_read, 0,
        "no element page goes through the pool"
    );
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
    staged_ctx.skeleton.feature_probes = 0;
    let (sweep, decided, emitted, fragments, raw, kept) = staged(&mut staged_ctx);
    assert!(fragments > 1 && kept < raw, "the workload must prune");
    assert!(
        staged_ctx.skeleton.feature_probes > 0,
        "the workload must reach a rule 2(b) tie, so the feature table is warm, not untouched"
    );
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

    // Operator checks keep the steady state: their phrase masks,
    // exclusion lists and label verdicts live in the context, so a
    // warm phrase + label + exclusion request allocates the same count
    // every time.
    let operators =
        SearchRequest::parse("\"data algorithm\" title:algorithm -journal").expect("parses");
    let run_operators = |ctx: &mut QueryContext| {
        engine
            .execute_with(&operators, ctx)
            .expect("memory backend cannot fail")
            .stats
    };
    let stats = run_operators(&mut ctx);
    assert!(
        stats.total_before_top_k > 0 && stats.filtered_out > 0,
        "the request must keep some fragments and reject others ({stats:?})"
    );
    let ops1 = count_allocs(|| drop(run_operators(&mut ctx)));
    let ops2 = count_allocs(|| drop(run_operators(&mut ctx)));
    assert_eq!(
        ops1, ops2,
        "warm operator request must be in steady state: no per-query scratch growth"
    );
    // Against the plain request over the same keywords: no rejected
    // fragment is emitted, the excluded word's postings are one list,
    // and the one label the keyword nodes carry (`title`) is named and
    // lowercased once per query.
    let expected = warm1 - stats.filtered_out as u64 + 1 + 2;
    assert_eq!(
        ops1, expected,
        "operator request allocated {ops1} times (plain {warm1}, {} rejected)",
        stats.filtered_out
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
