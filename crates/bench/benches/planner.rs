//! Cost-based planner sweep: aggregate queries/sec on a Zipf-skewed
//! adversarial workload and a uniform control workload, with the
//! planner live (sealed `.xks` v2 stats → rarest-first galloping
//! intersection) versus forced legacy merge (the same reader behind a
//! wrapper that hides `keyword_stats`, so the planner falls back to
//! the full k-way merge — exactly the MutableSource-delta fallback
//! path).
//!
//! The skewed corpus plants a `freq::zipf_counts` vocabulary whose
//! head ranks *saturate*: every block contains every stop word, the
//! way the head of a Zipf vocabulary appears in essentially every
//! document of a real corpus. The tail is nearly absent. The
//! `queries::adversarial_queries` workload pairs every stop word with
//! every rare word — the regime where galloping the rare list through
//! the stop list beats merging both — plus the all-stop query and the
//! single-rare queries that pin the other side of the cost model.
//!
//! Each workload is split by the strategy the planner actually picks
//! (`SearchStats::plan_strategy`): the **gallop subset** (stop × rare
//! pairs) carries the headline speedup; the **merge subset**
//! (all-stop, single-rare — no skew to exploit) must be within noise,
//! as must the whole uniform corpus (exponent 0: equal lists never
//! clear the gallop threshold).
//!
//! Every configuration is sanity-checked to return identical fragment
//! totals before anything is timed (the byte-level differential lives
//! in the engine's unit tests). Results land in `BENCH_planner.json`
//! at the workspace root.
//!
//! ```sh
//! cargo bench -p xks-bench --bench planner            # full run
//! cargo bench -p xks-bench --bench planner -- --test  # smoke (1 pass)
//! ```
//!
//! Smoke mode writes to `target/BENCH_planner.json` instead, so a test
//! run never dirties the committed numbers.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use validrtf::engine::{AlgorithmKind, SearchEngine};
use validrtf::source::{CorpusSource, SourceElement, SourceError};
use validrtf::{PlanStrategy, SearchRequest};
use xks_datagen::freq::zipf_counts;
use xks_datagen::queries::adversarial_queries;
use xks_persist::{IndexReader, IndexWriter};
use xks_store::shred;
use xks_xmltree::Dewey;

const SEED: u64 = 2009;

/// Hides the reader's sealed statistics from the planner: with
/// `keyword_stats` back at the trait default (`None`), every query
/// takes the legacy full-merge path — the same fallback a mutable
/// overlay forces. Everything else delegates, so the comparison times
/// the intersection strategy and nothing else.
#[derive(Debug)]
struct NoStats(IndexReader);

impl CorpusSource for NoStats {
    fn label_name(&self, label: u32) -> Option<String> {
        self.0.label_name(label)
    }
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        CorpusSource::try_keyword_deweys(&self.0, keyword)
    }
    fn try_element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        CorpusSource::try_element(&self.0, dewey)
    }
    fn try_element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        CorpusSource::try_element_label(&self.0, dewey)
    }
}

struct Workload {
    name: &'static str,
    tree: xks_xmltree::XmlTree,
    queries: Vec<String>,
}

/// Builds a `<lib><b><t>…</t></b>…</lib>` corpus over a
/// `zipf_counts(vocab, total, exponent)` vocabulary. The first
/// `stop_ranks` keywords saturate — they appear in *every* block, as
/// the head of a skewed vocabulary does in real corpora — and every
/// other rank `r` lands in `counts[r]` blocks (exact sampling for the
/// tail, Bernoulli for mid ranks where exactness is irrelevant).
/// Saturation is what makes the workload adversarial end to end: any
/// query containing a stop word anchors inside blocks, so the
/// measured difference is the intersection strategy, not a one-off
/// giant root fragment both strategies would pay for identically.
fn skewed_corpus(
    prefix: &str,
    blocks: usize,
    vocab: usize,
    total: u64,
    exponent: f64,
    stop_ranks: usize,
) -> (xks_xmltree::XmlTree, Vec<String>, Vec<String>) {
    let counts = zipf_counts(vocab, total, exponent);
    let keywords: Vec<String> = (0..vocab).map(|r| format!("{prefix}kw{r}")).collect();
    let stop: Vec<String> = keywords[..stop_ranks].to_vec();
    let rare: Vec<String> = keywords[vocab - 6..].to_vec();

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut block_words: Vec<Vec<&str>> = (0..blocks)
        .map(|_| stop.iter().map(String::as_str).collect())
        .collect();
    for (r, kw) in keywords.iter().enumerate().skip(stop_ranks) {
        let count = (counts[r] as usize).min(blocks);
        if count * 4 >= blocks {
            // Mid ranks: Bernoulli membership, expectation `count`.
            for words in &mut block_words {
                if rng.gen_range(0..blocks) < count {
                    words.push(kw);
                }
            }
        } else {
            // Tail ranks: exactly `count` distinct blocks, so the
            // rare query lists are never empty.
            let mut placed = 0usize;
            while placed < count {
                let b = rng.gen_range(0..blocks);
                if block_words[b].last() != Some(&kw.as_str()) {
                    block_words[b].push(kw);
                    placed += 1;
                }
            }
        }
    }

    let mut xml = String::with_capacity(blocks * 64);
    xml.push_str("<lib>");
    for words in &block_words {
        let _ = write!(xml, "<b><t>{} filler</t></b>", words.join(" "));
    }
    xml.push_str("</lib>");
    (xks_xmltree::parse(&xml).unwrap(), stop, rare)
}

fn workloads() -> Vec<Workload> {
    // Adversarial: exponent 2.0 concentrates the mass in a saturated
    // 3-word head — every stop list has one posting per block, every
    // tail list a handful, a ratio far beyond GALLOP_MIN_RATIO.
    let (skewed_tree, stop, rare) = skewed_corpus("s", 20_000, 60, 80_000, 2.0, 3);
    // Control: exponent 0 gives equal lists — no pair clears the
    // gallop threshold, so the planner must stay on merge throughout.
    let (uniform_tree, u_stop, u_rare) = skewed_corpus("u", 5_000, 16, 24_000, 0.0, 2);
    vec![
        Workload {
            name: "skewed",
            tree: skewed_tree,
            queries: adversarial_queries(&stop, &rare),
        },
        Workload {
            name: "uniform",
            tree: uniform_tree,
            queries: adversarial_queries(&u_stop, &u_rare[..4]),
        },
    ]
}

fn sweep(engine: &SearchEngine, requests: &[SearchRequest]) -> usize {
    let mut fragments = 0usize;
    for request in requests {
        fragments += engine
            .execute(request)
            .expect("bench request succeeds")
            .hits
            .len();
    }
    fragments
}

/// Timing protocol shared with the shards sweep: one untimed warm-up
/// sweep, then repeated sweeps until the budget is spent.
fn measure(label: &str, per_sweep: usize, smoke: bool, one_sweep: impl Fn() -> usize) -> f64 {
    std::hint::black_box(one_sweep());
    let budget = if smoke {
        Duration::ZERO
    } else {
        Duration::from_secs(2)
    };
    let start = Instant::now();
    let mut sweeps = 0usize;
    loop {
        std::hint::black_box(one_sweep());
        sweeps += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let elapsed = start.elapsed();
    let qps = (per_sweep * sweeps) as f64 / elapsed.as_secs_f64();
    println!(
        "bench planner/{label}: {qps:.0} queries/sec  \
         ({sweeps} sweeps x {per_sweep} queries in {elapsed:?})"
    );
    qps
}

fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_owned()
    }
}

fn output_path(smoke: bool) -> PathBuf {
    if let Ok(path) = std::env::var("XKS_BENCH_OUT") {
        return PathBuf::from(path);
    }
    let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("bench crate lives two levels under the workspace root")
        .to_path_buf();
    if smoke {
        workspace.join("target").join("BENCH_planner.json")
    } else {
        workspace.join("BENCH_planner.json")
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let dir = std::env::temp_dir().join("xks-planner-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut rows = String::new();
    let workloads = workloads();
    let mut first_row = true;
    for w in &workloads {
        let doc = shred(&w.tree);
        let path = dir.join(format!("{}.xks", w.name));
        IndexWriter::new().write(&doc, &path).unwrap();
        let planned = SearchEngine::from_owned_source(IndexReader::open(&path).unwrap());
        let merge = SearchEngine::from_owned_source(NoStats(IndexReader::open(&path).unwrap()));
        let requests: Vec<SearchRequest> = w
            .queries
            .iter()
            .map(|q| {
                SearchRequest::parse(q)
                    .unwrap()
                    .algorithm(AlgorithmKind::ValidRtf)
            })
            .collect();

        // Sanity before timing: both strategies agree on every query.
        let expect = sweep(&merge, &requests);
        assert_eq!(expect, sweep(&planned, &requests), "{} differs", w.name);

        // Split by the strategy the planner actually picked, and pin
        // the expectation: the skewed pairs gallop, everything else
        // (all-stop, single-rare, the whole uniform corpus) merges.
        let (gallop, fallback): (Vec<SearchRequest>, Vec<SearchRequest>) = requests
            .into_iter()
            .partition(|r| planned.execute(r).unwrap().stats.plan_strategy == PlanStrategy::Gallop);
        if w.name == "skewed" {
            assert!(!gallop.is_empty(), "skewed pairs must gallop");
        } else {
            assert!(gallop.is_empty(), "uniform workload must stay on merge");
        }

        for (subset, reqs) in [("gallop", &gallop), ("merge-fallback", &fallback)] {
            if reqs.is_empty() {
                continue;
            }
            let planned_qps = measure(
                &format!("{}/{subset}/planned", w.name),
                reqs.len(),
                smoke,
                || sweep(&planned, reqs),
            );
            let merge_qps = measure(
                &format!("{}/{subset}/merge", w.name),
                reqs.len(),
                smoke,
                || sweep(&merge, reqs),
            );
            let sep = if first_row { "" } else { ",\n" };
            first_row = false;
            let _ = write!(
                rows,
                "{sep}    {{\"corpus\": \"{}\", \"subset\": \"{subset}\", \"queries\": {}, \
                 \"planned_qps\": {}, \"merge_qps\": {}, \"speedup\": {}}}",
                w.name,
                reqs.len(),
                jnum(planned_qps),
                jnum(merge_qps),
                jnum(planned_qps / merge_qps),
            );
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"planner\",\n  \"mode\": \"{}\",\n  \
         \"available_parallelism\": {parallelism},\n  \"workloads\": [\n{rows}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
    );
    let path = output_path(smoke);
    std::fs::write(&path, &json).unwrap();
    println!("wrote {}", path.display());
}
