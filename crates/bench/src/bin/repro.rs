//! `repro` — regenerates every evaluation artifact of the paper:
//!
//! * **Figure 5(a)–(d)**: per-query elapsed time of ValidRTF vs revised
//!   MaxMatch (measured after keyword-node retrieval, as in §5.3) plus
//!   the RTF count per query;
//! * **Figure 6(a)–(d)**: per-query CFR, APR′ and Max APR;
//! * the **§5.1 keyword frequency table** of the generated corpora;
//! * the **ablations** whose two sides are both code in this repository,
//!   on the `xmark standard` corpus under the same timing protocol.
//!
//! ```sh
//! cargo run --release -p xks-bench --bin repro                 # everything, default scale
//! cargo run --release -p xks-bench --bin repro -- --scale small
//! cargo run --release -p xks-bench --bin repro -- --only dblp  # one panel: dblp|standard|data1|data2|ablations
//! cargo run --release -p xks-bench --bin repro -- --freq       # frequency table only
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use validrtf::engine::{AlgorithmKind, SearchEngine};
use validrtf::{get_rtf, get_rtf_unchecked, SearchRequest};
use xks_bench::{dataset_name, dblp_engine, xmark_engine, Scale};
use xks_datagen::freq::{PAPER_DBLP_FREQS, PAPER_XMARK_FREQS};
use xks_datagen::queries::{dblp_workload, xmark_workload};
use xks_datagen::XmarkSize;
use xks_index::Query;
use xks_lca::{elca_stack, naive::naive_elca};

/// Repetitions per query; the paper runs 6 and discards the first.
const RUNS: usize = 6;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Default;
    let mut only: Option<String> = None;
    let mut freq_only = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().expect("--scale needs a value");
                scale = Scale::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?}; use small|default|large");
                    std::process::exit(2);
                });
            }
            "--only" => only = it.next().cloned(),
            "--freq" => freq_only = true,
            "--help" | "-h" => {
                eprintln!("usage: repro [--scale small|default|large] [--only dblp|standard|data1|data2|ablations] [--freq]");
                return;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let want = |name: &str| only.as_deref().is_none_or(|o| o == name);

    if want("dblp") {
        eprintln!("[repro] building dblp-alike at {scale:?}…");
        let engine = dblp_engine(scale);
        frequency_table_dblp(&engine);
        if !freq_only {
            run_dataset("dblp", &engine, &dblp_workload());
        }
    }
    for (name, size) in [
        ("standard", XmarkSize::Standard),
        ("data1", XmarkSize::Data1),
        ("data2", XmarkSize::Data2),
    ] {
        // The ablations run on the `standard` corpus, built once.
        let ablate = size == XmarkSize::Standard && !freq_only && want("ablations");
        if !want(name) && !ablate {
            continue;
        }
        eprintln!(
            "[repro] building {}-alike at {scale:?}…",
            dataset_name(size)
        );
        let engine = xmark_engine(scale, size);
        if want(name) {
            frequency_table_xmark(&engine, size);
            if !freq_only {
                run_dataset(dataset_name(size), &engine, &xmark_workload());
            }
        }
        if ablate {
            run_ablations(&engine);
        }
    }
}

/// §5.1 keyword table: paper frequency vs planted (scaled) frequency.
fn frequency_table_dblp(engine: &SearchEngine) {
    println!(
        "\n## Keyword frequencies — dblp ({} nodes)",
        engine.parsed_tree().map_or(0, |tree| tree.len())
    );
    println!("{:<16} {:>10} {:>10}", "keyword", "paper", "generated");
    for (kw, paper) in PAPER_DBLP_FREQS {
        println!(
            "{:<16} {:>10} {:>10}",
            kw,
            paper,
            engine.index().frequency(kw)
        );
    }
}

fn frequency_table_xmark(engine: &SearchEngine, size: XmarkSize) {
    println!(
        "\n## Keyword frequencies — {} ({} nodes)",
        dataset_name(size),
        engine.parsed_tree().map_or(0, |tree| tree.len())
    );
    println!("{:<16} {:>10} {:>10}", "keyword", "paper", "generated");
    for (kw, freqs) in PAPER_XMARK_FREQS {
        println!(
            "{:<16} {:>10} {:>10}",
            kw,
            freqs[size.column()],
            engine.index().frequency(kw)
        );
    }
}

/// One Figure 5 + Figure 6 panel.
fn run_dataset(name: &str, engine: &SearchEngine, workload: &[(&str, String)]) {
    println!("\n## Figure 5/6 panel — {name}");
    println!(
        "{:<10} {:>6} {:>14} {:>14} {:>6} {:>7} {:>7}",
        "query", "RTFs", "MaxMatch", "ValidRTF", "CFR", "APR'", "MaxAPR"
    );
    for (abbrev, keywords) in workload {
        let query = Query::parse(keywords).expect("workload query parses");
        let [vt, xt] = [AlgorithmKind::ValidRtf, AlgorithmKind::MaxMatchRtf].map(|kind| {
            let request = SearchRequest::from_query(query.clone()).algorithm(kind);
            protocol(|| {
                let response = engine.execute(&request).expect("workload query runs");
                response.timings.algorithm_time()
            })
        });
        let cmp = engine.compare(&query).expect("comparison runs");
        println!(
            "{:<10} {:>6} {:>14} {:>14} {:>6.2} {:>7.3} {:>7.3}",
            abbrev,
            cmp.rtf_count,
            format!("{:.3?}", xt),
            format!("{:.3?}", vt),
            cmp.effectiveness.cfr,
            cmp.effectiveness.apr_prime,
            cmp.effectiveness.max_apr,
        );
    }
}

/// The ablations whose two sides are both code in this repository,
/// one row each, wall clock per side.
fn run_ablations(engine: &SearchEngine) {
    // A moderate query for the brute-force oracle, a heavy one for the rest.
    const LIGHT: &str = "particle threshold";
    const HEAVY: &str = "preventions description order";
    let resolve = |keywords: &str| {
        let query = Query::parse(keywords).expect("ablation query parses");
        engine.index().resolve(&query).expect("keywords present")
    };
    let row = |sides: &str, query: &str, times: &[Duration]| {
        let times: Vec<String> = times.iter().map(|t| format!("{t:.3?}")).collect();
        println!("{:<36} {:<30} {}", sides, query, times.join(" / "));
    };
    println!("\n## Ablations — {}", dataset_name(XmarkSize::Standard));
    println!("{:<36} {:<30} time per side", "sides", "query");

    let light = resolve(LIGHT);
    let stack = protocol(|| wall(|| elca_stack(light.sets())));
    let naive = protocol(|| wall(|| naive_elca(light.sets())));
    row("elca_stack / naive_elca", LIGHT, &[stack, naive]);

    // The Definition-2 dispatch check the paper's pseudo-code omits.
    let heavy = resolve(HEAVY);
    let anchors = elca_stack(heavy.sets());
    let checked = protocol(|| wall(|| get_rtf(&anchors, &heavy)));
    let unchecked = protocol(|| wall(|| get_rtf_unchecked(&anchors, &heavy)));
    row("get_rtf / get_rtf_unchecked", HEAVY, &[checked, unchecked]);

    let request = SearchRequest::parse(HEAVY).expect("ablation query parses");
    let kinds = [
        AlgorithmKind::ValidRtf,
        AlgorithmKind::MaxMatchRtf,
        AlgorithmKind::MaxMatchSlca,
    ]
    .map(|kind| {
        let request = request.clone().algorithm(kind);
        protocol(|| wall(|| engine.execute(&request)))
    });
    row("ValidRTF / MaxMatch / MaxMatch-SLCA", HEAVY, &kinds);
}

/// Wall-clock time of one call.
fn wall<T>(call: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    black_box(call());
    start.elapsed()
}

/// The paper's protocol: the average of `RUNS` runs, discarding the
/// first. Figure 5 feeds it the engine's algorithm time, which excludes
/// keyword-node retrieval.
fn protocol(mut run: impl FnMut() -> Duration) -> Duration {
    (0..RUNS).map(|_| run()).skip(1).sum::<Duration>() / (RUNS as u32 - 1)
}
