//! `xks bench` (a whole query file through the concurrent executor
//! against one shared engine, reporting aggregate throughput) and
//! `xks compare` (one Figure 5/6 data point).

use xks::core::algorithms::StageTimings;
use xks::core::engine::SearchEngine;
use xks::core::executor::run_batch_stats;
use xks::core::wire::{self, obj};
use xks::index::Query;
use xks::store::json::Value;

use super::backend::{load_tree, open_engine, replay};
use super::search::format_us;
use super::stats::histogram_json;
use super::{print_json, Args, Format};

pub fn run(args: &Args) -> Result<(), String> {
    let algo = args.algo()?;
    let format = args.format()?;
    let batch @ (_, threads) = args.batch()?;
    let sweeps = args.num("sweeps")?.unwrap_or(3).max(1);
    let queries_file = args.require("queries")?;

    let (engine, _, rest) = open_engine(args)?;
    let [] = args.expect_positionals(rest)?;

    // Untimed warm-up sweep, then timed sweeps. Any backend failure
    // aborts the bench with the typed error. Timed sweeps also feed
    // each query's engine-side timings into a latency histogram and a
    // per-stage aggregate, so throughput comes with a breakdown.
    let requests = replay(&engine, queries_file, algo, batch)?;
    let start = std::time::Instant::now();
    let mut fragments = 0usize;
    let mut last_stats = None;
    let mut stages = StageTimings::default();
    let latency = xks::obs::Histogram::new();
    for _ in 0..sweeps {
        let (results, stats) = run_batch_stats(&engine, &requests, threads);
        for result in results {
            let response = result.map_err(|e| e.to_string())?;
            fragments += response.hits.len();
            let t = &response.timings;
            stages.get_keyword_nodes += t.get_keyword_nodes;
            stages.get_lca += t.get_lca;
            stages.get_rtf += t.get_rtf;
            stages.prune_rtf += t.prune_rtf;
            stages.post_process += t.post_process;
            latency.record_duration(t.total());
        }
        last_stats = Some(stats);
    }
    let elapsed = start.elapsed();
    let lat = latency.snapshot();
    let total = requests.len() * sweeps;
    let qps = total as f64 / elapsed.as_secs_f64();
    // Report the worker count the executor actually ran (it clamps the
    // request to the batch size), not the requested --threads.
    let last_stats = last_stats.expect("sweeps >= 1, so a sweep ran");
    let ran = last_stats.threads;
    match format {
        Format::Json => {
            let algorithm = wire::algorithm_name(algo);
            let work_split = last_stats.per_thread.iter();
            print_json(&Value::Obj(obj([
                ("bench", Value::Str("batch".to_owned())),
                ("algorithm", Value::Str(algorithm.to_owned())),
                ("queries", Value::Num(requests.len() as u64)),
                ("sweeps", Value::Num(sweeps as u64)),
                ("threads", Value::Num(ran as u64)),
                ("total_queries", Value::Num(total as u64)),
                ("elapsed_us", Value::Num(elapsed.as_micros() as u64)),
                ("queries_per_sec", Value::Float(qps)),
                ("fragments", Value::Num(fragments as u64)),
                ("stages_us", wire::stage_timings_json(&stages)),
                ("latency_ns", histogram_json(&lat)),
                (
                    "last_sweep_work_split",
                    Value::Arr(work_split.map(|&n| Value::Num(n as u64)).collect()),
                ),
            ])));
        }
        Format::Text => {
            println!(
                "{total} queries ({} x {sweeps} sweeps), {ran} thread(s): \
                 {qps:.0} queries/sec ({elapsed:?} total, {fragments} fragments)",
                requests.len()
            );
            println!("last sweep work split: {:?}", last_stats.per_thread);
            println!(
                "stage totals: get_keyword_nodes {:?} | get_lca {:?} | get_rtf {:?} | \
                 prune_rtf {:?} | post_process {:?}",
                stages.get_keyword_nodes,
                stages.get_lca,
                stages.get_rtf,
                stages.prune_rtf,
                stages.post_process
            );
            println!(
                "per-query latency: p50 {}  p90 {}  p99 {}  max {}  ({} samples)",
                format_us(lat.p50()),
                format_us(lat.p90()),
                format_us(lat.p99()),
                format_us(lat.max),
                lat.count
            );
        }
    }
    Ok(())
}

pub fn compare(args: &Args) -> Result<(), String> {
    let format = args.format()?;
    let [file, keywords] = args.expect_positionals(&args.positionals)?;
    let engine = SearchEngine::new(load_tree(file)?);
    let query = Query::parse(keywords).map_err(|e| format!("bad query: {e}"))?;
    let cmp = engine.compare(&query).map_err(|e| e.to_string())?;
    let micros = |d: std::time::Duration| Value::Num(d.as_micros() as u64);
    match format {
        Format::Json => print_json(&Value::Obj(obj([
            ("query", Value::Str(query.to_string())),
            ("rtf_count", Value::Num(cmp.rtf_count as u64)),
            ("valid_rtf_us", micros(cmp.valid_rtf_time)),
            ("max_match_us", micros(cmp.max_match_time)),
            ("cfr", Value::Float(cmp.effectiveness.cfr)),
            ("apr", Value::Float(cmp.effectiveness.apr)),
            ("apr_prime", Value::Float(cmp.effectiveness.apr_prime)),
            ("max_apr", Value::Float(cmp.effectiveness.max_apr)),
        ]))),
        Format::Text => {
            println!("RTFs      : {}", cmp.rtf_count);
            println!("ValidRTF  : {:?}", cmp.valid_rtf_time);
            println!("MaxMatch  : {:?}", cmp.max_match_time);
            println!("CFR       : {:.3}", cmp.effectiveness.cfr);
            println!("APR       : {:.3}", cmp.effectiveness.apr);
            println!("APR'      : {:.3}", cmp.effectiveness.apr_prime);
            println!("Max APR   : {:.3}", cmp.effectiveness.max_apr);
        }
    }
    Ok(())
}
