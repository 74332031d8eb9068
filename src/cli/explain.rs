//! `xks explain`: show the query plan — rarest-first term order,
//! per-term selectivity, chosen intersection strategy, shard skips —
//! without executing the query.

use xks::core::wire::{self, obj};
use xks::core::{PlanStrategy, SearchRequest};
use xks::store::json::Value;

use super::backend::open_engine;
use super::{print_json, Args, Format};

pub fn run(args: &Args) -> Result<(), String> {
    let algo = args.algo()?;
    let format = args.format()?;

    let (engine, _, rest) = open_engine(args)?;
    let [query_text] = args.expect_positionals(rest)?;

    let request = SearchRequest::parse(query_text)
        .map_err(|e| format!("{e} (in query {query_text:?})"))?
        .algorithm(algo);
    let report = engine.explain(&request).map_err(|e| e.to_string())?;

    match format {
        Format::Json => {
            let terms: Vec<Value> = report
                .terms
                .iter()
                .map(|t| {
                    Value::Obj(obj([
                        ("keyword", Value::Str(t.keyword.clone())),
                        ("postings", Value::Num(t.postings)),
                        ("doc_freq", t.doc_freq.map_or(Value::Null, Value::Num)),
                        ("sealed", Value::Bool(t.sealed)),
                        ("shards_skipped", Value::Num(u64::from(t.shards_skipped))),
                    ]))
                })
                .collect();
            let algorithm = wire::algorithm_name(algo);
            print_json(&Value::Obj(obj([
                ("query", Value::Str(request.spec().to_string())),
                ("algorithm", Value::Str(algorithm.to_owned())),
                ("strategy", Value::Str(report.strategy.as_str().to_owned())),
                ("shards", Value::Num(u64::from(report.shards))),
                ("terms", Value::Arr(terms)),
            ])));
        }
        Format::Text => {
            let sharded = report.shards > 0;
            println!(
                "plan for {:?} — strategy {}, {} term(s){}",
                request.spec().to_string(),
                report.strategy.as_str(),
                report.terms.len(),
                if sharded {
                    format!(", {} shard(s)", report.shards)
                } else {
                    String::new()
                }
            );
            if let (PlanStrategy::Gallop, Some(driver)) = (report.strategy, report.terms.first()) {
                let driver = &driver.keyword;
                println!("driver: {driver:?} (rarest term anchors the gallop)");
            }
            for (i, t) in report.terms.iter().enumerate() {
                let df = t.doc_freq.map_or_else(|| "?".to_owned(), |d| d.to_string());
                let sealed = if t.sealed { "sealed" } else { "unsealed" };
                let skips = if sharded {
                    format!("  skips {}/{} shard(s)", t.shards_skipped, report.shards)
                } else {
                    String::new()
                };
                println!(
                    "  {}. {:<20} postings={:<8} docs={df:<8} {sealed}{skips}",
                    i + 1,
                    t.keyword,
                    t.postings
                );
            }
            if report.strategy == PlanStrategy::FullMerge {
                println!(
                    "note: full k-way merge (gallop needs ≥2 terms, sealed stats, and a \
                     {}× rarest-to-total skew)",
                    xks::core::plan::GALLOP_MIN_RATIO
                );
            }
        }
    }
    Ok(())
}
