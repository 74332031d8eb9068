//! `xks stats`: the vocabulary report of an XML file or, for a stored
//! backend, one `xks-obs/1` snapshot; plus the JSON forms other commands embed.

use xks::core::wire::obj;
use xks::obs::{HistogramSnapshot, Snapshot};
use xks::persist::preregister_durability_metrics;
use xks::store::json::Value;

use super::backend::{load_tree, open_engine, replay};
use super::Args;

pub fn run(args: &Args) -> Result<(), String> {
    if args.has("index") || args.has("corpus") {
        return live(args);
    }
    let [file] = args.expect_positionals(&args.positionals)?;
    let top = args.num("top")?.unwrap_or(20);
    let tree = load_tree(file)?;
    let index = xks::index::InvertedIndex::build(&tree);
    println!("nodes          : {}", tree.len());
    println!("distinct labels: {}", tree.labels().len());
    println!("vocabulary     : {}", index.vocabulary_size());
    let mut freqs: Vec<(&str, usize)> = index.frequencies().collect();
    freqs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("top {top} words by keyword-node count:");
    for (word, n) in freqs.into_iter().take(top) {
        println!("  {word:<24} {n}");
    }
    Ok(())
}

/// The live-metrics form. Opens the stored backend (opening a corpus
/// runs recovery, so its `recovery.*` and `wal.*` counters reflect what
/// this open did), optionally replays a `--queries` workload through
/// the engine, then prints one `xks-obs/1` snapshot — the process-wide
/// registry (search/executor/lock metrics) merged with the backend's
/// own counters under the `index.` or `corpus.` prefix.
fn live(args: &Args) -> Result<(), String> {
    let [] = args.expect_positionals(&args.positionals)?;
    // Durability counters are part of the documented snapshot even when
    // no mutable corpus is involved — explicit zeros, not absence.
    preregister_durability_metrics();
    let algo = args.algo()?;
    let batch = args.batch()?;

    let (engine, collector, _) = open_engine(args)?;
    if let Some(queries_file) = args.str("queries") {
        replay(&engine, queries_file, algo, batch)?;
    }

    let mut snap = xks::obs::global().snapshot();
    if let Some((prefix, metrics)) = collector {
        metrics.collect_into(prefix, &mut snap);
    }
    println!("{}", snap.to_json());
    Ok(())
}

/// A histogram snapshot as JSON: summary statistics plus the non-empty
/// `[lo, hi, count]` buckets (mirrors the `xks-obs/1` histogram form).
pub fn histogram_json(hist: &HistogramSnapshot) -> Value {
    let bucket = |(lo, hi, n)| Value::Arr(vec![Value::Num(lo), Value::Num(hi), Value::Num(n)]);
    Value::Obj(obj([
        ("count", Value::Num(hist.count)),
        ("sum", Value::Num(hist.sum)),
        ("max", Value::Num(hist.max)),
        ("mean", Value::Num(hist.mean())),
        ("p50", Value::Num(hist.p50())),
        ("p90", Value::Num(hist.p90())),
        ("p99", Value::Num(hist.p99())),
        (
            "buckets",
            Value::Arr(hist.nonzero_buckets().map(bucket).collect()),
        ),
    ]))
}

/// An `xks-obs` snapshot as a JSON value (for embedding inside another
/// document; `xks stats --index` prints the canonical string form).
pub fn snapshot_json(snap: &Snapshot) -> Value {
    fn section<'a, T>(
        entries: impl Iterator<Item = (&'a str, T)>,
        value: impl Fn(T) -> Value,
    ) -> Value {
        Value::Obj(
            entries
                .map(|(name, v)| (name.to_owned(), value(v)))
                .collect(),
        )
    }
    Value::Obj(obj([
        ("counters", section(snap.counters(), Value::Num)),
        ("gauges", section(snap.gauges(), Value::Num)),
        ("ratios", section(snap.ratios(), Value::Float)),
        ("histograms", section(snap.histograms(), histogram_json)),
    ]))
}
