//! `xks build-index`, `xks index-stats` and `xks verify`: writing,
//! inspecting and checking `.xks` files and shard manifests.

use std::collections::BTreeMap;
use std::path::Path;

use xks::core::wire::obj;
use xks::obs::{MetricSource, Snapshot};
use xks::persist::{IndexReader, IndexStats, IndexWriter, ShardedCorpus};
use xks::store::json::Value;

use super::backend::{load_tree, StoredIndex};
use super::stats::snapshot_json;
use super::{print_json, Args, Format};

pub fn build(args: &Args) -> Result<(), String> {
    let [file, out] = args.expect_positionals(&args.positionals)?;
    let writer = match args.num("page-size")? {
        None => IndexWriter::new(),
        Some(size) => {
            let size = u32::try_from(size).map_err(|_| "--page-size too large".to_owned())?;
            IndexWriter::with_page_size(size).map_err(|e| e.to_string())?
        }
    };
    let tree = load_tree(file)?;
    // Any explicit --shards (including 1) writes the manifest format;
    // the partitioner clamps the count, never this dispatch — so the
    // output format follows the flag, not an arithmetic accident.
    match args.num("shards")?.map(|n| n.max(1)) {
        None => {
            let summary = writer
                .write_tree(&tree, Path::new(out))
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!(
                "indexed {} elements / {} keywords ({} postings bytes) -> {out} \
                 ({} bytes, {}-byte pages)",
                summary.element_count,
                summary.keyword_count,
                summary.postings_len,
                summary.file_len,
                summary.page_size
            );
        }
        Some(shards) => {
            let doc = xks::store::shred(&tree);
            let summary = xks::persist::write_sharded(&writer, &doc, Path::new(out), shards)
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            let manifest = &summary.manifest;
            eprintln!(
                "indexed {} elements / {} keywords into {} shard(s) -> {out} \
                 ({} bytes total)",
                manifest.total_elements,
                manifest.total_keywords,
                manifest.shards.len(),
                summary.total_file_len(),
            );
            for entry in &manifest.shards {
                eprintln!(
                    "  {}: docs {}..{} ({}), {} elements, {} keywords, {} bytes",
                    entry.file_name,
                    entry.first_doc,
                    u64::from(entry.first_doc) + entry.doc_count.saturating_sub(1),
                    entry.doc_count,
                    entry.element_count,
                    entry.keyword_count,
                    entry.file_len
                );
            }
            if manifest.shards.len() < shards {
                eprintln!(
                    "note: --shards {shards} clamped to {} (one shard per document at most)",
                    manifest.shards.len()
                );
            }
        }
    }
    Ok(())
}

/// The JSON fields shared by single-index stats and each shard's entry
/// (documented in docs/API.md).
fn index_stats_json(stats: &IndexStats) -> BTreeMap<String, Value> {
    obj([
        ("file_len", Value::Num(stats.file_len)),
        ("page_size", Value::Num(u64::from(stats.page_size))),
        ("elements", Value::Num(stats.element_count)),
        ("keywords", Value::Num(stats.keyword_count)),
        ("labels", Value::Num(stats.label_count)),
        ("postings_len", Value::Num(stats.postings_len)),
        ("postings_pages", Value::Num(stats.postings_pages)),
    ])
}

/// The backend's own counters (unprefixed) as the `"metrics"` JSON key.
fn metrics_json(source: &dyn MetricSource) -> Value {
    let mut snap = Snapshot::new();
    source.collect_into("", &mut snap);
    snapshot_json(&snap)
}

pub fn stats(args: &Args) -> Result<(), String> {
    let format = args.format()?;
    let [file] = args.expect_positionals(&args.positionals)?;
    let index = StoredIndex::open(file)?;
    index
        .verify()
        .map_err(|e| format!("index {file} fails verification: {e}"))?;
    match &index {
        StoredIndex::Sharded(corpus) => sharded_stats(corpus, format),
        StoredIndex::Single(reader) => single_stats(reader, format),
    }
    Ok(())
}

fn sharded_stats(corpus: &ShardedCorpus, format: Format) {
    let manifest = corpus.manifest();
    let shard_stats = corpus.shard_stats();
    let file_len: u64 = shard_stats.iter().map(|s| s.file_len).sum();
    match format {
        Format::Json => {
            let shards: Vec<Value> = manifest
                .shards
                .iter()
                .zip(&shard_stats)
                .map(|(entry, stats)| {
                    let mut fields = index_stats_json(stats);
                    fields.extend(obj([
                        ("file", Value::Str(entry.file_name.clone())),
                        ("first_doc", Value::Num(u64::from(entry.first_doc))),
                        ("docs", Value::Num(entry.doc_count)),
                    ]));
                    Value::Obj(fields)
                })
                .collect();
            print_json(&Value::Obj(obj([
                ("sharded", Value::Bool(true)),
                ("shard_count", Value::Num(manifest.shards.len() as u64)),
                (
                    "totals",
                    Value::Obj(obj([
                        ("file_len", Value::Num(file_len)),
                        ("elements", Value::Num(manifest.total_elements)),
                        ("keywords", Value::Num(manifest.total_keywords)),
                        ("labels", Value::Num(manifest.label_count)),
                    ])),
                ),
                ("shards", Value::Arr(shards)),
                ("checksums", Value::Str("ok".to_owned())),
                ("metrics", metrics_json(corpus)),
            ])));
        }
        Format::Text => {
            println!("shards         : {}", manifest.shards.len());
            println!("elements       : {}", manifest.total_elements);
            println!(
                "keywords       : {} (distinct, corpus-wide)",
                manifest.total_keywords
            );
            println!("labels         : {}", manifest.label_count);
            println!("file length    : {file_len} bytes across shards");
            for (entry, stats) in manifest.shards.iter().zip(&shard_stats) {
                println!(
                    "  {} : docs {}+{}, {} elements, {} keywords, {} bytes",
                    entry.file_name,
                    entry.first_doc,
                    entry.doc_count,
                    stats.element_count,
                    stats.keyword_count,
                    stats.file_len
                );
            }
            println!("checksums      : ok");
        }
    }
}

fn single_stats(reader: &IndexReader, format: Format) {
    let stats = reader.stats();
    match format {
        Format::Json => {
            let mut fields = index_stats_json(&stats);
            fields.extend(obj([
                ("sharded", Value::Bool(false)),
                ("checksums", Value::Str("ok".to_owned())),
                ("metrics", metrics_json(reader)),
            ]));
            print_json(&Value::Obj(fields));
        }
        Format::Text => {
            println!("file length    : {} bytes", stats.file_len);
            println!("page size      : {}", stats.page_size);
            println!("elements       : {}", stats.element_count);
            println!("keywords       : {}", stats.keyword_count);
            println!("labels         : {}", stats.label_count);
            println!(
                "postings       : {} bytes ({} pages)",
                stats.postings_len, stats.postings_pages
            );
            println!("checksums      : ok");
        }
    }
}

/// `xks verify`: stream the full CRC verification of a monolithic
/// `.xks` or every shard of a `.xksm` corpus. Exits non-zero (via the
/// `Err` path) on the first corrupt section, naming it.
pub fn verify(args: &Args) -> Result<(), String> {
    let path = match (args.str("index"), args.positionals.as_slice()) {
        (Some(path), []) => path,
        (None, [path]) => path,
        _ => return Err(args.usage_error("needs exactly one index file")),
    };
    let failed = |e: String| format!("{path}: verification FAILED: {e}");
    let index = StoredIndex::open(path).map_err(failed)?;
    index.verify().map_err(|e| failed(e.to_string()))?;
    match index {
        StoredIndex::Sharded(corpus) => {
            let manifest = corpus.manifest();
            println!(
                "{path}: ok ({} shard(s), {} elements, {} keywords, every checksum verified)",
                manifest.shards.len(),
                manifest.total_elements,
                manifest.total_keywords
            );
        }
        StoredIndex::Single(reader) => {
            let stats = reader.stats();
            println!(
                "{path}: ok ({} elements, {} keywords, every checksum verified)",
                stats.element_count, stats.keyword_count
            );
        }
    }
    Ok(())
}
