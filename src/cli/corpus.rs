//! `xks insert`, `xks delete` and `xks compact`: the WAL-backed
//! mutable corpus directory (docs/DURABILITY.md).

use std::path::Path;

use xks::persist::MutableCorpus;

use super::Args;

/// Opens the mutable corpus in `dir`; when the directory holds none
/// yet, `create_root` (insert only) creates it with that root label.
fn open_corpus(dir: &str, create_root: Option<&str>) -> Result<MutableCorpus, String> {
    let path = Path::new(dir);
    if MutableCorpus::exists(path) {
        MutableCorpus::open(path).map_err(|e| format!("cannot open corpus {dir}: {e}"))
    } else if let Some(root) = create_root {
        eprintln!("creating new corpus in {dir} (root <{root}>)");
        MutableCorpus::create(path, root).map_err(|e| format!("cannot create corpus {dir}: {e}"))
    } else {
        Err(format!("no corpus in {dir} (insert creates one)"))
    }
}

/// `xks insert`: append one document to a WAL-backed corpus directory,
/// creating the corpus on first use. The document is durable (framed,
/// checksummed, fsynced) before the ordinal is reported.
pub fn insert(args: &Args) -> Result<(), String> {
    let dir = args.require("corpus")?;
    let [file] = args.expect_positionals(&args.positionals)?;
    let xml = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let mut corpus = open_corpus(dir, Some(args.str("root").unwrap_or("corpus")))?;
    let ordinal = corpus
        .insert_xml(xml.trim())
        .map_err(|e| format!("cannot insert {file}: {e}"))?;
    eprintln!(
        "inserted document {ordinal} ({} WAL bytes durable, {} delta doc(s) pending compaction)",
        corpus.wal_len(),
        corpus.source().delta_doc_count()
    );
    Ok(())
}

/// `xks delete`: tombstone one document by ordinal. Durable in the WAL
/// before this reports success; the ordinal is never reused.
pub fn delete(args: &Args) -> Result<(), String> {
    let dir = args.require("corpus")?;
    let doc = args.require("doc")?;
    let ordinal: u32 = doc
        .parse()
        .map_err(|_| format!("--doc expects a document ordinal, got {doc:?}"))?;
    let mut corpus = open_corpus(dir, None)?;
    corpus
        .delete(ordinal)
        .map_err(|e| format!("cannot delete document {ordinal}: {e}"))?;
    eprintln!(
        "deleted document {ordinal} ({} tombstone(s) pending compaction)",
        corpus.source().tombstone_count()
    );
    Ok(())
}

/// `xks compact`: seal base + delta into a new generation of `.xks`
/// shards, swap the manifest atomically, and reset the WAL.
pub fn compact(args: &Args) -> Result<(), String> {
    let dir = args.require("corpus")?;
    let shards = args.num("shards")?.unwrap_or(1).max(1);
    let mut corpus = open_corpus(dir, None)?;
    let summary = corpus
        .compact(shards)
        .map_err(|e| format!("compaction failed: {e}"))?;
    eprintln!(
        "sealed {} document(s) / {} element(s) into {} shard(s) (generation {}) -> {}",
        summary.sealed_docs,
        summary.total_elements,
        summary.shard_count,
        summary.generation,
        summary.manifest_path.display()
    );
    Ok(())
}
