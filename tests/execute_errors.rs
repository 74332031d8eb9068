//! `SearchEngine::execute` must surface backend failures as typed
//! [`SearchError`]s — never a panic — even when the storage under an
//! already-opened index dies (the "disk failed after open" scenario a
//! server lives with).

use xks::core::{SearchEngine, SearchError, SearchRequest};
use xks::datagen::{generate_dblp, DblpConfig};
use xks::persist::{IndexReader, IndexWriter};

#[test]
fn truncated_index_yields_typed_error_not_panic() {
    let dir = std::env::temp_dir().join("xks-execute-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dying.xks");
    // A multi-page index, so a fresh keyword's pages cannot all be
    // sitting in the buffer pool when the file dies.
    IndexWriter::new()
        .write_tree(&generate_dblp(&DblpConfig::with_records(500, 42)), &path)
        .unwrap();

    // Open succeeds against the intact file…
    let engine = SearchEngine::from_owned_source(IndexReader::open(&path).unwrap());
    let request = SearchRequest::parse("data").unwrap();
    assert!(
        !engine.execute(&request).unwrap().hits.is_empty(),
        "sanity: the intact index answers"
    );

    // …then the file is truncated to almost nothing behind the
    // reader's back (same inode — the reader keeps its handle).
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(64).unwrap();
    drop(file);

    // The open reader still answers element and dictionary lookups
    // from the bytes it read and verified at open; only postings are
    // read from the file after that. A query for keywords whose posting
    // pages are not cached yet must fail with a typed backend error,
    // not a panic.
    let fresh = SearchRequest::parse("algorithm query tree").unwrap();
    match engine.execute(&fresh) {
        Err(SearchError::Backend(e)) => {
            let text = e.to_string();
            assert!(!text.is_empty());
        }
        Ok(response) => panic!(
            "query over a truncated index must fail (got {} hits)",
            response.hits.len()
        ),
        Err(other) => panic!("expected a backend error, got {other}"),
    }

    // The engine object stays usable as an object (no poisoned state):
    // further queries keep returning typed errors.
    assert!(matches!(
        engine.execute(&fresh),
        Err(SearchError::Backend(_)) | Ok(_)
    ));
    std::fs::remove_file(&path).unwrap();
}
