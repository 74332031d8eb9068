//! Golden pin of the `.xks` bytes `IndexWriter` writes.
//!
//! `tests/golden/xks_digest.txt` holds one line per corpus: the file
//! length and the FNV-1a of the whole file, for the `publications()`
//! fixture and the `s10-flat-zipf-single` matrix cell. Any change to
//! how shredded rows become section bytes (element rows, own-content
//! features, postings, keyword statistics) shows here.
//!
//! Regenerate deliberately with `XKS_BLESS_GOLDEN=1 cargo test -q
//! --test xks_digest` after a change that is *supposed* to alter the
//! stored form.

use xks::datagen::scenario::ScenarioSpec;
use xks::persist::IndexWriter;
use xks::store::shred;
use xks::xmltree::fixtures::publications;
use xks::xmltree::XmlTree;

const GOLDEN_XKS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/xks_digest.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn digest_line(name: &str, tree: &XmlTree) -> String {
    let dir = std::env::temp_dir().join("xks-xks-digest");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.xks"));
    IndexWriter::new().write(&shred(tree), &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    format!("{name}: bytes={} fnv={:016x}", bytes.len(), fnv1a(&bytes))
}

#[test]
fn written_index_bytes_are_pinned() {
    let cell = "s10-flat-zipf-single";
    let scenario = ScenarioSpec::parse(cell).expect("known cell").generate();
    let rendered = [
        digest_line("publications", &publications()),
        digest_line(cell, &scenario.tree),
    ]
    .join("\n")
        + "\n";

    if std::env::var_os("XKS_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_XKS, &rendered).unwrap();
        eprintln!("blessed {GOLDEN_XKS}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_XKS)
        .expect(".xks golden digest missing; run with XKS_BLESS_GOLDEN=1 to record it");
    assert_eq!(
        rendered, golden,
        "written .xks bytes diverged from the golden file"
    );
}
