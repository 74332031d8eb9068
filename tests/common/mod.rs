//! Helpers shared by the test crates: the workload-digest line format
//! (`tests/conformance.rs` checks every configuration against the
//! golden files with it, `tests/crash_matrix.rs` and
//! `tests/render_golden.rs` reuse it) and, in [`reference`], the
//! paper's pruning rules and docs/API.md's operator rules read
//! literally. The format lives here exactly once, so every digest
//! line any test computes is byte-comparable.

#![allow(dead_code)] // each test crate uses a subset

pub mod reference;

use xks::core::{AlgorithmKind, CorpusSource, Fragment};

/// The golden digest of the 43-query workload × 3 algorithms, captured
/// before the zero-allocation rewrite (PR 2). Re-bless deliberately
/// with `XKS_BLESS_GOLDEN=1 cargo test -q --test conformance digest`.
pub const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/workload_digest.txt"
);

/// The golden digest of the `s10-flat-zipf-single` matrix cell on
/// every backend, blessed the same way.
pub const MATRIX_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/matrix_digest.txt"
);

/// Every algorithm the digest covers, in golden-file order.
pub const ALGORITHMS: [AlgorithmKind; 3] = [
    AlgorithmKind::ValidRtf,
    AlgorithmKind::MaxMatchRtf,
    AlgorithmKind::MaxMatchSlca,
];

/// The algorithm names as they appear in the golden file.
pub fn algorithm_name(kind: AlgorithmKind) -> &'static str {
    match kind {
        AlgorithmKind::ValidRtf => "ValidRtf",
        AlgorithmKind::MaxMatchRtf => "MaxMatchRtf",
        AlgorithmKind::MaxMatchSlca => "MaxMatchSlca",
    }
}

fn fnv1a(bytes: &[u8], hash: &mut u64) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One line of the golden digest: FNV-1a over the rendered fragments
/// of one (corpus, query, algorithm) triple.
pub fn digest_line(
    corpus: &str,
    abbrev: &str,
    kind: AlgorithmKind,
    fragments: &[Fragment],
    source: &dyn CorpusSource,
) -> String {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for fragment in fragments {
        fnv1a(fragment.render_source(source).as_bytes(), &mut hash);
        fnv1a(b"\x1e", &mut hash);
    }
    format!(
        "{corpus}/{abbrev}/{}: fragments={} fnv={hash:016x}",
        algorithm_name(kind),
        fragments.len(),
    )
}
