//! Property tests for the persist codecs: varints and prefix-delta
//! Dewey posting lists must round-trip for arbitrary inputs, and the
//! decoder must reject truncations with typed errors instead of
//! panicking.

use proptest::prelude::*;
use xks_persist::codec::{put_postings, put_str, put_varint, ByteReader};
use xks_persist::PersistError;
use xks_xmltree::{Dewey, DeweyListBuf};

/// Decodes one posting list from the front of `r` into owned codes.
fn postings(r: &mut ByteReader<'_>) -> Result<Vec<Dewey>, PersistError> {
    let mut buf = DeweyListBuf::new();
    r.postings_into(&mut buf)?;
    Ok(buf.to_deweys())
}

/// Builds a sorted, deduplicated Dewey list from arbitrary component
/// material — the exact shape posting lists have on disk.
fn dewey_list(raw: &[Vec<u8>]) -> Vec<Dewey> {
    let mut list: Vec<Dewey> = raw
        .iter()
        .filter(|comps| !comps.is_empty())
        .map(|comps| Dewey::from_components(comps.iter().map(|&c| u32::from(c % 7)).collect()))
        .collect();
    list.sort();
    list.dedup();
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn varint_round_trips(values in prop::collection::vec(any::<u64>(), 0..50)) {
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut r = ByteReader::new(&buf);
        for &v in &values {
            prop_assert_eq!(r.varint().unwrap(), v);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_truncation_never_panics(value in any::<u64>(), cut in 0usize..10) {
        let mut buf = Vec::new();
        put_varint(&mut buf, value);
        let cut = cut.min(buf.len());
        let truncated = &buf[..buf.len() - cut];
        match ByteReader::new(truncated).varint() {
            Ok(v) => prop_assert_eq!(v, value, "only the untouched encoding decodes"),
            Err(PersistError::Truncated { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    #[test]
    fn strings_round_trip(parts in prop::collection::vec(".{0,40}", 0..8)) {
        let mut buf = Vec::new();
        for s in &parts {
            put_str(&mut buf, s);
        }
        let mut r = ByteReader::new(&buf);
        for s in &parts {
            prop_assert_eq!(r.str().unwrap(), s);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn postings_round_trip(
        raw in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..8), 0..60),
    ) {
        let list = dewey_list(&raw);
        let mut buf = Vec::new();
        put_postings(&mut buf, &list);
        let mut r = ByteReader::new(&buf);
        let back = postings(&mut r).unwrap();
        prop_assert_eq!(back, list);
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn postings_truncation_is_typed(
        raw in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..8), 1..40),
        cut in 1usize..20,
    ) {
        let list = dewey_list(&raw);
        prop_assume!(!list.is_empty());
        let mut buf = Vec::new();
        put_postings(&mut buf, &list);
        let cut = cut.min(buf.len() - 1);
        let truncated = &buf[..buf.len() - cut];
        match postings(&mut ByteReader::new(truncated)) {
            // Cutting whole trailing entries can still decode a prefix
            // of the list — but never the full list.
            Ok(decoded) => prop_assert!(decoded.len() < list.len()),
            Err(PersistError::Truncated { .. } | PersistError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    #[test]
    fn postings_decoder_survives_random_bytes(
        junk in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        // Arbitrary bytes must produce Ok or a typed error — never a
        // panic or unbounded allocation (count is bounded by input
        // size because every posting consumes at least two bytes).
        let _ = postings(&mut ByteReader::new(&junk));
    }
}
