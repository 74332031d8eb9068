//! The reference reading of the posting merge, shared by the
//! integration tests: every code of every list, once, in document
//! order, with the OR of the bits of the lists holding it.

use std::collections::BTreeMap;

use xks_xmltree::Dewey;

/// Folds `sets` through a `BTreeMap<Dewey, u64>`.
pub fn reference_merge(sets: &[Vec<Dewey>]) -> Vec<(Dewey, u64)> {
    let mut fold: BTreeMap<Dewey, u64> = BTreeMap::new();
    for (i, list) in sets.iter().enumerate() {
        for d in list {
            *fold.entry(d.clone()).or_default() |= 1u64 << i;
        }
    }
    fold.into_iter().collect()
}
