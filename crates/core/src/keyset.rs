//! Keyword bitmasks — the `kList` / key-number machinery of §4.1.
//!
//! The node data structure stores the tree keyword set `TK_v` of a node
//! as a bit list over the query keywords and compares sets through their
//! integer "key numbers". We pack the bit list into a `u64` ([`KeySet`]):
//! bit `i` set means the node's subtree contains keyword `w_{i+1}`.
//!
//! The paper prints key numbers with the **first** keyword as the most
//! significant bit (`kList = 0 1 1 1 1` for `Q3 = {VLDB, title, XML,
//! keyword, search}` has key number 15). [`KeySet::key_number`]
//! reproduces that convention so the worked examples can be asserted
//! verbatim; all set algebra uses the raw mask, which is
//! convention-independent.

use std::fmt;

/// A set of query-keyword indices packed in a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct KeySet(pub u64);

impl KeySet {
    /// The empty set.
    pub const EMPTY: KeySet = KeySet(0);

    /// The set containing only keyword `i` (0-based query position).
    #[must_use]
    pub fn single(i: usize) -> Self {
        debug_assert!(i < 64);
        KeySet(1 << i)
    }

    /// The full set over `k` keywords.
    #[must_use]
    pub fn full(k: usize) -> Self {
        debug_assert!((1..=64).contains(&k));
        KeySet(if k == 64 { u64::MAX } else { (1u64 << k) - 1 })
    }

    /// `true` when no keyword is present.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership of keyword `i`.
    #[must_use]
    pub fn contains(self, i: usize) -> bool {
        i < 64 && (self.0 >> i) & 1 == 1
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: KeySet) -> KeySet {
        KeySet(self.0 | other.0)
    }

    /// Inserts keyword `i`.
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < 64);
        self.0 |= 1 << i;
    }

    /// `self ⊆ other`.
    #[must_use]
    pub fn is_subset(self, other: KeySet) -> bool {
        self.0 & other.0 == self.0
    }

    /// `true` when the set covers all `k` query keywords.
    #[must_use]
    pub fn covers_query(self, k: usize) -> bool {
        Self::full(k).is_subset(self)
    }

    /// Number of keywords present.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The paper's key number for a `k`-keyword query: keyword `w_1`
    /// weighs `2^(k-1)`, keyword `w_k` weighs `2^0`.
    #[must_use]
    pub fn key_number(self, k: usize) -> u64 {
        debug_assert!((1..=64).contains(&k));
        let mut n = 0u64;
        for i in 0..k {
            if self.contains(i) {
                n |= 1 << (k - 1 - i);
            }
        }
        n
    }

    /// Iterates the keyword indices present, ascending.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..64).filter(move |&i| self.contains(i))
    }
}

impl fmt::Display for KeySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_algebra() {
        let mut s = KeySet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(3);
        assert!(s.contains(0) && s.contains(3) && !s.contains(1));
        assert_eq!(s.len(), 2);
        let t = KeySet::single(3);
        assert!(t.is_subset(s));
        assert_ne!(t, s);
        assert_eq!(s.union(KeySet::single(1)).len(), 3);
    }

    #[test]
    fn full_and_covers() {
        assert_eq!(KeySet::full(3), KeySet(0b111));
        assert_eq!(KeySet::full(64), KeySet(u64::MAX));
        assert!(KeySet(0b111).covers_query(3));
        assert!(!KeySet(0b101).covers_query(3));
        assert!(KeySet(0b1111).covers_query(3)); // superset still covers
    }

    #[test]
    fn paper_key_numbers_for_q3() {
        // Q3 = {VLDB, title, XML, keyword, search}, k = 5.
        // kList 0 1 1 1 1 (all but VLDB) → key number 15.
        let mut s = KeySet::EMPTY;
        for i in 1..5 {
            s.insert(i);
        }
        assert_eq!(s.key_number(5), 15);
        // kList 0 1 0 0 0 (title only) → 8.
        assert_eq!(KeySet::single(1).key_number(5), 8);
        // kList 0 0 1 1 1 (XML keyword search) → 7.
        let mut t = KeySet::EMPTY;
        for i in 2..5 {
            t.insert(i);
        }
        assert_eq!(t.key_number(5), 7);
    }

    #[test]
    fn key_number_order_reverses_bits_not_subsets() {
        // Subset relation is invariant under the convention flip.
        let a = KeySet(0b011); // w1, w2
        let b = KeySet(0b111);
        assert!(a.is_subset(b) && a != b);
        assert!(a.key_number(3) < b.key_number(3));
    }

    #[test]
    fn display_lists_indices() {
        let mut s = KeySet::EMPTY;
        s.insert(0);
        s.insert(2);
        assert_eq!(s.to_string(), "{0,2}");
        assert_eq!(KeySet::EMPTY.to_string(), "{}");
    }

    #[test]
    fn iter_ascending() {
        let s = KeySet(0b101001);
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, [0, 3, 5]);
    }
}
