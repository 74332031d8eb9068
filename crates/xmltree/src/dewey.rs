//! Dewey codes: hierarchical node identifiers compatible with pre-order.
//!
//! The paper (footnote 2 and footnote 5) identifies every node of an XML
//! tree by its Dewey code, e.g. `0.2.0.1`: the root is `0`, and each
//! component after that is the ordinal of the child along the path from
//! the root. Dewey codes have two properties that every algorithm in this
//! workspace relies on:
//!
//! 1. lexicographic order on components equals the pre-order (document
//!    order) of the tree, and
//! 2. the lowest common ancestor of two nodes is the longest common
//!    prefix of their codes.
//!
//! # Representation
//!
//! Dewey manipulation (clone, LCA, child/parent, stack push/pop)
//! dominates the query hot path, so codes with at most
//! [`Dewey::INLINE_CAP`] components are stored **inline** — no heap
//! allocation anywhere in their lifecycle. Deeper codes spill to a
//! `Vec<u32>`. The representation is invisible to the API: equality,
//! ordering, and hashing are defined over the component sequence, so an
//! inline code and a spilled code with the same components are
//! indistinguishable (property-tested in `tests/dewey_properties.rs`).
//! [`Dewey::push_component`] / [`Dewey::truncate`] /
//! [`Dewey::pop_component`] mutate in place so stack-shaped algorithms
//! (ancestor walks, the ELCA stack) can reuse one cursor code instead of
//! cloning per step.

use std::fmt;
use std::str::FromStr;

/// Number of components stored inline (no heap) — see [`Dewey`].
const INLINE_CAP: usize = 8;

#[derive(Clone)]
enum Repr {
    /// Up to [`INLINE_CAP`] components, no heap involvement.
    Inline { len: u8, comps: [u32; INLINE_CAP] },
    /// Deeper codes spill to the heap. A spilled code may temporarily
    /// hold fewer than `INLINE_CAP` components after [`Dewey::truncate`]
    /// (keeping its capacity for future pushes); semantics never depend
    /// on the variant.
    Spilled(Vec<u32>),
}

/// A Dewey code — the path of child ordinals from the root to a node.
///
/// The root of a document is `Dewey::root()`, printed as `0`. A child is
/// derived with [`Dewey::child`], the parent with [`Dewey::parent`].
///
/// `Ord` is the pre-order (document order) relation used throughout the
/// paper: for two distinct nodes `u`, `v`, `u < v` iff `u` appears before
/// `v` in a left-to-right depth-first traversal. Note that an ancestor
/// precedes all of its descendants.
#[derive(Clone)]
pub struct Dewey {
    repr: Repr,
}

impl Dewey {
    /// Codes with at most this many components never touch the heap.
    pub const INLINE_CAP: usize = INLINE_CAP;

    /// The code of the document root, `0`.
    #[must_use]
    pub fn root() -> Self {
        Dewey {
            repr: Repr::Inline {
                len: 1,
                comps: [0; INLINE_CAP],
            },
        }
    }

    /// An empty code (the *virtual* parent of the root). Mostly useful as
    /// a sentinel; no real node carries it.
    #[must_use]
    pub fn empty() -> Self {
        Dewey {
            repr: Repr::Inline {
                len: 0,
                comps: [0; INLINE_CAP],
            },
        }
    }

    /// Builds a code directly from components, e.g. `[0, 2, 0, 1]` for
    /// `0.2.0.1`. Short codes are canonicalized to the inline form (the
    /// vector is dropped).
    #[must_use]
    pub fn from_components(components: Vec<u32>) -> Self {
        if components.len() <= INLINE_CAP {
            Self::from_slice(&components)
        } else {
            Dewey {
                repr: Repr::Spilled(components),
            }
        }
    }

    /// Builds a code from a component slice without allocating when the
    /// slice fits inline.
    #[must_use]
    pub fn from_slice(components: &[u32]) -> Self {
        if components.len() <= INLINE_CAP {
            let mut comps = [0; INLINE_CAP];
            comps[..components.len()].copy_from_slice(components);
            Dewey {
                repr: Repr::Inline {
                    len: components.len() as u8,
                    comps,
                },
            }
        } else {
            Dewey {
                repr: Repr::Spilled(components.to_vec()),
            }
        }
    }

    /// The components of the code.
    #[must_use]
    pub fn components(&self) -> &[u32] {
        match &self.repr {
            Repr::Inline { len, comps } => &comps[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }

    /// `true` when the code is stored inline (no heap). Exposed for the
    /// representation-equivalence tests and allocation assertions.
    #[must_use]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// Number of components; the root has length 1.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Spilled(v) => v.len(),
        }
    }

    /// `true` only for the sentinel produced by [`Dewey::empty`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depth of the node: the root is at level 0.
    #[must_use]
    pub fn level(&self) -> usize {
        self.len().saturating_sub(1)
    }

    /// Appends a component in place — [`Dewey::child`] without the new
    /// code. Stays inline up to [`Dewey::INLINE_CAP`] components, then
    /// spills once.
    pub fn push_component(&mut self, component: u32) {
        match &mut self.repr {
            Repr::Inline { len, comps } => {
                let n = usize::from(*len);
                if n < INLINE_CAP {
                    comps[n] = component;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_CAP * 2);
                    v.extend_from_slice(comps);
                    v.push(component);
                    self.repr = Repr::Spilled(v);
                }
            }
            Repr::Spilled(v) => v.push(component),
        }
    }

    /// Shortens the code to `len` components in place (no-op when
    /// already that short). A spilled code keeps its heap capacity so a
    /// later [`Dewey::push_component`] does not reallocate.
    pub fn truncate(&mut self, new_len: usize) {
        match &mut self.repr {
            Repr::Inline { len, .. } => {
                if usize::from(*len) > new_len {
                    *len = new_len as u8;
                }
            }
            Repr::Spilled(v) => v.truncate(new_len),
        }
    }

    /// Removes and returns the last component, `None` on the empty
    /// sentinel. `pop` then `push` of the same component round-trips.
    pub fn pop_component(&mut self) -> Option<u32> {
        match &mut self.repr {
            Repr::Inline { len, comps } => {
                if *len == 0 {
                    return None;
                }
                *len -= 1;
                Some(comps[usize::from(*len)])
            }
            Repr::Spilled(v) => v.pop(),
        }
    }

    /// The code of this node's `ordinal`-th child (0-based).
    #[must_use]
    pub fn child(&self, ordinal: u32) -> Self {
        let mut child = self.clone();
        child.push_component(ordinal);
        child
    }

    /// The parent code, or `None` for the root (and the empty sentinel).
    #[must_use]
    pub fn parent(&self) -> Option<Self> {
        let comps = self.components();
        if comps.len() <= 1 {
            return None;
        }
        Some(Self::from_slice(&comps[..comps.len() - 1]))
    }

    /// The ordinal of this node among its siblings (its last component).
    #[must_use]
    pub fn ordinal(&self) -> Option<u32> {
        self.components().last().copied()
    }

    /// `true` iff `self` is a **proper** ancestor of `other`
    /// (the paper's `u ≺a v`).
    #[must_use]
    pub fn is_ancestor_of(&self, other: &Dewey) -> bool {
        let a = self.components();
        let b = other.components();
        a.len() < b.len() && b[..a.len()] == *a
    }

    /// `true` iff `self` is an ancestor of `other` or equal to it
    /// ("ancestor-or-self", the dispatch relation used by `getRTF`).
    #[must_use]
    pub fn is_ancestor_or_self(&self, other: &Dewey) -> bool {
        let a = self.components();
        let b = other.components();
        a.len() <= b.len() && b[..a.len()] == *a
    }

    /// `true` iff `self` is a proper descendant of `other`.
    #[must_use]
    pub fn is_descendant_of(&self, other: &Dewey) -> bool {
        other.is_ancestor_of(self)
    }

    /// The lowest common ancestor of two codes: their longest common
    /// prefix. For codes of the same document this is never empty.
    #[must_use]
    pub fn lca(&self, other: &Dewey) -> Dewey {
        let a = self.components();
        let b = other.components();
        let n = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
        Self::from_slice(&a[..n])
    }

    /// The LCA of a non-empty slice of codes; `None` on an empty slice.
    #[must_use]
    pub fn lca_of_all(codes: &[Dewey]) -> Option<Dewey> {
        let mut iter = codes.iter();
        let first = iter.next()?.clone();
        Some(iter.fold(first, |acc, d| acc.lca(d)))
    }

    /// Iterator over all **proper** ancestors, nearest first
    /// (parent, grandparent, …, root).
    pub fn ancestors(&self) -> impl Iterator<Item = Dewey> + '_ {
        let mut len = self.len();
        std::iter::from_fn(move || {
            if len <= 1 {
                return None;
            }
            len -= 1;
            Some(Self::from_slice(&self.components()[..len]))
        })
    }

    /// The first Dewey code (in pre-order) that is **not** a descendant
    /// of `self` and sorts after `self`'s whole subtree. Useful for
    /// binary-search range scans over sorted Dewey lists.
    ///
    /// Returns `None` when no such code exists with the same code length
    /// budget (i.e. the last component is `u32::MAX`, which generators
    /// never produce).
    #[must_use]
    pub fn subtree_upper_bound(&self) -> Option<Dewey> {
        let next = self.ordinal()?.checked_add(1)?;
        let mut out = self.clone();
        match &mut out.repr {
            Repr::Inline { len, comps } => comps[usize::from(*len) - 1] = next,
            Repr::Spilled(v) => *v.last_mut().expect("non-empty") = next,
        }
        Some(out)
    }
}

impl Default for Dewey {
    fn default() -> Self {
        Dewey::empty()
    }
}

impl PartialEq for Dewey {
    fn eq(&self, other: &Self) -> bool {
        self.components() == other.components()
    }
}

impl Eq for Dewey {}

impl PartialOrd for Dewey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dewey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.components().cmp(other.components())
    }
}

impl std::hash::Hash for Dewey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Matches what `Vec<u32>`/`&[u32]` hash to (length prefix plus
        // components), so the representation cannot leak into hashes.
        self.components().hash(state);
    }
}

impl fmt::Display for Dewey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε");
        }
        let mut first = true;
        for c in self.components() {
            if !first {
                write!(f, ".")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Debug for Dewey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dewey({self})")
    }
}

/// Error returned when parsing a Dewey code from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDeweyError {
    text: String,
}

impl fmt::Display for ParseDeweyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Dewey code: {:?}", self.text)
    }
}

impl std::error::Error for ParseDeweyError {}

impl FromStr for Dewey {
    type Err = ParseDeweyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Ok(Dewey::empty());
        }
        let components: Result<Vec<u32>, _> = s.split('.').map(str::parse).collect();
        components
            .map(Dewey::from_components)
            .map_err(|_| ParseDeweyError { text: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dewey {
        s.parse().expect("valid dewey")
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0", "0.2.0.1", "1.0.3", "0.0.0.0"] {
            assert_eq!(d(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("0.a.1".parse::<Dewey>().is_err());
        assert!("0..1".parse::<Dewey>().is_err());
        assert!("-1".parse::<Dewey>().is_err());
    }

    #[test]
    fn empty_sentinel() {
        let e = Dewey::empty();
        assert!(e.is_empty());
        assert_eq!(e.to_string(), "ε");
        assert_eq!("".parse::<Dewey>().unwrap(), e);
    }

    #[test]
    fn preorder_ordering() {
        // Ancestors precede descendants; siblings by ordinal.
        assert!(d("0") < d("0.0"));
        assert!(d("0.0") < d("0.1"));
        assert!(d("0.0.5") < d("0.1"));
        assert!(d("0.2.0.1") < d("0.2.0.3.0"));
        assert!(d("0.2.0.3.0") < d("0.2.1"));
    }

    #[test]
    fn child_and_parent() {
        let root = Dewey::root();
        let c = root.child(2).child(0);
        assert_eq!(c.to_string(), "0.2.0");
        assert_eq!(c.parent().unwrap().to_string(), "0.2");
        assert_eq!(root.parent(), None);
        assert_eq!(c.ordinal(), Some(0));
        assert_eq!(c.level(), 2);
    }

    #[test]
    fn ancestor_relations() {
        assert!(d("0").is_ancestor_of(&d("0.2.0")));
        assert!(!d("0.2").is_ancestor_of(&d("0.2")));
        assert!(d("0.2").is_ancestor_or_self(&d("0.2")));
        assert!(!d("0.1").is_ancestor_of(&d("0.2.0")));
        assert!(d("0.2.0").is_descendant_of(&d("0")));
        // A longer code is never an ancestor of a shorter one.
        assert!(!d("0.2.0").is_ancestor_of(&d("0.2")));
    }

    #[test]
    fn lca_is_longest_common_prefix() {
        assert_eq!(d("0.2.0.1").lca(&d("0.2.0.3.0")), d("0.2.0"));
        assert_eq!(d("0.0").lca(&d("0.2.1")), d("0"));
        assert_eq!(d("0.2").lca(&d("0.2")), d("0.2"));
        // LCA with an ancestor is the ancestor itself.
        assert_eq!(d("0.2.0.1").lca(&d("0.2")), d("0.2"));
    }

    #[test]
    fn lca_of_all_nodes() {
        let codes = vec![d("0.2.0.1"), d("0.2.0.2"), d("0.2.0.3.0")];
        assert_eq!(Dewey::lca_of_all(&codes), Some(d("0.2.0")));
        assert_eq!(Dewey::lca_of_all(&[]), None);
        assert_eq!(Dewey::lca_of_all(&[d("0.5")]), Some(d("0.5")));
    }

    #[test]
    fn ancestors_nearest_first() {
        let anc: Vec<String> = d("0.2.0.1").ancestors().map(|a| a.to_string()).collect();
        assert_eq!(anc, ["0.2.0", "0.2", "0"]);
        assert_eq!(Dewey::root().ancestors().count(), 0);
    }

    #[test]
    fn subtree_upper_bound_bracket() {
        let ub = d("0.2.0").subtree_upper_bound().unwrap();
        assert_eq!(ub, d("0.2.1"));
        assert!(d("0.2.0.9.9") < ub);
        assert!(d("0.2.0") < ub);
        assert!(ub <= d("0.2.1"));
    }

    #[test]
    fn ordering_matches_component_lexicographic() {
        let mut v = [d("0.2.1"), d("0"), d("0.2.0.3.0"), d("0.0"), d("0.2")];
        v.sort();
        let s: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        assert_eq!(s, ["0", "0.0", "0.2", "0.2.0.3.0", "0.2.1"]);
    }

    // ------------------------------------------ inline/spilled behaviour

    #[test]
    fn short_codes_are_inline_deep_codes_spill() {
        assert!(Dewey::root().is_inline());
        assert!(Dewey::empty().is_inline());
        assert!(d("0.1.2.3.4.5.6.7").is_inline()); // exactly INLINE_CAP
        assert!(!d("0.1.2.3.4.5.6.7.8").is_inline());
        // from_components canonicalizes short vectors to inline.
        assert!(Dewey::from_components(vec![0, 1, 2]).is_inline());
    }

    #[test]
    fn push_truncate_pop_round_trip() {
        let mut x = Dewey::root();
        for i in 0..12 {
            x.push_component(i);
        }
        assert_eq!(x.len(), 13);
        assert!(!x.is_inline());
        assert_eq!(x.pop_component(), Some(11));
        x.truncate(5);
        assert_eq!(x.to_string(), "0.0.1.2.3");
        // Equal to an inline-built code despite being spilled.
        assert_eq!(x, d("0.0.1.2.3"));
        assert!(!x.is_inline());
        x.truncate(0);
        assert_eq!(x, Dewey::empty());
        assert_eq!(x.pop_component(), None);
    }

    #[test]
    fn push_across_the_inline_boundary() {
        let mut x = d("0.1.2.3.4.5.6.7");
        assert!(x.is_inline());
        x.push_component(8);
        assert!(!x.is_inline());
        assert_eq!(x, d("0.1.2.3.4.5.6.7.8"));
        assert_eq!(x.pop_component(), Some(8));
        assert_eq!(x, d("0.1.2.3.4.5.6.7"));
    }

    #[test]
    fn mixed_representation_ord_eq_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let inline = d("0.3.1");
        let mut spilled = d("0.3.1.0.0.0.0.0.0.0");
        spilled.truncate(3); // still Spilled, same components
        assert!(!spilled.is_inline());
        assert_eq!(inline, spilled);
        assert_eq!(inline.cmp(&spilled), std::cmp::Ordering::Equal);
        let h = |x: &Dewey| {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&inline), h(&spilled));
    }

    #[test]
    fn deep_code_operations_still_correct() {
        let deep = Dewey::from_components((0..20).collect());
        assert_eq!(deep.len(), 20);
        assert_eq!(deep.level(), 19);
        assert_eq!(deep.parent().unwrap().len(), 19);
        assert_eq!(deep.child(7).len(), 21);
        assert_eq!(deep.ancestors().count(), 19);
        let ub = deep.subtree_upper_bound().unwrap();
        assert!(deep < ub);
        assert!(!deep.is_ancestor_of(&ub));
        let shallow = d("0.1");
        assert_eq!(deep.lca(&shallow).to_string(), "0.1");
    }
}
