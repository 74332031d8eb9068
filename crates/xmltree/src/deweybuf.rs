//! A flat arena of Dewey codes — many codes, two allocations.
//!
//! Posting lists decoded from storage used to materialize as
//! `Vec<Dewey>` with one heap allocation per deep code. A
//! [`DeweyListBuf`] instead packs every component of every code into a
//! single `Vec<u32>` with an offsets array delimiting entries (the
//! EMBANKS-style "in-memory representation decides disk-search
//! throughput" lesson). Decoders build entries incrementally —
//! [`DeweyListBuf::begin`], [`DeweyListBuf::copy_prefix_of_last`],
//! [`DeweyListBuf::push_component`] — which maps 1:1 onto the `.xks`
//! prefix-delta postings encoding: the shared prefix is copied from the
//! previous entry *within the same arena*, so a whole posting run
//! decodes with zero per-code allocations.
//!
//! Individual codes materialize on demand via [`DeweyListBuf::dewey`],
//! which is allocation-free for codes that fit [`Dewey::INLINE_CAP`].

use crate::dewey::Dewey;

/// A packed list of Dewey codes: one components vector plus entry
/// offsets. Entry `i` spans `comps[starts[i]..starts[i + 1]]` (the last
/// entry runs to the end of `comps`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeweyListBuf {
    comps: Vec<u32>,
    starts: Vec<u32>,
}

impl DeweyListBuf {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `codes` entries of `avg_len`
    /// components each.
    #[must_use]
    pub fn with_capacity(codes: usize, avg_len: usize) -> Self {
        DeweyListBuf {
            comps: Vec::with_capacity(codes * avg_len),
            starts: Vec::with_capacity(codes),
        }
    }

    /// Removes every entry, keeping both allocations for reuse.
    pub fn clear(&mut self) {
        self.comps.clear();
        self.starts.clear();
    }

    /// Number of codes in the arena.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` when the arena holds no codes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The component slice of entry `i`, `None` out of bounds.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&[u32]> {
        let start = *self.starts.get(i)? as usize;
        let end = self
            .starts
            .get(i + 1)
            .map_or(self.comps.len(), |&e| e as usize);
        Some(&self.comps[start..end])
    }

    /// The component slice of the last entry (the in-progress one while
    /// building), `None` when empty.
    #[must_use]
    pub fn last(&self) -> Option<&[u32]> {
        self.get(self.starts.len().checked_sub(1)?)
    }

    /// Materializes entry `i` as a [`Dewey`] — allocation-free for
    /// codes within [`Dewey::INLINE_CAP`].
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    #[must_use]
    pub fn dewey(&self, i: usize) -> Dewey {
        Dewey::from_slice(self.get(i).expect("index in bounds"))
    }

    /// Iterates the component slices in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("in bounds"))
    }

    /// Materializes the whole arena as a `Vec<Dewey>` (one vector
    /// allocation; the codes themselves are inline where short).
    #[must_use]
    pub fn to_deweys(&self) -> Vec<Dewey> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter().map(Dewey::from_slice));
        out
    }

    /// Appends a complete code.
    pub fn push(&mut self, components: &[u32]) {
        self.begin();
        self.comps.extend_from_slice(components);
    }

    /// Opens a new (initially empty) entry at the end of the arena.
    pub fn begin(&mut self) {
        debug_assert!(self.comps.len() <= u32::MAX as usize);
        self.starts.push(self.comps.len() as u32);
    }

    /// Appends one component to the entry opened by
    /// [`DeweyListBuf::begin`].
    pub fn push_component(&mut self, component: u32) {
        debug_assert!(!self.starts.is_empty(), "begin() before push_component()");
        self.comps.push(component);
    }

    /// Copies the first `shared` components of the *previous* entry into
    /// the current (just-begun, still empty) entry — the prefix-delta
    /// decode step. Returns `false` (arena unchanged) when there is no
    /// previous entry or it is shorter than `shared`.
    pub fn copy_prefix_of_last(&mut self, shared: usize) -> bool {
        let Some(n) = self.starts.len().checked_sub(2) else {
            return shared == 0 && !self.starts.is_empty();
        };
        let prev_start = self.starts[n] as usize;
        let prev_end = self.starts[n + 1] as usize;
        debug_assert_eq!(
            prev_end,
            self.comps.len(),
            "copy_prefix_of_last on a non-empty current entry"
        );
        if shared > prev_end - prev_start {
            return false;
        }
        self.comps
            .extend_from_within(prev_start..prev_start + shared);
        true
    }
}

impl<'a> IntoIterator for &'a DeweyListBuf {
    type Item = &'a [u32];
    type IntoIter = Box<dyn Iterator<Item = &'a [u32]> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl FromIterator<Dewey> for DeweyListBuf {
    fn from_iter<I: IntoIterator<Item = Dewey>>(iter: I) -> Self {
        let mut buf = DeweyListBuf::new();
        for d in iter {
            buf.push(d.components());
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    #[test]
    fn push_and_get_round_trip() {
        let mut buf = DeweyListBuf::new();
        assert!(buf.is_empty());
        buf.push(&[0]);
        buf.push(&[0, 2, 1]);
        buf.push(&[]);
        buf.push(&[0, 3]);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.get(0), Some(&[0u32][..]));
        assert_eq!(buf.get(1), Some(&[0u32, 2, 1][..]));
        assert_eq!(buf.get(2), Some(&[][..]));
        assert_eq!(buf.get(3), Some(&[0u32, 3][..]));
        assert_eq!(buf.get(4), None);
        assert_eq!(buf.dewey(1), d("0.2.1"));
    }

    #[test]
    fn incremental_build_matches_prefix_delta() {
        // Decode [0.2.0, 0.2.1.5] the way the codec does.
        let mut buf = DeweyListBuf::new();
        buf.begin();
        for c in [0, 2, 0] {
            buf.push_component(c);
        }
        buf.begin();
        assert!(buf.copy_prefix_of_last(2));
        buf.push_component(1);
        buf.push_component(5);
        assert_eq!(buf.to_deweys(), vec![d("0.2.0"), d("0.2.1.5")]);
    }

    #[test]
    fn copy_prefix_bounds() {
        let mut buf = DeweyListBuf::new();
        buf.begin();
        assert!(buf.copy_prefix_of_last(0), "empty shared on first entry");
        assert!(!buf.copy_prefix_of_last(1), "no previous entry");
        buf.push_component(7);
        buf.begin();
        assert!(!buf.copy_prefix_of_last(2), "previous entry too short");
        assert!(buf.copy_prefix_of_last(1));
        assert_eq!(buf.last(), Some(&[7u32][..]));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut buf = DeweyListBuf::with_capacity(4, 3);
        buf.push(&[0, 1, 2]);
        let cap = (buf.comps.capacity(), buf.starts.capacity());
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!((buf.comps.capacity(), buf.starts.capacity()), cap);
    }

    #[test]
    fn from_iterator_and_iter() {
        let codes = vec![d("0"), d("0.1.2"), d("0.9")];
        let buf: DeweyListBuf = codes.iter().cloned().collect();
        assert_eq!(buf.to_deweys(), codes);
        let lens: Vec<usize> = buf.iter().map(<[u32]>::len).collect();
        assert_eq!(lens, [1, 3, 2]);
    }
}
