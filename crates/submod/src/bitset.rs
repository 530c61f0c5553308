//! Compact dynamic bit set used as the canonical set representation for the
//! combinatorial layer (ground sets here are small: nodes of gadget graphs,
//! (node, ad) pairs of exactly-solved instances).

/// Fixed-universe bit set.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    universe: usize,
    len: usize,
}

impl BitSet {
    /// Empty set over `{0, .., universe-1}`.
    pub fn new(universe: usize) -> Self {
        BitSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
            len: 0,
        }
    }

    /// Set containing the given elements.
    pub fn from_iter(universe: usize, it: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(universe);
        for x in it {
            s.insert(x);
        }
        s
    }

    /// Full set `{0, .., universe-1}`.
    pub fn full(universe: usize) -> Self {
        Self::from_iter(universe, 0..universe)
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Cardinality.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, x: usize) -> bool {
        debug_assert!(x < self.universe);
        self.words[x / 64] >> (x % 64) & 1 == 1
    }

    /// Inserts `x`; returns true if it was absent.
    #[inline]
    pub fn insert(&mut self, x: usize) -> bool {
        debug_assert!(
            x < self.universe,
            "element {x} outside universe {}",
            self.universe
        );
        let w = &mut self.words[x / 64];
        let bit = 1u64 << (x % 64);
        if *w & bit == 0 {
            *w |= bit;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes `x`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, x: usize) -> bool {
        debug_assert!(
            x < self.universe,
            "element {x} outside universe {}",
            self.universe
        );
        let w = &mut self.words[x / 64];
        let bit = 1u64 << (x % 64);
        if *w & bit != 0 {
            *w &= !bit;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Returns `self` with `x` inserted (non-mutating helper for marginals).
    pub fn with(&self, x: usize) -> BitSet {
        let mut s = self.clone();
        s.insert(x);
        s
    }

    /// Returns `self` with `x` removed.
    pub fn without(&self, x: usize) -> BitSet {
        let mut s = self.clone();
        s.remove(x);
        s
    }
}

/// Word-parallel `dst |= src` over raw `u64` bitmap words. The slices must
/// be the same length (same universe). This and the counting helpers below
/// are the coverage layer's hot primitives: `RrCoverage::coverage_split`
/// folds membership lists into word bitmaps and answers set-algebra queries
/// 64 elements per operation instead of walking per-set id lists.
#[inline]
pub fn union_into(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "bitmap universes differ");
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Population count of `a ∧ ¬b` over raw bitmap words (|A \ B|).
#[inline]
pub fn count_and_not(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len(), "bitmap universes differ");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & !y).count_ones() as usize)
        .sum()
}

impl FromIterator<usize> for BitSet {
    /// Universe is inferred as `max + 1`; prefer [`BitSet::from_iter`] with an
    /// explicit universe when mixing sets.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let universe = items.iter().max().map_or(0, |&m| m + 1);
        BitSet::from_iter(universe, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert_eq!(s.len(), 2);
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_in_order() {
        let s = BitSet::from_iter(200, [5, 190, 63, 64, 0]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 63, 64, 190]);
    }

    #[test]
    fn with_without_do_not_mutate() {
        let a = BitSet::from_iter(5, [1]);
        let b = a.with(3);
        assert!(!a.contains(3) && b.contains(3));
        let c = b.without(1);
        assert!(b.contains(1) && !c.contains(1));
    }

    #[test]
    fn full_set() {
        let f = BitSet::full(65);
        assert_eq!(f.len(), 65);
        assert!(f.contains(64));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside universe")]
    fn remove_out_of_universe_asserts_informatively() {
        // Regression: `remove` used to skip the universe check `insert` and
        // `contains` carry — an in-padding out-of-universe element (here 15
        // in a 10-universe single-word set) would silently clear a padding
        // bit instead of tripping the assert.
        let mut s = BitSet::from_iter(10, [1, 3]);
        s.remove(15);
    }

    #[test]
    fn word_helpers_match_set_algebra() {
        // Cross 64-bit word boundaries so the helpers see multiple words.
        let universe = 200;
        let a: Vec<usize> = (0..universe).filter(|x| x % 3 == 0).collect();
        let b: Vec<usize> = (0..universe).filter(|x| x % 5 == 0).collect();
        let sa = BitSet::from_iter(universe, a.iter().copied());
        let sb = BitSet::from_iter(universe, b.iter().copied());
        let diff = a.iter().filter(|x| !sb.contains(**x)).count();
        assert_eq!(count_and_not(&sa.words, &sb.words), diff);
        let mut dst = sa.words.clone();
        union_into(&mut dst, &sb.words);
        let both = BitSet::from_iter(universe, a.iter().chain(b.iter()).copied());
        assert_eq!(dst, both.words);
        // Empty operands are identities.
        let empty = BitSet::new(universe);
        assert_eq!(count_and_not(&sa.words, &empty.words), sa.len());
        let mut dst = sa.words.clone();
        union_into(&mut dst, &empty.words);
        assert_eq!(dst, sa.words);
    }
}
