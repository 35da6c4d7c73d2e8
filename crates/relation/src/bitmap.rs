//! Fixed-length row bitmaps.
//!
//! `qfe-query`'s term-bitmap cache represents row sets as packed `u64`
//! bitmaps: one bit per joined row.  Selection predicates become boolean
//! algebra over bitmaps (AND within a conjunct, OR across disjuncts), and
//! QBO's batched verification compares and hashes them.

use std::fmt;

/// A fixed-length bitmap over row indices `0..len`.
///
/// Bits beyond `len` (the padding of the last word) are always zero, so two
/// bitmaps of the same length are equal iff they contain the same rows —
/// `==`, hashing and word-level iteration are all canonical.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

#[inline]
fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

impl Bitmap {
    /// An all-zero bitmap of the given length.
    pub fn new(len: usize) -> Bitmap {
        Bitmap {
            len,
            words: vec![0u64; words_for(len)],
        }
    }

    /// An all-one bitmap of the given length (padding bits stay zero).
    pub fn all_set(len: usize) -> Bitmap {
        let mut b = Bitmap {
            len,
            words: vec![u64::MAX; words_for(len)],
        };
        b.clear_padding();
        b
    }

    /// Number of rows the bitmap covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether bit `idx` is set.
    ///
    /// # Panics
    /// Panics when `idx >= len`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bitmap index out of range");
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Sets bit `idx`.
    ///
    /// # Panics
    /// Panics when `idx >= len`.
    #[inline]
    pub fn set(&mut self, idx: usize) {
        assert!(idx < self.len, "bitmap index out of range");
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self &= other`.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other`.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= !other`.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn and_not_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of bits set in both `self` and `other`, without building
    /// their intersection.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn and_count(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterator over the set bit positions, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + tz)
            })
        })
    }

    fn clear_padding(&mut self) {
        let used = self.len % 64;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap[{}; {} set]", self.len, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_bit_ops() {
        let mut b = Bitmap::new(70);
        assert_eq!(b.len(), 70);
        assert!(!b.is_empty());
        assert!(b.is_zero());
        b.set(0);
        b.set(69);
        assert!(b.get(0) && b.get(69) && !b.get(1));
        assert_eq!(b.count_ones(), 2);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 69]);
    }

    fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Bitmap {
        let mut b = Bitmap::new(len);
        for i in indices {
            b.set(i);
        }
        b
    }

    #[test]
    fn boolean_algebra() {
        let a = from_indices(10, [1, 3, 5]);
        let b = from_indices(10, [3, 5, 7]);
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.iter_ones().collect::<Vec<_>>(), vec![3, 5]);
        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(or.iter_ones().collect::<Vec<_>>(), vec![1, 3, 5, 7]);
        let mut and_not = a.clone();
        and_not.and_not_assign(&b);
        assert_eq!(and_not.iter_ones().collect::<Vec<_>>(), vec![1]);
        assert_eq!(a.and_count(&b), 2);
    }

    /// The rows of `b` flipped, built bit by bit through the public API.
    fn complement(b: &Bitmap) -> Bitmap {
        from_indices(b.len(), (0..b.len()).filter(|&i| !b.get(i)))
    }

    #[test]
    fn all_set_keeps_padding_clear_and_not_round_trips() {
        // `all_set` keeps the last word's padding clear, so it equals the
        // bitmap built bit by bit.
        for len in [64, 65, 70] {
            let a = Bitmap::all_set(len);
            assert_eq!(a.count_ones(), len);
            assert_eq!(a, from_indices(len, 0..len));
        }
        let b = complement(&Bitmap::all_set(70));
        assert!(b.is_zero());
        assert_eq!(complement(&b), Bitmap::all_set(70));
    }

    #[test]
    fn equality_is_canonical_across_construction_paths() {
        let mut a = Bitmap::all_set(65);
        a.and_assign(&from_indices(65, (0..65).filter(|i| i % 2 == 0)));
        let b = from_indices(65, (0..65).filter(|i| i % 2 == 0));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert!(b.is_zero());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(Bitmap::all_set(0), b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        Bitmap::new(3).get(3);
    }
}
