//! Compact bit vector used for null masks and record-start markers.

/// A growable bitmap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn new() -> Self {
        Bitmap::default()
    }

    pub fn with_capacity(bits: usize) -> Self {
        Bitmap {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all bits, keeping the allocation (reusable buffers).
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends `n` copies of one bit.
    pub(crate) fn push_n(&mut self, bit: bool, n: usize) {
        let end = self.len + n;
        self.words.resize(end.div_ceil(64), 0);
        if bit {
            let mut i = self.len;
            while i < end {
                let (word, shift) = (i / 64, i % 64);
                let take = (64 - shift).min(end - i);
                let ones = if take == 64 {
                    u64::MAX
                } else {
                    (1u64 << take) - 1
                };
                self.words[word] |= ones << shift;
                i += take;
            }
        }
        self.len = end;
    }

    /// Releases spare capacity, so the heap holds exactly
    /// [`Bitmap::byte_size`] bytes.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
    }

    /// Reads a bit. Panics if out of bounds (debug) / returns false
    /// (release, via masked indexing) — callers stay in bounds.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        debug_assert!(index < self.len);
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Backing words (bit `i` of the map is bit `i % 64` of word `i / 64`).
    /// Bits at positions `>= len()` are unspecified.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// True when every bit in `[0, len)` is set (e.g. a column with no
    /// nulls) — lets scans skip validity checks entirely.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bm = Bitmap::new();
        for bit in iter {
            bm.push(bit);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn push_n_matches_repeated_push() {
        let mut bulk = Bitmap::new();
        let mut single = Bitmap::new();
        for (bit, n) in [
            (true, 3),
            (false, 70),
            (true, 130),
            (true, 0),
            (false, 1),
            (true, 64),
        ] {
            bulk.push_n(bit, n);
            for _ in 0..n {
                single.push(bit);
            }
        }
        assert_eq!(bulk, single);
        assert_eq!(bulk.count_ones(), 3 + 130 + 64);
    }

    #[test]
    fn count_ones() {
        let bm: Bitmap = (0..130).map(|i| i % 2 == 0).collect();
        assert_eq!(bm.count_ones(), 65);
    }

    #[test]
    fn byte_size_grows_by_words() {
        let mut bm = Bitmap::new();
        assert_eq!(bm.byte_size(), 0);
        bm.push(true);
        assert_eq!(bm.byte_size(), 8);
        for _ in 0..64 {
            bm.push(false);
        }
        assert_eq!(bm.byte_size(), 16);
    }
}
