//! The hasher behind every map keyed by a line, tag or page number.
//!
//! std's default `HashMap` hashes with SipHash, which resists keys chosen
//! to flood one bucket. Simulated line addresses cannot mount that
//! attack, and SipHash costs more than the rest of a lookup on the
//! simulators' hottest maps: the MSI directory, the miss-rate probe's
//! LRU nodes, the compulsory-miss page map. [`LineHasher`] is a
//! multiply-rotate hasher in the style of rustc's `FxHasher`: one rotate,
//! one xor and one multiply per word.
//!
//! A product's low bits depend only on its operands' low bits, and
//! hashbrown (std's map) picks a bucket from the hash's low bits. Strided
//! line addresses share their low bits, so without a final fold every key
//! of a 2^12-line stride would land in one bucket. [`LineHasher::finish`]
//! therefore rotates the product's well-mixed high bits down into the
//! low ones. Of the folds tried (xor-shifts by 29, 32 and 40, rotations
//! by 20, 26 and 32), a rotation by 20 spread strided keys best: as many
//! keys as buckets, at strides from 2^0 to 2^36 and in tables of 2^10 to
//! 2^14 buckets, put at most 4 in one bucket, and the top 7 bits, which
//! hashbrown uses as a tag, kept all 128 values.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by line, tag or page numbers, hashed with
/// [`LineHasher`]. Build one with `LineMap::default()`.
pub type LineMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<LineHasher>>;

/// A `HashSet` of line, tag or page numbers, hashed with [`LineHasher`].
/// Build one with `LineSet::default()`.
pub type LineSet<K> = std::collections::HashSet<K, BuildHasherDefault<LineHasher>>;

/// Odd multiplier: 2^64 divided by the golden ratio.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-rotate hasher for integer keys (see the module docs). Not
/// resistant to chosen keys: use it only for simulator-generated ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher {
    hash: u64,
}

impl Hasher for LineHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }

    #[inline]
    fn write_u16(&mut self, word: u16) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    /// The most keys any of the 4096 buckets that the low 12 hash bits
    /// select receives.
    fn worst_bucket<K: Hash>(keys: impl Iterator<Item = K>) -> u32 {
        let build = BuildHasherDefault::<LineHasher>::default();
        let mut buckets = vec![0u32; 1 << 12];
        for key in keys {
            buckets[(build.hash_one(key) & 0xFFF) as usize] += 1;
        }
        buckets.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn strided_keys_spread_over_the_low_bits() {
        for shift in [0, 12, 18, 26] {
            let worst = worst_bucket((0..4096u64).map(|i| i << shift));
            assert!(worst <= 8, "stride 2^{shift}: {worst} keys in one bucket");
            // (core, line) pairs, as the coherence directory keys them.
            let pairs = (0..4096u64).map(|i| ((i % 16) as u16, (i / 16) << shift));
            let worst = worst_bucket(pairs);
            assert!(
                worst <= 8,
                "pairs at stride 2^{shift}: {worst} in one bucket"
            );
        }
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut map: LineMap<u64, u64> = LineMap::default();
        let mut set: LineSet<(u16, u64)> = LineSet::default();
        for line in 0..1000u64 {
            map.insert(line << 20, line);
            set.insert(((line % 4) as u16, line));
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(999 << 20)), Some(&999));
        assert!(set.remove(&(3, 999)));
        assert!(!set.remove(&(3, 999)));
        // Byte input hashes every byte, short tail included.
        let mut a = LineHasher::default();
        let mut b = LineHasher::default();
        a.write(b"0123456789");
        b.write(b"0123456788");
        assert_ne!(a.finish(), b.finish());
    }
}
