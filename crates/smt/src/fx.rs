//! The Fx hash (rustc's `FxHasher`): one rotate, xor and multiply per
//! word. Not DoS-resistant, which is fine for keys the analysis builds
//! itself, and several times cheaper than the std SipHash on the short
//! integer keys of the term tables.

use std::hash::{BuildHasherDefault, Hasher};

/// Builds [`FxHasher`]s, for `HashMap::with_hasher`/`default`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A word-at-a-time multiplicative hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn equal_keys_hash_equal_and_maps_work() {
        let h = |xs: &[u32]| {
            let mut s = FxHasher::default();
            for &x in xs {
                s.write_u32(x);
            }
            s.finish()
        };
        assert_eq!(h(&[1, 2, 3]), h(&[1, 2, 3]));
        assert_ne!(h(&[1, 2, 3]), h(&[3, 2, 1]), "order matters");
        let mut m: HashMap<(u32, u32), u32, FxBuildHasher> = HashMap::default();
        for i in 0..1000 {
            m.insert((i, i * 7), i);
        }
        assert!((0..1000).all(|i| m[&(i, i * 7)] == i));
    }
}
