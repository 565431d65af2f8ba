//! A small multiplicative hasher for maps keyed by small integers.
//!
//! The physical-type memo tables and the subtype hierarchy index are keyed
//! by `TypeId`s and short tuples of integers. SipHash (the std default)
//! costs several times more per lookup; this is the word-at-a-time
//! rotate-xor-multiply scheme of rustc's `FxHasher`. It does not resist
//! crafted collisions: a unit whose layouts were built to collide can make
//! these lookups linear in its number of types, which is what the pairwise
//! hierarchy builder always cost. Iteration order of these maps is never
//! observed, so the choice of hasher cannot change any output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Rotate-xor-multiply hasher over machine words (not DoS-resistant).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn distinct_small_keys_hash_apart() {
        let hashes: FxHashSet<u64> = (0u32..10_000).map(|i| hash_of(&(i, i + 1))).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
        assert_eq!(hash_of(&"same"), hash_of(&"same"));
    }
}
