//! Fast, non-cryptographic hashing for the executor hot path.
//!
//! The per-event cost of the Sharon engine is dominated by `GROUP BY`
//! partition lookups: one hash-map probe per matched event. The standard
//! library's default SipHash-1-3 is DoS-resistant but an order of magnitude
//! slower than needed for trusted, in-process keys like [`crate::GroupKey`].
//! [`FxHasher`] implements the multiply-xor scheme popularized by Firefox
//! and the Rust compiler: a couple of arithmetic instructions per word,
//! well-mixed output for small structured keys.
//!
//! Use the [`FxHashMap`] alias anywhere a map is touched
//! per event; keep the default hasher for maps keyed by untrusted input.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the FxHash scheme (64-bit variant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast multiply-xor hasher for trusted, in-process keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add_to_hash(v as u64);
    }
}

/// A `HashMap` using `FxHasher` — for hot-path maps over trusted keys.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hash one value with `FxHasher` — used for deterministic shard routing.
#[inline]
pub fn fx_hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupKey, Value};

    #[test]
    fn equal_keys_hash_equal() {
        let a = GroupKey::One(Value::Int(42));
        let b = GroupKey::One(Value::Int(42));
        assert_eq!(fx_hash_one(&a), fx_hash_one(&b));
        // cross-type numeric equality must preserve hash equality
        let c = GroupKey::One(Value::Float(42.0));
        assert_eq!(a, c);
        assert_eq!(fx_hash_one(&a), fx_hash_one(&c));
    }

    #[test]
    fn distinct_keys_spread() {
        use std::collections::HashSet;
        let hashes: HashSet<u64> = (0..10_000i64)
            .map(|i| fx_hash_one(&GroupKey::One(Value::Int(i))))
            .collect();
        assert_eq!(hashes.len(), 10_000, "no collisions on small dense keys");
        // low bits must be usable for shard routing
        let shards: HashSet<u64> = (0..64i64)
            .map(|i| fx_hash_one(&GroupKey::One(Value::Int(i))) % 8)
            .collect();
        assert!(shards.len() > 4, "shard routing must not collapse");
    }

    #[test]
    fn fx_map_works_with_group_keys() {
        let mut m: FxHashMap<GroupKey, usize> = FxHashMap::default();
        m.insert(GroupKey::Global, 0);
        m.insert(GroupKey::One(Value::from("MainSt")), 1);
        m.insert(GroupKey::from_values(vec![Value::Int(1), Value::Int(2)]), 2);
        assert_eq!(m[&GroupKey::Global], 0);
        assert_eq!(m[&GroupKey::One(Value::from("MainSt"))], 1);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn string_hashing_covers_remainder_bytes() {
        let h1 = fx_hash_one("abcdefgh");
        let h2 = fx_hash_one("abcdefgh!");
        let h3 = fx_hash_one("abcdefg");
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
    }
}
