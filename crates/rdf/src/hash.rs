//! Fast, deterministic hashing for interning and join tables.
//!
//! `std`'s default `RandomState` seeds SipHash per process, which is both
//! slow on the short keys this workspace hashes (interned `TermId` slices,
//! term strings, relational values) and randomized across runs. Nothing in
//! the engine may depend on map iteration order anyway — answers are
//! produced from insertion-ordered vectors — so the hasher only needs to
//! be fast and well-distributed, not DoS-resistant: the inputs are the
//! lake's own data, not attacker-controlled network input.
//!
//! [`FastHasher`] is a multiply-rotate hasher in the `FxHash` family: each
//! 8-byte word is folded into the state with a rotate, xor and an odd
//! multiplicative constant, and `finish` applies an xorshift-multiply
//! avalanche so the high bits (which hashbrown uses for its control bytes)
//! are well mixed. The seed is a compile-time constant, so a `(seed,
//! config)` pair hashes identically on every run — map *contents* are
//! reproducible even though the engine never relies on their order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// Odd multiplicative constant (the 64-bit golden-ratio constant used by
/// Fibonacci hashing); any odd constant with a balanced bit pattern works.
const MULT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Fixed, build-independent seed state.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast multiply-rotate hasher with a fixed seed. See the module docs
/// for why determinism is safe here.
#[derive(Debug, Clone)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(29) ^ word).wrapping_mul(MULT);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut x = self.state;
        x ^= x >> 32;
        x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
        x ^= x >> 32;
        x
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (chunks, rem) = bytes.as_chunks::<8>();
        for chunk in chunks {
            self.mix(u64::from_le_bytes(*chunk));
        }
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(buf));
        }
        // Fold the length in so `"a\0"` and `"a"` (and other zero-padded
        // tails) cannot collide by construction.
        self.mix(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]; the zero-sized state makes
/// `FastMap::default()` a drop-in replacement for `HashMap::new()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildFastHasher;

impl BuildHasher for BuildFastHasher {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: SEED }
    }
}

/// A `HashMap` keyed by the deterministic [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildFastHasher>;

/// A `HashSet` keyed by the deterministic [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildFastHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildFastHasher.hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(&"federated"), hash_of(&"federated"));
        assert_eq!(hash_of(&[1u32, 2, 3][..]), hash_of(&[1u32, 2, 3][..]));
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
    }

    #[test]
    fn distinguishes_lengths_and_contents() {
        assert_ne!(hash_of(&"a"), hash_of(&"a\0"));
        assert_ne!(hash_of(&""), hash_of(&"\0"));
        assert_ne!(hash_of(&[1u32, 2][..]), hash_of(&[1u32, 2, 0][..]));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
    }

    #[test]
    fn works_as_map_and_set_hasher() {
        let mut m: FastMap<String, u32> = FastMap::default();
        m.insert("x".into(), 1);
        m.insert("y".into(), 2);
        assert_eq!(m.get("x"), Some(&1));
        let mut s: FastSet<Vec<u32>> = FastSet::default();
        assert!(s.insert(vec![1, 2]));
        assert!(!s.insert(vec![1, 2]));
    }
}
