//! A fast hasher for vertex-id keys.
//!
//! The standard library's default SipHash protects a map against keys
//! crafted to collide, at several times the cost of a lookup's other work.
//! Vertex ids are not such keys: they index the graph's CSR (`0..n`), so a
//! machine's map holds the ids its partition or fetches give it, never ids
//! a client chose. [`VertexMap`] and [`VertexSet`] hash them with one
//! multiply, as rustc's Fx hasher does, and rotate the product so that both
//! ends of the hash are well mixed: the table picks buckets with the low
//! bits and tags entries with the high ones, and ids strided by a power of
//! two would share every low bit of a plain product.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::types::VertexId;

/// A [`HashMap`] keyed by vertex id, hashed with [`VertexHasher`].
pub type VertexMap<V> = HashMap<VertexId, V, BuildHasherDefault<VertexHasher>>;

/// A [`HashSet`] of vertex ids, hashed with [`VertexHasher`].
pub type VertexSet = HashSet<VertexId, BuildHasherDefault<VertexHasher>>;

/// Odd multiplier with well-spread bits (rustc-hash's).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiplicative hasher for small integer keys; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct VertexHasher {
    hash: u64,
}

impl VertexHasher {
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for VertexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // the product's best-mixed bits are its high ones: move some of them
        // down to where the table takes its bucket index
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn vertex_map_agrees_with_std_hash_map() {
        let sequential = 0..5_000u32;
        let strided = (0..5_000u32).map(|i| i.wrapping_mul(1 << 16));
        let keys: Vec<VertexId> = sequential
            .chain(strided)
            .chain([u32::MAX, u32::MAX - 1])
            .collect();
        let mut ours: VertexMap<u64> = VertexMap::default();
        let mut std_map: HashMap<VertexId, u64> = HashMap::new();
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(
                ours.insert(key, i as u64),
                std_map.insert(key, i as u64),
                "insert {key}"
            );
        }
        assert_eq!(ours.len(), std_map.len());
        for &key in &keys {
            assert_eq!(ours.get(&key), std_map.get(&key), "get {key}");
        }
        assert_eq!(ours.get(&12_345_678), None);
        for &key in keys.iter().step_by(3) {
            assert_eq!(ours.remove(&key), std_map.remove(&key), "remove {key}");
        }
        for &key in &keys {
            assert_eq!(
                ours.get(&key),
                std_map.get(&key),
                "get {key} after removals"
            );
        }
        assert_eq!(ours.len(), std_map.len());
    }

    #[test]
    fn strided_ids_spread_over_low_and_high_bits() {
        const BUCKETS: usize = 1024;
        let build = BuildHasherDefault::<VertexHasher>::default();
        let mut low = vec![false; BUCKETS];
        let mut high = vec![false; BUCKETS];
        for i in 0..4_096u32 {
            let hash = build.hash_one(i.wrapping_mul(1 << 16));
            low[hash as usize % BUCKETS] = true;
            high[(hash >> (64 - BUCKETS.trailing_zeros())) as usize] = true;
        }
        let used = |buckets: &[bool]| buckets.iter().filter(|&&b| b).count();
        assert!(
            used(&low) >= BUCKETS / 2,
            "low bits fill {} of {BUCKETS} buckets",
            used(&low)
        );
        assert!(
            used(&high) >= BUCKETS / 2,
            "high bits fill {} of {BUCKETS} buckets",
            used(&high)
        );
    }
}
