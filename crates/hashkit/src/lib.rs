//! # hashkit — hash functions and k-way counter mapping for CAESAR
//!
//! The CAESAR paper generates a unique flow ID from the 5-tuple packet
//! header "using SHA-1 and APHash functions" (§6.1), and maps every flow
//! to `k` *distinct* ("collision-free") off-chip SRAM counters with `k`
//! different hash functions (§3.1).
//!
//! This crate provides, from scratch and with no external dependencies:
//!
//! * [`sha1::Sha1`] — the full SHA-1 digest (FIPS 180-1);
//! * [`aphash::aphash`] / [`aphash::aphash64`] — Arash Partow's AP hash;
//! * [`fnv::fnv1a64`] — FNV-1a, used as a cheap secondary mixer;
//! * [`xxh64::xxh64`] — XXH64, the word-wide checksum in every sealed
//!   frame's footer (the workspace's one integrity checksum);
//! * [`mix::splitmix64`] / [`mix::mix64`] — fast avalanche finalizers,
//!   the workhorses for seeded per-flow hash families;
//! * [`kmap::KCounterMap`] — the deterministic map `flow_id -> k`
//!   distinct counter indices in `[0, L)` required by both CAESAR and
//!   the RCS baseline;
//! * [`flowid`] — 5-tuple → 64-bit flow ID generation exactly in the
//!   spirit of the paper (SHA-1 high half XOR APHash low half).
//!
//! All functions are deterministic, portable and endian-stable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aphash;
pub mod flowid;
pub mod flowmap;
pub mod fnv;
pub mod idhash;
pub mod kmap;
pub mod mix;
pub mod murmur;
pub mod sha1;
pub mod xxh64;

pub use flowmap::FlowSlotMap;
pub use idhash::{IdHashMap, IdHashSet};
pub use kmap::{KCounterMap, KIndicesIter, HASH_LANES, K_MAX};

/// A seeded 64-bit hash function over byte slices.
///
/// Implementors must be pure: the same `(seed, data)` pair always
/// produces the same output on every platform.
pub trait Hasher64 {
    /// Hash `data` under this function's fixed seed.
    fn hash64(&self, data: &[u8]) -> u64;
}

/// A family of independent seeded hash functions, indexed by `u64` seed.
///
/// Used to instantiate the `k` "different collision-free hash functions"
/// of the paper: member `i` of the family is an independent function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixFamily {
    seed: u64,
}

impl MixFamily {
    /// Create a family derived from a master `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Hash a 64-bit key under member `i` of the family.
    #[inline]
    pub fn hash_u64(&self, i: u64, key: u64) -> u64 {
        // Two rounds of splitmix-style finalization keyed by both the
        // family seed and the member index give independent, well mixed
        // outputs for adjacent members.
        let k = key ^ mix::splitmix64(self.seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        mix::mix64(k)
    }
}

impl Hasher64 for MixFamily {
    fn hash64(&self, data: &[u8]) -> u64 {
        let mut h = self.seed;
        for chunk in data.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            h = mix::mix64(h ^ u64::from_le_bytes(buf));
        }
        mix::mix64(h ^ data.len() as u64)
    }
}

/// SHA-1 as a [`Hasher64`] (seed prepended to the message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sha1Hasher {
    /// Seed mixed in ahead of the data.
    pub seed: u64,
}

impl Hasher64 for Sha1Hasher {
    fn hash64(&self, data: &[u8]) -> u64 {
        let mut h = sha1::Sha1::new();
        h.update(&self.seed.to_le_bytes());
        h.update(data);
        let d = h.finalize();
        u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
    }
}

/// MurmurHash3 x64-128 (first half) as a [`Hasher64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Murmur3Hasher {
    /// Murmur seed.
    pub seed: u32,
}

impl Hasher64 for Murmur3Hasher {
    fn hash64(&self, data: &[u8]) -> u64 {
        murmur::murmur3_64(data, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_family_members_differ() {
        let fam = MixFamily::new(42);
        let a = fam.hash_u64(0, 12345);
        let b = fam.hash_u64(1, 12345);
        let c = fam.hash_u64(2, 12345);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn mix_family_deterministic() {
        let f1 = MixFamily::new(7);
        let f2 = MixFamily::new(7);
        assert_eq!(f1.hash_u64(3, 99), f2.hash_u64(3, 99));
        assert_eq!(f1.hash64(b"flow"), f2.hash64(b"flow"));
    }

    #[test]
    fn mix_family_seed_changes_output() {
        let f1 = MixFamily::new(1);
        let f2 = MixFamily::new(2);
        assert_ne!(f1.hash_u64(0, 5), f2.hash_u64(0, 5));
    }

    #[test]
    fn hasher64_impls_are_deterministic_and_seeded() {
        let inputs: [&[u8]; 3] = [b"", b"flow", b"per-flow measurement"];
        for &data in &inputs {
            assert_eq!(Sha1Hasher { seed: 1 }.hash64(data), Sha1Hasher { seed: 1 }.hash64(data));
            assert_ne!(Sha1Hasher { seed: 1 }.hash64(data), Sha1Hasher { seed: 2 }.hash64(data));
            assert_eq!(
                Murmur3Hasher { seed: 7 }.hash64(data),
                Murmur3Hasher { seed: 7 }.hash64(data)
            );
        }
        // The three families disagree with each other (independence
        // smoke test).
        let a = Sha1Hasher { seed: 0 }.hash64(b"x");
        let b = Murmur3Hasher { seed: 0 }.hash64(b"x");
        let c = MixFamily::new(0).hash64(b"x");
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn hash64_handles_unaligned_lengths() {
        let fam = MixFamily::new(0);
        // Every length from 0..=17 must hash without panicking and the
        // outputs must be pairwise distinct for distinct inputs.
        let mut seen = std::collections::HashSet::new();
        for len in 0..=17usize {
            let data: Vec<u8> = (0..len as u8).collect();
            assert!(seen.insert(fam.hash64(&data)), "collision at len {len}");
        }
    }
}
