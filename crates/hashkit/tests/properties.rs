//! Property tests for the hash toolbox, on the deterministic
//! `support::testkit` harness (see its docs for the replay knobs).

use hashkit::mix::{bucket, mix64};
use hashkit::sha1::Sha1;
use hashkit::{flowid, murmur, KCounterMap};
use support::rand::Rng;
use support::testkit::{for_each_seed, GenExt};

/// SHA-1 streaming equals one-shot under arbitrary chunking (the
/// padding paths are the classic place such hashes break).
#[test]
fn sha1_chunking_invariance() {
    for_each_seed(|rng| {
        let data = rng.bytes(0..400);
        let cuts = rng.vec_with(0..6, |r| r.gen_range(0usize..400));
        let mut sorted = cuts;
        sorted.push(0);
        sorted.push(data.len());
        sorted.iter_mut().for_each(|c| *c = (*c).min(data.len()));
        sorted.sort_unstable();
        let mut h = Sha1::new();
        for w in sorted.windows(2) {
            h.update(&data[w[0]..w[1]]);
        }
        assert_eq!(h.finalize(), Sha1::digest(&data));
    });
}

/// Murmur3 tail handling: extending the input always changes the
/// 128-bit hash (no absorbing states).
#[test]
fn murmur_extension_changes_hash() {
    for_each_seed(|rng| {
        let data = rng.bytes(0..64);
        let next: u8 = rng.gen();
        let seed: u32 = rng.gen();
        let a = murmur::murmur3_x64_128(&data, seed);
        let mut longer = data.clone();
        longer.push(next);
        let b = murmur::murmur3_x64_128(&longer, seed);
        assert_ne!(a, b);
    });
}

/// The Lemire bucket reduction is always in range and preserves
/// order of the scaled hash.
#[test]
fn bucket_in_range() {
    for_each_seed(|rng| {
        let h: u64 = rng.gen();
        let n = rng.gen_range(1usize..1_000_000);
        assert!(bucket(h, n) < n);
    });
}

/// mix64 is injective on random samples (it is a bijection).
#[test]
fn mix64_no_collisions() {
    for_each_seed(|rng| {
        let n = rng.gen_range(2usize..100);
        let xs: std::collections::HashSet<u64> = (0..n).map(|_| rng.gen()).collect();
        let hashed: std::collections::HashSet<u64> = xs.iter().map(|&x| mix64(x)).collect();
        assert_eq!(hashed.len(), xs.len());
    });
}

/// KCounterMap: distinct, in-range, deterministic for any geometry.
#[test]
fn kmap_invariants() {
    for_each_seed(|rng| {
        let k = rng.gen_range(1usize..10);
        let extra = rng.gen_range(0usize..200);
        let flow: u64 = rng.gen();
        let seed: u64 = rng.gen();
        let l = k + extra;
        let map = KCounterMap::new(k, l, seed);
        let idx = map.indices(flow);
        assert_eq!(idx.len(), k);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), k);
        assert!(idx.iter().all(|&i| i < l));
        assert_eq!(idx, map.indices(flow));
    });
}

/// Flow IDs differ whenever any 5-tuple field differs (on random
/// samples; full injectivity is the hash's job).
#[test]
fn flow_id_field_sensitivity() {
    for_each_seed(|rng| {
        let a: (u32, u32, u16, u16, u8) =
            (rng.gen(), rng.gen(), rng.gen(), rng.gen(), rng.gen());
        let b: (u32, u32, u16, u16, u8) =
            (rng.gen(), rng.gen(), rng.gen(), rng.gen(), rng.gen());
        if a == b {
            return; // prop_assume!(a != b)
        }
        let ia = flowid::flow_id(a.0, a.1, a.2, a.3, a.4);
        let ib = flowid::flow_id(b.0, b.1, b.2, b.3, b.4);
        assert_ne!(ia, ib);
    });
}
