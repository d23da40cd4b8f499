//! Helpers the seeded fuzzers share: the seed hash and the bounded draw.
//! Each fuzzer includes this file with `mod common;` and uses what it needs.
#![allow(dead_code)]

use datagen::SplitMix64;

/// FNV-1a over `bytes`: a fuzzer's seed from a source name, and the digest
/// of an accepted render.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A draw in `0..n`.
pub fn below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}
