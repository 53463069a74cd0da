//! Workload generators for the paper's evaluation (§5.2).
//!
//! Three workloads drive every table and figure:
//!
//! * [`SmallFileWorkload`] — the small-file micro-benchmark: create and
//!   write, then read, then delete 10,000 1-KByte files and 1,000
//!   10-KByte files (Figure 5).
//! * [`LargeFileWorkload`] — the large-file benchmark: a 78.125-MByte
//!   file written sequentially (`write1`), read sequentially (`read1`),
//!   re-written in random order (`write2`), read in random order
//!   (`read2`), and re-read sequentially (`read3`) (Figure 6).
//! * [`AruLatencyWorkload`] — start and end an empty ARU 500,000 times
//!   (the §5.3 latency experiment).
//!
//! [`MtWorkload`] goes beyond the paper's single-threaded prototype: N
//! OS threads share one logical disk (every operation takes `&self`)
//! and commit disjoint ARUs concurrently, driving the group-commit
//! stage. [`MixedWorkload`] provides seeded mixed traffic for stress
//! tests and the cleaner.
//!
//! All generators are deterministic: random orders come from a seeded
//! RNG, so repeated runs (and the old/new comparisons) see identical
//! operation streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aru_latency;
mod large_file;
mod mixed;
mod mt;
mod small_file;

pub use aru_latency::{AruLatencyResult, AruLatencyWorkload};
pub use large_file::{LargeFilePhase, LargeFileWorkload};
pub use mixed::{MixedOp, MixedWorkload};
pub use mt::{MtReport, MtWorkload};
pub use small_file::SmallFileWorkload;

use ld_disk::SmallRng;

/// A deterministic RNG for workloads.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Fills `buf` with a deterministic pattern derived from `tag` — cheap
/// to generate, distinct across files/blocks, and verifiable on read.
pub fn pattern_fill(buf: &mut [u8], tag: u64) {
    let mut x = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for chunk in buf.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let bytes = x.to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_deterministic_and_distinct() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        pattern_fill(&mut a, 5);
        pattern_fill(&mut b, 5);
        assert_eq!(a, b);
        pattern_fill(&mut b, 6);
        assert_ne!(a, b);
    }

    #[test]
    fn rng_is_seeded() {
        let mut r1 = rng(42);
        let mut r2 = rng(42);
        assert_eq!(r1.next_u64(), r2.next_u64());
    }
}
