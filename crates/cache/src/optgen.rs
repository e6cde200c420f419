//! Offline next-use annotation enabling Belady's optimal policy.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use grtrace::Access;

/// For each access, computes the trace position of the *next* access to the
/// same cache block, or `u64::MAX` if the block is never touched again.
///
/// Belady's optimal replacement victimizes the resident block whose next use
/// lies farthest in the future; feeding these annotations to the LLC via
/// [`crate::Llc::run_trace`] lets the `Belady` policy in the `gspc` crate
/// make that decision online.
///
/// One backward pass with one map `insert` per access: the position the
/// insert displaces is the access's next use.
///
/// # Example
///
/// ```
/// use grcache::annotate_next_use;
/// use grtrace::{Access, StreamId};
///
/// let trace = vec![
///     Access::load(0, StreamId::Z),   // next use at index 2
///     Access::load(64, StreamId::Z),  // never again
///     Access::load(0, StreamId::Z),   // never again
/// ];
/// assert_eq!(annotate_next_use(&trace), vec![2, u64::MAX, u64::MAX]);
/// ```
pub fn annotate_next_use(accesses: &[Access]) -> Vec<u64> {
    let mut next = vec![u64::MAX; accesses.len()];
    // A quarter-scale frame touches one distinct block per ~3.3 accesses;
    // a quarter of the length plus the table's power-of-two rounding
    // usually holds them all without a rehash.
    let mut last_seen: HashMap<u64, u64, BlockKey> =
        HashMap::with_capacity_and_hasher(accesses.len() / 4, BlockKey::new());
    for (i, a) in accesses.iter().enumerate().rev() {
        if let Some(later) = last_seen.insert(a.block(), i as u64) {
            next[i] = later;
        }
    }
    next
}

/// Keys of a [`BlockHasher`], drawn once per map from [`RandomState`] so a
/// crafted trace (a `.gtrace` import) cannot aim its blocks at one bucket.
/// The key changes only the map's speed, never the annotation.
#[derive(Clone, Copy)]
struct BlockKey {
    xor: u64,
    mul: u64,
}

impl BlockKey {
    fn new() -> Self {
        let s = RandomState::new();
        BlockKey { xor: s.hash_one(0u64), mul: s.hash_one(1u64) | 1 }
    }
}

impl BuildHasher for BlockKey {
    type Hasher = BlockHasher;

    fn build_hasher(&self) -> BlockHasher {
        BlockHasher { key: *self, hash: 0 }
    }
}

/// A keyed folded-multiply hash of a block address: the 128-bit product's
/// halves are XORed, so every input bit reaches the low (bucket) bits and
/// the high (tag) bits alike — strided addresses do not pile up.
struct BlockHasher {
    key: BlockKey,
    hash: u64,
}

impl Hasher for BlockHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.hash ^ x ^ self.key.xor) * u128::from(self.key.mul);
        self.hash = (m as u64) ^ ((m >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtrace::StreamId;

    fn la(addr: u64) -> Access {
        Access::load(addr, StreamId::Texture)
    }

    #[test]
    fn empty_trace() {
        assert!(annotate_next_use(&[]).is_empty());
    }

    #[test]
    fn repeated_block_chains_forward() {
        let t = vec![la(0), la(0), la(0)];
        assert_eq!(annotate_next_use(&t), vec![1, 2, u64::MAX]);
    }

    #[test]
    fn different_offsets_same_block() {
        // 0 and 63 share block 0.
        let t = vec![la(0), la(63)];
        assert_eq!(annotate_next_use(&t), vec![1, u64::MAX]);
    }

    #[test]
    fn interleaved_blocks() {
        let t = vec![la(0), la(64), la(0), la(64)];
        assert_eq!(annotate_next_use(&t), vec![2, 3, u64::MAX, u64::MAX]);
    }

    /// The straightforward annotation: an ordered map, a lookup then an
    /// insert per access.
    fn reference(accesses: &[Access]) -> Vec<u64> {
        let mut next = vec![u64::MAX; accesses.len()];
        let mut last_seen = std::collections::BTreeMap::new();
        for (i, a) in accesses.iter().enumerate().rev() {
            if let Some(&later) = last_seen.get(&a.block()) {
                next[i] = later;
            }
            last_seen.insert(a.block(), i as u64);
        }
        next
    }

    /// `n` seeded accesses over `distinct` blocks, each block `<< shift`.
    fn seeded(seed: u64, n: usize, distinct: u64, shift: u32) -> Vec<Access> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                la(((x % distinct) << shift) * 64)
            })
            .collect()
    }

    #[test]
    fn matches_ordered_map_reference_on_seeded_traces() {
        for seed in [1, 7919, 0xDEAD_BEEF] {
            for distinct in [1, 16, 4096, 1 << 40] {
                let t = seeded(seed, 20_000, distinct, 0);
                assert_eq!(annotate_next_use(&t), reference(&t), "seed {seed}, {distinct} blocks");
            }
        }
    }

    #[test]
    fn strided_blocks_match_reference() {
        // Every block is a multiple of 2^20: identical low bits, the shape
        // that piles an unmixed multiplicative hash into one bucket.
        let t = seeded(3, 200_000, 50_000, 20);
        assert!(t.iter().all(|a| a.block() % (1 << 20) == 0));
        assert_eq!(annotate_next_use(&t), reference(&t));
    }

    #[test]
    fn annotations_point_to_same_block() {
        let t: Vec<Access> = (0..200).map(|i| la(((i * 37) % 11) * 64)).collect();
        let nu = annotate_next_use(&t);
        for (i, &n) in nu.iter().enumerate() {
            if n != u64::MAX {
                assert!(n > i as u64);
                assert_eq!(t[n as usize].block(), t[i].block());
                // No access to the same block strictly between i and n.
                for j in i + 1..n as usize {
                    assert_ne!(t[j].block(), t[i].block());
                }
            }
        }
    }
}
