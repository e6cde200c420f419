//! A plain write-back, write-allocate, true-LRU set-associative cache.
//!
//! This is the building block for the small per-stream render caches. It is
//! deliberately simple: the interesting replacement behaviour in this
//! reproduction lives in the LLC ([`crate::llc`]), not here.

use crate::CacheConfig;

/// Outcome of a [`LruCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The block was present.
    Hit,
    /// The block was absent and has been filled. If filling displaced a
    /// dirty block, `writeback` carries its block address.
    Miss {
        /// Block address of a displaced dirty block, if any.
        writeback: Option<u64>,
    },
}

/// Tag of an invalid way. Lanes past a set's fill count hold it (and
/// [`INVALID_AGE`]), so whole-set scans need no validity mask.
const INVALID_TAG: u64 = u64::MAX;

/// Age of an invalid way: never below a valid age, never incremented.
const INVALID_AGE: u8 = u8::MAX;

/// Lanes compared per step of a set scan; each set's storage is padded to
/// a multiple of it.
const LANES: usize = 8;

/// Write-back, write-allocate, true-LRU set-associative cache.
///
/// Storage is struct-of-arrays: per way a tag, an age (0 is most recently
/// used) and a dirty bit, plus a per-set fill count. A fill takes the first
/// invalid way and nothing invalidates a line, so the valid ways of a set
/// are always a prefix of it, and the ages of that prefix are a permutation
/// of `0..filled`. A probe therefore compares [`LANES`] tags at a time into
/// a bitmask, and the LRU victim of a full set is the way aged `ways - 1`.
///
/// # Example
///
/// ```
/// use grcache::{CacheConfig, Lookup, LruCache};
///
/// let mut c = LruCache::new(CacheConfig::kb(1, 16));
/// assert_eq!(c.access(7, true), Lookup::Miss { writeback: None });
/// assert_eq!(c.access(7, false), Lookup::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    cfg: CacheConfig,
    /// Ways of storage per set: `ways` rounded up to a multiple of [`LANES`].
    stride: usize,
    set_mask: u64,
    set_bits: u32,
    tags: Vec<u64>,
    ages: Vec<u8>,
    dirty: Vec<bool>,
    /// Valid ways per set; they occupy the set's first `filled` ways.
    filled: Vec<u8>,
    hits: u64,
    misses: u64,
}

/// Index of the first lane of `lanes` (a multiple of [`LANES`] long) equal
/// to `x`, or `lanes.len()` if none is.
#[inline]
fn first_eq<T: Copy + PartialEq>(lanes: &[T], x: T) -> usize {
    for (c, chunk) in lanes.chunks_exact(LANES).enumerate() {
        let mut mask = 0u32;
        for (i, &v) in chunk.iter().enumerate() {
            mask |= u32::from(v == x) << i;
        }
        if mask != 0 {
            return c * LANES + mask.trailing_zeros() as usize;
        }
    }
    lanes.len()
}

impl LruCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two (the set index is a
    /// mask of the block address) or the associativity is outside
    /// `1..=255` (ages are `u8`).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
        assert!((1..=255).contains(&cfg.ways), "ways must be in 1..=255, got {}", cfg.ways);
        let stride = cfg.ways.next_multiple_of(LANES);
        LruCache {
            cfg,
            stride,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            tags: vec![INVALID_TAG; sets * stride],
            ages: vec![INVALID_AGE; sets * stride],
            dirty: vec![false; sets * stride],
            filled: vec![0; sets],
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up `block`; on a miss the block is filled (write-allocate).
    /// Stores mark the block dirty; displacing a dirty block reports a
    /// writeback.
    #[inline]
    pub fn access(&mut self, block: u64, write: bool) -> Lookup {
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.set_bits;
        let base = set * self.stride;
        let filled = usize::from(self.filled[set]);
        let tags = &mut self.tags[base..base + self.stride];
        let ages = &mut self.ages[base..base + self.stride];
        let dirty = &mut self.dirty[base..base + self.stride];

        // Probe. Invalid lanes hold INVALID_TAG, so a match past the
        // valid prefix only means `tag` itself is INVALID_TAG: a miss.
        let way = first_eq(tags, tag);
        if way < filled {
            let old_age = ages[way];
            for a in ages.iter_mut() {
                *a += u8::from(*a < old_age);
            }
            ages[way] = 0;
            dirty[way] |= write;
            self.hits += 1;
            return Lookup::Hit;
        }

        // Miss: the first invalid way, else the LRU way.
        self.misses += 1;
        let ways = self.cfg.ways;
        let victim = if filled < ways {
            self.filled[set] += 1;
            filled
        } else {
            first_eq(ages, (ways - 1) as u8)
        };
        debug_assert!(victim < ways, "full set without an LRU way");
        // Invalid ways are never dirty. The victim's address inverts the
        // set/tag split above, as [`CacheConfig::unmap`] does.
        let writeback = dirty[victim].then(|| (tags[victim] << self.set_bits) | set as u64);
        for a in ages.iter_mut() {
            *a = a.saturating_add(1);
        }
        tags[victim] = tag;
        ages[victim] = 0;
        dirty[victim] = write;
        Lookup::Miss { writeback }
    }

    /// Drains every dirty block, returning their block addresses in set
    /// order, then way order. Used at end-of-frame to flush pending
    /// writebacks into the LLC trace.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for (set, &filled) in self.filled.iter().enumerate() {
            let base = set * self.stride;
            let valid = base..base + usize::from(filled);
            for (d, &tag) in self.dirty[valid.clone()].iter_mut().zip(&self.tags[valid]) {
                if *d {
                    out.push((tag << self.set_bits) | set as u64);
                    *d = false;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LruCache {
        // 2 sets x 2 ways.
        LruCache::new(CacheConfig { size_bytes: 4 * 64, ways: 2 })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(matches!(c.access(0, false), Lookup::Miss { .. }));
        assert_eq!(c.access(0, false), Lookup::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (even block addresses).
        c.access(0, false);
        c.access(2, false);
        c.access(0, false); // 0 is now MRU; 2 is LRU
        c.access(4, false); // evicts 2
        assert_eq!(c.access(0, false), Lookup::Hit);
        assert!(matches!(c.access(2, false), Lookup::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, true);
        c.access(2, false);
        // Filling block 4 evicts block 0, which is dirty.
        match c.access(4, false) {
            Lookup::Miss { writeback: Some(addr) } => assert_eq!(addr, 0),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
    }

    #[test]
    fn clean_eviction_reports_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(2, false);
        assert_eq!(c.access(4, false), Lookup::Miss { writeback: None });
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // hit, makes dirty
        c.access(2, false);
        match c.access(4, false) {
            Lookup::Miss { writeback: Some(0) } => {}
            other => panic!("expected writeback of block 0, got {other:?}"),
        }
    }

    #[test]
    fn flush_dirty_returns_and_clears() {
        let mut c = tiny();
        c.access(0, true);
        c.access(1, true);
        c.access(2, false);
        let mut dirty = c.flush_dirty();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 1]);
        assert!(c.flush_dirty().is_empty());
    }

    /// Under random mixed traffic on a multi-set geometry, every address
    /// the cache reports — eviction writebacks and end-of-frame flushes —
    /// reconstructs to a block that was actually written: the stored tag
    /// and set index round-trip through the shared map/unmap math.
    #[test]
    fn writebacks_reconstruct_previously_written_blocks() {
        use std::collections::HashSet;
        let mut c = LruCache::new(CacheConfig::kb(16, 16)); // 16 sets x 16 ways
        let mut written = HashSet::new();
        let mut x = 0x243F6A8885A308D3u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let block = x % 4096;
            let write = x.is_multiple_of(3);
            if write {
                written.insert(block);
            }
            if let Lookup::Miss { writeback: Some(wb) } = c.access(block, write) {
                assert!(written.contains(&wb), "writeback of never-written block {wb}");
            }
        }
        let flushed = c.flush_dirty();
        assert!(!flushed.is_empty(), "random write traffic left no dirty blocks");
        for wb in flushed {
            assert!(written.contains(&wb), "flush of never-written block {wb}");
        }
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_set_count_panics() {
        // A struct literal bypasses `CacheConfig::kb`'s check: 3 sets.
        LruCache::new(CacheConfig { size_bytes: 3 * 2 * 64, ways: 2 });
    }

    #[test]
    #[should_panic(expected = "ways must be in 1..=255")]
    fn more_than_255_ways_panics() {
        LruCache::new(CacheConfig { size_bytes: 256 * 64, ways: 256 });
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0, false); // set 0
        c.access(1, false); // set 1
        assert_eq!(c.access(0, false), Lookup::Hit);
        assert_eq!(c.access(1, false), Lookup::Hit);
    }
}
