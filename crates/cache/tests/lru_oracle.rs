//! Differential test of the render-cache `LruCache` against a reference
//! implementation that keeps the straightforward layout: an array of
//! `Line { valid, dirty, tag, age }` per set, probed and aged by full scans,
//! with the set index recomputed from the geometry on every access. Both
//! must return the same `Lookup` for every access, count the same hits and
//! misses, and flush the same dirty blocks in the same order, on seeded
//! mixed read/write traffic at every render-cache geometry.

use grcache::{CacheConfig, Lookup, LruCache};

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Lower is more recently used.
    age: u8,
}

/// The reference cache.
struct ReferenceLru {
    cfg: CacheConfig,
    lines: Vec<Line>,
    hits: u64,
    misses: u64,
}

impl ReferenceLru {
    fn new(cfg: CacheConfig) -> Self {
        ReferenceLru { cfg, lines: vec![Line::default(); cfg.blocks()], hits: 0, misses: 0 }
    }

    fn access(&mut self, block: u64, write: bool) -> Lookup {
        let (set, tag) = self.cfg.map(block);
        let ways = self.cfg.ways;
        let base = set * ways;
        let set_lines = &mut self.lines[base..base + ways];

        // Probe.
        if let Some(hit_way) = set_lines.iter().position(|l| l.valid && l.tag == tag) {
            let old_age = set_lines[hit_way].age;
            for l in set_lines.iter_mut() {
                if l.valid && l.age < old_age {
                    l.age += 1;
                }
            }
            set_lines[hit_way].age = 0;
            set_lines[hit_way].dirty |= write;
            self.hits += 1;
            return Lookup::Hit;
        }

        // Miss: pick an invalid way, else the LRU (max age) way.
        self.misses += 1;
        let victim = set_lines.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set_lines
                .iter()
                .enumerate()
                .max_by_key(|(_, l)| l.age)
                .map(|(i, _)| i)
                .expect("non-empty set")
        });
        let writeback = if set_lines[victim].valid && set_lines[victim].dirty {
            Some(self.cfg.unmap(set, set_lines[victim].tag))
        } else {
            None
        };
        for l in set_lines.iter_mut() {
            if l.valid {
                l.age = l.age.saturating_add(1);
            }
        }
        set_lines[victim] = Line { valid: true, dirty: write, tag, age: 0 };
        Lookup::Miss { writeback }
    }

    fn flush_dirty(&mut self) -> Vec<u64> {
        let ways = self.cfg.ways;
        let cfg = self.cfg;
        let mut out = Vec::new();
        for set in 0..cfg.sets() {
            for l in &mut self.lines[set * ways..(set + 1) * ways] {
                if l.valid && l.dirty {
                    out.push(cfg.unmap(set, l.tag));
                    l.dirty = false;
                }
            }
        }
        out
    }
}

/// xorshift64: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Every render-cache geometry (Section 4 plus the modeled texture L1/L2)
/// and the extremes the constructor admits.
fn geometries() -> Vec<CacheConfig> {
    vec![
        CacheConfig { size_bytes: 4 * 64, ways: 2 }, // 2 sets x 2 ways
        CacheConfig { size_bytes: 64, ways: 1 },     // direct-mapped, one set
        CacheConfig::kb(8, 8),                       // other
        CacheConfig::kb(16, 8),                      // texture L1
        CacheConfig::kb(1, 16),                      // vertex index: one set
        CacheConfig::kb(16, 16),                     // stencil
        CacheConfig::kb(64, 16),                     // texture L2
        CacheConfig::kb(12, 24),                     // HiZ
        CacheConfig::kb(24, 24),                     // render target
        CacheConfig::kb(32, 32),                     // Z
        CacheConfig::kb(384, 48),                    // texture L3
        CacheConfig::kb(16, 128),                    // vertex
        CacheConfig { size_bytes: 2 * 255 * 64, ways: 255 },
    ]
}

/// Drives both caches with `n` accesses mixing set-local reuse, a hot
/// working set and cold blocks (some with high tag bits), and asserts
/// they agree at every step and at every periodic flush.
fn check(cfg: CacheConfig, seed: u64, n: usize) {
    let mut rng = Rng(seed | 1);
    let mut fast = LruCache::new(cfg);
    let mut reference = ReferenceLru::new(cfg);
    let blocks = cfg.blocks() as u64;
    let sets = cfg.sets() as u64;
    let mut recent = Vec::new();
    let mut writebacks = 0usize;
    for i in 0..n {
        let block = match rng.below(8) {
            // Reuse of a recently touched block: mostly hits.
            0..=2 if !recent.is_empty() => recent[rng.below(recent.len() as u64) as usize],
            // A footprint about twice the capacity: LRU evictions.
            3..=5 => rng.below(2 * blocks + 1),
            // One set hammered past its associativity.
            6 => (rng.below(cfg.ways as u64 + 2) * sets) | (seed % sets),
            // Cold blocks anywhere in the address space.
            _ => rng.next() >> 6,
        };
        if recent.len() < 64 {
            recent.push(block);
        } else {
            recent[i % 64] = block;
        }
        let write = rng.below(3) == 0;
        let got = fast.access(block, write);
        let want = reference.access(block, write);
        assert_eq!(got, want, "{cfg:?} seed {seed}: access {i} (block {block:#x}, write {write})");
        writebacks += usize::from(matches!(got, Lookup::Miss { writeback: Some(_) }));
        if i % 4099 == 4098 {
            let flushed = fast.flush_dirty();
            assert_eq!(flushed, reference.flush_dirty(), "{cfg:?} seed {seed}: flush {i}");
            writebacks += flushed.len();
        }
    }
    assert_eq!(fast.hits(), reference.hits, "{cfg:?} seed {seed}: hits");
    assert_eq!(fast.misses(), reference.misses, "{cfg:?} seed {seed}: misses");
    assert!(fast.hits() > 0 && fast.misses() > 0, "{cfg:?}: traffic exercised one path only");
    assert!(writebacks > 0, "{cfg:?} seed {seed}: no dirty block ever left the cache");
    assert_eq!(fast.flush_dirty(), reference.flush_dirty(), "{cfg:?} seed {seed}: final flush");
    assert!(fast.flush_dirty().is_empty());
}

#[test]
fn matches_reference_at_every_render_cache_geometry() {
    for cfg in geometries() {
        for seed in [1, 7919, 0x9E37_79B9_7F4A_7C15] {
            check(cfg, seed, 20_000);
        }
    }
}

#[test]
fn all_ones_block_is_cached_like_any_other() {
    // In a one-set cache the tag is the whole block address, so block
    // `u64::MAX` has the tag that marks an invalid way: it must still miss
    // first, then hit, then age out like any other block.
    for cfg in [CacheConfig::kb(1, 16), CacheConfig { size_bytes: 64, ways: 1 }] {
        let mut fast = LruCache::new(cfg);
        let mut reference = ReferenceLru::new(cfg);
        let mut trace = vec![(u64::MAX, false), (u64::MAX, true), (3, false), (u64::MAX, false)];
        trace.extend((0..40).map(|b| (b, b % 2 == 0)));
        trace.extend([(u64::MAX, false), (u64::MAX, false)]);
        for (i, &(block, write)) in trace.iter().enumerate() {
            let want = reference.access(block, write);
            assert_eq!(fast.access(block, write), want, "{cfg:?}: access {i} (block {block:#x})");
        }
        assert_eq!(fast.flush_dirty(), reference.flush_dirty(), "{cfg:?}");
    }
}
