//! The banked, non-inclusive/non-exclusive LLC simulator.
//!
//! This is the offline LLC model of the paper: it digests the LLC load/store
//! access trace produced by the render-cache hierarchy and executes a
//! pluggable replacement [`Policy`]. A miss always fills the requested block
//! (unless the policy bypasses the access, as with uncached displayable
//! color); an eviction never invalidates the internal render caches.
//!
//! The simulator sits in the middle of the streaming pipeline: it pulls
//! from any [`AccessSource`] ([`Llc::run_source`]) — a materialized trace,
//! a chunked disk reader, or the renderer emitting band by band — and
//! pushes events into one composable [`LlcObserver`] chosen at
//! construction. The default [`NullObserver`] instantiation carries zero
//! per-access instrumentation branches.
//!
//! # The batched replay core
//!
//! Slice replays ([`Llc::run_trace`] / [`Llc::run_source`]) retire
//! accesses through a three-phase batch driver: a *map* phase computes
//! every slot's `(bank, set, tag)` coordinates and prefetches its mirror
//! words, a *probe* phase lane-compares the whole batch against the packed
//! mirror ([`crate::probe`]), and a *retire* phase consumes the slots
//! strictly in arrival order. Because the probe reads only the tag words
//! and validity mask, and a *fill* is the only event that writes them, the
//! up-front probes are exact unless an earlier access in the same batch
//! filled the same set — the retire phase tracks in-batch fills and
//! re-probes exactly those collided slots against the live mirror. The
//! result is bit-identical to the per-access loop for every policy and
//! observer: same stats, same memory-log order, same characterization.
//!
//! The batched driver runs where the host has AVX2 ([`ProbeKind::Avx2`]).
//! Everywhere else, and under [`Llc::set_probe_kind`] with
//! [`ProbeKind::Scalar`], slice replays run the per-access loop: the same
//! map, scalar probe and retire steps on one access at a time. Single
//! accesses ([`Llc::access`]) always take that loop, so every hit, miss,
//! bypass, eviction and fill rule lives in [`Llc::retire`] alone.

use std::io;

use grtrace::{Access, AccessSource, Chunk, Trace};

use crate::probe::{self, probe_batch, Slot};
use crate::{
    AccessInfo, Block, CharTracker, LlcConfig, LlcGeometry, LlcObserver, LlcStats, MemoryLog,
    NullObserver, Policy, ProbeKind, SetSnapshot,
};

/// Accesses retired per batch of the vectorized replay driver. Sixteen
/// slots keep the whole batch state in registers/L1 while giving the
/// probe sweep enough independent lanes to hide the mirror-load latency.
const BATCH: usize = 16;

/// Outcome of one LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The block was resident.
    Hit,
    /// The block was filled; `dirty_eviction` is `true` when a dirty block
    /// was displaced to memory.
    Miss {
        /// Whether the fill displaced a dirty block.
        dirty_eviction: bool,
    },
    /// The access went around the LLC (straight to memory).
    Bypass,
}

/// A banked last-level cache executing a replacement policy `P`.
///
/// # Data layout
///
/// The probe — the only work every access pays — runs over a packed probe
/// mirror: one `u64` tag word per way (`tags`) plus one validity bitmask
/// `u64` per set (`valid`). A 16-way set's tag words span two cache
/// lines, against the six lines of [`Block`] structs an
/// array-of-structs probe walks, and the compare is branchless: every
/// way's equality bit is OR-folded into a match mask, which vectorizes
/// and never mispredicts. Free-way selection on the miss path is a
/// single bit-scan of the inverted validity mask. The authoritative
/// per-way state stays in one flat [`Block`] array, so the policy
/// callbacks receive the stable `&mut [Block]` set slice with no
/// per-access marshalling — the adapter is the mirror itself, which the
/// simulator rewrites only on fills (the sole event that changes a way's
/// tag or validity).
///
/// # Example
///
/// ```
/// use grcache::{Llc, LlcConfig, AccessInfo, Block, FillInfo, Policy};
/// use grtrace::{Access, StreamId};
///
/// /// Evict way 0 always — a deliberately bad policy for the example.
/// struct Way0;
/// impl Policy for Way0 {
///     fn name(&self) -> &str { "WAY0" }
///     fn state_bits_per_block(&self) -> u32 { 0 }
///     fn on_hit(&mut self, _: &AccessInfo, _: &mut [Block], _: usize) {}
///     fn choose_victim(&mut self, _: &AccessInfo, _: &mut [Block]) -> usize { 0 }
///     fn on_fill(&mut self, _: &AccessInfo, _: &mut [Block], _: usize) -> FillInfo {
///         FillInfo::default()
///     }
/// }
///
/// let mut llc = Llc::new(LlcConfig::mb(8), Way0);
/// llc.access(&Access::load(0, StreamId::Texture));
/// llc.access(&Access::load(0, StreamId::Texture));
/// assert_eq!(llc.stats().total_hits(), 1);
/// ```
#[derive(Debug)]
pub struct Llc<P, O = NullObserver> {
    cfg: LlcConfig,
    /// Precomputed mapping constants — keeps the division in
    /// [`LlcConfig::sets_per_bank`] out of the per-access path.
    geo: LlcGeometry,
    policy: P,
    observer: O,
    /// Per-way tag words, probed before anything else is touched. A
    /// probe mirror of `blocks`, rewritten on fills only.
    tags: Vec<u64>,
    /// One validity bitmask per set (bit `w` = way `w` holds a block).
    valid: Vec<u64>,
    /// Authoritative per-way state — the policy-facing view.
    blocks: Vec<Block>,
    stats: LlcStats,
    seq: u64,
    /// Which tag-compare implementation services the probe, and whether
    /// slice replays run the batched driver.
    probe_kind: ProbeKind,
}

impl<P: Policy> Llc<P, NullObserver> {
    /// Creates an empty LLC running `policy` with no instrumentation — the
    /// zero-overhead configuration every plain miss sweep uses.
    pub fn new(cfg: LlcConfig, policy: P) -> Self {
        Llc::with_observer(cfg, policy, NullObserver)
    }

    /// Enables the characterization tracker (Figures 6, 7, 9 bookkeeping).
    pub fn with_characterization(self) -> Llc<P, CharTracker> {
        let chars = CharTracker::new(&self.cfg);
        self.replace_observer(chars)
    }

    /// Records every DRAM-bound transfer (miss fills and writebacks) so a
    /// memory timing model can replay them.
    pub fn with_memory_log(self) -> Llc<P, MemoryLog> {
        self.replace_observer(MemoryLog::new())
    }
}

impl<P: Policy, O: LlcObserver> Llc<P, O> {
    /// Creates an empty LLC running `policy` with `observer` attached as
    /// the event sink. Compose observers with tuples and `Option`s, e.g.
    /// `(Option<CharTracker>, Option<MemoryLog>)` for runtime-selected
    /// instrumentation.
    ///
    /// # Panics
    ///
    /// Panics if the configured associativity exceeds 64 ways (the per-set
    /// validity bitmask is a single `u64` word).
    pub fn with_observer(cfg: LlcConfig, policy: P, observer: O) -> Self {
        assert!(cfg.ways <= 64, "set bitmasks support at most 64 ways");
        Llc {
            cfg,
            geo: cfg.geometry(),
            policy,
            observer,
            tags: vec![0; cfg.total_blocks()],
            valid: vec![0; cfg.total_sets()],
            blocks: vec![Block::default(); cfg.total_blocks()],
            stats: LlcStats::new(),
            seq: 0,
            probe_kind: ProbeKind::best_available(),
        }
    }

    /// Swaps the observer type before any access has been serviced.
    fn replace_observer<O2: LlcObserver>(self, observer: O2) -> Llc<P, O2> {
        debug_assert_eq!(self.seq, 0, "observers must be attached before the first access");
        Llc {
            cfg: self.cfg,
            geo: self.geo,
            policy: self.policy,
            observer,
            tags: self.tags,
            valid: self.valid,
            blocks: self.blocks,
            stats: self.stats,
            seq: self.seq,
            probe_kind: self.probe_kind,
        }
    }

    /// The probe implementation servicing this instance.
    pub fn probe_kind(&self) -> ProbeKind {
        self.probe_kind
    }

    /// Selects the probe implementation — and, with [`ProbeKind::Scalar`],
    /// the per-access replay loop — overriding the host default
    /// ([`ProbeKind::best_available`]). Lets differential harnesses A/B the
    /// per-access and batched paths inside one process.
    ///
    /// # Panics
    ///
    /// Panics if any access has already been serviced, or if `kind` is not
    /// available on this host (e.g. [`ProbeKind::Avx2`] without AVX2).
    pub fn set_probe_kind(&mut self, kind: ProbeKind) {
        assert_eq!(self.seq, 0, "probe kind must be selected before the first access");
        assert!(kind.is_available(), "probe kind {kind:?} is unavailable on this host");
        self.probe_kind = kind;
    }

    /// The recorded DRAM-bound transfers, if an attached observer keeps
    /// them (see [`MemoryLog`]): `(block, is_write)` in issue order.
    pub fn memory_log(&self) -> Option<&[(u64, bool)]> {
        self.observer.memory_log()
    }

    /// The LLC geometry.
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// The policy, for inspection.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The attached observer, for inspection.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Characterization report, if an attached observer builds one (see
    /// [`CharTracker`]).
    pub fn characterization(&self) -> Option<&crate::CharReport> {
        self.observer.char_report()
    }

    /// Services one access with no next-use annotation.
    pub fn access(&mut self, access: &Access) -> AccessResult {
        self.access_annotated(access, u64::MAX)
    }

    /// Services one access carrying the trace position of the *next* access
    /// to the same block (`u64::MAX` if never; only Belady's policy uses it).
    pub fn access_annotated(&mut self, access: &Access, next_use: u64) -> AccessResult {
        // The paper's LLC is 16-way in every configuration; routing the
        // dominant associativity through a const-generic body gives the
        // probe and fill paths compile-time trip counts (full unroll). The
        // branch is on a loop-invariant field, so the predictor never
        // misses it.
        if self.cfg.ways == 16 {
            self.access_ways::<16>(access, next_use)
        } else {
            self.access_ways::<0>(access, next_use)
        }
    }

    /// The per-access path, specialized per associativity: `WAYS` is the
    /// compile-time way count, or 0 for the generic any-associativity
    /// instantiation. Map, scalar probe and retire on one access.
    #[inline]
    fn access_ways<const WAYS: usize>(&mut self, access: &Access, next_use: u64) -> AccessResult {
        let ways = if WAYS > 0 { WAYS } else { self.cfg.ways };
        let mut slot = self.map_access(access, next_use, ways);
        let base = slot.base as usize;
        slot.hit_mask = probe::probe_scalar(&self.tags[base..base + ways], slot.tag) & slot.vmask;
        self.retire::<WAYS>(&slot)
    }

    /// The map phase: decomposes one access into a probe [`Slot`]. Pure
    /// reads — the slot captures the validity mask as of now, which stays
    /// exact until a fill to the same set.
    #[inline(always)]
    fn map_access(&self, access: &Access, next_use: u64, ways: usize) -> Slot {
        let block = access.block();
        let (bank, set, tag) = self.geo.map(block);
        let set_idx = self.geo.set_index(bank, set);
        let base = set_idx * ways;
        Slot {
            block,
            tag,
            next_use,
            vmask: self.valid[set_idx],
            hit_mask: 0,
            bank: bank as u32,
            set_in_bank: set as u32,
            set_idx: set_idx as u32,
            base: base as u32,
            stream: access.stream,
            write: access.write,
        }
    }

    /// The retire phase: consumes one probed [`Slot`] — statistics, policy
    /// callbacks, observer events, and the fill's mirror rewrite. This is
    /// the only place the hit, miss, bypass, evict and fill rules live. The
    /// slot's `hit_mask` and `vmask` must reflect the mirror as of this
    /// call (the batch driver re-probes slots whose set was filled earlier
    /// in the batch).
    #[inline(always)]
    fn retire<const WAYS: usize>(&mut self, slot: &Slot) -> AccessResult {
        let ways = if WAYS > 0 { WAYS } else { self.cfg.ways };
        let set_idx = slot.set_idx as usize;
        let base = slot.base as usize;
        let info = AccessInfo {
            seq: self.seq,
            block: slot.block,
            bank: slot.bank as usize,
            set_in_bank: slot.set_in_bank as usize,
            stream: slot.stream,
            class: slot.stream.policy_class(),
            write: slot.write,
            is_sample: self.cfg.is_sample_set(slot.set_in_bank as usize),
            next_use: slot.next_use,
        };
        self.seq += 1;
        let next_use = slot.next_use;
        let vmask = slot.vmask;
        let hit_mask = slot.hit_mask;

        if hit_mask != 0 {
            let way = hit_mask.trailing_zeros() as usize;
            self.stats.record_hit(info.stream);
            let set_blocks = &mut self.blocks[base..base + ways];
            set_blocks[way].dirty |= info.write;
            set_blocks[way].next_use = next_use;
            self.observer.observe_hit(&info, way);
            self.policy.on_hit(&info, set_blocks, way);
            if O::WANTS_SET_STATE {
                self.observer.observe_set_state(
                    &info,
                    SetSnapshot {
                        tags: &self.tags[base..base + ways],
                        valid_mask: self.valid[set_idx],
                        blocks: &self.blocks[base..base + ways],
                        touched_way: way,
                        hit: true,
                    },
                );
            }
            return AccessResult::Hit;
        }

        self.stats.record_miss(info.stream);

        if self.policy.should_bypass(&info) {
            if info.write {
                self.stats.bypassed_writes += 1;
            } else {
                self.stats.bypassed_reads += 1;
            }
            self.observer.observe_bypass(&info);
            return AccessResult::Bypass;
        }

        // Fill the first free way (one bit-scan of the inverted validity
        // mask), else ask the policy for a victim.
        let free = (!vmask).trailing_zeros() as usize;
        let set_blocks = &mut self.blocks[base..base + ways];
        let mut dirty_eviction = false;
        let way = if free < ways {
            free
        } else {
            let victim = self.policy.choose_victim(&info, set_blocks);
            assert!(victim < ways, "victim out of range");
            self.policy.on_evict(&info, set_blocks, victim);
            self.stats.evictions += 1;
            dirty_eviction = set_blocks[victim].dirty;
            if dirty_eviction {
                self.stats.writebacks += 1;
            }
            // A writeback goes to the *victim's* address, rebuilt from
            // its tag and the shared (bank, set); the rebuild is only
            // paid when the attached observer declares it needs it.
            let victim_block = if O::NEEDS_VICTIM_ADDR {
                self.geo.unmap(info.bank, info.set_in_bank, self.tags[base + victim])
            } else {
                0
            };
            self.observer.observe_evict(&info, victim, victim_block, dirty_eviction);
            victim
        };

        // Install the block, let the policy initialize its state, then
        // refresh the probe mirror — a fill is the only event that changes
        // a way's tag or validity.
        set_blocks[way] = Block { valid: true, dirty: info.write, meta: 0, next_use };
        let fill = self.policy.on_fill(&info, set_blocks, way);
        self.tags[base + way] = slot.tag;
        self.valid[set_idx] |= 1 << way;
        self.stats.record_fill(info.class, fill.distant);
        self.observer.observe_fill(&info, way);
        if O::WANTS_SET_STATE {
            self.observer.observe_set_state(
                &info,
                SetSnapshot {
                    tags: &self.tags[base..base + ways],
                    valid_mask: self.valid[set_idx],
                    blocks: &self.blocks[base..base + ways],
                    touched_way: way,
                    hit: false,
                },
            );
        }
        AccessResult::Miss { dirty_eviction }
    }

    /// Flips one bit of the probe-mirror tag word currently holding
    /// `block`, returning `true` if the block was resident. **Test-only
    /// fault injection**: this desynchronizes the packed mirror from the
    /// authoritative [`Block`] array exactly the way a buggy fill-path
    /// refactor would, so the differential harness can prove it detects
    /// and shrinks such bugs. Never call it outside a checking harness.
    #[doc(hidden)]
    pub fn corrupt_mirror_tag_for_test(&mut self, block: u64) -> bool {
        let (bank, set, tag) = self.geo.map(block);
        let set_idx = self.geo.set_index(bank, set);
        let base = set_idx * self.cfg.ways;
        let vmask = self.valid[set_idx];
        for way in 0..self.cfg.ways {
            if vmask >> way & 1 == 1 && self.tags[base + way] == tag {
                self.tags[base + way] ^= 1;
                return true;
            }
        }
        false
    }

    /// Replays one access slice: the batched map-probe-retire driver under
    /// [`ProbeKind::Avx2`], the per-access loop under [`ProbeKind::Scalar`].
    /// Both retire in arrival order and are bit-identical (see the module
    /// docs for the argument).
    fn run_slice<const WAYS: usize>(&mut self, accesses: &[Access], next_uses: Option<&[u64]>) {
        if self.probe_kind == ProbeKind::Scalar {
            match next_uses {
                Some(nu) => {
                    for (a, &next) in accesses.iter().zip(nu) {
                        self.access_ways::<WAYS>(a, next);
                    }
                }
                None => {
                    for a in accesses {
                        self.access_ways::<WAYS>(a, u64::MAX);
                    }
                }
            }
            return;
        }

        let ways = if WAYS > 0 { WAYS } else { self.cfg.ways };
        let kind = self.probe_kind;
        let mut slots = [Slot::placeholder(); BATCH];
        let mut start = 0usize;
        while start < accesses.len() {
            let n = BATCH.min(accesses.len() - start);
            // Map phase: every slot's address math and mirror prefetch,
            // up front. The chains are independent, so the loads overlap
            // instead of serializing behind each retire.
            for (i, a) in accesses[start..start + n].iter().enumerate() {
                let next = next_uses.map_or(u64::MAX, |nu| nu[start + i]);
                let s = self.map_access(a, next, ways);
                // Pull the mirror and block words the probe and retire
                // phases will touch; the batch gives the lines time to
                // arrive before they are demanded.
                probe::prefetch_read(&self.tags[s.base as usize]);
                probe::prefetch_read(&self.blocks[s.base as usize]);
                slots[i] = s;
            }
            // Probe phase: one lane-compare sweep over the whole batch.
            probe_batch(kind, &self.tags, ways, &mut slots[..n]);
            // Retire phase, strictly in arrival order. Only a fill
            // rewrites a set's mirror words, so a slot's up-front probe
            // is exact unless an earlier access in this batch filled the
            // same set — those slots re-probe against the live mirror.
            // Collision tracking over-approximates with a one-word bloom
            // over the set index: a false positive only triggers a
            // redundant re-probe of the live mirror, which is always
            // exact, so results stay bit-identical while the retire loop
            // pays one bit test instead of a list scan per slot.
            let mut filled_bloom = 0u64;
            for s in &mut slots[..n] {
                if filled_bloom & (1u64 << (s.set_idx & 63)) != 0 {
                    let base = s.base as usize;
                    s.vmask = self.valid[s.set_idx as usize];
                    s.hit_mask =
                        probe::probe_set(kind, &self.tags[base..base + ways], s.tag) & s.vmask;
                }
                if matches!(self.retire::<WAYS>(s), AccessResult::Miss { .. }) {
                    filled_bloom |= 1u64 << (s.set_idx & 63);
                }
            }
            start += n;
        }
    }

    /// Routes a slice replay through the dominant-associativity
    /// const-generic body (see [`Llc::access_annotated`]).
    fn dispatch_slice(&mut self, accesses: &[Access], next_uses: Option<&[u64]>) {
        if self.cfg.ways == 16 {
            self.run_slice::<16>(accesses, next_uses)
        } else {
            self.run_slice::<0>(accesses, next_uses)
        }
    }

    /// Replays a whole trace. When `next_uses` is provided it must have one
    /// entry per access (see [`crate::annotate_next_use`]).
    ///
    /// # Panics
    ///
    /// Panics if `next_uses` is provided with a length different from the
    /// trace.
    pub fn run_trace(&mut self, trace: &Trace, next_uses: Option<&[u64]>) {
        if let Some(nu) = next_uses {
            assert_eq!(nu.len(), trace.len(), "annotation length mismatch");
        }
        self.dispatch_slice(trace.accesses(), next_uses);
    }

    /// Drains an [`AccessSource`] through the LLC, chunk by chunk, and
    /// returns the number of accesses serviced. Each chunk runs through
    /// the same slice driver as [`Llc::run_trace`], so streamed and
    /// materialized replays are bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from disk-backed sources; in-memory and
    /// synthesized sources never fail.
    pub fn run_source<S: AccessSource>(&mut self, source: &mut S) -> io::Result<u64> {
        let mut serviced = 0u64;
        while source.advance()? {
            let Chunk { accesses, next_uses } = source.chunk();
            serviced += accesses.len() as u64;
            if let Some(nu) = next_uses {
                debug_assert_eq!(nu.len(), accesses.len(), "annotation length mismatch");
            }
            self.dispatch_slice(accesses, next_uses);
        }
        Ok(serviced)
    }

    /// Consumes the LLC, returning `(stats, policy)`.
    pub fn into_parts(self) -> (LlcStats, P) {
        (self.stats, self.policy)
    }

    /// Consumes the LLC, returning the attached observer.
    pub fn into_observer(self) -> O {
        self.observer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FillInfo;
    use grtrace::StreamId;

    /// LRU-by-sequence policy for testing the simulator plumbing.
    struct TestLru {
        tick: u32,
    }

    impl Policy for TestLru {
        fn name(&self) -> &str {
            "TEST-LRU"
        }
        fn state_bits_per_block(&self) -> u32 {
            32
        }
        fn on_hit(&mut self, _a: &AccessInfo, set: &mut [Block], way: usize) {
            set[way].meta = self.tick;
            self.tick += 1;
        }
        fn choose_victim(&mut self, _a: &AccessInfo, set: &mut [Block]) -> usize {
            set.iter().enumerate().min_by_key(|(_, b)| b.meta).map(|(i, _)| i).unwrap()
        }
        fn on_fill(&mut self, _a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
            set[way].meta = self.tick;
            self.tick += 1;
            FillInfo::rrip(2, 3)
        }
    }

    fn small_llc() -> Llc<TestLru> {
        // 4 banks x 2 sets x 2 ways = 16 blocks = 1 KB.
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        Llc::new(cfg, TestLru { tick: 0 })
    }

    /// Block addresses that land in bank 0, set 0 of `small_llc`.
    fn conflicting_blocks(n: u64) -> Vec<u64> {
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        (0..10_000u64)
            .filter(|&b| {
                let (bank, set, _) = cfg.map(b);
                (bank, set) == (0, 0)
            })
            .take(n as usize)
            .collect()
    }

    #[test]
    fn fill_then_hit() {
        let mut llc = small_llc();
        let a = Access::load(0, StreamId::Texture);
        assert!(matches!(llc.access(&a), AccessResult::Miss { .. }));
        assert_eq!(llc.access(&a), AccessResult::Hit);
        assert_eq!(llc.stats().hits(StreamId::Texture), 1);
        assert_eq!(llc.stats().misses(StreamId::Texture), 1);
    }

    #[test]
    fn capacity_eviction_uses_policy() {
        let mut llc = small_llc();
        for b in conflicting_blocks(3) {
            llc.access(&Access::load(b * 64, StreamId::Z));
        }
        // Block 0 was LRU and must be gone; block 8 and 16 resident.
        assert!(matches!(llc.access(&Access::load(0, StreamId::Z)), AccessResult::Miss { .. }));
        assert_eq!(llc.stats().evictions, 2); // block 0 evicted, then block 8
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut llc = small_llc();
        let blocks = conflicting_blocks(3);
        llc.access(&Access::store(blocks[0] * 64, StreamId::RenderTarget));
        llc.access(&Access::load(blocks[1] * 64, StreamId::RenderTarget));
        match llc.access(&Access::load(blocks[2] * 64, StreamId::RenderTarget)) {
            AccessResult::Miss { dirty_eviction } => assert!(dirty_eviction),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(llc.stats().writebacks, 1);
    }

    #[test]
    fn writeback_logs_victim_address() {
        let mut llc = small_llc().with_memory_log();
        let blocks = conflicting_blocks(3);
        // Dirty the first two blocks (filling both ways of the set), then
        // force an eviction with a third conflicting load.
        llc.access(&Access::store(blocks[0] * 64, StreamId::RenderTarget));
        llc.access(&Access::store(blocks[1] * 64, StreamId::RenderTarget));
        llc.access(&Access::load(blocks[2] * 64, StreamId::RenderTarget));
        let writebacks: Vec<u64> =
            llc.memory_log().unwrap().iter().filter(|(_, write)| *write).map(|(b, _)| *b).collect();
        // TestLru evicts blocks[0]; the logged writeback must carry the
        // victim's own address, not the incoming block's.
        assert_eq!(writebacks, vec![blocks[0]]);
        assert_ne!(blocks[0], blocks[2]);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut llc = small_llc();
        let blocks = conflicting_blocks(3);
        llc.access(&Access::load(blocks[0] * 64, StreamId::Z));
        llc.access(&Access::store(blocks[0] * 64, StreamId::Z)); // hit, dirties
        llc.access(&Access::load(blocks[1] * 64, StreamId::Z));
        llc.access(&Access::load(blocks[2] * 64, StreamId::Z)); // evicts block 0
        assert_eq!(llc.stats().writebacks, 1);
    }

    #[test]
    fn characterization_hooks_fire() {
        let mut llc = small_llc().with_characterization();
        llc.access(&Access::store(0, StreamId::RenderTarget));
        llc.access(&Access::load(0, StreamId::Texture));
        let report = llc.characterization().unwrap();
        assert_eq!(report.rt_produced, 1);
        assert_eq!(report.rt_consumed, 1);
    }

    #[test]
    fn run_trace_matches_manual_replay() {
        let mut t = Trace::new("t", 0);
        for i in 0..100u64 {
            t.push(Access::load((i % 7) * 64, StreamId::Texture));
        }
        let mut a = small_llc();
        a.run_trace(&t, None);
        let mut b = small_llc();
        for acc in t.iter() {
            b.access(acc);
        }
        assert_eq!(a.stats().total_hits(), b.stats().total_hits());
        assert_eq!(a.stats().total_misses(), b.stats().total_misses());
    }

    #[test]
    #[should_panic(expected = "annotation length mismatch")]
    fn run_trace_rejects_bad_annotations() {
        let mut t = Trace::new("t", 0);
        t.push(Access::load(0, StreamId::Z));
        small_llc().run_trace(&t, Some(&[]));
    }

    #[test]
    fn sample_set_flag_follows_config() {
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        assert!(cfg.is_sample_set(0));
        assert!(!cfg.is_sample_set(1));
    }

    #[test]
    fn run_source_matches_run_trace() {
        let mut t = Trace::new("t", 0);
        for i in 0..500u64 {
            t.push(Access::load((i % 23) * 64, StreamId::Texture));
        }
        let mut a = small_llc();
        a.run_trace(&t, None);
        let mut b = small_llc();
        let n = b.run_source(&mut t.source()).unwrap();
        assert_eq!(n, 500);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn run_source_carries_annotations() {
        let mut t = Trace::new("t", 0);
        for i in 0..100u64 {
            t.push(Access::load((i % 5) * 64, StreamId::Z));
        }
        let nu = crate::annotate_next_use(t.accesses());
        let mut a = small_llc();
        a.run_trace(&t, Some(&nu));
        let mut b = small_llc();
        b.run_source(&mut t.source_annotated(&nu)).unwrap();
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn streamed_memory_log_is_bit_identical() {
        let mut t = Trace::new("t", 0);
        for i in 0..300u64 {
            let addr = ((i * 7) % 40) * 64;
            t.push(if i % 3 == 0 {
                Access::store(addr, StreamId::RenderTarget)
            } else {
                Access::load(addr, StreamId::Texture)
            });
        }
        let mut a = small_llc().with_memory_log();
        a.run_trace(&t, None);
        let mut b = small_llc().with_memory_log();
        b.run_source(&mut t.source()).unwrap();
        assert_eq!(a.memory_log(), b.memory_log());
        assert!(!a.memory_log().unwrap().is_empty());
    }

    #[test]
    fn invariant_observer_passes_clean_replay() {
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        let obs = crate::InvariantObserver::new(&cfg, 32);
        let mut llc = Llc::with_observer(cfg, TestLru { tick: 0 }, obs);
        for i in 0..500u64 {
            let addr = ((i * 13) % 40) * 64;
            if i % 4 == 0 {
                llc.access(&Access::store(addr, StreamId::RenderTarget));
            } else {
                llc.access(&Access::load(addr, StreamId::Texture));
            }
        }
        assert_eq!(llc.observer().checked(), 500);
    }

    /// A policy whose metadata overruns its declared one-bit budget.
    struct MetaHog;
    impl Policy for MetaHog {
        fn name(&self) -> &str {
            "META-HOG"
        }
        fn state_bits_per_block(&self) -> u32 {
            1
        }
        fn on_hit(&mut self, _a: &AccessInfo, _s: &mut [Block], _w: usize) {}
        fn choose_victim(&mut self, _a: &AccessInfo, _s: &mut [Block]) -> usize {
            0
        }
        fn on_fill(&mut self, _a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
            set[way].meta = 5; // needs 3 bits, declared 1
            FillInfo::default()
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the declared")]
    fn invariant_observer_catches_meta_overrun() {
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        let obs = crate::InvariantObserver::new(&cfg, 1);
        let mut llc = Llc::with_observer(cfg, MetaHog, obs);
        llc.access(&Access::load(0, StreamId::Texture));
    }

    #[test]
    fn mirror_fault_injector_flips_resident_tag_only() {
        let mut llc = small_llc();
        llc.access(&Access::load(0, StreamId::Texture));
        assert!(!llc.corrupt_mirror_tag_for_test(999_999));
        assert!(llc.corrupt_mirror_tag_for_test(0));
        // The mirror no longer matches block 0: the re-access misses.
        assert!(matches!(
            llc.access(&Access::load(0, StreamId::Texture)),
            AccessResult::Miss { .. }
        ));
    }

    /// A conflict-heavy mixed trace: same-set bursts (so in-batch fills
    /// collide with later probes of the same set) plus spread traffic.
    fn conflict_trace(len: u64) -> Trace {
        let blocks = conflicting_blocks(6);
        let mut t = Trace::new("conflicts", 0);
        for i in 0..len {
            let addr =
                if i % 3 == 0 { blocks[(i % 5) as usize] * 64 } else { ((i * 13) % 397) * 64 };
            t.push(if i % 4 == 0 {
                Access::store(addr, StreamId::RenderTarget)
            } else {
                Access::load(addr, StreamId::Texture)
            });
        }
        t
    }

    /// Every probe kind's batched replay is bit-identical to the scalar
    /// unbatched loop — stats and memory-log order — including in-batch
    /// same-set fills that force the retire-phase re-probe.
    #[test]
    fn batched_replay_matches_scalar_for_all_kinds() {
        let t = conflict_trace(3_000);
        let nu = crate::annotate_next_use(t.accesses());
        for annotated in [false, true] {
            let next_uses = annotated.then_some(nu.as_slice());
            let mut reference = small_llc().with_memory_log();
            reference.set_probe_kind(ProbeKind::Scalar);
            reference.run_trace(&t, next_uses);
            for kind in ProbeKind::all_available() {
                let mut llc = small_llc().with_memory_log();
                llc.set_probe_kind(kind);
                llc.run_trace(&t, next_uses);
                assert_eq!(llc.stats(), reference.stats(), "{kind:?} annotated={annotated}");
                assert_eq!(
                    llc.memory_log(),
                    reference.memory_log(),
                    "{kind:?} annotated={annotated}"
                );
            }
        }
    }

    /// The 16-way const-generic body (the paper's associativity, with the
    /// specialized AVX2 batch probe) is bit-identical across kinds too.
    #[test]
    fn batched_replay_matches_scalar_at_16_ways() {
        // 4 banks x 2 sets x 16 ways = 8 KB: tiny enough to evict.
        let cfg = LlcConfig { size_bytes: 8192, ways: 16, banks: 4, sample_period: 2 };
        let t = conflict_trace(4_000);
        let mut reference = Llc::new(cfg, TestLru { tick: 0 }).with_memory_log();
        reference.set_probe_kind(ProbeKind::Scalar);
        reference.run_trace(&t, None);
        assert!(reference.stats().evictions > 0, "trace must exercise the victim path");
        for kind in ProbeKind::all_available() {
            let mut llc = Llc::new(cfg, TestLru { tick: 0 }).with_memory_log();
            llc.set_probe_kind(kind);
            llc.run_trace(&t, None);
            assert_eq!(llc.stats(), reference.stats(), "{kind:?}");
            assert_eq!(llc.memory_log(), reference.memory_log(), "{kind:?}");
        }
    }

    /// Names one way past the end of the set as its victim.
    struct OutOfRangeVictim;
    impl Policy for OutOfRangeVictim {
        fn name(&self) -> &str {
            "OUT-OF-RANGE"
        }
        fn state_bits_per_block(&self) -> u32 {
            0
        }
        fn on_hit(&mut self, _a: &AccessInfo, _s: &mut [Block], _w: usize) {}
        fn choose_victim(&mut self, _a: &AccessInfo, set: &mut [Block]) -> usize {
            set.len()
        }
        fn on_evict(&mut self, _a: &AccessInfo, _s: &mut [Block], way: usize) {
            panic!("on_evict reached with way {way}");
        }
        fn on_fill(&mut self, _a: &AccessInfo, _s: &mut [Block], _w: usize) -> FillInfo {
            FillInfo::default()
        }
    }

    /// An out-of-range victim is caught before the policy's `on_evict`
    /// sees it, in release builds too, on every path the host can run.
    #[test]
    #[should_panic(expected = "victim out of range")]
    fn out_of_range_victim_panics_under_every_kind() {
        let t = conflict_trace(64);
        let replay = |kind| {
            let mut llc = Llc::new(small_llc().config(), OutOfRangeVictim);
            llc.set_probe_kind(kind);
            llc.run_trace(&t, None);
        };
        let kinds = ProbeKind::all_available();
        let (&last, rest) = kinds.split_last().expect("scalar is always available");
        for &kind in rest {
            let err = std::panic::catch_unwind(|| replay(kind))
                .expect_err("an out-of-range victim must panic");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(msg.contains("victim out of range"), "{kind:?} panicked with {msg:?}");
        }
        replay(last);
    }

    #[test]
    #[should_panic(expected = "before the first access")]
    fn probe_kind_is_fixed_after_first_access() {
        let mut llc = small_llc();
        llc.access(&Access::load(0, StreamId::Texture));
        llc.set_probe_kind(ProbeKind::Scalar);
    }

    #[test]
    fn composed_observer_collects_both_sinks() {
        let cfg = LlcConfig { size_bytes: 1024, ways: 2, banks: 4, sample_period: 2 };
        let obs = (CharTracker::new(&cfg), MemoryLog::new());
        let mut llc = Llc::with_observer(cfg, TestLru { tick: 0 }, obs);
        llc.access(&Access::store(0, StreamId::RenderTarget));
        llc.access(&Access::load(0, StreamId::Texture));
        assert_eq!(llc.characterization().unwrap().rt_consumed, 1);
        assert_eq!(llc.memory_log().unwrap().len(), 1); // the fill
    }
}
