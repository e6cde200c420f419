//! Phase-cost breakdown of the replay core, for tuning on a given host.
//!
//! ```text
//! cargo run --release -p grcache --example replay_profile
//! ```
//!
//! Times successively larger slices of the per-access work over the same
//! synthetic trace — address mapping alone, mapping plus the packed-mirror
//! probe, then full replays under both probe kinds (the scalar per-access
//! loop, and the batched AVX2 driver where the host has it) — so the
//! difference between consecutive lines is the cost of the added phase. The synthetic trace mixes a hot working set with streaming
//! conflict traffic, roughly the hit rate of a real frame.

use std::hint::black_box;
use std::time::Instant;

use grcache::{AccessInfo, Block, FillInfo, Llc, LlcConfig, Policy, ProbeKind};
use grtrace::{Access, StreamId, Trace};

/// NRU with the paper's single reference bit — representative of the
/// cheap end of the registry.
struct Nru;

impl Policy for Nru {
    fn name(&self) -> &str {
        "NRU"
    }
    fn state_bits_per_block(&self) -> u32 {
        1
    }
    fn on_hit(&mut self, _a: &AccessInfo, set: &mut [Block], way: usize) {
        set[way].meta = 1;
        if set.iter().all(|b| !b.valid || b.meta == 1) {
            for b in set.iter_mut() {
                b.meta = 0;
            }
            set[way].meta = 1;
        }
    }
    fn choose_victim(&mut self, _a: &AccessInfo, set: &mut [Block]) -> usize {
        set.iter().position(|b| b.meta == 0).unwrap_or(0)
    }
    fn on_fill(&mut self, _a: &AccessInfo, set: &mut [Block], way: usize) -> FillInfo {
        set[way].meta = 1;
        FillInfo::default()
    }
}

/// Callback-free policy: isolates the simulator body's own cost.
struct Nop;

impl Policy for Nop {
    fn name(&self) -> &str {
        "NOP"
    }
    fn state_bits_per_block(&self) -> u32 {
        0
    }
    fn on_hit(&mut self, _a: &AccessInfo, _set: &mut [Block], _way: usize) {}
    fn choose_victim(&mut self, _a: &AccessInfo, _set: &mut [Block]) -> usize {
        0
    }
    fn on_fill(&mut self, _a: &AccessInfo, _set: &mut [Block], _way: usize) -> FillInfo {
        FillInfo::default()
    }
}

fn synthetic_trace(len: usize) -> Trace {
    let mut out = Trace::new("synthetic", 0);
    let mut x = 0x9e3779b97f4a7c15u64;
    for i in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // ~80% of accesses revisit a 4096-block hot set; the rest stream.
        let block = if x % 10 < 8 { x % 4096 } else { 0x10_0000 + i as u64 };
        let stream = if x.is_multiple_of(4) { StreamId::RenderTarget } else { StreamId::Texture };
        let mut a = Access::load(block * 64, stream);
        a.write = x.is_multiple_of(8);
        out.push(a);
    }
    out
}

fn time_loop(label: &str, accesses: usize, mut f: impl FnMut() -> u64) {
    // Warmup, then best of three passes.
    f();
    let mut best = f64::MAX;
    for _ in 0..3 {
        let started = Instant::now();
        black_box(f());
        best = best.min(started.elapsed().as_secs_f64());
    }
    let rate = accesses as f64 / best;
    println!("{label:<28} {rate:>12.0} acc/s   {:>6.1} cyc/acc @2.1GHz", 2.1e9 / rate);
}

fn main() {
    let cfg = LlcConfig { size_bytes: 128 * 1024, ways: 16, banks: 4, sample_period: 64 };
    let geo = cfg.geometry();
    let trace = synthetic_trace(2_000_000);
    let n = trace.len();

    time_loop("map (fold+coords)", n, || {
        let mut acc = 0u64;
        for a in trace.iter() {
            let (bank, set, tag) = geo.map(a.block());
            acc = acc.wrapping_add(bank as u64 ^ set as u64 ^ tag);
        }
        acc
    });

    // A free-standing mirror with the same footprint as the real one: the
    // probe loop's loads and compares cost the same whether or not the
    // tags came from real fills.
    let tags: Vec<u64> =
        (0..cfg.total_blocks()).map(|i| (i as u64).wrapping_mul(0x9e37) % 4096).collect();
    time_loop("map+probe (warm mirror)", n, || {
        let mut acc = 0u64;
        for a in trace.iter() {
            let (bank, set, tag) = geo.map(a.block());
            let base = geo.set_base(bank, set);
            let mut eq = 0u64;
            for (i, &t) in tags[base..base + 16].iter().enumerate() {
                eq |= u64::from(t == tag) << i;
            }
            acc = acc.wrapping_add(eq);
        }
        acc
    });

    // Steady-state hit cost: 1024 blocks (half capacity) fit entirely, so
    // after the warmup pass inside time_loop every access hits.
    let mut hit_trace = Trace::new("hits", 0);
    let mut x = 1234567u64;
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        hit_trace.push(Access::load((x % 1024) * 64, StreamId::Texture));
    }
    let mut warm = Llc::new(cfg, Nru);
    warm.run_trace(&hit_trace, None);
    for kind in ProbeKind::all_available() {
        let label = format!("hit-only slice [{kind:?}]");
        let mut llc = Llc::new(cfg, Nru);
        llc.set_probe_kind(kind);
        llc.run_trace(&hit_trace, None);
        time_loop(&label, n, || {
            llc.run_trace(&hit_trace, None);
            llc.stats().total_hits()
        });
        let label = format!("hit-only nop-policy [{kind:?}]");
        let mut llc = Llc::new(cfg, Nop);
        llc.set_probe_kind(kind);
        llc.run_trace(&hit_trace, None);
        time_loop(&label, n, || {
            llc.run_trace(&hit_trace, None);
            llc.stats().total_hits()
        });
    }

    // Single accesses always take the per-access loop, whatever the kind.
    time_loop("access loop", n, || {
        let mut llc = Llc::new(cfg, Nru);
        let mut hits = 0u64;
        for a in trace.iter() {
            if matches!(llc.access(a), grcache::AccessResult::Hit) {
                hits += 1;
            }
        }
        hits
    });
    for kind in ProbeKind::all_available() {
        let label = format!("slice replay [{kind:?}]");
        time_loop(&label, n, || {
            let mut llc = Llc::new(cfg, Nru);
            llc.set_probe_kind(kind);
            llc.run_trace(&trace, None);
            llc.stats().total_hits()
        });
        let label = format!("slice nop-policy [{kind:?}]");
        time_loop(&label, n, || {
            let mut llc = Llc::new(cfg, Nop);
            llc.set_probe_kind(kind);
            llc.run_trace(&trace, None);
            llc.stats().total_hits()
        });
    }
}
