//! Differential test of the FR-FCFS scheduler: `DramSim::run` against a
//! reference implementation that keeps the straightforward bookkeeping —
//! a per-channel `VecDeque` of request indices, rescanned (and every
//! request re-decomposed by division) at every scheduling step. Both must
//! produce the same `DramStats`, field for field and bit for bit, on
//! seeded streams covering the arrival shapes, read/write mixes, refresh
//! settings and geometries the model supports.

use std::collections::VecDeque;

use grdram::{DramSim, DramStats, Request, TimingParams};

/// FR-FCFS window size of the reference scheduler.
const WINDOW: usize = 16;

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    ready_ns: f64,
}

#[derive(Debug, Clone)]
struct Channel {
    banks: Vec<BankState>,
    bus_free_ns: f64,
    busy_ns: f64,
    last_was_write: bool,
    next_refresh_ns: f64,
}

fn decompose(p: &TimingParams, block: u64) -> (usize, usize, u64) {
    let channel = (block as usize) & (p.channels - 1);
    let col_blocks = p.row_bytes / 64; // blocks per row
    let after_ch = block >> p.channels.trailing_zeros();
    let bank = ((after_ch / col_blocks) as usize) & (p.banks - 1);
    let row = after_ch / col_blocks / p.banks as u64;
    (channel, bank, row)
}

/// The reference scheduler: per-channel queues, a full window rescan and
/// a fresh `decompose` per candidate at every step.
fn reference_run(p: TimingParams, requests: &[Request]) -> DramStats {
    let mut stats = DramStats::default();
    if requests.is_empty() {
        return stats;
    }
    let mut channels: Vec<Channel> = (0..p.channels)
        .map(|_| Channel {
            banks: vec![BankState { open_row: None, ready_ns: 0.0 }; p.banks],
            bus_free_ns: 0.0,
            busy_ns: 0.0,
            last_was_write: false,
            next_refresh_ns: if p.t_refi_ns > 0.0 { p.t_refi_ns } else { f64::MAX },
        })
        .collect();
    // Per-channel pending queues of (index into requests).
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); p.channels];
    for (i, r) in requests.iter().enumerate() {
        if i > 0 {
            assert!(
                r.arrival_ns >= requests[i - 1].arrival_ns,
                "requests must be sorted by arrival"
            );
        }
        let (ch, _, _) = decompose(&p, r.block);
        queues[ch].push(i);
    }

    let burst_ns = f64::from(p.burst_clocks()) * p.tck_ns;
    let mut total_latency = 0.0;
    for (ch_idx, queue) in queues.iter().enumerate() {
        let ch = &mut channels[ch_idx];
        let mut pending: VecDeque<usize> = queue.iter().copied().collect();
        while let Some(&oldest) = pending.front() {
            let now = ch.bus_free_ns.max(requests[oldest].arrival_ns);
            // FR-FCFS with write batching: prefer a row hit among the
            // arrived window; failing that, a request that keeps the
            // bus direction (controllers group reads and writes to
            // amortize turnarounds); finally the oldest.
            let mut chosen_pos = 0;
            let mut same_dir: Option<usize> = None;
            let mut found_hit = false;
            for (pos, &ri) in pending.iter().take(WINDOW).enumerate() {
                let r = &requests[ri];
                if r.arrival_ns > now {
                    break;
                }
                let (_, bank, row) = decompose(&p, r.block);
                if ch.banks[bank].open_row == Some(row) {
                    chosen_pos = pos;
                    found_hit = true;
                    break;
                }
                if same_dir.is_none() && r.write == ch.last_was_write {
                    same_dir = Some(pos);
                }
            }
            if !found_hit {
                if let Some(pos) = same_dir {
                    chosen_pos = pos;
                }
            }
            let ri = pending.remove(chosen_pos).expect("chosen request exists");
            let r = &requests[ri];
            let (_, bank, row) = decompose(&p, r.block);
            // Rank-wide refresh: when the refresh deadline passes, all
            // banks stall for tRFC and every row closes.
            while now >= ch.next_refresh_ns {
                let rfc_ns = f64::from(p.t_rfc) * p.tck_ns;
                let refresh_start = ch.next_refresh_ns.max(ch.bus_free_ns);
                for b in &mut ch.banks {
                    b.open_row = None;
                    b.ready_ns = b.ready_ns.max(refresh_start + rfc_ns);
                }
                ch.next_refresh_ns += p.t_refi_ns;
                stats.refreshes += 1;
            }
            let bank_state = &mut ch.banks[bank];
            // `ready_ns` is when the bank can accept its next command;
            // the CAS latency pipelines behind the data bursts.
            let issue = r.arrival_ns.max(bank_state.ready_ns);
            let (access_ns, hit) = if bank_state.open_row == Some(row) {
                (f64::from(p.t_cas) * p.tck_ns, true)
            } else {
                (f64::from(p.t_rp + p.t_rcd + p.t_cas) * p.tck_ns, false)
            };
            // Switching the bus between reads and writes pays a
            // turnaround penalty.
            let turnaround = if ch.last_was_write != r.write && ch.busy_ns > 0.0 {
                stats.turnarounds += 1;
                f64::from(p.t_turnaround) * p.tck_ns
            } else {
                0.0
            };
            let data_start = (issue + access_ns).max(ch.bus_free_ns + turnaround);
            let done = data_start + burst_ns;
            bank_state.open_row = Some(row);
            bank_state.ready_ns = if hit {
                issue + burst_ns
            } else {
                issue + f64::from(p.t_rp + p.t_rcd) * p.tck_ns + burst_ns
            };
            // Writes hold the bank for the write-recovery window.
            if r.write {
                bank_state.ready_ns = bank_state.ready_ns.max(done + f64::from(p.t_wr) * p.tck_ns);
            }
            ch.last_was_write = r.write;
            ch.bus_free_ns = done;
            ch.busy_ns += burst_ns;
            total_latency += done - r.arrival_ns;
            if hit {
                stats.row_hits += 1;
            } else {
                stats.row_misses += 1;
            }
            if r.write {
                stats.writes += 1;
            } else {
                stats.reads += 1;
            }
            stats.makespan_ns = stats.makespan_ns.max(done);
        }
    }
    stats.busy_ns = channels.iter().map(|c| c.busy_ns).fold(0.0, f64::max);
    stats.avg_latency_ns = total_latency / requests.len() as f64;
    stats
}

/// SplitMix64 — a tiny deterministic generator for test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// How arrival times advance from one request to the next.
#[derive(Debug, Clone, Copy)]
enum Arrivals {
    /// Every request at time zero: the back-to-back replay of
    /// `grgpu::time_frame`.
    AllZero,
    /// Gaps comparable to a service time, so the tail of the window is
    /// often still in the future.
    Spaced,
    /// Runs of simultaneous requests separated by long idle gaps (which
    /// also cross refresh deadlines).
    Bursts,
}

/// A seeded stream of `len` requests: addresses mix a few hot rows (row
/// hits and conflicts) with random blocks; `write_pct` percent are
/// writebacks.
fn stream(rng: &mut Rng, len: usize, write_pct: u64, arrivals: Arrivals) -> Vec<Request> {
    let hot: Vec<u64> = (0..6).map(|_| rng.below(1 << 22)).collect();
    let mut t = 0.0;
    (0..len)
        .map(|_| {
            let block = if rng.below(4) == 0 {
                rng.below(1 << 24)
            } else {
                hot[rng.below(hot.len() as u64) as usize] + rng.below(256)
            };
            let write = rng.below(100) < write_pct;
            match arrivals {
                AllZero => {}
                Spaced => t += rng.f64() * 12.0,
                Bursts => {
                    if rng.below(24) == 0 {
                        t += 500.0 + rng.f64() * 20_000.0;
                    }
                }
            }
            Request { block, write, arrival_ns: t }
        })
        .collect()
}

use Arrivals::*;

fn assert_identical(p: TimingParams, reqs: &[Request], case: &str) {
    let want = reference_run(p, reqs);
    let got = DramSim::new(p).run(reqs);
    let fields = |s: &DramStats| {
        [
            s.reads,
            s.writes,
            s.row_hits,
            s.row_misses,
            s.avg_latency_ns.to_bits(),
            s.busy_ns.to_bits(),
            s.makespan_ns.to_bits(),
            s.refreshes,
            s.turnarounds,
        ]
    };
    assert_eq!(fields(&got), fields(&want), "{case}: {got:?} != reference {want:?}");
}

/// Every combination of arrival shape, write share, refresh setting and
/// DDR3 preset, on lengths below the window and far above it.
#[test]
fn matches_reference_across_shapes_mixes_and_presets() {
    let mut rng = Rng(0x5EED_0001);
    let mut checked = 0;
    for preset in [TimingParams::ddr3_1600(), TimingParams::ddr3_1867()] {
        for refresh in [true, false] {
            let mut p = preset;
            if !refresh {
                p.t_refi_ns = 0.0;
            }
            for arrivals in [AllZero, Spaced, Bursts] {
                for write_pct in [0, 30, 100] {
                    for len in [1, 5, 15, 16, 17, 3000] {
                        let reqs = stream(&mut rng, len, write_pct, arrivals);
                        let case = format!(
                            "{} refresh={refresh} {arrivals:?} writes={write_pct}% len={len}",
                            p.name
                        );
                        assert_identical(p, &reqs, &case);
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 2 * 2 * 3 * 3 * 6);
}

/// Channel and bank counts other than the presets' 2 × 8.
#[test]
fn matches_reference_across_geometries() {
    let mut rng = Rng(0x5EED_0002);
    for channels in [1, 2, 4] {
        for banks in [4, 8, 16] {
            for arrivals in [AllZero, Spaced, Bursts] {
                let mut p = TimingParams::ddr3_1600();
                p.channels = channels;
                p.banks = banks;
                let reqs = stream(&mut rng, 2500, 30, arrivals);
                let case = format!("channels={channels} banks={banks} {arrivals:?}");
                assert_identical(p, &reqs, &case);
            }
        }
    }
}

/// A long back-to-back stream with the measured Fig 15 mix (about 78%
/// row hits, 31% writes) — the shape `time_frame` replays.
#[test]
fn matches_reference_on_a_long_back_to_back_stream() {
    let mut rng = Rng(0x5EED_0003);
    let reqs = stream(&mut rng, 60_000, 31, AllZero);
    assert_identical(TimingParams::ddr3_1600(), &reqs, "long back-to-back");
}

#[test]
fn empty_input_matches_reference() {
    assert_identical(TimingParams::ddr3_1600(), &[], "empty");
}
