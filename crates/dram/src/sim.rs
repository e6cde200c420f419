//! FR-FCFS DRAM request scheduling and timing.
//!
//! Each channel is scheduled on its own, over the channel's requests in
//! arrival order. The scheduler sees a window of the 16 oldest pending
//! requests and picks the first arrived one whose row is open in its bank;
//! failing that, the first arrived one that keeps the bus direction;
//! failing that, the oldest.
//!
//! The window is kept incrementally. A request is decomposed into its
//! page (bank and row) once, when it enters the window, and the window
//! holds `u32` bitmasks over its slots: `hit` (the slot's row is open),
//! `write`, and one mask per bank. Each pick is then a lowest-set-bit
//! lookup. Arrivals are sorted, so the arrived slots form a prefix, found
//! in O(1) when the newest slot has arrived. Removing a slot shifts the
//! masks down past it; a refresh clears `hit`; opening a row in bank B
//! re-derives `hit` for bank B's slots only. The arithmetic and its order
//! are those of a full window rescan per step, so `DramStats` is
//! bit-identical to it (`tests/scheduler_oracle.rs` checks this against a
//! reference rescanning scheduler).

use crate::TimingParams;

/// One 64-byte memory request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Cache-block address (64 B granularity).
    pub block: u64,
    /// `true` for a writeback, `false` for a demand read.
    pub write: bool,
    /// Arrival time at the memory controller, in nanoseconds.
    pub arrival_ns: f64,
}

/// Aggregate results of a DRAM simulation run.
#[derive(Debug, Clone, Default)]
pub struct DramStats {
    /// Demand reads serviced.
    pub reads: u64,
    /// Writebacks serviced.
    pub writes: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that needed precharge + activate.
    pub row_misses: u64,
    /// Mean request latency (arrival to last data beat) in nanoseconds.
    pub avg_latency_ns: f64,
    /// Time the busiest channel's data bus was occupied, in nanoseconds.
    pub busy_ns: f64,
    /// Completion time of the last request, in nanoseconds.
    pub makespan_ns: f64,
    /// Rank-wide refreshes performed (tREFI cadence).
    pub refreshes: u64,
    /// Read/write bus turnarounds paid.
    pub turnarounds: u64,
}

impl DramStats {
    /// Row-hit rate across all serviced requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Delivered bandwidth in bytes per nanosecond.
    pub fn bandwidth(&self) -> f64 {
        if self.makespan_ns == 0.0 {
            0.0
        } else {
            ((self.reads + self.writes) * 64) as f64 / self.makespan_ns
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_page: Option<u64>,
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

/// FR-FCFS window size (requests considered for row-hit reordering).
const WINDOW: usize = 16;

/// Most banks per channel: one slot mask per bank lives in a fixed array.
const MAX_BANKS: usize = 32;

/// A pending request in the scheduling window, decomposed once on entry.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    arrival_ns: f64,
    /// The block's address bits above channel and column: the bank in the
    /// low bits, the row above them.
    page: u64,
}

/// One channel's FR-FCFS window: up to [`WINDOW`] pending requests in
/// arrival order, plus bitmasks over their slots (bit `s` is slot `s`).
struct Window {
    slots: [Entry; WINDOW],
    len: usize,
    banks: usize,
    /// Slots whose row is open in their bank.
    hit: u32,
    /// Slots holding a writeback.
    write: u32,
    /// Per bank, the slots mapped to it.
    bank_slots: [u32; MAX_BANKS],
}

/// `mask` with bit `k` deleted and every higher bit moved down one.
fn remove_bit(mask: u32, k: usize) -> u32 {
    let below = (1u32 << k) - 1;
    (mask & below) | ((mask >> 1) & !below)
}

impl Window {
    fn new(banks: usize) -> Self {
        Window {
            slots: [Entry::default(); WINDOW],
            len: 0,
            banks,
            hit: 0,
            write: 0,
            bank_slots: [0; MAX_BANKS],
        }
    }

    fn push(&mut self, entry: Entry, bank: usize, write: bool, open_page: Option<u64>) {
        let bit = 1u32 << self.len;
        self.slots[self.len] = entry;
        self.len += 1;
        self.bank_slots[bank] |= bit;
        if write {
            self.write |= bit;
        }
        if open_page == Some(entry.page) {
            self.hit |= bit;
        }
    }

    /// Slots that have arrived by `now`. Arrivals are sorted, so this is
    /// a prefix; slot 0 is always in it.
    fn arrived(&self, now: f64) -> u32 {
        let all = (1u32 << self.len) - 1;
        if self.slots[self.len - 1].arrival_ns <= now {
            return all;
        }
        let first_late =
            (1..self.len).find(|&s| self.slots[s].arrival_ns > now).unwrap_or(self.len);
        (1u32 << first_late) - 1
    }

    /// Removes slot `k`, returning it and whether it was a write.
    fn take(&mut self, k: usize) -> (Entry, bool) {
        let entry = self.slots[k];
        let write = self.write & (1 << k) != 0;
        self.slots.copy_within(k + 1..self.len, k);
        self.len -= 1;
        self.hit = remove_bit(self.hit, k);
        self.write = remove_bit(self.write, k);
        for m in &mut self.bank_slots[..self.banks] {
            *m = remove_bit(*m, k);
        }
        (entry, write)
    }

    /// Re-derives the hit bits of `bank`'s slots after it opened `page`.
    fn open(&mut self, bank: usize, page: u64) {
        let mut slots = self.bank_slots[bank];
        self.hit &= !slots;
        while slots != 0 {
            let s = slots.trailing_zeros() as usize;
            if self.slots[s].page == page {
                self.hit |= 1 << s;
            }
            slots &= slots - 1;
        }
    }
}

/// A dual-channel, multi-bank DDR3 timing simulator.
///
/// Requests are distributed to channels and banks by address bits; within
/// each channel a small window is scanned for row hits before falling back
/// to the oldest request (first-ready, first-come-first-served).
#[derive(Debug, Clone)]
pub struct DramSim {
    params: TimingParams,
    /// log2 of `params.channels`.
    channel_bits: u32,
    /// log2 of the blocks per row.
    column_bits: u32,
}

impl DramSim {
    /// Creates a simulator with the given timing parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `channels`, `banks` and the blocks per row
    /// (`row_bytes / 64`) are powers of two, and `banks` is at most 32:
    /// requests map to channels, banks and rows by address bits.
    pub fn new(params: TimingParams) -> Self {
        assert!(params.channels.is_power_of_two(), "channels must be a power of two");
        assert!(
            params.banks.is_power_of_two() && params.banks <= MAX_BANKS,
            "banks must be a power of two no larger than {MAX_BANKS}"
        );
        let col_blocks = params.row_bytes / 64;
        assert!(col_blocks.is_power_of_two(), "row_bytes / 64 must be a power of two");
        DramSim {
            params,
            channel_bits: params.channels.trailing_zeros(),
            column_bits: col_blocks.trailing_zeros(),
        }
    }

    /// The timing parameters in force.
    pub fn params(&self) -> TimingParams {
        self.params
    }

    /// The page (bank and row) of `block` within its channel.
    fn page(&self, block: u64) -> u64 {
        block >> self.channel_bits >> self.column_bits
    }

    /// Services `requests` (must be sorted by `arrival_ns`) and returns
    /// aggregate statistics.
    ///
    /// Each channel walks `requests` once; see the module docs for the
    /// window bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not monotonically non-decreasing.
    pub fn run(&mut self, requests: &[Request]) -> DramStats {
        let p = self.params;
        let mut stats = DramStats::default();
        if requests.is_empty() {
            return stats;
        }
        let mut channels: Vec<Channel> = (0..p.channels)
            .map(|_| Channel {
                banks: vec![BankState { open_page: None, ready_ns: 0.0 }; p.banks],
                bus_free_ns: 0.0,
                busy_ns: 0.0,
                last_was_write: false,
                next_refresh_ns: if p.t_refi_ns > 0.0 { p.t_refi_ns } else { f64::MAX },
            })
            .collect();

        let burst_ns = f64::from(p.burst_clocks()) * p.tck_ns;
        let channel_mask = p.channels as u64 - 1;
        let bank_mask = p.banks - 1;
        let mut total_latency = 0.0;
        for (ch_idx, ch) in channels.iter_mut().enumerate() {
            let mut last_arrival = f64::NEG_INFINITY;
            let mut incoming = requests.iter().filter(|r| {
                assert!(r.arrival_ns >= last_arrival, "requests must be sorted by arrival");
                last_arrival = r.arrival_ns;
                (r.block & channel_mask) as usize == ch_idx
            });
            let mut window = Window::new(p.banks);
            let mut refill = |window: &mut Window, banks: &[BankState]| {
                while window.len < WINDOW {
                    let Some(r) = incoming.next() else { break };
                    let page = self.page(r.block);
                    let bank = (page as usize) & bank_mask;
                    let entry = Entry { arrival_ns: r.arrival_ns, page };
                    window.push(entry, bank, r.write, banks[bank].open_page);
                }
            };
            refill(&mut window, &ch.banks);
            while window.len > 0 {
                let now = ch.bus_free_ns.max(window.slots[0].arrival_ns);
                // FR-FCFS with write batching: prefer a row hit among the
                // arrived window; failing that, a request that keeps the
                // bus direction (controllers group reads and writes to
                // amortize turnarounds); finally the oldest.
                let arrived = window.arrived(now);
                let same_dir = if ch.last_was_write { window.write } else { !window.write };
                let pick = if window.hit & arrived != 0 {
                    window.hit & arrived
                } else {
                    same_dir & arrived
                };
                let chosen = if pick != 0 { pick.trailing_zeros() as usize } else { 0 };
                let (r, write) = window.take(chosen);
                // Rank-wide refresh: when the refresh deadline passes, all
                // banks stall for tRFC and every row closes.
                while now >= ch.next_refresh_ns {
                    let rfc_ns = f64::from(p.t_rfc) * p.tck_ns;
                    let refresh_start = ch.next_refresh_ns.max(ch.bus_free_ns);
                    for b in &mut ch.banks {
                        b.open_page = None;
                        b.ready_ns = b.ready_ns.max(refresh_start + rfc_ns);
                    }
                    ch.next_refresh_ns += p.t_refi_ns;
                    stats.refreshes += 1;
                    window.hit = 0;
                }
                let bank = (r.page as usize) & bank_mask;
                let bank_state = &mut ch.banks[bank];
                // `ready_ns` is when the bank can accept its next command;
                // the CAS latency pipelines behind the data bursts.
                let issue = r.arrival_ns.max(bank_state.ready_ns);
                let (access_ns, hit) = if bank_state.open_page == Some(r.page) {
                    (f64::from(p.t_cas) * p.tck_ns, true)
                } else {
                    (f64::from(p.t_rp + p.t_rcd + p.t_cas) * p.tck_ns, false)
                };
                // Switching the bus between reads and writes pays a
                // turnaround penalty.
                let turnaround = if ch.last_was_write != write && ch.busy_ns > 0.0 {
                    stats.turnarounds += 1;
                    f64::from(p.t_turnaround) * p.tck_ns
                } else {
                    0.0
                };
                let data_start = (issue + access_ns).max(ch.bus_free_ns + turnaround);
                let done = data_start + burst_ns;
                bank_state.open_page = Some(r.page);
                bank_state.ready_ns = if hit {
                    issue + burst_ns
                } else {
                    issue + f64::from(p.t_rp + p.t_rcd) * p.tck_ns + burst_ns
                };
                // Writes hold the bank for the write-recovery window.
                if write {
                    bank_state.ready_ns =
                        bank_state.ready_ns.max(done + f64::from(p.t_wr) * p.tck_ns);
                }
                if !hit {
                    window.open(bank, r.page);
                }
                ch.last_was_write = write;
                ch.bus_free_ns = done;
                ch.busy_ns += burst_ns;
                total_latency += done - r.arrival_ns;
                if hit {
                    stats.row_hits += 1;
                } else {
                    stats.row_misses += 1;
                }
                if write {
                    stats.writes += 1;
                } else {
                    stats.reads += 1;
                }
                stats.makespan_ns = stats.makespan_ns.max(done);
                refill(&mut window, &ch.banks);
            }
        }
        stats.busy_ns = channels.iter().map(|c| c.busy_ns).fold(0.0, f64::max);
        stats.avg_latency_ns = total_latency / requests.len() as f64;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(blocks: &[u64], spacing_ns: f64) -> Vec<Request> {
        blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| Request { block: b, write: false, arrival_ns: i as f64 * spacing_ns })
            .collect()
    }

    #[test]
    fn empty_run() {
        let mut sim = DramSim::new(TimingParams::ddr3_1600());
        let stats = sim.run(&[]);
        assert_eq!(stats.reads + stats.writes, 0);
    }

    #[test]
    fn sequential_blocks_hit_open_rows() {
        // Blocks 0..64 within one row per channel: first access per
        // channel misses, the rest hit.
        let mut sim = DramSim::new(TimingParams::ddr3_1600());
        let stats = sim.run(&reads(&(0..64).collect::<Vec<_>>(), 100.0));
        assert_eq!(stats.row_misses, 2); // one per channel
        assert_eq!(stats.row_hits, 62);
        assert!(stats.row_hit_rate() > 0.9);
    }

    #[test]
    fn row_conflicts_pay_full_latency() {
        // Alternate between two rows of the same bank of one channel.
        let p = TimingParams::ddr3_1600();
        let row_stride_blocks = (p.row_bytes / 64) * p.banks as u64 * p.channels as u64;
        let blocks: Vec<u64> = (0..32).map(|i| (i % 2) * row_stride_blocks).collect();
        let mut sim = DramSim::new(p);
        let stats = sim.run(&reads(&blocks, 1000.0));
        assert_eq!(stats.row_hits, 0);
        assert!(stats.avg_latency_ns >= p.row_miss_ns());
    }

    #[test]
    fn faster_dram_is_faster() {
        let blocks: Vec<u64> = (0..1000).map(|i| i * 17).collect();
        let slow = DramSim::new(TimingParams::ddr3_1600()).run(&reads(&blocks, 2.0));
        let fast = DramSim::new(TimingParams::ddr3_1867()).run(&reads(&blocks, 2.0));
        assert!(fast.avg_latency_ns < slow.avg_latency_ns);
        assert!(fast.makespan_ns < slow.makespan_ns);
    }

    #[test]
    fn bandwidth_saturates_under_load() {
        // Back-to-back row hits approach peak bandwidth.
        let p = TimingParams::ddr3_1600();
        let blocks: Vec<u64> = (0..10_000).collect();
        let stats = DramSim::new(p).run(&reads(&blocks, 0.0));
        assert!(stats.bandwidth() > 0.7 * p.peak_bandwidth());
        assert!(stats.bandwidth() <= p.peak_bandwidth() * 1.001);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        // Row A, row B (same bank), then row A again, all arrived: the
        // scheduler should service the second row-A request right after
        // the first, before switching to row B.
        let p = TimingParams::ddr3_1600();
        let row_stride = (p.row_bytes / 64) * p.banks as u64 * p.channels as u64;
        let reqs = vec![
            Request { block: 0, write: false, arrival_ns: 0.0 },
            Request { block: row_stride, write: false, arrival_ns: 0.0 },
            Request { block: 2, write: false, arrival_ns: 0.0 },
        ];
        let stats = DramSim::new(p).run(&reqs);
        assert_eq!(stats.row_hits, 1, "the second row-A access should hit");
    }

    #[test]
    fn writes_are_counted() {
        let reqs = vec![
            Request { block: 0, write: true, arrival_ns: 0.0 },
            Request { block: 1, write: false, arrival_ns: 1.0 },
        ];
        let stats = DramSim::new(TimingParams::ddr3_1600()).run(&reqs);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 1);
    }

    #[test]
    #[should_panic(expected = "banks must be a power of two")]
    fn non_power_of_two_banks_are_rejected() {
        DramSim::new(TimingParams { banks: 6, ..TimingParams::ddr3_1600() });
    }

    #[test]
    #[should_panic(expected = "banks must be a power of two")]
    fn too_many_banks_are_rejected() {
        DramSim::new(TimingParams { banks: 64, ..TimingParams::ddr3_1600() });
    }

    #[test]
    #[should_panic(expected = "channels must be a power of two")]
    fn zero_channels_are_rejected() {
        DramSim::new(TimingParams { channels: 0, ..TimingParams::ddr3_1600() });
    }

    #[test]
    #[should_panic(expected = "row_bytes / 64 must be a power of two")]
    fn non_power_of_two_rows_are_rejected() {
        DramSim::new(TimingParams { row_bytes: 6 * 1024, ..TimingParams::ddr3_1600() });
    }

    #[test]
    #[should_panic(expected = "requests must be sorted by arrival")]
    fn unsorted_arrivals_are_rejected() {
        let reqs = vec![
            Request { block: 0, write: false, arrival_ns: 5.0 },
            Request { block: 1, write: false, arrival_ns: 1.0 },
        ];
        DramSim::new(TimingParams::ddr3_1600()).run(&reqs);
    }

    #[test]
    fn channels_work_in_parallel() {
        // All-even blocks load one channel; even+odd spread across two.
        let even: Vec<u64> = (0..2000).map(|i| i * 2).collect();
        let spread: Vec<u64> = (0..2000).collect();
        let s1 = DramSim::new(TimingParams::ddr3_1600()).run(&reads(&even, 0.0));
        let s2 = DramSim::new(TimingParams::ddr3_1600()).run(&reads(&spread, 0.0));
        assert!(s2.makespan_ns < s1.makespan_ns * 0.7);
    }
}
