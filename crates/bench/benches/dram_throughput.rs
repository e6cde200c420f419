//! Microbenchmark: DDR3 timing-model throughput. Plain `Instant`-based
//! harness — the workspace builds offline with no benchmarking dependency.
//!
//! Three request shapes: spaced sequential and strided streams, and the
//! back-to-back shape `grgpu::time_frame` actually replays (every arrival
//! at 0, with the Fig 15 logs' measured mix of about 78% row hits and 31%
//! writes).
//!
//! Run with `cargo bench -p grbench --bench dram_throughput`.

use std::time::Instant;

use grdram::{DramSim, Request, TimingParams};

fn requests(n: u64, stride: u64) -> Vec<Request> {
    (0..n)
        .map(|i| Request {
            block: i.wrapping_mul(stride),
            write: i % 4 == 0,
            arrival_ns: i as f64 * 2.0,
        })
        .collect()
}

/// `n` back-to-back requests (all arriving at 0). Each one picks one of
/// eight row cursors, which first jumps to a random row with probability
/// 3/32; 5/16 of the requests are writes.
fn back_to_back(n: u64) -> Vec<Request> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut rows = [0u64; 8];
    (0..n)
        .map(|_| {
            let r = next();
            let cursor = (r & 7) as usize;
            if (r >> 3) & 31 < 3 {
                rows[cursor] = (r >> 16) & 0xF_FFFF;
            }
            let block = rows[cursor] * 256 + ((r >> 8) & 0xFF);
            Request { block, write: (r >> 40) & 15 < 5, arrival_ns: 0.0 }
        })
        .collect()
}

fn main() {
    let reqs_seq = requests(100_000, 1); // row-hit friendly
    let reqs_rand = requests(100_000, 977); // row-conflict heavy
    let reqs_b2b = back_to_back(100_000);
    let iters = 5u32;
    for (label, reqs) in
        [("sequential", &reqs_seq), ("strided", &reqs_rand), ("back-to-back", &reqs_b2b)]
    {
        let mut stats = Default::default();
        let started = Instant::now();
        for _ in 0..iters {
            stats = DramSim::new(TimingParams::ddr3_1600()).run(reqs);
        }
        let secs = started.elapsed().as_secs_f64();
        let served = reqs.len() as f64 * f64::from(iters);
        let grdram::DramStats { writes, makespan_ns, .. } = stats;
        println!(
            "dram/{label}: {:.1} ns/request, {:.0} requests/s (row hits {:.3}, writes {:.3}, \
             makespan {makespan_ns:.0} ns)",
            secs * 1e9 / served,
            served / secs,
            stats.row_hit_rate(),
            writes as f64 / reqs.len() as f64,
        );
    }
}
