//! Microbenchmark: cold-frame synthesis and Belady annotation cost.
//!
//! The shape of perfledger's `cold-frames` workload on one thread: frame 0
//! of all 12 application profiles plus the 5 built-in frame-graph profiles
//! at quarter scale. Each round synthesizes every frame (pipeline modeling
//! plus render-cache filtering) and then runs the offline next-use
//! annotation that enables Belady's OPT over every trace. Prints the median
//! round's cost per LLC access for both. Plain `Instant`-based harness —
//! the workspace builds offline with no benchmarking dependency.
//!
//! ```bash
//! cargo bench -q -p grbench --bench synth_throughput
//! ```

use std::hint::black_box;
use std::time::Instant;

use grcache::annotate_next_use;
use grsynth::{AppProfile, FrameRenderer, GraphRenderer, Scale, Trace, GRAPH_PROFILES};

const ROUNDS: usize = 5;

fn synthesize_all() -> Vec<Trace> {
    let scale = Scale::Quarter;
    let mut traces: Vec<Trace> =
        AppProfile::all().iter().map(|app| FrameRenderer::new(app, 0, scale).render()).collect();
    for p in GRAPH_PROFILES {
        traces.push(GraphRenderer::new(&p.graph(), 0, scale).render());
    }
    traces
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let mut synth_s = Vec::new();
    let mut annotate_s = Vec::new();
    let mut accesses = 0usize;
    let mut frames = 0usize;
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let traces = black_box(synthesize_all());
        synth_s.push(started.elapsed().as_secs_f64());

        let started = Instant::now();
        for t in &traces {
            black_box(annotate_next_use(black_box(t.accesses())));
        }
        annotate_s.push(started.elapsed().as_secs_f64());
        accesses = traces.iter().map(Trace::len).sum();
        frames = traces.len();
    }
    let ns = |s: f64| 1e9 * s / accesses as f64;
    println!(
        "synth/cold_frames_quarter: {:.1} ns per LLC access ({frames} frames, {accesses} accesses, median of {ROUNDS})",
        ns(median(synth_s))
    );
    println!("optgen/annotate_next_use: {:.1} ns per access", ns(median(annotate_s)));
}
