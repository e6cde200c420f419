//! `grbench` — the tracked microbenchmark front end.
//!
//! ```text
//! grbench perf                                   # default sweep -> BENCH_replay.json
//! grbench perf --policies NRU,SRRIP --min-secs 1
//! grbench perf --scales tiny
//! grbench perf --baseline BENCH_baseline.json    # regression gate (exit 1)
//! ```
//!
//! `perf` times the LLC replay loop per policy through three modes —
//! scalar-pinned mono (the per-access loop), default-kind mono (the
//! batched driver where the host has AVX2), and the boxed fallback — on
//! cached synthesized frames at every requested scale, and
//! writes the rates to a JSON document (see [`grbench::perfbench`]). With
//! `--baseline` it compares the normalized per-policy rates (mono *and*
//! scalar path, per scale) against a committed run and exits non-zero
//! when anything regresses more than the tolerance.
//!
//! Honours `GR_TRACE_CACHE`; run with `GR_THREADS=1` for the least noisy
//! numbers (the benchmark itself is single-threaded).

use grbench::perfbench::{self, scale_name, PerfOptions};
use grbench::{json::Json, ExperimentConfig};
use grsynth::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: grbench perf [--policies A,B,...] [--app APP] [--frame N] [--mb MB]\n\
         \x20                [--min-secs S] [--scales tiny,quarter,...]\n\
         \x20                [--out PATH] [--baseline PATH] [--tolerance F]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("perf") => perf(&args[1..]),
        _ => usage(),
    }
}

fn perf(args: &[String]) {
    let mut opts = PerfOptions::default_sweep();
    let mut out_path = "BENCH_replay.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut tolerance = 0.25f64;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--policies" => {
                opts.policies = value().split(',').map(|s| s.trim().to_string()).collect();
            }
            "--app" => opts.app = value(),
            "--frame" => opts.frame = value().parse().unwrap_or_else(|_| usage()),
            "--mb" => opts.llc_paper_mb = value().parse().unwrap_or_else(|_| usage()),
            "--min-secs" => opts.min_secs = value().parse().unwrap_or_else(|_| usage()),
            "--scales" => {
                opts.scales = value()
                    .split(',')
                    .map(|s| Scale::from_name(s.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--out" => out_path = value(),
            "--baseline" => baseline_path = Some(value()),
            "--tolerance" => tolerance = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }

    let cfg = ExperimentConfig::from_env();
    let report = perfbench::run(&opts, &cfg);
    let doc = report.to_json(&perfbench::git_rev());

    for sr in &report.scales {
        println!("[{}] {} accesses/replay", scale_name(sr.scale), sr.accesses_per_replay);
        let line = |name: &str, scalar: f64, mono: f64, boxed: f64| {
            println!(
                "  {:<12} scalar {:>11.0}   mono {:>11.0}   boxed {:>11.0}   simd {:.2}x",
                name,
                scalar,
                mono,
                boxed,
                if scalar > 0.0 { mono / scalar } else { 0.0 },
            );
        };
        for rate in &sr.rates {
            line(&rate.name, rate.scalar, rate.mono, rate.boxed);
        }
        line("geomean", sr.geomean_scalar(), sr.geomean_mono(), sr.geomean_boxed());
    }

    std::fs::write(&out_path, doc.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let baseline =
            Json::parse(&text).unwrap_or_else(|e| panic!("parsing baseline {path}: {e}"));
        match report.check_against_baseline(&baseline, tolerance) {
            Ok(()) => println!("baseline check passed ({path}, tolerance {tolerance})"),
            Err(failures) => {
                for f in &failures {
                    eprintln!("REGRESSION: {f}");
                }
                std::process::exit(1);
            }
        }
    }
}
