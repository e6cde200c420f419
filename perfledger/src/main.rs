//! `perfledger` — the repository's host-time benchmark.
//!
//! ```text
//! perfledger --workload NAME --seed N --seconds S --trace 0|1 [--grserved PATH]
//! ```
//!
//! Runs one workload for `S` seconds of measurement after its set-up,
//! checks every operation, and prints as its last stdout line one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics for `--trace 0`, the per-layer metrics for
//! `--trace 1`. The line before it is the digest of every simulated
//! statistic. A traced run also writes its per-layer self-time table and
//! its spans under `.perfledger/`. See `README.md` beside this crate.

mod measure;
mod served;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use measure::{median, quantile, ratio};
use trace::{LayerTimes, Tracer};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub grserved: Option<PathBuf>,
    pub threads: usize,
    pub out_dir: PathBuf,
}

/// Named per-layer counters, summed over traced iterations.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_default() += v;
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    /// Wall time of each untraced operation (iteration or job).
    pub walls: Vec<f64>,
    /// Wall time of each traced operation.
    pub traced_walls: Vec<f64>,
    /// CPU seconds per untraced operation.
    pub cpu: Vec<f64>,
    /// Untraced operations completed and the seconds they took.
    pub ops: u64,
    pub busy_s: f64,
    /// Simulated LLC accesses those operations replayed.
    pub accesses: u64,
    pub peak_rss_mb: f64,
    pub counters: Counters,
    pub spans: Option<Tracer>,
    pub digest: Vec<(String, String)>,
}

const WORKLOADS: [&str; 4] = ["policy-sweep", "cold-frames", "fig15-exact", "served-jobs"];

/// Layers that own spans, in report order; `unattributed` is the part of
/// an iteration no layer span covers.
const LAYERS: [&str; 9] = [
    "grsynth",
    "framecache",
    "belady",
    "llc",
    "grdram",
    "grgpu",
    "grserve",
    "grjson",
    "unattributed",
];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut grserved) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds must be a number")?)
            }
            "--trace" => trace = Some(value()? == "1"),
            "--grserved" => grserved = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        grserved,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir: PathBuf::from(".perfledger"),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfledger: {e}");
            std::process::exit(2);
        }
    };
    // The program reads these knobs from the environment; the benchmark
    // pins every one of them by leaving it unset (threads come from the
    // run options it builds).
    for knob in [
        "GR_SCALE",
        "GR_FRAMES",
        "GR_THREADS",
        "GR_TRACE_CACHE",
        "GR_STREAMED",
        "GR_STREAM_CHUNK",
        "GR_BOXED",
        "GR_CHECK",
        "GR_SIMD",
        "GR_RESULT_CACHE",
    ] {
        std::env::remove_var(knob);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfledger: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let run = match args.workload.as_str() {
        "policy-sweep" => Ok(sim::run(sim::Kind::PolicySweep, &args)),
        "cold-frames" => Ok(sim::run(sim::Kind::ColdFrames, &args)),
        "fig15-exact" => Ok(sim::run(sim::Kind::Fig15Exact, &args)),
        _ => served::run(&args),
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfledger: {e}");
            std::process::exit(1);
        }
    };
    let metrics = if args.trace { per_layer(&args, &run) } else { end_to_end(&run) };
    report(&args, &run, &metrics);
}

type Metric = (String, f64, &'static str);

fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        ("setup_s".into(), median(&run.setup_s), "s"),
        ("wall_s".into(), median(&run.walls), "s"),
        ("ops_per_s".into(), ratio(run.ops as f64, run.busy_s), "1/s"),
        ("cpu_s".into(), median(&run.cpu), "s"),
        ("llc_accesses_per_s".into(), ratio(run.accesses as f64, run.busy_s), "1/s"),
        ("peak_rss_mb".into(), run.peak_rss_mb, "MiB"),
    ]
}

/// Per-layer metrics. Counts and busy times are per traced iteration on
/// the simulation workloads; on served-jobs the `grserve` counts are
/// window totals and the `grjson` figures are per-job medians.
fn per_layer(args: &Args, run: &Run) -> Vec<Metric> {
    let c = &run.counters;
    let times = LayerTimes::from_spans(run.spans.as_ref().map_or(&[], |t| t.spans()));
    let iters = c.get("iterations").max(1.0);
    let per = |k: &str| c.get(k) / iters;
    let busy = |l: &str| times.busy_per_iter(l);
    let ns_per = |l: &str, k: &str| ratio(busy(l) * 1e9, per(k));
    let mut m: Vec<Metric> = vec![
        ("grsynth.busy_s".into(), busy("grsynth"), "s"),
        ("grsynth.frames".into(), per("grsynth.frames"), "count"),
        ("grsynth.raw_accesses".into(), per("grsynth.raw_accesses"), "count"),
        ("grsynth.llc_accesses".into(), per("grsynth.llc_accesses"), "count"),
        (
            "grsynth.filter_ratio".into(),
            ratio(c.get("grsynth.llc_accesses"), c.get("grsynth.raw_accesses")),
            "ratio",
        ),
        ("grsynth.ns_per_llc_access".into(), ns_per("grsynth", "grsynth.llc_accesses"), "ns"),
        ("framecache.lookups".into(), per("framecache.lookups"), "count"),
        ("framecache.renders".into(), per("framecache.renders"), "count"),
        (
            "framecache.hit_ratio".into(),
            if c.get("framecache.lookups") > 0.0 {
                1.0 - ratio(c.get("framecache.renders"), c.get("framecache.lookups"))
            } else {
                0.0
            },
            "ratio",
        ),
        ("belady.busy_s".into(), busy("belady"), "s"),
        ("belady.accesses".into(), per("belady.accesses"), "count"),
        ("belady.ns_per_access".into(), ns_per("belady", "belady.accesses"), "ns"),
        ("llc.busy_s".into(), busy("llc"), "s"),
        ("llc.accesses".into(), per("llc.accesses"), "count"),
        ("llc.misses".into(), per("llc.misses"), "count"),
        ("llc.writebacks".into(), per("llc.writebacks"), "count"),
        ("llc.hit_rate".into(), ratio(c.get("llc.hits"), c.get("llc.accesses")), "ratio"),
    ];
    for e in gspc::registry::ALL_POLICIES {
        let p = sim::metric_name(e.name);
        let rate = ratio(c.get(&format!("llc.{p}.accesses")), c.get(&format!("llc.{p}.ns")) / 1e9);
        m.push((format!("llc.{p}.accesses_per_s"), rate, "1/s"));
    }
    m.extend([
        ("runner.threads".into(), c.get("runner.threads"), "count"),
        ("runner.cell_s".into(), c.get("runner.cell_s"), "s"),
        ("runner.parallel_efficiency".into(), c.get("runner.parallel_efficiency"), "ratio"),
        ("runner.merge_s".into(), c.get("runner.merge_s"), "s"),
        ("grdram.busy_s".into(), busy("grdram"), "s"),
        ("grdram.requests".into(), per("grdram.requests"), "count"),
        (
            "grdram.write_share".into(),
            ratio(c.get("grdram.writes"), c.get("grdram.requests")),
            "ratio",
        ),
        (
            "grdram.row_hit_rate".into(),
            ratio(c.get("grdram.row_hits"), c.get("grdram.row_total")),
            "ratio",
        ),
        ("grdram.ns_per_request".into(), ns_per("grdram", "grdram.requests"), "ns"),
        ("grgpu.busy_s".into(), busy("grgpu"), "s"),
        ("grgpu.frames".into(), per("grgpu.frames"), "count"),
        (
            "grgpu.sim_fps".into(),
            ratio(c.get("grgpu.frames") * 1e9, c.get("grgpu.frame_ns")),
            "1/s",
        ),
    ]);
    for k in [
        "grserve.jobs",
        "grserve.executions",
        "grserve.result_cache_hits",
        "grserve.coalesced",
        "grserve.rejected",
        "grserve.http_requests",
    ] {
        m.push((k.into(), c.get(k), "count"));
    }
    m.extend([
        ("grserve.http_s".into(), c.get("grserve.http_s"), "s"),
        ("grserve.job_p50_s".into(), c.get("grserve.job_p50_s"), "s"),
        ("grserve.job_p90_s".into(), c.get("grserve.job_p90_s"), "s"),
        ("grserve.replay_accesses".into(), c.get("grserve.replay_accesses"), "count"),
        ("grserve.polls_per_job".into(), c.get("grserve.polls_per_job"), "count"),
        ("grserve.poll_done_ratio".into(), c.get("grserve.poll_done_ratio"), "ratio"),
        ("grjson.parse_s".into(), c.get("grjson.parse_s"), "s"),
        ("grjson.payload_bytes".into(), c.get("grjson.payload_bytes"), "bytes"),
    ]);
    for layer in LAYERS {
        m.push((format!("{layer}.self_share"), times.share(layer), "ratio"));
    }
    let (traced, untraced) = (median(&run.traced_walls), median(&run.walls));
    m.extend([
        ("trace.wall_s".into(), traced, "s"),
        ("trace.untraced_wall_s".into(), untraced, "s"),
        ("trace.overhead".into(), ratio(traced, untraced), "ratio"),
    ]);
    write_trace_files(args, &times, &m, run);
    m
}

/// Writes the self-time table and the spans under `.perfledger/` (never
/// into a `grart` artifact tree, so wall-clock data stays out of the
/// deterministic artifacts).
fn write_trace_files(args: &Args, times: &LayerTimes, metrics: &[Metric], run: &Run) {
    let stem = args.out_dir.join(format!("{}-seed{}", args.workload, args.seed));
    let total: f64 = times.self_s.values().sum();
    let mut table = String::from("{\n  \"layers\": {\n");
    let rows: Vec<String> = LAYERS
        .iter()
        .map(|l| {
            let s = times.self_s.get(l).copied().unwrap_or(0.0);
            format!(
                "    \"{l}\": {{\"self_s\": {s}, \"share\": {}, \"busy_s\": {}}}",
                ratio(s, total),
                times.busy_s.get(l).copied().unwrap_or(0.0)
            )
        })
        .collect();
    table.push_str(&rows.join(",\n"));
    let _ = write!(table, "\n  }},\n  \"traced_iterations\": {},\n", times.iterations);
    let metric_rows: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("    \"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    let _ = write!(table, "  \"metrics\": {{\n{}\n  }}\n}}\n", metric_rows.join(",\n"));
    let spans = run.spans.as_ref().map_or(String::new(), |t| trace::spans_jsonl(t.spans()));
    for (path, text) in
        [(stem.with_extension("trace.json"), table), (stem.with_extension("spans.jsonl"), spans)]
    {
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfledger: cannot write {}: {e}", path.display());
        }
    }
}

/// Prints the human-readable report on stderr, the digest line and the
/// result line on stdout.
fn report(args: &Args, run: &Run, metrics: &[Metric]) {
    if run.attempted == 0 {
        eprintln!("perfledger: no operation completed");
        std::process::exit(1);
    }
    eprintln!(
        "perfledger: {} seed {} trace {}: {} ops, {} checked, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.walls.len() + run.traced_walls.len(),
        run.attempted,
        run.failed
    );
    let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|&p| format!("p{}={:.4}", (p * 100.0) as u32, quantile(&run.walls, p)))
        .collect();
    eprintln!("  untraced op wall (s), {} samples: {}", run.walls.len(), q.join(" "));
    for (name, value, unit) in metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    let digest: Vec<String> = run.digest.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
    println!(
        "{{\"digest\": {{\"workload\": \"{}\", \"seed\": {}, {}}}}}",
        args.workload,
        args.seed,
        digest.join(", ")
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted,
        run.failed,
        body.join(", ")
    );
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
