//! The three in-process workloads: `policy-sweep`, `cold-frames` and
//! `fig15-exact`.
//!
//! An untraced iteration calls the program's own coarse entry point
//! (`run_workload`, `figures::sweep`, or the framecache/`simulate_cell`
//! sequence). A traced iteration does the same work cell by cell through
//! the layers' public functions, opening a span around each call. Both
//! produce one [`CellStat`] per (policy, frame) cell, and every cell is
//! checked the same way.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use grbench::figures::{self, PerfConfig};
use grbench::framecache::{self, FrameData};
use grbench::runner::{simulate_cell, simulate_graph_cell, RunPerf};
use grbench::{run_workload, ExperimentConfig, RunOptions};
use grcache::{Llc, LlcConfig, LlcStats, MemoryLog, Policy};
use grdram::{DramSim, DramStats, Request};
use grgpu::Workload;
use grsynth::{AppProfile, FrameGraph, Scale, GRAPH_PROFILES};
use gspc::registry::{self, PolicyVisitor};

use crate::measure::{cpu_seconds, timed, Rng};
use crate::trace::Tracer;
use crate::{Args, Counters, Run};

/// Set-up repetitions; the reported `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Fewest untraced iterations a run measures, whatever `--seconds` says.
const MIN_ITERATIONS: u32 = 3;

/// One frame the workload replays.
enum Unit {
    App(AppProfile, u32),
    Graph(FrameGraph, u32),
}

impl Unit {
    fn key(&self) -> String {
        match self {
            Unit::App(app, f) => format!("{}#{f}", app.abbrev),
            Unit::Graph(g, f) => format!("{}#{f}", g.name()),
        }
    }

    fn frame_data(&self, scale: Scale) -> Arc<FrameData> {
        match self {
            Unit::App(app, f) => framecache::frame_data(app, *f, scale),
            Unit::Graph(g, f) => framecache::graph_frame_data(g, *f, scale),
        }
    }

    fn simulate(&self, policy: &str, opts: &RunOptions, cfg: &ExperimentConfig) -> CellOut {
        let cell = match self {
            Unit::App(app, f) => simulate_cell(policy, app, *f, opts, cfg),
            Unit::Graph(g, f) => simulate_graph_cell(policy, g, *f, opts, cfg),
        };
        CellOut {
            stat: CellStat { stats: cell.stats, frame_ns: cell.frame_ns },
            accesses: cell.accesses,
            replay_s: cell.replay_seconds,
        }
    }
}

/// The simulated outcome of one cell: everything the digest covers.
#[derive(Debug, Clone)]
pub struct CellStat {
    pub stats: LlcStats,
    /// Modeled frame time (0 unless the workload runs the timing model).
    pub frame_ns: f64,
}

impl CellStat {
    fn canonical(&self) -> String {
        format!("{:?}|{:016x}", self.stats, self.frame_ns.to_bits())
    }
}

struct CellOut {
    stat: CellStat,
    accesses: u64,
    replay_s: f64,
}

/// Cells keyed by (policy, unit key).
pub type Cells = BTreeMap<(String, String), CellStat>;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PolicySweep,
    ColdFrames,
    Fig15Exact,
}

struct Plan {
    kind: Kind,
    cfg: ExperimentConfig,
    units: Vec<Unit>,
    policies: Vec<String>,
    opts: RunOptions,
    panel: PerfConfig,
}

impl Plan {
    fn new(kind: Kind, seed: u64, threads: usize) -> Plan {
        let mut rng = Rng::new(seed, kind.name());
        let apps = AppProfile::all();
        let (scale, policies, units) = match kind {
            Kind::PolicySweep => {
                // `run_workload` takes a frame count, not frame indices, so
                // the swept frames are frame 0 of every app; the seed
                // permutes the policy list the runner receives.
                let mut policies: Vec<String> =
                    registry::ALL_POLICIES.iter().map(|e| e.name.to_string()).collect();
                rng.shuffle(&mut policies);
                let units = apps.into_iter().map(|a| Unit::App(a, 0)).collect();
                (Scale::Half, policies, units)
            }
            Kind::ColdFrames => {
                let mut units: Vec<Unit> = apps
                    .into_iter()
                    .map(|a| {
                        let f = rng.below(u64::from(a.frames)) as u32;
                        Unit::App(a, f)
                    })
                    .collect();
                for p in GRAPH_PROFILES {
                    let f = rng.below(u64::from(p.frames.max(1))) as u32;
                    units.push(Unit::Graph(p.graph(), f));
                }
                (Scale::Quarter, vec!["DRRIP".to_string(), "OPT".to_string()], units)
            }
            Kind::Fig15Exact => {
                // The figure is fixed by definition: the seed does not
                // change this workload's inputs.
                let policies = figures::PERF_POLICIES.iter().map(|p| p.to_string()).collect();
                let units = apps.into_iter().map(|a| Unit::App(a, 0)).collect();
                (Scale::Quarter, policies, units)
            }
        };
        let panel = figures::fig15();
        let names: Vec<&str> = policies.iter().map(String::as_str).collect();
        let opts = RunOptions {
            threads: Some(threads),
            streamed: false,
            boxed: false,
            check: false,
            probe: None,
            ..RunOptions::from_env(&names)
        };
        let cfg = ExperimentConfig { scale, frames_per_app: Some(1) };
        Plan { kind, cfg, units, policies, opts, panel }
    }

    fn needs_next_use(&self) -> bool {
        self.policies.iter().any(|p| registry::needs_next_use(p))
    }

    /// Clears the frame cache and brings every unit's frame (and, when a
    /// policy needs it, its Belady annotation) into it. Returns each
    /// unit's trace length, which every cell of the run is checked against.
    fn warm(&self, threads: usize) -> BTreeMap<String, u64> {
        framecache::clear();
        let annotate = self.needs_next_use();
        let (lens, _) = fan_out(threads, self.units.len(), false, None, |i, _| {
            let data = self.units[i].frame_data(self.cfg.scale);
            if annotate {
                data.next_use();
            }
            (self.units[i].key(), data.trace.len() as u64)
        });
        lens.into_iter().collect()
    }
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PolicySweep => "policy-sweep",
            Kind::ColdFrames => "cold-frames",
            Kind::Fig15Exact => "fig15-exact",
        }
    }
}

/// What one iteration produced.
struct Iter {
    wall_s: f64,
    cpu_s: f64,
    cells: Cells,
    accesses: u64,
    runner: Option<RunnerPerf>,
}

#[derive(Clone, Copy)]
struct RunnerPerf {
    threads: usize,
    cell_s: f64,
    merge_s: f64,
    wall_s: f64,
}

impl From<RunPerf> for RunnerPerf {
    fn from(p: RunPerf) -> Self {
        RunnerPerf {
            threads: p.threads,
            cell_s: p.replay_seconds,
            merge_s: p.merge_seconds,
            wall_s: p.wall_seconds,
        }
    }
}

/// Runs a simulation workload for the requested window.
pub fn run(kind: Kind, args: &Args) -> Run {
    let plan = Plan::new(kind, args.seed, args.threads);
    let mut run = Run::default();

    // On cold-frames every iteration clears the frame cache again, so
    // there the set-up only yields the trace lengths each fresh synthesis
    // must reproduce.
    let mut lens = BTreeMap::new();
    for _ in 0..SETUP_REPEATS {
        let (warm_lens, s) = timed(|| plan.warm(args.threads));
        run.setup_s.push(s);
        lens = warm_lens;
    }

    let epoch = Instant::now();
    let mut root = Tracer::new(args.trace, epoch, 0, None);
    let mut counters = Counters::default();
    let mut reference: Option<BTreeMap<(String, String), String>> = None;
    let mut runner: Vec<RunnerPerf> = Vec::new();
    let window = Instant::now();
    let mut i = 0u32;
    // A traced run alternates untraced and traced iterations, so the
    // tracing overhead is measured in one process on one machine state.
    // The first iteration after set-up runs slower (its allocations are
    // fresh), so a run always has enough iterations for the median to
    // land on a later one.
    let min_iterations = if args.trace { 4 } else { MIN_ITERATIONS };
    while i < min_iterations || window.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && i % 2 == 1;
        let start = Instant::now();
        let it = if traced {
            let it = traced_iteration(&plan, args.threads, epoch, i, &mut root, &mut counters);
            root.root(i, start, Instant::now());
            it
        } else {
            untraced_iteration(&plan, args.threads)
        };
        let (attempted, failed) = check_cells(&it.cells, &lens, &mut reference);
        run.attempted += attempted;
        run.failed += failed;
        if traced {
            run.traced_walls.push(it.wall_s);
        } else {
            run.walls.push(it.wall_s);
            run.cpu.push(it.cpu_s);
            run.accesses += it.accesses;
            runner.extend(it.runner);
        }
        if i == 0 {
            run.digest = digest_fields(kind, &it.cells);
        }
        i += 1;
    }
    run.ops = run.walls.len() as u64;
    run.busy_s = run.walls.iter().sum();
    run.peak_rss_mb = crate::measure::peak_rss_mb(std::process::id()).unwrap_or(0.0);

    if args.trace {
        let med = |f: fn(&RunnerPerf) -> f64| {
            crate::measure::median(&runner.iter().map(f).collect::<Vec<_>>())
        };
        counters.set("runner.threads", med(|r| r.threads as f64));
        counters.set("runner.cell_s", med(|r| r.cell_s));
        counters.set("runner.merge_s", med(|r| r.merge_s));
        counters.set(
            "runner.parallel_efficiency",
            med(|r| crate::measure::ratio(r.cell_s, r.threads as f64 * r.wall_s)),
        );
        run.counters = counters;
        run.spans = Some(root);
    }
    run
}

fn untraced_iteration(plan: &Plan, threads: usize) -> Iter {
    let me = std::process::id();
    let cpu0 = cpu_seconds(me).unwrap_or(0.0);
    match plan.kind {
        Kind::PolicySweep | Kind::Fig15Exact => {
            let (r, wall_s) = timed(|| {
                if plan.kind == Kind::PolicySweep {
                    run_workload(&plan.opts, &plan.cfg)
                } else {
                    figures::sweep(&plan.cfg, &plan.panel)
                }
            });
            let cpu_s = cpu_seconds(me).unwrap_or(0.0) - cpu0;
            let mut cells = Cells::new();
            for p in &r.policies {
                for (unit, app) in plan.units.iter().zip(&r.apps) {
                    let agg = r.get(p, app);
                    let stat = CellStat { stats: agg.stats.clone(), frame_ns: agg.frame_ns_total };
                    cells.insert((p.clone(), unit.key()), stat);
                }
            }
            let runner = Some(RunnerPerf::from(r.perf));
            Iter { wall_s, cpu_s, cells, accesses: r.perf.llc_accesses, runner }
        }
        Kind::ColdFrames => {
            let (outs, wall_s) = timed(|| {
                framecache::clear();
                let (outs, _) = fan_out(threads, plan.units.len(), false, None, |u, _| {
                    let unit = &plan.units[u];
                    unit.frame_data(plan.cfg.scale).next_use();
                    plan.policies
                        .iter()
                        .map(|p| unit.simulate(p, &plan.opts, &plan.cfg))
                        .collect::<Vec<CellOut>>()
                });
                outs
            });
            let cpu_s = cpu_seconds(me).unwrap_or(0.0) - cpu0;
            let mut cells = Cells::new();
            let (mut accesses, mut cell_s) = (0, 0.0);
            for (unit, outs) in plan.units.iter().zip(outs) {
                for (p, out) in plan.policies.iter().zip(outs) {
                    accesses += out.accesses;
                    cell_s += out.replay_s;
                    cells.insert((p.clone(), unit.key()), out.stat);
                }
            }
            let runner = Some(RunnerPerf { threads, cell_s, merge_s: 0.0, wall_s });
            Iter { wall_s, cpu_s, cells, accesses, runner }
        }
    }
}

/// The same work as [`untraced_iteration`], one public call at a time,
/// each inside a span.
fn traced_iteration(
    plan: &Plan,
    threads: usize,
    epoch: Instant,
    index: u32,
    root: &mut Tracer,
    counters: &mut Counters,
) -> Iter {
    let cold = plan.kind == Kind::ColdFrames;
    let per_cell = if cold { 1 } else { plan.policies.len() };
    let n = plan.units.len() * per_cell;
    let ((outs, tracer), wall_s) = timed(|| {
        if cold {
            framecache::clear();
        }
        fan_out(threads, n, true, Some((epoch, index)), |c, t| {
            let unit = &plan.units[c / per_cell];
            // After `clear()` each unit's first lookup renders it, so on
            // cold-frames the lookup span is the synthesis span.
            let lookup = if cold { "grsynth" } else { "framecache" };
            let data = t.span(lookup, || unit.frame_data(plan.cfg.scale));
            let mut local = Counters::default();
            local.add("framecache.lookups", 1.0);
            if cold {
                local.add("framecache.renders", 1.0);
                local.add("grsynth.frames", 1.0);
                local.add("grsynth.raw_accesses", data.work.raw_accesses as f64);
                local.add("grsynth.llc_accesses", data.trace.len() as f64);
                t.span("belady", || data.next_use().len());
                local.add("belady.accesses", data.trace.len() as f64);
            }
            let policies: &[String] =
                if cold { &plan.policies } else { &plan.policies[c % per_cell..][..1] };
            let mut cells = Vec::new();
            for p in policies {
                let (out, llc_ns) = if plan.kind == Kind::Fig15Exact {
                    timed_cell(plan, p, &data, t, &mut local)
                } else {
                    t.span_containing("llc", 0, || unit.simulate(p, &plan.opts, &plan.cfg))
                };
                local.add("llc.accesses", out.accesses as f64);
                local.add("llc.misses", out.stat.stats.total_misses() as f64);
                local.add("llc.hits", out.stat.stats.total_hits() as f64);
                local.add("llc.writebacks", out.stat.stats.writebacks as f64);
                local.add(&format!("llc.{}.accesses", metric_name(p)), out.accesses as f64);
                local.add(&format!("llc.{}.ns", metric_name(p)), llc_ns as f64);
                cells.push((p.clone(), out));
            }
            (cells, local)
        })
    });
    root.absorb(tracer);
    let mut cells = Cells::new();
    for (c, (outs, local)) in outs.into_iter().enumerate() {
        let unit = &plan.units[c / per_cell];
        counters.merge(&local);
        for (p, out) in outs {
            cells.insert((p, unit.key()), out.stat);
        }
    }
    counters.add("iterations", 1.0);
    Iter { wall_s, cpu_s: 0.0, cells, accesses: 0, runner: None }
}

/// One fig15-exact cell through the layers `run_workload` composes:
/// replay with a memory log, then the DRAM model, then the GPU interval
/// model (which runs the same DRAM model on the same log internally).
fn timed_cell(
    plan: &Plan,
    policy: &str,
    data: &FrameData,
    t: &mut Tracer,
    local: &mut Counters,
) -> (CellOut, u64) {
    struct Replay<'a>(&'a FrameData, LlcConfig);
    impl PolicyVisitor for Replay<'_> {
        type Output = (LlcStats, Vec<(u64, bool)>, u64);
        fn visit<P: Policy + 'static>(self, policy: P) -> Self::Output {
            let mut llc = Llc::with_observer(self.1, policy, MemoryLog::new());
            let n = llc.run_source(&mut self.0.trace.source()).expect("in-memory replay");
            let stats = llc.stats().clone();
            (stats, llc.into_observer().into_entries(), n)
        }
    }
    let llc_cfg = plan.cfg.llc(plan.panel.llc_mb);
    let ((stats, log, n), llc_ns) = t.span_containing("llc", 0, || {
        registry::with_policy(policy, &llc_cfg, Replay(data, llc_cfg)).expect("registry policy")
    });
    let (dram, dram_ns): (DramStats, u64) = t.span_containing("grdram", 0, || {
        let requests: Vec<Request> =
            log.iter().map(|&(block, write)| Request { block, write, arrival_ns: 0.0 }).collect();
        DramSim::new(plan.panel.dram).run(&requests)
    });
    let work = Workload {
        shaded_pixels: data.work.shaded_pixels,
        texel_samples: data.work.texel_samples,
        vertices: data.work.vertices,
        llc_accesses: n,
    };
    let (timing, _) = t.span_containing("grgpu", dram_ns, || {
        grgpu::time_frame(&plan.panel.gpu, plan.panel.dram, &work, &log)
    });
    local.add("grdram.requests", (dram.reads + dram.writes) as f64);
    local.add("grdram.writes", dram.writes as f64);
    local.add("grdram.row_hits", dram.row_hits as f64);
    local.add("grdram.row_total", (dram.row_hits + dram.row_misses) as f64);
    local.add("grgpu.frames", 1.0);
    local.add("grgpu.frame_ns", timing.frame_ns);
    let out =
        CellOut { stat: CellStat { stats, frame_ns: timing.frame_ns }, accesses: n, replay_s: 0.0 };
    (out, llc_ns)
}

/// A policy name as a metric-name component (`+` is not allowed there).
pub fn metric_name(policy: &str) -> String {
    policy.replace('+', "_")
}

/// Runs `f(i)` for `i in 0..n` on `threads` workers claiming indices from
/// a shared counter; results come back in index order, with every
/// worker's spans.
fn fan_out<T: Send>(
    threads: usize,
    n: usize,
    tracing: bool,
    root: Option<(Instant, u32)>,
    f: impl Fn(usize, &mut Tracer) -> T + Sync,
) -> (Vec<T>, Tracer) {
    let (epoch, parent) = root.map_or((Instant::now(), None), |(e, p)| (e, Some(p)));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let mut all = Tracer::new(tracing, epoch, 0, parent);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|w| {
                let (next, slots, f) = (&next, &slots, &f);
                s.spawn(move || {
                    let mut t = Tracer::new(tracing, epoch, w as u32, parent);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break t;
                        }
                        let out = f(i, &mut t);
                        *slots[i].lock().expect("result slot poisoned") = Some(out);
                    }
                })
            })
            .collect();
        for h in handles {
            all.absorb(h.join().expect("benchmark worker panicked"));
        }
    });
    let outs = slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot poisoned").expect("every index ran"))
        .collect();
    (outs, all)
}

/// Checks every cell and returns (cells checked, cells failed):
/// hits + misses equals the frame's trace length found in set-up; OPT misses no more than any
/// cell on the same frame that bypassed nothing; and each cell's
/// statistics equal the first iteration's.
fn check_cells(
    cells: &Cells,
    lens: &BTreeMap<String, u64>,
    reference: &mut Option<BTreeMap<(String, String), String>>,
) -> (u64, u64) {
    let mut failed = 0;
    for ((policy, unit), cell) in cells {
        let mut ok = lens.get(unit) == Some(&cell.stats.total_accesses());
        if let Some(opt) = cells.get(&("OPT".to_string(), unit.clone())) {
            let bypassed = cell.stats.bypassed_reads + cell.stats.bypassed_writes;
            if bypassed == 0 && opt.stats.total_misses() > cell.stats.total_misses() {
                ok = false;
            }
        }
        if let Some(reference) = reference {
            ok &= reference.get(&(policy.clone(), unit.clone())) == Some(&cell.canonical());
        }
        if !ok {
            eprintln!("perfledger: check failed for {policy} on {unit}");
            failed += 1;
        }
    }
    if reference.is_none() {
        *reference = Some(cells.iter().map(|(k, c)| (k.clone(), c.canonical())).collect());
    }
    (cells.len() as u64, failed)
}

/// The digest of every simulated statistic, with the exact headline
/// counts beside it.
fn digest_fields(kind: Kind, cells: &Cells) -> Vec<(String, String)> {
    let mut text = String::new();
    for ((p, u), c) in cells {
        text.push_str(&format!("{p}|{u}|{}\n", c.canonical()));
    }
    let misses: u64 = cells.values().map(|c| c.stats.total_misses()).sum();
    let mut fields = vec![
        ("cells".to_string(), cells.len().to_string()),
        ("fnv".to_string(), format!("{:016x}", crate::measure::fnv1a(text.as_bytes()))),
        ("llc.misses".to_string(), misses.to_string()),
    ];
    if kind == Kind::Fig15Exact {
        let requests: u64 =
            cells.values().map(|c| c.stats.total_misses() + c.stats.writebacks).sum();
        let ns: f64 = cells.values().map(|c| c.frame_ns).sum();
        let fps = cells.len() as f64 * 1e9 / ns;
        fields.push(("grdram.requests".to_string(), requests.to_string()));
        fields.push(("grgpu.sim_fps".to_string(), format!("{fps}")));
    }
    fields
}
