//! `grcheck` — the verification front end.
//!
//! ```text
//! grcheck fuzz [--seed N] [--cases K] [--accesses M] [--policies A,B] [--out DIR]
//! grcheck conformance [--apps N] [--mb MB]
//! grcheck invariants
//! ```
//!
//! * `fuzz` runs a deterministic differential campaign: synthesized traces
//!   replayed through the fast path, a reference-model clone, and (where
//!   one exists) an independent oracle. Divergences are shrunk and dumped
//!   as `.gtrace` reproducers; the process exits 1 if any are found.
//! * `conformance` replays cached frames and asserts paper-level numbers
//!   (OPT agreement, Belady lower bound, pinned hit-rate goldens,
//!   GSPC-vs-baseline miss ratios).
//! * `invariants` replays the workload through every registry policy
//!   across the full checked/unchecked x mono/boxed matrix plus every
//!   probe kind the host supports (the scalar per-access loop, and the
//!   batched AVX2 driver where detected), asserts bit-identical stats
//!   everywhere, and reports the checked-replay overhead (budget: 3x).
//!
//! `conformance` and `invariants` honour `GR_SCALE` / `GR_FRAMES`.

use grbench::{run_workload, ExperimentConfig, RunOptions};
use grcache::ProbeKind;
use grcheck::{conform, fuzz};
use gspc::registry;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: grcheck <fuzz [--seed N] [--cases K] [--accesses M] [--policies A,B] \
         [--out DIR] | conformance [--apps N] [--mb MB] | invariants>"
    );
    std::process::exit(2);
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    let value = args.get(pos + 1).unwrap_or_else(|| usage());
    Some(value.parse().unwrap_or_else(|_| usage()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => run_fuzz(&args[1..]),
        Some("conformance") => run_conformance(&args[1..]),
        Some("invariants") => run_invariants(),
        _ => usage(),
    }
}

fn run_fuzz(args: &[String]) {
    let mut cfg = fuzz::FuzzConfig::smoke(1);
    if let Some(seed) = parse_flag(args, "--seed") {
        cfg.seed = seed;
    }
    if let Some(cases) = parse_flag(args, "--cases") {
        cfg.cases = cases;
    }
    if let Some(accesses) = parse_flag(args, "--accesses") {
        cfg.accesses_per_case = accesses;
    }
    if let Some(list) = parse_flag::<String>(args, "--policies") {
        cfg.policies = list.split(',').map(str::to_string).collect();
        for p in &cfg.policies {
            if registry::create(p, &fuzz::fuzz_llc()).is_none() {
                eprintln!("unknown policy {p}; try `grsim policies`");
                std::process::exit(1);
            }
        }
    }
    cfg.out_dir = Some(
        parse_flag::<PathBuf>(args, "--out")
            .unwrap_or_else(|| std::env::temp_dir().join("grcheck-repro")),
    );

    let report = fuzz::run_campaign(&cfg);
    println!(
        "fuzz: seed {}, {} cases x {} policies, {} accesses replayed differentially",
        cfg.seed,
        report.cases,
        cfg.policies.len(),
        report.replayed_accesses
    );
    if report.failures.is_empty() {
        println!("fuzz: no divergences");
        return;
    }
    for f in &report.failures {
        eprintln!(
            "DIVERGENCE {} case {} access {}: {} (shrunk to {} accesses{})",
            f.policy,
            f.case,
            f.index,
            f.detail,
            f.reproducer_len,
            f.artifact
                .as_ref()
                .map(|p| format!(", reproducer {}", p.display()))
                .unwrap_or_default()
        );
    }
    eprintln!("fuzz: {} divergence(s)", report.failures.len());
    std::process::exit(1);
}

fn run_conformance(args: &[String]) {
    let cfg = ExperimentConfig::from_env();
    let apps: usize = parse_flag(args, "--apps").unwrap_or(2);
    let mb: u64 = parse_flag(args, "--mb").unwrap_or(8);
    let report = conform::run(&cfg, apps, mb);
    let profiles = conform::run_profiles(mb);
    let ordering = conform::run_figure_ordering();
    println!(
        "conformance: {} checks, {} failure(s); profiles: {} checks, {} failure(s); \
         figure ordering: {} checks, {} failure(s)",
        report.checks,
        report.failures.len(),
        profiles.checks,
        profiles.failures.len(),
        ordering.checks,
        ordering.failures.len()
    );
    if !report.is_pass() || !profiles.is_pass() || !ordering.is_pass() {
        for f in report.failures.iter().chain(&profiles.failures).chain(&ordering.failures) {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }
}

/// Replays every registry policy checked and unchecked, through both the
/// monomorphized and boxed dispatch paths and under every probe kind the
/// host supports, asserting identical stats everywhere and a bounded
/// slowdown from the invariant observer.
fn run_invariants() {
    let cfg = ExperimentConfig::from_env();
    let policies: Vec<String> = registry::ALL_POLICIES.iter().map(|e| e.name.to_string()).collect();
    let base = |boxed: bool, check: bool, probe: Option<ProbeKind>| RunOptions {
        policies: policies.clone(),
        boxed,
        check,
        probe,
        streamed: false,
        ..RunOptions::misses(&[])
    };
    let mut runs = Vec::new();
    let mut reference = None;
    for boxed in [false, true] {
        let mut timings = [0.0f64; 2];
        let mut results = Vec::new();
        for check in [false, true] {
            // The unchecked leg pins the per-access loop so the probe sweep
            // below compares the batched driver against a scalar-produced
            // reference; the checked leg keeps the host default.
            let probe = (!check).then_some(ProbeKind::Scalar);
            let r = run_workload(&base(boxed, check, probe), &cfg);
            timings[check as usize] = r.perf.replay_seconds;
            results.push(r);
        }
        let (plain, checked) = (&results[0], &results[1]);
        for p in &policies {
            for app in plain.apps.clone() {
                assert_eq!(
                    plain.get(p, &app).stats,
                    checked.get(p, &app).stats,
                    "{p}/{app}: checked replay changed the stats (boxed={boxed})"
                );
            }
        }
        let ratio = timings[1] / timings[0].max(1e-9);
        let path = if boxed { "boxed" } else { "mono" };
        println!(
            "invariants[{path}]: {} policies x {} apps identical; \
             checked replay {:.2}s vs {:.2}s unchecked ({ratio:.2}x)",
            policies.len(),
            plain.apps.len(),
            timings[1],
            timings[0]
        );
        runs.push((path, ratio));
        if reference.is_none() {
            reference = Some(results.swap_remove(0));
        }
    }
    // Probe-kind sweep: every available kind, through both dispatch
    // paths, must reproduce the scalar reference bit for bit.
    let reference = reference.expect("mono sweep ran");
    for kind in ProbeKind::all_available() {
        if kind == ProbeKind::Scalar {
            continue; // the reference itself
        }
        for boxed in [false, true] {
            let r = run_workload(&base(boxed, false, Some(kind)), &cfg);
            for p in &policies {
                for app in reference.apps.clone() {
                    assert_eq!(
                        reference.get(p, &app).stats,
                        r.get(p, &app).stats,
                        "{p}/{app}: {kind:?} probe kind diverged from scalar (boxed={boxed})"
                    );
                }
            }
            let path = if boxed { "boxed" } else { "mono" };
            println!(
                "invariants[{path}/{kind:?}]: {} policies x {} apps identical to scalar",
                policies.len(),
                reference.apps.len()
            );
        }
    }
    run_profile_invariants(&cfg, &policies);
    let mut failed = false;
    for (path, ratio) in runs {
        if ratio > 3.0 {
            eprintln!("FAIL invariants[{path}]: checked replay {ratio:.2}x > 3x budget");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Frame-graph profile sweep: for every built-in profile, the streamed
/// generator must emit exactly the materialized render, the `.gtrace`
/// export must import back bit-identically, and frame-0 replay stats must
/// agree across mono/boxed dispatch and every probe kind the host
/// supports.
fn run_profile_invariants(cfg: &ExperimentConfig, policies: &[String]) {
    use grbench::simulate_graph_cell;
    use grsynth::{GraphRenderer, GraphStream, GRAPH_PROFILES};
    use grtrace::AccessSource;

    for profile in GRAPH_PROFILES {
        let graph = profile.graph();
        let trace = GraphRenderer::new(&graph, 0, cfg.scale).render();

        let mut streamed = Vec::with_capacity(trace.len());
        let mut source = GraphStream::new(&graph, 0, cfg.scale);
        while source.advance().expect("synthesized source cannot fail") {
            streamed.extend_from_slice(source.chunk().accesses);
        }
        assert_eq!(
            streamed,
            trace.accesses(),
            "{}: streamed generator diverged from materialized render",
            profile.name
        );

        let mut bytes = Vec::new();
        grtrace::io::write(&mut bytes, &trace).expect("in-memory export cannot fail");
        let imported = grtrace::import(&bytes[..])
            .unwrap_or_else(|e| panic!("{}: exported trace failed validation: {e}", profile.name));
        assert_eq!(
            imported.accesses(),
            trace.accesses(),
            "{}: .gtrace round trip changed the accesses",
            profile.name
        );

        let base = |boxed: bool, probe: Option<ProbeKind>| RunOptions {
            boxed,
            probe,
            streamed: false,
            ..RunOptions::misses(&[])
        };
        for name in policies {
            let reference =
                simulate_graph_cell(name, &graph, 0, &base(false, Some(ProbeKind::Scalar)), cfg);
            for kind in ProbeKind::all_available() {
                for boxed in [false, true] {
                    if !boxed && kind == ProbeKind::Scalar {
                        continue; // the reference itself
                    }
                    let r = simulate_graph_cell(name, &graph, 0, &base(boxed, Some(kind)), cfg);
                    assert_eq!(
                        reference.stats, r.stats,
                        "{}/{name}: {kind:?} probe (boxed={boxed}) diverged from scalar/mono",
                        profile.name
                    );
                }
            }
        }
        println!(
            "invariants[profile/{}]: stream == render ({} accesses), round trip identical, \
             {} policies x {} probe kinds x mono/boxed identical",
            profile.name,
            trace.len(),
            policies.len(),
            ProbeKind::all_available().len()
        );
    }
}
