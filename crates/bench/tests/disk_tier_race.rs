//! Concurrency stress for the on-disk trace tier: many threads asking for
//! the same frame at once must all replay identical statistics. Every
//! writer in the tier (`.grtr`, `.work`, `.nu`, app and frame-graph
//! frames, streamed and materialized) races every reader here; a writer
//! that truncated a published file in place would hand some thread a torn
//! trace or sidecar. The barrier and start offsets make those overlaps
//! likely, not certain: a failure shows a race, a pass proves nothing.
//!
//! One `#[test]` drives every round because the disk tier's directory
//! (`GR_TRACE_CACHE`) is latched process-wide on first use.

use std::path::Path;
use std::sync::Barrier;
use std::time::Duration;

use grbench::framecache;
use grcache::{annotate_next_use, Llc, LlcConfig, LlcStats};
use grsynth::{AppProfile, FrameGraph, FrameRenderer, GraphRenderer, Scale};
use grtrace::AccessSource;
use gspc::registry;

const THREADS: usize = 8;
const ROUNDS: usize = 4;
/// Start offset between consecutive threads: late threads find a frame
/// half-published by early ones, which is where an in-place writer would
/// truncate files other threads are reading.
const STAGGER: Duration = Duration::from_micros(1500);

fn llc_config() -> LlcConfig {
    LlcConfig { size_bytes: 64 * 1024, ways: 16, banks: 4, sample_period: 64 }
}

/// The first registry policy that reads the `.nu` sidecar (`annotated`
/// true) or that does not.
fn policy(annotated: bool) -> &'static str {
    registry::ALL_POLICIES
        .iter()
        .find(|entry| entry.needs_next_use() == annotated)
        .expect("registry has both kinds")
        .name
}

fn replay<S: AccessSource>(policy: &str, mut source: S) -> LlcStats {
    let cfg = llc_config();
    let mut llc = Llc::new(cfg, registry::create(policy, &cfg).expect("registry policy"));
    llc.run_source(&mut source).expect("replay");
    llc.stats().clone()
}

/// Reference statistics computed without the frame cache: (annotated
/// policy, plain policy).
fn reference(trace: &grtrace::Trace) -> (LlcStats, LlcStats) {
    let nu = annotate_next_use(trace.accesses());
    (replay(policy(true), trace.source_annotated(&nu)), replay(policy(false), trace.source()))
}

/// One thread's pass over the tier; `role` staggers which path each
/// thread enters first so writers of every kind overlap.
fn hammer(app: &AppProfile, graph: &FrameGraph, role: usize) -> Vec<LlcStats> {
    let app_disk = |nu| framecache::disk_source(app, 0, Scale::Tiny, nu);
    let graph_disk = |nu| framecache::graph_disk_source(graph, 0, Scale::Tiny, nu);
    let mut out = Vec::new();
    for step in 0..4 {
        match (step + role) % 4 {
            0 => {
                let src = app_disk(true).expect("disk tier I/O").expect("tier active");
                out.push(replay(policy(true), src.reader));
                let src = app_disk(false).expect("disk tier I/O").expect("tier active");
                out.push(replay(policy(false), src.reader));
            }
            1 => {
                let src = graph_disk(true).expect("disk tier I/O").expect("tier active");
                out.push(replay(policy(true), src.reader));
                let src = graph_disk(false).expect("disk tier I/O").expect("tier active");
                out.push(replay(policy(false), src.reader));
            }
            2 => {
                // Materialized path: loads from disk or renders and stores.
                let data = framecache::frame_data(app, 0, Scale::Tiny);
                out.push(replay(policy(true), data.trace.source_annotated(data.next_use())));
                out.push(replay(policy(false), data.trace.source()));
            }
            _ => {
                let data = framecache::graph_frame_data(graph, 0, Scale::Tiny);
                out.push(replay(policy(true), data.trace.source_annotated(data.next_use())));
                out.push(replay(policy(false), data.trace.source()));
            }
        }
    }
    out
}

fn empty_dir(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("cache dir listable") {
        std::fs::remove_file(entry.expect("dir entry").path()).expect("remove cache file");
    }
}

#[test]
fn concurrent_cells_of_one_frame_see_identical_stats() {
    let dir = std::env::temp_dir().join(format!("gr-disk-race-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create cache dir");
    std::env::set_var("GR_TRACE_CACHE", &dir);

    let app = AppProfile::by_abbrev("BioShock").expect("profile");
    let graph = grsynth::graph_profile("postfx").expect("profile").graph();
    let (app_nu, app_plain) = reference(&FrameRenderer::new(&app, 0, Scale::Tiny).render());
    let (graph_nu, graph_plain) = reference(&GraphRenderer::new(&graph, 0, Scale::Tiny).render());

    for round in 0..ROUNDS {
        // Cold start each round: no files on disk, no frames in memory.
        empty_dir(&dir);
        framecache::clear();
        let barrier = Barrier::new(THREADS);
        let results: Vec<(usize, Vec<LlcStats>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|role| {
                    let (app, graph, barrier) = (&app, &graph, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        std::thread::sleep(STAGGER * role as u32);
                        (role, hammer(app, graph, role))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("stress thread")).collect()
        });
        for (role, stats) in results {
            for (step, pair) in stats.chunks(2).enumerate() {
                let (nu, plain) = if (step + role) % 2 == 0 {
                    (&app_nu, &app_plain)
                } else {
                    (&graph_nu, &graph_plain)
                };
                assert_eq!(&pair[0], nu, "annotated replay diverged: round {round}, thread {role}");
                assert_eq!(&pair[1], plain, "plain replay diverged: round {round}, thread {role}");
            }
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("cache dir listable")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temporary files left behind: {leftovers:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
