//! The `served-jobs` workload: one spawned `grserved`, closed-loop
//! clients driving `grart`'s `JobSource::Served`.
//!
//! Each client submits the next job of a seeded sequence built from
//! `grart kick-tires`' own job list (one policy, the 12 apps, one frame,
//! tiny scale, an LLC size), waits for the payload bytes, parses them, and
//! submits the next. Most specs are fresh and execute; the ones `grart`
//! itself repeats are answered from the result cache (or coalesce onto a
//! running twin).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use grart::source::JobSource;
use grjson::Json;
use grserve::JobSpec;
use grsynth::Scale;

use crate::measure::{cpu_seconds, peak_rss_mb, Rng};
use crate::trace::Tracer;
use crate::{Args, Counters, Run};

/// Daemon spawns in set-up; the reported `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// The LLC size reserved for the warm-up job, so no measured spec is a
/// cache hit on it.
const WARMUP_LLC_MB: u64 = 64;

/// LLC sizes `grart` submits: 8 MB (Figures 12 and 15), and 16 MB, which
/// the full tier adds for Figure 16.
const GRART_LLC_MB: [u64; 2] = [8, 16];

/// Smallest LLC size with a geometry of its own at tiny scale: 1–4 MB all
/// clamp to the same 64 KB cache.
const MIN_DISTINCT_LLC_MB: u64 = 5;

const TIMEOUT: Duration = Duration::from_secs(30);

/// A spawned daemon; dropping it drains and reaps the process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `binary` and returns once `/metrics` answers 200.
    fn spawn(binary: &Path, port_file: &Path, workers: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(port_file);
        let child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--linger-ms", "0", "--allow-http-shutdown"])
            .args(["--exit-on-parent-close", "--workers", &workers.to_string()])
            .arg("--port-file")
            .arg(port_file)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut daemon = Daemon { child, addr: String::new() };
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if daemon.addr.is_empty() {
                daemon.addr =
                    std::fs::read_to_string(port_file).unwrap_or_default().trim().to_string();
            }
            if !daemon.addr.is_empty() {
                let ok = grserve::http::fetch(&daemon.addr, "GET", "/metrics", b"", TIMEOUT);
                if matches!(ok, Ok((200, _, _))) {
                    let _ = std::fs::remove_file(port_file);
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("grserved exited during start-up: {status}"));
            }
            if Instant::now() >= deadline {
                return Err("grserved did not answer within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.addr.is_empty() {
            let _ = grserve::http::fetch(&self.addr, "POST", "/v1/shutdown", b"", TIMEOUT);
        }
        drop(self.child.stdin.take());
        let deadline = Instant::now() + TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The canonical body of a grart-shaped job (as `grart`'s pipeline
/// builds it).
fn job_body(policy: &str, llc_mb: u64) -> String {
    let mut doc = Json::obj();
    doc.set("policies", Json::Arr(vec![Json::Str(policy.to_string())]))
        .set("frames", 1u64)
        .set("llc_mb", llc_mb)
        .set("scale", "tiny");
    doc.to_string_pretty()
}

/// The policies of `grart kick-tires`' jobs, in submission order: the
/// Figure 12 baseline (DRRIP), the Figure 12 group, then the Figure 15
/// panel. The panel repeats two policies of the group, so two of its 13
/// jobs are answered by the result cache.
fn grart_policies() -> Vec<&'static str> {
    let mut list = vec!["DRRIP"];
    list.extend(grbench::experiments::fig12_policies());
    list.extend(grbench::figures::PERF_POLICIES);
    list
}

/// The seeded job sequence: one round per LLC size, each round `grart`'s
/// job list in its own order, so every round repeats specs in the share
/// `grart` does. The first rounds use `grart`'s sizes; the rest use every
/// other size with a geometry of its own, in seeded order, so that most
/// specs stay fresh for the whole window.
fn job_sequence(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, "served-jobs");
    let mut extra: Vec<u64> =
        (MIN_DISTINCT_LLC_MB..WARMUP_LLC_MB).filter(|mb| !GRART_LLC_MB.contains(mb)).collect();
    rng.shuffle(&mut extra);
    let policies = grart_policies();
    GRART_LLC_MB
        .into_iter()
        .chain(extra)
        .flat_map(|mb| policies.iter().map(move |p| job_body(p, mb)))
        .collect()
}

/// Counter values from the daemon's Prometheus exposition, labels folded
/// into the name (`name{label="v"}`).
fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let (status, _, body) = grserve::http::fetch(addr, "GET", "/metrics", b"", TIMEOUT)
        .map_err(|e| format!("metrics scrape failed: {e}"))?;
    if status != 200 {
        return Err(format!("metrics scrape returned {status}"));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

struct JobRec {
    body: usize,
    latency_s: f64,
    traced: bool,
    payload: Result<String, String>,
}

pub fn run(args: &Args) -> Result<Run, String> {
    let binary = args.grserved.clone().ok_or("served-jobs needs --grserved PATH")?;
    let port_file: PathBuf = args.out_dir.join(format!("grserved-{}.port", std::process::id()));
    let mut run = Run::default();

    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        drop(daemon.take());
        let started = Instant::now();
        daemon = Some(Daemon::spawn(&binary, &port_file, args.threads)?);
        run.setup_s.push(started.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("set-up spawned a daemon");
    let source = JobSource::served(daemon.addr.clone());
    // Fills the daemon's frame cache, so the window measures no synthesis.
    source.payload(&job_body("DRRIP", WARMUP_LLC_MB)).map_err(|e| format!("warm-up: {e}"))?;

    let seq = job_sequence(args.seed);
    let before = scrape(&daemon.addr)?;
    let (me, them) = (std::process::id(), daemon.pid());
    let cpu0 = cpu_seconds(me).unwrap_or(0.0) + cpu_seconds(them).unwrap_or(0.0);
    let epoch = Instant::now();
    let next = AtomicUsize::new(0);
    let recs: Mutex<Vec<JobRec>> = Mutex::new(Vec::new());
    let mut tracer = Tracer::new(args.trace, epoch, 0, None);
    let parse_s = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.threads)
            .map(|w| {
                let (next, recs, seq, source, parse_s) = (&next, &recs, &seq, &source, &parse_s);
                s.spawn(move || {
                    let mut t = Tracer::new(args.trace, epoch, w as u32, None);
                    while epoch.elapsed().as_secs_f64() < args.seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let traced = args.trace && i % 2 == 1;
                        let body = i % seq.len();
                        let mut job = Tracer::new(traced, epoch, w as u32, Some(i as u32));
                        let start = Instant::now();
                        let (payload, _) =
                            job.span_containing("grserve", 0, || source.payload(&seq[body]));
                        let latency_s = start.elapsed().as_secs_f64();
                        if let Ok(text) = &payload {
                            let (parsed, ns) =
                                job.span_containing("grjson", 0, || Json::parse(text).is_ok());
                            if traced {
                                let bytes = text.len() as f64;
                                parse_s.lock().expect("poisoned").push((ns as f64 / 1e9, bytes));
                            }
                            if !parsed {
                                eprintln!("perfledger: job {i} payload is not JSON");
                            }
                        }
                        job.root(i as u32, start, Instant::now());
                        t.absorb(job);
                        recs.lock().expect("poisoned").push(JobRec {
                            body,
                            latency_s,
                            traced,
                            payload,
                        });
                    }
                    t
                })
            })
            .collect();
        for h in handles {
            tracer.absorb(h.join().expect("client thread panicked"));
        }
    });
    let window_s = epoch.elapsed().as_secs_f64();
    let cpu1 = cpu_seconds(me).unwrap_or(0.0) + cpu_seconds(them).unwrap_or(0.0);
    let after = scrape(&daemon.addr)?;
    run.peak_rss_mb = peak_rss_mb(them).unwrap_or(0.0);
    drop(daemon);

    let recs = recs.into_inner().expect("poisoned");
    let jobs = recs.len() as f64;
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    // Sums a labelled counter over its labels, leaving out the `/metrics`
    // scrapes the benchmark itself made.
    let sum_delta = |prefix: &str| -> f64 {
        let own = "endpoint=\"metrics\"";
        after.keys().filter(|k| k.starts_with(prefix) && !k.contains(own)).map(|k| delta(k)).sum()
    };
    run.ops = recs.len() as u64;
    run.busy_s = window_s;
    run.cpu = vec![(cpu1 - cpu0) / jobs.max(1.0)];
    run.accesses = delta("grserve_replay_accesses_total") as u64;
    for r in &recs {
        if r.traced {
            run.traced_walls.push(r.latency_s);
        } else {
            run.walls.push(r.latency_s);
        }
    }

    let (attempted, failed, digest) = check_payloads(&recs, &seq, args.threads);
    run.attempted = attempted;
    run.failed = failed;
    run.digest = digest;

    if args.trace {
        let mut c = Counters::default();
        // `jobs_get` counts status polls and the one result fetch per job.
        let polls = delta("grserve_http_requests_total{endpoint=\"jobs_get\"}") - jobs;
        c.set("grserve.jobs", jobs);
        c.set("grserve.executions", delta("grserve_executions_total"));
        c.set("grserve.result_cache_hits", sum_delta("grserve_result_cache_hits_total"));
        c.set("grserve.coalesced", delta("grserve_jobs_coalesced_total"));
        c.set("grserve.rejected", delta("grserve_jobs_rejected_total"));
        c.set("grserve.http_requests", sum_delta("grserve_http_requests_total"));
        c.set("grserve.http_s", sum_delta("grserve_http_request_seconds_sum"));
        c.set("grserve.replay_accesses", delta("grserve_replay_accesses_total"));
        c.set("grserve.polls_per_job", crate::measure::ratio(polls, jobs));
        c.set("grserve.poll_done_ratio", crate::measure::ratio(jobs, polls));
        let parses = parse_s.into_inner().expect("poisoned");
        let med = |f: fn(&(f64, f64)) -> f64| {
            crate::measure::median(&parses.iter().map(f).collect::<Vec<_>>())
        };
        let walls: Vec<f64> = recs.iter().map(|r| r.latency_s).collect();
        c.set("grserve.job_p50_s", crate::measure::median(&walls));
        c.set("grserve.job_p90_s", crate::measure::quantile(&walls, 0.9));
        c.set("grjson.parse_s", med(|p| p.0));
        c.set("grjson.payload_bytes", med(|p| p.1));
        run.counters = c;
        run.spans = Some(tracer);
    }
    Ok(run)
}

/// Jobs whose specs the digest covers: a fixed prefix of the sequence,
/// so the digest does not depend on how many jobs the window held.
const DIGEST_JOBS: usize = 64;

/// Checks every job: it must have succeeded, and its payload bytes must
/// equal those of an in-process `grserve::execute` of its spec. Returns
/// (jobs, failed jobs, digest fields).
fn check_payloads(
    recs: &[JobRec],
    seq: &[String],
    threads: usize,
) -> (u64, u64, Vec<(String, String)>) {
    let distinct: Vec<&str> = recs
        .iter()
        .map(|r| seq[r.body].as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let next = AtomicUsize::new(0);
    let expected: Mutex<BTreeMap<&str, String>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let base = grbench::RunOptions::from_env(&[]);
                while let Some(&body) = distinct.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let payload = JobSpec::parse(body, Scale::Tiny)
                        .map(|spec| grserve::execute(&spec, &base).payload)
                        .unwrap_or_else(|e| format!("invalid spec: {e}"));
                    expected.lock().expect("poisoned").insert(body, payload);
                }
            });
        }
    });
    let expected = expected.into_inner().expect("poisoned");
    let mut failed = 0;
    for r in recs {
        let ok = match &r.payload {
            Ok(p) => expected.get(seq[r.body].as_str()) == Some(p),
            Err(e) => {
                eprintln!("perfledger: job failed: {e}");
                false
            }
        };
        failed += u64::from(!ok);
    }
    let covered: std::collections::BTreeSet<&str> =
        seq[..DIGEST_JOBS.min(recs.len())].iter().map(String::as_str).collect();
    let mut text = String::new();
    let mut misses = 0u64;
    for body in &covered {
        let payload = expected.get(body).map_or("", String::as_str);
        text.push_str(body);
        text.push_str(payload);
        misses += payload_misses(payload);
    }
    let digest = vec![
        ("jobs".to_string(), DIGEST_JOBS.min(recs.len()).to_string()),
        ("specs".to_string(), covered.len().to_string()),
        ("fnv".to_string(), format!("{:016x}", crate::measure::fnv1a(text.as_bytes()))),
        ("llc.misses".to_string(), misses.to_string()),
    ];
    (recs.len() as u64, failed, digest)
}

/// Total `misses` over a payload's `results.<policy>.<workload>` entries.
fn payload_misses(payload: &str) -> u64 {
    let Ok(doc) = Json::parse(payload) else { return 0 };
    let Some(policies) = doc.get("results").and_then(Json::entries) else { return 0 };
    policies
        .iter()
        .filter_map(|(_, p)| p.entries())
        .flatten()
        .filter_map(|(_, entry)| entry.get("misses").and_then(Json::as_f64))
        .map(|m| m as u64)
        .sum()
}
