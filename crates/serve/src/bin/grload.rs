//! `grload` — end-to-end smoke test for `grserved`.
//!
//! ```text
//! grload smoke (--spawn PATH | --url HOST:PORT) [--metrics-out FILE]
//! ```
//!
//! `smoke` drives a daemon through the full acceptance checklist:
//!
//! 1. submit → poll → fetch the raw result and compare it **byte for
//!    byte** against an offline [`grserve::execute`] run of the same spec
//!    (the shared replay/aggregation path used by the export tools);
//! 2. resubmit the identical job and verify it is answered from the
//!    result cache (cache-hit counter up, execution counter unchanged);
//! 3. submit N identical jobs while the single worker is busy and verify
//!    they coalesce onto one execution;
//! 4. overflow the bounded queue and verify 429 + `Retry-After`;
//! 5. SIGTERM the daemon mid-flight and verify the drain: accepted jobs
//!    complete, new submissions get 503, the process exits 0 — and a
//!    final `/metrics` snapshot is written for CI artifacts.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use grbench::{cli, RunOptions};
use grjson::Json;
use grserve::JobSpec;
use grsynth::Scale;

const USAGE: &str = "grload smoke (--spawn PATH | --url HOST:PORT) [--metrics-out FILE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("smoke") => smoke(&args[1..]),
        _ => cli::usage_error(USAGE),
    }
}

// ---------------------------------------------------------------- HTTP client

/// Parsed response: status code, lowercased headers, body.
type HttpResponse = (u16, Vec<(String, String)>, String);

/// One `Connection: close` HTTP exchange; returns (status, headers, body).
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<HttpResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(120))).expect("read timeout");
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("read: {e}"))?;

    let (head, payload) = raw.split_once("\r\n\r\n").ok_or("response without header break")?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or("empty response")?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, headers, payload.to_string()))
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

/// Extracts the value of a Prometheus series (exact `name{labels}` match).
fn metric(exposition: &str, series: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(series).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or_else(|| cli::user_error(&format!("metrics: no series {series:?}")))
}

// ------------------------------------------------------------- daemon spawning

/// A spawned daemon with its resolved address.
struct Daemon {
    child: Child,
    addr: String,
}

/// Spawns the `grserved` under test with the given extra args, waiting
/// for its port file.
fn spawn_daemon(binary: &str, extra: &[String]) -> Daemon {
    let port_file = std::env::temp_dir().join(format!("grload-port-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(binary)
        .args(extra)
        .args(["--port-file"])
        .arg(&port_file)
        .env("GR_SCALE", "tiny")
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| cli::user_error(&format!("failed to spawn {binary}: {e}")));

    // The daemon writes HOST:PORT once bound; poll for it.
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            if !addr.is_empty() {
                break addr;
            }
        }
        if Instant::now() > deadline {
            cli::user_error("daemon did not write its port file within 60s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_file(&port_file);
    Daemon { child, addr }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn check(cond: bool, what: &str) {
    if cond {
        println!("grload: ok - {what}");
    } else {
        cli::user_error(&format!("FAILED - {what}"));
    }
}

/// POSTs a job and returns (status, response document, Retry-After).
fn submit(addr: &str, spec: &str) -> (u16, Json, Option<String>) {
    let (status, headers, body) =
        http(addr, "POST", "/v1/jobs", Some(spec)).unwrap_or_else(|e| cli::user_error(&e));
    let doc = Json::parse(&body)
        .unwrap_or_else(|e| cli::user_error(&format!("unparseable response {body:?}: {e}")));
    (status, doc, header(&headers, "retry-after").map(str::to_string))
}

/// Polls `GET /v1/jobs/{id}` until the job leaves the queue/run states.
fn await_done(addr: &str, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, _, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), None)
            .unwrap_or_else(|e| cli::user_error(&e));
        if status != 200 {
            cli::user_error(&format!("GET job {id}: status {status}: {body}"));
        }
        let doc = Json::parse(&body).expect("job status is JSON");
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => return doc,
            Some("failed") => cli::user_error(&format!("job {id} failed: {body}")),
            _ => {}
        }
        if Instant::now() > deadline {
            cli::user_error(&format!("job {id} did not finish within 300s"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn scrape(addr: &str) -> String {
    let (status, _, body) =
        http(addr, "GET", "/metrics", None).unwrap_or_else(|e| cli::user_error(&e));
    if status != 200 {
        cli::user_error(&format!("/metrics returned {status}"));
    }
    body
}

// ----------------------------------------------------------------- smoke test

fn smoke(argv_tail: &[String]) {
    let mut spawn_path: Option<String> = None;
    let mut url: Option<String> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut argv = argv_tail.iter();
    while let Some(arg) = argv.next() {
        let mut value = || match argv.next() {
            Some(v) => v.clone(),
            None => cli::usage_error(USAGE),
        };
        match arg.as_str() {
            "--spawn" => spawn_path = Some(value()),
            "--url" => url = Some(value()),
            "--metrics-out" => metrics_out = Some(PathBuf::from(value())),
            _ => cli::usage_error(USAGE),
        }
    }

    let daemon = match (&spawn_path, &url) {
        (Some(path), None) => Some(spawn_daemon(
            path,
            &args(&[
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--queue-cap",
                "2",
                "--linger-ms",
                "2500",
                "--allow-http-shutdown",
            ]),
        )),
        (None, Some(_)) => None,
        _ => cli::usage_error(USAGE),
    };
    let addr = daemon.as_ref().map_or_else(|| url.clone().expect("url"), |d| d.addr.clone());
    println!("grload: smoke against http://{addr}");

    // Phase 1: correctness — the service answer must be bit-identical to
    // the offline execution of the same canonical spec.
    let spec_body = r#"{"policies": ["DRRIP", "NRU"], "apps": ["HAWX"], "scale": "tiny"}"#;
    let (status, doc, _) = submit(&addr, spec_body);
    check(status == 202, "fresh job accepted with 202");
    let id = doc.get("id").and_then(Json::as_str).map(str::to_string).expect("job id");
    let status_doc = await_done(&addr, &id);
    check(status_doc.get("state").and_then(Json::as_str) == Some("done"), "job reached done");
    let (status, _, served) =
        http(&addr, "GET", &format!("/v1/jobs/{id}/result"), None).expect("fetch result");
    check(status == 200, "raw result fetch returns 200");
    let offline_spec = JobSpec::parse(spec_body, Scale::Tiny).expect("spec parses offline");
    check(offline_spec.id() == id, "client and server agree on the canonical job id");
    let offline = grserve::execute(&offline_spec, &RunOptions::from_env(&[]));
    check(served == offline.payload, "service payload is bit-identical to the offline run");

    // Phase 2: content-addressed caching — resubmission never re-executes.
    let before = scrape(&addr);
    let (status, doc, _) = submit(&addr, spec_body);
    check(status == 200, "resubmission answered immediately with 200");
    check(doc.get("cached") == Some(&Json::Bool(true)), "resubmission flagged as cached");
    let after = scrape(&addr);
    check(
        metric(&after, "grserve_result_cache_hits_total{tier=\"memory\"}")
            == metric(&before, "grserve_result_cache_hits_total{tier=\"memory\"}") + 1,
        "memory-tier cache-hit counter incremented",
    );
    check(
        metric(&after, "grserve_executions_total") == metric(&before, "grserve_executions_total"),
        "cache hit started no new execution",
    );

    // Phase 3: coalescing. A heavy blocker occupies the single worker;
    // duplicate submissions of a second job must share one entry.
    let blocker = r#"{"policies": ["OPT", "DRRIP", "GSPC+UCD"], "frames": 3, "scale": "tiny"}"#;
    let (status, blocker_doc, _) = submit(&addr, blocker);
    check(status == 202, "blocker accepted");
    let blocker_id =
        blocker_doc.get("id").and_then(Json::as_str).map(str::to_string).expect("blocker id");

    let dup = r#"{"policies": ["NRU"], "apps": ["BioShock"], "frames": 2, "scale": "tiny"}"#;
    let mut dup_id = None;
    let mut coalesced = 0;
    for _ in 0..8 {
        let (status, doc, _) = submit(&addr, dup);
        check(status == 202 || status == 200, "duplicate submission accepted");
        let this_id = doc.get("id").and_then(Json::as_str).map(str::to_string).expect("dup id");
        if let Some(first) = &dup_id {
            check(*first == this_id, "duplicate submissions share one job id");
        } else {
            dup_id = Some(this_id);
        }
        if doc.get("coalesced") == Some(&Json::Bool(true)) {
            coalesced += 1;
        }
    }
    check(coalesced >= 7, "at least 7 of 8 duplicates coalesced onto the first");

    // Phase 4: admission control. The worker is busy and the queue holds
    // the duplicate job; distinct jobs must overflow the cap of 2 into 429.
    let mut overflow_ids = Vec::new();
    let mut saw_429 = false;
    for llc_mb in [2u64, 3, 4, 5] {
        let body = format!(
            r#"{{"policies": ["NRU"], "apps": ["Dirt"], "llc_mb": {llc_mb}, "scale": "tiny"}}"#
        );
        let (status, doc, retry_after) = submit(&addr, &body);
        if status == 429 {
            check(retry_after.as_deref() == Some("1"), "429 carries Retry-After: 1");
            saw_429 = true;
            break;
        }
        check(status == 202, "pre-overflow submission queued");
        overflow_ids.push(doc.get("id").and_then(Json::as_str).unwrap().to_string());
    }
    check(saw_429, "bounded queue rejected overflow with 429");
    check(
        metric(&scrape(&addr), "grserve_jobs_rejected_total") >= 1,
        "rejection counter incremented",
    );

    // Let the backlog settle and confirm exactly one execution served all
    // eight duplicate submissions.
    let exec_before_wait = metric(&before, "grserve_executions_total");
    await_done(&addr, &blocker_id);
    let dup_id = dup_id.expect("dup id");
    await_done(&addr, &dup_id);
    for id in &overflow_ids {
        await_done(&addr, id);
    }
    let settled = scrape(&addr);
    check(
        metric(&settled, "grserve_executions_total")
            == exec_before_wait + 2 + overflow_ids.len() as u64,
        "eight duplicate submissions cost exactly one execution",
    );
    check(metric(&settled, "grserve_jobs_coalesced_total") >= 7, "coalesce counter incremented");

    // Phase 5: graceful drain. Queue one more job, then ask the daemon to
    // stop; the accepted job must complete, new work must be refused with
    // 503, and the process must exit cleanly.
    let parting = r#"{"policies": ["DRRIP"], "apps": ["AssnCreed"], "scale": "tiny"}"#;
    let (status, parting_doc, _) = submit(&addr, parting);
    check(status == 202, "parting job accepted before shutdown");
    let parting_id =
        parting_doc.get("id").and_then(Json::as_str).map(str::to_string).expect("parting id");

    match &daemon {
        Some(d) => terminate(d),
        None => {
            let (status, _, _) =
                http(&addr, "POST", "/v1/shutdown", Some("")).expect("shutdown request");
            check(status == 200, "http shutdown accepted");
        }
    }

    // The drain flag is set by the daemon's signal poll loop; retry until
    // a fresh submission observes 503.
    let mut saw_503 = false;
    for llc_mb in 6u64..30 {
        let body = format!(
            r#"{{"policies": ["NRU"], "apps": ["DMC"], "llc_mb": {llc_mb}, "scale": "tiny"}}"#
        );
        let (status, _, _) = submit(&addr, &body);
        if status == 503 {
            saw_503 = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    check(saw_503, "draining server refuses new jobs with 503");

    let parting_status = await_done(&addr, &parting_id);
    check(
        parting_status.get("state").and_then(Json::as_str) == Some("done"),
        "job accepted before shutdown completed during the drain",
    );

    let final_metrics = scrape(&addr);
    if let Some(path) = &metrics_out {
        std::fs::write(path, &final_metrics)
            .unwrap_or_else(|e| cli::user_error(&format!("write {}: {e}", path.display())));
        println!("grload: metrics snapshot written to {}", path.display());
    }

    if let Some(mut d) = daemon {
        let status =
            d.child.wait().unwrap_or_else(|e| cli::user_error(&format!("waiting for daemon: {e}")));
        check(status.success(), "daemon exited 0 after the drain");
    }
    println!("grload: smoke passed");
}

/// Sends SIGTERM on unix; falls back to the HTTP shutdown endpoint.
fn terminate(daemon: &Daemon) {
    #[cfg(unix)]
    {
        let status = Command::new("kill")
            .args(["-TERM", &daemon.child.id().to_string()])
            .status()
            .expect("spawn kill");
        check(status.success(), "SIGTERM delivered to daemon");
    }
    #[cfg(not(unix))]
    {
        let (status, _, _) =
            http(&daemon.addr, "POST", "/v1/shutdown", Some("")).expect("shutdown request");
        check(status == 200, "http shutdown accepted");
    }
}
