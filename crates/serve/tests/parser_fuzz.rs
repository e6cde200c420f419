//! Seeded byte-mutation tests for the daemon's two parsers of outside
//! bytes: the incremental HTTP request parser and the job-spec parser
//! (which parses its JSON with `grjson::Json::parse`). Hostile input must
//! come back as an error, never a panic; deterministically seeded, no
//! fuzzing dependency.

use grjson::Json;
use grserve::http::{ParseError, RequestParser};
use grserve::JobSpec;
use grsynth::Scale;

/// SplitMix64 — a tiny deterministic generator for test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        (0..self.below(max_len)).map(|_| self.next() as u8).collect()
    }
}

/// Bytes that steer a mutation toward the parsers' structure rather than
/// away from it.
const TOKENS: &[&[u8]] = &[
    b"\r\n",
    b"\r\n\r\n",
    b":",
    b"Content-Length: ",
    b"99999999999999999999",
    b"Connection: close",
    b"HTTP/1.0",
    b"{",
    b"}",
    b"\"",
    b"\\ud800",
    b"1e999",
];

/// Applies 1 to `max_edits` random edits: flip a byte, insert a random
/// byte or a structural token, delete a range, or duplicate a range.
fn mutate(rng: &mut Rng, seed: &[u8], max_edits: u64) -> Vec<u8> {
    let mut out = seed.to_vec();
    for _ in 0..1 + rng.below(max_edits) {
        let at = rng.below(out.len() as u64 + 1) as usize;
        match rng.below(5) {
            0 if at < out.len() => out[at] ^= 1 << rng.below(8),
            1 => out.insert(at, rng.next() as u8),
            2 => {
                let token = TOKENS[rng.below(TOKENS.len() as u64) as usize];
                out.splice(at..at, token.iter().copied());
            }
            3 if at < out.len() => {
                let end = at + 1 + rng.below((out.len() - at) as u64) as usize;
                out.drain(at..end.min(out.len()));
            }
            _ if at < out.len() => {
                let end = (at + 1 + rng.below(16) as usize).min(out.len());
                let copy = out[at..end].to_vec();
                out.splice(at..at, copy);
            }
            _ => out.push(rng.next() as u8),
        }
    }
    out
}

/// A pipelined stream of well-formed requests, the seed of the HTTP
/// mutations.
fn valid_requests() -> Vec<u8> {
    let body = br#"{"apps": ["HAWX", "BioShock"], "frames": 2, "scale": "tiny"}"#;
    let mut out = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out.extend_from_slice(b"GET /v1/jobs/abc?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n");
    out.extend_from_slice(b"GET /metrics HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    out.extend_from_slice(b"DELETE /v1/jobs/abc HTTP/1.1\r\nConnection: close\r\n\r\n");
    out
}

/// What a parser made of a byte stream: every request it popped (as its
/// `Debug` rendering) and how the stream ended.
#[derive(Debug, PartialEq)]
struct Outcome {
    requests: Vec<String>,
    end: String,
}

/// Feeds `bytes` to a fresh parser in the given chunk sizes, popping
/// after every push the way the event loop does, and stopping at the
/// first error (framing is lost after one).
fn parse_in_chunks(bytes: &[u8], chunks: &[usize]) -> Outcome {
    let mut parser = RequestParser::new();
    let mut requests = Vec::new();
    let mut fed = 0;
    for &chunk in chunks {
        let next = (fed + chunk).min(bytes.len());
        parser.push(&bytes[fed..next]);
        fed = next;
        loop {
            match parser.pop() {
                Ok(Some(request)) => requests.push(format!("{request:?}")),
                Ok(None) => break,
                Err(err) => {
                    let end = match err {
                        ParseError::Malformed(_) => "malformed".to_string(),
                        other => format!("{other:?}"),
                    };
                    return Outcome { requests, end };
                }
            }
        }
    }
    assert_eq!(fed, bytes.len(), "chunks must cover the input");
    let end = if parser.has_partial() { "partial" } else { "clean" };
    Outcome { requests, end: end.to_string() }
}

/// Random chunk sizes covering `len` bytes, with a bias toward tiny
/// chunks so request heads and lengths split at every kind of boundary.
fn random_splits(rng: &mut Rng, len: usize) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut covered = 0;
    while covered < len {
        let chunk = if rng.below(2) == 0 { 1 + rng.below(4) } else { 1 + rng.below(64) } as usize;
        chunks.push(chunk);
        covered += chunk;
    }
    chunks
}

/// Random bytes pushed in random splits never panic the HTTP parser.
#[test]
fn http_parser_never_panics_on_random_bytes() {
    let mut rng = Rng(17);
    for _ in 0..512 {
        let bytes = rng.bytes(512);
        let splits = random_splits(&mut rng, bytes.len());
        let _ = parse_in_chunks(&bytes, &splits);
    }
}

/// Mutated pipelined requests never panic the parser, and how they parse
/// does not depend on how the stream was split into reads.
#[test]
fn http_parser_is_split_independent_on_mutated_requests() {
    let seed = valid_requests();
    let whole = parse_in_chunks(&seed, &[seed.len()]);
    assert_eq!(whole.requests.len(), 4, "the seed stream parses: {whole:?}");
    assert_eq!(whole.end, "clean");

    let mut rng = Rng(23);
    for case in 0..1024 {
        let bytes = if case == 0 { seed.clone() } else { mutate(&mut rng, &seed, 8) };
        let whole = parse_in_chunks(&bytes, &[bytes.len()]);
        let splits = random_splits(&mut rng, bytes.len());
        let split = parse_in_chunks(&bytes, &splits);
        assert_eq!(whole, split, "case {case}: {:?}", String::from_utf8_lossy(&bytes));
    }
}

/// Valid specs covering every field the parser accepts; the seeds of the
/// spec mutations.
const VALID_SPECS: &[&str] = &[
    r#"{"policies": ["NRU"]}"#,
    r#"{"policies": ["DRRIP", "GSPC+UCD", "DRRIP"], "apps": ["HAWX", "BioShock"], "frames": 3}"#,
    r#"{"policies": ["GSPZTC(t=4)"], "llc_mb": 16, "scale": "tiny", "characterize": true}"#,
    r#"{"policies": ["OPT", "SRRIP"], "profile": "deferred", "coherence": 0.85}"#,
    r#"{"apps": [], "policies": ["LRU"], "scale": "quarter", "frames": 52, "llc_mb": 64}"#,
];

/// Turns a canonical spec back into a request body: the canonical form
/// adds `version`, `geometry` and a per-mille coherence, which requests
/// do not accept, and lists no apps for a profile spec.
fn canonical_as_request(spec: &JobSpec) -> String {
    let canonical = spec.canonical_json();
    let mut request = Json::obj();
    for (key, value) in canonical.entries().expect("canonical spec is an object") {
        match (key.as_str(), value) {
            ("version" | "geometry", _) => {}
            ("apps", Json::Arr(apps)) if apps.is_empty() => {}
            ("coherence_milli", milli) => {
                request.set("coherence", milli.as_f64().expect("per-mille number") / 1000.0);
            }
            _ => {
                request.set(key.as_str(), value.clone());
            }
        }
    }
    request.to_string_pretty()
}

/// Mutated specs and random bytes never panic `JobSpec::parse`, and any
/// spec it accepts keeps its id when its canonical form is parsed again.
#[test]
fn job_spec_parse_never_panics_and_accepted_specs_round_trip() {
    for spec in VALID_SPECS {
        JobSpec::parse(spec, Scale::Tiny).unwrap_or_else(|e| panic!("seed {spec}: {e}"));
    }
    let mut rng = Rng(29);
    let mut accepted = 0;
    for case in 0..4096 {
        let bytes = if case % 4 == 0 {
            rng.bytes(256)
        } else {
            let seed = VALID_SPECS[rng.below(VALID_SPECS.len() as u64) as usize];
            mutate(&mut rng, seed.as_bytes(), 2)
        };
        let text = String::from_utf8_lossy(&bytes);
        let Ok(spec) = JobSpec::parse(&text, Scale::Tiny) else { continue };
        accepted += 1;
        let again = JobSpec::parse(&canonical_as_request(&spec), Scale::Full)
            .unwrap_or_else(|e| panic!("case {case}: canonical form rejected ({e}): {text}"));
        assert_eq!(again.id(), spec.id(), "case {case}: {text}");
    }
    assert!(accepted >= 16, "only {accepted} mutated specs accepted; the mutations are too coarse");
}
