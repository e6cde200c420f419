//! The tracked replay microbenchmark behind `grbench perf`.
//!
//! Times [`grcache::Llc::run_source`] policy by policy on cached
//! synthesized frames, through three replay modes:
//!
//! * **scalar** — [`gspc::registry::with_policy`] with the probe kind
//!   pinned to [`grcache::ProbeKind::Scalar`]: the monomorphized visitor
//!   path running the per-access loop, the default on hosts without AVX2.
//! * **mono** — the same visitor path on the host's default kind
//!   ([`grcache::ProbeKind::best_available`]): the batched AVX2 driver the
//!   experiment runner uses where the host has AVX2.
//! * **boxed** — [`gspc::registry::create`], the `Box<dyn Policy>`
//!   fallback paying a virtual call per policy event.
//!
//! # Measurement discipline
//!
//! Shared-vCPU hosts show ±15% run-to-run noise, easily swamping the
//! effects being tracked. Two countermeasures:
//!
//! * **Interleaved rounds.** Each policy's modes are timed in [`ROUNDS`]
//!   rounds of one window per mode, cycling scalar → mono → boxed within
//!   each round, so every mode samples the same stretches of wall
//!   clock. A background daemon that fires mid-measurement slows one
//!   window of *every* mode instead of poisoning whichever single mode
//!   owned that time slice.
//! * **Best-of windows.** Interference only ever slows a window down, so
//!   the per-mode rate is the *max* over its windows — the minimum-time
//!   estimator benchmark harnesses conventionally use.
//!
//! The per-policy rates, their ratios, and the geometric means go into
//! `BENCH_replay.json`, nested per scale (tiny and quarter by default) so
//! the repository tracks both the L2-resident and the memory-bound
//! regime. Absolute rates vary with the host, so the regression gate
//! ([`PerfReport::check_against_baseline`]) compares each policy's
//! *normalized* rates — its rate divided by the run's geometric mean — on
//! both the mono and the scalar path: a policy (or path) that slows down
//! relative to its peers fails the gate even on faster hardware.
//!
//! Everything here is `std`-only by design (the experiment registry is
//! offline, so no criterion); the harness brings its own warmup,
//! interleaved best-of timed loop, and JSON document builder.

use std::time::Instant;

use grcache::{Llc, LlcConfig, Policy, ProbeKind};
use grsynth::{AppProfile, Scale};
use gspc::registry;
use gspc::registry::PolicyVisitor;

use crate::framecache::{self, FrameData};
use crate::json::Json;
use crate::ExperimentConfig;

/// Interleaved measurement rounds per (policy, scale). Each round times
/// one window of every mode back to back; `PerfOptions::min_secs` is
/// split evenly across a mode's rounds.
const ROUNDS: u32 = 6;

/// What to measure.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Registry names of the policies to time.
    pub policies: Vec<String>,
    /// Application abbreviation of the frame to replay (Table 1).
    pub app: String,
    /// Frame index within the application.
    pub frame: u32,
    /// LLC capacity at native scale, in megabytes.
    pub llc_paper_mb: u64,
    /// Total timed duration per (policy, scale, mode) measurement, in
    /// seconds, split across [`ROUNDS`] interleaved best-of windows. Each
    /// mode replays the frame at least `ROUNDS + 1` times (one warmup
    /// replay plus one per window) regardless.
    pub min_secs: f64,
    /// Rendering scales to measure, each its own section of the report.
    /// Tiny keeps the whole working set L2-resident (pure replay-loop
    /// arithmetic); quarter spills to memory, exercising the prefetch and
    /// latency-hiding side of the batched front end.
    pub scales: Vec<Scale>,
}

impl PerfOptions {
    /// The default sweep: the registry's `perf` group (the acceptance
    /// pair, the paper's headline policies, and the OPT family — the
    /// registry's own tests pin the membership), one BioShock frame at
    /// tiny and quarter scale, half a second per measurement.
    pub fn default_sweep() -> Self {
        PerfOptions {
            policies: registry::group_names(registry::GROUP_PERF),
            app: "BioShock".to_string(),
            frame: 0,
            llc_paper_mb: 8,
            min_secs: 0.5,
            scales: vec![Scale::Tiny, Scale::Quarter],
        }
    }
}

/// One policy's measured replay rates at one scale.
#[derive(Debug, Clone)]
pub struct PolicyRate {
    /// Registry name.
    pub name: String,
    /// Accesses/sec through the monomorphized visitor path with the probe
    /// kind pinned to scalar — the per-access loop.
    pub scalar: f64,
    /// Accesses/sec through the monomorphized visitor path on the host's
    /// default probe kind.
    pub mono: f64,
    /// Accesses/sec through the boxed fallback path (default kind).
    pub boxed: f64,
}

impl PolicyRate {
    /// Mono rate over boxed rate — the devirtualization payoff.
    pub fn speedup(&self) -> f64 {
        ratio(self.mono, self.boxed)
    }

    /// Mono rate over scalar rate — the batched driver's payoff over the
    /// per-access loop.
    pub fn simd_speedup(&self) -> f64 {
        ratio(self.mono, self.scalar)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One scale's worth of measurements.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Rendering scale of the replayed frame.
    pub scale: Scale,
    /// LLC accesses in one replay of the frame.
    pub accesses_per_replay: u64,
    /// Per-policy rates, in the order requested.
    pub rates: Vec<PolicyRate>,
}

impl ScaleReport {
    /// Geometric mean of the scalar rates.
    pub fn geomean_scalar(&self) -> f64 {
        geomean(self.rates.iter().map(|r| r.scalar))
    }

    /// Geometric mean of the mono rates.
    pub fn geomean_mono(&self) -> f64 {
        geomean(self.rates.iter().map(|r| r.mono))
    }

    /// Geometric mean of the boxed rates.
    pub fn geomean_boxed(&self) -> f64 {
        geomean(self.rates.iter().map(|r| r.boxed))
    }

    /// A policy's mono rate divided by the scale's geometric mean — the
    /// host-independent number the regression gate compares.
    pub fn normalized_mono(&self, rate: &PolicyRate) -> f64 {
        ratio(rate.mono, self.geomean_mono())
    }

    /// A policy's scalar rate divided by the scale's geometric mean. The
    /// gate checks this alongside the mono figure so a regression on the
    /// per-access loop cannot hide behind a healthy batched path.
    pub fn normalized_scalar(&self, rate: &PolicyRate) -> f64 {
        ratio(rate.scalar, self.geomean_scalar())
    }

    fn to_json(&self) -> Json {
        let mut policies = Json::obj();
        for r in &self.rates {
            let mut entry = Json::obj();
            entry
                .set("scalar_accesses_per_sec", r.scalar)
                .set("mono_accesses_per_sec", r.mono)
                .set("boxed_accesses_per_sec", r.boxed)
                .set("speedup", r.speedup())
                .set("simd_speedup", r.simd_speedup())
                .set("normalized_mono", self.normalized_mono(r))
                .set("normalized_scalar", self.normalized_scalar(r));
            policies.set(r.name.clone(), entry);
        }
        let mut geomean = Json::obj();
        geomean
            .set("scalar_accesses_per_sec", self.geomean_scalar())
            .set("mono_accesses_per_sec", self.geomean_mono())
            .set("boxed_accesses_per_sec", self.geomean_boxed())
            .set("speedup", ratio(self.geomean_mono(), self.geomean_boxed()))
            .set("simd_speedup", ratio(self.geomean_mono(), self.geomean_scalar()));
        let mut doc = Json::obj();
        doc.set("accesses_per_replay", self.accesses_per_replay)
            .set("policies", policies)
            .set("geomean", geomean);
        doc
    }
}

/// Results of one [`run`] invocation.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Application abbreviation.
    pub app: String,
    /// Frame index.
    pub frame: u32,
    /// One section per measured scale, in the order requested.
    pub scales: Vec<ScaleReport>,
}

impl PerfReport {
    /// Renders the report as the `BENCH_replay.json` document: run-wide
    /// metadata at the top level, one `scales.<name>` object per measured
    /// scale.
    pub fn to_json(&self, git_rev: &str) -> Json {
        let mut scales = Json::obj();
        for sr in &self.scales {
            scales.set(scale_name(sr.scale), sr.to_json());
        }
        let mut doc = Json::obj();
        doc.set("benchmark", "replay")
            .set("git_rev", git_rev)
            .set("app", self.app.clone())
            .set("frame", self.frame)
            .set("threads", 1u64)
            .set("scales", scales);
        doc
    }

    /// Compares this run's normalized rates against a committed baseline
    /// document (a previous [`PerfReport::to_json`] output).
    ///
    /// Both the mono and the scalar path are gated, per scale: a policy
    /// regresses when either normalized rate drops more than `tolerance`
    /// (e.g. `0.25`) below the baseline's. Scales or policies absent from
    /// the baseline are skipped — extending the sweep must not fail the
    /// gate until the baseline is refreshed.
    ///
    /// # Errors
    ///
    /// Returns one message per regressed (scale, policy, path).
    pub fn check_against_baseline(
        &self,
        baseline: &Json,
        tolerance: f64,
    ) -> Result<(), Vec<String>> {
        let mut failures = Vec::new();
        for sr in &self.scales {
            let Some(base_scale) = baseline.get("scales").and_then(|s| s.get(scale_name(sr.scale)))
            else {
                continue;
            };
            for r in &sr.rates {
                let Some(entry) = base_scale.get("policies").and_then(|p| p.get(&r.name)) else {
                    continue;
                };
                let checks = [
                    ("normalized_mono", sr.normalized_mono(r)),
                    ("normalized_scalar", sr.normalized_scalar(r)),
                ];
                for (field, now) in checks {
                    let Some(base) = entry.get(field).and_then(Json::as_f64) else {
                        continue;
                    };
                    if now < base * (1.0 - tolerance) {
                        failures.push(format!(
                            "{}/{}: {} {:.3} fell more than {:.0}% below baseline {:.3}",
                            scale_name(sr.scale),
                            r.name,
                            field,
                            now,
                            tolerance * 100.0,
                            base
                        ));
                    }
                }
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures)
        }
    }
}

fn geomean(rates: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for r in rates {
        if r > 0.0 {
            log_sum += r.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// The conventional environment-variable spelling of a scale.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Half => "half",
        Scale::Quarter => "quarter",
        Scale::Tiny => "tiny",
    }
}

/// One replay of the cached frame through a freshly constructed policy,
/// with the probe kind pinned to `kind`. Used as the [`PolicyVisitor`]
/// for the scalar and mono measurements and called directly with a boxed
/// policy for the boxed ones, so all three modes time byte-for-byte the
/// same replay body.
struct ReplayOnce<'a> {
    data: &'a FrameData,
    needs_nu: bool,
    llc_cfg: LlcConfig,
    kind: ProbeKind,
}

impl ReplayOnce<'_> {
    fn run<P: Policy>(self, policy: P) -> u64 {
        let mut llc = Llc::new(self.llc_cfg, policy);
        llc.set_probe_kind(self.kind);
        let served = if self.needs_nu {
            llc.run_source(&mut self.data.trace.source_annotated(self.data.next_use()))
        } else {
            llc.run_source(&mut self.data.trace.source())
        };
        served.expect("in-memory replay cannot fail")
    }
}

impl PolicyVisitor for ReplayOnce<'_> {
    type Output = u64;
    fn visit<P: Policy + 'static>(self, policy: P) -> u64 {
        self.run(policy)
    }
}

/// Running best-of accumulator for one mode across its interleaved
/// windows. Each window replays for at least `window_secs`; the final
/// figure is the fastest window's accesses/sec.
struct BestRate(f64);

impl BestRate {
    fn window(&mut self, window_secs: f64, one_replay: &mut dyn FnMut() -> u64) {
        let started = Instant::now();
        let mut accesses = 0u64;
        loop {
            accesses += one_replay();
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed >= window_secs {
                self.0 = self.0.max(accesses as f64 / elapsed);
                break;
            }
        }
    }
}

/// Runs the benchmark: times every requested policy through every mode at
/// every requested scale.
///
/// # Panics
///
/// Panics on unknown policy or application names.
pub fn run(opts: &PerfOptions, cfg: &ExperimentConfig) -> PerfReport {
    let app = AppProfile::by_abbrev(&opts.app)
        .unwrap_or_else(|| panic!("unknown application {}", opts.app));
    // The host's default kind; the scalar mode pins ProbeKind::Scalar.
    let kind = ProbeKind::best_available();
    let scales = opts.scales.iter().map(|&scale| run_scale(opts, cfg, &app, scale, kind)).collect();
    PerfReport { app: opts.app.clone(), frame: opts.frame, scales }
}

fn run_scale(
    opts: &PerfOptions,
    cfg: &ExperimentConfig,
    app: &AppProfile,
    scale: Scale,
    kind: ProbeKind,
) -> ScaleReport {
    let scale_cfg = ExperimentConfig { scale, frames_per_app: cfg.frames_per_app };
    let llc_cfg = scale_cfg.llc(opts.llc_paper_mb);
    let data = framecache::frame_data(app, opts.frame, scale);
    let accesses_per_replay = data.trace.len() as u64;
    let window_secs = opts.min_secs / f64::from(ROUNDS);

    let mut rates = Vec::with_capacity(opts.policies.len());
    for name in &opts.policies {
        let needs_nu = registry::needs_next_use(name);
        if needs_nu {
            data.next_use(); // annotate outside the timed loops
        }
        // Policy construction stays inside the timed closures — it is one
        // registry dispatch per whole-frame replay, which is exactly what
        // the experiment runner pays per cell.
        let mut scalar_once = || {
            let visit = ReplayOnce { data: &data, needs_nu, llc_cfg, kind: ProbeKind::Scalar };
            registry::with_policy(name, &llc_cfg, visit)
                .unwrap_or_else(|| panic!("unknown policy {name}"))
        };
        let mut mono_once = || {
            let visit = ReplayOnce { data: &data, needs_nu, llc_cfg, kind };
            registry::with_policy(name, &llc_cfg, visit)
                .unwrap_or_else(|| panic!("unknown policy {name}"))
        };
        let mut boxed_once = || {
            let policy =
                registry::create(name, &llc_cfg).unwrap_or_else(|| panic!("unknown policy {name}"));
            ReplayOnce { data: &data, needs_nu, llc_cfg, kind }.run(policy)
        };

        scalar_once();
        mono_once();
        boxed_once();

        let mut scalar = BestRate(0.0);
        let mut mono = BestRate(0.0);
        let mut boxed = BestRate(0.0);
        for _ in 0..ROUNDS {
            scalar.window(window_secs, &mut scalar_once);
            mono.window(window_secs, &mut mono_once);
            boxed.window(window_secs, &mut boxed_once);
        }
        rates.push(PolicyRate {
            name: name.clone(),
            scalar: scalar.0,
            mono: mono.0,
            boxed: boxed.0,
        });
    }

    ScaleReport { scale, accesses_per_replay, rates }
}

/// The current commit's abbreviated hash, or `"unknown"` outside a git
/// checkout (e.g. a source tarball).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PerfReport {
        PerfReport {
            app: "BioShock".to_string(),
            frame: 0,
            scales: vec![ScaleReport {
                scale: Scale::Tiny,
                accesses_per_replay: 1000,
                rates: vec![
                    PolicyRate { name: "NRU".into(), scalar: 2e7, mono: 4e7, boxed: 2e7 },
                    PolicyRate { name: "SRRIP".into(), scalar: 5e6, mono: 1e7, boxed: 8e6 },
                ],
            }],
        }
    }

    #[test]
    fn geomean_ignores_zero_rates() {
        assert!((geomean([4.0, 9.0].into_iter()) - 6.0).abs() < 1e-9);
        assert!((geomean([0.0, 9.0].into_iter()) - 9.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn report_document_shape() {
        let doc = tiny_report().to_json("abc1234");
        assert_eq!(doc.get("git_rev").and_then(Json::as_str), Some("abc1234"));
        let tiny = doc.get("scales").and_then(|s| s.get("tiny")).expect("tiny scale");
        assert_eq!(tiny.get("accesses_per_replay").and_then(Json::as_f64), Some(1000.0));
        let nru = tiny.get("policies").and_then(|p| p.get("NRU")).expect("NRU entry");
        assert_eq!(nru.get("mono_accesses_per_sec").and_then(Json::as_f64), Some(4e7));
        assert_eq!(nru.get("scalar_accesses_per_sec").and_then(Json::as_f64), Some(2e7));
        assert_eq!(nru.get("speedup").and_then(Json::as_f64), Some(2.0));
        assert_eq!(nru.get("simd_speedup").and_then(Json::as_f64), Some(2.0));
        // geomean(4e7, 1e7) = 2e7, so NRU's normalized mono rate is 2.
        let norm = nru.get("normalized_mono").and_then(Json::as_f64).unwrap();
        assert!((norm - 2.0).abs() < 1e-9, "normalized {norm}");
        // geomean(2e7, 5e6) = 1e7, so NRU's normalized scalar rate is 2.
        let norm = nru.get("normalized_scalar").and_then(Json::as_f64).unwrap();
        assert!((norm - 2.0).abs() < 1e-9, "normalized scalar {norm}");
        // The document is its own baseline: a fresh identical run passes.
        let report = tiny_report();
        assert!(report.check_against_baseline(&doc, 0.25).is_ok());
    }

    #[test]
    fn baseline_gate_catches_relative_regression() {
        let baseline = tiny_report().to_json("abc1234");
        let mut slow = tiny_report();
        // NRU's mono rate collapses to SRRIP's speed: its normalized rate
        // halves even though SRRIP's *absolute* rate is unchanged (SRRIP's
        // normalized rate rises, which is fine).
        slow.scales[0].rates[0].mono = 1e7;
        let err = slow.check_against_baseline(&baseline, 0.25).expect_err("must regress");
        assert_eq!(err.len(), 1);
        assert!(err[0].starts_with("tiny/NRU: normalized_mono"), "{}", err[0]);
    }

    #[test]
    fn baseline_gate_catches_scalar_path_regression() {
        let baseline = tiny_report().to_json("abc1234");
        let mut slow = tiny_report();
        // The per-access loop regresses while the batched path
        // stays healthy — the gate must still fire.
        slow.scales[0].rates[0].scalar = 5e6;
        let err = slow.check_against_baseline(&baseline, 0.25).expect_err("must regress");
        assert_eq!(err.len(), 1);
        assert!(err[0].starts_with("tiny/NRU: normalized_scalar"), "{}", err[0]);
    }

    #[test]
    fn baseline_gate_skips_unknown_policies_and_scales() {
        let baseline = tiny_report().to_json("abc1234");
        let mut extended = tiny_report();
        extended.scales[0].rates.push(PolicyRate {
            name: "LRU".into(),
            scalar: 1.0,
            mono: 1.0,
            boxed: 1.0,
        });
        extended.scales.push(ScaleReport {
            scale: Scale::Quarter,
            accesses_per_replay: 4000,
            rates: vec![PolicyRate { name: "NRU".into(), scalar: 1.0, mono: 1.0, boxed: 1.0 }],
        });
        // LRU and the quarter scale are absent from the baseline; their
        // (terrible) rates must not fail the gate.
        assert!(extended.check_against_baseline(&baseline, 0.25).is_ok());
    }

    /// End-to-end smoke run: tiny frame, minimal timed loops, all three
    /// modes producing positive rates.
    #[test]
    fn benchmark_produces_positive_rates() {
        let opts = PerfOptions {
            policies: vec!["NRU".to_string()],
            min_secs: 0.02,
            scales: vec![Scale::Tiny],
            ..PerfOptions::default_sweep()
        };
        let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
        let report = run(&opts, &cfg);
        assert_eq!(report.scales.len(), 1);
        let sr = &report.scales[0];
        assert_eq!(sr.rates.len(), 1);
        assert!(sr.accesses_per_replay > 0);
        let r = &sr.rates[0];
        assert!(r.scalar > 0.0);
        assert!(r.mono > 0.0);
        assert!(r.boxed > 0.0);
    }
}
