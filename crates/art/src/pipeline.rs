//! The two artifact tiers and the jobs that build them.
//!
//! Every replay in the pipeline is phrased as a canonical `grserved`
//! job-spec body and handed to a [`JobSource`] — the artifact layer
//! never touches the simulator directly. One job per (figure, policy)
//! keeps the specs small and exercises the serving stack's coalescing
//! and result cache: the Figure 17 panels reuse Figure 15's exact spec
//! bytes, so on a served run they are cache hits by construction.
//!
//! Figure FPS points use the count-driven path
//! ([`figures::fps_from_counts`]): payloads carry per-workload miss,
//! writeback, and work counters, and the GPU interval model turns them
//! into FPS deterministically. Payload bytes are a pure function of
//! the spec, so artifacts are byte-identical whether the jobs ran
//! in-process or in a spawned daemon.

use grbench::figures::{self, CountedCell, PerfConfig};
use grcheck::conform;
use grjson::Json;
use grsynth::{AppProfile, Scale, GRAPH_PROFILES};

use crate::artifact::{fixed, markdown_table, Artifact};
use crate::source::JobSource;

/// One pipeline tier: how much of the study to reproduce.
pub struct Tier {
    /// Tier name (also the default output subdirectory).
    pub name: &'static str,
    /// Rendering scale for every replay job.
    pub scale: Scale,
    /// Frames per app (clamped per app by the harness).
    pub frames: u32,
    /// Apps covered by the conformance panel section.
    pub conform_apps: usize,
    /// Whether to emit the full-study artifacts (Figures 16/17 and the
    /// frame-graph profiles) on top of the kick-tires set.
    pub full: bool,
}

/// The kick-tires tier: headline claims at tiny scale, in minutes.
pub fn kick_tires() -> Tier {
    Tier { name: "kick-tires", scale: Scale::Tiny, frames: 1, conform_apps: 2, full: false }
}

/// The full tier: every app over its captured frames at half scale.
pub fn full() -> Tier {
    Tier { name: "full", scale: Scale::Half, frames: 52, conform_apps: 12, full: true }
}

/// Everything a tier run produces.
pub struct PipelineOutput {
    /// The artifacts, in emission order.
    pub artifacts: Vec<Artifact>,
    /// Whether every conformance section passed.
    pub conformance_pass: bool,
}

/// Runs `tier`'s jobs through `source` and builds its artifacts.
///
/// # Errors
///
/// Propagates job execution and payload-shape problems.
pub fn run(tier: &Tier, source: &JobSource) -> Result<PipelineOutput, String> {
    let mut artifacts = vec![table1()];

    eprintln!("grart: [{}] figure 12 sweep via {}", tier.name, source.describe());
    artifacts.push(fig12(tier, source)?);

    let panels: Vec<PerfConfig> =
        if tier.full { figures::all_panels().to_vec() } else { vec![figures::fig15()] };
    for panel in &panels {
        eprintln!("grart: [{}] {} via {}", tier.name, panel.key, source.describe());
        artifacts.push(figure_panel(tier, source, panel)?);
    }

    if tier.full {
        eprintln!("grart: [{}] frame-graph profiles via {}", tier.name, source.describe());
        artifacts.push(profiles(tier, source)?);
    }

    eprintln!("grart: [{}] conformance panel", tier.name);
    let (conformance, pass) = conformance(tier);
    artifacts.push(conformance);

    Ok(PipelineOutput { artifacts, conformance_pass: pass })
}

/// The canonical body for an app-grid job over one policy.
fn job_body(policy: &str, frames: u32, llc_mb: u64, scale: Scale) -> String {
    let mut doc = Json::obj();
    doc.set("policies", Json::Arr(vec![Json::Str(policy.to_string())]))
        .set("frames", u64::from(frames))
        .set("llc_mb", llc_mb)
        .set("scale", grserve::spec::scale_name(scale));
    doc.to_string_pretty()
}

/// The canonical body for a frame-graph profile job.
fn profile_body(profile: &str, policies: &[&str], frames: u32, scale: Scale) -> String {
    let mut doc = Json::obj();
    doc.set("policies", Json::Arr(policies.iter().map(|p| Json::Str(p.to_string())).collect()))
        .set("profile", profile)
        .set("frames", u64::from(frames))
        .set("scale", grserve::spec::scale_name(scale));
    doc.to_string_pretty()
}

/// Runs one job and returns its parsed payload.
fn run_job(source: &JobSource, body: &str) -> Result<Json, String> {
    let payload = source.payload(body)?;
    Json::parse(&payload).map_err(|e| format!("payload is not valid JSON: {e}"))
}

/// The per-workload result entry for `policy`/`workload` in a payload.
fn result_entry<'p>(payload: &'p Json, policy: &str, workload: &str) -> Result<&'p Json, String> {
    payload
        .get("results")
        .and_then(|r| r.get(policy))
        .and_then(|p| p.get(workload))
        .ok_or_else(|| format!("payload missing results.{policy}.{workload}"))
}

/// An exact integer field of a result entry.
fn entry_u64(entry: &Json, key: &str) -> Result<u64, String> {
    match entry.get(key) {
        Some(Json::UInt(n)) => Ok(*n),
        other => Err(format!("entry field {key} is {other:?}, expected an integer")),
    }
}

/// Rebuilds the replay counts a payload entry carries.
fn counted_cell(entry: &Json) -> Result<CountedCell, String> {
    let work = entry.get("work").ok_or("entry missing work counters")?;
    Ok(CountedCell {
        frames: entry_u64(entry, "frames")?,
        accesses: entry_u64(entry, "accesses")?,
        misses: entry_u64(entry, "misses")?,
        writebacks: entry_u64(entry, "writebacks")?,
        shaded_pixels: entry_u64(work, "shaded_pixels")?,
        texel_samples: entry_u64(work, "texel_samples")?,
        vertices: entry_u64(work, "vertices")?,
    })
}

/// Table 1: the workload inventory, straight from the profiles.
fn table1() -> Artifact {
    let apps = AppProfile::all();
    let mut rows_json = Vec::new();
    let mut rows_md = Vec::new();
    for app in &apps {
        let mut row = Json::obj();
        row.set("abbrev", app.abbrev)
            .set("name", app.name)
            .set("dx", u64::from(app.dx_version))
            .set("resolution", format!("{}x{}", app.width, app.height))
            .set("frames", u64::from(app.frames));
        rows_json.push(row);
        rows_md.push(vec![
            app.abbrev.to_string(),
            app.name.to_string(),
            app.dx_version.to_string(),
            format!("{}x{}", app.width, app.height),
            app.frames.to_string(),
        ]);
    }
    let total_frames: u64 = apps.iter().map(|a| u64::from(a.frames)).sum();
    rows_md.push(vec!["ALL".into(), "-".into(), "-".into(), "-".into(), total_frames.to_string()]);

    let mut doc = Json::obj();
    doc.set("title", "Table 1: application workloads")
        .set("apps", Json::Arr(rows_json))
        .set("total_frames", total_frames);
    let markdown = markdown_table(
        "Table 1: application workloads",
        &["app", "name", "DX", "resolution", "frames"],
        &rows_md,
    );
    Artifact { name: "table1".into(), doc, markdown }
}

/// Figure 12: LLC misses normalized to two-bit DRRIP, one job per
/// policy (the baseline included).
fn fig12(tier: &Tier, source: &JobSource) -> Result<Artifact, String> {
    const BASELINE: &str = "DRRIP";
    let policies = grbench::experiments::fig12_policies();
    let apps = AppProfile::all();

    let baseline_payload = run_job(source, &job_body(BASELINE, tier.frames, 8, tier.scale))?;
    let mut baseline_misses = Vec::new();
    for app in &apps {
        baseline_misses
            .push(entry_u64(result_entry(&baseline_payload, BASELINE, app.abbrev)?, "misses")?);
    }

    let mut rows_json = Vec::new();
    let mut rows_md = Vec::new();
    for policy in &policies {
        let payload = run_job(source, &job_body(policy, tier.frames, 8, tier.scale))?;
        let mut normalized = Json::obj();
        let mut md_row = vec![policy.to_string()];
        let (mut ours_total, mut base_total) = (0u64, 0u64);
        for (app, base) in apps.iter().zip(&baseline_misses) {
            let misses = entry_u64(result_entry(&payload, policy, app.abbrev)?, "misses")?;
            ours_total += misses;
            base_total += base;
            let ratio = fixed(misses as f64 / (*base).max(1) as f64, 4);
            normalized.set(app.abbrev, ratio.clone());
            md_row.push(ratio);
        }
        let overall = fixed(ours_total as f64 / base_total.max(1) as f64, 4);
        normalized.set("ALL", overall.clone());
        md_row.push(overall);
        let mut row = Json::obj();
        row.set("policy", *policy).set("normalized_misses", normalized);
        rows_json.push(row);
        rows_md.push(md_row);
    }

    let mut doc = Json::obj();
    doc.set("title", "Figure 12: LLC misses normalized to two-bit DRRIP")
        .set("baseline", BASELINE)
        .set("llc_mb", 8u64)
        .set("scale", grserve::spec::scale_name(tier.scale))
        .set("frames", u64::from(tier.frames))
        .set("rows", Json::Arr(rows_json));
    let mut head = vec!["policy"];
    head.extend(apps.iter().map(|a| a.abbrev));
    head.push("ALL");
    let markdown =
        markdown_table("Figure 12: LLC misses normalized to two-bit DRRIP", &head, &rows_md);
    Ok(Artifact { name: "fig12".into(), doc, markdown })
}

/// One Figure 15–17 panel: count-driven FPS per app, normalized to the
/// panel baseline, plus GSPC's absolute workload FPS.
fn figure_panel(tier: &Tier, source: &JobSource, panel: &PerfConfig) -> Result<Artifact, String> {
    let apps = AppProfile::all();

    // One job per panel policy; cells per (policy, app).
    let mut cells: Vec<Vec<CountedCell>> = Vec::new();
    for policy in figures::PERF_POLICIES {
        let payload = run_job(source, &job_body(policy, tier.frames, panel.llc_mb, tier.scale))?;
        let mut per_app = Vec::new();
        for app in &apps {
            per_app.push(counted_cell(result_entry(&payload, policy, app.abbrev)?)?);
        }
        cells.push(per_app);
    }
    let policy_slot =
        |name: &str| figures::PERF_POLICIES.iter().position(|p| *p == name).expect("panel member");
    let baseline_slot = policy_slot(figures::PERF_BASELINE);
    let contenders: Vec<&str> = figures::perf_contenders().collect();

    let mut rows_json = Vec::new();
    let mut rows_md = Vec::new();
    for (app_index, app) in apps.iter().enumerate() {
        let base = figures::fps_from_counts(panel, &cells[baseline_slot][app_index]);
        let mut normalized = Json::obj();
        let mut md_row = vec![app.abbrev.to_string()];
        for contender in &contenders {
            let fps = figures::fps_from_counts(panel, &cells[policy_slot(contender)][app_index]);
            let ratio = fixed(fps / base, 4);
            normalized.set(*contender, ratio.clone());
            md_row.push(ratio);
        }
        let mut row = Json::obj();
        row.set("app", app.abbrev).set("normalized_fps", normalized);
        rows_json.push(row);
        rows_md.push(md_row);
    }

    // Workload-wide: merge every app's counts per policy.
    let overall_cell = |slot: usize| {
        let mut merged = CountedCell::default();
        for cell in &cells[slot] {
            merged.merge(cell);
        }
        merged
    };
    let overall_base = figures::fps_from_counts(panel, &overall_cell(baseline_slot));
    let mut normalized = Json::obj();
    let mut md_row = vec!["ALL".to_string()];
    for contender in &contenders {
        let fps = figures::fps_from_counts(panel, &overall_cell(policy_slot(contender)));
        let ratio = fixed(fps / overall_base, 4);
        normalized.set(*contender, ratio.clone());
        md_row.push(ratio);
    }
    let mut row = Json::obj();
    row.set("app", "ALL").set("normalized_fps", normalized);
    rows_json.push(row);
    rows_md.push(md_row);

    let gspc_fps = figures::fps_from_counts(panel, &overall_cell(policy_slot("GSPC+UCD")));

    let mut doc = Json::obj();
    doc.set("title", panel.title)
        .set("baseline", figures::PERF_BASELINE)
        .set("llc_mb", panel.llc_mb)
        .set("scale", grserve::spec::scale_name(tier.scale))
        .set("frames", u64::from(tier.frames))
        .set("rows", Json::Arr(rows_json))
        .set("gspc_fps", fixed(gspc_fps, 1));
    let mut head = vec!["app"];
    head.extend(contenders.iter().copied());
    rows_md.push(vec!["avg FPS (GSPC+UCD)".into(), fixed(gspc_fps, 1), "-".into(), "-".into()]);
    let markdown = markdown_table(panel.title, &head, &rows_md);
    Ok(Artifact { name: panel.key.into(), doc, markdown })
}

/// Frame-graph profiles: DRRIP vs GSPC hit rates per built-in profile.
fn profiles(tier: &Tier, source: &JobSource) -> Result<Artifact, String> {
    const POLICIES: [&str; 2] = ["DRRIP", "GSPC"];
    let mut rows_json = Vec::new();
    let mut rows_md = Vec::new();
    for profile in GRAPH_PROFILES {
        let body = profile_body(profile.name, &POLICIES, tier.frames, tier.scale);
        let payload = run_job(source, &body)?;
        let mut row = Json::obj();
        row.set("profile", profile.name);
        let mut md_row = vec![profile.name.to_string()];
        for policy in POLICIES {
            let entry = result_entry(&payload, policy, profile.name)?;
            let hits = entry_u64(entry, "hits")?;
            let accesses = entry_u64(entry, "accesses")?;
            let rate = fixed(hits as f64 / accesses.max(1) as f64, 4);
            row.set(format!("{policy}_hit_rate"), rate.clone());
            md_row.push(rate);
        }
        rows_json.push(row);
        rows_md.push(md_row);
    }
    let mut doc = Json::obj();
    doc.set("title", "Frame-graph profiles: overall hit rates")
        .set("scale", grserve::spec::scale_name(tier.scale))
        .set("frames", u64::from(tier.frames))
        .set("rows", Json::Arr(rows_json));
    let markdown = markdown_table(
        "Frame-graph profiles: overall hit rates",
        &["profile", "DRRIP", "GSPC"],
        &rows_md,
    );
    Ok(Artifact { name: "profiles".into(), doc, markdown })
}

/// The conformance panel, profile goldens, and the pinned Figure 15
/// ordering, rendered as one artifact. Sections run at their pinned
/// configurations (tiny scale), regardless of the tier's replay scale.
fn conformance(tier: &Tier) -> (Artifact, bool) {
    let cfg = grbench::ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    let sections = [
        ("panel", conform::run(&cfg, tier.conform_apps, 8)),
        ("profiles", conform::run_profiles(8)),
        ("figure_ordering", conform::run_figure_ordering()),
    ];

    let mut pass = true;
    let mut sections_json = Json::obj();
    let mut rows_md = Vec::new();
    for (name, report) in &sections {
        pass &= report.is_pass();
        let mut section = Json::obj();
        section
            .set("checks", report.checks)
            .set(
                "failures",
                Json::Arr(report.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            )
            .set("pass", report.is_pass());
        sections_json.set(*name, section);
        rows_md.push(vec![
            (*name).to_string(),
            report.checks.to_string(),
            report.failures.len().to_string(),
            if report.is_pass() { "pass".into() } else { "FAIL".into() },
        ]);
    }

    let mut doc = Json::obj();
    doc.set("title", "Conformance panel").set("sections", sections_json).set("pass", pass);
    let markdown = markdown_table(
        "Conformance panel",
        &["section", "checks", "failures", "verdict"],
        &rows_md,
    );
    (Artifact { name: "conformance".into(), doc, markdown }, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_pinned() {
        let kick = kick_tires();
        assert_eq!(kick.scale, Scale::Tiny);
        assert_eq!(kick.frames, 1);
        assert!(!kick.full);
        let full = full();
        assert_eq!(full.frames, 52);
        assert!(full.full);
    }

    #[test]
    fn job_bodies_are_canonical_specs() {
        let body = job_body("GSPC+UCD", 1, 8, Scale::Tiny);
        let spec = grserve::JobSpec::parse(&body, Scale::Full).expect("body parses");
        assert_eq!(spec.policies, vec!["GSPC+UCD".to_string()]);
        assert_eq!(spec.scale, Scale::Tiny, "explicit scale wins over the daemon default");
        assert_eq!(spec.apps.len(), 12);

        let body = profile_body("deferred", &["DRRIP", "GSPC"], 2, Scale::Tiny);
        let spec = grserve::JobSpec::parse(&body, Scale::Full).expect("profile body parses");
        assert_eq!(spec.profile.as_deref(), Some("deferred"));
        assert_eq!(spec.frames, 2);
    }

    #[test]
    fn table1_matches_the_profiles() {
        let artifact = table1();
        let apps = artifact.doc.get("apps").expect("apps array");
        let Json::Arr(rows) = apps else { panic!("apps must be an array") };
        assert_eq!(rows.len(), 12);
        assert_eq!(
            artifact.doc.get("total_frames"),
            Some(&Json::UInt(52)),
            "Table 1 frame counts sum to 52"
        );
        assert!(artifact.markdown.contains("| ALL |"));
    }
}
