//! Pins the exact LLC access stream of one quarter-scale application frame
//! and one frame-graph frame, with its Belady next-use annotation, by
//! FNV-1a hash. A change to the render caches, the generator's data
//! structures or the annotation pass that is meant to be output-neutral
//! must leave these hashes as they are.

use grcache::annotate_next_use;
use grsynth::{graph_profile, AppProfile, FrameRenderer, GraphRenderer, Scale};
use grtrace::Trace;

/// FNV-1a over every access (address, store bit, stream) and every
/// annotation, in trace order.
fn fnv(trace: &Trace) -> (usize, u64, u64) {
    let fold = |h: u64, bytes: &[u8]| {
        bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
    };
    let mut accesses = 0xCBF2_9CE4_8422_2325;
    for a in trace.iter() {
        accesses = fold(accesses, &a.addr.to_le_bytes());
        accesses = fold(accesses, &[u8::from(a.write), a.stream.index() as u8]);
    }
    let nu = annotate_next_use(trace.accesses());
    let annotations = nu.iter().fold(0xCBF2_9CE4_8422_2325, |h, n| fold(h, &n.to_le_bytes()));
    (trace.len(), accesses, annotations)
}

#[test]
fn quarter_scale_app_frame_is_pinned() {
    let app = AppProfile::by_abbrev("BioShock").expect("known app");
    let trace = FrameRenderer::new(&app, 3, Scale::Quarter).render();
    assert_eq!(fnv(&trace), (146_008, 0xEC6A8D7A6ED04B97, 0xAA37D86797EE17F9));
}

#[test]
fn quarter_scale_graph_frame_is_pinned() {
    let graph = graph_profile("deferred").expect("built-in profile").graph();
    let trace = GraphRenderer::new(&graph, 2, Scale::Quarter).render();
    assert_eq!(fnv(&trace), (86_590, 0xD8C9ACBF7461A173, 0x33C61561D38B3756));
}

/// Both renderers reserve far more than a tiny or quarter-scale frame
/// fills; a finished trace must hand the slack back instead of keeping
/// it alive in the frame cache.
#[test]
fn rendered_traces_keep_no_reserved_slack() {
    let app = AppProfile::by_abbrev("BioShock").expect("known app");
    let graph = graph_profile("deferred").expect("built-in profile").graph();
    for scale in [Scale::Tiny, Scale::Quarter] {
        let mut traces = [
            FrameRenderer::new(&app, 0, scale).render(),
            GraphRenderer::new(&graph, 0, scale).render(),
        ];
        for trace in &mut traces {
            let len = trace.len();
            assert!(len > 0, "{} rendered an empty frame", trace.app());
            assert_eq!(trace.take_accesses().capacity(), len, "{} kept slack", trace.app());
        }
    }
}
