//! One frame of DirectX-style rendering, emitted as raw pipeline accesses
//! and filtered through the render caches into an LLC trace.
//!
//! The pass structure mirrors Section 2.1 of the paper:
//!
//! 1. *Offscreen passes* render shadow maps / reflections / intermediate
//!    targets into dedicated render-target surfaces (render-to-texture),
//! 2. an optional *depth pre-pass* lays down the Z buffer,
//! 3. the *main pass* rasterizes the scene into the back buffer: HiZ and Z
//!    tests, pixel shading that samples static textures *and* the
//!    offscreen render targets (dynamic texturing — the paper's primary
//!    inter-stream reuse), blending reads, render-target writes,
//! 4. *post-processing passes* re-sample the back buffer and write it
//!    again,
//! 5. *present* reads the final back buffer and writes the displayable
//!    color stream to the front buffer.

use std::collections::VecDeque;

use grcache::RenderCaches;
use grtrace::{Access, StreamId, Trace};

use crate::rng::{frame_rng, zipf_rank, FrameRng};
use crate::{AppProfile, Scale, Surface, SurfaceAllocator, SurfaceKind};

/// Pixels per screen tile edge (8×8-pixel tiles, i.e. 2×2 surface blocks).
const TILE_PX: u32 = 8;
/// Static-texture "material region" size in blocks (4 KB regions).
const TEX_REGION_BLOCKS: u64 = 64;
/// Maximum length of the static-texture revisit history.
const TEX_HISTORY: usize = 16384;

/// Computational work performed while rendering a frame, used by the GPU
/// timing model to convert cache behaviour into frame time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameWork {
    /// Pixels shaded by the pixel shader (including overdraw).
    pub shaded_pixels: u64,
    /// Texels fetched by the samplers (before any cache filtering).
    pub texel_samples: u64,
    /// Vertices transformed by the vertex shader.
    pub vertices: u64,
    /// Raw pipeline accesses issued to the render caches.
    pub raw_accesses: u64,
}

/// Renders one synthetic frame for an application profile.
///
/// # Example
///
/// ```
/// use grsynth::{AppProfile, FrameRenderer, Scale};
///
/// let app = AppProfile::by_abbrev("BioShock").unwrap();
/// let trace = FrameRenderer::new(&app, 0, Scale::Tiny).render();
/// assert_eq!(trace.app(), "BioShock");
/// ```
#[derive(Debug)]
pub struct FrameRenderer<'a> {
    profile: &'a AppProfile,
    scale: Scale,
    rng: FrameRng,
    caches: RenderCaches,
    trace: Trace,
    width: u32,
    height: u32,
    back: Surface,
    front: Surface,
    depth: Surface,
    off_depth: Surface,
    hiz: Surface,
    stencil: Surface,
    static_tex: Surface,
    offscreen: Vec<Surface>,
    vertices: Surface,
    indices: Surface,
    /// Auxiliary render target (second MRT binding) used by DX11 profiles.
    mrt: Surface,
    scratch: Surface,
    /// Rolling cursor through the scratch surface's blocks.
    scratch_cursor: u64,
    constants: Surface,
    tex_history: VecDeque<u64>,
    tex_walk: u64,
    work: FrameWork,
    /// `[min, max)` revisit distance (in history entries) for the
    /// far-flung texture reuse; scales with the workload so the reuse sits
    /// just beyond a thrashing policy's retention at every scale.
    revisit_window: (usize, usize),
}

impl<'a> FrameRenderer<'a> {
    /// Prepares the surfaces and caches for frame `frame_idx` of `profile`.
    pub fn new(profile: &'a AppProfile, frame_idx: u32, scale: Scale) -> Self {
        let width = profile.scaled_width(scale);
        let height = profile.scaled_height(scale);
        let mut alloc = SurfaceAllocator::new();
        let back = alloc.alloc(SurfaceKind::BackBuffer, width, height);
        let front = alloc.alloc(SurfaceKind::FrontBuffer, width, height);
        // Depth is stored 2:1 compressed (GPUs compress Z aggressively to
        // save bandwidth), so the Z surface has half the back buffer's
        // footprint and each tile covers two Z blocks.
        let depth = alloc.alloc(SurfaceKind::Depth, width, (height / 2).max(4));
        // A multi-level HiZ pyramid: modeled at half vertical resolution,
        // so each 8x8-pixel tile covers two HiZ blocks.
        let hiz = alloc.alloc(SurfaceKind::HiZ, width.max(4), (height / 2).max(4));
        let stencil = alloc.alloc(SurfaceKind::Stencil, width, height);
        let tex_bytes = profile.scaled_texture_bytes(scale).max(64 * 1024);
        let tex_side_blocks = ((tex_bytes / 64) as f64).sqrt().ceil() as u32;
        let static_tex = alloc.alloc(
            SurfaceKind::StaticTexture,
            tex_side_blocks * Surface::PIXELS_PER_BLOCK_EDGE,
            tex_side_blocks * Surface::PIXELS_PER_BLOCK_EDGE,
        );
        let ow = ((width as f64 * profile.offscreen_scale) as u32).max(32);
        let oh = ((height as f64 * profile.offscreen_scale) as u32).max(32);
        let offscreen = (0..profile.offscreen_passes)
            .map(|_| alloc.alloc(SurfaceKind::RenderTarget, ow, oh))
            .collect();
        let off_depth = alloc.alloc(SurfaceKind::Depth, ow, (oh / 2).max(4));
        // Vertex traffic scales with the pixel count (divisor squared) so
        // the stream mix is scale-invariant.
        let d2 = u64::from(scale.divisor()) * u64::from(scale.divisor());
        let vertices = alloc.alloc_linear(
            SurfaceKind::VertexBuffer,
            (u64::from(profile.triangles_k) * 1024 * 4 / d2).max(4096),
        );
        let indices = alloc.alloc_linear(SurfaceKind::IndexBuffer, vertices.size_bytes() / 8);
        let mrt = alloc.alloc(SurfaceKind::RenderTarget, width, height);
        // Scratch render targets continuously produced and shortly after
        // consumed during the main pass (per-object reflections, particle
        // buffers, UI composition): real frames switch render targets
        // constantly, so render-to-texture consumption never pauses.
        let scratch = alloc.alloc(SurfaceKind::RenderTarget, width / 2, height / 4);
        let constants = alloc.alloc_linear(SurfaceKind::Constants, 64 * 1024);
        FrameRenderer {
            profile,
            scale,
            rng: frame_rng(profile.seed, frame_idx),
            caches: RenderCaches::new(),
            trace: Trace::with_capacity(profile.abbrev, frame_idx, 1 << 20),
            width,
            height,
            back,
            front,
            depth,
            off_depth,
            hiz,
            stencil,
            static_tex,
            offscreen,
            vertices,
            indices,
            mrt,
            scratch,
            scratch_cursor: 0,
            constants,
            tex_history: VecDeque::new(),
            // Consecutive frames see mostly the same materials, shifted by
            // camera motion: the walk starts where the previous frame's
            // drift would have carried it.
            tex_walk: u64::from(frame_idx) * 131,
            work: FrameWork::default(),
            revisit_window: {
                let d2 = (scale.divisor() * scale.divisor()) as usize;
                ((3072 / d2).max(24), (8192 / d2).max(72))
            },
        }
    }

    /// Runs the full pipeline and returns the LLC access trace; see
    /// [`FrameRenderer::render_with_work`] to also obtain the computational
    /// work for the GPU timing model.
    ///
    /// The frame is rendered in horizontal screen bands, with every pass
    /// interleaved band by band: GPUs pipeline consecutive passes, and real
    /// frames switch render targets hundreds of times, so production and
    /// consumption of dynamic textures overlap in time rather than forming
    /// long disjoint phases. Within one band the pass order of Section 2.1
    /// is preserved: render-to-texture targets (each band consumed by the
    /// trailing lighting work), depth pre-pass, main pass (which samples
    /// the targets — the inter-stream reuse of Figure 6), transparency
    /// effects, post-processing, and finally present.
    pub fn render(self) -> Trace {
        self.render_with_work().0
    }

    /// Renders the frame, returning both the LLC trace and the shader /
    /// sampler / geometry work performed.
    pub fn render_with_work(mut self) -> (Trace, FrameWork) {
        for s in 0..Self::STAGES {
            self.run_stage(s);
        }
        self.trace.shrink_to_fit();
        (self.trace, self.work)
    }

    /// Number of [`FrameRenderer::run_stage`] steps in a frame: the eight
    /// render bands plus the tail (final lighting, present, cache flush).
    pub(crate) const STAGES: u32 = Self::BANDS + 1;
    const BANDS: u32 = 8;

    /// Runs pipeline stage `s` (`0..STAGES`), appending its accesses to the
    /// internal trace. Stages must run in order, each exactly once;
    /// [`FrameRenderer::render_with_work`] does exactly that, and the
    /// streaming `FrameStream` interleaves [`FrameRenderer::take_emitted`]
    /// between stages — both orders produce identical access sequences.
    pub(crate) fn run_stage(&mut self, s: u32) {
        debug_assert!(s < Self::STAGES, "stage out of range");
        const BANDS: u32 = FrameRenderer::BANDS;
        let offscreen: Vec<Surface> = self.offscreen.clone();
        if s < BANDS {
            for (i, target) in offscreen.iter().enumerate() {
                self.offscreen_chunk(*target, s, BANDS);
                // Lighting trails production by one band.
                if s >= 1 {
                    self.lighting_chunk(offscreen[i], s - 1, BANDS);
                }
            }
            if self.profile.depth_prepass {
                self.depth_prepass(s, BANDS);
            }
            self.main_pass(s, BANDS);
            self.effects_pass(s, BANDS);
            for p in 0..self.profile.post_passes {
                self.post_pass(p, s, BANDS);
            }
        } else {
            // Consume the last lighting band of every target.
            for target in &offscreen {
                self.lighting_chunk(*target, BANDS - 1, BANDS);
            }
            self.present();
            self.caches.flush(&mut self.trace);
        }
    }

    /// Drains the accesses emitted so far (streaming hand-off between
    /// stages); the trace keeps its identity and cumulative stats.
    pub(crate) fn take_emitted(&mut self) -> Vec<Access> {
        self.trace.take_accesses()
    }

    /// The work counters accumulated so far (complete once every stage ran).
    pub(crate) fn work(&self) -> FrameWork {
        self.work
    }

    /// The trace being accumulated (for stream-side stats access).
    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    #[inline]
    fn emit(&mut self, addr: u64, stream: StreamId, write: bool) {
        let access = if write { Access::store(addr, stream) } else { Access::load(addr, stream) };
        self.work.raw_accesses += 1;
        self.caches.filter(access, &mut self.trace);
    }

    /// Input-assembler traffic for a pass covering `fraction` of the scene.
    fn geometry(&mut self, fraction: f64) {
        let idx_blocks = ((self.indices.total_blocks() as f64) * fraction) as u64;
        let vtx_blocks = ((self.vertices.total_blocks() as f64) * fraction) as u64;
        let idx_base_blocks = self.indices.total_blocks();
        let vtx_base_blocks = self.vertices.total_blocks();
        for i in 0..idx_blocks {
            let addr = self.indices.block_by_index(i % idx_base_blocks);
            self.emit(addr, StreamId::VertexIndex, false);
        }
        // Four 16-byte vertices per 64-byte block.
        self.work.vertices += vtx_blocks * 4;
        for i in 0..vtx_blocks {
            let addr = self.vertices.block_by_index(i % vtx_base_blocks);
            self.emit(addr, StreamId::Vertex, false);
            // Indexed geometry re-reads shared vertices of nearby triangles.
            if i > 4 && self.rng.gen_bool(0.3) {
                let back = 1 + (self.rng.next_u64() % 4);
                let addr = self.vertices.block_by_index((i - back) % vtx_base_blocks);
                self.emit(addr, StreamId::Vertex, false);
            }
        }
        // Shader code and constants for the pass; the window rotates as
        // different shaders bind.
        let total = self.constants.total_blocks();
        let base = self.rng.next_u64() % total;
        for i in 0..48 {
            let addr = self.constants.block_by_index((base + i) % total);
            self.emit(addr, StreamId::Other, false);
        }
    }

    /// The four surface blocks covered by tile `(tx, ty)` on `surface`.
    fn tile_blocks(surface: &Surface, tx: u32, ty: u32) -> [u64; 4] {
        let px = tx * TILE_PX;
        let py = ty * TILE_PX;
        [
            surface.block_at_pixel(px, py),
            surface.block_at_pixel(px + 4, py),
            surface.block_at_pixel(px, py + 4),
            surface.block_at_pixel(px + 4, py + 4),
        ]
    }

    fn tiles_of(surface: &Surface) -> (u32, u32) {
        (surface.width().div_ceil(TILE_PX), surface.height().div_ceil(TILE_PX))
    }

    /// Samples static texture blocks for one tile into `out`.
    ///
    /// Revisits target the *medium* distance deliberately: regions touched
    /// in roughly the last 100–640 tiles are past the reach of the texture
    /// L3 (which absorbs short-range reuse) but plausibly still LLC
    /// resident — this is the far-flung `E0`/`E1` intra-stream reuse the
    /// paper characterizes in Figure 7, whose survival depends on the LLC
    /// policy.
    fn sample_static_texture(&mut self, footprint: usize, out: &mut Vec<u64>) {
        let regions = (self.static_tex.total_blocks() / TEX_REGION_BLOCKS).max(1);
        let roll = self.rng.next_f64();
        let (rv_min, rv_max) = self.revisit_window;
        let medium_revisit =
            roll < self.profile.tex_revisit && self.tex_history.len() > rv_min + rv_min / 8;
        let region_base = if medium_revisit {
            let window = (self.tex_history.len() - rv_min).min(rv_max - rv_min);
            let d = rv_min + ((self.rng.next_u64() as usize) % window);
            // Each region is far-revisited at most once (E1 texture blocks
            // rarely see further reuse — the paper's E1 death ratio is
            // 0.73 even under Belady's optimal), so take it out of the
            // history once consumed.
            let idx = self.tex_history.len() - 1 - d;
            self.tex_history.swap_remove_back(idx).expect("index inside the history")
        } else if roll < self.profile.tex_revisit + 0.04 && !self.tex_history.is_empty() {
            // Occasional long-range revisit (usually cold by now).
            let k = zipf_rank(&mut self.rng, self.tex_history.len());
            self.tex_history[self.tex_history.len() - 1 - k]
        } else {
            // Fresh material: a drifting walk across the texture atlas
            // (the camera sweeping the scene's materials), plus a tiny set
            // of persistently hot regions (UI atlases, detail maps) whose
            // blocks stay live across the whole frame (the `E≥2` texture
            // population of Figure 7).
            self.tex_walk = self.tex_walk.wrapping_add(1);
            let region = if self.rng.gen_bool(0.02) {
                (self.rng.next_u64() % 8) * 997 % regions
            } else {
                (self.tex_walk + zipf_rank(&mut self.rng, 24) as u64) % regions
            };
            region * TEX_REGION_BLOCKS
        };
        if !medium_revisit {
            if self.tex_history.len() == TEX_HISTORY {
                self.tex_history.pop_front();
            }
            self.tex_history.push_back(region_base);
        }
        // Half the footprint walks a deterministic prefix of the region
        // (the blocks every visitor of this material touches — the top mip
        // levels), the other half scatters (anisotropy, lower mips).
        let total = self.static_tex.total_blocks();
        for i in 0..footprint as u64 {
            let b = if i % 3 < 2 {
                region_base + (i - i / 3) % TEX_REGION_BLOCKS
            } else {
                region_base + self.rng.next_u64() % TEX_REGION_BLOCKS
            };
            out.push(self.static_tex.block_by_index(b % total));
        }
    }

    /// The tile-row band `[start, end)` for chunk `s` of `chunks`.
    fn band(th: u32, s: u32, chunks: u32) -> (u32, u32) {
        (th * s / chunks, th * (s + 1) / chunks)
    }

    /// One band of an offscreen render-to-texture pass (shadow map,
    /// reflection, ...).
    fn offscreen_chunk(&mut self, target: Surface, s: u32, chunks: u32) {
        self.geometry(0.15 / f64::from(chunks));
        let (tw, th) = Self::tiles_of(&target);
        let (y0, y1) = Self::band(th, s, chunks);
        let mut tex = Vec::with_capacity(8);
        for ty in y0..y1 {
            for tx in 0..tw {
                // Depth test on the offscreen depth buffer.
                for b in Self::depth_blocks(&self.off_depth, tx, ty) {
                    self.emit(b, StreamId::Z, false);
                    self.emit(b, StreamId::Z, true);
                }
                // Shading with static textures (reflections and shadow
                // casters sample materials too); this traffic also puts
                // realistic pressure on the LLC between render-target
                // production and its far-flung consumption.
                tex.clear();
                let footprint =
                    (self.profile.tex_samples_per_pixel * 5.0).round().max(3.0) as usize;
                self.sample_static_texture(footprint, &mut tex);
                for &b in tex.iter() {
                    self.emit(b, StreamId::Texture, false);
                }
                // Color output.
                for b in Self::tile_blocks(&target, tx, ty) {
                    if self.rng.gen_bool(self.profile.blend_rate) {
                        self.emit(b, StreamId::RenderTarget, false);
                    }
                    self.emit(b, StreamId::RenderTarget, true);
                }
            }
        }
    }

    /// One band of the lighting/composition work that *consumes* a
    /// previously rendered offscreen target as a dynamic texture, blending
    /// the result into the back buffer (render-to-texture consumption).
    fn lighting_chunk(&mut self, source: Surface, s: u32, chunks: u32) {
        self.geometry(0.02 / f64::from(chunks));
        let (tw, th) = Self::tiles_of(&source);
        let (y0, y1) = Self::band(th, s, chunks);
        let (btw, bth) = Self::tiles_of(&self.back);
        let mut tex = Vec::with_capacity(4);
        for ty in y0..y1 {
            for tx in 0..tw {
                // The lighting work only touches a third of the target
                // here; the main pass samples the rest much later, so most
                // render-to-texture consumption is far-flung while enough
                // near consumption keeps the sample counters trained.
                if tx % 3 != 0 {
                    continue;
                }
                // Sample the dynamic texture where this light touches it.
                for b in Self::tile_blocks(&source, tx, ty) {
                    if self.consumable(b) {
                        self.emit(b, StreamId::Texture, false);
                    }
                }
                tex.clear();
                self.sample_static_texture(2, &mut tex);
                for &b in tex.iter() {
                    self.emit(b, StreamId::Texture, false);
                }
                // Accumulate into the corresponding back-buffer tile.
                let bx = (tx * btw / tw.max(1)).min(btw - 1);
                let by = (ty * bth / th.max(1)).min(bth - 1);
                for b in Self::tile_blocks(&self.back, bx, by) {
                    self.emit(b, StreamId::RenderTarget, false);
                    self.emit(b, StreamId::RenderTarget, true);
                }
            }
        }
    }

    /// The two blocks a tile covers on a half-height (2:1 compressed)
    /// surface such as HiZ or the depth buffer.
    fn half_height_tile_blocks(surface: &Surface, tx: u32, ty: u32) -> [u64; 2] {
        let x0 = (tx * TILE_PX).min(surface.width() - 1);
        let x1 = (tx * TILE_PX + 4).min(surface.width() - 1);
        let y = (ty * TILE_PX / 2).min(surface.height() - 1);
        [surface.block_at_pixel(x0, y), surface.block_at_pixel(x1, y)]
    }

    /// The two HiZ blocks covering tile `(tx, ty)`.
    fn hiz_blocks(&self, tx: u32, ty: u32) -> [u64; 2] {
        Self::half_height_tile_blocks(&self.hiz, tx, ty)
    }

    /// The two compressed Z blocks covering tile `(tx, ty)` of `depth`.
    fn depth_blocks(depth: &Surface, tx: u32, ty: u32) -> [u64; 2] {
        Self::half_height_tile_blocks(depth, tx, ty)
    }

    /// Depth pre-pass: geometry only, laying down HiZ and Z.
    fn depth_prepass(&mut self, s: u32, bands: u32) {
        self.geometry(0.8 / f64::from(bands));
        let (tw, th) = Self::tiles_of(&self.back);
        let (y0, y1) = Self::band(th, s, bands);
        for ty in y0..y1 {
            for tx in 0..tw {
                for hb in self.hiz_blocks(tx, ty) {
                    self.emit(hb, StreamId::HiZ, false);
                    self.emit(hb, StreamId::HiZ, true);
                }
                // First touch of the depth buffer this frame: pure write.
                for b in Self::depth_blocks(&self.depth, tx, ty) {
                    self.emit(b, StreamId::Z, true);
                }
            }
        }
    }

    /// Whether this offscreen block is consumed as a dynamic texture.
    fn consumable(&self, block_addr: u64) -> bool {
        // Deterministic per-block choice so exactly ~rate of each surface
        // is consumed, independent of traversal order.
        let mut h = block_addr ^ self.profile.seed;
        h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (h % 1024) as f64 / 1024.0 < self.profile.rt_to_tex_rate
    }

    /// The main pass: full scene into the back buffer.
    fn main_pass(&mut self, s: u32, bands: u32) {
        self.geometry(1.0 / f64::from(bands));
        let (tw, th) = Self::tiles_of(&self.back);
        let overdraw_extra = (self.profile.overdraw - 1.0).clamp(0.0, 1.0);
        let footprint = (self.profile.tex_samples_per_pixel * 7.0).round().max(4.0) as usize;
        let offscreen = self.offscreen.clone();
        let mut tex = Vec::with_capacity(footprint + 8);
        let (y0, y1) = Self::band(th, s, bands);
        for ty in y0..y1 {
            for tx in 0..tw {
                // Hierarchical depth test.
                for hb in self.hiz_blocks(tx, ty) {
                    self.emit(hb, StreamId::HiZ, false);
                    if !self.profile.depth_prepass {
                        self.emit(hb, StreamId::HiZ, true);
                    }
                }

                // Early depth test; extra fragment rounds model overdraw.
                // After a depth pre-pass the HiZ test culls half the tiles
                // outright, so the fine-grained Z buffer is not even read.
                let rounds = 1 + u32::from(self.rng.gen_bool(overdraw_extra));
                for round in 0..rounds {
                    let hiz_culled = self.profile.depth_prepass && self.rng.gen_bool(0.5);
                    if !hiz_culled {
                        for b in Self::depth_blocks(&self.depth, tx, ty) {
                            self.emit(b, StreamId::Z, false);
                            // Without a pre-pass the surviving fragments of
                            // the first round update the depth buffer.
                            if !self.profile.depth_prepass && round == 0 {
                                self.emit(b, StreamId::Z, true);
                            }
                        }
                    }
                    // Fragments rejected by the early tests do not shade.
                    if round > 0 && self.rng.gen_bool(0.5) {
                        continue;
                    }
                    self.shade_tile(tx, ty, footprint, &offscreen, &mut tex);
                }

                // Stencil test on a fraction of the tiles.
                if self.rng.gen_bool(self.profile.stencil_rate) {
                    for b in Self::tile_blocks(&self.stencil, tx, ty) {
                        self.emit(b, StreamId::Stencil, false);
                        self.emit(b, StreamId::Stencil, true);
                    }
                }
            }
            // Per-row render-target churn: produce a strip of scratch
            // render target, and consume the strip produced two rows ago
            // as a texture (at the application's consumption rate).
            self.scratch_churn(64);
        }
    }

    /// Produces `n` scratch render-target blocks and consumes the `n`
    /// blocks produced two calls earlier.
    fn scratch_churn(&mut self, n: u64) {
        let total = self.scratch.total_blocks();
        for i in 0..n {
            let b = self.scratch.block_by_index((self.scratch_cursor + i) % total);
            self.emit(b, StreamId::RenderTarget, true);
        }
        if self.scratch_cursor >= 2 * n {
            for i in 0..n {
                let b = self.scratch.block_by_index((self.scratch_cursor - 2 * n + i) % total);
                if self.consumable(b) {
                    self.emit(b, StreamId::Texture, false);
                }
            }
        }
        self.scratch_cursor += n;
    }

    /// Pixel shading + output merger for one tile of the main pass.
    fn shade_tile(
        &mut self,
        tx: u32,
        ty: u32,
        footprint: usize,
        offscreen: &[Surface],
        tex: &mut Vec<u64>,
    ) {
        self.work.shaded_pixels += u64::from(TILE_PX * TILE_PX);
        self.work.texel_samples +=
            (self.profile.tex_samples_per_pixel * f64::from(TILE_PX * TILE_PX) * 4.0) as u64;
        tex.clear();
        self.sample_static_texture(footprint, tex);
        // Dynamic texturing: the main pass re-samples the offscreen
        // targets — the far-flung render-to-texture reuse of Figure 6. It
        // samples the region produced two bands earlier, so the target
        // block must survive roughly two RRIP aging rounds between
        // production and this consumption: a fully protected insertion
        // (RRPV 0) usually makes it, an intermediate one (RRPV 2) usually
        // does not. This is precisely the reuse window where the paper's
        // policies separate.
        let (tw, th) = Self::tiles_of(&self.back);
        let lag_rows = th / 8; // one render band
        if ty >= lag_rows {
            let sy = ty - lag_rows;
            for target in offscreen.iter() {
                let scale_y = |row: u32| {
                    ((u64::from(row) * u64::from(target.height()) / u64::from(th * TILE_PX)) as u32)
                        / TILE_PX
                };
                let oty = scale_y(sy);
                // Only the first back-buffer row mapping onto each target
                // row samples it, so a target block is far-consumed once.
                if sy > 0 && scale_y(sy - 1) == oty {
                    continue;
                }
                let otx = ((u64::from(tx) * u64::from(target.width()) / u64::from(tw * TILE_PX))
                    as u32)
                    / TILE_PX;
                // The lighting work took every third column; the main
                // pass consumes the other two thirds, far from production.
                if otx.is_multiple_of(3) {
                    continue;
                }
                for b in Self::tile_blocks(target, otx, oty) {
                    if self.consumable(b) {
                        tex.push(b);
                    }
                }
            }
        }
        for &b in tex.iter() {
            self.emit(b, StreamId::Texture, false);
        }
        // Output merger: blend + write the back buffer.
        for b in Self::tile_blocks(&self.back, tx, ty) {
            if self.rng.gen_bool(self.profile.blend_rate) {
                self.emit(b, StreamId::RenderTarget, false);
            }
            self.emit(b, StreamId::RenderTarget, true);
        }
        // DirectX 11 profiles bind a second render target (DirectX 10
        // allows up to eight simultaneously bound targets).
        if self.profile.dx_version >= 11 {
            for b in Self::tile_blocks(&self.mrt, tx, ty) {
                self.emit(b, StreamId::RenderTarget, true);
            }
        }
    }

    /// Transparency/particle effects: soft particles re-read the depth
    /// buffer (its second, far-flung reuse) and blend into the back buffer.
    fn effects_pass(&mut self, s: u32, bands: u32) {
        self.geometry(0.05 / f64::from(bands));
        let (tw, th) = Self::tiles_of(&self.back);
        let mut tex = Vec::with_capacity(4);
        let (y0, y1) = Self::band(th, s, bands);
        for ty in y0..y1 {
            for tx in 0..tw {
                if !self.rng.gen_bool(0.45) {
                    continue;
                }
                for b in Self::depth_blocks(&self.depth, tx, ty) {
                    self.emit(b, StreamId::Z, false);
                }
                tex.clear();
                self.sample_static_texture(2, &mut tex);
                for &b in tex.iter() {
                    self.emit(b, StreamId::Texture, false);
                }
                for b in Self::tile_blocks(&self.back, tx, ty) {
                    self.emit(b, StreamId::RenderTarget, false);
                    self.emit(b, StreamId::RenderTarget, true);
                }
            }
            self.scratch_churn(32);
        }
    }

    /// Full-screen post-processing: re-sample the back buffer, write it.
    fn post_pass(&mut self, _index: u32, s: u32, bands: u32) {
        self.geometry(0.01 / f64::from(bands));
        let (tw, th) = Self::tiles_of(&self.back);
        let (y0, y1) = Self::band(th, s, bands);
        for ty in y0..y1 {
            for tx in 0..tw {
                for b in Self::tile_blocks(&self.back, tx, ty) {
                    self.emit(b, StreamId::Texture, false);
                }
                for b in Self::tile_blocks(&self.back, tx, ty) {
                    self.emit(b, StreamId::RenderTarget, true);
                }
            }
            self.scratch_churn(32);
        }
    }

    /// Present: the displayable color stream (written once, never reused).
    fn present(&mut self) {
        let blocks = self.front.total_blocks();
        for i in 0..blocks {
            if i % 4 == 0 {
                // The composition engine reads the back buffer...
                let b = self.back.block_by_index(i % self.back.total_blocks());
                self.emit(b, StreamId::Texture, false);
            }
            // ...and writes the final displayable colors.
            let f = self.front.block_by_index(i);
            self.emit(f, StreamId::Display, true);
        }
    }

    /// Scaled dimensions of the frame being rendered (for reporting).
    pub fn dimensions(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// The scale the frame is rendered at.
    pub fn scale(&self) -> Scale {
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtrace::StreamId;

    fn app(abbrev: &str) -> AppProfile {
        AppProfile::by_abbrev(abbrev).unwrap()
    }

    #[test]
    fn render_produces_all_major_streams() {
        let a = app("BioShock");
        let t = FrameRenderer::new(&a, 0, Scale::Tiny).render();
        let s = t.stats();
        for stream in [
            StreamId::Vertex,
            StreamId::HiZ,
            StreamId::Z,
            StreamId::RenderTarget,
            StreamId::Texture,
            StreamId::Display,
        ] {
            assert!(s.accesses(stream) > 0, "missing stream {stream}");
        }
    }

    #[test]
    fn render_is_deterministic() {
        let a = app("AssnCreed");
        let t1 = FrameRenderer::new(&a, 2, Scale::Tiny).render();
        let t2 = FrameRenderer::new(&a, 2, Scale::Tiny).render();
        assert_eq!(t1, t2);
    }

    #[test]
    fn frames_differ() {
        let a = app("AssnCreed");
        let t1 = FrameRenderer::new(&a, 0, Scale::Tiny).render();
        let t2 = FrameRenderer::new(&a, 1, Scale::Tiny).render();
        assert_ne!(t1.accesses(), t2.accesses());
    }

    #[test]
    fn rt_and_tex_dominate_llc_traffic() {
        let a = app("3DMarkVAGT1");
        let t = FrameRenderer::new(&a, 0, Scale::Tiny).render();
        let s = t.stats();
        let rt_tex = s.fraction(StreamId::RenderTarget) + s.fraction(StreamId::Texture);
        assert!(rt_tex > 0.5, "RT+TEX should dominate, got {rt_tex:.2}");
    }

    #[test]
    fn display_is_write_only_and_bounded() {
        let a = app("HAWX");
        let t = FrameRenderer::new(&a, 0, Scale::Tiny).render();
        let s = t.stats();
        assert_eq!(s.reads(StreamId::Display), 0);
        assert!(s.fraction(StreamId::Display) < 0.15);
    }

    #[test]
    fn larger_scale_means_more_traffic() {
        let a = app("Dirt");
        let tiny = FrameRenderer::new(&a, 0, Scale::Tiny).render();
        let quarter = FrameRenderer::new(&a, 0, Scale::Quarter).render();
        assert!(quarter.len() > 2 * tiny.len());
    }
}
