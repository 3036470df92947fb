// SSAO: screen-space ambient occlusion — for each pixel, compare the
// centre depth against sixteen spiral-offset depth-texture samples and
// accumulate a falloff-weighted occlusion term.  Texture-bound like GICOV:
// the paper reports an IPC regression from texture-cache contention
// (miss rate 69 % -> 73 %, §6.2).
//
// Table 4: SSIM metric, 28 registers/thread, 8 warps/block (16x16).

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

namespace {

constexpr std::string_view kAsm = R"(
.kernel ssao
.param s32 out_base
.param s32 width range(64,4096)
.tex depth
.tex normal
.reg s32 %tx
.reg s32 %ty
.reg s32 %x
.reg s32 %y
.reg s32 %u
.reg s32 %v
.reg s32 %i
.reg s32 %du
.reg s32 %dv
.reg s32 %oa
.reg f32 %dC
.reg f32 %nC
.reg f32 %dS0
.reg f32 %dS1
.reg f32 %diff0
.reg f32 %diff1
.reg f32 %occ
.reg f32 %w0
.reg f32 %w1
.reg f32 %w2
.reg f32 %w3
.reg f32 %bias
.reg f32 %scale
.reg f32 %inv16
.reg f32 %t0
.reg f32 %t1
.reg f32 %out
.reg f32 %w4
.reg f32 %w5
.reg f32 %occ2
.reg f32 %rscale
.reg f32 %rbias
.reg f32 %fx
.reg f32 %fy
.reg f32 %amb
.reg f32 %pow2
.reg f32 %gamma
.reg pred %pq

entry:
  mov.s32 %tx, %tid.x
  mov.s32 %ty, %tid.y
  mov.s32 %x, %ctaid.x
  mad.s32 %x, %x, 16, %tx
  mov.s32 %y, %ctaid.y
  mad.s32 %y, %y, 16, %ty
  tex.2d.f32 %dC, depth, %x, %y
  tex.2d.f32 %nC, normal, %x, %y
  mov.f32 %occ, 0.0
  mov.f32 %w0, 1.0
  mov.f32 %w1, 0.75
  mov.f32 %w2, 0.5
  mov.f32 %w3, 0.25
  mov.f32 %w4, 0.875
  mov.f32 %w5, 0.625
  mov.f32 %occ2, 0.0
  mov.f32 %bias, 0.015625
  mov.f32 %scale, 8.0
  mov.f32 %inv16, 0.0625
  mov.f32 %amb, 0.125
  mov.f32 %pow2, 0.5
  mov.f32 %gamma, 0.9375
  // depth-proportional range check factors (live across the loop)
  mad.f32 %rscale, %dC, 2.0, 1.0
  mul.f32 %rbias, %dC, 0.25
  // vignette factors consumed at the very end
  cvt.f32.s32 %fx, %x
  mul.f32 %fx, %fx, 0.0078125
  sub.f32 %fx, %fx, 0.75
  cvt.f32.s32 %fy, %y
  mul.f32 %fy, %fy, 0.0078125
  sub.f32 %fy, %fy, 0.75
  // 16 samples on an expanding spiral, two per ring step (ILP pairs)
  mov.s32 %i, 1
ring_loop:
  setp.gt.s32 %pq, %i, 4
  @%pq bra ring_done
ring_body:
  // sample pair 1 at radius 6i: (+6i, +6i-1), (-6i, +6i)
  mad.s32 %du, %i, 6, %x
  mov.s32 %u, %du
  mad.s32 %dv, %i, 6, %y
  sub.s32 %v, %dv, 1
  tex.2d.f32 %dS0, depth, %u, %v
  mul.s32 %u, %i, 6
  sub.s32 %u, %x, %u
  mov.s32 %v, %dv
  tex.2d.f32 %dS1, depth, %u, %v
  sub.f32 %diff0, %dC, %dS0
  sub.f32 %diff0, %diff0, %bias
  mul.f32 %diff0, %diff0, %scale
  max.f32 %diff0, %diff0, 0.0
  min.f32 %diff0, %diff0, 1.0
  mad.f32 %occ, %diff0, %w0, %occ
  mad.f32 %occ, %diff0, %w4, %occ
  sub.f32 %diff1, %dC, %dS1
  sub.f32 %diff1, %diff1, %bias
  mul.f32 %diff1, %diff1, %scale
  max.f32 %diff1, %diff1, 0.0
  min.f32 %diff1, %diff1, 1.0
  mad.f32 %occ, %diff1, %w1, %occ
  mad.f32 %occ, %diff1, %w5, %occ
  // sample pair 2 at radius 6i: (+6i, -6i), (-6i+1, -6i)
  mov.s32 %u, %du
  mul.s32 %v, %i, 6
  sub.s32 %v, %y, %v
  tex.2d.f32 %dS0, depth, %u, %v
  mul.s32 %u, %i, 6
  sub.s32 %u, %x, %u
  add.s32 %u, %u, 1
  tex.2d.f32 %dS1, depth, %u, %v
  sub.f32 %diff0, %dC, %dS0
  sub.f32 %diff0, %diff0, %bias
  mul.f32 %diff0, %diff0, %scale
  max.f32 %diff0, %diff0, 0.0
  min.f32 %diff0, %diff0, 1.0
  mul.f32 %diff0, %diff0, %rscale
  mad.f32 %occ2, %diff0, %w2, %occ2
  sub.f32 %diff1, %dC, %dS1
  sub.f32 %diff1, %diff1, %rbias
  mul.f32 %diff1, %diff1, %scale
  max.f32 %diff1, %diff1, 0.0
  min.f32 %diff1, %diff1, 1.0
  mad.f32 %occ2, %diff1, %w3, %occ2
  add.s32 %i, %i, 1
  bra ring_loop
ring_done:
  // combine both hemispheres, ambient floor, vignette
  mad.f32 %occ, %occ2, %pow2, %occ
  mul.f32 %t0, %occ, %inv16
  mul.f32 %t0, %t0, %nC
  mov.f32 %t1, 1.0
  sub.f32 %out, %t1, %t0
  add.f32 %out, %out, %amb
  mul.f32 %t1, %fx, %fx
  mad.f32 %t1, %fy, %fy, %t1
  mul.f32 %t1, %t1, 0.125
  sub.f32 %out, %out, %t1
  mul.f32 %out, %out, %gamma
  max.f32 %out, %out, 0.0
  min.f32 %out, %out, 1.0
  mad.s32 %oa, %y, $width, %x
  add.s32 %oa, %oa, $out_base
  st.global.f32 [%oa], %out
  ret
)";

class SsaoWorkload final : public Workload {
 public:
  SsaoWorkload()
      // Waiver: 2D row-interleaved tiles — a block's store interval spans
      // whole image rows, so adjacent tiles' interval hulls overlap even
      // though the actual word sets are disjoint (loads_local *is* proven;
      // only sharded simulation needs the waiver).
      : Workload(WorkloadSpec{"SSAO", gpurf::quality::MetricKind::kSsim, 1,
                              28, 8, /*assume_disjoint=*/true},
                 kAsm) {}

  gpurf::ir::LaunchConfig launch(Scale scale) const override {
    const uint32_t tiles = scale == Scale::kFull ? 12 : 3;
    return {.grid_x = tiles, .grid_y = tiles, .block_x = 16, .block_y = 16};
  }

  Instance make_instance(Scale scale, uint32_t variant) const override {
    Instance inst;
    inst.launch = launch(scale);
    const uint32_t w = inst.launch.grid_x * inst.launch.block_x;
    const uint32_t h = inst.launch.grid_y * inst.launch.block_y;

    gpurf::Pcg32 rng(0x55A0u + variant, 7);
    gpurf::exec::Texture depth, normal;
    depth.width = normal.width = static_cast<int>(w);
    depth.height = normal.height = static_cast<int>(h);
    depth.texels.resize(size_t(w) * h);
    normal.texels.resize(size_t(w) * h);
    // Smooth-ish depth field: base gradient + quantized noise.
    for (uint32_t y = 0; y < h; ++y)
      for (uint32_t x = 0; x < w; ++x) {
        depth.texels[size_t(y) * w + x] =
            float(x + y) / float(w + h) * 0.5f +
            float(rng.next_below(64)) / 256.0f;
        normal.texels[size_t(y) * w + x] =
            float(rng.next_below(256)) / 256.0f;
      }
    inst.textures.push_back(std::move(depth));
    inst.textures.push_back(std::move(normal));

    const uint32_t out_base = inst.gmem.alloc(size_t(w) * h);
    inst.params = {out_base, w};
    inst.out_base = out_base;
    inst.out_words = size_t(w) * h;
    inst.image_w = static_cast<int>(w);
    inst.image_h = static_cast<int>(h);
    return inst;
  }
};

}  // namespace

std::unique_ptr<Workload> make_ssao() {
  return std::make_unique<SsaoWorkload>();
}

}  // namespace gpurf::workloads
