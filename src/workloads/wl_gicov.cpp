// GICOV (Rodinia leukocyte): gradient inverse coefficient of variation —
// for every pixel, sample the gradient image along a small circle through
// the texture path, track mean and variance (sum / sum-of-squares) over
// two candidate radii and emit the best score.  Texture-dominated: the
// paper attributes GICOV's IPC *regression* under compression to texture-
// cache contention (miss rate 76 % -> 86 %, §6.2) — higher occupancy
// enlarges the combined working set past the 12 KB texture cache.
//
// Table 4: % deviation, 24 registers/thread, 6 warps/block (192x1).

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

namespace {

constexpr std::string_view kAsm = R"(
.kernel gicov
.param s32 out_base
.param s32 width range(64,4096)
.param s32 height range(64,4096)
.param s32 npix range(192,16777216)
.tex grad
.tex grady
.reg s32 %lin
.reg s32 %gid
.reg s32 %x
.reg s32 %y
.reg s32 %u
.reg s32 %v
.reg s32 %i
.reg s32 %oa
.reg f32 %t
.reg f32 %sum1
.reg f32 %sq1
.reg f32 %sum2
.reg f32 %sq2
.reg f32 %mean1
.reg f32 %var1
.reg f32 %mean2
.reg f32 %var2
.reg f32 %sum3
.reg f32 %sq3
.reg f32 %score1
.reg f32 %score2
.reg f32 %best
.reg f32 %eps
.reg f32 %inv12
.reg f32 %inv12b
.reg f32 %wexp
.reg f32 %t2
.reg f32 %sum1y
.reg f32 %sq1y
.reg f32 %sum2y
.reg f32 %sq2y
.reg f32 %wr0
.reg f32 %wr1
.reg f32 %wr2
.reg f32 %scorey
.reg f32 %thr
.reg s32 %bestr
.reg pred %pq
.reg pred %pb

entry:
  mov.s32 %lin, %tid.x
  mov.s32 %gid, %ctaid.x
  mad.s32 %gid, %gid, 192, %lin
  setp.ge.s32 %pq, %gid, $npix
  @%pq bra exit
body:
  // Candidate cell sites are scattered over the image (the detector tests
  // ellipse centres, not raster pixels); sixteen neighbouring threads probe
  // one site's 4x4 sub-grid.
  shr.s32 %u, %gid, 4
  mul.s32 %v, %u, 97
  rem.s32 %x, %v, $width
  mul.s32 %v, %u, 57
  rem.s32 %y, %v, $height
  and.s32 %u, %gid, 3
  add.s32 %x, %x, %u
  shr.s32 %u, %gid, 2
  and.s32 %u, %u, 3
  add.s32 %y, %y, %u
  mov.f32 %eps, 0.0078125
  mov.f32 %inv12, 0.08333333
  mov.f32 %inv12b, 0.08333333
  mov.f32 %wexp, 0.75
  mov.f32 %sum1, 0.0
  mov.f32 %sq1, 0.0
  mov.f32 %sum2, 0.0
  mov.f32 %sq2, 0.0
  mov.f32 %sum3, 0.0
  mov.f32 %sq3, 0.0
  mov.f32 %sum1y, 0.0
  mov.f32 %sq1y, 0.0
  mov.f32 %sum2y, 0.0
  mov.f32 %sq2y, 0.0
  mov.f32 %wr0, 1.0
  mov.f32 %wr1, 0.5
  mov.f32 %wr2, 0.25
  mov.f32 %thr, 0.0625
  // radius-2 circle: 12 samples, offsets unrolled
  add.s32 %u, %x, 2
  mov.s32 %v, %y
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  tex.2d.f32 %t2, grady, %u, %v
  mad.f32 %sum1y, %t2, %wr0, %sum1y
  mad.f32 %sq1y, %t2, %t2, %sq1y
  add.s32 %u, %x, 2
  add.s32 %v, %y, 1
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  add.s32 %u, %x, 1
  add.s32 %v, %y, 2
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  mov.s32 %u, %x
  add.s32 %v, %y, 2
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  tex.2d.f32 %t2, grady, %u, %v
  mad.f32 %sum1y, %t2, %wr1, %sum1y
  mad.f32 %sq1y, %t2, %t2, %sq1y
  sub.s32 %u, %x, 1
  add.s32 %v, %y, 2
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  sub.s32 %u, %x, 2
  add.s32 %v, %y, 1
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  sub.s32 %u, %x, 2
  mov.s32 %v, %y
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  sub.s32 %u, %x, 2
  sub.s32 %v, %y, 1
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  sub.s32 %u, %x, 1
  sub.s32 %v, %y, 2
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  mov.s32 %u, %x
  sub.s32 %v, %y, 2
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  add.s32 %u, %x, 1
  sub.s32 %v, %y, 2
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  add.s32 %u, %x, 2
  sub.s32 %v, %y, 1
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum1, %sum1, %t
  mad.f32 %sq1, %t, %t, %sq1
  // radius-5 circle: 12 samples via a small loop (4 rotations x 3 points)
  mov.s32 %i, 0
r5_loop:
  setp.ge.s32 %pq, %i, 4
  @%pq bra r5_done
r5_body:
  mad.s32 %u, %i, 2, %x
  add.s32 %u, %u, 1
  add.s32 %v, %y, 5
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum2, %sum2, %t
  mad.f32 %sq2, %t, %t, %sq2
  mad.s32 %u, %i, 2, %x
  add.s32 %u, %u, 1
  sub.s32 %v, %y, 5
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum2, %sum2, %t
  mad.f32 %sq2, %t, %t, %sq2
  add.s32 %u, %x, 5
  mad.s32 %v, %i, 2, %y
  sub.s32 %v, %v, 3
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum2, %sum2, %t
  mad.f32 %sq2, %t, %t, %sq2
  tex.2d.f32 %t2, grady, %u, %v
  mad.f32 %sum2y, %t2, %wr2, %sum2y
  mad.f32 %sq2y, %t2, %t2, %sq2y
  // middle circle (radius 3)
  add.s32 %u, %x, 3
  mad.s32 %v, %i, 2, %y
  sub.s32 %v, %v, 3
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum3, %sum3, %t
  mad.f32 %sq3, %t, %t, %sq3
  sub.s32 %u, %x, 3
  tex.2d.f32 %t, grad, %u, %v
  add.f32 %sum3, %sum3, %t
  mad.f32 %sq3, %t, %t, %sq3
  add.s32 %i, %i, 1
  bra r5_loop
r5_done:
  // GICOV score = mean^2 / variance for each radius, keep the best
  mul.f32 %mean1, %sum1, %inv12
  mul.f32 %var1, %mean1, %mean1
  neg.f32 %var1, %var1
  mad.f32 %var1, %sq1, %inv12, %var1
  add.f32 %var1, %var1, %eps
  mul.f32 %score1, %mean1, %mean1
  div.f32 %score1, %score1, %var1
  // blend in the middle circle with a decay weight
  mad.f32 %sum2, %sum3, %wexp, %sum2
  mad.f32 %sq2, %sq3, %wexp, %sq2
  mul.f32 %mean2, %sum2, %inv12b
  mul.f32 %var2, %mean2, %mean2
  neg.f32 %var2, %var2
  mad.f32 %var2, %sq2, %inv12b, %var2
  add.f32 %var2, %var2, %eps
  mul.f32 %score2, %mean2, %mean2
  div.f32 %score2, %score2, %var2
  max.f32 %best, %score1, %score2
  // directional score from the y-gradient sums
  mul.f32 %scorey, %sum1y, %sum2y
  mad.f32 %scorey, %sq1y, 0.0625, %scorey
  mad.f32 %scorey, %sq2y, 0.0625, %scorey
  mad.f32 %best, %scorey, 0.03125, %best
  sub.f32 %best, %best, %thr
  mul.f32 %best, %best, 1.5
  setp.ge.f32 %pb, %score2, %score1
  selp.s32 %bestr, 5, 2, %pb
  cvt.f32.s32 %t, %bestr
  mad.f32 %best, %t, 0.0078125, %best
  add.s32 %oa, %gid, $out_base
  st.global.f32 [%oa], %best
exit:
  ret
)";

class GicovWorkload final : public Workload {
 public:
  GicovWorkload()
      : Workload(WorkloadSpec{"GICOV", gpurf::quality::MetricKind::kDeviation,
                              2, 24, 6},
                 kAsm) {}

  gpurf::ir::LaunchConfig launch(Scale scale) const override {
    return {.grid_x = scale == Scale::kFull ? 108u : 8u, .block_x = 192};
  }

  Instance make_instance(Scale scale, uint32_t variant) const override {
    Instance inst;
    inst.launch = launch(scale);
    const uint32_t npix =
        inst.launch.num_blocks() * inst.launch.threads_per_block();
    const uint32_t width = 384;

    gpurf::Pcg32 rng(0x61C0u + variant, 11);
    const int grad_h = 256;
    gpurf::exec::Texture grad;
    grad.width = static_cast<int>(width);
    grad.height = grad_h + 16;
    grad.texels.resize(size_t(grad.width) * grad.height);
    for (auto& t : grad.texels) t = float(rng.next_below(256)) / 256.0f;
    gpurf::exec::Texture grady;
    grady.width = grad.width;
    grady.height = grad.height;
    grady.texels.resize(grad.texels.size());
    for (auto& t : grady.texels)
      t = float(int(rng.next_below(256)) - 128) / 256.0f;
    inst.textures.push_back(std::move(grad));
    inst.textures.push_back(std::move(grady));

    const uint32_t out_base = inst.gmem.alloc(npix);
    inst.params = {out_base, width, uint32_t(grad_h), npix};
    inst.out_base = out_base;
    inst.out_words = npix;
    return inst;
  }
};

}  // namespace

std::unique_ptr<Workload> make_gicov() {
  return std::make_unique<GicovWorkload>();
}

}  // namespace gpurf::workloads
