// IMGVF (Rodinia leukocyte) — the paper's motivating kernel (§2, Table 1).
// Iterative Motion-Gradient-Vector-Flow solver over a shared-memory tile:
// each sweep reads the 8-neighbourhood of every cell, applies a piecewise-
// linear Heaviside weighting, blends with the original image force, and
// ping-pongs between two shared buffers under barriers.
//
// Table 4: % deviation, 52 registers/thread, 10 warps/block (320x1),
// 14,560 bytes of shared memory per block (the §6.1 occupancy cap).

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

namespace {

constexpr std::string_view kAsm = R"(
.kernel imgvf
.param s32 img_base
.param s32 out_base
.param s32 iters range(1,8)
.shared 14560           // two 32x56 f32 tiles + alignment pad
.reg s32 %lin
.reg s32 %blk
.reg s32 %tilebase
.reg s32 %cell
.reg s32 %cy
.reg s32 %cx
.reg s32 %up
.reg s32 %dn
.reg s32 %lf
.reg s32 %rt
.reg s32 %sa
.reg s32 %sb
.reg s32 %ga
.reg s32 %cur
.reg s32 %nxt
.reg s32 %swp
.reg s32 %iter
.reg s32 %niter
.reg f32 %m
.reg f32 %nU
.reg f32 %nD
.reg f32 %nL
.reg f32 %nR
.reg f32 %nUL
.reg f32 %nUR
.reg f32 %nDL
.reg f32 %nDR
.reg f32 %dU
.reg f32 %dD
.reg f32 %dL
.reg f32 %dR
.reg f32 %dUL
.reg f32 %dUR
.reg f32 %dDL
.reg f32 %dDR
.reg f32 %hU
.reg f32 %hD
.reg f32 %hL
.reg f32 %hR
.reg f32 %hUL
.reg f32 %hUR
.reg f32 %hDL
.reg f32 %hDR
.reg f32 %acc
.reg f32 %tc
.reg f32 %absd
.reg f32 %inv
.reg f32 %omv
.reg f32 %img
.reg f32 %nv
.reg f32 %c4
.reg f32 %chalf
.reg f32 %cq
.reg f32 %mu
.reg f32 %ceps
.reg f32 %maxn
.reg f32 %wU
.reg f32 %wD
.reg f32 %wL
.reg f32 %wR
.reg f32 %wUL
.reg f32 %wUR
.reg f32 %wDL
.reg f32 %wDR
.reg f32 %tload
.reg pred %pq

entry:
  mov.s32 %lin, %tid.x
  mov.s32 %blk, %ctaid.x
  mul.s32 %tilebase, %blk, 1792
  add.s32 %tilebase, %tilebase, $img_base
  mov.s32 %niter, $iters
  // Heaviside and blending constants (power-of-two friendly, as in the
  // fixed-point-tuned Rodinia kernel)
  mov.f32 %c4, 4.0
  mov.f32 %chalf, 0.5
  mov.f32 %cq, 0.25
  mov.f32 %mu, 0.5
  mov.f32 %ceps, 64.0
  mov.f32 %wUL, 0.5
  mov.f32 %wUR, 0.375
  mov.f32 %wDL, 0.625
  mov.f32 %wDR, 0.25
  mov.f32 %wU, 1.0
  mov.f32 %wD, 0.5
  mov.f32 %wL, 0.75
  mov.f32 %wR, 0.25
  mov.f32 %inv, 0.25
  mov.f32 %omv, 0.75
  mov.f32 %tc, 0.0
  // load the 32x56 tile into both buffers
  mov.s32 %cell, %lin
load_loop:
  setp.ge.s32 %pq, %cell, 1792
  @%pq bra load_done
load_body:
  add.s32 %ga, %tilebase, %cell
  ld.global.f32 %tload, [%ga]
  st.shared.f32 [%cell], %tload
  st.shared.f32 [%cell+1792], %tload
  add.s32 %cell, %cell, 320
  bra load_loop
load_done:
  bar.sync
  mov.s32 %cur, 0
  mov.s32 %nxt, 1792
  mov.s32 %iter, 0
iter_loop:
  setp.ge.s32 %pq, %iter, %niter
  @%pq bra iter_done
iter_body:
  mov.s32 %cell, %lin
cell_loop:
  setp.ge.s32 %pq, %cell, 1792
  @%pq bra cell_done
cell_body:
  rem.s32 %cx, %cell, 56
  div.s32 %cy, %cell, 56
  sub.s32 %up, %cy, 1
  max.s32 %up, %up, 0
  add.s32 %dn, %cy, 1
  min.s32 %dn, %dn, 31
  sub.s32 %lf, %cx, 1
  max.s32 %lf, %lf, 0
  add.s32 %rt, %cx, 1
  min.s32 %rt, %rt, 55
  // centre + 8 neighbours from the current buffer
  mad.s32 %sa, %cy, 56, %cx
  add.s32 %sa, %sa, %cur
  ld.shared.f32 %m, [%sa]
  mad.s32 %sb, %up, 56, %cx
  add.s32 %sb, %sb, %cur
  ld.shared.f32 %nU, [%sb]
  mad.s32 %sb, %dn, 56, %cx
  add.s32 %sb, %sb, %cur
  ld.shared.f32 %nD, [%sb]
  mad.s32 %sb, %cy, 56, %lf
  add.s32 %sb, %sb, %cur
  ld.shared.f32 %nL, [%sb]
  mad.s32 %sb, %cy, 56, %rt
  add.s32 %sb, %sb, %cur
  ld.shared.f32 %nR, [%sb]
  mad.s32 %sb, %up, 56, %lf
  add.s32 %sb, %sb, %cur
  ld.shared.f32 %nUL, [%sb]
  mad.s32 %sb, %up, 56, %rt
  add.s32 %sb, %sb, %cur
  ld.shared.f32 %nUR, [%sb]
  mad.s32 %sb, %dn, 56, %lf
  add.s32 %sb, %sb, %cur
  ld.shared.f32 %nDL, [%sb]
  mad.s32 %sb, %dn, 56, %rt
  add.s32 %sb, %sb, %cur
  ld.shared.f32 %nDR, [%sb]
  // neighbour differences
  sub.f32 %dU, %nU, %m
  sub.f32 %dD, %nD, %m
  sub.f32 %dL, %nL, %m
  sub.f32 %dR, %nR, %m
  sub.f32 %dUL, %nUL, %m
  sub.f32 %dUR, %nUR, %m
  sub.f32 %dDL, %nDL, %m
  sub.f32 %dDR, %nDR, %m
  // Heaviside weights for all eight directions (kept live together, as
  // the unrolled Rodinia kernel does): H(d) = clamp(4d + 0.5, 0, 1)
  mad.f32 %hU, %dU, %c4, %chalf
  max.f32 %hU, %hU, 0.0
  min.f32 %hU, %hU, 1.0
  mul.f32 %hU, %hU, %wU
  mad.f32 %hD, %dD, %c4, %chalf
  max.f32 %hD, %hD, 0.0
  min.f32 %hD, %hD, 1.0
  mul.f32 %hD, %hD, %wD
  mad.f32 %hL, %dL, %c4, %chalf
  max.f32 %hL, %hL, 0.0
  min.f32 %hL, %hL, 1.0
  mul.f32 %hL, %hL, %wL
  mad.f32 %hR, %dR, %c4, %chalf
  max.f32 %hR, %hR, 0.0
  min.f32 %hR, %hR, 1.0
  mul.f32 %hR, %hR, %wR
  mad.f32 %hUL, %dUL, %c4, %chalf
  max.f32 %hUL, %hUL, 0.0
  min.f32 %hUL, %hUL, 1.0
  mul.f32 %hUL, %hUL, %wUL
  mad.f32 %hUR, %dUR, %c4, %chalf
  max.f32 %hUR, %hUR, 0.0
  min.f32 %hUR, %hUR, 1.0
  mul.f32 %hUR, %hUR, %wUR
  mad.f32 %hDL, %dDL, %c4, %chalf
  max.f32 %hDL, %hDL, 0.0
  min.f32 %hDL, %hDL, 1.0
  mul.f32 %hDL, %hDL, %wDL
  mad.f32 %hDR, %dDR, %c4, %chalf
  max.f32 %hDR, %hDR, 0.0
  min.f32 %hDR, %hDR, 1.0
  mul.f32 %hDR, %hDR, %wDR
  mov.f32 %acc, 0.0
  mad.f32 %acc, %hU, %dU, %acc
  mad.f32 %acc, %hD, %dD, %acc
  mad.f32 %acc, %hL, %dL, %acc
  mad.f32 %acc, %hR, %dR, %acc
  mad.f32 %acc, %hUL, %dUL, %acc
  mad.f32 %acc, %hUR, %dUR, %acc
  mad.f32 %acc, %hDL, %dDL, %acc
  mad.f32 %acc, %hDR, %dDR, %acc
  mul.f32 %acc, %acc, %mu
  // neighbourhood maximum: stability clamp for the flow update
  max.f32 %maxn, %nU, %nD
  max.f32 %maxn, %maxn, %nL
  max.f32 %maxn, %maxn, %nR
  max.f32 %maxn, %maxn, %nUL
  max.f32 %maxn, %maxn, %nUR
  max.f32 %maxn, %maxn, %nDL
  max.f32 %maxn, %maxn, %nDR
  max.f32 %maxn, %maxn, %m
  // image force blend: nv = 0.75*(m + acc/4) + 0.25*img, and track the
  // per-thread total change for the convergence criterion
  add.s32 %ga, %tilebase, %cell
  ld.global.f32 %img, [%ga]
  mad.f32 %nv, %acc, %cq, %m
  mul.f32 %nv, %nv, %omv
  mad.f32 %nv, %img, %inv, %nv
  min.f32 %nv, %nv, %maxn
  sub.f32 %absd, %nv, %m
  abs.f32 %absd, %absd
  add.f32 %tc, %tc, %absd
  min.f32 %tc, %tc, %ceps
  mad.s32 %sb, %cy, 56, %cx
  add.s32 %sb, %sb, %nxt
  st.shared.f32 [%sb], %nv
  add.s32 %cell, %cell, 320
  bra cell_loop
cell_done:
  bar.sync
  mov.s32 %swp, %cur
  mov.s32 %cur, %nxt
  mov.s32 %nxt, %swp
  add.s32 %iter, %iter, 1
  bra iter_loop
iter_done:
  // write the converged tile back
  mov.s32 %cell, %lin
store_loop:
  setp.ge.s32 %pq, %cell, 1792
  @%pq bra store_done
store_body:
  add.s32 %sa, %cell, %cur
  ld.shared.f32 %nv, [%sa]
  mad.f32 %nv, %tc, 0.0, %nv
  mul.s32 %ga, %blk, 1792
  add.s32 %ga, %ga, %cell
  add.s32 %ga, %ga, $out_base
  st.global.f32 [%ga], %nv
  add.s32 %cell, %cell, 320
  bra store_loop
store_done:
  ret
)";

class ImgvfWorkload final : public Workload {
 public:
  ImgvfWorkload()
      : Workload(WorkloadSpec{"IMGVF", gpurf::quality::MetricKind::kDeviation,
                              2, 52, 10},
                 kAsm) {}

  gpurf::ir::LaunchConfig launch(Scale scale) const override {
    return {.grid_x = scale == Scale::kFull ? 120u : 2u, .block_x = 320};
  }

  Instance make_instance(Scale scale, uint32_t variant) const override {
    Instance inst;
    inst.launch = launch(scale);
    const uint32_t blocks = inst.launch.grid_x;
    const uint32_t iters = scale == Scale::kFull ? 4 : 2;

    gpurf::Pcg32 rng(0x1364Fu + variant, 29);
    std::vector<float> img(size_t(blocks) * 1792);
    for (auto& v : img) v = float(rng.next_below(256)) / 256.0f;

    const uint32_t img_base = inst.gmem.alloc_f32(img);
    const uint32_t out_base = inst.gmem.alloc(size_t(blocks) * 1792);
    inst.params = {img_base, out_base, iters};
    inst.out_base = out_base;
    inst.out_words = size_t(blocks) * 1792;
    return inst;
  }
};

}  // namespace

std::unique_ptr<Workload> make_imgvf() {
  return std::make_unique<ImgvfWorkload>();
}

}  // namespace gpurf::workloads
