// Hotspot3D (Rodinia): 3-D thermal simulation — 7-point stencil marching
// the z dimension with register-rotated layers (tB/tC/tA), per-direction
// conductance coefficients, global-memory traffic each layer.
//
// Table 4: % deviation, 42 registers/thread, 8 warps/block (16x16).

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

namespace {

constexpr std::string_view kAsm = R"(
.kernel hotspot3d
.param s32 temp_base
.param s32 power_base
.param s32 out_base
.param s32 width range(16,1024)
.param s32 height range(16,1024)
.param s32 depth range(4,64)
.reg s32 %tx
.reg s32 %ty
.reg s32 %gx
.reg s32 %gy
.reg s32 %w
.reg s32 %h
.reg s32 %d
.reg s32 %wm1
.reg s32 %hm1
.reg s32 %xl
.reg s32 %xr
.reg s32 %yu
.reg s32 %yd
.reg s32 %plane
.reg s32 %z
.reg s32 %zn
.reg s32 %zoff
.reg s32 %aC
.reg s32 %aN
.reg s32 %aS
.reg s32 %aE
.reg s32 %aW
.reg s32 %aA
.reg s32 %aP
.reg s32 %aO
.reg s32 %tbase
.reg s32 %pbase
.reg s32 %obase
.reg f32 %ce
.reg f32 %cw
.reg f32 %cn
.reg f32 %cs
.reg f32 %ct
.reg f32 %cb
.reg f32 %cc
.reg f32 %sdv
.reg f32 %amb
.reg f32 %tA
.reg f32 %tB
.reg f32 %tC
.reg f32 %tN
.reg f32 %tS
.reg f32 %tE
.reg f32 %tW
.reg f32 %pw
.reg f32 %acc
.reg f32 %sum
.reg f32 %tmin
.reg f32 %tmax
.reg f32 %ct2
.reg f32 %cb2
.reg f32 %pscale
.reg f32 %accsq
.reg f32 %camb2
.reg f32 %cap3
.reg f32 %pw2
.reg pred %p0

entry:
  mov.s32 %w, $width
  mov.s32 %h, $height
  mov.s32 %d, $depth
  mov.s32 %tx, %tid.x
  mov.s32 %ty, %tid.y
  mov.s32 %gx, %ctaid.x
  mad.s32 %gx, %gx, 16, %tx
  mov.s32 %gy, %ctaid.y
  mad.s32 %gy, %gy, 16, %ty
  sub.s32 %wm1, %w, 1
  sub.s32 %hm1, %h, 1
  // clamped in-plane neighbour coordinates
  sub.s32 %xl, %gx, 1
  max.s32 %xl, %xl, 0
  add.s32 %xr, %gx, 1
  min.s32 %xr, %xr, %wm1
  sub.s32 %yu, %gy, 1
  max.s32 %yu, %yu, 0
  add.s32 %yd, %gy, 1
  min.s32 %yd, %yd, %hm1
  mul.s32 %plane, %w, %h
  mov.s32 %tbase, $temp_base
  mov.s32 %pbase, $power_base
  mov.s32 %obase, $out_base
  // per-direction conductances (Rodinia ce/cw/cn/cs/ct/cb/cc)
  mov.f32 %ce, 0.03125
  mov.f32 %cw, 0.03125
  mov.f32 %cn, 0.0625
  mov.f32 %cs, 0.0625
  mov.f32 %ct, 0.125
  mov.f32 %cb, 0.125
  mov.f32 %cc, 0.5
  mov.f32 %sdv, 0.25
  mov.f32 %amb, 0.5
  mov.f32 %ct2, 0.0625
  mov.f32 %cb2, 0.03125
  mov.f32 %pscale, 2.0
  mov.f32 %tmin, 1000.0
  mov.f32 %tmax, -1000.0
  mov.f32 %accsq, 0.0
  mov.f32 %camb2, 0.015625
  mov.f32 %cap3, 0.75
  mov.f32 %pw2, 0.5
  // bootstrap: tB = tC = layer 0 value
  mad.s32 %aC, %gy, %w, %gx
  add.s32 %aC, %aC, %tbase
  ld.global.f32 %tC, [%aC]
  mov.f32 %tB, %tC
  mov.f32 %acc, 0.0
  mov.s32 %z, 0
z_loop:
  setp.ge.s32 %p0, %z, %d
  @%p0 bra z_done
z_body:
  // layer above (clamped at depth-1)
  add.s32 %zn, %z, 1
  sub.s32 %aO, %d, 1
  min.s32 %zn, %zn, %aO
  mul.s32 %zoff, %zn, %plane
  mad.s32 %aA, %gy, %w, %gx
  add.s32 %aA, %aA, %zoff
  add.s32 %aA, %aA, %tbase
  ld.global.f32 %tA, [%aA]
  // in-plane neighbours at layer z
  mul.s32 %zoff, %z, %plane
  mad.s32 %aN, %yu, %w, %gx
  add.s32 %aN, %aN, %zoff
  add.s32 %aN, %aN, %tbase
  ld.global.f32 %tN, [%aN]
  mad.s32 %aS, %yd, %w, %gx
  add.s32 %aS, %aS, %zoff
  add.s32 %aS, %aS, %tbase
  ld.global.f32 %tS, [%aS]
  mad.s32 %aE, %gy, %w, %xr
  add.s32 %aE, %aE, %zoff
  add.s32 %aE, %aE, %tbase
  ld.global.f32 %tE, [%aE]
  mad.s32 %aW, %gy, %w, %xl
  add.s32 %aW, %aW, %zoff
  add.s32 %aW, %aW, %tbase
  ld.global.f32 %tW, [%aW]
  mad.s32 %aP, %gy, %w, %gx
  add.s32 %aP, %aP, %zoff
  add.s32 %aP, %aP, %pbase
  ld.global.f32 %pw, [%aP]
  // sum = cc*tC + ce*tE + cw*tW + cn*tN + cs*tS + ct*tA + cb*tB + sdv*pw + amb*0.0625
  mul.f32 %sum, %tC, %cc
  mad.f32 %sum, %tE, %ce, %sum
  mad.f32 %sum, %tW, %cw, %sum
  mad.f32 %sum, %tN, %cn, %sum
  mad.f32 %sum, %tS, %cs, %sum
  mad.f32 %sum, %tA, %ct, %sum
  mad.f32 %sum, %tB, %cb, %sum
  mad.f32 %sum, %pw, %sdv, %sum
  mad.f32 %sum, %amb, 0.0625, %sum
  mad.f32 %sum, %tA, %ct2, %sum
  mad.f32 %sum, %tB, %cb2, %sum
  mad.f32 %sum, %pw, %pscale, %sum
  mad.f32 %sum, %pw, %pw2, %sum
  add.f32 %sum, %sum, %camb2
  mul.f32 %sum, %sum, %cap3
  min.f32 %tmin, %tmin, %sum
  max.f32 %tmax, %tmax, %sum
  add.f32 %acc, %acc, %sum
  mad.f32 %accsq, %sum, %sum, %accsq
  // write layer result
  mad.s32 %aO, %gy, %w, %gx
  add.s32 %aO, %aO, %zoff
  add.s32 %aO, %aO, %obase
  st.global.f32 [%aO], %sum
  // rotate layers
  mov.f32 %tB, %tC
  mov.f32 %tC, %tA
  add.s32 %z, %z, 1
  bra z_loop
z_done:
  // per-column statistics (range-limited mean) in the extra plane
  max.f32 %acc, %acc, %tmin
  min.f32 %acc, %acc, %tmax
  mad.f32 %acc, %accsq, 0.0625, %acc
  mul.s32 %zoff, %d, %plane
  mad.s32 %aO, %gy, %w, %gx
  add.s32 %aO, %aO, %zoff
  add.s32 %aO, %aO, %obase
  st.global.f32 [%aO], %acc
  ret
)";

class Hotspot3DWorkload final : public Workload {
 public:
  Hotspot3DWorkload()
      // Waiver: 2D row-interleaved tiles (see wl_ssao.cpp) — store hulls
      // of adjacent tiles overlap as intervals though the word sets are
      // disjoint.  loads_local is proven; only sharding needs the waiver.
      : Workload(WorkloadSpec{"Hotspot3D",
                              gpurf::quality::MetricKind::kDeviation, 2, 42,
                              8, /*assume_disjoint=*/true},
                 kAsm) {}

  gpurf::ir::LaunchConfig launch(Scale scale) const override {
    const uint32_t tiles = scale == Scale::kFull ? 12 : 4;
    return {.grid_x = tiles, .grid_y = tiles, .block_x = 16, .block_y = 16};
  }

  Instance make_instance(Scale scale, uint32_t variant) const override {
    Instance inst;
    inst.launch = launch(scale);
    const uint32_t w = inst.launch.grid_x * inst.launch.block_x;
    const uint32_t h = inst.launch.grid_y * inst.launch.block_y;
    const uint32_t d = scale == Scale::kFull ? 8 : 4;

    gpurf::Pcg32 rng(0x3D07u + variant, 13);
    std::vector<float> temp(size_t(w) * h * d), power(size_t(w) * h * d);
    for (auto& t : temp) t = float(rng.next_below(256)) / 256.0f;
    for (auto& p : power) p = float(rng.next_below(64)) / 1024.0f;

    const uint32_t temp_base = inst.gmem.alloc_f32(temp);
    const uint32_t power_base = inst.gmem.alloc_f32(power);
    // Output: d layers + one checksum plane.
    const uint32_t out_base = inst.gmem.alloc(size_t(w) * h * (d + 1));
    inst.params = {temp_base, power_base, out_base, w, h, d};
    inst.out_base = out_base;
    inst.out_words = size_t(w) * h * (d + 1);
    return inst;
  }
};

}  // namespace

std::unique_ptr<Workload> make_hotspot3d() {
  return std::make_unique<Hotspot3DWorkload>();
}

}  // namespace gpurf::workloads
