// Hotspot (Rodinia): 2-D thermal simulation — iterative 5-point stencil
// over a shared-memory tile with halo, multiple time steps per launch
// (pyramidal structure simplified to a fixed-halo ping-pong).
//
// Table 4: % deviation metric, 31 registers/thread, 8 warps/block (16x16).
// Compression profile: moderate float state (temperatures quantized from
// sensor-style fixed-point data), plus narrow tile/coordinate integers —
// one of the kernels where the integer framework matters (§6.1).

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

namespace {

constexpr std::string_view kAsm = R"(
.kernel hotspot
.param s32 temp_base
.param s32 power_base
.param s32 out_base
.param s32 width range(16,1024)
.param s32 height range(16,1024)
.shared 2592            // two 18x18 f32 tiles (ping-pong)
.reg s32 %tx
.reg s32 %ty
.reg s32 %bx
.reg s32 %by
.reg s32 %w
.reg s32 %h
.reg s32 %lin
.reg s32 %gx
.reg s32 %gy
.reg s32 %i
.reg s32 %sx
.reg s32 %sy
.reg s32 %cx
.reg s32 %cy
.reg s32 %wm1
.reg s32 %hm1
.reg s32 %ga
.reg s32 %sa
.reg s32 %sa2
.reg s32 %cur
.reg s32 %nxt
.reg s32 %swp
.reg s32 %step
.reg f32 %cap
.reg f32 %rx
.reg f32 %ry
.reg f32 %rz
.reg f32 %amb
.reg f32 %pw
.reg f32 %tC
.reg f32 %tL
.reg f32 %tR
.reg f32 %tU
.reg f32 %tD
.reg f32 %dh
.reg f32 %dv
.reg f32 %dz
.reg f32 %tload
.reg f32 %tmin
.reg f32 %tmax
.reg f32 %rx2
.reg f32 %ry2
.reg f32 %pscale
.reg f32 %camb
.reg f32 %rz2
.reg pred %p0

entry:
  mov.s32 %w, $width
  mov.s32 %h, $height
  mov.s32 %tx, %tid.x
  mov.s32 %ty, %tid.y
  mov.s32 %bx, %ctaid.x
  mov.s32 %by, %ctaid.y
  mad.s32 %lin, %ty, 16, %tx
  mad.s32 %gx, %bx, 16, %tx
  mad.s32 %gy, %by, 16, %ty
  sub.s32 %wm1, %w, 1
  sub.s32 %hm1, %h, 1
  mov.f32 %cap, 0.5
  mov.f32 %rx, 0.25
  mov.f32 %ry, 0.25
  mov.f32 %rz, 0.0625
  mov.f32 %amb, 0.5
  mov.f32 %rx2, 0.125
  mov.f32 %ry2, 0.125
  mov.f32 %pscale, 2.0
  mov.f32 %camb, 0.03125
  mov.f32 %rz2, 0.015625
  mov.f32 %tmin, 1000.0
  mov.f32 %tmax, -1000.0
  // power of this cell
  mad.s32 %ga, %gy, %w, %gx
  add.s32 %ga, %ga, $power_base
  ld.global.f32 %pw, [%ga]
  // cooperative load of the 18x18 halo tile into both buffers
  mov.s32 %i, %lin
load_loop:
  setp.ge.s32 %p0, %i, 324
  @%p0 bra load_done
load_body:
  rem.s32 %sx, %i, 18
  div.s32 %sy, %i, 18
  mad.s32 %cx, %bx, 16, %sx
  sub.s32 %cx, %cx, 1
  max.s32 %cx, %cx, 0
  min.s32 %cx, %cx, %wm1
  mad.s32 %cy, %by, 16, %sy
  sub.s32 %cy, %cy, 1
  max.s32 %cy, %cy, 0
  min.s32 %cy, %cy, %hm1
  mad.s32 %ga, %cy, %w, %cx
  add.s32 %ga, %ga, $temp_base
  ld.global.f32 %tload, [%ga]
  st.shared.f32 [%i], %tload
  st.shared.f32 [%i+324], %tload
  add.s32 %i, %i, 256
  bra load_loop
load_done:
  bar.sync
  mov.s32 %cur, 0
  mov.s32 %nxt, 324
  mov.s32 %step, 0
step_loop:
  setp.ge.s32 %p0, %step, 4
  @%p0 bra step_done
step_body:
  add.s32 %sx, %tx, 1
  add.s32 %sy, %ty, 1
  mad.s32 %sa, %sy, 18, %sx
  add.s32 %sa, %sa, %cur
  ld.shared.f32 %tC, [%sa]
  ld.shared.f32 %tL, [%sa-1]
  ld.shared.f32 %tR, [%sa+1]
  ld.shared.f32 %tU, [%sa-18]
  ld.shared.f32 %tD, [%sa+18]
  add.f32 %dh, %tL, %tR
  mad.f32 %dh, %tC, -2.0, %dh
  add.f32 %dv, %tU, %tD
  mad.f32 %dv, %tC, -2.0, %dv
  sub.f32 %dz, %amb, %tC
  mul.f32 %dh, %dh, %rx
  mad.f32 %dh, %dv, %ry, %dh
  mad.f32 %dh, %dz, %rz, %dh
  // second-order correction terms
  sub.f32 %dz, %tL, %tR
  mad.f32 %dh, %dz, %rx2, %dh
  sub.f32 %dz, %tU, %tD
  mad.f32 %dh, %dz, %ry2, %dh
  mad.f32 %dh, %pw, %pscale, %dh
  mad.f32 %dh, %dz, %rz2, %dh
  add.f32 %dh, %dh, %camb
  mad.f32 %tC, %dh, %cap, %tC
  // flux limiter: clamp to the extremes seen so far
  min.f32 %tmin, %tmin, %tC
  max.f32 %tmax, %tmax, %tC
  mad.s32 %sa2, %sy, 18, %sx
  add.s32 %sa2, %sa2, %nxt
  bar.sync
  st.shared.f32 [%sa2], %tC
  bar.sync
  mov.s32 %swp, %cur
  mov.s32 %cur, %nxt
  mov.s32 %nxt, %swp
  add.s32 %step, %step, 1
  bra step_loop
step_done:
  add.s32 %sx, %tx, 1
  add.s32 %sy, %ty, 1
  mad.s32 %sa, %sy, 18, %sx
  add.s32 %sa, %sa, %cur
  ld.shared.f32 %tC, [%sa]
  max.f32 %tC, %tC, %tmin
  min.f32 %tC, %tC, %tmax
  mad.s32 %ga, %gy, %w, %gx
  add.s32 %ga, %ga, $out_base
  st.global.f32 [%ga], %tC
  ret
)";

class HotspotWorkload final : public Workload {
 public:
  HotspotWorkload()
      // Waiver: 2D row-interleaved tiles (see wl_ssao.cpp) — store hulls
      // of adjacent tiles overlap as intervals though the word sets are
      // disjoint.  loads_local is proven; only sharding needs the waiver.
      : Workload(WorkloadSpec{"Hotspot", gpurf::quality::MetricKind::kDeviation,
                              2, 31, 8, /*assume_disjoint=*/true},
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

    gpurf::Pcg32 rng(0x5057u + variant, 77);
    std::vector<float> temp(size_t(w) * h), power(size_t(w) * h);
    for (auto& t : temp) t = float(rng.next_below(256)) / 256.0f;
    for (auto& p : power) p = float(rng.next_below(64)) / 1024.0f;

    const uint32_t temp_base = inst.gmem.alloc_f32(temp);
    const uint32_t power_base = inst.gmem.alloc_f32(power);
    const uint32_t out_base = inst.gmem.alloc(size_t(w) * h);
    inst.params = {temp_base, power_base, out_base, w, h};
    inst.out_base = out_base;
    inst.out_words = size_t(w) * h;
    return inst;
  }
};

}  // namespace

std::unique_ptr<Workload> make_hotspot() {
  return std::make_unique<HotspotWorkload>();
}

}  // namespace gpurf::workloads
