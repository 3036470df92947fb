// Elevated (shadertoy): ray-marched fractal terrain.  Fixed-step ray
// march against a two-octave sine/cosine FBM height field, finite-
// difference shading, exponential fog.  Dominated by SFU work whose
// results carry full-width mantissas — the kernel where perfect-quality
// compression barely helps (and the deeper operand-collector pipeline can
// even cost IPC, §6.2), while high quality unlocks another block.
//
// Table 4: SSIM metric, 46 registers/thread, 8 warps/block (16x16).

#include <bit>

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

namespace {

constexpr std::string_view kAsm = R"(
.kernel elevated
.param s32 out_base
.param s32 width range(64,4096)
.param f32 cam_ox
.param f32 cam_oz
.reg s32 %tx
.reg s32 %ty
.reg s32 %x
.reg s32 %y
.reg s32 %step
.reg s32 %oa
.reg f32 %dirx
.reg f32 %diry
.reg f32 %dirz
.reg f32 %posx
.reg f32 %posy
.reg f32 %posz
.reg f32 %dt
.reg f32 %tdist
.reg f32 %h
.reg f32 %o1
.reg f32 %o2
.reg f32 %a1
.reg f32 %a2
.reg f32 %f1
.reg f32 %f2
.reg f32 %d
.reg f32 %focal
.reg f32 %hitT
.reg f32 %hx
.reg f32 %hz
.reg f32 %slope
.reg f32 %shade
.reg f32 %fog
.reg f32 %sky
.reg f32 %sunx
.reg f32 %sunz
.reg f32 %amb
.reg f32 %t0
.reg f32 %t1
.reg f32 %t2
.reg f32 %out
.reg f32 %a3
.reg f32 %f3
.reg f32 %o3
.reg f32 %cloud
.reg f32 %cldens
.reg f32 %clf
.reg f32 %fogr
.reg f32 %fogk
.reg f32 %sunw
.reg f32 %hazek
.reg f32 %skyb
.reg f32 %skyk
.reg f32 %p0x
.reg f32 %p0z
.reg f32 %snowh
.reg f32 %snoww
.reg f32 %rockr
.reg f32 %rockk
.reg f32 %grassk
.reg f32 %mindist
.reg pred %pq
.reg pred %ph

entry:
  mov.s32 %tx, %tid.x
  mov.s32 %ty, %tid.y
  mov.s32 %x, %ctaid.x
  mad.s32 %x, %x, 16, %tx
  mov.s32 %y, %ctaid.y
  mad.s32 %y, %y, 16, %ty
  // camera ray (division by a non-dyadic focal length keeps mantissas wide)
  cvt.f32.s32 %dirx, %x
  mul.f32 %dirx, %dirx, 0.0051
  sub.f32 %dirx, %dirx, 0.49
  cvt.f32.s32 %diry, %y
  mul.f32 %diry, %diry, 0.0037
  sub.f32 %diry, %diry, 0.61
  mov.f32 %dirz, 0.9962
  mov.f32 %posx, $cam_ox
  mov.f32 %posy, 1.7
  mov.f32 %posz, $cam_oz
  mov.f32 %dt, 0.3
  mov.f32 %a1, 0.9
  mov.f32 %a2, 0.37
  mov.f32 %f1, 1.3
  mov.f32 %f2, 2.9
  mov.f32 %sunx, 0.7
  mov.f32 %sunz, 0.3
  mov.f32 %amb, 0.21
  mov.f32 %a3, 0.13
  mov.f32 %f3, 6.1
  mov.f32 %cldens, 0.071
  mov.f32 %clf, 0.83
  mov.f32 %fogr, 0.67
  mov.f32 %fogk, -0.13
  mov.f32 %sunw, 1.9
  mov.f32 %hazek, 0.055
  mov.f32 %skyb, 0.74
  mov.f32 %skyk, -0.43
  mov.f32 %snowh, 1.1
  mov.f32 %snoww, 0.27
  mov.f32 %cloud, 0.0
  mov.f32 %rockr, 0.41
  mov.f32 %rockk, 0.19
  mov.f32 %grassk, 0.57
  mov.f32 %mindist, 100.0
  mov.f32 %p0x, $cam_ox
  mov.f32 %p0z, $cam_oz
  mov.f32 %tdist, 0.0
  mov.f32 %focal, 1.357
  mov.f32 %hitT, 0.0
  mov.f32 %hx, 0.0
  mov.f32 %hz, 0.0
  // %o1/%o2 are consumed after the march loop; the trip count guarantees
  // 12 iterations, but statically the zero-trip path reaches march_done,
  // so define them on every path (gpurf-lint: no undefined reads).
  mov.f32 %o1, 0.0
  mov.f32 %o2, 0.0
  mov.s32 %step, 0
march_loop:
  setp.ge.s32 %pq, %step, 12
  @%pq bra march_done
march_body:
  mad.f32 %posx, %dirx, %dt, %posx
  mad.f32 %posy, %diry, %dt, %posy
  mad.f32 %posz, %dirz, %dt, %posz
  add.f32 %tdist, %tdist, %dt
  // two-octave FBM height
  mul.f32 %t0, %posx, %f1
  sin.f32 %t0, %t0
  mul.f32 %t1, %posz, %f1
  cos.f32 %t1, %t1
  mul.f32 %o1, %t0, %t1
  mul.f32 %o1, %o1, %a1
  mul.f32 %t0, %posx, %f2
  sin.f32 %t0, %t0
  mul.f32 %t1, %posz, %f2
  cos.f32 %t1, %t1
  mul.f32 %o2, %t0, %t1
  mul.f32 %o2, %o2, %a2
  mul.f32 %t0, %posx, %f3
  sin.f32 %t0, %t0
  mul.f32 %t1, %posz, %f3
  cos.f32 %t1, %t1
  mul.f32 %o3, %t0, %t1
  mul.f32 %o3, %o3, %a3
  add.f32 %h, %o1, %o2
  add.f32 %h, %h, %o3
  // cloud density accumulates along the ray above the cloud deck
  sub.f32 %t2, %posy, %snowh
  max.f32 %t2, %t2, 0.0
  mul.f32 %t2, %t2, %cldens
  mad.f32 %cloud, %t2, %clf, %cloud
  sub.f32 %d, %posy, %h
  min.f32 %mindist, %mindist, %d
  // first hit: record distance and finite-difference slopes
  setp.lt.f32 %ph, %d, 0.05
  @%ph setp.eq.f32 %ph, %hitT, 0.0
  // slope probes (one octave, offset +0.35)
  add.f32 %t0, %posx, 0.35
  mul.f32 %t0, %t0, %f1
  sin.f32 %t0, %t0
  mul.f32 %t1, %posz, %f1
  cos.f32 %t1, %t1
  mul.f32 %t2, %t0, %t1
  mul.f32 %t2, %t2, %a1
  @%ph sub.f32 %hx, %t2, %h
  add.f32 %t0, %posz, 0.35
  mul.f32 %t0, %t0, %f1
  cos.f32 %t0, %t0
  mul.f32 %t1, %posx, %f1
  sin.f32 %t1, %t1
  mul.f32 %t2, %t1, %t0
  mul.f32 %t2, %t2, %a1
  @%ph sub.f32 %hz, %t2, %h
  @%ph mov.f32 %hitT, %tdist
  add.s32 %step, %step, 1
  bra march_loop
march_done:
  // shading: sun-facing slope + ambient + snow band, exponential fog
  mul.f32 %slope, %hx, %sunx
  mad.f32 %slope, %hz, %sunz, %slope
  mul.f32 %slope, %slope, %sunw
  neg.f32 %slope, %slope
  max.f32 %slope, %slope, 0.0
  add.f32 %shade, %slope, %amb
  // snow above snowh
  sub.f32 %t0, %posy, %snowh
  mul.f32 %t0, %t0, 4.0
  max.f32 %t0, %t0, 0.0
  min.f32 %t0, %t0, 1.0
  mad.f32 %shade, %t0, %snoww, %shade
  // rock/grass albedo bands by height (uses the recorded octave mix)
  mul.f32 %t1, %o1, %rockk
  mad.f32 %t1, %o2, %grassk, %t1
  max.f32 %t1, %t1, 0.0
  mul.f32 %t2, %rockr, 0.33
  mad.f32 %shade, %t1, %t2, %shade
  // near-miss glow from the closest approach distance
  abs.f32 %t1, %mindist
  min.f32 %t1, %t1, 1.0
  mul.f32 %t1, %t1, 0.0625
  sub.f32 %shade, %shade, %t1
  mul.f32 %t0, %hitT, %fogk
  mul.f32 %t0, %t0, %focal
  ex2.f32 %fog, %t0
  mad.f32 %fog, %fog, %fogr, 0.0
  // haze grows with distance from the camera origin (wide values)
  sub.f32 %t1, %posx, %p0x
  abs.f32 %t1, %t1
  sub.f32 %t2, %posz, %p0z
  abs.f32 %t2, %t2
  add.f32 %t1, %t1, %t2
  mul.f32 %t1, %t1, %hazek
  min.f32 %t1, %t1, 0.5
  // sky gradient + cloud cover
  mul.f32 %sky, %diry, %skyk
  add.f32 %sky, %sky, %skyb
  min.f32 %cloud, %cloud, 1.0
  mad.f32 %sky, %cloud, 0.125, %sky
  add.f32 %sky, %sky, %t1
  // out = hit ? mix(sky, shade, fog) : sky
  sub.f32 %t1, %shade, %sky
  mad.f32 %t2, %t1, %fog, %sky
  setp.gt.f32 %ph, %hitT, 0.01
  selp.f32 %out, %t2, %sky, %ph
  max.f32 %out, %out, 0.0
  min.f32 %out, %out, 1.0
  mad.s32 %oa, %y, $width, %x
  add.s32 %oa, %oa, $out_base
  st.global.f32 [%oa], %out
  ret
)";

class ElevatedWorkload final : public Workload {
 public:
  ElevatedWorkload()
      // Waiver: 2D row-interleaved tiles (see wl_ssao.cpp) — store hulls
      // of adjacent tiles overlap as intervals though the word sets are
      // disjoint.  loads_local is proven; only sharding needs the waiver.
      : Workload(WorkloadSpec{"Elevated", gpurf::quality::MetricKind::kSsim,
                              1, 46, 8, /*assume_disjoint=*/true},
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

    // Camera origin varies per sample input (different view of the field).
    const float ox = 2.13f + 0.77f * float(variant);
    const float oz = -1.04f + 1.31f * float(variant);
    const uint32_t out_base = inst.gmem.alloc(size_t(w) * h);
    inst.params = {out_base, w, std::bit_cast<uint32_t>(ox),
                   std::bit_cast<uint32_t>(oz)};
    inst.out_base = out_base;
    inst.out_words = size_t(w) * h;
    inst.image_w = static_cast<int>(w);
    inst.image_h = static_cast<int>(h);
    return inst;
  }
};

}  // namespace

std::unique_ptr<Workload> make_elevated() {
  return std::make_unique<ElevatedWorkload>();
}

}  // namespace gpurf::workloads
