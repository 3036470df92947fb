// Pathtracer (shadertoy-style): two-bounce path tracing of a four-sphere
// scene with a per-thread xorshift RNG for the bounce directions.  The
// RNG state is a genuine full-width integer and the bounce arithmetic
// carries full mantissas, so perfect-quality compression finds little;
// the high-quality threshold (SSIM 0.9) unlocks half-precision shading.
//
// Table 4: SSIM metric, 50 registers/thread, 8 warps/block (16x16).

#include <bit>

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

namespace {

constexpr std::string_view kAsm = R"(
.kernel pathtracer
.param s32 out_base
.param s32 width range(64,4096)
.reg s32 %tx
.reg s32 %ty
.reg s32 %x
.reg s32 %y
.reg s32 %seed
.reg s32 %r1
.reg s32 %bounce
.reg s32 %hitid
.reg s32 %oa
.reg f32 %rox
.reg f32 %roy
.reg f32 %roz
.reg f32 %rdx
.reg f32 %rdy
.reg f32 %rdz
.reg f32 %tbest
.reg f32 %nxv
.reg f32 %nyv
.reg f32 %nzv
.reg f32 %px
.reg f32 %py
.reg f32 %pz
.reg f32 %ocx
.reg f32 %ocy
.reg f32 %ocz
.reg f32 %bq
.reg f32 %cq
.reg f32 %disc
.reg f32 %troot
.reg f32 %attr
.reg f32 %attg
.reg f32 %attb
.reg f32 %accr
.reg f32 %accg
.reg f32 %accb
.reg f32 %ux
.reg f32 %uy
.reg f32 %uz
.reg f32 %skyr
.reg f32 %skyg
.reg f32 %skyb
.reg f32 %alr
.reg f32 %alg
.reg f32 %alb2
.reg f32 %t0
.reg f32 %t1
.reg f32 %lum
.reg f32 %s0x
.reg f32 %s0y
.reg f32 %s0z
.reg f32 %s0r
.reg f32 %s1x
.reg f32 %s1y
.reg f32 %s1z
.reg f32 %s1r
.reg f32 %s2x
.reg f32 %s2y
.reg f32 %s2z
.reg f32 %s2r
.reg f32 %s3x
.reg f32 %s3y
.reg f32 %s3z
.reg f32 %s3r
.reg f32 %a0r
.reg f32 %a0g
.reg f32 %a0b
.reg f32 %a1r
.reg f32 %a1g
.reg f32 %a1b
.reg f32 %wr
.reg f32 %wg
.reg f32 %wb
.reg f32 %expo
.reg pred %ph
.reg pred %pt
.reg pred %pq

entry:
  mov.s32 %tx, %tid.x
  mov.s32 %ty, %tid.y
  mov.s32 %x, %ctaid.x
  mad.s32 %x, %x, 16, %tx
  mov.s32 %y, %ctaid.y
  mad.s32 %y, %y, 16, %ty
  // xorshift seed from pixel id
  mad.s32 %seed, %y, 9781, %x
  mad.s32 %seed, %seed, 2654435761, 12345
  // camera
  mov.f32 %rox, 0.0
  mov.f32 %roy, 0.75
  mov.f32 %roz, -3.0
  cvt.f32.s32 %rdx, %x
  mul.f32 %rdx, %rdx, 0.0053
  sub.f32 %rdx, %rdx, 0.507
  cvt.f32.s32 %rdy, %y
  mul.f32 %rdy, %rdy, 0.0049
  sub.f32 %rdy, %rdy, 0.471
  mov.f32 %rdz, 1.0
  // %t0/%troot are first written under @%ph guards — partial defs merge
  // the old value, so give them a defined value on every path
  // (gpurf-lint: no undefined reads).
  mov.f32 %t0, 0.0
  mov.f32 %troot, 0.0
  mov.f32 %attr, 1.0
  mov.f32 %attg, 1.0
  mov.f32 %attb, 1.0
  mov.f32 %accr, 0.0
  mov.f32 %accg, 0.0
  mov.f32 %accb, 0.0
  // scene table held in registers for the whole trace
  mov.f32 %s0x, -1.0
  mov.f32 %s0y, 0.5
  mov.f32 %s0z, 1.0
  mov.f32 %s0r, 0.25
  mov.f32 %s1x, 1.0
  mov.f32 %s1y, 0.5
  mov.f32 %s1z, 1.5
  mov.f32 %s1r, 0.25
  mov.f32 %s2x, 0.0
  mov.f32 %s2y, -100.0
  mov.f32 %s2z, 2.0
  mov.f32 %s2r, 10100.25
  mov.f32 %s3x, 0.0
  mov.f32 %s3y, 1.5
  mov.f32 %s3z, 2.5
  mov.f32 %s3r, 0.5625
  mov.f32 %a0r, 0.9375
  mov.f32 %a0g, 0.25
  mov.f32 %a0b, 0.1875
  mov.f32 %a1r, 0.25
  mov.f32 %a1g, 0.8125
  mov.f32 %a1b, 0.375
  mov.f32 %wr, 0.25
  mov.f32 %wg, 0.5
  mov.f32 %wb, 0.25
  mov.f32 %expo, 0.75
  mov.s32 %bounce, 0
bounce_loop:
  setp.ge.s32 %pq, %bounce, 2
  @%pq bra bounce_done
bounce_body:
  mov.f32 %tbest, 1000.0
  mov.s32 %hitid, -1
  // ---- sphere 0: centre (-1, 0.5, 1), r^2 = 0.25
  sub.f32 %ocx, %rox, %s0x
  sub.f32 %ocy, %roy, %s0y
  sub.f32 %ocz, %roz, %s0z
  mul.f32 %bq, %ocx, %rdx
  mad.f32 %bq, %ocy, %rdy, %bq
  mad.f32 %bq, %ocz, %rdz, %bq
  mul.f32 %cq, %ocx, %ocx
  mad.f32 %cq, %ocy, %ocy, %cq
  mad.f32 %cq, %ocz, %ocz, %cq
  sub.f32 %cq, %cq, %s0r
  mul.f32 %disc, %bq, %bq
  sub.f32 %disc, %disc, %cq
  setp.gt.f32 %ph, %disc, 0.0
  @%ph sqrt.f32 %t0, %disc
  @%ph neg.f32 %troot, %bq
  @%ph sub.f32 %troot, %troot, %t0
  @%ph setp.gt.f32 %ph, %troot, 0.01
  @%ph setp.lt.f32 %ph, %troot, %tbest
  @%ph mov.f32 %tbest, %troot
  @%ph mov.s32 %hitid, 0
  // ---- sphere 1
  sub.f32 %ocx, %rox, %s1x
  sub.f32 %ocy, %roy, %s1y
  sub.f32 %ocz, %roz, %s1z
  mul.f32 %bq, %ocx, %rdx
  mad.f32 %bq, %ocy, %rdy, %bq
  mad.f32 %bq, %ocz, %rdz, %bq
  mul.f32 %cq, %ocx, %ocx
  mad.f32 %cq, %ocy, %ocy, %cq
  mad.f32 %cq, %ocz, %ocz, %cq
  sub.f32 %cq, %cq, %s1r
  mul.f32 %disc, %bq, %bq
  sub.f32 %disc, %disc, %cq
  setp.gt.f32 %ph, %disc, 0.0
  @%ph sqrt.f32 %t0, %disc
  @%ph neg.f32 %troot, %bq
  @%ph sub.f32 %troot, %troot, %t0
  @%ph setp.gt.f32 %ph, %troot, 0.01
  @%ph setp.lt.f32 %ph, %troot, %tbest
  @%ph mov.f32 %tbest, %troot
  @%ph mov.s32 %hitid, 1
  // ---- sphere 2: ground ball ~ plane
  sub.f32 %ocx, %rox, %s2x
  sub.f32 %ocy, %roy, %s2y
  sub.f32 %ocz, %roz, %s2z
  mul.f32 %bq, %ocx, %rdx
  mad.f32 %bq, %ocy, %rdy, %bq
  mad.f32 %bq, %ocz, %rdz, %bq
  mul.f32 %cq, %ocx, %ocx
  mad.f32 %cq, %ocy, %ocy, %cq
  mad.f32 %cq, %ocz, %ocz, %cq
  sub.f32 %cq, %cq, %s2r
  mul.f32 %disc, %bq, %bq
  sub.f32 %disc, %disc, %cq
  setp.gt.f32 %ph, %disc, 0.0
  @%ph sqrt.f32 %t0, %disc
  @%ph neg.f32 %troot, %bq
  @%ph sub.f32 %troot, %troot, %t0
  @%ph setp.gt.f32 %ph, %troot, 0.01
  @%ph setp.lt.f32 %ph, %troot, %tbest
  @%ph mov.f32 %tbest, %troot
  @%ph mov.s32 %hitid, 2
  // ---- sphere 3
  sub.f32 %ocx, %rox, %s3x
  sub.f32 %ocy, %roy, %s3y
  sub.f32 %ocz, %roz, %s3z
  mul.f32 %bq, %ocx, %rdx
  mad.f32 %bq, %ocy, %rdy, %bq
  mad.f32 %bq, %ocz, %rdz, %bq
  mul.f32 %cq, %ocx, %ocx
  mad.f32 %cq, %ocy, %ocy, %cq
  mad.f32 %cq, %ocz, %ocz, %cq
  sub.f32 %cq, %cq, %s3r
  mul.f32 %disc, %bq, %bq
  sub.f32 %disc, %disc, %cq
  setp.gt.f32 %ph, %disc, 0.0
  @%ph sqrt.f32 %t0, %disc
  @%ph neg.f32 %troot, %bq
  @%ph sub.f32 %troot, %troot, %t0
  @%ph setp.gt.f32 %ph, %troot, 0.01
  @%ph setp.lt.f32 %ph, %troot, %tbest
  @%ph mov.f32 %tbest, %troot
  @%ph mov.s32 %hitid, 3
  // miss -> sky and terminate the path
  setp.ge.s32 %pq, %hitid, 0
  @%pq bra hit_case
miss_case:
  mul.f32 %skyr, %rdy, 0.25
  add.f32 %skyr, %skyr, 0.55
  mul.f32 %skyg, %rdy, 0.375
  add.f32 %skyg, %skyg, 0.65
  mul.f32 %skyb, %rdy, 0.5
  add.f32 %skyb, %skyb, 0.8
  mad.f32 %accr, %attr, %skyr, %accr
  mad.f32 %accg, %attg, %skyg, %accg
  mad.f32 %accb, %attb, %skyb, %accb
  bra bounce_done
hit_case:
  // hit point and (scaled) normal
  mad.f32 %px, %rdx, %tbest, %rox
  mad.f32 %py, %rdy, %tbest, %roy
  mad.f32 %pz, %rdz, %tbest, %roz
  // normal ~ p - centre, selected by hitid (scaled by 2 for r=0.5)
  setp.eq.s32 %ph, %hitid, 0
  selp.f32 %t0, %s0x, %s1x, %ph
  setp.le.s32 %pt, %hitid, 1
  selp.f32 %t1, %s0y, %s3y, %pt
  sub.f32 %nxv, %px, %t0
  sub.f32 %nyv, %py, %t1
  sub.f32 %nzv, %pz, 1.25
  setp.eq.s32 %ph, %hitid, 2
  selp.f32 %nxv, 0.0, %nxv, %ph
  selp.f32 %nyv, 1.0, %nyv, %ph
  selp.f32 %nzv, 0.0, %nzv, %ph
  // per-sphere albedo (quantized /16 values)
  setp.eq.s32 %ph, %hitid, 0
  selp.f32 %alr, %a0r, %a1r, %ph
  selp.f32 %alg, %a0g, %a1g, %ph
  selp.f32 %alb2, %a0b, %a1b, %ph
  setp.eq.s32 %ph, %hitid, 2
  selp.f32 %alr, 0.5, %alr, %ph
  selp.f32 %alg, 0.5, %alg, %ph
  selp.f32 %alb2, 0.5, %alb2, %ph
  mul.f32 %attr, %attr, %alr
  mul.f32 %attg, %attg, %alg
  mul.f32 %attb, %attb, %alb2
  // xorshift32 x3 -> jittered bounce direction in [-1,1]
  shl.s32 %r1, %seed, 13
  xor.s32 %seed, %seed, %r1
  shr.s32 %r1, %seed, 17
  xor.s32 %seed, %seed, %r1
  shl.s32 %r1, %seed, 5
  xor.s32 %seed, %seed, %r1
  and.s32 %r1, %seed, 65535
  cvt.f32.s32 %ux, %r1
  mul.f32 %ux, %ux, 0.0000305
  sub.f32 %ux, %ux, 1.0
  shr.s32 %r1, %seed, 8
  and.s32 %r1, %r1, 65535
  cvt.f32.s32 %uy, %r1
  mul.f32 %uy, %uy, 0.0000305
  sub.f32 %uy, %uy, 1.0
  shr.s32 %r1, %seed, 16
  and.s32 %r1, %r1, 65535
  cvt.f32.s32 %uz, %r1
  mul.f32 %uz, %uz, 0.0000305
  sub.f32 %uz, %uz, 1.0
  // new ray: origin = hit point, direction = normal + jitter
  mov.f32 %rox, %px
  mov.f32 %roy, %py
  mov.f32 %roz, %pz
  add.f32 %rdx, %nxv, %ux
  add.f32 %rdy, %nyv, %uy
  add.f32 %rdz, %nzv, %uz
  add.s32 %bounce, %bounce, 1
  bra bounce_loop
bounce_done:
  // luminance with dyadic weights
  mul.f32 %lum, %accr, %wr
  mad.f32 %lum, %accg, %wg, %lum
  mad.f32 %lum, %accb, %wb, %lum
  mul.f32 %lum, %lum, %expo
  min.f32 %lum, %lum, 2.0
  max.f32 %lum, %lum, 0.0
  mad.s32 %oa, %y, $width, %x
  add.s32 %oa, %oa, $out_base
  st.global.f32 [%oa], %lum
  ret
)";

class PathtracerWorkload final : public Workload {
 public:
  PathtracerWorkload()
      // Waiver: 2D row-interleaved tiles (see wl_ssao.cpp) — store hulls
      // of adjacent tiles overlap as intervals though the word sets are
      // disjoint.  loads_local is proven; only sharding needs the waiver.
      : Workload(WorkloadSpec{"Pathtracer", gpurf::quality::MetricKind::kSsim,
                              1, 50, 8, /*assume_disjoint=*/true},
                 kAsm) {}

  gpurf::ir::LaunchConfig launch(Scale scale) const override {
    const uint32_t tiles = scale == Scale::kFull ? 12 : 3;
    return {.grid_x = tiles, .grid_y = tiles, .block_x = 16, .block_y = 16};
  }

  Instance make_instance(Scale scale, uint32_t /*variant*/) const override {
    Instance inst;
    inst.launch = launch(scale);
    const uint32_t w = inst.launch.grid_x * inst.launch.block_x;
    const uint32_t h = inst.launch.grid_y * inst.launch.block_y;

    const uint32_t out_base = inst.gmem.alloc(size_t(w) * h);
    inst.params = {out_base, w};
    inst.out_base = out_base;
    inst.out_words = size_t(w) * h;
    inst.image_w = static_cast<int>(w);
    inst.image_h = static_cast<int>(h);
    return inst;
  }

  uint32_t num_sample_variants() const override { return 1; }
};

}  // namespace

std::unique_ptr<Workload> make_pathtracer() {
  return std::make_unique<PathtracerWorkload>();
}

}  // namespace gpurf::workloads
