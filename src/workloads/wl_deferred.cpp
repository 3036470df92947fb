// Deferred shading pass: reconstruct view-space position from a depth
// G-buffer, then accumulate diffuse + specular contributions from eight
// point lights read from a light buffer.  Five G-buffer channels arrive
// through the texture path; RGB accumulators are kept separate, which
// makes this the widest graphics kernel (Table 4: 47 registers).
//
// Table 4: SSIM metric, 47 registers/thread, 8 warps/block (16x16).

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

namespace {

constexpr std::string_view kAsm = R"(
.kernel deferred
.param s32 lights_base
.param s32 out_base
.param s32 width range(64,4096)
.tex g_nx
.tex g_ny
.tex g_depth
.tex g_albedo
.tex g_spec
.tex g_emissive
.reg s32 %tx
.reg s32 %ty
.reg s32 %x
.reg s32 %y
.reg s32 %li
.reg s32 %la
.reg s32 %oa
.reg f32 %nx
.reg f32 %ny
.reg f32 %nz
.reg f32 %depth
.reg f32 %alb
.reg f32 %spc
.reg f32 %posx
.reg f32 %posy
.reg f32 %posz
.reg f32 %lpx
.reg f32 %lpy
.reg f32 %lpz
.reg f32 %lr
.reg f32 %lg
.reg f32 %lb
.reg f32 %lx
.reg f32 %ly
.reg f32 %lz
.reg f32 %d2
.reg f32 %ndl
.reg f32 %atten
.reg f32 %dr
.reg f32 %dg
.reg f32 %db
.reg f32 %sr
.reg f32 %sg
.reg f32 %sb
.reg f32 %hz
.reg f32 %ndh
.reg f32 %spec_i
.reg f32 %t0
.reg f32 %t1
.reg f32 %proj
.reg f32 %lum
.reg f32 %lpx2
.reg f32 %lpy2
.reg f32 %lpz2
.reg f32 %lr2
.reg f32 %lg2
.reg f32 %lb2
.reg f32 %lx2
.reg f32 %ly2
.reg f32 %lz2
.reg f32 %d22
.reg f32 %ndl2
.reg f32 %atten2
.reg f32 %hz2
.reg f32 %ndh2
.reg f32 %spec_i2
.reg f32 %vx
.reg f32 %vy
.reg f32 %vz
.reg f32 %ambr
.reg f32 %ambg
.reg f32 %ambb
.reg f32 %expo
.reg f32 %emis
.reg f32 %fx
.reg f32 %fy
.reg f32 %vig
.reg f32 %str
.reg f32 %stg
.reg f32 %stb
.reg pred %pq

entry:
  mov.s32 %tx, %tid.x
  mov.s32 %ty, %tid.y
  mov.s32 %x, %ctaid.x
  mad.s32 %x, %x, 16, %tx
  mov.s32 %y, %ctaid.y
  mad.s32 %y, %y, 16, %ty
  // G-buffer fetch
  tex.2d.f32 %nx, g_nx, %x, %y
  tex.2d.f32 %ny, g_ny, %x, %y
  tex.2d.f32 %depth, g_depth, %x, %y
  tex.2d.f32 %alb, g_albedo, %x, %y
  tex.2d.f32 %spc, g_spec, %x, %y
  tex.2d.f32 %emis, g_emissive, %x, %y
  // normal z from unit constraint (wide mantissa: stays full precision)
  mul.f32 %t0, %nx, %nx
  mad.f32 %t0, %ny, %ny, %t0
  mov.f32 %t1, 1.0
  sub.f32 %t0, %t1, %t0
  max.f32 %t0, %t0, 0.0
  sqrt.f32 %nz, %t0
  // view-space position from quantized pixel grid and depth
  mov.f32 %proj, 0.0078125
  cvt.f32.s32 %posx, %x
  mul.f32 %posx, %posx, %proj
  mul.f32 %posx, %posx, %depth
  cvt.f32.s32 %posy, %y
  mul.f32 %posy, %posy, %proj
  mul.f32 %posy, %posy, %depth
  mov.f32 %posz, %depth
  // vignette factors from the pixel grid (consumed after the light loop)
  cvt.f32.s32 %fx, %x
  mul.f32 %fx, %fx, 0.0078125
  sub.f32 %fx, %fx, 0.75
  cvt.f32.s32 %fy, %y
  mul.f32 %fy, %fy, 0.0078125
  sub.f32 %fy, %fy, 0.75
  // view vector (camera at origin; -position, unnormalised proxy)
  neg.f32 %vx, %posx
  neg.f32 %vy, %posy
  neg.f32 %vz, %posz
  // ambient and exposure, applied after the light loop
  mov.f32 %ambr, 0.0625
  mov.f32 %ambg, 0.09375
  mov.f32 %ambb, 0.125
  mov.f32 %expo, 0.5
  // specular tint
  mov.f32 %str, 0.9375
  mov.f32 %stg, 0.875
  mov.f32 %stb, 0.75
  // accumulators
  mov.f32 %dr, 0.0
  mov.f32 %dg, 0.0
  mov.f32 %db, 0.0
  mov.f32 %sr, 0.0
  mov.f32 %sg, 0.0
  mov.f32 %sb, 0.0
  mov.s32 %li, 0
light_loop:
  setp.ge.s32 %pq, %li, 8
  @%pq bra light_done
light_body:
  // two light records per iteration (6 floats each: pos xyz, colour rgb)
  mul.s32 %la, %li, 6
  add.s32 %la, %la, $lights_base
  ld.global.f32 %lpx, [%la]
  ld.global.f32 %lpy, [%la+1]
  ld.global.f32 %lpz, [%la+2]
  ld.global.f32 %lr, [%la+3]
  ld.global.f32 %lg, [%la+4]
  ld.global.f32 %lb, [%la+5]
  ld.global.f32 %lpx2, [%la+6]
  ld.global.f32 %lpy2, [%la+7]
  ld.global.f32 %lpz2, [%la+8]
  ld.global.f32 %lr2, [%la+9]
  ld.global.f32 %lg2, [%la+10]
  ld.global.f32 %lb2, [%la+11]
  sub.f32 %lx, %lpx, %posx
  sub.f32 %ly, %lpy, %posy
  sub.f32 %lz, %lpz, %posz
  sub.f32 %lx2, %lpx2, %posx
  sub.f32 %ly2, %lpy2, %posy
  sub.f32 %lz2, %lpz2, %posz
  mul.f32 %d2, %lx, %lx
  mad.f32 %d2, %ly, %ly, %d2
  mad.f32 %d2, %lz, %lz, %d2
  add.f32 %d2, %d2, 1.0
  rcp.f32 %atten, %d2
  mul.f32 %d22, %lx2, %lx2
  mad.f32 %d22, %ly2, %ly2, %d22
  mad.f32 %d22, %lz2, %lz2, %d22
  add.f32 %d22, %d22, 1.0
  rcp.f32 %atten2, %d22
  // unnormalised n . l (monotone proxy, keeps maths division-free)
  mul.f32 %ndl, %nx, %lx
  mad.f32 %ndl, %ny, %ly, %ndl
  mad.f32 %ndl, %nz, %lz, %ndl
  max.f32 %ndl, %ndl, 0.0
  mul.f32 %ndl, %ndl, %atten
  mad.f32 %dr, %ndl, %lr, %dr
  mad.f32 %dg, %ndl, %lg, %dg
  mad.f32 %db, %ndl, %lb, %db
  mul.f32 %ndl2, %nx, %lx2
  mad.f32 %ndl2, %ny, %ly2, %ndl2
  mad.f32 %ndl2, %nz, %lz2, %ndl2
  max.f32 %ndl2, %ndl2, 0.0
  mul.f32 %ndl2, %ndl2, %atten2
  mad.f32 %dr, %ndl2, %lr2, %dr
  mad.f32 %dg, %ndl2, %lg2, %dg
  mad.f32 %db, %ndl2, %lb2, %db
  // Blinn-ish specular with a view-biased half-vector proxy
  add.f32 %hz, %lpz, %vz
  mul.f32 %ndh, %nz, %hz
  mad.f32 %ndh, %nx, %vx, %ndh
  mad.f32 %ndh, %ny, %vy, %ndh
  max.f32 %ndh, %ndh, 0.0
  mul.f32 %spec_i, %ndh, %ndh
  mul.f32 %spec_i, %spec_i, %spec_i
  mul.f32 %spec_i, %spec_i, %atten
  mad.f32 %sr, %spec_i, %lr, %sr
  mad.f32 %sg, %spec_i, %lg, %sg
  mad.f32 %sb, %spec_i, %lb, %sb
  add.f32 %hz2, %lpz2, %vz
  mul.f32 %ndh2, %nz, %hz2
  mad.f32 %ndh2, %nx, %vx, %ndh2
  mad.f32 %ndh2, %ny, %vy, %ndh2
  max.f32 %ndh2, %ndh2, 0.0
  mul.f32 %spec_i2, %ndh2, %ndh2
  mul.f32 %spec_i2, %spec_i2, %spec_i2
  mul.f32 %spec_i2, %spec_i2, %atten2
  mad.f32 %sr, %spec_i2, %lr2, %sr
  mad.f32 %sg, %spec_i2, %lg2, %sg
  mad.f32 %sb, %spec_i2, %lb2, %sb
  add.s32 %li, %li, 2
  bra light_loop
light_done:
  // ambient floor
  add.f32 %dr, %dr, %ambr
  add.f32 %dg, %dg, %ambg
  add.f32 %db, %db, %ambb
  // combine: lum = dot(weights, albedo*diffuse + tinted specular)
  mul.f32 %sr, %sr, %str
  mul.f32 %sg, %sg, %stg
  mul.f32 %sb, %sb, %stb
  mul.f32 %t0, %dr, %alb
  mad.f32 %t0, %sr, %spc, %t0
  mul.f32 %t0, %t0, 0.25
  mul.f32 %t1, %dg, %alb
  mad.f32 %t1, %sg, %spc, %t1
  mad.f32 %t0, %t1, 0.5, %t0
  mul.f32 %t1, %db, %alb
  mad.f32 %t1, %sb, %spc, %t1
  mad.f32 %lum, %t1, 0.25, %t0
  add.f32 %lum, %lum, %emis
  mul.f32 %lum, %lum, %expo
  // radial vignette and depth fog
  mul.f32 %vig, %fx, %fx
  mad.f32 %vig, %fy, %fy, %vig
  mul.f32 %vig, %vig, 0.25
  mov.f32 %t0, 1.0
  sub.f32 %vig, %t0, %vig
  mul.f32 %lum, %lum, %vig
  mul.f32 %t1, %depth, 0.25
  sub.f32 %t0, %t0, %t1
  mul.f32 %lum, %lum, %t0
  min.f32 %lum, %lum, 4.0
  mad.s32 %oa, %y, $width, %x
  add.s32 %oa, %oa, $out_base
  st.global.f32 [%oa], %lum
  ret
)";

class DeferredWorkload final : public Workload {
 public:
  DeferredWorkload()
      // Waiver: per-pixel stores go through a computed framebuffer index
      // the range solver cannot tighten, so the disjointness prover sees
      // statically-unknown store addresses.  Each pixel is written by
      // exactly one block (2D tiling), pinned by the determinism tests.
      : Workload(WorkloadSpec{"Deferred", gpurf::quality::MetricKind::kSsim,
                              1, 47, 8, /*assume_disjoint=*/true},
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

    gpurf::Pcg32 rng(0xDEFEu + variant, 23);
    auto make_tex = [&](int denom) {
      gpurf::exec::Texture t;
      t.width = static_cast<int>(w);
      t.height = static_cast<int>(h);
      t.texels.resize(size_t(w) * h);
      for (auto& v : t.texels)
        v = float(rng.next_below(256)) / float(denom);
      return t;
    };
    // Normals in [-0.5, 0.5), depth/albedo/spec in [0, 1).
    gpurf::exec::Texture gnx = make_tex(256), gny = make_tex(256);
    for (auto& v : gnx.texels) v -= 0.5f;
    for (auto& v : gny.texels) v -= 0.5f;
    inst.textures.push_back(std::move(gnx));
    inst.textures.push_back(std::move(gny));
    inst.textures.push_back(make_tex(256));
    inst.textures.push_back(make_tex(256));
    inst.textures.push_back(make_tex(256));
    inst.textures.push_back(make_tex(1024));  // emissive (dim)

    std::vector<float> lights(8 * 6);
    for (size_t i = 0; i < lights.size(); ++i)
      lights[i] = float(rng.next_below(64)) / 16.0f;  // quantized /16
    const uint32_t lights_base = inst.gmem.alloc_f32(lights);
    const uint32_t out_base = inst.gmem.alloc(size_t(w) * h);
    inst.params = {lights_base, out_base, w};
    inst.out_base = out_base;
    inst.out_words = size_t(w) * h;
    inst.image_w = static_cast<int>(w);
    inst.image_h = static_cast<int>(h);
    return inst;
  }
};

}  // namespace

std::unique_ptr<Workload> make_deferred() {
  return std::make_unique<DeferredWorkload>();
}

}  // namespace gpurf::workloads
