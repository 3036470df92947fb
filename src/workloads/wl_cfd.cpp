// CFD (Rodinia euler3d, compute_flux): per-cell flux accumulation over
// three unstructured-mesh neighbours.  All five conserved variables of the
// cell and of all three neighbours are held live together with the edge
// normals — the register-pressure champion of the suite (Table 4: 60).
// Pressure is computed with a normalised-density simplification so the
// arithmetic stays division-free (see DESIGN.md substitutions).
//
// Table 4: % deviation, 60 registers/thread, 6 warps/block (192x1).

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

namespace {

constexpr std::string_view kAsm = R"(
.kernel cfd
.param s32 var_base
.param s32 nbr_base
.param s32 norm_base
.param s32 out_base
.param s32 ncells range(1152,16777216)
.reg s32 %lin
.reg s32 %gid
.reg s32 %na
.reg s32 %nb0
.reg s32 %nb1
.reg s32 %nb2
.reg s32 %a0
.reg s32 %a1
.reg s32 %a2
.reg s32 %oa
.reg s32 %nc
.reg f32 %r
.reg f32 %mx
.reg f32 %my
.reg f32 %mz
.reg f32 %e
.reg f32 %pr
.reg f32 %r0
.reg f32 %mx0
.reg f32 %my0
.reg f32 %mz0
.reg f32 %e0
.reg f32 %pr0
.reg f32 %r1
.reg f32 %mx1
.reg f32 %my1
.reg f32 %mz1
.reg f32 %e1
.reg f32 %pr1
.reg f32 %r2
.reg f32 %mx2
.reg f32 %my2
.reg f32 %mz2
.reg f32 %e2
.reg f32 %pr2
.reg f32 %nx0
.reg f32 %ny0
.reg f32 %nz0
.reg f32 %nx1
.reg f32 %ny1
.reg f32 %nz1
.reg f32 %nx2
.reg f32 %ny2
.reg f32 %nz2
.reg f32 %fr
.reg f32 %fmx
.reg f32 %fmy
.reg f32 %fmz
.reg f32 %fe
.reg f32 %gm1
.reg f32 %lam
.reg f32 %half
.reg f32 %ke
.reg f32 %ke0
.reg f32 %ke1
.reg f32 %ke2
.reg f32 %vx
.reg f32 %vy
.reg f32 %vz
.reg f32 %ir
.reg f32 %smax
.reg f32 %wt0
.reg f32 %wt1
.reg f32 %wt2
.reg f32 %ir0
.reg f32 %ir1
.reg f32 %ir2
.reg f32 %vup0
.reg f32 %vup1
.reg f32 %vup2
.reg f32 %t0
.reg f32 %t1
.reg pred %pq

entry:
  mov.s32 %lin, %tid.x
  mov.s32 %gid, %ctaid.x
  mad.s32 %gid, %gid, 192, %lin
  setp.ge.s32 %pq, %gid, $ncells
  @%pq bra exit
body:
  mov.s32 %nc, $ncells
  mov.f32 %gm1, 0.5
  mov.f32 %lam, 0.25
  mov.f32 %half, 0.5
  mov.f32 %wt0, 0.5
  mov.f32 %wt1, 0.3125
  mov.f32 %wt2, 0.1875
  // cell variables (SoA layout: field f at var_base + f*ncells + i)
  add.s32 %na, %gid, $var_base
  ld.global.f32 %r, [%na]
  add.s32 %na, %na, %nc
  ld.global.f32 %mx, [%na]
  add.s32 %na, %na, %nc
  ld.global.f32 %my, [%na]
  add.s32 %na, %na, %nc
  ld.global.f32 %mz, [%na]
  add.s32 %na, %na, %nc
  ld.global.f32 %e, [%na]
  // normalised-density pressure: p = gm1 * (e - 0.25*(mx^2+my^2+mz^2))
  mul.f32 %ke, %mx, %mx
  mad.f32 %ke, %my, %my, %ke
  mad.f32 %ke, %mz, %mz, %ke
  mul.f32 %ke, %ke, -0.25
  add.f32 %pr, %e, %ke
  mul.f32 %pr, %pr, %gm1
  // cell velocity (momentum / density) and a CFL-style speed bound
  rcp.f32 %ir, %r
  mul.f32 %vx, %mx, %ir
  mul.f32 %vy, %my, %ir
  mul.f32 %vz, %mz, %ir
  abs.f32 %smax, %vx
  abs.f32 %t0, %vy
  max.f32 %smax, %smax, %t0
  abs.f32 %t0, %vz
  max.f32 %smax, %smax, %t0
  min.f32 %smax, %smax, 4.0
  // three neighbour indices
  mul.s32 %na, %gid, 3
  add.s32 %na, %na, $nbr_base
  ld.global.s32 %nb0, [%na]
  ld.global.s32 %nb1, [%na+1]
  ld.global.s32 %nb2, [%na+2]
  // neighbour 0 variables + pressure
  add.s32 %a0, %nb0, $var_base
  ld.global.f32 %r0, [%a0]
  add.s32 %a0, %a0, %nc
  ld.global.f32 %mx0, [%a0]
  add.s32 %a0, %a0, %nc
  ld.global.f32 %my0, [%a0]
  add.s32 %a0, %a0, %nc
  ld.global.f32 %mz0, [%a0]
  add.s32 %a0, %a0, %nc
  ld.global.f32 %e0, [%a0]
  mul.f32 %ke0, %mx0, %mx0
  mad.f32 %ke0, %my0, %my0, %ke0
  mad.f32 %ke0, %mz0, %mz0, %ke0
  mul.f32 %ke0, %ke0, -0.25
  add.f32 %pr0, %e0, %ke0
  mul.f32 %pr0, %pr0, %gm1
  rcp.f32 %ir0, %r0
  mul.f32 %vup0, %mx0, %ir0
  // neighbour 1
  add.s32 %a1, %nb1, $var_base
  ld.global.f32 %r1, [%a1]
  add.s32 %a1, %a1, %nc
  ld.global.f32 %mx1, [%a1]
  add.s32 %a1, %a1, %nc
  ld.global.f32 %my1, [%a1]
  add.s32 %a1, %a1, %nc
  ld.global.f32 %mz1, [%a1]
  add.s32 %a1, %a1, %nc
  ld.global.f32 %e1, [%a1]
  mul.f32 %ke1, %mx1, %mx1
  mad.f32 %ke1, %my1, %my1, %ke1
  mad.f32 %ke1, %mz1, %mz1, %ke1
  mul.f32 %ke1, %ke1, -0.25
  add.f32 %pr1, %e1, %ke1
  mul.f32 %pr1, %pr1, %gm1
  rcp.f32 %ir1, %r1
  mul.f32 %vup1, %mx1, %ir1
  // neighbour 2
  add.s32 %a2, %nb2, $var_base
  ld.global.f32 %r2, [%a2]
  add.s32 %a2, %a2, %nc
  ld.global.f32 %mx2, [%a2]
  add.s32 %a2, %a2, %nc
  ld.global.f32 %my2, [%a2]
  add.s32 %a2, %a2, %nc
  ld.global.f32 %mz2, [%a2]
  add.s32 %a2, %a2, %nc
  ld.global.f32 %e2, [%a2]
  mul.f32 %ke2, %mx2, %mx2
  mad.f32 %ke2, %my2, %my2, %ke2
  mad.f32 %ke2, %mz2, %mz2, %ke2
  mul.f32 %ke2, %ke2, -0.25
  add.f32 %pr2, %e2, %ke2
  mul.f32 %pr2, %pr2, %gm1
  rcp.f32 %ir2, %r2
  mul.f32 %vup2, %mx2, %ir2
  // edge normals (AoS: 9 floats per cell)
  mul.s32 %na, %gid, 9
  add.s32 %na, %na, $norm_base
  ld.global.f32 %nx0, [%na]
  ld.global.f32 %ny0, [%na+1]
  ld.global.f32 %nz0, [%na+2]
  ld.global.f32 %nx1, [%na+3]
  ld.global.f32 %ny1, [%na+4]
  ld.global.f32 %nz1, [%na+5]
  ld.global.f32 %nx2, [%na+6]
  ld.global.f32 %ny2, [%na+7]
  ld.global.f32 %nz2, [%na+8]
  // Lax-Friedrichs-style flux accumulation over the three edges
  mov.f32 %fr, 0.0
  mov.f32 %fmx, 0.0
  mov.f32 %fmy, 0.0
  mov.f32 %fmz, 0.0
  mov.f32 %fe, 0.0
  // edge 0
  add.f32 %t0, %mx, %mx0
  mul.f32 %t1, %t0, %nx0
  add.f32 %t0, %my, %my0
  mad.f32 %t1, %t0, %ny0, %t1
  add.f32 %t0, %mz, %mz0
  mad.f32 %t1, %t0, %nz0, %t1
  mul.f32 %t1, %t1, %half
  add.f32 %fr, %fr, %t1
  sub.f32 %t0, %r0, %r
  mad.f32 %fr, %t0, %lam, %fr
  add.f32 %t0, %pr, %pr0
  mul.f32 %t0, %t0, %half
  mad.f32 %fmx, %t0, %nx0, %fmx
  mad.f32 %fmy, %t0, %ny0, %fmy
  mad.f32 %fmz, %t0, %nz0, %fmz
  sub.f32 %t0, %mx0, %mx
  mad.f32 %fmx, %t0, %lam, %fmx
  sub.f32 %t0, %my0, %my
  mad.f32 %fmy, %t0, %lam, %fmy
  sub.f32 %t0, %mz0, %mz
  mad.f32 %fmz, %t0, %lam, %fmz
  add.f32 %t0, %e, %e0
  mul.f32 %t1, %t0, %half
  mul.f32 %t1, %t1, %wt0
  mad.f32 %fe, %t1, %nx0, %fe
  mul.f32 %t1, %vx, %pr
  mad.f32 %fe, %t1, %wt0, %fe
  mul.f32 %t1, %vy, %pr0
  mad.f32 %fe, %t1, %wt0, %fe
  mul.f32 %t1, %vz, %ke0
  mad.f32 %fe, %t1, %wt0, %fe
  sub.f32 %t0, %e0, %e
  mul.f32 %t0, %t0, %smax
  mad.f32 %fe, %t0, %lam, %fe
  mul.f32 %t1, %vup0, %ir0
  mad.f32 %fe, %t1, %wt0, %fe
  // edge 1
  add.f32 %t0, %mx, %mx1
  mul.f32 %t1, %t0, %nx1
  add.f32 %t0, %my, %my1
  mad.f32 %t1, %t0, %ny1, %t1
  add.f32 %t0, %mz, %mz1
  mad.f32 %t1, %t0, %nz1, %t1
  mul.f32 %t1, %t1, %half
  add.f32 %fr, %fr, %t1
  sub.f32 %t0, %r1, %r
  mad.f32 %fr, %t0, %lam, %fr
  add.f32 %t0, %pr, %pr1
  mul.f32 %t0, %t0, %half
  mad.f32 %fmx, %t0, %nx1, %fmx
  mad.f32 %fmy, %t0, %ny1, %fmy
  mad.f32 %fmz, %t0, %nz1, %fmz
  sub.f32 %t0, %mx1, %mx
  mad.f32 %fmx, %t0, %lam, %fmx
  sub.f32 %t0, %my1, %my
  mad.f32 %fmy, %t0, %lam, %fmy
  sub.f32 %t0, %mz1, %mz
  mad.f32 %fmz, %t0, %lam, %fmz
  add.f32 %t0, %e, %e1
  mul.f32 %t1, %t0, %half
  mul.f32 %t1, %t1, %wt1
  mad.f32 %fe, %t1, %nx1, %fe
  mul.f32 %t1, %vx, %pr
  mad.f32 %fe, %t1, %wt1, %fe
  mul.f32 %t1, %vy, %pr1
  mad.f32 %fe, %t1, %wt1, %fe
  mul.f32 %t1, %vz, %ke1
  mad.f32 %fe, %t1, %wt1, %fe
  sub.f32 %t0, %e1, %e
  mul.f32 %t0, %t0, %smax
  mad.f32 %fe, %t0, %lam, %fe
  mul.f32 %t1, %vup1, %ir1
  mad.f32 %fe, %t1, %wt1, %fe
  // edge 2
  add.f32 %t0, %mx, %mx2
  mul.f32 %t1, %t0, %nx2
  add.f32 %t0, %my, %my2
  mad.f32 %t1, %t0, %ny2, %t1
  add.f32 %t0, %mz, %mz2
  mad.f32 %t1, %t0, %nz2, %t1
  mul.f32 %t1, %t1, %half
  add.f32 %fr, %fr, %t1
  sub.f32 %t0, %r2, %r
  mad.f32 %fr, %t0, %lam, %fr
  add.f32 %t0, %pr, %pr2
  mul.f32 %t0, %t0, %half
  mad.f32 %fmx, %t0, %nx2, %fmx
  mad.f32 %fmy, %t0, %ny2, %fmy
  mad.f32 %fmz, %t0, %nz2, %fmz
  sub.f32 %t0, %mx2, %mx
  mad.f32 %fmx, %t0, %lam, %fmx
  sub.f32 %t0, %my2, %my
  mad.f32 %fmy, %t0, %lam, %fmy
  sub.f32 %t0, %mz2, %mz
  mad.f32 %fmz, %t0, %lam, %fmz
  add.f32 %t0, %e, %e2
  mul.f32 %t1, %t0, %half
  mul.f32 %t1, %t1, %wt2
  mad.f32 %fe, %t1, %nx2, %fe
  mul.f32 %t1, %vx, %pr
  mad.f32 %fe, %t1, %wt2, %fe
  mul.f32 %t1, %vy, %pr2
  mad.f32 %fe, %t1, %wt2, %fe
  mul.f32 %t1, %vz, %ke2
  mad.f32 %fe, %t1, %wt2, %fe
  sub.f32 %t0, %e2, %e
  mul.f32 %t0, %t0, %smax
  mad.f32 %fe, %t0, %lam, %fe
  mul.f32 %t1, %vup2, %ir2
  mad.f32 %fe, %t1, %wt2, %fe
  // write the five flux components (SoA)
  add.s32 %oa, %gid, $out_base
  st.global.f32 [%oa], %fr
  add.s32 %oa, %oa, %nc
  st.global.f32 [%oa], %fmx
  add.s32 %oa, %oa, %nc
  st.global.f32 [%oa], %fmy
  add.s32 %oa, %oa, %nc
  st.global.f32 [%oa], %fmz
  add.s32 %oa, %oa, %nc
  st.global.f32 [%oa], %fe
exit:
  ret
)";

class CfdWorkload final : public Workload {
 public:
  CfdWorkload()
      // Waiver: flux loads read neighbour cells through index arithmetic
      // the interval solver widens past the block boundary, so loads_local
      // is unprovable — though every load reads pristine input arrays, not
      // another block's output (stores_disjoint *is* proven).
      : Workload(WorkloadSpec{"CFD", gpurf::quality::MetricKind::kDeviation,
                              2, 60, 6, /*assume_disjoint=*/true},
                 kAsm) {}

  gpurf::ir::LaunchConfig launch(Scale scale) const override {
    return {.grid_x = scale == Scale::kFull ? 120u : 6u, .block_x = 192};
  }

  Instance make_instance(Scale scale, uint32_t variant) const override {
    Instance inst;
    inst.launch = launch(scale);
    const uint32_t ncells =
        inst.launch.num_blocks() * inst.launch.threads_per_block();

    gpurf::Pcg32 rng(0xCFDu + variant, 17);
    std::vector<float> vars(size_t(ncells) * 5);
    for (uint32_t i = 0; i < ncells; ++i) {
      vars[i] = 0.5f + float(rng.next_below(256)) / 512.0f;          // rho
      vars[ncells + i] = float(int(rng.next_below(256)) - 128) / 256.0f;
      vars[2 * ncells + i] = float(int(rng.next_below(256)) - 128) / 256.0f;
      vars[3 * ncells + i] = float(int(rng.next_below(256)) - 128) / 256.0f;
      vars[4 * ncells + i] = 0.5f + float(rng.next_below(256)) / 256.0f;
    }
    std::vector<uint32_t> nbrs(size_t(ncells) * 3);
    for (auto& n : nbrs) n = rng.next_below(ncells);
    std::vector<float> norms(size_t(ncells) * 9);
    for (auto& n : norms) n = float(int(rng.next_below(128)) - 64) / 64.0f;

    const uint32_t var_base = inst.gmem.alloc_f32(vars);
    const uint32_t nbr_base = inst.gmem.alloc(nbrs);
    const uint32_t norm_base = inst.gmem.alloc_f32(norms);
    const uint32_t out_base = inst.gmem.alloc(size_t(ncells) * 5);
    inst.params = {var_base, nbr_base, norm_base, out_base, ncells};
    inst.out_base = out_base;
    inst.out_words = size_t(ncells) * 5;
    return inst;
  }
};

}  // namespace

std::unique_ptr<Workload> make_cfd() {
  return std::make_unique<CfdWorkload>();
}

}  // namespace gpurf::workloads
