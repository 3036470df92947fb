// DWT2D (Rodinia): one level of a 2-D 5/3 integer lifting wavelet over
// 8x2-pixel tiles.  Pixels arrive packed four-per-word and are unpacked
// with shift/mask — the pattern that makes static range analysis shine:
// every lifting intermediate has a provable narrow range (§6.1 highlights
// DWT2D as a kernel where the integer framework is key).  The horizontal
// pass runs on both rows, then a vertical pass combines them; all 16
// pixels and both rows' subband coefficients are live through the
// vertical stage.
//
// Table 4: % deviation, 38 registers/thread, 6 warps/block (192x1).

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

namespace {

constexpr std::string_view kAsm = R"(
.kernel dwt2d
.param s32 img_base
.param s32 out_base
.param s32 nsegs range(192,65536)
.reg s32 %lin
.reg s32 %seg
.reg s32 %w0
.reg s32 %w1
.reg s32 %w2
.reg s32 %w3
.reg s32 %pa0
.reg s32 %pa1
.reg s32 %pa2
.reg s32 %pa3
.reg s32 %pa4
.reg s32 %pa5
.reg s32 %pa6
.reg s32 %pa7
.reg s32 %pb0
.reg s32 %pb1
.reg s32 %pb2
.reg s32 %pb3
.reg s32 %pb4
.reg s32 %pb5
.reg s32 %pb6
.reg s32 %pb7
.reg s32 %da0
.reg s32 %da1
.reg s32 %da2
.reg s32 %da3
.reg s32 %sa0
.reg s32 %sa1
.reg s32 %sa2
.reg s32 %sa3
.reg s32 %db0
.reg s32 %db1
.reg s32 %db2
.reg s32 %db3
.reg s32 %sb0
.reg s32 %sb1
.reg s32 %sb2
.reg s32 %sb3
.reg s32 %vs0
.reg s32 %vs1
.reg s32 %vs2
.reg s32 %vs3
.reg s32 %vd0
.reg s32 %vd1
.reg s32 %vd2
.reg s32 %vd3
.reg s32 %t0
.reg s32 %t1
.reg s32 %ga
.reg s32 %oa
.reg f32 %f0
.reg f32 %f1
.reg f32 %f2
.reg f32 %f3
.reg f32 %g0
.reg f32 %g1
.reg f32 %g2
.reg f32 %g3
.reg f32 %norm
.reg f32 %snorm
.reg f32 %ci0
.reg f32 %ci1
.reg pred %pq

entry:
  mov.s32 %lin, %tid.x
  mov.s32 %seg, %ctaid.x
  mad.s32 %seg, %seg, 192, %lin
  setp.ge.s32 %pq, %seg, $nsegs
  @%pq bra exit
body:
  // four packed words = 8 pixels of row A and 8 pixels of row B
  shl.s32 %ga, %seg, 2
  add.s32 %ga, %ga, $img_base
  ld.global.s32 %w0, [%ga]
  ld.global.s32 %w1, [%ga+1]
  ld.global.s32 %w2, [%ga+2]
  ld.global.s32 %w3, [%ga+3]
  and.s32 %pa0, %w0, 255
  shr.s32 %t0, %w0, 8
  and.s32 %pa1, %t0, 255
  shr.s32 %t0, %w0, 16
  and.s32 %pa2, %t0, 255
  shr.s32 %t0, %w0, 24
  and.s32 %pa3, %t0, 255
  and.s32 %pa4, %w1, 255
  shr.s32 %t0, %w1, 8
  and.s32 %pa5, %t0, 255
  shr.s32 %t0, %w1, 16
  and.s32 %pa6, %t0, 255
  shr.s32 %t0, %w1, 24
  and.s32 %pa7, %t0, 255
  and.s32 %pb0, %w2, 255
  shr.s32 %t1, %w2, 8
  and.s32 %pb1, %t1, 255
  shr.s32 %t1, %w2, 16
  and.s32 %pb2, %t1, 255
  shr.s32 %t1, %w2, 24
  and.s32 %pb3, %t1, 255
  and.s32 %pb4, %w3, 255
  shr.s32 %t1, %w3, 8
  and.s32 %pb5, %t1, 255
  shr.s32 %t1, %w3, 16
  and.s32 %pb6, %t1, 255
  shr.s32 %t1, %w3, 24
  and.s32 %pb7, %t1, 255
  // horizontal predict/update, row A
  add.s32 %t0, %pa0, %pa2
  shr.s32 %t0, %t0, 1
  sub.s32 %da0, %pa1, %t0
  add.s32 %t0, %pa2, %pa4
  shr.s32 %t0, %t0, 1
  sub.s32 %da1, %pa3, %t0
  add.s32 %t0, %pa4, %pa6
  shr.s32 %t0, %t0, 1
  sub.s32 %da2, %pa5, %t0
  add.s32 %t0, %pa6, %pa6
  shr.s32 %t0, %t0, 1
  sub.s32 %da3, %pa7, %t0
  add.s32 %t1, %da0, %da0
  add.s32 %t1, %t1, 2
  shr.s32 %t1, %t1, 2
  add.s32 %sa0, %pa0, %t1
  add.s32 %t1, %da0, %da1
  add.s32 %t1, %t1, 2
  shr.s32 %t1, %t1, 2
  add.s32 %sa1, %pa2, %t1
  add.s32 %t1, %da1, %da2
  add.s32 %t1, %t1, 2
  shr.s32 %t1, %t1, 2
  add.s32 %sa2, %pa4, %t1
  add.s32 %t1, %da2, %da3
  add.s32 %t1, %t1, 2
  shr.s32 %t1, %t1, 2
  add.s32 %sa3, %pa6, %t1
  // horizontal predict/update, row B
  add.s32 %t0, %pb0, %pb2
  shr.s32 %t0, %t0, 1
  sub.s32 %db0, %pb1, %t0
  add.s32 %t0, %pb2, %pb4
  shr.s32 %t0, %t0, 1
  sub.s32 %db1, %pb3, %t0
  add.s32 %t0, %pb4, %pb6
  shr.s32 %t0, %t0, 1
  sub.s32 %db2, %pb5, %t0
  add.s32 %t0, %pb6, %pb6
  shr.s32 %t0, %t0, 1
  sub.s32 %db3, %pb7, %t0
  add.s32 %t1, %db0, %db0
  add.s32 %t1, %t1, 2
  shr.s32 %t1, %t1, 2
  add.s32 %sb0, %pb0, %t1
  add.s32 %t1, %db0, %db1
  add.s32 %t1, %t1, 2
  shr.s32 %t1, %t1, 2
  add.s32 %sb1, %pb2, %t1
  add.s32 %t1, %db1, %db2
  add.s32 %t1, %t1, 2
  shr.s32 %t1, %t1, 2
  add.s32 %sb2, %pb4, %t1
  add.s32 %t1, %db2, %db3
  add.s32 %t1, %t1, 2
  shr.s32 %t1, %t1, 2
  add.s32 %sb3, %pb6, %t1
  // vertical pass on the smooth coefficients: LL = (sA+sB)/2, LH = sA-sB
  add.s32 %vs0, %sa0, %sb0
  shr.s32 %vs0, %vs0, 1
  sub.s32 %vd0, %sa0, %sb0
  add.s32 %vs1, %sa1, %sb1
  shr.s32 %vs1, %vs1, 1
  sub.s32 %vd1, %sa1, %sb1
  add.s32 %vs2, %sa2, %sb2
  shr.s32 %vs2, %vs2, 1
  sub.s32 %vd2, %sa2, %sb2
  add.s32 %vs3, %sa3, %sb3
  shr.s32 %vs3, %vs3, 1
  sub.s32 %vd3, %sa3, %sb3
  // vertical pass on the detail coefficients folds into HL via averaging
  add.s32 %da0, %da0, %db0
  add.s32 %da1, %da1, %db1
  add.s32 %da2, %da2, %db2
  add.s32 %da3, %da3, %db3
  // normalised float subbands (LL and LH planes)
  mov.f32 %norm, 0.00390625
  mov.f32 %snorm, 0.001953125
  cvt.f32.s32 %f0, %vd0
  mul.f32 %f0, %f0, %norm
  cvt.f32.s32 %f1, %vd1
  mul.f32 %f1, %f1, %norm
  cvt.f32.s32 %f2, %vd2
  mul.f32 %f2, %f2, %norm
  cvt.f32.s32 %f3, %vd3
  mul.f32 %f3, %f3, %norm
  cvt.f32.s32 %g0, %vs0
  mul.f32 %g0, %g0, %snorm
  cvt.f32.s32 %g1, %vs1
  mul.f32 %g1, %g1, %snorm
  cvt.f32.s32 %g2, %vs2
  mul.f32 %g2, %g2, %snorm
  cvt.f32.s32 %g3, %vs3
  mul.f32 %g3, %g3, %snorm
  // output layout: 4 x LL float, 4 x LH float, 4 x HL int, 4 x HH int
  shl.s32 %oa, %seg, 4
  add.s32 %oa, %oa, $out_base
  st.global.f32 [%oa], %g0
  st.global.f32 [%oa+1], %g1
  st.global.f32 [%oa+2], %g2
  st.global.f32 [%oa+3], %g3
  st.global.f32 [%oa+4], %f0
  st.global.f32 [%oa+5], %f1
  st.global.f32 [%oa+6], %f2
  st.global.f32 [%oa+7], %f3
  cvt.f32.s32 %ci0, %da0
  st.global.f32 [%oa+8], %ci0
  cvt.f32.s32 %ci1, %da1
  st.global.f32 [%oa+9], %ci1
  cvt.f32.s32 %ci0, %da2
  st.global.f32 [%oa+10], %ci0
  cvt.f32.s32 %ci1, %da3
  st.global.f32 [%oa+11], %ci1
  // HH: pixel parity checksums keep the unpacked pixels live to the end
  xor.s32 %t0, %pa0, %pa7
  xor.s32 %t0, %t0, %pb0
  xor.s32 %t0, %t0, %pb7
  xor.s32 %t0, %t0, %w0
  xor.s32 %t0, %t0, %w1
  and.s32 %t0, %t0, 255
  cvt.f32.s32 %ci0, %t0
  st.global.f32 [%oa+12], %ci0
  xor.s32 %t1, %pa1, %pa6
  xor.s32 %t1, %t1, %pb1
  xor.s32 %t1, %t1, %pb6
  xor.s32 %t1, %t1, %w2
  xor.s32 %t1, %t1, %w3
  and.s32 %t1, %t1, 255
  cvt.f32.s32 %ci1, %t1
  st.global.f32 [%oa+13], %ci1
  xor.s32 %t0, %pa2, %pa5
  xor.s32 %t0, %t0, %pb2
  xor.s32 %t0, %t0, %pb5
  cvt.f32.s32 %ci0, %t0
  st.global.f32 [%oa+14], %ci0
  xor.s32 %t1, %pa3, %pa4
  xor.s32 %t1, %t1, %pb3
  xor.s32 %t1, %t1, %pb4
  cvt.f32.s32 %ci1, %t1
  st.global.f32 [%oa+15], %ci1
exit:
  ret
)";

class Dwt2dWorkload final : public Workload {
 public:
  Dwt2dWorkload()
      : Workload(WorkloadSpec{"DWT2D", gpurf::quality::MetricKind::kDeviation,
                              2, 38, 6},
                 kAsm) {}

  gpurf::ir::LaunchConfig launch(Scale scale) const override {
    return {.grid_x = scale == Scale::kFull ? 120u : 8u, .block_x = 192};
  }

  Instance make_instance(Scale scale, uint32_t variant) const override {
    Instance inst;
    inst.launch = launch(scale);
    const uint32_t nsegs =
        inst.launch.num_blocks() * inst.launch.threads_per_block();

    gpurf::Pcg32 rng(0xD7D2u + variant, 5);
    std::vector<uint32_t> packed(size_t(nsegs) * 4);
    for (auto& w : packed) {
      w = rng.next_below(256) | (rng.next_below(256) << 8) |
          (rng.next_below(256) << 16) | (rng.next_below(256) << 24);
    }
    const uint32_t img_base = inst.gmem.alloc(packed);
    const uint32_t out_base = inst.gmem.alloc(size_t(nsegs) * 16);
    inst.params = {img_base, out_base, nsegs};
    inst.out_base = out_base;
    inst.out_words = size_t(nsegs) * 16;
    return inst;
  }
};

}  // namespace

std::unique_ptr<Workload> make_dwt2d() {
  return std::make_unique<Dwt2dWorkload>();
}

}  // namespace gpurf::workloads
