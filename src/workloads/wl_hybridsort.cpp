// Hybridsort (bucket-count phase): every thread classifies 16 float keys
// into 16 buckets kept as register-resident saturating counters, four keys
// per loop iteration, then emits its private histogram.  The output is
// integer-exact, so the quality metric is binary (Table 4): any
// compression-induced bucket flip fails both quality levels — only
// losslessly representable float formats are accepted, making perfect and
// high behave identically (§6.1).
//
// Table 4: binary metric, 36 registers/thread, 8 warps/block (256x1).

#include <string>

#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {

namespace {

std::string build_asm() {
  std::string s = R"(
.kernel hybridsort
.param s32 keys_base
.param s32 hist_base
.param s32 nthreads range(256,1048576)
.reg s32 %lin
.reg s32 %gid
.reg s32 %ka
.reg s32 %ha
.reg s32 %i
.reg s32 %b0
.reg s32 %b1
.reg s32 %b2
.reg s32 %b3
.reg s32 %inc
.reg s32 %c<16>
.reg f32 %k0
.reg f32 %k1
.reg f32 %k2
.reg f32 %k3
.reg f32 %scale
.reg f32 %shift
.reg f32 %q0
.reg f32 %q1
.reg f32 %q2
.reg f32 %q3
.reg f32 %ksum
.reg f32 %kmin
.reg f32 %kmax
.reg f32 %pvt
.reg f32 %scale2
.reg s32 %bsum
.reg pred %pe
.reg pred %pq

entry:
  mov.s32 %lin, %tid.x
  mov.s32 %gid, %ctaid.x
  mad.s32 %gid, %gid, 256, %lin
  mov.f32 %scale, 16.0
  mov.f32 %shift, 0.0
  mov.f32 %ksum, 0.0
  mov.f32 %kmin, 1.0
  mov.f32 %kmax, 0.0
  mov.f32 %pvt, 0.5
  mov.f32 %scale2, 0.0625
  mov.s32 %bsum, 0
)";
  for (int c = 0; c < 16; ++c)
    s += "  mov.s32 %c" + std::to_string(c) + ", 0\n";
  s += R"(  shl.s32 %ka, %gid, 4
  add.s32 %ka, %ka, $keys_base
  mul.s32 %ha, %gid, 20
  add.s32 %ha, %ha, $hist_base
  mov.s32 %i, 0
key_loop:
  setp.ge.s32 %pq, %i, 4
  @%pq bra key_done
key_body:
  ld.global.f32 %k0, [%ka]
  ld.global.f32 %k1, [%ka+1]
  ld.global.f32 %k2, [%ka+2]
  ld.global.f32 %k3, [%ka+3]
  add.s32 %ka, %ka, 4
)";
  for (int j = 0; j < 4; ++j) {
    const std::string k = "%k" + std::to_string(j);
    const std::string q = "%q" + std::to_string(j);
    const std::string b = "%b" + std::to_string(j);
    s += "  sub.f32 " + q + ", " + k + ", %shift\n";
    s += "  mul.f32 " + q + ", " + q + ", %scale\n";
    s += "  cvt.s32.f32 " + b + ", " + q + "\n";
    s += "  max.s32 " + b + ", " + b + ", 0\n";
    s += "  min.s32 " + b + ", " + b + ", 15\n";
  }
  // Saturating per-bucket counters: bounded for the range analysis.
  for (int c = 0; c < 16; ++c) {
    for (int j = 0; j < 4; ++j) {
      const std::string cc = "%c" + std::to_string(c);
      s += "  setp.eq.s32 %pe, %b" + std::to_string(j) + ", " +
           std::to_string(c) + "\n";
      s += "  selp.s32 %inc, 1, 0, %pe\n";
      s += "  add.s32 " + cc + ", " + cc + ", %inc\n";
      s += "  min.s32 " + cc + ", " + cc + ", 31\n";
    }
  }
  s += R"(  // key statistics keep the four keys live across the counter phase
  add.f32 %ksum, %k0, %ksum
  add.f32 %ksum, %k1, %ksum
  add.f32 %ksum, %k2, %ksum
  add.f32 %ksum, %k3, %ksum
  min.f32 %kmin, %kmin, %k0
  min.f32 %kmin, %kmin, %k1
  max.f32 %kmax, %kmax, %k2
  max.f32 %kmax, %kmax, %k3
  add.s32 %bsum, %bsum, %b0
  add.s32 %bsum, %bsum, %b1
  add.s32 %bsum, %bsum, %b2
  add.s32 %bsum, %bsum, %b3
  min.s32 %bsum, %bsum, 255
  add.s32 %i, %i, 1
  bra key_loop
key_done:
)";
  for (int c = 0; c < 16; ++c) {
    s += "  st.global.s32 [%ha+" + std::to_string(c) + "], %c" +
         std::to_string(c) + "\n";
  }
  s += R"(  sub.f32 %kmax, %kmax, %kmin
  mul.f32 %kmax, %kmax, %scale2
  sub.f32 %ksum, %ksum, %pvt
  st.global.f32 [%ha+16], %ksum
  st.global.f32 [%ha+17], %kmin
  st.global.f32 [%ha+18], %kmax
  st.global.s32 [%ha+19], %bsum
  ret
)";
  return s;
}

class HybridsortWorkload final : public Workload {
 public:
  HybridsortWorkload()
      // Waiver: bucket loads are data-dependent (indices read from
      // memory), so loads_local is unprovable — though the histogram
      // buckets each block reads are its own (stores_disjoint *is*
      // proven).
      : Workload(WorkloadSpec{"Hybridsort",
                              gpurf::quality::MetricKind::kBinary, 3, 36, 8,
                              /*assume_disjoint=*/true},
                 build_asm()) {}

  gpurf::ir::LaunchConfig launch(Scale scale) const override {
    return {.grid_x = scale == Scale::kFull ? 96u : 8u, .block_x = 256};
  }

  Instance make_instance(Scale scale, uint32_t variant) const override {
    Instance inst;
    inst.launch = launch(scale);
    const uint32_t nthreads =
        inst.launch.num_blocks() * inst.launch.threads_per_block();

    gpurf::Pcg32 rng(0xB5047u + variant, 3);
    std::vector<float> keys(size_t(nthreads) * 16);
    for (auto& k : keys) k = float(rng.next_below(256)) / 256.0f;

    const uint32_t keys_base = inst.gmem.alloc_f32(keys);
    const uint32_t hist_base = inst.gmem.alloc(size_t(nthreads) * 20);
    inst.params = {keys_base, hist_base, nthreads};
    inst.out_base = hist_base;
    inst.out_words = size_t(nthreads) * 20;
    return inst;
  }
};

}  // namespace

std::unique_ptr<Workload> make_hybridsort() {
  return std::make_unique<HybridsortWorkload>();
}

}  // namespace gpurf::workloads
