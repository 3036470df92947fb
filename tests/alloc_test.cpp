// Tests for the register allocators (§4.3): baseline colouring pressure
// and the slice-packing allocator's invariants (no slice shared by
// interfering registers, at most two physical registers per operand,
// pressure never above the baseline).

#include <gtest/gtest.h>

#include <bit>

#include "alloc/slice_alloc.hpp"
#include "analysis/liveness.hpp"
#include "analysis/range_analysis.hpp"
#include "ir/parser.hpp"
#include "workloads/workload.hpp"

namespace gpurf::alloc {
namespace {

using gpurf::ir::LaunchConfig;
using gpurf::ir::parse_kernel;

TEST(Baseline, PressureEqualsSimultaneousLive) {
  auto k = parse_kernel(R"(
.kernel p
.reg s32 %a
.reg s32 %b
.reg s32 %c
.reg s32 %d
entry:
  mov.s32 %a, 1
  mov.s32 %b, 2
  add.s32 %c, %a, %b
  add.s32 %d, %c, %a
  st.global.s32 [%d], %d
  ret
)");
  // {a,b} -> {a,c} -> {d}: two registers suffice (c may reuse b's slot,
  // d may reuse a's).
  EXPECT_EQ(baseline_pressure(k), 2u);
}

TEST(Baseline, DisjointLifetimesShareRegisters) {
  auto k = parse_kernel(R"(
.kernel d
.reg s32 %a
.reg s32 %b
entry:
  mov.s32 %a, 1
  st.global.s32 [%a], %a
  mov.s32 %b, 2
  st.global.s32 [%b], %b
  ret
)");
  EXPECT_EQ(baseline_pressure(k), 1u);
}

TEST(SliceAlloc, NarrowIntsPack) {
  // Four 8-bit values (2 slices each) pack into one 8-slice register.
  auto k = parse_kernel(R"(
.kernel n
.reg s32 %p0
.reg s32 %p1
.reg s32 %p2
.reg s32 %p3
.reg s32 %s
entry:
  mov.s32 %s, %tid.x
  ld.global.s32 %s, [%s]
  and.s32 %p0, %s, 255
  and.s32 %p1, %s, 255
  and.s32 %p2, %s, 255
  and.s32 %p3, %s, 255
  add.s32 %p0, %p0, %p1
  add.s32 %p2, %p2, %p3
  add.s32 %p0, %p0, %p2
  st.global.s32 [%s], %p0
  ret
)");
  const auto ranges = analysis::analyze_ranges(k, LaunchConfig{});
  AllocOptions opt{true, false};
  const auto res = allocate_slices(k, &ranges, nullptr, opt);
  // %s stays 8 slices; p0 (9 bits = 3 slices after the adds) + p1..p3
  // (2 slices each) pack alongside.
  EXPECT_LT(res.num_physical_regs, baseline_pressure(k) + 1);
  EXPECT_LE(res.num_physical_regs, 3u);
  EXPECT_GE(res.packing_density(), 0.5);
}

TEST(SliceAlloc, EntriesCoverDeclaredWidths) {
  auto k = parse_kernel(R"(
.kernel w
.reg s32 %a
.reg s32 %b
entry:
  mov.s32 %a, %tid.x
  and.s32 %b, %a, 15
  st.global.s32 [%b], %a
  ret
)");
  const auto ranges = analysis::analyze_ranges(k, LaunchConfig{1, 1, 32, 1});
  AllocOptions opt{true, false};
  const auto res = allocate_slices(k, &ranges, nullptr, opt);
  for (uint32_t r = 0; r < k.num_regs(); ++r) {
    const auto& e = res.table[r];
    if (!e.valid) continue;
    const int covered = std::popcount(e.r0.mask) +
                        (e.split ? std::popcount(e.r1.mask) : 0);
    EXPECT_EQ(covered, e.slices) << "%" << k.regs[r].name;
  }
}

// Allocation invariants over all bundled workloads, parameterized.
class WorkloadAllocation : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadAllocation, InvariantsHold) {
  const auto all = gpurf::workloads::make_all_workloads();
  const auto& w = *all[GetParam()];
  const auto& k = w.kernel();
  const auto inst = w.make_instance(gpurf::workloads::Scale::kSample, 0);
  const auto ranges = analysis::analyze_ranges(k, inst.launch);

  AllocOptions opt{true, false};
  const auto res = allocate_slices(k, &ranges, nullptr, opt);

  // 1. Compressed pressure never exceeds the baseline.
  EXPECT_LE(res.num_physical_regs, baseline_pressure(k));
  EXPECT_LE(res.num_physical_regs, 256u);

  // 2. No two *interfering* registers share a physical slice.
  const auto cfg = analysis::build_cfg(k);
  const auto live = analysis::compute_liveness(k, cfg);
  const auto adj = analysis::build_interference(k, cfg, live);
  for (uint32_t r1 = 0; r1 < k.num_regs(); ++r1) {
    if (!res.table[r1].valid) continue;
    for (uint32_t r2 = r1 + 1; r2 < k.num_regs(); ++r2) {
      if (!res.table[r2].valid || !adj[r1].test(r2)) continue;
      auto overlap = [](const SliceLoc& a, const SliceLoc& b) {
        return a.phys_reg == b.phys_reg && (a.mask & b.mask) != 0;
      };
      const auto& e1 = res.table[r1];
      const auto& e2 = res.table[r2];
      bool conflict = overlap(e1.r0, e2.r0);
      if (e1.split) conflict |= overlap(e1.r1, e2.r0);
      if (e2.split) conflict |= overlap(e1.r0, e2.r1);
      if (e1.split && e2.split) conflict |= overlap(e1.r1, e2.r1);
      EXPECT_FALSE(conflict)
          << "%" << k.regs[r1].name << " and %" << k.regs[r2].name
          << " interfere but share slices";
    }
  }

  // 3. Every allocated operand occupies exactly its slice count, in at
  //    most two physical registers.
  for (uint32_t r = 0; r < k.num_regs(); ++r) {
    const auto& e = res.table[r];
    if (!e.valid) continue;
    const int covered = std::popcount(e.r0.mask) +
                        (e.split ? std::popcount(e.r1.mask) : 0);
    EXPECT_EQ(covered, e.slices);
    if (e.split) {
      EXPECT_NE(e.r0.phys_reg, e.r1.phys_reg);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadAllocation,
                         ::testing::Range(0, 11),
                         [](const ::testing::TestParamInfo<int>& i) {
                           const auto all =
                               gpurf::workloads::make_all_workloads();
                           return all[i.param]->spec().name;
                         });

TEST(SliceAlloc, RequiresInputsForRequestedPacking) {
  auto k = parse_kernel(
      ".kernel x\n.reg s32 %a\nentry:\n  mov.s32 %a, 1\n"
      "  st.global.s32 [%a], %a\n  ret\n");
  AllocOptions ints{true, false};
  EXPECT_THROW(allocate_slices(k, nullptr, nullptr, ints), gpurf::Error);
  AllocOptions floats{false, true};
  EXPECT_THROW(allocate_slices(k, nullptr, nullptr, floats), gpurf::Error);
}

TEST(SliceAlloc, PredicatesExcluded) {
  auto k = parse_kernel(R"(
.kernel p
.reg s32 %a
.reg pred %p0
.reg pred %p1
entry:
  mov.s32 %a, 1
  setp.lt.s32 %p0, %a, 2
  setp.gt.s32 %p1, %a, 0
  @%p0 add.s32 %a, %a, 1
  @%p1 add.s32 %a, %a, 2
  st.global.s32 [%a], %a
  ret
)");
  EXPECT_EQ(baseline_pressure(k), 1u);  // only %a occupies the RF
}

}  // namespace
}  // namespace gpurf::alloc
