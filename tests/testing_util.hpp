#pragma once
// Helpers shared by the test binaries (each test is its own executable, so
// anything two suites need lives here rather than being copy-pasted).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "analysis/range_analysis.hpp"
#include "common/thread_pool.hpp"
#include "fp/format.hpp"
#include "rf/fault_map.hpp"
#include "sim/stats.hpp"
#include "workloads/workload.hpp"

namespace gpurf::testing {

/// Field-by-field SimStats comparison with per-field failure messages —
/// the readable face of SimStats::operator== for the sharded-simulator
/// determinism suites (a bare == would say only "not equal").
inline void expect_same_sim_stats(const gpurf::sim::SimStats& a,
                                  const gpurf::sim::SimStats& b,
                                  const std::string& what = {}) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.thread_insts, b.thread_insts) << what;
  EXPECT_EQ(a.warp_insts, b.warp_insts) << what;
  EXPECT_EQ(a.blocks_run, b.blocks_run) << what;
  EXPECT_EQ(a.l1.accesses, b.l1.accesses) << what;
  EXPECT_EQ(a.l1.misses, b.l1.misses) << what;
  EXPECT_EQ(a.tex.accesses, b.tex.accesses) << what;
  EXPECT_EQ(a.tex.misses, b.tex.misses) << what;
  EXPECT_EQ(a.l2.accesses, b.l2.accesses) << what;
  EXPECT_EQ(a.l2.misses, b.l2.misses) << what;
  EXPECT_EQ(a.stall_scoreboard, b.stall_scoreboard) << what;
  EXPECT_EQ(a.stall_no_cu, b.stall_no_cu) << what;
  EXPECT_EQ(a.stall_barrier, b.stall_barrier) << what;
  EXPECT_EQ(a.stall_empty, b.stall_empty) << what;
  EXPECT_EQ(a.operand_fetches, b.operand_fetches) << what;
  EXPECT_EQ(a.double_fetches, b.double_fetches) << what;
  EXPECT_EQ(a.conversions, b.conversions) << what;
  // Defaulted operator== covers any counter the list above misses.
  EXPECT_TRUE(a == b) << what << " (field added to SimStats but not here?)";
}

/// RAII: run the calling thread's pool work on a pool of width `n` for the
/// scope — lets one process compare serial and parallel runs.
class PoolWidth {
 public:
  explicit PoolWidth(int n) : pool_(n), bind_(&pool_) {}

 private:
  gpurf::common::ThreadPool pool_;
  gpurf::common::ScopedPool bind_;
};

/// One slice allocation of a bundled workload's kernel.
struct RealAllocation {
  std::string name;  ///< "<workload> <variant>"
  const gpurf::ir::Kernel* kernel = nullptr;  ///< owned by the workload
  gpurf::alloc::AllocationResult alloc;
};

/// The allocations the register-file tests drive the operand codec with,
/// three per workload (ranges from the sample instance, variant 0):
///   int      integers packed by their analysed ranges;
///   int+f16  that plus every f32 register at the 16-bit format
///            (sim_golden_test's two compressed allocations);
///   faulty   int+f16 around a seeded map with 90 % of the slices broken,
///            which redirects and spills registers.
/// Together they hold split, signed-narrow, narrow-float, redirected and
/// spilled entries.
inline std::vector<RealAllocation> real_allocations(
    const std::vector<std::unique_ptr<gpurf::workloads::Workload>>&
        workloads) {
  namespace alloc = gpurf::alloc;
  const auto faults = gpurf::rf::FaultMap::generate(7, 0.9);
  std::vector<RealAllocation> out;
  for (const auto& w : workloads) {
    const gpurf::ir::Kernel& k = w->kernel();
    const auto inst = w->make_instance(gpurf::workloads::Scale::kSample, 0);
    const auto ranges = gpurf::analysis::analyze_ranges(k, inst.launch);
    gpurf::exec::PrecisionMap pmap;
    pmap.per_reg.assign(k.num_regs(), gpurf::fp::format_for_bits(32));
    for (uint32_t r = 0; r < k.num_regs(); ++r)
      if (k.regs[r].type == gpurf::ir::Type::F32)
        pmap.per_reg[r] = gpurf::fp::format_for_bits(16);
    const std::string name = w->spec().name;
    out.push_back({name + " int", &k,
                   alloc::allocate_slices(k, &ranges, nullptr, {true, false})});
    out.push_back({name + " int+f16", &k,
                   alloc::allocate_slices(k, &ranges, &pmap, {true, true})});
    out.push_back(
        {name + " faulty", &k,
         alloc::allocate_slices(k, &ranges, &pmap, {true, true, &faults})});
  }
  return out;
}

}  // namespace gpurf::testing
