#pragma once
// Helpers shared by the test binaries (each test is its own executable, so
// anything two suites need lives here rather than being copy-pasted).

#include <gtest/gtest.h>

#include <string>

#include "common/thread_pool.hpp"
#include "sim/stats.hpp"

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

}  // namespace gpurf::testing
