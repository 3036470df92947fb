// Tests for the timing simulator: occupancy calculator (§2 numbers),
// cache model, and end-to-end simulations of small kernels — including
// functional equivalence between timed and untimed execution and the
// basic performance orderings the paper's results rest on.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "alloc/slice_alloc.hpp"
#include "analysis/range_analysis.hpp"
#include "api/engine.hpp"
#include "ir/parser.hpp"
#include "sim/cache.hpp"
#include "sim/gpu.hpp"
#include "sim/occupancy.hpp"
#include "testing_util.hpp"

namespace gpurf::sim {
namespace {

using gpurf::ir::LaunchConfig;
using gpurf::ir::parse_kernel;

// ------------------------------------------------------------- occupancy

TEST(Occupancy, PaperImgvfNumbers) {
  const GpuConfig g = GpuConfig::fermi_gtx480();
  // §2: 52 regs x 32 threads x 10 warps = 16,640 -> one block, 10/48 warps.
  const auto orig = compute_occupancy(g, 52, 10, 14560);
  EXPECT_EQ(orig.blocks_per_sm, 1u);
  EXPECT_NEAR(orig.percent, 20.8, 0.1);
  EXPECT_EQ(orig.limiter, Occupancy::Limiter::kRegisters);

  // §2: at 29 registers three blocks fit -> 30/48 warps = 62.5 %.
  const auto comp = compute_occupancy(g, 29, 10, 14560);
  EXPECT_EQ(comp.blocks_per_sm, 3u);
  EXPECT_NEAR(comp.percent, 62.5, 0.01);

  // §6.1: at 24 registers the 14,560-byte shared memory caps at 3 blocks.
  const auto high = compute_occupancy(g, 24, 10, 14560);
  EXPECT_EQ(high.blocks_per_sm, 3u);
  EXPECT_EQ(high.limiter, Occupancy::Limiter::kSharedMem);
}

TEST(Occupancy, WarpAndBlockLimits) {
  const GpuConfig g = GpuConfig::fermi_gtx480();
  // Tiny pressure: 48 warps / 8 warps-per-block = 6 blocks (warp limit).
  const auto w = compute_occupancy(g, 4, 8, 0);
  EXPECT_EQ(w.blocks_per_sm, 6u);
  EXPECT_EQ(w.limiter, Occupancy::Limiter::kWarps);
  // 6 warps per block: 8 blocks would need 48 warps exactly; register
  // pressure 4 allows more than 8 -> block limit.
  const auto b = compute_occupancy(g, 4, 6, 0);
  EXPECT_EQ(b.blocks_per_sm, 8u);
  EXPECT_EQ(b.percent, 100.0);
}

TEST(Occupancy, RegisterGranularityMatchesPaperMath) {
  const GpuConfig g = GpuConfig::fermi_gtx480();
  // 34 regs x 320 threads = 10,880 -> exactly 3 blocks in 32,768.
  EXPECT_EQ(compute_occupancy(g, 34, 10, 0).blocks_per_sm, 3u);
  EXPECT_EQ(compute_occupancy(g, 35, 10, 0).blocks_per_sm, 2u);
}

// ------------------------------------------------------------------ cache

TEST(Cache, HitsAfterFill) {
  Cache c(CacheGeom{1024, 128, 2});
  EXPECT_FALSE(c.access(1));
  EXPECT_TRUE(c.access(1));
  EXPECT_EQ(c.stats().accesses, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEviction) {
  Cache c(CacheGeom{2 * 128, 128, 2});  // one set, two ways
  c.access(10);
  c.access(20);
  c.access(10);      // refresh 10
  c.access(30);      // evicts 20
  EXPECT_TRUE(c.access(10));
  EXPECT_FALSE(c.access(20));
}

TEST(Cache, SetIndexing) {
  Cache c(CacheGeom{4 * 128, 128, 1});  // four direct-mapped sets
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(1));
  EXPECT_TRUE(c.access(0));  // different sets: no conflict
  EXPECT_FALSE(c.access(4));  // same set as 0: evicts it
  EXPECT_FALSE(c.access(0));
}

TEST(Cache, CapacityThrashing) {
  Cache c(CacheGeom{8 * 128, 128, 4});
  for (int round = 0; round < 3; ++round)
    for (uint64_t line = 0; line < 64; ++line) c.access(line);
  EXPECT_GT(c.stats().miss_rate(), 0.9);
}

// ----------------------------------------------------------- simulation

struct SimRig {
  gpurf::ir::Kernel k;
  gpurf::exec::GlobalMemory gmem;
  std::vector<gpurf::exec::Texture> textures;
  KernelLaunchSpec spec;

  SimRig(std::string_view text, LaunchConfig lc) : k(parse_kernel(text)) {
    spec.kernel = &k;
    spec.launch = lc;
    spec.gmem = &gmem;
    spec.textures = &textures;
  }
};

constexpr std::string_view kAxpy = R"(
.kernel axpy
.param s32 x_base
.param s32 y_base
.param s32 n
.reg s32 %i
.reg s32 %a
.reg f32 %x
.reg f32 %y
.reg pred %p
entry:
  mov.s32 %i, %ctaid.x
  mad.s32 %i, %i, 128, %tid.x
  setp.ge.s32 %p, %i, $n
  @%p bra exit
body:
  add.s32 %a, %i, $x_base
  ld.global.f32 %x, [%a]
  add.s32 %a, %i, $y_base
  ld.global.f32 %y, [%a]
  mad.f32 %y, %x, 2.0, %y
  st.global.f32 [%a], %y
exit:
  ret
)";

TEST(Simulate, AxpyCompletesAndMatchesFunctional) {
  const uint32_t n = 128 * 30;
  SimRig rig(kAxpy, LaunchConfig{30, 1, 128, 1});
  std::vector<float> x(n, 1.5f), y(n, 0.25f);
  const uint32_t xb = rig.gmem.alloc_f32(x);
  const uint32_t yb = rig.gmem.alloc_f32(y);
  rig.spec.params = {xb, yb, n};
  rig.spec.regs_per_thread = 8;

  const auto res = simulate(GpuConfig::fermi_gtx480(),
                            CompressionConfig::baseline(), rig.spec);
  EXPECT_GT(res.stats.cycles, 0u);
  EXPECT_GT(res.stats.ipc(), 0.0);
  EXPECT_EQ(res.stats.blocks_run, 30u);
  // thread instructions: 30 blocks x 128 threads x 10 instructions
  EXPECT_EQ(res.stats.thread_insts, 30u * 128u * 10u);
  for (uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(rig.gmem.read_f32(yb + i, 1)[0], 1.5f * 2.0f + 0.25f);
}

TEST(Simulate, TimedOutputsMatchUntimedExecution) {
  // The timing model must not change functional results.
  const uint32_t n = 128 * 8;
  std::vector<float> x(n), y0(n);
  for (uint32_t i = 0; i < n; ++i) {
    x[i] = float(i % 32) * 0.125f;
    y0[i] = float(i % 7);
  }

  // Untimed reference.
  SimRig a(kAxpy, LaunchConfig{8, 1, 128, 1});
  const uint32_t xa = a.gmem.alloc_f32(x);
  const uint32_t ya = a.gmem.alloc_f32(y0);
  gpurf::exec::ExecContext ctx;
  ctx.kernel = &a.k;
  ctx.launch = a.spec.launch;
  ctx.gmem = &a.gmem;
  ctx.textures = &a.textures;
  ctx.params = {xa, ya, n};
  gpurf::exec::run_functional(ctx);

  // Timed run.
  SimRig b(kAxpy, LaunchConfig{8, 1, 128, 1});
  const uint32_t xb = b.gmem.alloc_f32(x);
  const uint32_t yb = b.gmem.alloc_f32(y0);
  b.spec.params = {xb, yb, n};
  b.spec.regs_per_thread = 8;
  simulate(GpuConfig::fermi_gtx480(), CompressionConfig::baseline(), b.spec);

  EXPECT_EQ(a.gmem.read_f32(ya, n), b.gmem.read_f32(yb, n));
}

// A serial dependency chain per thread.  Every thread stores to its own
// word, out[ctaid.x * ntid.x + tid.x], so no two blocks share a store
// address — the sharded simulator's memory contract.  Callers allocate
// 64 words per block.
constexpr std::string_view kChain = R"(
.kernel chain
.param s32 out
.reg s32 %i
.reg s32 %a
.reg f32 %v
.reg pred %p
entry:
  mov.s32 %i, 0
  mov.f32 %v, 1.0
loop:
  setp.ge.s32 %p, %i, 64
  @%p bra done
body:
  mad.f32 %v, %v, 0.5, 0.25
  mad.f32 %v, %v, 0.5, 0.25
  mad.f32 %v, %v, 0.5, 0.25
  mad.f32 %v, %v, 0.5, 0.25
  add.s32 %i, %i, 1
  bra loop
done:
  mov.s32 %a, %ctaid.x
  mad.s32 %a, %a, %ntid.x, %tid.x
  add.s32 %a, %a, $out
  st.global.f32 [%a], %v
  ret
)";

TEST(Simulate, OccupancyImprovesLatencyBoundKernel) {
  // A pure dependency chain is latency bound: more warps -> higher IPC.
  auto run = [&](uint32_t regs) {
    SimRig rig(kChain, LaunchConfig{120, 1, 64, 1});
    const uint32_t out = rig.gmem.alloc(64 * 120);
    rig.spec.params = {out};
    rig.spec.regs_per_thread = regs;
    return simulate(GpuConfig::fermi_gtx480(),
                    CompressionConfig::baseline(), rig.spec);
  };
  const auto low = run(256);   // 2 warps per SM
  const auto high = run(32);   // many warps per SM
  EXPECT_GT(high.occupancy.warps_per_sm, low.occupancy.warps_per_sm);
  EXPECT_GT(high.stats.ipc(), 1.5 * low.stats.ipc());
}

TEST(Simulate, WritebackDelayCostsIpc) {
  // With compression enabled, a longer writeback delay can only slow the
  // dependency chain down.
  auto run = [&](uint32_t wb) {
    SimRig rig(kChain, LaunchConfig{30, 1, 64, 1});
    const uint32_t out = rig.gmem.alloc(64 * 30);
    rig.spec.params = {out};
    rig.spec.regs_per_thread = 64;
    return simulate(GpuConfig::fermi_gtx480(),
                    CompressionConfig::with_writeback_delay(wb), rig.spec);
  };
  const double ipc0 = run(0).stats.ipc();
  const double ipc8 = run(8).stats.ipc();
  EXPECT_GT(ipc0, ipc8);
}

TEST(Simulate, LaunchSpecWithoutAnalysisSimulatesTheSame) {
  // simulate() builds the analysis a spec leaves unset; the result must
  // equal a run on a caller-held one.
  auto run = [&](bool hold_analysis) {
    SimRig rig(kAxpy, LaunchConfig{30, 1, 128, 1});
    const uint32_t n = 128 * 29 + 17;  // the last block diverges at the guard
    std::vector<float> x(n, 1.5f), y(n, 0.25f);
    rig.spec.params = {rig.gmem.alloc_f32(x), rig.gmem.alloc_f32(y), n};
    rig.spec.regs_per_thread = 8;
    if (hold_analysis)
      rig.spec.analysis = gpurf::exec::make_kernel_analysis(rig.k);
    return simulate(GpuConfig::fermi_gtx480(),
                    CompressionConfig::paper_default(), rig.spec)
        .stats;
  };
  gpurf::testing::expect_same_sim_stats(run(false), run(true));
}

TEST(Simulate, CompressedPipelineOverheadAtEqualOccupancy) {
  // Same occupancy, compression on vs. off: the deeper operand-collector
  // pipeline and writeback delay must not *help* (§6.2 Elevated effect).
  auto run = [&](bool compressed) {
    SimRig rig(kChain, LaunchConfig{30, 1, 64, 1});
    const uint32_t out = rig.gmem.alloc(64 * 30);
    rig.spec.params = {out};
    rig.spec.regs_per_thread = 64;
    return simulate(GpuConfig::fermi_gtx480(),
                    compressed ? CompressionConfig::paper_default()
                               : CompressionConfig::baseline(),
                    rig.spec);
  };
  EXPECT_LE(run(true).stats.ipc(), run(false).stats.ipc());
}

TEST(Simulate, BarrierKernelCompletes) {
  SimRig rig(R"(
.kernel barrier
.param s32 out
.reg s32 %x
.reg s32 %r
.reg s32 %a
entry:
  mov.s32 %x, %tid.x
  st.shared.s32 [%x], %x
  bar.sync
  mov.s32 %r, 63
  sub.s32 %r, %r, %x
  ld.shared.s32 %r, [%r]
  add.s32 %a, %x, $out
  st.global.s32 [%a], %r
  ret
)",
             LaunchConfig{15, 1, 64, 1});
  rig.k.shared_bytes = 256;
  const uint32_t out = rig.gmem.alloc(64 * 15);
  rig.spec.params = {out};
  rig.spec.regs_per_thread = 8;
  const auto res = simulate(GpuConfig::fermi_gtx480(),
                            CompressionConfig::baseline(), rig.spec);
  EXPECT_EQ(res.stats.blocks_run, 15u);
  EXPECT_EQ(rig.gmem.read(out + 0), 63u);
  EXPECT_EQ(rig.gmem.read(out + 63), 0u);
}

TEST(Simulate, SplitOperandsGenerateDoubleFetches) {
  // Force a split allocation and verify the bank-traffic statistics see it.
  SimRig rig(kChain, LaunchConfig{2, 1, 64, 1});
  const uint32_t out = rig.gmem.alloc(64 * 2);
  rig.spec.params = {out};
  rig.spec.regs_per_thread = 8;

  gpurf::alloc::AllocationResult alloc;
  alloc.table.assign(rig.k.num_regs(), {});
  for (uint32_t r = 0; r < rig.k.num_regs(); ++r) {
    auto& e = alloc.table[r];
    e.valid = true;
    e.slices = 8;
    e.r0 = {r, 0xf0};
    e.r1 = {r + 1, 0x0f};
    e.split = true;
  }
  alloc.num_physical_regs = rig.k.num_regs() + 1;
  rig.spec.allocation = &alloc;

  const auto res = simulate(GpuConfig::fermi_gtx480(),
                            CompressionConfig::paper_default(), rig.spec);
  EXPECT_GT(res.stats.double_fetches, 0u);
}

// ------------------------------------------------------ cycle accounting
//
// ISSUE 5: cycles must count exactly the ticks in which the machine could
// do work — the old loop always ran (and charged) at least one tick, so a
// degenerate launch cost a phantom cycle.

constexpr std::string_view kRetOnly = R"(
.kernel tiny
entry:
  ret
)";

TEST(Simulate, EmptyGridSimulatesInZeroCycles) {
  // Zero blocks is a legal degenerate launch: nothing runs, nothing is
  // charged.
  SimRig rig(kRetOnly, LaunchConfig{0, 1, 32, 1});
  rig.spec.regs_per_thread = 4;
  const auto res = simulate(GpuConfig::fermi_gtx480(),
                            CompressionConfig::baseline(), rig.spec);
  EXPECT_EQ(res.stats.cycles, 0u);
  EXPECT_EQ(res.stats.blocks_run, 0u);
  EXPECT_EQ(res.stats.warp_insts, 0u);
  EXPECT_EQ(res.stats.thread_insts, 0u);
  EXPECT_EQ(res.stats.ipc(), 0.0);
}

TEST(Simulate, OneInstructionKernelCountsExactCycles) {
  // A single warp issues its ret in cycle 0 and the machine is idle: one
  // cycle total, no drain tick.
  SimRig one(kRetOnly, LaunchConfig{1, 1, 32, 1});
  one.spec.regs_per_thread = 4;
  const auto r1 = simulate(GpuConfig::fermi_gtx480(),
                           CompressionConfig::baseline(), one.spec);
  EXPECT_EQ(r1.stats.cycles, 1u);
  EXPECT_EQ(r1.stats.warp_insts, 1u);

  // Four warps through two schedulers: two issue per cycle -> two cycles.
  SimRig four(kRetOnly, LaunchConfig{1, 1, 128, 1});
  four.spec.regs_per_thread = 4;
  const auto r4 = simulate(GpuConfig::fermi_gtx480(),
                           CompressionConfig::baseline(), four.spec);
  EXPECT_EQ(r4.stats.cycles, 2u);
  EXPECT_EQ(r4.stats.warp_insts, 4u);
}

// One warp whose store waits on a global load that misses to DRAM: the
// SM has nothing to do for about lat_dram cycles, so the clock jumps.
constexpr std::string_view kDramWait = R"(
.kernel dram_wait
.param s32 base
.reg s32 %a
.reg f32 %x
entry:
  add.s32 %a, %tid.x, $base
  ld.global.f32 %x, [%a]
  st.global.f32 [%a], %x
  ret
)";

TEST(Simulate, ClockJumpKeepsTheMaxCyclesBound) {
  // A launch fails with "exceeded max_cycles" exactly when it needs more
  // cycles than the bound, serial and sharded, even when the clock would
  // jump past the bound while every SM waits.
  gpurf::testing::PoolWidth width(4);
  const auto run = [](uint64_t max_cycles, int shards) {
    SimRig rig(kDramWait, LaunchConfig{1, 1, 32, 1});
    rig.spec.params = {rig.gmem.alloc(32)};
    rig.spec.regs_per_thread = 4;
    GpuConfig g = GpuConfig::fermi_gtx480();
    g.max_cycles = max_cycles;
    SimOptions so;
    so.shards = shards;
    return simulate(g, CompressionConfig::baseline(), rig.spec, nullptr, so)
        .stats;
  };
  const uint64_t lat_dram = GpuConfig::fermi_gtx480().lat_dram;
  const SimStats need = run(GpuConfig::fermi_gtx480().max_cycles, 1);
  ASSERT_GT(need.cycles, lat_dram);
  for (int shards : {1, 4}) {
    for (uint64_t bound : {lat_dram / 4, need.cycles - 1}) {
      try {
        run(bound, shards);
        ADD_FAILURE() << "max_cycles " << bound << " at " << shards
                      << " shard(s): accepted";
      } catch (const gpurf::Error& e) {
        EXPECT_NE(std::string(e.what()).find("exceeded max_cycles"),
                  std::string::npos)
            << e.what();
      }
    }
    gpurf::testing::expect_same_sim_stats(need, run(need.cycles, shards));
  }
}

TEST(Simulate, ZeroThreadBlockShapeIsRejected) {
  SimRig rig(kRetOnly, LaunchConfig{1, 1, 0, 1});
  rig.spec.regs_per_thread = 4;
  EXPECT_THROW(simulate(GpuConfig::fermi_gtx480(),
                        CompressionConfig::baseline(), rig.spec),
               gpurf::Error);
}

// -------------------------------------------------- multi-SM sharded sim

void expect_same_stats(const SimStats& a, const SimStats& b) {
  gpurf::testing::expect_same_sim_stats(a, b);
}

TEST(ShardedSimulate, AxpyStatsMatchSerialAtEveryShardCount) {
  gpurf::testing::PoolWidth width(8);
  const uint32_t n = 128 * 30;
  auto run = [&](int shards) {
    SimRig rig(kAxpy, LaunchConfig{30, 1, 128, 1});
    std::vector<float> x(n, 1.5f), y(n, 0.25f);
    const uint32_t xb = rig.gmem.alloc_f32(x);
    const uint32_t yb = rig.gmem.alloc_f32(y);
    rig.spec.params = {xb, yb, n};
    rig.spec.regs_per_thread = 8;
    SimOptions so;
    so.shards = shards;
    auto res = simulate(GpuConfig::fermi_gtx480(),
                        CompressionConfig::baseline(), rig.spec, nullptr, so);
    // The functional outputs stay correct under sharded ticking too.
    for (uint32_t i = 0; i < n; ++i)
      EXPECT_EQ(rig.gmem.read_f32(yb + i, 1)[0], 1.5f * 2.0f + 0.25f);
    return res;
  };
  const auto serial = run(1);
  for (int shards : {2, 4, 8}) {
    const auto sharded = run(shards);
    expect_same_stats(serial.stats, sharded.stats);
  }
}

TEST(ShardedSimulate, CompressedSplitAllocationMatchesSerial) {
  // Exercises the compressed-pipeline counters (double fetches,
  // conversions) and the deferred L2 replay under a split allocation.
  gpurf::testing::PoolWidth width(8);
  auto run = [&](int shards) {
    SimRig rig(kChain, LaunchConfig{16, 1, 64, 1});
    const uint32_t out = rig.gmem.alloc(64 * 16);
    rig.spec.params = {out};
    rig.spec.regs_per_thread = 8;
    gpurf::alloc::AllocationResult alloc;
    alloc.table.assign(rig.k.num_regs(), {});
    for (uint32_t r = 0; r < rig.k.num_regs(); ++r) {
      auto& e = alloc.table[r];
      e.valid = true;
      e.slices = 8;
      e.r0 = {r, 0xf0};
      e.r1 = {r + 1, 0x0f};
      e.split = true;
    }
    alloc.num_physical_regs = rig.k.num_regs() + 1;
    rig.spec.allocation = &alloc;
    SimOptions so;
    so.shards = shards;
    return simulate(GpuConfig::fermi_gtx480(),
                    CompressionConfig::paper_default(), rig.spec, nullptr,
                    so);
  };
  const auto serial = run(1);
  EXPECT_GT(serial.stats.double_fetches, 0u);
  for (int shards : {2, 8}) expect_same_stats(serial.stats, run(shards).stats);
}

TEST(ShardedSimulate, ShardCountBeyondPoolDegradesGracefully) {
  // shards > pool width clamps; shards <= 0 resolves to the pool width.
  gpurf::testing::PoolWidth width(2);
  SimRig rig(kAxpy, LaunchConfig{8, 1, 128, 1});
  const uint32_t n = 128 * 8;
  std::vector<float> x(n, 1.0f), y(n, 2.0f);
  rig.spec.params = {rig.gmem.alloc_f32(x), rig.gmem.alloc_f32(y), n};
  rig.spec.regs_per_thread = 8;
  SimOptions serial;  // shards = 1
  SimRig rig2(kAxpy, LaunchConfig{8, 1, 128, 1});
  rig2.spec.params = {rig2.gmem.alloc_f32(x), rig2.gmem.alloc_f32(y), n};
  rig2.spec.regs_per_thread = 8;
  SimOptions wide;
  wide.shards = 64;  // clamped to min(pool, num_sms)
  const auto a = simulate(GpuConfig::fermi_gtx480(),
                          CompressionConfig::baseline(), rig.spec, nullptr,
                          serial);
  const auto b = simulate(GpuConfig::fermi_gtx480(),
                          CompressionConfig::baseline(), rig2.spec, nullptr,
                          wide);
  expect_same_stats(a.stats, b.stats);

  // shards <= 0 resolves to the pool width (the Engine default path).
  SimRig rig3(kAxpy, LaunchConfig{8, 1, 128, 1});
  rig3.spec.params = {rig3.gmem.alloc_f32(x), rig3.gmem.alloc_f32(y), n};
  rig3.spec.regs_per_thread = 8;
  SimOptions auto_width;
  auto_width.shards = 0;
  const auto c = simulate(GpuConfig::fermi_gtx480(),
                          CompressionConfig::baseline(), rig3.spec, nullptr,
                          auto_width);
  expect_same_stats(a.stats, c.stats);
}

TEST(Simulate, RejectsOversizedKernel) {
  SimRig rig(kChain, LaunchConfig{1, 1, 64, 1});
  rig.spec.params = {0};
  rig.spec.regs_per_thread = 2000;  // cannot fit a single block
  EXPECT_THROW(simulate(GpuConfig::fermi_gtx480(),
                        CompressionConfig::baseline(), rig.spec),
               gpurf::Error);
}

// ------------------------------------------------------ GpuConfig bounds
//
// The SM keeps GTO state for at most kMaxWarpSchedulers schedulers, one
// mask bit per warp slot of a scheduler and one per collector unit; zero
// schedulers or collector units would spin to max_cycles without issuing,
// and zero banks would divide by zero.  Each such config is rejected
// naming the field and its bound.

struct GpuField {
  const char* name;
  uint32_t GpuConfig::*field;
  uint32_t value;
};

constexpr GpuField kUnholdable[] = {
    {"warp_schedulers", &GpuConfig::warp_schedulers, 0},
    {"warp_schedulers", &GpuConfig::warp_schedulers,
     GpuConfig::kMaxWarpSchedulers + 1},
    {"max_warps_per_sm", &GpuConfig::max_warps_per_sm,
     GpuConfig::kMaxWarpsPerSm + 1},
    {"collector_units", &GpuConfig::collector_units, 0},
    {"collector_units", &GpuConfig::collector_units,
     GpuConfig::kMaxCollectorUnits + 1},
    {"register_banks", &GpuConfig::register_banks, 0},
    {"register_banks", &GpuConfig::register_banks,
     GpuConfig::kMaxRegisterBanks + 1},
};

GpuConfig gpu_with(const GpuField& f) {
  GpuConfig g = GpuConfig::fermi_gtx480();
  g.*f.field = f.value;
  return g;
}

/// simulate() on `g` must raise a gpurf::Error whose message holds `want`.
void expect_rejected(const GpuConfig& g, const std::string& want) {
  SimRig rig(kRetOnly, LaunchConfig{1, 1, 32, 1});
  rig.spec.regs_per_thread = 4;
  try {
    simulate(g, CompressionConfig::baseline(), rig.spec);
    ADD_FAILURE() << want << ": accepted";
  } catch (const gpurf::Error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(Simulate, RejectsGpuConfigTheSmCannotHold) {
  for (const GpuField& f : kUnholdable)
    expect_rejected(gpu_with(f), std::string(f.name) + " = " +
                                     std::to_string(f.value) +
                                     " is outside [1, ");
  // Unchecked, zero SMs spin to max_cycles and a zero-way cache divides
  // by zero.
  GpuConfig no_sms = GpuConfig::fermi_gtx480();
  no_sms.num_sms = 0;
  expect_rejected(no_sms, "num_sms");
  GpuConfig no_ways = GpuConfig::fermi_gtx480();
  no_ways.l1.assoc = 0;
  expect_rejected(no_ways, "at least one set");
}

TEST(Simulate, LargestHoldableGpuConfigRuns) {
  GpuConfig g = GpuConfig::fermi_gtx480();
  g.warp_schedulers = GpuConfig::kMaxWarpSchedulers;
  g.collector_units = GpuConfig::kMaxCollectorUnits;
  g.register_banks = GpuConfig::kMaxRegisterBanks;
  const uint32_t n = 128 * 30;
  SimRig rig(kAxpy, LaunchConfig{30, 1, 128, 1});
  std::vector<float> x(n, 1.5f), y(n, 0.25f);
  const uint32_t xb = rig.gmem.alloc_f32(x);
  const uint32_t yb = rig.gmem.alloc_f32(y);
  rig.spec.params = {xb, yb, n};
  rig.spec.regs_per_thread = 8;
  const auto res = simulate(g, CompressionConfig::baseline(), rig.spec);
  EXPECT_EQ(res.stats.blocks_run, 30u);
  for (uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(rig.gmem.read_f32(yb + i, 1)[0], 1.5f * 2.0f + 0.25f);

  // One scheduler owning all kMaxWarpsPerSm slots: 16 blocks of 4 warps
  // fill every bit of its masks.
  GpuConfig one = GpuConfig::fermi_gtx480();
  one.warp_schedulers = 1;
  one.max_warps_per_sm = GpuConfig::kMaxWarpsPerSm;
  one.max_blocks_per_sm = 16;
  SimRig full(kAxpy, LaunchConfig{30, 1, 128, 1});
  const uint32_t fx = full.gmem.alloc_f32(x);
  const uint32_t fy = full.gmem.alloc_f32(y);
  full.spec.params = {fx, fy, n};
  full.spec.regs_per_thread = 8;
  const auto wide = simulate(one, CompressionConfig::baseline(), full.spec);
  EXPECT_EQ(wide.occupancy.warps_per_sm, GpuConfig::kMaxWarpsPerSm);
  EXPECT_EQ(wide.stats.blocks_run, 30u);
  for (uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(full.gmem.read_f32(fy + i, 1)[0], 1.5f * 2.0f + 0.25f);
}

TEST(Simulate, EngineReportsUnholdableGpuConfigAsStatus) {
  // The same rejection reaches an Engine user as a non-OK Status.  One
  // cache directory serves every Engine, so DWT2D tunes once.
  const std::string cache = "gpurf_sim_test_cache";
  std::filesystem::remove_all(cache);
  for (const GpuField& f : kUnholdable) {
    gpurf::Engine engine(gpurf::EngineOptions()
                           .with_threads(2)
                           .with_cache_dir(cache)
                           .with_gpu(gpu_with(f)));
    const auto res =
        engine.simulate("DWT2D", gpurf::workloads::SimMode::kOriginal);
    ASSERT_FALSE(res.ok()) << f.name << " = " << f.value;
    EXPECT_EQ(res.status().code(), gpurf::StatusCode::kFailedPrecondition);
    EXPECT_NE(res.status().message().find(f.name), std::string::npos)
        << res.status().message();
  }
  std::filesystem::remove_all(cache);
}

}  // namespace
}  // namespace gpurf::sim
