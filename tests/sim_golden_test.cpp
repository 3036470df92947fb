// Golden SimStats: exact timing-simulator results for all eleven workloads
// at sample scale (variant 0), in three configurations that together
// reach every per-SM tick phase — bank arbitration, split-operand double
// fetches, the Value Converter, dispatch and GTO issue:
//   * baseline:   CompressionConfig::baseline(), original register pressure;
//   * int:        paper_default() over an allocation that packs integers by
//                 their analysed ranges (floats stay 32-bit);
//   * int+f16:    `int` plus a fixed precision map that puts every f32
//                 register at the 16-bit Table-3 format, on both the
//                 allocation and the functional quantization.
// The sharded-determinism suites compare shard counts with each other, so
// a hot-path change that moves every schedule the same way passes them;
// this table does not.  The compressed rows are also checked at 4 shards.
//
// A sample-scale grid fits in one wave, so no block slot is ever refilled.
// A second table holds full-scale launches of two waves or more (grid
// blocks / (15 SMs x blocks per SM)), serial and at 4 shards, so it pins
// the block refill and the tail where some SMs run out of blocks.
//
// An intended timing-model change regenerates the table: every mismatch
// prints the measured row in the table's own format.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "analysis/range_analysis.hpp"
#include "fp/format.hpp"
#include "sim/gpu.hpp"
#include "testing_util.hpp"
#include "tuning/tuner.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf::sim {
namespace {

using gpurf::workloads::Scale;
using gpurf::workloads::SimMode;
using gpurf::workloads::Workload;

struct GoldenRow {
  std::string_view workload;
  std::string_view config;
  uint64_t cycles, warp_insts, thread_insts, blocks_run;
  uint64_t stall_scoreboard, stall_no_cu, stall_barrier, stall_empty;
  uint64_t operand_fetches, double_fetches, conversions;
  uint64_t l1_accesses, l1_misses, tex_accesses, tex_misses, l2_accesses,
      l2_misses;

  bool operator==(const GoldenRow&) const = default;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
  {"Deferred", "baseline", 5252, 26640, 843264, 9, 23215, 0, 0, 107705, 44568, 0, 0, 3456, 10, 864, 734, 886, 506},
  {"SSAO", "baseline", 5335, 17424, 548352, 9, 11614, 0, 0, 131012, 26136, 0, 0, 0, 0, 2730, 309, 451, 216},
  {"Elevated", "baseline", 10831, 52920, 1559809, 9, 53060, 0, 0, 218950, 82296, 0, 0, 0, 0, 0, 0, 136, 71},
  {"Pathtracer", "baseline", 4294, 25361, 608473, 9, 16298, 0, 0, 87161, 33189, 0, 0, 0, 0, 0, 0, 142, 72},
  {"CFD", "baseline", 7759, 8352, 266112, 6, 30445, 3709, 0, 190264, 15084, 0, 0, 15020, 5589, 0, 0, 5768, 791},
  {"DWT2D", "baseline", 7748, 8352, 265728, 8, 11628, 6988, 0, 205472, 11952, 0, 0, 768, 192, 0, 0, 12448, 960},
  {"Hotspot", "baseline", 4977, 29200, 904320, 16, 10236, 0, 262, 109612, 41904, 0, 0, 822, 268, 0, 0, 520, 384},
  {"Hotspot3D", "baseline", 4866, 37120, 1171456, 16, 19333, 0, 0, 89527, 66560, 0, 0, 6880, 1683, 0, 0, 2961, 1664},
  {"IMGVF", "baseline", 20739, 28336, 891136, 2, 54392, 0, 226, 539216, 47072, 0, 0, 336, 112, 0, 0, 224, 224},
  {"GICOV", "baseline", 15219, 13056, 410112, 8, 40469, 0, 0, 403045, 19248, 0, 0, 0, 0, 15755, 15379, 15426, 2699},
  {"Hybridsort", "baseline", 26644, 80000, 2551808, 8, 39129, 23268, 0, 656923, 84288, 0, 0, 16384, 4096, 0, 0, 29056, 2304},
  {"Deferred", "int", 5909, 26640, 843264, 9, 30021, 0, 0, 120609, 44566, 0, 0, 3456, 10, 864, 726, 878, 506},
  {"SSAO", "int", 6785, 17424, 548352, 9, 6148, 0, 0, 179978, 26134, 0, 0, 0, 0, 2730, 235, 377, 216},
  {"Elevated", "int", 12207, 52920, 1559809, 9, 67569, 0, 0, 245721, 82288, 0, 0, 0, 0, 0, 0, 136, 71},
  {"Pathtracer", "int", 4868, 25361, 608473, 9, 22315, 0, 0, 98364, 33183, 0, 0, 0, 0, 0, 0, 138, 71},
  {"CFD", "int", 8073, 8352, 266112, 6, 32496, 3811, 0, 197531, 15082, 0, 0, 15020, 5429, 0, 0, 5608, 791},
  {"DWT2D", "int", 14331, 8352, 265728, 8, 9482, 6473, 0, 405623, 12142, 192, 0, 768, 192, 0, 0, 12464, 960},
  {"Hotspot", "int", 6428, 29200, 904320, 16, 16447, 35, 336, 146822, 41902, 0, 0, 822, 361, 0, 0, 615, 384},
  {"Hotspot3D", "int", 5318, 37120, 1171456, 16, 25382, 0, 0, 97038, 70654, 4096, 0, 6880, 1680, 0, 0, 2958, 1664},
  {"IMGVF", "int", 25779, 28336, 891136, 2, 23221, 0, 0, 721813, 47072, 0, 0, 336, 112, 0, 0, 224, 224},
  {"GICOV", "int", 15465, 13056, 410112, 8, 42112, 2, 0, 408780, 19246, 0, 0, 0, 0, 15755, 15393, 15440, 2699},
  {"Hybridsort", "int", 47146, 80000, 2551808, 8, 46958, 17866, 0, 1269556, 84286, 0, 0, 16384, 3952, 0, 0, 29232, 2304},
  {"Deferred", "int+f16", 10277, 26640, 843264, 9, 10366, 0, 0, 271304, 44566, 0, 38159, 3456, 4, 864, 617, 763, 506},
  {"SSAO", "int+f16", 8285, 17424, 548352, 9, 8144, 0, 0, 222982, 26134, 0, 16991, 0, 0, 2730, 209, 351, 216},
  {"Elevated", "int+f16", 27018, 52920, 1559803, 9, 35639, 0, 0, 721981, 82294, 0, 79775, 0, 0, 0, 0, 142, 72},
  {"Pathtracer", "int+f16", 9576, 25306, 607845, 9, 8677, 0, 0, 253297, 33112, 0, 28553, 0, 0, 0, 0, 142, 72},
  {"CFD", "int+f16", 15371, 8352, 266112, 6, 25018, 4855, 0, 422905, 15082, 0, 11879, 15020, 5284, 0, 0, 5463, 791},
  {"DWT2D", "int+f16", 14310, 8352, 265728, 8, 10094, 6213, 0, 404641, 12238, 288, 1535, 768, 192, 0, 0, 12464, 960},
  {"Hotspot", "int+f16", 7320, 29200, 904320, 16, 9852, 34, 120, 180394, 41902, 0, 23519, 822, 296, 0, 0, 548, 384},
  {"Hotspot3D", "int+f16", 7807, 37120, 1171456, 16, 19630, 0, 0, 177460, 70654, 4096, 27647, 6880, 1855, 0, 0, 3133, 1664},
  {"IMGVF", "int+f16", 26419, 28336, 891136, 2, 24501, 0, 0, 739733, 47072, 0, 30128, 336, 112, 0, 0, 224, 224},
  {"GICOV", "int+f16", 19347, 13056, 410112, 8, 23297, 2, 0, 544055, 19246, 0, 9887, 0, 0, 15755, 15635, 15682, 2699},
  {"Hybridsort", "int+f16", 52613, 80000, 2551808, 8, 52466, 16460, 0, 1429464, 84286, 0, 9792, 16384, 4112, 0, 0, 29392, 2304},
};
// clang-format on

// Full scale, variant 0, under the pipeline's own launch spec and
// compression config for the mode.
// clang-format off
constexpr GoldenRow kFullScale[] = {
  {"DWT2D", "original", 14317, 125280, 3985920, 120, 188985, 91380, 0, 23865, 179280, 0, 0, 11520, 2880, 0, 0, 186960, 17952},
  {"Hotspot", "original", 11619, 262800, 8138880, 144, 70649, 72, 565, 14484, 377136, 0, 0, 8318, 5398, 0, 0, 7700, 3456},
  {"Elevated", "perfect", 61749, 846720, 24934651, 144, 981189, 0, 0, 24561, 1320174, 3456, 17280, 0, 0, 0, 0, 2286, 1144},
};
// clang-format on

GoldenRow row_of(std::string_view workload, std::string_view config,
                 const SimStats& s) {
  return {workload, config, s.cycles, s.warp_insts, s.thread_insts,
          s.blocks_run, s.stall_scoreboard, s.stall_no_cu, s.stall_barrier,
          s.stall_empty, s.operand_fetches, s.double_fetches, s.conversions,
          s.l1.accesses, s.l1.misses, s.tex.accesses, s.tex.misses,
          s.l2.accesses, s.l2.misses};
}

std::string format_row(const GoldenRow& r) {
  std::ostringstream os;
  os << "  {\"" << r.workload << "\", \"" << r.config << "\"";
  for (uint64_t v :
       {r.cycles, r.warp_insts, r.thread_insts, r.blocks_run,
        r.stall_scoreboard, r.stall_no_cu, r.stall_barrier, r.stall_empty,
        r.operand_fetches, r.double_fetches, r.conversions, r.l1_accesses,
        r.l1_misses, r.tex_accesses, r.tex_misses, r.l2_accesses,
        r.l2_misses})
    os << ", " << v;
  os << "},";
  return os.str();
}

template <size_t N>
const GoldenRow* golden_row(const GoldenRow (&table)[N],
                            std::string_view workload,
                            std::string_view config) {
  for (const GoldenRow& r : table)
    if (r.workload == workload && r.config == config) return &r;
  return nullptr;
}

template <size_t N>
void expect_row(const GoldenRow (&table)[N], const GoldenRow& got,
                int shards) {
  const GoldenRow* want = golden_row(table, got.workload, got.config);
  if (!want) {
    ADD_FAILURE() << "no golden row for " << got.workload << " "
                  << got.config << "; measured:\n"
                  << format_row(got);
  } else if (*want != got) {
    ADD_FAILURE() << got.workload << " " << got.config << " at " << shards
                  << " shard(s) differs from the table\n  want:\n"
                  << format_row(*want) << "\n  got:\n"
                  << format_row(got);
  }
}

enum class Config { kBaseline, kInt, kIntF16 };

std::string_view config_name(Config c) {
  switch (c) {
    case Config::kBaseline: return "baseline";
    case Config::kInt: return "int";
    case Config::kIntF16: return "int+f16";
  }
  return "?";
}

/// One sample-scale launch of `w` (variant 0, a fresh instance: the run
/// writes its memory) under configuration `c`.
SimStats simulate_config(const Workload& w, Config c, int shards) {
  const gpurf::ir::Kernel& k = w.kernel();
  auto inst = w.make_instance(Scale::kSample, 0);
  gpurf::workloads::PipelineResult pr;
  pr.pressure.original =
      gpurf::alloc::allocate_slices(k, nullptr, nullptr, {false, false})
          .num_physical_regs;
  KernelLaunchSpec spec = gpurf::workloads::make_launch_spec(
      w, inst, pr, gpurf::workloads::SimMode::kOriginal);

  gpurf::exec::PrecisionMap pmap;
  gpurf::alloc::AllocationResult alloc;
  CompressionConfig cc = CompressionConfig::baseline();
  if (c != Config::kBaseline) {
    cc = CompressionConfig::paper_default();
    const auto ranges = gpurf::analysis::analyze_ranges(k, inst.launch);
    if (c == Config::kInt) {
      alloc = gpurf::alloc::allocate_slices(k, &ranges, nullptr,
                                            {true, false});
    } else {
      pmap.per_reg.assign(k.num_regs(), gpurf::fp::format_for_bits(32));
      for (uint32_t r = 0; r < k.num_regs(); ++r)
        if (k.regs[r].type == gpurf::ir::Type::F32)
          pmap.per_reg[r] = gpurf::fp::format_for_bits(16);
      alloc = gpurf::alloc::allocate_slices(k, &ranges, &pmap, {true, true});
      spec.precision = &pmap;
    }
    spec.allocation = &alloc;
    spec.regs_per_thread = alloc.num_physical_regs;
  }
  SimOptions so;
  so.shards = shards;
  return simulate(GpuConfig::fermi_gtx480(), cc, spec, nullptr, so).stats;
}

void check_against_table(Config c, int shards) {
  for (const auto& w : gpurf::workloads::make_all_workloads())
    expect_row(kGolden,
               row_of(w->spec().name, config_name(c),
                      simulate_config(*w, c, shards)),
               shards);
}

/// One full-scale launch of kFullScale with the pipeline parts it reads.
/// A compressed mode tunes only its own precision map, which equals the
/// pipeline's.
struct FullScaleLaunch {
  std::unique_ptr<Workload> w;
  SimMode mode;
  std::string_view config;
  gpurf::workloads::PipelineResult pr;
};

FullScaleLaunch full_scale_launch(std::unique_ptr<Workload> w, SimMode mode,
                                  std::string_view config) {
  const gpurf::ir::Kernel& k = w->kernel();
  gpurf::workloads::PipelineResult pr;
  pr.pressure.original =
      gpurf::alloc::allocate_slices(k, nullptr, nullptr, {false, false})
          .num_physical_regs;
  if (mode == SimMode::kCompressedPerfect) {
    pr.ranges = gpurf::analysis::analyze_ranges(k, w->launch(Scale::kFull));
    const auto probe = gpurf::workloads::make_workload_probe(*w, {});
    pr.tune_perfect = gpurf::tuning::tune_precision(k, *probe, {});
    pr.alloc_both_perfect = gpurf::alloc::allocate_slices(
        k, &pr.ranges, &pr.tune_perfect.pmap, {true, true});
    pr.pressure.both_perfect = pr.alloc_both_perfect.num_physical_regs;
  }
  return {std::move(w), mode, config, std::move(pr)};
}

/// Built once: both shard counts simulate the same launches.
const std::vector<FullScaleLaunch>& full_scale_launches() {
  static const std::vector<FullScaleLaunch> launches = [] {
    std::vector<FullScaleLaunch> v;
    v.push_back(full_scale_launch(gpurf::workloads::make_dwt2d(),
                                  SimMode::kOriginal, "original"));
    v.push_back(full_scale_launch(gpurf::workloads::make_hotspot(),
                                  SimMode::kOriginal, "original"));
    v.push_back(full_scale_launch(gpurf::workloads::make_elevated(),
                                  SimMode::kCompressedPerfect, "perfect"));
    return v;
  }();
  return launches;
}

void check_full_scale(int shards) {
  for (const FullScaleLaunch& l : full_scale_launches()) {
    auto inst = l.w->make_instance(Scale::kFull, 0);
    const KernelLaunchSpec spec =
        gpurf::workloads::make_launch_spec(*l.w, inst, l.pr, l.mode);
    SimOptions so;
    so.shards = shards;
    const SimStats s =
        simulate(GpuConfig::fermi_gtx480(),
                 gpurf::workloads::make_compression_config(l.mode), spec,
                 nullptr, so)
            .stats;
    expect_row(kFullScale, row_of(l.w->spec().name, l.config, s), shards);
  }
}

TEST(SimGolden, BaselineMatchesTable) {
  check_against_table(Config::kBaseline, 1);
}

TEST(SimGolden, PackedIntsMatchTable) {
  check_against_table(Config::kInt, 1);
}

TEST(SimGolden, PackedIntsAndHalfFloatsMatchTable) {
  check_against_table(Config::kIntF16, 1);
}

TEST(SimGolden, CompressedRowsMatchTableAtFourShards) {
  gpurf::testing::PoolWidth width(4);
  check_against_table(Config::kInt, 4);
  check_against_table(Config::kIntF16, 4);
}

TEST(SimGolden, FullScaleRefillMatchesTable) { check_full_scale(1); }

TEST(SimGolden, FullScaleRefillMatchesTableAtFourShards) {
  gpurf::testing::PoolWidth width(4);
  check_full_scale(4);
}

TEST(SimGolden, CompressedConfigsReachDoubleFetchesAndConversions) {
  // The table's coverage claim: packing yields split operands somewhere,
  // and the 16-bit floats reach the Value Converter on every workload.
  bool any_double = false;
  for (const GoldenRow& r : kGolden) {
    if (r.config == "int" && r.double_fetches > 0) any_double = true;
    if (r.config == "int+f16") {
      EXPECT_GT(r.conversions, 0u) << r.workload;
    }
  }
  EXPECT_TRUE(any_double);
  EXPECT_EQ(std::size(kGolden), 33u);
}

}  // namespace
}  // namespace gpurf::sim
