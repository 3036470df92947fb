// Workload-level tests: every bundled kernel parses, verifies, matches its
// Table-4 register pressure exactly, executes soundly under range checking,
// and reproduces its own reference deterministically.  Parameterized over
// the eleven kernels.

#include <gtest/gtest.h>

#include <cstring>

#include "alloc/slice_alloc.hpp"
#include "analysis/range_analysis.hpp"
#include "ir/verifier.hpp"
#include "quality/metrics.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf::workloads {
namespace {

class WorkloadSuite : public ::testing::TestWithParam<int> {
 protected:
  const Workload& workload() {
    static const auto all = make_all_workloads();
    return *all[static_cast<size_t>(GetParam())];
  }
};

TEST_P(WorkloadSuite, KernelVerifies) {
  const auto& w = workload();
  EXPECT_NO_THROW(gpurf::ir::verify(w.kernel()));
  EXPECT_GT(w.kernel().num_insts(), 50u);  // substantial programs
}

TEST_P(WorkloadSuite, PressureMatchesTable4Exactly) {
  const auto& w = workload();
  EXPECT_EQ(gpurf::alloc::baseline_pressure(w.kernel()),
            w.spec().paper_regs)
      << w.spec().name;
}

TEST_P(WorkloadSuite, DeterministicInstances) {
  const auto& w = workload();
  auto a = w.make_instance(Scale::kSample, 0);
  auto b = w.make_instance(Scale::kSample, 0);
  EXPECT_EQ(a.launch.num_blocks(), b.launch.num_blocks());
  EXPECT_EQ(a.gmem.size(), b.gmem.size());
  const auto ra = w.run(a, nullptr);
  const auto rb = w.run(b, nullptr);
  EXPECT_EQ(ra, rb);
}

TEST_P(WorkloadSuite, VariantsDiffer) {
  const auto& w = workload();
  if (w.num_sample_variants() < 2) GTEST_SKIP() << "single-variant workload";
  auto a = w.make_instance(Scale::kSample, 0);
  auto b = w.make_instance(Scale::kSample, 1);
  EXPECT_NE(w.run(a, nullptr), w.run(b, nullptr));
}

TEST_P(WorkloadSuite, RangeAnalysisIsSound) {
  // Integer range-analysis results are *proofs*: executing the kernel with
  // per-write range assertions must not fire.
  const auto& w = workload();
  auto inst = w.make_instance(Scale::kSample, 0);
  const auto ranges =
      gpurf::analysis::analyze_ranges(w.kernel(), inst.launch);
  EXPECT_NO_THROW(w.run(inst, nullptr, &ranges));
}

TEST_P(WorkloadSuite, PerfectQualityAgainstSelf) {
  const auto& w = workload();
  auto inst = w.make_instance(Scale::kSample, 0);
  auto metric = w.make_metric(inst);
  const auto ref = w.run(inst, nullptr);
  const double s = metric->score(ref, ref);
  EXPECT_TRUE(metric->meets(s, gpurf::quality::QualityLevel::kPerfect));
}

TEST_P(WorkloadSuite, IntPackingReducesOrKeepsPressure) {
  const auto& w = workload();
  auto inst = w.make_instance(Scale::kSample, 0);
  const auto ranges =
      gpurf::analysis::analyze_ranges(w.kernel(), inst.launch);
  gpurf::alloc::AllocOptions ints{true, false};
  const auto res =
      gpurf::alloc::allocate_slices(w.kernel(), &ranges, nullptr, ints);
  EXPECT_LE(res.num_physical_regs, w.spec().paper_regs);
  EXPECT_GT(res.num_physical_regs, 0u);
}

TEST_P(WorkloadSuite, FullScaleLoadsAllSms) {
  // Full-scale instances must provide enough blocks to occupy 15 SMs.
  const auto& w = workload();
  const auto inst = w.make_instance(Scale::kFull, 0);
  EXPECT_GE(inst.launch.num_blocks(), 90u) << w.spec().name;
  EXPECT_EQ(inst.launch.warps_per_block(), w.spec().warps_per_block);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSuite, ::testing::Range(0, 11),
                         [](const ::testing::TestParamInfo<int>& i) {
                           static const auto all = make_all_workloads();
                           return all[i.param]->spec().name;
                         });

TEST(Workloads, ImgvfMatchesPaperTable1Sharedmem) {
  const auto w = make_imgvf();
  EXPECT_EQ(w->kernel().shared_bytes, 14560u);  // §6.1 occupancy cap
  EXPECT_EQ(w->spec().warps_per_block, 10u);
}

TEST(Workloads, MetricsMatchTable4) {
  using gpurf::quality::MetricKind;
  const auto all = make_all_workloads();
  EXPECT_EQ(all[0]->spec().metric, MetricKind::kSsim);       // Deferred
  EXPECT_EQ(all[4]->spec().metric, MetricKind::kDeviation);  // CFD
  EXPECT_EQ(all[10]->spec().metric, MetricKind::kBinary);    // Hybridsort
}

TEST(Workloads, AnalysisIsHeldByTheWorkloadAndSharedWithLaunchSpecs) {
  const auto w = make_dwt2d();
  const gpurf::exec::KernelAnalysis* a = w->analysis().get();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(w->analysis().get(), a);  // built once, on first use
  EXPECT_EQ(a->num_blocks(), w->kernel().blocks.size());

  // Every launch spec of the workload carries that same analysis.
  auto inst = w->make_instance(Scale::kSample, 0);
  const PipelineResult pr;
  for (SimMode mode : {SimMode::kOriginal, SimMode::kCompressedHigh})
    EXPECT_EQ(make_launch_spec(*w, inst, pr, mode).analysis.get(), a);
}

TEST(Workloads, SoaReplayMatchesScalarOnEveryWorkload) {
  // The warp-vectorised SoA interpreter must reproduce the per-lane scalar
  // reference exactly: same output bits, same executed thread instructions.
  for (const auto& w : make_all_workloads()) {
    std::vector<float> out[2];
    uint64_t insts[2] = {0, 0};
    for (int soa = 0; soa < 2; ++soa) {
      auto inst = w->make_instance(Scale::kSample, 0);
      RunOptions opt;
      opt.use_soa = soa == 1;
      opt.thread_insts = &insts[soa];
      out[soa] = w->run(inst, nullptr, nullptr, opt);
    }
    const std::string& name = w->spec().name;
    ASSERT_EQ(out[0].size(), out[1].size()) << name;
    EXPECT_EQ(std::memcmp(out[0].data(), out[1].data(),
                          out[0].size() * sizeof(float)),
              0)
        << name;
    EXPECT_EQ(insts[0], insts[1]) << name;
    EXPECT_GT(insts[0], 0u) << name;
  }
}

TEST(Workloads, ElevenKernelsInPaperOrder) {
  const auto all = make_all_workloads();
  ASSERT_EQ(all.size(), 11u);
  const char* names[] = {"Deferred",  "SSAO",    "Elevated", "Pathtracer",
                         "CFD",       "DWT2D",   "Hotspot",  "Hotspot3D",
                         "IMGVF",     "GICOV",   "Hybridsort"};
  for (size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i]->spec().name, names[i]);
}

}  // namespace
}  // namespace gpurf::workloads
