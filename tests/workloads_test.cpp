// Workload-level tests: every bundled kernel parses, verifies, matches its
// Table-4 register pressure exactly, executes soundly under range checking,
// and reproduces its own reference deterministically.  Parameterized over
// the eleven kernels.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "analysis/range_analysis.hpp"
#include "ir/verifier.hpp"
#include "quality/metrics.hpp"
#include "tuning/tuner.hpp"
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

TEST_P(WorkloadSuite, LaunchMatchesEveryInstance) {
  // The pipeline's range analysis reads launch() instead of building the
  // full-scale instance, so the two must never disagree.
  const auto& w = workload();
  for (Scale scale : {Scale::kSample, Scale::kFull}) {
    const gpurf::ir::LaunchConfig got = w.launch(scale);
    for (uint32_t v = 0; v < w.num_sample_variants(); ++v) {
      const gpurf::ir::LaunchConfig want = w.make_instance(scale, v).launch;
      const bool full = scale == Scale::kFull;
      EXPECT_EQ(got.grid_x, want.grid_x) << full << " variant " << v;
      EXPECT_EQ(got.grid_y, want.grid_y) << full << " variant " << v;
      EXPECT_EQ(got.block_x, want.block_x) << full << " variant " << v;
      EXPECT_EQ(got.block_y, want.block_y) << full << " variant " << v;
    }
  }
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

// ------------------------------------------------------------ score memo

using gpurf::exec::PrecisionMap;
using gpurf::quality::QualityLevel;

std::string widths(const PrecisionMap& pmap) {
  std::string out;
  for (const auto& f : pmap.per_reg) out += std::to_string(f.total_bits) + ",";
  return out;
}

/// Forwards to the workload's probe and records every pmap the tuner asks
/// it to score, repeats included.  The tuner calls its probe from one
/// thread, so the record needs no lock.
class RecordingProbe final : public gpurf::tuning::QualityProbe {
 public:
  explicit RecordingProbe(gpurf::tuning::QualityProbe& inner)
      : inner_(inner) {}
  double evaluate(const PrecisionMap& pmap) override {
    asked.push_back(widths(pmap));
    return inner_.evaluate(pmap);
  }
  std::vector<double> evaluate_batch(
      const std::vector<const PrecisionMap*>& pmaps) override {
    for (const PrecisionMap* p : pmaps) asked.push_back(widths(*p));
    return inner_.evaluate_batch(pmaps);
  }
  bool meets(double score, QualityLevel level) const override {
    return inner_.meets(score, level);
  }

  std::vector<std::string> asked;

 private:
  gpurf::tuning::QualityProbe& inner_;
};

TEST(ScoreMemo, EachPmapReplaysOncePerVariantAcrossBothTunes) {
  const auto w = make_dwt2d();
  const uint64_t nv = w->num_sample_variants();
  gpurf::tuning::TunerOptions topt;
  topt.speculate_batch = 4;  // the same candidate chains in both runs
  topt.defer_validation = true;

  // The two tunes of a pipeline, on the probe the pipeline builds, with
  // every request recorded.
  gpurf::common::CancelToken probe_tok;
  RunOptions run;
  run.cancel = &probe_tok;
  const auto inner = make_workload_probe(*w, run);
  RecordingProbe rec(*inner);
  topt.level = QualityLevel::kPerfect;
  const auto perfect = gpurf::tuning::tune_precision(w->kernel(), rec, topt);
  topt.level = QualityLevel::kHigh;
  const auto high = gpurf::tuning::tune_precision(w->kernel(), rec, topt);
  const std::set<std::string> distinct(rec.asked.begin(), rec.asked.end());
  ASSERT_LT(distinct.size(), rec.asked.size()) << "no pmap was asked twice";
  // `evaluations` counts every candidate scored, memo hits included.
  EXPECT_EQ(size_t(perfect.evaluations + high.evaluations), rec.asked.size());
  // The references, then one replay per distinct pmap and variant.
  EXPECT_EQ(probe_tok.replays.load(), nv * (1 + distinct.size()));

  // One fresh pipeline replays the same, plus both final validations.
  gpurf::common::CancelToken tok;
  PipelineOptions opt;
  opt.use_disk_cache = false;
  opt.tuner = topt;
  opt.tuner.cancel = &tok;
  const PipelineResult pr = compute_pipeline(*w, opt);
  EXPECT_EQ(tok.replays.load(), nv * (1 + distinct.size() + 2));
  EXPECT_EQ(pr.tune_perfect.pmap.per_reg, perfect.pmap.per_reg);
  EXPECT_EQ(pr.tune_high.pmap.per_reg, high.pmap.per_reg);
  EXPECT_EQ(pr.tune_perfect.evaluations, perfect.evaluations + 1);
  EXPECT_EQ(pr.tune_high.evaluations, high.evaluations + 1);
  EXPECT_EQ(pr.tune_perfect.final_score, perfect.final_score);
  EXPECT_EQ(pr.tune_high.final_score, high.final_score);
}

TEST(ScoreMemo, ConcurrentCallersGetTheReplayedScores) {
  const auto w = make_dwt2d();
  const uint64_t nv = w->num_sample_variants();
  // Candidates: full precision, then each f32 register alone at 16 and at
  // 8 bits.
  std::vector<PrecisionMap> cands(1);
  cands[0].per_reg.assign(w->kernel().num_regs(),
                          gpurf::fp::format_for_bits(32));
  for (uint32_t r = 0; r < w->kernel().num_regs(); ++r) {
    if (w->kernel().regs[r].type != gpurf::ir::Type::F32) continue;
    for (int bits : {16, 8}) {
      cands.push_back(cands[0]);
      cands.back().per_reg[r] = gpurf::fp::format_for_bits(bits);
    }
  }
  const size_t n = cands.size();
  ASSERT_GT(n, 4u);

  // Distinct pmaps on a fresh probe: every score is a replay.
  const auto fresh = make_workload_probe(*w, {});
  std::vector<double> want(n);
  for (size_t c = 0; c < n; ++c) want[c] = fresh->evaluate(cands[c]);

  // Four threads share one probe and ask for every candidate, each from a
  // different start, half of them one at a time and half in batches.
  gpurf::common::CancelToken tok;
  RunOptions run;
  run.cancel = &tok;
  const auto shared = make_workload_probe(*w, run);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<double>> got(kThreads, std::vector<double>(n));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < n; i += 2) {
        const size_t a = (i + t * n / kThreads) % n, b = (a + 1) % n;
        if (t % 2 == 0) {
          got[t][a] = shared->evaluate(cands[a]);
          got[t][b] = shared->evaluate(cands[b]);
        } else {
          const auto s = shared->evaluate_batch({&cands[a], &cands[b]});
          got[t][a] = s[0];
          got[t][b] = s[1];
        }
      }
    });
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t)
    for (size_t c = 0; c < n; ++c)
      EXPECT_EQ(got[t][c], want[c]) << "thread " << t << " candidate " << c;

  // Every candidate is memoized now: asking again replays nothing.
  const uint64_t replays = tok.replays.load();
  EXPECT_GE(replays, nv * (1 + n));
  std::vector<const PrecisionMap*> all;
  for (const auto& c : cands) all.push_back(&c);
  EXPECT_EQ(shared->evaluate_batch(all), want);
  EXPECT_EQ(tok.replays.load(), replays);
}

}  // namespace
}  // namespace gpurf::workloads
