// Permanent-fault injection (PR 6): the FaultMap model, the allocator's
// compression-directed redirection + graceful spill, the simulator's
// degradation accounting, and the Engine's fault-campaign orchestration.
//
// The two contracts that matter most:
//   * an all-zero fault map is *inert* — allocation and SimStats are
//     bit-identical to the fault-free path at every shard count;
//   * the same seed reproduces the same map, the same allocation and the
//     same SimStats at every shard count (campaigns are reproducible);
//   * redirection moves where slices live, never what they hold: the
//     output is bit-identical to the fault-free allocation's.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "api/engine.hpp"
#include "api/json.hpp"
#include "rf/compressed_rf.hpp"
#include "rf/fault_map.hpp"
#include "sim/gpu.hpp"
#include "testing_util.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf {
namespace {

namespace wl = gpurf::workloads;
namespace fs = std::filesystem;
using gpurf::testing::expect_same_sim_stats;
using gpurf::testing::PoolWidth;

/// Fresh scratch directory under the cwd; removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::path(".") / name).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

// ------------------------------------------------------------- FaultMap

TEST(FaultMap, GenerateIsDeterministicAndSized) {
  const auto a = rf::FaultMap::generate(42, 0.05);
  const auto b = rf::FaultMap::generate(42, 0.05);
  EXPECT_TRUE(a == b);
  // round(0.05 * 2048) sites, all distinct and in canonical order.
  EXPECT_EQ(a.num_faults(), size_t(0.05 * a.total_slice_sites() + 0.5));
  for (size_t i = 1; i < a.faults().size(); ++i) {
    const auto& p = a.faults()[i - 1];
    const auto& q = a.faults()[i];
    EXPECT_TRUE(std::tuple(p.bank, p.row, p.slice) <
                std::tuple(q.bank, q.row, q.slice));
  }
  const auto c = rf::FaultMap::generate(43, 0.05);
  EXPECT_FALSE(a == c) << "different seeds drew identical maps";
  EXPECT_TRUE(rf::FaultMap::generate(42, 0.0).empty());
}

TEST(FaultMap, FaultyMaskMatchesSites) {
  rf::FaultMap fm;
  fm.add_fault(3, 2, 5);  // phys reg = row * banks + bank = 2 * 16 + 3
  fm.add_fault(3, 2, 5);  // idempotent
  fm.add_fault(3, 2, 0);
  EXPECT_EQ(fm.num_faults(), 2u);
  EXPECT_EQ(fm.faulty_mask(2 * 16 + 3), uint8_t((1u << 5) | 1u));
  EXPECT_EQ(fm.faulty_mask(0), 0u);
  EXPECT_EQ(fm.faulty_mask(100000), 0u) << "beyond geometry = fault-free";
  EXPECT_TRUE(fm.is_faulty(3, 2, 5));
  EXPECT_FALSE(fm.is_faulty(3, 2, 1));
}

// ------------------------------------------- zero-fault map is inert

TEST(FaultAlloc, EmptyMapBitIdenticalForAllWorkloads) {
  const rf::FaultMap empty_map;
  const auto zero_map = rf::FaultMap::generate(99, 0.0);
  for (const auto& w : wl::make_all_workloads()) {
    const auto plain = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                              {false, false});
    const auto with_empty = alloc::allocate_slices(
        w->kernel(), nullptr, nullptr, {false, false, &empty_map});
    const auto with_zero = alloc::allocate_slices(
        w->kernel(), nullptr, nullptr, {false, false, &zero_map});
    EXPECT_TRUE(plain == with_empty) << w->spec().name;
    EXPECT_TRUE(plain == with_zero) << w->spec().name;
    EXPECT_EQ(with_empty.registers_redirected, 0u) << w->spec().name;
    EXPECT_EQ(with_empty.registers_spilled, 0u) << w->spec().name;
  }
}

/// Sample-scale compressed-path timing run of `w` under slice allocation
/// `a`; `out`, when given, receives the launch's output words.
sim::SimStats sim_with_alloc(const wl::Workload& w,
                             const alloc::AllocationResult& a,
                             const sim::CompressionConfig& cc, int shards,
                             std::vector<uint32_t>* out = nullptr) {
  auto inst = w.make_instance(wl::Scale::kSample, 0);
  wl::PipelineResult pr;
  auto spec = wl::make_launch_spec(w, inst, pr, wl::SimMode::kOriginal);
  spec.regs_per_thread = a.total_phys_regs();
  spec.allocation = &a;
  sim::SimOptions so;
  so.shards = shards;
  const sim::SimStats st =
      sim::simulate(sim::GpuConfig::fermi_gtx480(), cc, spec, nullptr, so)
          .stats;
  if (out) {
    const auto words = inst.gmem.view(inst.out_base, inst.out_words);
    out->assign(words.begin(), words.end());
  }
  return st;
}

/// The same run with an (optionally fault-aware) untuned slice allocation
/// — the cheap way to drive the redirection/spill timing machinery for
/// every workload without the precision tuner.
sim::SimStats fault_sim_stats(const wl::Workload& w, const rf::FaultMap* fm,
                              int shards) {
  const auto alloc = alloc::allocate_slices(w.kernel(), nullptr, nullptr,
                                            {false, false, fm});
  return sim_with_alloc(w, alloc, sim::CompressionConfig::paper_default(),
                        shards);
}

TEST(FaultSim, ZeroFaultBitIdenticalForAllWorkloadsAndShardCounts) {
  PoolWidth width(4);
  const rf::FaultMap empty_map;
  for (const auto& w : wl::make_all_workloads()) {
    const auto ref = fault_sim_stats(*w, nullptr, 1);
    EXPECT_EQ(ref.fault_redirected_fetches, 0u) << w->spec().name;
    EXPECT_EQ(ref.fault_spill_fetches, 0u) << w->spec().name;
    for (int shards : {1, 4})
      expect_same_sim_stats(
          ref, fault_sim_stats(*w, &empty_map, shards),
          w->spec().name + " empty map T=" + std::to_string(shards));
  }
}

TEST(FaultSim, SameSeedSameStatsAtEveryShardCount) {
  PoolWidth width(4);
  for (const char* name : {"DWT2D", "Hotspot"}) {
    std::unique_ptr<wl::Workload> w;
    for (auto& cand : wl::make_all_workloads())
      if (cand->spec().name == name) w = std::move(cand);
    ASSERT_TRUE(w) << name;
    const auto fm = rf::FaultMap::generate(7, 0.05);
    const auto fm_again = rf::FaultMap::generate(7, 0.05);
    const auto ref = fault_sim_stats(*w, &fm, 1);
    for (int shards : {2, 4})
      expect_same_sim_stats(ref, fault_sim_stats(*w, &fm_again, shards),
                            std::string(name) + " T=" +
                                std::to_string(shards));
  }
}

TEST(FaultSim, RedirectionChargesCyclesNeverCorrupts) {
  // Fix one faulty allocation per workload and vary only the redirection
  // penalty: the schedule must be identical except for the charged
  // cycles, which can only grow with the penalty.  (Comparing cycles
  // against the *fault-free* allocation instead would be unsound —
  // redirection changes register pressure and thus occupancy, which
  // legally moves cycles either way.)  Values are another matter:
  // redirection only moves where slices live, so the output words equal
  // the fault-free allocation's bit for bit.
  const auto fm = rf::FaultMap::generate(11, 0.10);
  for (const auto& w : wl::make_all_workloads()) {
    const std::string name = w->spec().name;
    const auto plain = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                              {false, false});
    const auto faulty = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                               {false, false, &fm});
    ASSERT_GT(faulty.registers_redirected, 0u) << name;
    const auto run = [&](const alloc::AllocationResult& a, uint32_t penalty,
                         std::vector<uint32_t>* out) {
      auto cc = sim::CompressionConfig::paper_default();
      cc.fault_redirection_cycles = penalty;
      return sim_with_alloc(*w, a, cc, 1, out);
    };
    std::vector<uint32_t> out_plain, out0, out4;
    run(plain, 1, &out_plain);
    const auto p0 = run(faulty, 0, &out0);
    const auto p4 = run(faulty, 4, &out4);
    EXPECT_GT(p0.fault_redirected_fetches, 0u) << name;
    EXPECT_GE(p4.cycles, p0.cycles) << name;
    // Functional results are untouched by the penalty: instruction counts
    // and memory traffic match exactly.
    EXPECT_EQ(p4.thread_insts, p0.thread_insts) << name;
    EXPECT_EQ(p4.warp_insts, p0.warp_insts) << name;
    EXPECT_EQ(p4.l1.accesses, p0.l1.accesses) << name;
    EXPECT_EQ(p4.fault_redirected_fetches, p0.fault_redirected_fetches)
        << name;
    EXPECT_EQ(p4.fault_spill_fetches, p0.fault_spill_fetches) << name;
    ASSERT_FALSE(out_plain.empty()) << name;
    EXPECT_EQ(out0, out_plain) << name << ": redirection changed the output";
    EXPECT_EQ(out4, out_plain) << name << ": redirection changed the output";
  }
}

// --------------------------------------------- allocator fault handling

TEST(FaultAlloc, SaturatedMapSpillsEverythingGracefully) {
  // Density 1.0: every compressed slice is broken — nothing can be
  // placed, everything must degrade to the spill store, nothing aborts.
  auto w = wl::make_dwt2d();
  const auto fm = rf::FaultMap::generate(1, 1.0);
  const auto a = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                        {false, false, &fm});
  EXPECT_EQ(a.registers_redirected, 0u);
  EXPECT_GT(a.registers_spilled, 0u);
  EXPECT_EQ(a.spill_regs, a.registers_spilled);
  EXPECT_EQ(a.fault_coverage_pct(), 0.0);
  for (const auto& e : a.table)
    if (e.valid) {
      EXPECT_TRUE(e.spilled);
      EXPECT_EQ(e.r0.mask, 0xffu);
      EXPECT_EQ(e.float_bits, 32u);
    }
  // The fully-spilled launch still simulates (degraded, not dead), and
  // instructions with several spilled sources wait on the spill store's
  // one read port.
  const auto st = fault_sim_stats(*w, &fm, 1);
  EXPECT_GT(st.fault_spill_fetches, 0u);
  EXPECT_GT(st.spill_port_conflicts, 0u);
  EXPECT_GT(st.cycles, 0u);
}

TEST(FaultAlloc, ModerateMapPrefersRedirectionOverSpill) {
  auto w = wl::make_dwt2d();
  const auto fm = rf::FaultMap::generate(3, 0.05);
  const auto plain = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                            {false, false});
  const auto a = alloc::allocate_slices(w->kernel(), nullptr, nullptr,
                                        {false, false, &fm});
  // At 5% faulty slices the freed space absorbs the faults in place.
  EXPECT_GT(a.registers_redirected, 0u);
  EXPECT_GE(a.fault_coverage_pct(), 50.0);
  EXPECT_GE(a.num_physical_regs, plain.num_physical_regs);
  // No operand may sit on a faulty slice.
  for (const auto& e : a.table) {
    if (!e.valid || e.spilled) continue;
    EXPECT_EQ(e.r0.mask & fm.faulty_mask(e.r0.phys_reg), 0u);
    if (e.split) {
      EXPECT_EQ(e.r1.mask & fm.faulty_mask(e.r1.phys_reg), 0u);
    }
  }
}

// --------------------------------------------------- spill-store RF path

TEST(CompressedRfSpill, SpilledOperandRoundTripsFullWidth) {
  std::vector<alloc::IndirectionEntry> table(2);
  // Entry 0: a normal full-width resident of physical register 0.
  table[0] = {true, {0, 0xff}, {}, false, 8, false, false, 32};
  // Entry 1: spilled to slot 0 of the uncompressed store.
  table[1] = {true, {0, 0xff}, {}, false, 8, false, false, 32,
              /*redirected=*/false, /*spilled=*/true};
  rf::CompressedRegisterFile crf(table, 1, 2);

  rf::WarpRegister a{}, b{};
  for (int l = 0; l < 32; ++l) {
    a[l] = 0xAAAA0000u + uint32_t(l);
    b[l] = 0xDEAD0000u + uint32_t(l);  // full 32-bit payload, no narrowing
  }
  crf.write_operand(0, 0, a);
  crf.write_operand(0, 1, b);
  crf.write_operand(1, 1, a);  // per-warp spill copies are independent
  const auto ra = crf.read_operand(0, 0);
  const auto rb = crf.read_operand(0, 1);
  const auto rc = crf.read_operand(1, 1);
  for (int l = 0; l < 32; ++l) {
    EXPECT_EQ(ra[l], a[l]) << "resident lane " << l;
    EXPECT_EQ(rb[l], b[l]) << "spilled lane " << l;
    EXPECT_EQ(rc[l], a[l]) << "warp-1 spilled lane " << l;
  }
  EXPECT_EQ(crf.stats().spill_accesses, 4u);  // 2 writes + 2 reads
}

// -------------------------------------------------- Engine fault path

TEST(EngineFault, ZeroDensityBitIdenticalAndOriginalModeRejected) {
  TempDir dir("gpurf_test_cache_fault0");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
  SimRequest req;
  req.mode = wl::SimMode::kCompressedPerfect;
  req.scale = wl::Scale::kSample;
  auto plain = engine.simulate("DWT2D", req);
  ASSERT_TRUE(plain.ok()) << plain.status().to_string();

  req.fault.seed = 5;
  req.fault.density = 0.0;  // zero density = injection disabled
  auto zero = engine.simulate("DWT2D", req);
  ASSERT_TRUE(zero.ok());
  expect_same_sim_stats(plain->stats, zero->stats, "zero-density");
  EXPECT_FALSE(zero->fault.active);

  req.fault.density = 0.05;
  req.mode = wl::SimMode::kOriginal;
  auto bad = engine.simulate("DWT2D", req);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineFault, InjectionReportsDegradationDeterministically) {
  TempDir dir("gpurf_test_cache_fault1");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
  SimRequest req;
  req.mode = wl::SimMode::kCompressedPerfect;
  req.scale = wl::Scale::kSample;
  req.fault.seed = 13;
  req.fault.density = 0.05;
  auto a = engine.simulate("DWT2D", req);
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  EXPECT_TRUE(a->fault.active);
  EXPECT_EQ(a->fault.seed, 13u);
  EXPECT_GT(a->fault.faults_total, 0u);
  EXPECT_GE(a->fault.coverage_pct, 0.0);
  EXPECT_LE(a->fault.coverage_pct, 100.0);

  // Same seed, different shard count: identical map, identical stats.
  req.sim_shards = 4;
  auto b = engine.simulate("DWT2D", req);
  ASSERT_TRUE(b.ok());
  expect_same_sim_stats(a->stats, b->stats, "faulty T=4");
  EXPECT_TRUE(a->fault == b->fault);

  // The JSON snapshot carries the report and stays well-formed.
  const std::string js = api::to_json(*a);
  EXPECT_NE(js.find("\"fault\""), std::string::npos);
  EXPECT_NE(js.find("\"coverage_pct\""), std::string::npos);
  EXPECT_TRUE(api::parse_json(js).ok());
}

// ------------------------------------------------------ fault campaigns

TEST(FaultCampaign, SweepCompletesWithProgressAndMonotoneDensities) {
  TempDir dir("gpurf_test_cache_camp");
  Engine engine(EngineOptions()
                    .with_threads(2)
                    .with_cache_dir(dir.path)
                    .with_async_workers(2)
                    .with_max_inflight(4));
  FaultCampaignRequest creq;
  creq.sim.mode = wl::SimMode::kCompressedPerfect;
  creq.sim.scale = wl::Scale::kSample;
  creq.densities = {0.01, 0.05};
  creq.maps_per_density = 2;
  creq.base_seed = 21;
  Job job = engine.submit(JobRequest::fault_campaign("DWT2D", creq));
  EXPECT_EQ(job.kind(), JobKind::kFaultCampaign);
  job.wait();
  ASSERT_EQ(job.state(), JobState::kDone) << job.status().to_string();

  const JobProgress p = job.progress();
  EXPECT_EQ(p.campaign_maps_total, 4);
  EXPECT_EQ(p.campaign_maps_done, 4);

  auto res = job.campaign_result();
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  ASSERT_EQ(res->points.size(), 4u);
  uint32_t prev_faults = 0;
  for (size_t i = 0; i < res->points.size(); ++i) {
    const auto& pt = res->points[i];
    EXPECT_EQ(pt.state, JobState::kDone) << pt.error;
    EXPECT_TRUE(pt.fault.active);
    EXPECT_GT(pt.cycles, 0u);
    EXPECT_GT(pt.blocks_per_sm, 0u);
    if (i >= 2) {  // density-major order: the 0.05 points inject more
      EXPECT_GE(pt.fault.faults_total, prev_faults);
      prev_faults = pt.fault.faults_total;
    }
  }
  // Two maps at one density must differ (distinct derived seeds).
  EXPECT_NE(res->points[0].seed, res->points[1].seed);

  const std::string js = api::to_json(*res);
  EXPECT_NE(js.find("\"points\""), std::string::npos);
  EXPECT_NE(js.find("\"blocks_per_sm\""), std::string::npos);
  EXPECT_TRUE(api::parse_json(js).ok());

  // A rerun on the warm Engine schedules its points differently on the
  // two workers and serializes identically.
  Job again = engine.submit(JobRequest::fault_campaign("DWT2D", creq));
  again.wait();
  auto res2 = again.campaign_result();
  ASSERT_TRUE(res2.ok()) << res2.status().to_string();
  EXPECT_EQ(api::to_json(*res2), js);

  // A campaign over the baseline RF is rejected, not run.
  FaultCampaignRequest orig = creq;
  orig.sim.mode = wl::SimMode::kOriginal;
  Job bad = engine.submit(JobRequest::fault_campaign("DWT2D", orig));
  bad.wait();
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultCampaign, CancelLeavesNoPartialCacheState) {
  TempDir dir("gpurf_test_cache_camp_cancel");
  {
    Engine engine(EngineOptions()
                      .with_threads(2)
                      .with_cache_dir(dir.path)
                      .with_async_workers(2)
                      .with_max_inflight(2));
    FaultCampaignRequest creq;
    creq.sim.mode = wl::SimMode::kCompressedPerfect;
    creq.sim.scale = wl::Scale::kSample;
    creq.densities = {0.01, 0.02, 0.05};
    creq.maps_per_density = 4;
    Job job = engine.submit(JobRequest::fault_campaign("DWT2D", creq));
    job.cancel();
    job.wait();
    EXPECT_TRUE(job.state() == JobState::kCancelled ||
                job.state() == JobState::kDone);
    EXPECT_EQ(engine.inflight(), 0u);
  }
  // Whatever the cancel interrupted, the disk cache holds no half-written
  // entries: stores go through a rename from a .tmp that is cleaned up.
  for (const auto& entry : fs::recursive_directory_iterator(dir.path))
    EXPECT_EQ(entry.path().extension(), ".pmap")
        << "unexpected cache residue: " << entry.path();
}

/// Threads of this process, from /proc/self/status.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

TEST(FaultCampaign, CampaignsRunOnTheExecutorsAndTakeOneSlotEach) {
  TempDir dir("gpurf_test_cache_camp_many");
  constexpr int kThreads = 2;
  constexpr int kWorkers = 1;
  constexpr size_t kCampaigns = 100;
  const int before = process_threads();
  ASSERT_GT(before, 0);
  // Serial sims: a sharded sim adds its own (globally gated) shard crew,
  // which is not what this test counts.
  Engine engine(EngineOptions()
                    .with_threads(kThreads)
                    .with_sim_shards(1)
                    .with_cache_dir(dir.path)
                    .with_async_workers(kWorkers)
                    .with_max_inflight(128));
  FaultCampaignRequest creq;
  creq.sim.mode = wl::SimMode::kCompressedPerfect;
  creq.sim.scale = wl::Scale::kSample;
  creq.densities = {0.01};
  creq.maps_per_density = 1;
  std::vector<Job> jobs;
  for (size_t i = 0; i < kCampaigns; ++i) {
    creq.base_seed = i + 1;
    jobs.push_back(engine.submit(JobRequest::fault_campaign("DWT2D", creq)));
  }
  // The first point still tunes DWT2D on a cold cache, so all are in
  // flight, each counted once, on the pool and executor threads alone.
  EXPECT_EQ(engine.inflight(), kCampaigns);
  EXPECT_LE(process_threads(), before + (kThreads - 1) + kWorkers);
  const MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(m.queue_depth + m.jobs_running, kCampaigns);
  EXPECT_LE(m.jobs_running, 1u);
  // The first few run through; the rest are cancelled while queued.
  for (size_t i = 0; i < 3; ++i) {
    jobs[i].wait();
    ASSERT_EQ(jobs[i].state(), JobState::kDone) << jobs[i].status().to_string();
    auto res = jobs[i].campaign_result();
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    ASSERT_EQ(res->points.size(), 1u);
    EXPECT_EQ(res->points[0].state, JobState::kDone) << res->points[0].error;
  }
  EXPECT_LE(process_threads(), before + (kThreads - 1) + kWorkers);
  for (auto& j : jobs) j.cancel();
  for (auto& j : jobs) j.wait();
  EXPECT_EQ(engine.inflight(), 0u);
  const MetricsSnapshot end = engine.metrics_snapshot();
  EXPECT_EQ(end.jobs_done + end.jobs_cancelled, kCampaigns);
}

TEST(FaultCampaign, InvalidCampaignIsTerminalAtSubmitAndTakesNoSlot) {
  TempDir dir("gpurf_test_cache_camp_invalid");
  Engine engine(EngineOptions()
                    .with_threads(1)
                    .with_cache_dir(dir.path)
                    .with_async_workers(1)
                    .with_max_inflight(1));
  // The only slot is held, so a campaign that waited for one would block.
  Job blocker = engine.submit(JobRequest::pipeline("GICOV"));
  ASSERT_EQ(engine.inflight(), 1u);

  FaultCampaignRequest valid;
  valid.sim.mode = wl::SimMode::kCompressedPerfect;
  valid.sim.scale = wl::Scale::kSample;
  valid.densities = {0.01};
  valid.maps_per_density = 1;
  FaultCampaignRequest baseline = valid;
  baseline.sim.mode = wl::SimMode::kOriginal;
  FaultCampaignRequest no_densities = valid;
  no_densities.densities.clear();
  FaultCampaignRequest slow_writeback = valid;
  slow_writeback.sim.compression =
      sim::CompressionConfig::with_writeback_delay(65);
  FaultCampaignRequest too_many = valid;
  too_many.densities = {0.01, 0.02};
  too_many.maps_per_density = std::numeric_limits<int>::max();
  TransientCampaignRequest no_rates;
  no_rates.flip_rates.clear();
  const struct {
    JobRequest req;
    StatusCode code;
    const char* message;
  } cases[] = {
      {JobRequest::fault_campaign("NoSuchKernel", valid),
       StatusCode::kNotFound, "unknown workload"},
      {JobRequest::fault_campaign("DWT2D", baseline),
       StatusCode::kInvalidArgument, "requires a compressed mode"},
      {JobRequest::fault_campaign("DWT2D", no_densities),
       StatusCode::kInvalidArgument, "has no density points"},
      {JobRequest::fault_campaign("DWT2D", slow_writeback),
       StatusCode::kInvalidArgument, "writeback_delay 65"},
      {JobRequest::fault_campaign("DWT2D", too_many),
       StatusCode::kInvalidArgument, "overflows int"},
      {JobRequest::transient_campaign("DWT2D", no_rates),
       StatusCode::kInvalidArgument, "has no flip-rate points"},
  };
  for (const auto& c : cases) {
    Job job = engine.submit(c.req);
    EXPECT_TRUE(job.done()) << c.message;
    EXPECT_EQ(job.state(), JobState::kDone) << c.message;
    EXPECT_EQ(job.status().code(), c.code) << job.status().to_string();
    EXPECT_NE(job.status().message().find(c.message), std::string::npos)
        << job.status().to_string();
    EXPECT_EQ(engine.inflight(), 1u) << c.message;
  }
  blocker.cancel();
  blocker.wait();
  EXPECT_EQ(engine.inflight(), 0u);
  EXPECT_EQ(engine.metrics_snapshot().jobs_failed, std::size(cases));
}

// ------------------------------------------- degraded disk-cache dir

TEST(EngineFault, UnwritableCacheDirDegradesToMemoryOnce) {
  // A regular *file* where the cache directory should be: every store
  // fails, the Engine must latch the cache off and keep serving.
  const std::string bogus = "./gpurf_test_cache_not_a_dir";
  std::remove(bogus.c_str());
  { std::ofstream f(bogus); f << "occupied"; }
  {
    Engine engine(EngineOptions().with_threads(2).with_cache_dir(bogus));
    auto pr = engine.pipeline("DWT2D");
    ASSERT_TRUE(pr.ok()) << pr.status().to_string();
    const std::string m = engine.metrics_json();
    EXPECT_NE(m.find("\"disk_cache_disabled\":true"), std::string::npos) << m;
    EXPECT_EQ(m.find("\"disk_cache_write_failures\":0"), std::string::npos)
        << m;
    // Still serving: a second pipeline (memoized) and a simulation.
    SimRequest req;
    req.mode = wl::SimMode::kCompressedPerfect;
    req.scale = wl::Scale::kSample;
    auto sim = engine.simulate("DWT2D", req);
    EXPECT_TRUE(sim.ok()) << sim.status().to_string();
  }
  std::remove(bogus.c_str());
}

}  // namespace
}  // namespace gpurf
