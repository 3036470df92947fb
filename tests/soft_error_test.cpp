// Transient soft-error injection (PR 7): the Poisson flip process, the
// static vulnerability model, the simulator's flip application, and the
// Engine's AVF report / transient campaigns.
//
// The contracts that matter most:
//   * flip-rate 0 draws no random numbers — such runs are bit-identical
//     to fault-free references at every shard count;
//   * the same (rate, seed) reproduces the same flip trace, the same
//     SimStats and the same SoftErrorReport at shard counts {1, 2, 4};
//   * flips on dead registers are provably masked — they never become
//     architecturally visible and leave the output untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "api/engine.hpp"
#include "api/json.hpp"
#include "common/bitutil.hpp"
#include "common/rng.hpp"
#include "exec/kernel_analysis.hpp"
#include "fp/format.hpp"
#include "rf/slices.hpp"
#include "sim/gpu.hpp"
#include "sim/soft_error.hpp"
#include "testing_util.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace gpurf {
namespace {

namespace wl = gpurf::workloads;
namespace fs = std::filesystem;
using gpurf::testing::expect_same_sim_stats;

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

// ------------------------------------------------------ SoftErrorProcess

TEST(SoftErrorProcess, ZeroRateDrawsNothing) {
  sim::SoftErrorSpec spec;  // flips_per_mcycle = 0
  spec.seed = 12345;
  sim::SoftErrorProcess p(spec, 15, 48);
  sim::FlipSite f;
  for (uint64_t c = 0; c < 100000; ++c) EXPECT_FALSE(p.next_flip(c, &f));
}

TEST(SoftErrorProcess, DeterministicTraceWithinGeometry) {
  sim::SoftErrorSpec spec;
  spec.flips_per_mcycle = 100000.0;  // 0.1 flips/cycle
  spec.seed = 7;
  const uint32_t sms = 15, slots = 48, cycles = 20000;
  sim::SoftErrorProcess a(spec, sms, slots), b(spec, sms, slots);
  uint64_t n = 0;
  for (uint64_t c = 0; c < cycles; ++c) {
    sim::FlipSite fa, fb;
    while (a.next_flip(c, &fa)) {
      ASSERT_TRUE(b.next_flip(c, &fb)) << "trace diverged at cycle " << c;
      EXPECT_EQ(fa.sm, fb.sm);
      EXPECT_EQ(fa.warp_slot, fb.warp_slot);
      EXPECT_EQ(fa.phys_reg, fb.phys_reg);
      EXPECT_EQ(fa.slice, fb.slice);
      EXPECT_EQ(fa.lane, fb.lane);
      EXPECT_EQ(fa.bit, fb.bit);
      EXPECT_LT(fa.sm, sms);
      EXPECT_LT(fa.warp_slot, slots);
      EXPECT_LT(fa.phys_reg, rf::kPhysRegs);
      EXPECT_LT(fa.slice, uint32_t(rf::kSlicesPerReg));
      EXPECT_LT(fa.lane, 32u);
      EXPECT_LT(fa.bit, uint32_t(rf::kSliceBits));
      ++n;
    }
    sim::FlipSite unused;
    EXPECT_FALSE(b.next_flip(c, &unused));
  }
  // Poisson with mean 2000: a +/- 50% band is > 20 standard deviations.
  EXPECT_GT(n, 1000u);
  EXPECT_LT(n, 3000u);

  // A different seed draws a different trace.
  const auto trace = [&](uint64_t seed) {
    sim::SoftErrorSpec s = spec;
    s.seed = seed;
    sim::SoftErrorProcess p(s, sms, slots);
    std::vector<uint32_t> sites;
    sim::FlipSite f;
    for (uint64_t c = 0; c < 1000 && sites.size() < 50; ++c)
      while (p.next_flip(c, &f))
        sites.push_back((f.phys_reg << 8) | (f.lane << 3) | (f.slice & 7));
    return sites;
  };
  EXPECT_NE(trace(7), trace(8));
}

// -------------------------------------------------------- SoftErrorModel

TEST(SoftErrorModel, BaselineCorruptIsRawBitFlip) {
  auto w = wl::make_dwt2d();
  exec::KernelAnalysis ka(w->kernel());
  sim::SoftErrorModel m(w->kernel(), ka, nullptr);
  const uint32_t v = 0x3f8a5c3eu;
  for (uint32_t slice = 0; slice < rf::kSlicesPerReg; ++slice)
    for (uint32_t bit = 0; bit < rf::kSliceBits; ++bit)
      EXPECT_EQ(m.corrupt(v, 0, false, slice, bit),
                v ^ (1u << (slice * 4 + bit)));
}

TEST(SoftErrorModel, CompressedOwnersRespectAllocationMasks) {
  auto w = wl::make_dwt2d();
  exec::KernelAnalysis ka(w->kernel());
  const auto alloc =
      alloc::allocate_slices(w->kernel(), nullptr, nullptr, {false, false});
  sim::SoftErrorModel m(w->kernel(), ka, &alloc);
  // Every (site -> owner) edge must point back to a slice the owner's
  // allocation mask actually covers.
  for (uint32_t pr = 0; pr < rf::kPhysRegs; ++pr) {
    for (uint32_t s = 0; s < rf::kSlicesPerReg; ++s) {
      for (const auto& o : m.owners(pr, s)) {
        ASSERT_LT(o.reg, alloc.table.size());
        const auto& e = alloc.table[o.reg];
        ASSERT_TRUE(e.valid && !e.spilled);
        const auto& loc = o.second_piece ? e.r1 : e.r0;
        EXPECT_EQ(loc.phys_reg, pr);
        EXPECT_NE(loc.mask & (1u << s), 0u);
      }
    }
  }
  // The corruption round-trip only ever changes the value through the
  // stored encoding: re-flipping the same bit restores the original when
  // the register is stored full-width.
  for (uint32_t r = 0; r < alloc.table.size(); ++r) {
    const auto& e = alloc.table[r];
    if (!e.valid || e.spilled || e.float_bits != 32 || e.split) continue;
    const uint32_t v = 0xc0ffee42u;
    const uint32_t c = m.corrupt(v, r, false, 0, 1);
    EXPECT_NE(c, v);
    EXPECT_EQ(m.corrupt(c, r, false, 0, 1), v);
    break;
  }
}

TEST(SoftErrorModel, CorruptFlipsTheEncodedOperandOnRealAllocations) {
  // A strike on slice s, bit b of a stored piece flips data bit 4j+b of
  // the operand's encoding, where j is s's rank in the piece's mask plus
  // the piece's first data slice.  The encoding is fp::encode for a narrow
  // float and the low 4*slices bits otherwise; reading it back decodes,
  // sign-extends or zero-pads.  Every slice site of every entry must also
  // list the entry among its owners.
  const auto workloads = wl::make_all_workloads();
  gpurf::Pcg32 rng(41);
  uint64_t cases = 0;
  for (const auto& a : gpurf::testing::real_allocations(workloads)) {
    exec::KernelAnalysis ka(*a.kernel);
    sim::SoftErrorModel m(*a.kernel, ka, &a.alloc);
    for (uint32_t r = 0; r < a.alloc.table.size(); ++r) {
      const auto& e = a.alloc.table[r];
      if (!e.valid || e.spilled) continue;
      const bool narrow = e.is_float && e.float_bits != 32;
      const fp::FloatFormat fmt = fp::format_for_bits(e.float_bits);
      const int bits = rf::kSliceBits * e.slices;
      const uint32_t v = e.is_float
                             ? float_bits(rng.next_float(-1000.f, 1000.f))
                             : rng.next_u32();
      const uint32_t enc =
          narrow ? fp::encode(bits_float(v), fmt) : v & low_mask(bits);
      const auto decode = [&](uint32_t x) {
        if (narrow) return float_bits(fp::decode(x, fmt));
        return e.is_signed ? static_cast<uint32_t>(sign_extend(x, bits)) : x;
      };
      int j = 0;  // data slice, counted across both pieces
      for (const bool second : {false, true}) {
        if (second && !e.split) break;
        const alloc::SliceLoc& loc = second ? e.r1 : e.r0;
        for (uint32_t s = 0; s < rf::kSlicesPerReg; ++s) {
          if (!((loc.mask >> s) & 1u)) continue;
          const auto& owners = m.owners(loc.phys_reg, s);
          EXPECT_TRUE(std::any_of(owners.begin(), owners.end(),
                                  [&](const sim::SoftErrorModel::Owner& o) {
                                    return o.reg == r &&
                                           o.second_piece == second;
                                  }))
              << a.name << " reg " << r << " slice " << s;
          for (uint32_t b = 0; b < rf::kSliceBits; ++b, ++cases)
            EXPECT_EQ(m.corrupt(v, r, second, s, b),
                      decode(enc ^ (1u << (rf::kSliceBits * j + b))))
                << a.name << " reg " << r << " piece " << second
                << " slice " << s << " bit " << b;
          ++j;
        }
      }
    }
  }
  EXPECT_GT(cases, 0u);
}

// ----------------------------------------------------- Engine: soft runs

TEST(SoftSim, ZeroRateBitIdenticalAtEveryShardCount) {
  TempDir dir("gpurf_test_cache_soft0");
  Engine engine(EngineOptions().with_threads(4).with_cache_dir(dir.path));
  for (auto mode : {wl::SimMode::kOriginal, wl::SimMode::kCompressedPerfect}) {
    SimRequest req;
    req.mode = mode;
    req.scale = wl::Scale::kSample;
    auto ref = engine.simulate("DWT2D", req);
    ASSERT_TRUE(ref.ok()) << ref.status().to_string();
    EXPECT_FALSE(ref->soft.active);
    for (int shards : {1, 2, 4}) {
      SimRequest z = req;
      z.sim_shards = shards;
      z.soft.seed = 99;  // the seed alone must not matter at rate 0
      auto zr = engine.simulate("DWT2D", z);
      ASSERT_TRUE(zr.ok());
      expect_same_sim_stats(ref->stats, zr->stats,
                            "rate 0 T=" + std::to_string(shards));
      EXPECT_FALSE(zr->soft.active);
    }
  }
}

TEST(SoftSim, ExposureTrackingDoesNotPerturbTheRun) {
  TempDir dir("gpurf_test_cache_softexp");
  Engine engine(EngineOptions().with_threads(2).with_cache_dir(dir.path));
  SimRequest req;
  req.mode = wl::SimMode::kCompressedPerfect;
  req.scale = wl::Scale::kSample;
  auto ref = engine.simulate("DWT2D", req);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();

  req.soft.track_exposure = true;
  auto e = engine.simulate("DWT2D", req);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->soft.active);
  EXPECT_EQ(e->soft.flips_injected, 0u);
  EXPECT_GT(e->soft.live_bit_cycles, 0u);
  sim::SimStats masked = e->stats;
  masked.soft_live_bit_cycles = 0;
  expect_same_sim_stats(ref->stats, masked, "exposure tracking");

  // The exposure integral itself is shard-invariant.
  for (int shards : {2, 4}) {
    SimRequest s = req;
    s.sim_shards = shards;
    auto r = engine.simulate("DWT2D", s);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->soft.live_bit_cycles, e->soft.live_bit_cycles)
        << "T=" << shards;
  }
}

TEST(SoftSim, CompressedCrossSectionAtMostBaseline) {
  // The vulnerable cross-section is live payload bits per cycle: narrowed
  // formats store fewer live bits, so the compressed register file must
  // not expose more than the baseline one.  DWT2D and Hotspot are the two
  // workloads README quotes.
  TempDir dir("gpurf_test_cache_softxs");
  Engine engine(EngineOptions().with_threads(4).with_cache_dir(dir.path));
  for (const char* name : {"DWT2D", "Hotspot"}) {
    double bits[2] = {0.0, 0.0};
    const wl::SimMode modes[2] = {wl::SimMode::kOriginal,
                                  wl::SimMode::kCompressedPerfect};
    for (int c = 0; c < 2; ++c) {
      SimRequest req;
      req.mode = modes[c];
      req.scale = wl::Scale::kSample;
      req.soft.track_exposure = true;
      auto r = engine.simulate(name, req);
      ASSERT_TRUE(r.ok()) << name << ": " << r.status().to_string();
      ASSERT_GT(r->stats.cycles, 0u) << name;
      bits[c] = double(r->soft.live_bit_cycles) / double(r->stats.cycles);
    }
    EXPECT_GT(bits[1], 0.0) << name;
    EXPECT_LE(bits[1], bits[0]) << name;
  }
}

TEST(SoftSim, SameSeedSameTraceAndStatsAtShards124) {
  TempDir dir("gpurf_test_cache_softdet");
  Engine engine(EngineOptions().with_threads(4).with_cache_dir(dir.path));
  SimRequest req;
  req.mode = wl::SimMode::kCompressedPerfect;
  req.scale = wl::Scale::kSample;
  req.soft.flips_per_mcycle = 100000.0;
  req.soft.seed = 3;
  req.sim_shards = 1;
  auto ref = engine.simulate("DWT2D", req);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  EXPECT_TRUE(ref->soft.active);
  EXPECT_GT(ref->soft.flips_injected, 0u);
  EXPECT_EQ(ref->soft.flips_injected,
            ref->soft.flips_on_live + ref->soft.flips_masked_dead);
  EXPECT_LE(ref->soft.flips_visible, ref->soft.flips_on_live);
  EXPECT_EQ(ref->soft.seed, 3u);

  for (int shards : {2, 4}) {
    SimRequest s = req;
    s.sim_shards = shards;
    auto r = engine.simulate("DWT2D", s);
    ASSERT_TRUE(r.ok());
    expect_same_sim_stats(ref->stats, r->stats,
                          "soft T=" + std::to_string(shards));
    EXPECT_TRUE(ref->soft == r->soft) << "T=" << shards;
  }

  // A different seed lands a different trace (counters almost surely
  // differ; at minimum the report does).
  SimRequest other = req;
  other.soft.seed = 4;
  auto r4 = engine.simulate("DWT2D", other);
  ASSERT_TRUE(r4.ok());
  EXPECT_FALSE(ref->soft == r4->soft);

  // The JSON snapshot carries the soft report and stays well-formed.
  const std::string js = api::to_json(*ref);
  EXPECT_NE(js.find("\"soft\""), std::string::npos);
  EXPECT_NE(js.find("\"flips_injected\""), std::string::npos);
  EXPECT_TRUE(api::parse_json(js).ok());
}

TEST(SoftSim, DeadRegisterFlipsProvablyMasked) {
  // A flip trace whose every strike lands on dead bits must report zero
  // visible flips and leave the simulated output image bit-identical to a
  // flip-free run.  The comparison has teeth: traces that do strike live
  // registers in the same seed range change the output.
  auto w = wl::make_dwt2d();
  const uint32_t regs =
      alloc::allocate_slices(w->kernel(), nullptr, nullptr, {false, false})
          .num_physical_regs;
  const auto run = [&](double rate, uint64_t seed,
                       std::vector<uint32_t>* out) {
    auto inst = w->make_instance(wl::Scale::kSample, 0);
    wl::PipelineResult pr;
    auto spec = wl::make_launch_spec(*w, inst, pr, wl::SimMode::kOriginal);
    spec.regs_per_thread = regs;
    spec.soft.flips_per_mcycle = rate;
    spec.soft.seed = seed;
    const sim::SimResult r =
        sim::simulate(sim::GpuConfig::fermi_gtx480(),
                      sim::CompressionConfig::baseline(), spec, nullptr,
                      sim::SimOptions{});
    const auto words = inst.gmem.view(inst.out_base, inst.out_words);
    out->assign(words.begin(), words.end());
    return r.soft;
  };
  std::vector<uint32_t> flip_free;
  run(0.0, 0, &flip_free);
  ASSERT_FALSE(flip_free.empty());
  int all_dead = 0, changed = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<uint32_t> out;
    const sim::SoftErrorReport rep = run(10000.0, seed, &out);
    ASSERT_TRUE(rep.active);
    if (out != flip_free) ++changed;
    if (rep.flips_injected == 0 || rep.flips_on_live != 0) continue;
    ++all_dead;
    EXPECT_EQ(rep.flips_masked_dead, rep.flips_injected) << "seed " << seed;
    EXPECT_EQ(rep.flips_visible, 0u) << "seed " << seed;
    EXPECT_EQ(out, flip_free) << "dead flips changed the output (seed "
                              << seed << ")";
  }
  EXPECT_GT(all_dead, 0)
      << "no all-dead flip trace among seeds 1..20 — geometry changed?";
  EXPECT_GT(changed, 0) << "no live strike among seeds 1..20 changed the "
                           "output — the comparison cannot fail";
}

// ------------------------------------------------- transient campaigns

TEST(TransientCampaign, SweepCompletesDeterministicallyAndSerializes) {
  TempDir dir("gpurf_test_cache_tcamp");
  Engine engine(EngineOptions()
                    .with_threads(2)
                    .with_cache_dir(dir.path)
                    .with_async_workers(2)
                    .with_max_inflight(4));
  TransientCampaignRequest creq;
  creq.sim.mode = wl::SimMode::kCompressedPerfect;
  creq.sim.scale = wl::Scale::kSample;
  creq.flip_rates = {5000.0, 20000.0};
  creq.seeds_per_rate = 2;
  creq.base_seed = 17;
  Job job = engine.submit(JobRequest::transient_campaign("DWT2D", creq));
  EXPECT_EQ(job.kind(), JobKind::kTransientCampaign);
  job.wait();
  ASSERT_EQ(job.state(), JobState::kDone) << job.status().to_string();

  const JobProgress p = job.progress();
  EXPECT_EQ(p.campaign_maps_total, 4);
  EXPECT_EQ(p.campaign_maps_done, 4);

  auto res = job.transient_result();
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_EQ(res->workload, "DWT2D");
  ASSERT_EQ(res->points.size(), 4u);
  // Rate-major order with distinct derived seeds.
  EXPECT_EQ(res->points[0].flips_per_mcycle, 5000.0);
  EXPECT_EQ(res->points[3].flips_per_mcycle, 20000.0);
  EXPECT_NE(res->points[0].seed, res->points[1].seed);
  for (const auto& pt : res->points) {
    EXPECT_EQ(pt.state, JobState::kDone) << pt.error;
    EXPECT_TRUE(pt.soft.active);
    EXPECT_EQ(pt.soft.flips_injected,
              pt.soft.flips_on_live + pt.soft.flips_masked_dead);
    EXPECT_GT(pt.cycles, 0u);
  }

  const std::string js = api::to_json(*res);
  EXPECT_NE(js.find("\"points\""), std::string::npos);
  EXPECT_NE(js.find("\"flips_per_mcycle\""), std::string::npos);
  EXPECT_TRUE(api::parse_json(js).ok());

  // The accessor is typed: a transient campaign has no fault-campaign
  // result and vice versa.
  EXPECT_FALSE(job.campaign_result().ok());

  // An empty rate sweep is rejected, not run.
  TransientCampaignRequest empty = creq;
  empty.flip_rates.clear();
  Job bad = engine.submit(JobRequest::transient_campaign("DWT2D", empty));
  bad.wait();
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gpurf
