// bench_sim — serial vs. multi-SM-sharded timing-simulator throughput
// (ISSUE 5).  For each workload the same full-scale launch is simulated
// once per shard count; the serial run (shards = 1) is the reference
// schedule and every sharded run must reproduce its SimStats bit for bit
// (the determinism contract), so the only thing that may change is
// wall-clock.  Reported metric: simulated cycles per second.
//
// The launch uses the original register pressure (one allocate_slices
// call — no precision tuning), so the bench starts instantly on a fresh
// checkout; the compressed column enables the proposed pipeline's extra
// stages (indirection read, value-converter budget, writeback delay)
// without needing a tuned allocation.
//
// Usage: bench_sim [--smoke] [workload ...]
//          default workloads: DWT2D Hotspot Hybridsort SSAO
//        GPURF_BENCH_SHARDS="1 4"   shard counts to sweep (first is the
//          reference; default "1 N" with N = the default thread count)
//
// Emits BENCH_sim.json: per (workload x config x shards) wall seconds,
// cycles/sec and the speedup over the serial schedule.  --smoke runs a
// sample-scale subset and exits non-zero on any stats divergence (cheap
// CI tripwire).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "common/thread_pool.hpp"
#include "sim/gpu.hpp"
#include "workloads/pipeline.hpp"
#include "workloads/workload.hpp"

namespace wl = gpurf::workloads;
namespace sim = gpurf::sim;

namespace {

struct RunResult {
  sim::SimStats stats;
  double seconds = 0.0;

  double cycles_per_sec() const {
    return seconds > 0.0 ? double(stats.cycles) / seconds : 0.0;
  }
};

RunResult run_once(const wl::Workload& w, const sim::CompressionConfig& cc,
                   wl::Scale scale, int shards) {
  wl::PipelineResult pr;
  pr.pressure.original =
      gpurf::alloc::allocate_slices(w.kernel(), nullptr, nullptr,
                                    {false, false})
          .num_physical_regs;
  auto inst = w.make_instance(scale, 0);
  auto spec = wl::make_launch_spec(w, inst, pr, wl::SimMode::kOriginal);
  sim::SimOptions so;
  so.shards = shards;
  RunResult r;
  const auto t0 = std::chrono::steady_clock::now();
  r.stats = sim::simulate(sim::GpuConfig::fermi_gtx480(), cc, spec, nullptr,
                          so)
                .stats;
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

std::unique_ptr<wl::Workload> make_by_name(const std::string& name) {
  for (auto& w : wl::make_all_workloads())
    if (w->spec().name == name) return std::move(w);
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_sim.json";
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    else
      names.push_back(argv[i]);
  }
  if (names.empty())
    names = smoke ? std::vector<std::string>{"DWT2D", "SSAO"}
                  : std::vector<std::string>{"DWT2D", "Hotspot",
                                             "Hybridsort", "SSAO"};

  std::vector<int> shard_counts;
  {
    const char* env = std::getenv("GPURF_BENCH_SHARDS");
    std::istringstream ss(env ? env : "");
    for (int t; ss >> t;)
      if (t >= 1) shard_counts.push_back(t);
    if (shard_counts.empty()) {
      shard_counts = {1, gpurf::common::default_thread_count()};
      if (shard_counts[1] <= 1) shard_counts[1] = smoke ? 2 : 4;
    }
  }
  int max_shards = 1;
  for (int s : shard_counts) max_shards = std::max(max_shards, s);
  gpurf::common::ThreadPool pool(max_shards);
  gpurf::common::ScopedPool bind(&pool);

  const wl::Scale scale = smoke ? wl::Scale::kSample : wl::Scale::kFull;
  const struct {
    const char* label;
    sim::CompressionConfig cc;
  } configs[] = {
      {"baseline", sim::CompressionConfig::baseline()},
      {"compressed", sim::CompressionConfig::paper_default()},
  };

  std::printf("bench_sim: timing-simulator throughput, serial vs sharded "
              "(%s scale)\n",
              smoke ? "sample" : "full");
  std::printf("%-11s %-10s %10s", "Kernel", "Config", "cycles");
  for (int s : shard_counts) std::printf("   T=%-2d [Mc/s]", s);
  std::printf("   speedup   identical\n");

  std::FILE* json = std::fopen(out_path, "w");
  if (json)
    std::fprintf(json, "{\n  \"scale\": \"%s\",\n  \"runs\": [",
                 smoke ? "sample" : "full");

  int divergences = 0;
  bool first_row = true;
  for (const auto& name : names) {
    auto w = make_by_name(name);
    if (!w) {
      std::printf("%-11s   unknown workload, skipped\n", name.c_str());
      continue;
    }
    for (const auto& cfg : configs) {
      std::vector<RunResult> runs;
      runs.reserve(shard_counts.size());
      for (int s : shard_counts)
        runs.push_back(run_once(*w, cfg.cc, scale, s));
      bool identical = true;
      for (size_t i = 1; i < runs.size(); ++i)
        identical = identical && runs[0].stats == runs[i].stats;
      if (!identical) ++divergences;

      std::printf("%-11s %-10s %10llu", name.c_str(), cfg.label,
                  static_cast<unsigned long long>(runs[0].stats.cycles));
      for (const auto& r : runs)
        std::printf("   %10.3f", r.cycles_per_sec() / 1e6);
      std::printf("   %6.2fx   %s\n",
                  runs.back().cycles_per_sec() /
                      std::max(1.0, runs[0].cycles_per_sec()),
                  identical ? "yes" : "NO <-- bug");

      if (json) {
        std::fprintf(json,
                     "%s\n    {\"kernel\": \"%s\", \"config\": \"%s\", "
                     "\"cycles\": %llu, \"identical\": %s, \"shards\": [",
                     first_row ? "" : ",", name.c_str(), cfg.label,
                     static_cast<unsigned long long>(runs[0].stats.cycles),
                     identical ? "true" : "false");
        for (size_t i = 0; i < runs.size(); ++i)
          std::fprintf(json,
                       "%s{\"shards\": %d, \"seconds\": %.6f, "
                       "\"cycles_per_sec\": %.1f, \"speedup\": %.3f}",
                       i ? ", " : "", shard_counts[i], runs[i].seconds,
                       runs[i].cycles_per_sec(),
                       runs[i].cycles_per_sec() /
                           std::max(1.0, runs[0].cycles_per_sec()));
        std::fprintf(json, "]}");
        first_row = false;
      }
    }
  }
  if (json) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
  }

  if (divergences) {
    std::printf("\n%d run(s) diverged from the serial schedule\n",
                divergences);
    return 1;
  }
  return 0;
}
