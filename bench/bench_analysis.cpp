// bench_analysis — cost and coverage of the static analyses.
//
// Per Table-4 workload:
//   * analysis time — compute_dataflow() over the prebuilt CFG (best of
//     GPURF_BENCH_REPS, default 3);
//   * lint facts — dead-write count, never-read registers, undefined reads
//     (always zero on the shipped workloads; the lint gate pins that);
//   * pressure — static liveness bound vs. baseline colouring;
//   * memory proofs — solve time, sites proven in bounds / total memory
//     sites, the disjointness verdicts and whether the workload carries an
//     assume_disjoint waiver.
//
// BENCH_analysis.json records every row plus a "memory" summary object.
//
// Usage: bench_analysis [--smoke] [--out PATH] [workload ...]
//   --smoke: CI tripwire — exit nonzero if any workload has undefined
//            reads, the memory-proof coverage over all workloads drops
//            below 85%, or any workload loses sharded-simulation
//            eligibility (proofs + waivers must keep every bundled
//            workload shard-ok).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/memory_access.hpp"
#include "workloads/workload.hpp"

namespace wl = gpurf::workloads;
namespace analysis = gpurf::analysis;

namespace {

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_analysis.json";
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else if (std::string(argv[i]) == "--out" && i + 1 < argc)
      out_path = argv[++i];
    else
      names.emplace_back(argv[i]);
  }
  int reps = 3;
  if (const char* env = std::getenv("GPURF_BENCH_REPS")) {
    const int n = std::atoi(env);
    if (n >= 1) reps = n;
  }

  std::printf("bench_analysis: static analysis cost + coverage (best of %d)\n",
              reps);
  std::printf("%-12s %9s %5s %5s  %6s %6s  %9s %9s  %s\n", "Kernel",
              "analyze", "dead", "nread", "static", "alloc", "mem", "proven",
              "verdicts");

  uint64_t mem_sites_total = 0, mem_sites_proven = 0;
  int mem_workloads = 0, mem_fully_proven = 0, mem_waived = 0;
  int mem_shard_ok = 0;
  int failures = 0;

  std::FILE* json = std::fopen(out_path, "w");
  if (json) std::fprintf(json, "{\n  \"workloads\": [");

  for (const auto& w : wl::make_all_workloads()) {
    if (!names.empty()) {
      bool wanted = false;
      for (const auto& n : names) wanted |= (n == w->spec().name);
      if (!wanted) continue;
    }
    const auto& k = w->kernel();
    const auto cfg = analysis::build_cfg(k);
    double analyze_secs = 1e30;
    analysis::Dataflow df;
    for (int i = 0; i < reps; ++i) {
      const double t0 = now_secs();
      df = analysis::compute_dataflow(k, cfg);
      analyze_secs = std::min(analyze_secs, now_secs() - t0);
    }
    auto rep = analysis::build_kernel_report(k, cfg, df);
    rep.alloc_pressure = gpurf::alloc::baseline_pressure(k);
    if (!rep.undefined_reads.empty()) ++failures;

    // Static memory pass: solve cost, proof coverage and the disjointness
    // verdicts for the sample instance.
    auto inst = w->make_instance(wl::Scale::kSample, 0);
    double mem_secs = 1e30;
    for (int i = 0; i < reps; ++i) {
      analysis::MemoryAccessOptions mo;
      mo.param_values = &inst.params;
      const double t0 = now_secs();
      (void)analysis::analyze_memory_accesses(k, inst.launch, mo);
      mem_secs = std::min(mem_secs, now_secs() - t0);
    }
    const auto proofs = w->mem_proofs(inst);
    const uint32_t sites = static_cast<uint32_t>(proofs->mem.accesses.size());
    const bool waived = w->spec().assume_disjoint;
    mem_sites_total += sites;
    mem_sites_proven += proofs->proven_sites;
    ++mem_workloads;
    if (proofs->proven_sites == sites) ++mem_fully_proven;
    if (waived) ++mem_waived;
    if (proofs->shard_ok) ++mem_shard_ok;
    if (smoke && !proofs->shard_ok) ++failures;

    std::printf("%-12s %7.1fus %5zu %5zu  %6u %6u  %7.1fus %4u/%-4u  %s%s%s\n",
                w->spec().name.c_str(), analyze_secs * 1e6,
                rep.dead_writes.size(), rep.never_read.size(),
                rep.static_pressure, rep.alloc_pressure, mem_secs * 1e6,
                proofs->proven_sites, sites,
                proofs->mem.stores_disjoint ? "stores-disjoint " : "",
                proofs->mem.loads_local ? "loads-local " : "",
                waived ? "[waived]" : "");
    if (json) {
      std::fprintf(
          json,
          "%s\n    {\"name\": \"%s\", \"analysis_us\": %.2f, "
          "\"dead_writes\": %zu, \"never_read\": %zu, "
          "\"undefined_reads\": %zu, \"static_pressure\": %u, "
          "\"alloc_pressure\": %u, \"mem_analysis_us\": %.2f, "
          "\"mem_sites\": %u, \"mem_proven\": %u, \"stores_disjoint\": %s, "
          "\"loads_local\": %s, \"disjoint_waived\": %s, "
          "\"shard_ok\": %s}",
          mem_workloads == 1 ? "" : ",", w->spec().name.c_str(),
          analyze_secs * 1e6, rep.dead_writes.size(), rep.never_read.size(),
          rep.undefined_reads.size(), rep.static_pressure, rep.alloc_pressure,
          mem_secs * 1e6, sites, proofs->proven_sites,
          proofs->mem.stores_disjoint ? "true" : "false",
          proofs->mem.loads_local ? "true" : "false",
          waived ? "true" : "false", proofs->shard_ok ? "true" : "false");
    }
  }

  // Proof coverage over every benched workload: the smoke gate holds the
  // floor at 85% so a solver regression (or a new workload with unproven
  // accesses and no waiver) fails CI instead of going unnoticed.
  const double coverage =
      mem_sites_total > 0
          ? static_cast<double>(mem_sites_proven) /
                static_cast<double>(mem_sites_total)
          : 1.0;
  std::printf(
      "\nmemory proofs: %llu/%llu sites proven (%.1f%%), "
      "%d/%d workloads fully proven, %d waived, %d shard-ok\n",
      static_cast<unsigned long long>(mem_sites_proven),
      static_cast<unsigned long long>(mem_sites_total), coverage * 100.0,
      mem_fully_proven, mem_workloads, mem_waived, mem_shard_ok);
  if (smoke && coverage < 0.85) {
    std::printf("memory-proof coverage below the 85%% floor\n");
    ++failures;
  }

  if (json) {
    std::fprintf(json,
                 "\n  ],\n  \"memory\": {\"sites\": %llu, \"proven\": %llu, "
                 "\"coverage\": %.4f, \"workloads\": %d, "
                 "\"fully_proven\": %d, \"waived\": %d, "
                 "\"shard_ok\": %d}\n}\n",
                 static_cast<unsigned long long>(mem_sites_total),
                 static_cast<unsigned long long>(mem_sites_proven), coverage,
                 mem_workloads, mem_fully_proven, mem_waived, mem_shard_ok);
    std::fclose(json);
  }
  if (failures) {
    std::printf("\n%d check(s) failed\n", failures);
    return 1;
  }
  return 0;
}
