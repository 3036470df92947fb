// bench_fig10 — regenerates Figure 10: active thread blocks per SM
// (occupancy) for the original register file and the proposed indirection-
// table organisation at perfect and high output quality.  Also reports the
// limiting resource, reproducing the IMGVF shared-memory cap discussion
// (§6.1).  Pipelines warm as Jobs on the Engine's async queue; the
// occupancy math uses the Engine's configured GpuConfig.

#include <cstdio>
#include <vector>

#include "api/engine.hpp"
#include "sim/occupancy.hpp"

namespace wl = gpurf::workloads;
namespace sim = gpurf::sim;

namespace {
const char* limiter_name(sim::Occupancy::Limiter l) {
  switch (l) {
    case sim::Occupancy::Limiter::kRegisters: return "regs";
    case sim::Occupancy::Limiter::kSharedMem: return "smem";
    case sim::Occupancy::Limiter::kWarps: return "warps";
    case sim::Occupancy::Limiter::kBlocks: return "blocks";
    default: return "-";
  }
}
}  // namespace

int main() {
  gpurf::Engine engine;
  const sim::GpuConfig& gpu = engine.options().gpu;
  std::printf("Figure 10: active thread blocks / SM\n");
  std::printf("%-11s %18s %24s %24s\n", "Kernel", "Original",
              "IndirTable(perfect)", "IndirTable(high)");
  const auto names = engine.workload_names();
  // Tune all workloads concurrently before the (cheap) occupancy prints.
  std::vector<gpurf::Job> warm;
  for (const auto& n : names)
    warm.push_back(engine.submit(gpurf::JobRequest::pipeline(n)));
  for (auto& j : warm) j.wait();

  for (const auto& n : names) {
    const wl::Workload& w = **engine.workload(n);
    auto pr = engine.pipeline(w);
    if (!pr.ok()) {
      std::fprintf(stderr, "%s\n", pr.status().to_string().c_str());
      return 1;
    }
    const auto& p = (*pr)->pressure;
    const uint32_t wpb = w.spec().warps_per_block;
    const uint32_t smem = w.kernel().shared_bytes;
    const auto o0 = compute_occupancy(gpu, p.original, wpb, smem);
    const auto o1 = compute_occupancy(gpu, p.both_perfect, wpb, smem);
    const auto o2 = compute_occupancy(gpu, p.both_high, wpb, smem);
    std::printf("%-11s %10u (%5s) %16u (%5s) %16u (%5s)\n", n.c_str(),
                o0.blocks_per_sm, limiter_name(o0.limiter), o1.blocks_per_sm,
                limiter_name(o1.limiter), o2.blocks_per_sm,
                limiter_name(o2.limiter));
  }
  std::printf("\n(limiting resource in parentheses)\n");
  return 0;
}
