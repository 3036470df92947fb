#include "workloads/workload.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"

namespace gpurf::workloads {

using gpurf::quality::MetricKind;

Workload::Workload(WorkloadSpec spec, std::string_view asm_text)
    : spec_(std::move(spec)), kernel_(gpurf::ir::parse_kernel(asm_text)) {
  gpurf::ir::verify(kernel_);
}

std::unique_ptr<gpurf::quality::QualityMetric> Workload::make_metric(
    const Instance& inst) const {
  switch (spec_.metric) {
    case MetricKind::kSsim:
      GPURF_CHECK(inst.image_w > 0 && inst.image_h > 0,
                  "SSIM workload without image dimensions");
      return gpurf::quality::make_ssim_metric(inst.image_w, inst.image_h);
    case MetricKind::kDeviation:
      return gpurf::quality::make_deviation_metric();
    case MetricKind::kBinary:
      return gpurf::quality::make_binary_metric();
  }
  GPURF_ASSERT(false, "unknown metric kind");
  return nullptr;
}

std::shared_ptr<const Workload::MemProofs> Workload::mem_proofs(
    const Instance& inst) const {
  // Key: everything the proofs depend on beyond the kernel text.
  char head[96];
  std::snprintf(head, sizeof head, "%ux%ux%ux%u|%zu|", inst.launch.grid_x,
                inst.launch.grid_y, inst.launch.block_x, inst.launch.block_y,
                inst.gmem.size());
  std::string key = head;
  for (uint32_t p : inst.params) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%x,", p);
    key += buf;
  }
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    auto it = mem_cache_.find(key);
    if (it != mem_cache_.end()) return it->second;
  }

  auto proofs = std::make_shared<MemProofs>();
  analysis::MemoryAccessOptions mo;
  mo.param_values = &inst.params;
  proofs->mem = analysis::analyze_memory_accesses(kernel_, inst.launch, mo);
  proofs->gmem_words = inst.gmem.size();
  proofs->proven = analysis::prove_in_bounds(
      proofs->mem, proofs->gmem_words, analysis::shared_words(kernel_));
  for (const auto& a : proofs->mem.accesses)
    proofs->proven_sites += proofs->proven[a.flat];
  proofs->shard_ok =
      (proofs->mem.loads_local && proofs->mem.stores_disjoint) ||
      spec_.assume_disjoint;

  // A concurrent caller may have raced us here; both results are equal.
  std::lock_guard<std::mutex> lock(mem_mu_);
  return mem_cache_.emplace(key, std::move(proofs)).first->second;
}

std::vector<float> Workload::run(
    Instance& inst, const gpurf::exec::PrecisionMap* pmap,
    const analysis::RangeAnalysisResult* range_check,
    const RunOptions& opt) const {
  // Replay-granular stop: a cancelled tuning job aborts before the next
  // replay starts, never in the middle of one.
  if (opt.cancel) {
    opt.cancel->checkpoint();
    opt.cancel->replays.fetch_add(1, std::memory_order_relaxed);
  }
  gpurf::exec::ExecContext ctx;
  ctx.kernel = &kernel_;
  ctx.launch = inst.launch;
  ctx.gmem = &inst.gmem;
  ctx.textures = &inst.textures;
  ctx.params = inst.params;
  ctx.precision = pmap;
  ctx.range_check = range_check;
  ctx.use_soa = opt.use_soa;
  ctx.analysis = analysis();
  const uint64_t insts = gpurf::exec::run_functional(ctx);
  if (opt.thread_insts) *opt.thread_insts = insts;
  return inst.gmem.read_f32(inst.out_base, inst.out_words);
}

}  // namespace gpurf::workloads
