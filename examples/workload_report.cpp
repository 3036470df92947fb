// workload_report — inspect any bundled workload through the static
// framework: register counts, computed register pressure (vs. the paper's
// Table 4), integer range-analysis results, and (with --tune) the tuned
// float formats and the resulting Fig.-9-style pressure bars.
//
// Uses the gpurf::Engine API: workloads are looked up by name (unknown
// names are a NotFound Status, not a crash), pipelines memoize inside the
// engine, and --json emits the machine-readable snapshot a serving layer
// would return.
//
// Usage: workload_report [NAME ...] [--tune] [--regs] [--json]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "analysis/range_analysis.hpp"
#include "api/engine.hpp"

namespace wl = gpurf::workloads;

int main(int argc, char** argv) {
  bool tune = false, show_regs = false, json = false;
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tune") == 0) tune = true;
    else if (std::strcmp(argv[i], "--regs") == 0) show_regs = true;
    else if (std::strcmp(argv[i], "--json") == 0) json = true;
    else names.emplace_back(argv[i]);
  }

  gpurf::Engine engine;
  if (names.empty()) names = engine.workload_names();

  for (const auto& name : names) {
    auto lookup = engine.workload(name);
    if (!lookup.ok()) {
      std::fprintf(stderr, "%s\n", lookup.status().to_string().c_str());
      return 1;
    }
    const wl::Workload& w = **lookup;
    const auto& k = w.kernel();
    const auto ranges =
        gpurf::analysis::analyze_ranges(k, w.launch(wl::Scale::kFull));

    uint32_t f32 = 0, ints = 0, preds = 0;
    for (const auto& r : k.regs) {
      if (r.type == gpurf::ir::Type::F32) ++f32;
      else if (r.type == gpurf::ir::Type::PRED) ++preds;
      else ++ints;
    }

    gpurf::alloc::AllocOptions none{false, false}, onlyints{true, false};
    const uint32_t orig =
        gpurf::alloc::allocate_slices(k, nullptr, nullptr, none)
            .num_physical_regs;
    const uint32_t narrow_int =
        gpurf::alloc::allocate_slices(k, &ranges, nullptr, onlyints)
            .num_physical_regs;

    std::printf("%-11s insts=%4zu regs(int/f32/pred)=%u/%u/%u  "
                "pressure: paper=%u ours=%u  narrow-int=%u\n",
                w.spec().name.c_str(), k.num_insts(), ints, f32, preds,
                w.spec().paper_regs, orig, narrow_int);

    if (show_regs) {
      for (uint32_t r = 0; r < k.num_regs(); ++r) {
        const auto& info = ranges.regs[r];
        if (!info.analyzed) continue;
        std::printf("    %%%-8s %-6s bits=%2d range=%s\n",
                    k.regs[r].name.c_str(),
                    std::string(type_name(k.regs[r].type)).c_str(), info.bits,
                    info.range.str().c_str());
      }
    }

    if (tune) {
      auto pr_or = engine.pipeline(w);
      if (!pr_or.ok()) {
        std::fprintf(stderr, "pipeline: %s\n",
                     pr_or.status().to_string().c_str());
        return 1;
      }
      const auto& pr = **pr_or;
      std::printf("    Fig.9 bars: orig=%u int=%u float(p)=%u float(h)=%u "
                  "both(p)=%u both(h)=%u  [tuner evals p=%d h=%d]\n",
                  pr.pressure.original, pr.pressure.narrow_int,
                  pr.pressure.narrow_float_perfect,
                  pr.pressure.narrow_float_high, pr.pressure.both_perfect,
                  pr.pressure.both_high, pr.tune_perfect.evaluations,
                  pr.tune_high.evaluations);
      if (show_regs) {
        std::printf("    tuned formats (perfect/high):\n");
        for (uint32_t r = 0; r < k.num_regs(); ++r) {
          if (k.regs[r].type != gpurf::ir::Type::F32) continue;
          std::printf("      %%%-8s %2d / %2d bits\n",
                      k.regs[r].name.c_str(),
                      pr.tune_perfect.pmap.per_reg[r].total_bits,
                      pr.tune_high.pmap.per_reg[r].total_bits);
        }
        std::printf("    packing density both(p)=%.3f split=%u\n",
                    pr.alloc_both_perfect.packing_density(),
                    pr.alloc_both_perfect.split_operands);
      }
    }

    if (json) {
      // Emits the full machine-readable snapshot; runs the pipeline if
      // --tune has not already memoized it.
      auto js = engine.pipeline_json(name);
      if (!js.ok()) {
        std::fprintf(stderr, "%s\n", js.status().to_string().c_str());
        return 1;
      }
      std::printf("    %s\n", js->c_str());
    }
  }
  return 0;
}
