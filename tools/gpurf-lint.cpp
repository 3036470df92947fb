// gpurf-lint — static kernel verifier over the instruction-granular
// dataflow pass (PR 9) and the static memory-access pass (ISSUE 10).  For
// every registered workload (or an assembly file passed on the command
// line) it reports what the analyses prove about the kernel *before* any
// simulation: undefined register reads, statically dead writes, registers
// that are written but never read, the two register-pressure figures
// (static liveness bound, baseline slice-allocator pressure), in-bounds
// proof coverage, definite / possible
// out-of-bounds accesses and the parallel-execution disjointness verdicts.
//
// Usage:
//   gpurf-lint [--json] [--fail-on=CLASS[,CLASS]...]
//              [--workload NAME]... [--file PATH]...
//
// With no --workload/--file arguments, lints all eleven Table-4
// workloads.  `--fail-on` selects which finding classes flip the exit
// status to 1:
//   undefined-reads  a register is read on some path before any
//                    definition (the default, matching PR 9 behaviour);
//   oob              a memory access is *definitely* out of bounds — its
//                    whole static address interval misses the buffer
//                    (possible-OOB warnings never fail);
//   overlap          a workload's parallel-execution memory contract is
//                    neither statically proven nor waived (applies only
//                    to targets with instance context, i.e. workloads);
//   dead-writes      a write's destination is statically dead.
// CI runs `--fail-on=undefined-reads,oob,overlap` as a hard gate over the
// workload suite.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "api/engine.hpp"
#include "api/json.hpp"

namespace analysis = gpurf::analysis;
namespace api = gpurf::api;

namespace {

struct FailOn {
  bool undefined_reads = false;
  bool oob = false;
  bool overlap = false;
  bool dead_writes = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--fail-on=CLASS[,CLASS]...] "
               "[--workload NAME]... [--file PATH]...\n"
               "classes: undefined-reads oob overlap dead-writes\n"
               "(no targets: lint all registered workloads)\n",
               argv0);
  return 2;
}

bool parse_fail_on(const std::string& spec, FailOn* out) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string c = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (c == "undefined-reads") {
      out->undefined_reads = true;
    } else if (c == "oob") {
      out->oob = true;
    } else if (c == "overlap") {
      out->overlap = true;
    } else if (c == "dead-writes") {
      out->dead_writes = true;
    } else {
      std::fprintf(stderr, "gpurf-lint: unknown --fail-on class '%s'\n",
                   c.c_str());
      return false;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

/// The overlap gate only applies where disjointness was actually in
/// question: targets with instance context (workloads).  Bare --file
/// kernels carry no launch or memory image to prove anything against.
bool overlap_unresolved(const analysis::KernelReport& r) {
  return r.mem_analyzed && r.gmem_words > 0 && !r.disjoint_waived &&
         !(r.stores_disjoint && r.loads_local);
}

void print_report(const analysis::KernelReport& r) {
  std::printf("%-12s %4u insts  %2u regs  pressure %2u static / %2u alloc  "
              "%zu dead write%s  %zu never-read  %zu undefined\n",
              r.kernel.c_str(), r.num_insts, r.num_regs, r.static_pressure,
              r.alloc_pressure, r.dead_writes.size(),
              r.dead_writes.size() == 1 ? "" : "s", r.never_read.size(),
              r.undefined_reads.size());
  auto name = [&](uint32_t reg) {
    return reg < r.reg_names.size() ? r.reg_names[reg]
                                    : "r" + std::to_string(reg);
  };
  for (uint32_t reg : r.undefined_reads)
    std::printf("  error: undefined read of %%%s\n", name(reg).c_str());
  for (const auto& dw : r.dead_writes)
    std::printf("  note: dead write to %%%s at block %u inst %u\n",
                name(dw.reg).c_str(), dw.blk, dw.inst);
  for (uint32_t reg : r.never_read)
    std::printf("  note: %%%s is written but never read\n", name(reg).c_str());
  if (!r.mem_analyzed) return;
  std::printf("  mem: %u/%u site%s proven in bounds", r.mem_proven,
              r.mem_insts, r.mem_insts == 1 ? "" : "s");
  if (r.gmem_words > 0) {
    if (r.footprints_computed)
      std::printf("; stores %s, loads %s%s",
                  r.stores_disjoint ? "disjoint" : "may overlap",
                  r.loads_local ? "local" : "may cross blocks",
                  r.disjoint_waived ? " (waived)" : "");
    else
      std::printf("; footprints not computed%s",
                  r.disjoint_waived ? " (waived)" : "");
    if (!r.store_affine.empty())
      std::printf("; store footprint %s", r.store_affine.c_str());
    if (!r.load_affine.empty())
      std::printf("; load footprint %s", r.load_affine.c_str());
  }
  std::printf("\n");
  const auto print_oob = [&](const analysis::OobFinding& f, const char* sev) {
    std::printf("  %s: %s %s %s bounds at block %u inst %u", sev,
                f.definite ? "definite" : "possible",
                f.shared ? "shared" : "global",
                f.is_store ? "store outside" : "load outside", f.blk, f.inst);
    if (f.addr_known)
      std::printf(" (words [%lld, %lld])", static_cast<long long>(f.lo),
                  static_cast<long long>(f.hi));
    else
      std::printf(" (address statically unknown)");
    std::printf("\n");
  };
  for (const auto& f : r.oob_errors) print_oob(f, "error");
  for (const auto& f : r.oob_warnings) print_oob(f, "warning");
  if (overlap_unresolved(r))
    std::printf("  warning: parallel-execution memory contract unproven "
                "and not waived (stores_disjoint=%d loads_local=%d)\n",
                r.stores_disjoint ? 1 : 0, r.loads_local ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  FailOn fail_on;
  bool fail_on_set = false;
  std::vector<std::string> workloads;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = true;
    } else if (a.rfind("--fail-on=", 0) == 0) {
      fail_on_set = true;
      if (!parse_fail_on(a.substr(10), &fail_on)) return usage(argv[0]);
    } else if (a == "--fail-on" && i + 1 < argc) {
      fail_on_set = true;
      if (!parse_fail_on(argv[++i], &fail_on)) return usage(argv[0]);
    } else if (a == "--workload" && i + 1 < argc) {
      workloads.emplace_back(argv[++i]);
    } else if (a == "--file" && i + 1 < argc) {
      files.emplace_back(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (!fail_on_set) fail_on.undefined_reads = true;  // historical default

  // The lint pass never tunes or simulates; skip the disk cache so the
  // tool leaves no state behind and runs from a cold container.
  gpurf::Engine engine(gpurf::EngineOptions().with_disk_cache(false));
  if (workloads.empty() && files.empty())
    workloads = engine.workload_names();

  std::vector<analysis::KernelReport> reports;
  for (const auto& name : workloads) {
    auto rep = engine.analyze(name);
    if (!rep.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   rep.status().to_string().c_str());
      return 2;
    }
    reports.push_back(std::move(rep).value());
  }
  for (const auto& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto k = engine.parse_kernel(text.str());
    if (!k.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   k.status().to_string().c_str());
      return 2;
    }
    auto rep = engine.analyze(*k);
    if (!rep.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   rep.status().to_string().c_str());
      return 2;
    }
    reports.push_back(std::move(rep).value());
  }

  if (json) {
    std::string out = "[";
    for (size_t i = 0; i < reports.size(); ++i) {
      if (i) out += ",";
      out += api::to_json(reports[i]);
    }
    out += "]\n";
    std::fputs(out.c_str(), stdout);
  }
  bool undef = false, oob = false, overlap = false, dead = false;
  for (const auto& r : reports) {
    if (!json) print_report(r);
    undef |= !r.undefined_reads.empty();
    oob |= !r.oob_errors.empty();
    overlap |= overlap_unresolved(r);
    dead |= !r.dead_writes.empty();
  }
  bool failed = false;
  const auto gate = [&](bool on, bool found, const char* what) {
    if (!on || !found) return;
    failed = true;
    std::fprintf(stderr, "gpurf-lint: %s found\n", what);
  };
  gate(fail_on.undefined_reads, undef, "undefined register reads");
  gate(fail_on.oob, oob, "definitely out-of-bounds accesses");
  gate(fail_on.overlap, overlap,
       "unproven, unwaived parallel-execution memory contracts");
  gate(fail_on.dead_writes, dead, "statically dead writes");
  return failed ? 1 : 0;
}
