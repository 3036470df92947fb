// perfbench entry point: argument parsing, dispatch, result printing and
// the self-test.
//
//   perfbench --workload fig11-sweep|fresh-tune|serve-mix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--source ID]
//   perfbench --selftest [--out-dir DIR]

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "layers.hpp"

namespace {

using namespace perfbench;

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

bool dispatch(Run& run) {
  if (run.opt.workload == "fig11-sweep") run_fig11_sweep(run);
  else if (run.opt.workload == "fresh-tune") run_fresh_tune(run);
  else if (run.opt.workload == "serve-mix") run_serve_mix(run);
  else return false;
  return true;
}

/// Run one workload and print its report; false on an unknown workload or
/// an escaped exception (no result line is printed then).
bool run_workload(Run& run, bool print_result) {
  run.report.note("meta " + host_meta_json(run));
  try {
    if (!dispatch(run)) {
      std::fprintf(stderr, "unknown workload '%s'\n", run.opt.workload.c_str());
      return false;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", run.opt.workload.c_str(), e.what());
    return false;
  }
  const uint64_t att = run.report.attempted_count();
  const uint64_t fail = run.report.failed_count();
  char buf[128];
  std::snprintf(buf, sizeof buf, "failed_frac %.6f (%llu of %llu operations)",
                att ? double(fail) / double(att) : 0.0,
                (unsigned long long)fail, (unsigned long long)att);
  run.report.note(buf);
  for (const auto& [name, vu] : run.report.metrics()) {
    std::snprintf(buf, sizeof buf, "metric %-34s %16.6f %s", name.c_str(),
                  vu.first, vu.second.c_str());
    run.report.note(buf);
  }
  run.report.note("digest " + run.digest.hex());
  if (print_result) std::printf("%s\n", run.report.result_json().c_str());
  std::fflush(stdout);
  return true;
}

/// Tiny-scale pass of each workload: same-seed runs must print the same
/// digest, and the traced run must meet its own checks.
int selftest(const Options& base) {
  bool ok = selftest_units();
  for (const char* w : {"fig11-sweep", "fresh-tune", "serve-mix"}) {
    std::string digest;
    for (int pass = 0; pass < 3; ++pass) {
      Options o = base;
      o.workload = w;
      o.seed = 7;
      o.seconds = 1;
      o.tiny = true;
      o.trace = pass == 2;
      Run run(o);
      const bool ran = run_workload(run, false);
      const bool good = ran && run.report.correct();
      std::printf("selftest %-4s %s pass %d (%s)\n", good ? "ok" : "FAIL", w,
                  pass, o.trace ? "traced" : "untraced");
      ok = ok && good;
      if (pass == 0) digest = run.digest.hex();
      const bool same = run.digest.hex() == digest;
      if (!same)
        std::printf("selftest FAIL %s digest %s != %s\n", w,
                    run.digest.hex().c_str(), digest.c_str());
      ok = ok && same;
    }
  }
  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig11-sweep|fresh-tune|serve-mix "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--source ID]\n"
               "       perfbench --selftest [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.nproc = online_cpus();
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--selftest") self = true;
    else if (!(v = next())) return usage();
    else if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atoi(v);
    else if (a == "--trace") opt.trace = std::string(v) == "1";
    else if (a == "--out-dir") opt.out_dir = v;
    else if (a == "--source") opt.source_id = v;
    else return usage();
  }
  // The library's sources key the pmap cache; they are found from the
  // repository root, where the benchmark runs.
  opt.src_tree = source_tree_digest(".");
  if (opt.src_tree.empty()) {
    std::fprintf(stderr, "perfbench: no src/ here; run from the repository "
                         "root\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (self) return selftest(opt);
  if (opt.workload.empty() || opt.seconds < 1) return usage();
  Run run(opt);
  return run_workload(run, true) ? 0 : 1;
}
