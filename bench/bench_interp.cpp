// bench_interp — functional-replay throughput of the interpreter (ISSUE 2).
//
// The tuner and the Fig. 9-12 benches replay kernels functionally thousands
// of times, so insts/sec of run_functional() is the pipeline's governing
// metric.  This bench measures it per workload in two modes, each running
// the launch's blocks in grid order on one thread:
//
//   scalar  — per-lane reference dispatch (exec_lane);
//   soa     — warp-vectorized SoA dispatch.
//
// The SoA output buffer and thread-instruction count are checked
// bit-identical against the scalar reference before timing is reported, and
// the results land in BENCH_interp.json.
//
// Usage: bench_interp [--smoke] [workload ...]
//   default workloads: all Table-4 kernels
//   --smoke: CI tripwire — exit nonzero on any cross-mode mismatch or if
//            SoA throughput regresses below the scalar reference (timing
//            stays min-of-3 so one scheduler hiccup can't flake the build).
//   GPURF_BENCH_REPS: timing repetitions per mode (default 3)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace wl = gpurf::workloads;

namespace {

struct ModeResult {
  double secs = 0.0;
  uint64_t insts = 0;
  std::vector<float> out;

  double insts_per_sec() const { return secs > 0 ? insts / secs : 0.0; }
};

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Run `reps` functional replays; returns the best (minimum) wall time of a
/// single replay plus the outputs of the last one.
ModeResult run_mode(const wl::Workload& w, const wl::RunOptions& opt,
                    int reps) {
  ModeResult r;
  r.secs = 1e30;
  for (int i = 0; i < reps; ++i) {
    auto inst = w.make_instance(wl::Scale::kSample, 0);
    wl::RunOptions o = opt;
    o.thread_insts = &r.insts;
    const double t0 = now_secs();
    r.out = w.run(inst, nullptr, nullptr, o);
    const double t1 = now_secs();
    r.secs = std::min(r.secs, t1 - t0);
  }
  return r;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_interp.json";
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

  std::printf("bench_interp: functional replay throughput (Minsts/sec, "
              "best of %d)\n", reps);
  std::printf("%-11s %10s %10s %8s   %s\n", "Kernel", "scalar", "soa",
              "soa/sc", "identical");

  std::FILE* json = std::fopen(out_path, "w");
  if (json) std::fprintf(json, "{\n  \"workloads\": [");

  int failures = 0;
  bool first_row = true;
  for (const auto& w : wl::make_all_workloads()) {
    if (!names.empty()) {
      bool wanted = false;
      for (const auto& n : names) wanted |= (n == w->spec().name);
      if (!wanted) continue;
    }

    const auto scalar = run_mode(*w, wl::RunOptions{/*use_soa=*/false}, reps);
    const auto soa = run_mode(*w, wl::RunOptions{/*use_soa=*/true}, reps);

    const bool identical =
        bits_equal(scalar.out, soa.out) && scalar.insts == soa.insts;
    if (!identical) ++failures;

    const double sc = scalar.insts_per_sec();
    const double so = soa.insts_per_sec();
    // Smoke tripwire: the SoA path must never fall behind the scalar
    // reference it replaced (generous margin for CI timer noise).
    if (smoke && so < 0.9 * sc) ++failures;

    std::printf("%-11s %10.1f %10.1f %7.2fx   %s\n", w->spec().name.c_str(),
                sc / 1e6, so / 1e6, sc > 0 ? so / sc : 0.0,
                identical ? "yes" : "NO <-- bug");

    if (json) {
      std::fprintf(json,
                   "%s\n    {\"name\": \"%s\", \"thread_insts\": %llu, "
                   "\"scalar_ips\": %.0f, \"soa_ips\": %.0f, "
                   "\"identical\": %s}",
                   first_row ? "" : ",", w->spec().name.c_str(),
                   static_cast<unsigned long long>(scalar.insts), sc, so,
                   identical ? "true" : "false");
      first_row = false;
    }
  }
  if (json) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
  }

  if (failures) {
    std::printf("\n%d workload(s) failed cross-mode verification\n", failures);
    return 1;
  }
  return 0;
}
