#pragma once
// perfbench — the repository benchmark.  One process runs one named
// workload at one seed through the public Engine / Job API / api::Server
// surfaces, checks its outputs and prints every metric by name and unit.
// The last stdout line is the machine-readable result:
//
//   {"correct":B,"attempted":N,"failed":N,"metrics":{NAME:{"value":V,"unit":U}}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and write a Chrome Trace Event
// file.  See perfbench/README.md for the workloads and the metric map.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile of raw samples (pct in [0, 100]).  Exact: the
/// result is always one of the samples.  0 for an empty set.
double percentile(std::vector<double> v, double pct);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);  ///< 0 for an empty set

/// The highest percentile that still has at least ten samples beyond it
/// (the tail a sample set of this size can support), with its sample
/// count.  With twenty or fewer samples that percentile is at or below the
/// median, so the maximum is reported instead, with beyond = 0.
struct Tail {
  double value = 0.0;
  double pct = 100.0;
  size_t n = 0;
  size_t beyond = 0;
};
Tail tail(std::vector<double> v);

/// FNV-1a 64 over a sequence of canonical strings: the run's output
/// digest.  Same seed -> same inputs -> same digest, on any host.
class Digest {
 public:
  void add(std::string_view s);
  uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// ------------------------------------------------------------- host probes

/// getrusage(RUSAGE_SELF) + wall clock at one instant.
struct HostSample {
  Clock::time_point wall;
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t ctx_switches = 0;  ///< voluntary + involuntary
};
HostSample host_sample();

struct HostDelta {
  double cpu_util = 0.0;  ///< (user + sys) / (wall * nproc)
  double sys_frac = 0.0;  ///< sys / (user + sys)
  int64_t ctx_switches = 0;
};
HostDelta host_delta(const HostSample& a, const HostSample& b, int nproc);

double peak_rss_mb();

// ---------------------------------------------------------------- tracing

/// One span recorded by the benchmark around a call into a layer's public
/// function.  Times are ns since the tracer's origin; `name` is
/// "<layer>.<what>", and the layer is everything before the first dot.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< index of the enclosing span, -1 for a root
  uint64_t request = 0;  ///< job / operation id shared by one request's spans
  uint32_t lane = 0;     ///< trace row: recording thread, or a job's own row
};

/// In-memory span recorder.  Off: every call is a no-op returning -1.
/// Spans opened with Scope nest per thread; spans reconstructed from job
/// progress are added whole with an explicit parent.
class Tracer {
 public:
  Tracer();  ///< starts off

  bool on() const { return on_.load(); }
  /// Spans are recorded only while on; a traced run switches it on after
  /// its untraced reference pass.
  void set_on(bool on) { on_.store(on); }
  int64_t now_ns() const;
  int64_t to_ns(Clock::time_point t) const;

  /// Add a finished span; returns its index.
  int64_t add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request, uint32_t lane);

  class Scope {
   public:
    Scope(Tracer& t, std::string name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return id_; }

   private:
    Tracer& t_;
    int64_t id_ = -1;
    int64_t saved_parent_ = -1;
  };

  std::vector<Span> spans() const;

  /// Chrome Trace Event JSON ("X" events, one row per lane); opens in
  /// Perfetto and chrome://tracing.  `meta` is a JSON object placed under
  /// "otherData".
  bool write_chrome(const std::string& path, const std::string& meta) const;

 private:
  std::atomic<bool> on_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Length of the union of [lo, hi) intervals, clipped to [from, to).
int64_t covered_ns(std::vector<std::pair<int64_t, int64_t>> iv, int64_t from,
                   int64_t to);

/// Per-layer totals: self time is each span's duration minus the part of
/// it its child spans cover, summed over the layer's spans.
struct LayerTotals {
  double self_ms = 0.0;
  uint64_t spans = 0;
};
std::map<std::string, LayerTotals> layer_self_times(
    const std::vector<Span>& spans);

std::string span_layer(const std::string& name);

// ----------------------------------------------------------------- report

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  bool tiny = false;  ///< self-test scale: seconds-long, few kernels
  std::string out_dir = ".bench_build";
  std::string source_id = "unknown";  ///< git sha, when run.py found one
  std::string src_tree;  ///< source_tree_digest() of the library under test
  int nproc = 1;
};

/// Digest of the library's sources: every file under <root>/src and the
/// root CMakeLists.txt, by path and content.  Empty when <root>/src holds
/// no files.  It keys the benchmark's pmap cache, so a change anywhere in
/// the library (tuner, probes, input generators) starts a fresh cache.
std::string source_tree_digest(const std::string& root);

/// Collects metrics, checks and operation counts of one run and prints
/// them.  Thread-safe.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A failed check makes the run incorrect; both outcomes are printed.
  void check(bool ok, const std::string& what);
  void attempted(uint64_t n = 1);
  void failed(uint64_t n = 1);
  void note(const std::string& line);  ///< human-readable stdout line

  bool correct() const;
  uint64_t attempted_count() const;
  uint64_t failed_count() const;
  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }
  /// Last stdout line: the JSON result object.
  std::string result_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Everything one workload run needs.
struct Run {
  Options opt;
  Report report;
  Tracer tracer;
  Digest digest;

  explicit Run(Options o) : opt(std::move(o)) {}
  /// Benchmark-owned pmap cache of this source tree:
  /// <out_dir>/pmap-cache-<src_tree>.
  std::string cache_dir() const;
};

// -------------------------------------------------------------- workloads

/// Each returns normally after recording into run.report; checks that fail
/// mark the run incorrect instead of throwing.
void run_fig11_sweep(Run& run);
void run_fresh_tune(Run& run);
void run_serve_mix(Run& run);

/// Unit checks of the percentile, digest and self-time code (self-test).
bool selftest_units();

}  // namespace perfbench
