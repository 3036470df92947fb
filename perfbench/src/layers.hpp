#pragma once
// Pieces the three workloads share: Engine options, the benchmark's pmap
// cache, job bookkeeping, and the traced layer pass that calls each layer's
// public free functions directly.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "api/json.hpp"
#include "bench.hpp"

namespace perfbench {

namespace wl = gpurf::workloads;

const char* mode_name(wl::SimMode m);

/// One simulated launch.
struct Launch {
  std::string kernel;
  wl::SimMode mode = wl::SimMode::kOriginal;
  wl::Scale scale = wl::Scale::kFull;
  uint32_t variant = 0;

  std::string key() const;
  gpurf::SimRequest request() const;
};

/// Engine options with every thread count and the cache directory set
/// explicitly, so $GPURF_THREADS / $GPURF_CACHE_DIR never leak in.
gpurf::EngineOptions engine_options(const Run& run, bool disk_cache,
                                    size_t max_inflight);

/// Make sure the benchmark's pmap cache holds tuned maps for `kernels`;
/// only missing entries are tuned.  The cache directory is keyed by the
/// library's source digest (Run::cache_dir), so every entry it holds was
/// tuned by the code under test.  Returns false when a kernel could not be
/// prepared.
bool fill_pmap_cache(Run& run, const std::vector<std::string>& kernels);

/// Canonical text of a parsed JSON value: members in emitted order,
/// numbers with every digit.  Wire results and local SimStats both pass
/// through it, so they compare exactly.
std::string canonical(const gpurf::api::JsonValue& v);

/// Canonical texts hashed into the digest and compared for identity.
std::string stats_text(const gpurf::sim::SimStats& s);
std::string pmap_text(const gpurf::exec::PrecisionMap& p);

/// Short AF_UNIX path under the output directory (sun_path is 108 bytes).
std::string socket_path(const Run& run, const std::string& tag);

/// Outcome of one Engine job, read from its handle after it finished.
struct JobRecord {
  uint64_t id = 0;
  std::string label;
  Clock::time_point submitted;  ///< just before the submit call
  double submit_block_ms = 0.0;  ///< how long submit() itself blocked
  double wall_ms = 0.0;          ///< Job progress: submit -> terminal
  double exec_ms = 0.0;          ///< Job progress: start -> terminal
  bool ok = false;
};
JobRecord finish_record(JobRecord r, const gpurf::Job& job);

/// Reconstruct each job's queue wait (api) and execution (`exec_span`)
/// from Job progress as spans under `parent`, one trace row per job.
void add_job_spans(Run& run, int64_t parent,
                   const std::vector<JobRecord>& jobs, const char* exec_span);

/// api.submit_block_ms / queue_wait_ms / job_exec_ms / memo_hit_ratio.
void report_job_metrics(Run& run, const std::vector<JobRecord>& jobs,
                        const gpurf::Engine& engine);

/// Modelled-side metrics (exact counts) over a set of launches.
void report_sim_model(Run& run, const std::vector<gpurf::sim::SimStats>& all);

/// sim.ipc_gain_{perfect,high}_pct: geomean over kernels of the IPC ratio
/// to the original RF, next to the paper's Fig. 11 geomeans.
struct IpcTriple {
  double original = 0.0, perfect = 0.0, high = 0.0;

  void set(wl::SimMode m, double ipc) {
    (m == wl::SimMode::kOriginal            ? original
     : m == wl::SimMode::kCompressedPerfect ? perfect
                                            : high) = ipc;
  }
};
void report_ipc_gains(Run& run, const std::map<std::string, IpcTriple>& ipc);

/// What the traced layer pass does for one workload.
struct LayerPassSpec {
  /// Launches re-simulated through make_launch_spec + sim::simulate, once
  /// serial and once sharded.
  std::vector<Launch> resim;
  /// Engine/wire SimStats (stats_text) the re-simulations must reproduce,
  /// by Launch::key(); launches without an entry are only checked serial
  /// against sharded.
  std::map<std::string, std::string> expected;
  /// Kernel tuned (perfect level) through Engine::tune with a forwarding
  /// probe; its pmap must equal `expected_pmap`.
  std::string tune_kernel;
  std::string expected_pmap;
  /// Socket of an already running Server to probe; empty starts a
  /// temporary one on the Engine.
  std::string server_socket;
};

struct LayerPassResult {
  /// Each re-simulated launch with its (serial) SimStats.
  std::vector<std::pair<Launch, gpurf::sim::SimStats>> sims;
  /// Round trips of the pings on the idle server, in ms.
  std::vector<double> ping_ms;
};
LayerPassResult layer_pass(Run& run, gpurf::Engine& engine,
                           const LayerPassSpec& spec);

/// host.cpu_util / sys_frac / ctx_switches of the measured phase.
void report_host(Run& run, const HostSample& a, const HostSample& b);

/// Span coverage of the traced window, per-layer self times, tracing
/// overhead against the untraced pass, and the Chrome trace file.
void report_trace(Run& run, int64_t window_start_ns, int64_t window_end_ns,
                  double untraced_wall_s, double traced_wall_s,
                  const std::string& meta_json);

/// Host metadata object (nproc, compiler, build type, source id, seed,
/// load average), printed in every result and embedded in the trace.
std::string host_meta_json(const Run& run);

}  // namespace perfbench
