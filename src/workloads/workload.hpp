#pragma once
// Workload harness: the paper's eleven CUDA kernels (Table 4) re-expressed
// in the project's PTX-like IR, each with deterministic synthetic inputs,
// an exact reference output and its quality metric.
//
// Substitution note (see DESIGN.md §1): the original kernels are CUDA
// programs run under GPGPU-Sim; ours are genuine programs in our IR with
// the same algorithmic skeleton, block geometry, shared-memory usage and
// register-pressure characteristics.  Every number reported downstream —
// register pressure, tuned precision, occupancy, IPC — is *computed* from
// these programs by the analyses and the simulator, never hard-coded.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/memory_access.hpp"
#include "common/cancel.hpp"
#include "exec/interp.hpp"
#include "exec/machine.hpp"
#include "ir/kernel.hpp"
#include "quality/metrics.hpp"

namespace gpurf::workloads {

struct WorkloadSpec {
  std::string name;
  gpurf::quality::MetricKind metric;
  int group = 2;                 ///< 1 graphics / 2 Rodinia-style / 3 binary
  uint32_t paper_regs = 0;       ///< Table 4 "register usage per thread"
  uint32_t warps_per_block = 8;  ///< Table 4
  /// Documented waiver of the sharded-simulation memory contract: the
  /// static disjointness prover cannot establish loads_local /
  /// stores_disjoint for this kernel (interleaved-row tiles, data-dependent
  /// addressing, ...), but the author asserts the contract holds — sharded
  /// simulation stays enabled.  Workloads without the waiver get the
  /// contract *proven* per launch or fall back to the bit-identical serial
  /// schedule.
  bool assume_disjoint = false;
};

/// Input scale: kSample instances are small (fast tuner probes); kFull
/// instances provide enough blocks to load all 15 SMs for timing runs.
enum class Scale { kSample, kFull };

/// Interpreter strategy knobs threaded into the ExecContext.  SoA vs the
/// scalar reference is bit-identical unconditionally — benches and
/// differential tests flip the knob to pin this.
struct RunOptions {
  bool use_soa = true;
  uint64_t* thread_insts = nullptr;  ///< out: executed thread instructions
  /// Cooperative cancellation/deadline checkpoint, polled at the start of
  /// every functional replay (a replay itself always runs to completion,
  /// so replays never leave partial state), which also counts the replay
  /// in the token's `replays`.  Null disables both.
  gpurf::common::CancelToken* cancel = nullptr;
};

class Workload {
 public:
  /// One prepared launch: memory contents, textures, parameters, geometry.
  struct Instance {
    gpurf::exec::GlobalMemory gmem;
    std::vector<gpurf::exec::Texture> textures;
    std::vector<uint32_t> params;
    gpurf::ir::LaunchConfig launch;
    uint32_t out_base = 0;   ///< result buffer (word address)
    size_t out_words = 0;
    int image_w = 0;         ///< SSIM metrics: output image dimensions
    int image_h = 0;
  };

  virtual ~Workload() = default;

  const WorkloadSpec& spec() const { return spec_; }
  const gpurf::ir::Kernel& kernel() const { return kernel_; }

  /// The kernel's execution analysis (CFG, ipdoms, decoded stream), built
  /// on first use and then shared by every run() and launch spec of this
  /// workload — safe under concurrent calls from parallel tuner probes.
  const std::shared_ptr<const gpurf::exec::KernelAnalysis>& analysis() const {
    std::call_once(analysis_once_, [&] {
      analysis_ = gpurf::exec::make_kernel_analysis(kernel_);
    });
    return analysis_;
  }

  /// Launch geometry of every instance at `scale`, whatever the variant.
  /// make_instance() builds its instances with it; the pipeline's range
  /// analysis reads it without building the inputs.
  virtual gpurf::ir::LaunchConfig launch(Scale scale) const = 0;

  /// Build a fresh deterministic instance.  `variant` selects among the
  /// representative sample inputs the tuner trains on (§4.1).
  virtual Instance make_instance(Scale scale, uint32_t variant) const = 0;

  /// Number of distinct sample variants for tuning.
  virtual uint32_t num_sample_variants() const { return 2; }

  /// Metric bound to an instance's output shape.
  std::unique_ptr<gpurf::quality::QualityMetric> make_metric(
      const Instance& inst) const;

  /// Run the kernel functionally on `inst` (mutating its memory, blocks in
  /// grid order on the calling thread) and return the output buffer.  `pmap` quantizes f32 register writes;
  /// `range_check` asserts integer writes stay in their analysed ranges.
  std::vector<float> run(Instance& inst, const gpurf::exec::PrecisionMap* pmap,
                         const analysis::RangeAnalysisResult* range_check =
                             nullptr,
                         const RunOptions& opt = {}) const;

  /// Static memory proofs for one launch shape: the disjointness verdicts
  /// gating sharded simulation, plus the per-instruction in-bounds flags
  /// the lint reports as proof coverage.
  /// Proofs depend on (launch geometry, params, gmem size), so they are
  /// cached per key — simulations of the same instance shape pay the
  /// solve once.
  struct MemProofs {
    analysis::MemoryAccessAnalysis mem;
    std::vector<uint8_t> proven;  ///< per flattened instruction
    uint32_t proven_sites = 0;    ///< memory sites proven in bounds
    uint64_t gmem_words = 0;
    bool shard_ok = false;  ///< loads_local && stores_disjoint, or waived
  };
  std::shared_ptr<const MemProofs> mem_proofs(const Instance& inst) const;

 protected:
  Workload(WorkloadSpec spec, std::string_view asm_text);

  WorkloadSpec spec_;
  gpurf::ir::Kernel kernel_;

 private:
  mutable std::shared_ptr<const gpurf::exec::KernelAnalysis> analysis_;
  mutable std::once_flag analysis_once_;
  /// Memory-proof cache, keyed by (launch, gmem words, params); guarded by
  /// mem_mu_ against concurrent callers (simulate jobs, analyze).
  mutable std::mutex mem_mu_;
  mutable std::map<std::string, std::shared_ptr<const MemProofs>> mem_cache_;
};

/// All eleven Table-4 workloads, in the paper's order.
std::vector<std::unique_ptr<Workload>> make_all_workloads();

/// Individual factories.
std::unique_ptr<Workload> make_deferred();
std::unique_ptr<Workload> make_ssao();
std::unique_ptr<Workload> make_elevated();
std::unique_ptr<Workload> make_pathtracer();
std::unique_ptr<Workload> make_cfd();
std::unique_ptr<Workload> make_dwt2d();
std::unique_ptr<Workload> make_hotspot();
std::unique_ptr<Workload> make_hotspot3d();
std::unique_ptr<Workload> make_imgvf();
std::unique_ptr<Workload> make_gicov();
std::unique_ptr<Workload> make_hybridsort();

}  // namespace gpurf::workloads
