#pragma once
// Shared per-kernel execution analysis (ISSUE 1 tentpole, exec layer).
//
// BlockExec used to rebuild the CFG and recompute immediate post-dominators
// for every thread block it executed — once per grid block, per functional
// run, per tuner probe.  For a tuning session that is hundreds of thousands
// of identical recomputations of the same static facts.
//
// KernelAnalysis hoists everything the interpreter needs that depends only
// on the kernel text into one immutable, shareable object:
//   * the CFG and the ipdom vector (SIMT reconvergence points),
//   * a flattened decoded instruction stream: block-major, contiguous,
//     with per-instruction flags (has_dst, control class) predecoded so
//     the dispatch loop stops chasing the opcode-info table.
//
// The kernel's owner holds its analysis: a Workload builds one lazily and
// hands it to every replay (ExecContext::analysis) and launch spec
// (KernelLaunchSpec::analysis).  run_functional, BlockExec and
// sim::simulate build a private one only when the caller passed none.
// The decoded stream points into the kernel's instructions, so the kernel
// must outlive its analysis.

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/cfg.hpp"
#include "ir/kernel.hpp"

namespace gpurf::exec {

/// Fused (opcode, type) lane operation, resolved at decode time so the SoA
/// warp dispatcher switches exactly once per warp instruction (ISSUE 2).
/// Every variant the scalar exec_lane reference distinguishes at runtime
/// gets its own enumerator; the two paths must stay bit-for-bit equal.
enum class LaneOp : uint8_t {
  kAddF, kAddI, kSubF, kSubI, kMulF, kMulI, kMadF, kMadI,
  kDivF, kDivS, kDivU, kRemS, kRemU,
  kMinF, kMinS, kMinU, kMaxF, kMaxS, kMaxU,
  kAbsF, kAbsI, kNegF, kNegI,
  kAnd, kOr, kXor, kNot, kShl, kShrS, kShrU,
  kSin, kCos, kEx2, kLg2, kSqrt, kRsqrt, kRcp,
  kMov, kSelp,
  kCvtF2S, kCvtF2U, kCvtS2F, kCvtU2F, kCvtBits,
  kSetpF, kSetpS, kSetpU,
  kLdGlobal, kLdShared, kTex2d,
  kStore,    ///< ST_GLOBAL / ST_SHARED (handled by the store path)
  kControl,  ///< BRA / RET / BAR (no lane data path)
};

/// One predecoded instruction: the IR instruction plus the hot flags the
/// dispatch loop consults every step.
struct DecodedInst {
  const gpurf::ir::Instruction* in = nullptr;
  LaneOp lane_op = LaneOp::kControl;
  uint8_t num_srcs = 0;     ///< copied from the instruction (gather count)
  bool has_dst = false;
  bool is_store = false;    ///< ST_GLOBAL / ST_SHARED
  bool is_control = false;  ///< BRA / RET / BAR (no lane data path)
};

class KernelAnalysis {
 public:
  explicit KernelAnalysis(const gpurf::ir::Kernel& k);

  const analysis::Cfg& cfg() const { return cfg_; }
  const std::vector<uint32_t>& ipdom() const { return ipdom_; }

  /// Decoded instruction at (block, index) — contiguous block-major layout.
  const DecodedInst& inst(uint32_t blk, uint32_t idx) const {
    return decoded_[block_first_[blk] + idx];
  }
  uint32_t block_size(uint32_t blk) const { return block_size_[blk]; }
  uint32_t num_blocks() const { return static_cast<uint32_t>(block_size_.size()); }

 private:
  analysis::Cfg cfg_;
  std::vector<uint32_t> ipdom_;
  std::vector<DecodedInst> decoded_;
  std::vector<uint32_t> block_first_;
  std::vector<uint32_t> block_size_;
};

/// Build the analysis of `k`; out of line, to keep the hot paths small.
std::shared_ptr<const KernelAnalysis> make_kernel_analysis(
    const gpurf::ir::Kernel& k);

}  // namespace gpurf::exec
