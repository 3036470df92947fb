#pragma once
// Functional SIMT interpreter.
//
// Threads execute in warps of 32 in lockstep; control-flow divergence is
// handled with a reconvergence stack whose reconvergence points are the
// immediate post-dominators of the branching blocks — the same mechanism
// GPGPU-Sim models for the paper's baseline (§3.1).
//
// The interpreter serves two masters:
//  * standalone functional runs (reference outputs and the precision
//    tuner's quality probes), via run_functional();
//  * the cycle-level timing simulator, which drives warps one instruction
//    at a time through BlockExec::step() and reads back the memory trace
//    of each instruction for its cache / coalescing model.
//
// Execution model (ISSUE 2): the data path is warp-vectorized — operands
// are gathered into 32-wide struct-of-arrays rows, each predecoded LaneOp
// runs as one branch-free lane loop the compiler auto-vectorises, and the
// destination row is written back under the active mask.  The per-lane
// scalar path (exec_lane) is retained as the bit-identical reference for
// asserts and differential fuzzing (ExecContext::use_soa = false).
// Memory has one checked path in both masters: SoA loads and stores
// compute every active lane's address and test the warp against its
// buffer once (GlobalMemory::gather/scatter, BlockExec for shared
// memory); only a warp that fails the test replays lane by lane through
// the scalar path, so it raises the same gpurf::Error at the same lane
// after the same partial stores, and a wrapped global address (at or past
// 2^32, which the scalar path reads as a u32 word) loads the same word.
// run_functional() additionally shards independent grid blocks across the
// shared thread pool with per-shard write-combine buffers merged in grid
// order, so parallel runs stay bit-identical to the serial schedule.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/kernel_analysis.hpp"
#include "exec/machine.hpp"
#include "ir/kernel.hpp"

namespace gpurf::exec {

constexpr uint32_t kWarpSize = 32;

/// One reconvergence-stack entry: execute from (blk, inst) with `mask`
/// until reaching block `rpc_blk` (kNoBlock = kernel exit).
struct StackEntry {
  uint32_t blk = 0;
  uint32_t inst = 0;
  uint32_t rpc_blk = gpurf::ir::kNoBlock;
  uint32_t mask = 0;
};

/// Result of executing one warp instruction; consumed by the timing model.
struct StepResult {
  const gpurf::ir::Instruction* inst = nullptr;
  uint32_t active_mask = 0;  ///< lanes that actually executed
  bool warp_done = false;
  bool at_barrier = false;
  /// Memory trace: per-lane word address (global/shared) or texel index
  /// (texture); valid for lanes set in active_mask of memory instructions.
  std::array<uint32_t, kWarpSize> addr{};
};

class WarpState {
 public:
  WarpState(uint32_t num_regs, uint32_t warp_in_block, uint32_t valid_mask)
      : regs_(size_t(num_regs) * kWarpSize, 0),
        warp_in_block_(warp_in_block),
        valid_mask_(valid_mask) {
    stack_.push_back(
        StackEntry{0, 0, gpurf::ir::kNoBlock, valid_mask});
  }

  uint32_t reg(uint32_t r, uint32_t lane) const {
    return regs_[size_t(r) * kWarpSize + lane];
  }
  void set_reg(uint32_t r, uint32_t lane, uint32_t v) {
    regs_[size_t(r) * kWarpSize + lane] = v;
  }

  /// Contiguous 32-lane row of register `r` — the storage is already
  /// struct-of-arrays (register-major, lanes adjacent), so the SoA warp
  /// kernels gather and scatter whole rows with vector loads/stores.
  const uint32_t* lanes(uint32_t r) const {
    return regs_.data() + size_t(r) * kWarpSize;
  }

  bool done() const { return done_; }
  uint32_t warp_in_block() const { return warp_in_block_; }
  uint32_t valid_mask() const { return valid_mask_; }
  const std::vector<StackEntry>& stack() const { return stack_; }

 private:
  friend class BlockExec;
  std::vector<uint32_t> regs_;
  std::vector<StackEntry> stack_;
  uint32_t warp_in_block_;
  uint32_t valid_mask_;
  bool done_ = false;
};

/// Execution state of one thread block: its warps plus shared memory.
class BlockExec {
 public:
  BlockExec(ExecContext& ctx, uint32_t ctaid_x, uint32_t ctaid_y);

  uint32_t num_warps() const { return static_cast<uint32_t>(warps_.size()); }
  const WarpState& warp(uint32_t w) const { return warps_[w]; }
  /// Mutable warp state — the soft-error injector's write path (PR 7):
  /// the timing simulator flips bits of resident registers between cycles.
  WarpState& warp_mut(uint32_t w) { return warps_[w]; }
  bool warp_done(uint32_t w) const { return warps_[w].done(); }
  bool all_done() const;

  /// The instruction the warp will execute next (nullptr when done).
  const gpurf::ir::Instruction* peek(uint32_t w) const;

  /// Predecoded view of the next instruction (nullptr when done) — lets the
  /// timing simulator reuse the decoded-stream flags instead of re-deriving
  /// opcode classes per issue attempt.
  const DecodedInst* peek_decoded(uint32_t w) const;

  /// Execute exactly one warp instruction.
  StepResult step(uint32_t w);

  /// Run the whole block functionally, respecting barriers by rotating
  /// between warps at barrier boundaries.
  void run_to_completion();

 private:
  uint32_t read_operand(const WarpState& ws, const gpurf::ir::Operand& o,
                        uint32_t lane) const;
  void write_dst(WarpState& ws, const gpurf::ir::Instruction& in,
                 uint32_t lane, uint32_t raw);
  uint32_t special_value(gpurf::ir::Special s, uint32_t warp_in_block,
                         uint32_t lane) const;
  uint32_t exec_lane(const WarpState& ws, const gpurf::ir::Instruction& in,
                     uint32_t lane, StepResult& res) const;
  // SoA warp data path (default): operands gathered into 32-wide rows, one
  // branch-free lane loop per fused LaneOp, masked row write-back.
  void gather_operand(const WarpState& ws, const gpurf::ir::Operand& o,
                      uint32_t* out) const;
  void exec_warp(WarpState& ws, const DecodedInst& dec, uint32_t exec_mask,
                 StepResult& res);
  void write_dst_warp(WarpState& ws, const gpurf::ir::Instruction& in,
                      uint32_t exec_mask, const uint32_t* vals);
  void advance(WarpState& ws, const gpurf::ir::Instruction& in,
               uint32_t exec_mask, StepResult& res);
  void pop_reconverged(WarpState& ws);

  // Stores.  store_warp is the SoA path: one bounds test for the whole
  // warp, then the scatter; it returns false — having written nothing —
  // when some active lane is out of bounds.  store_lanes is the per-lane
  // reference loop (scalar mode, and the SoA fallback): it writes lane by
  // lane and raises its error at the first lane its own check rejects,
  // which a global address at or past 2^32 passes as its u32 wrap.
  bool store_warp(const WarpState& ws, const gpurf::ir::Instruction& in,
                  uint32_t exec_mask, StepResult& res);
  void store_lanes(const WarpState& ws, const gpurf::ir::Instruction& in,
                   uint32_t exec_mask, StepResult& res);

  ExecContext& ctx_;
  const gpurf::ir::Kernel& k_;
  /// Shared immutable analysis (CFG, ipdoms, decoded instruction stream);
  /// from ctx.analysis when provided, else the process-wide cache.
  std::shared_ptr<const KernelAnalysis> ka_;
  uint32_t ctaid_x_, ctaid_y_;
  std::vector<WarpState> warps_;
  std::vector<uint32_t> shared_;
};

/// Run the entire grid functionally (block by block).  Returns the total
/// number of thread instructions executed.
uint64_t run_functional(ExecContext& ctx);

}  // namespace gpurf::exec
