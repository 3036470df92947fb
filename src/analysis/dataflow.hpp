#pragma once
// Instruction-granular dataflow over the decoded stream (PR 9 tentpole).
//
// `liveness.*` answers block-level questions (live-in/out, pressure,
// interference); this layer refines them to *program points* so that
// downstream consumers can reason per instruction:
//
//  * the soft-error model resolves a strike to the registers live at the
//    warp's position and integrates the live-bit exposure
//    (SimStats::soft_live_bit_cycles) over the same per-point sets;
//  * gpurf-lint / {"op":"analyze"} surface the same facts as a KernelReport
//    (dead writes from dead_dst, never-read registers from use_count).
//
// Point layout (shared with sim::SoftErrorModel): per block `size + 1`
// points, flattened block-major.  Point i of a block is "about to execute
// instruction i"; point `size` is the block's live-out.  The per-point
// transfer handles partial (guarded) definitions precisely: a guarded def
// merges into its destination, so it does not kill the old value — the
// destination is live before such a def exactly when it is live after it.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/liveness.hpp"
#include "common/bitset.hpp"
#include "ir/kernel.hpp"

namespace gpurf::analysis {

struct Dataflow {
  /// Block-level results this refinement started from.
  Liveness block;

  /// Per-point live sets, flattened block-major (one extra live-out point
  /// per block).  Index with point_index().
  std::vector<DynBitset> live_before;
  std::vector<uint32_t> point_first;  ///< per block: first point index
  std::vector<uint32_t> inst_first;   ///< per block: first instruction index
  std::vector<uint32_t> block_size;   ///< per block: instruction count

  /// Per instruction (flattened block-major): the destination is dead
  /// immediately after the write — nothing can ever read it (the lint's
  /// dead-write findings).  Precise for partial defs too: if the merged
  /// value is dead, so is the old value it merged with.
  std::vector<uint8_t> dead_dst;

  /// Def-use chain summary per register: how many instructions define /
  /// read it (guard reads count as uses).
  std::vector<uint32_t> def_count;
  std::vector<uint32_t> use_count;

  uint32_t num_points = 0;
  uint32_t num_insts = 0;

  /// Point index of (blk, inst); `inst == block_size[blk]` addresses the
  /// live-out point.  Out-of-range inputs clamp (mirrors the soft-error
  /// model's contract for warps parked past the last instruction).
  uint32_t point_index(uint32_t blk, uint32_t inst) const {
    if (blk >= block_size.size()) return num_points - 1;
    if (inst > block_size[blk]) inst = block_size[blk];
    return point_first[blk] + inst;
  }

  bool live_at(uint32_t blk, uint32_t inst, uint32_t reg) const {
    const DynBitset& s = live_before[point_index(blk, inst)];
    return reg < s.size() && s.test(reg);
  }

  bool dst_dead(uint32_t blk, uint32_t inst) const {
    return dead_dst[inst_first[blk] + inst] != 0;
  }
};

Dataflow compute_dataflow(const gpurf::ir::Kernel& k, const Cfg& cfg);

/// One statically-dead write site.
struct DeadWrite {
  uint32_t blk = 0;
  uint32_t inst = 0;
  uint32_t reg = 0;

  bool operator==(const DeadWrite&) const = default;
};

/// One static out-of-bounds finding (ISSUE 10): a memory access whose
/// statically derived address interval is not contained in its buffer.
/// `definite` means the whole interval lies outside (the dynamic bounds
/// check fires on every execution of the site); otherwise only part of
/// the interval escapes — or the address is statically unknown
/// (`addr_known` false) — and the finding is a warning.
struct OobFinding {
  uint32_t blk = 0;
  uint32_t inst = 0;       ///< index within blocks[blk].insts
  bool is_store = false;
  bool shared = false;     ///< shared-memory access (else global)
  bool definite = false;
  bool addr_known = false; ///< static interval exact (lo/hi meaningful)
  int64_t lo = 0;          ///< word-address interval, valid if addr_known
  int64_t hi = 0;

  bool operator==(const OobFinding&) const = default;
};

/// Kernel verifier/lint summary (gpurf-lint, {"op":"analyze"}).
struct KernelReport {
  std::string kernel;
  uint32_t num_regs = 0;
  uint32_t num_blocks = 0;
  uint32_t num_insts = 0;

  /// Paper §2 pressure: max simultaneously live data registers.
  uint32_t static_pressure = 0;
  /// Whole-kernel colouring pressure (alloc::baseline_pressure) — filled
  /// by callers that may depend on the alloc layer; 0 = not computed.
  uint32_t alloc_pressure = 0;

  /// Register names indexed by reg id (diagnostics; ids elsewhere).
  std::vector<std::string> reg_names;

  /// Registers read on some path before any definition (entry live-in).
  std::vector<uint32_t> undefined_reads;
  /// Writes whose destination is dead at the write point.
  std::vector<DeadWrite> dead_writes;
  /// Registers that appear in the program but are never read.
  std::vector<uint32_t> never_read;

  // --- Static memory-access analysis (ISSUE 10).  Filled by
  // analysis::apply_memory_findings; mem_analyzed gates all of it.  The
  // workload path supplies full instance context (launch geometry, params,
  // global-memory size); a bare kernel is analysed at the default launch
  // with gmem_words = 0, which disables global OOB classification.
  bool mem_analyzed = false;
  uint64_t gmem_words = 0;  ///< 0 = no instance context for global OOB
  uint32_t mem_insts = 0;   ///< memory access sites in the kernel
  uint32_t mem_proven = 0;  ///< sites statically proven in bounds
  std::vector<OobFinding> oob_errors;    ///< definite OOB (always traps)
  std::vector<OobFinding> oob_warnings;  ///< possible OOB (unproven)
  /// Sharded-simulation contract verdicts over per-block footprints.
  bool footprints_computed = false;
  bool stores_disjoint = false;  ///< no two blocks store to the same word
  bool loads_local = false;      ///< no block reads another block's stores
  bool disjoint_waived = false;  ///< WorkloadSpec::assume_disjoint
  /// Per-block footprint as an affine function of block id (empty when the
  /// footprint is not affine or was not computed), e.g. "[0+192b, 191+192b]".
  std::string store_affine;
  std::string load_affine;

  bool clean() const { return undefined_reads.empty(); }
};

/// Assemble the report's analysis-layer fields (alloc_pressure stays 0 —
/// callers with access to alloc:: fill it).
KernelReport build_kernel_report(const gpurf::ir::Kernel& k, const Cfg& cfg,
                                 const Dataflow& df);

}  // namespace gpurf::analysis
