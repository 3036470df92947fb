#pragma once
// Static memory-access analysis (ISSUE 10): per-instruction address bounds
// and per-block store/load footprints, derived from the same Pereira-style
// constraint solver the paper uses for value ranges (§4.2) — extended from
// "how many bits does this register need" to "which words can this
// instruction touch".
//
// Inputs beyond the kernel text: the LaunchConfig (seeds %tid/%ctaid) and,
// critically, the exact parameter words of one launch — buffer base
// addresses arrive as plain integer params with no useful declared range,
// so without value seeding nothing about global memory is provable.  The
// replay engine knows the params before execution starts, which is what
// makes this a *static* pre-execution analysis of a *concrete* launch.
//
// Two consumers (the interpreter itself always checks bounds, once per
// warp):
//   * gating    — stores_disjoint / loads_local verdicts let Workload::run
//                 and Engine::simulate choose block-parallel / sharded
//                 execution only when the documented memory contract
//                 (sim/gpu.hpp) is statically verified (or waived);
//   * lint      — prove_in_bounds() coverage, definite / possible OOB
//                 findings and overlap verdicts surface through
//                 KernelReport, gpurf-lint and the daemon.
//
// Soundness rules inherited from the interpreter's address arithmetic
// (`addr = (int64)(u32)reg + mem_offset`):
//   * a solved value interval maps to an address interval only when it
//     already fits u32 ([0, 2^32-1]); anything else may wrap at the u32
//     reinterpretation and widens to full u32;
//   * unreachable sites (never renamed from entry) can never execute and
//     are trivially proven;
//   * TEX2D is clamp-addressed and read-only — excluded by construction.
//
// Per-block footprints re-run the solver once per block with %ctaid pinned
// to that block's coordinates; grids larger than `max_blocks` leave the
// disjointness verdicts unproven (the caller falls back to the serial
// path).  Footprints that form an affine progression in the linear block
// id are summarised in stride/offset form.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/interval.hpp"
#include "analysis/range_analysis.hpp"
#include "ir/kernel.hpp"

namespace gpurf::analysis {

/// Word size of a kernel's (static) shared-memory image.  Must match
/// BlockExec's allocation exactly — the interpreter and the prover have to
/// agree on what "in bounds" means.
inline uint64_t shared_words(const gpurf::ir::Kernel& k) {
  return (k.shared_bytes + 3) / 4 + 1;
}

/// One static memory instruction (global or shared load/store).
struct MemAccess {
  uint32_t blk = 0;
  uint32_t inst = 0;   ///< index within blocks[blk].insts
  uint32_t flat = 0;   ///< block-major flattened index (DecodedInst::flat)
  bool is_store = false;
  bool is_global = false;  ///< global vs shared address space
  int64_t mem_offset = 0;
  bool reached = true;     ///< statically reachable from entry
  /// Effective word-address interval (u32 reinterpretation + mem_offset
  /// applied) over the whole launch.  Meaningful only when addr_known.
  Interval addr = Interval::empty();
  bool addr_known = false;  ///< no u32 wrap — `addr` soundly bounds every
                            ///< dynamic address of this site
};

/// Whole-block footprint as an affine function of the linear block id b
/// (b = ctaid.y * grid_x + ctaid.x):  F(b) = [lo0 + stride*b,
/// hi0 + stride*b].  `valid` only when every checked block fits exactly.
struct AffineFootprint {
  bool valid = false;
  int64_t lo0 = 0;
  int64_t hi0 = 0;
  int64_t stride = 0;

  std::string to_string() const;
};

struct MemoryAccessOptions {
  /// Exact runtime parameter words of the launch (base addresses).  Null
  /// leaves params at their declared contracts — shared-memory proofs
  /// still work, global ones almost never do.
  const std::vector<uint32_t>* param_values = nullptr;
  /// Cap on per-block footprint solves; grids beyond it leave the
  /// disjointness verdicts unproven.
  uint32_t max_blocks = 4096;
  /// Skip the per-block footprint solves entirely (bare-kernel lint,
  /// which has no meaningful grid to prove disjointness over).
  bool footprints = true;
};

struct MemoryAccessAnalysis {
  /// Every LD/ST site, block-major (TEX2D excluded).
  std::vector<MemAccess> accesses;
  uint32_t num_global = 0;
  uint32_t num_shared = 0;
  uint32_t num_insts = 0;  ///< total flattened instructions in the kernel

  // --- launch-wide disjointness verdicts (global space only; shared
  // memory is private per block by construction) ---
  bool footprints_computed = false;  ///< per-block solves ran for all blocks
  uint32_t blocks_checked = 0;
  /// No global word is stored by two different blocks.
  bool stores_disjoint = false;
  /// No block loads a global word another block stores (the block-parallel
  /// replay contract; weaker than stores_disjoint + loads_local combined
  /// being the sharded-sim contract).
  bool loads_local = false;

  /// Per-block merged footprint hulls (diagnostics; size == blocks_checked
  /// when footprints_computed).  Empty interval = block touches nothing.
  std::vector<Interval> store_hull;
  std::vector<Interval> load_hull;
  AffineFootprint store_affine;
  AffineFootprint load_affine;
};

MemoryAccessAnalysis analyze_memory_accesses(
    const gpurf::ir::Kernel& k, const gpurf::ir::LaunchConfig& lc,
    const MemoryAccessOptions& opts = {});

/// Per-flattened-instruction proof flags: out[flat] == 1 iff that site's
/// every dynamic address is statically proven inside its target space
/// (`gmem_words` for global, shared_words(k) for shared — pass the exact
/// image sizes the interpreter will run against).  Non-memory instructions
/// stay 0.  Sites never reached are proven (they cannot execute).
std::vector<uint8_t> prove_in_bounds(const MemoryAccessAnalysis& ma,
                                     uint64_t gmem_words,
                                     uint64_t shared_word_count);

struct KernelReport;  // dataflow.hpp

/// Fill a KernelReport's static-memory section (lint consumer): proof
/// coverage counts, definite / possible OOB findings classified against
/// the given image sizes (gmem_words == 0 skips global classification —
/// no instance context), and the disjointness verdicts.  `proven` is
/// prove_in_bounds() output for the same sizes; `waived` mirrors the
/// workload's assume_disjoint flag into the report.
void apply_memory_findings(KernelReport& rep, const MemoryAccessAnalysis& ma,
                           const std::vector<uint8_t>& proven,
                           uint64_t gmem_words, uint64_t shared_word_count,
                           bool waived);

}  // namespace gpurf::analysis
