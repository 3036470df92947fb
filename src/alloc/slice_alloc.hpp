#pragma once
// Register allocation (paper §4.3).
//
// Two allocators share the liveness/interference machinery:
//
//  * Baseline: classic graph colouring at 32-bit granularity — its colour
//    count is the per-thread register pressure of an uncompressed register
//    file (the "Original" bars of Fig. 9).
//
//  * Slice packing: every architectural register is annotated with a slice
//    count (4-bit slices) from the integer range analysis and/or the float
//    precision tuner; the allocator packs these fragments into 8-slice
//    physical registers, splitting an operand across at most two physical
//    registers to fight fragmentation (§4.3).  The output is the content of
//    the indirection table: per architectural register up to two (physical
//    register, slice mask) pairs plus the signedness/type flags consumed by
//    the Value Extractor and Value Truncator.
//
// Non-interfering registers may share physical slices; the indirection
// table is static per kernel (§3.2), which is sound because entries of
// registers with disjoint live ranges may alias the same storage.
//
// Fault-directed redirection (PR 6, RRCD-style): an optional
// rf::FaultMap marks permanently broken 4-bit slices; the allocator
// simply never hands those slice-columns out, so operands are redirected
// into the space static compression freed.  An operand that the usable
// slices of the 256-register file cannot hold in <= 2 pieces fails the
// allocation with gpurf::Error naming the register.  With an empty fault
// map the placement is bit-identical to the fault-free allocator.

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/range_analysis.hpp"
#include "exec/machine.hpp"
#include "ir/kernel.hpp"

namespace gpurf::rf {
class FaultMap;
}

namespace gpurf::alloc {

/// One (physical register, slice mask) piece of an operand's storage.
struct SliceLoc {
  uint32_t phys_reg = 0;
  uint8_t mask = 0;  ///< which 4-bit slices of the physical register

  bool operator==(const SliceLoc&) const = default;
};

/// Indirection-table entry for one architectural register (paper Fig. 2:
/// two physical registers r0/r1 with masks m0/m1, packed into 32 bits).
struct IndirectionEntry {
  bool valid = false;
  SliceLoc r0;
  SliceLoc r1;       ///< second piece when split
  bool split = false;
  uint8_t slices = 8;     ///< total data slices of the operand
  bool is_signed = false; ///< sign-extend on extraction (narrow s32)
  bool is_float = false;  ///< needs Value Converter on read / Truncator on write
  uint8_t float_bits = 32;  ///< Table-3 format width when is_float
  /// Placement shares a physical register with >= 1 faulty slice: the
  /// operand was steered around the fault (RRCD redirection) and its
  /// accesses pay CompressionConfig::fault_redirection_cycles.
  bool redirected = false;

  bool operator==(const IndirectionEntry&) const = default;
};

struct AllocOptions {
  bool pack_ints = true;    ///< use range-analysis widths for integer regs
  bool pack_floats = true;  ///< use precision-map widths for f32 regs
  /// Permanent-fault map (nullable = fault-free).  Faulty slices are never
  /// allocated; see the redirection note at the top of this header.
  const gpurf::rf::FaultMap* faults = nullptr;
};

struct AllocationResult {
  std::vector<IndirectionEntry> table;  ///< indexed by architectural reg id
  uint32_t num_physical_regs = 0;       ///< compressed register pressure
  uint32_t total_slices = 0;            ///< sum of operand slice counts
  uint32_t split_operands = 0;          ///< operands split across 2 regs

  // Fault-tolerance outcome (all zero with a null/empty fault map).
  uint32_t registers_redirected = 0;  ///< placed despite sharing a faulty reg
  uint32_t faulty_slices_avoided = 0; ///< faulty slices inside the footprint

  /// Fraction of allocated physical slices actually holding data.
  double packing_density() const {
    return num_physical_regs == 0
               ? 1.0
               : double(total_slices) / (8.0 * num_physical_regs);
  }

  bool operator==(const AllocationResult&) const = default;
};

/// Baseline 32-bit pressure: graph-colouring register count.
uint32_t baseline_pressure(const gpurf::ir::Kernel& k);

/// Slice-packing allocation.  `ranges` may be null when !opt.pack_ints;
/// `pmap` may be null when !opt.pack_floats.  Throws gpurf::Error when an
/// operand fits nowhere in the 256-register file.
AllocationResult allocate_slices(const gpurf::ir::Kernel& k,
                                 const analysis::RangeAnalysisResult* ranges,
                                 const exec::PrecisionMap* pmap,
                                 const AllocOptions& opt);

}  // namespace gpurf::alloc
