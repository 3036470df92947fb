#pragma once
// End-to-end functional model of the compressed register file: banked
// storage plus the operand codec (rf/operand_codec.hpp) for each lane.  A
// read fetches r0 (and r1 when split) and decodes; a write encodes and
// drives only the operand's slices (slice-masked writeback).
//
// This model is the bit-accurate reference used by the integration tests:
// storing a value through write_operand() and reading it back through
// read_operand() must reproduce the value exactly for integers inside their
// analysed range, and quantized through its Table-3 format for floats —
// i.e. exactly what exec::PrecisionMap applies in the interpreter.

#include <cstdint>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "rf/register_file.hpp"

namespace gpurf::rf {

struct ReadStats {
  uint64_t fetches = 0;        ///< physical register fetches
  uint64_t double_fetches = 0; ///< reads needing two fetches (split operand)
  uint64_t conversions = 0;    ///< Value Converter activations
};

class CompressedRegisterFile {
 public:
  /// `warps` per-SM warp contexts; each warp gets its own copy of the
  /// kernel's physical register set.  The table must fit the indirection
  /// table: at most 256 entries, physical ids in 8 bits.
  CompressedRegisterFile(
      const std::vector<gpurf::alloc::IndirectionEntry>& table,
      uint32_t num_phys_regs, uint32_t warps);

  /// Write one warp-wide architectural register (32 binary32/int values).
  void write_operand(uint32_t warp, uint32_t arch_reg,
                     const WarpRegister& values);

  /// Read one warp-wide architectural register back through the full
  /// extract/convert path.
  WarpRegister read_operand(uint32_t warp, uint32_t arch_reg);

  const ReadStats& stats() const { return stats_; }
  const gpurf::alloc::IndirectionEntry& entry(uint32_t arch_reg) const {
    return table_.at(arch_reg);
  }

 private:
  uint32_t phys_index(uint32_t warp, uint32_t phys_reg) const {
    return warp * num_phys_ + phys_reg;
  }

  std::vector<gpurf::alloc::IndirectionEntry> table_;
  uint32_t num_phys_;
  BankedRegisterFile storage_;
  ReadStats stats_;
};

}  // namespace gpurf::rf
