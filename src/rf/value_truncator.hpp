#pragma once
// Value Truncator (paper §3.2.6, Fig. 5).
//
// Before writeback, a Thread Value Truncator (TVT):
//   Step 1 — if the operand is a narrow float, converts binary32 down to
//            its assigned Table-3 format (skipped for integers, whose low
//            bits are already correct by the range-analysis contract);
//   Step 2 — scatters the data slices to their assigned positions inside
//            up to two physical registers (two TVE-like networks);
//   Step 3 — forwards the compressed data together with the slice masks;
//            at writeback only the masked bit lines are activated so
//            co-resident operands in the other slices are preserved.
//
// The writeback bus is three instructions wide, so the block contains three
// Warp Value Truncators of 32 TVTs each (the §6.4 area model counts them).

#include <cstdint>

#include "fp/format.hpp"
#include "rf/slices.hpp"

namespace gpurf::rf {

/// Static per-operand writeback control (from the destination indirection
/// table + instruction annotation).
struct TruncateSpec {
  uint8_t mask0 = 0xff;      ///< slice mask in the first physical register
  uint8_t mask1 = 0;         ///< slice mask in the second (0 = not split)
  uint8_t data_slices = 8;
  bool is_float = false;
  gpurf::fp::FloatFormat float_fmt{};  ///< used when is_float
};

/// Result of one TVT: per-piece register image + bitline write masks.
struct TruncateResult {
  uint32_t data0 = 0;
  uint32_t bitmask0 = 0;  ///< 32-bit bitline-enable mask for piece 0
  uint32_t data1 = 0;
  uint32_t bitmask1 = 0;
};

TruncateResult tvt_truncate(uint32_t value32, const TruncateSpec& spec);

}  // namespace gpurf::rf
