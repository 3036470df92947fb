#pragma once
// Value Converter (paper §3.2.5).
//
// Expands a low-precision float operand (LSB-aligned bits in a Table-3
// format, as produced by the Value Extractor) to IEEE binary32 before it is
// forwarded to the execution units.  The hardware provides six parallel
// Warp Value Converters — enough for two dual-issued instructions with up
// to three float sources per cycle (§3.2.5; the §6.4 area model counts
// them) — each one a single-cycle gate network (§3.2.8: within the 0.71 ns
// Fermi cycle at 45 nm).

#include <cstdint>

#include "fp/format.hpp"

namespace gpurf::rf {

/// One thread-level conversion: narrow-format bits -> binary32 bits.
uint32_t tvc_convert(uint32_t narrow_bits, const gpurf::fp::FloatFormat& fmt);

}  // namespace gpurf::rf
