#pragma once
// Lane-level operand codec: the §3.2 data path of one thread's operand
// between the compressed register file and the execution units.
//
//   encode_operand — the Value Truncator (§3.2.6): a narrow float is
//     encoded in its Table-3 format, then the data slices scatter into r0
//     (and r1 when split) together with their bitline-enable masks.
//   decode_operand — the read path: one Value Extractor pass per fetched
//     piece (§3.2.3), the collector unit's OR-merge (§3.2.4), padding or
//     sign extension, and the Value Converter (§3.2.5) for a narrow float.
//
// This is the only code that turns an indirection entry into TVT/TVE
// control.  rf::CompressedRegisterFile runs a warp's 32 lanes through it,
// and sim::SoftErrorModel strikes a stored bit between encode and decode.

#include <cstdint>

#include "alloc/slice_alloc.hpp"
#include "rf/value_truncator.hpp"

namespace gpurf::rf {

/// Reads of the operand pass through the Value Converter.
inline bool needs_conversion(const gpurf::alloc::IndirectionEntry& e) {
  return e.is_float && e.float_bits != 32;
}

/// Physical-register images of `value` and their write masks.
TruncateResult encode_operand(const gpurf::alloc::IndirectionEntry& e,
                              uint32_t value);

/// The 32-bit value of an operand whose r0 holds `data0` and r1 `data1`
/// (ignored unless the entry is split).
uint32_t decode_operand(const gpurf::alloc::IndirectionEntry& e,
                        uint32_t data0, uint32_t data1);

}  // namespace gpurf::rf
