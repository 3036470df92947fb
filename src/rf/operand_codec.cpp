#include "rf/operand_codec.hpp"

#include <bit>

#include "fp/format.hpp"
#include "rf/value_converter.hpp"
#include "rf/value_extractor.hpp"

namespace gpurf::rf {

using gpurf::alloc::IndirectionEntry;

TruncateResult encode_operand(const IndirectionEntry& e, uint32_t value) {
  TruncateSpec spec;
  spec.mask0 = e.r0.mask;
  spec.mask1 = e.split ? e.r1.mask : 0;
  spec.data_slices = e.slices;
  spec.is_float = e.is_float;
  if (e.is_float) spec.float_fmt = gpurf::fp::format_for_bits(e.float_bits);
  return tvt_truncate(value, spec);
}

uint32_t decode_operand(const IndirectionEntry& e, uint32_t data0,
                        uint32_t data1) {
  const ExtractSpec first{e.r0.mask, 0, e.slices, e.is_signed};
  uint32_t merged = tve_extract_piece(data0, first);
  if (e.split) {
    ExtractSpec second = first;
    second.mask = e.r1.mask;
    second.first_slice = static_cast<uint8_t>(std::popcount(e.r0.mask));
    // The collector unit's OR gate merges the two partial operands.
    merged |= tve_extract_piece(data1, second);
  }
  merged = tve_finalize(merged, first);
  if (needs_conversion(e))
    merged = tvc_convert(merged, gpurf::fp::format_for_bits(e.float_bits));
  return merged;
}

}  // namespace gpurf::rf
