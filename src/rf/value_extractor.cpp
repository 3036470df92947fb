#include "rf/value_extractor.hpp"

namespace gpurf::rf {

uint32_t tve_extract_piece(uint32_t fetched, const ExtractSpec& spec) {
  return gather_slices(fetched, spec.mask, spec.first_slice);
}

uint32_t tve_finalize(uint32_t merged, const ExtractSpec& spec) {
  const int n = spec.data_slices;
  if (n >= kSlicesPerReg) return merged;
  if (!spec.is_signed) return merged;  // zero padding is already in place
  // The sign bit is the top bit of the last data slice; the 2:1 mux picks
  // 0x0 or 0xF nibbles for every slice above it.
  const uint32_t sign_bit = (merged >> (n * kSliceBits - 1)) & 1u;
  if (!sign_bit) return merged;
  uint32_t out = merged;
  for (int s = n; s < kSlicesPerReg; ++s) out = set_slice(out, s, 0xf);
  return out;
}

uint32_t tve_extract(uint32_t fetched, const ExtractSpec& spec) {
  return tve_finalize(tve_extract_piece(fetched, spec), spec);
}

}  // namespace gpurf::rf
