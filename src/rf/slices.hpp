#pragma once
// Slice-placement primitives shared by the Value Extractor and the Value
// Truncator (paper §3.2.3 / §3.2.6).
//
// Convention (fixed by the register allocator, see alloc/slice_alloc.hpp):
// an operand with n data slices numbers them 0..n-1 from the LSB.  Data
// slices map in order onto the set bits of mask m0 (ascending bit position)
// within physical register r0, then onto the set bits of m1 within r1.

#include <cstdint>

#include "common/error.hpp"

namespace gpurf::rf {

constexpr int kSlicesPerReg = 8;
constexpr int kSliceBits = 4;
/// Indirection entries name physical registers in 8-bit fields (Fig. 2),
/// so the compressed file addresses 256 physical registers per warp.
constexpr uint32_t kPhysRegs = 1u << 8;

/// Extract the 4-bit slice `s` of `word`.
inline uint32_t get_slice(uint32_t word, int s) {
  GPURF_ASSERT(s >= 0 && s < kSlicesPerReg, "slice index " << s);
  return (word >> (s * kSliceBits)) & 0xfu;
}

/// Return `word` with slice `s` replaced by the low nibble of `v`.
inline uint32_t set_slice(uint32_t word, int s, uint32_t v) {
  GPURF_ASSERT(s >= 0 && s < kSlicesPerReg, "slice index " << s);
  const uint32_t sh = static_cast<uint32_t>(s * kSliceBits);
  return (word & ~(0xfu << sh)) | ((v & 0xfu) << sh);
}

/// Expand an 8-bit slice mask into a 32-bit bit mask (bitline enables).
inline uint32_t slice_mask_to_bits(uint8_t mask) {
  uint32_t out = 0;
  for (int s = 0; s < kSlicesPerReg; ++s)
    if (mask & (1u << s)) out |= 0xfu << (s * kSliceBits);
  return out;
}

/// Scatter: place data slices [first_data_slice ...) of `value` into the
/// set-bit positions of `mask`, producing the physical-register image.
/// Returns only the written slices (other slices zero); pair with
/// slice_mask_to_bits(mask) for a masked write.
inline uint32_t scatter_slices(uint32_t value, uint8_t mask,
                               int first_data_slice) {
  uint32_t out = 0;
  int j = first_data_slice;
  for (int s = 0; s < kSlicesPerReg; ++s) {
    if (mask & (1u << s)) {
      out = set_slice(out, s, get_slice(value, j));
      ++j;
    }
  }
  return out;
}

/// Gather: collect the slices of `data` selected by `mask` (ascending) and
/// deposit them into the output starting at data-slice `first_data_slice`.
/// This is one TVE pass over one fetched physical register (Fig. 3).
inline uint32_t gather_slices(uint32_t data, uint8_t mask,
                              int first_data_slice) {
  uint32_t out = 0;
  int j = first_data_slice;
  for (int s = 0; s < kSlicesPerReg; ++s) {
    if (mask & (1u << s)) {
      out = set_slice(out, j, get_slice(data, s));
      ++j;
    }
  }
  return out;
}

}  // namespace gpurf::rf
