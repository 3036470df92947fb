#pragma once
// Reduced-precision floating-point formats (paper Table 3).
//
// Every format mimics IEEE 754: one sign bit, `exp_bits` biased exponent
// bits, `man_bits` mantissa bits, +/-infinity and NaN encodings.  During
// conversion, rounding is round-to-nearest-even and denormals are flushed to
// zero (§3.2.5: "denormals are truncated to zero, which is safe as the same
// simplification is made in the precision selection step").
//
//   total bits:  32  28  24  20  16  12   8
//   exponent:     8   7   6   5   5   4   3
//   mantissa:    23  20  17  14  10   7   4
//
// The 32-bit format is IEEE binary32 itself and converts losslessly; the
// 16-bit format is IEEE binary16.  The others keep roughly the single-
// precision exponent/mantissa ratio (§5.2).

#include <array>
#include <cstdint>

namespace gpurf::fp {

struct FloatFormat {
  int total_bits = 32;
  int exp_bits = 8;
  int man_bits = 23;

  constexpr int bias() const { return (1 << (exp_bits - 1)) - 1; }
  constexpr int max_exp_field() const { return (1 << exp_bits) - 1; }
  constexpr int slices() const { return total_bits / 4; }
  constexpr bool is_fp32() const { return total_bits == 32; }

  bool operator==(const FloatFormat& o) const {
    return total_bits == o.total_bits && exp_bits == o.exp_bits &&
           man_bits == o.man_bits;
  }
};

/// Version of the Table-3 format set.  Bump whenever the formats above (or
/// their quantization semantics) change: on-disk precision-map caches embed
/// this so entries tuned against an older table are rejected as stale
/// instead of silently reinterpreted.
inline constexpr int kFormatTableVersion = 1;

/// The seven Table-3 formats ordered from widest (32) to narrowest (8).
const std::array<FloatFormat, 7>& table3_formats();

/// Look up the Table-3 format with the given total width; throws on widths
/// not in {32,28,24,20,16,12,8}.
FloatFormat format_for_bits(int total_bits);

/// Encode an IEEE binary32 value into `fmt`.  The result occupies the low
/// `fmt.total_bits` bits.  Overflow saturates to +/-infinity; values whose
/// magnitude falls below the smallest normal are flushed to +/-0; NaN maps
/// to a canonical quiet NaN.
uint32_t encode(float v, const FloatFormat& fmt);

/// Decode a value produced by encode() back to binary32 (exact: every
/// normal value of every Table-3 format is representable in binary32).
float decode(uint32_t bits, const FloatFormat& fmt);

/// decode(encode(v)) — the value that a register-file slice actually
/// stores.  This is the quantization applied on every f32 register write
/// when a precision assignment is active.  It rounds the binary32 bit
/// pattern once instead of encoding and decoding, and equals
/// decode(encode(v)) bit for bit on every input.
float quantize(float v, const FloatFormat& fmt);

/// True if quantize(v, fmt) reproduces v bit-exactly (NaN compares true
/// against NaN).
bool exactly_representable(float v, const FloatFormat& fmt);

/// Warp-wide quantization for the SoA interpreter: quantize the 32 lanes of
/// `bits` (binary32 bit patterns) in place, lane l only when bit l of `mask`
/// is set; inactive lanes keep their bits.  Bit-identical to calling
/// quantize() per active lane.  The lane loop is written as selects, with
/// no branch, so the compiler vectorizes it.
void quantize_warp(uint32_t* bits, uint32_t mask, const FloatFormat& fmt);

}  // namespace gpurf::fp
