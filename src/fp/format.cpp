#include "fp/format.hpp"

#include <cmath>

#include "common/bitutil.hpp"
#include "common/error.hpp"

namespace gpurf::fp {

const std::array<FloatFormat, 7>& table3_formats() {
  static const std::array<FloatFormat, 7> kFormats = {{
      {32, 8, 23},
      {28, 7, 20},
      {24, 6, 17},
      {20, 5, 14},
      {16, 5, 10},
      {12, 4, 7},
      {8, 3, 4},
  }};
  return kFormats;
}

FloatFormat format_for_bits(int total_bits) {
  for (const auto& f : table3_formats())
    if (f.total_bits == total_bits) return f;
  GPURF_CHECK(false, "no Table-3 float format with " << total_bits << " bits");
  return {};
}

uint32_t encode(float v, const FloatFormat& fmt) {
  const uint32_t raw = float_bits(v);
  if (fmt.is_fp32()) return raw;

  const uint32_t sign = raw >> 31;
  const int exp = static_cast<int>((raw >> 23) & 0xff);
  const uint32_t man = raw & 0x7fffff;

  const int mb = fmt.man_bits;
  const uint32_t sign_shifted = sign << (fmt.total_bits - 1);
  const uint32_t exp_mask_target = static_cast<uint32_t>(fmt.max_exp_field());

  if (exp == 0xff) {
    // Inf / NaN: all-ones exponent in the target too.
    uint32_t out = sign_shifted | (exp_mask_target << mb);
    if (man != 0) out |= (1u << (mb - 1));  // canonical quiet NaN
    return out;
  }
  if (exp == 0) {
    // binary32 denormal (or zero): flush to signed zero.
    return sign_shifted;
  }

  // Normal number: re-bias the exponent, round the mantissa (RNE).
  int e_target = exp - 127 + fmt.bias();
  uint32_t m = man;
  const int drop = 23 - mb;
  uint32_t m_hi = m >> drop;
  const uint32_t round_bit = (m >> (drop - 1)) & 1u;
  const uint32_t sticky = m & low_mask(drop - 1);
  if (round_bit && (sticky != 0 || (m_hi & 1u))) {
    ++m_hi;
    if (m_hi == (1u << mb)) {  // mantissa overflow: 1.111.. -> 10.000..
      m_hi = 0;
      ++e_target;
    }
  }

  if (e_target >= fmt.max_exp_field()) {
    // Overflow: saturate to infinity.
    return sign_shifted | (exp_mask_target << mb);
  }
  if (e_target <= 0) {
    // Would be a target denormal: flush to zero.
    return sign_shifted;
  }
  return sign_shifted | (static_cast<uint32_t>(e_target) << mb) | m_hi;
}

float decode(uint32_t bits, const FloatFormat& fmt) {
  if (fmt.is_fp32()) return bits_float(bits);

  const int mb = fmt.man_bits;
  const uint32_t sign = (bits >> (fmt.total_bits - 1)) & 1u;
  const uint32_t e = (bits >> mb) & static_cast<uint32_t>(fmt.max_exp_field());
  const uint32_t m = bits & low_mask(mb);

  if (e == 0) {
    // Zero (denormals are never produced by encode).
    return bits_float(sign << 31);
  }
  if (e == static_cast<uint32_t>(fmt.max_exp_field())) {
    if (m == 0) return bits_float((sign << 31) | 0x7f800000u);  // inf
    return bits_float((sign << 31) | 0x7fc00000u);              // quiet NaN
  }
  const int exp32 = static_cast<int>(e) - fmt.bias() + 127;
  GPURF_ASSERT(exp32 > 0 && exp32 < 255,
               "re-biased exponent escaped binary32 range");
  const uint32_t man32 = m << (23 - mb);
  return bits_float((sign << 31) | (static_cast<uint32_t>(exp32) << 23) |
                    man32);
}

namespace {

/// One narrow format's rounding, in binary32 bit-pattern terms.  Rounding
/// the magnitude bits to `man_bits` mantissa bits lets a mantissa carry run
/// into the exponent field, as encode()'s mantissa overflow does, and the
/// re-biased exponent limits become plain magnitude thresholds.
struct Rounding {
  uint32_t drop;        ///< mantissa bits the format drops (23 - man_bits)
  uint32_t half_less;   ///< half the dropped range minus one
  uint32_t keep;        ///< mask that clears the dropped bits
  uint32_t min_normal;  ///< smallest normal of the format; below -> +/-0
  uint32_t inf_at;      ///< first magnitude past the largest finite value
};

Rounding rounding_of(const FloatFormat& fmt) {
  const uint32_t drop = 23u - static_cast<uint32_t>(fmt.man_bits);
  // With bias 2^(exp_bits-1) - 1, the normals' unbiased exponents run
  // from 2 - 2^(exp_bits-1) to 2^(exp_bits-1) - 1: binary32 exponent
  // fields 129 - 2^(exp_bits-1) to 126 + 2^(exp_bits-1).
  const uint32_t half_range = 1u << (fmt.exp_bits - 1);
  return {drop, (1u << (drop - 1)) - 1u, ~((1u << drop) - 1u),
          (129u - half_range) << 23, (127u + half_range) << 23};
}

/// decode(encode(x)) on the binary32 bit pattern `x`, as selects only (no
/// branch), so the warp loop below vectorizes.  Adding half the dropped
/// range minus one, plus the kept LSB, then clearing the dropped bits
/// rounds to nearest with ties to even.  Then encode()'s rules: a result
/// at or past the format's range saturates to infinity (Inf itself stays
/// Inf), one below its smallest normal flushes to zero (binary32
/// denormals included), and NaN becomes the quiet NaN; the sign is kept.
inline uint32_t round_bits(uint32_t x, const Rounding& r) {
  const uint32_t mag = x & 0x7fffffffu;
  uint32_t q = (mag + r.half_less + ((mag >> r.drop) & 1u)) & r.keep;
  q = q >= r.inf_at ? 0x7f800000u : q;
  q = q < r.min_normal ? 0u : q;
  q = mag > 0x7f800000u ? 0x7fc00000u : q;
  return (x & 0x80000000u) | q;
}

/// Bit l of a warp mask: a table load, not a per-lane variable shift, so
/// the masked loop vectorizes without AVX2.
alignas(64) constexpr uint32_t kLaneBit[32] = {
    1u << 0,  1u << 1,  1u << 2,  1u << 3,  1u << 4,  1u << 5,  1u << 6,
    1u << 7,  1u << 8,  1u << 9,  1u << 10, 1u << 11, 1u << 12, 1u << 13,
    1u << 14, 1u << 15, 1u << 16, 1u << 17, 1u << 18, 1u << 19, 1u << 20,
    1u << 21, 1u << 22, 1u << 23, 1u << 24, 1u << 25, 1u << 26, 1u << 27,
    1u << 28, 1u << 29, 1u << 30, 1u << 31};

}  // namespace

float quantize(float v, const FloatFormat& fmt) {
  if (fmt.is_fp32()) return v;
  return bits_float(round_bits(float_bits(v), rounding_of(fmt)));
}

bool exactly_representable(float v, const FloatFormat& fmt) {
  const float q = quantize(v, fmt);
  if (std::isnan(v)) return std::isnan(q);
  return float_bits(q) == float_bits(v);
}

// Starts on a 64-byte line, like the interpreter's warp-wide hot path
// that calls it (exec/interp.cpp says why).
[[gnu::aligned(64)]]
void quantize_warp(uint32_t* bits, uint32_t mask, const FloatFormat& fmt) {
  if (fmt.is_fp32()) return;
  const Rounding r = rounding_of(fmt);
  for (int l = 0; l < 32; ++l) {
    const uint32_t q = round_bits(bits[l], r);
    bits[l] = (mask & kLaneBit[l]) ? q : bits[l];
  }
}

}  // namespace gpurf::fp
