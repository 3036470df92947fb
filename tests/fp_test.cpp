// Tests for the Table-3 reduced-precision float formats: encoding layout,
// round-to-nearest-even, special values, denormal flush, parameterized
// properties across all seven formats, and the oracle that pins
// quantize()/quantize_warp() to decode(encode(x)).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/bitutil.hpp"
#include "common/rng.hpp"
#include "fp/format.hpp"

namespace gpurf::fp {
namespace {

TEST(Format, Table3Definitions) {
  const auto& f = table3_formats();
  ASSERT_EQ(f.size(), 7u);
  const int totals[] = {32, 28, 24, 20, 16, 12, 8};
  const int exps[] = {8, 7, 6, 5, 5, 4, 3};
  const int mans[] = {23, 20, 17, 14, 10, 7, 4};
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(f[i].total_bits, totals[i]);
    EXPECT_EQ(f[i].exp_bits, exps[i]);
    EXPECT_EQ(f[i].man_bits, mans[i]);
    // sign + exponent + mantissa == total (Table 3: "All configurations
    // also include a sign bit").
    EXPECT_EQ(1 + f[i].exp_bits + f[i].man_bits, f[i].total_bits);
    EXPECT_EQ(f[i].slices(), f[i].total_bits / 4);
  }
}

TEST(Format, LookupByBits) {
  EXPECT_EQ(format_for_bits(16).man_bits, 10);
  EXPECT_THROW(format_for_bits(17), gpurf::Error);
}

TEST(Format, Fp32IsIdentity) {
  const auto f32 = format_for_bits(32);
  const float vals[] = {0.f, -0.f, 1.f, 3.14159f, -1e30f, 1e-40f};
  for (float v : vals) {
    EXPECT_EQ(encode(v, f32), float_bits(v));
    EXPECT_EQ(float_bits(quantize(v, f32)), float_bits(v));
  }
}

TEST(Format, HalfPrecisionKnownValues) {
  const auto h = format_for_bits(16);  // IEEE binary16
  EXPECT_EQ(encode(1.0f, h), 0x3c00u);
  EXPECT_EQ(encode(-2.0f, h), 0xc000u);
  EXPECT_EQ(encode(0.5f, h), 0x3800u);
  EXPECT_EQ(encode(65504.0f, h), 0x7bffu);  // max half
  EXPECT_EQ(decode(0x3c00u, h), 1.0f);
  EXPECT_EQ(decode(0x7c00u, h), std::numeric_limits<float>::infinity());
}

TEST(Format, RoundToNearestEven) {
  const auto h = format_for_bits(16);
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half value;
  // RNE rounds to the even mantissa (1.0).
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(quantize(halfway, h), 1.0f);
  // Slightly above halfway rounds up.
  const float above = 1.0f + std::ldexp(1.0f, -11) + std::ldexp(1.0f, -16);
  EXPECT_EQ(quantize(above, h), 1.0f + std::ldexp(1.0f, -10));
}

TEST(Format, OverflowSaturatesToInfinity) {
  const auto h = format_for_bits(16);
  EXPECT_TRUE(std::isinf(quantize(1e6f, h)));
  EXPECT_TRUE(std::isinf(quantize(-1e6f, h)));
  EXPECT_LT(quantize(-1e6f, h), 0.f);
  const auto f8 = format_for_bits(8);
  // 8-bit: 3 exponent bits, bias 3, max normal = 2^4 * 1.9375 = 15.5.
  EXPECT_EQ(quantize(15.5f, f8), 15.5f);
  EXPECT_TRUE(std::isinf(quantize(32.f, f8)));
}

TEST(Format, DenormalsFlushToZero) {
  const auto h = format_for_bits(16);
  // Smallest half normal is 2^-14; below that flushes to (signed) zero.
  EXPECT_EQ(quantize(std::ldexp(1.0f, -14), h), std::ldexp(1.0f, -14));
  EXPECT_EQ(quantize(std::ldexp(1.0f, -15), h), 0.0f);
  EXPECT_EQ(float_bits(quantize(-std::ldexp(1.0f, -15), h)),
            float_bits(-0.0f));
  // binary32 denormal inputs also flush.
  EXPECT_EQ(quantize(std::ldexp(1.0f, -140), format_for_bits(24)), 0.0f);
}

TEST(Format, NanPropagates) {
  for (const auto& f : table3_formats()) {
    const float q = quantize(std::nanf(""), f);
    EXPECT_TRUE(std::isnan(q)) << f.total_bits;
  }
}

TEST(Format, InfinityPreserved) {
  const float inf = std::numeric_limits<float>::infinity();
  for (const auto& f : table3_formats()) {
    EXPECT_EQ(quantize(inf, f), inf) << f.total_bits;
    EXPECT_EQ(quantize(-inf, f), -inf) << f.total_bits;
  }
}

TEST(Format, QuantizedFractionsExact) {
  // k/256 for k in [0,255] has at most 8 significand bits: exact from
  // 12-bit (7+1 significand... only k with <= 8 significand bits) upward.
  const auto f16 = format_for_bits(16);
  for (int k = 0; k < 256; ++k) {
    const float v = float(k) / 256.0f;
    EXPECT_TRUE(exactly_representable(v, f16)) << k;
  }
  // 0.3 is not exactly representable anywhere below binary32.
  for (const auto& f : table3_formats()) {
    if (f.is_fp32()) continue;
    EXPECT_FALSE(exactly_representable(0.3f, f)) << f.total_bits;
  }
}

// ---------------------------------------------------------------- properties

class FormatProperty : public ::testing::TestWithParam<int> {};

TEST_P(FormatProperty, EncodeFitsWidth) {
  const auto fmt = format_for_bits(GetParam());
  gpurf::Pcg32 rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const float v = rng.next_float(-1000.f, 1000.f);
    const uint32_t bits = encode(v, fmt);
    EXPECT_EQ(bits & ~low_mask(fmt.total_bits), 0u)
        << "encoded value spills beyond " << fmt.total_bits << " bits";
  }
}

TEST_P(FormatProperty, QuantizeIsIdempotent) {
  const auto fmt = format_for_bits(GetParam());
  gpurf::Pcg32 rng(GetParam() * 7);
  for (int i = 0; i < 2000; ++i) {
    const float v = rng.next_float(-100.f, 100.f);
    const float q1 = quantize(v, fmt);
    const float q2 = quantize(q1, fmt);
    EXPECT_EQ(float_bits(q1), float_bits(q2));
  }
}

TEST_P(FormatProperty, QuantizeIsMonotone) {
  const auto fmt = format_for_bits(GetParam());
  gpurf::Pcg32 rng(GetParam() * 13);
  for (int i = 0; i < 2000; ++i) {
    float a = rng.next_float(-50.f, 50.f);
    float b = rng.next_float(-50.f, 50.f);
    if (a > b) std::swap(a, b);
    const float qa = quantize(a, fmt);
    const float qb = quantize(b, fmt);
    EXPECT_LE(qa, qb) << a << " vs " << b;
  }
}

TEST_P(FormatProperty, RelativeErrorBounded) {
  const auto fmt = format_for_bits(GetParam());
  gpurf::Pcg32 rng(GetParam() * 31);
  // Values inside the format's normal range: relative error <= 2^-(m+1).
  const double max_rel = std::ldexp(1.0, -(fmt.man_bits + 1));
  for (int i = 0; i < 2000; ++i) {
    const float v = rng.next_float(0.26f, 8.f);  // inside all normal ranges
    const float q = quantize(v, fmt);
    EXPECT_LE(std::abs(double(q) - v) / v, max_rel * 1.0000001) << v;
  }
}

TEST_P(FormatProperty, SignSymmetry) {
  const auto fmt = format_for_bits(GetParam());
  gpurf::Pcg32 rng(GetParam() * 17);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.next_float(0.f, 100.f);
    EXPECT_EQ(float_bits(quantize(-v, fmt)),
              float_bits(-quantize(v, fmt)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, FormatProperty,
                         ::testing::Values(32, 28, 24, 20, 16, 12, 8),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "bits" + std::to_string(i.param);
                         });

// ------------------------------------------------------- rounding oracle
//
// quantize() and quantize_warp() round the binary32 bit pattern directly.
// Their definition is the register file's round trip, decode(encode(x)),
// so that is the oracle, on every narrow format.

uint32_t oracle(uint32_t x, const FloatFormat& f) {
  return float_bits(decode(encode(bits_float(x), f), f));
}

/// Feeds patterns through quantize() and, a warp at a time, through
/// quantize_warp(), and counts the patterns where either differs from the
/// oracle.  A partial last warp runs under a mask of its filled lanes.
struct OracleCheck {
  explicit OracleCheck(const FloatFormat& fmt) : f(fmt) {}

  void add(uint32_t x) {
    warp[n++] = x;
    if (n == 32) flush();
  }

  void flush() {
    uint32_t q[32];
    std::copy(warp, warp + 32, q);
    quantize_warp(q, n == 32 ? 0xffffffffu : low_mask(n), f);
    for (int l = 0; l < n; ++l) {
      const uint32_t want = oracle(warp[l], f);
      const uint32_t scalar = float_bits(quantize(bits_float(warp[l]), f));
      if (scalar != want || q[l] != want) {
        if (mismatches == 0) first = {warp[l], want, scalar, q[l]};
        ++mismatches;
      }
    }
    checked += static_cast<uint64_t>(n);
    n = 0;
  }

  /// "" when every pattern matched, else the count and the first one.
  std::string verdict() {
    flush();
    if (mismatches == 0) return "";
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%llu of %llu patterns differ at %d bits; first 0x%08x: "
                  "oracle 0x%08x, quantize 0x%08x, quantize_warp 0x%08x",
                  static_cast<unsigned long long>(mismatches),
                  static_cast<unsigned long long>(checked), f.total_bits,
                  first[0], first[1], first[2], first[3]);
    return buf;
  }

  FloatFormat f;
  uint32_t warp[32] = {};
  int n = 0;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::array<uint32_t, 4> first = {};
};

std::vector<FloatFormat> narrow_formats() {
  std::vector<FloatFormat> out;
  for (const auto& f : table3_formats())
    if (!f.is_fp32()) out.push_back(f);
  return out;
}

TEST(QuantizeOracle, EveryExponentAtEveryRoundingPoint) {
  for (const auto& f : narrow_formats()) {
    const int drop = 23 - f.man_bits;
    const uint32_t half = 1u << (drop - 1);
    const uint32_t all_kept = low_mask(f.man_bits);
    // Dropped bits below, at and above the tie; kept LSB even and odd; and
    // kept bits all ones, where rounding up carries into the exponent.
    const uint32_t dropped[] = {0, 1, half - 1, half, half + 1,
                                low_mask(drop)};
    const uint32_t kept[] = {0, 1, 2, 3, 0x55555u & all_kept,
                             0x2aaaau & all_kept, all_kept - 1, all_kept};
    OracleCheck check(f);
    for (uint32_t sign = 0; sign < 2; ++sign)
      for (uint32_t exp = 0; exp < 256; ++exp)
        for (uint32_t k : kept)
          for (uint32_t d : dropped)
            check.add((sign << 31) | (exp << 23) | (k << drop) | d);
    EXPECT_EQ(check.verdict(), "");
    EXPECT_EQ(check.checked, 2u * 256 * 8 * 6);
  }
}

TEST(QuantizeOracle, SpecialValues) {
  const uint32_t specials[] = {
      0x00000000u, 0x7f800000u,               // zero, infinity
      0x7fc00000u, 0x7f800001u, 0x7fffffffu,  // NaN: quiet, low payloads
      0x7f801000u, 0x7fa00000u, 0x7f80ffffu,
      0x00000001u, 0x00400000u, 0x007fffffu,  // binary32 denormals
      0x00800000u, 0x00800001u,               // smallest binary32 normals
      0x7f7fffffu, 0x7f000000u};              // largest binary32 normals
  for (const auto& f : narrow_formats()) {
    OracleCheck check(f);
    for (uint32_t x : specials) {
      check.add(x);
      check.add(x | 0x80000000u);
    }
    EXPECT_EQ(check.verdict(), "");
  }
}

TEST(QuantizeOracle, OddStrideThroughAllPatterns) {
  // An odd stride visits every residue mod 2^32 before repeating, so this
  // walks an even sample of the whole pattern space (1 in 256 patterns).
  constexpr uint32_t kStride = 0x9e3779b9u;
  constexpr uint32_t kSteps = 1u << 24;
  for (const auto& f : narrow_formats()) {
    OracleCheck check(f);
    uint32_t x = 0x12345678u;
    for (uint32_t i = 0; i < kSteps; ++i, x += kStride) check.add(x);
    EXPECT_EQ(check.verdict(), "");
  }
}

TEST(QuantizeOracle, InactiveLanesKeepTheirBits) {
  gpurf::Pcg32 rng(2024);
  for (const auto& f : narrow_formats()) {
    for (int trial = 0; trial < 200; ++trial) {
      uint32_t in[32], out[32];
      for (auto& x : in) x = rng.next_u32();
      std::copy(in, in + 32, out);
      const uint32_t mask = rng.next_u32();
      quantize_warp(out, mask, f);
      for (int l = 0; l < 32; ++l) {
        const uint32_t want = (mask >> l) & 1u ? oracle(in[l], f) : in[l];
        ASSERT_EQ(out[l], want) << f.total_bits << "-bit lane " << l
                                << " mask 0x" << std::hex << mask;
      }
    }
  }
}

// Every binary32 pattern, per narrow format, on 4 threads.  It takes
// minutes, so tier-1 does not run it (it is disabled); CI runs it as its
// own step with --gtest_also_run_disabled_tests.
TEST(QuantizeOracle, DISABLED_AllBinary32Patterns) {
  constexpr uint32_t kThreads = 4;
  for (const auto& f : narrow_formats()) {
    std::vector<OracleCheck> checks(kThreads, OracleCheck(f));
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&checks, t] {
        const uint64_t begin = (uint64_t{1} << 32) / kThreads * t;
        const uint64_t end = begin + (uint64_t{1} << 32) / kThreads;
        for (uint64_t x = begin; x < end; ++x)
          checks[t].add(static_cast<uint32_t>(x));
        checks[t].flush();
      });
    for (auto& th : threads) th.join();
    uint64_t checked = 0;
    for (auto& c : checks) {
      checked += c.checked;
      EXPECT_EQ(c.verdict(), "");
    }
    EXPECT_EQ(checked, uint64_t{1} << 32) << f.total_bits;
  }
}

}  // namespace
}  // namespace gpurf::fp
