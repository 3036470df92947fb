#pragma once
// Integer interval domain for the static range analysis (Pereira et al.,
// CGO'13).  Values live in a signed 64-bit domain large enough to hold both
// s32 and u32 quantities; +/- infinity are sentinel values well inside
// int64_t so that saturating arithmetic never overflows.

#include <algorithm>
#include <cstdint>
#include <string>

namespace gpurf::analysis {

struct Interval {
  static constexpr int64_t kNegInf = INT64_MIN / 4;
  static constexpr int64_t kPosInf = INT64_MAX / 4;

  int64_t lo = 1;   // lo > hi encodes the empty interval
  int64_t hi = 0;

  static Interval empty() { return {1, 0}; }
  static Interval make(int64_t l, int64_t h) { return {l, h}; }
  static Interval point(int64_t v) { return {v, v}; }
  static Interval top() { return {kNegInf, kPosInf}; }
  static Interval full_s32() { return {INT32_MIN, INT32_MAX}; }
  static Interval full_u32() { return {0, int64_t(UINT32_MAX)}; }

  bool is_empty() const { return lo > hi; }
  bool contains(int64_t v) const { return !is_empty() && lo <= v && v <= hi; }
  bool lo_inf() const { return lo <= kNegInf; }
  bool hi_inf() const { return hi >= kPosInf; }

  bool operator==(const Interval& o) const {
    if (is_empty() && o.is_empty()) return true;
    return lo == o.lo && hi == o.hi;
  }

  std::string str() const;
};

/// Saturate v into the sentinel-bounded domain.
int64_t sat(int64_t v);
/// Saturating add / mul on domain values (inf-aware).
int64_t sat_add(int64_t a, int64_t b);
int64_t sat_mul(int64_t a, int64_t b);

Interval iv_union(const Interval& a, const Interval& b);
Interval iv_intersect(const Interval& a, const Interval& b);

// Transfer functions.  All handle empty inputs (-> empty output) and
// infinities; results are NOT clamped to a machine type (callers clamp).
Interval iv_add(const Interval& a, const Interval& b);
Interval iv_sub(const Interval& a, const Interval& b);
Interval iv_mul(const Interval& a, const Interval& b);
Interval iv_div(const Interval& a, const Interval& b);   // trunc toward zero
Interval iv_rem(const Interval& a, const Interval& b);
Interval iv_min(const Interval& a, const Interval& b);
Interval iv_max(const Interval& a, const Interval& b);
Interval iv_abs(const Interval& a);
Interval iv_neg(const Interval& a);
Interval iv_and(const Interval& a, const Interval& b);
Interval iv_or(const Interval& a, const Interval& b);
Interval iv_xor(const Interval& a, const Interval& b);
Interval iv_not(const Interval& a);
Interval iv_shl(const Interval& a, const Interval& sh);
Interval iv_shr_s(const Interval& a, const Interval& sh);  // arithmetic
Interval iv_shr_u(const Interval& a, const Interval& sh);  // logical (u32)

}  // namespace gpurf::analysis
