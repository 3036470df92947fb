#pragma once
// Small dynamic bitset used by dataflow analyses (live sets, phi placement).

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace gpurf {

class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(size_t n) : n_(n), w_((n + 63) / 64, 0) {}

  size_t size() const { return n_; }

  void set(size_t i) {
    GPURF_ASSERT(i < n_, "bitset index " << i << " >= " << n_);
    w_[i >> 6] |= (uint64_t(1) << (i & 63));
  }
  void reset(size_t i) {
    GPURF_ASSERT(i < n_, "bitset index " << i << " >= " << n_);
    w_[i >> 6] &= ~(uint64_t(1) << (i & 63));
  }
  bool test(size_t i) const {
    GPURF_ASSERT(i < n_, "bitset index " << i << " >= " << n_);
    return (w_[i >> 6] >> (i & 63)) & 1;
  }

  void clear() { std::fill(w_.begin(), w_.end(), 0); }

  /// this |= other; returns true if this changed.
  bool merge(const DynBitset& o) {
    GPURF_ASSERT(n_ == o.n_, "bitset size mismatch");
    bool changed = false;
    for (size_t i = 0; i < w_.size(); ++i) {
      const uint64_t before = w_[i];
      w_[i] |= o.w_[i];
      changed |= (w_[i] != before);
    }
    return changed;
  }

  void and_not(const DynBitset& o) {
    GPURF_ASSERT(n_ == o.n_, "bitset size mismatch");
    for (size_t i = 0; i < w_.size(); ++i) w_[i] &= ~o.w_[i];
  }

  /// Whether this and `o` have a set bit in common.
  bool intersects(const DynBitset& o) const {
    GPURF_ASSERT(n_ == o.n_, "bitset size mismatch");
    for (size_t i = 0; i < w_.size(); ++i)
      if (w_[i] & o.w_[i]) return true;
    return false;
  }

  size_t count() const {
    size_t c = 0;
    for (uint64_t w : w_) c += static_cast<size_t>(__builtin_popcountll(w));
    return c;
  }

  bool operator==(const DynBitset& o) const {
    return n_ == o.n_ && w_ == o.w_;
  }

  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (size_t wi = 0; wi < w_.size(); ++wi) {
      uint64_t w = w_[wi];
      while (w) {
        const int b = __builtin_ctzll(w);
        fn(wi * 64 + static_cast<size_t>(b));
        w &= w - 1;
      }
    }
  }

 private:
  size_t n_ = 0;
  std::vector<uint64_t> w_;
};

}  // namespace gpurf
