#pragma once
// Set-associative LRU cache model.  Tag-only (data comes from the
// functional interpreter); a probe updates LRU state and fills on miss.
//
// NOT thread-safe, and deliberately so: access() advances an internal
// tick_ that stamps LRU recency, so both the hit/miss outcome and the
// replacement state depend on the exact global order of probes.  Callers
// that share a cache across threads (the sharded simulator's L2) must
// therefore serialise a deterministic access order themselves — per-SM
// probe streams are buffered during the parallel tick and replayed here
// in SM-index order at the cycle barrier (see sim/gpu.cpp).

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/stats.hpp"

namespace gpurf::sim {

class Cache {
 public:
  explicit Cache(const CacheGeom& g);

  /// Probe line address `line` (already divided by line size).  Returns
  /// true on hit.  Misses allocate (LRU victim).
  bool access(uint64_t line);

  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    uint64_t tag = 0;
    bool valid = false;
    uint64_t lru = 0;
  };
  CacheGeom geom_;
  uint32_t sets_;
  std::vector<Line> lines_;  // sets_ x assoc
  uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace gpurf::sim
