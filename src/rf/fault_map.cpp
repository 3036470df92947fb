#include "rf/fault_map.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace gpurf::rf {

FaultMap::FaultMap(uint32_t banks, uint32_t rows_per_bank)
    : banks_(banks), rows_(rows_per_bank) {
  GPURF_CHECK(banks_ > 0 && rows_ > 0, "fault map needs a non-empty geometry");
  GPURF_CHECK(uint64_t(banks_) * rows_ * kSlicesPerReg <= (1ull << 32) - 1,
              "fault map geometry too large");
  masks_.assign(size_t(banks_) * rows_, 0);
}

void FaultMap::add_fault(uint32_t bank, uint32_t row, uint8_t slice) {
  GPURF_CHECK(bank < banks_ && row < rows_ && slice < kSlicesPerReg,
              "fault site (" << bank << "," << row << ","
                             << unsigned(slice) << ") outside geometry "
                             << banks_ << "x" << rows_ << "x"
                             << kSlicesPerReg);
  const uint32_t phys = row * banks_ + bank;
  const uint8_t bit = static_cast<uint8_t>(1u << slice);
  if (masks_[phys] & bit) return;  // idempotent
  masks_[phys] |= bit;
  FaultSite site{bank, row, slice};
  faults_.insert(std::upper_bound(faults_.begin(), faults_.end(), site,
                                  [](const FaultSite& a, const FaultSite& b) {
                                    if (a.bank != b.bank) return a.bank < b.bank;
                                    if (a.row != b.row) return a.row < b.row;
                                    return a.slice < b.slice;
                                  }),
                 site);
}

bool FaultMap::is_faulty(uint32_t bank, uint32_t row, uint8_t slice) const {
  if (bank >= banks_ || row >= rows_ || slice >= kSlicesPerReg) return false;
  return (masks_[row * banks_ + bank] >> slice) & 1u;
}

FaultMap FaultMap::generate(uint64_t seed, double density, uint32_t banks,
                            uint32_t rows_per_bank) {
  FaultMap map(banks, rows_per_bank);
  const double d = std::clamp(density, 0.0, 1.0);
  const uint64_t total = map.total_slice_sites();
  const uint64_t count =
      std::min<uint64_t>(total, uint64_t(std::llround(d * double(total))));
  if (count == 0) return map;

  // Partial Fisher-Yates over the flat site index space: the first `count`
  // entries after the partial shuffle are a uniform sample without
  // replacement, and depend only on (seed, density, geometry).
  std::vector<uint32_t> sites(total);
  std::iota(sites.begin(), sites.end(), 0u);
  Pcg32 rng(seed, /*stream=*/0x6661756c74ULL);  // "fault"
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t j =
        static_cast<uint32_t>(i) +
        rng.next_below(static_cast<uint32_t>(total - i));
    std::swap(sites[i], sites[j]);
  }
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t idx = sites[i];
    const uint32_t phys = idx / kSlicesPerReg;
    map.add_fault(phys % banks, phys / banks,
                  static_cast<uint8_t>(idx % kSlicesPerReg));
  }
  return map;
}

}  // namespace gpurf::rf
