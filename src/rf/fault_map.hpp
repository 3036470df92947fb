#pragma once
// Permanent stuck-at fault model for the compressed register file (PR 6,
// ROADMAP item 4a).
//
// RRCD (see PAPERS.md) observes that the slices freed by static compression
// are exactly the spare capacity needed to tolerate permanent register-file
// faults: an architectural register can simply be *redirected* away from a
// broken slice into freed space, at the cost of one extra remap stage on
// the operand path.  This header models the fault population itself; the
// redirection policy lives in the slice allocator (alloc/slice_alloc.hpp)
// and the latency penalty in the timing simulator (sim/config.hpp).
//
// Granularity: one fault disables one 4-bit slice of one register-file row
// — site (bank, row, slice).  The compressed file is addressed through the
// 256-entry indirection table, so the default geometry is 16 banks x 16
// rows x 8 slices = 2048 slice sites, and a fault at (bank, row, slice)
// disables slice `slice` of compressed physical register
// `row * banks + bank` in every warp's copy (conservative: the per-warp
// copies of a row share column drivers, so a defect takes out the column
// for all of them).  The uncompressed spill store the allocator degrades
// into is a separate structure and deliberately outside this map.
//
// Determinism: generate(seed, density) draws a fixed count of distinct
// sites with a partial Fisher-Yates shuffle over a Pcg32 stream — the same
// seed yields the same map on every platform, thread count and shard
// count, which is what makes fault-campaign sweeps reproducible Jobs.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rf/slices.hpp"

namespace gpurf::rf {

/// One permanently faulty 4-bit slice site.
struct FaultSite {
  uint32_t bank = 0;
  uint32_t row = 0;
  uint8_t slice = 0;

  bool operator==(const FaultSite&) const = default;
};

class FaultMap {
 public:
  /// Default geometry: the 256 physical registers reachable through the
  /// indirection table (Fig. 2), interleaved over the 16 banks.
  static constexpr uint32_t kDefaultBanks = 16;
  static constexpr uint32_t kDefaultRowsPerBank = 16;
  static_assert(kDefaultBanks * kDefaultRowsPerBank == kPhysRegs,
                "the default fault map covers the addressable registers");

  FaultMap() : FaultMap(kDefaultBanks, kDefaultRowsPerBank) {}
  FaultMap(uint32_t banks, uint32_t rows_per_bank);

  /// Deterministic seeded map: round(density * total_slice_sites) distinct
  /// faulty sites sampled uniformly without replacement.  `density` is
  /// clamped to [0, 1]; density 0 yields an empty (fault-free) map.
  static FaultMap generate(uint64_t seed, double density,
                           uint32_t banks = kDefaultBanks,
                           uint32_t rows_per_bank = kDefaultRowsPerBank);

  uint32_t banks() const { return banks_; }
  uint32_t rows_per_bank() const { return rows_; }
  uint64_t total_slice_sites() const {
    return uint64_t(banks_) * rows_ * kSlicesPerReg;
  }

  size_t num_faults() const { return faults_.size(); }
  bool empty() const { return faults_.empty(); }

  /// Actual fault density: faulty sites / total sites.
  double density() const {
    return total_slice_sites() == 0
               ? 0.0
               : double(faults_.size()) / double(total_slice_sites());
  }

  /// Mark one site faulty (idempotent).  Out-of-geometry sites are
  /// rejected with gpurf::Error via GPURF_CHECK.
  void add_fault(uint32_t bank, uint32_t row, uint8_t slice);

  bool is_faulty(uint32_t bank, uint32_t row, uint8_t slice) const;

  /// Faulty-slice mask of one compressed physical register (bank =
  /// phys_reg % banks, row = phys_reg / banks).  Registers beyond the
  /// geometry are reported fault-free (they cannot exist in hardware the
  /// map describes, and the spill store is outside the map by design).
  uint8_t faulty_mask(uint32_t phys_reg) const {
    return phys_reg < masks_.size() ? masks_[phys_reg] : 0;
  }

  /// Sites in canonical (bank, row, slice) order.
  const std::vector<FaultSite>& faults() const { return faults_; }

  bool operator==(const FaultMap& o) const {
    return banks_ == o.banks_ && rows_ == o.rows_ && faults_ == o.faults_;
  }

 private:
  uint32_t banks_ = kDefaultBanks;
  uint32_t rows_ = kDefaultRowsPerBank;
  std::vector<FaultSite> faults_;  ///< canonical order, no duplicates
  std::vector<uint8_t> masks_;     ///< per-phys-reg faulty-slice mask
};

}  // namespace gpurf::rf
