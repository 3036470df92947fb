#pragma once
// Simulation statistics: IPC plus the secondary counters the paper's
// discussion relies on (texture miss rates for GICOV/SSAO, stall
// breakdowns for the writeback-delay sensitivity).

#include <cstdint>

namespace gpurf::sim {

struct CacheStats {
  uint64_t accesses = 0;
  uint64_t misses = 0;

  double miss_rate() const {
    return accesses == 0 ? 0.0 : double(misses) / double(accesses);
  }

  void merge(const CacheStats& o) {
    accesses += o.accesses;
    misses += o.misses;
  }

  bool operator==(const CacheStats&) const = default;
};

struct SimStats {
  uint64_t cycles = 0;
  uint64_t thread_insts = 0;  ///< sum of active lanes over issued warp insts
  uint64_t warp_insts = 0;
  uint64_t blocks_run = 0;

  CacheStats l1;
  CacheStats tex;
  CacheStats l2;

  // Issue-stall breakdown (per scheduler slot with no issue).
  uint64_t stall_scoreboard = 0;
  uint64_t stall_no_cu = 0;
  uint64_t stall_barrier = 0;
  uint64_t stall_empty = 0;  ///< no resident warp had a fetchable instruction

  uint64_t operand_fetches = 0;
  uint64_t double_fetches = 0;
  uint64_t conversions = 0;

  // Fault tolerance (PR 6): source-operand fetches from registers that
  // were redirected around faulty slices / spilled to the uncompressed
  // store.  Both stay zero for fault-free allocations.
  uint64_t fault_redirected_fetches = 0;
  uint64_t fault_spill_fetches = 0;

  /// Spill-store port contention: the uncompressed store has one
  /// read port, so an instruction with n spilled sources waits n - 1
  /// extra cycles, counted here.
  uint64_t spill_port_conflicts = 0;

  // Transient soft errors (PR 7).  The sampled taxonomy:
  //   injected = on_live + masked_dead
  // where masked_dead covers flips into unallocated slices, architecturally
  // dead registers and idle warp slots, and visible <= on_live counts flips
  // that changed the stored 32-bit value (narrow-float decode can absorb a
  // mantissa flip).  soft_live_bit_cycles is the *deterministic* exposure
  // integral: sum over cycles and resident warps of live payload bits at
  // the warp's current position — the soft-error cross-section that the
  // paper's compression claim shrinks, independent of flip sampling noise.
  uint64_t soft_flips_injected = 0;
  uint64_t soft_flips_on_live = 0;
  uint64_t soft_flips_masked_dead = 0;
  uint64_t soft_flips_visible = 0;
  uint64_t soft_live_bit_cycles = 0;

  double ipc() const {
    return cycles == 0 ? 0.0 : double(thread_insts) / double(cycles);
  }

  /// Field-wise equality — the determinism contract of the sharded
  /// simulator ("bit-identical SimStats") is checked against this, so a
  /// newly added counter is compared automatically (defaulted ==) but
  /// must still be added to merge_sm below.
  bool operator==(const SimStats&) const = default;

  /// Fold one SM's private counters into an aggregate (ISSUE 5: the
  /// sharded simulator gives every SmCore its own SimStats and merges
  /// them in SM-index order at the end of the run).  `cycles` and
  /// `thread_insts` are launch-wide values owned by simulate() itself
  /// and are deliberately not summed here.
  void merge_sm(const SimStats& sm) {
    warp_insts += sm.warp_insts;
    blocks_run += sm.blocks_run;
    l1.merge(sm.l1);
    tex.merge(sm.tex);
    stall_scoreboard += sm.stall_scoreboard;
    stall_no_cu += sm.stall_no_cu;
    stall_barrier += sm.stall_barrier;
    stall_empty += sm.stall_empty;
    operand_fetches += sm.operand_fetches;
    double_fetches += sm.double_fetches;
    conversions += sm.conversions;
    fault_redirected_fetches += sm.fault_redirected_fetches;
    fault_spill_fetches += sm.fault_spill_fetches;
    spill_port_conflicts += sm.spill_port_conflicts;
    soft_flips_injected += sm.soft_flips_injected;
    soft_flips_on_live += sm.soft_flips_on_live;
    soft_flips_masked_dead += sm.soft_flips_masked_dead;
    soft_flips_visible += sm.soft_flips_visible;
    soft_live_bit_cycles += sm.soft_live_bit_cycles;
  }
};

}  // namespace gpurf::sim
