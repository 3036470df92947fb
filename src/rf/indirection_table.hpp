#pragma once
// Indirection table entry format (paper §3.2.2, Fig. 2).
//
// 256 architectural-register entries of 32 bits each, organised in 16 SRAM
// banks so the table matches the register file's throughput (16 accesses
// per cycle).  Separate but identical source (read-path) and destination
// (write-path) tables avoid contention; writeback-side bank conflicts are
// absorbed by a small buffer (§3.2.1).  The timing simulator charges the
// lookup as CompressionConfig::indirection_read_cycles.
//
// Entry encoding (32 bits): | r0:8 | m0:8 | r1:8 | m1:8 |
// The signed/float annotations travel with the instruction (they are
// properties of the *operand*, produced by the static framework) and are
// latched into the extended collector-unit fields (§3.2.4).

#include <cstdint>

#include "alloc/slice_alloc.hpp"

namespace gpurf::rf {

constexpr uint32_t kIndirectionEntries = 256;

/// Packed 32-bit entry.
struct PackedEntry {
  uint32_t raw = 0;

  static PackedEntry pack(const gpurf::alloc::IndirectionEntry& e);
  uint8_t r0() const { return static_cast<uint8_t>(raw >> 24); }
  uint8_t m0() const { return static_cast<uint8_t>(raw >> 16); }
  uint8_t r1() const { return static_cast<uint8_t>(raw >> 8); }
  uint8_t m1() const { return static_cast<uint8_t>(raw); }
};

}  // namespace gpurf::rf
