#pragma once
// Banked register-file storage (paper §3.1 baseline, extended with
// slice-masked writes for the compressed organisation).
//
// 16 banks, 64 entries per bank, 1024 bits per entry (one warp register =
// 32 lanes x 32 bits), one read + one write port per bank.  The timing
// simulator arbitrates the banks (GPGPU-Sim interleaving
// bank = (reg + warp) % 16, sim/gpu.cpp); this model only stores.

#include <array>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace gpurf::rf {

using WarpRegister = std::array<uint32_t, 32>;

struct RegisterFileGeom {
  int banks = 16;
  int entries_per_bank = 64;
  int bits_per_entry = 1024;

  int total_warp_registers() const { return banks * entries_per_bank; }
  /// Total 32-bit thread registers (the paper's "32768 registers per SM").
  int total_thread_registers() const {
    return total_warp_registers() * (bits_per_entry / 32);
  }
};

class BankedRegisterFile {
 public:
  explicit BankedRegisterFile(const RegisterFileGeom& g = RegisterFileGeom{});

  /// Full 1024-bit read of one warp register.
  const WarpRegister& read(uint32_t index) const;

  /// Full write.
  void write(uint32_t index, const WarpRegister& value);

  /// Slice-masked write: for each lane, only the bit lines enabled in
  /// `bitmask` are driven (§3.2.6 step 3) so co-resident operands survive.
  void write_masked(uint32_t index, const WarpRegister& value,
                    uint32_t bitmask);

 private:
  std::vector<WarpRegister> storage_;
};

}  // namespace gpurf::rf
