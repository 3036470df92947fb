#include "rf/register_file.hpp"

namespace gpurf::rf {

BankedRegisterFile::BankedRegisterFile(const RegisterFileGeom& g)
    : storage_(static_cast<size_t>(g.total_warp_registers())) {
  for (auto& r : storage_) r.fill(0);
}

const WarpRegister& BankedRegisterFile::read(uint32_t index) const {
  GPURF_ASSERT(index < storage_.size(), "warp register " << index);
  return storage_[index];
}

void BankedRegisterFile::write(uint32_t index, const WarpRegister& value) {
  GPURF_ASSERT(index < storage_.size(), "warp register " << index);
  storage_[index] = value;
}

void BankedRegisterFile::write_masked(uint32_t index,
                                      const WarpRegister& value,
                                      uint32_t bitmask) {
  GPURF_ASSERT(index < storage_.size(), "warp register " << index);
  auto& reg = storage_[index];
  for (int l = 0; l < 32; ++l)
    reg[l] = (reg[l] & ~bitmask) | (value[l] & bitmask);
}

}  // namespace gpurf::rf
