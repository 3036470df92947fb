#include "rf/indirection_table.hpp"

#include "common/error.hpp"
#include "rf/slices.hpp"

namespace gpurf::rf {

PackedEntry PackedEntry::pack(const gpurf::alloc::IndirectionEntry& e) {
  GPURF_CHECK(e.r0.phys_reg < kPhysRegs &&
                  (!e.split || e.r1.phys_reg < kPhysRegs),
              "physical register id exceeds 8-bit entry field");
  PackedEntry p;
  p.raw = (e.r0.phys_reg << 24) | (uint32_t(e.r0.mask) << 16) |
          ((e.split ? e.r1.phys_reg : 0u) << 8) |
          uint32_t(e.split ? e.r1.mask : 0u);
  return p;
}

}  // namespace gpurf::rf
