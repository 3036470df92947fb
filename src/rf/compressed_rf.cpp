#include "rf/compressed_rf.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "rf/indirection_table.hpp"
#include "rf/operand_codec.hpp"

namespace gpurf::rf {

using gpurf::alloc::IndirectionEntry;

CompressedRegisterFile::CompressedRegisterFile(
    const std::vector<IndirectionEntry>& table, uint32_t num_phys_regs,
    uint32_t warps)
    : table_(table),
      num_phys_(num_phys_regs),
      storage_(RegisterFileGeom{
          16,
          static_cast<int>((num_phys_regs * warps + 15) / 16) + 1, 1024}) {
  GPURF_CHECK(table_.size() <= kIndirectionEntries,
              "kernel uses more than 256 architectural registers");
  for (const IndirectionEntry& e : table_) {
    if (!e.valid) continue;
    // Spill slots are a separate space, not addressed through the table.
    if (e.spilled) {
      num_spill_ = std::max(num_spill_, e.r0.phys_reg + 1);
      continue;
    }
    GPURF_CHECK(e.r0.phys_reg < kPhysRegs &&
                    (!e.split || e.r1.phys_reg < kPhysRegs),
                "physical register id exceeds 8-bit entry field");
  }
  spill_.assign(size_t(num_spill_) * warps, WarpRegister{});
}

size_t CompressedRegisterFile::spill_index(uint32_t warp,
                                           uint32_t slot) const {
  GPURF_ASSERT(slot < num_spill_, "spill slot " << slot << " out of range");
  return size_t(warp) * num_spill_ + slot;
}

void CompressedRegisterFile::write_operand(uint32_t warp, uint32_t arch_reg,
                                           const WarpRegister& values) {
  const IndirectionEntry& e = table_.at(arch_reg);
  GPURF_ASSERT(e.valid, "write to unallocated register " << arch_reg);
  if (e.spilled) {
    // Uncompressed spill store: full-width write, no truncation.
    spill_[spill_index(warp, e.r0.phys_reg)] = values;
    ++stats_.spill_accesses;
    return;
  }
  WarpRegister img0{}, img1{};
  TruncateResult lane;
  for (int l = 0; l < 32; ++l) {
    lane = encode_operand(e, values[l]);
    img0[l] = lane.data0;
    img1[l] = lane.data1;
  }
  // The write masks depend on the entry alone, so every lane's are equal.
  storage_.write_masked(phys_index(warp, e.r0.phys_reg), img0,
                        lane.bitmask0);
  if (e.split)
    storage_.write_masked(phys_index(warp, e.r1.phys_reg), img1,
                          lane.bitmask1);
}

WarpRegister CompressedRegisterFile::read_operand(uint32_t warp,
                                                  uint32_t arch_reg) {
  const IndirectionEntry& e = table_.at(arch_reg);
  GPURF_ASSERT(e.valid, "read of unallocated register " << arch_reg);
  if (e.spilled) {
    // Uncompressed spill store: full-width read, no extraction/conversion.
    ++stats_.spill_accesses;
    return spill_[spill_index(warp, e.r0.phys_reg)];
  }
  const WarpRegister& f0 = storage_.read(phys_index(warp, e.r0.phys_reg));
  ++stats_.fetches;
  const WarpRegister* f1 = &f0;  // an unsplit operand never reads piece 1
  if (e.split) {
    f1 = &storage_.read(phys_index(warp, e.r1.phys_reg));
    ++stats_.fetches;
    ++stats_.double_fetches;
  }
  WarpRegister out;
  for (int l = 0; l < 32; ++l) out[l] = decode_operand(e, f0[l], (*f1)[l]);
  if (needs_conversion(e)) ++stats_.conversions;
  return out;
}

}  // namespace gpurf::rf
