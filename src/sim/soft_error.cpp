#include "sim/soft_error.hpp"

#include <cmath>

#include "rf/operand_codec.hpp"

namespace gpurf::sim {

namespace {
/// Dedicated PCG stream for the flip process so a campaign seed never
/// collides with workload-input generation streams.
constexpr uint64_t kFlipStream = 0x50f7e44c0deULL;
}  // namespace

SoftErrorProcess::SoftErrorProcess(const SoftErrorSpec& spec, uint32_t num_sms,
                                   uint32_t warp_slots_per_sm)
    : rng_(spec.seed, kFlipStream),
      rate_per_cycle_(spec.flips_per_mcycle * 1e-6),
      num_sms_(num_sms),
      warp_slots_(warp_slots_per_sm) {
  if (rate_per_cycle_ > 0.0) advance();
}

void SoftErrorProcess::advance() {
  // Exponential inter-arrival gap; next_float() is in [0, 1) so the log
  // argument stays in (0, 1].  A zero gap just means two strikes in the
  // same cycle.
  const double u = static_cast<double>(rng_.next_float());
  next_time_ += -std::log(1.0 - u) / rate_per_cycle_;
}

bool SoftErrorProcess::next_flip(uint64_t cycle, FlipSite* out) {
  if (rate_per_cycle_ <= 0.0) return false;
  if (next_time_ >= static_cast<double>(cycle + 1)) return false;
  out->sm = rng_.next_below(num_sms_);
  out->warp_slot = rng_.next_below(warp_slots_);
  out->phys_reg = rng_.next_below(gpurf::rf::kPhysRegs);
  out->slice = rng_.next_below(gpurf::rf::kSlicesPerReg);
  out->lane = rng_.next_below(32);
  out->bit = rng_.next_below(gpurf::rf::kSliceBits);
  advance();
  return true;
}

SoftErrorModel::SoftErrorModel(const gpurf::ir::Kernel& k,
                               const gpurf::exec::KernelAnalysis& ka,
                               const gpurf::alloc::AllocationResult* allocation)
    : alloc_(allocation),
      df_(gpurf::analysis::compute_dataflow(k, ka.cfg())) {
  const uint32_t nregs = k.num_regs();

  // Stored payload width per architectural register.  Predicates live in a
  // separate predicate file and spilled registers in the uncompressed
  // spill store — neither occupies the sampled slice geometry, but spilled
  // values still count their full 32 bits toward the exposure integral
  // (they are stored *somewhere*, uncompressed).
  reg_bits_.assign(nregs, 0);
  for (uint32_t r = 0; r < nregs; ++r) {
    if (k.regs[r].type == gpurf::ir::Type::PRED) continue;
    if (!alloc_) {
      reg_bits_[r] = 32;
      continue;
    }
    const auto& e = alloc_->table[r];
    if (!e.valid) continue;
    reg_bits_[r] = e.spilled ? 32 : 4u * e.slices;
  }

  // Reverse map (physical register, slice) -> owning registers.  Aliasing
  // is expected: non-interfering registers share slices, and at most one
  // owner is live at any program point.
  if (alloc_) {
    owners_.resize(size_t(gpurf::rf::kPhysRegs) * gpurf::rf::kSlicesPerReg);
    for (uint32_t r = 0; r < nregs; ++r) {
      const auto& e = alloc_->table[r];
      if (!e.valid || e.spilled) continue;
      const auto add_piece = [&](const gpurf::alloc::SliceLoc& loc,
                                 bool second) {
        if (loc.phys_reg >= gpurf::rf::kPhysRegs) return;
        for (int s = 0; s < gpurf::rf::kSlicesPerReg; ++s)
          if ((loc.mask >> s) & 1u)
            owners_[size_t(loc.phys_reg) * gpurf::rf::kSlicesPerReg + s]
                .push_back(Owner{r, second});
      };
      add_piece(e.r0, false);
      if (e.split) add_piece(e.r1, true);
    }
  }

  // Per-point payload-bit sums over the dataflow's flattened block-major
  // layout (point i = "about to execute instruction i", point block_size =
  // the live-out), which the model indexes by warp position.
  bits_at_.assign(df_.num_points, 0);
  for (uint32_t p = 0; p < df_.num_points; ++p) {
    uint32_t bits = 0;
    df_.live_before[p].for_each_set([&](size_t r) { bits += reg_bits_[r]; });
    bits_at_[p] = bits;
  }
}

const std::vector<SoftErrorModel::Owner>& SoftErrorModel::owners(
    uint32_t phys_reg, uint32_t slice) const {
  if (owners_.empty()) return no_owner_;  // baseline: identity, not mapped
  return owners_[size_t(phys_reg) * gpurf::rf::kSlicesPerReg + slice];
}

bool SoftErrorModel::reg_live(uint32_t blk, uint32_t inst,
                              uint32_t reg) const {
  return df_.live_at(blk, inst, reg);
}

uint32_t SoftErrorModel::payload_bits(uint32_t blk, uint32_t inst) const {
  return bits_at_[df_.point_index(blk, inst)];
}

uint32_t SoftErrorModel::corrupt(uint32_t value, uint32_t reg,
                                 bool second_piece, uint32_t slice,
                                 uint32_t bit) const {
  const uint32_t flip = 1u << (slice * gpurf::rf::kSliceBits + bit);
  if (!alloc_) return value ^ flip;  // full-width storage: raw bit flip

  // Compressed storage: strike the bit in the stored encoding and read the
  // operand back through the register file's data path.
  const auto& e = alloc_->table[reg];
  gpurf::rf::TruncateResult stored = gpurf::rf::encode_operand(e, value);
  (second_piece ? stored.data1 : stored.data0) ^= flip;
  return gpurf::rf::decode_operand(e, stored.data0, stored.data1);
}

}  // namespace gpurf::sim
