#include "rf/value_truncator.hpp"

#include <bit>

#include "common/bitutil.hpp"
#include "common/error.hpp"

namespace gpurf::rf {

TruncateResult tvt_truncate(uint32_t value32, const TruncateSpec& spec) {
  GPURF_ASSERT(std::popcount(spec.mask0) + std::popcount(spec.mask1) ==
                   spec.data_slices,
               "truncate spec: masks do not cover the operand");

  // Step 1: narrow floats are converted down to their storage format; the
  // encoded bits are LSB-aligned in the data slices.
  uint32_t payload = value32;
  if (spec.is_float && !spec.float_fmt.is_fp32())
    payload = gpurf::fp::encode(gpurf::bits_float(value32), spec.float_fmt);

  // Step 2: scatter data slices into their physical positions.
  TruncateResult r;
  const int first1 = std::popcount(spec.mask0);
  r.data0 = scatter_slices(payload, spec.mask0, 0);
  r.bitmask0 = slice_mask_to_bits(spec.mask0);
  if (spec.mask1 != 0) {
    r.data1 = scatter_slices(payload, spec.mask1, first1);
    r.bitmask1 = slice_mask_to_bits(spec.mask1);
  }
  return r;
}

}  // namespace gpurf::rf
