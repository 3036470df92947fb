#include "rf/value_converter.hpp"

#include "common/bitutil.hpp"

namespace gpurf::rf {

uint32_t tvc_convert(uint32_t narrow_bits, const gpurf::fp::FloatFormat& fmt) {
  return gpurf::float_bits(gpurf::fp::decode(narrow_bits, fmt));
}

}  // namespace gpurf::rf
