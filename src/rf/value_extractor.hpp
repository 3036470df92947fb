#pragma once
// Value Extractor (paper §3.2.3, Fig. 3/4).
//
// Each Thread Value Extractor (TVE) realigns the compressed slices fetched
// from one physical register to their data positions and pads the result:
// zeros for floats and unsigned integers, sign-extension nibbles (0x0/0xF
// selected by a 2:1 mux) for signed integers.  A warp-level extractor is 32
// parallel TVEs; one extractor sits behind each register bank, so a fetch
// never costs an extra cycle (§3.2.8: "shallow critical path of one
// multiplexer").
//
// When an operand is split across two physical registers the two partial
// extractions are OR-merged inside the collector unit (§3.2.4); the partial
// results here leave unfilled slices at zero so the OR is exact.

#include <cstdint>

#include "rf/slices.hpp"

namespace gpurf::rf {

/// Static per-operand extraction control (latched into the CU from the
/// indirection info + instruction annotation).
struct ExtractSpec {
  uint8_t mask = 0xff;       ///< slice mask inside the fetched register
  uint8_t first_slice = 0;   ///< data-slice index where this piece starts
  uint8_t data_slices = 8;   ///< total operand slices (both pieces)
  bool is_signed = false;    ///< sign-extend after the *final* piece
};

/// One TVE pass over one fetched 32-bit thread register: realign, no
/// padding (partial result for the CU OR-merge).
uint32_t tve_extract_piece(uint32_t fetched, const ExtractSpec& spec);

/// Pad a fully OR-merged operand: zero-fill (already zero) or sign-extend
/// the nibbles above the data slices.  `data_slices`/`is_signed` from spec.
uint32_t tve_finalize(uint32_t merged, const ExtractSpec& spec);

/// Convenience: extract a whole unsplit operand in one step.
uint32_t tve_extract(uint32_t fetched, const ExtractSpec& spec);

}  // namespace gpurf::rf
