#pragma once
// Transistor-count area model (paper §6.4) and its Volta scaling (§7).
//
// The paper reduces its Catapult-C synthesis results to transistor
// arithmetic; this header implements that arithmetic exactly so every
// number in §6.4/§7 is regenerated by `gpurf-figures area` / `volta`:
//
//   TVE   = 8 muxes x 4 bits x 8 AOI cells x 6T + one 4-bit 2:1 mux (24T)
//   WVE   = 32 TVEs  (~50K);   16 banks -> ~800K per SM
//   TVC   = ~1300T (synthesised adder + muxes); 6 warp units -> 249,600
//   Table = 256 entries x 32 bits x 6T SRAM = 49,152; two tables -> 98,304
//   TVT   = 1 TVC + 2 TVE-equivalents (2048T each) = 5,396; 3 warp units
//           -> 518,016
//   CU    = 1024-bit OR (6T/bit) + 35 bits x 3 operands x 6T = 6,774;
//           16 CUs -> 108,384
//
//   Fermi SM total ~= 1.8M; x15 SMs ~= 27M; < 1 % of the GTX 480's 3.1B.
//   Volta: half the extractors (one bank set per processing block),
//   1.4M / block, 5.6M / SM, 470M for 84 SMs, ~2 % of 21B.

#include <cstdint>
#include <string>

namespace gpurf::rf {

struct AreaConfig {
  std::string name;
  // Structure counts per register-file instance.
  int rf_banks = 16;               ///< one warp value extractor per bank
  int warp_converters = 6;
  int warp_truncators = 3;
  int collector_units = 16;
  int indirection_entries = 256;
  int indirection_tables = 2;      ///< source + destination
  // Chip-level organisation.
  int rf_instances_per_sm = 1;     ///< Volta: 4 processing blocks per SM
  int sms = 15;
  double chip_transistors = 3.1e9;

  static AreaConfig fermi_gtx480();
  static AreaConfig volta_v100();
};

struct AreaBreakdown {
  long long tve = 0;                 ///< one thread value extractor
  long long warp_extractor = 0;      ///< 32 TVEs
  long long extractors_total = 0;    ///< per RF instance
  long long tvc = 0;
  long long converters_total = 0;
  long long indirection_table = 0;   ///< one table
  long long tables_total = 0;
  long long tvt = 0;
  long long truncators_total = 0;
  long long cu_extension = 0;        ///< one collector unit
  long long cus_total = 0;
  long long per_rf_instance = 0;
  long long per_sm = 0;
  long long chip_total = 0;
  double fraction_of_chip = 0.0;
};

AreaBreakdown compute_area(const AreaConfig& cfg);

}  // namespace gpurf::rf
