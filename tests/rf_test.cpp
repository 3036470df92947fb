// Tests for the §3.2 hardware models: slice gather/scatter, Value
// Extractor / Converter / Truncator, indirection-entry packing, banked
// storage with slice-masked writes, the end-to-end compressed register
// file (also over every workload's real allocations), and the §6.4 / §6.5
// / §7 analytical models.

#include <gtest/gtest.h>

#include <bit>

#include "analysis/cfg.hpp"
#include "analysis/liveness.hpp"
#include "common/bitutil.hpp"
#include "common/rng.hpp"
#include "rf/area_model.hpp"
#include "rf/compressed_rf.hpp"
#include "rf/indirection_table.hpp"
#include "rf/power_model.hpp"
#include "rf/register_file.hpp"
#include "rf/slices.hpp"
#include "rf/value_converter.hpp"
#include "rf/value_extractor.hpp"
#include "rf/value_truncator.hpp"
#include "testing_util.hpp"

namespace gpurf::rf {
namespace {

TEST(Slices, GetSet) {
  uint32_t w = 0;
  w = set_slice(w, 0, 0xa);
  w = set_slice(w, 7, 0x5);
  EXPECT_EQ(w, 0x5000000au);
  EXPECT_EQ(get_slice(w, 0), 0xau);
  EXPECT_EQ(get_slice(w, 7), 0x5u);
  EXPECT_EQ(get_slice(w, 3), 0u);
}

TEST(Slices, MaskExpansion) {
  EXPECT_EQ(slice_mask_to_bits(0x01), 0x0000000fu);
  EXPECT_EQ(slice_mask_to_bits(0x80), 0xf0000000u);
  EXPECT_EQ(slice_mask_to_bits(0xff), 0xffffffffu);
  EXPECT_EQ(slice_mask_to_bits(0x21), 0x00f0000fu);
}

TEST(Slices, ScatterGatherInverse) {
  gpurf::Pcg32 rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const uint8_t mask = static_cast<uint8_t>(rng.next_below(255) + 1);
    const int n = std::popcount(mask);
    const uint32_t value = rng.next_u32() & low_mask(4 * n);
    const uint32_t img = scatter_slices(value, mask, 0);
    EXPECT_EQ(gather_slices(img, mask, 0), value)
        << "mask=" << int(mask) << " value=" << value;
    // Scatter writes only inside the mask.
    EXPECT_EQ(img & ~slice_mask_to_bits(mask), 0u);
  }
}

TEST(Tve, PaperFigure3Scenario) {
  // Fig. 3: a 16-bit float split across two registers — data slice 0 in
  // slice 7 of r0; slices 1,2,3 in slices 2,3,6 of r1.
  const uint32_t operand = 0xabcd;  // 4 data slices: d..a from LSB
  TruncateSpec t;
  t.mask0 = 0x80;  // slice 7 of r0
  t.mask1 = 0x4c;  // slices 2,3,6 of r1
  t.data_slices = 4;
  t.is_float = false;
  const auto piece = tvt_truncate(operand, t);
  EXPECT_EQ(get_slice(piece.data0, 7), 0xdu);
  EXPECT_EQ(get_slice(piece.data1, 2), 0xcu);
  EXPECT_EQ(get_slice(piece.data1, 3), 0xbu);
  EXPECT_EQ(get_slice(piece.data1, 6), 0xau);

  // Read path: extract both pieces, OR-merge, no padding needed.
  ExtractSpec e0{0x80, 0, 4, false};
  ExtractSpec e1{0x4c, 1, 4, false};
  const uint32_t merged =
      tve_extract_piece(piece.data0, e0) | tve_extract_piece(piece.data1, e1);
  EXPECT_EQ(tve_finalize(merged, e0), operand);
}

TEST(Tve, SignExtension) {
  // A 2-slice signed operand: the sign bit is bit 7 of the extracted
  // value; set -> pad with 0xF nibbles, clear -> zeros.
  ExtractSpec e{0x03, 0, 2, true};
  EXPECT_EQ(tve_extract(0x0000007fu, e), 0x0000007fu);   // +127
  EXPECT_EQ(tve_extract(0x000000ffu, e), 0xffffffffu);   // -1
  EXPECT_EQ(tve_extract(0x000000f0u, e), 0xfffffff0u);   // -16
  e.is_signed = false;
  EXPECT_EQ(tve_extract(0x000000f0u, e), 0x000000f0u);   // zero padded
}

TEST(Tve, ExtractMatchesShiftReference) {
  // Contiguous low-slice placement must equal plain masking +
  // sign-extension.
  gpurf::Pcg32 rng(3);
  for (int n = 1; n <= 8; ++n) {
    const uint8_t mask = static_cast<uint8_t>(low_mask(n));
    for (int t = 0; t < 100; ++t) {
      const uint32_t raw = rng.next_u32();
      ExtractSpec e{mask, 0, static_cast<uint8_t>(n), true};
      const int bits = 4 * n;
      EXPECT_EQ(tve_extract(raw, e),
                static_cast<uint32_t>(sign_extend(raw, bits)))
          << "n=" << n;
    }
  }
}

TEST(Converter, MatchesFormatDecode) {
  const auto fmt = gpurf::fp::format_for_bits(16);
  gpurf::Pcg32 rng(5);
  for (int t = 0; t < 200; ++t) {
    const float v = rng.next_float(-100.f, 100.f);
    const uint32_t enc = gpurf::fp::encode(v, fmt);
    EXPECT_EQ(bits_float(tvc_convert(enc, fmt)), gpurf::fp::quantize(v, fmt));
  }
}

TEST(Truncator, FloatConversionStep) {
  TruncateSpec t;
  t.mask0 = 0x0f;
  t.mask1 = 0;
  t.data_slices = 4;
  t.is_float = true;
  t.float_fmt = gpurf::fp::format_for_bits(16);
  const float v = 1.5f;
  const auto r = tvt_truncate(float_bits(v), t);
  EXPECT_EQ(r.data0, gpurf::fp::encode(v, t.float_fmt));
  EXPECT_EQ(r.bitmask0, 0x0000ffffu);
  EXPECT_EQ(r.bitmask1, 0u);
}

TEST(Truncator, RejectsInconsistentSpec) {
  TruncateSpec t;
  t.mask0 = 0x03;
  t.mask1 = 0;
  t.data_slices = 4;  // masks cover only 2 slices
  EXPECT_DEATH(tvt_truncate(0, t), "masks do not cover");
}

TEST(PackedEntry, PackedLayout) {
  gpurf::alloc::IndirectionEntry e;
  e.valid = true;
  e.r0 = {0x12, 0x0f};
  e.r1 = {0x34, 0xf0};
  e.split = true;
  const auto p = PackedEntry::pack(e);
  EXPECT_EQ(p.r0(), 0x12);
  EXPECT_EQ(p.m0(), 0x0f);
  EXPECT_EQ(p.r1(), 0x34);
  EXPECT_EQ(p.m1(), 0xf0);
}

TEST(RegisterFile, GeometryMatchesTable2) {
  const RegisterFileGeom g;
  EXPECT_EQ(g.banks, 16);
  EXPECT_EQ(g.entries_per_bank, 64);
  EXPECT_EQ(g.bits_per_entry, 1024);
  EXPECT_EQ(g.total_thread_registers(), 32768);  // Table 2
}

TEST(RegisterFile, MaskedWritePreservesOtherSlices) {
  BankedRegisterFile rfile;
  WarpRegister a{}, b{};
  for (int l = 0; l < 32; ++l) {
    a[l] = 0x1111'1111u;
    b[l] = 0xffff'ffffu;
  }
  rfile.write(5, a);
  rfile.write_masked(5, b, slice_mask_to_bits(0x0f));
  for (int l = 0; l < 32; ++l)
    EXPECT_EQ(rfile.read(5)[l], 0x1111'ffffu);
}

TEST(CompressedRf, IntRoundTripInsideRange) {
  // A 3-slice signed integer packed in the middle of a register.
  std::vector<gpurf::alloc::IndirectionEntry> table(1);
  table[0] = {true, {0, 0x1c}, {}, false, 3, true, false, 32};
  CompressedRegisterFile crf(table, 1, 1);

  WarpRegister vals{};
  for (int l = 0; l < 32; ++l)
    vals[l] = static_cast<uint32_t>(l - 16);  // [-16, 15] fits 12 bits
  crf.write_operand(0, 0, vals);
  const auto got = crf.read_operand(0, 0);
  for (int l = 0; l < 32; ++l)
    EXPECT_EQ(int32_t(got[l]), l - 16) << "lane " << l;
}

TEST(CompressedRf, FloatRoundTripEqualsQuantize) {
  const auto fmt = gpurf::fp::format_for_bits(20);
  std::vector<gpurf::alloc::IndirectionEntry> table(1);
  table[0] = {true, {0, 0x1f}, {}, false, 5, false, true, 20};
  CompressedRegisterFile crf(table, 1, 1);

  gpurf::Pcg32 rng(21);
  WarpRegister vals{};
  for (int l = 0; l < 32; ++l)
    vals[l] = float_bits(rng.next_float(-50.f, 50.f));
  crf.write_operand(0, 0, vals);
  const auto got = crf.read_operand(0, 0);
  for (int l = 0; l < 32; ++l)
    EXPECT_EQ(bits_float(got[l]),
              gpurf::fp::quantize(bits_float(vals[l]), fmt))
        << "lane " << l;
  EXPECT_EQ(crf.stats().conversions, 1u);
}

TEST(CompressedRf, SplitOperandDoubleFetch) {
  std::vector<gpurf::alloc::IndirectionEntry> table(1);
  table[0] = {true, {0, 0xc0}, {1, 0x03}, true, 4, true, false, 32};
  CompressedRegisterFile crf(table, 2, 1);

  WarpRegister vals{};
  for (int l = 0; l < 32; ++l) vals[l] = static_cast<uint32_t>(-l);
  crf.write_operand(0, 0, vals);
  const auto got = crf.read_operand(0, 0);
  for (int l = 0; l < 32; ++l) {
    // 16-bit signed storage: values in [-32768, 32767] survive exactly.
    EXPECT_EQ(int32_t(got[l]), -l) << "lane " << l;
  }
  EXPECT_EQ(crf.stats().double_fetches, 1u);
  EXPECT_EQ(crf.stats().fetches, 2u);
}

TEST(CompressedRf, CoResidentOperandsDoNotClobber) {
  // Two operands share physical register 0: slices 0-3 and 4-7.
  std::vector<gpurf::alloc::IndirectionEntry> table(2);
  table[0] = {true, {0, 0x0f}, {}, false, 4, false, false, 32};
  table[1] = {true, {0, 0xf0}, {}, false, 4, true, false, 32};
  CompressedRegisterFile crf(table, 1, 1);

  WarpRegister a{}, b{};
  for (int l = 0; l < 32; ++l) {
    a[l] = uint32_t(l) & 0xffff;
    b[l] = static_cast<uint32_t>(-(l + 1));
  }
  crf.write_operand(0, 0, a);
  crf.write_operand(0, 1, b);
  const auto ra = crf.read_operand(0, 0);
  const auto rb = crf.read_operand(0, 1);
  for (int l = 0; l < 32; ++l) {
    EXPECT_EQ(ra[l], uint32_t(l)) << "operand 0 clobbered at lane " << l;
    EXPECT_EQ(int32_t(rb[l]), -(l + 1)) << "operand 1 at lane " << l;
  }
}

TEST(CompressedRf, PerWarpIsolation) {
  std::vector<gpurf::alloc::IndirectionEntry> table(1);
  table[0] = {true, {0, 0xff}, {}, false, 8, false, false, 32};
  CompressedRegisterFile crf(table, 1, 2);
  WarpRegister a{}, b{};
  a.fill(0xaaaa5555u);
  b.fill(0x5555aaaau);
  crf.write_operand(0, 0, a);
  crf.write_operand(1, 0, b);
  EXPECT_EQ(crf.read_operand(0, 0)[7], 0xaaaa5555u);
  EXPECT_EQ(crf.read_operand(1, 0)[7], 0x5555aaaau);
}

// -------------------------------------------- real workload allocations

using gpurf::alloc::IndirectionEntry;

const std::vector<gpurf::testing::RealAllocation>& real_allocations() {
  static const auto workloads = gpurf::workloads::make_all_workloads();
  static const auto allocs = gpurf::testing::real_allocations(workloads);
  return allocs;
}

/// 32 random values `e` holds: inside its slices for a narrow integer
/// (sign-extended when signed), finite floats for a float register.
WarpRegister random_values(const IndirectionEntry& e, gpurf::Pcg32& rng) {
  WarpRegister v;
  const int bits = kSliceBits * e.slices;
  for (uint32_t& x : v) {
    if (e.is_float) {
      x = float_bits(rng.next_float(-1000.f, 1000.f));
      continue;
    }
    x = rng.next_u32();
    x = e.is_signed ? static_cast<uint32_t>(sign_extend(x, bits))
                    : x & low_mask(bits);
  }
  return v;
}

/// What a read returns after `v` was written: a narrow float quantized
/// through its Table-3 format, anything else unchanged.
WarpRegister read_back(const IndirectionEntry& e, WarpRegister v) {
  if (e.is_float && e.float_bits != 32)
    for (uint32_t& x : v)
      x = float_bits(gpurf::fp::quantize(
          bits_float(x), gpurf::fp::format_for_bits(e.float_bits)));
  return v;
}

TEST(CompressedRf, RealAllocationsRoundTrip) {
  gpurf::Pcg32 rng(31);
  int split = 0, signed_narrow = 0, narrow_float = 0, spilled = 0,
      redirected = 0;
  for (const auto& a : real_allocations()) {
    CompressedRegisterFile crf(a.alloc.table, a.alloc.num_physical_regs, 1);
    for (uint32_t r = 0; r < a.alloc.table.size(); ++r) {
      const IndirectionEntry& e = a.alloc.table[r];
      if (!e.valid) continue;
      split += e.split;
      signed_narrow += e.is_signed && e.slices < kSlicesPerReg;
      narrow_float += e.is_float && e.float_bits != 32;
      spilled += e.spilled;
      redirected += e.redirected;
      const WarpRegister v = random_values(e, rng);
      crf.write_operand(0, r, v);
      EXPECT_EQ(crf.read_operand(0, r), read_back(e, v))
          << a.name << " reg " << r;
    }
  }
  // The allocations reach every kind of entry the data path treats apart.
  EXPECT_GT(split, 0);
  EXPECT_GT(signed_narrow, 0);
  EXPECT_GT(narrow_float, 0);
  EXPECT_GT(spilled, 0);
  EXPECT_GT(redirected, 0);
}

TEST(CompressedRf, InterferingRegistersDoNotClobberEachOther) {
  // The allocator may share slices only between registers that never
  // interfere: writing one of an interfering pair keeps the other intact.
  gpurf::Pcg32 rng(37);
  uint64_t pairs = 0;
  for (const auto& a : real_allocations()) {
    const auto cfg = gpurf::analysis::build_cfg(*a.kernel);
    const auto adj = gpurf::analysis::build_interference(
        *a.kernel, cfg, gpurf::analysis::compute_liveness(*a.kernel, cfg));
    const auto& table = a.alloc.table;
    CompressedRegisterFile crf(table, a.alloc.num_physical_regs, 1);
    for (uint32_t r = 0; r < table.size(); ++r) {
      if (!table[r].valid) continue;
      adj[r].for_each_set([&](size_t s) {
        if (!table[s].valid) return;
        const WarpRegister v = random_values(table[r], rng);
        crf.write_operand(0, r, v);
        crf.write_operand(0, uint32_t(s), random_values(table[s], rng));
        EXPECT_EQ(crf.read_operand(0, r), read_back(table[r], v))
            << a.name << ": reg " << r << " clobbered by reg " << s;
        ++pairs;
      });
    }
  }
  EXPECT_GT(pairs, 0u);
}

// ---------------------------------------------------------------- §6.4 area

TEST(AreaModel, PaperFermiNumbers) {
  const auto a = compute_area(AreaConfig::fermi_gtx480());
  EXPECT_EQ(a.tve, 1536 + 24);
  EXPECT_EQ(a.warp_extractor, 49920);
  EXPECT_EQ(a.extractors_total, 798720);
  EXPECT_EQ(a.converters_total, 249600);
  EXPECT_EQ(a.indirection_table, 49152);
  EXPECT_EQ(a.tables_total, 98304);
  EXPECT_EQ(a.tvt, 5396);
  EXPECT_EQ(a.truncators_total, 518016);
  EXPECT_EQ(a.cu_extension, 6774);
  EXPECT_EQ(a.cus_total, 108384);
  EXPECT_EQ(a.per_sm, 1773024);           // "about 1.8 million"
  EXPECT_EQ(a.chip_total, 26595360);      // "around 27,000,000"
  EXPECT_LT(a.fraction_of_chip, 0.01);    // "less than 1%"
}

TEST(AreaModel, PaperVoltaNumbers) {
  const auto a = compute_area(AreaConfig::volta_v100());
  // §7: 1.8M - 0.4M ~= 1.4M per processing block; 5.6M per SM; ~470M total.
  EXPECT_NEAR(double(a.per_rf_instance), 1.4e6, 0.05e6);
  EXPECT_NEAR(double(a.per_sm), 5.6e6, 0.2e6);
  EXPECT_NEAR(double(a.chip_total), 470e6, 10e6);
  EXPECT_GT(a.fraction_of_chip, 0.02);  // "just over 2%"
  EXPECT_LT(a.fraction_of_chip, 0.03);
}

// ---------------------------------------------------------------- §6.5 power

TEST(PowerModel, CompressedBeatsDoubledRf) {
  PowerInputs in;
  in.double_fetch_fraction = 0.1;
  const auto out = compare_power(in, AreaConfig::fermi_gtx480());
  EXPECT_LT(out.compressed_read_energy, out.doubled_rf_read_energy);
  EXPECT_TRUE(out.compressed_wins);
}

TEST(PowerModel, WorstCaseStillWins) {
  // §6.5: even if every read double-fetches, energy stays below 2x because
  // the doubled RF doubles bitline energy on *every* read.
  PowerInputs in;
  in.double_fetch_fraction = 0.84;  // leaves room for logic + table terms
  const auto out = compare_power(in, AreaConfig::fermi_gtx480());
  EXPECT_LT(out.compressed_read_energy, 2.0);
}

TEST(PowerModel, StaticOverheadMatchesArea) {
  const auto area = compute_area(AreaConfig::fermi_gtx480());
  const auto out = compare_power(PowerInputs{}, AreaConfig::fermi_gtx480());
  EXPECT_DOUBLE_EQ(out.static_overhead_fraction, area.fraction_of_chip);
}

// ------------------------------------------------- parameterized round trips

struct RoundTripCase {
  int slices;
  bool split;
};

class CompressedRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CompressedRoundTrip, UnsignedValuesSurvive) {
  const auto [slices, split] = GetParam();
  std::vector<gpurf::alloc::IndirectionEntry> table(1);
  auto& e = table[0];
  e.valid = true;
  e.slices = static_cast<uint8_t>(slices);
  e.is_signed = false;
  if (split && slices >= 2) {
    const int first = slices / 2;
    e.r0 = {0, static_cast<uint8_t>(low_mask(first) << (8 - first))};
    e.r1 = {1, static_cast<uint8_t>(low_mask(slices - first))};
    e.split = true;
  } else {
    e.r0 = {0, static_cast<uint8_t>(low_mask(slices))};
  }
  CompressedRegisterFile crf(table, 2, 1);

  gpurf::Pcg32 rng(slices * 7 + split);
  WarpRegister vals{};
  for (int l = 0; l < 32; ++l)
    vals[l] = rng.next_u32() & low_mask(4 * slices);
  crf.write_operand(0, 0, vals);
  const auto got = crf.read_operand(0, 0);
  for (int l = 0; l < 32; ++l) EXPECT_EQ(got[l], vals[l]) << "lane " << l;
}

INSTANTIATE_TEST_SUITE_P(
    Widths, CompressedRoundTrip,
    ::testing::Values(RoundTripCase{1, false}, RoundTripCase{2, false},
                      RoundTripCase{3, false}, RoundTripCase{4, false},
                      RoundTripCase{5, false}, RoundTripCase{6, false},
                      RoundTripCase{7, false}, RoundTripCase{8, false},
                      RoundTripCase{2, true}, RoundTripCase{4, true},
                      RoundTripCase{6, true}, RoundTripCase{8, true}),
    [](const ::testing::TestParamInfo<RoundTripCase>& i) {
      return std::string(i.param.split ? "split" : "whole") +
             std::to_string(i.param.slices);
    });

}  // namespace
}  // namespace gpurf::rf
