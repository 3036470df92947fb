#pragma once
// Machine-level state shared by the functional interpreter and the timing
// simulator: global memory, textures, launch parameters, and the optional
// precision / range-check hooks.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/range_analysis.hpp"
#include "common/bitutil.hpp"
#include "common/error.hpp"
#include "fp/format.hpp"
#include "ir/kernel.hpp"

namespace gpurf::exec {

class KernelAnalysis;

/// Lanes (bit l = lane l of a 32-lane warp) whose signed word address
/// lies outside [0, n): one branch-free sweep, so a warp pays a single
/// bounds test instead of one per lane.  Inactive lanes may carry garbage
/// addresses; callers mask the result.
inline uint32_t warp_oob_lanes(const int64_t* addr, uint64_t n) {
  uint32_t bad = 0;
  for (uint32_t l = 0; l < 32; ++l)
    bad |= static_cast<uint32_t>(static_cast<uint64_t>(addr[l]) >= n) << l;
  return bad;
}

/// Flat word-addressed global memory.  Buffers are bump-allocated; an
/// address is an index into the word array.  A 128-byte coalescing line is
/// 32 consecutive words.
class GlobalMemory {
 public:
  /// Allocate `nwords` zero-initialised words; returns the base address.
  uint32_t alloc(size_t nwords) {
    const uint32_t base = static_cast<uint32_t>(words_.size());
    words_.resize(words_.size() + nwords, 0);
    if (!dirty_.empty()) dirty_.resize((words_.size() + 63) / 64, 0);
    return base;
  }

  uint32_t alloc(std::span<const uint32_t> contents) {
    const uint32_t base = alloc(contents.size());
    std::copy(contents.begin(), contents.end(), words_.begin() + base);
    return base;
  }

  uint32_t alloc_f32(std::span<const float> contents) {
    const uint32_t base = alloc(contents.size());
    for (size_t i = 0; i < contents.size(); ++i)
      words_[base + i] = gpurf::float_bits(contents[i]);
    return base;
  }

  // Out-of-bounds accesses raise gpurf::Error (GPURF_CHECK) rather than
  // aborting: under soft-error injection (PR 7) a flipped address register
  // can legitimately step outside every buffer, and that must surface as a
  // recoverable detected-unrecoverable-error at the Engine boundary, not
  // terminate the process.  Well-formed workloads never hit these.
  uint32_t read(uint32_t addr) const {
    GPURF_CHECK(addr < words_.size(), "global load out of bounds @" << addr);
    return words_[addr];
  }
  void write(uint32_t addr, uint32_t v) {
    GPURF_CHECK(addr < words_.size(),
                "global store out of bounds @" << addr);
    words_[addr] = v;
    if (!dirty_.empty()) dirty_[addr >> 6] |= uint64_t{1} << (addr & 63);
  }

  /// Warp-wide checked gather / scatter — the interpreter's SoA memory
  /// path.  `addr` holds one signed word address per lane; only lanes set
  /// in `mask` take part.  One bounds test covers the whole warp: when any
  /// active lane falls outside the image nothing is read or written and
  /// the call returns false, so the caller replays the warp lane by lane
  /// through read()/write() to raise the exact error at the exact lane.
  /// The warp test is stricter than the per-lane one: an address at or
  /// past 2^32 fails here but reaches read()/write() as its u32 wrap, so
  /// the replay must keep each lane's result.
  bool gather(const int64_t* addr, uint32_t mask, uint32_t* out) const {
    if (warp_oob_lanes(addr, words_.size()) & mask) return false;
    for (uint32_t l = 0; l < 32; ++l)
      if ((mask >> l) & 1u) out[l] = words_[static_cast<size_t>(addr[l])];
    return true;
  }
  bool scatter(const int64_t* addr, uint32_t mask, const uint32_t* vals) {
    if (warp_oob_lanes(addr, words_.size()) & mask) return false;
    for (uint32_t l = 0; l < 32; ++l) {
      if (!((mask >> l) & 1u)) continue;
      const size_t a = static_cast<size_t>(addr[l]);
      words_[a] = vals[l];
      if (!dirty_.empty()) dirty_[a >> 6] |= uint64_t{1} << (a & 63);
    }
    return true;
  }

  /// Arm per-word write tracking: from here on every store marks its word
  /// in a dirty bitmap (one bit per word, so the cost is bounded by the
  /// image size, not by the dynamic store count).
  void begin_write_log() { dirty_.assign((words_.size() + 63) / 64, 0); }

  /// Word addresses written since begin_write_log(), ascending.  The fuzz
  /// soundness oracle diffs these per-block dynamic store sets against the
  /// static footprint hulls and disjointness verdicts (ISSUE 10); also
  /// handy as a diagnostic.
  std::vector<uint32_t> written_words() const {
    std::vector<uint32_t> out;
    for (size_t w = 0; w < dirty_.size(); ++w) {
      uint64_t bits = dirty_[w];
      while (bits) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        out.push_back(static_cast<uint32_t>(w * 64 + static_cast<size_t>(b)));
      }
    }
    return out;
  }

  std::span<const uint32_t> view(uint32_t base, size_t n) const {
    GPURF_ASSERT(base + n <= words_.size(), "view out of bounds");
    return {words_.data() + base, n};
  }

  std::vector<float> read_f32(uint32_t base, size_t n) const {
    std::vector<float> out(n);
    for (size_t i = 0; i < n; ++i)
      out[i] = gpurf::bits_float(read(base + static_cast<uint32_t>(i)));
    return out;
  }

  size_t size() const { return words_.size(); }

 private:
  std::vector<uint32_t> words_;
  /// Dirty-word bitmap; non-empty once begin_write_log() armed tracking.
  std::vector<uint64_t> dirty_;
};

/// 2-D float texture with nearest filtering and clamp-to-edge addressing,
/// fetched through the texture cache in the timing model.
struct Texture {
  int width = 0;
  int height = 0;
  std::vector<float> texels;

  float fetch(int u, int v) const {
    u = std::clamp(u, 0, width - 1);
    v = std::clamp(v, 0, height - 1);
    return texels[size_t(v) * width + u];
  }
  /// Linear texel index after clamping (used as the cache key).
  uint32_t texel_index(int u, int v) const {
    u = std::clamp(u, 0, width - 1);
    v = std::clamp(v, 0, height - 1);
    return static_cast<uint32_t>(v) * width + static_cast<uint32_t>(u);
  }
};

/// Per-f32-register storage format assignment produced by the precision
/// tuner.  Empty per_reg means "everything is binary32".
struct PrecisionMap {
  std::vector<gpurf::fp::FloatFormat> per_reg;

  bool active() const { return !per_reg.empty(); }
  const gpurf::fp::FloatFormat& format(uint32_t reg) const {
    return per_reg.at(reg);
  }
  /// Total f32 slice count under this assignment (8 slices when inactive).
  int slices(uint32_t reg) const {
    return active() ? per_reg.at(reg).slices() : 8;
  }
};

/// Everything a kernel launch needs, plus optional instrumentation:
///  * precision — quantize every f32 register write through its format
///    (models the sliced register file's storage, §3.2.6),
///  * range_check — assert every integer register write stays inside the
///    statically computed range (validates analysis soundness).
struct ExecContext {
  const gpurf::ir::Kernel* kernel = nullptr;
  gpurf::ir::LaunchConfig launch;
  GlobalMemory* gmem = nullptr;
  const std::vector<Texture>* textures = nullptr;
  std::vector<uint32_t> params;

  const PrecisionMap* precision = nullptr;
  const analysis::RangeAnalysisResult* range_check = nullptr;

  /// Optional precomputed kernel analysis (CFG, ipdoms, decoded stream);
  /// when unset, run_functional builds one per launch.  Callers that replay
  /// a kernel many times should hold one and set it here.
  std::shared_ptr<const KernelAnalysis> analysis;

  /// Execution strategy.  use_soa selects the warp-vectorized SoA data path
  /// (false = the scalar exec_lane reference, kept for asserts/fuzzing);
  /// it is bit-for-bit neutral unconditionally.
  bool use_soa = true;

  // Statistics accumulated during execution.
  uint64_t thread_insts = 0;
};

}  // namespace gpurf::exec
