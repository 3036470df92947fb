#include "exec/kernel_analysis.hpp"

#include <mutex>
#include <unordered_map>

namespace gpurf::exec {

namespace ir = gpurf::ir;

namespace {

/// Resolve the fused (opcode, type) lane operation.  The mapping mirrors
/// exec_lane's runtime branches exactly, including the CVT quirk that a
/// float source dominates the decision (dst S32 -> f2s, anything else ->
/// f2u), so SoA and scalar execution can never disagree.
LaneOp classify_lane_op(const ir::Instruction& in) {
  using ir::Opcode;
  using ir::Type;
  const bool f = in.type == Type::F32;
  const bool s = in.type == Type::S32;
  switch (in.op) {
    case Opcode::ADD: return f ? LaneOp::kAddF : LaneOp::kAddI;
    case Opcode::SUB: return f ? LaneOp::kSubF : LaneOp::kSubI;
    case Opcode::MUL: return f ? LaneOp::kMulF : LaneOp::kMulI;
    case Opcode::MAD: return f ? LaneOp::kMadF : LaneOp::kMadI;
    case Opcode::DIV:
      return f ? LaneOp::kDivF : (s ? LaneOp::kDivS : LaneOp::kDivU);
    case Opcode::REM: return s ? LaneOp::kRemS : LaneOp::kRemU;
    case Opcode::MIN:
      return f ? LaneOp::kMinF : (s ? LaneOp::kMinS : LaneOp::kMinU);
    case Opcode::MAX:
      return f ? LaneOp::kMaxF : (s ? LaneOp::kMaxS : LaneOp::kMaxU);
    case Opcode::ABS: return f ? LaneOp::kAbsF : LaneOp::kAbsI;
    case Opcode::NEG: return f ? LaneOp::kNegF : LaneOp::kNegI;
    case Opcode::AND: return LaneOp::kAnd;
    case Opcode::OR: return LaneOp::kOr;
    case Opcode::XOR: return LaneOp::kXor;
    case Opcode::NOT: return LaneOp::kNot;
    case Opcode::SHL: return LaneOp::kShl;
    case Opcode::SHR: return s ? LaneOp::kShrS : LaneOp::kShrU;
    case Opcode::SIN: return LaneOp::kSin;
    case Opcode::COS: return LaneOp::kCos;
    case Opcode::EX2: return LaneOp::kEx2;
    case Opcode::LG2: return LaneOp::kLg2;
    case Opcode::SQRT: return LaneOp::kSqrt;
    case Opcode::RSQRT: return LaneOp::kRsqrt;
    case Opcode::RCP: return LaneOp::kRcp;
    case Opcode::MOV: return LaneOp::kMov;
    case Opcode::SELP: return LaneOp::kSelp;
    case Opcode::CVT:
      if (in.cvt_src_type == Type::F32)
        return in.type == Type::S32 ? LaneOp::kCvtF2S : LaneOp::kCvtF2U;
      if (in.type == Type::F32)
        return in.cvt_src_type == Type::S32 ? LaneOp::kCvtS2F
                                            : LaneOp::kCvtU2F;
      return LaneOp::kCvtBits;
    case Opcode::SETP:
      return f ? LaneOp::kSetpF
               : (in.type == Type::U32 ? LaneOp::kSetpU : LaneOp::kSetpS);
    case Opcode::LD_GLOBAL: return LaneOp::kLdGlobal;
    case Opcode::LD_SHARED: return LaneOp::kLdShared;
    case Opcode::TEX2D: return LaneOp::kTex2d;
    case Opcode::ST_GLOBAL:
    case Opcode::ST_SHARED: return LaneOp::kStore;
    case Opcode::BRA:
    case Opcode::RET:
    case Opcode::BAR: return LaneOp::kControl;
  }
  return LaneOp::kControl;
}

}  // namespace

KernelAnalysis::KernelAnalysis(const ir::Kernel& k)
    : cfg_(analysis::build_cfg(k)),
      ipdom_(analysis::compute_ipdom(cfg_)),
      dataflow_(analysis::compute_dataflow(k, cfg_)),
      fingerprint_(fingerprint(k)) {
  block_first_.reserve(k.blocks.size());
  block_size_.reserve(k.blocks.size());
  size_t total = 0;
  for (const auto& b : k.blocks) total += b.insts.size();
  decoded_.reserve(total);
  for (uint32_t blk = 0; blk < k.blocks.size(); ++blk) {
    const auto& b = k.blocks[blk];
    block_first_.push_back(static_cast<uint32_t>(decoded_.size()));
    block_size_.push_back(static_cast<uint32_t>(b.insts.size()));
    for (uint32_t i = 0; i < b.insts.size(); ++i) {
      const auto& in = b.insts[i];
      DecodedInst d;
      d.in = &in;
      d.lane_op = classify_lane_op(in);
      d.num_srcs = in.num_srcs;
      d.has_dst = in.info().has_dst;
      d.is_store =
          in.op == ir::Opcode::ST_GLOBAL || in.op == ir::Opcode::ST_SHARED;
      d.is_control = in.op == ir::Opcode::BRA || in.op == ir::Opcode::RET ||
                     in.op == ir::Opcode::BAR;
      decoded_.push_back(d);
    }
  }
}

uint64_t KernelAnalysis::fingerprint(const ir::Kernel& k) {
  // FNV-1a over the fields that determine control flow and decoding, AND
  // over the addresses of the instruction storage itself.  The decoded
  // stream holds pointers into k.blocks[i].insts; a cache hit is only
  // sound if the instructions the entry points at are the ones currently
  // live at those addresses.  Mixing insts.data() in means a re-parsed
  // kernel at a reused Kernel address cannot alias a stale entry: either
  // its vectors landed elsewhere (hash differs -> rebuild) or they landed
  // on the very same storage with the same content (pointers valid).
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(k.num_regs());
  mix(k.blocks.size());
  for (const auto& b : k.blocks) {
    mix(reinterpret_cast<uintptr_t>(b.insts.data()));
    mix(b.insts.size());
    for (const auto& in : b.insts) {
      mix(static_cast<uint64_t>(in.op));
      mix(static_cast<uint64_t>(in.type));
      mix(in.dst);
      mix(in.target);
      mix(in.guard);
      mix(static_cast<uint64_t>(in.num_srcs));
    }
  }
  return h;
}

std::shared_ptr<const KernelAnalysis> AnalysisCache::get(const ir::Kernel& k) {
  const uint64_t fp = KernelAnalysis::fingerprint(k);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(&k);
    if (it != cache_.end() && it->second.fingerprint == fp) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.analysis;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Build outside the lock: analyses of distinct kernels proceed in
  // parallel, and a racing duplicate build of the same kernel is benign
  // (last writer wins, both results are equivalent).
  auto built = std::make_shared<const KernelAnalysis>(k);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cache_.size() >= kMaxEntries) cache_.clear();
    cache_[&k] = Entry{fp, built};
  }
  return built;
}

size_t AnalysisCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

AnalysisCache& default_analysis_cache() {
  static AnalysisCache cache;
  return cache;
}

std::shared_ptr<const KernelAnalysis> analyze_kernel(const ir::Kernel& k) {
  AnalysisCache* cache = detail::tl_current_analysis_cache;
  return (cache ? *cache : default_analysis_cache()).get(k);
}

}  // namespace gpurf::exec
