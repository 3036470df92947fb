#include "exec/interp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "analysis/memory_access.hpp"
#include "common/bitutil.hpp"
#include "common/error.hpp"

namespace gpurf::exec {

namespace ir = gpurf::ir;
using ir::Instruction;
using ir::Opcode;
using ir::Type;

namespace {

int32_t as_s(uint32_t v) { return static_cast<int32_t>(v); }
float as_f(uint32_t v) { return bits_float(v); }
uint32_t from_s(int32_t v) { return static_cast<uint32_t>(v); }
uint32_t from_f(float v) { return float_bits(v); }

/// Wrapping 32-bit multiply (hardware semantics, no UB).
uint32_t mul32(uint32_t a, uint32_t b) {
  return static_cast<uint32_t>(
      static_cast<uint64_t>(a) * static_cast<uint64_t>(b));
}

int32_t sdiv(int32_t a, int32_t b) {
  if (b == 0) return 0;                      // deterministic, like saturating HW
  if (a == INT32_MIN && b == -1) return INT32_MIN;
  return a / b;
}
int32_t srem(int32_t a, int32_t b) {
  if (b == 0) return 0;
  if (a == INT32_MIN && b == -1) return 0;
  return a % b;
}

int32_t f2s(float v) {
  if (std::isnan(v)) return 0;
  if (v >= 2147483647.0f) return INT32_MAX;
  if (v <= -2147483648.0f) return INT32_MIN;
  return static_cast<int32_t>(v);  // trunc toward zero
}
uint32_t f2u(float v) {
  if (std::isnan(v) || v <= 0.0f) return 0;
  if (v >= 4294967295.0f) return UINT32_MAX;
  return static_cast<uint32_t>(v);
}

}  // namespace

BlockExec::BlockExec(ExecContext& ctx, uint32_t ctaid_x, uint32_t ctaid_y)
    : ctx_(ctx),
      k_(*ctx.kernel),
      ka_(ctx.analysis ? ctx.analysis : make_kernel_analysis(k_)),
      ctaid_x_(ctaid_x),
      ctaid_y_(ctaid_y) {
  const uint32_t tpb = ctx.launch.threads_per_block();
  const uint32_t nwarps = ctx.launch.warps_per_block();
  warps_.reserve(nwarps);
  for (uint32_t w = 0; w < nwarps; ++w) {
    const uint32_t first = w * kWarpSize;
    uint32_t valid = 0;
    for (uint32_t l = 0; l < kWarpSize; ++l)
      if (first + l < tpb) valid |= (1u << l);
    warps_.emplace_back(k_.num_regs(), w, valid);
  }
  // Sized via the shared helper so the interpreter and the static memory
  // pass agree exactly on what "in bounds" means for shared accesses.
  shared_.assign(analysis::shared_words(k_), 0);
}

bool BlockExec::all_done() const {
  for (const auto& w : warps_)
    if (!w.done()) return false;
  return true;
}

const DecodedInst* BlockExec::peek_decoded(uint32_t w) const {
  const WarpState& ws = warps_[w];
  if (ws.done()) return nullptr;
  const StackEntry& tos = ws.stack_.back();
  return &ka_->inst(tos.blk, tos.inst);
}

uint32_t BlockExec::special_value(ir::Special s, uint32_t warp_in_block,
                                  uint32_t lane) const {
  const uint32_t linear = warp_in_block * kWarpSize + lane;
  const auto& lc = ctx_.launch;
  switch (s) {
    case ir::Special::TID_X: return linear % lc.block_x;
    case ir::Special::TID_Y: return linear / lc.block_x;
    case ir::Special::CTAID_X: return ctaid_x_;
    case ir::Special::CTAID_Y: return ctaid_y_;
    case ir::Special::NTID_X: return lc.block_x;
    case ir::Special::NTID_Y: return lc.block_y;
    case ir::Special::NCTAID_X: return lc.grid_x;
    case ir::Special::NCTAID_Y: return lc.grid_y;
  }
  return 0;
}

uint32_t BlockExec::read_operand(const WarpState& ws, const ir::Operand& o,
                                 uint32_t lane) const {
  switch (o.kind) {
    case ir::Operand::Kind::REG:
      return ws.reg(o.index, lane);
    case ir::Operand::Kind::IMM_I:
      return static_cast<uint32_t>(static_cast<int64_t>(o.imm_i));
    case ir::Operand::Kind::IMM_F:
      return from_f(o.imm_f);
    case ir::Operand::Kind::SPECIAL:
      return special_value(static_cast<ir::Special>(o.index),
                           ws.warp_in_block(), lane);
    case ir::Operand::Kind::PARAM:
      return ctx_.params.at(o.index);
  }
  return 0;
}

void BlockExec::write_dst(WarpState& ws, const Instruction& in, uint32_t lane,
                          uint32_t raw) {
  const uint32_t d = in.dst;
  const Type t = k_.regs[d].type;

  // Model the sliced register file: a value stored through a narrow float
  // format is quantized on every write (§3.2.6, Value Truncator).
  if (t == Type::F32 && ctx_.precision && ctx_.precision->active()) {
    const auto& fmt = ctx_.precision->format(d);
    if (!fmt.is_fp32())
      raw = from_f(gpurf::fp::quantize(as_f(raw), fmt));
  }

  // Soundness check: integer values must stay inside the statically
  // computed range (a violation is a range-analysis bug, not a data bug).
  if (ctx_.range_check && ir::is_int(t)) {
    const auto& info = ctx_.range_check->regs[d];
    if (info.analyzed) {
      const int64_t v = (t == Type::S32)
                            ? static_cast<int64_t>(as_s(raw))
                            : static_cast<int64_t>(raw);
      GPURF_ASSERT(info.range.contains(v),
                   "range violation: %" << k_.regs[d].name << " = " << v
                                        << " outside " << info.range.str());
    }
  }
  ws.set_reg(d, lane, raw);
}

uint32_t BlockExec::exec_lane(const WarpState& ws, const Instruction& in,
                              uint32_t lane, StepResult& res) const {
  auto S = [&](int i) { return read_operand(ws, in.srcs[i], lane); };
  const Type t = in.type;

  switch (in.op) {
    case Opcode::ADD:
      return t == Type::F32 ? from_f(as_f(S(0)) + as_f(S(1)))
                            : S(0) + S(1);
    case Opcode::SUB:
      return t == Type::F32 ? from_f(as_f(S(0)) - as_f(S(1)))
                            : S(0) - S(1);
    case Opcode::MUL:
      return t == Type::F32 ? from_f(as_f(S(0)) * as_f(S(1)))
                            : mul32(S(0), S(1));
    case Opcode::MAD:
      return t == Type::F32
                 ? from_f(as_f(S(0)) * as_f(S(1)) + as_f(S(2)))
                 : mul32(S(0), S(1)) + S(2);
    case Opcode::DIV:
      if (t == Type::F32) return from_f(as_f(S(0)) / as_f(S(1)));
      if (t == Type::U32) return S(1) == 0 ? 0u : S(0) / S(1);
      return from_s(sdiv(as_s(S(0)), as_s(S(1))));
    case Opcode::REM:
      if (t == Type::U32) return S(1) == 0 ? 0u : S(0) % S(1);
      return from_s(srem(as_s(S(0)), as_s(S(1))));
    case Opcode::MIN:
      if (t == Type::F32) return from_f(std::fmin(as_f(S(0)), as_f(S(1))));
      if (t == Type::U32) return std::min(S(0), S(1));
      return from_s(std::min(as_s(S(0)), as_s(S(1))));
    case Opcode::MAX:
      if (t == Type::F32) return from_f(std::fmax(as_f(S(0)), as_f(S(1))));
      if (t == Type::U32) return std::max(S(0), S(1));
      return from_s(std::max(as_s(S(0)), as_s(S(1))));
    case Opcode::ABS:
      if (t == Type::F32) return from_f(std::fabs(as_f(S(0))));
      return from_s(as_s(S(0)) < 0 ? -as_s(S(0)) : as_s(S(0)));
    case Opcode::NEG:
      if (t == Type::F32) return from_f(-as_f(S(0)));
      return from_s(-as_s(S(0)));
    case Opcode::AND: return S(0) & S(1);
    case Opcode::OR: return S(0) | S(1);
    case Opcode::XOR: return S(0) ^ S(1);
    case Opcode::NOT: return ~S(0);
    case Opcode::SHL: return S(0) << (S(1) & 31);
    case Opcode::SHR:
      if (t == Type::S32) return from_s(as_s(S(0)) >> (S(1) & 31));
      return S(0) >> (S(1) & 31);
    case Opcode::SIN: return from_f(std::sin(as_f(S(0))));
    case Opcode::COS: return from_f(std::cos(as_f(S(0))));
    case Opcode::EX2: return from_f(std::exp2(as_f(S(0))));
    case Opcode::LG2: return from_f(std::log2(as_f(S(0))));
    case Opcode::SQRT: return from_f(std::sqrt(as_f(S(0))));
    case Opcode::RSQRT: return from_f(1.0f / std::sqrt(as_f(S(0))));
    case Opcode::RCP: return from_f(1.0f / as_f(S(0)));
    case Opcode::MOV: return S(0);
    case Opcode::SELP: return S(2) != 0 ? S(0) : S(1);
    case Opcode::CVT: {
      const uint32_t v = S(0);
      if (in.cvt_src_type == Type::F32) {
        return in.type == Type::S32 ? from_s(f2s(as_f(v))) : f2u(as_f(v));
      }
      if (in.type == Type::F32) {
        return in.cvt_src_type == Type::S32
                   ? from_f(static_cast<float>(as_s(v)))
                   : from_f(static_cast<float>(v));
      }
      return v;  // s32 <-> u32: raw copy
    }
    case Opcode::SETP: {
      const uint32_t a = S(0), b = S(1);
      bool r = false;
      auto cmp3 = [&](auto x, auto y) {
        switch (in.cmp) {
          case ir::CmpOp::EQ: return x == y;
          case ir::CmpOp::NE: return x != y;
          case ir::CmpOp::LT: return x < y;
          case ir::CmpOp::LE: return x <= y;
          case ir::CmpOp::GT: return x > y;
          case ir::CmpOp::GE: return x >= y;
        }
        return false;
      };
      if (t == Type::F32) r = cmp3(as_f(a), as_f(b));
      else if (t == Type::U32) r = cmp3(a, b);
      else r = cmp3(as_s(a), as_s(b));
      return r ? 1u : 0u;
    }
    case Opcode::LD_GLOBAL: {
      const int64_t addr = static_cast<int64_t>(S(0)) + in.mem_offset;
      res.addr[lane] = static_cast<uint32_t>(addr);
      GPURF_CHECK(addr >= 0, "negative global address");
      return ctx_.gmem->read(static_cast<uint32_t>(addr));
    }
    case Opcode::LD_SHARED: {
      const int64_t addr = static_cast<int64_t>(S(0)) + in.mem_offset;
      res.addr[lane] = static_cast<uint32_t>(addr);
      GPURF_CHECK(addr >= 0 &&
                      addr < static_cast<int64_t>(shared_.size()),
                  "shared load out of bounds @" << addr);
      return shared_[static_cast<size_t>(addr)];
    }
    case Opcode::TEX2D: {
      const auto& tex = ctx_.textures->at(in.tex);
      const int u = as_s(S(0)), v = as_s(S(1));
      res.addr[lane] = tex.texel_index(u, v);
      return from_f(tex.fetch(u, v));
    }
    default:
      GPURF_ASSERT(false, "exec_lane: unexpected opcode");
      return 0;
  }
}

// The warp-wide hot path (gather_operand, exec_warp, write_dst_warp,
// step, and fp::quantize_warp) starts on 64-byte lines.  At the default
// 16-byte alignment a functional replay's speed moved by about 15 % with
// the size of unrelated code linked ahead of it (perfbench fresh-tune on
// a 4-core Xeon).
[[gnu::aligned(64)]]
void BlockExec::gather_operand(const WarpState& ws, const ir::Operand& o,
                               uint32_t* out) const {
  switch (o.kind) {
    case ir::Operand::Kind::REG: {
      const uint32_t* src = ws.lanes(o.index);
      for (uint32_t l = 0; l < kWarpSize; ++l) out[l] = src[l];
      return;
    }
    case ir::Operand::Kind::IMM_I: {
      const uint32_t v = static_cast<uint32_t>(static_cast<int64_t>(o.imm_i));
      for (uint32_t l = 0; l < kWarpSize; ++l) out[l] = v;
      return;
    }
    case ir::Operand::Kind::IMM_F: {
      const uint32_t v = from_f(o.imm_f);
      for (uint32_t l = 0; l < kWarpSize; ++l) out[l] = v;
      return;
    }
    case ir::Operand::Kind::SPECIAL: {
      const auto s = static_cast<ir::Special>(o.index);
      // Only the thread-index specials vary across a warp; everything else
      // is a launch constant and splats.
      if (s == ir::Special::TID_X || s == ir::Special::TID_Y) {
        for (uint32_t l = 0; l < kWarpSize; ++l)
          out[l] = special_value(s, ws.warp_in_block(), l);
        return;
      }
      const uint32_t v = special_value(s, ws.warp_in_block(), 0);
      for (uint32_t l = 0; l < kWarpSize; ++l) out[l] = v;
      return;
    }
    case ir::Operand::Kind::PARAM: {
      const uint32_t v = ctx_.params.at(o.index);
      for (uint32_t l = 0; l < kWarpSize; ++l) out[l] = v;
      return;
    }
  }
}

namespace {

/// Apply `fn(a, b)` across all 32 lanes — the workhorse the compiler
/// auto-vectorises (operations are total on every bit pattern, so inactive
/// lanes compute garbage that the masked write-back then discards).
template <typename Fn>
inline void warp_map2(const uint32_t* a, const uint32_t* b, uint32_t* out,
                      Fn&& fn) {
  for (uint32_t l = 0; l < 32; ++l) out[l] = fn(a[l], b[l]);
}

template <typename Fn>
inline void warp_map1(const uint32_t* a, uint32_t* out, Fn&& fn) {
  for (uint32_t l = 0; l < 32; ++l) out[l] = fn(a[l]);
}

/// Transcendentals dispatch to libm per lane; restrict them to active lanes
/// so a nearly-empty mask never pays 32 scalar calls.
template <typename Fn>
inline void warp_map1_masked(uint32_t mask, const uint32_t* a, uint32_t* out,
                             Fn&& fn) {
  for (uint32_t l = 0; l < 32; ++l)
    if ((mask >> l) & 1u) out[l] = fn(a[l]);
}

/// SETP comparison over a warp; the comparator is resolved once outside the
/// lane loop so each case is a branch-free compare-to-0/1 sweep.
template <typename Cast>
inline void warp_setp(ir::CmpOp cmp, const uint32_t* a, const uint32_t* b,
                      uint32_t* out, Cast cast) {
  switch (cmp) {
    case ir::CmpOp::EQ:
      warp_map2(a, b, out, [&](uint32_t x, uint32_t y) {
        return cast(x) == cast(y) ? 1u : 0u;
      });
      break;
    case ir::CmpOp::NE:
      warp_map2(a, b, out, [&](uint32_t x, uint32_t y) {
        return cast(x) != cast(y) ? 1u : 0u;
      });
      break;
    case ir::CmpOp::LT:
      warp_map2(a, b, out, [&](uint32_t x, uint32_t y) {
        return cast(x) < cast(y) ? 1u : 0u;
      });
      break;
    case ir::CmpOp::LE:
      warp_map2(a, b, out, [&](uint32_t x, uint32_t y) {
        return cast(x) <= cast(y) ? 1u : 0u;
      });
      break;
    case ir::CmpOp::GT:
      warp_map2(a, b, out, [&](uint32_t x, uint32_t y) {
        return cast(x) > cast(y) ? 1u : 0u;
      });
      break;
    case ir::CmpOp::GE:
      warp_map2(a, b, out, [&](uint32_t x, uint32_t y) {
        return cast(x) >= cast(y) ? 1u : 0u;
      });
      break;
  }
}

/// Signed word address of every lane (inactive lanes compute garbage that
/// the masked bounds test and accesses ignore).
inline void lane_addresses(const uint32_t* base, int32_t offset,
                           int64_t* addr) {
  for (uint32_t l = 0; l < 32; ++l)
    addr[l] = static_cast<int64_t>(base[l]) + offset;
}

/// Record the active lanes' addresses in the step's memory trace.
inline void trace_addresses(const int64_t* addr, uint32_t mask,
                            StepResult& res) {
  for (uint32_t l = 0; l < 32; ++l)
    if ((mask >> l) & 1u) res.addr[l] = static_cast<uint32_t>(addr[l]);
}

}  // namespace

[[gnu::aligned(64)]]
void BlockExec::exec_warp(WarpState& ws, const DecodedInst& dec,
                          uint32_t exec_mask, StepResult& res) {
  const Instruction& in = *dec.in;
  alignas(64) uint32_t a[kWarpSize];
  alignas(64) uint32_t b[kWarpSize];
  alignas(64) uint32_t c[kWarpSize];
  // Zero-initialised: masked cases (loads, transcendentals) leave inactive
  // lanes untouched, and the branch-free write-back select still reads them.
  alignas(64) uint32_t out[kWarpSize] = {};

  if (dec.num_srcs > 0) gather_operand(ws, in.srcs[0], a);
  if (dec.num_srcs > 1) gather_operand(ws, in.srcs[1], b);
  if (dec.num_srcs > 2) gather_operand(ws, in.srcs[2], c);

  switch (dec.lane_op) {
    case LaneOp::kAddF:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) {
        return from_f(as_f(x) + as_f(y));
      });
      break;
    case LaneOp::kAddI:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) { return x + y; });
      break;
    case LaneOp::kSubF:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) {
        return from_f(as_f(x) - as_f(y));
      });
      break;
    case LaneOp::kSubI:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) { return x - y; });
      break;
    case LaneOp::kMulF:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) {
        return from_f(as_f(x) * as_f(y));
      });
      break;
    case LaneOp::kMulI:
      warp_map2(a, b, out,
                [](uint32_t x, uint32_t y) { return mul32(x, y); });
      break;
    case LaneOp::kMadF:
      for (uint32_t l = 0; l < kWarpSize; ++l)
        out[l] = from_f(as_f(a[l]) * as_f(b[l]) + as_f(c[l]));
      break;
    case LaneOp::kMadI:
      for (uint32_t l = 0; l < kWarpSize; ++l)
        out[l] = mul32(a[l], b[l]) + c[l];
      break;
    case LaneOp::kDivF:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) {
        return from_f(as_f(x) / as_f(y));
      });
      break;
    case LaneOp::kDivS:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) {
        return from_s(sdiv(as_s(x), as_s(y)));
      });
      break;
    case LaneOp::kDivU:
      warp_map2(a, b, out,
                [](uint32_t x, uint32_t y) { return y == 0 ? 0u : x / y; });
      break;
    case LaneOp::kRemS:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) {
        return from_s(srem(as_s(x), as_s(y)));
      });
      break;
    case LaneOp::kRemU:
      warp_map2(a, b, out,
                [](uint32_t x, uint32_t y) { return y == 0 ? 0u : x % y; });
      break;
    case LaneOp::kMinF:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) {
        return from_f(std::fmin(as_f(x), as_f(y)));
      });
      break;
    case LaneOp::kMinS:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) {
        return from_s(std::min(as_s(x), as_s(y)));
      });
      break;
    case LaneOp::kMinU:
      warp_map2(a, b, out,
                [](uint32_t x, uint32_t y) { return std::min(x, y); });
      break;
    case LaneOp::kMaxF:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) {
        return from_f(std::fmax(as_f(x), as_f(y)));
      });
      break;
    case LaneOp::kMaxS:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) {
        return from_s(std::max(as_s(x), as_s(y)));
      });
      break;
    case LaneOp::kMaxU:
      warp_map2(a, b, out,
                [](uint32_t x, uint32_t y) { return std::max(x, y); });
      break;
    case LaneOp::kAbsF:
      warp_map1(a, out,
                [](uint32_t x) { return from_f(std::fabs(as_f(x))); });
      break;
    case LaneOp::kAbsI:
      warp_map1(a, out, [](uint32_t x) {
        return from_s(as_s(x) < 0 ? -as_s(x) : as_s(x));
      });
      break;
    case LaneOp::kNegF:
      warp_map1(a, out, [](uint32_t x) { return from_f(-as_f(x)); });
      break;
    case LaneOp::kNegI:
      warp_map1(a, out, [](uint32_t x) { return from_s(-as_s(x)); });
      break;
    case LaneOp::kAnd:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) { return x & y; });
      break;
    case LaneOp::kOr:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) { return x | y; });
      break;
    case LaneOp::kXor:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) { return x ^ y; });
      break;
    case LaneOp::kNot:
      warp_map1(a, out, [](uint32_t x) { return ~x; });
      break;
    case LaneOp::kShl:
      warp_map2(a, b, out,
                [](uint32_t x, uint32_t y) { return x << (y & 31); });
      break;
    case LaneOp::kShrS:
      warp_map2(a, b, out, [](uint32_t x, uint32_t y) {
        return from_s(as_s(x) >> (y & 31));
      });
      break;
    case LaneOp::kShrU:
      warp_map2(a, b, out,
                [](uint32_t x, uint32_t y) { return x >> (y & 31); });
      break;
    case LaneOp::kSin:
      warp_map1_masked(exec_mask, a, out,
                       [](uint32_t x) { return from_f(std::sin(as_f(x))); });
      break;
    case LaneOp::kCos:
      warp_map1_masked(exec_mask, a, out,
                       [](uint32_t x) { return from_f(std::cos(as_f(x))); });
      break;
    case LaneOp::kEx2:
      warp_map1_masked(exec_mask, a, out, [](uint32_t x) {
        return from_f(std::exp2(as_f(x)));
      });
      break;
    case LaneOp::kLg2:
      warp_map1_masked(exec_mask, a, out, [](uint32_t x) {
        return from_f(std::log2(as_f(x)));
      });
      break;
    case LaneOp::kSqrt:
      warp_map1(a, out,
                [](uint32_t x) { return from_f(std::sqrt(as_f(x))); });
      break;
    case LaneOp::kRsqrt:
      warp_map1(a, out, [](uint32_t x) {
        return from_f(1.0f / std::sqrt(as_f(x)));
      });
      break;
    case LaneOp::kRcp:
      warp_map1(a, out, [](uint32_t x) { return from_f(1.0f / as_f(x)); });
      break;
    case LaneOp::kMov:
      warp_map1(a, out, [](uint32_t x) { return x; });
      break;
    case LaneOp::kSelp:
      for (uint32_t l = 0; l < kWarpSize; ++l)
        out[l] = c[l] != 0 ? a[l] : b[l];
      break;
    case LaneOp::kCvtF2S:
      warp_map1_masked(exec_mask, a, out,
                       [](uint32_t x) { return from_s(f2s(as_f(x))); });
      break;
    case LaneOp::kCvtF2U:
      warp_map1_masked(exec_mask, a, out,
                       [](uint32_t x) { return f2u(as_f(x)); });
      break;
    case LaneOp::kCvtS2F:
      warp_map1(a, out, [](uint32_t x) {
        return from_f(static_cast<float>(as_s(x)));
      });
      break;
    case LaneOp::kCvtU2F:
      warp_map1(a, out,
                [](uint32_t x) { return from_f(static_cast<float>(x)); });
      break;
    case LaneOp::kCvtBits:
      warp_map1(a, out, [](uint32_t x) { return x; });
      break;
    case LaneOp::kSetpF:
      warp_setp(in.cmp, a, b, out, [](uint32_t x) { return as_f(x); });
      break;
    case LaneOp::kSetpS:
      warp_setp(in.cmp, a, b, out, [](uint32_t x) { return as_s(x); });
      break;
    case LaneOp::kSetpU:
      warp_setp(in.cmp, a, b, out, [](uint32_t x) { return x; });
      break;
    // Memory reads test every active lane's address once per warp; a warp
    // that fails the test replays through the scalar reference and keeps
    // its results, so it raises the scalar error at the first failing lane
    // or, for a lane the scalar rules accept (a global address at or past
    // 2^32 wraps to a u32 word), loads the word the scalar path loads.
    case LaneOp::kLdGlobal:
    case LaneOp::kLdShared: {
      alignas(64) int64_t addr[kWarpSize];
      lane_addresses(a, in.mem_offset, addr);
      const bool global = dec.lane_op == LaneOp::kLdGlobal;
      const bool ok =
          global ? ctx_.gmem->gather(addr, exec_mask, out)
                 : !(warp_oob_lanes(addr, shared_.size()) & exec_mask);
      if (ok && !global)
        for (uint32_t l = 0; l < kWarpSize; ++l)
          if ((exec_mask >> l) & 1u)
            out[l] = shared_[static_cast<size_t>(addr[l])];
      if (!ok)
        for (uint32_t l = 0; l < kWarpSize; ++l)
          if ((exec_mask >> l) & 1u) out[l] = exec_lane(ws, in, l, res);
      trace_addresses(addr, exec_mask, res);
      break;
    }
    case LaneOp::kTex2d: {
      const auto& tex = ctx_.textures->at(in.tex);
      for (uint32_t l = 0; l < kWarpSize; ++l) {
        if (!((exec_mask >> l) & 1u)) continue;
        const int u = as_s(a[l]), v = as_s(b[l]);
        res.addr[l] = tex.texel_index(u, v);
        out[l] = from_f(tex.fetch(u, v));
      }
      break;
    }
    case LaneOp::kStore:
    case LaneOp::kControl:
      GPURF_ASSERT(false, "exec_warp: unexpected lane op");
      break;
  }

  if (dec.has_dst) write_dst_warp(ws, in, exec_mask, out);
}

[[gnu::aligned(64)]]
void BlockExec::write_dst_warp(WarpState& ws, const Instruction& in,
                               uint32_t exec_mask, const uint32_t* vals) {
  const uint32_t d = in.dst;
  const Type t = k_.regs[d].type;

  // Sliced-register-file model, warp-wide (§3.2.6, Value Truncator): every
  // f32 write through a narrow format is quantized for the active lanes.
  alignas(64) uint32_t quant[kWarpSize];
  const uint32_t* src = vals;
  if (t == Type::F32 && ctx_.precision && ctx_.precision->active()) {
    const auto& fmt = ctx_.precision->format(d);
    if (!fmt.is_fp32()) {
      for (uint32_t l = 0; l < kWarpSize; ++l) quant[l] = vals[l];
      gpurf::fp::quantize_warp(quant, exec_mask, fmt);
      src = quant;
    }
  }

  if (ctx_.range_check && ir::is_int(t)) {
    const auto& info = ctx_.range_check->regs[d];
    if (info.analyzed) {
      for (uint32_t l = 0; l < kWarpSize; ++l) {
        if (!((exec_mask >> l) & 1u)) continue;
        const int64_t v = (t == Type::S32)
                              ? static_cast<int64_t>(as_s(src[l]))
                              : static_cast<int64_t>(src[l]);
        GPURF_ASSERT(info.range.contains(v),
                     "range violation: %" << k_.regs[d].name << " = " << v
                                          << " outside " << info.range.str());
      }
    }
  }

  uint32_t* dst = ws.regs_.data() + size_t(d) * kWarpSize;
  if (exec_mask == 0xffffffffu) {
    for (uint32_t l = 0; l < kWarpSize; ++l) dst[l] = src[l];
  } else {
    for (uint32_t l = 0; l < kWarpSize; ++l)
      dst[l] = ((exec_mask >> l) & 1u) ? src[l] : dst[l];
  }
}

[[gnu::aligned(64)]]
StepResult BlockExec::step(uint32_t w) {
  WarpState& ws = warps_[w];
  GPURF_ASSERT(!ws.done_, "step() on a finished warp");
  StackEntry& tos = ws.stack_.back();
  GPURF_ASSERT(tos.blk < ka_->num_blocks() &&
                   tos.inst < ka_->block_size(tos.blk),
               "pc out of range");
  const DecodedInst& dec = ka_->inst(tos.blk, tos.inst);
  const Instruction& in = *dec.in;

  StepResult res;
  res.inst = &in;

  // Guard mask, computed warp-wide: read the whole predicate row and build
  // the bit mask branch-free (restricting to tos.mask afterwards gives the
  // same result as testing it per lane).
  uint32_t exec_mask = tos.mask;
  if (in.guard != ir::kNoReg) {
    const uint32_t* g = ws.lanes(in.guard);
    uint32_t gm = 0;
    for (uint32_t l = 0; l < kWarpSize; ++l)
      gm |= (g[l] != 0 ? 1u : 0u) << l;
    exec_mask &= in.guard_neg ? ~gm : gm;
  }
  res.active_mask = exec_mask;
  ctx_.thread_insts += std::popcount(exec_mask);

  // Data-path execution (control instructions have no lane effects).  The
  // dispatch flags come predecoded from the kernel analysis, so the hot
  // loop performs no opcode-table lookups.
  if (!dec.is_control && exec_mask != 0) {
    if (dec.is_store) {
      if (!ctx_.use_soa || !store_warp(ws, in, exec_mask, res))
        store_lanes(ws, in, exec_mask, res);
    } else if (ctx_.use_soa) {
      // Warp-vectorized SoA data path (default).
      exec_warp(ws, dec, exec_mask, res);
    } else {
      // Scalar reference path, kept bit-for-bit equivalent for asserts and
      // differential fuzzing.
      for (uint32_t l = 0; l < kWarpSize; ++l) {
        if (!((exec_mask >> l) & 1u)) continue;
        const uint32_t v = exec_lane(ws, in, l, res);
        if (dec.has_dst) write_dst(ws, in, l, v);
      }
    }
  }

  advance(ws, in, exec_mask, res);
  return res;
}

bool BlockExec::store_warp(const WarpState& ws, const Instruction& in,
                           uint32_t exec_mask, StepResult& res) {
  alignas(64) uint32_t base[kWarpSize];
  alignas(64) uint32_t vals[kWarpSize];
  alignas(64) int64_t addr[kWarpSize];
  gather_operand(ws, in.srcs[0], base);
  gather_operand(ws, in.srcs[1], vals);
  lane_addresses(base, in.mem_offset, addr);
  if (in.op == Opcode::ST_GLOBAL) {
    if (!ctx_.gmem->scatter(addr, exec_mask, vals)) return false;
  } else {
    if (warp_oob_lanes(addr, shared_.size()) & exec_mask) return false;
    for (uint32_t l = 0; l < kWarpSize; ++l)
      if ((exec_mask >> l) & 1u)
        shared_[static_cast<size_t>(addr[l])] = vals[l];
  }
  trace_addresses(addr, exec_mask, res);
  return true;
}

void BlockExec::store_lanes(const WarpState& ws, const Instruction& in,
                            uint32_t exec_mask, StepResult& res) {
  for (uint32_t l = 0; l < kWarpSize; ++l) {
    if (!((exec_mask >> l) & 1u)) continue;
    const int64_t addr =
        static_cast<int64_t>(read_operand(ws, in.srcs[0], l)) + in.mem_offset;
    GPURF_CHECK(addr >= 0, "negative store address");
    res.addr[l] = static_cast<uint32_t>(addr);
    const uint32_t v = read_operand(ws, in.srcs[1], l);
    if (in.op == Opcode::ST_GLOBAL) {
      ctx_.gmem->write(static_cast<uint32_t>(addr), v);
    } else {
      GPURF_CHECK(addr < static_cast<int64_t>(shared_.size()),
                  "shared store out of bounds @" << addr);
      shared_[static_cast<size_t>(addr)] = v;
    }
  }
}

void BlockExec::advance(WarpState& ws, const Instruction& in,
                        uint32_t exec_mask, StepResult& res) {
  StackEntry& tos = ws.stack_.back();
  const uint32_t b = tos.blk;

  if (in.op == Opcode::RET) {
    GPURF_ASSERT(ws.stack_.size() == 1 && in.guard == ir::kNoReg,
                 "divergent or guarded RET is not supported");
    ws.done_ = true;
    res.warp_done = true;
    return;
  }
  if (in.op == Opcode::BAR) res.at_barrier = true;

  if (in.op == Opcode::BRA) {
    const uint32_t taken_blk = in.target;
    const uint32_t ft_blk = b + 1;
    const uint32_t taken = exec_mask;
    const uint32_t nottaken = tos.mask & ~exec_mask;
    if (nottaken == 0) {
      tos.blk = taken_blk;
      tos.inst = 0;
      pop_reconverged(ws);
    } else if (taken == 0) {
      GPURF_ASSERT(ft_blk < ka_->num_blocks(), "fallthrough out of range");
      tos.blk = ft_blk;
      tos.inst = 0;
      pop_reconverged(ws);
    } else {
      // Divergence: continue at the immediate post-dominator once both
      // sides reconverge (§3.1 lockstep execution).
      const uint32_t rpc = ka_->ipdom()[b];
      GPURF_ASSERT(rpc != ir::kNoBlock,
                   "divergent branch without reconvergence point");
      tos.blk = rpc;
      tos.inst = 0;
      ws.stack_.push_back(StackEntry{ft_blk, 0, rpc, nottaken});
      ws.stack_.push_back(StackEntry{taken_blk, 0, rpc, taken});
      // A side whose first block *is* the reconvergence point has nothing
      // to execute before reconverging (e.g. a loop-exit branch straight to
      // the join): pop it immediately so it waits in the continuation.
      pop_reconverged(ws);
    }
    return;
  }

  // Straight-line advance.
  if (tos.inst + 1 < ka_->block_size(b)) {
    ++tos.inst;
    return;
  }
  GPURF_ASSERT(b + 1 < ka_->num_blocks(), "control fell off the kernel");
  tos.blk = b + 1;
  tos.inst = 0;
  pop_reconverged(ws);
}

void BlockExec::pop_reconverged(WarpState& ws) {
  while (ws.stack_.size() > 1) {
    const StackEntry& t = ws.stack_.back();
    if (t.blk == t.rpc_blk && t.inst == 0) {
      ws.stack_.pop_back();
    } else {
      break;
    }
  }
}

void BlockExec::run_to_completion() {
  while (!all_done()) {
    bool progress = false;
    for (uint32_t w = 0; w < num_warps(); ++w) {
      while (!warps_[w].done()) {
        const StepResult r = step(w);
        progress = true;
        if (r.at_barrier) break;  // rotate to the next warp at barriers
      }
    }
    GPURF_ASSERT(progress, "block deadlocked");
  }
}

uint64_t run_functional(ExecContext& ctx) {
  GPURF_ASSERT(ctx.kernel && ctx.gmem, "incomplete ExecContext");
  // Hoist the static analysis out of the per-block loop: every BlockExec
  // of this launch shares one CFG/ipdom/decoded stream.
  if (!ctx.analysis) ctx.analysis = make_kernel_analysis(*ctx.kernel);
  ctx.thread_insts = 0;
  const uint32_t gx = ctx.launch.grid_x;
  const uint64_t nblocks = ctx.launch.num_blocks();
  for (uint64_t i = 0; i < nblocks; ++i) {
    BlockExec be(ctx, static_cast<uint32_t>(i % gx),
                 static_cast<uint32_t>(i / gx));
    be.run_to_completion();
  }
  return ctx.thread_insts;
}

}  // namespace gpurf::exec
