// Tests for CFG utilities, liveness and the interval domain, including
// property-style parameterized sweeps of the interval transfer functions
// against concrete evaluation.

#include <gtest/gtest.h>

#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/interval.hpp"
#include "analysis/liveness.hpp"
#include "common/rng.hpp"
#include "ir/parser.hpp"

namespace gpurf::analysis {
namespace {

using gpurf::ir::parse_kernel;

ir::Kernel diamond() {
  return parse_kernel(R"(
.kernel diamond
.reg s32 %a
.reg pred %p
entry:
  mov.s32 %a, %tid.x
  setp.lt.s32 %p, %a, 16
  @%p bra left
right:
  add.s32 %a, %a, 1
  bra join
left:
  add.s32 %a, %a, 2
join:
  ret
)");
}

TEST(Cfg, DiamondStructure) {
  auto k = diamond();
  Cfg cfg = build_cfg(k);
  ASSERT_EQ(cfg.num_blocks(), 4u);
  EXPECT_EQ(cfg.succs[0], (std::vector<uint32_t>{2, 1}));  // taken, fall
  EXPECT_EQ(cfg.succs[1], (std::vector<uint32_t>{3}));
  EXPECT_EQ(cfg.succs[2], (std::vector<uint32_t>{3}));
  EXPECT_EQ(cfg.preds[3].size(), 2u);
  // RPO starts at entry.
  EXPECT_EQ(cfg.rpo.front(), 0u);
}

TEST(Cfg, DominatorsDiamond) {
  auto k = diamond();
  Cfg cfg = build_cfg(k);
  auto idom = compute_idom(cfg);
  EXPECT_EQ(idom[0], 0u);
  EXPECT_EQ(idom[1], 0u);
  EXPECT_EQ(idom[2], 0u);
  EXPECT_EQ(idom[3], 0u);  // join dominated by entry, not by either arm
}

TEST(Cfg, PostDominatorsDiamond) {
  auto k = diamond();
  Cfg cfg = build_cfg(k);
  auto ipdom = compute_ipdom(cfg);
  EXPECT_EQ(ipdom[0], 3u);  // branch reconverges at the join
  EXPECT_EQ(ipdom[1], 3u);
  EXPECT_EQ(ipdom[2], 3u);
  EXPECT_EQ(ipdom[3], kNoBlock);  // exit
}

TEST(Cfg, DominanceFrontierDiamond) {
  auto k = diamond();
  Cfg cfg = build_cfg(k);
  auto df = compute_dominance_frontiers(cfg, compute_idom(cfg));
  EXPECT_EQ(df[1], (std::vector<uint32_t>{3}));
  EXPECT_EQ(df[2], (std::vector<uint32_t>{3}));
  EXPECT_TRUE(df[3].empty());
}

TEST(Cfg, LoopPostDominators) {
  auto k = parse_kernel(R"(
.kernel loop
.reg s32 %i
.reg pred %p
entry:
  mov.s32 %i, 0
head:
  setp.ge.s32 %p, %i, 4
  @%p bra exit
body:
  add.s32 %i, %i, 1
  bra head
exit:
  ret
)");
  Cfg cfg = build_cfg(k);
  auto ipdom = compute_ipdom(cfg);
  EXPECT_EQ(ipdom[1], k.find_block("exit"));  // loop header reconverges at exit
}

TEST(Liveness, PressureSimple) {
  auto k = parse_kernel(R"(
.kernel p
.reg s32 %a
.reg s32 %b
.reg s32 %c
entry:
  mov.s32 %a, 1
  mov.s32 %b, 2
  add.s32 %c, %a, %b
  st.global.s32 [%a], %c
  ret
)");
  Cfg cfg = build_cfg(k);
  auto lv = compute_liveness(k, cfg);
  EXPECT_TRUE(lv.undefined_uses.empty());
  // %b dies at the add and %c is born there, so the peak simultaneous set
  // is {a, b} before the add / {a, c} after: 2 registers.
  EXPECT_EQ(lv.max_pressure, 2u);
}

TEST(Liveness, DeadCodeHasNoPressure) {
  auto k = parse_kernel(R"(
.kernel d
.reg s32 %a
.reg s32 %dead
entry:
  mov.s32 %a, 1
  st.global.s32 [%a], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  auto lv = compute_liveness(k, cfg);
  EXPECT_EQ(lv.max_pressure, 1u);  // %dead never appears
}

TEST(Liveness, UndefinedUseDetected) {
  auto k = parse_kernel(R"(
.kernel u
.reg s32 %a
.reg s32 %never
entry:
  add.s32 %a, %never, 1
  st.global.s32 [%a], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  auto lv = compute_liveness(k, cfg);
  ASSERT_EQ(lv.undefined_uses.size(), 1u);
  EXPECT_EQ(lv.undefined_uses[0], k.find_reg("never"));
}

TEST(Liveness, GuardedDefKeepsOldValueLive) {
  auto k = parse_kernel(R"(
.kernel g
.reg s32 %a
.reg s32 %b
.reg pred %p
entry:
  mov.s32 %a, 1
  mov.s32 %b, 2
  setp.lt.s32 %p, %b, 3
  @%p mov.s32 %a, 5
  st.global.s32 [%b], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  auto lv = compute_liveness(k, cfg);
  auto adj = build_interference(k, cfg, lv);
  // %a's initial value must survive across the guarded redefinition, so
  // %a and %b interfere throughout.
  EXPECT_TRUE(adj[k.find_reg("a")].test(k.find_reg("b")));
}

// ------------------------------------------------------------------------
// Property tests: interval transfer functions are sound w.r.t. concrete
// evaluation, parameterized over the operator.

struct IvCase {
  const char* name;
  Interval (*transfer)(const Interval&, const Interval&);
  int64_t (*concrete)(int64_t, int64_t);
};

int64_t c_add(int64_t a, int64_t b) { return a + b; }
int64_t c_sub(int64_t a, int64_t b) { return a - b; }
int64_t c_mul(int64_t a, int64_t b) { return a * b; }
int64_t c_div(int64_t a, int64_t b) { return b == 0 ? 0 : a / b; }
int64_t c_rem(int64_t a, int64_t b) { return b == 0 ? 0 : a % b; }
int64_t c_min(int64_t a, int64_t b) { return std::min(a, b); }
int64_t c_max(int64_t a, int64_t b) { return std::max(a, b); }
int64_t c_and(int64_t a, int64_t b) { return a & b; }
int64_t c_or(int64_t a, int64_t b) { return a | b; }
int64_t c_xor(int64_t a, int64_t b) { return a ^ b; }

Interval t_div(const Interval& a, const Interval& b) {
  // Division by a range containing only zero is modelled as top; skip it
  // in the property by construction below.
  return iv_div(a, b);
}

class IntervalProperty : public ::testing::TestWithParam<IvCase> {};

TEST_P(IntervalProperty, SoundOverSampledValues) {
  const IvCase& c = GetParam();
  gpurf::Pcg32 rng(0xC0FFEE);
  for (int trial = 0; trial < 200; ++trial) {
    // Random small-ish intervals (sign mix, includes degenerate points).
    auto rnd = [&](int span) {
      const int64_t lo = int64_t(rng.next_below(2 * span)) - span;
      const int64_t hi = lo + rng.next_below(span);
      return Interval::make(lo, hi);
    };
    const Interval A = rnd(300), B = rnd(300);
    const Interval R = c.transfer(A, B);
    for (int s = 0; s < 16; ++s) {
      const int64_t a = A.lo + int64_t(rng.next_below(uint32_t(A.hi - A.lo + 1)));
      const int64_t b = B.lo + int64_t(rng.next_below(uint32_t(B.hi - B.lo + 1)));
      if ((c.concrete == c_div || c.concrete == c_rem) && b == 0) continue;
      const int64_t r = c.concrete(a, b);
      EXPECT_TRUE(R.contains(r))
          << c.name << ": " << a << " op " << b << " = " << r
          << " outside " << R.str() << " for A=" << A.str()
          << " B=" << B.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, IntervalProperty,
    ::testing::Values(IvCase{"add", iv_add, c_add},
                      IvCase{"sub", iv_sub, c_sub},
                      IvCase{"mul", iv_mul, c_mul},
                      IvCase{"div", t_div, c_div},
                      IvCase{"rem", iv_rem, c_rem},
                      IvCase{"min", iv_min, c_min},
                      IvCase{"max", iv_max, c_max},
                      IvCase{"and", iv_and, c_and},
                      IvCase{"or", iv_or, c_or},
                      IvCase{"xor", iv_xor, c_xor}),
    [](const ::testing::TestParamInfo<IvCase>& i) {
      return std::string(i.param.name);
    });

TEST(Interval, UnionIntersect) {
  const Interval a = Interval::make(0, 10);
  const Interval b = Interval::make(5, 20);
  EXPECT_EQ(iv_union(a, b), Interval::make(0, 20));
  EXPECT_EQ(iv_intersect(a, b), Interval::make(5, 10));
  EXPECT_TRUE(iv_intersect(Interval::make(0, 1), Interval::make(5, 6))
                  .is_empty());
  EXPECT_EQ(iv_union(Interval::empty(), a), a);
}

TEST(Interval, EmptyPropagation) {
  const Interval e = Interval::empty();
  const Interval a = Interval::make(1, 2);
  EXPECT_TRUE(iv_add(e, a).is_empty());
  EXPECT_TRUE(iv_mul(a, e).is_empty());
  EXPECT_TRUE(iv_neg(e).is_empty());
}

TEST(Interval, ShiftTransfers) {
  EXPECT_EQ(iv_shl(Interval::make(1, 3), Interval::point(4)),
            Interval::make(16, 48));
  EXPECT_EQ(iv_shr_s(Interval::make(-8, 8), Interval::point(1)),
            Interval::make(-4, 4));
  // Logical shift of a possibly-negative value covers the full u32 range.
  EXPECT_EQ(iv_shr_u(Interval::make(-1, 1), Interval::point(1)),
            Interval::full_u32());
}

TEST(Interval, NotNegAbs) {
  EXPECT_EQ(iv_not(Interval::make(0, 255)), Interval::make(-256, -1));
  EXPECT_EQ(iv_neg(Interval::make(-3, 7)), Interval::make(-7, 3));
  EXPECT_EQ(iv_abs(Interval::make(-3, 7)), Interval::make(0, 7));
  EXPECT_EQ(iv_abs(Interval::make(-9, -2)), Interval::make(2, 9));
}

TEST(Interval, InfinityAwareArithmetic) {
  const Interval top = Interval::top();
  EXPECT_TRUE(iv_add(top, Interval::point(5)).lo_inf());
  EXPECT_TRUE(iv_add(top, Interval::point(5)).hi_inf());
  const Interval half = Interval::make(0, Interval::kPosInf);
  EXPECT_EQ(iv_add(half, Interval::point(1)).lo, 1);
  EXPECT_TRUE(iv_add(half, Interval::point(1)).hi_inf());
}

// ----------------------------------------------------- dataflow (PR 9)

TEST(Dataflow, PointLivenessStraightLine) {
  auto k = parse_kernel(R"(
.kernel p
.reg s32 %a
.reg s32 %b
.reg s32 %c
entry:
  mov.s32 %a, 1
  mov.s32 %b, 2
  add.s32 %c, %a, %b
  st.global.s32 [%a], %c
  ret
)");
  Cfg cfg = build_cfg(k);
  const Dataflow df = compute_dataflow(k, cfg);
  const uint32_t a = k.find_reg("a"), b = k.find_reg("b"), c = k.find_reg("c");

  // Before the add (point 2): a and b live, c not yet.
  EXPECT_TRUE(df.live_at(0, 2, a));
  EXPECT_TRUE(df.live_at(0, 2, b));
  EXPECT_FALSE(df.live_at(0, 2, c));
  // Before the store (point 3): b is dead, a and c live.
  EXPECT_FALSE(df.live_at(0, 3, b));
  EXPECT_TRUE(df.live_at(0, 3, a));
  EXPECT_TRUE(df.live_at(0, 3, c));
  // Nothing here is a dead write.
  for (uint32_t i = 0; i < df.block_size[0]; ++i)
    EXPECT_FALSE(df.dst_dead(0, i)) << "inst " << i;
  // Def-use chains: each reg defined once; a read twice (add + address).
  EXPECT_EQ(df.def_count[a], 1u);
  EXPECT_EQ(df.use_count[a], 2u);
  EXPECT_EQ(df.use_count[c], 1u);
}

TEST(Dataflow, DeadWriteAndNeverReadDetected) {
  auto k = parse_kernel(R"(
.kernel dw
.reg s32 %a
.reg s32 %scratch
entry:
  mov.s32 %a, 7
  mul.s32 %scratch, %a, 3
  mov.s32 %a, %tid.x
  st.global.s32 [%a], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  const Dataflow df = compute_dataflow(k, cfg);
  // The mul's destination is never read, and the first mov to %a is
  // overwritten after its only use feeds the mul.
  EXPECT_TRUE(df.dst_dead(0, 1));
  EXPECT_FALSE(df.dst_dead(0, 0));  // %a=7 is read by the mul
  EXPECT_FALSE(df.dst_dead(0, 2));

  const KernelReport rep = build_kernel_report(k, cfg, df);
  ASSERT_EQ(rep.dead_writes.size(), 1u);
  EXPECT_EQ(rep.dead_writes[0].reg, k.find_reg("scratch"));
  ASSERT_EQ(rep.never_read.size(), 1u);
  EXPECT_EQ(rep.never_read[0], k.find_reg("scratch"));
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.reg_names[rep.never_read[0]], "scratch");
}

TEST(Dataflow, PartialDefKeepsDstLiveBeforeGuard) {
  auto k = parse_kernel(R"(
.kernel g
.reg s32 %a
.reg s32 %b
.reg pred %p
entry:
  mov.s32 %a, 1
  mov.s32 %b, 2
  setp.lt.s32 %p, %b, 3
  @%p mov.s32 %a, 5
  st.global.s32 [%b], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  const Dataflow df = compute_dataflow(k, cfg);
  const uint32_t a = k.find_reg("a");
  // The guarded mov merges into %a, so the incoming value is still live
  // before it (the guard may be false) — and the merged def is not dead.
  EXPECT_TRUE(df.live_at(0, 3, a));
  EXPECT_FALSE(df.dst_dead(0, 3));
  // An unconditional def would have killed it: point 1 (before %b's mov,
  // after %a's) still has a live because the store reads it.
  EXPECT_TRUE(df.live_at(0, 1, a));
}

TEST(Dataflow, UndefinedReadSurfacesInReport) {
  auto k = parse_kernel(R"(
.kernel u
.reg s32 %a
.reg s32 %never
entry:
  add.s32 %a, %never, 1
  st.global.s32 [%a], %a
  ret
)");
  Cfg cfg = build_cfg(k);
  const Dataflow df = compute_dataflow(k, cfg);
  const KernelReport rep = build_kernel_report(k, cfg, df);
  ASSERT_EQ(rep.undefined_reads.size(), 1u);
  EXPECT_EQ(rep.undefined_reads[0], k.find_reg("never"));
  EXPECT_FALSE(rep.clean());
}

}  // namespace
}  // namespace gpurf::analysis
