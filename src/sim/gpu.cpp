#include "sim/gpu.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "sim/cache.hpp"
#include "sim/soft_error.hpp"

namespace gpurf::sim {

namespace ir = gpurf::ir;
namespace exec = gpurf::exec;
using ir::Opcode;
using ir::UnitClass;

namespace {

constexpr int kNoIndex = -1;

/// Process-wide token bounding sharded-sim thread usage: at most one
/// simulation runs a dedicated shard crew at a time.  A second concurrent
/// sharded simulate degrades to the serial schedule (bit-identical by the
/// determinism contract — only wall-clock changes) instead of
/// oversubscribing the host with additional spin-barrier crews.  The sims
/// deliberately do NOT route through ThreadPool::parallel_for: that holds
/// the pool's submit mutex for the whole job, which would serialise every
/// other session's short fan-outs (tuner probe batches, and with them
/// their cancellation checkpoints) behind a multi-second hold.
std::atomic<bool> shard_crew_busy{false};

class ShardCrewToken {
 public:
  ShardCrewToken()
      : acquired_(!shard_crew_busy.exchange(true, std::memory_order_acquire)) {}
  ~ShardCrewToken() {
    if (acquired_) shard_crew_busy.store(false, std::memory_order_release);
  }
  ShardCrewToken(const ShardCrewToken&) = delete;
  ShardCrewToken& operator=(const ShardCrewToken&) = delete;

  bool acquired() const { return acquired_; }

 private:
  bool acquired_;
};

/// Execution latency by instruction class.
uint32_t latency_of(const GpuConfig& g, const ir::Instruction& in) {
  switch (in.op) {
    case Opcode::MUL:
    case Opcode::MAD:
      return in.type == ir::Type::F32 ? g.lat_mul : g.lat_alu;
    case Opcode::SIN: case Opcode::COS: case Opcode::EX2:
    case Opcode::LG2: case Opcode::SQRT: case Opcode::RSQRT:
    case Opcode::RCP: case Opcode::DIV: case Opcode::REM:
      return g.lat_sfu;
    default:
      return g.lat_alu;
  }
}

/// Most bank fetches one instruction needs: three source operands, each
/// split across at most two physical registers.
constexpr int kMaxFetches = 6;

/// One collector unit.  Whether it is in use, and whether its operands are
/// all collected, live in SmCore's CU bit masks.
struct CuEntry {
  int warp = kNoIndex;
  exec::StepResult step;
  uint64_t active_from = 0;  ///< fetch requests visible from this cycle
  uint64_t alloc_cycle = 0;  ///< age for arbitration and dispatch
  /// Banks of the fetches not yet served, unordered: two fetches to one
  /// bank are interchangeable, so which of them is served first is not
  /// observable.
  std::array<uint8_t, kMaxFetches> pending_banks{};
  uint8_t pending = 0;
  uint32_t conversions_left = 0;

  bool fetches_done() const { return pending == 0; }

  /// Serve one pending fetch to `bank`; returns whether another fetch to
  /// that bank is still pending.
  bool serve(uint8_t bank) {
    int f = 0;
    while (pending_banks[f] != bank) ++f;
    pending_banks[f] = pending_banks[--pending];
    for (int i = 0; i < pending; ++i)
      if (pending_banks[i] == bank) return true;
    return false;
  }
};

struct WriteBack {
  uint64_t cycle;
  int warp;
  uint32_t reg;
  bool operator>(const WriteBack& o) const { return cycle > o.cycle; }
};

struct BlockCtx {
  std::unique_ptr<exec::BlockExec> exec;
  uint32_t warps_live = 0;
  uint32_t barrier_arrived = 0;
};

/// One warp slot of an SM.  The slot index is the warp's global id: it
/// hashes operands to banks and picks the warp's scheduler
/// (slot % warp_schedulers).
struct WarpCtx {
  int block = kNoIndex;          ///< index into SmCore::blocks_
  uint32_t warp_in_block = 0;
  bool at_barrier = false;
  bool active = false;
  std::vector<uint8_t> pending;  ///< scoreboard flags per register
  /// The warp's next instruction (null once it is done).  Only step()
  /// moves a warp's PC — soft flips write registers, never the PC — so
  /// fill_blocks() and every issue refresh it.
  const exec::DecodedInst* next = nullptr;
  /// A register of `next` last seen pending (see scoreboard_clear).
  uint32_t blocked_on = ir::kNoReg;
};

class BlockDispatcher {
 public:
  explicit BlockDispatcher(const ir::LaunchConfig& lc) : lc_(lc) {}
  bool empty() const { return next_ >= uint64_t(lc_.num_blocks()); }
  std::pair<uint32_t, uint32_t> pop() {
    GPURF_ASSERT(!empty(), "dispatcher empty");
    const uint32_t bx = static_cast<uint32_t>(next_ % lc_.grid_x);
    const uint32_t by = static_cast<uint32_t>(next_ / lc_.grid_x);
    ++next_;
    return {bx, by};
  }

 private:
  const ir::LaunchConfig& lc_;
  uint64_t next_ = 0;
};

/// One LDST dispatch whose L2-dependent latency is resolved at the
/// barrier: the probe stream (`lines`) replays against the shared L2 in
/// SM-index order, because both the hit/miss outcome and the cache's
/// tick_-based LRU state depend on global access order.
struct PendingL2 {
  int warp = kNoIndex;        ///< destination warp (kNoIndex: no writeback)
  uint32_t reg = 0;           ///< destination register
  uint64_t issued_at = 0;     ///< dispatch cycle
  uint32_t base_latency = 0;  ///< latency floor (L1 / texture hit path)
  uint32_t extra = 0;         ///< serialisation cycles (transactions - 1)
  size_t line_begin = 0;      ///< range into SmCore::l2_lines_
  size_t line_end = 0;
};

class SmCore {
 public:
  /// Each SM owns a *copy* of the launch's ExecContext so that functional
  /// execution (thread_insts accumulation, analysis handle) never shares
  /// mutable state across SMs during a parallel tick.  Global memory stays
  /// shared: blocks of one launch write disjoint words (see gpu.hpp).
  SmCore(const GpuConfig& g, const CompressionConfig& cc,
         const KernelLaunchSpec& spec, const exec::ExecContext& base_ctx,
         const Occupancy& occ, const SoftErrorModel* soft_model)
      : g_(g),
        cc_(cc),
        spec_(spec),
        ctx_(base_ctx),
        soft_model_(soft_model),
        l1_(g.l1),
        tex_(g.tex) {
    ctx_.thread_insts = 0;
    cus_.resize(g.collector_units);
    const uint32_t wpb = spec.launch.warps_per_block();
    warps_.resize(size_t(occ.blocks_per_sm) * wpb);
    for (size_t slot = 0; slot < warps_.size(); ++slot) {
      warps_[slot].warp_in_block = uint32_t(slot % wpb);
      warps_[slot].pending.assign(spec.kernel->num_regs(), 0);
    }
    blocks_.resize(occ.blocks_per_sm);
    greedy_warp_.fill(kNoIndex);
  }

  bool idle() const {
    for (const auto& b : blocks_)
      if (b.exec) return false;
    return true;
  }

  /// Parallel phase: everything an SM does in one cycle that touches only
  /// SM-private state.  L2-bound memory dispatches are buffered (see
  /// PendingL2) instead of probing the shared L2; block refill moved to
  /// fill_blocks() in the barrier phase.
  void tick(uint64_t now) {
    if (soft_model_) accumulate_exposure();
    retire_writebacks(now);
    dispatch_ready(now);
    arbitrate_banks(now);
    run_converters(now);
    issue(now);
  }

  /// Serial phase only (SM-index order, like commit_memory): land one
  /// sampled strike on this SM and classify it.  Touches only SM-private
  /// state plus the warp's functional registers — which no other SM reads
  /// — so the taxonomy and the corrupted payloads are identical at every
  /// shard count.
  void apply_soft_flip(const FlipSite& ev) {
    ++stats_.soft_flips_injected;
    const auto masked = [&] { ++stats_.soft_flips_masked_dead; };
    if (ev.warp_slot >= warps_.size()) return masked();
    WarpCtx& wc = warps_[ev.warp_slot];
    if (!wc.active || wc.block == kNoIndex) return masked();
    BlockCtx& blk = blocks_[wc.block];
    if (!blk.exec) return masked();
    exec::WarpState& ws = blk.exec->warp_mut(wc.warp_in_block);
    if (ws.done() || ws.stack().empty()) return masked();
    if (!((ws.valid_mask() >> ev.lane) & 1u)) return masked();
    const exec::StackEntry& pos = ws.stack().back();

    // Resolve the struck site to an architectural register that is live at
    // the warp's current position.  Compressed allocations may alias one
    // site to several registers with disjoint live ranges; at most one of
    // them is live here (interference contract).
    uint32_t victim = SoftErrorModel::kNoReg;
    bool second_piece = false;
    if (cc_.enabled && spec_.allocation) {
      for (const SoftErrorModel::Owner& o :
           soft_model_->owners(ev.phys_reg, ev.slice))
        if (soft_model_->reg_live(pos.blk, pos.inst, o.reg)) {
          victim = o.reg;
          second_piece = o.second_piece;
          break;
        }
    } else if (ev.phys_reg < spec_.kernel->num_regs() &&
               spec_.kernel->regs[ev.phys_reg].type != ir::Type::PRED &&
               soft_model_->reg_live(pos.blk, pos.inst, ev.phys_reg)) {
      victim = ev.phys_reg;  // baseline: full-width storage at its own id
    }
    if (victim == SoftErrorModel::kNoReg) return masked();

    ++stats_.soft_flips_on_live;
    const uint32_t v = ws.reg(victim, ev.lane);
    const uint32_t corrupted =
        soft_model_->corrupt(v, victim, second_piece, ev.slice, ev.bit);
    if (corrupted == v) return;  // absorbed by the narrow storage encoding
    ws.set_reg(victim, ev.lane, corrupted);
    ++stats_.soft_flips_visible;
  }

  /// Barrier phase 1 (serial, SM-index order): replay this SM's buffered
  /// L2 probes against the shared L2 and schedule the writebacks whose
  /// latency depended on the hit/miss outcomes.
  void commit_memory(Cache& l2) {
    for (const PendingL2& p : pending_) {
      uint32_t worst = p.base_latency;
      for (size_t i = p.line_begin; i < p.line_end; ++i)
        worst = std::max(
            worst, l2.access(l2_lines_[i]) ? g_.lat_l2_hit : g_.lat_dram);
      if (p.warp != kNoIndex) {
        const uint64_t wb_extra = cc_.enabled ? cc_.writeback_delay : 0;
        wb_.push(WriteBack{p.issued_at + worst + p.extra + wb_extra, p.warp,
                           p.reg});
      }
    }
    pending_.clear();
    l2_lines_.clear();
  }

  /// Barrier phase 2 (serial, SM-index order): claim blocks from the
  /// shared dispatcher.  Running this at the barrier — instead of
  /// on-demand inside tick() — is what makes block placement a pure
  /// function of the cycle number and the SM index.
  void fill_blocks(BlockDispatcher& dispatcher) {
    for (uint32_t slot = 0; slot < blocks_.size(); ++slot) {
      if (blocks_[slot].exec || dispatcher.empty()) continue;
      auto [bx, by] = dispatcher.pop();
      BlockCtx& b = blocks_[slot];
      b.exec = std::make_unique<exec::BlockExec>(ctx_, bx, by);
      b.warps_live = warps_per_block();
      b.barrier_arrived = 0;
      ++stats_.blocks_run;
      for (uint32_t w = 0; w < warps_per_block(); ++w) {
        WarpCtx& wc = warps_[size_t(slot) * warps_per_block() + w];
        wc.block = static_cast<int>(slot);
        wc.active = true;
        wc.at_barrier = false;
        std::fill(wc.pending.begin(), wc.pending.end(), 0);
        wc.next = b.exec->peek_decoded(w);
      }
    }
  }

  /// L1 / texture miss-rate bookkeeping is merged into this SM's stats at
  /// the end of the run; simulate() folds per-SM stats in SM-index order.
  void flush_cache_stats() {
    stats_.l1.merge(l1_.stats());
    stats_.tex.merge(tex_.stats());
  }

  const SimStats& stats() const { return stats_; }
  uint64_t thread_insts() const { return ctx_.thread_insts; }

 private:
  uint32_t warps_per_block() const { return spec_.launch.warps_per_block(); }

  /// Live-bit exposure integral (PR 7): per cycle, every resident warp
  /// contributes (live payload bits at its current position) x (valid
  /// lanes).  Purely SM-private, position-driven, flip-independent — the
  /// deterministic cross-section number `gpurf-figures soft` compares.
  void accumulate_exposure() {
    for (const WarpCtx& wc : warps_) {
      if (!wc.active || wc.block == kNoIndex) continue;
      const BlockCtx& blk = blocks_[wc.block];
      if (!blk.exec) continue;
      const exec::WarpState& ws = blk.exec->warp(wc.warp_in_block);
      if (ws.done() || ws.stack().empty()) continue;
      const exec::StackEntry& pos = ws.stack().back();
      const uint64_t lanes = uint64_t(std::popcount(ws.valid_mask()));
      stats_.soft_live_bit_cycles +=
          uint64_t(soft_model_->payload_bits(pos.blk, pos.inst)) * lanes;
    }
  }

  void retire_writebacks(uint64_t now) {
    while (!wb_.empty() && wb_.top().cycle <= now) {
      const WriteBack w = wb_.top();
      wb_.pop();
      warps_[w.warp].pending[w.reg] = 0;
    }
  }

  // ------------------------------------------------------------- dispatch
  void dispatch_ready(uint64_t now) {
    spu_used_ = 0;  // both SPUs accept one instruction per cycle
    // Dispatch ready collector units oldest first: ordered by
    // (alloc_cycle, index), so a tie goes to the lower index.  Bits come
    // in index order and the insertion sort is stable.  Dispatching
    // readies no other CU, so one sort serves the whole cycle.
    std::array<int, GpuConfig::kMaxCollectorUnits> order;
    int n = 0;
    for (uint32_t m = cu_ready_; m; m &= m - 1) {
      const int c = std::countr_zero(m);
      int i = n++;
      for (; i > 0 && cus_[order[i - 1]].alloc_cycle > cus_[c].alloc_cycle;
           --i)
        order[i] = order[i - 1];
      order[i] = c;
    }
    for (int i = 0; i < n; ++i) {
      const int c = order[i];
      CuEntry& cu = cus_[c];
      const ir::Instruction& in = *cu.step.inst;
      const UnitClass unit = in.info().unit;
      uint64_t done_at = 0;
      // A CU whose unit is busy stays valid and ready for the next cycle.
      if (unit == UnitClass::LDST) {
        if (now < ldst_free_) continue;
        const MemAccess ma = memory_access(now, cu);
        ldst_free_ = now + ma.transactions;
        if (ma.deferred) {
          // L2-dependent latency: the writeback (if any) is scheduled by
          // commit_memory() at this cycle's barrier, once the buffered L2
          // probes have resolved hit/miss in SM-index order.
          release_cu(c);
          continue;
        }
        done_at = now + ma.latency;
      } else if (unit == UnitClass::SFU) {
        if (now < sfu_free_) continue;
        sfu_free_ = now + g_.sfu_initiation;
        done_at = now + latency_of(g_, in);
      } else {
        if (spu_used_ >= 2) continue;  // two single-precision units
        ++spu_used_;
        done_at = now + latency_of(g_, in);
      }

      if (in.info().has_dst) {
        const uint64_t wb_extra = cc_.enabled ? cc_.writeback_delay : 0;
        wb_.push(WriteBack{done_at + wb_extra, cu.warp, in.dst});
      }
      release_cu(c);
    }
  }

  void release_cu(int c) {
    cu_valid_ &= ~(1u << c);
    cu_ready_ &= ~(1u << c);
  }

  /// CUs that are collecting operands and whose fetches are visible now.
  uint32_t collecting_cus(uint64_t now) const {
    uint32_t mask = 0;
    for (uint32_t m = cu_valid_ & ~cu_ready_; m; m &= m - 1) {
      const int c = std::countr_zero(m);
      if (cus_[c].active_from <= now) mask |= 1u << c;
    }
    return mask;
  }

  // ------------------------------------------------------- bank arbitration
  void arbitrate_banks(uint64_t now) {
    const uint32_t eligible = collecting_cus(now);
    if (!eligible) return;
    // One read port per bank: serve the oldest CU with a pending fetch to
    // the bank, the lower index on a tie.  Serving one bank changes no
    // other bank's candidates, so the bank order does not matter.
    for (uint32_t bank = 0; bank < g_.register_banks; ++bank) {
      uint32_t m = bank_pending_[bank] & eligible;
      if (!m) continue;
      int best = std::countr_zero(m);
      for (m &= m - 1; m; m &= m - 1) {
        const int c = std::countr_zero(m);
        if (cus_[c].alloc_cycle < cus_[best].alloc_cycle) best = c;
      }
      if (!cus_[best].serve(uint8_t(bank)))
        bank_pending_[bank] &= ~(1u << best);
      ++stats_.operand_fetches;
    }
    // Mark CUs whose fetches completed and need no conversion.
    for (uint32_t m = eligible; m; m &= m - 1) {
      const int c = std::countr_zero(m);
      if (cus_[c].fetches_done() && cus_[c].conversions_left == 0)
        cu_ready_ |= 1u << c;
    }
  }

  void run_converters(uint64_t now) {
    if (!cc_.enabled) return;
    uint32_t budget = cc_.conversions_per_cycle;
    for (uint32_t m = collecting_cus(now); m && budget > 0; m &= m - 1) {
      CuEntry& cu = cus_[std::countr_zero(m)];
      if (!cu.fetches_done() || cu.conversions_left == 0) continue;
      const uint32_t take = std::min(budget, cu.conversions_left);
      cu.conversions_left -= take;
      budget -= take;
      stats_.conversions += take;
      // Converted operands become ready next cycle (one-cycle VC latency);
      // leaving the ready bit clear until the next arbitrate pass models it.
    }
  }

  // ------------------------------------------------------------------ issue
  void issue(uint64_t now) {
    const int nwarps = int(warps_.size());
    const int nsched = int(g_.warp_schedulers);
    for (int sched = 0; sched < nsched; ++sched) {
      bool saw_scoreboard = false, saw_no_cu = false, saw_barrier = false;
      // Try warp slot w; true when it issued.
      const auto try_issue = [&](int w) {
        WarpCtx& wc = warps_[w];
        if (!wc.active) return false;
        if (wc.at_barrier) {
          saw_barrier = true;
          return false;
        }
        // The cached predecoded view classifies the instruction; step()
        // below executes it through the SoA warp kernels of the
        // functional interpreter.
        const exec::DecodedInst* dec = wc.next;
        if (!dec) return false;
        if (!scoreboard_clear(wc)) {
          saw_scoreboard = true;
          return false;
        }
        int cu_slot = kNoIndex;
        if (!dec->is_control) {
          cu_slot = std::countr_zero(~cu_valid_);
          if (cu_slot >= int(cus_.size())) {
            saw_no_cu = true;
            return false;
          }
        }

        // Issue: functional execution happens now.
        BlockCtx& blk = blocks_[wc.block];
        const exec::StepResult step = blk.exec->step(wc.warp_in_block);
        wc.next = blk.exec->peek_decoded(wc.warp_in_block);
        ++stats_.warp_insts;
        greedy_warp_[sched] = w;
        if (dec->is_control) {
          handle_control(w, step);
          if (!wc.active || wc.at_barrier) greedy_warp_[sched] = kNoIndex;
        } else {
          allocate_cu(now, w, cu_slot, step);
        }
        return true;
      };
      // GTO: greedily retry the last-issued warp first, then this
      // scheduler's slots (sched, sched + nsched, ...) in arrival order.
      const int greedy = greedy_warp_[sched];
      bool issued = greedy != kNoIndex && try_issue(greedy);
      for (int w = sched; !issued && w < nwarps; w += nsched)
        if (w != greedy) issued = try_issue(w);
      if (!issued) {
        greedy_warp_[sched] = kNoIndex;
        if (saw_scoreboard) ++stats_.stall_scoreboard;
        else if (saw_no_cu) ++stats_.stall_no_cu;
        else if (saw_barrier) ++stats_.stall_barrier;
        else ++stats_.stall_empty;
      }
    }
  }

  /// Scoreboard: false while a register the warp's next instruction
  /// touches (sources, guard, destination) awaits writeback.  The register
  /// found pending is kept in `blocked_on`, so later cycles test that one
  /// flag until its writeback lands.
  static bool scoreboard_clear(WarpCtx& wc) {
    if (wc.blocked_on != ir::kNoReg && wc.pending[wc.blocked_on]) return false;
    const ir::Instruction& in = *wc.next->in;
    const auto pending = [&](uint32_t r) {
      if (!wc.pending[r]) return false;
      wc.blocked_on = r;
      return true;
    };
    for (int i = 0; i < in.num_srcs; ++i)
      if (in.srcs[i].is_reg() && pending(in.srcs[i].index)) return false;
    if (in.guard != ir::kNoReg && pending(in.guard)) return false;
    if (wc.next->has_dst && pending(in.dst)) return false;
    wc.blocked_on = ir::kNoReg;
    return true;
  }

  void handle_control(int w, const exec::StepResult& step) {
    WarpCtx& wc = warps_[w];
    BlockCtx& blk = blocks_[wc.block];
    if (step.warp_done) {
      wc.active = false;
      GPURF_ASSERT(blk.warps_live > 0, "warp count underflow");
      if (--blk.warps_live == 0) {
        blk.exec.reset();  // slot refilled by fill_blocks()
      }
      return;
    }
    if (step.at_barrier) {
      wc.at_barrier = true;
      if (++blk.barrier_arrived == blk.warps_live) {
        blk.barrier_arrived = 0;
        const uint32_t base = uint32_t(wc.block) * warps_per_block();
        for (uint32_t i = 0; i < warps_per_block(); ++i)
          warps_[base + i].at_barrier = false;
      }
    }
  }

  void allocate_cu(uint64_t now, int w, int cu_slot,
                   const exec::StepResult& step) {
    WarpCtx& wc = warps_[w];
    const ir::Instruction& in = *step.inst;
    CuEntry& cu = cus_[cu_slot];
    cu.warp = w;
    cu.step = step;
    cu.alloc_cycle = now;
    cu.active_from =
        now + 1 + (cc_.enabled ? cc_.indirection_read_cycles : 0);
    cu.pending = 0;
    cu.conversions_left = 0;
    cu_valid_ |= 1u << cu_slot;
    const auto fetch = [&](uint32_t phys) {
      const uint8_t bank = uint8_t((phys + uint32_t(w)) % g_.register_banks);
      cu.pending_banks[cu.pending++] = bank;
      bank_pending_[bank] |= 1u << cu_slot;
    };

    // Distinct register source operands -> bank fetch requests.
    uint32_t seen[3];
    int nseen = 0;
    bool fault_penalty = false;  // >= 1 redirected source operand
    for (int i = 0; i < in.num_srcs; ++i) {
      if (!in.srcs[i].is_reg()) continue;
      const uint32_t r = in.srcs[i].index;
      if (spec_.kernel->regs[r].type == ir::Type::PRED) continue;
      bool dup = false;
      for (int s = 0; s < nseen; ++s)
        if (seen[s] == r) dup = true;
      if (dup) continue;
      seen[nseen++] = r;

      if (cc_.enabled && spec_.allocation) {
        const auto& e = spec_.allocation->table[r];
        GPURF_ASSERT(e.valid, "operand without allocation");
        fetch(e.r0.phys_reg);
        if (e.split) {
          fetch(e.r1.phys_reg);
          ++stats_.double_fetches;
        }
        if (e.is_float && e.float_bits != 32) ++cu.conversions_left;
        if (e.redirected) {
          ++stats_.fault_redirected_fetches;
          fault_penalty = true;
        }
      } else {
        fetch(r);
      }
    }

    // Fault redirection penalty (§RRCD): the extra remap stage delays the
    // collector unit's first fetch, once per affected instruction.
    if (fault_penalty) cu.active_from += cc_.fault_redirection_cycles;

    // Scoreboard: destination pends until writeback.
    if (in.info().has_dst) wc.pending[in.dst] = 1;
  }

  // ----------------------------------------------------------------- memory
  struct MemAccess {
    uint32_t transactions = 1;
    uint32_t latency = 0;   ///< valid when !deferred
    bool deferred = false;  ///< resolved by commit_memory() at the barrier
  };

  /// Classify one memory dispatch.  Shared-memory traffic is entirely
  /// SM-private and resolves immediately; global / texture traffic probes
  /// the private L1 / texture caches now but buffers its L2 stream (the
  /// only cross-SM cache) for the in-order barrier replay.
  MemAccess memory_access(uint64_t now, const CuEntry& cu) {
    const ir::Instruction& in = *cu.step.inst;
    const uint32_t mask = cu.step.active_mask;

    // Distinct values of f(lane) over the active lanes, in lane order.
    struct Distinct {
      std::array<uint64_t, exec::kWarpSize> v;
      uint32_t n = 0;
      void add(uint64_t x) {
        if (std::find(v.begin(), v.begin() + n, x) == v.begin() + n)
          v[n++] = x;
      }
    };
    const auto distinct = [&](auto f) {
      Distinct d;
      for (uint32_t m = mask; m; m &= m - 1) d.add(f(std::countr_zero(m)));
      return d;
    };

    if (in.op == Opcode::LD_SHARED || in.op == Opcode::ST_SHARED) {
      // 32 word-interleaved banks; conflict degree = max distinct words
      // mapped to one bank.
      const Distinct words = distinct([&](int l) { return cu.step.addr[l]; });
      std::array<uint32_t, 32> per_bank{};
      uint32_t degree = 1;
      for (uint32_t i = 0; i < words.n; ++i)
        degree = std::max(degree, ++per_bank[words.v[i] % 32]);
      return {degree, g_.lat_shared + (degree - 1), false};
    }

    PendingL2 p;
    p.issued_at = now;
    p.line_begin = l2_lines_.size();
    if (in.info().has_dst) {
      p.warp = cu.warp;
      p.reg = in.dst;
    }

    if (in.op == Opcode::TEX2D) {
      const Distinct lines = distinct([&](int l) {
        return (uint64_t(in.tex) << 40) | (cu.step.addr[l] / 32);
      });
      for (uint32_t i = 0; i < lines.n; ++i) {
        if (tex_.access(lines.v[i])) continue;
        // Texture miss: L2, then DRAM.  Tag texture space into L2.
        l2_lines_.push_back(lines.v[i] | (uint64_t(1) << 60));
      }
      const uint32_t n = std::max<uint32_t>(1, lines.n);
      p.base_latency = g_.lat_tex_hit;
      p.extra = n - 1;
      p.line_end = l2_lines_.size();
      pending_.push_back(p);
      return {n, 0, true};
    }

    // Global loads/stores: coalesce into 128-byte (32-word) lines.
    const Distinct lines =
        distinct([&](int l) { return uint64_t(cu.step.addr[l] / 32); });
    const bool is_store = in.op == Opcode::ST_GLOBAL;
    for (uint32_t i = 0; i < lines.n; ++i) {
      // Write-evict L1 (Fermi global stores): stores go straight to L2.
      if (!is_store && l1_.access(lines.v[i])) continue;
      l2_lines_.push_back(lines.v[i]);
    }
    const uint32_t n = std::max<uint32_t>(1, lines.n);
    p.base_latency = g_.lat_l1_hit;
    p.extra = n - 1;
    p.line_end = l2_lines_.size();
    pending_.push_back(p);
    return {n, 0, true};
  }

  const GpuConfig& g_;
  const CompressionConfig& cc_;
  const KernelLaunchSpec& spec_;
  exec::ExecContext ctx_;  ///< SM-private copy (thread_insts, analysis)
  const SoftErrorModel* soft_model_;  ///< null = no soft-error tracking

  Cache l1_;
  Cache tex_;
  SimStats stats_;  ///< SM-private; merged in SM-index order at the end

  /// L2 probes buffered during the parallel tick (see PendingL2).
  std::vector<PendingL2> pending_;
  std::vector<uint64_t> l2_lines_;

  std::vector<BlockCtx> blocks_;
  std::vector<WarpCtx> warps_;
  std::vector<CuEntry> cus_;
  // Collector-unit state kept as it changes, one bit per CU (bit c is
  // cus_[c]): allocate_cu() sets a CU's valid bit and its banks' pending
  // bits, arbitrate_banks() clears a bank's bit when it serves the CU's
  // last fetch to that bank and sets the ready bit once every operand is
  // in, and dispatch clears both of the CU's bits.
  uint32_t cu_valid_ = 0;  ///< holds an instruction
  uint32_t cu_ready_ = 0;  ///< operands collected, waiting for its unit
  std::array<uint32_t, GpuConfig::kMaxRegisterBanks> bank_pending_{};
  std::priority_queue<WriteBack, std::vector<WriteBack>,
                      std::greater<WriteBack>>
      wb_;
  uint64_t ldst_free_ = 0;
  uint64_t sfu_free_ = 0;
  uint32_t spu_used_ = 0;
  std::array<int, GpuConfig::kMaxWarpSchedulers> greedy_warp_;
};

}  // namespace

void validate_launch_spec(const GpuConfig& gpu, const KernelLaunchSpec& spec) {
  GPURF_CHECK(spec.kernel && spec.gmem, "incomplete launch spec");
  GPURF_CHECK(spec.regs_per_thread > 0, "regs_per_thread must be set");
  // Zero *blocks* is a legal degenerate launch (simulates in zero
  // cycles); a block shape with zero threads is malformed.
  GPURF_CHECK(spec.launch.threads_per_block() > 0,
              "launch '" << spec.kernel->name
                         << "' has an empty block shape");
  GPURF_CHECK(gpu.num_sms >= 1, "GpuConfig::num_sms = 0: no SM to run on");
  const auto check_range = [](const char* field, uint32_t v, uint32_t max) {
    GPURF_CHECK(v >= 1 && v <= max, "GpuConfig::" << field << " = " << v
                                                  << " is outside [1, "
                                                  << max << "]");
  };
  check_range("warp_schedulers", gpu.warp_schedulers,
              GpuConfig::kMaxWarpSchedulers);
  check_range("collector_units", gpu.collector_units,
              GpuConfig::kMaxCollectorUnits);
  check_range("register_banks", gpu.register_banks,
              GpuConfig::kMaxRegisterBanks);
}

SimResult simulate(const GpuConfig& gpu, const CompressionConfig& comp,
                   const KernelLaunchSpec& spec,
                   gpurf::common::CancelToken* cancel,
                   const SimOptions& opt) {
  validate_launch_spec(gpu, spec);

  SimResult res;
  res.occupancy = compute_occupancy(gpu, spec.regs_per_thread,
                                    spec.launch.warps_per_block(),
                                    spec.kernel->shared_bytes);
  GPURF_CHECK(res.occupancy.blocks_per_sm > 0,
              "kernel does not fit on the SM (register pressure "
                  << spec.regs_per_thread << ")");

  exec::ExecContext ctx;
  ctx.kernel = spec.kernel;
  ctx.launch = spec.launch;
  ctx.gmem = spec.gmem;
  ctx.textures = spec.textures;
  ctx.params = spec.params;
  ctx.precision = spec.precision;
  ctx.analysis =
      spec.analysis ? spec.analysis : exec::make_kernel_analysis(*spec.kernel);

  BlockDispatcher dispatcher(spec.launch);
  Cache l2(gpu.l2);

  // Soft-error machinery (PR 7): the vulnerability model is built once
  // against the active storage layout; the flip process is owned here and
  // advanced exclusively in the serial barrier phase, so the flip trace is
  // a pure function of (rate, seed) at every shard count.
  std::unique_ptr<SoftErrorModel> soft_model;
  std::optional<SoftErrorProcess> soft_proc;
  if (spec.soft.active()) {
    soft_model = std::make_unique<SoftErrorModel>(
        *spec.kernel, *ctx.analysis, comp.enabled ? spec.allocation : nullptr);
    if (spec.soft.enabled())
      soft_proc.emplace(spec.soft, gpu.num_sms, gpu.max_warps_per_sm);
  }

  std::vector<std::unique_ptr<SmCore>> sms;
  for (uint32_t s = 0; s < gpu.num_sms; ++s)
    sms.push_back(std::make_unique<SmCore>(gpu, comp, spec, ctx,
                                           res.occupancy, soft_model.get()));

  // Initial block placement: one barrier-phase fill before cycle 0, in
  // SM-index order — identical for the serial and every sharded schedule.
  for (auto& sm : sms) sm->fill_blocks(dispatcher);

  const auto all_idle = [&] {
    for (const auto& sm : sms)
      if (!sm->idle()) return false;
    return true;
  };

  // Shard resolution: <= 0 means "current pool width"; clamp to the SM
  // count; nested calls (pool workers) and one-thread pools run serial.
  // The pool only *sizes* the crew — see ShardCrewToken for why the
  // shards run on dedicated threads rather than pool workers.
  common::ThreadPool& pool = common::ThreadPool::current();
  int nshards = opt.shards <= 0 ? pool.size() : opt.shards;
  nshards = std::min<int>(nshards, static_cast<int>(gpu.num_sms));
  nshards = std::min<int>(nshards, pool.size());
  if (nshards < 1 || common::in_pool_worker()) nshards = 1;

  std::optional<ShardCrewToken> crew;
  if (nshards > 1) {
    crew.emplace();
    // Another simulation already runs a shard crew: take the serial
    // schedule (identical results) instead of stacking spinning threads.
    if (!crew->acquired()) nshards = 1;
  }

  // Per-cycle schedule, identical at every shard count:
  //   1. parallel: every SM ticks against private state (L2 buffered);
  //   2. barrier (one thread): L2 replay + writeback scheduling in
  //      SM-index order, then block refill in SM-index order, then the
  //      cycle counter / cancellation / termination bookkeeping.
  // `stop` and `cycle` are written only inside the serial phase and read
  // by the shards after the barrier release (the barrier's epoch ordering
  // publishes them); `err` latches the first exception — shard loops must
  // never unwind past the barrier, or the remaining shards would hang.
  uint64_t cycle = 0;
  bool stop = dispatcher.empty() && all_idle();
  std::exception_ptr err;
  std::mutex err_mu;
  const auto record_error = [&] {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!err) err = std::current_exception();
  };

  const auto serial_phase = [&]() noexcept {
    try {
      if (err) {
        stop = true;
        return;
      }
      for (auto& sm : sms) sm->commit_memory(l2);
      for (auto& sm : sms) sm->fill_blocks(dispatcher);
      // Land this cycle's sampled strikes, routed to their SM in SM-index
      // independent arrival order (the process emits them sequentially) —
      // serial-phase-only, like every other cross-SM mutation.
      if (soft_proc) {
        FlipSite site;
        while (soft_proc->next_flip(cycle, &site))
          sms[site.sm]->apply_soft_flip(site);
      }
      ++cycle;
      // Cancellation/deadline checkpoint + progress heartbeat: every 4096
      // cycles keeps the poll off the per-cycle hot path while bounding
      // the stop latency to one slice (unchanged from the serial-only
      // simulator — Job cancellation latency does not grow with shards).
      if (cancel && (cycle & 0xFFF) == 0) {
        cancel->sim_cycles.store(cycle, std::memory_order_relaxed);
        cancel->checkpoint();
      }
      if (dispatcher.empty() && all_idle()) {
        stop = true;
        return;
      }
      GPURF_CHECK(cycle < gpu.max_cycles, "simulation exceeded max_cycles");
    } catch (...) {
      record_error();
      stop = true;
    }
  };

  bool crew_ran = false;
  if (nshards > 1) {
    common::CycleBarrier barrier(nshards);
    const auto shard_loop = [&](size_t shard) {
      // Contiguous static SM partition, same formula as parallel_for's
      // shard split: a pure function of (num_sms, nshards, shard).
      const size_t n = sms.size();
      const size_t lo = n * shard / static_cast<size_t>(nshards);
      const size_t hi = n * (shard + 1) / static_cast<size_t>(nshards);
      for (;;) {
        if (stop) break;
        try {
          for (size_t s = lo; s < hi; ++s) sms[s]->tick(cycle);
        } catch (...) {
          record_error();
        }
        barrier.arrive_and_wait(serial_phase);
      }
    };
    // Dedicated crew: the caller runs shard 0, nshards-1 spawned threads
    // run the rest.  shard_loop never throws (exceptions latch into
    // `err`), so every started thread always reaches its join.  Spawned
    // threads park on a start gate until the whole crew exists — if a
    // std::thread constructor fails mid-crew (thread rlimit), the partial
    // crew is told to abort and joined, and the run degrades to the
    // serial schedule instead of leaving threads at a barrier that can
    // never fill (or terminating on a joinable ~thread during unwind).
    std::atomic<int> gate{0};  // 0 = hold, 1 = run, -1 = abort
    const auto crew_main = [&](size_t s) {
      int g;
      while ((g = gate.load(std::memory_order_acquire)) == 0)
        std::this_thread::yield();
      if (g > 0) shard_loop(s);
    };
    std::vector<std::thread> extra;
    extra.reserve(static_cast<size_t>(nshards - 1));
    try {
      for (int s = 1; s < nshards; ++s)
        extra.emplace_back([&crew_main, s] { crew_main(size_t(s)); });
    } catch (...) {
      gate.store(-1, std::memory_order_release);
      for (auto& t : extra) t.join();
      extra.clear();
    }
    if (static_cast<int>(extra.size()) == nshards - 1) {
      gate.store(1, std::memory_order_release);
      shard_loop(0);
      for (auto& t : extra) t.join();
      crew_ran = true;
    }
  }
  if (!crew_ran) {  // one shard, or the crew could not be spawned
    while (!stop) {
      for (auto& sm : sms) sm->tick(cycle);
      serial_phase();
    }
  }
  if (err) std::rethrow_exception(err);

  res.stats.cycles = cycle;
  for (auto& sm : sms) {
    sm->flush_cache_stats();
    res.stats.merge_sm(sm->stats());
    res.stats.thread_insts += sm->thread_insts();
  }
  res.stats.l2 = l2.stats();

  if (spec.soft.active()) {
    res.soft.active = true;
    res.soft.flips_per_mcycle = spec.soft.flips_per_mcycle;
    res.soft.seed = spec.soft.seed;
    res.soft.flips_injected = res.stats.soft_flips_injected;
    res.soft.flips_on_live = res.stats.soft_flips_on_live;
    res.soft.flips_masked_dead = res.stats.soft_flips_masked_dead;
    res.soft.flips_visible = res.stats.soft_flips_visible;
    res.soft.live_bit_cycles = res.stats.soft_live_bit_cycles;
  }
  return res;
}

}  // namespace gpurf::sim
