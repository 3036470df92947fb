#include "analysis/dataflow.hpp"

#include "analysis/uses.hpp"

namespace gpurf::analysis {

using gpurf::ir::Kernel;

Dataflow compute_dataflow(const Kernel& k, const Cfg& cfg) {
  Dataflow df;
  df.block = compute_liveness(k, cfg);

  const uint32_t nb = cfg.num_blocks();
  const uint32_t nr = k.num_regs();

  df.block_size.resize(nb);
  df.point_first.resize(nb);
  df.inst_first.resize(nb);
  uint32_t points = 0, insts = 0;
  for (uint32_t b = 0; b < nb; ++b) {
    df.block_size[b] = static_cast<uint32_t>(k.blocks[b].insts.size());
    df.point_first[b] = points;
    df.inst_first[b] = insts;
    points += df.block_size[b] + 1;
    insts += df.block_size[b];
  }
  df.num_points = points;
  df.num_insts = insts;

  df.live_before.resize(points);
  df.dead_dst.assign(insts, 0);
  df.def_count.assign(nr, 0);
  df.use_count.assign(nr, 0);

  // One backward scan per block from its live-out set.  The transfer for
  // point i (about to execute instruction i) from point i+1:
  //   live_before = (live_after \ dst-if-full-def) ∪ uses
  // Partial (guarded) defs merge into the destination, so they do not
  // kill: the old value is needed exactly when the merged value is.
  for (uint32_t b = 0; b < nb; ++b) {
    DynBitset cur = df.block.live_out[b];
    df.live_before[df.point_first[b] + df.block_size[b]] = cur;
    for (uint32_t i = df.block_size[b]; i-- > 0;) {
      const gpurf::ir::Instruction& in = k.blocks[b].insts[i];
      const uint32_t d = def_of(in);
      if (d != gpurf::ir::kNoReg) {
        ++df.def_count[d];
        if (!cur.test(d)) df.dead_dst[df.inst_first[b] + i] = 1;
        if (!is_partial_def(in)) cur.reset(d);
      }
      for_each_use(in, [&](uint32_t r) {
        ++df.use_count[r];
        cur.set(r);
      });
      df.live_before[df.point_first[b] + i] = cur;
    }
  }
  return df;
}

KernelReport build_kernel_report(const Kernel& k, const Cfg& cfg,
                                 const Dataflow& df) {
  KernelReport rep;
  rep.kernel = k.name;
  rep.num_regs = k.num_regs();
  rep.num_blocks = cfg.num_blocks();
  rep.num_insts = df.num_insts;
  rep.static_pressure = df.block.max_pressure;
  rep.undefined_reads = df.block.undefined_uses;
  rep.reg_names.reserve(k.num_regs());
  for (const auto& ri : k.regs) rep.reg_names.push_back(ri.name);

  for (uint32_t b = 0; b < cfg.num_blocks(); ++b)
    for (uint32_t i = 0; i < df.block_size[b]; ++i)
      if (df.dst_dead(b, i)) {
        const uint32_t d = def_of(k.blocks[b].insts[i]);
        rep.dead_writes.push_back(DeadWrite{b, i, d});
      }

  for (uint32_t r = 0; r < k.num_regs(); ++r)
    if (df.def_count[r] > 0 && df.use_count[r] == 0) rep.never_read.push_back(r);

  return rep;
}

}  // namespace gpurf::analysis
