// gpurf-figures — regenerates the paper's results and the fault and
// soft-error curves, one subcommand per table or figure.  Every number is
// computed: range analysis -> precision tuning -> slice allocation ->
// timing simulation, through one gpurf::Engine per subcommand.
//
// Usage: gpurf-figures <command> [workload ...]
//
//   fig9    register pressure per framework configuration (Fig. 9)
//   fig10   active thread blocks per SM and the limiting resource (Fig. 10)
//   fig11   IPC gain over the baseline, perfect and high quality (Fig. 11)
//   fig12   IPC vs. writeback delay at high quality (Fig. 12)
//   table1  IMGVF motivation and the artificial-occupancy control (Table 1)
//   table4  evaluated kernels (Table 4)
//   area    transistor-count area overhead (§6.4)
//   power   dynamic read energy vs. a 2x register file (§6.5)
//   volta   scaling to a V100-like part (§7)
//   faults  permanent-fault redirection: coverage, cycle overhead and
//           blocks per SM per density (default: DWT2D Hotspot Hybridsort
//           SSAO IMGVF Pathtracer Hotspot3D, full scale)
//   soft    transient soft-error vulnerability (default: all workloads,
//           sample scale); exits 1 if a compressed live-bit cross-section
//           exceeds the baseline's
//
// Only faults and soft take workload names.  An unknown or missing
// command prints this usage and exits 2.  Tuned precision maps come from
// the Engine's disk cache ($GPURF_CACHE_DIR, default .gpurf_cache/), so
// only the first run tunes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc/slice_alloc.hpp"
#include "api/engine.hpp"
#include "rf/area_model.hpp"
#include "rf/power_model.hpp"
#include "sim/occupancy.hpp"

namespace wl = gpurf::workloads;
namespace sim = gpurf::sim;
using gpurf::Engine;
using gpurf::EngineOptions;
using gpurf::Job;
using gpurf::JobRequest;
using gpurf::SimRequest;
using gpurf::Status;
using gpurf::StatusOr;
using gpurf::rf::AreaConfig;

namespace {

int fail(const Status& st) {
  std::fprintf(stderr, "%s\n", st.to_string().c_str());
  return 1;
}

/// Tune every bundled workload concurrently as pipeline Jobs, then return
/// the Engine's memoised results in the paper's order.
StatusOr<std::vector<const wl::PipelineResult*>> warm_pipelines(
    Engine& engine) {
  const auto names = engine.workload_names();
  std::vector<Job> warm;
  warm.reserve(names.size());
  for (const auto& n : names)
    warm.push_back(engine.submit(JobRequest::pipeline(n)));
  for (auto& j : warm) j.wait();
  std::vector<const wl::PipelineResult*> out;
  for (const auto& n : names) {
    auto pr = engine.pipeline(n);
    if (!pr.ok()) return pr.status();
    out.push_back(*pr);
  }
  return out;
}

/// Simulate every (workload x column) cell as its own Job and return the
/// results row by row.  Column c runs at priority (columns - 1 - c), so
/// the first executed wave touches every workload once, filling the
/// per-workload pipeline memos with little contention, before the later
/// columns fan out.
StatusOr<std::vector<std::vector<sim::SimResult>>> simulate_grid(
    Engine& engine, const std::vector<std::string>& names,
    const std::vector<SimRequest>& columns) {
  const size_t nc = columns.size();
  std::vector<Job> jobs(names.size() * nc);
  for (size_t c = 0; c < nc; ++c)
    for (size_t i = 0; i < names.size(); ++i)
      jobs[i * nc + c] =
          engine.submit(JobRequest::simulate(names[i], columns[c])
                            .with_priority(static_cast<int>(nc - 1 - c)));
  std::vector<std::vector<sim::SimResult>> rows(names.size());
  for (size_t i = 0; i < names.size(); ++i)
    for (size_t c = 0; c < nc; ++c) {
      jobs[i * nc + c].wait();
      auto r = jobs[i * nc + c].sim_result();
      if (!r.ok()) return r.status();
      rows[i].push_back(std::move(r).value());
    }
  return rows;
}

// ------------------------------------------------------------ the paper

int fig9() {
  std::printf("Figure 9: register pressure per framework configuration\n");
  std::printf("%-11s %9s %9s %9s %9s %9s %9s\n", "Kernel", "Original",
              "NarrowInt", "Float(p)", "Float(h)", "Both(p)", "Both(h)");
  Engine engine;
  const auto names = engine.workload_names();
  auto prs = warm_pipelines(engine);
  if (!prs.ok()) return fail(prs.status());
  for (size_t i = 0; i < names.size(); ++i) {
    const auto& p = (*prs)[i]->pressure;
    std::printf("%-11s %9u %9u %9u %9u %9u %9u\n", names[i].c_str(),
                p.original, p.narrow_int, p.narrow_float_perfect,
                p.narrow_float_high, p.both_perfect, p.both_high);
  }
  std::printf("\n(p) = perfect output quality, (h) = high output quality "
              "(SSIM 0.9 / 10%% deviation / binary-correct)\n");
  return 0;
}

const char* limiter_name(sim::Occupancy::Limiter l) {
  switch (l) {
    case sim::Occupancy::Limiter::kRegisters: return "regs";
    case sim::Occupancy::Limiter::kSharedMem: return "smem";
    case sim::Occupancy::Limiter::kWarps: return "warps";
    case sim::Occupancy::Limiter::kBlocks: return "blocks";
    default: return "-";
  }
}

// Fig. 10 also names the limiting resource, which reproduces the IMGVF
// shared-memory cap discussed in §6.1.
int fig10() {
  Engine engine;
  const sim::GpuConfig& gpu = engine.options().gpu;
  std::printf("Figure 10: active thread blocks / SM\n");
  std::printf("%-11s %18s %24s %24s\n", "Kernel", "Original",
              "IndirTable(perfect)", "IndirTable(high)");
  const auto names = engine.workload_names();
  auto prs = warm_pipelines(engine);
  if (!prs.ok()) return fail(prs.status());
  for (size_t i = 0; i < names.size(); ++i) {
    const wl::Workload& w = **engine.workload(names[i]);
    const auto& p = (*prs)[i]->pressure;
    const uint32_t wpb = w.spec().warps_per_block;
    const uint32_t smem = w.kernel().shared_bytes;
    const auto o0 = compute_occupancy(gpu, p.original, wpb, smem);
    const auto o1 = compute_occupancy(gpu, p.both_perfect, wpb, smem);
    const auto o2 = compute_occupancy(gpu, p.both_high, wpb, smem);
    std::printf("%-11s %10u (%5s) %16u (%5s) %16u (%5s)\n", names[i].c_str(),
                o0.blocks_per_sm, limiter_name(o0.limiter), o1.blocks_per_sm,
                limiter_name(o1.limiter), o2.blocks_per_sm,
                limiter_name(o2.limiter));
  }
  std::printf("\n(limiting resource in parentheses)\n");
  return 0;
}

// Fig. 11 also prints the texture-cache miss rates behind the GICOV/SSAO
// regression discussion (§6.2).
int fig11() {
  Engine engine(EngineOptions().with_max_inflight(64));
  std::printf("Figure 11: IPC increase over the baseline (%%)  "
              "[sim_shards=%d]\n",
              engine.options().sim_shards);
  std::printf("%-11s %10s %12s %12s %14s %14s\n", "Kernel", "BaseIPC",
              "Perfect(%)", "High(%)", "TexMiss(base)", "TexMiss(perf)");
  const auto names = engine.workload_names();
  std::vector<SimRequest> modes(3);
  modes[0].mode = wl::SimMode::kOriginal;
  modes[1].mode = wl::SimMode::kCompressedPerfect;
  modes[2].mode = wl::SimMode::kCompressedHigh;
  auto grid = simulate_grid(engine, names, modes);
  if (!grid.ok()) return fail(grid.status());

  double geo_p = 0.0, geo_h = 0.0;
  for (size_t i = 0; i < names.size(); ++i) {
    const sim::SimStats& base = (*grid)[i][0].stats;
    const sim::SimStats& perf = (*grid)[i][1].stats;
    const sim::SimStats& high = (*grid)[i][2].stats;
    geo_p += std::log(perf.ipc() / base.ipc());
    geo_h += std::log(high.ipc() / base.ipc());
    std::printf("%-11s %10.0f %+11.1f %+11.1f %13.1f%% %13.1f%%\n",
                names[i].c_str(), base.ipc(),
                100.0 * (perf.ipc() / base.ipc() - 1.0),
                100.0 * (high.ipc() / base.ipc() - 1.0),
                100.0 * base.tex.miss_rate(), 100.0 * perf.tex.miss_rate());
  }
  const double n = static_cast<double>(names.size());
  std::printf("%-11s %10s %+11.1f %+11.1f\n", "GeoMean", "",
              100.0 * (std::exp(geo_p / n) - 1.0),
              100.0 * (std::exp(geo_h / n) - 1.0));
  std::printf("\npaper: geomean +15.75%% (perfect), +18.6%% (high); "
              "max +79%%; GICOV & SSAO regress on texture contention\n");
  return 0;
}

// The paper (§6.3) sees IPC flat up to 4 cycles for most kernels, with
// Elevated and GICOV deteriorating (a scoreboard without forwarding).
int fig12() {
  constexpr uint32_t kDelays[] = {0, 2, 4, 8};
  std::printf("Figure 12: IPC vs. writeback delay (high output quality)\n");
  std::printf("%-11s %8s %8s %8s %8s\n", "Kernel", "wb=0", "wb=2", "wb=4",
              "wb=8");
  Engine engine(EngineOptions().with_max_inflight(64));
  std::printf("[sim_shards=%d]\n", engine.options().sim_shards);
  const auto names = engine.workload_names();
  std::vector<SimRequest> delays;
  for (uint32_t d : kDelays) {
    SimRequest& req = delays.emplace_back();
    req.mode = wl::SimMode::kCompressedHigh;
    req.compression = sim::CompressionConfig::with_writeback_delay(d);
  }
  auto grid = simulate_grid(engine, names, delays);
  if (!grid.ok()) return fail(grid.status());
  for (size_t i = 0; i < names.size(); ++i) {
    std::printf("%-11s", names[i].c_str());
    for (const auto& r : (*grid)[i]) std::printf(" %8.0f", r.stats.ipc());
    std::printf("\n");
  }
  return 0;
}

// Table 1 (§2): register pressure, occupancy and IPC of IMGVF, plus the
// artificial-occupancy control, which simulates the original pressure on
// a second Engine whose register file is doubled.  Both Engines share the
// cache directory, so the second one reads the tuned maps from disk.
//
//   Paper (Fermi GTX 480, GPGPU-Sim):
//     Original                      52 regs  21%    IPC 196
//     Narrow integers               46
//     Narrow floats                 36
//     Narrow integers + floats      29       62.5%  IPC 352
//     Artificial occupancy increase 52       62.5%  IPC 377
int table1() {
  Engine engine;
  std::printf("Table 1: IMGVF motivation (quality threshold: perfect)\n");
  std::printf("%-34s %8s %10s %8s\n", "", "RegPressure", "Occupancy", "IPC");

  auto pr = engine.pipeline("IMGVF");
  if (!pr.ok()) return fail(pr.status());
  const auto& pressure = (*pr)->pressure;

  auto orig = engine.simulate("IMGVF", wl::SimMode::kOriginal);
  if (!orig.ok()) return fail(orig.status());
  std::printf("%-34s %8u %9.1f%% %8.0f\n", "Original", pressure.original,
              orig->occupancy.percent, orig->stats.ipc());

  // The framework's parts alone change pressure only, not timing.
  std::printf("%-34s %8u %10s %8s\n", "Narrow integers",
              pressure.narrow_int, "-", "-");
  std::printf("%-34s %8u %10s %8s\n", "Narrow floats",
              pressure.narrow_float_perfect, "-", "-");

  auto comp = engine.simulate("IMGVF", wl::SimMode::kCompressedPerfect);
  if (!comp.ok()) return fail(comp.status());
  std::printf("%-34s %8u %9.1f%% %8.0f\n", "Narrow integers + floats",
              pressure.both_perfect, comp->occupancy.percent,
              comp->stats.ipc());

  sim::GpuConfig big = engine.options().gpu;
  big.registers_per_sm = 65536;
  Engine big_engine(EngineOptions().with_gpu(big).with_cache_dir(
      engine.options().cache_dir));
  auto art = big_engine.simulate("IMGVF", wl::SimMode::kOriginal);
  if (!art.ok()) return fail(art.status());
  std::printf("%-34s %8u %9.1f%% %8.0f\n", "Artificial occupancy increase",
              pressure.original, art->occupancy.percent, art->stats.ipc());

  std::printf(
      "\npaper: 52/21%%/196 | 46 | 36 | 29/62.5%%/352 | 52/62.5%%/377\n");
  std::printf("IPC uplift: compressed %+.1f%%  artificial %+.1f%%\n",
              100.0 * (comp->stats.ipc() / orig->stats.ipc() - 1.0),
              100.0 * (art->stats.ipc() / orig->stats.ipc() - 1.0));
  return 0;
}

// Table 4's register counts come from the baseline allocator run on the
// kernel IR.
int table4() {
  std::printf("Table 4: evaluated kernels\n");
  std::printf("%-11s %-12s %14s %14s %6s\n", "Name", "Quality", "Regs(paper)",
              "Regs(ours)", "Warps");
  Engine engine;
  for (const auto& name : engine.workload_names()) {
    const wl::Workload& w = **engine.workload(name);
    const uint32_t ours = gpurf::alloc::baseline_pressure(w.kernel());
    std::printf("%-11s %-12s %14u %14u %6u\n", name.c_str(),
                std::string(metric_name(w.spec().metric)).c_str(),
                w.spec().paper_regs, ours, w.spec().warps_per_block);
  }
  return 0;
}

//   Paper: TVE 1536(+24); warp extractor ~50K; extractors 800K;
//   converters 249,600; tables 98,304; truncators 518,016; CU 6,774
//   (108,384 total); ~1.8M per SM; ~27M per chip; < 1 % of 3.1B.
int area() {
  const AreaConfig cfg = AreaConfig::fermi_gtx480();
  const auto a = compute_area(cfg);
  std::printf("Section 6.4: area overhead (%s)\n", cfg.name.c_str());
  std::printf("%-38s %12s %12s\n", "Structure", "Transistors", "Paper");
  const struct {
    const char* what;
    long long transistors;
    const char* paper;
  } rows[] = {
      {"Thread value extractor (TVE)", a.tve, "1560"},
      {"Warp value extractor (32 TVEs)", a.warp_extractor, "~50K"},
      {"Value extractors (16 banks)", a.extractors_total, "~800K"},
      {"Value converters (6 warp units)", a.converters_total, "249,600"},
      {"Indirection table (one)", a.indirection_table, "49,152"},
      {"Indirection tables (src + dst)", a.tables_total, "98,304"},
      {"Thread value truncator (TVT)", a.tvt, "5,396"},
      {"Value truncators (3 warp units)", a.truncators_total, "518,016"},
      {"Collector-unit extension (one)", a.cu_extension, "6,774"},
      {"Collector-unit extensions (16)", a.cus_total, "108,384"},
      {"Total per SM", a.per_sm, "~1.8M"},
      {"Total per chip (15 SMs)", a.chip_total, "~27M"},
  };
  for (const auto& r : rows)
    std::printf("%-38s %12lld %12s\n", r.what, r.transistors, r.paper);
  std::printf("%-38s %11.2f%% %12s\n", "Fraction of chip budget",
              100.0 * a.fraction_of_chip, "< 1%");
  return 0;
}

// §6.5: the compressed register file's dynamic read energy against a
// register file of twice the capacity, from the fraction of allocated
// operands split over two physical registers (each read of one
// double-fetches).
int power() {
  const AreaConfig cfg = AreaConfig::fermi_gtx480();
  std::printf("Section 6.5: dynamic read energy vs. a 2x register file\n");
  std::printf("%-11s %14s %18s %14s %8s\n", "Kernel", "SplitOperands",
              "DoubleFetchFrac", "RelEnergy", "2xRF");
  Engine engine;
  const auto names = engine.workload_names();
  auto prs = warm_pipelines(engine);
  if (!prs.ok()) return fail(prs.status());
  for (size_t i = 0; i < names.size(); ++i) {
    const auto& alloc = (*prs)[i]->alloc_both_high;
    uint32_t operands = 0;
    for (const auto& e : alloc.table)
      if (e.valid) ++operands;
    gpurf::rf::PowerInputs in;
    in.double_fetch_fraction =
        operands == 0 ? 0.0 : double(alloc.split_operands) / operands;
    const auto out = compare_power(in, cfg);
    std::printf("%-11s %14u %17.1f%% %14.3f %8.1f\n", names[i].c_str(),
                alloc.split_operands, 100.0 * in.double_fetch_fraction,
                out.compressed_read_energy, out.doubled_rf_read_energy);
  }

  const auto worst = compare_power(
      gpurf::rf::PowerInputs{1.0, 0.1, 256.0 * 32 / (16.0 * 64 * 1024)}, cfg);
  std::printf("\nWorst case (every read double-fetches): %.3f vs %.1f — "
              "the compressed design still wins (%s)\n",
              worst.compressed_read_energy, worst.doubled_rf_read_energy,
              worst.compressed_wins ? "yes" : "no");
  std::printf("Static power overhead == area fraction: %.2f%%\n",
              100.0 * worst.static_overhead_fraction);
  return 0;
}

//   Paper: 1.4M / processing block, 5.6M / SM, ~470M for 84 SMs,
//   just over 2 % of the 21B transistor budget.
int volta() {
  const AreaConfig volta = AreaConfig::volta_v100();
  const auto a = compute_area(volta);
  std::printf("Section 7: scaling to %s\n", volta.name.c_str());
  std::printf("%-42s %12s %10s\n", "Quantity", "Transistors", "Paper");
  std::printf("%-42s %12lld %10s\n",
              "Per processing block (half the extractors)", a.per_rf_instance,
              "1.4M");
  std::printf("%-42s %12lld %10s\n", "Per SM (4 processing blocks)", a.per_sm,
              "5.6M");
  std::printf("%-42s %12lld %10s\n", "Per chip (84 SMs)", a.chip_total,
              "470M");
  std::printf("%-42s %11.2f%% %10s\n", "Fraction of 21B budget",
              100.0 * a.fraction_of_chip, "~2%");
  std::printf("\nRegister budget per thread at full occupancy: Volta "
              "64 KB RF / 2048 threads = 32 regs (paper: 31 usable) — "
              "register shortage persists, so the approach still applies.\n");
  return 0;
}

// ------------------------------------------------------------ the curves

/// Running mean/min/max over the maps of one density.
struct Agg {
  double sum = 0.0, lo = 0.0, hi = 0.0;
  int n = 0;
  void add(double v) {
    lo = n ? std::min(lo, v) : v;
    hi = n ? std::max(hi, v) : v;
    sum += v;
    ++n;
  }
  double mean() const { return n ? sum / n : 0.0; }
};

// Permanent faults: the compressed (perfect-quality) launch under seeded
// fault maps of rising density, each density one fault_campaign point
// set.  Coverage is the share of affected registers redirected into
// compression-freed slices rather than spilled; overhead is cycles
// against the fault-free run, which is also the density-0 row.  The cost
// that grows with density is occupancy: redirected registers need more
// physical registers, so fewer blocks fit on an SM.
int faults(std::vector<std::string> names) {
  if (names.empty())
    names = {"DWT2D", "Hotspot", "Hybridsort", "SSAO",
             "IMGVF", "Pathtracer", "Hotspot3D"};
  constexpr int kMaps = 4;
  Engine engine;
  struct Curve {
    Job ref, campaign;
  };
  std::vector<Curve> curves;
  for (const auto& name : names) {
    SimRequest base;
    base.mode = wl::SimMode::kCompressedPerfect;
    base.scale = wl::Scale::kFull;
    gpurf::FaultCampaignRequest fc;
    fc.sim = base;
    // Point seeds follow the point index, so appended densities leave the
    // maps of the earlier ones unchanged.
    fc.densities = {0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5};
    fc.maps_per_density = kMaps;
    curves.push_back({engine.submit(JobRequest::simulate(name, base)),
                      engine.submit(JobRequest::fault_campaign(name, fc))});
  }

  std::printf("Permanent faults: compression-directed redirection "
              "(full scale, perfect quality, %d maps/density)\n",
              kMaps);
  std::printf("%-11s %8s %8s %22s %6s %6s %24s %s\n", "Kernel", "density",
              "faults", "coverage mean[min,max]", "redir", "spill",
              "overhead mean[min,max]", "blocks/SM mean[min,max]");
  int failures = 0;
  for (size_t w = 0; w < names.size(); ++w) {
    const char* name = names[w].c_str();
    curves[w].ref.wait();
    curves[w].campaign.wait();
    auto ref = curves[w].ref.sim_result();
    auto res = curves[w].campaign.campaign_result();
    if (!ref.ok() || !res.ok()) {
      const Status& st = !ref.ok() ? ref.status() : res.status();
      std::fprintf(stderr, "%s: %s\n", name, st.to_string().c_str());
      ++failures;
      continue;
    }
    const auto& f0 = ref->fault;
    const double b0 = ref->occupancy.blocks_per_sm;
    std::printf("%-11s %8.3f %8.1f %7.1f%% [%5.1f,%5.1f] %6.1f %6.1f "
                "%8.3fx [%.3f,%.3f] %6.2f [%.0f,%.0f]\n",
                name, 0.0, double(f0.faults_total), f0.coverage_pct,
                f0.coverage_pct, f0.coverage_pct,
                double(f0.registers_redirected), double(f0.registers_spilled),
                1.0, 1.0, 1.0, b0, b0, b0);
    const double ref_cycles = double(ref->stats.cycles);
    for (size_t i = 0; i < res->points.size();) {
      const double density = res->points[i].density;
      Agg cover, overhead, blocks, nfaults, redir, spill;
      for (; i < res->points.size() && res->points[i].density == density;
           ++i) {
        const auto& pt = res->points[i];
        if (!pt.error.empty()) {
          std::fprintf(stderr, "%s d=%.3f seed=%llu: %s\n", name, density,
                       static_cast<unsigned long long>(pt.seed),
                       pt.error.c_str());
          ++failures;
          continue;
        }
        nfaults.add(pt.fault.faults_total);
        cover.add(pt.fault.coverage_pct);
        redir.add(pt.fault.registers_redirected);
        spill.add(pt.fault.registers_spilled);
        overhead.add(ref_cycles > 0 ? double(pt.cycles) / ref_cycles : 0.0);
        blocks.add(pt.blocks_per_sm);
      }
      if (!cover.n) continue;
      std::printf("%-11s %8.3f %8.1f %7.1f%% [%5.1f,%5.1f] %6.1f %6.1f "
                  "%8.3fx [%.3f,%.3f] %6.2f [%.0f,%.0f]\n",
                  name, density, nfaults.mean(), cover.mean(), cover.lo,
                  cover.hi, redir.mean(), spill.mean(), overhead.mean(),
                  overhead.lo, overhead.hi, blocks.mean(), blocks.lo,
                  blocks.hi);
    }
  }
  return failures ? 1 : 0;
}

// Transient soft errors: each workload runs as the baseline and as the
// compressed (perfect-quality) register file.  The exposure run's live
// payload bits summed over every resident warp-cycle, per cycle, is the
// vulnerable cross-section; narrowed formats must not widen it.  A
// transient_campaign per config then injects flips at equal accelerated
// rates and reports where they landed.  A point whose corrupted register
// fed an address and tripped a bounds check prints as a DUE (detected
// unrecoverable error) with the point's error.
int soft(std::vector<std::string> names) {
  // A flip in a loop bound can keep a kernel running until the cycle cap.
  // No fault-free sample-scale launch takes 60k cycles, so a run past 1M
  // is a hang; it stops there (about 5 s) and prints as a DUE, instead of
  // running to the default 80M-cycle cap for minutes.
  sim::GpuConfig gpu = sim::GpuConfig::fermi_gtx480();
  gpu.max_cycles = 1'000'000;
  Engine engine(EngineOptions().with_gpu(gpu));
  if (names.empty()) names = engine.workload_names();
  const struct {
    const char* label;
    wl::SimMode mode;
  } configs[2] = {{"baseline", wl::SimMode::kOriginal},
                  {"compressed", wl::SimMode::kCompressedPerfect}};
  struct Runs {
    Job exposure, campaign;
  };
  std::vector<Runs> runs;
  for (const auto& name : names)
    for (const auto& cfg : configs) {
      SimRequest req;
      req.mode = cfg.mode;
      req.scale = wl::Scale::kSample;
      gpurf::TransientCampaignRequest tc;
      tc.sim = req;
      // Flips per million cycles, accelerated: the RF site geometry is
      // huge relative to the live footprint, so terrestrial rates would
      // never land a flip inside a sample-scale run.
      tc.flip_rates = {10000.0, 100000.0};
      tc.seeds_per_rate = 2;
      req.soft.track_exposure = true;
      runs.push_back({engine.submit(JobRequest::simulate(name, req)),
                      engine.submit(JobRequest::transient_campaign(name, tc))});
    }

  std::printf("Soft errors: transient vulnerability (sample scale)\n");
  std::printf("%-11s %-10s %8s %8s %8s %8s %8s %9s\n", "Kernel", "config",
              "rate", "injected", "on_live", "masked", "visible", "bits/cyc");
  int failures = 0;
  for (size_t w = 0; w < names.size(); ++w) {
    const char* name = names[w].c_str();
    double bits[2] = {0.0, 0.0};
    bool ok = true;
    for (int c = 0; c < 2; ++c) {
      Runs& r = runs[w * 2 + c];
      r.exposure.wait();
      r.campaign.wait();
      auto expo = r.exposure.sim_result();
      auto res = r.campaign.transient_result();
      if (!expo.ok() || !res.ok()) {
        const Status& st = !expo.ok() ? expo.status() : res.status();
        std::fprintf(stderr, "%s (%s): %s\n", name, configs[c].label,
                     st.to_string().c_str());
        ++failures;
        ok = false;
        continue;
      }
      const sim::SimResult& e = *expo;
      if (e.stats.cycles)
        bits[c] = double(e.soft.live_bit_cycles) / double(e.stats.cycles);
      std::printf("%-11s %-10s %8s %8s %8s %8s %8s %9.1f\n", name,
                  configs[c].label, "-", "-", "-", "-", "-", bits[c]);
      for (const auto& pt : res->points) {
        if (!pt.error.empty()) {
          std::printf("%-11s %-10s %8.0f %8s %8s %8s %8s %9s   DUE: %s\n",
                      name, configs[c].label, pt.flips_per_mcycle, "-", "-",
                      "-", "-", "-", pt.error.c_str());
          continue;
        }
        std::printf("%-11s %-10s %8.0f %8llu %8llu %8llu %8llu %9s\n", name,
                    configs[c].label, pt.flips_per_mcycle,
                    static_cast<unsigned long long>(pt.soft.flips_injected),
                    static_cast<unsigned long long>(pt.soft.flips_on_live),
                    static_cast<unsigned long long>(pt.soft.flips_masked_dead),
                    static_cast<unsigned long long>(pt.soft.flips_visible),
                    "-");
      }
    }
    if (ok && bits[1] > bits[0]) {
      std::fprintf(stderr,
                   "%s: compressed exposure %.1f bits/cycle exceeds "
                   "baseline %.1f\n",
                   name, bits[1], bits[0]);
      ++failures;
    }
  }
  if (failures) return 1;
  std::printf("\ncompressed cross-section <= baseline on every workload "
              "(%zu)\n",
              names.size());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: gpurf-figures <command> [workload ...]\n"
               "paper:  fig9 fig10 fig11 fig12 table1 table4 area power "
               "volta\n"
               "curves: faults soft (these two take workload names)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const std::vector<std::string> args(argv + std::min(argc, 2), argv + argc);
  const struct {
    const char* name;
    int (*run)();
  } paper[] = {{"fig9", fig9},     {"fig10", fig10},   {"fig11", fig11},
               {"fig12", fig12},   {"table1", table1}, {"table4", table4},
               {"area", area},     {"power", power},   {"volta", volta}};
  for (const auto& p : paper)
    if (cmd == p.name) return args.empty() ? p.run() : usage();

  const bool names_only = std::none_of(
      args.begin(), args.end(), [](const auto& a) { return a[0] == '-'; });
  if (cmd == "faults" && names_only) return faults(args);
  if (cmd == "soft" && names_only) return soft(args);
  return usage();
}
