// The two closed-batch workloads: fig11-sweep (warm simulate Jobs over the
// paper's Fig. 11 grid) and fresh-tune (a burst of fresh pipeline Jobs
// with the disk cache off).  Every job is submitted at once to one Engine.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>

#include "layers.hpp"

namespace perfbench {

namespace {

/// fresh-tune's kernels: every metric kind (deviation, SSIM with
/// textures, binary), 12-61 f32 registers, 136-666 evaluations per level.
/// Elevated and Deferred are left out: their single 8-20 s pipelines would
/// dominate the burst.
const std::vector<std::string> kTuneKernels = {
    "DWT2D", "Hotspot", "GICOV", "CFD", "SSAO", "Hybridsort"};

/// Set-ups per run; setup_s is their median.  Half run before the
/// measurement and half after it: the host's speed shifts within seconds
/// (one run's Engine constructions took 2.9 ms, then 1.95 ms), so set-ups
/// taken at one moment sample one such phase.
constexpr int kSetups = 22;

constexpr wl::SimMode kModes[] = {wl::SimMode::kOriginal,
                                  wl::SimMode::kCompressedPerfect,
                                  wl::SimMode::kCompressedHigh};

/// One closed batch: every job submitted at once, then waited for.
struct Batch {
  double wall_s = 0.0;              ///< first submit -> last result
  std::vector<double> result_ms;    ///< batch start -> each job's terminal
  std::vector<double> late_ms;      ///< batch start -> each submit call
  std::vector<JobRecord> jobs;      ///< in submission order
  std::vector<gpurf::Job> handles;  ///< in submission order
  HostSample h0, h1;
  double rss_mb = 0.0;  ///< process peak RSS when the batch ended
};

/// Submit `reqs` in order and wait until all are terminal.
Batch run_batch(Run& run, gpurf::Engine& engine,
                const std::vector<gpurf::JobRequest>& reqs,
                const std::vector<std::string>& labels, const char* exec_span) {
  Batch b;
  Tracer::Scope batch_span(run.tracer, "api.batch");
  b.h0 = host_sample();
  const auto t0 = Clock::now();
  {
    Tracer::Scope gen(run.tracer, "loadgen.submit_all");
    for (size_t i = 0; i < reqs.size(); ++i) {
      JobRecord rec;
      rec.label = labels[i];
      rec.submitted = Clock::now();
      b.late_ms.push_back(ms_between(t0, rec.submitted));
      {
        Tracer::Scope s(run.tracer, "api.submit");
        b.handles.push_back(engine.submit(reqs[i]));
      }
      rec.submit_block_ms = ms_between(rec.submitted, Clock::now());
      b.jobs.push_back(rec);
    }
  }
  run.report.attempted(reqs.size());
  for (auto& h : b.handles) h.wait();
  const auto t1 = Clock::now();
  b.h1 = host_sample();
  b.rss_mb = peak_rss_mb();
  b.wall_s = ms_between(t0, t1) / 1000.0;
  for (size_t i = 0; i < b.handles.size(); ++i) {
    b.jobs[i] = finish_record(b.jobs[i], b.handles[i]);
    b.result_ms.push_back(ms_between(t0, b.jobs[i].submitted) +
                          b.jobs[i].wall_ms);
    if (!b.jobs[i].ok) {
      run.report.failed();
      run.report.note("job " + b.jobs[i].label +
                      " failed: " + b.handles[i].status().to_string());
    }
  }
  add_job_spans(run, batch_span.id(), b.jobs, exec_span);
  return b;
}

/// The end-to-end metrics every workload prints, from its batches.
void report_closed_e2e(Run& run, const std::vector<double>& setup_s,
                       const std::vector<Batch>& batches) {
  // Percentiles are taken per batch and the median batch is reported: a
  // batch's jobs run in a fixed order, so pooling two or three batches
  // would let the pooled median jump between different jobs' results.
  std::vector<double> walls, p50s, tails;
  Tail rt;
  for (const Batch& b : batches) {
    walls.push_back(b.wall_s);
    p50s.push_back(median(b.result_ms));
    rt = tail(b.result_ms);
    tails.push_back(rt.value);
  }
  const double wall = median(walls);
  Report& r = run.report;
  r.metric("setup_s", median(setup_s), "s");
  r.metric("wall_s", wall, "s");
  r.metric("result_p50_ms", median(p50s), "ms");
  r.metric("result_tail_ms", median(tails), "ms");
  r.metric("max_rate_rps", double(batches.front().jobs.size()) / wall,
           "req/s");
  // Set-up and the first batch: how many more batches fit in --seconds
  // depends on speed, and each fresh-tune burst's Engine leaves its
  // memory behind, so a later reading would grow with the batch count.
  r.metric("peak_rss_mb", batches.front().rss_mb, "MB");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "batches %zu; result tail = p%.1f of %zu samples per batch "
                "(%zu beyond)",
                batches.size(), rt.pct, rt.n, rt.beyond);
  r.note(buf);
}

/// A closed batch carries no control traffic and has one due time, the
/// batch start: the control tail is that of the layer pass's pings on an
/// idle server, and the generator's lateness is how long after the batch
/// start each job was submitted.
void report_control(Run& run, const Batch& b,
                    const std::vector<double>& ping_ms) {
  run.report.metric("api.control_tail_ms", tail(ping_ms).value, "ms");
  run.report.metric("loadgen.late_tail_ms", tail(b.late_ms).value, "ms");
}

/// Batches repeat while one more still fits in --seconds (at least one
/// runs), so a run measures whole batches only.
bool another_batch(const Run& run, Clock::time_point t0, const Batch& last) {
  return ms_between(t0, Clock::now()) / 1000.0 + last.wall_s <=
         double(run.opt.seconds);
}

/// Every job of a batch gets its own priority, highest for the first
/// entry of the fixed grid (kernels in the paper's order, original before
/// perfect before high).  The executor then starts jobs in the same order
/// whatever order the seed submits them in, so a batch's makespan and its
/// per-job queue waits do not swing with the seed.
int grid_priority(size_t n, size_t grid_index) {
  return int(n - grid_index);
}

/// Seeded Fisher-Yates order of n submissions.
std::vector<size_t> seeded_order(size_t n, std::mt19937_64& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  return order;
}

}  // namespace

// ------------------------------------------------------------ fig11-sweep

void run_fig11_sweep(Run& run) {
  std::vector<std::string> kernels;
  {
    gpurf::Engine probe(engine_options(run, true, 1));
    kernels = probe.workload_names();
  }
  const wl::Scale scale = run.opt.tiny ? wl::Scale::kSample : wl::Scale::kFull;
  if (run.opt.tiny) kernels = {"DWT2D", "Hotspot"};
  run.report.check(fill_pmap_cache(run, kernels),
                   "benchmark pmap cache holds every grid kernel");

  // The seed picks each kernel's input variant (shared by its three modes,
  // so the IPC ratio compares like with like) and the submission order.
  std::mt19937_64 rng(run.opt.seed);
  std::vector<uint32_t> variant;
  for (size_t k = 0; k < kernels.size(); ++k)
    variant.push_back(uint32_t(rng() % (scale == wl::Scale::kFull ? 4 : 2)));
  std::vector<Launch> grid;
  for (wl::SimMode m : kModes)
    for (size_t k = 0; k < kernels.size(); ++k)
      grid.push_back(Launch{kernels[k], m, scale, variant[k]});
  const std::vector<size_t> order = seeded_order(grid.size(), rng);
  // The traced layer pass re-simulates seeded launches and tunes one
  // kernel; both are drawn now, so they depend on the seed only, never on
  // how many sweeps fit in --seconds.
  std::vector<size_t> resim;
  for (int i = 0; i < (run.opt.tiny ? 1 : 2); ++i)
    resim.push_back(size_t(rng() % grid.size()));
  std::vector<std::string> tunable;
  for (const auto& k : kernels)
    if (std::count(kTuneKernels.begin(), kTuneKernels.end(), k))
      tunable.push_back(k);
  const std::string tune_kernel = tunable[rng() % tunable.size()];
  std::vector<gpurf::JobRequest> reqs;
  std::vector<std::string> labels;
  for (size_t i : order) {
    reqs.push_back(
        gpurf::JobRequest::simulate(grid[i].kernel, grid[i].request())
            .with_priority(grid_priority(grid.size(), i)));
    labels.push_back(grid[i].key());
  }

  // Set-up: Engine construction + pipeline warm (pmap loads), several
  // times; the last Engine serves the sweep.
  std::vector<double> setup_s, warm_ms;
  auto setup = [&](int times) {
    std::unique_ptr<gpurf::Engine> e;
    for (int i = 0; i < times; ++i) {
      e.reset();
      Tracer::Scope s(run.tracer, "workloads.setup");
      const auto t0 = Clock::now();
      {
        // One executor worker: each launch in turn holds the sharded
        // simulator's whole crew of nproc threads.  With one worker per
        // core, one sharded sim and three serial ones contended for the
        // cores, and the sweep's wall time swung by 15 % between runs.
        Tracer::Scope c(run.tracer, "api.engine_new");
        e = std::make_unique<gpurf::Engine>(
            engine_options(run, true, 2 * grid.size()).with_async_workers(1));
      }
      for (const auto& k : kernels) {
        const auto w0 = Clock::now();
        Tracer::Scope p(run.tracer, "workloads.pipeline_warm");
        run.report.check(e->pipeline(k).ok(), "pipeline warm " + k);
        warm_ms.push_back(ms_between(w0, Clock::now()));
      }
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
    return e;
  };
  auto measure = [&](gpurf::Engine& e) {
    std::vector<Batch> out;
    const auto t0 = Clock::now();
    do {
      out.push_back(run_batch(run, e, reqs, labels, "sim.job"));
    } while (another_batch(run, t0, out.back()));
    return out;
  };
  // Grid-order stats of one sweep, checked against every other sweep.
  std::map<std::string, std::string> reference;
  auto collect = [&](const std::vector<Batch>& batches) {
    std::vector<gpurf::sim::SimStats> all;
    std::map<std::string, IpcTriple> ipc;
    for (const Batch& b : batches) {
      for (size_t i = 0; i < b.handles.size(); ++i) {
        auto r = b.handles[i].sim_result();
        if (!r.ok()) continue;
        const Launch& l = grid[order[i]];
        const std::string text = stats_text(r->stats);
        auto [it, fresh] = reference.emplace(l.key(), text);
        if (!fresh && it->second != text)
          run.report.check(false, l.key() + ": SimStats differ between sweeps");
        if (&b == &batches.back()) {
          all.push_back(r->stats);
          ipc[l.kernel].set(l.mode, r->stats.ipc());
        }
      }
    }
    return std::make_pair(all, ipc);
  };

  auto engine = setup(run.opt.tiny ? 1 : kSetups / 2);
  std::vector<Batch> batches = measure(*engine);
  auto [all, ipc] = collect(batches);
  if (!run.opt.tiny) setup(kSetups / 2);

  if (!run.opt.trace) {
    report_closed_e2e(run, setup_s, batches);
  } else {
    // The pass above is the untraced reference; repeat set-up and sweep
    // with spans on, then decompose through the layers.
    const double untraced_wall = batches.front().wall_s;
    engine.reset();
    setup_s.clear();
    warm_ms.clear();
    run.tracer.set_on(true);
    const int64_t w0 = run.tracer.now_ns();
    engine = setup(1);
    batches = measure(*engine);
    std::tie(all, ipc) = collect(batches);
    const Batch& traced = batches.front();
    report_job_metrics(run, traced.jobs, *engine);
    report_host(run, traced.h0, traced.h1);
    run.report.metric("workloads.pipeline_warm_ms", median(warm_ms), "ms");
    report_sim_model(run, all);
    report_ipc_gains(run, ipc);

    LayerPassSpec spec;
    for (size_t i : resim) {
      spec.resim.push_back(grid[i]);
      spec.expected[grid[i].key()] = reference[grid[i].key()];
    }
    spec.tune_kernel = tune_kernel;
    if (auto pr = engine->pipeline(spec.tune_kernel); pr.ok())
      spec.expected_pmap = pmap_text((*pr)->tune_perfect.pmap);
    LayerPassResult pass;
    {
      Tracer::Scope s(run.tracer, "loadgen.layer_pass");
      pass = layer_pass(run, *engine, spec);
    }
    report_control(run, traced, pass.ping_ms);
    report_trace(run, w0, run.tracer.now_ns(), untraced_wall, traced.wall_s,
                 host_meta_json(run));
  }

  for (const Launch& l : grid) run.digest.add(l.key() + reference[l.key()]);
}

// ------------------------------------------------------------- fresh-tune

void run_fresh_tune(Run& run) {
  const std::vector<std::string> kernels =
      run.opt.tiny ? std::vector<std::string>{"DWT2D"} : kTuneKernels;
  // The warm cache is the reference the fresh pmaps must reproduce.
  run.report.check(fill_pmap_cache(run, kernels),
                   "benchmark pmap cache holds every burst kernel");
  std::map<std::string, std::string> cached;  // kernel -> perfect|high pmaps
  {
    gpurf::Engine e(engine_options(run, true, 1));
    for (const auto& k : kernels) {
      gpurf::tuning::TuneResult p, h;
      auto w = e.workload(k);
      if (w.ok() && wl::load_pmap_cache(**w, run.cache_dir(), p, h).ok())
        cached[k] = pmap_text(p.pmap) + "|" + pmap_text(h.pmap);
    }
  }

  std::mt19937_64 rng(run.opt.seed);
  const std::vector<size_t> order = seeded_order(kernels.size(), rng);
  // Kernel the traced layer pass tunes, drawn before any burst runs.
  const std::string tune_kernel = kernels[rng() % kernels.size()];
  std::vector<gpurf::JobRequest> reqs;
  std::vector<std::string> labels;
  for (size_t i : order) {
    reqs.push_back(gpurf::JobRequest::pipeline(kernels[i])
                       .with_priority(grid_priority(kernels.size(), i)));
    labels.push_back(kernels[i]);
  }

  // Set-up is Engine construction (disk cache off: nothing to load).  A
  // burst needs a fresh Engine each time, since the memo would serve a
  // second burst on the same one.
  std::vector<double> setup_s;
  auto new_engine = [&] {
    Tracer::Scope s(run.tracer, "api.engine_new");
    const auto t0 = Clock::now();
    // One executor worker: the six pipelines run one after another, each
    // fanning out on the whole pool.  Run concurrently they take no less
    // time, and their completion order swings from burst to burst.
    auto e = std::make_unique<gpurf::Engine>(
        engine_options(run, false, 2 * size_t(run.opt.nproc))
            .with_async_workers(1));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    return e;
  };
  std::map<std::string, std::string> fresh;  // kernel -> perfect|high pmaps
  std::unique_ptr<gpurf::Engine> last;
  auto measure = [&] {
    std::vector<Batch> out;
    const auto t0 = Clock::now();
    do {
      last.reset();  // one Engine at a time keeps peak RSS a per-burst figure
      last = new_engine();
      out.push_back(run_batch(run, *last, reqs, labels, "tuning.job"));
      for (size_t i = 0; i < out.back().handles.size(); ++i) {
        auto pr = out.back().handles[i].pipeline_result();
        if (!pr.ok()) continue;
        const std::string& k = labels[i];
        const std::string text = pmap_text(pr->tune_perfect.pmap) + "|" +
                                 pmap_text(pr->tune_high.pmap);
        auto [it, first] = fresh.emplace(k, text);
        if (!first && it->second != text)
          run.report.check(false, k + ": fresh pmaps differ between bursts");
      }
    } while (another_batch(run, t0, out.back()));
    return out;
  };

  // Extra set-up samples, an Engine taking a few ms to build.
  const int extra = run.opt.tiny ? 0 : kSetups / 2;
  for (int i = 0; i < extra; ++i) new_engine();
  std::vector<Batch> batches = measure();
  for (int i = 0; i < extra; ++i) new_engine();

  if (!run.opt.trace) {
    report_closed_e2e(run, setup_s, batches);
  } else {
    const double untraced_wall = batches.front().wall_s;
    last.reset();
    run.tracer.set_on(true);
    const int64_t w0 = run.tracer.now_ns();
    batches = measure();
    const Batch& traced = batches.front();
    report_job_metrics(run, traced.jobs, *last);
    report_host(run, traced.h0, traced.h1);
    // No pmap load or warm-up on this workload: what remains of the
    // pipeline layer is the memo hit that follows the burst.
    std::vector<double> memo_ms;
    for (const auto& k : kernels) {
      const auto m0 = Clock::now();
      Tracer::Scope p(run.tracer, "workloads.pipeline_warm");
      run.report.check(last->pipeline(k).ok(), "pipeline memo hit " + k);
      memo_ms.push_back(ms_between(m0, Clock::now()));
    }
    run.report.metric("workloads.pipeline_warm_ms", median(memo_ms), "ms");

    LayerPassSpec spec;
    spec.tune_kernel = tune_kernel;
    for (wl::SimMode m : kModes)
      spec.resim.push_back(Launch{spec.tune_kernel, m, wl::Scale::kSample, 0});
    const std::string& both = fresh[spec.tune_kernel];
    spec.expected_pmap = both.substr(0, both.find('|'));
    LayerPassResult pass;
    {
      Tracer::Scope s(run.tracer, "loadgen.layer_pass");
      pass = layer_pass(run, *last, spec);
    }
    report_control(run, traced, pass.ping_ms);
    std::vector<gpurf::sim::SimStats> all;
    std::map<std::string, IpcTriple> ipc;
    for (const auto& [l, st] : pass.sims) {
      all.push_back(st);
      ipc[l.kernel].set(l.mode, st.ipc());
    }
    report_sim_model(run, all);
    report_ipc_gains(run, ipc);
    report_trace(run, w0, run.tracer.now_ns(), untraced_wall, traced.wall_s,
                 host_meta_json(run));
  }

  for (const auto& k : kernels) {
    run.report.check(fresh.count(k) && fresh[k] == cached[k],
                     k + ": fresh pmaps equal the warm cache's");
    run.digest.add(k + fresh[k]);
  }
}

}  // namespace perfbench
