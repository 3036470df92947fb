// Shared workload plumbing and the traced layer pass.

#include "layers.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "alloc/slice_alloc.hpp"
#include "analysis/range_analysis.hpp"
#include "api/json.hpp"
#include "api/server.hpp"
#include "common/thread_pool.hpp"
#include "tuning/tuner.hpp"
#include "workloads/pipeline.hpp"

namespace perfbench {

namespace api = gpurf::api;

const char* mode_name(wl::SimMode m) {
  switch (m) {
    case wl::SimMode::kOriginal: return "original";
    case wl::SimMode::kCompressedPerfect: return "perfect";
    case wl::SimMode::kCompressedHigh: return "high";
  }
  return "unknown";
}

std::string Launch::key() const {
  return kernel + "/" + mode_name(mode) + "/" +
         (scale == wl::Scale::kFull ? "full" : "sample") + "/v" +
         std::to_string(variant);
}

gpurf::SimRequest Launch::request() const {
  gpurf::SimRequest r;
  r.mode = mode;
  r.scale = scale;
  r.variant = variant;
  return r;
}

gpurf::EngineOptions engine_options(const Run& run, bool disk_cache,
                                    size_t max_inflight) {
  return gpurf::EngineOptions()
      .with_threads(run.opt.nproc)
      .with_cache_dir(run.cache_dir())
      .with_disk_cache(disk_cache)
      .with_sim_shards(run.opt.nproc)
      .with_async_workers(run.opt.nproc)
      .with_max_inflight(max_inflight);
}

bool fill_pmap_cache(Run& run, const std::vector<std::string>& kernels) {
  std::error_code ec;
  std::filesystem::create_directories(run.cache_dir(), ec);
  gpurf::Engine engine(engine_options(run, true, 64));
  std::vector<std::string> missing;
  for (const auto& k : kernels) {
    auto w = engine.workload(k);
    if (!w.ok()) return false;
    gpurf::tuning::TuneResult p, h;
    if (!wl::load_pmap_cache(**w, run.cache_dir(), p, h).ok())
      missing.push_back(k);
  }
  if (missing.empty()) return true;
  run.report.note("prepare: tuning " + std::to_string(missing.size()) +
                  " kernel(s) into the benchmark pmap cache " +
                  run.cache_dir());
  std::vector<gpurf::Job> jobs;
  for (const auto& k : missing)
    jobs.push_back(engine.submit(gpurf::JobRequest::pipeline(k)));
  bool ok = true;
  for (auto& j : jobs) {
    j.wait();
    ok = ok && j.status().ok();
  }
  return ok;
}

std::string canonical(const api::JsonValue& v) {
  using K = api::JsonValue::Kind;
  switch (v.kind) {
    case K::kNull: return "null";
    case K::kBool: return v.bool_v ? "true" : "false";
    case K::kNumber: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v.num_v);
      return buf;
    }
    case K::kString: {
      std::string s = "\"";
      s += api::JsonWriter::escape(v.str_v);
      return s + "\"";
    }
    case K::kArray: {
      std::string s = "[";
      for (size_t i = 0; i < v.items.size(); ++i) {
        if (i) s += ',';
        s += canonical(v.items[i]);
      }
      return s + "]";
    }
    case K::kObject: {
      std::string s = "{";
      for (size_t i = 0; i < v.members.size(); ++i) {
        if (i) s += ',';
        s += "\"" + v.members[i].first + "\":";
        s += canonical(v.members[i].second);
      }
      return s + "}";
    }
  }
  return "";
}

std::string stats_text(const gpurf::sim::SimStats& s) {
  const auto v = api::parse_json(api::to_json(s));
  return v.ok() ? canonical(*v) : "";
}

std::string pmap_text(const gpurf::exec::PrecisionMap& p) {
  std::string out;
  for (const auto& f : p.per_reg)
    out += std::to_string(f.total_bits) + "/" + std::to_string(f.exp_bits) +
           "/" + std::to_string(f.man_bits) + ",";
  return out;
}

std::string socket_path(const Run& run, const std::string& tag) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path rel =
      fs::relative(fs::path(run.opt.out_dir), fs::current_path(), ec);
  if (ec || rel.empty()) rel = run.opt.out_dir;
  return (rel / ("pb-" + std::to_string(::getpid()) + "-" + tag + ".sock"))
      .string();
}

JobRecord finish_record(JobRecord r, const gpurf::Job& job) {
  const gpurf::JobProgress p = job.progress();
  r.id = job.id();
  r.wall_ms = p.wall_ms;
  r.exec_ms = p.exec_ms;
  r.ok = job.status().ok();
  return r;
}

void add_job_spans(Run& run, int64_t parent,
                   const std::vector<JobRecord>& jobs, const char* exec_span) {
  if (!run.tracer.on()) return;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& j = jobs[i];
    const int64_t submitted = run.tracer.to_ns(j.submitted);
    const int64_t end = submitted + int64_t(j.wall_ms * 1e6);
    const int64_t start = end - int64_t(j.exec_ms * 1e6);
    const uint32_t lane = 1000 + uint32_t(i);
    run.tracer.add("api.queue_wait", submitted, start, parent, j.id, lane);
    run.tracer.add(exec_span, start, end, parent, j.id, lane);
  }
}

void report_job_metrics(Run& run, const std::vector<JobRecord>& jobs,
                        const gpurf::Engine& engine) {
  double block = 0.0, queue = 0.0, exec = 0.0;
  for (const auto& j : jobs) {
    block += j.submit_block_ms;
    queue += j.wall_ms - j.exec_ms;
    exec += j.exec_ms;
  }
  const double n = jobs.empty() ? 1.0 : double(jobs.size());
  run.report.metric("api.submit_block_ms", block / n, "ms");
  run.report.metric("api.queue_wait_ms", queue / n, "ms");
  run.report.metric("api.job_exec_ms", exec / n, "ms");
  const gpurf::MetricsSnapshot m = engine.metrics_snapshot();
  const double lookups = double(m.pipeline_memo_hits + m.pipeline_memo_misses);
  run.report.metric("api.memo_hit_ratio",
                    lookups > 0 ? double(m.pipeline_memo_hits) / lookups : 0.0,
                    "ratio");
}

// ---------------------------------------------------------- modelled side

void report_sim_model(Run& run, const std::vector<gpurf::sim::SimStats>& all) {
  gpurf::sim::SimStats t;
  for (const auto& s : all) {
    t.merge_sm(s);
    t.cycles += s.cycles;
    t.thread_insts += s.thread_insts;
    t.l2.merge(s.l2);  // launch-wide, not part of merge_sm
  }
  const auto gpu = gpurf::sim::GpuConfig::fermi_gtx480();
  const double slots =
      double(t.cycles) * double(gpu.num_sms) * double(gpu.warp_schedulers);
  const double stalls = double(t.stall_scoreboard + t.stall_no_cu +
                               t.stall_barrier + t.stall_empty);
  auto frac = [&](double x) { return slots > 0 ? x / slots : 0.0; };
  Report& r = run.report;
  r.metric("sim.cycles", double(t.cycles), "count");
  r.metric("sim.warp_insts", double(t.warp_insts), "count");
  r.metric("sim.ipc", t.ipc(), "inst/cycle");
  r.metric("sim.slot_issue_frac", frac(double(t.warp_insts)), "ratio");
  r.metric("sim.slot_stall_scoreboard_frac", frac(double(t.stall_scoreboard)),
           "ratio");
  r.metric("sim.slot_stall_no_cu_frac", frac(double(t.stall_no_cu)), "ratio");
  r.metric("sim.slot_stall_barrier_frac", frac(double(t.stall_barrier)),
           "ratio");
  r.metric("sim.slot_stall_empty_frac", frac(double(t.stall_empty)), "ratio");
  // Issue slots with neither an issue nor a recorded stall cause (e.g. SMs
  // with no resident block): the partition's gap, reported, not hidden.
  r.metric("sim.slot_gap_frac", frac(slots - double(t.warp_insts) - stalls),
           "ratio");
  r.metric("sim.double_fetch_frac",
           t.operand_fetches ? double(t.double_fetches) /
                                   double(t.operand_fetches)
                             : 0.0,
           "ratio");
  r.metric("sim.conversions", double(t.conversions), "count");
  r.metric("sim.l1_miss_rate", t.l1.miss_rate(), "ratio");
  r.metric("sim.tex_miss_rate", t.tex.miss_rate(), "ratio");
  r.metric("sim.l2_miss_rate", t.l2.miss_rate(), "ratio");
}

void report_ipc_gains(Run& run, const std::map<std::string, IpcTriple>& ipc) {
  constexpr double kPaperPerfect = 15.75, kPaperHigh = 18.6;
  double lp = 0.0, lh = 0.0;
  int n = 0;
  for (const auto& [k, t] : ipc) {
    if (t.original <= 0 || t.perfect <= 0 || t.high <= 0) continue;
    lp += std::log(t.perfect / t.original);
    lh += std::log(t.high / t.original);
    ++n;
  }
  const double gp = n ? 100.0 * (std::exp(lp / n) - 1.0) : 0.0;
  const double gh = n ? 100.0 * (std::exp(lh / n) - 1.0) : 0.0;
  run.report.metric("sim.ipc_gain_perfect_pct", gp, "%");
  run.report.metric("sim.ipc_gain_high_pct", gh, "%");
  run.report.metric("sim.ipc_gain_perfect_err_pp", gp - kPaperPerfect, "pp");
  run.report.metric("sim.ipc_gain_high_err_pp", gh - kPaperHigh, "pp");
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "sim.ipc_gain geomean over %d kernel(s): perfect %+.2f%% "
                "(paper +15.75%%, error %+.2f pp), high %+.2f%% (paper "
                "+18.6%%, error %+.2f pp); the timing model is unvalidated "
                "against hardware",
                n, gp, gp - kPaperPerfect, gh, gh - kPaperHigh);
  run.report.note(buf);
}

// -------------------------------------------------------------- layer pass

namespace {

/// Forwards to the workload's own probe and records what the tuner asks
/// of it: batch count and time, candidates, and how many leading
/// candidates of each batch met the level (the speculation that paid).
class ForwardingProbe final : public gpurf::tuning::QualityProbe {
 public:
  ForwardingProbe(gpurf::tuning::QualityProbe& inner,
                  gpurf::quality::QualityLevel level, Tracer& tracer)
      : inner_(inner), level_(level), tracer_(tracer) {}

  double evaluate(const gpurf::exec::PrecisionMap& pmap) override {
    singles_.fetch_add(1);
    return inner_.evaluate(pmap);
  }
  bool meets(double score, gpurf::quality::QualityLevel level) const override {
    return inner_.meets(score, level);
  }
  std::vector<double> evaluate_batch(
      const std::vector<const gpurf::exec::PrecisionMap*>& pmaps) override {
    const auto t0 = Clock::now();
    std::vector<double> scores;
    {
      Tracer::Scope s(tracer_, "exec.probe_batch");
      scores = inner_.evaluate_batch(pmaps);
    }
    batch_ms_ += ms_between(t0, Clock::now());
    ++batches_;
    candidates_ += pmaps.size();
    for (double sc : scores) {
      if (!inner_.meets(sc, level_)) break;
      ++leading_accepted_;
    }
    return scores;
  }

  uint64_t batches_ = 0;
  uint64_t candidates_ = 0;
  uint64_t leading_accepted_ = 0;
  double batch_ms_ = 0.0;
  std::atomic<uint64_t> singles_{0};

 private:
  gpurf::tuning::QualityProbe& inner_;
  gpurf::quality::QualityLevel level_;
  Tracer& tracer_;
};

}  // namespace

LayerPassResult layer_pass(Run& run, gpurf::Engine& engine,
                           const LayerPassSpec& spec) {
  Tracer& tr = run.tracer;
  Report& rep = run.report;
  LayerPassResult out;
  // Direct calls fan out on a pool of the stated width, not on the
  // process default (which would read $GPURF_THREADS).
  gpurf::common::ThreadPool pool(run.opt.nproc);
  gpurf::common::ScopedPool bind(&pool);
  // Benchmark-owned workload objects: their memory-proof caches start
  // cold, so analysis.mem_proofs times the per-shape solve.
  const auto owned = wl::make_all_workloads();
  auto find = [&](const std::string& name) -> const wl::Workload* {
    for (const auto& w : owned)
      if (w->spec().name == name) return w.get();
    return nullptr;
  };
  const auto gpu = gpurf::sim::GpuConfig::fermi_gtx480();

  // sim, host side: every launch serial, then sharded.
  std::vector<double> make_ms, proofs_ms, sharded_call_ms;
  double serial_ms = 0.0, sharded_ms = 0.0;
  uint64_t cycles = 0, warp_insts = 0;
  std::set<std::string> proven_shape;
  for (const Launch& l : spec.resim) {
    const wl::Workload* w = find(l.kernel);
    auto pr = engine.pipeline(l.kernel);
    if (!w || !pr.ok()) {
      rep.check(false, "layer pass: pipeline for " + l.kernel);
      continue;
    }
    gpurf::sim::SimStats per_pass[2];
    for (int pass = 0; pass < 2; ++pass) {
      auto t0 = Clock::now();
      wl::Workload::Instance inst;
      {
        Tracer::Scope s(tr, "workloads.make_instance");
        inst = w->make_instance(l.scale, l.variant);
      }
      auto t1 = Clock::now();
      std::shared_ptr<const wl::Workload::MemProofs> proofs;
      {
        Tracer::Scope s(tr, "analysis.mem_proofs");
        proofs = w->mem_proofs(inst);
      }
      auto t2 = Clock::now();
      const std::string shape =
          l.kernel + (l.scale == wl::Scale::kFull ? "/full" : "/sample");
      if (proven_shape.insert(shape).second)
        proofs_ms.push_back(ms_between(t1, t2));
      make_ms.push_back(ms_between(t0, t1));
      gpurf::sim::KernelLaunchSpec ls;
      {
        Tracer::Scope s(tr, "workloads.make_launch_spec");
        ls = wl::make_launch_spec(*w, inst, **pr, l.mode);
      }
      gpurf::sim::SimOptions so;
      so.shards = pass == 1 && proofs->shard_ok ? run.opt.nproc : 1;
      const auto t3 = Clock::now();
      {
        Tracer::Scope s(tr, pass == 0 ? "sim.simulate_serial"
                                      : "sim.simulate_sharded");
        per_pass[pass] =
            gpurf::sim::simulate(gpu, wl::make_compression_config(l.mode), ls,
                                 nullptr, so)
                .stats;
      }
      const double ms = ms_between(t3, Clock::now());
      if (pass == 0) {
        serial_ms += ms;
        cycles += per_pass[0].cycles;
        warp_insts += per_pass[0].warp_insts;
      } else {
        sharded_ms += ms;
        sharded_call_ms.push_back(ms);
      }
    }
    rep.check(per_pass[0] == per_pass[1],
              "re-simulation " + l.key() + ": serial == sharded SimStats");
    const auto exp = spec.expected.find(l.key());
    if (exp != spec.expected.end())
      rep.check(stats_text(per_pass[0]) == exp->second,
                "re-simulation " + l.key() +
                    ": serial SimStats reproduce the served job's");
    out.sims.emplace_back(l, per_pass[0]);
  }
  rep.metric("sim.simulate_ms", mean(sharded_call_ms), "ms");
  rep.metric("sim.host_us_per_cycle_serial",
             cycles ? 1e3 * serial_ms / double(cycles) : 0.0, "us");
  rep.metric("sim.host_us_per_cycle_sharded",
             cycles ? 1e3 * sharded_ms / double(cycles) : 0.0, "us");
  rep.metric("sim.shard_speedup", sharded_ms > 0 ? serial_ms / sharded_ms : 0.0,
             "ratio");
  rep.metric("sim.host_ns_per_warp_inst",
             warp_insts ? 1e6 * serial_ms / double(warp_insts) : 0.0, "ns");
  rep.metric("workloads.make_instance_ms", mean(make_ms), "ms");
  rep.metric("analysis.mem_proofs_ms", mean(proofs_ms), "ms");

  // analysis / workloads / tuning / exec / alloc on the tuning kernel.
  const wl::Workload* w = find(spec.tune_kernel);
  auto pr = engine.pipeline(spec.tune_kernel);
  if (!w || !pr.ok()) {
    rep.check(false, "layer pass: pipeline for " + spec.tune_kernel);
    return out;
  }
  wl::Workload::Instance full;
  {
    Tracer::Scope s(tr, "workloads.make_instance");
    full = w->make_instance(wl::Scale::kFull, 0);
  }
  auto t0 = Clock::now();
  gpurf::analysis::RangeAnalysisResult ranges;
  {
    Tracer::Scope s(tr, "analysis.ranges");
    ranges = gpurf::analysis::analyze_ranges(w->kernel(), full.launch);
  }
  rep.metric("analysis.ranges_ms", ms_between(t0, Clock::now()), "ms");

  gpurf::tuning::TuneResult loaded_p, loaded_h;
  t0 = Clock::now();
  gpurf::Status loaded;
  {
    Tracer::Scope s(tr, "workloads.pmap_load");
    loaded = wl::load_pmap_cache(*w, run.cache_dir(), loaded_p, loaded_h);
  }
  rep.metric("workloads.pmap_load_ms", ms_between(t0, Clock::now()), "ms");
  rep.check(loaded.ok() && pmap_text(loaded_p.pmap) ==
                               pmap_text((*pr)->tune_perfect.pmap),
            "pmap cache entry of " + spec.tune_kernel +
                " equals the Engine pipeline's perfect pmap");

  const wl::RunOptions run_opts;
  std::unique_ptr<gpurf::tuning::QualityProbe> inner;
  {
    Tracer::Scope s(tr, "exec.reference_replays");
    inner = wl::make_workload_probe(*w, run_opts);
  }
  ForwardingProbe probe(*inner, gpurf::quality::QualityLevel::kPerfect, tr);
  t0 = Clock::now();
  gpurf::StatusOr<gpurf::tuning::TuneResult> tuned =
      gpurf::Status::Internal("not run");
  {
    Tracer::Scope s(tr, "tuning.tune");
    tuned = engine.tune(w->kernel(), probe,
                        gpurf::quality::QualityLevel::kPerfect);
  }
  rep.metric("tuning.tune_ms", ms_between(t0, Clock::now()), "ms");
  rep.check(tuned.ok() && pmap_text(tuned->pmap) == spec.expected_pmap,
            "Engine::tune of " + spec.tune_kernel +
                " reproduces the perfect pmap of the measured jobs");
  const uint64_t evaluations = tuned.ok() ? uint64_t(tuned->evaluations) : 0;
  rep.metric("tuning.evaluations", double(evaluations), "count");
  rep.metric("tuning.batches", double(probe.batches_), "count");
  rep.metric("tuning.batch_ms",
             probe.batches_ ? probe.batch_ms_ / double(probe.batches_) : 0.0,
             "ms");
  rep.metric("tuning.spec_useful_ratio",
             probe.candidates_ ? double(probe.leading_accepted_) /
                                     double(probe.candidates_)
                               : 0.0,
             "ratio");

  // Functional replay of the sample instance, without and with the pmap.
  double replay_ms[2] = {0.0, 0.0};
  uint64_t insts = 0;
  for (int tuned_pass = 0; tuned_pass < 2; ++tuned_pass) {
    auto inst = w->make_instance(wl::Scale::kSample, 0);
    uint64_t n = 0;
    wl::RunOptions ro;
    ro.thread_insts = &n;
    const auto r0 = Clock::now();
    {
      Tracer::Scope s(tr, tuned_pass ? "exec.replay_tuned" : "exec.replay");
      (void)w->run(inst, tuned_pass ? &loaded_p.pmap : nullptr, nullptr, ro);
    }
    replay_ms[tuned_pass] = ms_between(r0, Clock::now());
    if (tuned_pass == 0) insts = n;
  }
  // Every probe evaluation replays each sample variant, and building the
  // probe replays them once more for the exact references.
  const uint64_t replays =
      2 + (probe.candidates_ + probe.singles_.load() + 1) *
              w->num_sample_variants();
  rep.metric("exec.replays", double(replays), "count");
  rep.metric("exec.replay_ms", replay_ms[0], "ms");
  rep.metric("exec.replay_tuned_ms", replay_ms[1], "ms");
  rep.metric("exec.minsts_per_s",
             replay_ms[0] > 0 ? double(insts) / (replay_ms[0] * 1e3) : 0.0,
             "Minst/s");

  t0 = Clock::now();
  gpurf::alloc::AllocationResult alloc;
  {
    Tracer::Scope s(tr, "alloc.allocate");
    alloc = gpurf::alloc::allocate_slices(w->kernel(), &ranges, &loaded_p.pmap,
                                          gpurf::alloc::AllocOptions{});
  }
  rep.metric("alloc.allocate_ms", ms_between(t0, Clock::now()), "ms");
  rep.check(alloc == (*pr)->alloc_both_perfect,
            "allocate_slices of " + spec.tune_kernel +
                " reproduces the pipeline's perfect allocation");

  // api: ping round trip on an idle server, serialize cost.
  std::unique_ptr<gpurf::api::Server> temp;
  std::string sock = spec.server_socket;
  if (sock.empty()) {
    sock = socket_path(run, "probe");
    gpurf::api::ServerOptions so;
    so.socket_path = sock;
    temp = std::make_unique<gpurf::api::Server>(engine, so);
    rep.check(temp->start().ok(), "probe server starts");
  }
  {
    gpurf::api::Client client(sock);
    for (int i = 0; i < 200 && client.status().ok(); ++i) {
      const auto p0 = Clock::now();
      Tracer::Scope s(tr, "api.ping");
      if (!client.call("{\"op\":\"ping\"}").ok()) break;
      out.ping_ms.push_back(ms_between(p0, Clock::now()));
    }
    rep.check(out.ping_ms.size() == 200, "200 pings on the idle server");
    rep.metric("api.ping_rtt_us", 1e3 * median(out.ping_ms), "us");
    gpurf::StatusOr<gpurf::api::JsonValue> h = gpurf::Status::Internal("");
    {
      Tracer::Scope s(tr, "api.histograms");
      h = client.call_json("{\"op\":\"histograms\"}");
    }
    const gpurf::api::JsonValue* ser =
        h.ok() && h->get("histograms") ? h->get("histograms")->get("serialize")
                                       : nullptr;
    rep.check(ser != nullptr, "histograms reply carries the serialize stage");
    rep.metric("api.serialize_us",
               ser && ser->get("mean_us") ? ser->get("mean_us")->as_double()
                                          : 0.0,
               "us");
  }
  if (temp) {
    temp->stop();
    std::error_code ec;
    std::filesystem::remove(sock, ec);
  }
  return out;
}

void report_host(Run& run, const HostSample& a, const HostSample& b) {
  const HostDelta d = host_delta(a, b, run.opt.nproc);
  run.report.metric("host.cpu_util", d.cpu_util, "ratio");
  run.report.metric("host.sys_frac", d.sys_frac, "ratio");
  run.report.metric("host.ctx_switches", double(d.ctx_switches), "count");
}

void report_trace(Run& run, int64_t window_start_ns, int64_t window_end_ns,
                  double untraced_wall_s, double traced_wall_s,
                  const std::string& meta_json) {
  const auto spans = run.tracer.spans();
  std::vector<std::pair<int64_t, int64_t>> iv;
  iv.reserve(spans.size());
  for (const auto& s : spans) iv.emplace_back(s.start_ns, s.end_ns);
  const int64_t wall = window_end_ns - window_start_ns;
  const double coverage =
      wall > 0 ? double(covered_ns(iv, window_start_ns, window_end_ns)) /
                     double(wall)
               : 0.0;
  run.report.metric("trace.span_coverage", coverage, "ratio");
  run.report.metric("trace.spans", double(spans.size()), "count");
  run.report.metric("trace.overhead_frac",
                    untraced_wall_s > 0
                        ? (traced_wall_s - untraced_wall_s) / untraced_wall_s
                        : 0.0,
                    "ratio");
  run.report.check(coverage >= 0.95,
                   "named layer spans cover >= 95% of the traced wall time");
  const auto totals = layer_self_times(spans);
  for (const char* layer : {"api", "workloads", "analysis", "tuning", "exec",
                            "alloc", "sim", "loadgen"}) {
    const auto it = totals.find(layer);
    const LayerTotals t = it == totals.end() ? LayerTotals{} : it->second;
    run.report.metric(std::string("layer.") + layer + ".self_ms", t.self_ms,
                      "ms");
    run.report.metric(std::string("layer.") + layer + ".spans",
                      double(t.spans), "count");
  }
  const std::string path = run.opt.out_dir + "/perfbench-trace-" +
                           run.opt.workload + "-" +
                           std::to_string(run.opt.seed) + ".json";
  run.report.check(run.tracer.write_chrome(path, meta_json),
                   "Chrome trace written to " + path);
}

std::string host_meta_json(const Run& run) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 1) load[0] = -1;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  api::JsonWriter w;
  w.begin_object();
  w.field("workload", run.opt.workload);
  w.field("seed", run.opt.seed);
  w.field("seconds", run.opt.seconds);
  w.field("trace", run.opt.trace);
  w.field("nproc", run.opt.nproc);
  w.field("compiler", compiler);
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("source", run.opt.source_id);
  w.field("src_tree", run.opt.src_tree);
  w.field("loadavg_1m", load[0]);
  w.end_object();
  return w.str();
}

}  // namespace perfbench
