// serve-mix: an open loop of independent users against an in-process
// api::Server(Engine&).  Writes are sample-scale simulate submits over a
// seeded (kernel, mode, variant) mix, each followed until its result is in
// the client's hands; reads are status and ping requests beside them.  The
// load is a two-rate ladder around the knee, run in cycles: a nominal rate
// well below it and a saturating burst.

#include <algorithm>
#include <cstdio>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "api/json.hpp"
#include "api/server.hpp"
#include "layers.hpp"

namespace perfbench {

namespace {

namespace api = gpurf::api;

/// Kernels of the mix: their sample-scale simulations take 60-750 ms, so
/// many run at once — the opposite of fig11-sweep's few long ones.
const std::vector<std::string> kMixKernels = {"DWT2D", "Hotspot", "SSAO",
                                              "GICOV"};
/// The mix saturates at 24-31 submits/s on a 4-core host.  The ladder
/// brackets that knee with two offered rates, run in cycles so that both
/// sample the host across the whole run: its speed swings by 15-20 %
/// between 5-second windows.  The nominal rate, well below the knee,
/// carries the latency metrics; its segments take most of --seconds.
/// Percentiles are taken per segment and the median segment reported, so
/// one slow window of the host moves one segment only.  A burst offers about
/// four times what the server completes, so its span is the time the
/// server takes to serve a fixed batch of sims.  Control requests arrive
/// at the same rate beside the submits.
constexpr double kNominalRate = 8.0;
constexpr double kNominalShare = 0.2;  ///< of --seconds, per cycle
constexpr double kBurstRate = 120.0;
constexpr size_t kBurstSims = 96;  ///< every mix launch four times
constexpr int kCycles = 3;
/// Results still missing this long after a segment's last arrival count
/// as timed out (failed).
constexpr double kDrainLimitMs = 20000.0;
/// Set-ups per run; setup_s is their median.  Half run before the ladder
/// and half after it, so they sample the host at both ends of the run.
constexpr int kSetups = 24;
/// With several jobs pending, a user waits on each in turn for at most
/// this long, so a short job that finishes behind a long one is collected
/// within a few slices of its completion, not after the long one.
constexpr int64_t kWaitSliceMs = 5;

struct Op {
  double due_ms = 0.0;  ///< from the segment start
  int kind = 0;         ///< 0 submit, 1 status, 2 ping
  size_t launch = 0;    ///< submit: index into the mix
  size_t index = 0;     ///< position in the run's schedule
};

/// What one segment of the ladder produced, merged over the client
/// threads.
struct SegmentResult {
  double rate = 0.0;
  std::vector<std::pair<double, double>> results;  ///< (due_ms, latency_ms)
  std::vector<double> control_ms, late_ms, submit_ms, queue_ms, exec_ms;
  std::map<size_t, std::string> stats;  ///< schedule index -> canonical stats
  std::map<size_t, size_t> launch_of;   ///< schedule index -> mix launch
  uint64_t attempted = 0, failed = 0;
  double last_result_ms = 0.0;
  std::mutex mu;

  /// First due time -> last result in hand, in seconds (0 without results).
  double span_s() const {
    if (results.empty()) return 0.0;
    double first = results.front().first;
    for (const auto& [due, lat] : results) first = std::min(first, due);
    return (last_result_ms - first) / 1000.0;
  }
  /// Results in hand per second of the span.
  double achieved_rps() const {
    const double s = span_s();
    return s > 0 ? double(results.size()) / s : 0.0;
  }
};

std::string submit_line(const Launch& l) {
  api::JsonWriter w;
  w.begin_object();
  w.field("op", "submit");
  w.field("kind", "simulate");
  w.field("workload", l.kernel);
  w.field("mode", mode_name(l.mode));
  w.field("scale", "sample");
  w.field("variant", l.variant);
  w.field("deadline_ms", int64_t(60000));
  w.end_object();
  return w.str();
}

std::string job_line(const char* op, uint64_t job, int64_t timeout_ms) {
  api::JsonWriter w;
  w.begin_object();
  w.field("op", op);
  w.field("job", job);
  if (timeout_ms >= 0) w.field("timeout_ms", timeout_ms);
  w.end_object();
  return w.str();
}

bool envelope_ok(const gpurf::StatusOr<api::JsonValue>& r) {
  return r.ok() && r->get("ok") && r->get("ok")->as_bool(false);
}

/// One user: sends its ops at their due times and, between them, collects
/// results in completion order: with one job pending it waits on that job
/// until the next op is due; with several it rotates short waits over them.
void client_loop(Run& run, const std::string& sock, const std::vector<Op>& ops,
                 const std::vector<Launch>& mix, Clock::time_point t0,
                 SegmentResult& out, int64_t segment_span, uint32_t lane) {
  Tracer& tr = run.tracer;
  api::ClientOptions copts;
  copts.read_timeout_ms = 60000;
  api::Client client(sock, copts);
  struct Pending {
    uint64_t job;
    size_t op;
    double due_ms;
    Clock::time_point sent;
  };
  std::vector<Pending> pending;
  size_t turn = 0;  // next pending job to wait on
  std::vector<std::pair<double, double>> results;
  std::vector<double> control_ms, late_ms, submit_ms, queue_ms, exec_ms;
  std::map<size_t, std::string> stats;
  std::map<size_t, size_t> launch_of;
  uint64_t failed = 0;
  uint64_t last_job = 0;
  double last_result_ms = 0.0;
  const double drain_deadline_ms =
      (ops.empty() ? 0.0 : ops.back().due_ms) + kDrainLimitMs;
  auto since_t0 = [&] { return ms_between(t0, Clock::now()); };
  auto span = [&](const char* name, Clock::time_point a, uint64_t req) {
    if (tr.on())
      tr.add(name, tr.to_ns(a), tr.now_ns(), segment_span, req, lane);
  };

  size_t next = 0;
  while (next < ops.size() || !pending.empty()) {
    const double now_ms = since_t0();
    if (next < ops.size() && ops[next].due_ms <= now_ms) {
      const Op& op = ops[next++];
      const auto sent = Clock::now();
      late_ms.push_back(now_ms - op.due_ms);
      if (op.kind == 0) {
        auto r = client.call_json(submit_line(mix[op.launch]));
        span("api.submit", sent, op.index);
        submit_ms.push_back(ms_between(sent, Clock::now()));
        if (!envelope_ok(r) || !r->get("job")) {
          ++failed;  // refused or lost: misses every latency limit
          continue;
        }
        last_job = uint64_t(r->get("job")->as_int());
        pending.push_back(Pending{last_job, op.index, op.due_ms, sent});
        launch_of[op.index] = op.launch;
      } else {
        const bool status = op.kind == 1 && last_job != 0;
        auto r = client.call_json(status ? job_line("status", last_job, -1)
                                         : std::string("{\"op\":\"ping\"}"));
        span(status ? "api.status" : "api.ping", sent, op.index);
        if (!envelope_ok(r)) ++failed;
        control_ms.push_back(since_t0() - op.due_ms);
      }
      continue;
    }
    if (!pending.empty()) {
      const double until_due =
          next < ops.size() ? ops[next].due_ms - now_ms : 1e9;
      if (until_due < 1.0) {
        std::this_thread::sleep_until(
            t0 + std::chrono::microseconds(int64_t(ops[next].due_ms * 1e3)));
        continue;
      }
      turn %= pending.size();
      const Pending p = pending[turn];
      const double left = drain_deadline_ms - now_ms;
      const double slice =
          pending.size() == 1 ? 1000.0 : double(kWaitSliceMs);
      const int64_t timeout =
          int64_t(std::max(0.0, std::min({until_due, left, slice})));
      const auto sent = Clock::now();
      auto r = client.call_json(job_line("wait", p.job, timeout));
      span("api.wait", sent, p.op);
      const std::string state =
          r.ok() && r->get("state") ? r->get("state")->as_string() : "";
      const bool terminal = state == "done" || state == "cancelled" ||
                            state == "deadline_exceeded";
      if (!terminal && r.ok() && left > 0.0) {
        ++turn;  // still running: wait on the next pending job
        continue;
      }
      pending.erase(pending.begin() + std::ptrdiff_t(turn));
      const api::JsonValue* res = r.ok() ? r->get("result") : nullptr;
      const api::JsonValue* st = res ? res->get("stats") : nullptr;
      if (!envelope_ok(r) || state != "done" || !st) {
        ++failed;
        continue;
      }
      const double lat = since_t0() - p.due_ms;
      results.emplace_back(p.due_ms, lat);
      last_result_ms = std::max(last_result_ms, since_t0());
      stats[p.op] = canonical(*st);
      if (const api::JsonValue* pg = r->get("progress")) {
        const double wall =
            pg->get("wall_ms") ? pg->get("wall_ms")->as_double() : 0;
        const double exec =
            pg->get("exec_ms") ? pg->get("exec_ms")->as_double() : 0;
        queue_ms.push_back(wall - exec);
        exec_ms.push_back(exec);
        if (tr.on()) {
          // The job's own row: queue wait, then its simulation.
          const int64_t s = tr.to_ns(p.sent);
          const int64_t q = s + int64_t((wall - exec) * 1e6);
          const uint32_t job_lane = 1000 + uint32_t(p.op);
          tr.add("api.queue_wait", s, q, segment_span, p.op, job_lane);
          tr.add("sim.job", q, s + int64_t(wall * 1e6), segment_span, p.op,
                 job_lane);
        }
      }
      continue;
    }
    const auto sleep_from = Clock::now();
    std::this_thread::sleep_until(
        t0 + std::chrono::microseconds(int64_t(ops[next].due_ms * 1e3)));
    span("loadgen.sleep", sleep_from, 0);
  }

  std::lock_guard<std::mutex> lock(out.mu);
  out.results.insert(out.results.end(), results.begin(), results.end());
  out.control_ms.insert(out.control_ms.end(), control_ms.begin(),
                        control_ms.end());
  out.late_ms.insert(out.late_ms.end(), late_ms.begin(), late_ms.end());
  out.submit_ms.insert(out.submit_ms.end(), submit_ms.begin(), submit_ms.end());
  out.queue_ms.insert(out.queue_ms.end(), queue_ms.begin(), queue_ms.end());
  out.exec_ms.insert(out.exec_ms.end(), exec_ms.begin(), exec_ms.end());
  out.stats.insert(stats.begin(), stats.end());
  out.launch_of.insert(launch_of.begin(), launch_of.end());
  out.attempted += ops.size();
  out.failed += failed;
  out.last_result_ms = std::max(out.last_result_ms, last_result_ms);
}

/// Arrivals of one segment: Poisson processes conditioned on their counts
/// (rate x duration uniform arrival times), submits and control requests
/// each at `rate`, dealt round-robin to `users` independent clients.  The
/// mix is balanced — every launch and both control kinds equally often —
/// and the seed shuffles it, so seeds differ in order and timing only.
/// Ops are numbered from `first_index`, so numbers are unique in the run.
std::vector<std::vector<Op>> schedule(double rate, double seconds,
                                      size_t mix_size, int users,
                                      size_t first_index,
                                      std::mt19937_64& rng) {
  std::uniform_real_distribution<double> at(0.0, 1000.0 * seconds);
  const size_t n = size_t(rate * seconds + 0.5);
  std::vector<size_t> launches(n), kinds(n);
  for (size_t i = 0; i < n; ++i) {
    launches[i] = i % mix_size;
    kinds[i] = 1 + i % 2;
  }
  std::shuffle(launches.begin(), launches.end(), rng);
  std::shuffle(kinds.begin(), kinds.end(), rng);
  std::vector<Op> ops;
  for (size_t i = 0; i < n; ++i) {
    ops.push_back(Op{at(rng), 0, launches[i], 0});
    ops.push_back(Op{at(rng), int(kinds[i]), 0, 0});
  }
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.due_ms < b.due_ms; });
  std::vector<std::vector<Op>> per_user(static_cast<size_t>(users));
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].index = first_index + i;
    per_user[i % size_t(users)].push_back(ops[i]);
  }
  return per_user;
}

}  // namespace

void run_serve_mix(Run& run) {
  const int users = run.opt.nproc;  // threads and connections
  const std::vector<std::string> kernels =
      run.opt.tiny ? std::vector<std::string>{"DWT2D"} : kMixKernels;
  const int cycles = run.opt.tiny ? 1 : kCycles;
  const double nominal_s =
      (run.opt.tiny ? 0.5 : kNominalShare) * double(run.opt.seconds);
  const size_t burst_sims = run.opt.tiny ? 8 : kBurstSims;
  run.report.check(fill_pmap_cache(run, kernels),
                   "benchmark pmap cache holds every mix kernel");

  std::mt19937_64 rng(run.opt.seed);
  std::vector<Launch> mix;
  for (const auto& k : kernels)
    for (wl::SimMode m : {wl::SimMode::kOriginal,
                          wl::SimMode::kCompressedPerfect,
                          wl::SimMode::kCompressedHigh})
      for (uint32_t v = 0; v < 2; ++v)
        mix.push_back(Launch{k, m, wl::Scale::kSample, v});
  // Cycle c runs segment 2c at the nominal rate, then burst 2c + 1.
  std::vector<std::vector<std::vector<Op>>> plan;
  size_t numbered = 0;
  for (int c = 0; c < cycles; ++c)
    for (const auto& [rate, secs] :
         {std::pair{kNominalRate, nominal_s},
          std::pair{kBurstRate, double(burst_sims) / kBurstRate}}) {
      plan.push_back(schedule(rate, secs, mix.size(), users, numbered, rng));
      for (const auto& ops : plan.back()) numbered += ops.size();
    }
  // The launch whose kernel the traced layer pass re-simulates and tunes.
  const Launch pick = mix[rng() % mix.size()];

  // Set-up: Engine + pipeline warm + Server start, several times.
  std::vector<double> setup_s;
  std::unique_ptr<gpurf::Engine> engine;
  std::unique_ptr<api::Server> server;
  const std::string sock = socket_path(run, "serve");
  auto teardown = [&] {
    server.reset();
    engine.reset();
    std::error_code ec;
    std::filesystem::remove(sock, ec);
  };
  auto setup = [&](int times) {
    for (int i = 0; i < times; ++i) {
      teardown();
      Tracer::Scope s(run.tracer, "workloads.setup");
      const auto t0 = Clock::now();
      {
        Tracer::Scope c(run.tracer, "api.engine_new");
        // Serial simulations: concurrency comes from the executor's
        // workers, one short sim each, as a server of many small requests
        // is deployed; sharding pays on fig11-sweep's few long sims.
        engine = std::make_unique<gpurf::Engine>(
            engine_options(run, true, 2 * size_t(run.opt.nproc))
                .with_sim_shards(1));
      }
      for (const auto& k : kernels) {
        Tracer::Scope p(run.tracer, "workloads.pipeline_warm");
        run.report.check(engine->pipeline(k).ok(), "pipeline warm " + k);
      }
      {
        Tracer::Scope c(run.tracer, "api.server_start");
        api::ServerOptions so;
        so.socket_path = sock;
        server = std::make_unique<api::Server>(*engine, so);
        run.report.check(server->start().ok(), "server starts on " + sock);
      }
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
  };

  std::vector<std::unique_ptr<SegmentResult>> nominals, bursts;
  HostSample h0, h1;
  auto run_segment = [&](const std::vector<std::vector<Op>>& ops,
                         SegmentResult& res) {
    Tracer::Scope s(run.tracer, "loadgen.segment");
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    std::vector<std::thread> threads;
    for (int u = 0; u < users; ++u)
      threads.emplace_back([&, u, id = s.id()] {
        client_loop(run, sock, ops[size_t(u)], mix, t0, res, id,
                    100 + uint32_t(u));
      });
    for (auto& t : threads) t.join();
  };
  auto run_ladder = [&] {
    nominals.clear();
    bursts.clear();
    h0 = host_sample();
    for (size_t i = 0; i < plan.size(); ++i) {
      auto& into = i % 2 == 0 ? nominals : bursts;
      into.push_back(std::make_unique<SegmentResult>());
      into.back()->rate = i % 2 == 0 ? kNominalRate : kBurstRate;
      run_segment(plan[i], *into.back());
      run.report.attempted(into.back()->attempted);
      run.report.failed(into.back()->failed);
    }
    h1 = host_sample();
  };
  auto burst_wall_s = [&] {
    std::vector<double> spans;
    for (const auto& b : bursts) spans.push_back(b->span_s());
    return median(spans);
  };

  // Every served result of one launch must be the same SimStats.
  std::map<size_t, std::string> by_launch;
  auto check_identity = [&] {
    std::vector<const SegmentResult*> all;
    for (const auto& n : nominals) all.push_back(n.get());
    for (const auto& b : bursts) all.push_back(b.get());
    for (const SegmentResult* res : all)
      for (const auto& [idx, text] : res->stats) {
        const size_t launch = res->launch_of.at(idx);
        auto [it, fresh] = by_launch.emplace(launch, text);
        if (!fresh && it->second != text)
          run.report.check(false, mix[launch].key() +
                                      ": served SimStats differ between jobs");
      }
  };

  setup(run.opt.tiny ? 1 : kSetups / 2);
  run_ladder();
  // Peak RSS of set-up and ladder, before the closing set-ups.
  const double rss_mb = peak_rss_mb();
  check_identity();
  // Result latency of every segment, at both rates; the metrics take the
  // nominal segments' p50 and tail.
  std::vector<double> p50s, tails;
  Tail seg_tail;
  for (size_t i = 0; i < plan.size(); ++i) {
    const SegmentResult& seg = *(i % 2 == 0 ? nominals : bursts)[i / 2];
    std::vector<double> lat;
    for (const auto& [due, l] : seg.results) lat.push_back(l);
    const Tail t = tail(lat);
    if (i % 2 == 0) {
      seg_tail = t;
      p50s.push_back(median(lat));
      tails.push_back(t.value);
    }
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "segment %5.1f req/s: %zu results, p50 %.1f ms, tail p%.1f "
                  "%.1f ms, failed %llu, span %.3f s, achieved %.2f req/s",
                  seg.rate, lat.size(), median(lat), t.pct, t.value,
                  (unsigned long long)seg.failed, seg.span_s(),
                  seg.achieved_rps());
    run.report.note(buf);
  }

  if (!run.opt.trace) {
    if (!run.opt.tiny) setup(kSetups / 2);
    Report& r = run.report;
    r.metric("setup_s", median(setup_s), "s");
    r.metric("wall_s", burst_wall_s(), "s");
    r.metric("result_p50_ms", median(p50s), "ms");
    r.metric("result_tail_ms", median(tails), "ms");
    r.metric("max_rate_rps", double(burst_sims) / burst_wall_s(), "req/s");
    r.metric("peak_rss_mb", rss_mb, "MB");
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "nominal %.1f req/s, median of %d segments: result tail = "
                  "p%.1f of %zu samples per segment (%zu beyond); wall_s = "
                  "median burst span",
                  kNominalRate, cycles, seg_tail.pct, seg_tail.n,
                  seg_tail.beyond);
    r.note(buf);
  } else {
    const double untraced_wall = burst_wall_s();
    run.tracer.set_on(true);
    const int64_t w0 = run.tracer.now_ns();
    setup(1);
    run_ladder();
    check_identity();
    const double traced_wall = burst_wall_s();
    // Per-layer figures pool the nominal segments.
    SegmentResult tn;
    for (const auto& n : nominals)
      for (auto [to, from] :
           {std::pair{&tn.submit_ms, &n->submit_ms},
            std::pair{&tn.queue_ms, &n->queue_ms},
            std::pair{&tn.exec_ms, &n->exec_ms},
            std::pair{&tn.late_ms, &n->late_ms},
            std::pair{&tn.control_ms, &n->control_ms}})
        to->insert(to->end(), from->begin(), from->end());
    run.report.metric("api.submit_block_ms", mean(tn.submit_ms), "ms");
    run.report.metric("api.queue_wait_ms", mean(tn.queue_ms), "ms");
    run.report.metric("api.job_exec_ms", mean(tn.exec_ms), "ms");
    const gpurf::MetricsSnapshot snap = engine->metrics_snapshot();
    const double lookups =
        double(snap.pipeline_memo_hits + snap.pipeline_memo_misses);
    run.report.metric(
        "api.memo_hit_ratio",
        lookups > 0 ? double(snap.pipeline_memo_hits) / lookups : 0, "ratio");
    run.report.metric("loadgen.late_tail_ms", tail(tn.late_ms).value, "ms");
    run.report.metric("api.control_tail_ms", tail(tn.control_ms).value, "ms");
    report_host(run, h0, h1);
    {
      gpurf::StatusOr<const wl::PipelineResult*> pr =
          gpurf::Status::Internal("");
      const auto t0 = Clock::now();
      {
        Tracer::Scope s(run.tracer, "workloads.pipeline_warm");
        pr = engine->pipeline(kernels.front());
      }
      run.report.metric("workloads.pipeline_warm_ms",
                        ms_between(t0, Clock::now()), "ms");
    }

    // Re-simulate one served launch's kernel in all three modes, and check
    // the launches that were served against the wire results.
    LayerPassSpec spec;
    for (wl::SimMode m : {wl::SimMode::kOriginal,
                          wl::SimMode::kCompressedPerfect,
                          wl::SimMode::kCompressedHigh})
      spec.resim.push_back(Launch{pick.kernel, m, pick.scale, pick.variant});
    for (const auto& [launch, text] : by_launch)
      spec.expected[mix[launch].key()] = text;
    spec.tune_kernel = pick.kernel;
    if (auto pr = engine->pipeline(pick.kernel); pr.ok())
      spec.expected_pmap = pmap_text((*pr)->tune_perfect.pmap);
    spec.server_socket = sock;
    LayerPassResult pass;
    {
      Tracer::Scope s(run.tracer, "loadgen.layer_pass");
      pass = layer_pass(run, *engine, spec);
    }
    std::vector<gpurf::sim::SimStats> all;
    std::map<std::string, IpcTriple> ipc;
    for (const auto& [l, st] : pass.sims) {
      all.push_back(st);
      ipc[l.kernel].set(l.mode, st.ipc());
    }
    report_sim_model(run, all);
    report_ipc_gains(run, ipc);
    report_trace(run, w0, run.tracer.now_ns(), untraced_wall, traced_wall,
                 host_meta_json(run));
  }
  teardown();

  for (const auto& [launch, text] : by_launch)
    run.digest.add(mix[launch].key() + text);
}

}  // namespace perfbench
