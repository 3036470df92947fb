// bench_serve — serving load harness.  Hosts an
// Engine behind a Server (TCP on an ephemeral loopback port plus an
// AF_UNIX socket) inside this process, then drives it with an
// open-loop load generator: arrivals are pre-scheduled at a fixed rate and
// latency is measured completion-minus-*scheduled*-arrival, so queueing
// delay inside a saturated daemon is charged to the daemon, not hidden by
// a slow closed-loop client (no coordinated omission).
//
// Phases:
//   1. preflight  — correctness gates: TCP and AF_UNIX serve bit-identical
//                   results (api::deep_equal, chunked-stream path
//                   included), watch reaches the same terminal state as
//                   wait, a tightly-quota'd second Server rejects with
//                   RESOURCE_EXHAUSTED + retry_after_ms, and
//                   {"op":"histograms"} parses with all four stages.
//   2. load       — N concurrent TCP clients replay the arrival schedule
//                   with a mixed op profile (~55% status, 15% ping,
//                   25% submit of sample-scale simulations, 5% watch);
//                   per-op p50/p99/p999 from log2 histograms.
//   3. saturation — closed-loop ping burst: ceiling ops/sec.
//
// Usage: bench_serve [--smoke] [--clients N] [--rate R] [--duration S]
//                    [--threads N] [--port P] [--out PATH]
//
// Emits BENCH_serve.json (or --out PATH) with the daemon flags, preflight
// verdicts, per-op latency percentiles and the saturation throughput.
// --smoke shrinks the run and exits non-zero on any protocol error or
// failed preflight gate (CI tripwire).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/json.hpp"
#include "api/metrics.hpp"
#include "api/server.hpp"

namespace api = gpurf::api;

namespace {

using Clock = std::chrono::steady_clock;

struct OpStats {
  gpurf::LatencyHistogram lat;
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> app_errors{0};       ///< ok:false envelopes
  std::atomic<uint64_t> protocol_errors{0};  ///< transport / parse failures
};

uint64_t us_since(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

std::string submit_line(const std::string& workload) {
  api::JsonWriter w;
  w.begin_object();
  w.field("op", "submit");
  w.field("kind", "simulate");
  w.field("workload", workload);
  w.field("scale", "sample");
  w.field("deadline_ms", static_cast<int64_t>(30000));
  w.end_object();
  return w.str();
}

std::string job_line(const char* op, uint64_t job, int64_t timeout_ms = -1) {
  api::JsonWriter w;
  w.begin_object();
  w.field("op", op);
  w.field("job", job);
  if (timeout_ms >= 0) w.field("timeout_ms", timeout_ms);
  w.end_object();
  return w.str();
}

/// Record the outcome of one call into `st`; true when the envelope came
/// back parseable (ok:false still counts — the *protocol* worked).
bool account(OpStats& st, const gpurf::StatusOr<api::JsonValue>& resp,
             uint64_t latency_us) {
  if (!resp.ok()) {
    st.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const api::JsonValue* okf = resp->get("ok");
  if (!okf) {
    st.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  st.lat.record_us(latency_us);
  if (okf->as_bool(false))
    st.ok.fetch_add(1, std::memory_order_relaxed);
  else
    st.app_errors.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// ------------------------------------------------------------- preflight

struct Preflight {
  bool tcp_unix_identical = false;
  bool watch_wait_consistent = false;
  bool quota_enforced = false;
  bool histograms_ok = false;

  bool all() const {
    return tcp_unix_identical && watch_wait_consistent && quota_enforced &&
           histograms_ok;
  }
};

/// Submit + wait one sample simulation through `c`, returning the parsed
/// "result" value (stream=true on request exercises the chunked path).
gpurf::StatusOr<api::JsonValue> run_one(api::Client& c,
                                        const std::string& workload,
                                        bool stream) {
  auto sub = c.call_json(submit_line(workload));
  if (!sub.ok()) return sub.status();
  const api::JsonValue* id = sub->get("job");
  if (!id) return gpurf::Status::Internal("submit reply carries no job id");
  api::JsonWriter w;
  w.begin_object();
  w.field("op", "wait");
  w.field("job", static_cast<uint64_t>(id->as_int()));
  w.field("timeout_ms", static_cast<int64_t>(60000));
  if (stream) {
    w.field("stream", true);
    w.field("chunk_bytes", static_cast<int64_t>(512));
  }
  w.end_object();
  auto done = c.call_json(w.str());
  if (!done.ok()) return done.status();
  const api::JsonValue* res = done->get("result");
  if (!res)
    return gpurf::Status::Internal("wait reply carries no result (state " +
                                   (done->get("state")
                                        ? done->get("state")->as_string()
                                        : std::string("?")) +
                                   ")");
  return *res;
}

Preflight run_preflight(gpurf::Engine& engine,
                        const std::string& socket_path, int tcp_port,
                        const std::string& workload) {
  Preflight pf;

  api::Client unix_c(socket_path);
  api::Client tcp_c("127.0.0.1", tcp_port);
  if (!unix_c.status().ok() || !tcp_c.status().ok()) {
    std::fprintf(stderr, "preflight: connect failed (%s / %s)\n",
                 unix_c.status().to_string().c_str(),
                 tcp_c.status().to_string().c_str());
    return pf;
  }

  // Gate 1: the same simulation served over TCP (chunk-streamed) and over
  // AF_UNIX (inline) must deep-compare equal — transport must not touch
  // payloads.
  {
    auto via_unix = run_one(unix_c, workload, /*stream=*/false);
    auto via_tcp = run_one(tcp_c, workload, /*stream=*/true);
    if (via_unix.ok() && via_tcp.ok())
      pf.tcp_unix_identical = api::deep_equal(*via_unix, *via_tcp);
    else
      std::fprintf(stderr, "preflight: identity runs failed (%s / %s)\n",
                   via_unix.status().to_string().c_str(),
                   via_tcp.status().to_string().c_str());
  }

  // Gate 2: watch's terminal envelope agrees with a status poll.
  {
    auto sub = tcp_c.call_json(submit_line(workload));
    if (sub.ok() && sub->get("job")) {
      const uint64_t id = static_cast<uint64_t>(sub->get("job")->as_int());
      size_t progress_events = 0;
      auto terminal = tcp_c.watch(
          id, 60000, [&](const api::JsonValue&) { ++progress_events; });
      auto polled = unix_c.call_json(job_line("status", id));
      if (terminal.ok() && polled.ok()) {
        const std::string ws = terminal->get("state")
                                   ? terminal->get("state")->as_string()
                                   : "?";
        const std::string ps =
            polled->get("state") ? polled->get("state")->as_string() : "??";
        pf.watch_wait_consistent =
            ws == ps && ws == "done" &&
            terminal->get("event") &&
            terminal->get("event")->as_string() == "terminal";
        (void)progress_events;  // may be zero for a fast sample run
      }
    }
  }

  // Gate 3: a second Server on the *same* Engine with a 1-submit bucket
  // and in-flight cap must reject the burst with RESOURCE_EXHAUSTED and a
  // usable retry_after_ms.
  {
    api::ServerOptions qopts;
    qopts.listen_port = 0;
    qopts.token_rate = 1.0;
    qopts.token_burst = 1.0;
    qopts.token_max_inflight = 1;
    api::Server qserver(engine, qopts);
    if (qserver.start().ok()) {
      api::Client qc("127.0.0.1", qserver.tcp_port());
      bool saw_reject = false;
      for (int i = 0; i < 4 && !saw_reject; ++i) {
        auto resp = qc.call_json(submit_line(workload));
        if (!resp.ok()) break;
        if (!resp->get("ok")->as_bool(false)) {
          const api::JsonValue* err = resp->get("error");
          const std::string code =
              err && err->get("code") ? err->get("code")->as_string() : "";
          saw_reject = code == "RESOURCE_EXHAUSTED" &&
                       api::envelope_retry_after_ms(*resp) >= 0;
        }
      }
      pf.quota_enforced = saw_reject;
      qserver.stop();
    }
  }

  // Gate 4: the histograms op returns all four latency stages.
  {
    auto h = tcp_c.call_json("{\"op\":\"histograms\"}");
    if (h.ok() && h->get("histograms")) {
      const api::JsonValue& hh = *h->get("histograms");
      pf.histograms_ok = hh.get("queue_wait") && hh.get("tune") &&
                         hh.get("sim") && hh.get("serialize");
    }
  }
  return pf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int clients = 128, threads = 0, port = 0;
  double rate = 400.0, duration_s = 10.0;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* n) {
      return std::strcmp(argv[i], n) == 0;
    };
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg("--smoke")) smoke = true;
    else if (arg("--clients")) { if (const char* v = next()) clients = std::atoi(v); }
    else if (arg("--rate")) { if (const char* v = next()) rate = std::atof(v); }
    else if (arg("--duration")) { if (const char* v = next()) duration_s = std::atof(v); }
    else if (arg("--threads")) { if (const char* v = next()) threads = std::atoi(v); }
    else if (arg("--port")) { if (const char* v = next()) port = std::atoi(v); }
    else if (arg("--out")) { if (const char* v = next()) out_path = v; }
    else {
      std::fprintf(stderr,
                   "usage: bench_serve [--smoke] [--clients N] [--rate R] "
                   "[--duration S] [--threads N] [--port P] "
                   "[--out PATH]\n");
      return 2;
    }
  }
  if (smoke) {
    clients = std::min(clients, 12);
    rate = std::min(rate, 80.0);
    duration_s = std::min(duration_s, 2.0);
  }
  if (clients < 1) clients = 1;

  // Self-hosted daemon: one Engine behind both transports.  The disk cache
  // stays off so the bench is hermetic and rerunnable.
  gpurf::EngineOptions eo;
  eo.use_disk_cache = false;
  if (threads > 0) eo.threads = threads;
  gpurf::Engine engine(eo);

  api::ServerOptions sopts;
  sopts.socket_path = "/tmp/gpurf_bench_serve_" +
                      std::to_string(static_cast<long>(::getpid())) + ".sock";
  sopts.listen_host = "127.0.0.1";
  sopts.listen_port = port;  // 0 = ephemeral
  api::Server server(engine, sopts);
  if (gpurf::Status st = server.start(); !st.ok()) {
    std::fprintf(stderr, "bench_serve: %s\n", st.to_string().c_str());
    return 1;
  }
  const int tcp_port = server.tcp_port();
  const std::string daemon_flags =
      "--socket " + sopts.socket_path + " --listen 127.0.0.1:" +
      std::to_string(tcp_port) +
      (threads > 0 ? " --threads " + std::to_string(threads) : "");
  const std::string workload = "DWT2D";

  std::printf("bench_serve: %d TCP clients @ %.0f req/s for %.1fs against "
              "127.0.0.1:%d (%s)\n",
              clients, rate, duration_s, tcp_port,
              smoke ? "smoke" : "full");

  // ---- phase 1: preflight ------------------------------------------------
  const Preflight pf =
      run_preflight(engine, sopts.socket_path, tcp_port, workload);
  std::printf("preflight: tcp==unix %s | watch==wait %s | quota %s | "
              "histograms %s\n",
              pf.tcp_unix_identical ? "ok" : "FAIL",
              pf.watch_wait_consistent ? "ok" : "FAIL",
              pf.quota_enforced ? "ok" : "FAIL",
              pf.histograms_ok ? "ok" : "FAIL");

  // ---- phase 2: open-loop mixed load ------------------------------------
  enum OpClass { kStatus = 0, kPing, kSubmit, kWatch, kNumOps };
  static const char* kOpNames[kNumOps] = {"status", "ping", "submit",
                                          "watch"};
  OpStats stats[kNumOps];
  const size_t total = static_cast<size_t>(rate * duration_s);
  std::atomic<size_t> next_arrival{0};
  std::atomic<uint64_t> last_job{0};

  // Seed one finished job so early status/watch ops address a real id.
  {
    api::Client seed("127.0.0.1", tcp_port);
    auto sub = seed.call_json(submit_line(workload));
    if (sub.ok() && sub->get("job")) {
      const uint64_t id = static_cast<uint64_t>(sub->get("job")->as_int());
      (void)seed.call_json(job_line("wait", id, 60000));
      last_job.store(id, std::memory_order_relaxed);
    }
  }

  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      api::Client cli("127.0.0.1", tcp_port);
      if (!cli.status().ok()) {
        // Count every arrival this worker would have served as a
        // protocol error rather than silently shrinking the load.
        for (;;) {
          const size_t i = next_arrival.fetch_add(1);
          if (i >= total) return;
          stats[kStatus].protocol_errors.fetch_add(1);
        }
      }
      (void)c;
      for (;;) {
        const size_t i = next_arrival.fetch_add(1);
        if (i >= total) break;
        const auto scheduled =
            t0 + std::chrono::microseconds(
                     static_cast<int64_t>(1e6 * double(i) / rate));
        std::this_thread::sleep_until(scheduled);
        // Mix by arrival index: deterministic, independent of thread
        // interleaving.  0-10 status, 11-13 ping, 14-18 submit, 19 watch.
        const int slot = static_cast<int>(i % 20);
        const OpClass op = slot <= 10   ? kStatus
                           : slot <= 13 ? kPing
                           : slot <= 18 ? kSubmit
                                        : kWatch;
        if (op == kStatus) {
          account(stats[op],
                  cli.call_json(job_line(
                      "status", last_job.load(std::memory_order_relaxed))),
                  us_since(scheduled));
        } else if (op == kPing) {
          account(stats[op], cli.call_json("{\"op\":\"ping\"}"),
                  us_since(scheduled));
        } else if (op == kSubmit) {
          auto resp = cli.call_json(submit_line(workload));
          if (resp.ok() && resp->get("job"))
            last_job.store(static_cast<uint64_t>(resp->get("job")->as_int()),
                           std::memory_order_relaxed);
          account(stats[op], resp, us_since(scheduled));
        } else {
          account(stats[op],
                  cli.watch(last_job.load(std::memory_order_relaxed), 2000),
                  us_since(scheduled));
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  // Let in-flight submits settle before the saturation burst (and before
  // teardown) so their queue/tune/sim samples land in the histograms.
  (void)engine.drain(smoke ? 10000 : 30000);

  // ---- phase 3: closed-loop saturation -----------------------------------
  const double sat_seconds = smoke ? 1.0 : 3.0;
  std::atomic<uint64_t> sat_ops{0};
  std::atomic<bool> sat_stop{false};
  std::vector<std::thread> sat_workers;
  for (int c = 0; c < clients; ++c) {
    sat_workers.emplace_back([&] {
      api::Client cli("127.0.0.1", tcp_port);
      if (!cli.status().ok()) return;
      while (!sat_stop.load(std::memory_order_relaxed)) {
        if (cli.call("{\"op\":\"ping\"}").ok())
          sat_ops.fetch_add(1, std::memory_order_relaxed);
        else
          break;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(sat_seconds));
  sat_stop.store(true);
  for (auto& t : sat_workers) t.join();
  const double sat_rate = double(sat_ops.load()) / sat_seconds;

  // ---- report -------------------------------------------------------------
  uint64_t protocol_errors = 0;
  std::printf("\n%-8s %10s %8s %8s %12s %12s %12s\n", "op", "ok", "app_err",
              "proto", "p50[us]", "p99[us]", "p999[us]");
  for (int op = 0; op < kNumOps; ++op) {
    const gpurf::HistogramSnapshot h = stats[op].lat.snapshot();
    protocol_errors += stats[op].protocol_errors.load();
    std::printf("%-8s %10llu %8llu %8llu %12llu %12llu %12llu\n",
                kOpNames[op],
                static_cast<unsigned long long>(stats[op].ok.load()),
                static_cast<unsigned long long>(stats[op].app_errors.load()),
                static_cast<unsigned long long>(
                    stats[op].protocol_errors.load()),
                static_cast<unsigned long long>(h.percentile_us(0.50)),
                static_cast<unsigned long long>(h.percentile_us(0.99)),
                static_cast<unsigned long long>(h.percentile_us(0.999)));
  }
  std::printf("saturation: %.0f ops/sec (closed-loop ping, %d clients)\n",
              sat_rate, clients);

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json) {
    std::fprintf(json,
                 "{\n  \"smoke\": %s,\n  \"clients\": %d,\n"
                 "  \"rate_per_sec\": %.1f,\n"
                 "  \"duration_s\": %.1f,\n  \"daemon_flags\": \"%s\",\n",
                 smoke ? "true" : "false", clients, rate, duration_s,
                 daemon_flags.c_str());
    std::fprintf(json,
                 "  \"preflight\": {\"tcp_unix_identical\": %s, "
                 "\"watch_wait_consistent\": %s, \"quota_enforced\": %s, "
                 "\"histograms_ok\": %s},\n",
                 pf.tcp_unix_identical ? "true" : "false",
                 pf.watch_wait_consistent ? "true" : "false",
                 pf.quota_enforced ? "true" : "false",
                 pf.histograms_ok ? "true" : "false");
    std::fprintf(json, "  \"ops\": {");
    for (int op = 0; op < kNumOps; ++op) {
      const gpurf::HistogramSnapshot h = stats[op].lat.snapshot();
      std::fprintf(
          json,
          "%s\n    \"%s\": {\"ok\": %llu, \"app_errors\": %llu, "
          "\"protocol_errors\": %llu, \"p50_us\": %llu, \"p99_us\": %llu, "
          "\"p999_us\": %llu}",
          op ? "," : "", kOpNames[op],
          static_cast<unsigned long long>(stats[op].ok.load()),
          static_cast<unsigned long long>(stats[op].app_errors.load()),
          static_cast<unsigned long long>(stats[op].protocol_errors.load()),
          static_cast<unsigned long long>(h.percentile_us(0.50)),
          static_cast<unsigned long long>(h.percentile_us(0.99)),
          static_cast<unsigned long long>(h.percentile_us(0.999)));
    }
    std::fprintf(json,
                 "\n  },\n  \"saturation_ops_per_sec\": %.1f\n}\n", sat_rate);
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());
  }

  server.stop();
  ::unlink(sopts.socket_path.c_str());

  if (smoke && (protocol_errors > 0 || !pf.all())) {
    std::fprintf(stderr,
                 "bench_serve --smoke: FAILED (protocol_errors=%llu, "
                 "preflight %s)\n",
                 static_cast<unsigned long long>(protocol_errors),
                 pf.all() ? "ok" : "failed");
    return 1;
  }
  return 0;
}
