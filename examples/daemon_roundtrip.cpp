// daemon_roundtrip — drive a tune + simulate round-trip through gpurfd's
// JSON-over-socket protocol (ISSUE 4).
//
// Two ways to run it:
//
//   ./daemon_roundtrip
//       Self-contained: hosts a Server (with its own Engine) in-process on
//       a scratch socket, then talks to it through the blocking Client —
//       a real AF_UNIX round-trip without process management.
//
//   ./daemon_roundtrip --connect PATH [--shutdown]
//       Talks to an already-running `gpurfd --socket PATH` (what CI does).
//       --shutdown asks the daemon to exit afterwards.
//
//   ./daemon_roundtrip --tcp
//       Self-contained again, but over loopback TCP (ISSUE 8): the
//       in-process Server listens on an ephemeral 127.0.0.1 port and the
//       Client dials it — same protocol, different transport.
//
//   ./daemon_roundtrip --connect-tcp HOST:PORT [--shutdown]
//       Talks to an already-running `gpurfd --listen HOST:PORT`.
//
// The run submits one pipeline job (priority 1) and one sample-scale
// simulate job for the same workload, waits for both, then runs a
// sample-scale fault campaign (one density, two maps) and checks —
// exiting non-zero on any violation — that every response parses as JSON,
// that all three jobs reached state "done" and both campaign points did
// too, and that the metrics embedded in the final envelope show non-zero
// activity (jobs_done, pipeline memo traffic, per-job wall time).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "api/engine.hpp"
#include "api/server.hpp"

namespace api = gpurf::api;

namespace {

/// One protocol call with all the failure modes folded into an exit.
api::JsonValue must_call(api::Client& client, const std::string& request) {
  auto resp = client.call_json(request);
  if (!resp.ok()) {
    std::fprintf(stderr, "FAIL: %s -> %s\n", request.c_str(),
                 resp.status().to_string().c_str());
    std::exit(1);
  }
  if (!resp->is_object() || !resp->get("ok")) {
    std::fprintf(stderr, "FAIL: %s -> response is not an envelope\n",
                 request.c_str());
    std::exit(1);
  }
  return std::move(resp).value();
}

uint64_t job_id_of(const api::JsonValue& resp) {
  const api::JsonValue* id = resp.get("job");
  if (!id || !id->is_number()) {
    std::fprintf(stderr, "FAIL: submit response carries no job id\n");
    std::exit(1);
  }
  return static_cast<uint64_t>(id->as_int());
}

std::string state_of(const api::JsonValue& resp) {
  const api::JsonValue* s = resp.get("state");
  return s ? s->as_string() : "<missing>";
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_path;
  std::string connect_tcp;
  bool use_tcp = false;
  bool send_shutdown = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc)
      connect_path = argv[++i];
    else if (std::strcmp(argv[i], "--connect-tcp") == 0 && i + 1 < argc)
      connect_tcp = argv[++i];
    else if (std::strcmp(argv[i], "--tcp") == 0)
      use_tcp = true;
    else if (std::strcmp(argv[i], "--shutdown") == 0)
      send_shutdown = true;
  }

  // Self-hosted mode: an in-process daemon on a scratch socket (or, with
  // --tcp, an ephemeral loopback port).
  std::unique_ptr<gpurf::Engine> engine;
  std::unique_ptr<api::Server> server;
  if (connect_path.empty() && connect_tcp.empty()) {
    api::ServerOptions sopts;
    if (use_tcp) {
      sopts.listen_host = "127.0.0.1";
      sopts.listen_port = 0;  // ephemeral; read back below
    } else {
      connect_path = "./gpurfd_example.sock";
      sopts.socket_path = connect_path;
    }
    engine = std::make_unique<gpurf::Engine>(gpurf::EngineOptions{});
    server = std::make_unique<api::Server>(*engine, sopts);
    const gpurf::Status st = server->start();
    if (!st.ok()) {
      std::fprintf(stderr, "FAIL: server start: %s\n", st.to_string().c_str());
      return 1;
    }
    if (use_tcp) {
      connect_tcp = "127.0.0.1:" + std::to_string(server->tcp_port());
      std::printf("in-process gpurfd on tcp %s\n", connect_tcp.c_str());
    } else {
      std::printf("in-process gpurfd on %s\n", connect_path.c_str());
    }
  }

  std::unique_ptr<api::Client> client_holder;
  if (!connect_tcp.empty()) {
    const size_t colon = connect_tcp.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "FAIL: --connect-tcp wants HOST:PORT\n");
      return 1;
    }
    client_holder = std::make_unique<api::Client>(
        connect_tcp.substr(0, colon),
        std::atoi(connect_tcp.c_str() + colon + 1));
  } else {
    client_holder = std::make_unique<api::Client>(connect_path);
  }
  api::Client& client = *client_holder;
  if (!client.status().ok()) {
    std::fprintf(stderr, "FAIL: %s\n", client.status().to_string().c_str());
    return 1;
  }

  must_call(client, R"({"op":"ping"})");
  const auto list = must_call(client, R"({"op":"list"})");
  const api::JsonValue* workloads = list.get("workloads");
  if (!workloads || !workloads->is_array() || workloads->items.empty()) {
    std::fprintf(stderr, "FAIL: list returned no workloads\n");
    return 1;
  }
  std::printf("daemon serves %zu workloads\n", workloads->items.size());

  // Tune (pipeline job, priority 1) + simulate (sample scale, compressed
  // high) for the same kernel: the simulate job reuses the tuned pipeline
  // through the Engine's memo, which the final metrics check observes.
  const auto sub_pipe = must_call(
      client,
      R"({"op":"submit","kind":"pipeline","workload":"DWT2D","priority":1})");
  const auto sub_sim = must_call(
      client,
      R"({"op":"submit","kind":"simulate","workload":"DWT2D",)"
      R"("mode":"high","scale":"sample"})");
  const uint64_t pipe_id = job_id_of(sub_pipe);
  const uint64_t sim_id = job_id_of(sub_sim);
  std::printf("submitted: pipeline job %llu, simulate job %llu\n",
              static_cast<unsigned long long>(pipe_id),
              static_cast<unsigned long long>(sim_id));

  const auto wait_pipe = must_call(
      client, R"({"op":"wait","job":)" + std::to_string(pipe_id) +
                  R"(,"timeout_ms":600000})");
  const auto wait_sim = must_call(
      client, R"({"op":"wait","job":)" + std::to_string(sim_id) +
                  R"(,"timeout_ms":600000})");
  if (state_of(wait_pipe) != "done" || state_of(wait_sim) != "done") {
    std::fprintf(stderr, "FAIL: jobs not done: pipeline=%s simulate=%s\n",
                 state_of(wait_pipe).c_str(), state_of(wait_sim).c_str());
    return 1;
  }
  if (!wait_pipe.get("result") || !wait_sim.get("result")) {
    std::fprintf(stderr, "FAIL: wait responses carry no result\n");
    return 1;
  }
  const api::JsonValue* ipc = wait_sim.get("result")->get("stats")
                                  ? wait_sim.get("result")
                                        ->get("stats")
                                        ->get("ipc")
                                  : nullptr;
  std::printf("pipeline done; simulate done (IPC %.1f)\n",
              ipc ? ipc->as_double() : -1.0);

  // A fault campaign runs its points on the daemon's executor workers.
  const uint64_t camp_id = job_id_of(must_call(
      client,
      R"({"op":"submit","kind":"fault_campaign","workload":"DWT2D",)"
      R"("scale":"sample","densities":[0.01],"maps_per_density":2})"));
  const auto wait_camp = must_call(
      client, R"({"op":"wait","job":)" + std::to_string(camp_id) +
                  R"(,"timeout_ms":600000})");
  const api::JsonValue* points =
      wait_camp.get("result") ? wait_camp.get("result")->get("points")
                              : nullptr;
  int points_ok = 0;
  if (points && points->is_array())
    for (const api::JsonValue& pt : points->items)
      if (!pt.get("error")) ++points_ok;
  if (state_of(wait_camp) != "done" || !points || points->items.size() != 2 ||
      points_ok != 2) {
    std::fprintf(stderr, "FAIL: campaign %s with %d of 2 points ok\n",
                 state_of(wait_camp).c_str(), points_ok);
    return 1;
  }
  std::printf("fault campaign done (2 points)\n");

  // Metrics checks: every envelope embeds them; use a dedicated call for
  // the final assertion.
  const auto metrics_resp = must_call(client, R"({"op":"metrics"})");
  const api::JsonValue* m = metrics_resp.get("metrics");
  if (!m || !m->is_object()) {
    std::fprintf(stderr, "FAIL: envelope carries no metrics object\n");
    return 1;
  }
  const auto counter = [&](const char* name) -> double {
    const api::JsonValue* v = m->get(name);
    return v ? v->as_double() : -1.0;
  };
  if (counter("jobs_done") < 3) {
    std::fprintf(stderr, "FAIL: jobs_done = %g, expected >= 3\n",
                 counter("jobs_done"));
    return 1;
  }
  if (counter("pipeline_memo_hits") + counter("pipeline_memo_misses") < 1) {
    std::fprintf(stderr, "FAIL: no pipeline memo traffic recorded\n");
    return 1;
  }
  if (counter("job_wall_ms_total") <= 0) {
    std::fprintf(stderr, "FAIL: job_wall_ms_total not positive\n");
    return 1;
  }
  std::printf("metrics: jobs_done=%g memo_hits=%g memo_misses=%g "
              "wall_ms_total=%.1f\n",
              counter("jobs_done"), counter("pipeline_memo_hits"),
              counter("pipeline_memo_misses"), counter("job_wall_ms_total"));

  if (send_shutdown) {
    must_call(client, R"({"op":"shutdown"})");
    std::printf("asked daemon to shut down\n");
  }
  if (server) server->stop();
  std::printf("round-trip OK\n");
  return 0;
}
