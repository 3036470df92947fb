// gpurfd — long-lived daemon serving a gpurf Engine over a local AF_UNIX
// socket and/or TCP.  Clients speak newline-delimited JSON (see
// api/server.hpp for the wire protocol): expensive tuning pipelines and
// timing simulations become first-class jobs with deadlines, priorities,
// cancellation, progress and watch subscriptions, and every response
// carries the Engine's metrics snapshot.
//
// Usage:
//   gpurfd [--socket PATH] [--listen HOST:PORT]
//          [--threads N] [--cache-dir DIR] [--async-workers N]
//          [--max-inflight N] [--no-disk-cache] [--drain-ms N]
//          [--auth-token TOK]... [--token-max-inflight N]
//          [--token-rate R] [--token-burst B]
//          [--max-request-bytes N] [--idle-timeout-ms N]
//
// At least one of --socket / --listen is required.  --auth-token may
// repeat; once any token is set, every request must carry a matching
// "token" field.  Numeric flags take a non-negative number written out in
// full (--max-request-bytes at least 1); anything else — a negative count,
// trailing junk, an out-of-range value — exits 2 with the usage text.
//
// Runs until a client sends {"op":"shutdown"} or the process receives
// SIGINT/SIGTERM.  Shutdown is graceful (PR 6 satellite): the listeners
// close first (no new requests), then still-queued jobs are cancelled
// and running jobs get up to --drain-ms (default 5000) to finish before
// being cancelled cooperatively; only then does the process exit.

#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>

#include "api/engine.hpp"
#include "api/server.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--socket PATH] [--listen HOST:PORT]\n"
      "          [--threads N] [--cache-dir DIR] [--async-workers N]\n"
      "          [--max-inflight N] [--no-disk-cache] [--drain-ms N]\n"
      "          [--auth-token TOK]... [--token-max-inflight N]\n"
      "          [--token-rate R] [--token-burst B]\n"
      "          [--max-request-bytes N] [--idle-timeout-ms N]\n"
      "(at least one of --socket / --listen)\n",
      argv0);
  return 2;
}

/// Parse the whole of `v` as a number of type T no smaller than `min`
/// (floating values must also be finite).  Unsigned targets reject a
/// leading '-', so "-1" can never wrap to SIZE_MAX.
template <typename T>
bool parse_number(const char* v, T& out, std::type_identity_t<T> min = T{}) {
  if (!v) return false;
  const char* end = v + std::strlen(v);
  T n{};
  const auto [p, ec] = std::from_chars(v, end, n);
  if (ec != std::errc() || p != end || p == v || n < min) return false;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(n)) return false;
  out = n;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  gpurf::api::ServerOptions sopts;
  gpurf::EngineOptions opts;
  long drain_ms = 5000;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto arg = [&](const char* name) {
      return std::strcmp(flag, name) == 0;
    };
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    bool ok = true;  // numeric flags: the value parsed
    if (arg("--socket")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      sopts.socket_path = v;
    } else if (arg("--listen")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      // HOST:PORT, with a bare ":PORT" (or "PORT") binding the default
      // loopback host.
      const std::string hp = v;
      const size_t colon = hp.rfind(':');
      if (colon != std::string::npos && colon > 0)
        sopts.listen_host = hp.substr(0, colon);
      const std::string port_str =
          colon == std::string::npos ? hp : hp.substr(colon + 1);
      if (!parse_number(port_str.c_str(), sopts.listen_port) ||
          sopts.listen_port > 65535) {
        std::fprintf(stderr, "gpurfd: bad --listen '%s' (HOST:PORT)\n", v);
        return usage(argv[0]);
      }
    } else if (arg("--threads")) {
      ok = parse_number(next(), opts.threads);
    } else if (arg("--cache-dir")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.cache_dir = v;
    } else if (arg("--async-workers")) {
      ok = parse_number(next(), opts.async_workers);
    } else if (arg("--max-inflight")) {
      ok = parse_number(next(), opts.max_inflight);
    } else if (arg("--no-disk-cache")) {
      opts.use_disk_cache = false;
    } else if (arg("--drain-ms")) {
      ok = parse_number(next(), drain_ms);
    } else if (arg("--auth-token")) {
      const char* v = next();
      if (!v) return usage(argv[0]);
      sopts.auth_tokens.push_back(v);
    } else if (arg("--token-max-inflight")) {
      ok = parse_number(next(), sopts.token_max_inflight);
    } else if (arg("--token-rate")) {
      ok = parse_number(next(), sopts.token_rate);
    } else if (arg("--token-burst")) {
      ok = parse_number(next(), sopts.token_burst);
    } else if (arg("--max-request-bytes")) {
      ok = parse_number(next(), sopts.max_request_bytes, 1);
    } else if (arg("--idle-timeout-ms")) {
      ok = parse_number(next(), sopts.idle_timeout_ms);
    } else {
      return usage(argv[0]);
    }
    if (!ok) {
      std::fprintf(stderr, "gpurfd: bad value for %s\n", flag);
      return usage(argv[0]);
    }
  }
  if (sopts.socket_path.empty() && sopts.listen_port < 0)
    return usage(argv[0]);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  gpurf::Engine engine(opts);
  gpurf::api::Server server(engine, sopts);
  const gpurf::Status st = server.start();
  if (!st.ok()) {
    std::fprintf(stderr, "gpurfd: %s\n", st.to_string().c_str());
    return 1;
  }
  const gpurf::EngineOptions& eo = engine.options();
  if (!sopts.socket_path.empty())
    std::printf("gpurfd listening on %s", sopts.socket_path.c_str());
  if (server.tcp_port() >= 0)
    std::printf("%s%s:%d", sopts.socket_path.empty() ? "gpurfd listening on "
                                                     : " and ",
                sopts.listen_host.c_str(), server.tcp_port());
  std::printf(" (threads=%d, async_workers=%d, max_inflight=%zu%s)\n",
              eo.threads, eo.async_workers, eo.max_inflight,
              sopts.auth_tokens.empty() ? "" : ", auth on");
  std::fflush(stdout);

  // Wait for a client shutdown request or a signal.
  while (server.running() && !server.shutdown_requested() && !g_signal)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Stop accepting first, then drain the Engine: queued jobs are
  // cancelled outright, running jobs share the --drain-ms budget,
  // stragglers are cancelled cooperatively.  The Engine destructor then
  // has nothing left to wait on.
  std::printf("gpurfd: shutting down (drain budget %ld ms)\n", drain_ms);
  std::fflush(stdout);
  server.stop();
  const gpurf::Status drained = engine.drain(drain_ms);
  if (!drained.ok())
    std::fprintf(stderr, "gpurfd: drain: %s\n", drained.to_string().c_str());
  return 0;
}
