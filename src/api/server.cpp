#include "api/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace gpurf::api {

namespace {

namespace wl = gpurf::workloads;

/// Read the optional integer wire field `key` into `out`.  An absent field
/// leaves `out` as it is; a value that is not a number, is fractional or
/// lies outside [lo, hi] is INVALID_ARGUMENT naming the field.  Each cast
/// happens on a value already known to fit.
template <class T>
Status read_int(const JsonValue& req, const char* key, T& out, T lo = 0,
                T hi = std::numeric_limits<T>::max()) {
  const JsonValue* v = req.get(key);
  if (!v) return Status::Ok();
  auto take = [&](auto x) {
    if (std::cmp_less(x, lo) || std::cmp_greater(x, hi)) return false;
    out = static_cast<T>(x);
    return true;
  };
  const double d = v->as_double(0.5);  // a non-number fails as fractional
  if (d == std::trunc(d) && d >= -0x1p63 && d < 0x1p64 &&
      (d < 0 ? take(static_cast<int64_t>(d)) : take(static_cast<uint64_t>(d))))
    return Status::Ok();
  return Status::InvalidArgument(std::string("'") + key +
                                 "' must be an integer in [" +
                                 std::to_string(lo) + ", " +
                                 std::to_string(hi) + "]");
}

Status parse_sim_request(const JsonValue& req, SimRequest& out) {
  // A missing "mode" keeps the caller's pre-set default (original for
  // simulate, perfect for fault campaigns).
  if (req.get("mode")) {
    const std::string mode = req.get("mode")->as_string("original");
    if (mode == "original") out.mode = wl::SimMode::kOriginal;
    else if (mode == "perfect") out.mode = wl::SimMode::kCompressedPerfect;
    else if (mode == "high") out.mode = wl::SimMode::kCompressedHigh;
    else
      return Status::InvalidArgument("unknown mode '" + mode +
                                     "' (original|perfect|high)");
  }

  const std::string scale =
      req.get("scale") ? req.get("scale")->as_string("full") : "full";
  if (scale == "full") out.scale = wl::Scale::kFull;
  else if (scale == "sample") out.scale = wl::Scale::kSample;
  else
    return Status::InvalidArgument("unknown scale '" + scale +
                                   "' (sample|full)");

  // Integer fields: the types are checked here, the writeback cap by the
  // Engine.
  Status st = read_int(req, "variant", out.variant);
  if (st.ok() && req.get("writeback_delay")) {
    uint32_t wb = 0;
    st = read_int(req, "writeback_delay", wb);
    out.compression = sim::CompressionConfig::with_writeback_delay(wb);
  }
  if (st.ok()) st = read_int(req, "fault_seed", out.fault.seed);
  if (st.ok()) st = read_int(req, "soft_seed", out.soft.seed);
  if (!st.ok()) return st;
  // Permanent-fault injection (PR 6): density > 0 turns it on; the Engine
  // rejects it for mode=original (faults live in the compressed file).
  if (const JsonValue* fd = req.get("fault_density"))
    out.fault.density = fd->as_double(0.0);
  // Transient soft errors (PR 7): a positive rate attaches the flip
  // process; exposure tracking works at any rate (including zero).
  if (const JsonValue* sr = req.get("soft_flips_per_mcycle"))
    out.soft.flips_per_mcycle = sr->as_double(0.0);
  if (const JsonValue* se = req.get("soft_track_exposure"))
    out.soft.track_exposure = se->as_bool(false);
  return Status::Ok();
}

/// Parse an array-of-numbers request field into `out`; leaves `out`
/// untouched when the key is absent.
Status parse_number_array(const JsonValue& req, const char* key,
                          std::vector<double>& out) {
  const JsonValue* arr = req.get(key);
  if (!arr) return Status::Ok();
  if (!arr->is_array())
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be an array of numbers");
  out.clear();
  for (const JsonValue& v : arr->items) {
    if (!v.is_number())
      return Status::InvalidArgument(std::string("'") + key +
                                     "' must be an array of numbers");
    out.push_back(v.num_v);
  }
  return Status::Ok();
}

void write_job_fields(JsonWriter& w, const Job& job) {
  const JobProgress p = job.progress();
  w.field("job", job.id());
  w.field("workload", job.workload());
  w.field("kind", job_kind_name(job.kind()));
  w.field("priority", job.priority());
  w.field("state", job_state_name(p.state));
  w.begin_object("progress");
  w.field("stage", common::job_stage_name(p.stage));
  w.field("tuner_pass", p.tuner_pass);
  w.field("tuner_evaluations", p.tuner_evaluations);
  w.field("sim_cycles", p.sim_cycles);
  w.field("run_seq", p.run_seq);
  w.field("wall_ms", p.wall_ms);
  w.field("exec_ms", p.exec_ms);
  if (job_kind_campaign(job.kind())) {
    w.field("campaign_maps_done", p.campaign_maps_done);
    w.field("campaign_maps_total", p.campaign_maps_total);
  }
  w.end_object();
  // Terminal jobs also report their status (and the error, if any) so a
  // client can distinguish done / failed / cancelled / deadline-exceeded
  // without a second round trip.
  if (job_state_terminal(p.state)) {
    const Status st = job.status();
    w.field("status_code", status_code_name(st.code()));
    if (!st.ok()) {
      w.begin_object("job_error");
      w.field("code", status_code_name(st.code()));
      w.field("message", st.message());
      w.end_object();
    }
  }
}

/// Progress fingerprint for watch: everything a client-visible progress
/// change touches, *excluding* the wall clocks (which change every poll
/// and would turn watch into a firehose).
std::string progress_key(const Job& job) {
  const JobProgress p = job.progress();
  std::string k = job_state_name(p.state);
  k += '|';
  k += common::job_stage_name(p.stage);
  k += '|';
  k += std::to_string(p.tuner_pass) + '|' +
       std::to_string(p.tuner_evaluations) + '|' +
       std::to_string(p.sim_cycles) + '|' + std::to_string(p.run_seq) + '|' +
       std::to_string(p.campaign_maps_done);
  return k;
}

/// The successful result JSON for a kDone job of any kind, or empty.
std::string result_json_for(const Job& job) {
  if (job.kind() == JobKind::kPipeline) {
    auto pr = job.pipeline_result();
    if (pr.ok()) return to_json(*pr);
  } else if (job.kind() == JobKind::kFaultCampaign) {
    auto cr = job.campaign_result();
    if (cr.ok()) return to_json(*cr);
  } else if (job.kind() == JobKind::kTransientCampaign) {
    auto tr = job.transient_result();
    if (tr.ok()) return to_json(*tr);
  } else {
    auto sr = job.sim_result();
    if (sr.ok()) return to_json(*sr);
  }
  return std::string();
}

bool send_all(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a client that hung up mid-response must produce
    // EPIPE here, not a SIGPIPE that kills the whole daemon.
    const ssize_t wr =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (wr <= 0) return false;
    off += static_cast<size_t>(wr);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------- quotas

/// Per-token serving quota state (ISSUE 8).  One entry per distinct
/// "token" string (the empty string is the anonymous client of an
/// auth-less daemon).
struct Server::TokenState {
  std::mutex mu;
  double bucket = 0.0;  ///< submit token-bucket level
  bool bucket_init = false;
  std::chrono::steady_clock::time_point last_refill;
  size_t inflight = 0;  ///< submitted-but-unfinished jobs
};

struct Server::QuotaTable {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<TokenState>> tokens;

  std::shared_ptr<TokenState> get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu);
    auto& slot = tokens[key];
    if (!slot) slot = std::make_shared<TokenState>();
    return slot;
  }
};

// ---------------------------------------------------------------- Server

Server::Server(Engine& engine, ServerOptions opts)
    : engine_(engine),
      opts_(std::move(opts)),
      quotas_(std::make_shared<QuotaTable>()) {}

Server::~Server() { stop(); }

Status Server::start() {
  const bool want_unix = !opts_.socket_path.empty();
  const bool want_tcp = opts_.listen_port >= 0;
  if (!want_unix && !want_tcp)
    return Status::InvalidArgument(
        "gpurfd: no listener configured (need socket_path and/or "
        "listen_port)");

  auto fail = [this](Status st) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (tcp_listen_fd_ >= 0) {
      ::close(tcp_listen_fd_);
      tcp_listen_fd_ = -1;
      tcp_port_ = -1;
    }
    return st;
  };

  if (want_unix) {
    sockaddr_un addr{};
    // Validate against sun_path instead of silently truncating (ISSUE 8
    // satellite — a truncated path binds somewhere the client never
    // looks).
    if (opts_.socket_path.size() >= sizeof(addr.sun_path))
      return Status::InvalidArgument("gpurfd: socket path too long (" +
                                     std::to_string(opts_.socket_path.size()) +
                                     " >= " +
                                     std::to_string(sizeof(addr.sun_path)) +
                                     "): " + opts_.socket_path);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
      return Status::Internal(std::string("socket: ") + std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(opts_.socket_path.c_str());  // stale socket from a dead daemon
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0)
      return fail(Status::Internal("bind " + opts_.socket_path + ": " +
                                   std::strerror(errno)));
    if (::listen(listen_fd_, 64) < 0)
      return fail(
          Status::Internal(std::string("listen: ") + std::strerror(errno)));
  }

  if (want_tcp) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(opts_.listen_port));
    const std::string& host =
        opts_.listen_host == "localhost" ? std::string("127.0.0.1")
                                         : opts_.listen_host;
    if (host.empty() || host == "0.0.0.0") {
      addr.sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return fail(Status::InvalidArgument("gpurfd: bad listen host '" +
                                          opts_.listen_host +
                                          "' (numeric IPv4 expected)"));
    }
    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0)
      return fail(
          Status::Internal(std::string("socket: ") + std::strerror(errno)));
    const int one = 1;
    ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0)
      return fail(Status::Internal("bind " + opts_.listen_host + ":" +
                                   std::to_string(opts_.listen_port) + ": " +
                                   std::strerror(errno)));
    if (::listen(tcp_listen_fd_, 128) < 0)
      return fail(
          Status::Internal(std::string("listen: ") + std::strerror(errno)));
    // Ephemeral binds (port 0) read the real port back for the caller.
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &blen) == 0)
      tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    else
      tcp_port_ = opts_.listen_port;
  }

  running_.store(true, std::memory_order_release);
  // Capture the fds by value: stop() writes -1 into the members without
  // holding a lock the accept threads share, so the lambdas must not read
  // them after launch.
  if (listen_fd_ >= 0)
    accept_thread_ =
        std::thread([this, fd = listen_fd_] { accept_loop(fd, false); });
  if (tcp_listen_fd_ >= 0)
    tcp_accept_thread_ =
        std::thread([this, fd = tcp_listen_fd_] { accept_loop(fd, true); });
  return Status::Ok();
}

void Server::reap_finished() {
  // Collect the joinable handles under the lock, join them outside it:
  // a handler's exit path takes mu_ to deregister itself, so joining
  // while holding mu_ could deadlock against a thread that is *almost*
  // finished.  Joining after its finished_ entry appeared is cheap — the
  // handler has nothing left to run but its epilogue.
  std::vector<std::thread> done;
  {
    common::MutexLock lock(mu_);
    for (uint64_t id : finished_) {
      auto it = threads_.find(id);
      if (it == threads_.end()) continue;
      done.push_back(std::move(it->second));
      threads_.erase(it);
    }
    finished_.clear();
  }
  for (auto& t : done) t.join();
}

void Server::stop() {
  stopping_.store(true, std::memory_order_release);
  const bool was_running = running_.exchange(false);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (tcp_listen_fd_ >= 0) {
    ::shutdown(tcp_listen_fd_, SHUT_RDWR);
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (tcp_accept_thread_.joinable()) tcp_accept_thread_.join();
  // Kick every live connection (unblocks reads; a handler parked inside a
  // long "wait" op notices stopping_ within one wait slice), then join
  // every handler thread.  After the joins no connection code can run, so
  // destroying the Server immediately afterwards is safe — this is the
  // ISSUE 5 fix for the detached-thread shutdown race.
  std::map<uint64_t, std::thread> remaining;
  {
    common::MutexLock lock(mu_);
    for (int fd : conns_) ::shutdown(fd, SHUT_RDWR);
    remaining.swap(threads_);
    finished_.clear();
  }
  for (auto& [id, t] : remaining) t.join();
  if (was_running && !opts_.socket_path.empty())
    ::unlink(opts_.socket_path.c_str());
}

void Server::accept_loop(int listen_fd, bool tcp) {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;  // listener closed underneath us
    }
    if (tcp) {
      // Request/response lines are small; Nagle would add 40ms to every
      // sub-MSS exchange on loopback.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    // Joining finished predecessors here bounds the registry at the
    // number of *live* connections plus the already-finished ones since
    // the last accept — a long-lived daemon never accumulates handles.
    reap_finished();
    {
      // Register the socket and the handle atomically: stop() joins this
      // accept thread before it swaps the registry out, so every spawned
      // handler is guaranteed to be visible to the final join pass.
      common::MutexLock lock(mu_);
      const uint64_t id = next_conn_id_++;
      conns_.insert(fd);
      threads_.emplace(
          id, std::thread([this, fd, id] { serve_connection(fd, id); }));
    }
  }
}

void Server::serve_connection(int fd, uint64_t conn_id) {
  // Oversized-request rejection: cap the unframed buffer as well as each
  // complete line, then drop the connection — there is no way to
  // resynchronise a stream mid-oversized-line.
  const auto reject_oversized = [&] {
    send_all(fd, error_envelope(Status::InvalidArgument(
                     "request exceeds max_request_bytes (" +
                     std::to_string(opts_.max_request_bytes) + ")")) +
                     "\n");
  };
  std::string buf;
  char chunk[4096];
  bool drop = false;
  while (!drop) {
    if (opts_.idle_timeout_ms > 0) {
      // Idle timeout (ISSUE 8): a connection that sends nothing within
      // the window is dropped, so slow/hostile peers cannot pin handler
      // threads forever.  stop()'s shutdown() wakes the poll too.
      pollfd pfd{fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, opts_.idle_timeout_ms);
      if (pr == 0) break;  // idle too long
      if (pr < 0) {
        if (errno == EINTR) continue;
        break;
      }
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;  // EOF, shutdown, or error
    buf.append(chunk, static_cast<size_t>(n));
    if (buf.size() > opts_.max_request_bytes &&
        buf.find('\n') == std::string::npos) {
      reject_oversized();
      break;
    }
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.empty()) continue;
      if (line.size() > opts_.max_request_bytes) {
        reject_oversized();
        drop = true;
        break;
      }
      SendLineFn push = [fd](const std::string& l) {
        return send_all(fd, l + "\n");
      };
      std::string resp = handle_request(line, &push);
      resp += '\n';
      if (!send_all(fd, resp)) {
        drop = true;
        break;
      }
    }
  }
  // Join predecessors that already finished — without this, a
  // burst-then-idle daemon would retain exited-but-unjoined handles (and
  // their stacks) until the next accept.  Safe here: this thread's own id
  // is not on finished_ yet, so it never joins itself.
  reap_finished();
  // Deregister and close under one lock so stop() can never shutdown() an
  // fd number this thread already closed (and the kernel reassigned).
  // Parking the id on finished_ hands the joinable handle to the next
  // reaper (a later handler exit or accept) or to stop(), whichever
  // comes first.
  common::MutexLock lock(mu_);
  conns_.erase(fd);
  ::close(fd);
  finished_.push_back(conn_id);
}

std::string Server::metrics_json_now() const {
  MetricsSnapshot m = engine_.metrics_snapshot();
  m.serialize = serialize_hist_.snapshot();
  return to_json(m);
}

/// A response envelope under construction.  Opening one marks the moment
/// the op has its outcome; the caller adds the payload fields, then
/// finish_envelope() closes it.
struct Server::Envelope : JsonWriter {
  const std::chrono::steady_clock::time_point opened =
      std::chrono::steady_clock::now();
  explicit Envelope(bool ok = true) {
    begin_object();
    field("ok", ok);
  }
};

std::string Server::finish_envelope(Envelope& w) {
  w.raw("metrics", metrics_json_now());
  w.end_object();
  serialize_hist_.record_us(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - w.opened)
          .count()));
  return w.str();
}

std::string Server::error_envelope(const Status& st, int64_t retry_after_ms) {
  Envelope w(false);
  w.begin_object("error");
  w.field("code", status_code_name(st.code()));
  w.field("message", st.message());
  if (retry_after_ms >= 0) w.field("retry_after_ms", retry_after_ms);
  w.end_object();
  return finish_envelope(w);
}

std::string Server::handle_request_line(const std::string& line) {
  return handle_request(line, nullptr);
}

std::string Server::handle_request(const std::string& line, SendLineFn* push) {
  std::string resp;
  StatusOr<JsonValue> parsed = parse_json(line);
  if (!parsed.ok()) {
    resp = error_envelope(parsed.status());
  } else if (!parsed->is_object()) {
    resp =
        error_envelope(Status::InvalidArgument("request must be an object"));
  } else {
    const JsonValue& req = *parsed;
    const std::string op = req.get("op") ? req.get("op")->as_string() : "";
    const std::string token =
        req.get("token") ? req.get("token")->as_string() : "";

    try {
      // Auth gate (ISSUE 8): a daemon started with tokens accepts nothing
      // — not even ping — without one of them.
      if (!opts_.auth_tokens.empty() &&
          std::find(opts_.auth_tokens.begin(), opts_.auth_tokens.end(),
                    token) == opts_.auth_tokens.end()) {
        resp = error_envelope(Status::Unauthenticated(
            token.empty() ? "missing 'token'" : "unrecognised auth token"));
      } else if (op == "ping") {
        Envelope w;
        w.field("pong", true);
        resp = finish_envelope(w);
      } else if (op == "list") {
        Envelope w;
        w.begin_array("workloads");
        for (const auto& n : engine_.workload_names()) w.element(n);
        w.end_array();
        resp = finish_envelope(w);
      } else if (op == "metrics") {
        Envelope w;
        resp = finish_envelope(w);
      } else if (op == "histograms") {
        // Full bucket arrays per latency stage (summaries ride in every
        // envelope's metrics object; this op is for plotting).
        Envelope w;
        MetricsSnapshot m = engine_.metrics_snapshot();
        m.serialize = serialize_hist_.snapshot();
        w.begin_object("histograms");
        w.raw("queue_wait", to_json(m.queue_wait, true));
        w.raw("tune", to_json(m.tune, true));
        w.raw("sim", to_json(m.sim, true));
        w.raw("serialize", to_json(m.serialize, true));
        w.end_object();
        resp = finish_envelope(w);
      } else if (op == "submit") {
        resp = handle_submit(req, token);
      } else if (op == "status" || op == "wait" || op == "cancel" ||
                 op == "watch") {
        resp = handle_job_op(req, op, push);
      } else if (op == "analyze") {
        // Static kernel lint: {"workload":name} analyzes a bundled
        // workload with its sample instance; {"kernel":asm} parses and
        // analyzes an ad-hoc kernel.
        const JsonValue* wlname = req.get("workload");
        const JsonValue* ktext = req.get("kernel");
        StatusOr<analysis::KernelReport> rep = Status::InvalidArgument(
            "analyze requires a 'workload' name or inline 'kernel' asm");
        if (wlname && wlname->is_string()) {
          const std::string name = wlname->as_string();
          rep = engine_.analyze(name);
        } else if (ktext && ktext->is_string()) {
          StatusOr<ir::Kernel> k = engine_.parse_kernel(ktext->as_string());
          rep = k.ok() ? engine_.analyze(*k)
                       : StatusOr<analysis::KernelReport>(k.status());
        }
        if (rep.ok()) {
          Envelope w;
          w.raw("report", to_json(*rep));
          resp = finish_envelope(w);
        } else {
          resp = error_envelope(rep.status());
        }
      } else if (op == "shutdown") {
        shutdown_.store(true, std::memory_order_release);
        Envelope w;
        w.field("shutting_down", true);
        resp = finish_envelope(w);
      } else {
        resp = error_envelope(Status::InvalidArgument(
            "unknown op '" + op +
            "' (ping|list|metrics|histograms|submit|status|wait|cancel|"
            "watch|analyze|shutdown)"));
      }
    } catch (const Error& e) {
      resp = error_envelope(Status::FailedPrecondition(e.what()));
    } catch (const std::exception& e) {
      resp = error_envelope(Status::Internal(e.what()));
    }
  }
  return resp;
}

std::string Server::handle_submit(const JsonValue& req,
                                  const std::string& token) {
  const std::string kind =
      req.get("kind") ? req.get("kind")->as_string("pipeline") : "pipeline";
  const JsonValue* wlname = req.get("workload");
  if (!wlname || !wlname->is_string())
    return error_envelope(
        Status::InvalidArgument("submit requires 'workload'"));
  JobRequest jr;
  if (kind == "pipeline") {
    jr = JobRequest::pipeline(wlname->as_string());
  } else if (kind == "simulate") {
    SimRequest sr;
    const Status st = parse_sim_request(req, sr);
    if (!st.ok()) return error_envelope(st);
    jr = JobRequest::simulate(wlname->as_string(), sr);
  } else if (kind == "fault_campaign") {
    FaultCampaignRequest cr;
    // A campaign is compressed by construction; default the template
    // mode to perfect quality when the request names none.
    if (!req.get("mode")) cr.sim.mode = wl::SimMode::kCompressedPerfect;
    Status st = parse_sim_request(req, cr.sim);
    if (st.ok()) st = parse_number_array(req, "densities", cr.densities);
    if (st.ok()) st = read_int(req, "maps_per_density", cr.maps_per_density);
    if (st.ok()) st = read_int(req, "base_seed", cr.base_seed);
    if (!st.ok()) return error_envelope(st);
    jr = JobRequest::fault_campaign(wlname->as_string(), std::move(cr));
  } else if (kind == "transient_campaign") {
    TransientCampaignRequest tr;
    Status st = parse_sim_request(req, tr.sim);
    if (st.ok()) st = parse_number_array(req, "flip_rates", tr.flip_rates);
    if (st.ok()) st = read_int(req, "seeds_per_rate", tr.seeds_per_rate);
    if (st.ok()) st = read_int(req, "base_seed", tr.base_seed);
    if (!st.ok()) return error_envelope(st);
    jr = JobRequest::transient_campaign(wlname->as_string(), std::move(tr));
  } else {
    return error_envelope(Status::InvalidArgument(
        "unknown kind '" + kind +
        "' (pipeline|simulate|fault_campaign|transient_campaign)"));
  }
  Status st = read_int(req, "priority", jr.priority,
                       std::numeric_limits<int>::min());
  // Bounded so the deadline's time point cannot overflow.
  if (st.ok())
    st = read_int<int64_t>(req, "deadline_ms", jr.deadline_ms, 0,
                           std::numeric_limits<int32_t>::max());
  // Fail fast on requests the Engine would reject (unknown workload,
  // writeback delay above its cap, a campaign too large to count): the
  // submit itself reports the error instead of parking a doomed job.
  if (st.ok()) st = engine_.check_request(jr);
  if (!st.ok()) return error_envelope(st);

  // Per-token quotas (ISSUE 8): a token-bucket on submit rate and a cap
  // on unfinished jobs, both rejecting with RESOURCE_EXHAUSTED and a
  // structured retry_after_ms instead of queueing the excess.
  std::shared_ptr<TokenState> ts;
  if (opts_.token_rate > 0.0 || opts_.token_max_inflight > 0) {
    ts = quotas_->get(token);
    std::lock_guard<std::mutex> lock(ts->mu);
    if (opts_.token_rate > 0.0) {
      const double burst = opts_.token_burst > 0.0
                               ? opts_.token_burst
                               : std::max(1.0, opts_.token_rate);
      const auto now = std::chrono::steady_clock::now();
      if (!ts->bucket_init) {
        ts->bucket = burst;
        ts->bucket_init = true;
      } else {
        const double dt =
            std::chrono::duration<double>(now - ts->last_refill).count();
        ts->bucket = std::min(burst, ts->bucket + dt * opts_.token_rate);
      }
      ts->last_refill = now;
      if (ts->bucket < 1.0) {
        const int64_t retry_ms = static_cast<int64_t>(
            std::ceil((1.0 - ts->bucket) / opts_.token_rate * 1000.0));
        return error_envelope(
            Status::ResourceExhausted("submit rate quota exceeded for token"),
            std::max<int64_t>(1, retry_ms));
      }
      ts->bucket -= 1.0;
    }
    if (opts_.token_max_inflight > 0 &&
        ts->inflight >= opts_.token_max_inflight) {
      // Back-off hint: the mean job wall time is when a slot plausibly
      // frees up; clamped so a cold daemon still gives a sane hint.
      const MetricsSnapshot m = engine_.metrics_snapshot();
      const uint64_t term = m.jobs_done + m.jobs_failed + m.jobs_cancelled +
                            m.jobs_deadline_exceeded;
      const int64_t mean_ms =
          term ? static_cast<int64_t>(m.job_wall_us_total / term / 1000)
               : 100;
      return error_envelope(
          Status::ResourceExhausted(
              std::string("token in-flight quota (") +
              std::to_string(opts_.token_max_inflight) + ") exceeded"),
          std::clamp<int64_t>(mean_ms, 50, 5000));
    }
    ts->inflight += 1;
  }

  Job job;
  try {
    job = engine_.submit(std::move(jr));
  } catch (...) {
    if (ts) {
      std::lock_guard<std::mutex> lock(ts->mu);
      ts->inflight -= 1;
    }
    throw;
  }
  if (ts) {
    // The listener owns the state through shared_ptrs — it may fire after
    // this Server is long gone (the Engine outlives it).
    auto table = quotas_;
    auto state = ts;
    job.on_terminal([table, state] {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->inflight > 0) state->inflight -= 1;
    });
  }

  Envelope w;
  write_job_fields(w, job);
  return finish_envelope(w);
}

std::string Server::handle_job_op(const JsonValue& req, const std::string& op,
                                  SendLineFn* push) {
  uint64_t id = 0;
  const Status st =
      req.get("job") ? read_int(req, "job", id)
                     : Status::InvalidArgument("'" + op + "' requires 'job'");
  if (!st.ok()) return error_envelope(st);
  auto job = engine_.find_job(id);
  if (!job.ok()) return error_envelope(job.status());

  const bool watch = op == "watch";
  if (op == "cancel") {
    job->cancel();
  } else if (op == "wait" || watch) {
    // Sliced wait: a stopping server must not stay pinned behind a
    // client's multi-minute wait — each slice rechecks stopping_, so
    // stop() drains this handler within one slice (the response then
    // reports whatever state the job reached).  watch adds a push
    // subscription: progress events stream as their own envelope lines
    // whenever the job's progress fingerprint changes, and the method's
    // return value is the closing wait-style envelope.  Without a
    // transport (the in-process seam) watch degrades to wait.
    int64_t timeout_ms = req.get("timeout_ms")
                             ? req.get("timeout_ms")->as_int(600000)
                             : 600000;
    if (timeout_ms < 0) timeout_ms = 0;
    int64_t slice_ms = 200;
    if (watch) {
      slice_ms = req.get("progress_ms") ? req.get("progress_ms")->as_int(100)
                                        : 100;
      slice_ms = std::clamp<int64_t>(slice_ms, 10, 1000);
    }
    std::string last_key = watch ? progress_key(*job) : std::string();
    while (timeout_ms > 0 && !stopping_.load(std::memory_order_acquire)) {
      const int64_t slice = std::min<int64_t>(timeout_ms, slice_ms);
      if (job->wait_for(std::chrono::milliseconds(slice))) break;
      timeout_ms -= slice;
      if (!watch || !push) continue;
      std::string key = progress_key(*job);
      if (key == last_key) continue;
      last_key = std::move(key);
      JsonWriter ev;
      ev.begin_object();
      ev.field("ok", true);
      ev.field("event", "progress");
      write_job_fields(ev, *job);
      ev.end_object();
      if (!(*push)(ev.str())) break;  // peer gone — stop early
    }
  }

  Envelope w;
  if (watch) w.field("event", "terminal");
  write_job_fields(w, *job);

  // Result attachment (wait and watch), inline.
  if ((op == "wait" || op == "watch") && job->state() == JobState::kDone) {
    const std::string result = result_json_for(*job);
    if (!result.empty()) w.raw("result", result);
  }
  return finish_envelope(w);
}

int64_t envelope_retry_after_ms(const JsonValue& envelope) {
  const JsonValue* err = envelope.get("error");
  if (!err) return -1;
  const JsonValue* ra = err->get("retry_after_ms");
  if (!ra || !ra->is_number()) return -1;
  return ra->as_int(-1);
}

// ---------------------------------------------------------------- Client

namespace {

/// Transient connect failures worth a retry: the daemon is starting up
/// (socket not bound yet / nothing listening) or momentarily saturated.
bool connect_errno_transient(int err) {
  return err == ECONNREFUSED || err == ENOENT || err == EAGAIN ||
         err == EWOULDBLOCK || err == EINTR || err == ECONNRESET ||
         err == ETIMEDOUT;
}

/// One connect attempt with a deadline: non-blocking connect + poll so a
/// daemon wedged inside accept() cannot hang the caller.  Returns the
/// connected (blocking-mode) fd, or -1 with errno describing the failure
/// (ETIMEDOUT for a poll timeout).
int connect_once(const sockaddr* addr, socklen_t addr_len, int family,
                 int timeout_ms) {
  const int fd = ::socket(family, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  if (::connect(fd, addr, addr_len) < 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      const int err = errno;
      ::close(fd);
      errno = err;
      return -1;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms < 0 ? -1 : timeout_ms);
    if (pr <= 0) {
      ::close(fd);
      errno = pr == 0 ? ETIMEDOUT : errno;
      return -1;
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) < 0 ||
        soerr != 0) {
      ::close(fd);
      errno = soerr != 0 ? soerr : errno;
      return -1;
    }
  }
  // Back to blocking mode: call() relies on SO_RCVTIMEO/SO_SNDTIMEO.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  return fd;
}

void set_socket_timeout(int fd, int opt, int timeout_ms) {
  if (timeout_ms <= 0) return;  // 0 = no timeout (kernel default)
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv));
}

/// Bounded retry with exponential backoff + jitter (PR 6 satellite): a
/// client racing a daemon's startup sees ECONNREFUSED/ENOENT for a few
/// milliseconds; retrying with jittered backoff absorbs that without a
/// thundering herd.  Non-transient errors (EACCES, ...) fail immediately.
/// Returns the fd (>= 0) or -1 with `out_status` set.
int connect_with_retry(const sockaddr* addr, socklen_t addr_len, int family,
                       const ClientOptions& opts, const std::string& what,
                       const void* jitter_salt, Status& out_status) {
  uint64_t jitter_state =
      static_cast<uint64_t>(::getpid()) * 0x9e3779b97f4a7c15ULL ^
      reinterpret_cast<uintptr_t>(jitter_salt);
  // Windows below 1 ms would divide by zero in the jitter draw.
  int backoff_ms = std::max(1, opts.backoff_initial_ms);
  for (int attempt = 0; attempt <= opts.retries; ++attempt) {
    const int fd = connect_once(addr, addr_len, family, opts.connect_timeout_ms);
    if (fd >= 0) {
      out_status = Status::Ok();
      return fd;
    }
    const int err = errno;
    if (!connect_errno_transient(err) || attempt == opts.retries) {
      const std::string msg =
          what + ": " + std::strerror(err) +
          (attempt ? " (after " + std::to_string(attempt + 1) + " attempts)"
                   : "");
      out_status = connect_errno_transient(err) ? Status::Unavailable(msg)
                                                : Status::Internal(msg);
      return -1;
    }
    // Full jitter: sleep a uniform slice of the current backoff window.
    const int sleep_ms =
        1 + static_cast<int>(gpurf::splitmix64(jitter_state) %
                             static_cast<uint64_t>(backoff_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms = static_cast<int>(std::clamp<int64_t>(
        int64_t{backoff_ms} * 2, 1, std::max(1, opts.backoff_max_ms)));
  }
  out_status = Status::Internal(what + ": retry loop exhausted");
  return -1;
}

}  // namespace

void Client::finish_connect(const std::string& what) {
  (void)what;
  if (fd_ >= 0) {
    set_socket_timeout(fd_, SO_RCVTIMEO, opts_.read_timeout_ms);
    set_socket_timeout(fd_, SO_SNDTIMEO, opts_.read_timeout_ms);
  }
}

Client::Client(const std::string& socket_path, ClientOptions opts)
    : opts_(std::move(opts)) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    status_ = Status::InvalidArgument("socket path too long: " + socket_path);
    return;
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = connect_with_retry(reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr), AF_UNIX, opts_,
                           "connect " + socket_path, this, status_);
  finish_connect(socket_path);
}

Client::Client(const std::string& host, int port, ClientOptions opts)
    : opts_(std::move(opts)) {
  if (port <= 0 || port > 65535) {
    status_ = Status::InvalidArgument("bad port " + std::to_string(port));
    return;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const int gai =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (gai != 0 || !res) {
    status_ = Status::InvalidArgument("resolve " + host + ": " +
                                      ::gai_strerror(gai));
    if (res) ::freeaddrinfo(res);
    return;
  }
  const std::string what = "connect " + host + ":" + std::to_string(port);
  for (addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd_ = connect_with_retry(ai->ai_addr, ai->ai_addrlen, ai->ai_family,
                             opts_, what, this, status_);
    if (fd_ >= 0) break;
  }
  ::freeaddrinfo(res);
  if (fd_ >= 0) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  finish_connect(what);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::string> Client::read_line() {
  char chunk[4096];
  for (;;) {
    const size_t nl = rxbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = rxbuf_.substr(0, nl);
      rxbuf_.erase(0, nl + 1);
      return line;
    }
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      // A read timeout leaves the stream position unknown, so the caller
      // must not resend on this connection — reconnect instead.
      return Status::Unavailable(
          "read timed out after " + std::to_string(opts_.read_timeout_ms) +
          "ms");
    if (n <= 0)
      return Status::Unavailable(
          "connection closed before a response arrived");
    rxbuf_.append(chunk, static_cast<size_t>(n));
  }
}

StatusOr<std::string> Client::call(const std::string& request_line) {
  if (!status_.ok()) return status_;
  std::string out = request_line;
  out += '\n';
  size_t off = 0;
  while (off < out.size()) {
    // MSG_NOSIGNAL: a dead daemon surfaces as an error status, not a
    // SIGPIPE that kills the client process.
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return Status::Unavailable(
            "write timed out after " + std::to_string(opts_.read_timeout_ms) +
            "ms");
      return Status::Unavailable(std::string("write: ") +
                                 std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return read_line();
}

StatusOr<JsonValue> Client::call_json(const std::string& request_line) {
  auto resp = call(request_line);
  if (!resp.ok()) return resp.status();
  return parse_json(*resp);
}

StatusOr<JsonValue> Client::watch(
    uint64_t job, int64_t timeout_ms,
    const std::function<void(const JsonValue&)>& on_progress) {
  JsonWriter w;
  w.begin_object();
  w.field("op", "watch");
  w.field("job", job);
  w.field("timeout_ms", static_cast<int64_t>(timeout_ms));
  if (!opts_.token.empty()) w.field("token", opts_.token);
  w.end_object();
  auto first = call(w.str());
  if (!first.ok()) return first.status();
  std::string line = std::move(*first);
  for (;;) {
    auto parsed = parse_json(line);
    if (!parsed.ok()) return parsed.status();
    const JsonValue* ev = parsed->get("event");
    if (ev && ev->as_string() == "progress") {
      if (on_progress) on_progress(*parsed);
      auto next = read_line();
      if (!next.ok()) return next.status();
      line = std::move(*next);
      continue;
    }
    return parsed;  // the terminal (or error) envelope
  }
}

}  // namespace gpurf::api
