// Statistics, digest, host probes, span recorder and result printing.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "api/json.hpp"
#include "bench.hpp"

namespace perfbench {

// ------------------------------------------------------------ statistics

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * double(v.size()));
  const size_t idx = rank < 1.0 ? 0 : std::min(v.size(), size_t(rank)) - 1;
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  // Up to 20 samples the rule lands at or below the median, which is no
  // tail: report the maximum instead.
  if (v.size() <= 20) {
    t.value = v.back();
    return t;
  }
  // Index n-11 has exactly ten samples above it; as a nearest-rank
  // percentile it is p = (n - 10) / n.
  t.value = v[v.size() - 11];
  t.pct = 100.0 * double(v.size() - 10) / double(v.size());
  t.beyond = 10;
  return t;
}

void Digest::add(std::string_view s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  // Separator, so ("ab","c") and ("a","bc") differ.
  h_ ^= 0xff;
  h_ *= 1099511628211ull;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h_);
  return buf;
}

// ------------------------------------------------------------- host probes

HostSample host_sample() {
  HostSample s;
  s.wall = Clock::now();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.user_s = double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec);
  s.sys_s = double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec);
  s.ctx_switches = int64_t(ru.ru_nvcsw) + int64_t(ru.ru_nivcsw);
  return s;
}

HostDelta host_delta(const HostSample& a, const HostSample& b, int nproc) {
  HostDelta d;
  const double wall = ms_between(a.wall, b.wall) / 1000.0;
  const double user = b.user_s - a.user_s;
  const double sys = b.sys_s - a.sys_s;
  if (wall > 0.0) d.cpu_util = (user + sys) / (wall * double(nproc));
  if (user + sys > 0.0) d.sys_frac = sys / (user + sys);
  d.ctx_switches = b.ctx_switches - a.ctx_switches;
  return d;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// ---------------------------------------------------------------- tracing

namespace {
thread_local int64_t tl_parent = -1;
}  // namespace

Tracer::Tracer() : on_(false), origin_(Clock::now()) {}

int64_t Tracer::now_ns() const { return to_ns(Clock::now()); }

int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int64_t Tracer::add(std::string name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, uint64_t request, uint32_t lane) {
  if (!on()) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{std::move(name), start_ns, end_ns, parent, request, lane});
  return int64_t(spans_.size()) - 1;
}

namespace {
uint32_t thread_lane() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t lane = next.fetch_add(1);
  return lane;
}
}  // namespace

Tracer::Scope::Scope(Tracer& t, std::string name, uint64_t request) : t_(t) {
  if (!t_.on()) return;
  saved_parent_ = tl_parent;
  const int64_t start = t_.now_ns();
  // Reserve the slot now so children recorded before this span closes can
  // name it as their parent; the end time is filled in by the destructor.
  id_ = t_.add(std::move(name), start, start, saved_parent_, request,
               thread_lane());
  tl_parent = id_;
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  const int64_t end = t_.now_ns();
  {
    std::lock_guard<std::mutex> lock(t_.mu_);
    t_.spans_[size_t(id_)].end_ns = end;
  }
  tl_parent = saved_parent_;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& meta) const {
  const auto all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << meta
      << ",\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  s.lane, double(s.start_ns) / 1e3,
                  double(s.end_ns - s.start_ns) / 1e3);
    out << (i ? ",\n" : "\n") << "{\"name\":\""
        << gpurf::api::JsonWriter::escape(s.name) << "\",\"cat\":\""
        << span_layer(s.name) << "\"," << buf << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  return bool(out);
}

int64_t covered_ns(std::vector<std::pair<int64_t, int64_t>> iv, int64_t from,
                   int64_t to) {
  for (auto& [a, b] : iv) {
    a = std::max(a, from);
    b = std::min(b, to);
  }
  std::sort(iv.begin(), iv.end());
  int64_t total = 0, cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

std::string span_layer(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::map<std::string, LayerTotals> layer_self_times(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && size_t(s.parent) < spans.size())
      kids[size_t(s.parent)].emplace_back(s.start_ns, s.end_ns);
  std::map<std::string, LayerTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t self =
        (s.end_ns - s.start_ns) - covered_ns(kids[i], s.start_ns, s.end_ns);
    LayerTotals& t = out[span_layer(s.name)];
    t.self_ms += double(self) / 1e6;
    ++t.spans;
  }
  return out;
}

// ----------------------------------------------------------------- report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = {value, unit};
}

void Report::check(bool ok, const std::string& what) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ok) correct_ = false;
  }
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  std::fflush(stdout);
}

void Report::attempted(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Report::failed(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  failed_ += n;
}

void Report::note(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

bool Report::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return correct_ && failed_ == 0 && attempted_ > 0;
}

uint64_t Report::attempted_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

uint64_t Report::failed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::string Report::result_json() const {
  const bool ok = correct();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"correct\": ";
  out += ok ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char num[64];
    // %.17g keeps every digit of the measured double.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + num +
           ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

std::string source_tree_digest(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(fs::path(root) / "src", ec), end;
       !ec && it != end; it.increment(ec))
    if (it->is_regular_file()) files.push_back(it->path());
  if (ec || files.empty()) return "";
  files.push_back(fs::path(root) / "CMakeLists.txt");
  std::sort(files.begin(), files.end());
  Digest d;
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    d.add(fs::relative(f, root).generic_string());
    d.add(std::string(std::istreambuf_iterator<char>(in), {}));
  }
  return d.hex();
}

std::string Run::cache_dir() const {
  return opt.out_dir + "/pmap-cache-" + opt.src_tree;
}

// ------------------------------------------------------------- self-test

bool selftest_units() {
  bool ok = true;
  auto expect = [&](bool c, const char* what) {
    std::printf("unit %-4s %s\n", c ? "ok" : "FAIL", what);
    ok = ok && c;
  };

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(double(101 - i));  // unsorted
  expect(percentile(v, 50) == 50.0, "nearest-rank p50 of 1..100 is 50");
  expect(percentile(v, 99) == 99.0, "nearest-rank p99 of 1..100 is 99");
  expect(percentile(v, 0) == 1.0 && percentile(v, 100) == 100.0,
         "p0 / p100 are the extremes");
  const Tail t = tail(v);
  expect(t.value == 90.0 && t.pct == 90.0 && t.beyond == 10 && t.n == 100,
         "tail of 1..100 is p90 = 90 with 10 beyond");
  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) twenty.push_back(double(i));
  const Tail small = tail(twenty);
  expect(small.value == 20.0 && small.beyond == 0 && small.pct == 100.0,
         "tail of <= 20 samples is the max");
  twenty.push_back(21.0);
  const Tail t21 = tail(twenty);
  expect(t21.value == 11.0 && t21.beyond == 10,
         "tail of 21 samples has exactly 10 beyond");

  Digest a, b, c;
  a.add("ab");
  a.add("c");
  b.add("ab");
  b.add("c");
  c.add("a");
  c.add("bc");
  expect(a.value() == b.value() && a.value() != c.value(),
         "digest is deterministic and separates fields");

  // Span tree: root [0,100) with children [10,30) and [20,50) (overlap,
  // union 40) and a grandchild [60,70) under child [55,80).
  std::vector<Span> s = {
      {"api.root", 0, 100, -1, 0, 0},  {"sim.a", 10, 30, 0, 0, 0},
      {"sim.b", 20, 50, 0, 0, 0},      {"exec.c", 55, 80, 0, 0, 0},
      {"alloc.d", 60, 70, 3, 0, 0},
  };
  const auto lt = layer_self_times(s);
  expect(lt.at("api").self_ms == 35.0 / 1e6 && lt.at("api").spans == 1,
         "root self time = 100 - |[10,50) u [55,80)| = 35");
  expect(lt.at("sim").self_ms == 50.0 / 1e6 && lt.at("sim").spans == 2,
         "overlapping siblings keep their own durations (20 + 30)");
  expect(lt.at("exec").self_ms == 15.0 / 1e6 &&
             lt.at("alloc").self_ms == 10.0 / 1e6,
         "a grandchild is subtracted from its parent only");
  expect(covered_ns({{10, 30}, {20, 50}, {55, 80}, {60, 70}}, 0, 100) == 65 &&
             covered_ns({{-5, 10}, {90, 120}}, 0, 100) == 20,
         "interval union, clipped to the window");
  return ok;
}

}  // namespace perfbench
