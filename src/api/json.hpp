#pragma once
// JSON snapshots of the framework's result objects (ISSUE 3): serving
// callers and report emitters need pipeline and simulation results in a
// machine-readable form without linking a JSON library.  The emitters here
// are hand-rolled (objects/arrays/scalars only, RFC 8259-escaped strings)
// and intentionally flat: every field mirrors the corresponding struct so
// snapshots stay diffable against header definitions.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/dataflow.hpp"
#include "api/job.hpp"
#include "api/metrics.hpp"
#include "api/status.hpp"
#include "sim/gpu.hpp"
#include "workloads/pipeline.hpp"

namespace gpurf::api {

/// Minimal JSON object/array builder.  Values are appended in insertion
/// order; no escaping pitfalls because all keys are ASCII literals and
/// string values pass through escape().
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array(const std::string& key);
  void begin_object(const std::string& key);
  void end_array();

  void field(const std::string& key, const std::string& v);
  void field(const std::string& key, const char* v);
  void field(const std::string& key, double v);
  void field(const std::string& key, uint64_t v);
  void field(const std::string& key, int64_t v);
  void field(const std::string& key, uint32_t v) { field(key, uint64_t(v)); }
  void field(const std::string& key, int v) { field(key, int64_t(v)); }
  void field(const std::string& key, bool v);
  /// Pre-serialized JSON value, spliced in verbatim (e.g. embedding a
  /// metrics snapshot inside a response envelope).  The caller guarantees
  /// `json` is well-formed.
  void raw(const std::string& key, const std::string& json);
  /// Bare array element (numeric / string).
  void element(double v);
  void element(uint64_t v);
  void element(const std::string& v);

  const std::string& str() const { return out_; }

  static std::string escape(const std::string& s);

 private:
  void comma();
  void key(const std::string& k);

  std::string out_;
  bool need_comma_ = false;
};

/// Pipeline snapshot: pressure bars, tuner statistics and per-register
/// tuned widths, allocation summaries.
std::string to_json(const workloads::PipelineResult& pr);

/// Timing statistics: cycles, IPC, cache miss rates, stall breakdown,
/// compression traffic.
std::string to_json(const sim::SimStats& s);

/// Full simulation snapshot: stats + occupancy + fault-injection report.
std::string to_json(const sim::SimResult& r);

/// Fault-campaign snapshot (PR 6): one entry per (density, seed) point
/// with the child's state, degradation report, cycles and IPC.
std::string to_json(const FaultCampaignResult& r);

/// Transient-campaign snapshot (PR 7): one entry per (flip rate, seed)
/// point with the child's state, AVF-style soft-error report, cycles and
/// IPC.
std::string to_json(const TransientCampaignResult& r);

/// Latency-histogram snapshot (ISSUE 8).  Summary form (full=false) is
/// what every envelope embeds: count, mean and p50/p99/p999 in
/// microseconds.  Full form adds the log2 bucket array as
/// [{"le_us":...,"count":...}, ...] (zero buckets skipped) for
/// {"op":"histograms"}.
std::string to_json(const HistogramSnapshot& h, bool full);

/// Engine metrics snapshot: the flat counter object every envelope
/// carries, plus per-stage histogram summaries.
std::string to_json(const MetricsSnapshot& m);

/// Kernel lint report (PR 9): counts, pressures, undefined reads, dead
/// writes, never-read registers and linear live intervals — the payload
/// of gpurf-lint --json and the {"op":"analyze"} daemon verb.
std::string to_json(const analysis::KernelReport& r);

// ------------------------------------------------------------ JSON parsing
//
// The gpurfd wire protocol (ISSUE 4) speaks newline-delimited JSON both
// ways, so the daemon needs to *read* JSON too — still without linking a
// JSON library.  JsonValue + parse_json implement the RFC 8259 value
// grammar (objects, arrays, strings with escapes, numbers, booleans,
// null), enough for the flat request envelopes and for tests to verify
// every emitted snapshot is well-formed.

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool bool_v = false;
  double num_v = 0.0;
  std::string str_v;
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject
  std::vector<JsonValue> items;                            ///< kArray

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Object member lookup (first match); null for non-objects / misses.
  const JsonValue* get(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }

  // Loose accessors with defaults — wire fields are optional by design.
  std::string as_string(std::string dflt = "") const {
    return kind == Kind::kString ? str_v : dflt;
  }
  double as_double(double dflt = 0.0) const {
    return kind == Kind::kNumber ? num_v : dflt;
  }
  int64_t as_int(int64_t dflt = 0) const {
    return kind == Kind::kNumber ? static_cast<int64_t>(num_v) : dflt;
  }
  bool as_bool(bool dflt = false) const {
    return kind == Kind::kBool ? bool_v : dflt;
  }
};

/// Parse one JSON document (the whole input must be consumed apart from
/// trailing whitespace).  InvalidArgument with a position on malformed
/// input; never throws.
StatusOr<JsonValue> parse_json(std::string_view text);

/// Structural equality over parsed JSON values: object member *order* is
/// ignored (duplicate keys compare by first occurrence, matching
/// JsonValue::get), array order matters, numbers compare exactly as the
/// doubles the parser produced.  Used by bench_serve to assert TCP and
/// AF_UNIX serve bit-identical results even when envelope framing
/// (chunked vs inline) differs.
bool deep_equal(const JsonValue& a, const JsonValue& b);

}  // namespace gpurf::api
