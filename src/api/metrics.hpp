#pragma once
// Engine-level serving metrics and per-stage latency histograms.
//
// Plain atomic counters, bumped on the hot paths with relaxed ordering and
// read without synchronisation: a snapshot is a set of independently-read
// monotone counters, not a consistent cut — exactly what scrape-style
// monitoring needs.  The cache-layer counters live with their caches
// (workloads::PipelineStats on the pipeline memo / disk cache,
// exec::AnalysisCache's internal hit counters); this struct holds the
// job-lifecycle side, and Engine::metrics_json() merges all three into the
// snapshot every gpurfd response envelope embeds.
//
// Only the Engine writes these (submit, the executor's run/discard paths),
// so the struct lives by value inside the Engine; Job handles never touch
// it and can safely outlive their Engine.
//
// ISSUE 8 adds per-stage latency histograms: fixed-bucket log2 histograms
// over microseconds, recorded lock-free.  The Engine records queue wait
// (submit -> start), tune (pipeline memo get, hit or miss) and sim (the
// cycle-level simulation proper); the Server records serialize (request
// line -> response line built).  Every response envelope carries the
// summary percentiles; {"op":"histograms"} exports the full buckets.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

#include "api/job.hpp"

namespace gpurf {

/// Value snapshot of a LatencyHistogram, with percentile estimation off
/// the bucket upper bounds.  Bucket b holds
/// samples whose microsecond value has bit_width b, i.e. us in
/// [2^(b-1), 2^b); bucket 0 holds exact zeros and the last bucket is
/// open-ended.  Percentiles therefore over-estimate by at most 2x — the
/// right bias for tail-latency tripwires.
struct HistogramSnapshot {
  static constexpr int kBuckets = 32;

  std::array<uint64_t, kBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum_us = 0;

  /// Upper bound (inclusive, in us) of bucket b.
  static uint64_t bucket_le_us(int b) {
    return b <= 0 ? 0
           : b >= kBuckets - 1
               ? ~uint64_t{0}
               : (uint64_t{1} << b) - 1;
  }

  /// p in [0,1]; returns the upper bound of the bucket containing the
  /// p-quantile sample (0 when empty).
  uint64_t percentile_us(double p) const {
    if (count == 0) return 0;
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count));
    if (rank >= count) rank = count - 1;  // p = 1.0 is the max sample
    uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      cum += buckets[b];
      if (cum > rank) return bucket_le_us(b);
    }
    return bucket_le_us(kBuckets - 1);
  }

  double mean_us() const {
    return count ? static_cast<double>(sum_us) / static_cast<double>(count)
                 : 0.0;
  }
};

/// Lock-free fixed-bucket log2 latency histogram (ISSUE 8 tentpole).
/// record_us is wait-free (two relaxed fetch_adds); snapshots are
/// independently-read monotone counters like every other metric here.
class LatencyHistogram {
 public:
  void record_us(uint64_t us) {
    const int b =
        us == 0 ? 0
                : std::min<int>(HistogramSnapshot::kBuckets - 1,
                                std::bit_width(us));
    buckets_[static_cast<size_t>(b)].fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      s.buckets[static_cast<size_t>(b)] =
          buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
      s.count += s.buckets[static_cast<size_t>(b)];
    }
    s.sum_us = sum_us_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::array<std::atomic<uint64_t>, HistogramSnapshot::kBuckets> buckets_{};
  std::atomic<uint64_t> sum_us_{0};
};

/// Point-in-time value snapshot of one Engine's serving metrics;
/// api::to_json(MetricsSnapshot) keeps the field names every envelope
/// carries.
struct MetricsSnapshot {
  // Cache layer.
  uint64_t pipeline_memo_hits = 0;
  uint64_t pipeline_memo_misses = 0;
  uint64_t disk_cache_hits = 0;
  uint64_t disk_cache_stale_rejections = 0;
  uint64_t disk_cache_write_failures = 0;
  uint64_t disk_cache_disabled = 0;  ///< 1 once the latch tripped
  uint64_t analysis_cache_hits = 0;
  uint64_t analysis_cache_misses = 0;
  // Queue / lifecycle.
  uint64_t queue_depth = 0;
  uint64_t jobs_running = 0;
  uint64_t inflight = 0;
  uint64_t jobs_submitted = 0;
  uint64_t jobs_done = 0;
  uint64_t jobs_failed = 0;
  uint64_t jobs_cancelled = 0;
  uint64_t jobs_deadline_exceeded = 0;
  uint64_t job_wall_us_total = 0;
  // Per-stage latency (ISSUE 8).  serialize is recorded by the Server and
  // merged in at export time; it stays empty on bare-Engine snapshots.
  HistogramSnapshot queue_wait;
  HistogramSnapshot tune;
  HistogramSnapshot sim;
  HistogramSnapshot serialize;

};

struct EngineMetrics {
  // Job lifecycle (terminal counters are exact: finalize runs once).
  std::atomic<uint64_t> jobs_submitted{0};
  std::atomic<uint64_t> jobs_done{0};       ///< finished with an OK status
  std::atomic<uint64_t> jobs_failed{0};     ///< finished with a non-OK status
  std::atomic<uint64_t> jobs_cancelled{0};
  std::atomic<uint64_t> jobs_deadline_exceeded{0};

  /// Sum of submit -> terminal wall time over all terminal jobs, in
  /// microseconds (divide by the terminal-job count for the mean).
  std::atomic<uint64_t> job_wall_us_total{0};

  // Per-stage latency histograms (ISSUE 8): queue wait covers submit ->
  // start for every job that ran; tune covers each pipeline memo get
  // (hits land in the microsecond buckets, which is how fingerprint-
  // affine routing becomes visible); sim covers the cycle-level
  // simulation proper.
  LatencyHistogram queue_wait_hist;
  LatencyHistogram tune_hist;
  LatencyHistogram sim_hist;

  void record_terminal(JobState state, bool status_ok, uint64_t wall_us) {
    switch (state) {
      case JobState::kDone:
        (status_ok ? jobs_done : jobs_failed)
            .fetch_add(1, std::memory_order_relaxed);
        break;
      case JobState::kCancelled:
        jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
        break;
      case JobState::kDeadlineExceeded:
        jobs_deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        break;  // non-terminal states never reach here
    }
    job_wall_us_total.fetch_add(wall_us, std::memory_order_relaxed);
  }
};

}  // namespace gpurf
