#pragma once
// Cooperative cancellation and progress reporting for long-running work
// (ISSUE 4).
//
// A CancelToken is shared between a job's owner (who may cancel() it or arm
// a deadline) and the worker executing the job.  The worker polls it at
// natural checkpoints — between tuner probe batches, between pipeline
// stages, every few thousand simulated cycles — by calling checkpoint(),
// which throws CancelledError once a stop has been requested.  Because the
// checkpoints sit *between* units of work, a cancelled computation never
// leaves a partially-written memo or cache entry behind: either a unit
// completed and its results are consistent, or it never started.
//
// The token doubles as the job's progress mailbox: the worker stores its
// current stage and coarse counters (tuner pass / evaluations, simulated
// cycles) with relaxed atomics, and observers read them without
// synchronising with the computation.  Keeping both faces on one object
// means the lower layers (tuning, workloads, sim) receive exactly one
// pointer and stay ignorant of the serving API above them.

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace gpurf::common {

/// Why a token asked the worker to stop.
enum class StopReason { kNone, kCancelled, kDeadline };

/// Coarse phase of a job, written by the worker, read by observers.  The
/// order mirrors the paper's Fig.-7 flow plus the timing simulation.
enum class JobStage : int {
  kQueued = 0,
  kRanges,       ///< integer range analysis (§4.2)
  kTuning,       ///< float precision tuning (§4.1)
  kValidating,   ///< batched final validation probes
  kAllocating,   ///< slice allocation (§4.3)
  kSimulating,   ///< cycle-level timing simulation (§3, §6)
  kFinished,
};

inline const char* job_stage_name(JobStage s) {
  switch (s) {
    case JobStage::kQueued: return "queued";
    case JobStage::kRanges: return "ranges";
    case JobStage::kTuning: return "tuning";
    case JobStage::kValidating: return "validating";
    case JobStage::kAllocating: return "allocating";
    case JobStage::kSimulating: return "simulating";
    case JobStage::kFinished: return "finished";
  }
  return "unknown";
}

/// Thrown by CancelToken::checkpoint() when a stop was requested.  NOT
/// derived from gpurf::Error on purpose: the Engine's catch(Error) clauses
/// map recoverable core failures to FailedPrecondition, while cancellation
/// must surface as kCancelled / kDeadlineExceeded — keeping the types
/// distinct makes it impossible to conflate the two paths.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(StopReason reason)
      : std::runtime_error(reason == StopReason::kDeadline
                               ? "deadline exceeded"
                               : "cancelled"),
        reason_(reason) {}

  StopReason reason() const { return reason_; }

 private:
  StopReason reason_;
};

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // ------------------------------------------------------------- control
  void cancel() { cancelled_.store(true, std::memory_order_release); }

  /// Arm an absolute deadline; the worker stops at its next checkpoint
  /// after this instant.  Call at most once, before the worker starts.
  void set_deadline(Clock::time_point tp) {
    deadline_ns_.store(tp.time_since_epoch().count(),
                       std::memory_order_release);
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Current stop request: explicit cancellation wins over the deadline so
  /// a user action is never reported as a timeout.
  StopReason stop_reason() const {
    if (cancelled()) return StopReason::kCancelled;
    const int64_t dl = deadline_ns_.load(std::memory_order_acquire);
    if (dl != 0 && Clock::now().time_since_epoch().count() >= dl)
      return StopReason::kDeadline;
    return StopReason::kNone;
  }

  /// Cooperative checkpoint: throws CancelledError once a stop has been
  /// requested, otherwise returns immediately.
  void checkpoint() const {
    const StopReason r = stop_reason();
    if (r != StopReason::kNone) throw CancelledError(r);
  }

  // ------------------------------------------------------------ progress
  void set_stage(JobStage s) {
    stage_.store(static_cast<int>(s), std::memory_order_relaxed);
  }
  JobStage stage() const {
    return static_cast<JobStage>(stage_.load(std::memory_order_relaxed));
  }

  /// Coarse worker counters (relaxed: monotone hints, not synchronisation).
  std::atomic<int> tuner_pass{0};          ///< current fixpoint pass (1-based)
  std::atomic<int> tuner_evaluations{0};   ///< quality probes so far
  std::atomic<uint64_t> replays{0};        ///< functional replays started
  std::atomic<uint64_t> sim_cycles{0};     ///< simulated cycles so far
  std::atomic<int> campaign_maps_done{0};  ///< fault maps finished (PR 6)
  std::atomic<int> campaign_maps_total{0}; ///< fault maps in the campaign

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{0};  ///< steady-clock ns; 0 = none
  std::atomic<int> stage_{0};
};

}  // namespace gpurf::common
