#include "api/engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "alloc/slice_alloc.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/memory_access.hpp"
#include "api/json.hpp"
#include "common/rng.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "rf/fault_map.hpp"

namespace gpurf {

namespace {

EngineOptions resolve(EngineOptions o) {
  // Environment variables act as defaults only, consulted exactly once
  // here; after construction the Engine never touches the environment.
  if (o.threads <= 0) o.threads = common::default_thread_count();
  if (o.cache_dir.empty()) o.cache_dir = workloads::default_cache_dir();
  if (o.sim_shards <= 0) o.sim_shards = o.threads;
  if (o.async_workers <= 0) o.async_workers = o.threads;
  if (o.max_inflight == 0)
    o.max_inflight = 2 * static_cast<size_t>(o.async_workers);
  return o;
}

/// Cap on a requested writeback delay: 8x the paper's largest §6.3 point,
/// so a wrapped wire value cannot pin a worker for the max_cycles guard.
constexpr uint32_t kMaxWritebackDelay = 64;

Status check_sim_request(const SimRequest& req) {
  const uint32_t wb = req.compression ? req.compression->writeback_delay : 0;
  if (wb <= kMaxWritebackDelay) return Status::Ok();
  return Status::InvalidArgument("writeback_delay " + std::to_string(wb) +
                                 " exceeds " +
                                 std::to_string(kMaxWritebackDelay) +
                                 " cycles");
}

/// A campaign's points in index order: point i sweeps axis value i / per
/// (a fault density or a flip rate) with the i-th draw of a splitmix64
/// stream off the base seed, so a campaign reruns the exact same fault
/// maps / flip traces on every schedule.
struct Sweep {
  const std::vector<double>& axis;
  uint64_t per;
  uint64_t base_seed;

  explicit Sweep(const JobRequest& r)
      : axis(r.kind == JobKind::kFaultCampaign ? r.campaign.densities
                                               : r.transient.flip_rates),
        per(uint64_t(std::max(1, r.kind == JobKind::kFaultCampaign
                                     ? r.campaign.maps_per_density
                                     : r.transient.seeds_per_rate))),
        base_seed(r.kind == JobKind::kFaultCampaign ? r.campaign.base_seed
                                                    : r.transient.base_seed) {}

  uint64_t points() const { return axis.size() * per; }
  double value(uint64_t i) const { return axis[i / per]; }
  uint64_t seed(uint64_t i) const {
    uint64_t state = base_seed + i * 0x9e3779b97f4a7c15ULL;  // before draw i
    return splitmix64(state);
  }
};

std::string campaign_name(const JobRequest& r) {
  return (r.kind == JobKind::kFaultCampaign ? "fault campaign '"
                                            : "transient campaign '") +
         r.workload + "'";
}

/// The request checks that need no workload; a campaign's point count
/// must also fit the int progress counters.
Status check_job_request(const JobRequest& req) {
  if (!job_kind_campaign(req.kind)) return check_sim_request(req.sim);
  const bool fault = req.kind == JobKind::kFaultCampaign;
  const uint64_t points = Sweep(req).points();
  if (points > uint64_t(std::numeric_limits<int>::max()))
    return Status::InvalidArgument("campaign of " + std::to_string(points) +
                                   " points overflows int");
  return check_sim_request(fault ? req.campaign.sim : req.transient.sim);
}

/// The campaign checks beyond check_job_request.  Faults live in the
/// compressed register file; any mode suits a transient campaign.
Status check_campaign(const JobRequest& req) {
  const bool fault = req.kind == JobKind::kFaultCampaign;
  if (fault && req.campaign.sim.mode == workloads::SimMode::kOriginal)
    return Status::InvalidArgument(
        campaign_name(req) + " requires a compressed mode (perfect|high)");
  if (Sweep(req).axis.empty())
    return Status::InvalidArgument(
        campaign_name(req) +
        (fault ? " has no density points" : " has no flip-rate points"));
  return Status::Ok();
}

/// Point i's simulation: the campaign's template with its fault map or
/// flip process stamped on.
SimRequest point_request(const JobRequest& r, uint64_t i) {
  const Sweep sweep(r);
  if (r.kind == JobKind::kTransientCampaign) {
    SimRequest sr = r.transient.sim;
    sr.soft.flips_per_mcycle = sweep.value(i);
    sr.soft.seed = sweep.seed(i);
    return sr;
  }
  SimRequest sr = r.campaign.sim;
  sr.fault = {sweep.seed(i), sweep.value(i)};
  return sr;
}

/// Map a cooperative stop to the Status the serving layer reports.
Status stop_status(const common::CancelledError& e, const std::string& what) {
  return e.reason() == common::StopReason::kDeadline
             ? Status::DeadlineExceeded(what + ": " + e.what())
             : Status::Cancelled(what + ": " + e.what());
}

/// The Status of the exception being handled, for a public entry point's
/// `catch (...)`, so none lets an exception escape.  A cooperative stop
/// maps to kCancelled / kDeadlineExceeded; gpurf::Error, the core's
/// recoverable, input-dependent tier (GPURF_CHECK: e.g. a workload whose
/// metric fails at full precision), to FailedPrecondition; anything else
/// escaping the core to Internal.  GPURF_ASSERT (state corruption) still
/// aborts by design.  The message reads "<verb> '<name>': <what>".
Status exception_status(std::string_view verb, std::string_view name) {
  const std::string what =
      std::string(verb) + " '" + std::string(name) + "'";
  try {
    throw;
  } catch (const common::CancelledError& e) {
    return stop_status(e, what);
  } catch (const Error& e) {
    return Status::FailedPrecondition(what + ": " + e.what());
  } catch (const std::exception& e) {
    return Status::Internal(what + ": " + e.what());
  }
}

/// Terminal JobState matching a terminal Status.
JobState terminal_state_for(const Status& st) {
  switch (st.code()) {
    case StatusCode::kCancelled: return JobState::kCancelled;
    case StatusCode::kDeadlineExceeded: return JobState::kDeadlineExceeded;
    default: return JobState::kDone;  // success or ordinary failure
  }
}

uint64_t wall_us_since(detail::JobImpl::Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          detail::JobImpl::Clock::now() - start)
          .count());
}

/// Write point i's outcome into a campaign result, growing the point
/// list to hold it.
template <class Result>
auto& record_point(std::optional<Result>& res, const JobRequest& r,
                   uint64_t i, const StatusOr<sim::SimResult>& sr) {
  if (!res) res.emplace().workload = r.workload;
  if (res->points.size() <= i) res->points.resize(i + 1);
  auto& pt = res->points[i];
  pt.seed = Sweep(r).seed(i);
  if (sr.ok()) {
    pt.cycles = sr->stats.cycles;
    pt.ipc = sr->stats.ipc();
  } else {
    pt.error = sr.status().to_string();
  }
  return pt;
}

void record_fault_point(detail::JobImpl& job, uint64_t i,
                        const StatusOr<sim::SimResult>& r) {
  FaultCampaignPoint& pt = record_point(job.campaign_result, job.req, i, r);
  pt.density = Sweep(job.req).value(i);
  if (r.ok()) {
    pt.fault = r->fault;
    pt.blocks_per_sm = r->occupancy.blocks_per_sm;
  }
}

void record_transient_point(detail::JobImpl& job, uint64_t i,
                            const StatusOr<sim::SimResult>& r) {
  TransientCampaignPoint& pt =
      record_point(job.transient_result, job.req, i, r);
  pt.flips_per_mcycle = Sweep(job.req).value(i);
  if (r.ok()) pt.soft = r->soft;
}

}  // namespace

Engine::Engine(EngineOptions opts)
    : opts_(resolve(std::move(opts))),
      pool_(opts_.threads),
      pipelines_({.use_disk_cache = opts_.use_disk_cache,
                  .cache_dir = opts_.cache_dir,
                  .tuner = {},
                  .stats = &pipeline_stats_}),
      registry_(workloads::make_all_workloads()) {}

Engine::~Engine() {
  {
    common::MutexLock lock(qmu_);
    stopping_ = true;
    qcv_.notify_all();
    slot_cv_.notify_all();
  }
  // The executors drain the queue, campaign points included, and exit.
  for (auto& t : executors_) t.join();
}

std::vector<std::string> Engine::workload_names() const {
  std::vector<std::string> names;
  names.reserve(registry_.size());
  for (const auto& w : registry_) names.push_back(w->spec().name);
  return names;
}

StatusOr<const workloads::Workload*> Engine::workload(
    std::string_view name) const {
  for (const auto& w : registry_)
    if (w->spec().name == name) return static_cast<const workloads::Workload*>(w.get());
  return Status::NotFound("unknown workload '" + std::string(name) +
                          "'; known: " + [this] {
                            std::string s;
                            for (const auto& w : registry_) {
                              if (!s.empty()) s += ", ";
                              s += w->spec().name;
                            }
                            return s;
                          }());
}

StatusOr<const workloads::PipelineResult*> Engine::pipeline_impl(
    const workloads::Workload& w, common::CancelToken* cancel) {
  common::ScopedPool scope(&pool_);
  try {
    // Tune-stage latency: the memo get covers the whole tuning path on a
    // miss and a map lookup on a hit, so memo hits show up directly as a
    // microsecond-bucket p50.
    const auto t0 = detail::JobImpl::Clock::now();
    const workloads::PipelineResult* pr = &pipelines_.get(w, cancel);
    metrics_.tune_hist.record_us(wall_us_since(t0));
    return pr;
  } catch (...) {
    return exception_status("pipeline", w.spec().name);
  }
}

StatusOr<const workloads::PipelineResult*> Engine::pipeline(
    const workloads::Workload& w) {
  return pipeline_impl(w, nullptr);
}

StatusOr<const workloads::PipelineResult*> Engine::pipeline(
    std::string_view name) {
  auto w = workload(name);
  if (!w.ok()) return w.status();
  return pipeline(**w);
}

StatusOr<workloads::PipelineResult> Engine::compute_pipeline(
    const workloads::Workload& w) {
  common::ScopedPool scope(&pool_);
  workloads::PipelineOptions opt = pipelines_.options();
  opt.use_disk_cache = false;
  try {
    return workloads::compute_pipeline(w, opt);
  } catch (...) {
    return exception_status("pipeline", w.spec().name);
  }
}

StatusOr<std::string> Engine::pipeline_json(std::string_view name) {
  auto pr = pipeline(name);
  if (!pr.ok()) return pr.status();
  return api::to_json(**pr);
}

StatusOr<sim::SimResult> Engine::simulate_impl(const workloads::Workload& w,
                                               const SimRequest& req,
                                               common::CancelToken* cancel) {
  if (req.variant >= w.num_sample_variants() &&
      req.scale == workloads::Scale::kSample)
    return Status::InvalidArgument(
        "variant " + std::to_string(req.variant) + " out of range for '" +
        w.spec().name + "'");
  if (Status st = check_sim_request(req); !st.ok()) return st;
  const bool inject = req.fault.density > 0.0;
  if (inject && req.mode == workloads::SimMode::kOriginal)
    return Status::InvalidArgument(
        "fault injection on '" + w.spec().name +
        "' requires a compressed mode (faults live in the compressed "
        "register file)");
  auto pr = pipeline_impl(w, cancel);
  if (!pr.ok()) return pr.status();

  common::ScopedPool scope(&pool_);
  try {
    if (cancel) {
      cancel->set_stage(common::JobStage::kSimulating);
      cancel->checkpoint();
    }
    auto inst = w.make_instance(req.scale, req.variant);
    auto spec = workloads::make_launch_spec(w, inst, **pr, req.mode);
    spec.soft = req.soft;
    const sim::CompressionConfig comp =
        req.compression ? *req.compression
                        : workloads::make_compression_config(req.mode);
    sim::SimOptions so;
    so.shards = opts_.sim_shards;
    // Static disjointness gate (ISSUE 10): multi-SM sharding executes all
    // blocks against one shared GlobalMemory, so it requires the sharded
    // memory contract (no cross-block reads, no overlapping stores).  The
    // contract is now proven per launch by the memory-access prover — or
    // waived by the workload spec — instead of assumed; unproven kernels
    // fall back to the bit-identical serial schedule (SimStats are
    // shard-count-invariant, so the clamp never changes results).
    if (so.shards > 1 && !w.mem_proofs(inst)->shard_ok)
      so.shards = 1;

    if (!inject) {
      const auto t0 = detail::JobImpl::Clock::now();
      sim::SimResult result = sim::simulate(opts_.gpu, comp, spec, cancel, so);
      metrics_.sim_hist.record_us(wall_us_since(t0));
      return result;
    }

    // Fault injection (PR 6): generate the deterministic map, re-run the
    // slice allocator fault-aware (redirection; it throws when an operand
    // fits nowhere) and swap the launch's allocation for the redirected
    // one.  The memoized pipeline stays untouched — fault-free requests
    // keep serving its bit-identical allocation.
    const rf::FaultMap fm =
        rf::FaultMap::generate(req.fault.seed, req.fault.density);
    const auto& tune = req.mode == workloads::SimMode::kCompressedPerfect
                           ? (*pr)->tune_perfect
                           : (*pr)->tune_high;
    alloc::AllocOptions aopt;
    aopt.faults = &fm;
    const alloc::AllocationResult fa = alloc::allocate_slices(
        w.kernel(), &(*pr)->ranges, &tune.pmap, aopt);
    spec.allocation = &fa;
    spec.regs_per_thread = fa.num_physical_regs;

    const auto sim_t0 = detail::JobImpl::Clock::now();
    sim::SimResult result = sim::simulate(opts_.gpu, comp, spec, cancel, so);
    metrics_.sim_hist.record_us(wall_us_since(sim_t0));
    sim::FaultInjectionReport& rep = result.fault;
    rep.active = true;
    rep.seed = req.fault.seed;
    rep.density = fm.density();
    rep.faults_total = static_cast<uint32_t>(fm.num_faults());
    rep.faults_in_footprint = fa.faulty_slices_avoided;
    rep.registers_redirected = fa.registers_redirected;
    return result;
  } catch (...) {
    return exception_status("simulate", w.spec().name);
  }
}

StatusOr<sim::SimResult> Engine::simulate(const workloads::Workload& w,
                                          const SimRequest& req) {
  return simulate_impl(w, req, nullptr);
}

StatusOr<sim::SimResult> Engine::simulate(std::string_view name,
                                          const SimRequest& req) {
  auto w = workload(name);
  if (!w.ok()) return w.status();
  return simulate(**w, req);
}

StatusOr<ir::Kernel> Engine::parse_kernel(std::string_view asm_text) const {
  try {
    return ir::parse_kernel(asm_text);
  } catch (const Error& e) {
    return Status::InvalidArgument(std::string("parse: ") + e.what());
  }
}

Status Engine::verify_kernel(const ir::Kernel& k,
                             bool allow_undefined_reads) const {
  try {
    ir::verify(k);
    if (!allow_undefined_reads) {
      // Dataflow enforcement (PR 9): surface entry-live-in registers as
      // verification failures instead of silently reading zeros.
      const auto cfg = analysis::build_cfg(k);
      const auto live = analysis::compute_liveness(k, cfg);
      if (!live.undefined_uses.empty()) {
        std::string msg = std::string("verify '") + k.name +
                          "': undefined register read:";
        for (uint32_t r : live.undefined_uses)
          msg += std::string(" %") + k.regs[r].name;
        msg += " (use Engine::analyze for the full report, or "
               "allow_undefined_reads to bypass)";
        return Status::FailedPrecondition(msg);
      }
    }
    return Status::Ok();
  } catch (...) {
    return exception_status("verify", k.name);
  }
}

StatusOr<analysis::KernelReport> Engine::analyze(const ir::Kernel& k) {
  try {
    const auto cfg = analysis::build_cfg(k);
    analysis::KernelReport rep = analysis::build_kernel_report(
        k, cfg, analysis::compute_dataflow(k, cfg));
    rep.alloc_pressure = alloc::baseline_pressure(k);
    // Static memory section without instance context: shared-memory OOB
    // classification only (gmem_words = 0), no footprint solves — a bare
    // kernel has no meaningful grid to prove disjointness over.
    analysis::MemoryAccessOptions mo;
    mo.footprints = false;
    const auto ma = analysis::analyze_memory_accesses(k, ir::LaunchConfig{}, mo);
    const uint64_t shw = analysis::shared_words(k);
    analysis::apply_memory_findings(rep, ma, analysis::prove_in_bounds(ma, 0, shw),
                                    0, shw, /*waived=*/false);
    return rep;
  } catch (...) {
    return exception_status("analyze", k.name);
  }
}

StatusOr<analysis::KernelReport> Engine::analyze(const workloads::Workload& w) {
  auto rep = analyze(w.kernel());
  if (!rep.ok()) return rep;
  try {
    // Re-classify with full instance context: the sample instance's launch
    // geometry, parameter words and memory image are exactly what replay
    // runs against, so the findings and verdicts describe real executions.
    auto inst = w.make_instance(workloads::Scale::kSample, 0);
    const auto proofs = w.mem_proofs(inst);
    analysis::apply_memory_findings(
        *rep, proofs->mem, proofs->proven, proofs->gmem_words,
        analysis::shared_words(w.kernel()), w.spec().assume_disjoint);
  } catch (...) {
    return exception_status("analyze", w.spec().name);
  }
  return rep;
}

StatusOr<analysis::KernelReport> Engine::analyze(std::string_view name) {
  auto w = workload(name);
  if (!w.ok()) return w.status();
  return analyze(**w);
}

StatusOr<tuning::TuneResult> Engine::tune(const ir::Kernel& k,
                                          tuning::QualityProbe& probe,
                                          quality::QualityLevel level) {
  common::ScopedPool scope(&pool_);
  tuning::TunerOptions topt;
  topt.level = level;
  try {
    return tuning::tune_precision(k, probe, topt);
  } catch (...) {
    return exception_status("tune", k.name);
  }
}

// ----------------------------------------------------------------- Job API

void Engine::ensure_executor() {
  common::MutexLock lock(qmu_);
  if (executor_started_) return;
  executor_started_ = true;
  executors_.reserve(static_cast<size_t>(opts_.async_workers));
  for (int t = 0; t < opts_.async_workers; ++t)
    executors_.emplace_back([this] { executor_loop(); });
}

Job Engine::submit(JobRequest req) {
  auto impl = std::make_shared<detail::JobImpl>();
  impl->req = std::move(req);
  impl->submitted_at = detail::JobImpl::Clock::now();
  std::optional<detail::JobImpl::Clock::time_point> deadline;
  if (impl->req.deadline_ms > 0) {
    deadline = impl->submitted_at +
               std::chrono::milliseconds(impl->req.deadline_ms);
    impl->token.set_deadline(*deadline);
  }
  ensure_executor();

  // A campaign that cannot run comes back already terminal and takes no
  // slot; a valid one is one queue entry holding all its points.
  Status refused;
  if (job_kind_campaign(impl->req.kind)) {
    refused = check_request(impl->req);
    if (refused.ok()) refused = check_campaign(impl->req);
    if (refused.ok()) {
      impl->points = Sweep(impl->req).points();
      impl->token.campaign_maps_total.store(static_cast<int>(impl->points),
                                            std::memory_order_relaxed);
    }
  }
  // A job cancelled while queued frees its slot at once.  Whichever of
  // this listener and the executor that pops the job comes first drops
  // the queue entry, releases the slot and counts the job.
  impl->add_listener([this, job = impl.get()] {
    {
      common::MutexLock lock(qmu_);
      const auto it = std::find_if(
          queue_.begin(), queue_.end(),
          [&](const auto& q) { return q.get() == job; });
      if (it == queue_.end() || job->points_handed > 0) return;
      queue_.erase(it);
      --inflight_;
      slot_cv_.notify_one();
    }
    metrics_.record_terminal(terminal_state_for(job->status), false,
                             wall_us_since(job->submitted_at));
  });

  {
    common::MutexLock lock(qmu_);
    metrics_.jobs_submitted.fetch_add(1, std::memory_order_relaxed);
    // Bounded in-flight set.  Without a deadline this is pure
    // backpressure (block until a slot frees, as before).  With one, the
    // wait gives up at the deadline — the request's time budget covers
    // queue admission too, so a saturated Engine sheds late work instead
    // of blocking its callers indefinitely (ISSUE 4 satellite).
    // (The predicate runs with qmu_ held inside the wait; it is a separate
    // function to the thread safety analysis, hence the opt-out.)
    auto has_slot = [&]() GPURF_NO_THREAD_SAFETY_ANALYSIS {
      return stopping_ || inflight_ < opts_.max_inflight;
    };
    if (refused.ok() && deadline &&
        !slot_cv_.wait_until(lock.native(), *deadline, has_slot))
      refused = Status::DeadlineExceeded(
          "no in-flight slot before the deadline (queue full)");
    else if (refused.ok() && !deadline)
      slot_cv_.wait(lock.native(), has_slot);
    GPURF_CHECK(!stopping_, "submit on a stopping Engine");
    impl->id = next_job_id_++;
    evict_terminal_jobs_locked();
    jobs_[impl->id] = impl;
    if (refused.ok()) {
      ++inflight_;
      queue_.push_back(impl);
      qcv_.notify_one();
    }
  }
  if (!refused.ok()) {
    const JobState terminal = terminal_state_for(refused);
    metrics_.record_terminal(terminal, false,
                             wall_us_since(impl->submitted_at));
    impl->finalize(terminal, std::move(refused));
  }
  return Job(impl);
}

Status Engine::check_request(const JobRequest& req) const {
  if (auto w = workload(req.workload); !w.ok()) return w.status();
  return check_job_request(req);
}

StatusOr<Job> Engine::find_job(uint64_t id) const {
  common::MutexLock lock(qmu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    return Status::NotFound("no job with id " + std::to_string(id));
  return Job(it->second);
}

void Engine::evict_terminal_jobs_locked() {
  if (jobs_.size() < kMaxRetainedJobs) return;
  std::vector<uint64_t> terminal_ids;
  for (const auto& [id, j] : jobs_) {
    std::lock_guard<std::mutex> lk(j->mu);
    if (job_state_terminal(j->state)) terminal_ids.push_back(id);
  }
  std::sort(terminal_ids.begin(), terminal_ids.end());
  // Evict in a batch (down to 3/4 of the cap, oldest first) so a daemon
  // sitting at the cap does not pay the full registry scan on every
  // subsequent submit.
  const size_t target = kMaxRetainedJobs - kMaxRetainedJobs / 4;
  for (uint64_t id : terminal_ids) {
    if (jobs_.size() <= target) break;
    jobs_.erase(id);
  }
}

void Engine::finish_job(detail::JobImpl& job, Status st) {
  const JobState terminal = terminal_state_for(st);
  // Ordering contract for observers woken by finalize(): the slot is
  // released first (inflight() == 0 once every waited-on job is terminal)
  // and the metrics are recorded first (a wait() that returned sees this
  // job in the terminal-state counters).
  {
    common::MutexLock lock(qmu_);
    --inflight_;
    slot_cv_.notify_one();
  }
  metrics_.record_terminal(terminal, st.ok(), wall_us_since(job.submitted_at));
  job.finalize(terminal, std::move(st));
}

void Engine::run_job(detail::JobImpl& job) {
  Status st;
  auto w = workload(job.req.workload);
  if (!w.ok()) {
    st = w.status();
  } else if (job.req.kind == JobKind::kPipeline) {
    auto pr = pipeline_impl(**w, &job.token);
    if (pr.ok()) {
      // Value snapshot: the job owns its result independently of the
      // Engine's memo (readers may outlive the Engine).  Written before
      // finalize(), whose lock hand-off publishes it to readers.
      job.pipeline_result = **pr;
    } else {
      st = pr.status();
    }
  } else {
    auto sr = simulate_impl(**w, job.req.sim, &job.token);
    if (sr.ok()) {
      job.sim_result = std::move(sr).value();
    } else {
      st = sr.status();
    }
  }
  finish_job(job, std::move(st));
}

void Engine::run_point(detail::JobImpl& job, uint64_t i) {
  // The workload was checked at submit.
  const StatusOr<sim::SimResult> r = simulate_impl(
      **workload(job.req.workload), point_request(job.req, i), &job.token);
  settle_points(job, i, 1, &r);
}

void Engine::settle_points(detail::JobImpl& job, uint64_t i, uint64_t n,
                           const StatusOr<sim::SimResult>* r) {
  for (;;) {
    bool last = false;
    bool stopped = false;
    {
      std::lock_guard<std::mutex> lock(job.mu);
      if (r && terminal_state_for(r->status()) != JobState::kDone)
        job.points_stopped = true;  // the campaign's token stopped it
      else if (r && !job.points_stopped)
        (job.req.kind == JobKind::kFaultCampaign
             ? record_fault_point
             : record_transient_point)(job, i, *r);
      job.points_done += n;
      last = job.points_done == job.points;
      stopped = job.points_stopped;
    }
    job.token.campaign_maps_done.fetch_add(static_cast<int>(n),
                                           std::memory_order_relaxed);
    if (last) break;
    if (!stopped) return;
    {
      // A stop skips every point not handed out yet.
      common::MutexLock lock(qmu_);
      n = job.points - job.points_handed;
      if (n == 0) return;
      job.points_handed = job.points;
      queue_.erase(std::find_if(
          queue_.begin(), queue_.end(),
          [&](const auto& q) { return q.get() == &job; }));
    }
    r = nullptr;
  }
  Status st;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    if (job.points_stopped) {
      // A stopped campaign reports the stop, not a partial sweep.
      st = stop_status(common::CancelledError(job.token.stop_reason()),
                       campaign_name(job.req));
      job.campaign_result.reset();
      job.transient_result.reset();
    }
  }
  finish_job(job, std::move(st));
}

void Engine::executor_loop() {
  for (;;) {
    std::shared_ptr<detail::JobImpl> job;
    uint64_t point = 0;
    bool started = true;
    {
      common::MutexLock lock(qmu_);
      qcv_.wait(lock.native(), [&]() GPURF_NO_THREAD_SAFETY_ANALYSIS {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping, queue drained
      // Highest priority first; FIFO (lowest id) within a level.  The
      // queue is short-lived and bounded by max_inflight, so a linear
      // scan beats heap bookkeeping.
      size_t best = 0;
      for (size_t i = 1; i < queue_.size(); ++i) {
        const auto& a = *queue_[i];
        const auto& b = *queue_[best];
        if (a.req.priority > b.req.priority ||
            (a.req.priority == b.req.priority && a.id < b.id))
          best = i;
      }
      // Each pop hands out one point, in index order (any other job is
      // one point).  The entry leaves the queue with its last point and
      // until then wakes another idle executor, so idle workers run a
      // campaign's points side by side.  A job starts with its first
      // point, under this lock, so a job that never started never hands
      // out a later one.
      job = queue_[best];
      point = job->points_handed;
      if (point == 0) started = job->start_running(next_run_seq_++);
      job->points_handed = started ? point + 1 : job->points;
      if (job->points_handed == job->points)
        queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(best));
      else
        qcv_.notify_one();
    }

    if (!started) {
      // The job went terminal while queued or its token demands a stop
      // before any work started.  Once popped, the discard is this
      // executor's, not the submit-time listener's.
      finish_job(*job,
                 job->token.stop_reason() == common::StopReason::kDeadline
                     ? Status::DeadlineExceeded("deadline expired in queue")
                     : Status::Cancelled("cancelled while queued"));
    } else {
      // Queue-wait latency: submit -> the executor actually starting
      // the job (admission wait for a slot plus time parked in the queue).
      if (point == 0)
        metrics_.queue_wait_hist.record_us(wall_us_since(job->submitted_at));
      if (job_kind_campaign(job->req.kind))
        run_point(*job, point);
      else
        run_job(*job);
    }
  }
}

Status Engine::drain(int64_t budget_ms) {
  const auto deadline =
      detail::JobImpl::Clock::now() +
      std::chrono::milliseconds(budget_ms > 0 ? budget_ms : 0);
  std::vector<std::shared_ptr<detail::JobImpl>> live;
  {
    common::MutexLock lock(qmu_);
    live.reserve(jobs_.size());
    for (const auto& [id, j] : jobs_) live.push_back(j);
  }
  // Shed still-queued jobs immediately: drain means "finish what is
  // running, start nothing new".  (Their listeners free the slots.)
  for (auto& j : live)
    j->finalize(JobState::kCancelled,
                Status::Cancelled("cancelled by drain while queued"),
                /*only_if_queued=*/true);
  // Running jobs get the budget...
  size_t cancelled = 0;
  for (auto& j : live) {
    std::unique_lock<std::mutex> lk(j->mu);
    if (!j->cv.wait_until(lk, deadline,
                          [&] { return job_state_terminal(j->state); })) {
      lk.unlock();
      j->token.cancel();
      ++cancelled;
    }
  }
  // ...then the stragglers are cancelled cooperatively and we wait for
  // their next checkpoint, so the caller can destroy the Engine without
  // racing in-flight results.
  for (auto& j : live) {
    std::unique_lock<std::mutex> lk(j->mu);
    j->cv.wait(lk, [&] { return job_state_terminal(j->state); });
  }
  return cancelled == 0
             ? Status::Ok()
             : Status::DeadlineExceeded(
                   std::to_string(cancelled) +
                   " running job(s) cancelled at the drain budget");
}

size_t Engine::inflight() const {
  common::MutexLock lock(qmu_);
  return inflight_;
}

MetricsSnapshot Engine::metrics_snapshot() const {
  MetricsSnapshot m;
  m.pipeline_memo_hits =
      pipeline_stats_.memo_hits.load(std::memory_order_relaxed);
  m.pipeline_memo_misses =
      pipeline_stats_.memo_misses.load(std::memory_order_relaxed);
  m.disk_cache_hits =
      pipeline_stats_.disk_cache_hits.load(std::memory_order_relaxed);
  m.disk_cache_stale_rejections =
      pipeline_stats_.disk_cache_stale_rejections.load(
          std::memory_order_relaxed);
  m.disk_cache_write_failures =
      pipeline_stats_.disk_cache_write_failures.load(
          std::memory_order_relaxed);
  m.disk_cache_disabled =
      pipeline_stats_.disk_cache_disabled.load(std::memory_order_relaxed) ? 1
                                                                          : 0;
  {
    common::MutexLock lock(qmu_);
    // A campaign with points handed out is running, not queued.
    m.queue_depth = static_cast<uint64_t>(
        std::count_if(queue_.begin(), queue_.end(),
                      [](const auto& j) { return j->points_handed == 0; }));
    m.inflight = inflight_;
    m.jobs_running = inflight_ - m.queue_depth;
  }
  m.jobs_submitted = metrics_.jobs_submitted.load(std::memory_order_relaxed);
  m.jobs_done = metrics_.jobs_done.load(std::memory_order_relaxed);
  m.jobs_failed = metrics_.jobs_failed.load(std::memory_order_relaxed);
  m.jobs_cancelled = metrics_.jobs_cancelled.load(std::memory_order_relaxed);
  m.jobs_deadline_exceeded =
      metrics_.jobs_deadline_exceeded.load(std::memory_order_relaxed);
  m.job_wall_us_total =
      metrics_.job_wall_us_total.load(std::memory_order_relaxed);
  m.queue_wait = metrics_.queue_wait_hist.snapshot();
  m.tune = metrics_.tune_hist.snapshot();
  m.sim = metrics_.sim_hist.snapshot();
  return m;
}

std::string Engine::metrics_json() const {
  return api::to_json(metrics_snapshot());
}

}  // namespace gpurf
