#include "core/materialization_service.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "common/str_util.h"
#include "core/fault_retry.h"
#include "core/pool_manager.h"
#include "storage/fault_policy.h"

namespace deepsea {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CAS add — same idiom as exp/metrics.cc, avoiding C++20 atomic-float
/// fetch_add.
void AtomicAddDouble(std::atomic<double>* a, double delta) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + delta,
                                   std::memory_order_relaxed)) {
  }
}

}  // namespace

const double MaterializationService::kLatencyBucketBounds
    [MaterializationService::kLatencyBuckets] = {
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5};

MaterializationService::MaterializationService(PoolManager* pool,
                                               MaterializationConfig config)
    : pool_(pool), config_(config) {
  // workers == 0 is the manual-drain configuration: jobs queue until
  // DrainAll / Quiesce executes them on a caller's thread (tests use it
  // to observe queue buildup deterministically).
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MaterializationService::~MaterializationService() { Shutdown(); }

std::string MaterializationService::CoalesceKey(const SelectionDecision& d) {
  std::vector<std::string> keys;
  keys.reserve(d.actions.size());
  for (const SelectionAction& a : d.actions) {
    if (a.view == nullptr) continue;
    keys.push_back(StrFormat(
        "%d|%s|%s|%.17g|%d|%.17g|%d", static_cast<int>(a.kind),
        a.view->id.c_str(), a.part != nullptr ? a.part->attr.c_str() : "",
        a.interval.lo, a.interval.lo_inclusive ? 1 : 0, a.interval.hi,
        a.interval.hi_inclusive ? 1 : 0));
  }
  std::sort(keys.begin(), keys.end());
  std::string out;
  for (const std::string& k : keys) {
    out += k;
    out += ';';
  }
  return out;
}

void MaterializationService::Submit(MaterializationJob job) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    job.id = next_job_id_++;
    job.enqueued_ns = NowNs();
    // Coalesce: a queued intent with the same target set is superseded
    // by this fresher one (same pool mutations, newer statistics
    // basis). The replacement keeps the old queue position.
    if (!job.coalesce_key.empty()) {
      for (MaterializationJob& queued : queue_) {
        if (queued.coalesce_key == job.coalesce_key) {
          queue_bytes_ -= queued.admitted_bytes;
          queue_bytes_ += job.admitted_bytes;
          queued = std::move(job);
          coalesced_.fetch_add(1, std::memory_order_relaxed);
          queue_cv_.notify_one();
          return;
        }
      }
    }
    queue_.push_back(std::move(job));
    queue_bytes_ += queue_.back().admitted_bytes;
    // Shed lowest-Φ-benefit first (possibly the job just queued) until
    // both bounds hold again. Never blocks the submitting query.
    const size_t max_jobs =
        config_.max_queue_jobs < 0 ? 0
                                   : static_cast<size_t>(config_.max_queue_jobs);
    while (queue_.size() > max_jobs || queue_bytes_ > config_.max_queue_bytes) {
      auto victim = queue_.begin();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->benefit_score < victim->benefit_score) victim = it;
      }
      queue_bytes_ -= victim->admitted_bytes;
      queue_.erase(victim);
      if (queue_.empty()) queue_bytes_ = 0.0;
      shed_.fetch_add(1, std::memory_order_relaxed);
    }
    notify = !queue_.empty();
  }
  if (notify) queue_cv_.notify_one();
}

void MaterializationService::DrainAll() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  MaterializationJob job;
  while (PopLocked(&job)) {
    ++active_jobs_;
    lock.unlock();
    ExecuteJob(std::move(job));
    lock.lock();
    --active_jobs_;
    if (active_jobs_ == 0) queue_cv_.notify_all();
  }
}

void MaterializationService::Quiesce() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  paused_ = true;
  queue_cv_.notify_all();
  // Workers finish their in-flight jobs and park; remaining jobs drain
  // on this thread, in queue order — deterministic when the caller is
  // the only submitting thread.
  queue_cv_.wait(lock, [this] { return active_jobs_ == 0; });
  MaterializationJob job;
  while (PopLocked(&job)) {
    ++active_jobs_;
    lock.unlock();
    ExecuteJob(std::move(job));
    lock.lock();
    --active_jobs_;
  }
  paused_ = false;
  lock.unlock();
  queue_cv_.notify_all();
}

void MaterializationService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // No concurrency left: drain the leftovers on this thread so no
  // accepted intent is silently lost.
  DrainAll();
}

void MaterializationService::WorkerLoop() {
#if defined(__linux__)
  // Background folds must lose every contest for a core against a
  // foreground query — otherwise on small machines a worker's
  // scheduler quantum lands directly in some query's tail latency.
  // nice 19 (weight ~1/60 of default) rather than SCHED_IDLE: workers
  // briefly hold per-view commit locks, and an idle-class lock holder
  // could be starved indefinitely by runnable foreground threads,
  // inverting the priority through the lock. Raising one's own nice
  // value needs no privilege; failure is harmless, so errors are
  // ignored.
  errno = 0;
  if (setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)),
                  19) != 0) {
    // Best effort only.
  }
#endif
  std::unique_lock<std::mutex> lock(queue_mu_);
  for (;;) {
    queue_cv_.wait(lock, [this] {
      return stop_ || (!paused_ && !queue_.empty());
    });
    if (stop_) return;
    MaterializationJob job;
    PopLocked(&job);
    ++active_jobs_;
    lock.unlock();
    ExecuteJob(std::move(job));
    lock.lock();
    --active_jobs_;
    if (active_jobs_ == 0) queue_cv_.notify_all();
  }
}

void MaterializationService::ExecuteJob(MaterializationJob job) {
  // Storage faults raised inside the job hit background-scoped rules
  // only (see fault_policy.h) — and never degrade a query: the issuing
  // query already answered.
  FaultScopeGuard scope(FaultScope::kBackground);

  // Revalidating commit entry. The sharded path validates inside
  // TryBeginShardedCommit; evictions take the exclusive lock (they move
  // the occupancy every tenant budgets against) and validate there. In
  // both cases the job's own stats publish (skip_seq) is exempt.
  bool conflict_genuine = false;
  CommitGuard commit;
  if (job.needs_exclusive) {
    commit = pool_->BeginCommit(job.observer, job.tenant, job.tenant_ord);
    if (!pool_->ValidateReadSet(commit, job.reval_fp, job.read_epoch,
                                &conflict_genuine, job.admitted_bytes,
                                job.skip_seq)) {
      // Stale intent: publish nothing, mutate nothing.
      pool_->SetCommitFootprint(commit, CommitFootprint());
      stale_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    CommitFootprint publish = job.write_fp;
    pool_->SetCommitFootprint(commit, std::move(publish));
  } else {
    commit = pool_->TryBeginShardedCommit(
        job.observer, job.tenant, job.tenant_ord, job.write_fp, job.reval_fp,
        job.read_epoch, &conflict_genuine, job.admitted_bytes, job.skip_seq);
    if (!commit.held()) {
      stale_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  // The job executes at the issuing query's timestamp — background
  // commits do not advance the commit clock (they are the deferred
  // tail of a query that already ticked it).
  QueryReport report;
  report.tenant_id = job.tenant;

  if (job.observer != nullptr) {
    job.observer->OnStageStart(EngineStage::kApply, *job.ctx);
  }
  const auto stage_start = std::chrono::steady_clock::now();
  // The job backs off exactly as the decision would have inline: same
  // helper, seeded from the issuing query's commit tick.
  const RetryOutcome out = RetryWithBackoff(
      [&] { return pool_->Apply(job.decision, *job.ctx, &report); },
      EngineStage::kApply, job.observer, job.tenant, report.fault_view,
      pool_->options().fault, job.t_now, job.tenant_ord);
  faults_.fetch_add(out.faults, std::memory_order_relaxed);
  retries_.fetch_add(out.retries, std::memory_order_relaxed);
  if (!out.status.ok()) {
    // Permanent fault (or transient retries exhausted): abandon the
    // intent. The pool is already rolled back; the failure feeds the
    // view's quarantine record but no OnDegrade fires — the issuing
    // query answered long ago and was not degraded by this.
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (!report.fault_view.empty()) {
      pool_->RecordViewFault(report.fault_view, job.t_now);
    }
  }
  if (job.observer != nullptr) {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      stage_start)
            .count();
    job.observer->OnStageEnd(EngineStage::kApply, *job.ctx,
                             report.materialize_seconds + out.backoff_seconds,
                             wall);
  }
  if (!out.status.ok()) return;

  executed_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&background_sim_seconds_,
                  report.materialize_seconds + out.backoff_seconds);
  const double latency =
      static_cast<double>(NowNs() - job.enqueued_ns) * 1e-9;
  latency_count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&latency_sum_seconds_, latency);
  int bucket = kLatencyBuckets;  // +Inf
  for (int i = 0; i < kLatencyBuckets; ++i) {
    if (latency <= kLatencyBucketBounds[i]) {
      bucket = i;
      break;
    }
  }
  latency_buckets_[static_cast<size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
}

MaterializationService::StatsSnapshot MaterializationService::stats() const {
  StatsSnapshot s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.stale_dropped = stale_dropped_.load(std::memory_order_relaxed);
  s.faults = faults_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.background_sim_seconds =
      background_sim_seconds_.load(std::memory_order_relaxed);
  s.latency_count = latency_count_.load(std::memory_order_relaxed);
  s.latency_sum_seconds = latency_sum_seconds_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < s.latency_buckets.size(); ++i) {
    s.latency_buckets[i] = latency_buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

size_t MaterializationService::QueueDepth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

double MaterializationService::QueueBytes() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_bytes_;
}

double MaterializationService::OldestAgeSeconds() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (queue_.empty()) return 0.0;
  // A coalesced replacement refreshes its slot's enqueue time, so the
  // front is not necessarily the oldest; the queue is small (bounded).
  int64_t oldest = queue_.front().enqueued_ns;
  for (const MaterializationJob& j : queue_) {
    oldest = std::min(oldest, j.enqueued_ns);
  }
  return static_cast<double>(NowNs() - oldest) * 1e-9;
}

bool MaterializationService::PopLocked(MaterializationJob* out) {
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  queue_bytes_ -= out->admitted_bytes;
  // += / -= accumulation drifts; an empty queue holds exactly zero.
  if (queue_.empty()) queue_bytes_ = 0.0;
  return true;
}

}  // namespace deepsea
