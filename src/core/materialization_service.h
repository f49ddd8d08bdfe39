#ifndef DEEPSEA_CORE_MATERIALIZATION_SERVICE_H_
#define DEEPSEA_CORE_MATERIALIZATION_SERVICE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/commit_footprint.h"
#include "core/engine_observer.h"
#include "core/engine_options.h"
#include "core/query_context.h"
#include "core/selection_planner.h"

namespace deepsea {

class PoolManager;

/// One queued decision intent: everything a background worker needs to
/// execute a query's SelectionDecision in its own commit, after the
/// query itself has answered. The job owns the query's context (whose
/// PlanningDelta was already folded by the query's stats commit), so
/// PoolManager::Apply can remap the decision's shadow partition
/// pointers and execute it unchanged.
struct MaterializationJob {
  uint64_t id = 0;
  /// The planning context; its delta is folded (the stats landed with
  /// the query's commit) and supplies the shadow->real partition map
  /// plus the fragment cover for repartitioning charges.
  std::unique_ptr<QueryContext> ctx;
  SelectionDecision decision;
  /// Pool writes the decision will perform (normalized; never `all`).
  CommitFootprint write_fp;
  /// Staleness revalidation read set: partition-structure reads on the
  /// decision's target partitions. Conflicts with every foreign
  /// structural change, materialization, or eviction on a target —
  /// but not with benign statistics traffic (hit appends, benefit
  /// patches), so intents survive repeated-template workloads.
  CommitFootprint reval_fp;
  /// The plan's read epoch, and the sequence number of the query's own
  /// stats publish (0 = the stats commit published nothing). The worker
  /// validates reval_fp against every footprint published after
  /// read_epoch except skip_seq: the job must not be invalidated by
  /// its own query's statistics.
  uint64_t read_epoch = 0;
  uint64_t skip_seq = 0;
  /// Upper bound on the decision's net pool growth (budget headroom
  /// claim at the job's commit: materialized minus evicted bytes) and
  /// the decision's knapsack benefit (shed priority: lowest first).
  double admitted_bytes = 0.0;
  double benefit_score = 0.0;
  /// Decisions containing evictions commit exclusively (they change the
  /// occupancy every tenant budgets against), like the inline path.
  bool needs_exclusive = false;
  /// Observer/tenant stamp of the issuing engine: background pool
  /// mutations and fault/retry events are attributed to the tenant
  /// whose query produced the intent.
  EngineObserver* observer = nullptr;
  std::string tenant;
  int32_t tenant_ord = 0;
  /// Commit clock of the issuing query (quarantine bookkeeping).
  int64_t t_now = 0;
  /// Canonical rendering of the decision's (kind, view, attr, range)
  /// set; jobs with equal keys coalesce (newest intent wins).
  std::string coalesce_key;
  int64_t enqueued_ns = 0;  ///< host enqueue time (latency histogram)
};

/// Bounded background materialization queue plus its worker pool (see
/// DESIGN.md, "Asynchronous materialization"). Robustness properties:
///
///  * Admission control, never backpressure-by-blocking: a full queue
///    (depth or byte bound) sheds the lowest-benefit intents —
///    possibly the incoming one — and duplicate intents targeting the
///    same view/range coalesce, so a churning pool cannot build
///    unbounded materialization debt and Submit never blocks a query.
///  * Staleness revalidation: a worker re-validates the job's
///    revalidation read set against the commit epoch table (skipping
///    the query's own stats publish) before folding; invalidated
///    intents are dropped, never half-applied.
///  * Fault isolation: job execution runs under
///    FaultScopeGuard(kBackground) with the shared
///    capped-exponential-backoff retry policy; permanent failures
///    quarantine the target view via RecordViewFault without ever
///    degrading a query.
///  * Deterministic quiesce: Quiesce() pauses the workers, drains the
///    queue on the calling thread, and resumes — SaveState and engine
///    destruction use it so no intent is silently lost.
///
/// Accounting invariant (asserted by the tests and the TSan soak):
/// after a quiesce, submitted == executed + failed + shed + coalesced
/// + stale_dropped — no intent is lost or folded twice.
class MaterializationService {
 public:
  MaterializationService(PoolManager* pool, MaterializationConfig config);
  ~MaterializationService();  // Shutdown()

  MaterializationService(const MaterializationService&) = delete;
  MaterializationService& operator=(const MaterializationService&) = delete;

  /// Canonical coalesce key of a decision's target set.
  static std::string CoalesceKey(const SelectionDecision& d);

  /// kAsync submission: admission control (coalesce, shed) + enqueue +
  /// worker wakeup. Never blocks; a shed intent is dropped and counted.
  void Submit(MaterializationJob job);

  /// Executes queued jobs on the calling thread until the queue is
  /// empty (competing with any running workers). Safe outside commits.
  void DrainAll();

  /// Deterministic quiesce: pauses workers, waits for in-flight jobs,
  /// drains the queue on the calling thread, resumes workers. On
  /// return the queue is empty and no job is executing.
  void Quiesce();

  /// Stops and joins the workers, then drains leftovers on the calling
  /// thread. Idempotent; the destructor calls it.
  void Shutdown();

  // --- accounting (scrape-safe: atomics and short internal locks) ---

  static constexpr int kLatencyBuckets = 12;
  /// Upper bounds (seconds) of the enqueue-to-fold latency histogram;
  /// identical to MetricsObserver::kBucketBounds so the exporter can
  /// reuse its `le` labels. Index kLatencyBuckets is +Inf.
  static const double kLatencyBucketBounds[kLatencyBuckets];

  struct StatsSnapshot {
    int64_t submitted = 0;      ///< Submit intents
    int64_t executed = 0;       ///< folded into the pool
    int64_t failed = 0;         ///< permanent fault / retries exhausted
    int64_t shed = 0;           ///< dropped by admission control
    int64_t coalesced = 0;      ///< superseded by a newer same-target job
    int64_t stale_dropped = 0;  ///< revalidation found the pool moved on
    int64_t faults = 0;         ///< failed background Apply attempts
    int64_t retries = 0;        ///< transient-fault retries
    double background_sim_seconds = 0.0;  ///< simulated seconds folded
    /// Host-clock enqueue-to-fold latency histogram (executed jobs).
    int64_t latency_count = 0;
    double latency_sum_seconds = 0.0;
    std::array<uint64_t, kLatencyBuckets + 1> latency_buckets{};
  };
  StatsSnapshot stats() const;

  size_t QueueDepth() const;
  double QueueBytes() const;
  /// Host age in seconds of the oldest queued job (0 when empty).
  double OldestAgeSeconds() const;

  const MaterializationConfig& config() const { return config_; }

 private:
  void WorkerLoop();
  /// Pops one job (nullptr-equivalent: returns false) — caller executes
  /// outside queue_mu_.
  bool PopLocked(MaterializationJob* out);
  /// Executes one job: revalidating commit, retry loop, accounting.
  void ExecuteJob(MaterializationJob job);

  PoolManager* pool_;
  MaterializationConfig config_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<MaterializationJob> queue_;
  double queue_bytes_ = 0.0;
  uint64_t next_job_id_ = 1;
  bool stop_ = false;
  bool paused_ = false;
  int active_jobs_ = 0;  ///< jobs currently executing (workers + drains)
  std::vector<std::thread> workers_;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> executed_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> coalesced_{0};
  std::atomic<int64_t> stale_dropped_{0};
  std::atomic<int64_t> faults_{0};
  std::atomic<int64_t> retries_{0};
  std::atomic<double> background_sim_seconds_{0.0};
  std::atomic<int64_t> latency_count_{0};
  std::atomic<double> latency_sum_seconds_{0.0};
  std::array<std::atomic<uint64_t>, kLatencyBuckets + 1> latency_buckets_{};
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_MATERIALIZATION_SERVICE_H_
