#ifndef DEEPSEA_CORE_ENGINE_OPTIONS_H_
#define DEEPSEA_CORE_ENGINE_OPTIONS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "core/decay.h"
#include "core/merge.h"
#include "core/mle_model.h"
#include "core/policy.h"
#include "core/selection_strategy.h"
#include "exec/executor.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"

namespace deepsea {

/// Retry and degradation policy for storage faults (see DESIGN.md,
/// "Failure model and recovery"). Materialization is a best-effort
/// optimization: when a decision cannot be applied, the engine answers
/// the query from whatever is already materialized — a fault must never
/// take query answering down with it.
struct FaultHandlingConfig {
  /// Additional attempts for a decision that failed with a transient
  /// fault (StatusCode::kUnavailable). Each attempt re-executes the
  /// whole decision against the rolled-back pool. 0 disables retry.
  int max_retries = 2;
  /// Simulated seconds charged per retry (models backoff + job
  /// re-queue). 0 keeps retried queries' charged time unchanged.
  /// Base delay of the shared capped-exponential-backoff helper
  /// (common/backoff.h); the defaults below make every retry charge
  /// exactly this value, bit-identical to the historical fixed backoff.
  double retry_backoff_seconds = 0.0;
  /// Growth factor per retry: retry k charges base * multiplier^k
  /// (before cap and jitter). 1 = fixed backoff (historical behavior).
  double retry_backoff_multiplier = 1.0;
  /// Upper bound on a single retry's charged delay. Infinite = no cap.
  double retry_backoff_cap_seconds =
      std::numeric_limits<double>::infinity();
  /// Deterministic jitter half-width in [0, 1): each delay is spread
  /// over +/- this fraction by a pure function of (seed, retry), so
  /// jittered runs still replay bit-identically. 0 = no jitter.
  double retry_jitter_fraction = 0.0;
  /// Permanent decision failures attributed to one view before the view
  /// is quarantined (SelectionPlanner stops proposing it). <= 0
  /// disables quarantine.
  int quarantine_threshold = 3;
  /// Commits after which a quarantined view becomes proposable again.
  int64_t quarantine_cooldown_commits = 50;

  /// This policy's retry-delay parameters as the shared backoff
  /// helper's config (RetryWithBackoff, core/fault_retry.h, builds its
  /// DeterministicBackoff from it).
  BackoffConfig Backoff() const {
    BackoffConfig b;
    b.base_seconds = retry_backoff_seconds;
    b.multiplier = retry_backoff_multiplier;
    b.cap_seconds = retry_backoff_cap_seconds;
    b.jitter_fraction = retry_jitter_fraction;
    return b;
  }
};

/// Background materialization service (see DESIGN.md, "Asynchronous
/// materialization"). Decouples a query's *decision intent* from its
/// execution: the query commits its statistics and answers from the
/// current pool, while the decision is folded in later by the service —
/// through the same staged transaction, retry/quarantine, and sharded
/// commit machinery the inline path uses.
struct MaterializationConfig {
  enum class Mode {
    /// Decisions execute inside the query's commit (historical
    /// behavior; the service is never constructed).
    kInline = 0,
    /// Decisions are enqueued as background jobs; `workers` threads
    /// drain the queue through sharded commits with staleness
    /// revalidation. workers == 0 queues without draining (tests call
    /// DrainAll() / Quiesce() explicitly at deterministic points).
    kAsync,
  };
  Mode mode = Mode::kInline;
  /// Background worker threads (kAsync only).
  int workers = 1;
  /// Hard queue depth bound: admission sheds the lowest-benefit jobs
  /// (possibly the incoming one) once the queue is full. Never blocks.
  int max_queue_jobs = 64;
  /// Hard bound on the summed admitted (estimated materialization)
  /// bytes of queued jobs. Infinite = depth bound only.
  double max_queue_bytes = std::numeric_limits<double>::infinity();
};

/// All knobs of a DeepSea engine instance. Defaults are the paper's
/// DeepSea configuration; baselines are expressed by changing strategy
/// and/or value_model (see core/policy.h).
struct EngineOptions {
  StrategyKind strategy = StrategyKind::kDeepSea;
  ValueModel value_model = ValueModel::kDeepSea;

  /// S_max: pool size limit in bytes (infinite by default).
  double pool_limit_bytes = std::numeric_limits<double>::infinity();

  DecayConfig decay;
  MleConfig mle;
  /// DeepSea's fragment-correlation smoothing (Section 7.1); the Nectar
  /// value models never use it regardless of this flag.
  bool use_mle_smoothing = true;

  /// Allow overlapping fragments (Section 3 / 10.4). When false, every
  /// refinement splits the overlapped fragments (read + rewrite them).
  bool overlapping_fragments = true;

  /// Number of fragments for the EquiDepth strategy ("E-k").
  int equi_depth_fragments = 6;

  /// phi, the maximum fragment size relative to the view (Section 9,
  /// "Bounding Fragment Size"); <= 0 disables the upper bound.
  double max_fragment_fraction = 0.0;
  /// Enforce the file-system block size as fragment lower bound.
  bool enforce_block_lower_bound = true;

  /// When true, also execute queries over the physical sample data and
  /// materialize real view tables (correctness path). When false, only
  /// the cost model runs (fast; used by large experiments).
  bool physical_execution = false;

  EstimatorConfig estimator;
  ClusterConfig cluster;

  /// View admission threshold: materialize a view candidate when its
  /// accumulated benefit >= threshold * creation cost. The paper's
  /// filter uses 1.0; the default here is lower because our per-query
  /// saving estimates are conservative (they ignore reuse by other
  /// templates sharing the view). Set to ~0 to reproduce the paper's
  /// controlled sequences where the first query materializes.
  double benefit_cost_threshold = 0.5;

  /// Fragment refinement threshold: create a refinement fragment when
  /// hits * marginal read saving >= threshold * creation cost (the
  /// paper's P_sel filter uses 1.0). Kept separate from view admission
  /// so that benches forcing eager view creation do not also disable
  /// the repartitioning cost-benefit test.
  double fragment_benefit_threshold = 1.0;

  /// Histogram resolution for view partition-attribute histograms.
  int view_histogram_bins = 256;

  /// Materialized views are stored columnar-compressed (ORC-style), so
  /// their on-disk footprint is a fraction of the raw intermediate
  /// result's width. Applied to view sizes, fragment sizes, and the
  /// read/write costs that depend on them.
  double view_storage_compression = 0.6;

  /// Fragment-merging extension (paper Section 11 future work): merge
  /// adjacent fragments that are mostly accessed together. Off by
  /// default; see core/merge.h.
  MergeConfig merge;

  /// Storage-fault retry / degradation / quarantine policy.
  FaultHandlingConfig fault;

  /// Background materialization service (off — inline — by default).
  MaterializationConfig materialization;

  /// Which SelectionStrategy resolves the knapsack over ALLCAND, plus
  /// its tuning knobs (greedy by default — bit-identical to the
  /// historical inline scan). See core/selection_strategy.h and
  /// DESIGN.md, "Selection strategies".
  SelectionConfig selection;

  /// Fragment boundaries are snapped outward to a grid of this fraction
  /// of the attribute domain before candidate generation, so queries
  /// whose ranges jitter around the same hot region converge on one
  /// refinement fragment instead of spawning a near-duplicate per
  /// query. 0 disables snapping (exact Definition 7 endpoints).
  double candidate_snap_fraction = 0.005;
};

/// Per-query outcome of ProcessQuery.
struct QueryReport {
  /// Position of this query in the pool's total commit order (equals
  /// the engine-local query count for a single-tenant engine).
  int64_t query_index = 0;
  /// Tenant that issued the query ("" for a single-tenant engine).
  std::string tenant_id;
  /// Cost of the conventional (selection-pushed) plan with no views.
  double base_seconds = 0.0;
  /// Cost of the plan actually chosen (view-based or base).
  double best_seconds = 0.0;
  /// Overhead charged this query for view/fragment materialization and
  /// repartitioning.
  double materialize_seconds = 0.0;
  /// Total simulated time charged: best + materialize.
  double total_seconds = 0.0;

  /// True when the speculative shared-lock plan was invalidated by a
  /// concurrent commit and the query replanned under the exclusive
  /// lock (always false for a single-tenant or turnstile-serialized
  /// engine; see DESIGN.md, "Statistics hot path and locking
  /// discipline").
  bool replanned = false;
  /// Why: a foreign commit's write footprint actually intersected this
  /// plan's read footprint (genuine conflict) ...
  bool replan_conflict = false;
  /// ... or the bounded commit-epoch table could no longer cover the
  /// plan's read epoch and the engine invalidated conservatively.
  /// Exactly one of the two is set when `replanned` is.
  bool replan_spurious = false;
  /// Why this commit took the exclusive (X) path ("" = it committed
  /// sharded). One of: "merge" (merge pass enabled), "eviction"
  /// (decision evicts inline), "physical" (physical execution mutates
  /// the relational catalog), "new_view" / "catalog_put" /
  /// "index_insert" / "attach" (a replanned commit carrying that
  /// structural content — precedence in that order), "replan"
  /// (replanned, no structural content), "other". Since structural
  /// planning writes commit sharded by default, the structural reasons
  /// identify replan-forced exclusive commits that also create views —
  /// they should stay near zero on a healthy workload.
  std::string exclusive_reason;

  std::string used_view;             ///< view answering the query ("" = none)
  int fragments_read = 0;
  int64_t map_tasks = 0;             ///< map tasks of the executed plan
  std::vector<std::string> created_views;
  int created_fragments = 0;
  int evicted_fragments = 0;
  int merged_fragments = 0;          ///< merge-pass merges this query
  double pool_bytes_after = 0.0;

  // --- fault handling (all zero on a fault-free query) ---

  /// Decision-execution attempts that failed and were rolled back
  /// (Apply and merge pass, transient and permanent).
  int fault_count = 0;
  /// Rolled-back attempts that were retried (transient faults only).
  int retry_count = 0;
  /// True when a decision was abandoned: the query was still answered,
  /// from the best rewriting over already-materialized state (or base
  /// tables), but the planned pool reconfiguration did not happen.
  bool degraded = false;
  /// View whose action failed first in the last failed attempt ("" when
  /// fault-free or unattributed, e.g. a merge-pass write).
  std::string fault_view;
  /// Status string of the last fault ("" when fault-free).
  std::string fault_message;

  bool physically_executed = false;
  ExecResult physical;               ///< result rows (physical mode only)

  // --- selection-strategy telemetry (zero when selection never ran,
  //     e.g. Hive baseline; see core/selection_strategy.h) ---

  /// SelectionStrategyName of the strategy that resolved this query's
  /// knapsack ("" when the selection stage did not run).
  std::string selection_strategy;
  /// The resolved knapsack's objective value: summed Φ of every
  /// admitted item, kept pool content included (the quantity the
  /// never-worse local-search guarantee covers — not the decision's
  /// benefit_score, which counts admitted new content only).
  double selection_benefit = 0.0;
  /// Knapsack items the resolver ranked.
  int selection_candidates = 0;
  /// Local search: improving swaps applied.
  int selection_swaps = 0;
};

/// Aggregate counters across a workload run.
struct EngineTotals {
  double total_seconds = 0.0;
  double base_seconds = 0.0;
  double materialize_seconds = 0.0;
  int64_t map_tasks = 0;
  int64_t queries = 0;
  int64_t views_created = 0;
  int64_t fragments_created = 0;
  int64_t fragments_evicted = 0;
  int64_t fragments_merged = 0;
  int64_t queries_answered_from_views = 0;
  int64_t faults = 0;             ///< failed decision-execution attempts
  int64_t retries = 0;            ///< transient-fault retries
  int64_t queries_degraded = 0;   ///< queries whose decision was abandoned
  int64_t replans = 0;            ///< queries replanned under the X lock
  int64_t replans_conflict = 0;   ///< ... due to a genuine read-set conflict
  int64_t replans_spurious = 0;   ///< ... due to epoch-table coverage loss
  int64_t commits_sharded = 0;    ///< commits on the sharded (IX) path
  int64_t commits_exclusive = 0;  ///< commits on the exclusive (X) path
  double selection_benefit = 0.0; ///< summed knapsack objective values
  int64_t selection_swaps = 0;    ///< local-search swaps applied
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_ENGINE_OPTIONS_H_
