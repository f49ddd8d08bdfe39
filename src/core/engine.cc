#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/fault_retry.h"
#include "core/materialization_service.h"

namespace deepsea {

namespace {

/// Brackets one pipeline stage with observer notifications.
///
/// Timing contract (see EngineObserver in engine_observer.h): the
/// wall_seconds reported to OnStageEnd is measured *only while an
/// observer is attached*. That contract is enforced structurally here —
/// the single `observer_ == nullptr` boolean check below is the only
/// gate, and when it trips neither the constructor nor Finish() makes
/// any std::chrono call, so unobserved runs pay zero clock overhead and
/// attaching/detaching an observer cannot perturb the simulated-time
/// fields of QueryReport (asserted by pipeline_test.cc).
class StageScope {
 public:
  StageScope(EngineObserver* observer, EngineStage stage,
             const QueryContext& ctx)
      : observer_(observer), stage_(stage), ctx_(ctx) {
    if (observer_ != nullptr) {
      observer_->OnStageStart(stage_, ctx_);
      start_ = std::chrono::steady_clock::now();
    }
  }

  /// Ends the stage, reporting the simulated seconds it charged.
  void Finish(double sim_seconds) {
    if (observer_ == nullptr) return;  // the single unobserved-path check
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    observer_->OnStageEnd(stage_, ctx_, sim_seconds, wall);
    observer_ = nullptr;
  }

 private:
  EngineObserver* observer_;
  EngineStage stage_;
  const QueryContext& ctx_;
  std::chrono::steady_clock::time_point start_;
};

/// What a decision does to the pool, from one walk over its actions.
struct DecisionEffects {
  bool evicts = false;
  double materialized_bytes = 0.0;  ///< summed materialize-action sizes
  double evicted_bytes = 0.0;       ///< summed evict-action sizes
  /// The pool writes Apply will perform (not normalized). Complements
  /// PlanningDelta::CollectWriteFootprint (the statistics fold) with
  /// the materialize/evict mutations. `a.part` may point at a shadow
  /// partition — only its attr is read, which is the same string the
  /// folded real partition carries.
  CommitFootprint writes;
};

DecisionEffects EffectsOf(const SelectionDecision& decision) {
  DecisionEffects e;
  for (const SelectionAction& a : decision.actions) {
    const bool whole = a.kind == SelectionAction::Kind::kEvictWholeView ||
                       a.kind == SelectionAction::Kind::kMaterializeView;
    if (a.kind == SelectionAction::Kind::kEvictWholeView ||
        a.kind == SelectionAction::Kind::kEvictFragment) {
      e.evicts = true;
      e.evicted_bytes += a.size_bytes;
    } else {
      e.materialized_bytes += a.size_bytes;
    }
    if (a.view == nullptr) continue;
    e.writes.AddView(a.view->id);
    if (whole) {
      e.writes.AddPartition(a.view->id, "");
    } else if (a.part != nullptr) {
      e.writes.AddPartition(a.view->id, a.part->attr);
      e.writes.AddFragment(a.view->id, a.part->attr, a.interval);
    }
  }
  return e;
}

}  // namespace

DeepSeaEngine::DeepSeaEngine(Catalog* catalog, EngineOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      cluster_(options_.cluster),
      estimator_(&cluster_, catalog, options_.estimator),
      decay_(options_.decay),
      mle_(options_.mle),
      executor_(catalog),
      owned_pool_(std::make_unique<PoolManager>(catalog, &options_, &cluster_,
                                                &estimator_)),
      pool_(owned_pool_.get()) {
  InitStages();
}

DeepSeaEngine::DeepSeaEngine(Catalog* catalog, SharedPool* pool,
                             std::string tenant)
    : catalog_(catalog),
      options_(pool->options()),
      cluster_(options_.cluster),
      estimator_(&cluster_, catalog, options_.estimator),
      decay_(options_.decay),
      mle_(options_.mle),
      executor_(catalog),
      pool_(pool->pool()),
      tenant_(std::move(tenant)),
      tenant_ord_(pool_->InternTenant(tenant_)) {
  InitStages();
}

DeepSeaEngine::~DeepSeaEngine() {
  // Background jobs hold this engine's observer and QueryContext;
  // drain them while both are still alive. With a shared pool this
  // also drains other tenants' queued intents (their engines are still
  // alive — they quiesce again on their own destruction).
  if (pool_ != nullptr) pool_->QuiesceMaterialization();
}

void DeepSeaEngine::InitStages() {
  // The planners hold pointers into the pool's catalog / index; a brief
  // commit section proves exclusive access while we take them.
  CommitGuard commit = pool_->BeginCommit();
  ViewCatalog* stat = pool_->stat(commit);
  FilterTree* index = pool_->rewrite_index(commit);
  stat_ = stat;
  rewrite_planner_ =
      std::make_unique<RewritePlanner>(catalog_, &estimator_, stat, index);
  candidate_generator_ = std::make_unique<CandidateGenerator>(
      catalog_, &options_, &cluster_, stat, index, pool_);
  selection_planner_ = std::make_unique<SelectionPlanner>(
      catalog_, &options_, &cluster_, &decay_, &mle_, stat);
  reservation_ =
      std::make_unique<ViewIdReservation>(pool_->placeholder_counter());
}

Status DeepSeaEngine::RunPlanningStages(QueryContext* ctx, QueryReport* report,
                                        SelectionDecision* decision) {
  {
    StageScope stage(observer_, EngineStage::kRewrite, *ctx);
    DEEPSEA_RETURN_IF_ERROR(rewrite_planner_->PlanBase(ctx, report));
    if (options_.strategy != StrategyKind::kHive) {
      DEEPSEA_RETURN_IF_ERROR(rewrite_planner_->PlanBest(ctx, report));
    }
    stage.Finish(report->best_seconds);
  }
  if (options_.strategy == StrategyKind::kHive) return Status::OK();

  {
    StageScope stage(observer_, EngineStage::kCandidates, *ctx);
    // View candidates come from Q_best (Alg. 1 line 4): when the
    // query is answered from a view, the rewritten plan's subplans
    // are the candidates — so views that already serve the query are
    // not repeatedly re-offered — while partition candidates always
    // come from the query's selection contexts (they drive refinement
    // of the serving view).
    const PlanPtr candidate_plan =
        report->used_view.empty() ? ctx->query : ctx->executed_plan;
    candidate_generator_->RegisterViewCandidates(candidate_plan,
                                                 report->base_seconds, ctx);
    candidate_generator_->RegisterPartitionCandidates(ctx);
    stage.Finish(0.0);
  }
  {
    StageScope stage(observer_, EngineStage::kSelection, *ctx);
    // Label the context before the stage closes so stage observers can
    // attribute the selection latency to the strategy that ran.
    ctx->selection_strategy =
        SelectionStrategyName(options_.selection.kind);
    SelectionResolution res =
        selection_planner_->PlanSelection(*ctx, report->base_seconds);
    *decision = std::move(res.decision);
    report->selection_strategy = ctx->selection_strategy;
    report->selection_benefit = res.objective_value;
    report->selection_candidates = res.items_considered;
    report->selection_swaps = res.swaps_applied;
    stage.Finish(0.0);
  }
  return Status::OK();
}

Result<QueryReport> DeepSeaEngine::ProcessQuery(const PlanPtr& query) {
  QueryReport report;
  report.tenant_id = tenant_;
  SelectionDecision decision;
  std::unique_ptr<QueryContext> ctx;
  uint64_t read_epoch = 0;
  int64_t t_spec = 0;
  CommitFootprint write_fp;
  DecisionEffects effects;
  double admitted_bytes = 0.0;

  // Async eligibility: the merge pass and physical execution are
  // commit-coupled to the query (the merge mutates partition structure
  // the deferred decision was planned against; physical execution
  // reads the materialized views the decision creates), and Hive never
  // has a decision — those configurations execute inline regardless of
  // the configured mode.
  MaterializationService* mat_service = pool_->materialization_service();
  const bool async_mode =
      mat_service != nullptr &&
      options_.materialization.mode == MaterializationConfig::Mode::kAsync &&
      options_.strategy != StrategyKind::kHive && !options_.merge.enabled &&
      !options_.physical_execution;

  // Phase 1 — speculative planning under the shared lock. The stages
  // buffer every statistics/catalog write into the context's
  // PlanningDelta — recording the plan's read footprint as they go —
  // so concurrent tenants plan in parallel; the pool is read-only
  // here. The commit clock this query *will* get, assuming no other
  // commit intervenes, is clock()+1 — planning runs at that timestamp
  // so a validated plan is exactly the plan the serialized pipeline
  // would have produced.
  {
    auto shared = pool_->SharedLock();
    read_epoch = pool_->read_epoch();
    t_spec = pool_->clock() + 1;
    ctx = std::make_unique<QueryContext>(query, t_spec, tenant_, tenant_ord_);
    ctx->InitPlanning(*catalog_, stat_, *reservation_);
    if (observer_ != nullptr) observer_->OnQueryStart(t_spec, query, tenant_);
    DEEPSEA_RETURN_IF_ERROR(RunPlanningStages(ctx.get(), &report, &decision));
    // Collect the plan's write footprint before the shared lock drops:
    // outside it a foreign commit can mutate the shared partitions the
    // shadows were copied from (the snapshot comparisons inside
    // CollectWriteFootprint make this belt-and-braces, but the
    // footprint should describe the plan the lock certified).
    write_fp = ctx->delta()->CollectWriteFootprint();
    effects = EffectsOf(decision);
    if (!async_mode) {
      // Inline: the commit both folds the statistics and executes the
      // decision, so its footprint and budget claim cover both. In
      // async mode the commit is stats-only — the decision's writes and
      // byte claim travel with the background job instead.
      //
      // The claim is the budget headroom validated at commit entry. A
      // plan whose knapsack was uncontended drops its pool-sweep soft
      // reads, so concurrent occupancy growth is invisible to read-set
      // validation; without the claim two such plans could jointly
      // materialize past pool_limit_bytes. Decisions that evict promote
      // the sweep reads that already protect them (and net occupancy
      // down), so they claim 0.
      write_fp.Merge(effects.writes);
      admitted_bytes = effects.evicts ? 0.0 : effects.materialized_bytes;
    }
    write_fp.Normalize();
  }

  // Phase 2 — commit. Only work whose effects cannot be expressed as a
  // precise footprint takes the exclusive lock: the merge pass (may
  // touch any view), inline evictions (change the pool occupancy every
  // tenant's knapsack budgets against), and physical execution (writes
  // the relational catalog outside the pool's catalog mutex).
  // Everything else — *including view creation*, whose catalog/index
  // writes publish as precise signature sets and whose ids come from
  // the engine's placeholder reservation — tries the sharded path: IX
  // on the pool lock plus the commit shards of the write footprint,
  // validated by read-set conflict detection. A plan whose reads no
  // foreign commit touched commits as-is — concurrently with other
  // disjoint-footprint tenants; a conflicting plan replans under the
  // exclusive lock (stage observers see the stages a second time,
  // OnQueryStart is not re-fired). In async mode an eviction is
  // deferred with the decision, so its exclusivity travels with the
  // job, not this commit.
  const bool needs_exclusive = options_.merge.enabled ||
                               options_.physical_execution ||
                               (!async_mode && effects.evicts);

  CommitGuard commit;
  bool conflict_genuine = false;
  bool replan = false;
  bool sharded = false;
  if (!needs_exclusive) {
    commit = pool_->TryBeginShardedCommit(
        observer_, tenant_, tenant_ord_, std::move(write_fp),
        ctx->delta()->read_footprint(), read_epoch, &conflict_genuine,
        admitted_bytes);
    sharded = commit.held();
    replan = !sharded;
  }
  if (!commit.held()) {
    commit = pool_->BeginCommit(observer_, tenant_, tenant_ord_);
    if (!replan) {
      // Structural path: same read-set + budget-headroom validation,
      // under the exclusive lock (no in-flight sharded commits can
      // exist here).
      replan = !pool_->ValidateReadSet(commit, ctx->delta()->read_footprint(),
                                       read_epoch, &conflict_genuine,
                                       admitted_bytes);
    }
  }

  const int64_t t = pool_->Tick(commit);
  if (replan) {
    report = QueryReport();
    report.tenant_id = tenant_;
    report.replanned = true;
    report.replan_conflict = conflict_genuine;
    report.replan_spurious = !conflict_genuine;
    decision = SelectionDecision();
    // The replan reads current state under the exclusive lock; a
    // deferred decision built from it revalidates against publishes
    // after this point (nothing can publish while we hold X).
    read_epoch = pool_->read_epoch();
    ctx = std::make_unique<QueryContext>(query, t, tenant_, tenant_ord_);
    ctx->InitPlanning(*catalog_, stat_, *reservation_);
    DEEPSEA_RETURN_IF_ERROR(RunPlanningStages(ctx.get(), &report, &decision));
    effects = EffectsOf(decision);
  }
  // Under the sharded path a concurrent commit may have won a smaller
  // clock value; events planned at t_spec keep their timestamp (commit-
  // order independence is what lets disjoint commits run concurrently),
  // while the report records the actual commit position.
  report.query_index = t;

  if (!sharded) {
    // Attribute the exclusive commit (see QueryReport::exclusive_reason)
    // while the delta is still unfolded — Fold clears the structural
    // buffers the has_* probes read.
    const PlanningDelta& d = *ctx->delta();
    report.exclusive_reason =
        options_.merge.enabled                 ? "merge"
        : (!async_mode && effects.evicts)      ? "eviction"
        : options_.physical_execution          ? "physical"
        : d.has_new_views()                    ? "new_view"
        : d.has_deferred_puts()                ? "catalog_put"
        : d.has_deferred_index()               ? "index_insert"
        : d.has_attach_ops()                   ? "attach"
        : report.replanned                     ? "replan"
                                               : "other";
  }

  if (!sharded && !options_.merge.enabled) {
    // The exclusive commit publishes `all` by default; a validated (or
    // replanned) plan knows its precise writes — publish those instead
    // so disjoint in-flight plans of other tenants survive this commit.
    // (With the merge pass enabled the commit may touch any view, so
    // `all` stands. Collect before Apply folds the delta. In async mode
    // only the statistics fold happens in this commit — the decision's
    // writes publish with the background job's own commit.)
    CommitFootprint write_fp = ctx->delta()->CollectWriteFootprint();
    if (!async_mode) write_fp.Merge(effects.writes);
    write_fp.Normalize();
    pool_->SetCommitFootprint(commit, std::move(write_fp));
  }

  if (options_.strategy != StrategyKind::kHive && async_mode) {
    // Asynchronous handoff: this commit folds the statistics, publishes
    // its footprint early (so the job can carry the publish's seq as
    // its own-write exemption), and hands the decision to the
    // background service as a declarative intent. The query answers
    // now, from the current pool; the materialization work leaves the
    // query's critical path entirely.
    pool_->FoldPlanningDelta(commit, *ctx);
    const uint64_t own_seq = pool_->PublishCommitEarly(commit);
    if (!decision.empty()) {
      MaterializationJob job;
      // The decision walk ran before the fold gave this query's new
      // views their final ids; the job publishes under the final ids.
      job.write_fp = std::move(effects.writes);
      ctx->delta()->RemapFoldedIds(&job.write_fp);
      job.write_fp.Normalize();
      // Revalidate against partition-structure reads only: by the
      // conflict matrix (commit_footprint.h) these catch every foreign
      // merge/load, materialization, eviction, re-tracking or view
      // creation touching a target partition, while benign statistics
      // traffic (hit appends, benefit patches) passes through.
      job.reval_fp.partitions = job.write_fp.partitions;
      job.read_epoch = read_epoch;
      job.skip_seq = own_seq;
      // The job's revalidation set does not carry the plan's promoted
      // pool-sweep reads, so the byte claim is what keeps two jobs from
      // jointly materializing past pool_limit_bytes. Apply evicts before
      // it materializes, so materialize-minus-evict bounds the commit's
      // occupancy delta; a turnover decision claims 0 and always fits.
      job.admitted_bytes =
          std::max(0.0, effects.materialized_bytes - effects.evicted_bytes);
      job.benefit_score = decision.benefit_score;
      job.needs_exclusive = effects.evicts;
      job.observer = observer_;
      job.tenant = tenant_;
      job.tenant_ord = tenant_ord_;
      job.t_now = t;
      job.coalesce_key = MaterializationService::CoalesceKey(decision);
      job.decision = std::move(decision);
      job.ctx = std::move(ctx);
      mat_service->Submit(std::move(job));
    }
  } else if (options_.strategy != StrategyKind::kHive) {
    {
      StageScope stage(observer_, EngineStage::kApply, *ctx);
      // Apply restores the report to its pre-attempt image on failure,
      // so the fault/retry tallies and the backoff charge are added
      // once the retry loop resolves.
      const RetryOutcome out = RetryWithBackoff(
          [&] { return pool_->Apply(decision, *ctx, &report); },
          EngineStage::kApply, observer_, tenant_, report.fault_view,
          options_.fault, t, tenant_ord_);
      report.fault_count += out.faults;
      report.retry_count += out.retries;
      report.materialize_seconds += out.backoff_seconds;
      if (!out.status.ok()) {
        // Permanent fault, or transient retries exhausted: abandon the
        // decision. The pool is already rolled back; the query is
        // answered from whatever is materialized.
        report.degraded = true;
        if (!report.fault_view.empty()) {
          pool_->RecordViewFault(report.fault_view, t);
        }
        if (observer_ != nullptr) {
          observer_->OnDegrade(EngineStage::kApply, report.fault_view,
                               out.status, tenant_);
        }
      }
      stage.Finish(report.materialize_seconds);
    }

    // Maintenance: merge co-accessed adjacent fragments (Section 11
    // extension; disabled by default). Same retry treatment, but no
    // quarantine: merge faults are not attributable to a candidate view.
    if (options_.merge.enabled) {
      StageScope stage(observer_, EngineStage::kMerge, *ctx);
      double merge_seconds = 0.0;
      const RetryOutcome out = RetryWithBackoff(
          [&] {
            Result<double> seconds =
                pool_->RunMergePass(ctx->t_now(), decay_, &report);
            if (seconds.ok()) merge_seconds = *seconds;
            return seconds.status();
          },
          EngineStage::kMerge, observer_, tenant_, /*fault_view=*/"",
          options_.fault, t, tenant_ord_);
      report.fault_count += out.faults;
      report.retry_count += out.retries;
      merge_seconds += out.backoff_seconds;
      if (!out.status.ok()) {
        report.degraded = true;
        if (observer_ != nullptr) {
          observer_->OnDegrade(EngineStage::kMerge, "", out.status, tenant_);
        }
      }
      report.materialize_seconds += merge_seconds;
      stage.Finish(merge_seconds);
    }

    // When a view that feeds a selection of this query was created, the
    // query was executed in instrumented form: that selection is not
    // pushed below the materialized subquery, so the execution cost is
    // that of the original (non-pushed) plan; the partitioned write
    // cost has been charged to materialize_seconds by Apply.
    bool unpushed = false;
    for (const std::string& id : report.created_views) {
      for (const ViewCandidate& c : ctx->view_candidates) {
        if (c.view->id == id && c.under_select) unpushed = true;
      }
    }
    if (unpushed) {
      // Under a sharded commit a foreign fold can grow the relational
      // catalog concurrently; the estimator walks it, so read it under
      // the pool's catalog mutex (free of contention under X).
      auto catalog_lock = pool_->CatalogSharedLock();
      auto est = estimator_.Estimate(ctx->query);
      if (est.ok()) {
        report.best_seconds = est->seconds;
        report.map_tasks = est->map_tasks;
        ctx->executed_plan = ctx->query;
      }
    }
  }

  report.total_seconds = report.best_seconds + report.materialize_seconds;
  report.pool_bytes_after = pool_->PoolBytes();

  if (options_.physical_execution) {
    StageScope stage(observer_, EngineStage::kPhysical, *ctx);
    DEEPSEA_RETURN_IF_ERROR(
        PhysicalExecute(commit, ctx->executed_plan, &report));
    stage.Finish(0.0);
  }

  totals_.faults += report.fault_count;
  totals_.retries += report.retry_count;
  if (report.degraded) totals_.queries_degraded += 1;
  if (report.replanned) totals_.replans += 1;
  if (report.replan_conflict) totals_.replans_conflict += 1;
  if (report.replan_spurious) totals_.replans_spurious += 1;
  if (sharded) {
    totals_.commits_sharded += 1;
  } else {
    totals_.commits_exclusive += 1;
  }
  totals_.total_seconds += report.total_seconds;
  totals_.base_seconds += report.base_seconds;
  totals_.materialize_seconds += report.materialize_seconds;
  totals_.map_tasks += report.map_tasks;
  totals_.queries += 1;
  totals_.views_created += static_cast<int64_t>(report.created_views.size());
  totals_.fragments_created += report.created_fragments;
  totals_.fragments_evicted += report.evicted_fragments;
  totals_.fragments_merged += report.merged_fragments;
  totals_.selection_benefit += report.selection_benefit;
  totals_.selection_swaps += report.selection_swaps;
  if (!report.used_view.empty()) totals_.queries_answered_from_views += 1;
  if (observer_ != nullptr) observer_->OnQueryEnd(report);
  return report;
}

Status DeepSeaEngine::PhysicalExecute(const CommitGuard& commit,
                                      const PlanPtr& plan,
                                      QueryReport* report) {
  // Materialize sample tables for views created this query so future
  // ViewRef reads return real rows.
  for (const std::string& id : report->created_views) {
    ViewInfo* view = pool_->stat(commit)->Get(id);
    if (view == nullptr) continue;
    auto rows = executor_.Execute(view->plan);
    if (!rows.ok()) return rows.status();
    auto table_result = catalog_->Get(id);
    if (!table_result.ok()) continue;
    TablePtr table = *table_result;
    auto fresh = std::make_shared<Table>(id, rows->schema);
    for (Row& r : rows->rows) fresh->AddRow(std::move(r));
    fresh->set_logical_row_count(table->logical_row_count());
    fresh->set_avg_row_bytes(table->avg_row_bytes());
    // Preserve derived histograms (logical-scale) for cost estimation.
    for (const auto& [attr, part] : view->partitions) {
      (void)part;
      const AttributeHistogram* hist = table->GetHistogram(attr);
      if (hist != nullptr) fresh->SetHistogram(attr, *hist);
    }
    catalog_->Put(fresh);
  }
  auto result = executor_.Execute(plan);
  if (!result.ok()) return result.status();
  report->physical = std::move(*result);
  report->physically_executed = true;
  return Status::OK();
}

}  // namespace deepsea
