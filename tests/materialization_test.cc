// Asynchronous materialization service tests: admission control,
// coalescing, staleness revalidation, drain/quiesce determinism, and
// the free-running overload soak (the TSan target for the queue and
// worker-pool discipline).
//
// Configurations covered here:
//  * kAsync, workers=0 — decisions queue without draining; tests call
//    DrainAll()/Quiesce() at deterministic points, which makes the
//    whole intent -> revalidate -> fold lifecycle single-threaded and
//    exactly reproducible.
//  * kAsync, workers>0 — real background threads; determinism comes
//    from quiescing between queries (turnstile tests) or from
//    order-independent assertions (the soak).

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "multitenant_harness.h"

#include "common/str_util.h"
#include "core/engine.h"
#include "core/materialization_service.h"
#include "core/shared_pool.h"
#include "exp/metrics.h"
#include "storage/fault_policy.h"
#include "workload/bigbench.h"

namespace deepsea {
namespace {

using Mode = MaterializationConfig::Mode;

BigBenchDataset::Options DataOptions() {
  BigBenchDataset::Options o;
  o.total_bytes = 100e9;
  o.sample_rows_per_fact = 256;
  o.sample_rows_per_dim = 64;
  o.seed = 7;
  SdssTraceModel sdss(SdssTraceModel::Config{}, 2017);
  o.item_sk_distribution = sdss.AccessDensity(420);
  return o;
}

EngineOptions Options(Mode mode, int workers) {
  EngineOptions o;
  o.strategy = StrategyKind::kDeepSea;
  o.benefit_cost_threshold = 0.02;
  o.enforce_block_lower_bound = true;
  o.max_fragment_fraction = 0.1;
  o.materialization.mode = mode;
  o.materialization.workers = workers;
  return o;
}

/// submitted must account for every job exactly once: executed, failed
/// permanently, shed by admission, superseded by a newer same-target
/// job, dropped as stale at revalidation — or still sitting in the
/// queue (`queued`, zero after a quiesce/drain). Any imbalance means a
/// lost or double-counted fold.
void ExpectAccounting(const MaterializationService::StatsSnapshot& s,
                      size_t queued = 0) {
  EXPECT_EQ(s.submitted, s.executed + s.failed + s.shed + s.coalesced +
                             s.stale_dropped + static_cast<int64_t>(queued))
      << "executed=" << s.executed << " failed=" << s.failed
      << " shed=" << s.shed << " coalesced=" << s.coalesced
      << " stale_dropped=" << s.stale_dropped << " queued=" << queued;
}

// ---------------------------------------------------------------------
// Manual-drain configuration (kAsync, workers=0) under the turnstile:
// tenant threads submit through admission control in schedule order,
// so the threaded run matches its sequential replay report for report
// and in the final pool.

TEST(MaterializationDrainTest, ThreadedTurnstileMatchesSequentialReplay) {
  const std::vector<std::string> tenants = {"alice", "bob", "carol"};
  std::vector<std::vector<PlanPtr>> plans;
  for (uint64_t seed : {121u, 232u, 343u}) {
    plans.push_back(mt::BuildPlans(mt::SdssTenantWorkload(25, seed)));
  }
  const std::vector<int> schedule = mt::ShuffledSchedule({25, 25, 25}, 19);

  const EngineOptions opts = Options(Mode::kAsync, /*workers=*/0);
  Catalog seq_catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &seq_catalog).ok());
  const auto seq = mt::RunScheduled(&seq_catalog, opts, tenants, plans,
                                    schedule, /*threaded=*/false);
  Catalog thr_catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &thr_catalog).ok());
  const auto thr = mt::RunScheduled(&thr_catalog, opts, tenants, plans,
                                    schedule, /*threaded=*/true);

  ASSERT_EQ(seq.reports.size(), thr.reports.size());
  for (size_t t = 0; t < seq.reports.size(); ++t) {
    ASSERT_EQ(seq.reports[t].size(), thr.reports[t].size()) << tenants[t];
    for (size_t i = 0; i < seq.reports[t].size(); ++i) {
      EXPECT_EQ(seq.reports[t][i], thr.reports[t][i])
          << tenants[t] << " query " << i;
    }
  }
  EXPECT_EQ(seq.fingerprint, thr.fingerprint);
}

// ---------------------------------------------------------------------
// kAsync determinism: like RunScheduled, but quiesces the service at a
// fixed point in every slot so the fold order is part of the schedule.

struct AsyncRunResult {
  std::vector<std::vector<std::string>> reports;
  std::string fingerprint;
  MaterializationService::StatsSnapshot stats;
};

AsyncRunResult RunAsyncScheduled(const EngineOptions& options,
                                 const std::vector<std::string>& tenants,
                                 const std::vector<std::vector<PlanPtr>>& plans,
                                 const std::vector<int>& schedule,
                                 bool threaded) {
  Catalog catalog;
  EXPECT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  const int n = static_cast<int>(plans.size());
  SharedPool shared(&catalog, options);
  std::vector<std::unique_ptr<DeepSeaEngine>> engines;
  for (int t = 0; t < n; ++t) {
    engines.push_back(
        std::make_unique<DeepSeaEngine>(&catalog, &shared, tenants[t]));
  }
  AsyncRunResult out;
  out.reports.resize(static_cast<size_t>(n));
  if (!threaded) {
    std::vector<size_t> next(static_cast<size_t>(n), 0);
    for (int who : schedule) {
      const size_t i = next[static_cast<size_t>(who)]++;
      auto report = engines[static_cast<size_t>(who)]->ProcessQuery(
          plans[static_cast<size_t>(who)][i]);
      EXPECT_TRUE(report.ok());
      if (report.ok()) {
        out.reports[static_cast<size_t>(who)].push_back(
            mt::FormatTenantReport(*report));
      }
      shared.pool()->QuiesceMaterialization();
    }
  } else {
    mt::Turnstile turnstile(schedule);
    std::vector<std::thread> threads;
    for (int t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        for (const PlanPtr& plan : plans[static_cast<size_t>(t)]) {
          if (!turnstile.Await(t)) break;
          auto report = engines[static_cast<size_t>(t)]->ProcessQuery(plan);
          if (report.ok()) {
            out.reports[static_cast<size_t>(t)].push_back(
                mt::FormatTenantReport(*report));
          }
          // The slot owns the pool until Advance(): quiescing here puts
          // the background fold inside the scheduled slot, so the
          // commit order (stats fold, then decision fold) is exactly
          // the schedule regardless of worker timing.
          shared.pool()->QuiesceMaterialization();
          turnstile.Advance();
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  shared.pool()->QuiesceMaterialization();
  const MaterializationService* mat = shared.pool()->materialization_service();
  EXPECT_NE(mat, nullptr);
  if (mat != nullptr) out.stats = mat->stats();
  out.fingerprint = mt::PoolFingerprint(*shared.pool());
  return out;
}

// workers=0: folds happen on the quiescing (driver) thread, so even
// the per-query reports are deterministic and thread-count-invariant.
TEST(MaterializationAsyncTest, ScheduledAsyncMatchesSequentialReplay) {
  const std::vector<std::string> tenants = {"alice", "bob"};
  std::vector<std::vector<PlanPtr>> plans;
  for (uint64_t seed : {55u, 66u}) {
    plans.push_back(mt::BuildPlans(mt::SdssTenantWorkload(20, seed)));
  }
  const std::vector<int> schedule = mt::ShuffledSchedule({20, 20}, 23);
  const EngineOptions opts = Options(Mode::kAsync, /*workers=*/0);

  const AsyncRunResult seq =
      RunAsyncScheduled(opts, tenants, plans, schedule, /*threaded=*/false);
  const AsyncRunResult thr =
      RunAsyncScheduled(opts, tenants, plans, schedule, /*threaded=*/true);

  ASSERT_EQ(seq.reports.size(), thr.reports.size());
  for (size_t t = 0; t < seq.reports.size(); ++t) {
    ASSERT_EQ(seq.reports[t].size(), thr.reports[t].size()) << tenants[t];
    for (size_t i = 0; i < seq.reports[t].size(); ++i) {
      EXPECT_EQ(seq.reports[t][i], thr.reports[t][i])
          << tenants[t] << " query " << i;
    }
  }
  EXPECT_EQ(seq.fingerprint, thr.fingerprint);
  EXPECT_GT(seq.stats.executed, 0);
  ExpectAccounting(seq.stats);
  ExpectAccounting(thr.stats);
  EXPECT_EQ(seq.stats.executed, thr.stats.executed);
  EXPECT_EQ(seq.stats.stale_dropped, thr.stats.stale_dropped);
}

// workers=1: real background threads. Per-query reports may observe
// the pool mid-fold (pool_bytes_after races the worker benignly), but
// the quiesced pool state is still a function of the schedule alone.
TEST(MaterializationAsyncTest, WorkersOnTurnstileMatchesSequentialReplay) {
  const std::vector<std::string> tenants = {"alice", "bob"};
  std::vector<std::vector<PlanPtr>> plans;
  for (uint64_t seed : {77u, 88u}) {
    plans.push_back(mt::BuildPlans(mt::SdssTenantWorkload(20, seed)));
  }
  const std::vector<int> schedule = mt::ShuffledSchedule({20, 20}, 29);
  const EngineOptions opts = Options(Mode::kAsync, /*workers=*/1);

  const AsyncRunResult seq =
      RunAsyncScheduled(opts, tenants, plans, schedule, /*threaded=*/false);
  const AsyncRunResult thr =
      RunAsyncScheduled(opts, tenants, plans, schedule, /*threaded=*/true);
  const AsyncRunResult again =
      RunAsyncScheduled(opts, tenants, plans, schedule, /*threaded=*/false);

  EXPECT_EQ(seq.fingerprint, thr.fingerprint);
  EXPECT_EQ(seq.fingerprint, again.fingerprint);
  EXPECT_GT(seq.stats.executed, 0);
  ExpectAccounting(seq.stats);
  ExpectAccounting(thr.stats);
  EXPECT_EQ(seq.stats.executed, thr.stats.executed);
}

// ---------------------------------------------------------------------
// Queue mechanics (workers=0 so every state transition is explicit).

TEST(MaterializationAsyncTest, QueueBuildsUpAndDrainAllFolds) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  DeepSeaEngine engine(&catalog, Options(Mode::kAsync, /*workers=*/0));
  MaterializationService* mat = engine.pool().materialization_service();
  ASSERT_NE(mat, nullptr);

  const auto plans = mt::BuildPlans(mt::SdssTenantWorkload(30, 909));
  for (const PlanPtr& plan : plans) {
    auto report = engine.ProcessQuery(plan);
    ASSERT_TRUE(report.ok());
  }
  EXPECT_GT(mat->QueueDepth(), 0u);
  EXPECT_GT(mat->QueueBytes(), 0.0);
  // Stats still folded in the foreground: the pool adapted its
  // statistics even though nothing materialized yet.
  EXPECT_EQ(engine.PoolBytes(), 0.0);

  mat->DrainAll();
  EXPECT_EQ(mat->QueueDepth(), 0u);
  EXPECT_EQ(mat->QueueBytes(), 0.0);
  const auto s = mat->stats();
  EXPECT_GT(s.executed, 0);
  ExpectAccounting(s);
  // The drained decisions materialized state.
  EXPECT_GT(engine.PoolBytes(), 0.0);
  EXPECT_NEAR(engine.PoolBytes(), engine.fs().TotalBytes("pool/"),
              engine.PoolBytes() * 1e-9);
}

TEST(MaterializationAsyncTest, OverloadShedsInsteadOfBlocking) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions opts = Options(Mode::kAsync, /*workers=*/0);
  opts.materialization.max_queue_jobs = 2;
  MetricsObserver metrics;
  DeepSeaEngine engine(&catalog, opts);
  metrics.set_pool(&engine.pool());
  engine.set_observer(&metrics);
  MaterializationService* mat = engine.pool().materialization_service();
  ASSERT_NE(mat, nullptr);

  const auto plans = mt::BuildPlans(mt::SdssTenantWorkload(40, 111));
  for (size_t q = 0; q < plans.size(); ++q) {
    auto report = engine.ProcessQuery(plans[q]);
    // Overload never blocks or fails the query: it answers from the
    // current pool and the intent is shed.
    ASSERT_TRUE(report.ok()) << "query " << q;
    EXPECT_LE(mat->QueueDepth(), 2u) << "query " << q;
  }
  const auto s = mat->stats();
  EXPECT_GT(s.shed, 0);
  ExpectAccounting(s, mat->QueueDepth());

  // The overload is visible at scrape time.
  const auto snap = metrics.TakeSnapshot();
  EXPECT_TRUE(snap.pool.materialization.configured);
  EXPECT_EQ(snap.pool.materialization.shed, s.shed);
  EXPECT_EQ(snap.pool.materialization.queue_depth,
            static_cast<int64_t>(mat->QueueDepth()));

  mat->DrainAll();
  ExpectAccounting(mat->stats());
  metrics.set_pool(nullptr);
}

TEST(MaterializationAsyncTest, RepeatedIdenticalIntentsCoalesce) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  DeepSeaEngine engine(&catalog, Options(Mode::kAsync, /*workers=*/0));
  MaterializationService* mat = engine.pool().materialization_service();
  ASSERT_NE(mat, nullptr);

  auto plan = BigBenchTemplates::Build("Q30", 100000, 180000);
  ASSERT_TRUE(plan.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.ProcessQuery(*plan).ok());
    // Re-deciding the same materialization replaces the queued job in
    // place rather than queueing a duplicate. The folding statistics
    // can reshape the decision (and thus the coalesce key) a bounded
    // number of times, but the depth must stay far below the query
    // count.
    EXPECT_LE(mat->QueueDepth(), 2u) << "query " << i;
  }
  const auto s = mat->stats();
  EXPECT_GE(s.coalesced, 1);
  EXPECT_EQ(s.shed, 0);
  ExpectAccounting(s, mat->QueueDepth());

  mat->DrainAll();
  const auto after = mat->stats();
  ExpectAccounting(after);
  EXPECT_GT(after.executed, 0);
  EXPECT_GT(engine.PoolBytes(), 0.0);

  // The (once) materialized view now answers the query.
  auto report = engine.ProcessQuery(*plan);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->used_view.empty());
}

TEST(MaterializationAsyncTest, StaleIntentsDropAtRevalidation) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  DeepSeaEngine engine(&catalog, Options(Mode::kAsync, /*workers=*/0));
  MaterializationService* mat = engine.pool().materialization_service();
  ASSERT_NE(mat, nullptr);

  // Two decisions against the same view with different ranges: distinct
  // coalesce keys, overlapping write footprints. The first fold
  // publishes writes on the view, which invalidates the second job's
  // read epoch, so revalidation drops it instead of folding a decision
  // planned against a pool that no longer exists.
  auto q1 = BigBenchTemplates::Build("Q30", 100000, 180000);
  auto q2 = BigBenchTemplates::Build("Q30", 140000, 220000);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  ASSERT_TRUE(engine.ProcessQuery(*q1).ok());
  ASSERT_TRUE(engine.ProcessQuery(*q2).ok());
  ASSERT_EQ(mat->QueueDepth(), 2u);

  mat->DrainAll();
  const auto s = mat->stats();
  EXPECT_EQ(s.executed, 1);
  EXPECT_EQ(s.stale_dropped, 1);
  ExpectAccounting(s);
  // The dropped intent lost nothing durable: the pool is consistent
  // and the view from the first fold exists.
  EXPECT_GT(engine.PoolBytes(), 0.0);
  EXPECT_NEAR(engine.PoolBytes(), engine.fs().TotalBytes("pool/"),
              engine.PoolBytes() * 1e-9);
}

// ---------------------------------------------------------------------
// SaveState / LoadState with a non-empty queue.

TEST(MaterializationStateTest, SaveStateQuiescesQueuedIntents) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  DeepSeaEngine engine(&catalog, Options(Mode::kAsync, /*workers=*/0));
  MaterializationService* mat = engine.pool().materialization_service();
  ASSERT_NE(mat, nullptr);

  const auto plans = mt::BuildPlans(mt::SdssTenantWorkload(15, 1234));
  for (const PlanPtr& plan : plans) {
    ASSERT_TRUE(engine.ProcessQuery(plan).ok());
  }
  ASSERT_GT(mat->QueueDepth(), 0u);

  // SaveState quiesces first: queued intents fold (or drop as stale)
  // before the snapshot, so the saved state reflects them.
  auto state = engine.SaveState();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(mat->QueueDepth(), 0u);
  ExpectAccounting(mat->stats());
  EXPECT_GT(engine.PoolBytes(), 0.0);
  const std::string fp = mt::PoolFingerprint(engine.pool());

  // The blob round-trips bit-identically into a fresh engine (modulo
  // the load's own clock, which never runs backwards).
  Catalog catalog2;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog2).ok());
  DeepSeaEngine cold(&catalog2, Options(Mode::kAsync, /*workers=*/0));
  ASSERT_TRUE(cold.LoadState(*state).ok());
  auto state2 = cold.SaveState();
  ASSERT_TRUE(state2.ok());
  EXPECT_EQ(*state, *state2);
  EXPECT_NEAR(cold.PoolBytes(), engine.PoolBytes(),
              engine.PoolBytes() * 1e-9);

  // A save with nothing queued is the same save.
  auto state3 = engine.SaveState();
  ASSERT_TRUE(state3.ok());
  EXPECT_EQ(*state, *state3);
  EXPECT_EQ(fp, mt::PoolFingerprint(engine.pool()));
}

TEST(MaterializationStateTest, CorruptLoadDrainsQueueButLeavesPoolIntact) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  DeepSeaEngine engine(&catalog, Options(Mode::kAsync, /*workers=*/0));
  MaterializationService* mat = engine.pool().materialization_service();
  ASSERT_NE(mat, nullptr);

  const auto plans = mt::BuildPlans(mt::SdssTenantWorkload(10, 4321));
  for (const PlanPtr& plan : plans) {
    ASSERT_TRUE(engine.ProcessQuery(plan).ok());
  }
  ASSERT_GT(mat->QueueDepth(), 0u);

  // LoadState quiesces before parsing (pre-load intents must not fold
  // into the restored pool), so even a rejected blob drains the queue —
  // but the pool itself must be untouched by the failed load.
  const Status load = engine.LoadState("deepsea-state-v1 garbage\n!!!");
  EXPECT_FALSE(load.ok());
  EXPECT_EQ(mat->QueueDepth(), 0u);
  ExpectAccounting(mat->stats());
  const std::string fp_after = mt::PoolFingerprint(engine.pool());

  // Replaying quiesce + fingerprint on an identical engine that never
  // saw the corrupt blob yields the same pool: the failed load itself
  // changed nothing.
  Catalog catalog2;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog2).ok());
  DeepSeaEngine twin(&catalog2, Options(Mode::kAsync, /*workers=*/0));
  for (const PlanPtr& plan : plans) {
    ASSERT_TRUE(twin.ProcessQuery(plan).ok());
  }
  twin.pool().QuiesceMaterialization();
  EXPECT_EQ(fp_after, mt::PoolFingerprint(twin.pool()));
}

// ---------------------------------------------------------------------
// Free-running overload soak: 8 engines, live workers, fault
// injection, and a queue bound tight enough to force sheds. No
// turnstile — assertions are order-independent. This is the TSan
// target for the materialization queue, worker pool, and the
// scrape-path lock order.

TEST(MaterializationSoakTest, FreeRunningOverloadSoak) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions opts = Options(Mode::kAsync, /*workers=*/4);
  opts.materialization.max_queue_jobs = 8;
  opts.pool_limit_bytes = 6e9;
  opts.fault.retry_backoff_seconds = 1.0;
  SharedPool shared(&catalog, opts);

  ScheduledFaultPolicy policy(/*seed=*/7070);
  FaultRule transient;
  transient.probability = 0.02;
  transient.transient = true;
  FaultRule permanent;
  permanent.probability = 0.01;
  permanent.permanent_code = StatusCode::kResourceExhausted;
  policy.AddRule(transient);
  policy.AddRule(permanent);
  shared.pool()->SetFaultPolicy(&policy);

  // Enough queries that >= 100 storage ops reach the fault policy even
  // under heavy shedding: with sharded structural commits the
  // foreground no longer serializes on the exclusive lock, so the
  // 8-job queue overflows (and sheds) much more aggressively than the
  // original 40-query sizing assumed.
  constexpr int kTenants = 8;
  constexpr int kQueriesEach = 80;
  std::vector<std::unique_ptr<DeepSeaEngine>> engines;
  std::vector<std::vector<PlanPtr>> plans;
  for (int t = 0; t < kTenants; ++t) {
    engines.push_back(std::make_unique<DeepSeaEngine>(
        &catalog, &shared, StrFormat("tenant%d", t)));
    plans.push_back(mt::BuildPlans(
        mt::SdssTenantWorkload(kQueriesEach, 5000 + uint64_t(t) * 17)));
  }

  std::atomic<int64_t> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      for (const PlanPtr& plan : plans[static_cast<size_t>(t)]) {
        auto report = engines[static_cast<size_t>(t)]->ProcessQuery(plan);
        EXPECT_TRUE(report.ok());
        if (report.ok()) answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Scrape concurrently with the run: TakeSnapshot takes the commit
  // shared lock then the queue lock, the exact order the workers and
  // Submit use, so TSan sees the full lock graph under load.
  MetricsObserver metrics;
  metrics.set_pool(shared.pool());
  for (int i = 0; i < 20; ++i) {
    const auto snap = metrics.TakeSnapshot();
    EXPECT_TRUE(snap.pool.materialization.configured);
    EXPECT_LE(snap.pool.materialization.queue_depth, 8);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& th : threads) th.join();
  shared.pool()->QuiesceMaterialization();
  metrics.set_pool(nullptr);

  // Every query answered despite overload and faults.
  EXPECT_EQ(answered.load(), kTenants * kQueriesEach);
  EXPECT_EQ(shared.pool()->clock(), kTenants * kQueriesEach);

  // Zero lost or duplicated folds.
  const MaterializationService* mat = shared.pool()->materialization_service();
  ASSERT_NE(mat, nullptr);
  const auto s = mat->stats();
  ExpectAccounting(s);
  EXPECT_GT(s.executed, 0);
  EXPECT_EQ(mat->QueueDepth(), 0u);

  // The fault schedule actually stressed the system.
  EXPECT_GE(policy.ops_seen(), 100);
  EXPECT_GT(policy.faults_injected(), 0);

  // Pool invariants hold after the storm: bound respected, bytes
  // backed by storage.
  const double pool_bytes = shared.pool()->PoolBytes();
  EXPECT_LE(pool_bytes, opts.pool_limit_bytes * 1.0001);
  EXPECT_NEAR(pool_bytes, shared.pool()->fs().TotalBytes("pool/"),
              pool_bytes * 1e-9 + 1.0);

  // CI's overload-soak step archives the injected-fault schedule.
  if (const char* csv_path = std::getenv("DEEPSEA_FAULT_CSV")) {
    std::FILE* f = std::fopen(csv_path, "w");
    ASSERT_NE(f, nullptr) << csv_path;
    std::string csv = StrFormat(
        "submitted,executed,failed,shed,coalesced,stale_dropped,faults,"
        "retries\n%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld\n",
        static_cast<long long>(s.submitted), static_cast<long long>(s.executed),
        static_cast<long long>(s.failed), static_cast<long long>(s.shed),
        static_cast<long long>(s.coalesced),
        static_cast<long long>(s.stale_dropped),
        static_cast<long long>(s.faults), static_cast<long long>(s.retries));
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
  }
}

}  // namespace
}  // namespace deepsea
