// Tests for the pluggable SelectionStrategy seam
// (core/selection_strategy.h; DESIGN.md, "Selection strategies"):
//
//  * name/parse round-trips, and the pinned correspondence between
//    SelectionStrategyKind ordinals and the MetricsObserver label set;
//  * greedy-as-strategy reproduces the historical inline knapsack scan
//    exactly (the golden trace tests pin the end-to-end bit-identity —
//    here the equivalence is checked at the resolver level, action by
//    action, including the benefit-score float accumulation order);
//  * the local-search never-worse property on seeded random candidate
//    sets — including the "search is alive" half: some instances must
//    improve strictly, which regressed once when the move generator
//    could provably never fire from a greedy-by-value seed;
//  * strategy-under-turnstile determinism: a threaded run pinned to a
//    commit schedule is bit-identical to a sequential replay with the
//    non-default strategy, reusing tests/multitenant_harness.h.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "multitenant_harness.h"

#include "common/rng.h"
#include "core/engine.h"
#include "core/selection_strategy.h"
#include "exp/metrics.h"
#include "workload/bigbench.h"

namespace deepsea {
namespace {

using CandKind = SelectionCandidate::Kind;
using ActKind = SelectionAction::Kind;

// --- names, parsing, metrics-label correspondence ---

TEST(SelectionStrategyNameTest, NamesParseBackAndMatchInstances) {
  for (SelectionStrategyKind kind : kSelectionStrategyKinds) {
    const char* name = SelectionStrategyName(kind);
    SelectionStrategyKind parsed;
    ASSERT_TRUE(ParseSelectionStrategy(name, &parsed)) << name;
    EXPECT_EQ(parsed, kind) << name;
    EXPECT_STREQ(SelectionStrategy::ForKind(kind)->name(), name);
  }
  SelectionStrategyKind parsed;
  EXPECT_FALSE(ParseSelectionStrategy("cluster", &parsed));
  EXPECT_FALSE(ParseSelectionStrategy("cluster_greedy", &parsed));
  EXPECT_FALSE(ParseSelectionStrategy("knapsack", &parsed));
  EXPECT_FALSE(ParseSelectionStrategy("", &parsed));
}

// The metrics exposition labels per-strategy series by ordinal; the
// registry's fixed name table must track SelectionStrategyKind order
// (metrics.cc indexes kSelectionStrategyNames with the kind's name).
TEST(SelectionStrategyNameTest, MetricsLabelTableMatchesKindOrder) {
  ASSERT_EQ(MetricsObserver::kSelectionStrategyCount,
            std::size(kSelectionStrategyKinds));
  for (size_t i = 0; i < MetricsObserver::kSelectionStrategyCount; ++i) {
    EXPECT_STREQ(MetricsObserver::kSelectionStrategyNames[i],
                 SelectionStrategyName(kSelectionStrategyKinds[i]))
        << "ordinal " << i;
  }
}

// --- greedy-as-strategy equivalence with the historical inline scan ---

SelectionCandidate Item(CandKind kind, double value, double size,
                        double lo = 0.0, double hi = 0.0) {
  SelectionCandidate c;
  c.kind = kind;
  c.value = value;
  c.size = size;
  c.interval = Interval(lo, hi);
  return c;
}

/// The pre-seam inline implementation, verbatim: stable sort by value
/// descending, admit while it fits, evict rejected pool content first,
/// then materialize admitted new content, benefit accumulated in
/// emission order.
SelectionDecision HistoricalGreedy(std::vector<SelectionCandidate> items,
                                   double budget) {
  std::stable_sort(items.begin(), items.end(),
                   [](const SelectionCandidate& a, const SelectionCandidate& b) {
                     return a.value > b.value;
                   });
  std::vector<const SelectionCandidate*> admit;
  std::vector<const SelectionCandidate*> reject;
  for (const SelectionCandidate& it : items) {
    if (it.size <= budget) {
      admit.push_back(&it);
      budget -= it.size;
    } else {
      reject.push_back(&it);
    }
  }
  SelectionDecision decision;
  for (const SelectionCandidate* it : reject) {
    if (it->kind == CandKind::kPoolWhole) {
      SelectionAction a;
      a.kind = ActKind::kEvictWholeView;
      a.view = it->view;
      a.size_bytes = it->size;
      decision.actions.push_back(a);
    } else if (it->kind == CandKind::kPoolFragment) {
      SelectionAction a;
      a.kind = ActKind::kEvictFragment;
      a.view = it->view;
      a.part = it->part;
      a.interval = it->interval;
      a.size_bytes = it->size;
      decision.actions.push_back(a);
    }
  }
  for (const SelectionCandidate* it : admit) {
    SelectionAction a;
    a.view = it->view;
    a.part = it->part;
    a.interval = it->interval;
    a.size_bytes = it->size;
    switch (it->kind) {
      case CandKind::kNewView:
        a.kind = ActKind::kMaterializeView;
        break;
      case CandKind::kNewViewFragment:
        a.kind = ActKind::kMaterializeViewFragment;
        break;
      case CandKind::kNewFragment:
        a.kind = ActKind::kMaterializeRefinement;
        break;
      default:
        continue;
    }
    decision.benefit_score += it->value;
    decision.actions.push_back(a);
  }
  return decision;
}

SelectionInput RandomInstance(uint64_t seed, int items,
                              double budget_fraction) {
  Rng rng(seed);
  SelectionInput in;
  double total = 0.0;
  for (int i = 0; i < items; ++i) {
    SelectionCandidate c;
    c.kind = static_cast<CandKind>(rng.UniformInt(0, 4));
    c.value = rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(0.1, 100.0);
    c.size = rng.Uniform(1e6, 5e8);
    if (c.kind == CandKind::kNewFragment ||
        c.kind == CandKind::kNewViewFragment) {
      const double lo = rng.Uniform(0.0, 350000.0);
      c.interval = Interval(lo, lo + rng.Uniform(1000.0, 50000.0));
    }
    total += c.size;
    in.items.push_back(c);
  }
  in.budget_bytes = budget_fraction * total;
  return in;
}

TEST(GreedyStrategyTest, BitIdenticalToHistoricalInlineScan) {
  for (uint64_t seed : {1u, 2u, 3u, 40u, 500u}) {
    SelectionInput in = RandomInstance(seed, 64, 0.4);
    const SelectionDecision expected = HistoricalGreedy(in.items, in.budget_bytes);
    const SelectionResolution res =
        SelectionStrategy::ForKind(SelectionStrategyKind::kGreedy)->Resolve(in);
    // Exact equality, including the float accumulation order — this is
    // the resolver-level half of the golden-trace bit-identity pin.
    EXPECT_EQ(res.decision.benefit_score, expected.benefit_score);
    ASSERT_EQ(res.decision.actions.size(), expected.actions.size());
    for (size_t i = 0; i < expected.actions.size(); ++i) {
      EXPECT_EQ(res.decision.actions[i].kind, expected.actions[i].kind) << i;
      EXPECT_EQ(res.decision.actions[i].interval, expected.actions[i].interval)
          << i;
      EXPECT_EQ(res.decision.actions[i].size_bytes,
                expected.actions[i].size_bytes)
          << i;
    }
    EXPECT_EQ(res.swaps_applied, 0);
    EXPECT_EQ(res.items_considered, static_cast<int>(in.items.size()));
  }
}

TEST(GreedyStrategyTest, UncontendedKnapsackAdmitsEverythingUnflagged) {
  SelectionInput in;
  in.items.push_back(Item(CandKind::kNewFragment, 5.0, 100.0));
  in.items.push_back(Item(CandKind::kPoolFragment, 1.0, 100.0));
  in.budget_bytes = 1000.0;
  const SelectionResolution res =
      SelectionStrategy::ForKind(SelectionStrategyKind::kGreedy)->Resolve(in);
  EXPECT_FALSE(res.contended);
  // Admitted pool content needs no action; the new fragment is the
  // only materialization.
  ASSERT_EQ(res.decision.actions.size(), 1u);
  EXPECT_EQ(res.decision.actions[0].kind, ActKind::kMaterializeRefinement);
  EXPECT_EQ(res.objective_value, 6.0);
  EXPECT_EQ(res.decision.benefit_score, 5.0);
}

TEST(GreedyStrategyTest, EvictionsPrecedeMaterializations) {
  SelectionInput in;
  in.items.push_back(Item(CandKind::kPoolWhole, 1.0, 600.0));
  in.items.push_back(Item(CandKind::kNewView, 9.0, 500.0));
  in.items.push_back(Item(CandKind::kPoolFragment, 0.5, 300.0, 10.0, 20.0));
  in.budget_bytes = 800.0;
  const SelectionResolution res =
      SelectionStrategy::ForKind(SelectionStrategyKind::kGreedy)->Resolve(in);
  EXPECT_TRUE(res.contended);
  // Value order: new view (9) admitted, pool whole (1) no longer fits,
  // pool fragment (0.5) fits the residual. Evictions come first.
  ASSERT_EQ(res.decision.actions.size(), 2u);
  EXPECT_EQ(res.decision.actions[0].kind, ActKind::kEvictWholeView);
  EXPECT_EQ(res.decision.actions[1].kind, ActKind::kMaterializeView);
  EXPECT_EQ(res.objective_value, 9.5);
}

// --- local search: never worse, and actually alive ---

TEST(LocalSearchStrategyTest, NeverWorseThanGreedyOnSeededInstances) {
  const SelectionStrategy* greedy =
      SelectionStrategy::ForKind(SelectionStrategyKind::kGreedy);
  const SelectionStrategy* ls =
      SelectionStrategy::ForKind(SelectionStrategyKind::kLocalSearch);
  int strict_improvements = 0;
  for (int s = 0; s < 200; ++s) {
    const SelectionInput in = RandomInstance(7000 + s, 80, 0.4);
    const SelectionResolution g = greedy->Resolve(in);
    const SelectionResolution l = ls->Resolve(in);
    ASSERT_GE(l.objective_value, g.objective_value - 1e-9) << "seed " << s;
    if (l.objective_value > g.objective_value + 1e-9) ++strict_improvements;
    EXPECT_LE(l.swaps_applied, in.config.local_search_max_swaps);
  }
  // The alive check: a local search that can never improve on greedy
  // (as a too-weak move generator once guaranteed) passes never-worse
  // trivially — require real improvements on this instance family.
  EXPECT_GT(strict_improvements, 0);
}

TEST(LocalSearchStrategyTest, ResultRespectsBudget) {
  for (int s = 0; s < 50; ++s) {
    const SelectionInput in = RandomInstance(8100 + s, 60, 0.35);
    const SelectionResolution res =
        SelectionStrategy::ForKind(SelectionStrategyKind::kLocalSearch)
            ->Resolve(in);
    // Admitted bytes = kept pool content + materialized new content.
    double pool_total = 0.0;
    for (const SelectionCandidate& it : in.items) {
      if (it.kind == CandKind::kPoolFragment ||
          it.kind == CandKind::kPoolWhole) {
        pool_total += it.size;
      }
    }
    double admitted = pool_total;
    for (const SelectionAction& a : res.decision.actions) {
      switch (a.kind) {
        case ActKind::kEvictWholeView:
        case ActKind::kEvictFragment:
          admitted -= a.size_bytes;
          break;
        default:
          admitted += a.size_bytes;
          break;
      }
    }
    EXPECT_LE(admitted, in.budget_bytes * (1.0 + 1e-12)) << "seed " << s;
  }
}

TEST(LocalSearchStrategyTest, SwapBudgetZeroReproducesGreedy) {
  SelectionInput in = RandomInstance(4242, 80, 0.4);
  in.config.local_search_max_swaps = 0;
  in.config.local_search_max_rounds = 0;
  const SelectionResolution g =
      SelectionStrategy::ForKind(SelectionStrategyKind::kGreedy)->Resolve(in);
  const SelectionResolution l =
      SelectionStrategy::ForKind(SelectionStrategyKind::kLocalSearch)
          ->Resolve(in);
  EXPECT_EQ(l.objective_value, g.objective_value);
  EXPECT_EQ(l.decision.benefit_score, g.decision.benefit_score);
  EXPECT_EQ(l.decision.actions.size(), g.decision.actions.size());
  EXPECT_EQ(l.swaps_applied, 0);
}

// A hand-built instance where greedy-by-value is provably suboptimal:
// one large cheap-ish item admitted early holds bytes that two
// higher-total-value rejected items need.
TEST(LocalSearchStrategyTest, EvictionRefillMoveFires) {
  SelectionInput in;
  // Greedy admits A (value 10, size 1000) exhausting the budget; B and
  // C (value 6 + 6, sizes 500 each) are rejected. Local search evicts
  // A and refills with B + C: objective 12 > 10.
  in.items.push_back(Item(CandKind::kNewView, 10.0, 1000.0));
  in.items.push_back(Item(CandKind::kNewView, 6.0, 500.0));
  in.items.push_back(Item(CandKind::kNewView, 6.0, 500.0));
  in.budget_bytes = 1000.0;
  const SelectionResolution g =
      SelectionStrategy::ForKind(SelectionStrategyKind::kGreedy)->Resolve(in);
  EXPECT_EQ(g.objective_value, 10.0);
  const SelectionResolution l =
      SelectionStrategy::ForKind(SelectionStrategyKind::kLocalSearch)
          ->Resolve(in);
  EXPECT_EQ(l.objective_value, 12.0);
  EXPECT_EQ(l.swaps_applied, 1);
  ASSERT_EQ(l.decision.actions.size(), 2u);
  EXPECT_EQ(l.decision.actions[0].kind, ActKind::kMaterializeView);
  EXPECT_EQ(l.decision.actions[1].kind, ActKind::kMaterializeView);
}

// --- engine integration: telemetry stamping ---

BigBenchDataset::Options SmallData() {
  BigBenchDataset::Options o;
  o.total_bytes = 100e9;
  o.sample_rows_per_fact = 256;
  o.sample_rows_per_dim = 64;
  o.seed = 7;
  return o;
}

TEST(SelectionStrategyEngineTest, ReportsStampTheResolvingStrategy) {
  for (SelectionStrategyKind kind : kSelectionStrategyKinds) {
    Catalog catalog;
    ASSERT_TRUE(BigBenchDataset::Generate(SmallData(), &catalog).ok());
    EngineOptions options;
    options.selection.kind = kind;
    options.pool_limit_bytes = 2e9;  // tight enough to stay contended
    DeepSeaEngine engine(&catalog, options);
    Rng rng(99);
    for (int i = 0; i < 10; ++i) {
      const double lo = rng.Uniform(50000.0, 300000.0);
      auto plan = BigBenchTemplates::Build("Q30", lo, lo + 20000.0);
      ASSERT_TRUE(plan.ok());
      auto report = engine.ProcessQuery(*plan);
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(report->selection_strategy, SelectionStrategyName(kind));
      EXPECT_GE(report->selection_candidates, 0);
    }
  }
}

// --- determinism under the turnstile ---

EngineOptions StrategyOptions(SelectionStrategyKind kind) {
  EngineOptions o;
  o.strategy = StrategyKind::kDeepSea;
  o.benefit_cost_threshold = 0.02;
  o.enforce_block_lower_bound = true;
  o.max_fragment_fraction = 0.1;
  o.pool_limit_bytes = 4e9;  // tight: the strategies actually diverge
  o.selection.kind = kind;
  return o;
}

TEST(SelectionStrategyScheduleTest, TurnstileMatchesSequentialReplay) {
  const std::vector<std::string> tenants = {"alice", "bob"};
  std::vector<std::vector<PlanPtr>> plans;
  plans.push_back(mt::BuildPlans(mt::SdssTenantWorkload(25, 404)));
  plans.push_back(mt::BuildPlans(mt::SdssTenantWorkload(25, 505)));
  const std::vector<int> per_tenant(2, 25);
  const std::vector<int> schedule = mt::ShuffledSchedule(per_tenant, 31);
  const EngineOptions options =
      StrategyOptions(SelectionStrategyKind::kLocalSearch);

  Catalog seq_catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(SmallData(), &seq_catalog).ok());
  const mt::ScheduledRunResult seq = mt::RunScheduled(
      &seq_catalog, options, tenants, plans, schedule, /*threaded=*/false);

  Catalog thr_catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(SmallData(), &thr_catalog).ok());
  const mt::ScheduledRunResult thr = mt::RunScheduled(
      &thr_catalog, options, tenants, plans, schedule, /*threaded=*/true);

  EXPECT_EQ(seq.fingerprint, thr.fingerprint);
  ASSERT_EQ(seq.reports.size(), thr.reports.size());
  for (size_t t = 0; t < seq.reports.size(); ++t) {
    EXPECT_EQ(seq.reports[t], thr.reports[t]) << "tenant " << t;
  }
}

}  // namespace
}  // namespace deepsea
