// Strategy tournament: races the pluggable selection strategies
// (greedy / local_search; see DESIGN.md, "Selection strategies") head
// to head.
//
// Section 1 resolves seeded synthetic knapsack instances directly
// through the SelectionStrategy seam and compares the full knapsack
// objective (SelectionResolution::objective_value — admitted Φ, kept
// pool content included). This section carries the CI invariant:
// local search seeds from greedy and only applies strictly improving
// moves, so its objective is never below greedy's on the same
// instance — the bench aborts if that ever fails, in smoke and full
// mode alike.
//
// Section 2 runs end-to-end workloads through ExperimentRunner, one
// fresh engine per strategy, and reports total simulated seconds,
// aggregate decision benefit, and the strategy telemetry counters.
//
// Run:  bench_strategy_tournament [--smoke] [--json=PATH] [--csv=PATH]
// --smoke shrinks both sections to CI size. JSON results land in
// BENCH_strategy_tournament.json by default, with the host that
// produced them (cores, compiler, build type, git revision);
// EXPERIMENTS.md documents the schema.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/selection_strategy.h"

using namespace deepsea;

namespace {

#ifndef DEEPSEA_BUILD_TYPE
#define DEEPSEA_BUILD_TYPE "unknown"
#endif
#ifndef DEEPSEA_GIT_REVISION
#define DEEPSEA_GIT_REVISION "unknown"
#endif
#if defined(__clang__)
#define DEEPSEA_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define DEEPSEA_COMPILER "gcc " __VERSION__
#else
#define DEEPSEA_COMPILER "unknown"
#endif

// --- section 1: seeded synthetic knapsack instances -----------------

/// A contended random instance: mixed pool/new candidates, ~40% of the
/// summed size as budget. Fragment-kind items get random ranges.
SelectionInput RandomInstance(uint64_t seed, int items) {
  Rng rng(seed);
  SelectionInput in;
  double total_size = 0.0;
  in.items.reserve(static_cast<size_t>(items));
  for (int i = 0; i < items; ++i) {
    SelectionCandidate c;
    c.kind = static_cast<SelectionCandidate::Kind>(rng.UniformInt(0, 4));
    // A slice of zero-value items exercises the "evict but never
    // admit" paths; otherwise value and size are independent so the
    // greedy value-order scan leaves real gaps for swaps to close.
    c.value = rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(0.1, 100.0);
    c.size = rng.Uniform(1e6, 5e8);
    if (c.kind == SelectionCandidate::Kind::kNewFragment ||
        c.kind == SelectionCandidate::Kind::kNewViewFragment) {
      const double lo = rng.Uniform(0.0, 350000.0);
      c.interval = Interval(lo, lo + rng.Uniform(1000.0, 50000.0));
    }
    total_size += c.size;
    in.items.push_back(c);
  }
  in.budget_bytes = 0.4 * total_size;
  return in;
}

struct DecisionAgg {
  const char* strategy = nullptr;
  int instances = 0;
  double aggregate_benefit = 0.0;
  long long swaps = 0;
};

std::vector<DecisionAgg> RunPerDecision(int instances, int items) {
  std::vector<DecisionAgg> aggs;
  for (SelectionStrategyKind kind : kSelectionStrategyKinds) {
    aggs.push_back({SelectionStrategyName(kind), instances, 0.0, 0});
  }
  for (int s = 0; s < instances; ++s) {
    const SelectionInput base = RandomInstance(9000 + s, items);
    std::vector<double> values;
    for (size_t k = 0; k < aggs.size(); ++k) {
      SelectionInput in = base;
      in.config.kind = kSelectionStrategyKinds[k];
      const SelectionResolution res =
          SelectionStrategy::ForKind(kSelectionStrategyKinds[k])->Resolve(in);
      aggs[k].aggregate_benefit += res.objective_value;
      aggs[k].swaps += res.swaps_applied;
      values.push_back(res.objective_value);
    }
    // The never-worse invariant, per instance, on the full knapsack
    // objective (admitted Φ incl. kept pool content — benefit_score
    // alone can legitimately drop when a move trades a new item for
    // pool content).
    if (values[1] < values[0] - 1e-9) {
      std::fprintf(stderr,
                   "FAIL seed %d: local search below its greedy seed "
                   "(greedy=%.6f ls=%.6f)\n",
                   9000 + s, values[0], values[1]);
      std::abort();
    }
  }
  return aggs;
}

// --- section 2: end-to-end workloads ---------------------------------

struct WorkloadRow {
  const char* workload = nullptr;
  const char* strategy = nullptr;
  double total_seconds = 0.0;
  double aggregate_benefit = 0.0;
  long long swaps = 0;
  long long views = 0;
  long long fragments = 0;
  double pool_bytes = 0.0;
};

/// One hot region queried intensely, then an excursion — selection
/// stays contended because the pool is sized well below the working
/// set (same shape as examples/strategy_faceoff).
std::vector<WorkloadQuery> FocusedWorkload(int queries) {
  std::vector<WorkloadQuery> out;
  RangeGenerator::Config cfg;
  cfg.domain = bench::ItemSkDomain();
  cfg.selectivity_fraction = 0.02;
  cfg.skew = Skew::kHeavy;
  cfg.center = 120000.0;
  RangeGenerator hot(cfg, 100);
  const int hot_n = queries * 4 / 5;
  for (int i = 0; i < hot_n; ++i) out.push_back({"Q30", hot.Next()});
  cfg.center = 300000.0;
  RangeGenerator excursion(cfg, 101);
  for (int i = hot_n; i < queries; ++i)
    out.push_back({"Q30", excursion.Next()});
  return out;
}

}  // namespace

// --- output -----------------------------------------------------------

static std::string ToJson(bool smoke, const std::vector<DecisionAgg>& aggs,
                          const std::vector<WorkloadRow>& rows) {
  std::string out;
  char buf[512];
  out += "{\n  \"bench\": \"strategy_tournament\",\n";
  std::snprintf(buf, sizeof(buf), "  \"smoke\": %s,\n",
                smoke ? "true" : "false");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"host\": {\"cores\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"git_revision\": \"%s\"},\n",
                std::thread::hardware_concurrency(), DEEPSEA_COMPILER,
                DEEPSEA_BUILD_TYPE, DEEPSEA_GIT_REVISION);
  out += buf;
  out += "  \"per_decision\": [\n";
  for (size_t i = 0; i < aggs.size(); ++i) {
    const DecisionAgg& a = aggs[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"strategy\": \"%s\", \"instances\": %d, "
                  "\"aggregate_benefit\": %.9g, \"swaps\": %lld}%s\n",
                  a.strategy, a.instances, a.aggregate_benefit, a.swaps,
                  i + 1 < aggs.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n  \"workloads\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const WorkloadRow& r = rows[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"workload\": \"%s\", \"strategy\": \"%s\", "
                  "\"total_seconds\": %.3f, \"aggregate_benefit\": %.9g, "
                  "\"swaps\": %lld, \"views\": %lld, \"fragments\": %lld, "
                  "\"pool_bytes\": %.0f}%s\n",
                  r.workload, r.strategy, r.total_seconds,
                  r.aggregate_benefit, r.swaps, r.views,
                  r.fragments, r.pool_bytes,
                  i + 1 < rows.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

static std::string ToCsv(const std::vector<DecisionAgg>& aggs,
                         const std::vector<WorkloadRow>& rows) {
  std::string out =
      "section,workload,strategy,total_seconds,aggregate_benefit,swaps\n";
  char buf[256];
  for (const DecisionAgg& a : aggs) {
    std::snprintf(buf, sizeof(buf), "per_decision,,%s,,%.9g,%lld\n",
                  a.strategy, a.aggregate_benefit, a.swaps);
    out += buf;
  }
  for (const WorkloadRow& r : rows) {
    std::snprintf(buf, sizeof(buf), "workload,%s,%s,%.3f,%.9g,%lld\n",
                  r.workload, r.strategy, r.total_seconds,
                  r.aggregate_benefit, r.swaps);
    out += buf;
  }
  return out;
}

static bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0 && n == content.size();
}

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_strategy_tournament.json";
  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--csv=", 6) == 0) csv_path = argv[i] + 6;
  }
  bench::Banner("Strategy tournament",
                smoke ? "selection strategies head to head (smoke)"
                      : "selection strategies head to head");

  // Section 1: the pure-knapsack tournament. Every instance is checked
  // for the local-search never-worse invariant; an abort here is a
  // regression in the strategy seam, not noise.
  const int instances = smoke ? 32 : 256;
  std::printf("\n-- per-decision knapsack value, %d seeded instances --\n",
              instances);
  const std::vector<DecisionAgg> aggs =
      RunPerDecision(instances, /*items=*/smoke ? 48 : 96);
  {
    TablePrinter table;
    table.Header({"strategy", "sum value", "vs greedy", "swaps"});
    const double greedy = aggs[0].aggregate_benefit;
    for (const DecisionAgg& a : aggs) {
      table.Row({a.strategy, StrFormat("%.4g", a.aggregate_benefit),
                 FmtRatio(a.aggregate_benefit / std::max(greedy, 1e-12)),
                 std::to_string(a.swaps)});
    }
  }
  std::printf("invariant OK: local search never below its greedy seed\n");

  // Section 2: end-to-end, one fresh engine per (workload, strategy).
  struct Scenario {
    const char* name;
    std::vector<WorkloadQuery> workload;
  };
  const Scenario scenarios[] = {
      {"focused", FocusedWorkload(smoke ? 40 : 75)},
      {"sdss", bench::SdssWorkload(smoke ? 120 : 600, /*seed=*/2017)},
  };
  ExperimentRunner runner(bench::Dataset(100.0, /*sdss_distribution=*/true));
  std::vector<WorkloadRow> rows;
  for (const Scenario& scenario : scenarios) {
    std::printf("\n-- workload: %s (%zu queries) --\n", scenario.name,
                scenario.workload.size());
    TablePrinter table;
    table.Header({"strategy", "total (s)", "vs greedy", "benefit", "swaps",
                  "frags"});
    double greedy_seconds = 0.0;
    for (SelectionStrategyKind kind : kSelectionStrategyKinds) {
      StrategySpec spec = bench::DeepSea();
      spec.label = SelectionStrategyName(kind);
      spec.options.selection.kind = kind;
      spec.options.pool_limit_bytes = 2e9;  // tight: selection stays contended
      auto result = runner.Run(spec, scenario.workload);
      if (!result.ok()) {
        std::fprintf(stderr, "run %s/%s failed: %s\n", scenario.name,
                     spec.label.c_str(),
                     result.status().ToString().c_str());
        return 1;
      }
      if (greedy_seconds == 0.0) greedy_seconds = result->total_seconds;
      WorkloadRow row;
      row.workload = scenario.name;
      row.strategy = SelectionStrategyName(kind);
      row.total_seconds = result->total_seconds;
      row.aggregate_benefit = result->totals.selection_benefit;
      row.swaps = result->totals.selection_swaps;
      row.views = result->totals.views_created;
      row.fragments = result->totals.fragments_created;
      row.pool_bytes = result->final_pool_bytes;
      rows.push_back(row);
      table.Row({row.strategy, FmtSeconds(row.total_seconds),
                 FmtRatio(row.total_seconds / std::max(greedy_seconds, 1.0)),
                 StrFormat("%.4g", row.aggregate_benefit),
                 std::to_string(row.swaps), std::to_string(row.fragments)});
    }
    // End-to-end never-worse check on the fixed seeds: unlike the
    // per-instance invariant above this is empirical, not structural —
    // decisions diverge the pool trajectory, so later rounds see
    // different candidate sets — but the workloads are seeded and the
    // simulator is deterministic, so a drop below greedy's aggregate
    // objective here is a real regression in the strategy seam.
    const size_t base = rows.size() - 2;
    if (rows[base + 1].aggregate_benefit <
        rows[base + 0].aggregate_benefit - 1e-12) {
      std::fprintf(stderr,
                   "FAIL workload %s: local search aggregate objective "
                   "below its greedy seed\n",
                   scenario.name);
      return 1;
    }
  }

  const std::string json = ToJson(smoke, aggs, rows);
  if (!WriteFile(json_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!csv_path.empty()) {
    if (!WriteFile(csv_path, ToCsv(aggs, rows))) {
      std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", csv_path.c_str());
  }
  std::printf(
      "\nPer-decision: local search closes greedy's value-order gaps"
      "\n(never worse by construction). End-to-end totals fold in"
      "\nmaterialization cost, so the ordering can differ.\n");
  return 0;
}
