#ifndef DEEPSEA_PERFBENCH_WORKLOADS_H_
#define DEEPSEA_PERFBENCH_WORKLOADS_H_

// The benchmark's four workloads and one "round" of each: a fresh
// catalog, pool and engine set driven through one of the workload's
// query streams in a closed loop, then checked against the benchmark's
// own accounting. A run cycles through the seed's streams in whole
// rounds, so attempted and failed counts are multiples of the stream
// length.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/shared_pool.h"
#include "exec/executor.h"
#include "exp/experiment.h"
#include "span_observer.h"
#include "workload/bigbench.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  int engines = 1;   ///< tenants on one SharedPool when > 1
  int think_us = 0;  ///< client think time between a tenant's queries
  deepsea::BigBenchDataset::Options data;
  /// Carries the workload's S_max and physical_execution setting.
  deepsea::EngineOptions options;
  /// The query streams a run cycles through, one per round; each is a
  /// bench::SdssWorkload drawn from the run's seed.
  std::vector<std::vector<deepsea::WorkloadQuery>> streams;
};

/// Streams per seed. A run covers each of them at least once, so a
/// metric averages over several independent query streams instead of
/// resting on the traits of one.
constexpr int kStreams = 6;

const std::vector<std::string>& WorkloadNames();

/// The named workload with its streams drawn from `seed`; nullopt for
/// an unknown name.
std::optional<WorkloadSpec> MakeWorkload(const std::string& name,
                                         uint64_t seed);

/// What one round measured and counted. Per-query vectors are indexed
/// by stream position.
struct RoundResult {
  int stream = 0;
  double wall_s = 0.0;  ///< query loop (tenants: think time included)
  std::vector<double> latency_s;  ///< ProcessQuery wall time
  int attempted = 0;
  int failed = 0;  ///< non-OK ProcessQuery or a wrong physical answer
  int smax_overshoots = 0;  ///< queries whose pool_bytes_after > S_max
  double sim_total = 0.0;   ///< sum of total_seconds (exec + materialize)
  double hive_total = 0.0;  ///< sum of base_seconds
  double materialize_total = 0.0;
  int from_views = 0;
  int64_t fragments_read = 0;
  int64_t selection_items = 0;
  int64_t rows_out = 0;
  deepsea::EngineTotals totals;  ///< summed over the round's engines
  double commit_held_s = 0.0;
  double max_shard_held_s = 0.0;
  double pool_bytes_final = 0.0;
  double bytes_written = 0.0;
  double bytes_deleted = 0.0;
  /// Failed output checks (pool walk, storage ledger); empty when all
  /// hold.
  std::vector<std::string> errors;
};

/// One set-up of a workload: construction is the timed set-up phase
/// (catalog generation, pool and engine construction, plan building).
class Round {
 public:
  Round(const WorkloadSpec& spec, int stream);

  double setup_s() const { return setup_s_; }
  const WorkloadSpec& spec() const { return spec_; }
  const deepsea::Catalog& catalog() const { return *catalog_; }
  int stream() const { return stream_; }
  const std::vector<deepsea::WorkloadQuery>& queries() const {
    return spec_.streams[stream_];
  }
  const std::vector<deepsea::PlanPtr>& plans() const { return plans_; }
  const deepsea::DeepSeaEngine& engine(int i) const { return *engines_[i]; }

  /// Drives the stream once. `observers` is empty (untimed hooks off)
  /// or holds one observer per engine. `truth`, when given, holds the
  /// base-table answer of every query; each physical answer is compared
  /// against it. Call once per Round.
  RoundResult Run(const std::vector<SpanObserver*>& observers,
                  const std::vector<deepsea::ExecResult>* truth);

 private:
  const WorkloadSpec& spec_;
  int stream_;
  double setup_s_ = 0.0;
  std::unique_ptr<deepsea::Catalog> catalog_;
  std::unique_ptr<deepsea::SharedPool> shared_;
  std::vector<std::unique_ptr<deepsea::DeepSeaEngine>> engines_;
  std::vector<deepsea::PlanPtr> plans_;
};

/// Base-table answers of a round's plans: the selection-pushed base
/// plan executed over the round's (still untouched) catalog.
std::vector<deepsea::ExecResult> GroundTruth(const Round& round);

/// Row-multiset equality; numeric cells agree within a relative
/// tolerance so that a reordered aggregation still matches.
bool SameAnswer(const deepsea::ExecResult& a, const deepsea::ExecResult& b);

}  // namespace perfbench

#endif  // DEEPSEA_PERFBENCH_WORKLOADS_H_
