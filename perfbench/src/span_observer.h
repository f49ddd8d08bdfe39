#ifndef DEEPSEA_PERFBENCH_SPAN_OBSERVER_H_
#define DEEPSEA_PERFBENCH_SPAN_OBSERVER_H_

// The traced run's observer. One SpanObserver is attached per engine,
// so every hook it sees fires on that engine's own thread (the engine
// commits inline) and it needs no locking. The benchmark brackets each
// ProcessQuery with BeginQuery/EndQuery, which records the query span;
// the engine's stage hooks record one child span per EngineStage run
// (a replanned query runs its planning stages twice and gets both).
// Spans stay in memory until the run writes them out.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine_observer.h"

namespace perfbench {

int64_t NowNs();

/// One timed interval. Stage spans carry their EngineStage; the query
/// span (the whole ProcessQuery call) has `is_query` set and is the
/// parent of every stage span with the same query id.
struct Span {
  int64_t query_id = 0;
  int tenant = 0;
  bool is_query = false;
  deepsea::EngineStage stage = deepsea::EngineStage::kRewrite;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanObserver : public deepsea::EngineObserver {
 public:
  /// Query ids are `id_base` plus the query's stream position.
  SpanObserver(int tenant, int64_t id_base)
      : tenant_(tenant), id_base_(id_base) {}

  void BeginQuery(int64_t position);
  void EndQuery();

  void OnStageStart(deepsea::EngineStage stage,
                    const deepsea::QueryContext& ctx) override;
  void OnStageEnd(deepsea::EngineStage stage, const deepsea::QueryContext& ctx,
                  double sim_seconds, double wall_seconds) override;

  const std::vector<Span>& spans() const { return spans_; }
  /// View plus partition candidates generated, summed over queries.
  int64_t candidates() const { return candidates_; }

 private:
  int tenant_;
  int64_t id_base_;
  int64_t query_id_ = -1;
  int64_t query_start_ns_ = 0;
  int64_t stage_start_ns_ = 0;
  std::vector<Span> spans_;
  int64_t candidates_ = 0;
};

/// Writes spans as CSV (query_id, tenant, span, parent, start_us,
/// end_us), times relative to `origin_ns`.
void WriteSpans(std::FILE* out, const std::vector<Span>& spans,
                int64_t origin_ns);

}  // namespace perfbench

#endif  // DEEPSEA_PERFBENCH_SPAN_OBSERVER_H_
