#include "span_observer.h"

#include <chrono>

#include "core/query_context.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanObserver::BeginQuery(int64_t position) {
  query_id_ = id_base_ + position;
  query_start_ns_ = NowNs();
}

void SpanObserver::EndQuery() {
  Span s;
  s.query_id = query_id_;
  s.tenant = tenant_;
  s.is_query = true;
  s.start_ns = query_start_ns_;
  s.end_ns = NowNs();
  spans_.push_back(s);
}

void SpanObserver::OnStageStart(deepsea::EngineStage stage,
                                const deepsea::QueryContext& ctx) {
  (void)stage;
  (void)ctx;
  stage_start_ns_ = NowNs();
}

void SpanObserver::OnStageEnd(deepsea::EngineStage stage,
                              const deepsea::QueryContext& ctx,
                              double sim_seconds, double wall_seconds) {
  (void)sim_seconds;
  (void)wall_seconds;
  Span s;
  s.query_id = query_id_;
  s.tenant = tenant_;
  s.stage = stage;
  s.start_ns = stage_start_ns_;
  s.end_ns = NowNs();
  spans_.push_back(s);
  if (stage == deepsea::EngineStage::kCandidates) {
    candidates_ += static_cast<int64_t>(ctx.view_candidates.size() +
                                        ctx.fragment_candidates.size());
  }
}

void WriteSpans(std::FILE* out, const std::vector<Span>& spans,
                int64_t origin_ns) {
  std::fprintf(out, "query_id,tenant,span,parent,start_us,end_us\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%lld,%d,%s,%s,%.3f,%.3f\n",
                 static_cast<long long>(s.query_id), s.tenant,
                 s.is_query ? "query" : deepsea::EngineStageName(s.stage),
                 s.is_query ? "" : "query",
                 static_cast<double>(s.start_ns - origin_ns) * 1e-3,
                 static_cast<double>(s.end_ns - origin_ns) * 1e-3);
  }
}

}  // namespace perfbench
