// The repository benchmark: drives one of four SDSS-patterned workloads
// through the public DeepSeaEngine / SharedPool API for a fixed
// measured time, checks every round's outputs, and prints its metrics
// as one JSON object on the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <csv>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 spends half the
// time untraced and half with a SpanObserver per engine, then replays
// the core kernels on the final pool, and prints the per-layer
// metrics; --spans names the CSV the traced spans are written to.
// See README.md for the workloads and the metric definitions.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "catalog/histogram.h"
#include "common/str_util.h"
#include "core/mle_model.h"
#include "core/partition_match.h"
#include "span_observer.h"
#include "workloads.h"

namespace dsea = deepsea;
using perfbench::Round;
using perfbench::RoundResult;
using perfbench::Span;
using perfbench::SpanObserver;
using perfbench::WorkloadSpec;

namespace {

/// Set-ups timed per run at least, so setup_s is a median of several.
constexpr int kMinSetups = 15;
/// Wall time each kernel replay loop runs for, at least.
constexpr double kKernelSeconds = 0.1;
/// Workload ranges the kernel replay probes each partition with.
constexpr size_t kKernelRanges = 256;
/// Kernel results land here so the timed calls cannot be optimized away.
volatile double g_kernel_sink = 0.0;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `sorted`.
double Percentile(const std::vector<double>& sorted, double pct) {
  size_t idx = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  idx = std::clamp<size_t>(idx, 1, sorted.size());
  return sorted[idx - 1];
}

/// The rounds of one untraced or traced phase of a run.
struct Phase {
  std::vector<RoundResult> rounds;
  std::vector<double> setups;
  std::deque<SpanObserver> observers;  ///< traced phases: per round x engine
  int attempted = 0;
  int failed = 0;
  double wall_s = 0.0;
  double QueriesPerSecond() const { return attempted / wall_s; }
};

/// Runs rounds back to back, cycling through the workload's streams,
/// and stops at the round count whose query loops add up closest to
/// `seconds`, but not before every stream has had a round. The last
/// round is handed back through `keep_last` for the kernel replay.
Phase RunPhase(const WorkloadSpec& spec, double seconds, bool traced,
               const std::vector<std::vector<dsea::ExecResult>>& truth,
               std::unique_ptr<Round>* keep_last) {
  Phase p;
  std::unique_ptr<Round> round;
  const size_t n = spec.streams.front().size();
  while (p.rounds.size() < static_cast<size_t>(perfbench::kStreams) ||
         p.wall_s + 0.5 * p.wall_s / p.rounds.size() < seconds) {
    const int stream = static_cast<int>(p.rounds.size()) % perfbench::kStreams;
    round = std::make_unique<Round>(spec, stream);
    p.setups.push_back(round->setup_s());
    std::vector<SpanObserver*> obs;
    if (traced) {
      for (int e = 0; e < spec.engines; ++e) {
        p.observers.emplace_back(e, static_cast<int64_t>(p.rounds.size() * n));
        obs.push_back(&p.observers.back());
      }
    }
    p.rounds.push_back(
        round->Run(obs, truth.empty() ? nullptr : &truth[stream]));
    const RoundResult& r = p.rounds.back();
    std::vector<double> lat = r.latency_s;
    std::sort(lat.begin(), lat.end());
    std::printf("round %zu%s, stream %d: %.3f s, %.1f q/s, p50 %.3f ms, "
                "p99 %.3f ms, sim %.17g s\n",
                p.rounds.size(), traced ? " (traced)" : "", stream, r.wall_s,
                r.attempted / r.wall_s, Percentile(lat, 50.0) * 1e3,
                Percentile(lat, 99.0) * 1e3, r.sim_total);
    p.attempted += p.rounds.back().attempted;
    p.failed += p.rounds.back().failed;
    p.wall_s += p.rounds.back().wall_s;
  }
  if (keep_last != nullptr) *keep_last = std::move(round);
  return p;
}

// --- kernel replay ---------------------------------------------------

struct KernelStats {
  double partition_match_us = 0.0;
  double partition_match_fragments = 0.0;  ///< mean input size per call
  double mle_adjust_us = 0.0;
  double mle_adjust_fragments = 0.0;
  double histogram_fraction_ns = 0.0;
  double histogram_bins = 0.0;
};

/// Runs `body` (which returns its call count) until kKernelSeconds have
/// passed; returns nanoseconds per call.
template <typename Body>
double TimePerCall(Body body) {
  int64_t calls = 0;
  const int64_t t0 = perfbench::NowNs();
  int64_t elapsed = 0;
  do {
    calls += body();
    elapsed = perfbench::NowNs() - t0;
  } while (elapsed < static_cast<int64_t>(kKernelSeconds * 1e9));
  return calls > 0 ? static_cast<double>(elapsed) / static_cast<double>(calls)
                   : 0.0;
}

/// Calls PartitionMatch, MleFragmentModel::Adjust and
/// AttributeHistogram::FractionInRange on the final pool's partitions,
/// view histograms and the workload's own ranges.
KernelStats ReplayKernels(const Round& round) {
  const dsea::DeepSeaEngine& engine = round.engine(0);
  std::vector<const dsea::PartitionState*> parts;
  std::vector<const dsea::AttributeHistogram*> hists;
  for (const dsea::ViewInfo* v : engine.views().AllViews()) {
    for (const auto& [attr, part] : v->partitions) {
      if (!part.AnyMaterialized()) continue;
      parts.push_back(&part);
      auto table = round.catalog().Get(v->id);
      if (!table.ok()) continue;
      if (const dsea::AttributeHistogram* h = (*table)->GetHistogram(attr)) {
        hists.push_back(h);
      }
    }
  }
  std::vector<dsea::Interval> ranges;
  for (const dsea::WorkloadQuery& q : round.queries()) {
    if (ranges.size() == kKernelRanges) break;
    ranges.push_back(q.range);
  }
  std::vector<std::vector<dsea::Interval>> covers;
  for (const dsea::PartitionState* part : parts) {
    covers.push_back(part->MaterializedIntervals());
  }

  KernelStats k;
  double sink = 0.0;
  if (!covers.empty()) {
    double frags = 0.0;
    for (const auto& c : covers) frags += static_cast<double>(c.size());
    k.partition_match_fragments = frags / static_cast<double>(covers.size());
    k.partition_match_us = 1e-3 * TimePerCall([&] {
      for (const auto& c : covers) {
        for (const dsea::Interval& r : ranges) {
          auto m = dsea::PartitionMatch(c, r);
          sink += m.ok() ? static_cast<double>(m->size()) : 0.0;
        }
      }
      return static_cast<int64_t>(covers.size() * ranges.size());
    });
    const dsea::MleFragmentModel model(engine.options().mle);
    const dsea::DecayFunction decay(engine.options().decay);
    const double t_now = static_cast<double>(engine.now());
    frags = 0.0;
    for (const auto* part : parts) frags += static_cast<double>(part->fragments.size());
    k.mle_adjust_fragments = frags / static_cast<double>(parts.size());
    k.mle_adjust_us = 1e-3 * TimePerCall([&] {
      for (const auto* part : parts) {
        sink += model.Adjust(part->fragments, part->domain, t_now, decay).total;
      }
      return static_cast<int64_t>(parts.size());
    });
  }
  if (!hists.empty()) {
    double bins = 0.0;
    for (const auto* h : hists) bins += h->num_bins();
    k.histogram_bins = bins / static_cast<double>(hists.size());
    k.histogram_fraction_ns = TimePerCall([&] {
      for (const auto* h : hists) {
        for (const dsea::Interval& r : ranges) sink += h->FractionInRange(r);
      }
      return static_cast<int64_t>(hists.size() * ranges.size());
    });
  }
  g_kernel_sink = sink;
  return k;
}

// --- checks ----------------------------------------------------------

/// Properties every run checks; returns the failures. `rs` starts with
/// one round of each stream, in stream order.
std::vector<std::string> CheckRounds(const WorkloadSpec& spec,
                                     const std::vector<const RoundResult*>& rs) {
  std::vector<std::string> errors;
  for (const RoundResult* r : rs) {
    errors.insert(errors.end(), r->errors.begin(), r->errors.end());
    // Fig. 5a: with a roomy pool DeepSea beats the Hive reference.
    if (spec.name == "sdss_roomy" && !(r->sim_total < r->hive_total)) {
      errors.push_back(dsea::StrFormat("sim total %.17g >= Hive %.17g",
                                       r->sim_total, r->hive_total));
    }
    // One engine decides deterministically and observers change
    // nothing, so every round of one stream costs the same.
    const RoundResult* first = rs[static_cast<size_t>(r->stream)];
    if (spec.engines == 1 && r->sim_total != first->sim_total) {
      errors.push_back(dsea::StrFormat(
          "stream %d: sim total %.17g differs from its first round's %.17g",
          r->stream, r->sim_total, first->sim_total));
    }
  }
  return errors;
}

/// Each query's stage spans must lie inside its query span.
std::vector<std::string> CheckSpans(const std::vector<Span>& spans) {
  std::map<int64_t, const Span*> query;
  for (const Span& s : spans) {
    if (s.is_query) query[s.query_id] = &s;
  }
  std::map<int64_t, int64_t> staged;
  std::vector<std::string> errors;
  for (const Span& s : spans) {
    if (s.is_query) continue;
    auto it = query.find(s.query_id);
    if (it == query.end() || s.start_ns < it->second->start_ns ||
        s.end_ns > it->second->end_ns) {
      errors.push_back(dsea::StrFormat("span %s of query %lld outside its query",
                                       dsea::EngineStageName(s.stage),
                                       static_cast<long long>(s.query_id)));
      break;
    }
    staged[s.query_id] += s.end_ns - s.start_ns;
  }
  for (const auto& [id, ns] : staged) {
    const Span* q = query[id];
    if (ns > q->end_ns - q->start_ns) {
      errors.push_back(dsea::StrFormat("query %lld stages exceed its span",
                                       static_cast<long long>(id)));
      break;
    }
  }
  return errors;
}

// --- metrics ---------------------------------------------------------

/// Each stream's rounds are pooled: its q/s is queries over wall time,
/// its latency percentiles are taken over all its samples. Wall-clock
/// metrics are the median over the streams, so a host stall or speed
/// burst that hits one stream's rounds does not move them; sim cost,
/// which does not depend on the host, is the mean over the streams.
std::vector<Metric> EndToEnd(const Phase& p, double setup_s) {
  const int k = perfbench::kStreams;
  std::vector<double> queries(k, 0.0), wall(k, 0.0);
  std::vector<std::vector<double>> lat(k), sim(k);
  for (const RoundResult& r : p.rounds) {
    queries[r.stream] += r.attempted;
    wall[r.stream] += r.wall_s;
    lat[r.stream].insert(lat[r.stream].end(), r.latency_s.begin(),
                         r.latency_s.end());
    sim[r.stream].push_back(r.sim_total / r.attempted);
  }
  std::vector<double> qps, p50, p99;
  double sim_sum = 0.0;
  size_t min_samples = SIZE_MAX;
  for (int s = 0; s < k; ++s) {
    std::sort(lat[s].begin(), lat[s].end());
    qps.push_back(queries[s] / wall[s]);
    p50.push_back(Percentile(lat[s], 50.0) * 1e3);
    p99.push_back(Percentile(lat[s], 99.0) * 1e3);
    sim_sum += Median(sim[s]);
    min_samples = std::min(min_samples, lat[s].size());
  }
  std::printf("latency samples: %zu rounds, at least %zu per stream (%zu "
              "beyond p99)\n",
              p.rounds.size(), min_samples,
              min_samples - static_cast<size_t>(std::ceil(0.99 * min_samples)));
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"throughput_qps", Median(qps), "1/s"},
      {"latency_p50_ms", Median(p50), "ms"},
      {"latency_p99_ms", Median(p99), "ms"},
      {"sim_s_per_query", sim_sum / k, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
  };
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const Phase& untraced,
                             const Phase& traced, const KernelStats& k) {
  const size_t n = spec.streams.front().size();
  const size_t decile = std::max<size_t>(1, n / 10);
  // Span time by stage, per stream position for selection.
  std::map<dsea::EngineStage, double> stage_ns;
  std::vector<double> selection_ns(n, 0.0);
  double query_ns = 0.0;
  int64_t candidates = 0;
  for (const SpanObserver& o : traced.observers) {
    candidates += o.candidates();
    for (const Span& s : o.spans()) {
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      if (s.is_query) {
        query_ns += d;
        continue;
      }
      stage_ns[s.stage] += d;
      if (s.stage == dsea::EngineStage::kSelection) {
        selection_ns[static_cast<size_t>(s.query_id) % n] += d;
      }
    }
  }
  double first = 0.0, last = 0.0, staged = 0.0;
  for (size_t i = 0; i < decile; ++i) {
    first += selection_ns[i];
    last += selection_ns[n - 1 - i];
  }
  for (const auto& [stage, ns] : stage_ns) staged += ns;

  const double rounds = static_cast<double>(traced.rounds.size());
  const double queries = static_cast<double>(traced.attempted);
  double from_views = 0, frags_read = 0, items = 0, rows = 0, sim = 0,
         mat = 0, hive = 0, views = 0, frags_made = 0, frags_evicted = 0,
         written = 0, deleted = 0, pool_final = 0, held = 0, shard = 0,
         replans = 0, conflict = 0, spurious = 0, sharded = 0, exclusive = 0;
  for (const RoundResult& r : traced.rounds) {
    from_views += r.from_views;
    frags_read += static_cast<double>(r.fragments_read);
    items += static_cast<double>(r.selection_items);
    rows += static_cast<double>(r.rows_out);
    sim += r.sim_total;
    mat += r.materialize_total;
    hive += r.hive_total;
    views += static_cast<double>(r.totals.views_created);
    frags_made += static_cast<double>(r.totals.fragments_created);
    frags_evicted += static_cast<double>(r.totals.fragments_evicted);
    written += r.bytes_written;
    deleted += r.bytes_deleted;
    pool_final += r.pool_bytes_final;
    held += r.commit_held_s / r.wall_s;
    shard += r.max_shard_held_s / r.wall_s;
    replans += static_cast<double>(r.totals.replans);
    conflict += static_cast<double>(r.totals.replans_conflict);
    spurious += static_cast<double>(r.totals.replans_spurious);
    sharded += static_cast<double>(r.totals.commits_sharded);
    exclusive += static_cast<double>(r.totals.commits_exclusive);
  }
  int overshoots = 0;
  for (const Phase* p : {&untraced, &traced}) {
    for (const RoundResult& r : p->rounds) overshoots += r.smax_overshoots;
  }
  auto us = [&](dsea::EngineStage s) { return stage_ns[s] * 1e-3 / queries; };
  return {
      {"rewrite.wall_us", us(dsea::EngineStage::kRewrite), "us"},
      {"rewrite.from_views", from_views / rounds, "count/round"},
      {"rewrite.fragments_read", frags_read / queries, "count/query"},
      {"candidates.wall_us", us(dsea::EngineStage::kCandidates), "us"},
      {"candidates.count", static_cast<double>(candidates) / queries,
       "count/query"},
      {"selection.wall_us", us(dsea::EngineStage::kSelection), "us"},
      {"selection.wall_us_first_decile", first * 1e-3 / (rounds * decile), "us"},
      {"selection.wall_us_last_decile", last * 1e-3 / (rounds * decile), "us"},
      {"selection.items", items / queries, "count/query"},
      {"apply.wall_us",
       us(dsea::EngineStage::kApply) + us(dsea::EngineStage::kMerge), "us"},
      {"apply.views_created", views / rounds, "count/round"},
      {"apply.fragments_created", frags_made / rounds, "count/round"},
      {"apply.fragments_evicted", frags_evicted / rounds, "count/round"},
      {"apply.gb_written", written * 1e-9 / rounds, "GB/round"},
      {"apply.gb_evicted", deleted * 1e-9 / rounds, "GB/round"},
      {"apply.pool_gb_final", pool_final * 1e-9 / rounds, "GB"},
      {"commit.residual_us", (query_ns - staged) * 1e-3 / queries, "us"},
      {"commit.held_fraction", held / rounds, "fraction"},
      {"commit.max_shard_held_fraction", shard / rounds, "fraction"},
      {"commit.replans", replans / rounds, "count/round"},
      {"commit.replans_conflict", conflict / rounds, "count/round"},
      {"commit.replans_spurious", spurious / rounds, "count/round"},
      {"commit.sharded", sharded / rounds, "count/round"},
      {"commit.exclusive", exclusive / rounds, "count/round"},
      {"commit.smax_overshoots", static_cast<double>(overshoots), "count"},
      {"exec.wall_us", us(dsea::EngineStage::kPhysical), "us"},
      {"exec.rows_out", rows / queries, "rows/query"},
      {"sim.exec_s", (sim - mat) / queries, "s/query"},
      {"sim.materialize_s", mat / queries, "s/query"},
      {"sim.hive_s", hive / queries, "s/query"},
      {"kernel.partition_match_us", k.partition_match_us, "us"},
      {"kernel.partition_match_fragments", k.partition_match_fragments,
       "count"},
      {"kernel.mle_adjust_us", k.mle_adjust_us, "us"},
      {"kernel.mle_adjust_fragments", k.mle_adjust_fragments, "count"},
      {"kernel.histogram_fraction_ns", k.histogram_fraction_ns, "ns"},
      {"kernel.histogram_bins", k.histogram_bins, "count"},
      {"trace.overhead_fraction",
       1.0 - traced.QueriesPerSecond() / untraced.QueriesPerSecond(),
       "fraction"},
  };
}

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <csv>]\nworkloads:");
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  const auto spec = perfbench::MakeWorkload(workload, seed);
  if (!spec || seconds <= 0.0 || (trace != 0 && trace != 1) || argc % 2 == 0) {
    return Usage();
  }

  // Base-table answers depend only on the stream (every round generates
  // the same data): compute them once per stream, before any timing.
  std::vector<std::vector<dsea::ExecResult>> truth;
  for (int k = 0; spec->options.physical_execution && k < perfbench::kStreams;
       ++k) {
    truth.push_back(perfbench::GroundTruth(Round(*spec, k)));
  }

  std::printf("workload %s seed %llu: %d streams of %zu queries, %d engine(s)\n",
              spec->name.c_str(), static_cast<unsigned long long>(seed),
              perfbench::kStreams, spec->streams.front().size(), spec->engines);
  Phase untraced = RunPhase(*spec, trace == 1 ? seconds / 2 : seconds,
                            /*traced=*/false, truth, nullptr);
  std::vector<const RoundResult*> all;
  for (const RoundResult& r : untraced.rounds) all.push_back(&r);

  if (trace == 0) {
    std::vector<double> setups = untraced.setups;
    while (setups.size() < static_cast<size_t>(kMinSetups)) {
      setups.push_back(Round(*spec, 0).setup_s());
    }
    const std::vector<std::string> errors = CheckRounds(*spec, all);
    for (const std::string& e : errors) std::fprintf(stderr, "CHECK: %s\n", e.c_str());
    std::printf("rounds %zu, measured %.3f s\n", untraced.rounds.size(),
                untraced.wall_s);
    PrintResult(errors.empty(), untraced.attempted, untraced.failed,
                EndToEnd(untraced, Median(setups)));
    return 0;
  }

  std::unique_ptr<Round> last;
  Phase traced = RunPhase(*spec, seconds / 2, /*traced=*/true, truth, &last);
  for (const RoundResult& r : traced.rounds) all.push_back(&r);
  std::vector<std::string> errors = CheckRounds(*spec, all);
  std::vector<Span> spans;
  int64_t origin_ns = INT64_MAX;
  for (const SpanObserver& o : traced.observers) {
    spans.insert(spans.end(), o.spans().begin(), o.spans().end());
    for (const Span& s : o.spans()) origin_ns = std::min(origin_ns, s.start_ns);
  }
  const std::vector<std::string> span_errors = CheckSpans(spans);
  errors.insert(errors.end(), span_errors.begin(), span_errors.end());
  const KernelStats kernels = ReplayKernels(*last);
  if (!spans_path.empty()) {
    std::FILE* out = std::fopen(spans_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      return 1;
    }
    perfbench::WriteSpans(out, spans, origin_ns);
    std::fclose(out);
  }
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK: %s\n", e.c_str());
  std::printf("rounds %zu untraced + %zu traced\n", untraced.rounds.size(),
              traced.rounds.size());
  PrintResult(errors.empty(), untraced.attempted + traced.attempted,
              untraced.failed + traced.failed,
              PerLayer(*spec, untraced, traced, kernels));
  return 0;
}
