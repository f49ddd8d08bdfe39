#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "bench_util.h"
#include "common/str_util.h"
#include "plan/pushdown.h"

namespace perfbench {

namespace dsea = deepsea;

namespace {

constexpr double kGB = 1e9;

/// Relative agreement of two byte or cost totals.
bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "sdss_roomy", "sdss_tight", "tenants_contended", "physical_answers"};
  return names;
}

std::optional<WorkloadSpec> MakeWorkload(const std::string& name,
                                         uint64_t seed) {
  WorkloadSpec w;
  w.name = name;
  w.data = dsea::bench::Dataset(100.0, /*sdss_distribution=*/true);
  w.options = dsea::bench::DeepSea().options;
  int queries = 0;
  if (name == "sdss_roomy") {
    queries = 1500;
  } else if (name == "sdss_tight") {
    queries = 1500;
    w.options.pool_limit_bytes = 2 * kGB;
  } else if (name == "tenants_contended") {
    // At a 3 ms think time the replan storm made q/s swing by a fifth
    // between identical runs; 10 ms and shorter streams keep replans
    // (about 13% of queries) while q/s holds (see README.md).
    queries = 600;
    w.engines = 3;
    w.options.pool_limit_bytes = 2 * kGB;
    w.think_us = 10000;
  } else if (name == "physical_answers") {
    queries = 300;
    w.options.physical_execution = true;
    w.data.sample_rows_per_fact = 4000;
    w.data.sample_rows_per_dim = 800;
  } else {
    return std::nullopt;
  }
  for (int k = 0; k < kStreams; ++k) {
    w.streams.push_back(dsea::bench::SdssWorkload(queries, seed * kStreams + k));
  }
  return w;
}

Round::Round(const WorkloadSpec& spec, int stream)
    : spec_(spec), stream_(stream) {
  const int64_t t0 = NowNs();
  catalog_ = std::make_unique<dsea::Catalog>();
  if (!dsea::BigBenchDataset::Generate(spec.data, catalog_.get()).ok()) {
    std::fprintf(stderr, "dataset generation failed\n");
    std::exit(1);
  }
  if (spec.engines == 1) {
    engines_.push_back(
        std::make_unique<dsea::DeepSeaEngine>(catalog_.get(), spec.options));
  } else {
    shared_ = std::make_unique<dsea::SharedPool>(catalog_.get(), spec.options);
    for (int e = 0; e < spec.engines; ++e) {
      engines_.push_back(std::make_unique<dsea::DeepSeaEngine>(
          catalog_.get(), shared_.get(), "tenant" + std::to_string(e)));
    }
  }
  plans_.reserve(queries().size());
  for (const dsea::WorkloadQuery& q : queries()) {
    auto plan =
        dsea::BigBenchTemplates::Build(q.template_name, q.range.lo, q.range.hi);
    if (!plan.ok()) {
      std::fprintf(stderr, "plan %s failed: %s\n", q.template_name.c_str(),
                   plan.status().ToString().c_str());
      std::exit(1);
    }
    plans_.push_back(*plan);
  }
  setup_s_ = static_cast<double>(NowNs() - t0) * 1e-9;
}

RoundResult Round::Run(const std::vector<SpanObserver*>& observers,
                       const std::vector<dsea::ExecResult>* truth) {
  const int n = static_cast<int>(plans_.size());
  const int engines = spec_.engines;
  for (int e = 0; e < engines && !observers.empty(); ++e) {
    engines_[e]->set_observer(observers[e]);
  }
  RoundResult r;
  r.stream = stream_;
  r.attempted = n;
  r.latency_s.assign(n, 0.0);
  std::vector<std::optional<dsea::QueryReport>> reports(n);
  const dsea::PoolManager& pool = engines_[0]->pool();
  const auto lock_before = pool.commit_lock_stats();
  const auto shards_before = pool.commit_shard_stats();

  // Tenant e issues stream positions e, e + engines, ... and waits the
  // think time between two of its queries.
  auto client = [&](int e) {
    for (int i = e; i < n; i += engines) {
      if (i != e && spec_.think_us > 0) {
        // The client spins rather than sleeps: there are fewer tenants
        // than cores, and a sleeping thread would hand its query an
        // idle-core wake-up and cold caches, which vary by host.
        const int64_t until = NowNs() + int64_t{1000} * spec_.think_us;
        while (NowNs() < until) {
        }
      }
      SpanObserver* obs = observers.empty() ? nullptr : observers[e];
      if (obs != nullptr) obs->BeginQuery(i);
      const int64_t q0 = NowNs();
      auto report = engines_[e]->ProcessQuery(plans_[i]);
      r.latency_s[i] = static_cast<double>(NowNs() - q0) * 1e-9;
      if (obs != nullptr) obs->EndQuery();
      if (report.ok()) {
        reports[i] = std::move(*report);
      } else {
        std::fprintf(stderr, "%s query %d failed: %s\n", spec_.name.c_str(), i,
                     report.status().ToString().c_str());
      }
    }
  };
  const int64_t t0 = NowNs();
  if (engines == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (int e = 0; e < engines; ++e) threads.emplace_back(client, e);
    for (std::thread& t : threads) t.join();
  }
  r.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;

  const auto lock_after = pool.commit_lock_stats();
  const auto shards_after = pool.commit_shard_stats();
  r.commit_held_s = lock_after.held_seconds - lock_before.held_seconds;
  for (size_t s = 0; s < shards_after.size(); ++s) {
    const double before =
        s < shards_before.size() ? shards_before[s].held_seconds : 0.0;
    r.max_shard_held_s =
        std::max(r.max_shard_held_s, shards_after[s].held_seconds - before);
  }
  for (int e = 0; e < engines; ++e) {
    const dsea::EngineTotals& t = engines_[e]->totals();
    r.totals.views_created += t.views_created;
    r.totals.fragments_created += t.fragments_created;
    r.totals.fragments_evicted += t.fragments_evicted;
    r.totals.replans += t.replans;
    r.totals.replans_conflict += t.replans_conflict;
    r.totals.replans_spurious += t.replans_spurious;
    r.totals.commits_sharded += t.commits_sharded;
    r.totals.commits_exclusive += t.commits_exclusive;
    engines_[e]->set_observer(nullptr);
  }

  for (int i = 0; i < n; ++i) {
    if (!reports[i]) {
      ++r.failed;
      continue;
    }
    const dsea::QueryReport& q = *reports[i];
    r.sim_total += q.total_seconds;
    r.hive_total += q.base_seconds;
    r.materialize_total += q.materialize_seconds;
    r.from_views += q.used_view.empty() ? 0 : 1;
    r.fragments_read += q.fragments_read;
    r.selection_items += q.selection_candidates;
    r.rows_out += static_cast<int64_t>(q.physical.rows.size());
    const double s_max = spec_.options.pool_limit_bytes;
    if (q.pool_bytes_after > s_max * (1.0 + 1e-9)) {
      ++r.smax_overshoots;
      std::fprintf(stderr,
                   "%s query %d left the pool at %.6g B, above S_max %.6g B\n",
                   spec_.name.c_str(), i, q.pool_bytes_after, s_max);
    }
    if (truth != nullptr &&
        (!q.physically_executed || !SameAnswer(q.physical, (*truth)[i]))) {
      ++r.failed;
      std::fprintf(stderr, "%s query %d (%s): answer differs from base tables\n",
                   spec_.name.c_str(), i,
                   q.used_view.empty() ? "base plan" : q.used_view.c_str());
    }
  }

  // The benchmark's own walk of the pool: every materialized fragment
  // and whole view, against the engine's occupancy and the pool files.
  const dsea::DeepSeaEngine& engine = *engines_[0];
  double walk_bytes = 0.0;
  size_t walk_files = 0;
  for (const dsea::ViewInfo* v : engine.views().AllViews()) {
    if (v->whole_materialized) {
      walk_bytes += v->stats.size_bytes;
      ++walk_files;
    }
    for (const auto& [attr, part] : v->partitions) {
      for (const dsea::FragmentStats& f : part.fragments) {
        if (!f.materialized) continue;
        walk_bytes += f.size_bytes;
        ++walk_files;
      }
    }
  }
  r.pool_bytes_final = engine.PoolBytes();
  const double fs_bytes = engine.fs().TotalBytes("pool/");
  const size_t fs_files = engine.fs().List("pool/").size();
  const dsea::IoLedger& ledger = engine.fs().ledger();
  r.bytes_written = ledger.bytes_written;
  r.bytes_deleted = ledger.bytes_deleted;
  if (!Near(walk_bytes, r.pool_bytes_final)) {
    r.errors.push_back(dsea::StrFormat("pool walk %.17g B != PoolBytes %.17g B",
                                       walk_bytes, r.pool_bytes_final));
  }
  if (!Near(walk_bytes, fs_bytes) || walk_files != fs_files) {
    r.errors.push_back(dsea::StrFormat(
        "pool walk %.17g B in %zu fragments != pool files %.17g B in %zu",
        walk_bytes, walk_files, fs_bytes, fs_files));
  }
  if (ledger.FailedOps() != 0) {
    r.errors.push_back(dsea::StrFormat("storage ledger has %lld failed ops",
                                       static_cast<long long>(ledger.FailedOps())));
  }
  return r;
}

std::vector<dsea::ExecResult> GroundTruth(const Round& round) {
  std::vector<dsea::ExecResult> out;
  out.reserve(round.plans().size());
  dsea::Executor exec(&round.catalog());
  for (const dsea::PlanPtr& plan : round.plans()) {
    auto r = exec.Execute(dsea::PushDownSelections(plan, round.catalog()));
    if (!r.ok()) {
      std::fprintf(stderr, "base-table execution failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    out.push_back(std::move(*r));
  }
  return out;
}

bool SameAnswer(const dsea::ExecResult& a, const dsea::ExecResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  std::vector<dsea::Row> ra = a.rows;
  std::vector<dsea::Row> rb = b.rows;
  std::sort(ra.begin(), ra.end());
  std::sort(rb.begin(), rb.end());
  for (size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].size() != rb[i].size()) return false;
    for (size_t c = 0; c < ra[i].size(); ++c) {
      const dsea::Value& x = ra[i][c];
      const dsea::Value& y = rb[i][c];
      if (x.is_numeric() && y.is_numeric()) {
        if (!Near(x.AsNumeric(), y.AsNumeric())) return false;
      } else if (x != y) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
