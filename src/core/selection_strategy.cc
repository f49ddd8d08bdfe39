#include "core/selection_strategy.h"

#include <algorithm>
#include <cassert>

namespace deepsea {

const char* SelectionStrategyName(SelectionStrategyKind kind) {
  switch (kind) {
    case SelectionStrategyKind::kGreedy:
      return "greedy";
    case SelectionStrategyKind::kLocalSearch:
      return "local_search";
  }
  return "greedy";
}

bool ParseSelectionStrategy(const std::string& name,
                            SelectionStrategyKind* out) {
  for (SelectionStrategyKind kind : kSelectionStrategyKinds) {
    if (name == SelectionStrategyName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

namespace {

using CandKind = SelectionCandidate::Kind;

/// Value-descending stable order — ties keep the planner's construction
/// order, which is what pins greedy bit-identical to the goldens.
std::vector<SelectionCandidate> SortedByValue(
    std::vector<SelectionCandidate> items) {
  std::stable_sort(items.begin(), items.end(),
                   [](const SelectionCandidate& a, const SelectionCandidate& b) {
                     return a.value > b.value;
                   });
  return items;
}

/// Summed Φ of the admitted items — the knapsack objective, pool
/// content included — accumulated in sorted order (the float addition
/// order is input-derived, so the result is deterministic).
double ObjectiveOf(const std::vector<SelectionCandidate>& sorted,
                   const std::vector<char>& admitted) {
  double objective = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (admitted[i]) objective += sorted[i].value;
  }
  return objective;
}

/// The §7.3 greedy scan: admit in value order while the item fits.
/// Returns the residual budget; `admitted` gets one flag per item.
double GreedyScan(const std::vector<SelectionCandidate>& sorted, double budget,
                  std::vector<char>* admitted) {
  admitted->assign(sorted.size(), 0);
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].size <= budget) {
      (*admitted)[i] = 1;
      budget -= sorted[i].size;
    }
  }
  return budget;
}

/// Emits the declarative decision from the admitted flags: rejected
/// pool content becomes evictions first, then admitted new content
/// becomes materializations, both in sorted order. With the greedy
/// flags this reproduces the historical reject/admit loops exactly —
/// those lists were themselves filtered views of the sorted scan.
SelectionDecision BuildDecision(const std::vector<SelectionCandidate>& sorted,
                                const std::vector<char>& admitted) {
  SelectionDecision decision;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (admitted[i]) continue;
    const SelectionCandidate& it = sorted[i];
    if (it.kind == CandKind::kPoolWhole) {
      SelectionAction a;
      a.kind = SelectionAction::Kind::kEvictWholeView;
      a.view = it.view;
      a.size_bytes = it.size;
      decision.actions.push_back(a);
    } else if (it.kind == CandKind::kPoolFragment) {
      SelectionAction a;
      a.kind = SelectionAction::Kind::kEvictFragment;
      a.view = it.view;
      a.part = it.part;
      a.interval = it.interval;
      a.size_bytes = it.size;
      decision.actions.push_back(a);
    }
  }
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (!admitted[i]) continue;
    const SelectionCandidate& it = sorted[i];
    SelectionAction a;
    a.view = it.view;
    a.part = it.part;
    a.interval = it.interval;
    a.size_bytes = it.size;
    switch (it.kind) {
      case CandKind::kNewView:
        a.kind = SelectionAction::Kind::kMaterializeView;
        break;
      case CandKind::kNewViewFragment:
        a.kind = SelectionAction::Kind::kMaterializeViewFragment;
        break;
      case CandKind::kNewFragment:
        a.kind = SelectionAction::Kind::kMaterializeRefinement;
        break;
      default:
        continue;  // pool content that stays: nothing to do
    }
    decision.benefit_score += it.value;
    decision.actions.push_back(a);
  }
  return decision;
}

SelectionResolution ResolveGreedy(std::vector<SelectionCandidate> items,
                                  double budget_bytes) {
  SelectionResolution res;
  res.items_considered = static_cast<int>(items.size());
  const std::vector<SelectionCandidate> sorted = SortedByValue(std::move(items));
  std::vector<char> admitted;
  GreedyScan(sorted, budget_bytes, &admitted);
  res.contended =
      std::find(admitted.begin(), admitted.end(), 0) != admitted.end();
  res.objective_value = ObjectiveOf(sorted, admitted);
  res.decision = BuildDecision(sorted, admitted);
  return res;
}

SelectionResolution ResolveLocalSearch(std::vector<SelectionCandidate> items,
                                       double budget_bytes,
                                       const SelectionConfig& config) {
  SelectionResolution res;
  res.items_considered = static_cast<int>(items.size());
  const std::vector<SelectionCandidate> sorted = SortedByValue(std::move(items));
  std::vector<char> admitted;
  double residual = GreedyScan(sorted, budget_bytes, &admitted);
  const size_t n = sorted.size();
  // Contention is judged on the greedy seed: the pool sweep's values
  // shaped the starting point even when later swaps/fills re-admit
  // everything, so the promotion decision must match what the swept
  // reads influenced.
  res.contended =
      std::find(admitted.begin(), admitted.end(), 0) != admitted.end();

  // Improvement loop: eviction-and-refill moves. A swap that admits a
  // rejected item by evicting victims whose summed value is below that
  // single item's can never fire from a greedy-by-value seed — every
  // victim cheaper than the rejected item was admitted *after* it in
  // the scan, so the victims' total size plus the residual is strictly
  // less than the rejected size (that is why it was rejected). The
  // profitable direction is the reverse: evict the k *lowest-value*
  // admitted items (a size-hungry high-value item greedy admitted
  // early, or zero-value pool content holding space) and greedily
  // refill the freed budget from the rejected set; keep the move iff
  // the refill's summed value strictly exceeds the victims'. Each kept
  // move strictly raises the admitted knapsack value, so the loop
  // terminates and the result is never worse than the greedy seed.
  //
  // All orders are input-derived and deterministic: victims ascend by
  // value (ties toward the larger size — more budget freed per value
  // given up — then toward the later sorted position); refills follow
  // the value-descending sorted scan, positive-value items only.
  std::vector<size_t> victim_order;
  std::vector<size_t> fills;
  for (int round = 0; round < config.local_search_max_rounds; ++round) {
    bool changed = false;
    bool improving = true;
    while (improving && res.swaps_applied < config.local_search_max_swaps) {
      improving = false;
      victim_order.clear();
      for (size_t a = 0; a < n; ++a) {
        if (admitted[a]) victim_order.push_back(a);
      }
      std::sort(victim_order.begin(), victim_order.end(),
                [&sorted](size_t x, size_t y) {
                  if (sorted[x].value != sorted[y].value)
                    return sorted[x].value < sorted[y].value;
                  if (sorted[x].size != sorted[y].size)
                    return sorted[x].size > sorted[y].size;
                  return x > y;
                });
      // Try evicting the k cheapest victims, k = 1..all, and take the
      // first strictly improving refill (first-improvement restarts
      // the sweep with fresh victim ranks).
      double freed = residual, victim_value = 0.0;
      for (size_t k = 0; k < victim_order.size() && !improving; ++k) {
        freed += sorted[victim_order[k]].size;
        victim_value += sorted[victim_order[k]].value;
        fills.clear();
        double fill_budget = freed, gain = 0.0;
        for (size_t r = 0; r < n; ++r) {
          if (admitted[r] || sorted[r].value <= 0.0) continue;
          if (sorted[r].size <= fill_budget) {
            fills.push_back(r);
            fill_budget -= sorted[r].size;
            gain += sorted[r].value;
          }
        }
        if (gain <= victim_value) continue;  // no strict improvement
        for (size_t v = 0; v <= k; ++v) admitted[victim_order[v]] = 0;
        for (size_t r : fills) admitted[r] = 1;
        residual = fill_budget;
        ++res.swaps_applied;
        improving = true;
        changed = true;
      }
    }
    // Fill pass: admit rejected positive-value items the residual now
    // fits (freed budget a move left over, or seed-time gaps).
    for (size_t r = 0; r < n; ++r) {
      if (admitted[r] || sorted[r].value <= 0.0) continue;
      if (sorted[r].size <= residual) {
        admitted[r] = 1;
        residual -= sorted[r].size;
        changed = true;
      }
    }
    if (!changed) break;
  }
  res.objective_value = ObjectiveOf(sorted, admitted);
  res.decision = BuildDecision(sorted, admitted);
  return res;
}

class GreedyStrategy : public SelectionStrategy {
 public:
  const char* name() const override { return "greedy"; }
  SelectionResolution Resolve(const SelectionInput& input) const override {
    return ResolveGreedy(input.items, input.budget_bytes);
  }
};

class LocalSearchStrategy : public SelectionStrategy {
 public:
  const char* name() const override { return "local_search"; }
  SelectionResolution Resolve(const SelectionInput& input) const override {
    return ResolveLocalSearch(input.items, input.budget_bytes, input.config);
  }
};

}  // namespace

const SelectionStrategy* SelectionStrategy::ForKind(SelectionStrategyKind kind) {
  static const GreedyStrategy greedy;
  static const LocalSearchStrategy local_search;
  switch (kind) {
    case SelectionStrategyKind::kGreedy:
      return &greedy;
    case SelectionStrategyKind::kLocalSearch:
      return &local_search;
  }
  return &greedy;
}

}  // namespace deepsea
