#ifndef DEEPSEA_CORE_SELECTION_STRATEGY_H_
#define DEEPSEA_CORE_SELECTION_STRATEGY_H_

#include <string>
#include <vector>

#include "core/interval.h"

namespace deepsea {

struct ViewInfo;
struct PartitionState;

/// One pool mutation chosen by selection. View pointers are stable
/// (ViewCatalog stores views behind unique_ptr, and delta-owned views
/// keep their address across the fold). Partition pointers may
/// reference the query's PlanningDelta shadows — PoolManager::Apply
/// remaps them onto the real partitions after folding the delta —
/// and fragment entries are re-resolved by interval at apply time
/// because applying earlier actions may grow the fragment vectors.
struct SelectionAction {
  enum class Kind {
    kEvictWholeView,           ///< drop an NP-style whole view
    kEvictFragment,            ///< drop one materialized fragment
    kMaterializeView,          ///< whole-view creation (unpartitioned)
    kMaterializeViewFragment,  ///< one fragment of a view's initial partitioning
    kMaterializeRefinement,    ///< refinement of an existing partition
  };
  Kind kind;
  ViewInfo* view = nullptr;
  PartitionState* part = nullptr;  ///< null for whole-view actions
  Interval interval;               ///< unused for whole-view actions
  /// Estimated bytes: the pool growth of a materialize action, or the
  /// pool bytes an evict action releases (its tracked size).
  double size_bytes = 0.0;
};

/// The declarative outcome of one selection round (Section 7.3): the
/// actions are ordered for application — evictions first (freeing the
/// simulated FS), then materializations in value order.
/// PoolManager::Apply executes them; nothing is mutated in the pool
/// until then.
struct SelectionDecision {
  std::vector<SelectionAction> actions;

  /// Summed knapsack value (the Φ benefit estimate) of the admitted
  /// materialization actions. The materialization service's admission
  /// control sheds the lowest-score intents first under overload.
  double benefit_score = 0.0;

  bool empty() const { return actions.empty(); }
};

/// Which SelectionStrategy resolves the knapsack over ALLCAND.
/// Orthogonal to StrategyKind (which shapes *partitioning* and
/// candidate generation): every StrategyKind except kHive runs a
/// selection round, and any SelectionStrategyKind can resolve it.
enum class SelectionStrategyKind {
  /// The paper's §7.3 greedy knapsack, bit-identical to the historical
  /// inline implementation (the golden traces pin it).
  kGreedy,
  /// Greedy seed + bounded swap-based local search (arXiv 2606.03772
  /// seed): eviction-and-refill moves that drop the k lowest-value
  /// admitted items and greedily refill the freed budget from the
  /// rejected set, kept iff the refill's summed Φ strictly exceeds the
  /// victims', followed by residual-budget fill passes. Never worse
  /// than greedy in knapsack value (every applied move strictly raises
  /// the admitted total).
  kLocalSearch,
};

/// Every SelectionStrategyKind, in ordinal order (name parsing, CLI
/// help text, tests).
constexpr SelectionStrategyKind kSelectionStrategyKinds[] = {
    SelectionStrategyKind::kGreedy,
    SelectionStrategyKind::kLocalSearch,
};

/// Stable lowercase identifier ("greedy", "local_search") used by CLI
/// flags, the QueryReport, and the strategy metrics labels.
const char* SelectionStrategyName(SelectionStrategyKind kind);

/// Parses a SelectionStrategyName. Returns false on an unknown name.
bool ParseSelectionStrategy(const std::string& name,
                            SelectionStrategyKind* out);

/// Knobs of the selection-strategy seam (EngineOptions::selection).
struct SelectionConfig {
  SelectionStrategyKind kind = SelectionStrategyKind::kGreedy;

  /// Local search: hard bound on applied eviction-and-refill moves per
  /// selection round. Each kept move strictly increases the admitted
  /// knapsack value; a move costs O(items^2) refill attempts, so this
  /// also bounds the work to O(swaps * items^2).
  int local_search_max_swaps = 64;
  /// Local search: improvement rounds (swap sweep + fill pass) before
  /// giving up even when still improving.
  int local_search_max_rounds = 4;
};

/// One knapsack item handed to a SelectionStrategy: a candidate pool
/// mutation (new view / fragment) or a piece of existing pool content
/// re-bidding for its spot (Section 7.3's ALLCAND). Built by
/// SelectionPlanner; everything a strategy may consult is in the plain
/// fields — strategies must not dereference `view`/`part` (they are
/// opaque handles the resulting actions carry through to Apply).
struct SelectionCandidate {
  enum class Kind {
    kPoolFragment,     ///< materialized fragment already in the pool
    kPoolWhole,        ///< whole view already in the pool
    kNewView,          ///< whole-view creation (unpartitioned)
    kNewViewFragment,  ///< one fragment of a view's initial partitioning
    kNewFragment,      ///< refinement of an existing partition
  };
  Kind kind;
  double value = 0.0;  ///< Φ ranking value (model-dependent)
  double size = 0.0;   ///< pool bytes the item occupies if admitted
  ViewInfo* view = nullptr;
  PartitionState* part = nullptr;
  Interval interval;
};

/// Everything a strategy sees: the candidate item list in the
/// planner's deterministic construction order, the byte budget
/// (S_max), and the seam's tuning knobs.
struct SelectionInput {
  std::vector<SelectionCandidate> items;
  double budget_bytes = 0.0;
  SelectionConfig config;
};

/// A strategy's result: the declarative decision plus telemetry the
/// engine surfaces through QueryReport and the strategy metrics.
struct SelectionResolution {
  SelectionDecision decision;
  /// True when the knapsack was contended — at least one item was
  /// rejected. The planner promotes the pool sweep's soft reads into
  /// the validated read footprint exactly in this case (an uncontended
  /// knapsack admits everything regardless of the swept values).
  bool contended = false;
  /// The full knapsack objective: summed Φ of every admitted item,
  /// pool content included (the quantity local search provably never
  /// lowers vs its greedy seed). decision.benefit_score covers the
  /// admitted *new* content only — a strictly improving move can trade
  /// a new item for kept pool content, so only the objective carries
  /// the never-worse guarantee.
  double objective_value = 0.0;
  /// Items the resolver ranked.
  int items_considered = 0;
  /// Local search: improving swaps applied this round.
  int swaps_applied = 0;
};

/// The strategy seam: a pure, deterministic function from candidate
/// set + budget to a SelectionDecision. The contract for
/// implementations (see DESIGN.md, "Selection strategies"):
///
///  * Purity — no pool, STAT, or catalog access; no delta writes. The
///    only inputs are the SelectionInput fields; `view`/`part` are
///    opaque handles to copy into actions, never to dereference.
///  * Determinism — output is a pure function of the input. No wall
///    clock, no RNG that is not seeded from the input, and no ordering
///    keyed on pointer values (use item order).
///  * Action ordering — evictions (rejected pool content) first, then
///    materializations; benefit_score sums the admitted new items'
///    values in emission order (float addition order is part of the
///    bit-identity contract).
///
/// Implementations are stateless singletons; ForKind returns the
/// shared instance.
class SelectionStrategy {
 public:
  virtual ~SelectionStrategy() = default;
  /// The SelectionStrategyName of this strategy.
  virtual const char* name() const = 0;
  virtual SelectionResolution Resolve(const SelectionInput& input) const = 0;

  static const SelectionStrategy* ForKind(SelectionStrategyKind kind);
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_SELECTION_STRATEGY_H_
