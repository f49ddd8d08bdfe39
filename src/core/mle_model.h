#ifndef DEEPSEA_CORE_MLE_MODEL_H_
#define DEEPSEA_CORE_MLE_MODEL_H_

#include <vector>

#include "common/math_util.h"
#include "core/decay.h"
#include "core/interval.h"
#include "core/view_stats.h"

namespace deepsea {

/// Configuration of the probabilistic fragment benefit model (Section
/// 7.1, "Probabilistic Fragment Benefit Model").
struct MleConfig {
  /// Target number of equi-size "parts" the attribute domain is split
  /// into. The actual count is adjusted so no part is partially
  /// contained in a fragment (see ChoosePartCount).
  int target_parts = 32;
  /// Hard upper bound on the number of parts (guards degenerate
  /// boundary layouts).
  int max_parts = 4096;
  /// Robustness guard: when the fitted standard deviation exceeds this
  /// fraction of the domain width, the access pattern is too dispersed
  /// for a single Normal (e.g. Zipf-scattered hot spots, Fig. 8b) and
  /// Adjust falls back to the raw decayed hit counts, making the model
  /// degrade to Nectar-style counting instead of mispredicting.
  double max_stddev_fraction = 0.15;
};

/// Implements the paper's fragment-correlation smoothing: treat decayed
/// hits on fragments as samples from a Normal access distribution over
/// the partition attribute's domain, fit N(mu, sigma) by maximum
/// likelihood (adjusted sample variance), and redistribute the total hit
/// mass across fragments through the fitted CDF:
///
///   H_A(I) = H_total * (P(x <= u) - P(x <= l))   for I = [l, u].
///
/// Fragments near hot spots thereby receive benefit even when their own
/// raw hit counts are low, which is what keeps "neighbors of hot
/// fragments" in the pool (Fig. 8a).
class MleFragmentModel {
 public:
  explicit MleFragmentModel(MleConfig config = MleConfig()) : cfg_(config) {}

  /// Result of one smoothing pass over a partition's fragments.
  struct AdjustedHits {
    /// Adjusted hit count per input fragment, aligned with the input.
    std::vector<double> hits;
    /// Total decayed hits across the partition (H_total).
    double total = 0.0;
    /// The fitted distribution (valid=false when there were no hits, in
    /// which case `hits` are all zero).
    NormalFit fit;
  };

  /// Computes H_A for every fragment of a partition over `domain`.
  /// `t_now` and `dec` define the decayed hit counts H(I).
  ///
  /// `bases`, when non-null, is parallel to `fragments` and supplies
  /// each fragment's shared-pool base (nullptr entries for fragments
  /// without one). This is the PlanningDelta shadow-partition shape:
  /// a shadow fragment holds only the query-local hit suffix, and its
  /// base holds the history. Hits are then evaluated base-first, local
  /// second — the order a folded in-place fragment stores them — so the
  /// fit is bit-identical to running Adjust after the fold.
  ///
  /// One walk per fragment sums H(I) from the window cursor (from hit
  /// 0 with decay off) and spreads each weighted hit, taking its
  /// geometry from the history holder's SpreadCache when the cache
  /// matches this call's part grid. Hits the cache does not cover (a grid mismatch, the
  /// local suffix, planner-added fragments, an unrefreshed tail) are
  /// spread from scratch. Either way every part receives the same
  /// additions in the same order as AdjustUncached, so the two are
  /// bit-identical.
  AdjustedHits Adjust(const std::vector<FragmentStats>& fragments,
                      const Interval& domain, double t_now,
                      const DecayFunction& dec,
                      const std::vector<const FragmentStats*>* bases =
                          nullptr) const;

  /// The reference fit: two passes over the whole hit history, deriving
  /// every hit's geometry again. Kept only as the bit-identity oracle
  /// for Adjust in tests, like the *Naive accumulators.
  AdjustedHits AdjustUncached(const std::vector<FragmentStats>& fragments,
                              const Interval& domain, double t_now,
                              const DecayFunction& dec,
                              const std::vector<const FragmentStats*>*
                                  bases = nullptr) const;

  /// Brings every fragment's SpreadCache up to date for the partition's
  /// current grid: drops entries before the window cursor, rebuilds
  /// when the fragment's interval or the grid changed, and derives the
  /// hits appended since the last refresh. Call only inside the commit
  /// section that holds the partition, after the cursors advanced, and
  /// only with decay on.
  void RefreshSpreadCaches(std::vector<FragmentStats>* fragments,
                           const Interval& domain) const;

  /// The part grid Adjust uses for these fragments over `domain`
  /// (num_parts == 0 when the domain has no width). Exposed for tests.
  SpreadGrid GridFor(const std::vector<FragmentStats>& fragments,
                     const Interval& domain) const;

  /// Chooses an equi-size part width such that every fragment boundary
  /// (approximately) aligns with a part boundary: the greatest
  /// divisor-like grid no coarser than cfg.target_parts, capped at
  /// cfg.max_parts. Exposed for testing.
  int ChoosePartCount(const std::vector<FragmentStats>& fragments,
                      const Interval& domain) const;

 private:
  /// Fits the Normal over the part histogram and fills out->hits (shared
  /// tail of Adjust and AdjustUncached).
  void FitAndRedistribute(const std::vector<FragmentStats>& fragments,
                          const Interval& domain,
                          const std::vector<double>& part_mids,
                          const std::vector<double>& part_hits,
                          const std::vector<double>& frag_hits,
                          AdjustedHits* out) const;

  MleConfig cfg_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_MLE_MODEL_H_
