#include "core/mle_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace deepsea {
namespace {

FragmentStats Frag(double lo, double hi, int hits, double hit_time = 100) {
  FragmentStats f;
  f.interval = Interval(lo, hi);
  f.size_bytes = (hi - lo) * 10;
  for (int i = 0; i < hits; ++i) f.RecordHit(hit_time);
  return f;
}

TEST(MleModelTest, NoHitsYieldsZeroAdjusted) {
  MleFragmentModel model;
  DecayFunction dec;
  std::vector<FragmentStats> frags = {Frag(0, 50, 0), Frag(50, 100, 0)};
  const auto adj = model.Adjust(frags, Interval(0, 100), 100, dec);
  EXPECT_EQ(adj.total, 0.0);
  EXPECT_EQ(adj.hits[0], 0.0);
  EXPECT_EQ(adj.hits[1], 0.0);
}

TEST(MleModelTest, TotalMassPreservedApproximately) {
  MleFragmentModel model;
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags = {Frag(0, 25, 10), Frag(25, 50, 20),
                                      Frag(50, 75, 10), Frag(75, 100, 2)};
  const auto adj = model.Adjust(frags, Interval(0, 100), 100, dec);
  double sum = 0.0;
  for (double h : adj.hits) sum += h;
  // The Normal has tails outside the domain; most mass stays inside.
  EXPECT_GT(sum, 0.8 * adj.total);
  EXPECT_LE(sum, adj.total + 1e-9);
}

TEST(MleModelTest, NeighborOfHotSpotBeatsDistantFragment) {
  // This is the paper's motivating example (Section 7.1): hits on
  // [0, 5], none on [6, 10] and [11, 15]. The neighbor [6, 10] must get
  // more adjusted hits than the distant [11, 15].
  MleFragmentModel model;
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags = {Frag(0, 5, 20), Frag(5, 10, 0),
                                      Frag(10, 15, 0)};
  const auto adj = model.Adjust(frags, Interval(0, 15), 100, dec);
  EXPECT_GT(adj.hits[0], adj.hits[1]);
  EXPECT_GT(adj.hits[1], adj.hits[2]);
  EXPECT_GT(adj.hits[1], 0.0);
}

TEST(MleModelTest, FitRecoversHotSpotCenter) {
  MleFragmentModel model;
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags;
  for (int i = 0; i < 10; ++i) {
    // Hits concentrated around [40, 60].
    const double lo = i * 10.0, hi = lo + 10.0;
    const int hits = (lo >= 30 && hi <= 70) ? 20 : 1;
    frags.push_back(Frag(lo, hi, hits));
  }
  const auto adj = model.Adjust(frags, Interval(0, 100), 100, dec);
  ASSERT_TRUE(adj.fit.valid);
  EXPECT_NEAR(adj.fit.mean, 50.0, 5.0);
  EXPECT_GT(adj.fit.stddev, 0.0);
}

TEST(MleModelTest, DecayReducesOldHitInfluence) {
  MleFragmentModel model;
  DecayFunction dec(DecayConfig{1e9, true});
  // Old hits on the left, recent hits on the right.
  std::vector<FragmentStats> frags = {Frag(0, 50, 10, /*hit_time=*/10),
                                      Frag(50, 100, 10, /*hit_time=*/1000)};
  const auto adj = model.Adjust(frags, Interval(0, 100), 1000, dec);
  ASSERT_TRUE(adj.fit.valid);
  // Mean pulled toward the recent (right) side.
  EXPECT_GT(adj.fit.mean, 50.0);
}

TEST(MleModelTest, ChoosePartCountRespectsSmallFragments) {
  MleFragmentModel model(MleConfig{/*target_parts=*/8, /*max_parts=*/1024});
  std::vector<FragmentStats> frags = {Frag(0, 2, 1), Frag(2, 100, 1)};
  // Smallest fragment has width 2 over domain width 100 -> needs >= 50.
  const int parts = model.ChoosePartCount(frags, Interval(0, 100));
  EXPECT_GE(parts, 50);
  EXPECT_LE(parts, 1024);
}

TEST(MleModelTest, ChoosePartCountCapped) {
  MleFragmentModel model(MleConfig{8, 64});
  std::vector<FragmentStats> frags = {Frag(0, 0.001, 1), Frag(0.001, 100, 1)};
  EXPECT_EQ(model.ChoosePartCount(frags, Interval(0, 100)), 64);
}

TEST(MleModelTest, SingleFragmentAllMass) {
  MleFragmentModel model;
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags = {Frag(0, 100, 5)};
  const auto adj = model.Adjust(frags, Interval(0, 100), 100, dec);
  EXPECT_NEAR(adj.hits[0], adj.total, 0.25 * adj.total);
}

TEST(MleModelTest, EmptyDomainSafe) {
  MleFragmentModel model;
  DecayFunction dec;
  std::vector<FragmentStats> frags = {Frag(5, 5, 3)};
  const auto adj = model.Adjust(frags, Interval(5, 5), 100, dec);
  EXPECT_EQ(adj.hits.size(), 1u);
}

// --- spread cache: cached Adjust against the uncached reference -------

struct Partition {
  Interval domain;
  std::vector<FragmentStats> fragments;
};

// A hit on `iv` of one of the range shapes the engine records: none, a
// sub-range, a covering range, a disjoint range, a closed point, an
// empty open point, and a range touching the fragment in one point.
FragmentHit RandomHit(Rng& rng, const Interval& iv, double time) {
  const double w = std::max(iv.Width(), 1.0);
  const double x = rng.Uniform(iv.lo, iv.lo + iv.Width());
  switch (rng.UniformInt(0, 6)) {
    case 0:
      return {time, Interval(), false, 0};
    case 1:
      return {time, Interval(x, std::min(iv.hi, x + rng.Uniform(0.0, w))), true, 0};
    case 2:
      return {time, Interval(iv.lo - w, iv.hi + w), true, 0};
    case 3:
      return {time, Interval(iv.hi + w, iv.hi + 2 * w), true, 0};
    case 4:
      return {time, Interval(x, x), true, 0};
    case 5:
      return {time, Interval(x, x, false, false), true, 0};
    default:
      return {time, Interval(iv.hi, iv.hi + w), true, 0};
  }
}

void AddHits(Rng& rng, FragmentStats* f, int n, double t_lo, double t_hi) {
  std::vector<double> times;
  for (int i = 0; i < n; ++i) times.push_back(rng.Uniform(t_lo, t_hi));
  std::sort(times.begin(), times.end());
  for (double t : times) {
    const FragmentHit h = RandomHit(rng, f->interval, t);
    if (h.has_range) {
      f->RecordHit(std::max(t, f->LastHit()), h.range);
    } else {
      f->RecordHit(std::max(t, f->LastHit()));
    }
  }
}

// Disjoint pieces over an unaligned domain, two overlapping covers and a
// zero-width fragment, each with hits over [1, t_end].
Partition RandomPartition(Rng& rng, int pieces, double t_end) {
  Partition p;
  p.domain = Interval(0.3, 977.1);
  std::vector<double> cuts = {p.domain.lo, p.domain.hi};
  for (int i = 1; i < pieces; ++i) cuts.push_back(rng.Uniform(p.domain.lo, p.domain.hi));
  std::sort(cuts.begin(), cuts.end());
  auto add = [&](const Interval& iv) {
    FragmentStats f;
    f.interval = iv;
    f.size_bytes = 1e6;
    AddHits(rng, &f, static_cast<int>(rng.UniformInt(0, 40)), 1.0, t_end);
    p.fragments.push_back(std::move(f));
  };
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    add(Interval::ClosedOpen(cuts[i], cuts[i + 1]));
  }
  add(Interval(cuts[1], cuts[cuts.size() / 2]));
  add(Interval::OpenClosed(cuts[2], p.domain.hi));
  add(Interval(cuts[3], cuts[3]));
  return p;
}

// What the commit section does after a fold: advance, then refresh.
void Commit(Partition* p, const MleFragmentModel& model, double t_now,
            const DecayFunction& dec) {
  for (FragmentStats& f : p->fragments) f.AdvanceWindow(t_now, dec);
  model.RefreshSpreadCaches(&p->fragments, p->domain);
}

// Hits whose geometry Adjust would take from a cache.
size_t CachedHits(const Partition& p, const MleFragmentModel& model) {
  const SpreadGrid grid = model.GridFor(p.fragments, p.domain);
  size_t n = 0;
  for (const FragmentStats& f : p.fragments) {
    if (f.spread_cache().grid == grid) n += f.spread_cache().spreads.size();
  }
  return n;
}

void ExpectSameFit(const MleFragmentModel::AdjustedHits& got,
                   const MleFragmentModel::AdjustedHits& want,
                   const std::string& where) {
  ASSERT_EQ(got.hits.size(), want.hits.size()) << where;
  for (size_t i = 0; i < got.hits.size(); ++i) {
    EXPECT_EQ(got.hits[i], want.hits[i]) << where << ", fragment " << i;
  }
  EXPECT_EQ(got.total, want.total) << where;
  EXPECT_EQ(got.fit.valid, want.fit.valid) << where;
  EXPECT_EQ(got.fit.mean, want.fit.mean) << where;
  EXPECT_EQ(got.fit.stddev, want.fit.stddev) << where;
}

// Compares under the default model and under one whose dispersion guard
// always trips, so the raw H(I) of the fused pass is compared too.
void ExpectCachedMatchesUncached(
    const std::vector<FragmentStats>& fragments, const Interval& domain,
    double t_now, const DecayFunction& dec, const std::string& where,
    const std::vector<const FragmentStats*>* bases = nullptr) {
  MleConfig raw_cfg;
  raw_cfg.max_stddev_fraction = 0.0;
  for (const MleFragmentModel& m :
       {MleFragmentModel(), MleFragmentModel(raw_cfg)}) {
    ExpectSameFit(m.Adjust(fragments, domain, t_now, dec, bases),
                  m.AdjustUncached(fragments, domain, t_now, dec, bases), where);
  }
}

TEST(MleSpreadCacheTest, WindowAdvanceTrimsAndTailsStayExact) {
  Rng rng(11);
  const MleFragmentModel model;
  const DecayFunction dec(DecayConfig{300.0, true});
  Partition p = RandomPartition(rng, 24, 800.0);
  for (double t : {400.0, 520.0, 650.0, 900.0, 1300.0}) {
    Commit(&p, model, t, dec);
    size_t in_window = 0;
    for (const FragmentStats& f : p.fragments) {
      const SpreadCache& c = f.spread_cache();
      EXPECT_EQ(c.begin, f.WindowBegin(t, dec));
      EXPECT_EQ(c.begin + c.spreads.size(), f.hits().size());
      in_window += c.spreads.size();
    }
    EXPECT_EQ(CachedHits(p, model), in_window);
    const std::string at = "t=" + std::to_string(t);
    ExpectCachedMatchesUncached(p.fragments, p.domain, t, dec, at);
    ExpectCachedMatchesUncached(p.fragments, p.domain, t + 37.0, dec, at + "+37");
    // Hits appended after the refresh form an uncovered tail.
    for (FragmentStats& f : p.fragments) {
      if (rng.UniformInt(0, 2) == 0) AddHits(rng, &f, 3, t - 20.0, t);
    }
    ExpectCachedMatchesUncached(p.fragments, p.domain, t, dec, at + " tail");
  }
  // Everything has expired: no cached entry is left.
  Commit(&p, model, 5000.0, dec);
  EXPECT_EQ(CachedHits(p, model), 0u);
  ExpectCachedMatchesUncached(p.fragments, p.domain, 5000.0, dec, "expired");
}

TEST(MleSpreadCacheTest, ShadowBasesWithLocalSuffixes) {
  Rng rng(12);
  const MleFragmentModel model;
  const DecayFunction dec(DecayConfig{250.0, true});
  Partition base = RandomPartition(rng, 16, 600.0);
  Commit(&base, model, 600.0, dec);
  ASSERT_GT(CachedHits(base, model), 0u);

  // The PlanningDelta shape: history-free copies pointing at their base,
  // some with query-local hits, plus a planner-added fragment.
  std::vector<FragmentStats> shadow;
  std::vector<const FragmentStats*> bases;
  for (const FragmentStats& f : base.fragments) {
    FragmentStats copy;
    copy.interval = f.interval;
    copy.size_bytes = f.size_bytes;
    if (rng.UniformInt(0, 1) == 0) AddHits(rng, &copy, 2, 600.0, 610.0);
    shadow.push_back(std::move(copy));
    bases.push_back(&f);
  }
  FragmentStats wide;
  wide.interval = Interval(base.domain.lo, base.domain.hi);
  AddHits(rng, &wide, 10, 400.0, 610.0);
  shadow.push_back(wide);
  bases.push_back(nullptr);
  ASSERT_EQ(model.GridFor(shadow, base.domain), model.GridFor(base.fragments, base.domain));
  ExpectCachedMatchesUncached(shadow, base.domain, 610.0, dec, "shadow", &bases);

  // Folding the local suffixes in place gives the same fit.
  Partition folded = base;
  for (size_t i = 0; i < base.fragments.size(); ++i) {
    for (const FragmentHit& h : shadow[i].hits()) folded.fragments[i].AppendHit(h);
  }
  folded.fragments.push_back(wide);
  ExpectSameFit(model.Adjust(folded.fragments, base.domain, 610.0, dec),
                model.Adjust(shadow, base.domain, 610.0, dec, &bases), "fold");

  // A planner-added fragment narrower than every other one changes the
  // grid, so no cache matches and every hit is spread from scratch.
  FragmentStats narrow;
  narrow.interval = Interval(500.0, 500.01);
  AddHits(rng, &narrow, 3, 590.0, 610.0);
  shadow.push_back(narrow);
  bases.push_back(nullptr);
  ASSERT_NE(model.GridFor(shadow, base.domain), model.GridFor(base.fragments, base.domain));
  ExpectCachedMatchesUncached(shadow, base.domain, 610.0, dec, "new grid", &bases);
}

TEST(MleSpreadCacheTest, UnsortedAdoptHitsSplices) {
  Rng rng(13);
  const MleFragmentModel model;
  const DecayFunction dec(DecayConfig{200.0, true});
  Partition p = RandomPartition(rng, 12, 500.0);
  Commit(&p, model, 500.0, dec);
  // A merge-style splice: two fragments' histories concatenated, so the
  // times go down at the seam, and a shuffled one.
  for (size_t i = 0; i + 1 < p.fragments.size(); i += 3) {
    std::vector<FragmentHit> spliced = p.fragments[i + 1].hits();
    const std::vector<FragmentHit>& own = p.fragments[i].hits();
    spliced.insert(spliced.end(), own.begin(), own.end());
    if (i % 2 == 0) {
      for (size_t k = spliced.size(); k > 1; --k) {
        std::swap(spliced[k - 1], spliced[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(k) - 1))]);
      }
    }
    p.fragments[i].AdoptHits(std::move(spliced));
    EXPECT_TRUE(p.fragments[i].spread_cache().spreads.empty());
  }
  ExpectCachedMatchesUncached(p.fragments, p.domain, 520.0, dec, "before refresh");
  Commit(&p, model, 540.0, dec);
  ExpectCachedMatchesUncached(p.fragments, p.domain, 540.0, dec, "after refresh");
  ExpectCachedMatchesUncached(p.fragments, p.domain, 690.0, dec, "later");
}

TEST(MleSpreadCacheTest, GridChangesAfterTrackSplitMergeAndEvict) {
  Rng rng(14);
  const MleFragmentModel model;
  const DecayFunction dec(DecayConfig{400.0, true});
  Partition p = RandomPartition(rng, 10, 300.0);
  Commit(&p, model, 300.0, dec);
  const SpreadGrid before = model.GridFor(p.fragments, p.domain);

  // Split: both halves of the widest piece are tracked; the narrow half
  // refines the grid, which leaves every cache stale until the refresh.
  auto widest = std::max_element(
      p.fragments.begin(), p.fragments.end(),
      [](const FragmentStats& a, const FragmentStats& b) {
        return a.interval.Width() < b.interval.Width();
      });
  const Interval whole = widest->interval;
  const double cut = whole.lo + 0.001 * whole.Width();
  const auto [left, right] = whole.SplitBefore(cut);
  for (const Interval& half : {left, right}) {
    FragmentStats f;
    f.interval = half;
    AddHits(rng, &f, 5, 300.0, 320.0);
    p.fragments.push_back(std::move(f));
  }
  ASSERT_NE(model.GridFor(p.fragments, p.domain), before);
  EXPECT_EQ(CachedHits(p, model), 0u);
  ExpectCachedMatchesUncached(p.fragments, p.domain, 320.0, dec, "split, stale");
  Commit(&p, model, 320.0, dec);
  EXPECT_GT(CachedHits(p, model), 0u);
  ExpectCachedMatchesUncached(p.fragments, p.domain, 320.0, dec, "split");

  // Merge: the union of two neighbours adopts both histories.
  const Interval merged(p.fragments[0].interval.lo, p.fragments[1].interval.hi, true, false);
  std::vector<FragmentHit> hits = p.fragments[0].hits();
  hits.insert(hits.end(), p.fragments[1].hits().begin(), p.fragments[1].hits().end());
  FragmentStats m;
  m.interval = merged;
  m.materialized = true;
  m.AdoptHits(std::move(hits));
  p.fragments.push_back(std::move(m));
  ExpectCachedMatchesUncached(p.fragments, p.domain, 330.0, dec, "merge, stale");
  Commit(&p, model, 330.0, dec);
  ExpectCachedMatchesUncached(p.fragments, p.domain, 330.0, dec, "merge");

  // Evict: fragments stay tracked, so neither the grid nor a cache moves.
  const SpreadGrid grid = model.GridFor(p.fragments, p.domain);
  for (FragmentStats& f : p.fragments) f.materialized = false;
  EXPECT_EQ(model.GridFor(p.fragments, p.domain), grid);
  ExpectCachedMatchesUncached(p.fragments, p.domain, 340.0, dec, "evict");
}

TEST(MleSpreadCacheTest, TmaxChangeRebuildsFromTheNewCursor) {
  Rng rng(15);
  const MleFragmentModel model;
  const DecayFunction wide(DecayConfig{300.0, true});
  const DecayFunction narrow(DecayConfig{80.0, true});
  Partition p = RandomPartition(rng, 14, 700.0);
  Commit(&p, model, 700.0, wide);
  // The cursor was certified under another t_max: the walk starts at 0
  // and the cache still serves the hits it covers.
  ExpectCachedMatchesUncached(p.fragments, p.domain, 700.0, narrow, "stale t_max");
  Commit(&p, model, 700.0, narrow);
  for (const FragmentStats& f : p.fragments) {
    EXPECT_EQ(f.spread_cache().begin, f.WindowBegin(700.0, narrow));
  }
  ExpectCachedMatchesUncached(p.fragments, p.domain, 700.0, narrow, "narrow");
  // Widening resets the cursor behind the cache: it is rebuilt.
  Commit(&p, model, 720.0, wide);
  for (const FragmentStats& f : p.fragments) {
    const SpreadCache& c = f.spread_cache();
    EXPECT_EQ(c.begin, f.WindowBegin(720.0, wide));
    EXPECT_EQ(c.begin + c.spreads.size(), f.hits().size());
  }
  ExpectCachedMatchesUncached(p.fragments, p.domain, 720.0, wide, "wide");
}

TEST(MleSpreadCacheTest, DecayOffAndZeroWidthRegions) {
  Rng rng(16);
  const MleFragmentModel model;
  const DecayFunction on(DecayConfig{500.0, true});
  const DecayFunction off(DecayConfig{500.0, false});
  Partition p = RandomPartition(rng, 8, 400.0);
  // Point hits only on some fragments: zero-width regions put their
  // whole weight in one part, on boundaries too.
  for (size_t i = 0; i < p.fragments.size(); i += 2) {
    FragmentStats& f = p.fragments[i];
    f.RecordHit(400.0, Interval(f.interval.lo, f.interval.lo));
    f.RecordHit(400.0, Interval(f.interval.hi, f.interval.hi));
    f.RecordHit(400.0, Interval(f.interval.Mid(), f.interval.Mid()));
  }
  Commit(&p, model, 400.0, on);
  EXPECT_GT(CachedHits(p, model), 0u);
  ExpectCachedMatchesUncached(p.fragments, p.domain, 400.0, on, "points");
  // Decay off: every hit weighs 1.0 and the walk starts at hit 0, before
  // the cache's first entry, so uncached and cached hits both spread.
  ExpectCachedMatchesUncached(p.fragments, p.domain, 400.0, off, "decay off");
}

}  // namespace
}  // namespace deepsea
