#include "core/mle_model.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace deepsea {
namespace {

/// The region a hit spreads over: the range the query actually touched
/// (hit.range, clamped to the fragment) when recorded; otherwise the
/// whole fragment (the paper's even split).
Interval SpreadRegion(const Interval& iv, const FragmentHit& hit) {
  if (hit.has_range) {
    const auto clamped = hit.range.Intersect(iv);
    if (clamped.has_value()) return *clamped;
  }
  return iv;
}

/// The grid part holding `x` (clamped into the grid).
int PartOf(double x, const SpreadGrid& g) {
  const int p = static_cast<int>((x - g.lo) / g.part_width);
  return std::clamp(p, 0, g.num_parts - 1);
}

/// Lower edge of part p. Both spreading paths take their part bounds
/// from this one expression, so they see bit-identical bounds.
double PartEdge(const SpreadGrid& g, int p) { return g.lo + g.part_width * p; }

/// Adds one hit of weight w > 0 to the part histogram, deriving its
/// geometry from scratch: only parts overlapping the region receive
/// mass, in proportion to the overlap (the paper splits hits evenly
/// over contained parts; overlap-proportional spreading coincides when
/// boundaries align with the grid).
void SpreadHit(const Interval& iv, const FragmentHit& hit, double w,
               const SpreadGrid& g, std::vector<double>& part_hits) {
  const Interval region = SpreadRegion(iv, hit);
  const double region_width = region.Width();
  if (region_width <= 0.0) {
    part_hits[static_cast<size_t>(PartOf(region.lo, g))] += w;
    return;
  }
  const int first = PartOf(region.lo, g);
  const int last = PartOf(region.hi, g);
  for (int p = first; p <= last; ++p) {
    const Interval part(PartEdge(g, p), PartEdge(g, p + 1));
    const double ow = part.OverlapWidth(region);
    if (ow > 0.0) part_hits[static_cast<size_t>(p)] += w * ow / region_width;
  }
}

/// The same additions as SpreadHit for a region [lo, hi] over parts
/// [first, last], from cached geometry. A part's overlap with a
/// non-empty region is min(hi) - max(lo) when positive, which is what
/// Interval::OverlapWidth computes for a closed part; DeriveSpread
/// checks that equality for every part before caching a hit.
void SpreadCached(double lo, double hi, int first, int last, double w,
                  const std::vector<double>& edges,
                  std::vector<double>& part_hits) {
  if (!(hi > lo)) {
    part_hits[static_cast<size_t>(first)] += w;
    return;
  }
  const double region_width = hi - lo;
  for (int p = first; p <= last; ++p) {
    const double a = std::max(edges[static_cast<size_t>(p)], lo);
    const double b = std::min(edges[static_cast<size_t>(p) + 1], hi);
    if (b > a) part_hits[static_cast<size_t>(p)] += w * (b - a) / region_width;
  }
}

bool SameBits(double a, double b) {
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

/// Picks which of `from_range` / `from_interval` is bit-for-bit `bound`.
bool BoundSource(double bound, const FragmentHit& hit, double from_range,
                 double from_interval, bool* use_range) {
  *use_range = hit.has_range && SameBits(bound, from_range);
  return *use_range || SameBits(bound, from_interval);
}

/// Derives the cached geometry of one hit. False when SpreadCached
/// could not reproduce SpreadHit exactly for it (non-finite bounds, or
/// a part whose overlap the min/max form would compute differently);
/// the fragment then stays uncached.
bool DeriveSpread(const Interval& iv, const FragmentHit& hit,
                  const SpreadGrid& g, HitSpread* out) {
  const Interval region = SpreadRegion(iv, hit);
  if (!std::isfinite(region.lo) || !std::isfinite(region.hi)) return false;
  bool lo_from_range = false;
  bool hi_from_range = false;
  if (!BoundSource(region.lo, hit, hit.range.lo, iv.lo, &lo_from_range) ||
      !BoundSource(region.hi, hit, hit.range.hi, iv.hi, &hi_from_range)) {
    return false;
  }
  const bool wide = region.Width() > 0.0;
  if (wide != (region.hi > region.lo)) return false;
  const int first = PartOf(region.lo, g);
  const int last = wide ? PartOf(region.hi, g) : first;
  for (int p = first; wide && p <= last; ++p) {
    const double a = PartEdge(g, p);
    const double b = PartEdge(g, p + 1);
    const double ow = Interval(a, b).OverlapWidth(region);
    const double lo = std::max(a, region.lo);
    const double hi = std::min(b, region.hi);
    if ((hi > lo) != (ow > 0.0) || (hi > lo && hi - lo != ow)) return false;
  }
  out->first = static_cast<uint16_t>(first);
  out->lo_from_range = lo_from_range;
  out->last = static_cast<uint16_t>(last);
  out->hi_from_range = hi_from_range;
  return true;
}

}  // namespace

int MleFragmentModel::ChoosePartCount(const std::vector<FragmentStats>& fragments,
                                      const Interval& domain) const {
  const double domain_width = domain.Width();
  if (domain_width <= 0.0) return 1;
  // Smallest fragment width determines the finest grid we need so that
  // every fragment spans at least one whole part.
  double min_frag_width = domain_width;
  for (const FragmentStats& f : fragments) {
    const double w = f.interval.Width();
    if (w > 0.0) min_frag_width = std::min(min_frag_width, w);
  }
  int parts = cfg_.target_parts;
  const int needed = static_cast<int>(std::ceil(domain_width / min_frag_width));
  parts = std::max(parts, needed);
  parts = std::min(parts, cfg_.max_parts);
  return std::max(parts, 1);
}

SpreadGrid MleFragmentModel::GridFor(const std::vector<FragmentStats>& fragments,
                                     const Interval& domain) const {
  SpreadGrid g;
  if (domain.Width() <= 0.0) return g;
  g.num_parts = ChoosePartCount(fragments, domain);
  g.lo = domain.lo;
  g.part_width = domain.Width() / g.num_parts;
  return g;
}

MleFragmentModel::AdjustedHits MleFragmentModel::Adjust(
    const std::vector<FragmentStats>& fragments, const Interval& domain,
    double t_now, const DecayFunction& dec,
    const std::vector<const FragmentStats*>* bases) const {
  AdjustedHits out;
  out.hits.assign(fragments.size(), 0.0);
  if (fragments.empty() || domain.Width() <= 0.0) return out;

  const SpreadGrid grid = GridFor(fragments, domain);
  const size_t num_parts = static_cast<size_t>(grid.num_parts);
  std::vector<double> edges(num_parts + 1);
  for (size_t p = 0; p <= num_parts; ++p) {
    edges[p] = PartEdge(grid, static_cast<int>(p));
  }
  std::vector<double> part_hits(num_parts, 0.0);
  std::vector<double> frag_hits(fragments.size(), 0.0);
  // One walk per fragment: H(I) accumulates every weight from the
  // window cursor on (exactly DecayedHits' additions; with a base,
  // base history first, then the local suffix), and each weighted hit
  // is spread in the order AdjustUncached spreads it. With decay off
  // the walk starts at hit 0 and adds 1.0 per hit, the exact integer
  // count DecayedHits returns.
  for (size_t i = 0; i < fragments.size(); ++i) {
    const FragmentStats* base =
        bases != nullptr && i < bases->size() ? (*bases)[i] : nullptr;
    const FragmentStats& history = base != nullptr ? *base : fragments[i];
    const Interval& iv = fragments[i].interval;
    const std::vector<FragmentHit>& hits = history.hits();
    const SpreadCache& cache = history.spread_cache();
    size_t cached_lo = hits.size();
    size_t cached_hi = hits.size();
    if (cache.grid == grid && cache.interval == iv) {
      cached_lo = cache.begin;
      cached_hi = std::min(cache.begin + cache.spreads.size(), hits.size());
    }
    double acc = 0.0;
    for (size_t j = history.WindowBegin(t_now, dec); j < hits.size(); ++j) {
      const double w = dec(t_now, hits[j].time);
      acc += w;
      if (w <= 0.0) continue;
      if (j >= cached_lo && j < cached_hi) {
        const HitSpread& sp = cache.spreads[j - cached_lo];
        SpreadCached(sp.lo_from_range ? hits[j].range.lo : iv.lo,
                     sp.hi_from_range ? hits[j].range.hi : iv.hi, sp.first,
                     sp.last, w, edges, part_hits);
      } else {
        SpreadHit(iv, hits[j], w, grid, part_hits);
      }
    }
    if (base != nullptr) {
      for (const FragmentHit& h : fragments[i].hits()) {
        const double w = dec(t_now, h.time);
        acc += w;
        if (w > 0.0) SpreadHit(iv, h, w, grid, part_hits);
      }
    }
    frag_hits[i] = acc;
    out.total += acc;
  }
  if (out.total <= 0.0) return out;

  std::vector<double> part_mids(num_parts, 0.0);
  for (size_t p = 0; p < num_parts; ++p) {
    part_mids[p] = domain.lo + grid.part_width * (static_cast<double>(p) + 0.5);
  }
  FitAndRedistribute(fragments, domain, part_mids, part_hits, frag_hits, &out);
  return out;
}

MleFragmentModel::AdjustedHits MleFragmentModel::AdjustUncached(
    const std::vector<FragmentStats>& fragments, const Interval& domain,
    double t_now, const DecayFunction& dec,
    const std::vector<const FragmentStats*>* bases) const {
  AdjustedHits out;
  out.hits.assign(fragments.size(), 0.0);
  if (fragments.empty() || domain.Width() <= 0.0) return out;

  auto base_of = [bases](size_t i) -> const FragmentStats* {
    return bases != nullptr && i < bases->size() ? (*bases)[i] : nullptr;
  };

  // H(I) per fragment and H_total. With a base, accumulate base-then-
  // local exactly as the folded fragment's own DecayedHits would.
  std::vector<double> frag_hits(fragments.size(), 0.0);
  for (size_t i = 0; i < fragments.size(); ++i) {
    const FragmentStats* base = base_of(i);
    if (base == nullptr) {
      frag_hits[i] = fragments[i].DecayedHits(t_now, dec);
    } else if (!dec.config().enabled) {
      frag_hits[i] = static_cast<double>(base->hits().size() +
                                         fragments[i].hits().size());
    } else {
      double acc = base->DecayedHits(t_now, dec);
      for (const FragmentHit& h : fragments[i].hits()) acc += dec(t_now, h.time);
      frag_hits[i] = acc;
    }
    out.total += frag_hits[i];
  }
  if (out.total <= 0.0) return out;

  // Split the domain into equi-size parts and spread each fragment's
  // hits over the parts it covers.
  const SpreadGrid grid = GridFor(fragments, domain);
  const int num_parts = grid.num_parts;
  std::vector<double> part_hits(static_cast<size_t>(num_parts), 0.0);
  std::vector<double> part_mids(static_cast<size_t>(num_parts), 0.0);
  for (int p = 0; p < num_parts; ++p) {
    part_mids[static_cast<size_t>(p)] = domain.lo + grid.part_width * (p + 0.5);
  }
  auto spread_hit = [&](const Interval& iv, const FragmentHit& hit) {
    const double w = dec(t_now, hit.time);
    if (w <= 0.0) return;
    SpreadHit(iv, hit, w, grid, part_hits);
  };
  for (size_t i = 0; i < fragments.size(); ++i) {
    if (frag_hits[i] <= 0.0) continue;
    const Interval& iv = fragments[i].interval;
    if (const FragmentStats* base = base_of(i)) {
      for (const FragmentHit& hit : base->hits()) spread_hit(iv, hit);
    }
    for (const FragmentHit& hit : fragments[i].hits()) spread_hit(iv, hit);
  }
  FitAndRedistribute(fragments, domain, part_mids, part_hits, frag_hits, &out);
  return out;
}

void MleFragmentModel::FitAndRedistribute(
    const std::vector<FragmentStats>& fragments, const Interval& domain,
    const std::vector<double>& part_mids, const std::vector<double>& part_hits,
    const std::vector<double>& frag_hits, AdjustedHits* out) const {
  // MLE Normal fit over part midpoints weighted by part hits.
  out->fit = FitNormalMle(part_mids, part_hits);
  if (!out->fit.valid ||
      out->fit.stddev > cfg_.max_stddev_fraction * domain.Width()) {
    // Nothing to smooth, or the access pattern is too dispersed for a
    // Normal (see MleConfig::max_stddev_fraction): use raw hits.
    out->hits = frag_hits;
    return;
  }
  // Adjusted hits per fragment through the fitted CDF.
  for (size_t i = 0; i < fragments.size(); ++i) {
    const Interval& iv = fragments[i].interval;
    const double p_hi = NormalCdf(iv.hi, out->fit.mean, out->fit.stddev);
    const double p_lo = NormalCdf(iv.lo, out->fit.mean, out->fit.stddev);
    out->hits[i] = out->total * std::max(0.0, p_hi - p_lo);
  }
}

void MleFragmentModel::RefreshSpreadCaches(std::vector<FragmentStats>* fragments,
                                           const Interval& domain) const {
  const SpreadGrid grid = GridFor(*fragments, domain);
  for (FragmentStats& f : *fragments) {
    SpreadCache& c = f.spread_;
    if (grid.num_parts == 0 || grid.num_parts > HitSpread::kMaxParts) {
      c = SpreadCache{};
      continue;
    }
    // The cache starts at the window cursor: hits before it weigh 0.0
    // from now on and are never spread again.
    const size_t from = f.win_begin_;
    if (c.grid != grid || c.interval != f.interval || c.begin > from) {
      c.spreads.clear();
      c.grid = grid;
      c.interval = f.interval;
      c.begin = from;
    } else if (c.begin < from) {
      const size_t expired = std::min(from - c.begin, c.spreads.size());
      c.spreads.erase(c.spreads.begin(),
                      c.spreads.begin() + static_cast<std::ptrdiff_t>(expired));
      c.begin = from;
    }
    const size_t covered = c.begin + c.spreads.size();
    if (covered >= f.hits_.size()) continue;
    // Grow by an eighth, not by doubling: the window slides, so the
    // size stays near its peak and doubling would mostly hold slack.
    const size_t need = f.hits_.size() - c.begin;
    if (need > c.spreads.capacity()) c.spreads.reserve(need + need / 8 + 4);
    for (size_t j = covered; j < f.hits_.size(); ++j) {
      HitSpread s{};
      if (!DeriveSpread(f.interval, f.hits_[j], grid, &s)) {
        c = SpreadCache{};
        break;
      }
      c.spreads.push_back(s);
    }
  }
}

}  // namespace deepsea
