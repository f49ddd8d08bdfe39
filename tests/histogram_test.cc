#include "catalog/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "catalog/table.h"
#include "common/rng.h"

namespace deepsea {
namespace {

TEST(HistogramTest, AddAndTotal) {
  AttributeHistogram h(Interval(0, 100), 10);
  h.Add(5);
  h.Add(15);
  h.Add(15);
  EXPECT_DOUBLE_EQ(h.total_count(), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_count(1), 2.0);
}

TEST(HistogramTest, OutOfDomainClampsToEdges) {
  AttributeHistogram h(Interval(0, 100), 10);
  h.Add(-5);
  h.Add(200);
  EXPECT_DOUBLE_EQ(h.bin_count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_count(9), 1.0);
}

TEST(HistogramTest, FractionInRangeUniform) {
  AttributeHistogram h(Interval(0, 100), 100);
  h.AddRange(Interval(0, 100), 1000);
  EXPECT_NEAR(h.FractionInRange(Interval(0, 50)), 0.5, 1e-9);
  EXPECT_NEAR(h.FractionInRange(Interval(25, 75)), 0.5, 1e-9);
  EXPECT_NEAR(h.FractionInRange(Interval(0, 100)), 1.0, 1e-9);
  EXPECT_NEAR(h.FractionInRange(Interval(-50, 0)), 0.0, 1e-6);
}

TEST(HistogramTest, FractionInterpolatesPartialBins) {
  AttributeHistogram h(Interval(0, 10), 1);  // one bin
  h.AddRange(Interval(0, 10), 100);
  EXPECT_NEAR(h.FractionInRange(Interval(0, 2.5)), 0.25, 1e-9);
}

TEST(HistogramTest, SkewedMass) {
  AttributeHistogram h(Interval(0, 100), 10);
  h.AddRange(Interval(0, 10), 900);   // hot first bin
  h.AddRange(Interval(10, 100), 100);  // cold tail
  EXPECT_NEAR(h.FractionInRange(Interval(0, 10)), 0.9, 1e-9);
  EXPECT_GT(h.MassInRange(Interval(0, 10)), h.MassInRange(Interval(10, 100)) * 8);
}

TEST(HistogramTest, EquiDepthBoundariesUniform) {
  AttributeHistogram h(Interval(0, 100), 100);
  h.AddRange(Interval(0, 100), 1000);
  const auto bounds = h.EquiDepthBoundaries(4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 100.0);
  EXPECT_NEAR(bounds[1], 25.0, 1.5);
  EXPECT_NEAR(bounds[2], 50.0, 1.5);
  EXPECT_NEAR(bounds[3], 75.0, 1.5);
}

TEST(HistogramTest, EquiDepthBoundariesSkewed) {
  AttributeHistogram h(Interval(0, 100), 100);
  h.AddRange(Interval(0, 10), 900);
  h.AddRange(Interval(10, 100), 100);
  const auto bounds = h.EquiDepthBoundaries(2);
  ASSERT_EQ(bounds.size(), 3u);
  // Half the mass sits well inside [0, 10].
  EXPECT_LT(bounds[1], 10.0);
}

TEST(HistogramTest, EquiDepthSpansHaveEqualMass) {
  Rng rng(3);
  AttributeHistogram h(Interval(0, 1000), 200);
  for (int i = 0; i < 20000; ++i) h.Add(rng.Gaussian(300, 80));
  const int k = 8;
  const auto bounds = h.EquiDepthBoundaries(k);
  ASSERT_EQ(bounds.size(), static_cast<size_t>(k + 1));
  for (int i = 0; i < k; ++i) {
    const double mass = h.FractionInRange(Interval(bounds[i], bounds[i + 1]));
    EXPECT_NEAR(mass, 1.0 / k, 0.02) << "span " << i;
  }
}

TEST(HistogramTest, NormalizePreservesShape) {
  AttributeHistogram h(Interval(0, 10), 2);
  h.AddRange(Interval(0, 5), 30);
  h.AddRange(Interval(5, 10), 10);
  h.NormalizeTo(100);
  EXPECT_DOUBLE_EQ(h.total_count(), 100.0);
  EXPECT_NEAR(h.FractionInRange(Interval(0, 5)), 0.75, 1e-9);
}

TEST(HistogramTest, EmptyHistogramFractionZero) {
  AttributeHistogram h(Interval(0, 10), 4);
  EXPECT_EQ(h.FractionInRange(Interval(0, 10)), 0.0);
  EXPECT_TRUE(h.empty());
}

// The full scan FractionInRange performed before it visited only the
// bins around the range: every bin, in order.
double FractionInRangeFullScan(const AttributeHistogram& h, const Interval& iv) {
  if (h.total_count() <= 0.0 || h.num_bins() == 0) return 0.0;
  const auto inter = iv.Intersect(h.domain());
  if (!inter.has_value()) return 0.0;
  double mass = 0.0;
  for (int i = 0; i < h.num_bins(); ++i) {
    const Interval bi = h.bin_interval(i);
    const double bw = bi.Width();
    if (bw <= 0.0) continue;
    const double ow = bi.OverlapWidth(*inter);
    if (ow > 0.0) mass += h.bin_count(i) * (ow / bw);
  }
  return mass / h.total_count();
}

TEST(HistogramTest, FractionInRangeMatchesFullScanBitForBit) {
  Rng rng(20240917);
  for (int trial = 0; trial < 200; ++trial) {
    const double lo = rng.Uniform(-1e6, 1e6);
    const double width = std::pow(10.0, rng.Uniform(-3.0, 7.0));
    const int bins = trial % 4 == 0 ? 2048 : static_cast<int>(rng.UniformInt(1, 600));
    AttributeHistogram h(Interval(lo, lo + width), bins);
    for (int k = 0; k < 40; ++k) {
      const double a = rng.Uniform(lo - 0.1 * width, lo + 1.1 * width);
      const double b = a + rng.Uniform(0.0, 0.5 * width);
      h.AddRange(Interval(a, b), rng.Uniform(0.1, 50.0));
      h.Add(rng.Uniform(lo, lo + width), rng.Uniform(0.1, 5.0));
    }
    for (int q = 0; q < 50; ++q) {
      double a = rng.Uniform(lo - 0.2 * width, lo + 1.2 * width);
      double b = rng.Uniform(lo - 0.2 * width, lo + 1.2 * width);
      if (a > b) std::swap(a, b);
      // Snap some endpoints onto bin edges and the domain bounds, where
      // the bin lookup and the bin intervals round differently.
      if (q % 5 == 1) a = h.bin_interval(static_cast<int>(rng.UniformInt(0, bins - 1))).lo;
      if (q % 5 == 2) b = h.bin_interval(static_cast<int>(rng.UniformInt(0, bins - 1))).hi;
      if (q % 5 == 3) b = h.domain().hi;  // the last, hi-inclusive bin
      if (q % 5 == 4) a = b = h.bin_interval(bins - 1).hi;
      if (a > b) std::swap(a, b);
      const Interval iv(a, b, /*lo_inc=*/rng.UniformInt(0, 1) == 1,
                        /*hi_inc=*/rng.UniformInt(0, 1) == 1);
      EXPECT_EQ(h.FractionInRange(iv), FractionInRangeFullScan(h, iv))
          << "trial " << trial << " range " << iv.ToString();
    }
  }
}

TEST(TableTest, RegisterAndLookup) {
  Catalog catalog;
  auto t = std::make_shared<Table>(
      "t", Schema({{"t.a", DataType::kInt64}}));
  ASSERT_TRUE(catalog.Register(t).ok());
  EXPECT_TRUE(catalog.Contains("t"));
  EXPECT_FALSE(catalog.Register(t).ok());  // duplicate
  auto got = catalog.Get("t");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->name(), "t");
  EXPECT_FALSE(catalog.Get("zzz").ok());
}

TEST(TableTest, DropAndList) {
  Catalog catalog;
  catalog.Put(std::make_shared<Table>("b", Schema{}));
  catalog.Put(std::make_shared<Table>("a", Schema{}));
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(catalog.Drop("a").ok());
  EXPECT_FALSE(catalog.Drop("a").ok());
}

TEST(TableTest, LogicalBytes) {
  Table t("t", Schema{});
  t.set_logical_row_count(1000);
  t.set_avg_row_bytes(50);
  EXPECT_DOUBLE_EQ(t.logical_bytes(), 50000.0);
}

TEST(TableTest, BuildHistogramFromSample) {
  Table t("t", Schema({{"t.a", DataType::kInt64}}));
  for (int i = 0; i < 100; ++i) t.AddRow({Value(static_cast<int64_t>(i))});
  t.set_logical_row_count(10000);
  ASSERT_TRUE(t.BuildHistogram("t.a", 10).ok());
  const AttributeHistogram* h = t.GetHistogram("t.a");
  ASSERT_NE(h, nullptr);
  // Scaled to logical rows.
  EXPECT_NEAR(h->total_count(), 10000.0, 1e-6);
  EXPECT_NEAR(h->FractionInRange(Interval(0, 49.5)), 0.5, 0.02);
}

TEST(TableTest, HistogramLookupByShortName) {
  Table t("t", Schema({{"t.a", DataType::kInt64}}));
  t.SetHistogram("t.a", AttributeHistogram(Interval(0, 1), 1));
  EXPECT_NE(t.GetHistogram("a"), nullptr);
  EXPECT_NE(t.GetHistogram("t.a"), nullptr);
  EXPECT_EQ(t.GetHistogram("b"), nullptr);
}

TEST(TableTest, SampleMinMax) {
  Table t("t", Schema({{"t.a", DataType::kInt64}}));
  t.AddRow({Value(int64_t{5})});
  t.AddRow({Value(int64_t{-2})});
  t.AddRow({Value(int64_t{9})});
  auto mm = t.SampleMinMax("t.a");
  ASSERT_TRUE(mm.ok());
  EXPECT_EQ(mm->lo, -2.0);
  EXPECT_EQ(mm->hi, 9.0);
  EXPECT_FALSE(t.SampleMinMax("t.zzz").ok());
}

TEST(TableTest, NdvStorage) {
  Table t("t", Schema({{"t.a", DataType::kInt64}}));
  EXPECT_EQ(t.ndv("t.a"), 0.0);
  t.set_ndv("a", 42.0);  // short name resolves
  EXPECT_EQ(t.ndv("t.a"), 42.0);
  EXPECT_EQ(t.ndv("a"), 42.0);
}

TEST(TableTest, TotalLogicalBytes) {
  Catalog catalog;
  auto a = std::make_shared<Table>("a", Schema{});
  a->set_logical_row_count(10);
  a->set_avg_row_bytes(10);
  auto b = std::make_shared<Table>("b", Schema{});
  b->set_logical_row_count(5);
  b->set_avg_row_bytes(100);
  catalog.Put(a);
  catalog.Put(b);
  EXPECT_DOUBLE_EQ(catalog.TotalLogicalBytes(), 600.0);
}

}  // namespace
}  // namespace deepsea
