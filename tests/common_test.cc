#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <string>

#include "src/common/env.h"
#include "src/common/geo.h"
#include "src/common/rng.h"
#include "src/common/sha1.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/u128.h"

namespace totoro {
namespace {

TEST(U128Test, ComparisonOrdersByHighThenLow) {
  EXPECT_LT(U128(0, 5), U128(0, 6));
  EXPECT_LT(U128(0, ~0ull), U128(1, 0));
  EXPECT_GT(U128(2, 0), U128(1, ~0ull));
  EXPECT_EQ(U128(3, 4), U128(3, 4));
  EXPECT_NE(U128(3, 4), U128(4, 3));
}

TEST(U128Test, AdditionCarriesAcrossWords) {
  const U128 a(0, ~0ull);
  const U128 b(0, 1);
  EXPECT_EQ(a + b, U128(1, 0));
}

TEST(U128Test, SubtractionBorrowsAcrossWords) {
  const U128 a(1, 0);
  const U128 b(0, 1);
  EXPECT_EQ(a - b, U128(0, ~0ull));
}

TEST(U128Test, AdditionWrapsModulo2To128) {
  EXPECT_EQ(U128::Max() + U128(0, 1), U128(0, 0));
  EXPECT_EQ(U128(0, 0) - U128(0, 1), U128::Max());
}

TEST(U128Test, ShiftLeftAcrossBoundary) {
  EXPECT_EQ(U128(0, 1) << 64, U128(1, 0));
  EXPECT_EQ(U128(0, 1) << 127, U128(1ull << 63, 0));
  EXPECT_EQ(U128(0, 1) << 128, U128(0, 0));
  EXPECT_EQ(U128(0, 0b11) << 63, U128(1, 1ull << 63));
}

TEST(U128Test, ShiftRightAcrossBoundary) {
  EXPECT_EQ(U128(1, 0) >> 64, U128(0, 1));
  EXPECT_EQ(U128(1ull << 63, 0) >> 127, U128(0, 1));
  EXPECT_EQ(U128(5, 0) >> 128, U128(0, 0));
}

TEST(U128Test, DigitExtractionBase16) {
  // id = 0xA000...0 : first hex digit is 0xA, rest 0.
  const U128 id(0xA000000000000000ull, 0);
  EXPECT_EQ(id.Digit(0, 4), 0xAu);
  EXPECT_EQ(id.Digit(1, 4), 0x0u);
  EXPECT_EQ(id.Digit(31, 4), 0x0u);
}

TEST(U128Test, DigitExtractionLastDigit) {
  const U128 id(0, 0xB);
  EXPECT_EQ(id.Digit(31, 4), 0xBu);
  EXPECT_EQ(id.Digit(30, 4), 0x0u);
}

TEST(U128Test, CommonPrefixDigits) {
  const U128 a = U128::FromHex("ab000000000000000000000000000000");
  const U128 b = U128::FromHex("ab100000000000000000000000000000");
  EXPECT_EQ(a.CommonPrefixDigits(b, 4), 2);
  EXPECT_EQ(a.CommonPrefixDigits(a, 4), 32);
  const U128 c = U128::FromHex("cb000000000000000000000000000000");
  EXPECT_EQ(a.CommonPrefixDigits(c, 4), 0);
}

TEST(U128Test, RingDistanceTakesShorterArc) {
  const U128 a(0, 10);
  const U128 b = U128::Max();  // Distance 11 going down, huge going up.
  EXPECT_EQ(U128::RingDistance(a, b), U128(0, 11));
  EXPECT_EQ(U128::RingDistance(b, a), U128(0, 11));
  EXPECT_EQ(U128::RingDistance(a, a), U128(0, 0));
}

TEST(U128Test, HexRoundTrip) {
  const U128 v(0x0123456789ABCDEFull, 0xFEDCBA9876543210ull);
  EXPECT_EQ(U128::FromHex(v.ToHex()), v);
  EXPECT_EQ(v.ToHex(), "0123456789abcdeffedcba9876543210");
}

TEST(Sha1Test, KnownVectors) {
  // FIPS 180-1 test vectors.
  auto hex = [](const std::array<uint8_t, 20>& d) {
    std::string s;
    char buf[3];
    for (uint8_t b : d) {
      std::snprintf(buf, sizeof(buf), "%02x", b);
      s += buf;
    }
    return s;
  };
  EXPECT_EQ(hex(Sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex(Sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex(Sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, LongInputCrossesBlockBoundaries) {
  const std::string a(1000000, 'a');
  auto digest = Sha1(a);
  char buf[3];
  std::string s;
  for (uint8_t b : digest) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    s += buf;
  }
  EXPECT_EQ(s, "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, To128DiffersAcrossInputs) {
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(Sha1To128("app-" + std::to_string(i)).ToHex());
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.08);
}

TEST(RngTest, GeometricMeanMatchesOneOverP) {
  Rng rng(13);
  const double p = 0.25;
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = rng.Geometric(p);
    EXPECT_GE(v, 1u);
    total += static_cast<double>(v);
  }
  EXPECT_NEAR(total / n, 1.0 / p, 0.15);
}

TEST(RngTest, GeometricWithPOneAlwaysOne) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.Geometric(1.0), 1u);
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(17);
  for (double alpha : {0.1, 0.5, 1.0, 10.0}) {
    const auto v = rng.Dirichlet(alpha, 8);
    ASSERT_EQ(v.size(), 8u);
    double sum = 0.0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RngTest, LowAlphaDirichletIsSkewed) {
  Rng rng(19);
  double max_sum = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto v = rng.Dirichlet(0.1, 10);
    max_sum += *std::max_element(v.begin(), v.end());
  }
  // With alpha=0.1 the max component dominates; with uniform it would be ~0.1.
  EXPECT_GT(max_sum / trials, 0.5);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> w = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 5000; ++i) {
    ++counts[rng.WeightedIndex(w)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(SummaryTest, BasicStatistics) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  EXPECT_NEAR(s.Stddev(), std::sqrt(2.5), 1e-12);
}

TEST(SummaryTest, PercentileInterpolates) {
  Summary s;
  s.Add(0.0);
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 10.0);
}

TEST(HistogramTest, BucketsAndOverflow) {
  AsciiHistogram h(0.0, 10.0, 10);
  h.Add(-1.0);
  h.Add(0.0);
  h.Add(9.99);
  h.Add(10.0);
  h.Add(5.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[9], 1u);
  EXPECT_EQ(h.buckets()[5], 1u);
  EXPECT_EQ(h.count(), 5u);
}

TEST(IntCounterTest, CumulativeFraction) {
  IntCounter c;
  for (int i = 0; i < 99; ++i) {
    c.Add(1);
  }
  c.Add(10);
  EXPECT_DOUBLE_EQ(c.CumulativeFraction(3), 0.99);
  EXPECT_DOUBLE_EQ(c.CumulativeFraction(10), 1.0);
  EXPECT_DOUBLE_EQ(c.CumulativeFraction(0), 0.0);
}

TEST(AsciiTableTest, RendersAlignedColumns) {
  AsciiTable t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-name", "2.50"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
  // Every line has the same width.
  size_t first_len = out.find('\n');
  size_t pos = 0;
  while (pos < out.size()) {
    const size_t next = out.find('\n', pos);
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(GeoTest, HaversineKnownDistance) {
  // Sydney to Melbourne is roughly 714 km.
  const GeoPoint sydney{-33.87, 151.21};
  const GeoPoint melbourne{-37.81, 144.96};
  EXPECT_NEAR(HaversineKm(sydney, melbourne), 714.0, 20.0);
}

TEST(GeoTest, RttGrowsWithDistance) {
  EXPECT_LT(EstimateRttMs(10.0), EstimateRttMs(1000.0));
  EXPECT_GT(EstimateRttMs(0.0), 0.0);  // Base latency applies even locally.
}

TEST(ParseInt64Test, AcceptsWholeDecimalIntegersAtOrAboveTheMinimum) {
  EXPECT_EQ(ParseInt64("200000", 1), 200000);
  EXPECT_EQ(ParseInt64("+7", 1), 7);
  EXPECT_EQ(ParseInt64("-3", -5), -3);
  EXPECT_EQ(ParseInt64("1", 1), 1);
}

TEST(ParseInt64Test, RejectsGarbageRangeAndBelowMinimum) {
  for (const char* bad : {"", "abc", "12x", " 5", "5 ", "0x10", "1e3", "--1",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(ParseInt64(bad, 1).has_value()) << '"' << bad << '"';
  }
  EXPECT_FALSE(ParseInt64(nullptr, 1).has_value());
  EXPECT_FALSE(ParseInt64("0", 1).has_value());
  EXPECT_FALSE(ParseInt64("-1", 0).has_value());
}

// A malformed knob falls back, and says so once: the warning names the variable, the
// rejected value and the fallback. A repeat read of the same value stays quiet.
TEST(EnvInt64Test, MalformedValueWarnsOnceAndFallsBack) {
  ::setenv("TOTORO_TEST_KNOB", "junk", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvInt64("TOTORO_TEST_KNOB", 5, 1), 5);
  EXPECT_EQ(EnvInt64("TOTORO_TEST_KNOB", 5, 1), 5);
  const std::string first = testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("TOTORO_TEST_KNOB=\"junk\""), std::string::npos) << first;
  EXPECT_NE(first.find("using 5"), std::string::npos) << first;
  EXPECT_EQ(first.find("TOTORO_TEST_KNOB"), first.rfind("TOTORO_TEST_KNOB")) << first;

  // Below the minimum is malformed too; a valid or unset value never warns.
  ::setenv("TOTORO_TEST_KNOB", "0", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvThreadCount("TOTORO_TEST_KNOB", 2), 2u);
  ::setenv("TOTORO_TEST_KNOB", "3", 1);
  EXPECT_EQ(EnvThreadCount("TOTORO_TEST_KNOB", 2), 3u);
  ::unsetenv("TOTORO_TEST_KNOB");
  EXPECT_EQ(EnvThreadCount("TOTORO_TEST_KNOB", 2), 2u);
  const std::string second = testing::internal::GetCapturedStderr();
  EXPECT_NE(second.find("TOTORO_TEST_KNOB=\"0\""), std::string::npos) << second;
  EXPECT_EQ(second.find("TOTORO_TEST_KNOB"), second.rfind("TOTORO_TEST_KNOB")) << second;
}

}  // namespace
}  // namespace totoro
