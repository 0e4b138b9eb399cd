// Unit tests for src/util: RNG and distributions, streaming statistics,
// string helpers, flag parsing, and table rendering.
#include <cmath>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/str.h"
#include "util/table.h"

namespace rrs {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, NextBoundedOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanNearHalf) {
  Rng rng(17);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(29);
  for (double mean : {0.5, 2.0, 10.0, 50.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean " << mean;
  }
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0u);
}

// A precomputed limit draws the same counts from the same uniforms: zero
// (no uniform), a mean whose limit rounds to 1.0 (one uniform), the edges of
// the product-method range and split means.
TEST(Rng, PrecomputedPoissonLimitDrawsTheSameStream) {
  for (const double mean : {0.0, 1e-20, 0.5, 7.25, 29.999, 30.0, 45.0}) {
    const PoissonMean cached(mean);
    Rng a(41);
    Rng b(41);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(a.Poisson(cached), b.Poisson(mean)) << "mean " << mean;
    }
    EXPECT_EQ(a.SaveState(), b.SaveState()) << "mean " << mean;
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(43);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ForkStreamsDiffer) {
  Rng parent(47);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.Next() == child.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution zipf(16, 1.0);
  double sum = 0;
  for (size_t i = 0; i < zipf.size(); ++i) sum += zipf.Pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, RanksAreMonotone) {
  ZipfDistribution zipf(10, 1.2);
  for (size_t i = 1; i < zipf.size(); ++i) {
    EXPECT_GE(zipf.Pmf(i - 1), zipf.Pmf(i));
  }
}

TEST(Zipf, ZeroExponentIsUniform) {
  ZipfDistribution zipf(8, 0.0);
  for (size_t i = 0; i < zipf.size(); ++i) {
    EXPECT_NEAR(zipf.Pmf(i), 1.0 / 8, 1e-9);
  }
}

TEST(Zipf, SampleFrequenciesMatchPmf) {
  ZipfDistribution zipf(6, 1.0);
  Rng rng(53);
  std::vector<int> counts(6, 0);
  const int n = 120000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, zipf.Pmf(i), 0.01);
  }
}

// -------------------------------------------------------------- Stats ----

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // n-1 denominator
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(59);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    double x = -5 + 10 * rng.UniformDouble();
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// ---------------------------------------------------------------- Str ----

TEST(Str, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Str, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(Str, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt(" -7 "), -7);
  EXPECT_FALSE(ParseInt("4x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("3.5").has_value());
}

TEST(Str, ParseUintRejectsNegative) {
  EXPECT_EQ(ParseUint("42"), 42u);
  EXPECT_FALSE(ParseUint("-1").has_value());
}

TEST(Str, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("2.5x").has_value());
}

TEST(Str, JoinAndFormat) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

// -------------------------------------------------------------- Flags ----

TEST(Flags, ParsesAllForms) {
  FlagSet flags;
  flags.DefineInt("n", 4, "resources")
      .DefineDouble("rate", 1.0, "rate")
      .DefineBool("verbose", false, "verbosity")
      .DefineString("policy", "dlru-edf", "policy name");
  const char* argv[] = {"prog",      "--n=8",      "--rate", "2.5",
                        "--verbose", "--policy=edf", "positional"};
  ASSERT_TRUE(flags.Parse(7, argv)) << flags.error();
  EXPECT_EQ(flags.GetInt("n"), 8);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 2.5);
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_EQ(flags.GetString("policy"), "edf");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Flags, NoPrefixDisablesBool) {
  FlagSet flags;
  flags.DefineBool("replicate", true, "replication");
  const char* argv[] = {"prog", "--no-replicate"};
  ASSERT_TRUE(flags.Parse(2, argv)) << flags.error();
  EXPECT_FALSE(flags.GetBool("replicate"));
}

TEST(Flags, UnknownFlagFails) {
  FlagSet flags;
  flags.DefineInt("n", 4, "resources");
  const char* argv[] = {"prog", "--m=3"};
  EXPECT_FALSE(flags.Parse(2, argv));
  EXPECT_NE(flags.error().find("unknown flag"), std::string::npos);
}

TEST(Flags, TypeErrorFails) {
  FlagSet flags;
  flags.DefineInt("n", 4, "resources");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.Parse(2, argv));
}

TEST(Flags, HelpRequested) {
  FlagSet flags;
  flags.DefineInt("n", 4, "resources");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.Parse(2, argv));
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.Help("prog").find("--n"), std::string::npos);
}

TEST(Flags, DefaultsSurvive) {
  FlagSet flags;
  flags.DefineInt("n", 4, "resources");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, argv));
  EXPECT_EQ(flags.GetInt("n"), 4);
}

// -------------------------------------------------------------- Table ----

TEST(Table, AsciiAlignsColumns) {
  Table t({"name", "value"});
  t.AddRow().Cell("alpha").Cell(int64_t{1});
  t.AddRow().Cell("b").Cell(2.5, 1);
  std::string ascii = t.ToAscii();
  EXPECT_NE(ascii.find("| name  | value |"), std::string::npos);
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("2.5"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.AddRow().Cell("has,comma").Cell("has\"quote");
  std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, JsonNumbersUnquotedStringsQuoted) {
  Table t({"name", "count", "ratio"});
  t.AddRow().Cell("alpha").Cell(int64_t{3}).Cell(1.5, 2);
  std::string json = t.ToJson();
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ratio\": 1.5"), std::string::npos) << json;
}

TEST(Table, JsonEscapesSpecials) {
  Table t({"v"});
  t.AddRow().Cell("a\"b\\c\nd");
  std::string json = t.ToJson();
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos) << json;
}

TEST(Table, AtAccessor) {
  Table t({"x"});
  t.AddRow().Cell(uint64_t{7});
  EXPECT_EQ(t.At(0, 0), "7");
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.num_cols(), 1u);
}

}  // namespace
}  // namespace rrs
