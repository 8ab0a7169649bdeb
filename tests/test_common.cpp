// Unit tests for src/common: RNG determinism and distributions, statistics,
// table formatting, CLI parsing, unit conversions.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace d2net {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const std::uint64_t first = a();
  a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIsApproximatelyUniform) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform() * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(LogHistogram, MeanIsExact) {
  LogHistogram h;
  for (std::int64_t v : {1, 2, 3, 100, 1000}) h.add(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.mean(), (1 + 2 + 3 + 100 + 1000) / 5.0);
}

TEST(LogHistogram, PercentileWithinBucketResolution) {
  LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.add(1000);
  const double p50 = h.percentile(50);
  EXPECT_GE(p50, 512);
  EXPECT_LE(p50, 1024);
}

TEST(LogHistogram, NegativeGoesToUnderflow) {
  LogHistogram h;
  h.add(-5);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.underflow(), 1);
}

TEST(LogHistogram, HugeValueGoesToOverflow) {
  LogHistogram h;
  h.add(100);
  h.add(std::int64_t{1} << 62);  // first value past the bucketed range
  EXPECT_EQ(h.count(), 1);       // overflow excluded from in-range count
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.underflow(), 0);
  // The saturated value must not drag the percentile into the top bucket.
  EXPECT_LE(h.percentile(100), 128.0);
  // Nor bias the mean of the in-range samples.
  EXPECT_DOUBLE_EQ(h.mean(), 100.0);
}

TEST(LogHistogram, TopBucketBoundaryStillCounts) {
  LogHistogram h;
  h.add((std::int64_t{1} << 62) - 1);  // largest representable value
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.overflow(), 0);
  const double p = h.percentile(50);
  EXPECT_GE(p, static_cast<double>(std::int64_t{1} << 61));
  EXPECT_LE(p, static_cast<double>(std::int64_t{1} << 62));
}

TEST(LogHistogram, ZeroAndOneLandInDistinctBuckets) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.add(0);
  h.add(1);
  EXPECT_EQ(h.count(), 101);
  EXPECT_LT(h.percentile(50), 1.0);   // the zero bucket
  EXPECT_GE(h.percentile(100), 1.0);  // the [1,2) bucket
}

TEST(MetricsRegistry, HandlesAreStableAcrossRegistrations) {
  MetricsRegistry reg;
  MetricsRegistry::Counter& a = reg.counter("a");
  a.add(3);
  // Register enough further sinks to force storage growth. (Avoids
  // operator+(const char*, string&&), which trips GCC 12's -Wrestrict
  // false positive under -Werror.)
  for (int i = 0; i < 100; ++i) reg.counter(std::string("c") += std::to_string(i));
  a.add(4);
  EXPECT_EQ(reg.counter("a").value, 7);  // same sink, by name
  EXPECT_EQ(&reg.counter("a"), &a);      // same address, too
  EXPECT_EQ(reg.num_counters(), 101u);
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_stats("missing"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
  EXPECT_EQ(reg.num_counters(), 0u);
  reg.counter("present").add(5);
  ASSERT_NE(reg.find_counter("present"), nullptr);
  EXPECT_EQ(reg.find_counter("present")->value, 5);
  // Kinds are independent namespaces.
  EXPECT_EQ(reg.find_histogram("present"), nullptr);
}

TEST(MetricsRegistry, IteratesInRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("zebra").add(1);
  reg.counter("apple").add(2);
  reg.stats("s").add(1.5);
  reg.histogram("h").add(10);
  std::vector<std::string> names;
  reg.for_each_counter(
      [&](const std::string& name, const MetricsRegistry::Counter&) { names.push_back(name); });
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "zebra");  // not alphabetical
  EXPECT_EQ(names[1], "apple");
  EXPECT_EQ(reg.num_stats(), 1u);
  EXPECT_EQ(reg.num_histograms(), 1u);
}

TEST(SampleSet, PercentileNearestRank) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Table, AlignsAndCounts) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 2.5);
  t.add("smoke \u2014 uniform", 3);  // the em dash is 3 bytes, 1 column
  EXPECT_EQ(t.num_rows(), 3u);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("2.500"), std::string::npos);
  EXPECT_NE(text.find("| smoke \u2014 uniform | 3     |"), std::string::npos) << text;
  EXPECT_NE(text.find("| alpha           | 1     |"), std::string::npos) << text;
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ArgumentError);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add(1, 2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Fmt, FormatsNumbers) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.873, 1), "87.3%");
}

TEST(Cli, ParsesAllTypes) {
  Cli cli("test");
  cli.flag("count", std::int64_t{5}, "a count")
      .flag("rate", 0.5, "a rate")
      .flag("full", false, "a switch")
      .flag("name", std::string("x"), "a name");
  const char* argv[] = {"prog", "--count=7", "--rate", "0.25", "--full", "--name=hello"};
  ASSERT_TRUE(cli.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.25);
  EXPECT_TRUE(cli.get_bool("full"));
  EXPECT_EQ(cli.get_string("name"), "hello");
}

TEST(Cli, DefaultsSurviveWhenUnset) {
  Cli cli("test");
  cli.flag("count", std::int64_t{5}, "a count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_int("count"), 5);
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(cli.parse(2, const_cast<char**>(argv)), ArgumentError);
}

// Argument errors read as the caller's mistake: plain text, no source
// location or stringified condition.
std::string parse_error(Cli& cli, std::vector<const char*> argv) {
  try {
    cli.parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  } catch (const ArgumentError& e) {
    return e.what();
  }
  return "no error";
}

TEST(Cli, ErrorsArePlainText) {
  Cli cli("test");
  cli.flag("x", std::int64_t{1}, "a count").flag("r", 0.5, "a rate").flag("b", false, "sw");
  EXPECT_EQ(parse_error(cli, {"prog", "--bogus"}), "unknown flag --bogus");
  EXPECT_EQ(parse_error(cli, {"prog", "--x"}), "flag --x expects a value");
  EXPECT_EQ(parse_error(cli, {"prog", "--x=3k"}), "flag --x expects an integer, got '3k'");
  EXPECT_EQ(parse_error(cli, {"prog", "--r=fast"}), "flag --r expects a number, got 'fast'");
  EXPECT_EQ(parse_error(cli, {"prog", "--b=yes"}), "flag --b expects true/false/1/0, got 'yes'");
  EXPECT_EQ(parse_error(cli, {"prog", "x=1"}), "arguments must look like --name[=value]: x=1");
}

TEST(Cli, RunCliTurnsArgumentErrorsIntoExitTwo) {
  const auto bad = [](int, char**) -> int { throw ArgumentError("unknown flag --bogus"); };
  const auto good = [](int argc, char**) { return argc; };
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli(bad, 0, nullptr), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "error: unknown flag --bogus\n");
  EXPECT_EQ(run_cli(good, 5, nullptr), 5);
}

TEST(Cli, RunCliTurnsOtherExceptionsIntoExitOne) {
  const auto failing = [](int, char**) -> int {
    throw std::runtime_error("sweep point 3 failed: wedged");
  };
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli(failing, 0, nullptr), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "error: sweep point 3 failed: wedged\n");
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, ShortHelpReturnsFalse) {
  Cli cli("test");
  const char* argv[] = {"prog", "-h"};
  EXPECT_FALSE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, UnknownShortFlagThrows) {
  Cli cli("test");
  const char* argv[] = {"prog", "-x"};
  EXPECT_THROW(cli.parse(2, const_cast<char**>(argv)), ArgumentError);
}

TEST(Cli, RejectsIntegerWithTrailingJunk) {
  for (const char* bad : {"--count=12x", "--count=0x10", "--count=", "--count=7 "}) {
    Cli cli("test");
    cli.flag("count", std::int64_t{5}, "a count");
    const char* argv[] = {"prog", bad};
    EXPECT_THROW(cli.parse(2, const_cast<char**>(argv)), ArgumentError) << bad;
  }
}

TEST(Cli, RejectsDoubleWithTrailingJunk) {
  for (const char* bad : {"--rate=0.9o", "--rate=fast", "--rate=1.0.0", "--rate="}) {
    Cli cli("test");
    cli.flag("rate", 0.5, "a rate");
    const char* argv[] = {"prog", bad};
    EXPECT_THROW(cli.parse(2, const_cast<char**>(argv)), ArgumentError) << bad;
  }
}

TEST(Cli, AcceptsScientificAndSignedNumbers) {
  Cli cli("test");
  cli.flag("rate", 0.5, "a rate").flag("count", std::int64_t{0}, "a count");
  const char* argv[] = {"prog", "--rate=2.5e-3", "--count=-42"};
  ASSERT_TRUE(cli.parse(3, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 2.5e-3);
  EXPECT_EQ(cli.get_int("count"), -42);
}

TEST(Cli, BoolAcceptsOnlyCanonicalValues) {
  for (const char* bad : {"--full=yes", "--full=no", "--full=TRUE", "--full=2", "--full="}) {
    Cli cli("test");
    cli.flag("full", false, "a switch");
    const char* argv[] = {"prog", bad};
    EXPECT_THROW(cli.parse(2, const_cast<char**>(argv)), ArgumentError) << bad;
  }
  Cli cli("test");
  cli.flag("a", true, "sw").flag("b", false, "sw").flag("c", false, "sw").flag("d", false, "sw");
  const char* argv[] = {"prog", "--a=0", "--b=1", "--c=true", "--d=false"};
  ASSERT_TRUE(cli.parse(5, const_cast<char**>(argv)));
  EXPECT_FALSE(cli.get_bool("a"));
  EXPECT_TRUE(cli.get_bool("b"));
  EXPECT_TRUE(cli.get_bool("c"));
  EXPECT_FALSE(cli.get_bool("d"));
}

TEST(Units, Conversions) {
  EXPECT_EQ(ns(100), 100000);
  EXPECT_EQ(us(1), 1000000);
  EXPECT_EQ(ps_per_byte_at_gbps(100.0), 80);
  EXPECT_DOUBLE_EQ(to_us(2000000), 2.0);
  EXPECT_DOUBLE_EQ(to_ns(1500), 1.5);
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    D2NET_REQUIRE(false, "context here");
    FAIL() << "should have thrown";
  } catch (const ArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("context here"), std::string::npos);
  }
}

}  // namespace
}  // namespace d2net
