// Unit tests for the util substrate: online stats, histogram, RNG, config
// parsing and blocking queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/blocking_queue.hpp"
#include "util/config.hpp"
#include "util/histogram.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace hyflow {
namespace {

// ---------------------------------------------------------------- Stats ----

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 4.0, 1e-9);
  EXPECT_NEAR(stats.stddev(), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesSinglePass) {
  Xoshiro256 rng(123);
  OnlineStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 100;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(Ewma, FirstSampleSeeds) {
  Ewma ewma(0.5);
  EXPECT_FALSE(ewma.seeded());
  ewma.add(10.0);
  EXPECT_TRUE(ewma.seeded());
  EXPECT_DOUBLE_EQ(ewma.value(), 10.0);
}

TEST(Ewma, ConvergesTowardConstant) {
  Ewma ewma(0.3, 0.0);
  for (int i = 0; i < 100; ++i) ewma.add(42.0);
  EXPECT_NEAR(ewma.value(), 42.0, 1e-6);
}

TEST(Ewma, SmoothsSteps) {
  Ewma ewma(0.2);
  ewma.add(0.0);
  ewma.add(100.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 20.0);
  ewma.reset(5.0);
  EXPECT_FALSE(ewma.seeded());
  EXPECT_DOUBLE_EQ(ewma.value(), 5.0);
}

// ------------------------------------------------------------ Histogram ----

TEST(Histogram, PercentilesOnUniform) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(static_cast<double>(h.value_at_percentile(50)), 5000.0, 5000 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.value_at_percentile(99)), 9900.0, 9900 * 0.05);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10000u);
  EXPECT_NEAR(h.mean(), 5000.5, 1.0);
}

TEST(Histogram, SmallValuesExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 32; ++v) h.add(v);
  EXPECT_EQ(h.value_at_percentile(0), 0u);
  EXPECT_EQ(h.value_at_percentile(100), 31u);
}

TEST(Histogram, MergeEqualsCombined) {
  Histogram a, b, combined;
  Xoshiro256 rng(7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(1 << 20);
    combined.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.value_at_percentile(50), combined.value_at_percentile(50));
  EXPECT_EQ(a.value_at_percentile(95), combined.value_at_percentile(95));
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.add(100);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.value_at_percentile(50), 0u);
}

// Regression: a single sample must be returned exactly for every percentile.
// The old interpolation returned the bucket midpoint, which for a value at
// the low edge of a wide log bucket overshot by up to half the bucket width.
TEST(Histogram, SingleSampleExactAtEveryPercentile) {
  Histogram h;
  const std::uint64_t v = 1'015'807;  // low edge of a 2^15-wide bucket
  h.add(v);
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0})
    EXPECT_EQ(h.value_at_percentile(p), v) << "p=" << p;
}

// Regression: p=0 must map to the smallest recorded sample, not to 0 or a
// value below the recorded minimum.
TEST(Histogram, PercentileZeroIsTheMinimum) {
  Histogram h;
  h.add(1000);
  for (int i = 0; i < 999; ++i) h.add(1'000'000);
  EXPECT_GE(h.value_at_percentile(0), h.min());
  EXPECT_NEAR(static_cast<double>(h.value_at_percentile(0)), 1000.0, 1000.0 / 16);
  EXPECT_EQ(h.value_at_percentile(100), h.max());
}

// Percentiles are clamped to [min, max] and monotone in p.
TEST(Histogram, PercentilesClampedAndMonotone) {
  Histogram h;
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) h.add(500 + rng.below(1 << 22));
  std::uint64_t prev = 0;
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    const std::uint64_t v = h.value_at_percentile(p);
    EXPECT_GE(v, h.min()) << "p=" << p;
    EXPECT_LE(v, h.max()) << "p=" << p;
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

// Values above the configured range are counted (clamped into the top
// bucket) and reported via overflow_count() instead of silently skewing.
TEST(Histogram, OverflowCountedNotDropped) {
  Histogram h(1000);
  h.add(500);
  h.add(1u << 20);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_EQ(h.max(), 1u << 20);  // true extreme still tracked
  EXPECT_LE(h.value_at_percentile(100), std::uint64_t{1} << 20);
}

TEST(Histogram, MergeAddsOverflow) {
  Histogram a(1000), b(1000);
  a.add(2000);
  b.add(3000);
  b.add(10);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.overflow_count(), 2u);
}

// subtract() turns two monotonic snapshots into the window in between.
TEST(Histogram, SubtractLeavesTheWindow) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.add(100);
  const Histogram before = h;
  for (int i = 0; i < 1000; ++i) h.add(10000);
  h.subtract(before);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.overflow_count(), 0u);
  EXPECT_NEAR(static_cast<double>(h.value_at_percentile(50)), 10000.0, 10000.0 / 16);
  EXPECT_GT(h.min(), 100u);  // the pre-window samples are gone
}

// ----------------------------------------------------------- JsonWriter ----

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonWriter::escape("\n\r\t\b\f"), "\\n\\r\\t\\b\\f");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(JsonWriter, CompactNestedDocument) {
  JsonWriter w(0);
  w.begin_object();
  w.key("a").begin_array().value(1).value(2.5).end_array();
  w.field("s", "x\"y").field("b", true).key("n").null();
  w.key("o").begin_object().field("k", std::uint64_t{7}).end_object();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(w.str(), "{\"a\":[1,2.5],\"s\":\"x\\\"y\",\"b\":true,\"n\":null,"
                     "\"o\":{\"k\":7}}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w(0);
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,null,1.5]");
}

TEST(JsonWriter, IndentedOutputIsStable) {
  JsonWriter w(2);
  w.begin_object().field("k", 1).end_object();
  EXPECT_EQ(w.str(), "{\n  \"k\": 1\n}");
}

TEST(JsonWriter, WriteTextFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/json_writer_test.json";
  JsonWriter w;
  w.begin_object().field("x", 42).end_object();
  ASSERT_TRUE(write_text_file(path, w.str()));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), w.str());
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ RNG ----

TEST(Rng, DeterministicBySeed) {
  Xoshiro256 a(99), b(99), c(100);
  bool differs_from_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a(), vb = b(), vc = c();
    EXPECT_EQ(va, vb);
    differs_from_c |= (va != vc);
  }
  EXPECT_TRUE(differs_from_c);
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, BelowZeroIsZero) {
  Xoshiro256 rng(17);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

// --------------------------------------------------------------- Config ----

TEST(Config, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--nodes=40", "--verbose", "--ratio=0.25", "positional",
                        "--name=bank"};
  auto cfg = Config::from_args(6, const_cast<char**>(argv));
  EXPECT_EQ(cfg.get_int("nodes", 0), 40);
  EXPECT_TRUE(cfg.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(cfg.get_double("ratio", 0.0), 0.25);
  EXPECT_EQ(cfg.get_string("name", ""), "bank");
  ASSERT_EQ(cfg.positional().size(), 1u);
  EXPECT_EQ(cfg.positional()[0], "positional");
}

TEST(Config, DefaultsWhenAbsent) {
  Config cfg;
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_EQ(cfg.get_string("missing", "d"), "d");
  EXPECT_FALSE(cfg.get_bool("missing", false));
}

TEST(Config, IntListParsing) {
  Config cfg;
  cfg.set("nodes", "10,20,40,80");
  const auto list = cfg.get_int_list("nodes", {});
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[3], 80);
  const auto fallback = cfg.get_int_list("absent", {1, 2});
  ASSERT_EQ(fallback.size(), 2u);
}

// -------------------------------------------------------- BlockingQueue ----

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(BlockingQueue, CloseUnblocksAndDrains) {
  BlockingQueue<int> q;
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));               // rejected after close
  EXPECT_EQ(q.pop().value(), 1);         // drains remaining
  EXPECT_FALSE(q.pop().has_value());     // then signals end
}

TEST(BlockingQueue, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::jthread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(42);
  });
  EXPECT_EQ(q.pop().value(), 42);
}

TEST(BlockingQueue, ConcurrentProducersConsumers) {
  BlockingQueue<int> q;
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 4;
  std::atomic<long long> sum{0};
  std::atomic<long long> count{0};
  std::vector<std::jthread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        sum.fetch_add(*v);
        count.fetch_add(1);
      }
    });
  }
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&q, p] {
        for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
      });
    }
  }  // producers joined
  q.close();
  consumers.clear();  // consumers drain and exit
  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(Time, StopwatchMonotone) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto e1 = sw.elapsed();
  EXPECT_GE(e1, sim_ms(4));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(sw.elapsed(), e1);
}

}  // namespace
}  // namespace hyflow
