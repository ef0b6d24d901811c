// Tests for the reporting layer (metrics, cluster report) and assorted
// small surfaces: identifier packing, payload naming/sizing, Lamport
// envelope propagation, and the logger.
#include <gtest/gtest.h>

#include <cstdio>

#include "net/payloads.hpp"
#include "runtime/metrics.hpp"
#include "runtime/report.hpp"
#include "util/log.hpp"
#include "workloads/dht.hpp"
#include "workloads/registry.hpp"

namespace hyflow {
namespace {

// -------------------------------------------------------------- metrics ----

// Snapshot subtraction saturates instead of wrapping when a counter appears
// to run backwards (e.g. a window straddling a crash-reset).
TEST(Metrics, SnapshotDifferenceSaturates) {
  runtime::MetricsSnapshot before, after;
  before.commits_root = 100;
  after.commits_root = 40;  // "ran backwards"
  before.rpc_retries = 7;
  after.rpc_retries = 7;
  before.latency.add(50);
  before.latency.add(60);
  after.latency.add(50);  // one fewer sample than `before`
  const auto diff = after - before;
  EXPECT_EQ(diff.commits_root, 0u);  // not 2^64 - 60
  EXPECT_EQ(diff.rpc_retries, 0u);
  EXPECT_EQ(diff.latency.count(), 0u);
}

TEST(Metrics, SnapshotDifferenceIncludesLatencyWindow) {
  runtime::NodeMetrics metrics;
  metrics.record_latency(1000);
  const auto before = metrics.snapshot();
  metrics.record_latency(500000);
  metrics.record_latency(600000);
  auto after = metrics.snapshot();
  const auto diff = after - before;
  ASSERT_EQ(diff.latency.count(), 2u);
  EXPECT_GT(diff.latency.value_at_percentile(50), 1000u);
}

// --------------------------------------------------------------- report ----

TEST(Report, CollectsPerNodeState) {
  workloads::WorkloadConfig wcfg;
  wcfg.local_work = 0;
  auto wl = workloads::make_workload("dht", wcfg);
  runtime::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.workers_per_node = 0;
  cfg.topology.min_delay = sim_us(1);
  cfg.topology.max_delay = sim_us(20);
  runtime::Cluster cluster(cfg);
  wl->setup(cluster);
  Xoshiro256 rng(4);
  for (int i = 0; i < 10; ++i) {
    const auto op = wl->next_op(0, rng);
    ASSERT_TRUE(cluster.execute(0, op.profile, op.body).committed);
  }
  const auto report = runtime::collect_report(cluster);
  ASSERT_EQ(report.nodes.size(), 3u);
  EXPECT_EQ(report.totals.commits_root, 10u);
  EXPECT_EQ(report.total_objects, 3u * static_cast<std::size_t>(wcfg.objects_per_node));
  EXPECT_GT(report.messages, 0u);
  const auto text = report.to_string();
  EXPECT_NE(text.find("total commits=10"), std::string::npos);
  EXPECT_NE(text.find("network messages="), std::string::npos);
  cluster.shutdown();
}

// Commit latency recorded by the TFA runtime must surface in the aggregated
// report: non-zero percentiles in `totals` and a latency line in the text.
TEST(Report, LatencyPercentilesPropagate) {
  workloads::WorkloadConfig wcfg;
  wcfg.local_work = 0;
  auto wl = workloads::make_workload("dht", wcfg);
  runtime::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 0;
  cfg.topology.min_delay = sim_us(1);
  cfg.topology.max_delay = sim_us(20);
  runtime::Cluster cluster(cfg);
  wl->setup(cluster);
  Xoshiro256 rng(9);
  for (int i = 0; i < 8; ++i) {
    const auto op = wl->next_op(0, rng);
    ASSERT_TRUE(cluster.execute(0, op.profile, op.body).committed);
  }
  const auto report = runtime::collect_report(cluster);
  EXPECT_EQ(report.totals.latency.count(), 8u);
  EXPECT_GT(report.totals.latency.value_at_percentile(50), 0u);
  EXPECT_GE(report.totals.latency.value_at_percentile(99),
            report.totals.latency.value_at_percentile(50));
  EXPECT_NE(report.to_string().find("latency ms p50="), std::string::npos);
  cluster.shutdown();
}

// Histogram overflow (latencies beyond the histogram range) must be called
// out in the report rather than silently clamping the tail.
TEST(Report, LatencyOverflowSurfaces) {
  runtime::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.workers_per_node = 0;
  runtime::Cluster cluster(cfg);
  cluster.node(0).metrics().record_latency(1ull << 60);  // beyond 2^40 range
  const auto report = runtime::collect_report(cluster);
  EXPECT_EQ(report.totals.latency.overflow_count(), 1u);
  EXPECT_NE(report.to_string().find("latency histogram overflow"), std::string::npos);
  cluster.shutdown();
}

// ----------------------------------------------------------- misc units ----

TEST(Identifiers, TxnIdPacksNodeAndSequence) {
  const TxnId id = TxnId::make(513, 0x123456789ull);
  EXPECT_EQ(id.node(), 513u);
  EXPECT_EQ(id.seq(), 0x123456789ull);
  EXPECT_TRUE(id.valid());
  EXPECT_FALSE(kInvalidTxn.valid());
  EXPECT_FALSE(kInvalidObject.valid());
}

TEST(Payloads, NamesAndSizes) {
  net::Payload p = net::ObjectRequest{};
  EXPECT_STREQ(net::payload_name(p), "ObjectRequest");
  p = net::CommitResponse{};
  EXPECT_STREQ(net::payload_name(p), "CommitResponse");

  net::ObjectResponse with_object;
  with_object.object = std::make_shared<workloads::Bucket>(ObjectId{1}, 0);
  net::ObjectResponse without_object;
  EXPECT_GT(net::payload_wire_size(net::Payload{with_object}),
            net::payload_wire_size(net::Payload{without_object}));
}

TEST(Log, LevelGating) {
  const auto old = Log::level();
  Log::set_level(LogLevel::kError);
  EXPECT_FALSE(Log::enabled(LogLevel::kDebug));
  EXPECT_FALSE(Log::enabled(LogLevel::kWarn));
  EXPECT_TRUE(Log::enabled(LogLevel::kError));
  Log::set_level(LogLevel::kTrace);
  EXPECT_TRUE(Log::enabled(LogLevel::kDebug));
  Log::set_level(old);
}

TEST(Log, FormatParts) {
  EXPECT_EQ(log_detail::format_parts("x=", 42, " y=", 1.5), "x=42 y=1.5");
}

}  // namespace
}  // namespace hyflow
