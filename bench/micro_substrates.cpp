// google-benchmark microbenchmarks for the substrates: online stats,
// histogram, blocking queue, contention tracker, requester list,
// scheduler decisions, object store operations, topology lookups and a full
// network round-trip. These quantify the per-message and per-decision costs
// underlying the macro results.
//
// In addition to google-benchmark's console output, writes
// BENCH_micro_substrates.json (one point per microbenchmark with
// real/cpu time and ops/s) via a collecting reporter; --json=FILE overrides
// the path, --json=none disables.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_result.hpp"

#include "core/contention.hpp"
#include "core/requester_list.hpp"
#include "core/scheduler.hpp"
#include "dsm/object_store.hpp"
#include "net/network.hpp"
#include "runtime/cluster.hpp"
#include "net/rpc.hpp"
#include "util/blocking_queue.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hyflow {
namespace {

void BM_OnlineStatsAdd(benchmark::State& state) {
  OnlineStats stats;
  double x = 0.5;
  for (auto _ : state) {
    stats.add(x);
    x += 0.1;
  }
  benchmark::DoNotOptimize(stats.mean());
}
BENCHMARK(BM_OnlineStatsAdd);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  std::uint64_t v = 1;
  for (auto _ : state) h.add(v = v * 2862933555777941757ull + 3037000493ull);
}
BENCHMARK(BM_HistogramAdd);

void BM_BlockingQueuePushPop(benchmark::State& state) {
  BlockingQueue<int> q;
  for (auto _ : state) {
    q.push(1);
    benchmark::DoNotOptimize(q.try_pop());
  }
}
BENCHMARK(BM_BlockingQueuePushPop);

void BM_ContentionTrackerRecord(benchmark::State& state) {
  core::ContentionTracker tracker(sim_ms(20));
  std::uint64_t i = 0;
  for (auto _ : state) {
    tracker.record_request(ObjectId{1 + (i & 7)}, TxnId{1 + (i & 63)},
                           static_cast<SimTime>(i * 1000));
    ++i;
  }
}
BENCHMARK(BM_ContentionTrackerRecord);

void BM_ContentionTrackerLocalCl(benchmark::State& state) {
  core::ContentionTracker tracker(sim_ms(20));
  for (std::uint64_t i = 0; i < 64; ++i)
    tracker.record_request(ObjectId{1}, TxnId{i + 1}, static_cast<SimTime>(i));
  std::uint64_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(tracker.local_cl(ObjectId{1}, static_cast<SimTime>(++i)));
}
BENCHMARK(BM_ContentionTrackerLocalCl);

void BM_RtsOnConflict(benchmark::State& state) {
  // One decision per iteration (the paper's O(CL_threshold) claim): enqueue
  // until the threshold blocks, then steady-state aborts.
  core::SchedulerConfig cfg;
  cfg.cl_threshold = 4;
  auto rts = core::make_scheduler(cfg);
  std::uint64_t i = 0;
  for (auto _ : state) {
    core::ConflictContext ctx;
    ctx.oid = ObjectId{1 + (i & 3)};
    ctx.request.oid = ctx.oid;
    ctx.request.txid = TxnId{1 + (i & 31)};
    ctx.request_msg_id = ++i;
    ctx.request.ets.start = 0;
    ctx.request.ets.request = sim_ms(5);
    ctx.request.ets.expected_commit = sim_ms(7);
    ctx.validator_remaining = sim_ms(1);
    benchmark::DoNotOptimize(rts->on_conflict(ctx));
    if ((i & 0xff) == 0) (void)rts->extract_queue(ctx.oid);
  }
}
BENCHMARK(BM_RtsOnConflict);

void BM_RequesterListHeadGroup(benchmark::State& state) {
  core::RequesterList list;
  Xoshiro256 rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 8; ++i) {
      net::QueuedRequester r;
      r.txid = TxnId{static_cast<std::uint64_t>(i + 1)};
      r.mode = rng.chance(0.5) ? net::AccessMode::kRead : net::AccessMode::kWrite;
      list.add(0, r);
    }
    state.ResumeTiming();
    while (!list.empty()) benchmark::DoNotOptimize(list.pop_head_group());
  }
}
BENCHMARK(BM_RequesterListHeadGroup);

class Cell : public TxObject<Cell> {
 public:
  explicit Cell(ObjectId id) : TxObject(id) {}
  std::int64_t value = 0;
};

void BM_ObjectStoreLockUnlock(benchmark::State& state) {
  dsm::ObjectStore store;
  store.install(std::make_shared<Cell>(ObjectId{1}), Version{1, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.lock(ObjectId{1}, TxnId{5}, 1));
    store.unlock(ObjectId{1}, TxnId{5});
  }
}
BENCHMARK(BM_ObjectStoreLockUnlock);

void BM_ObjectClone(benchmark::State& state) {
  Cell cell(ObjectId{1});
  for (auto _ : state) benchmark::DoNotOptimize(cell.clone());
}
BENCHMARK(BM_ObjectClone);

void BM_TopologyDelay(benchmark::State& state) {
  net::TopologyConfig cfg;
  cfg.nodes = 80;
  net::Topology topo(cfg);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.delay(i % 80, (i * 7 + 3) % 80));
    ++i;
  }
}
BENCHMARK(BM_TopologyDelay);

void BM_NetworkRoundTrip(benchmark::State& state) {
  // Full echo round-trip through the timer dispatcher and delivery lanes at
  // minimal latency: the fixed per-message overhead of the simulation.
  net::TopologyConfig tcfg;
  tcfg.nodes = 2;
  tcfg.min_delay = sim_us(1);
  tcfg.max_delay = sim_us(2);
  tcfg.local_delay = sim_us(1);
  net::Network network{net::Topology(tcfg), 2};
  net::PendingCalls pending;
  network.register_handler(0, [&](net::Message m) {
    if (m.reply_to) pending.deliver(std::move(m));
  });
  network.register_handler(1, [&](net::Message m) {
    net::Message reply;
    reply.from = 1;
    reply.to = 0;
    reply.reply_to = m.msg_id;
    reply.payload = net::FindOwnerResponse{};
    network.send(std::move(reply));
  });
  network.start();
  for (auto _ : state) {
    const auto id = network.allocate_msg_id();
    auto call = pending.open(id);
    net::Message m;
    m.from = 0;
    m.to = 1;
    m.msg_id = id;
    m.payload = net::FindOwnerRequest{ObjectId{1}};
    network.send(std::move(m));
    benchmark::DoNotOptimize(pending.wait(call, sim_ms(1000)));
    pending.done(id);
  }
  network.stop();
}
BENCHMARK(BM_NetworkRoundTrip)->Unit(benchmark::kMicrosecond);

// End-to-end transaction paths on a minimal 2-node cluster at near-zero
// link latency: the protocol's fixed per-transaction overhead (messages,
// clock bookkeeping, set management) with the latency model factored out.
struct ClusterFixture {
  ClusterFixture() {
    runtime::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.workers_per_node = 0;
    cfg.topology.min_delay = sim_us(1);
    cfg.topology.max_delay = sim_us(2);
    cfg.topology.local_delay = sim_us(1);
    cluster = std::make_unique<runtime::Cluster>(cfg);
    cluster->create_object(std::make_unique<Cell>(ObjectId{1}), 1);
  }
  std::unique_ptr<runtime::Cluster> cluster;
};

void BM_TxnReadRemote(benchmark::State& state) {
  ClusterFixture fx;
  for (auto _ : state) {
    fx.cluster->execute(0, 1, [](tfa::Txn& tx) {
      benchmark::DoNotOptimize(tx.read<Cell>(ObjectId{1}).value);
    });
  }
  fx.cluster->shutdown();
}
BENCHMARK(BM_TxnReadRemote)->Unit(benchmark::kMicrosecond);

void BM_TxnWriteCommitRemote(benchmark::State& state) {
  ClusterFixture fx;
  for (auto _ : state) {
    fx.cluster->execute(0, 1, [](tfa::Txn& tx) { tx.write<Cell>(ObjectId{1}).value += 1; });
  }
  fx.cluster->shutdown();
}
BENCHMARK(BM_TxnWriteCommitRemote)->Unit(benchmark::kMicrosecond);

void BM_TxnClosedNestedWrite(benchmark::State& state) {
  ClusterFixture fx;
  for (auto _ : state) {
    fx.cluster->execute(0, 1, [](tfa::Txn& tx) {
      tx.nested([](tfa::Txn& child) { child.write<Cell>(ObjectId{1}).value += 1; });
    });
  }
  fx.cluster->shutdown();
}
BENCHMARK(BM_TxnClosedNestedWrite)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hyflow

namespace {

// ConsoleReporter that additionally collects each run for the JSON file.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Item {
    std::string name;
    double real_ns = 0.0;  // per iteration
    double cpu_ns = 0.0;   // per iteration
    double iterations = 0.0;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      Item item;
      item.name = run.benchmark_name();
      const double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      item.real_ns = run.real_accumulated_time * 1e9 / iters;
      item.cpu_ns = run.cpu_accumulated_time * 1e9 / iters;
      item.iterations = static_cast<double>(run.iterations);
      items.push_back(std::move(item));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<Item> items;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off --json= before google-benchmark sees (and rejects) it.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;

  hyflow::bench::BenchResult bench("micro_substrates");
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (json_path == "none" || json_path == "off") return 0;
  for (const auto& item : reporter.items) {
    bench.add_point()
        .label("benchmark", item.name)
        .metric("real_time_ns", item.real_ns)
        .metric("cpu_time_ns", item.cpu_ns)
        .metric("iterations", item.iterations)
        .metric("ops_per_sec", item.real_ns > 0.0 ? 1e9 / item.real_ns : 0.0);
  }
  const std::string path =
      json_path.empty() ? "BENCH_" + bench.name() + ".json" : json_path;
  if (bench.write(path))
    std::printf("# wrote %s (%zu points)\n", path.c_str(), bench.point_count());
  return 0;
}
