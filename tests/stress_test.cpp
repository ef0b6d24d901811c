// Stress and robustness suites: correctness under message-delay jitter
// (reordering), hot-spot storms, reader-interval concurrency, version
// monotonicity, and message-economy properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "dsm/directory.hpp"
#include "runtime/experiment.hpp"
#include "workloads/bank.hpp"
#include "workloads/registry.hpp"

namespace hyflow {
namespace {

class Cell : public TxObject<Cell> {
 public:
  explicit Cell(ObjectId id) : TxObject(id) {}
  std::int64_t value = 0;
};

// ----------------------------------------------------- jitter/reordering ---

class JitterCorrectness : public ::testing::TestWithParam<double> {};

TEST_P(JitterCorrectness, BankConservationUnderJitter) {
  workloads::WorkloadConfig wcfg;
  wcfg.read_ratio = 0.2;
  wcfg.objects_per_node = 5;
  wcfg.local_work = sim_us(50);
  workloads::BankWorkload bank(wcfg);

  runtime::ExperimentConfig cfg;
  cfg.cluster.nodes = 5;
  cfg.cluster.workers_per_node = 2;
  cfg.cluster.scheduler.kind = "rts";
  cfg.cluster.topology.min_delay = sim_us(20);
  cfg.cluster.topology.max_delay = sim_us(400);
  cfg.cluster.topology.jitter = GetParam();  // breaks per-pair FIFO
  cfg.warmup = sim_ms(30);
  cfg.measure = sim_ms(250);
  const auto result = runtime::run_experiment(bank, cfg);
  EXPECT_GT(result.delta.commits_root, 0u);
  EXPECT_TRUE(result.verified) << "conservation violated under jitter " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, JitterCorrectness, ::testing::Values(0.0, 0.3, 0.9),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "jitter" + std::to_string(static_cast<int>(
                                                 info.param * 100));
                         });

// ----------------------------------------------------------- hot object ----

TEST(Stress, SingleHotObjectManyWriters) {
  // The worst case of SS III-D as a correctness test: every node hammers one
  // object; the final value must equal the number of committed increments.
  runtime::ClusterConfig cfg;
  cfg.nodes = 6;
  cfg.workers_per_node = 0;
  cfg.scheduler.kind = "rts";
  cfg.scheduler.cl_threshold = 8;
  cfg.topology.min_delay = sim_us(10);
  cfg.topology.max_delay = sim_us(200);
  runtime::Cluster cluster(cfg);
  const ObjectId hot{4242};
  cluster.create_object(std::make_unique<Cell>(hot), 0);

  constexpr int kPerNode = 8;
  {
    std::vector<std::jthread> writers;
    for (NodeId n = 0; n < 6; ++n) {
      writers.emplace_back([&cluster, n, hot] {
        for (int i = 0; i < kPerNode; ++i) {
          ASSERT_TRUE(cluster.execute(n, 1, [&](tfa::Txn& tx) {
            tx.nested([&](tfa::Txn& child) { child.write<Cell>(hot).value += 1; });
          }).committed);
        }
      });
    }
  }
  EXPECT_EQ(object_cast<Cell>(*cluster.committed_copy(hot)).value, 6 * kPerNode);
  cluster.shutdown();
}

TEST(Stress, ReadersProceedWhileWriterStorms) {
  // Readers must keep committing against a write-stormed object (reads
  // never lock; queued readers are released together).
  runtime::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.workers_per_node = 0;
  cfg.scheduler.kind = "rts";
  runtime::Cluster cluster(cfg);
  const ObjectId hot{4243};
  cluster.create_object(std::make_unique<Cell>(hot), 0);

  std::atomic<bool> stop{false};
  std::atomic<int> reads_done{0};
  {
    std::vector<std::jthread> threads;
    threads.emplace_back([&] {  // writer storm (lightly paced so the test
                                // bounds its own runtime; readers must
                                // still interleave with ongoing commits)
      while (!stop.load()) {
        cluster.execute(1, 1, [&](tfa::Txn& tx) { tx.write<Cell>(hot).value += 1; });
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    for (NodeId n = 2; n < 4; ++n) {
      threads.emplace_back([&, n] {
        for (int i = 0; i < 15; ++i) {
          std::int64_t v = -1;
          ASSERT_TRUE(cluster.execute(n, 2, [&](tfa::Txn& tx) {
            v = tx.read<Cell>(hot).value;
          }).committed);
          ASSERT_GE(v, 0);
          reads_done.fetch_add(1);
        }
      });
    }
    while (reads_done.load() < 30) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true);
  }
  EXPECT_EQ(reads_done.load(), 30);
  cluster.shutdown();
}

// ----------------------------------------------------- version ordering ----

TEST(Stress, CommittedVersionsStrictlyIncreasePerObject) {
  // Observed version clocks of one object form a strictly increasing
  // sequence across commits (TFA: each commit's clock exceeds everything
  // the committer observed).
  runtime::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.workers_per_node = 0;
  runtime::Cluster cluster(cfg);
  const ObjectId oid{4244};
  cluster.create_object(std::make_unique<Cell>(oid), 0);

  std::vector<std::uint64_t> clocks;
  for (int i = 0; i < 12; ++i) {
    const NodeId n = static_cast<NodeId>(i % 4);
    ASSERT_TRUE(cluster.execute(n, 1, [&](tfa::Txn& tx) {
      tx.write<Cell>(oid).value += 1;
    }).committed);
    // Read the committed version straight from the owner's store.
    const NodeId home = dsm::home_node(oid, cluster.size());
    const auto owner = cluster.node(home).directory().lookup(oid);
    ASSERT_TRUE(owner.has_value());
    const auto slot = cluster.node(*owner).store().get(oid);
    ASSERT_TRUE(slot.has_value());
    clocks.push_back(slot->version.clock);
  }
  for (std::size_t i = 1; i < clocks.size(); ++i)
    EXPECT_GT(clocks[i], clocks[i - 1]) << "version clocks must strictly increase";
  cluster.shutdown();
}

// ------------------------------------------------------- message economy ---

TEST(Stress, ReadOnlyTransactionsSendNoLockOrCommitTraffic) {
  runtime::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.workers_per_node = 0;
  runtime::Cluster cluster(cfg);
  const ObjectId oid{4245};
  cluster.create_object(std::make_unique<Cell>(oid), 2);

  // Warm the owner hint, then measure a pure read transaction.
  cluster.execute(0, 1, [&](tfa::Txn& tx) { (void)tx.read<Cell>(oid); });
  const auto before = cluster.network().stats().messages.load();
  ASSERT_TRUE(cluster.execute(0, 1, [&](tfa::Txn& tx) {
    (void)tx.read<Cell>(oid).value;
  }).committed);
  cluster.network().wait_idle();
  const auto sent = cluster.network().stats().messages.load() - before;
  // Fetch (request+response) only: a single-object read transaction skips
  // commit validation entirely; no find-owner (hint cached), no locks, no
  // registration, no transfer.
  EXPECT_LE(sent, 2u);
  cluster.shutdown();
}

TEST(Stress, LocallyOwnedTransactionIsCheap) {
  runtime::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.workers_per_node = 0;
  runtime::Cluster cluster(cfg);
  const ObjectId oid{4246};
  cluster.create_object(std::make_unique<Cell>(oid), 1);

  cluster.execute(1, 1, [&](tfa::Txn& tx) { tx.write<Cell>(oid).value = 1; });
  const auto before = cluster.network().stats().messages.load();
  ASSERT_TRUE(cluster.execute(1, 1, [&](tfa::Txn& tx) {
    tx.write<Cell>(oid).value += 1;
  }).committed);
  cluster.network().wait_idle();
  const auto sent = cluster.network().stats().messages.load() - before;
  // Fetch, lock, validation and publication are served in place by the
  // owning node. Registration is too when node 1 also holds the object's
  // directory shard; otherwise it is one round-trip to the home node.
  EXPECT_EQ(sent, dsm::home_node(oid, cfg.nodes) == 1 ? 0u : 2u);
  cluster.shutdown();
}

// ----------------------------------------------------- mixed load sweep ----

TEST(Stress, AllWorkloadsConcurrentlyOnOneCluster) {
  // All six workloads share a cluster and run under concurrent load; every
  // verifier must pass afterwards (id spaces are disjoint by construction).
  workloads::WorkloadConfig wcfg;
  wcfg.read_ratio = 0.5;
  wcfg.objects_per_node = 4;
  wcfg.local_work = 0;

  runtime::ClusterConfig cfg;
  cfg.nodes = 6;
  cfg.workers_per_node = 0;
  cfg.topology.min_delay = sim_us(5);
  cfg.topology.max_delay = sim_us(100);
  runtime::Cluster cluster(cfg);

  std::vector<std::unique_ptr<workloads::Workload>> wls;
  for (const auto& name : workloads::workload_names()) {
    wls.push_back(workloads::make_workload(name, wcfg));
    wls.back()->setup(cluster);
  }
  {
    std::vector<std::jthread> drivers;
    for (std::size_t w = 0; w < wls.size(); ++w) {
      drivers.emplace_back([&, w] {
        Xoshiro256 rng(100 + w);
        const NodeId node = static_cast<NodeId>(w % 6);
        for (int i = 0; i < 25; ++i) {
          const auto op = wls[w]->next_op(node, rng);
          ASSERT_TRUE(cluster.execute(node, op.profile, op.body).committed);
        }
      });
    }
  }
  for (auto& wl : wls) EXPECT_TRUE(wl->verify(cluster)) << wl->name();
  cluster.shutdown();
}

}  // namespace
}  // namespace hyflow
