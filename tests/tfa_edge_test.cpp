// Edge cases of the TFA runtime: access-mode upgrades, ownership chasing,
// stale copies of moved objects, deep nesting, child-retry escalation,
// per-owner validation batches and the read-only commit rule, stats-table
// feedback, the TFA+Backoff stall path, and the local path: what a node
// owns or homes is served in place, without self-addressed messages.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dsm/directory.hpp"
#include "runtime/cluster.hpp"

namespace hyflow {
namespace {

class Box : public TxObject<Box> {
 public:
  explicit Box(ObjectId id, int v = 0) : TxObject(id), value(v) {}
  int value;
};

runtime::ClusterConfig quick(std::uint32_t nodes, const char* scheduler = "rts") {
  runtime::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.workers_per_node = 0;
  cfg.scheduler.kind = scheduler;
  cfg.topology.min_delay = sim_us(5);
  cfg.topology.max_delay = sim_us(80);
  return cfg;
}

TEST(TfaEdge, ReadThenWriteUpgradeUsesOneFetch) {
  runtime::Cluster cluster(quick(2));
  cluster.create_object(std::make_unique<Box>(ObjectId{1}, 3), 1);
  ASSERT_TRUE(cluster.execute(0, 1, [&](tfa::Txn& tx) {
    const int seen = tx.read<Box>(ObjectId{1}).value;    // fetch happens here
    const auto payloads_before = cluster.network().stats().object_payloads.load();
    tx.write<Box>(ObjectId{1}).value = seen + 1;         // upgrade: no refetch
    EXPECT_EQ(cluster.network().stats().object_payloads.load(), payloads_before);
    // The read view now reflects the buffered write.
    EXPECT_EQ(tx.read<Box>(ObjectId{1}).value, 4);
  }).committed);
  int v = 0;
  cluster.execute(1, 2, [&](tfa::Txn& tx) { v = tx.read<Box>(ObjectId{1}).value; });
  EXPECT_EQ(v, 4);
  cluster.shutdown();
}

TEST(TfaEdge, ReaderChasesMigratingObject) {
  // The object's ownership hops between nodes while a third node keeps
  // reading it: wrong-owner retries must always converge.
  runtime::Cluster cluster(quick(4));
  cluster.create_object(std::make_unique<Box>(ObjectId{2}, 0), 0);
  std::atomic<bool> stop{false};
  std::jthread migrator([&] {
    NodeId n = 1;
    while (!stop.load()) {
      cluster.execute(n, 1, [&](tfa::Txn& tx) { tx.write<Box>(ObjectId{2}).value += 1; });
      n = (n % 3) + 1;  // cycle nodes 1..3
    }
  });
  for (int i = 0; i < 25; ++i) {
    int v = -1;
    ASSERT_TRUE(cluster.execute(0, 2, [&](tfa::Txn& tx) {
      v = tx.read<Box>(ObjectId{2}).value;
    }).committed);
    ASSERT_GE(v, 0);
  }
  stop.store(true);
  migrator.join();
  cluster.shutdown();
}

TEST(TfaEdge, DeepNestingFourLevels) {
  runtime::Cluster cluster(quick(3));
  for (std::uint64_t i = 1; i <= 4; ++i)
    cluster.create_object(std::make_unique<Box>(ObjectId{i}, 0), static_cast<NodeId>(i % 3));
  ASSERT_TRUE(cluster.execute(0, 1, [&](tfa::Txn& tx) {
    tx.write<Box>(ObjectId{1}).value = 1;
    tx.nested([&](tfa::Txn& l1) {
      l1.write<Box>(ObjectId{2}).value = 2;
      l1.nested([&](tfa::Txn& l2) {
        l2.write<Box>(ObjectId{3}).value = 3;
        l2.nested([&](tfa::Txn& l3) {
          EXPECT_EQ(l3.depth(), 3);
          l3.write<Box>(ObjectId{4}).value = 4;
          // The deepest level sees every ancestor's buffered write.
          EXPECT_EQ(l3.read<Box>(ObjectId{1}).value, 1);
          EXPECT_EQ(l3.read<Box>(ObjectId{2}).value, 2);
          EXPECT_EQ(l3.read<Box>(ObjectId{3}).value, 3);
        });
      });
    });
  }).committed);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    int v = 0;
    cluster.execute(1, 2, [&](tfa::Txn& tx) { v = tx.read<Box>(ObjectId{i}).value; });
    EXPECT_EQ(v, static_cast<int>(i));
  }
  cluster.shutdown();
}

TEST(TfaEdge, ChildRetryEscalatesToParentAfterCap) {
  // A child whose reads are invalidated on every try must not spin forever:
  // after kMaxChildRetries the abort escalates to the parent.
  runtime::Cluster cluster(quick(2));
  cluster.create_object(std::make_unique<Box>(ObjectId{5}, 0), 1);
  cluster.create_object(std::make_unique<Box>(ObjectId{6}, 0), 1);

  std::atomic<int> child_runs{0};
  std::atomic<int> parent_runs{0};
  ASSERT_TRUE(cluster.execute(0, 1, [&](tfa::Txn& tx) {
    const int parent_attempt = parent_runs.fetch_add(1);
    tx.nested([&](tfa::Txn& child) {
      const int run = child_runs.fetch_add(1);
      (void)child.read<Box>(ObjectId{5});
      // Invalidate our own read on every child try of the first parent
      // attempt (one try more than the cap), so the test terminates.
      if (parent_attempt == 0 && run <= tfa::kMaxChildRetries) {
        ASSERT_TRUE(cluster.execute(1, 2, [&](tfa::Txn& rival) {
          rival.write<Box>(ObjectId{5}).value += 1;
        }).committed);
      }
      child.write<Box>(ObjectId{6}).value += 1;
    });
  }).committed);
  EXPECT_GE(parent_runs.load(), 2);  // escalation happened
  int v = 0;
  cluster.execute(1, 3, [&](tfa::Txn& tx) { v = tx.read<Box>(ObjectId{6}).value; });
  EXPECT_EQ(v, 1);  // exactly one child commit survived
  cluster.shutdown();
}

// A root whose fetched object moved to another node before the commit round
// holds a stale copy: only a write commit moves an object, and its clock is
// above every clock the old copy carried. So the node it was read from
// answering wrong_owner already proves the read stale; the attempt must
// abort with kEarlyValidation at once, without chasing the object to its new
// owner (no wrong-owner retry), and the retry must commit.
void expect_moved_object_aborts_without_chasing(bool write_moved) {
  runtime::Cluster cluster(quick(3));
  const ObjectId moved{20};
  const ObjectId local{21};
  cluster.create_object(std::make_unique<Box>(moved, 1), 1);
  cluster.create_object(std::make_unique<Box>(local, 0), 0);

  const auto before = cluster.node(0).metrics().snapshot();
  int attempt = 0;
  const auto result = cluster.execute(0, 1, [&](tfa::Txn& tx) {
    const int seen = write_moved ? tx.write<Box>(moved).value++ : tx.read<Box>(moved).value;
    tx.write<Box>(local).value = seen;
    if (attempt++ == 0) {
      // A rival write from node 2 moves `moved` from node 1 to node 2.
      ASSERT_TRUE(cluster.execute(2, 2, [&](tfa::Txn& rival) {
        rival.write<Box>(moved).value += 10;
      }).committed);
    }
  });
  cluster.network().wait_idle();
  const auto delta = cluster.node(0).metrics().snapshot() - before;

  ASSERT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(delta.aborts_total(), 1u);
  constexpr auto kStale = static_cast<std::size_t>(tfa::AbortCause::kEarlyValidation);
  EXPECT_EQ(delta.aborts_root[kStale], 1u);
  EXPECT_EQ(delta.wrong_owner_retries, 0u);
  EXPECT_EQ(object_cast<Box>(*cluster.committed_copy(moved)).value, write_moved ? 12 : 11);
  EXPECT_EQ(object_cast<Box>(*cluster.committed_copy(local)).value, 11);
  cluster.shutdown();
}

TEST(TfaEdge, MovedReadObjectAbortsWithoutChasingOwner) {
  expect_moved_object_aborts_without_chasing(/*write_moved=*/false);
}

TEST(TfaEdge, MovedWriteObjectAbortsWithoutChasingOwner) {
  expect_moved_object_aborts_without_chasing(/*write_moved=*/true);
}

constexpr auto kStaleRead = static_cast<std::size_t>(tfa::AbortCause::kEarlyValidation);

std::uint64_t messages_sent(runtime::Cluster& cluster) {
  return cluster.network().stats().messages.load();
}

TEST(TfaEdge, ValidationRoundCostsOneMessagePairPerOwner) {
  // Five remote reads at three owners, plus one local read checked in place:
  // the child's commit-time round sends one ValidateRequest per owner.
  runtime::Cluster cluster(quick(4));
  const NodeId owners[] = {1, 1, 2, 2, 3, 0};
  for (std::uint64_t i = 0; i < 6; ++i)
    cluster.create_object(std::make_unique<Box>(ObjectId{30 + i}, 1), owners[i]);
  std::uint64_t at_child_end = 0;
  std::uint64_t after_child_commit = 0;
  ASSERT_TRUE(cluster.execute(0, 1, [&](tfa::Txn& tx) {
    tx.nested([&](tfa::Txn& child) {
      for (std::uint64_t i = 0; i < 6; ++i) (void)child.read<Box>(ObjectId{30 + i});
      at_child_end = messages_sent(cluster);
    });
    after_child_commit = messages_sent(cluster);
  }).committed);
  EXPECT_EQ(after_child_commit - at_child_end, 2u * 3u);
  cluster.shutdown();
}

// Root reads `root_read`, its child reads `child_read`, and then — on the
// first try only — a rival on the owner, node 1, overwrites `overwritten`
// before the child fetches a third object from node 1. That fetch sees node
// 1's advanced clock and forwards: the root's and the child's reads go to
// node 1 in one batch, and the first stale entry in chain order decides who
// aborts.
struct ForwardingProbe {
  tfa::RunResult result;
  runtime::MetricsSnapshot delta;
  int child_runs = 0;
};

ForwardingProbe forward_with_one_stale_read(bool stale_in_root) {
  runtime::Cluster cluster(quick(3));
  const ObjectId root_read{40};
  const ObjectId child_read{41};
  const ObjectId trigger{42};
  for (const ObjectId oid : {root_read, child_read, trigger})
    cluster.create_object(std::make_unique<Box>(oid, 1), 1);
  const ObjectId overwritten = stale_in_root ? root_read : child_read;

  ForwardingProbe probe;
  const auto before = cluster.node(0).metrics().snapshot();
  probe.result = cluster.execute(0, 1, [&](tfa::Txn& tx) {
    (void)tx.read<Box>(root_read);
    tx.nested([&](tfa::Txn& child) {
      (void)child.read<Box>(child_read);
      if (probe.child_runs++ == 0) {
        EXPECT_TRUE(cluster.execute(1, 2, [&](tfa::Txn& rival) {
          rival.write<Box>(overwritten).value += 1;
        }).committed);
      }
      (void)child.read<Box>(trigger);
    });
  });
  cluster.network().wait_idle();
  probe.delta = cluster.node(0).metrics().snapshot() - before;
  cluster.shutdown();
  return probe;
}

TEST(TfaEdge, StaleChildEntryInABatchRetriesOnlyTheChild) {
  const auto probe = forward_with_one_stale_read(/*stale_in_root=*/false);
  ASSERT_TRUE(probe.result.committed);
  EXPECT_GE(probe.delta.forwardings, 1u);
  EXPECT_EQ(probe.result.attempts, 1u);
  EXPECT_EQ(probe.delta.aborts_total(), 0u);
  EXPECT_EQ(probe.child_runs, 2);
  EXPECT_EQ(probe.delta.nested_aborts_own_cause, 1u);
  EXPECT_EQ(probe.delta.nested_aborts_parent_cause, 0u);
}

TEST(TfaEdge, StaleRootEntryInABatchAbortsTheRoot) {
  const auto probe = forward_with_one_stale_read(/*stale_in_root=*/true);
  ASSERT_TRUE(probe.result.committed);
  EXPECT_GE(probe.delta.forwardings, 1u);
  EXPECT_EQ(probe.result.attempts, 2u);
  EXPECT_EQ(probe.delta.aborts_total(), 1u);
  EXPECT_EQ(probe.delta.aborts_root[kStaleRead], 1u);
  EXPECT_EQ(probe.delta.nested_aborts_own_cause, 0u);
}

TEST(TfaEdge, ReadOnlyRootSkipsReadsItsLastChildConfirmed) {
  // The child's commit validated both reads after the tree's last fetch, so
  // the read-only root commit has nothing left to check.
  runtime::Cluster cluster(quick(3));
  cluster.create_object(std::make_unique<Box>(ObjectId{50}, 1), 1);
  cluster.create_object(std::make_unique<Box>(ObjectId{51}, 2), 2);
  std::uint64_t at_body_end = 0;
  int sum = 0;
  const auto result = cluster.execute(0, 1, [&](tfa::Txn& tx) {
    tx.nested([&](tfa::Txn& child) {
      sum = child.read<Box>(ObjectId{50}).value + child.read<Box>(ObjectId{51}).value;
    });
    at_body_end = messages_sent(cluster);
  });
  ASSERT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(sum, 3);
  EXPECT_EQ(messages_sent(cluster), at_body_end);
  cluster.shutdown();
}

TEST(TfaEdge, ReadOnlyRootRevalidatesReadsConfirmedBeforeTheLastFetch) {
  // Child 1's read was confirmed before child 2 fetched, so it is not exempt:
  // overwritten after child 2's fetch, it must abort the root commit.
  runtime::Cluster cluster(quick(3));
  const ObjectId first{52};
  const ObjectId second{53};
  cluster.create_object(std::make_unique<Box>(first, 1), 1);
  cluster.create_object(std::make_unique<Box>(second, 2), 2);
  const auto before = cluster.node(0).metrics().snapshot();
  int attempt = 0;
  int seen = 0;
  const auto result = cluster.execute(0, 1, [&](tfa::Txn& tx) {
    tx.nested([&](tfa::Txn& child) { seen = child.read<Box>(first).value; });
    tx.nested([&](tfa::Txn& child) {
      (void)child.read<Box>(second);
      if (attempt == 0) {
        EXPECT_TRUE(cluster.execute(1, 2, [&](tfa::Txn& rival) {
          rival.write<Box>(first).value = 10;
        }).committed);
      }
    });
    ++attempt;
  });
  const auto delta = cluster.node(0).metrics().snapshot() - before;
  ASSERT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(delta.aborts_total(), 1u);
  EXPECT_EQ(delta.aborts_root[kStaleRead], 1u);
  EXPECT_EQ(seen, 10);
  cluster.shutdown();
}

TEST(TfaEdge, WriteRootValidatesEveryReadAtCommit) {
  // The child's read is confirmed after the tree's last fetch, which would
  // exempt it from a read-only commit; a write commit must still check it.
  runtime::Cluster cluster(quick(3));
  const ObjectId written{54};
  const ObjectId read{55};
  cluster.create_object(std::make_unique<Box>(written, 0), 0);
  cluster.create_object(std::make_unique<Box>(read, 1), 1);
  const auto before = cluster.node(0).metrics().snapshot();
  int attempt = 0;
  const auto result = cluster.execute(0, 1, [&](tfa::Txn& tx) {
    auto& out = tx.write<Box>(written);
    int seen = 0;
    tx.nested([&](tfa::Txn& child) { seen = child.read<Box>(read).value; });
    if (attempt++ == 0) {
      EXPECT_TRUE(cluster.execute(1, 2, [&](tfa::Txn& rival) {
        rival.write<Box>(read).value = 10;
      }).committed);
    }
    out.value = seen + 1;
  });
  const auto delta = cluster.node(0).metrics().snapshot() - before;
  ASSERT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(delta.aborts_total(), 1u);
  EXPECT_EQ(delta.aborts_root[kStaleRead], 1u);
  EXPECT_EQ(object_cast<Box>(*cluster.committed_copy(written)).value, 11);
  cluster.shutdown();
}

TEST(TfaEdge, StatsTableLearnsFromCommits) {
  runtime::Cluster cluster(quick(2));
  cluster.create_object(std::make_unique<Box>(ObjectId{7}, 0), 1);
  auto& stats = cluster.node(0).stats();
  const auto before = stats.expected_duration(42);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.execute(0, 42, [&](tfa::Txn& tx) {
      tx.write<Box>(ObjectId{7}).value += 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }).committed);
  }
  const auto after = stats.expected_duration(42);
  EXPECT_NE(after, before);          // seeded by real commits
  EXPECT_GE(after, sim_ms(3));       // at least the injected local work
  cluster.shutdown();
}

TEST(TfaEdge, BackoffSchedulerStallsBeforeRetry) {
  // Under TFA+Backoff a denied transaction stalls before its retry. The
  // conflict window is made deterministic: a commit lock on the object is
  // held at its owner for the first attempt and released before the second,
  // so exactly one fetch is denied and the latency must cover the stall.
  runtime::ClusterConfig cfg = quick(3, "backoff");
  cfg.scheduler.min_backoff = sim_ms(20);
  cfg.scheduler.max_backoff = sim_ms(30);
  runtime::Cluster cluster(cfg);
  const ObjectId oid{8};
  cluster.create_object(std::make_unique<Box>(oid, 0), 1);
  auto& owner = cluster.node(1).store();
  const TxnId holder = TxnId::make(0, 999);
  ASSERT_EQ(owner.lock(oid, holder, owner.get(oid)->version.clock),
            dsm::ObjectStore::LockResult::kGranted);

  int attempt = 0;
  const auto t0 = sim_now();
  const auto r = cluster.execute(2, 2, [&](tfa::Txn& tx) {
    if (attempt++ == 1) owner.unlock(oid, holder);
    tx.write<Box>(oid).value += 1;
  });
  const SimDuration elapsed = sim_now() - t0;
  ASSERT_TRUE(r.committed);
  const std::uint64_t denials = r.attempts - 1;
  EXPECT_EQ(denials, 1u);
  EXPECT_GE(elapsed, static_cast<SimDuration>(denials) * cfg.scheduler.min_backoff);
  EXPECT_EQ(object_cast<Box>(*cluster.committed_copy(oid)).value, 1);
  cluster.shutdown();
}

TEST(TfaEdge, ProfileIsolationInStatsTable) {
  runtime::Cluster cluster(quick(2));
  cluster.create_object(std::make_unique<Box>(ObjectId{9}, 0), 1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.execute(0, 100, [&](tfa::Txn& tx) {
      tx.write<Box>(ObjectId{9}).value += 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }).committed);
  }
  auto& stats = cluster.node(0).stats();
  EXPECT_GE(stats.expected_duration(100), sim_ms(2));
  // Unrelated profile keeps the default estimate.
  EXPECT_EQ(stats.expected_duration(101), tfa::kDefaultExpectedDuration);
  cluster.shutdown();
}

// ------------------------------------------------------------ local path ----

// The first id at or above `from` whose directory shard lives on `home`.
ObjectId homed_at(NodeId home, std::uint32_t nodes, std::uint64_t from) {
  ObjectId oid{from};
  while (dsm::home_node(oid, nodes) != home) ++oid.value;
  return oid;
}

TEST(LocalPath, TransactionOnOwnObjectsSendsNoMessages) {
  // Node 0 owns both objects and holds both directory shards: the fetches,
  // the lock, the validation, the ownership registration and the
  // publication all run in place.
  runtime::Cluster cluster(quick(3));
  const ObjectId read = homed_at(0, 3, 100);
  const ObjectId written = homed_at(0, 3, read.value + 1);
  cluster.create_object(std::make_unique<Box>(read, 2), 0);
  cluster.create_object(std::make_unique<Box>(written, 0), 0);
  const auto before = messages_sent(cluster);
  const auto result = cluster.execute(0, 1, [&](tfa::Txn& tx) {
    tx.write<Box>(written).value = tx.read<Box>(read).value + 1;
  });
  cluster.network().wait_idle();
  ASSERT_TRUE(result.committed);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(messages_sent(cluster) - before, 0u);
  EXPECT_EQ(object_cast<Box>(*cluster.committed_copy(written)).value, 3);
  // The commit registered itself in the local shard at its clock, so a
  // registration from clock 0 is now stale.
  EXPECT_FALSE(cluster.node(0).directory().register_owner(written, 2, 0));
  cluster.shutdown();
}

TEST(LocalPath, HintlessLookupOfLocallyHomedObjectSendsNoFindOwner) {
  // Node 1 owns the object, node 0 holds its directory shard and has no
  // owner hint: the lookup reads the shard in place, so the fetch from node
  // 1 is the transaction's only round-trip.
  runtime::Cluster cluster(quick(3));
  const ObjectId oid = homed_at(0, 3, 200);
  cluster.create_object(std::make_unique<Box>(oid, 7), 1);
  const auto before = messages_sent(cluster);
  int seen = 0;
  ASSERT_TRUE(cluster.execute(0, 1, [&](tfa::Txn& tx) {
    seen = tx.read<Box>(oid).value;
  }).committed);
  cluster.network().wait_idle();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(messages_sent(cluster) - before, 2u);
  cluster.shutdown();
}

TEST(LocalPath, FreeLocalFetchDropsStaleQueueEntry) {
  // A queue entry of the fetching transaction left behind (its call long
  // gone) must be dropped by the in-place grant, as the owner-side handler
  // drops it; otherwise the grant's serve_waiters pushes the object to it.
  runtime::Cluster cluster(quick(3));
  const ObjectId oid{300};
  cluster.create_object(std::make_unique<Box>(oid, 1), 0);
  auto& sched = cluster.node(0).scheduler();
  std::uint64_t sent = 0;
  std::size_t depth_after = 1;
  ASSERT_TRUE(cluster.execute(0, 1, [&](tfa::Txn& tx) {
    net::QueuedRequester stale;
    stale.address = 0;
    stale.txid = tx.id();
    stale.reply_msg_id = 1u << 30;  // no such call
    sched.absorb_queue(oid, {stale});
    ASSERT_EQ(sched.queue_depth(oid), 1u);
    const auto before = messages_sent(cluster);
    EXPECT_EQ(tx.read<Box>(oid).value, 1);
    sent = messages_sent(cluster) - before;
    depth_after = sched.queue_depth(oid);
  }).committed);
  EXPECT_EQ(sent, 0u);
  EXPECT_EQ(depth_after, 0u);
  cluster.shutdown();
}

// Node 0 reads a free local object (served in place), then one whose local
// slot a validating commit holds. Only the second fetch leaves the node: an
// ObjectRequest to node 0's own handler, where RTS parks the reader. Then
// the holder either aborts (an AbortUnlock from node 1, whose release hands
// the object to the parked reader) or holds on until the reader's backoff
// expires and it withdraws.
void expect_locked_local_fetch_is_scheduled(bool release) {
  runtime::ClusterConfig cfg = quick(3);
  cfg.scheduler.cl_threshold = 8;
  cfg.scheduler.handoff_slack = release ? sim_ms(5000) : sim_ms(200);
  runtime::Cluster cluster(cfg);
  const ObjectId free_obj{310};
  const ObjectId held{311};
  cluster.create_object(std::make_unique<Box>(free_obj, 1), 0);
  cluster.create_object(std::make_unique<Box>(held, 2), 0);
  auto& store = cluster.node(0).store();
  const TxnId holder = TxnId::make(1, 999);
  ASSERT_EQ(store.lock(held, holder, store.get(held)->version.clock),
            dsm::ObjectStore::LockResult::kGranted);

  const auto before = cluster.node(0).metrics().snapshot();
  const auto sent_before = messages_sent(cluster);
  int attempts = 0;
  int sum = 0;
  tfa::RunResult result;
  std::jthread reader([&] {
    result = cluster.node(0).runtime().run(
        1,
        [&](tfa::Txn& tx) {
          const int first = tx.read<Box>(free_obj).value;
          // RTS parks only a requester that has run for longer than the
          // validator is expected to keep holding the object.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          sum = first + tx.read<Box>(held).value;
        },
        [&] { return attempts++ == 0; });
  });
  // The reader counts itself enqueued once the "enqueued" reply is in.
  const auto parked = [&] {
    return cluster.node(0).metrics().snapshot().enqueued > before.enqueued;
  };
  const SimTime deadline = sim_now() + sim_ms(5000);
  while (!parked() && sim_now() < deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  auto& sched = cluster.node(0).scheduler();
  ASSERT_EQ(sched.queue_depth(held), 1u);
  // The request to node 0's own handler and its "enqueued" reply.
  EXPECT_EQ(messages_sent(cluster) - sent_before, 2u);
  if (release) cluster.node(1).post(0, net::AbortUnlock{held, holder});
  reader.join();
  cluster.network().wait_idle();
  const auto delta = cluster.node(0).metrics().snapshot() - before;

  EXPECT_EQ(delta.conflicts_seen, 1u);
  EXPECT_EQ(delta.enqueued, 1u);
  EXPECT_EQ(sched.queue_depth(held), 0u);
  if (release) {
    EXPECT_TRUE(result.committed);
    EXPECT_EQ(delta.handoffs_received, 1u);
    EXPECT_EQ(sum, 3);
  } else {
    EXPECT_FALSE(result.committed);
    EXPECT_EQ(delta.backoff_expired, 1u);
    EXPECT_EQ(delta.aborts_root[static_cast<std::size_t>(tfa::AbortCause::kBackoffExpired)],
              1u);
  }
  cluster.shutdown();
}

TEST(LocalPath, LockedLocalFetchIsParkedAndHandedOff) {
  expect_locked_local_fetch_is_scheduled(/*release=*/true);
}

TEST(LocalPath, LockedLocalFetchIsParkedUntilBackoffExpires) {
  expect_locked_local_fetch_is_scheduled(/*release=*/false);
}

}  // namespace
}  // namespace hyflow
