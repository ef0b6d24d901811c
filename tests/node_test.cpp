// Node/Comm-layer tests: envelope construction, request/reply routing, the
// routed reply used by queue hand-offs, Lamport clock propagation through
// message envelopes, and orphan-reply handling.
#include <gtest/gtest.h>

#include <thread>

#include "runtime/cluster.hpp"

namespace hyflow::runtime {
namespace {

class Box : public TxObject<Box> {
 public:
  explicit Box(ObjectId id, int v = 0) : TxObject(id), value(v) {}
  int value;
};

struct NodePair : ::testing::Test {
  void SetUp() override {
    ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.workers_per_node = 0;
    cfg.topology.min_delay = sim_us(5);
    cfg.topology.max_delay = sim_us(60);
    cluster = std::make_unique<Cluster>(cfg);
  }
  void TearDown() override { cluster->shutdown(); }
  std::unique_ptr<Cluster> cluster;
};

TEST_F(NodePair, RequestReplyRoundTrip) {
  // Use the directory protocol as a ready-made request/reply pair.
  cluster->node(1).directory().publish(ObjectId{50}, 2);
  auto call = cluster->node(0).request(1, net::FindOwnerRequest{ObjectId{50}});
  const auto reply = call.await();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->from, 1u);
  EXPECT_EQ(reply->to, 0u);
  const auto& resp = std::get<net::FindOwnerResponse>(reply->payload);
  EXPECT_TRUE(resp.known);
  EXPECT_EQ(resp.owner, 2u);
}

TEST_F(NodePair, RequestToUnknownObjectSaysUnknown) {
  auto call = cluster->node(0).request(1, net::FindOwnerRequest{ObjectId{51}});
  const auto reply = call.await();
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(std::get<net::FindOwnerResponse>(reply->payload).known);
}

TEST_F(NodePair, EnvelopeCarriesSenderClock) {
  // Bump node 2's clock via commits; a later message from node 2 to node 0
  // must advance node 0's clock (Lamport receive rule).
  const ObjectId oid{52};
  cluster->create_object(std::make_unique<Box>(oid), 2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster->execute(2, 1, [&](tfa::Txn& tx) {
      tx.write<Box>(oid).value += 1;
    }).committed);
  }
  const auto clock2 = cluster->node(2).clock().read();
  ASSERT_GE(clock2, 3u);
  ASSERT_LT(cluster->node(0).clock().read(), clock2);
  // Any request/response pair with node 2 synchronises node 0.
  auto call = cluster->node(0).request(2, net::FindOwnerRequest{ObjectId{52}});
  ASSERT_TRUE(call.await().has_value());
  EXPECT_GE(cluster->node(0).clock().read(), clock2);
}

TEST_F(NodePair, PostIsFireAndForget) {
  // AbortUnlock for a lock nobody holds is harmless and produces no reply.
  cluster->create_object(std::make_unique<Box>(ObjectId{53}), 1);
  net::AbortUnlock msg;
  msg.oid = ObjectId{53};
  msg.txid = TxnId{99};
  cluster->node(0).post(1, msg);
  cluster->network().wait_idle();
  EXPECT_FALSE(cluster->node(1).store().get(ObjectId{53})->locked_by.valid());
}

TEST_F(NodePair, RoutedReplyReachesForeignCall) {
  // reply_routed answers a request that a *different* node received — the
  // queue hand-off path: node 0 sends a request towards node 1 (a one-way
  // payload, so node 1 stays silent) and node 2 answers it by routed reply.
  auto call = cluster->node(0).request(1, net::NotInterested{ObjectId{54}, TxnId{7}});
  net::ObjectResponse grant;
  grant.oid = ObjectId{54};
  grant.txid = TxnId{7};
  grant.object = std::make_shared<Box>(ObjectId{54}, 5);
  cluster->node(2).reply_routed(/*to=*/0, call.id(), grant);
  const auto got = call.poll_for(sim_ms(500));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, 2u);  // the answer came from the third party
  const auto& resp = std::get<net::ObjectResponse>(got->payload);
  ASSERT_NE(resp.object, nullptr);
  EXPECT_EQ(object_cast<Box>(*resp.object).value, 5);
}

TEST_F(NodePair, OrphanGrantTriggersNotInterestedForwarding) {
  // A granted object whose requester abandoned its call must flow to the
  // next queued requester. Drive the real path: two transactions race for
  // an object under validation with RTS; one expires its backoff.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 0;
  cfg.scheduler.kind = "rts";
  cfg.scheduler.cl_threshold = 8;
  // Tiny max_backoff: enqueued requesters expire before hand-off.
  cfg.scheduler.min_backoff = sim_us(10);
  cfg.scheduler.max_backoff = sim_us(50);
  cfg.scheduler.handoff_slack = 0;
  Cluster c2(cfg);
  const ObjectId oid{55};
  c2.create_object(std::make_unique<Box>(oid), 0);
  // Plain concurrent increments; expiries must not lose updates.
  std::vector<std::jthread> threads;
  for (NodeId n = 0; n < 2; ++n) {
    threads.emplace_back([&c2, n, oid] {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(c2.execute(n, 1, [&](tfa::Txn& tx) {
          tx.write<Box>(oid).value += 1;
        }).committed);
      }
    });
  }
  threads.clear();
  int v = 0;
  c2.execute(0, 2, [&](tfa::Txn& tx) { v = tx.read<Box>(oid).value; });
  EXPECT_EQ(v, 20);
  c2.shutdown();
}

TEST_F(NodePair, StaleOwnerHintRetriesViaWrongOwner) {
  // The stale-directory path of Alg. 2: node 0 caches node 1 as the owner,
  // the object then migrates to node 2 (node 2's write commit registers it
  // there and evicts node 1's copy), and node 0's next write must bounce
  // off node 1 with wrong_owner, re-resolve, and still commit.
  const ObjectId oid{57};
  cluster->create_object(std::make_unique<Box>(oid, 5), 1);

  // Prime node 0's owner hint with a read served by node 1.
  ASSERT_TRUE(cluster->execute(0, 1, [&](tfa::Txn& tx) {
    EXPECT_EQ(tx.read<Box>(oid).value, 5);
  }).committed);

  // Move ownership: a write from node 2 makes node 2 the owner.
  ASSERT_TRUE(cluster->execute(2, 1, [&](tfa::Txn& tx) {
    tx.write<Box>(oid).value = 6;
  }).committed);
  cluster->network().wait_idle();

  const auto before = cluster->total_metrics();
  ASSERT_TRUE(cluster->execute(0, 1, [&](tfa::Txn& tx) {
    tx.write<Box>(oid).value += 10;
  }).committed);
  cluster->network().wait_idle();
  const auto after = cluster->total_metrics();
  EXPECT_GT(after.wrong_owner_retries, before.wrong_owner_retries)
      << "the stale hint should have forced at least one wrong-owner retry";
  EXPECT_EQ(object_cast<Box>(*cluster->committed_copy(oid)).value, 16);
}

TEST_F(NodePair, DuplicateRequestIsAnsweredFromTheReplyCache) {
  // Receiver-side dedup: re-sending a request under its original msg_id
  // must not re-execute the handler — the cached reply is replayed and the
  // dedup counter ticks.
  cluster->node(1).directory().publish(ObjectId{58}, 2);
  const net::FindOwnerRequest req{ObjectId{58}};
  auto call = cluster->node(0).request(1, req);
  const auto first = call.poll_for(sim_ms(100));
  ASSERT_TRUE(first.has_value());

  const auto before = cluster->node(1).metrics().snapshot();
  cluster->node(0).resend(1, call.id(), /*attempt=*/1, req);
  const auto second = call.poll_for(sim_ms(100));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(std::get<net::FindOwnerResponse>(second->payload).owner, 2u);
  cluster->network().wait_idle();
  const auto after = cluster->node(1).metrics().snapshot();
  EXPECT_EQ(after.dedup_hits, before.dedup_hits + 1);
  // And the resend itself is counted by the sender.
  EXPECT_GT(cluster->node(0).metrics().snapshot().rpc_retries, 0u);
}

}  // namespace
}  // namespace hyflow::runtime
