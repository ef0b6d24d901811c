// Unit tests for the scheduler layer: Requester/RequesterList/SchedulingTable
// (Alg. 1), the contention tracker, the RTS decision rule (Alg. 3), queue
// hand-off order (Alg. 4), the baselines and the zoo challengers.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/contention.hpp"
#include "core/requester_list.hpp"
#include "core/scheduler.hpp"

namespace hyflow::core {
namespace {

net::QueuedRequester requester(std::uint64_t txn, net::AccessMode mode = net::AccessMode::kWrite,
                               std::uint32_t contention = 0) {
  net::QueuedRequester r;
  r.address = static_cast<NodeId>(txn % 7);
  r.txid = TxnId{txn};
  r.reply_msg_id = txn * 100;
  r.mode = mode;
  r.contention = contention;
  return r;
}

// -------------------------------------------------------- RequesterList ----

TEST(RequesterList, AddRecordsContention) {
  RequesterList list;
  EXPECT_EQ(list.contention(), 0u);
  list.add(3, requester(1));
  EXPECT_EQ(list.contention(), 3u);
  list.add(5, requester(2));
  EXPECT_EQ(list.contention(), 5u);  // Alg. 1: running value, telescoped by callers
  EXPECT_EQ(list.size(), 2u);
}

TEST(RequesterList, RemoveDuplicateByTxn) {
  RequesterList list;
  list.add(1, requester(1));
  list.add(2, requester(2));
  EXPECT_TRUE(list.remove_duplicate(TxnId{1}));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_FALSE(list.remove_duplicate(TxnId{1}));
}

TEST(RequesterList, PopHeadGroupSingleWriter) {
  RequesterList list;
  list.add(0, requester(1, net::AccessMode::kWrite));
  list.add(0, requester(2, net::AccessMode::kWrite));
  const auto group = list.pop_head_group();
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].txid, TxnId{1});
  EXPECT_EQ(list.size(), 1u);
}

TEST(RequesterList, PopHeadGroupAllLeadingReaders) {
  // §III-B: a committed object is sent to all consecutive waiting readers
  // simultaneously.
  RequesterList list;
  list.add(0, requester(1, net::AccessMode::kRead));
  list.add(0, requester(2, net::AccessMode::kRead));
  list.add(0, requester(3, net::AccessMode::kWrite));
  list.add(0, requester(4, net::AccessMode::kRead));
  const auto group = list.pop_head_group();
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].txid, TxnId{1});
  EXPECT_EQ(group[1].txid, TxnId{2});
  EXPECT_EQ(list.size(), 2u);  // writer then trailing reader stay queued
}

TEST(RequesterList, PopReadersFirstTakesEveryReaderAndKeepsBk) {
  RequesterList list;
  list.add(0, requester(1, net::AccessMode::kWrite));
  list.add(0, requester(2, net::AccessMode::kRead));
  list.add(0, requester(3, net::AccessMode::kWrite));
  list.add(0, requester(4, net::AccessMode::kRead));
  list.add_bk(sim_ms(8));
  const auto readers = list.pop_readers_first();
  ASSERT_EQ(readers.size(), 2u);
  EXPECT_EQ(readers[0].txid, TxnId{2});
  EXPECT_EQ(readers[1].txid, TxnId{4});
  EXPECT_EQ(list.bk(), sim_ms(8));  // writers still parked: their wait stays
  // No reader left: the head writer goes alone, writers keep their order.
  const auto writer = list.pop_readers_first();
  ASSERT_EQ(writer.size(), 1u);
  EXPECT_EQ(writer[0].txid, TxnId{1});
  EXPECT_EQ(list.pop_readers_first()[0].txid, TxnId{3});
  EXPECT_EQ(list.bk(), 0);
}

TEST(RequesterList, BkResetsWhenQueueEmpties) {
  RequesterList list;
  list.add_bk(sim_ms(5));
  list.add(2, requester(1));
  EXPECT_EQ(list.bk(), sim_ms(5));
  (void)list.pop_head_group();
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.bk(), 0);
  EXPECT_EQ(list.contention(), 0u);
}

TEST(RequesterList, DrainReturnsAllInOrder) {
  RequesterList list;
  for (std::uint64_t i = 1; i <= 4; ++i) list.add(0, requester(i));
  const auto all = list.drain();
  ASSERT_EQ(all.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(all[i].txid, TxnId{i + 1});
  EXPECT_TRUE(list.empty());
}

TEST(SchedulingTable, DepthAndRemove) {
  SchedulingTable table;
  table.with_list(ObjectId{1}, [&](RequesterList& list) {
    list.add(0, requester(1));
    list.add(0, requester(2));
    return 0;
  });
  EXPECT_EQ(table.depth(ObjectId{1}), 2u);
  EXPECT_EQ(table.depth(ObjectId{2}), 0u);
  EXPECT_EQ(table.total_queued(), 2u);
  EXPECT_TRUE(table.remove(ObjectId{1}, TxnId{1}));
  EXPECT_FALSE(table.remove(ObjectId{1}, TxnId{9}));
  // Popping the last entry erases the list.
  EXPECT_EQ(table.release(ObjectId{1}, ReleaseOrder::kHeadGroup).size(), 1u);
  EXPECT_EQ(table.depth(ObjectId{1}), 0u);
  EXPECT_EQ(table.total_queued(), 0u);
}

// ---------------------------------------------------- ContentionTracker ----

TEST(ContentionTracker, CountsDistinctTransactionsInWindow) {
  ContentionTracker tracker(sim_ms(10));
  const SimTime t0 = 1000000;
  tracker.record_request(ObjectId{1}, TxnId{1}, t0);
  tracker.record_request(ObjectId{1}, TxnId{2}, t0 + sim_ms(1));
  tracker.record_request(ObjectId{1}, TxnId{1}, t0 + sim_ms(2));  // repeat
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, t0 + sim_ms(3)), 2u);
  EXPECT_EQ(tracker.local_cl(ObjectId{2}, t0), 0u);
}

TEST(ContentionTracker, WindowExpires) {
  ContentionTracker tracker(sim_ms(10));
  const SimTime t0 = 1000000;
  tracker.record_request(ObjectId{1}, TxnId{1}, t0);
  tracker.record_request(ObjectId{1}, TxnId{2}, t0 + sim_ms(8));
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, t0 + sim_ms(9)), 2u);
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, t0 + sim_ms(15)), 1u);  // txn 1 aged out
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, t0 + sim_ms(30)), 0u);
}

TEST(ContentionTracker, RepeatRefreshesWindow) {
  ContentionTracker tracker(sim_ms(10));
  const SimTime t0 = 1000000;
  tracker.record_request(ObjectId{1}, TxnId{1}, t0);
  tracker.record_request(ObjectId{1}, TxnId{1}, t0 + sim_ms(8));
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, t0 + sim_ms(15)), 1u);  // still fresh
}

TEST(ContentionTracker, ForgetDropsObject) {
  ContentionTracker tracker(sim_ms(10));
  tracker.record_request(ObjectId{1}, TxnId{1}, 1000);
  tracker.forget(ObjectId{1});
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, 2000), 0u);
}

// ------------------------------------------------------------------ RTS ----

SchedulerConfig rts_config(std::uint32_t threshold = 3) {
  SchedulerConfig cfg;
  cfg.kind = "rts";
  cfg.cl_threshold = threshold;
  cfg.handoff_slack = sim_ms(1);
  return cfg;
}

ConflictContext conflict(std::uint64_t txn, SimDuration exec_so_far,
                         std::uint32_t requester_cl = 0,
                         SimDuration validator_remaining = sim_ms(1)) {
  ConflictContext ctx;
  ctx.oid = ObjectId{1};
  ctx.requester_node = 2;
  ctx.request_msg_id = txn * 10;
  ctx.request.oid = ObjectId{1};
  ctx.request.txid = TxnId{txn};
  ctx.request.mode = net::AccessMode::kWrite;
  ctx.request.requester_cl = requester_cl;
  ctx.request.ets.start = 1000000;
  ctx.request.ets.request = 1000000 + exec_so_far;
  ctx.request.ets.expected_commit = ctx.request.ets.request + sim_ms(4);
  ctx.validator_remaining = validator_remaining;
  ctx.now = ctx.request.ets.request;
  return ctx;
}

TEST(RtsScheduler, ShortTransactionAborts) {
  auto rts = make_scheduler(rts_config());
  // Execution so far (0.5ms) below the wait ahead (1ms validator remaining).
  const auto d = rts->on_conflict(conflict(1, sim_us(500)));
  EXPECT_EQ(d.action, ConflictAction::kAbort);
  EXPECT_EQ(rts->queue_depth(ObjectId{1}), 0u);
}

TEST(RtsScheduler, LongTransactionLowContentionEnqueues) {
  auto rts = make_scheduler(rts_config());
  const auto d = rts->on_conflict(conflict(1, sim_ms(10)));
  EXPECT_EQ(d.action, ConflictAction::kEnqueue);
  EXPECT_GE(d.backoff, sim_ms(1));  // at least the validator remaining
  EXPECT_EQ(rts->queue_depth(ObjectId{1}), 1u);
}

TEST(RtsScheduler, HighContentionAborts) {
  auto rts = make_scheduler(rts_config(/*threshold=*/3));
  const auto d = rts->on_conflict(conflict(1, sim_ms(10), /*requester_cl=*/5));
  EXPECT_EQ(d.action, ConflictAction::kAbort);
}

TEST(RtsScheduler, QueueContentionAccumulates) {
  auto rts = make_scheduler(rts_config(/*threshold=*/4));
  EXPECT_EQ(rts->on_conflict(conflict(1, sim_ms(50), 2)).action, ConflictAction::kEnqueue);
  // Queue contention (2) + requester CL (2) hits the threshold: abort.
  EXPECT_EQ(rts->on_conflict(conflict(2, sim_ms(50), 2)).action, ConflictAction::kAbort);
  // A low-CL late arrival with enough age still gets in behind the queue.
  const auto d = rts->on_conflict(conflict(3, sim_ms(50), 0));
  EXPECT_EQ(d.action, ConflictAction::kEnqueue);
  EXPECT_EQ(rts->queue_depth(ObjectId{1}), 2u);
}

TEST(RtsScheduler, LaterArrivalsWaitLonger) {
  auto rts = make_scheduler(rts_config(/*threshold=*/10));
  const auto first = rts->on_conflict(conflict(1, sim_ms(50)));
  const auto second = rts->on_conflict(conflict(2, sim_ms(60)));
  ASSERT_EQ(first.action, ConflictAction::kEnqueue);
  ASSERT_EQ(second.action, ConflictAction::kEnqueue);
  EXPECT_GT(second.backoff, first.backoff);  // waits behind txn 1 as well
}

TEST(RtsScheduler, DuplicateRequesterReplaced) {
  auto rts = make_scheduler(rts_config());
  ASSERT_EQ(rts->on_conflict(conflict(1, sim_ms(10))).action, ConflictAction::kEnqueue);
  // Same transaction re-requests (its backoff expired): still one entry.
  ASSERT_EQ(rts->on_conflict(conflict(1, sim_ms(20))).action, ConflictAction::kEnqueue);
  EXPECT_EQ(rts->queue_depth(ObjectId{1}), 1u);
}

TEST(RtsScheduler, HandoffAndQueueTransfer) {
  auto rts = make_scheduler(rts_config(/*threshold=*/10));
  rts->on_conflict(conflict(1, sim_ms(50)));
  rts->on_conflict(conflict(2, sim_ms(60)));
  // Ownership transfer drains the queue...
  auto moved = rts->extract_queue(ObjectId{1});
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(rts->queue_depth(ObjectId{1}), 0u);
  // ... and the new owner's scheduler absorbs it, preserving order.
  auto new_owner = make_scheduler(rts_config(10));
  new_owner->absorb_queue(ObjectId{1}, std::move(moved));
  const auto group = new_owner->on_object_available(ObjectId{1});
  ASSERT_EQ(group.size(), 1u);  // head writer only
  EXPECT_EQ(group[0].txid, TxnId{1});
  EXPECT_EQ(new_owner->queue_depth(ObjectId{1}), 1u);
}

TEST(RtsScheduler, RemoveRequesterOnNotInterested) {
  auto rts = make_scheduler(rts_config(/*threshold=*/10));
  rts->on_conflict(conflict(1, sim_ms(50)));
  rts->on_conflict(conflict(2, sim_ms(60)));
  rts->remove_requester(ObjectId{1}, TxnId{1});
  const auto group = rts->on_object_available(ObjectId{1});
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].txid, TxnId{2});
}

// ------------------------------------------------------------ Baselines ----

TEST(TfaScheduler, AlwaysAborts) {
  SchedulerConfig cfg;
  cfg.kind = "tfa";
  auto tfa = make_scheduler(cfg);
  const auto d = tfa->on_conflict(conflict(1, sim_ms(100)));
  EXPECT_EQ(d.action, ConflictAction::kAbort);
  EXPECT_EQ(d.backoff, 0);
  EXPECT_TRUE(tfa->extract_queue(ObjectId{1}).empty());
}

TEST(BackoffScheduler, AbortsWithStall) {
  SchedulerConfig cfg;
  cfg.kind = "backoff";
  auto backoff = make_scheduler(cfg);
  const auto d = backoff->on_conflict(conflict(1, sim_ms(10)));
  EXPECT_EQ(d.action, ConflictAction::kAbortWithStall);
  EXPECT_EQ(d.backoff, sim_ms(4));  // ETS.c - ETS.r
}

TEST(BackoffScheduler, StallClamped) {
  SchedulerConfig cfg;
  cfg.kind = "backoff";
  cfg.min_backoff = sim_ms(2);
  cfg.max_backoff = sim_ms(3);
  auto backoff = make_scheduler(cfg);
  EXPECT_EQ(backoff->on_conflict(conflict(1, sim_ms(10))).backoff, sim_ms(3));
}

TEST(SchedulerFactory, MakesAllKinds) {
  SchedulerConfig cfg;
  cfg.kind = "rts";
  EXPECT_STREQ(make_scheduler(cfg)->name(), "rts");
  cfg.kind = "tfa";
  EXPECT_STREQ(make_scheduler(cfg)->name(), "tfa");
  cfg.kind = "backoff";
  EXPECT_STREQ(make_scheduler(cfg)->name(), "tfa+backoff");
  cfg.kind = "tfa+backoff";
  EXPECT_STREQ(make_scheduler(cfg)->name(), "tfa+backoff");
  cfg.kind = "bi";
  EXPECT_STREQ(make_scheduler(cfg)->name(), "bi-interval");
  cfg.kind = "greedy";
  EXPECT_STREQ(make_scheduler(cfg)->name(), "greedy");
  cfg.kind = "polka";
  EXPECT_STREQ(make_scheduler(cfg)->name(), "karma");
  cfg.kind = "steal";
  EXPECT_STREQ(make_scheduler(cfg)->name(), "steal-on-abort");
}

TEST(SchedulerFactory, NamesCoverTheZoo) {
  const auto names = scheduler_names();
  EXPECT_GE(names.size(), 7u);
  for (const char* expected : {"rts", "tfa", "backoff", "bi-interval", "greedy", "karma",
                               "steal-on-abort"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing policy: " << expected;
  }
  for (const auto& name : names) EXPECT_EQ(canonical_scheduler_name(name), name);
  EXPECT_EQ(canonical_scheduler_name("bi"), "bi-interval");
  EXPECT_EQ(canonical_scheduler_name("polka"), "karma");
  EXPECT_EQ(canonical_scheduler_name("no-such-policy"), "");
}

using SchedulerFactoryDeathTest = ::testing::Test;

TEST(SchedulerFactoryDeathTest, UnknownKindDiesListingValidNames) {
  SchedulerConfig cfg;
  cfg.kind = "rst";  // plausible typo for "rts"
  EXPECT_DEATH(make_scheduler(cfg),
               "unknown scheduler kind 'rst'.*rts.*tfa.*backoff.*bi-interval.*greedy.*"
               "karma.*steal-on-abort");
}

// ----------------------------------------------------- zoo challengers ----

// Like conflict(), but with an explicit first-attempt start so timestamp /
// investment policies see distinct transaction identities and ages.
ConflictContext conflict_from(std::uint64_t txn, SimTime start, SimDuration exec_so_far,
                              net::AccessMode mode = net::AccessMode::kWrite) {
  ConflictContext ctx = conflict(txn, exec_so_far);
  ctx.request.mode = mode;
  ctx.request.ets.start = start;
  ctx.request.ets.request = start + exec_so_far;
  ctx.request.ets.expected_commit = ctx.request.ets.request + sim_ms(4);
  ctx.now = ctx.request.ets.request;
  return ctx;
}

SchedulerConfig zoo_config(const char* kind, std::uint32_t max_queue = 16) {
  SchedulerConfig cfg;
  cfg.kind = kind;
  cfg.max_queue = max_queue;
  cfg.handoff_slack = sim_ms(1);
  return cfg;
}

TEST(GreedyScheduler, OldestServedFirstRegardlessOfArrival) {
  auto greedy = make_scheduler(zoo_config("greedy"));
  // Younger (later start) arrives first, older second.
  EXPECT_EQ(greedy->on_conflict(conflict_from(1, 2000000, sim_ms(5))).action,
            ConflictAction::kEnqueue);
  EXPECT_EQ(greedy->on_conflict(conflict_from(2, 1000000, sim_ms(5))).action,
            ConflictAction::kEnqueue);
  const auto group = greedy->on_object_available(ObjectId{1});
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].txid, TxnId{2});  // the older transaction wins
}

TEST(GreedyScheduler, EveryConflictParksBelowCap) {
  auto greedy = make_scheduler(zoo_config("greedy", /*max_queue=*/3));
  for (std::uint64_t txn = 1; txn <= 3; ++txn) {
    EXPECT_EQ(greedy->on_conflict(conflict_from(txn, 1000000 + txn, sim_us(10))).action,
              ConflictAction::kEnqueue);
  }
  // At the cap even a very old newcomer aborts (and will retry with its
  // timestamp intact).
  EXPECT_EQ(greedy->on_conflict(conflict_from(9, 1, sim_ms(50))).action,
            ConflictAction::kAbort);
  EXPECT_EQ(greedy->queue_depth(ObjectId{1}), 3u);
}

TEST(GreedyScheduler, AbsorbKeepsTimestampOrder) {
  auto old_owner = make_scheduler(zoo_config("greedy"));
  old_owner->on_conflict(conflict_from(1, 3000000, sim_ms(5)));
  old_owner->on_conflict(conflict_from(2, 1000000, sim_ms(5)));
  auto new_owner = make_scheduler(zoo_config("greedy"));
  new_owner->on_conflict(conflict_from(3, 2000000, sim_ms(5)));
  new_owner->absorb_queue(ObjectId{1}, old_owner->extract_queue(ObjectId{1}));
  // Served oldest-first across both origins: 2 (t=1ms), 3 (t=2ms), 1 (t=3ms).
  EXPECT_EQ(new_owner->on_object_available(ObjectId{1})[0].txid, TxnId{2});
  EXPECT_EQ(new_owner->on_object_available(ObjectId{1})[0].txid, TxnId{3});
  EXPECT_EQ(new_owner->on_object_available(ObjectId{1})[0].txid, TxnId{1});
}

TEST(KarmaScheduler, UnderInvestedLosesWithRandomizedStallAndGainsKarma) {
  auto cfg = zoo_config("karma");
  auto karma = make_scheduler(cfg);
  // A heavy investor parks first.
  ASSERT_EQ(karma->on_conflict(conflict_from(1, 1000000, sim_ms(20))).action,
            ConflictAction::kEnqueue);
  // A light newcomer loses: abort + stall, and its loss streak rises.
  const auto d = karma->on_conflict(conflict_from(2, 5000000, sim_us(100)));
  EXPECT_EQ(d.action, ConflictAction::kAbortWithStall);
  EXPECT_GE(d.backoff, cfg.min_backoff);
  EXPECT_LE(d.backoff, cfg.max_backoff);
  EXPECT_EQ(karma->loss_streak(2, 5000000), 1u);
  EXPECT_EQ(karma->queue_depth(ObjectId{1}), 1u);
}

TEST(KarmaScheduler, RepeatLoserEventuallyWins) {
  auto cfg = zoo_config("karma");
  auto karma = make_scheduler(cfg);
  ASSERT_EQ(karma->on_conflict(conflict_from(1, 1000000, sim_ms(50))).action,
            ConflictAction::kEnqueue);
  // The same light transaction keeps losing; each loss boosts its karma
  // until it out-ranks the queue and parks.
  int attempts = 0;
  ConflictDecision d{};
  do {
    d = karma->on_conflict(conflict_from(2, 5000000, sim_us(100)));
    ++attempts;
    ASSERT_LT(attempts, 200) << "karma boost never overcame the queue";
  } while (d.action == ConflictAction::kAbortWithStall);
  EXPECT_EQ(d.action, ConflictAction::kEnqueue);
  EXPECT_EQ(karma->loss_streak(2, 5000000), 0u);  // streak forgotten on win
  EXPECT_EQ(karma->queue_depth(ObjectId{1}), 2u);
}

TEST(KarmaScheduler, BiggestInvestmentServedFirst) {
  auto karma = make_scheduler(zoo_config("karma"));
  ASSERT_EQ(karma->on_conflict(conflict_from(1, 1000000, sim_ms(5))).action,
            ConflictAction::kEnqueue);
  ASSERT_EQ(karma->on_conflict(conflict_from(2, 2000000, sim_ms(30))).action,
            ConflictAction::kEnqueue);
  const auto group = karma->on_object_available(ObjectId{1});
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].txid, TxnId{2});  // 30ms invested beats 5ms
}

TEST(StealOnAbortScheduler, FifoAndCap) {
  auto steal = make_scheduler(zoo_config("steal-on-abort", /*max_queue=*/2));
  EXPECT_EQ(steal->on_conflict(conflict_from(1, 1000000, sim_us(10))).action,
            ConflictAction::kEnqueue);
  EXPECT_EQ(steal->on_conflict(conflict_from(2, 500000, sim_ms(50))).action,
            ConflictAction::kEnqueue);
  EXPECT_EQ(steal->on_conflict(conflict_from(3, 1, sim_ms(90))).action,
            ConflictAction::kAbort);  // cap; age does not matter
  // Strict arrival order, no reordering by age or investment.
  EXPECT_EQ(steal->on_object_available(ObjectId{1})[0].txid, TxnId{1});
  EXPECT_EQ(steal->on_object_available(ObjectId{1})[0].txid, TxnId{2});
}

TEST(StealOnAbortScheduler, StolenRequestersQueueBehindTheWinners) {
  auto loser = make_scheduler(zoo_config("steal-on-abort"));
  loser->on_conflict(conflict_from(1, 1000000, sim_ms(5)));
  loser->on_conflict(conflict_from(2, 1000001, sim_ms(5)));
  auto winner = make_scheduler(zoo_config("steal-on-abort"));
  winner->on_conflict(conflict_from(3, 1000002, sim_ms(5)));
  winner->absorb_queue(ObjectId{1}, loser->extract_queue(ObjectId{1}));
  // The winner's own requester is served before the stolen ones.
  EXPECT_EQ(winner->on_object_available(ObjectId{1})[0].txid, TxnId{3});
  EXPECT_EQ(winner->on_object_available(ObjectId{1})[0].txid, TxnId{1});
  EXPECT_EQ(winner->on_object_available(ObjectId{1})[0].txid, TxnId{2});
}

TEST(BiIntervalScheduler, ReadIntervalReleaseKeepsQueueWait) {
  // Queue: reader, writer, writer (4 ms expected rest each). Releasing the
  // read interval leaves both writers parked, so a newcomer still waits
  // behind all three: 1 ms validator + 12 ms bk + 1 ms slack — the same as
  // the head-group policies give it.
  for (const char* kind : {"bi-interval", "steal-on-abort", "rts"}) {
    auto cfg = zoo_config(kind);
    cfg.cl_threshold = 10;
    auto s = make_scheduler(cfg);
    ASSERT_EQ(s->on_conflict(conflict_from(1, 1000000, sim_ms(50), net::AccessMode::kRead))
                  .action,
              ConflictAction::kEnqueue)
        << kind;
    ASSERT_EQ(s->on_conflict(conflict_from(2, 1000000, sim_ms(50))).action,
              ConflictAction::kEnqueue)
        << kind;
    ASSERT_EQ(s->on_conflict(conflict_from(3, 1000000, sim_ms(50))).action,
              ConflictAction::kEnqueue)
        << kind;
    const auto group = s->on_object_available(ObjectId{1});
    ASSERT_EQ(group.size(), 1u) << kind;
    EXPECT_EQ(group[0].txid, TxnId{1}) << kind;
    const auto d = s->on_conflict(conflict_from(4, 1000000, sim_ms(50)));
    ASSERT_EQ(d.action, ConflictAction::kEnqueue) << kind;
    EXPECT_EQ(d.backoff, sim_ms(14)) << kind;
  }
}

// ------------------------------------------------ decision equivalence ----
//
// One fixed scenario per registered policy, pinned to the exact action and
// backoff of every conflict and the txid order of every grant group and
// hand-off. Any change to a policy's admission rule, backoff arithmetic or
// queue order shows up here as a transcript diff.

std::string txids(const std::vector<net::QueuedRequester>& group) {
  std::string out;
  for (const auto& r : group) out += (out.empty() ? "" : " ") + std::to_string(r.txid.value);
  return "[" + out + "]";
}

std::vector<std::string> decision_transcript(const std::string& kind) {
  SchedulerConfig cfg;
  cfg.kind = kind;
  cfg.cl_threshold = 4;
  cfg.max_queue = 4;
  cfg.handoff_slack = sim_ms(1);
  auto owner = make_scheduler(cfg);
  auto next_owner = make_scheduler(cfg);
  std::vector<std::string> out;
  const auto decide = [&](Scheduler& s, std::uint64_t txn, SimTime start, SimDuration exec,
                          net::AccessMode mode, std::uint32_t cl) {
    auto ctx = conflict_from(txn, start, exec, mode);
    ctx.request.requester_cl = cl;
    const auto d = s.on_conflict(ctx);
    static constexpr const char* kAction[] = {"abort", "stall", "enqueue"};
    out.push_back("txn" + std::to_string(txn) + " " + kAction[static_cast<int>(d.action)] + " " +
                  std::to_string(d.backoff));
  };
  using net::AccessMode;
  decide(*owner, 1, 1000000, sim_ms(20), AccessMode::kWrite, 0);
  decide(*owner, 2, 500000, sim_ms(2), AccessMode::kRead, 1);    // young: RTS exec rule
  decide(*owner, 3, 800000, sim_ms(30), AccessMode::kRead, 1);
  decide(*owner, 4, 900000, sim_ms(40), AccessMode::kWrite, 3);  // high CL
  decide(*owner, 5, 200000, sim_ms(60), AccessMode::kRead, 0);
  decide(*owner, 6, 1200000, sim_us(500), AccessMode::kWrite, 0);
  decide(*owner, 7, 300000, sim_ms(25), AccessMode::kWrite, 0);
  decide(*owner, 8, 600000, sim_ms(80), AccessMode::kRead, 0);
  decide(*owner, 6, 1200000, sim_us(900), AccessMode::kWrite, 0);  // retry of a loser
  out.push_back("grant " + txids(owner->on_object_available(ObjectId{1})));
  decide(*owner, 9, 400000, sim_ms(70), AccessMode::kWrite, 0);
  // Ownership moves: the new owner already parked one requester of its own.
  decide(*next_owner, 10, 700000, sim_ms(90), AccessMode::kWrite, 0);
  auto moved = owner->extract_queue(ObjectId{1});
  out.push_back("moved " + txids(moved));
  next_owner->absorb_queue(ObjectId{1}, std::move(moved));
  next_owner->remove_requester(ObjectId{1}, TxnId{9});  // NotInterested
  decide(*next_owner, 11, 100000, sim_ms(100), AccessMode::kRead, 0);
  while (next_owner->total_queued() > 0) {
    out.push_back("grant " + txids(next_owner->on_object_available(ObjectId{1})));
  }
  return out;
}

// Captured from the per-policy classes, before they were folded into one
// core; the core must reproduce every line.
const std::map<std::string, std::string> kPinnedTranscripts = {
    {"rts", R"(txn1 enqueue 2000000
txn2 abort 0
txn3 enqueue 6000000
txn4 abort 0
txn5 enqueue 10000000
txn6 abort 0
txn7 enqueue 14000000
txn8 enqueue 18000000
txn6 abort 0
grant [1]
txn9 enqueue 22000000
txn10 enqueue 2000000
moved [3 5 7 8 9]
txn11 enqueue 6000000
grant [10]
grant [3 5]
grant [7]
grant [8 11]
)"},
    {"tfa", R"(txn1 abort 0
txn2 abort 0
txn3 abort 0
txn4 abort 0
txn5 abort 0
txn6 abort 0
txn7 abort 0
txn8 abort 0
txn6 abort 0
grant []
txn9 abort 0
txn10 abort 0
moved []
txn11 abort 0
)"},
    {"backoff", R"(txn1 stall 4000000
txn2 stall 4000000
txn3 stall 4000000
txn4 stall 4000000
txn5 stall 4000000
txn6 stall 4000000
txn7 stall 4000000
txn8 stall 4000000
txn6 stall 4000000
grant []
txn9 stall 4000000
txn10 stall 4000000
moved []
txn11 stall 4000000
)"},
    {"bi-interval", R"(txn1 enqueue 2000000
txn2 enqueue 6000000
txn3 enqueue 10000000
txn4 enqueue 14000000
txn5 abort 0
txn6 abort 0
txn7 abort 0
txn8 abort 0
txn6 abort 0
grant [2 3]
txn9 enqueue 18000000
txn10 enqueue 2000000
moved [1 4 9]
txn11 enqueue 6000000
grant [11]
grant [10]
grant [1]
grant [4]
)"},
    {"greedy", R"(txn1 enqueue 2000000
txn2 enqueue 6000000
txn3 enqueue 10000000
txn4 enqueue 14000000
txn5 abort 0
txn6 abort 0
txn7 abort 0
txn8 abort 0
txn6 abort 0
grant [2 3]
txn9 enqueue 18000000
txn10 enqueue 2000000
moved [9 4 1]
txn11 enqueue 6000000
grant [11]
grant [10]
grant [4]
grant [1]
)"},
    {"karma", R"(txn1 enqueue 2000000
txn2 stall 178190
txn3 enqueue 6000000
txn4 enqueue 10000000
txn5 enqueue 14000000
txn6 stall 143731
txn7 stall 163583
txn8 stall 173606
txn6 stall 391360
grant [5]
txn9 enqueue 18000000
txn10 enqueue 2000000
moved [9 4 3 1]
txn11 stall 178190
grant [10]
grant [4]
grant [3]
grant [1]
)"},
    {"steal-on-abort", R"(txn1 enqueue 2000000
txn2 enqueue 6000000
txn3 enqueue 10000000
txn4 enqueue 14000000
txn5 abort 0
txn6 abort 0
txn7 abort 0
txn8 abort 0
txn6 abort 0
grant [1]
txn9 enqueue 18000000
txn10 enqueue 2000000
moved [2 3 4 9]
txn11 abort 0
grant [10]
grant [2 3]
grant [4]
)"},
};

TEST(SchedulerDecisions, MatchPinnedTranscriptForEveryPolicy) {
  for (const auto& kind : scheduler_names()) {
    const auto pinned = kPinnedTranscripts.find(kind);
    ASSERT_NE(pinned, kPinnedTranscripts.end()) << "no pinned transcript for " << kind;
    std::string transcript;
    for (const auto& line : decision_transcript(kind)) transcript += line + "\n";
    EXPECT_EQ(transcript, pinned->second) << kind;
  }
}

// --------------------------------------- policy-parameterized coverage ----
//
// Every registered policy — present and future — passes this block; it is
// instantiated straight from the factory's name list, so adding a row to
// the registry automatically adds coverage (the deep queue-protocol
// invariants live in tests/scheduler_conformance_test.cpp).

class SchedulerPolicyTest : public ::testing::TestWithParam<std::string> {
 protected:
  SchedulerConfig config() const {
    SchedulerConfig cfg;
    cfg.kind = GetParam();
    cfg.cl_threshold = 8;
    cfg.max_queue = 8;
    cfg.handoff_slack = sim_ms(1);
    return cfg;
  }
  std::unique_ptr<Scheduler> make() const { return make_scheduler(config()); }
};

TEST_P(SchedulerPolicyTest, FactoryRoundTrip) {
  auto s = make();
  ASSERT_NE(s, nullptr);
  EXPECT_STRNE(s->name(), "");
}

TEST_P(SchedulerPolicyTest, DecisionIsWellFormedAndQueueConsistent) {
  auto s = make();
  const auto d = s->on_conflict(conflict_from(1, 1000000, sim_ms(20)));
  EXPECT_GE(d.backoff, 0);
  if (d.action == ConflictAction::kEnqueue) {
    EXPECT_EQ(s->queue_depth(ObjectId{1}), 1u);
    EXPECT_EQ(s->total_queued(), 1u);
  } else {
    EXPECT_EQ(s->queue_depth(ObjectId{1}), 0u);
    EXPECT_EQ(s->total_queued(), 0u);
  }
}

TEST_P(SchedulerPolicyTest, ReRequestNeverDoubleQueues) {
  auto s = make();
  for (int attempt = 0; attempt < 3; ++attempt) {
    s->on_conflict(conflict_from(1, 1000000, sim_ms(20) + sim_ms(10) * attempt));
    EXPECT_LE(s->queue_depth(ObjectId{1}), 1u) << "attempt " << attempt;
  }
}

TEST_P(SchedulerPolicyTest, ExtractAbsorbConservesRequesters) {
  auto old_owner = make();
  std::set<std::uint64_t> parked;
  for (std::uint64_t txn = 1; txn <= 6; ++txn) {
    const auto mode = txn % 3 == 0 ? net::AccessMode::kRead : net::AccessMode::kWrite;
    if (old_owner->on_conflict(conflict_from(txn, 1000000 + txn * 1000, sim_ms(30), mode))
            .action == ConflictAction::kEnqueue) {
      parked.insert(txn);
    }
  }
  ASSERT_EQ(old_owner->total_queued(), parked.size());

  auto moved = old_owner->extract_queue(ObjectId{1});
  EXPECT_EQ(old_owner->queue_depth(ObjectId{1}), 0u);
  std::set<std::uint64_t> moved_txns;
  for (const auto& r : moved) moved_txns.insert(r.txid.value);
  EXPECT_EQ(moved_txns, parked);  // nothing lost, nothing invented

  auto new_owner = make();
  new_owner->absorb_queue(ObjectId{1}, std::move(moved));
  EXPECT_EQ(new_owner->total_queued(), parked.size());

  // Drain: every parked requester is served exactly once.
  std::set<std::uint64_t> served;
  while (new_owner->total_queued() > 0) {
    const auto group = new_owner->on_object_available(ObjectId{1});
    ASSERT_FALSE(group.empty()) << "queue non-empty but nothing served";
    for (const auto& r : group) EXPECT_TRUE(served.insert(r.txid.value).second);
  }
  EXPECT_EQ(served, parked);
}

TEST_P(SchedulerPolicyTest, RemoveRequesterDropsExactlyThatEntry) {
  auto s = make();
  std::set<std::uint64_t> parked;
  for (std::uint64_t txn = 1; txn <= 3; ++txn) {
    if (s->on_conflict(conflict_from(txn, 1000000 + txn, sim_ms(30))).action ==
        ConflictAction::kEnqueue) {
      parked.insert(txn);
    }
  }
  s->remove_requester(ObjectId{1}, TxnId{2});
  parked.erase(2);
  EXPECT_EQ(s->total_queued(), parked.size());
  std::set<std::uint64_t> served;
  while (s->total_queued() > 0) {
    for (const auto& r : s->on_object_available(ObjectId{1})) served.insert(r.txid.value);
  }
  EXPECT_EQ(served, parked);
}

INSTANTIATE_TEST_SUITE_P(Zoo, SchedulerPolicyTest, ::testing::ValuesIn(scheduler_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-' || c == '+') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace hyflow::core
