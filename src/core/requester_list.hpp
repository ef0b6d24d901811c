// Algorithm 1 of the paper: the per-object scheduling structures.
//
//   Requester       -> net::QueuedRequester (address, txid, plus the routing
//                      id of the parked request and its access mode)
//   Requester_List  -> RequesterList below: FIFO of requesters, a running
//                      Contention_Level (addRequester records the total
//                      computed at enqueue time, so getContention() yields
//                      the cumulative CL of everything queued), and the
//                      object's accumulated backoff `bk` (Alg. 3's static
//                      per-object backoff counter)
//   scheduling_List -> SchedulingTable: ObjectId -> RequesterList
//
// Hand-off order (§III-B): one leading writer, or *all* leading readers
// simultaneously ("increasing the concurrency of the read transactions").
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "dsm/object_id.hpp"
#include "net/payloads.hpp"
#include "util/mutex.hpp"
#include "util/time.hpp"

namespace hyflow::core {

// Where a parked requester goes: behind everyone (FIFO), or by its
// policy-defined rank (`QueuedRequester::priority`, lower = served first).
enum class QueueOrder { kFifo, kByRank };

// Who an available object goes to: the head group (Alg. 4), or Bi-interval's
// read interval — every queued reader — ahead of the writers.
enum class ReleaseOrder { kHeadGroup, kReadersFirst };

class RequesterList {
 public:
  // Alg. 1 addRequester(Contention_Level, Requester).
  void add(std::uint32_t contention, net::QueuedRequester requester);

  // Priority-ordered insertion for timestamp/karma policies: the entry goes
  // before the first queued requester with a strictly greater `priority`
  // (stable among equals, so FIFO ties break by arrival).
  void add_sorted(std::uint32_t contention, net::QueuedRequester requester);

  // add() or add_sorted(), as `order` says.
  void insert(QueueOrder order, std::uint32_t contention, net::QueuedRequester requester);

  // Priority of the youngest/lowest-ranked queued requester (the back of a
  // sorted queue); 0 when empty.
  std::uint64_t tail_priority() const { return queue_.empty() ? 0 : queue_.back().priority; }

  // Alg. 1 removeDuplicate(Address): a transaction whose backoff expired
  // re-requests as new; drop its stale entry. We match on txid rather than
  // node address — several transactions from one node may be queued, and
  // the retried transaction keeps its TxnId's node/sequence identity only
  // if it is genuinely the same requester.
  bool remove_duplicate(TxnId txid);

  // Alg. 1 getContention(): cumulative contention of the queued requesters.
  std::uint32_t contention() const { return contention_level_; }

  // Head group: the first writer alone, or every leading reader.
  std::vector<net::QueuedRequester> pop_head_group();

  // Bi-interval's read interval: every queued reader wherever it sits, or
  // the head writer alone when no reader is queued. Writers keep their
  // order, and `bk` survives while any of them stays parked.
  std::vector<net::QueuedRequester> pop_readers_first();

  std::vector<net::QueuedRequester> drain();

  // The object's accumulated backoff bk (reset when the queue empties —
  // otherwise bk grows without bound and Alg. 3's `bk < r-s` test would
  // eventually reject every transaction).
  SimDuration bk() const { return bk_; }
  void add_bk(SimDuration d) { bk_ += d; }

  std::size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

 private:
  void maybe_reset();

  std::deque<net::QueuedRequester> queue_;
  std::uint32_t contention_level_ = 0;
  SimDuration bk_ = 0;
};

// scheduling_List: hash table from object to its requester list. One mutex
// guards the table and the lists; all operations are short. RequesterList
// itself carries no annotations — its instances live inside `lists_` and are
// only ever reached through `mu_` (an ownership relation GUARDED_BY cannot
// express across objects; see docs/CONCURRENCY.md).
class SchedulingTable {
 public:
  // Runs `fn(list)` with the object's list (created on demand) under lock.
  template <typename Fn>
  auto with_list(ObjectId oid, Fn&& fn) {
    MutexLock lk(mu_);
    return fn(lists_[oid]);
  }

  // As above but does not create the list; returns default for absent.
  std::vector<net::QueuedRequester> release(ObjectId oid, ReleaseOrder order);
  std::vector<net::QueuedRequester> drain(ObjectId oid);
  bool remove(ObjectId oid, TxnId txid);
  std::size_t depth(ObjectId oid) const;
  std::size_t total_queued() const;

  // Runs `fn()` under the table lock, for policy state kept beside the
  // lists (Karma's loss streaks).
  template <typename Fn>
  auto locked(Fn&& fn) const {
    MutexLock lk(mu_);
    return fn();
  }

 private:
  mutable Mutex mu_{LockRank::kSchedulerQueue, "SchedulingTable::mu"};
  std::unordered_map<ObjectId, RequesterList> lists_ GUARDED_BY(mu_);
};

}  // namespace hyflow::core
