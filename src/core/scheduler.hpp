// The transactional scheduler: one queue protocol, one admission rule per
// policy.
//
// The TFA runtime consults the scheduler in exactly one situation: a
// (root/parent) transaction requested an object that is currently locked,
// i.e. being validated by another transaction's commit (§II: "Transactions
// that request an object being validated must abort" — unless the scheduler
// says otherwise). The scheduler answers with one of:
//
//   kAbort          — the requester aborts and retries immediately (TFA)
//   kAbortWithStall — the requester aborts but stalls `backoff` before the
//                     retry (the TFA+Backoff baseline)
//   kEnqueue        — the requester's open blocks for up to `backoff`; the
//                     scheduler parked it in the object's requester list and
//                     the object will be pushed to it on unlock/commit (RTS)
//
// Every policy shares the queue protocol of Alg. 1-4: the per-object
// requester lists, the backoff of a parked requester, hand-off on unlock,
// queue migration on ownership transfer, and NotInterested removal. What a
// policy adds is one row of the registry in scheduler.cpp: its admission
// rule, its queue order and its release order (docs/SCHEDULERS.md).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/requester_list.hpp"
#include "dsm/object_id.hpp"
#include "net/payloads.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hyflow::core {

enum class ConflictAction { kAbort, kAbortWithStall, kEnqueue };

struct ConflictDecision {
  ConflictAction action = ConflictAction::kAbort;
  SimDuration backoff = 0;
};

struct ConflictContext {
  ObjectId oid;
  NodeId requester_node = kInvalidNode;
  std::uint64_t request_msg_id = 0;  // routing id for the parked reply
  net::ObjectRequest request;        // txid, mode, myCL, ETS
  // Owner-side window CL of oid. It reaches later requesters through the
  // myCL piggyback; no admission rule reads it directly.
  std::uint32_t local_cl = 0;
  // Expected time until the transaction currently validating this object
  // releases it — the paper's |t7 - t4| (Fig. 3), estimated at the owner
  // from its history of lock-hold durations.
  SimDuration validator_remaining = 0;
  SimTime now = 0;
};

struct SchedulerConfig {
  std::string kind = "rts";                 // see scheduler_names()
  // RTS: CL threshold (paper §III-B); Bi-interval: its queue cap.
  std::uint32_t cl_threshold = 3;
  SimDuration min_backoff = sim_us(100);    // clamp for unseeded stats tables
  SimDuration max_backoff = sim_ms(100);
  SimDuration contention_window = sim_ms(20);
  // Extra wait granted on top of the computed queue position: covers the
  // hand-off hops (commit ack -> queue transfer -> object push).
  SimDuration handoff_slack = sim_ms(6);
  // Queue cap for the park-everything challengers (greedy, karma,
  // steal-on-abort): a conflicting requester that would make the per-object
  // queue longer than this aborts instead of parking.
  std::uint32_t max_queue = 16;
};

// Karma's memory across conflicts: the consecutive losses of each root
// transaction, keyed by (requester node, ETS.s) — the identity a transaction
// keeps across retries — and the RNG of its randomized stall.
struct KarmaLedger {
  struct Key {
    NodeId node;
    SimTime start;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return mix64((static_cast<std::uint64_t>(k.node) << 48) ^
                   static_cast<std::uint64_t>(k.start));
    }
  };
  std::unordered_map<Key, std::uint32_t, KeyHash> losses;
  Xoshiro256 rng{0x5eed};
};

struct SchedulerPolicy;  // one registry row, see scheduler.cpp

class Scheduler {
 public:
  Scheduler(const SchedulerConfig& cfg, const SchedulerPolicy& policy);

  const char* name() const;

  // Decide the fate of a conflicting requester; on kEnqueue the scheduler
  // has already parked it.
  ConflictDecision on_conflict(const ConflictContext& ctx);

  // Object became available at this node (commit installed a new version,
  // an abort released the lock, or a served requester declined). Returns
  // the requesters to serve *now*.
  std::vector<net::QueuedRequester> on_object_available(ObjectId oid);

  // Ownership is moving away: hand the whole queue to the new owner.
  std::vector<net::QueuedRequester> extract_queue(ObjectId oid);

  // This node became owner and inherited the previous owner's queue.
  void absorb_queue(ObjectId oid, std::vector<net::QueuedRequester> queue);

  // A served requester answered "not interested" (its backoff expired).
  void remove_requester(ObjectId oid, TxnId txid);

  std::size_t queue_depth(ObjectId oid) const;
  std::size_t total_queued() const;

  // Test hook: Karma's consecutive losses charged to (node, ets_start).
  std::uint32_t loss_streak(NodeId node, SimTime ets_start) const;

 private:
  SchedulerConfig cfg_;
  const SchedulerPolicy& policy_;
  SchedulingTable table_;
  // No GUARDED_BY: like the RequesterLists, it is only touched inside
  // table_ callbacks, i.e. under the table mutex.
  KarmaLedger karma_;
};

// Constructs the policy selected by `cfg.kind` (canonical name or alias).
// An unknown kind is a fatal configuration error: the process aborts with a
// message listing every valid name.
std::unique_ptr<Scheduler> make_scheduler(const SchedulerConfig& cfg);

// Canonical names of every registered policy, in bench-sweep order.
std::vector<std::string> scheduler_names();

// Maps a kind or alias ("backoff", "bi") to its canonical name; returns an
// empty string for unknown kinds.
std::string canonical_scheduler_name(const std::string& kind);

}  // namespace hyflow::core
