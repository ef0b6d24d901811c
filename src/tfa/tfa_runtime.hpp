// Per-node TFA protocol engine — requester side (open / forward / commit)
// and owner side (the handlers behind every protocol message), plus the
// user-facing `Txn` handle and the retry loop.
//
// Requester side implements Alg. 2 (Open_Object): resolve the owner, send
// the request with myCL and ETS (a free copy this node owns is granted in
// place), and interpret the response — granted, wrong-owner (re-resolve),
// scheduler-abort, abort-with-stall (TFA+Backoff) or enqueued (RTS: block
// up to the backoff waiting for the object to be pushed). Every granted
// object runs TFA's transactional-forwarding rule: if the responder's clock
// is ahead of the transaction's start, the whole access-set is
// early-validated and the start clock forwarded.
//
// Owner side implements Alg. 3 (Retrieve_Request: immediate grant when the
// slot is free, scheduler decision when it is being validated) and the
// commit protocol whose validation window *creates* those conflicts: lock
// write set -> validate read set -> register ownership at the home
// directory -> transfer/install the new copies -> serve parked requesters
// with the fresh object (Alg. 4). Steps on objects this node owns and
// directory shards it homes run in place; only a fetch of a locked local
// object still messages the node itself, so that the handler decides.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/contention.hpp"
#include "core/scheduler.hpp"
#include "dsm/coherence.hpp"
#include "dsm/directory.hpp"
#include "dsm/object_store.hpp"
#include "net/comm.hpp"
#include "runtime/metrics.hpp"
#include "tfa/abort.hpp"
#include "util/mutex.hpp"
#include "tfa/node_clock.hpp"
#include "tfa/stats_table.hpp"
#include "tfa/transaction.hpp"

namespace hyflow::tfa {

class TfaRuntime;

// User-facing transaction handle: a thin view over one level of the
// transaction tree. Workloads receive a Txn& and use read/write/nested.
class Txn {
 public:
  Txn(TfaRuntime& rt, Transaction& level) : rt_(rt), level_(level) {}

  template <typename T>
  const T& read(ObjectId oid) {
    return object_cast<T>(open(oid, net::AccessMode::kRead).effective());
  }

  template <typename T>
  T& write(ObjectId oid) {
    return object_cast<T>(open(oid, net::AccessMode::kWrite).mutable_copy());
  }

  // Runs `body` as a closed-nested transaction. The child retries alone on
  // its own validation failures (bounded); parent-level aborts propagate.
  //
  // `body` MUST be idempotent across retries: reset any captured
  // accumulator at the top of the body (or build locally and publish as the
  // last statement), because an aborted child attempt's partial writes to
  // captured locals are NOT rolled back — only transactional object state is.
  void nested(const std::function<void(Txn&)>& body);

  // Runs `body` as an OPEN-nested transaction (§I/II's third nesting
  // model): the child commits independently and its effects become globally
  // visible immediately — they are NOT part of the enclosing transaction.
  // If the enclosing root later aborts, `compensation` runs (as its own
  // transaction, newest-first) to undo the child at the abstract level.
  //
  // Open-nesting caveats (by design, as in the literature): the child reads
  // *committed* global state, not the parent's uncommitted writes; and the
  // compensation must be semantically inverse, not byte-inverse.
  void open_nested(const std::function<void(Txn&)>& body,
                   std::function<void(Txn&)> compensation = nullptr);

  // Workload-requested restart of the whole transaction.
  [[noreturn]] void retry() { throw AbortException{AbortCause::kUserRetry, 0}; }

  TxnId id() const { return level_.id(); }
  int depth() const { return level_.depth(); }
  TfaRuntime& runtime() { return rt_; }

 private:
  AccessEntry& open(ObjectId oid, net::AccessMode mode);

  TfaRuntime& rt_;
  Transaction& level_;
};

// Child-local retries of a closed-nested transaction before its abort
// escalates to the parent.
inline constexpr int kMaxChildRetries = 16;

// Outcome of one root-transaction execution (including internal retries).
struct RunResult {
  bool committed = false;
  std::uint32_t attempts = 0;
  SimDuration latency = 0;  // first attempt start -> commit
};

class TfaRuntime {
 public:
  TfaRuntime(net::Comm& comm, dsm::ObjectStore& store, dsm::DirectoryShard& directory,
             dsm::OwnerResolver& resolver, core::Scheduler& scheduler,
             core::ContentionTracker& contention, StatsTable& stats, NodeClock& clock,
             runtime::NodeMetrics& metrics);

  // ---- requester side ----

  // Executes `body` as a root transaction, retrying on aborts until commit
  // or until `keep_going` returns false. Read-only roots validate at
  // commit; write roots run the full lock/validate/register protocol.
  RunResult run(std::uint32_t profile, const std::function<void(Txn&)>& body,
                const std::function<bool()>& keep_going = [] { return true; });

  // Alg. 2: open an object for `leaf`; throws AbortException.
  AccessEntry& open_object(Transaction& leaf, ObjectId oid, net::AccessMode mode);

  // Commit protocol for the root; throws AbortException on failure.
  void commit_root(Transaction& root);

  // ---- owner side (invoked by the node's message handler) ----
  void handle_request(const net::Message& msg);

  // A granted object arrived for a finished call (its requester gave up):
  // tell the sender we are no longer interested so it forwards the object
  // to the next requester.
  void handle_orphan_reply(const net::Message& msg);

  // Grant-loss recovery (Alg. 4 under an unreliable network): expires
  // unacknowledged grants and re-serves the object's queue. Driven
  // periodically by the cluster's maintenance thread.
  void sweep_grants(SimTime now);

  NodeClock& clock() { return clock_; }
  StatsTable& stats() { return stats_; }
  runtime::NodeMetrics& metrics() { return metrics_; }
  core::Scheduler& scheduler() { return scheduler_; }

 private:
  friend class Txn;

  // Requester-side helpers.
  void forward_if_needed(Transaction& root, std::uint64_t observed_clock);
  // Which entries of the chain a validation round checks (never inherited
  // views: the real entry is checked at the level that holds it).
  enum class Scope {
    kAll,          // forwarding and closed-nested child commit
    kReads,        // write commit: the locks already check the written objects
    kUnconfirmed,  // read-only commit: entries not confirmed since the last fetch
  };
  void validate_chain(Transaction& from, Scope scope);
  // Admits a copy granted by `from`, whose clock read `observed_clock` when
  // it granted: the forwarding rule, then the access-set entry.
  AccessEntry& admit_granted(Transaction& leaf, ObjectId oid, net::AccessMode mode,
                             const net::ObjectResponse& resp, NodeId from,
                             std::uint64_t observed_clock);
  [[noreturn]] void abort_txn(AbortCause cause, int locus, ObjectId oid,
                              SimDuration stall = 0);
  [[noreturn]] void abort_moved(int locus, ObjectId oid);

  // Commit-phase helpers.
  struct WriteTarget {
    ObjectId oid;
    AccessEntry* entry;
    NodeId owner;
    bool locked = false;
  };
  std::vector<WriteTarget> resolve_write_set(Transaction& root);
  void lock_write_set(Transaction& root, std::vector<WriteTarget>& writes);
  void release_locks(TxnId txid, const std::vector<WriteTarget>& writes);
  void publish_write_set(Transaction& root, std::vector<WriteTarget>& writes,
                         std::uint64_t commit_clock);
  // Registers `owner` at the home shard of `oid`: in place when that shard is
  // this node's, otherwise by a request the caller awaits.
  std::optional<net::RequestCall> register_owner(ObjectId oid, NodeId owner,
                                                 std::uint64_t commit_clock);

  // Owner-side handlers.
  void on_find_owner(const net::Message& msg);
  void on_register_owner(const net::Message& msg);
  void on_object_request(const net::Message& msg);
  void on_lock(const net::Message& msg);
  void on_validate(const net::Message& msg);
  void on_commit(const net::Message& msg);
  void on_abort_unlock(const net::Message& msg);
  void on_not_interested(const net::Message& msg);
  void on_grant_ack(const net::Message& msg);

  // Alg. 3's free-slot branch, shared by the owner-side handler and a
  // requester on the owning node: if `slot` (this node's copy of `oid`, read
  // once by the caller) is unlocked, records the request, drops any stale
  // queue entry of `txid` and returns a copy. Otherwise nullopt: a locked
  // slot is the handler's to decide, on that same read.
  std::optional<net::ObjectResponse> grant_if_free(const dsm::SlotView& slot, ObjectId oid,
                                                   TxnId txid, SimTime now);

  // Push the current copy of `oid` to the scheduler's head group.
  void serve_waiters(ObjectId oid);
  void send_grant(const net::QueuedRequester& to, ObjectId oid, const ObjectSnapshot& obj,
                  Version version);

  // Releases a remotely-held commit lock reliably (a lost release would
  // wedge the object at the owner forever).
  void release_remote_lock(ObjectId oid, TxnId txid, NodeId owner);

  // Lock-hold statistics: how long commits keep objects locked at this
  // node; the owner-side estimate behind ConflictContext::validator_remaining.
  void record_hold(SimTime locked_at);
  SimDuration expected_hold() const;
  SimDuration validator_remaining(const dsm::SlotView& slot, SimTime now) const;

  net::Comm& comm_;
  dsm::ObjectStore& store_;
  dsm::DirectoryShard& directory_;
  dsm::OwnerResolver& resolver_;
  core::Scheduler& scheduler_;
  core::ContentionTracker& contention_;
  StatsTable& stats_;
  NodeClock& clock_;
  runtime::NodeMetrics& metrics_;
  std::atomic<std::uint64_t> txn_seq_{1};

  mutable Mutex hold_mu_{LockRank::kHoldStats, "TfaRuntime::hold_mu"};
  Ewma hold_ewma_ GUARDED_BY(hold_mu_){0.2};

  // Outstanding Alg. 4 grants awaiting their GrantAck, keyed (oid, txid).
  struct PendingGrant {
    ObjectId oid;
    net::QueuedRequester req;
    SimTime deadline = 0;
  };
  Mutex grants_mu_{LockRank::kGrantTable, "TfaRuntime::grants_mu"};
  std::map<std::pair<std::uint64_t, std::uint64_t>, PendingGrant> grants_
      GUARDED_BY(grants_mu_);
};

}  // namespace hyflow::tfa
