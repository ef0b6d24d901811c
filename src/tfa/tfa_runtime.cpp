#include "tfa/tfa_runtime.hpp"

#include <algorithm>
#include <thread>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace hyflow::tfa {

namespace {
// Wrong-owner re-resolutions one open_object makes before it gives up.
constexpr int kMaxOwnerRetries = 8;
// Seed estimate for how long a commit holds its locks (refined online by an
// EWMA of observed hold durations); feeds the scheduler's
// validator-remaining input.
constexpr SimDuration kDefaultValidationHold = sim_ms(4);
// An Alg. 4 grant the requester has not acknowledged within this window is
// presumed lost: the owner forgets it and re-serves the queue.
constexpr SimDuration kGrantAckTimeout = sim_ms(12);
// Registration and publication must not give up early: a half-registered
// write set poisons the directory, a lost hand-off strands the old owner's
// queue. Their requests get this many retry budgets.
constexpr int kCommitRetryBudget = 3;

// Maps an empty await() result to the right abort cause: the registry being
// closed means orderly shutdown; otherwise the retry budget ran out with the
// peer unreachable and the watchdog fires.
AbortCause empty_wait_cause(const net::RequestCall& call) {
  return call.closed() ? AbortCause::kShutdown : AbortCause::kWatchdog;
}
}  // namespace

TfaRuntime::TfaRuntime(net::Comm& comm, dsm::ObjectStore& store,
                       dsm::DirectoryShard& directory, dsm::OwnerResolver& resolver,
                       core::Scheduler& scheduler, core::ContentionTracker& contention,
                       StatsTable& stats, NodeClock& clock, runtime::NodeMetrics& metrics)
    : comm_(comm),
      store_(store),
      directory_(directory),
      resolver_(resolver),
      scheduler_(scheduler),
      contention_(contention),
      stats_(stats),
      clock_(clock),
      metrics_(metrics) {}

// ---------------------------------------------------------------------------
// User handle
// ---------------------------------------------------------------------------

AccessEntry& Txn::open(ObjectId oid, net::AccessMode mode) {
  return rt_.open_object(level_, oid, mode);
}

void Txn::nested(const std::function<void(Txn&)>& body) {
  int retries = 0;
  for (;;) {
    Transaction child(level_);
    Txn handle(rt_, child);
    try {
      body(handle);
      // Closed-nested commit: early-validate the child's own reads before
      // its effects merge (Turcu & Ravindran's nested TFA). A stale child
      // aborts here — alone — instead of dooming the parent at root commit.
      rt_.validate_chain(child, TfaRuntime::Scope::kAll);
      child.merge_into_parent();
      level_.root().nested_committed += 1;
      rt_.metrics().add_nested_commit();
      return;
    } catch (const AbortException& e) {
      // A closed-nested child whose *own* entry went stale retries alone;
      // anything rooted at an ancestor means the parent chain is doomed and
      // this child dies with it (parent-caused nested abort, Table I).
      const bool child_local = e.cause == AbortCause::kEarlyValidation &&
                               e.locus_depth >= child.depth();
      if (child_local && ++retries <= kMaxChildRetries) {
        rt_.metrics().add_nested_abort(/*parent_cause=*/false);
        continue;
      }
      rt_.metrics().add_nested_abort(/*parent_cause=*/!child_local);
      throw;
    }
  }
}

void Txn::open_nested(const std::function<void(Txn&)>& body,
                      std::function<void(Txn&)> compensation) {
  // The open-nested child is an independent top-level transaction: it gets
  // its own retry loop, its own commit, and global visibility on success.
  const auto result = rt_.run(level_.root().profile(), body);
  if (!result.committed) throw AbortException{AbortCause::kShutdown, 0};
  rt_.metrics().add_open_nested_commit();
  if (compensation) level_.root().compensations.push_back(std::move(compensation));
}

// ---------------------------------------------------------------------------
// Requester side: run / open / forward / validate
// ---------------------------------------------------------------------------

RunResult TfaRuntime::run(std::uint32_t profile, const std::function<void(Txn&)>& body,
                          const std::function<bool()>& keep_going) {
  RunResult res;
  const SimTime first_start = sim_now();
  while (keep_going()) {
    ++res.attempts;
    const SimTime attempt_start = sim_now();
    // ETS.s is the transaction's *first* attempt start: Fig. 3 measures
    // T4's execution time from t1, spanning its earlier aborted attempt, so
    // a transaction that keeps losing ages into enqueue eligibility instead
    // of storming the hot object forever. ETS.c stays relative to the
    // current attempt — it estimates the *remaining* execution charged to
    // the queue.
    Transaction root(TxnId::make(comm_.self(), txn_seq_.fetch_add(1, std::memory_order_relaxed)),
                     profile, clock_.read(), first_start,
                     stats_.expected_commit(profile, attempt_start));
    Txn handle(*this, root);
    try {
      body(handle);
      const bool read_only = root.set().write_count() == 0;
      commit_root(root);
      metrics_.add_commit(read_only);
      if (!read_only) stats_.record_commit(profile, sim_now() - attempt_start);
      res.committed = true;
      res.latency = sim_now() - first_start;
      metrics_.record_latency(static_cast<std::uint64_t>(res.latency));
      return res;
    } catch (const AbortException& e) {
      metrics_.add_root_abort(e.cause);
      // The root abort rolls back every closed-nested child that had
      // committed into it.
      if (root.nested_committed > 0)
        metrics_.add_nested_abort(/*parent_cause=*/true, root.nested_committed);
      // Open-nested children are NOT rolled back — their registered
      // compensations run instead, newest first, each as an independent
      // transaction that must itself commit.
      for (auto it = root.compensations.rbegin(); it != root.compensations.rend(); ++it) {
        const auto comp_result = run(profile, *it, keep_going);
        if (comp_result.committed) metrics_.add_compensation_run();
      }
      root.compensations.clear();
      if (e.cause == AbortCause::kShutdown) break;
      if (e.retry_stall > 0) std::this_thread::sleep_for(to_chrono(e.retry_stall));
    }
  }
  return res;
}

void TfaRuntime::abort_txn(AbortCause cause, int locus, ObjectId oid, SimDuration stall) {
  if (cause == AbortCause::kWatchdog) metrics_.add_watchdog_abort();
  throw AbortException{cause, locus, oid, stall};
}

void TfaRuntime::abort_moved(int locus, ObjectId oid) {
  // The node we read `oid` from no longer owns it. Only a write commit's
  // CommitRequest moves an object, and that commit's clock is above every
  // clock the old copy carried (Lamport receive rule + increment_past), so
  // our copy is stale: no re-resolution can make it valid again.
  resolver_.invalidate(oid);
  abort_txn(AbortCause::kEarlyValidation, locus, oid);
}

AccessEntry& TfaRuntime::open_object(Transaction& leaf, ObjectId oid, net::AccessMode mode) {
  // Already in the transaction tree? Serve it locally — the fetched object
  // (and its round-trips) are reused across nesting levels.
  if (auto found = leaf.find_up(oid); found.entry) {
    if (found.depth == leaf.depth()) {
      if (mode == net::AccessMode::kWrite) found.entry->mutable_copy();
      return *found.entry;
    }
    AccessEntry view;
    view.inherited = true;
    view.base = found.entry->working
                    ? std::shared_ptr<const AbstractObject>(found.entry->working)
                    : found.entry->base;
    view.version = found.entry->version;
    view.mode = mode;
    view.owner_hint = found.entry->owner_hint;
    view.fetch_depth = leaf.depth();
    AccessEntry& e = leaf.set().insert(oid, std::move(view));
    if (mode == net::AccessMode::kWrite) e.mutable_copy();
    return e;
  }

  // Alg. 2 Open_Object: resolve the owner and request a copy.
  Transaction& root = leaf.root();
  for (int attempt = 0; attempt < kMaxOwnerRetries; ++attempt) {
    const auto owner = resolver_.find_owner(oid);
    if (!owner) abort_txn(AbortCause::kShutdown, 0, oid);

    if (*owner == comm_.self()) {
      // Own store (the TM proxy's local-cache check): a free copy is granted
      // here exactly as the owner-side handler would, and the clock a
      // self-reply would carry is this node's. A locked slot still goes to
      // that handler as a message: it is where the scheduler decides, and a
      // parked requester needs an addressable call for its hand-off.
      if (const auto slot = store_.get(oid)) {
        if (auto granted = grant_if_free(*slot, oid, root.id(), sim_now())) {
          serve_waiters(oid);
          return admit_granted(leaf, oid, mode, *granted, comm_.self(), clock_.read());
        }
      }
    }

    net::ObjectRequest req;
    req.oid = oid;
    req.txid = root.id();
    req.mode = mode;
    req.requester_cl = leaf.collect_my_cl();
    req.ets = net::Ets{root.wall_start(), sim_now(), root.expected_commit()};

    auto call = comm_.request(*owner, req);
    const auto reply = call.await();
    if (!reply) abort_txn(empty_wait_cause(call), 0, oid);
    const auto& resp = std::get<net::ObjectResponse>(reply->payload);

    if (resp.wrong_owner) {
      resolver_.invalidate(oid);
      metrics_.add_wrong_owner_retry();
      continue;
    }
    if (resp.object) {
      if (resp.handoff) comm_.post(reply->from, net::GrantAck{oid, root.id()});
      return admit_granted(leaf, oid, mode, resp, reply->from, reply->sender_clock);
    }

    if (resp.enqueued) {
      // RTS parked us: the open blocks until the object is pushed (by the
      // validating transaction's commit/abort) or the backoff runs out.
      // A retried request can surface a replayed "enqueued" answer from the
      // owner's reply cache; those are skipped, only a grant (or scheduler
      // denial) ends the wait early.
      metrics_.add_enqueued();
      const SimTime deadline = sim_now() + std::max<SimDuration>(resp.backoff, sim_us(10));
      std::optional<net::Message> pushed;
      for (;;) {
        const SimTime now = sim_now();
        if (now >= deadline) break;
        pushed = call.poll_for(deadline - now);
        if (!pushed) break;
        const auto& next = std::get<net::ObjectResponse>(pushed->payload);
        if (next.object || !next.enqueued) break;  // grant or denial
        pushed.reset();  // duplicate park notice: keep waiting
      }
      if (!pushed) {
        metrics_.add_backoff_expired();
        // Proactively withdraw from the queue (best effort: the owner may
        // have moved) so the hand-off chain skips us instead of waiting for
        // the orphan-reply round-trip.
        net::NotInterested ni;
        ni.oid = oid;
        ni.txid = root.id();
        comm_.post(reply->from, ni);
        abort_txn(AbortCause::kBackoffExpired, 0, oid);
      }
      const auto& granted = std::get<net::ObjectResponse>(pushed->payload);
      if (granted.object) {
        metrics_.add_handoff_received();
        if (granted.handoff) comm_.post(pushed->from, net::GrantAck{oid, root.id()});
        return admit_granted(leaf, oid, mode, granted, pushed->from, pushed->sender_clock);
      }
      abort_txn(AbortCause::kSchedulerDenied, 0, oid);
    }
    // Not enqueued: scheduler said abort — with a pre-retry stall under
    // TFA+Backoff, immediately under plain TFA.
    abort_txn(AbortCause::kSchedulerDenied, 0, oid, resp.backoff);
  }
  // Ownership kept moving under us; give up this attempt.
  abort_txn(AbortCause::kEarlyValidation, 0, oid);
}

AccessEntry& TfaRuntime::admit_granted(Transaction& leaf, ObjectId oid, net::AccessMode mode,
                                       const net::ObjectResponse& resp, NodeId from,
                                       std::uint64_t observed_clock) {
  Transaction& root = leaf.root();
  const std::uint64_t fetch = root.note_fetch();
  forward_if_needed(root, observed_clock);

  AccessEntry e;
  e.base = resp.object;
  e.version = resp.version;
  e.mode = mode;
  e.owner_hint = from;
  e.owner_cl = resp.owner_cl;
  e.fetch_depth = leaf.depth();
  e.confirmed = fetch;
  AccessEntry& ref = leaf.set().insert(oid, std::move(e));
  if (mode == net::AccessMode::kWrite) ref.mutable_copy();
  resolver_.note_owner(oid, from);
  return ref;
}

void TfaRuntime::forward_if_needed(Transaction& root, std::uint64_t observed_clock) {
  if (observed_clock <= root.start_clock()) return;
  // Transactional forwarding: the responder's clock is ahead of our start,
  // so everything read so far must be re-validated before the start clock
  // moves up (early validation; §II).
  metrics_.add_forwarding();
  validate_chain(root, Scope::kAll);
  root.forward_to(observed_clock);
}

void TfaRuntime::validate_chain(Transaction& from, Scope scope) {
  // Early validation of `from` and its active descendants: every covered
  // entry is checked once, at the owner it was fetched from, in one
  // concurrent round — local entries in place, remote ones in one
  // ValidateRequest per owner. Validation is a logical step, not a serial
  // walk, which would stretch every forwarding by read-set-size round-trips.
  // Used for forwarding, commit-time read validation, and closed-nested
  // child commit (Turcu & Ravindran, the paper's substrate).
  //
  // The round fails at its first stale entry in chain order (root -> leaf),
  // so the abort names the shallowest stale level: a stale child entry
  // aborts the *child only* (locus = child depth), which then retries alone
  // — the paper's first cause of nested-transaction aborts — while a stale
  // ancestor entry takes the chain down from that ancestor.
  const std::uint64_t sent_after = from.last_fetch();
  struct Check {
    ObjectId oid;
    int depth;
    AccessEntry* entry;
    ValidateResult result = ValidateResult::kValid;
  };
  std::vector<Check> checks;  // chain order
  for (Transaction* t = &from; t != nullptr; t = t->active_child()) {
    for (auto& [oid, entry] : t->set()) {
      if (entry.inherited) continue;
      if (scope == Scope::kReads && entry.mode == net::AccessMode::kWrite) continue;
      if (scope == Scope::kUnconfirmed && entry.confirmed >= sent_after) continue;
      checks.push_back(Check{oid, t->depth(), &entry});
    }
  }
  const auto fail = [this](const Check& c) {
    if (c.result == ValidateResult::kNotOwner) abort_moved(c.depth, c.oid);
    abort_txn(AbortCause::kEarlyValidation, c.depth, c.oid);
  };

  struct Batch {
    net::ValidateRequest req;
    std::vector<std::size_t> at;  // index in `checks` of each item
    std::optional<net::RequestCall> call;
  };
  std::map<NodeId, Batch> batches;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    Check& c = checks[i];
    if (c.entry->owner_hint != comm_.self()) {
      Batch& b = batches[c.entry->owner_hint];
      b.req.items.push_back(net::ValidateItem{c.oid, c.entry->version.clock});
      b.at.push_back(i);
      continue;
    }
    c.result = store_.validate(c.oid, c.entry->version.clock, kInvalidTxn);
    if (c.result == ValidateResult::kValid) continue;
    // Nothing after a stale entry can decide the round; only a stale remote
    // entry before it, at a shallower level, still can.
    if (c.depth == from.depth()) fail(c);
    checks.resize(i + 1);
    break;
  }
  for (auto& [owner, b] : batches) b.call.emplace(comm_.request(owner, std::move(b.req)));
  for (auto& [owner, b] : batches) {
    const Check& first = checks[b.at.front()];
    const auto reply = b.call->await();
    if (!reply) abort_txn(empty_wait_cause(*b.call), first.depth, first.oid);
    const auto& results = std::get<net::ValidateResponse>(reply->payload).results;
    HYFLOW_ASSERT(results.size() == b.at.size());
    for (std::size_t j = 0; j < results.size(); ++j) checks[b.at[j]].result = results[j];
  }
  for (const Check& c : checks)
    if (c.result != ValidateResult::kValid) fail(c);
  // Every check ran after fetch `sent_after` was served.
  for (Check& c : checks) c.entry->confirmed = sent_after;
}

// ---------------------------------------------------------------------------
// Commit protocol
// ---------------------------------------------------------------------------

std::vector<TfaRuntime::WriteTarget> TfaRuntime::resolve_write_set(Transaction& root) {
  std::vector<WriteTarget> writes;
  for (auto& [oid, entry] : root.set()) {
    if (entry.inherited || entry.mode != net::AccessMode::kWrite) continue;
    HYFLOW_ASSERT_MSG(entry.working != nullptr, "write entry without a working copy");
    writes.push_back(WriteTarget{oid, &entry, entry.owner_hint});
  }
  // Deterministic lock order across competing committers.
  std::sort(writes.begin(), writes.end(),
            [](const WriteTarget& a, const WriteTarget& b) { return a.oid < b.oid; });
  return writes;
}

void TfaRuntime::commit_root(Transaction& root) {
  HYFLOW_ASSERT(root.is_root());
  auto writes = resolve_write_set(root);

  if (writes.empty()) {
    // Read-only transaction: no locks, no ownership changes, and only the
    // reads that nothing has confirmed since the tree's last fetch are
    // validated. The reads then share one moment, the serve time s of the
    // last fetch, at which each was the committed value:
    //  * a fetch or a validation succeeds only on an unlocked slot at the
    //    read version, and versions only grow, so each entry's clean
    //    interval (from its publication until its overwriter locks it)
    //    contains both its fetch and its check;
    //  * fetches are sequential, so each entry was fetched at or before s and
    //    checked at or after it (by the last fetch itself, or by a round sent
    //    after it): s lies in every interval;
    //  * a writer locks all its objects before it publishes any, so no torn
    //    write falls on s.
    // The transaction serialises at s. A tree that fetched a single object
    // validates nothing (and a write-hot object cannot starve it). Write
    // commits get no such exemption: their reads must be current while the
    // locks are held.
    validate_chain(root, Scope::kUnconfirmed);
    return;
  }

  lock_write_set(root, writes);

  try {
    validate_chain(root, Scope::kReads);
  } catch (...) {
    release_locks(root.id(), writes);
    throw;
  }

  const std::uint64_t commit_clock = clock_.increment_past(root.start_clock());

  // Global registration of object ownership — deliberately inside the
  // validation window (locks held): this is the long stretch during which
  // conflicting requesters hit the scheduler (§II). Requests go out
  // concurrently; the window is one directory round-trip, not one per object.
  std::vector<std::optional<net::RequestCall>> calls;
  calls.reserve(writes.size());
  for (const auto& w : writes)
    calls.push_back(register_owner(w.oid, comm_.self(), commit_clock));
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (!calls[i] || calls[i]->await(kCommitRetryBudget)) continue;
    // Registration failed: roll every possibly-applied registration back to
    // the previous owner at the same clock (register_owner accepts equal
    // clocks), then release the locks and abort.
    const AbortCause cause = empty_wait_cause(*calls[i]);
    if (cause == AbortCause::kWatchdog) {
      HYFLOW_WARN("ownership registration of object ", writes[i].oid.value,
                  " timed out; rolling back the registered set");
      for (const auto& w : writes) {
        if (w.owner == comm_.self()) continue;  // owner unchanged
        if (auto rollback = register_owner(w.oid, w.owner, commit_clock)) rollback->await();
      }
    }
    release_locks(root.id(), writes);
    abort_txn(cause, 0, writes[i].oid);
  }

  publish_write_set(root, writes, commit_clock);
}

std::optional<net::RequestCall> TfaRuntime::register_owner(ObjectId oid, NodeId owner,
                                                           std::uint64_t commit_clock) {
  const NodeId home = dsm::home_node(oid, comm_.cluster_size());
  if (home != comm_.self())
    return comm_.request(home, net::RegisterOwnerRequest{oid, owner, commit_clock});
  directory_.register_owner(oid, owner, commit_clock);
  return std::nullopt;
}

void TfaRuntime::lock_write_set(Transaction& root, std::vector<WriteTarget>& writes) {
  // One concurrent round: local locks are taken in place, remote ones
  // requested together (lock order is still deterministic per object via the
  // sort; grants never block, so there is no deadlock to order around — only
  // livelock, resolved by abort). Every outstanding reply is collected before
  // deciding, so a failed round releases exactly what it took.
  const TxnId txid = root.id();
  std::optional<std::pair<AbortCause, ObjectId>> failure;
  const auto fail = [&](AbortCause cause, ObjectId oid) {
    if (!failure) failure.emplace(cause, oid);
  };
  std::vector<std::optional<net::RequestCall>> calls(writes.size());
  for (std::size_t i = 0; i < writes.size() && !failure; ++i) {
    WriteTarget& w = writes[i];
    if (w.owner != comm_.self()) {
      calls[i].emplace(
          comm_.request(w.owner, net::LockRequest{w.oid, txid, w.entry->version.clock}));
      continue;
    }
    switch (store_.lock(w.oid, txid, w.entry->version.clock)) {
      case dsm::ObjectStore::LockResult::kGranted:
        w.locked = true;
        break;
      case dsm::ObjectStore::LockResult::kBusy:
        fail(AbortCause::kLockConflict, w.oid);
        break;
      case dsm::ObjectStore::LockResult::kVersionMismatch:
        fail(AbortCause::kEarlyValidation, w.oid);
        break;
      case dsm::ObjectStore::LockResult::kNotOwner:
        resolver_.invalidate(w.oid);  // moved away: stale (see abort_moved)
        fail(AbortCause::kEarlyValidation, w.oid);
        break;
    }
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    if (!calls[i]) continue;
    const auto reply = calls[i]->await();
    if (!reply) {
      // Unknown outcome: release pessimistically (a no-op if the lock was
      // never taken) unless the cluster is shutting down.
      writes[i].locked = !calls[i]->closed();
      fail(empty_wait_cause(*calls[i]), writes[i].oid);
      continue;
    }
    const auto& resp = std::get<net::LockResponse>(reply->payload);
    writes[i].locked = resp.granted;
    if (resp.wrong_owner) {
      resolver_.invalidate(writes[i].oid);  // moved away: stale (see abort_moved)
      fail(AbortCause::kEarlyValidation, writes[i].oid);
    } else if (!resp.granted) {
      fail(AbortCause::kLockConflict, writes[i].oid);
    }
  }
  if (!failure) return;
  release_locks(txid, writes);
  abort_txn(failure->first, 0, failure->second);
}

void TfaRuntime::release_locks(TxnId txid, const std::vector<WriteTarget>& writes) {
  for (const WriteTarget& w : writes) {
    if (!w.locked) continue;
    if (w.owner == comm_.self()) {
      record_hold(store_.unlock(w.oid, txid));
      serve_waiters(w.oid);
    } else {
      release_remote_lock(w.oid, txid, w.owner);
    }
  }
}

void TfaRuntime::release_remote_lock(ObjectId oid, TxnId txid, NodeId owner) {
  // Acked, retried release: a lost AbortUnlock would leave the object
  // locked at the owner with nobody left to unlock it.
  auto call = comm_.request(owner, net::AbortUnlock{oid, txid});
  if (!call.await() && !call.closed()) {
    HYFLOW_WARN("abort-unlock of object ", oid.value, " at node ", owner,
                " unacknowledged; lock release outcome unknown");
  }
}

void TfaRuntime::publish_write_set(Transaction& root, std::vector<WriteTarget>& writes,
                                   std::uint64_t commit_clock) {
  // Past this point the commit is decided: every lock is held, the read set
  // validated, and ownership registered. Publishing must complete for all
  // objects even if the cluster starts shutting down mid-way — a torn
  // publish would break atomicity (e.g. Bank's conservation invariant).
  const TxnId txid = root.id();
  const Version version{commit_clock, comm_.self()};
  std::vector<std::optional<net::RequestCall>> calls(writes.size());
  for (std::size_t i = 0; i < writes.size(); ++i) {
    WriteTarget& w = writes[i];
    ObjectSnapshot snapshot = std::move(w.entry->working);
    if (w.owner == comm_.self()) {
      const SimTime locked_at = store_.commit_in_place(w.oid, txid, snapshot, version);
      HYFLOW_ASSERT_MSG(locked_at > 0, "commit_in_place on a lock we hold must succeed");
      record_hold(locked_at);
    } else {
      // Install locally first — the directory already points here, so the
      // new copy must be servable before the old owner's slot goes away.
      store_.install(snapshot, version);
      resolver_.note_owner(w.oid, comm_.self());
      calls[i].emplace(
          comm_.request(w.owner, net::CommitRequest{w.oid, txid, version, comm_.self()}));
    }
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    if (calls[i]) {
      // The hand-off must survive message loss: without it the old owner's
      // copy stays locked and its parked requesters are stranded. The
      // receiver's reply cache preserves the extracted queue, so a retried
      // CommitRequest is answered with the queue captured at the real
      // hand-over, never an empty one.
      if (auto reply = calls[i]->await(kCommitRetryBudget)) {
        auto& resp = std::get<net::CommitResponse>(reply->payload);
        // Inherit the previous owner's scheduling queue (Alg. 4: the node
        // invoking the committed transaction receives the requester lists).
        scheduler_.absorb_queue(writes[i].oid, std::move(resp.queue));
      } else if (!calls[i]->closed()) {
        HYFLOW_WARN("commit hand-off of object ", writes[i].oid.value, " to node ",
                    comm_.self(), " unacknowledged; old owner copy stays locked");
      }
      // The commit stands either way: locks were held, reads validated and
      // ownership registered before publication began.
    }
    serve_waiters(writes[i].oid);
  }
}

// ---------------------------------------------------------------------------
// Owner side
// ---------------------------------------------------------------------------

void TfaRuntime::handle_request(const net::Message& msg) {
  if (std::holds_alternative<net::FindOwnerRequest>(msg.payload)) return on_find_owner(msg);
  if (std::holds_alternative<net::RegisterOwnerRequest>(msg.payload))
    return on_register_owner(msg);
  if (std::holds_alternative<net::ObjectRequest>(msg.payload)) return on_object_request(msg);
  if (std::holds_alternative<net::LockRequest>(msg.payload)) return on_lock(msg);
  if (std::holds_alternative<net::ValidateRequest>(msg.payload)) return on_validate(msg);
  if (std::holds_alternative<net::CommitRequest>(msg.payload)) return on_commit(msg);
  if (std::holds_alternative<net::AbortUnlock>(msg.payload)) return on_abort_unlock(msg);
  if (std::holds_alternative<net::NotInterested>(msg.payload)) return on_not_interested(msg);
  if (std::holds_alternative<net::GrantAck>(msg.payload)) return on_grant_ack(msg);
  HYFLOW_WARN("unhandled request payload: ", net::payload_name(msg.payload));
}

void TfaRuntime::handle_orphan_reply(const net::Message& msg) {
  // Only a granted object needs the NotInterested protocol: the requester's
  // backoff expired before the hand-off arrived (Alg. 4 else-branch).
  if (const auto* resp = std::get_if<net::ObjectResponse>(&msg.payload);
      resp && resp->object) {
    net::NotInterested ni;
    ni.oid = resp->oid;
    ni.txid = resp->txid;
    comm_.post(msg.from, ni);
  }
}

void TfaRuntime::on_find_owner(const net::Message& msg) {
  const auto& req = std::get<net::FindOwnerRequest>(msg.payload);
  const auto owner = directory_.lookup(req.oid);
  net::FindOwnerResponse resp;
  resp.oid = req.oid;
  resp.owner = owner.value_or(kInvalidNode);
  resp.known = owner.has_value();
  comm_.reply(msg, resp);
}

void TfaRuntime::on_register_owner(const net::Message& msg) {
  const auto& req = std::get<net::RegisterOwnerRequest>(msg.payload);
  net::RegisterOwnerResponse resp;
  resp.oid = req.oid;
  resp.ok = directory_.register_owner(req.oid, req.new_owner, req.version_clock);
  comm_.reply(msg, resp);
}

std::optional<net::ObjectResponse> TfaRuntime::grant_if_free(const dsm::SlotView& slot,
                                                             ObjectId oid, TxnId txid,
                                                             SimTime now) {
  if (slot.locked_by.valid()) return std::nullopt;
  contention_.record_request(oid, txid, now);
  // Drop any stale queue entry left by an earlier attempt of the same
  // transaction.
  scheduler_.remove_requester(oid, txid);
  net::ObjectResponse resp;
  resp.oid = oid;
  resp.txid = txid;
  resp.object = slot.object;
  resp.version = slot.version;
  resp.owner_cl = contention_.local_cl(oid, now);
  return resp;
}

void TfaRuntime::on_object_request(const net::Message& msg) {
  const auto& req = std::get<net::ObjectRequest>(msg.payload);
  const SimTime now = sim_now();

  net::ObjectResponse resp;
  resp.oid = req.oid;
  resp.txid = req.txid;
  const auto slot = store_.get(req.oid);
  if (!slot) {
    resp.wrong_owner = true;
    comm_.reply(msg, resp);
    return;
  }

  if (auto granted = grant_if_free(*slot, req.oid, req.txid, now)) {
    comm_.reply(msg, *granted);
    // A free object with parked requesters means a hand-off chain stalled
    // (its head aborted before committing this object); use the ambient
    // request to drain it rather than letting the queue wait out backoffs.
    serve_waiters(req.oid);
    return;
  }

  // The object is being validated: Retrieve_Request's scheduler decision.
  contention_.record_request(req.oid, req.txid, now);
  metrics_.add_conflict_seen();
  core::ConflictContext ctx;
  ctx.oid = req.oid;
  ctx.requester_node = msg.from;
  ctx.request_msg_id = msg.msg_id;
  ctx.request = req;
  ctx.local_cl = contention_.local_cl(req.oid, now);
  ctx.validator_remaining = validator_remaining(*slot, now);
  ctx.now = now;
  const auto decision = scheduler_.on_conflict(ctx);
  resp.backoff = decision.backoff;
  resp.enqueued = decision.action == core::ConflictAction::kEnqueue;
  comm_.reply(msg, resp);
}

void TfaRuntime::on_lock(const net::Message& msg) {
  const auto& req = std::get<net::LockRequest>(msg.payload);
  const auto result = store_.lock(req.oid, req.txid, req.expected_clock);
  net::LockResponse resp;
  resp.oid = req.oid;
  resp.granted = result == dsm::ObjectStore::LockResult::kGranted;
  resp.wrong_owner = result == dsm::ObjectStore::LockResult::kNotOwner;
  comm_.reply(msg, resp);
}

void TfaRuntime::on_validate(const net::Message& msg) {
  const auto& req = std::get<net::ValidateRequest>(msg.payload);
  net::ValidateResponse resp;
  resp.results.reserve(req.items.size());
  for (const net::ValidateItem& item : req.items)
    resp.results.push_back(store_.validate(item.oid, item.expected_clock, kInvalidTxn));
  comm_.reply(msg, resp);
}

void TfaRuntime::on_commit(const net::Message& msg) {
  const auto& req = std::get<net::CommitRequest>(msg.payload);
  if (const auto view = store_.evict(req.oid, req.txid); view && view->locked_by.valid())
    record_hold(view->locked_at);
  net::CommitResponse resp;
  resp.oid = req.oid;
  // Hand the scheduling queue over to the new owner.
  resp.queue = scheduler_.extract_queue(req.oid);
  contention_.forget(req.oid);
  resolver_.note_owner(req.oid, req.new_owner);
  comm_.reply(msg, resp);
}

void TfaRuntime::on_abort_unlock(const net::Message& msg) {
  const auto& req = std::get<net::AbortUnlock>(msg.payload);
  record_hold(store_.unlock(req.oid, req.txid));
  // Acknowledge so the releaser's retry loop stops (the reply to a one-way
  // post is dropped as an uninteresting orphan).
  comm_.reply(msg, net::Ack{req.oid});
  // "If Tk aborts, the objects that Tk is using will be released, and the
  // other transactions will obtain the objects." (§III-A)
  serve_waiters(req.oid);
}

void TfaRuntime::on_not_interested(const net::Message& msg) {
  const auto& req = std::get<net::NotInterested>(msg.payload);
  metrics_.add_not_interested();
  {
    MutexLock lk(grants_mu_);
    grants_.erase({req.oid.value, req.txid.value});
  }
  scheduler_.remove_requester(req.oid, req.txid);
  serve_waiters(req.oid);
}

void TfaRuntime::on_grant_ack(const net::Message& msg) {
  const auto& req = std::get<net::GrantAck>(msg.payload);
  MutexLock lk(grants_mu_);
  grants_.erase({req.oid.value, req.txid.value});
}

void TfaRuntime::sweep_grants(SimTime now) {
  std::vector<PendingGrant> expired;
  {
    MutexLock lk(grants_mu_);
    for (auto it = grants_.begin(); it != grants_.end();) {
      if (it->second.deadline <= now) {
        expired.push_back(it->second);
        it = grants_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const PendingGrant& g : expired) {
    // The grant (or its ack) is presumed lost: forget the silent requester
    // and hand the object to the next one — a dropped Alg. 4 push must not
    // strand the rest of the queue.
    metrics_.add_grant_reforward();
    scheduler_.remove_requester(g.oid, g.req.txid);
    serve_waiters(g.oid);
  }
}

void TfaRuntime::serve_waiters(ObjectId oid) {
  const auto slot = store_.get(oid);
  if (!slot || slot->locked_by.valid()) return;
  const auto group = scheduler_.on_object_available(oid);
  if (group.empty()) return;
  metrics_.add_handoff_sent(group.size());
  for (const auto& q : group) send_grant(q, oid, slot->object, slot->version);
}

void TfaRuntime::record_hold(SimTime locked_at) {
  if (locked_at <= 0) return;
  const SimDuration held = sim_now() - locked_at;
  if (held <= 0) return;
  MutexLock lk(hold_mu_);
  hold_ewma_.add(static_cast<double>(held));
}

SimDuration TfaRuntime::expected_hold() const {
  MutexLock lk(hold_mu_);
  if (!hold_ewma_.seeded()) return kDefaultValidationHold;
  return static_cast<SimDuration>(hold_ewma_.value());
}

SimDuration TfaRuntime::validator_remaining(const dsm::SlotView& slot, SimTime now) const {
  const SimDuration held_so_far = slot.locked_at > 0 ? now - slot.locked_at : 0;
  return std::max<SimDuration>(expected_hold() - held_so_far, sim_us(100));
}

void TfaRuntime::send_grant(const net::QueuedRequester& to, ObjectId oid,
                            const ObjectSnapshot& obj, Version version) {
  net::ObjectResponse resp;
  resp.oid = oid;
  resp.txid = to.txid;
  resp.object = obj;
  resp.version = version;
  resp.owner_cl = contention_.local_cl(oid, sim_now());
  resp.handoff = true;  // requester must GrantAck or the grant is re-served
  {
    MutexLock lk(grants_mu_);
    grants_[{oid.value, to.txid.value}] =
        PendingGrant{oid, to, sim_now() + kGrantAckTimeout};
  }
  comm_.reply_routed(to.address, to.reply_msg_id, resp);
}

}  // namespace hyflow::tfa
