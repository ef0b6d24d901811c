// Owner-side object store.
//
// A node's store holds exactly the objects it currently owns — the single
// writable copy the CC protocol guarantees. A slot is *locked* while some
// transaction is validating a write to it (TFA commit); requests that
// arrive for a locked slot are the scheduler's input. Ownership transfer
// evicts the slot here and installs the new snapshot at the committer.
//
// All operations are short and non-blocking, guarded by one mutex per
// store (a node's store sees its own workers plus the delivery pool — a
// handful of threads — so sharding buys nothing at this scale).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "dsm/object.hpp"
#include "dsm/object_id.hpp"
#include "dsm/version.hpp"
#include "util/mutex.hpp"
#include "util/time.hpp"

namespace hyflow::dsm {

struct SlotView {
  ObjectSnapshot object;
  Version version;
  TxnId locked_by;        // invalid() => unlocked
  SimTime locked_at = 0;  // when the current lock was taken (0 if unlocked)
};

class ObjectStore {
 public:
  // Installs an object this node now owns (initial placement or ownership
  // transfer). Replaces any previous slot state.
  void install(ObjectSnapshot object, Version version);

  // Reads a slot; nullopt if this node does not own the object.
  std::optional<SlotView> get(ObjectId oid) const;

  bool owns(ObjectId oid) const;

  enum class LockResult { kGranted, kBusy, kVersionMismatch, kNotOwner };

  // Commit-time write lock: grants only if unlocked (or already held by the
  // same transaction) and the version clock matches what the transaction
  // read — lock doubles as write-set validation.
  LockResult lock(ObjectId oid, TxnId txid, std::uint64_t expected_clock);

  // Releases a lock without committing. Returns when the released lock was
  // taken, or 0 if `txid` did not hold it (benign: the lock may have been
  // evicted by a racing commit).
  SimTime unlock(ObjectId oid, TxnId txid);

  // Read-set validation: current version must match and the slot must not
  // be mid-commit under someone else (a locked slot is about to change).
  // `reader` may hold its own commit lock on the slot (read+write upgrade).
  ValidateResult validate(ObjectId oid, std::uint64_t expected_clock, TxnId reader) const;

  // Ownership moved away: drop the slot. Returns the evicted view.
  std::optional<SlotView> evict(ObjectId oid, TxnId committer);

  // Commit by the current owner itself: bump version/state in place and
  // release the lock. Returns when that lock was taken, or 0 (and changes
  // nothing) if `txid` did not hold it.
  SimTime commit_in_place(ObjectId oid, TxnId txid, ObjectSnapshot object, Version version);

  std::size_t size() const;
  std::vector<ObjectId> owned_ids() const;

 private:
  struct Slot {
    ObjectSnapshot object;
    Version version;
    TxnId locked_by = kInvalidTxn;
    SimTime locked_at = 0;
  };
  mutable Mutex mu_{LockRank::kObjectStore, "ObjectStore::mu"};
  std::unordered_map<ObjectId, Slot> slots_ GUARDED_BY(mu_);
};

}  // namespace hyflow::dsm
