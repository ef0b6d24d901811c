#include "dsm/object_store.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace hyflow::dsm {

void ObjectStore::install(ObjectSnapshot object, Version version) {
  HYFLOW_ASSERT(object != nullptr);
  const ObjectId oid = object->id();
  MutexLock lk(mu_);
  slots_[oid] = Slot{std::move(object), version, kInvalidTxn};
}

std::optional<SlotView> ObjectStore::get(ObjectId oid) const {
  MutexLock lk(mu_);
  auto it = slots_.find(oid);
  if (it == slots_.end()) return std::nullopt;
  return SlotView{it->second.object, it->second.version, it->second.locked_by,
                  it->second.locked_at};
}

bool ObjectStore::owns(ObjectId oid) const {
  MutexLock lk(mu_);
  return slots_.count(oid) > 0;
}

ObjectStore::LockResult ObjectStore::lock(ObjectId oid, TxnId txid,
                                          std::uint64_t expected_clock) {
  MutexLock lk(mu_);
  auto it = slots_.find(oid);
  if (it == slots_.end()) return LockResult::kNotOwner;
  Slot& slot = it->second;
  if (slot.locked_by.valid() && slot.locked_by != txid) return LockResult::kBusy;
  if (slot.version.clock != expected_clock) return LockResult::kVersionMismatch;
  if (slot.locked_by != txid) slot.locked_at = sim_now();
  slot.locked_by = txid;
  return LockResult::kGranted;
}

SimTime ObjectStore::unlock(ObjectId oid, TxnId txid) {
  MutexLock lk(mu_);
  auto it = slots_.find(oid);
  if (it == slots_.end() || it->second.locked_by != txid) return 0;
  it->second.locked_by = kInvalidTxn;
  return std::exchange(it->second.locked_at, 0);
}

ValidateResult ObjectStore::validate(ObjectId oid, std::uint64_t expected_clock,
                                     TxnId reader) const {
  MutexLock lk(mu_);
  auto it = slots_.find(oid);
  if (it == slots_.end()) return ValidateResult::kNotOwner;
  const Slot& slot = it->second;
  if (slot.version.clock != expected_clock) return ValidateResult::kInvalid;
  if (slot.locked_by.valid() && slot.locked_by != reader) return ValidateResult::kInvalid;
  return ValidateResult::kValid;
}

std::optional<SlotView> ObjectStore::evict(ObjectId oid, TxnId committer) {
  MutexLock lk(mu_);
  auto it = slots_.find(oid);
  if (it == slots_.end()) return std::nullopt;
  HYFLOW_ASSERT_MSG(!it->second.locked_by.valid() || it->second.locked_by == committer,
                    "evicting a slot locked by someone else");
  SlotView view{std::move(it->second.object), it->second.version, it->second.locked_by,
                it->second.locked_at};
  slots_.erase(it);
  return view;
}

SimTime ObjectStore::commit_in_place(ObjectId oid, TxnId txid, ObjectSnapshot object,
                                     Version version) {
  MutexLock lk(mu_);
  auto it = slots_.find(oid);
  if (it == slots_.end() || it->second.locked_by != txid) return 0;
  it->second.object = std::move(object);
  it->second.version = version;
  it->second.locked_by = kInvalidTxn;
  return std::exchange(it->second.locked_at, 0);
}

std::size_t ObjectStore::size() const {
  MutexLock lk(mu_);
  return slots_.size();
}

std::vector<ObjectId> ObjectStore::owned_ids() const {
  MutexLock lk(mu_);
  std::vector<ObjectId> ids;
  ids.reserve(slots_.size());
  for (const auto& [oid, slot] : slots_) ids.push_back(oid);
  return ids;
}

}  // namespace hyflow::dsm
