#include "dsm/coherence.hpp"

#include "util/log.hpp"

namespace hyflow::dsm {

std::optional<NodeId> OwnerResolver::find_owner(ObjectId oid) {
  if (store_.owns(oid)) return comm_.self();
  {
    MutexLock lk(mu_);
    auto it = hints_.find(oid);
    if (it != hints_.end()) return it->second;
  }
  const NodeId home = home_node(oid, comm_.cluster_size());
  std::optional<NodeId> owner;
  if (home == comm_.self()) {
    owner = shard_.lookup(oid);
  } else {
    auto call = comm_.request(home, net::FindOwnerRequest{oid});
    const auto reply = call.await();
    if (!reply) return std::nullopt;  // shutdown, or retry budget exhausted
    const auto& resp = std::get<net::FindOwnerResponse>(reply->payload);
    if (resp.known) owner = resp.owner;
  }
  if (!owner) {
    HYFLOW_WARN("find_owner: object ", oid.value, " unknown to directory");
    return std::nullopt;
  }
  note_owner(oid, *owner);
  return owner;
}

void OwnerResolver::invalidate(ObjectId oid) {
  MutexLock lk(mu_);
  hints_.erase(oid);
}

void OwnerResolver::note_owner(ObjectId oid, NodeId owner) {
  MutexLock lk(mu_);
  hints_[oid] = owner;
}

}  // namespace hyflow::dsm
