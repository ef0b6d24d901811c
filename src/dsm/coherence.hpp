// Requester-side driver of the cache-coherence protocol: resolve an
// object's current owner ("Find_owner" in Alg. 2).
//
// Resolution order: (1) this node's own store — the TM proxy's local-cache
// check; (2) the per-node owner-hint cache, filled by previous fetches;
// (3) the object's home-node directory shard: read in place when the home
// is this node, otherwise asked by RPC. A `wrong_owner` response from a
// stale hint invalidates it and forces a fresh directory lookup.
#pragma once

#include <optional>
#include <unordered_map>

#include "dsm/directory.hpp"
#include "dsm/object_id.hpp"
#include "dsm/object_store.hpp"
#include "net/comm.hpp"
#include "util/mutex.hpp"

namespace hyflow::dsm {

class OwnerResolver {
 public:
  OwnerResolver(net::Comm& comm, const ObjectStore& local_store,
                const DirectoryShard& local_shard)
      : comm_(comm), store_(local_store), shard_(local_shard) {}

  // Blocking (performs a directory RPC on a cache miss whose home is
  // another node). Returns nullopt only if the directory has no entry or
  // the cluster is shutting down.
  std::optional<NodeId> find_owner(ObjectId oid);

  // Drop a hint that turned out stale.
  void invalidate(ObjectId oid);

  // A fetch response told us who the owner is (or we just became it).
  void note_owner(ObjectId oid, NodeId owner);

 private:
  net::Comm& comm_;
  const ObjectStore& store_;
  const DirectoryShard& shard_;
  Mutex mu_{LockRank::kOwnerHints, "OwnerResolver::mu"};
  std::unordered_map<ObjectId, NodeId> hints_ GUARDED_BY(mu_);
};

}  // namespace hyflow::dsm
