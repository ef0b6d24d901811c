// A logical cluster node: TM proxy, object store, directory shard,
// scheduler, stats table, logical clock and the TFA protocol engine, glued
// to the network through the Comm facade.
//
// Message flow: Network delivery threads call handle_message(); replies are
// routed to the node's pending calls (orphans trigger the NotInterested
// protocol), requests go to the TFA runtime's owner-side handlers. Worker
// threads run transactions through `runtime().run(...)`.
#pragma once

#include <memory>

#include "core/contention.hpp"
#include "core/scheduler.hpp"
#include "dsm/coherence.hpp"
#include "dsm/directory.hpp"
#include "dsm/object_store.hpp"
#include "net/comm.hpp"
#include "net/network.hpp"
#include "net/reply_cache.hpp"
#include "net/rpc.hpp"
#include "runtime/metrics.hpp"
#include "tfa/node_clock.hpp"
#include "tfa/stats_table.hpp"
#include "tfa/tfa_runtime.hpp"

namespace hyflow::runtime {

class Node final : public net::Comm {
 public:
  Node(NodeId id, net::Network& network, const core::SchedulerConfig& scheduler);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // ---- net::Comm ----
  NodeId self() const override { return id_; }
  std::uint32_t cluster_size() const override { return network_.topology().node_count(); }
  net::RequestCall request(NodeId to, net::Payload payload) override;
  void post(NodeId to, net::Payload payload) override;
  void reply(const net::Message& request, net::Payload payload) override;
  void reply_routed(NodeId to, std::uint64_t reply_to, net::Payload payload) override;
  void resend(NodeId to, std::uint64_t msg_id, std::uint32_t attempt,
              net::Payload payload) override;

  // Entry point registered with the network.
  void handle_message(net::Message msg);

  // Unblocks every worker waiting on an RPC; call before joining workers.
  void close_pending();

  tfa::TfaRuntime& runtime() { return *runtime_; }
  dsm::ObjectStore& store() { return store_; }
  dsm::DirectoryShard& directory() { return directory_; }
  core::Scheduler& scheduler() { return *scheduler_; }
  NodeMetrics& metrics() { return metrics_; }
  const NodeMetrics& metrics() const { return metrics_; }
  tfa::NodeClock& clock() { return clock_; }
  tfa::StatsTable& stats() { return stats_; }

 private:
  net::Message envelope(NodeId to, net::Payload payload) const;

  NodeId id_;
  net::Network& network_;
  net::PendingCalls pending_;
  net::ReplyCache reply_cache_;  // request dedup for at-least-once delivery
  dsm::ObjectStore store_;
  dsm::DirectoryShard directory_;
  tfa::NodeClock clock_;
  tfa::StatsTable stats_;
  core::ContentionTracker contention_;
  std::unique_ptr<core::Scheduler> scheduler_;
  dsm::OwnerResolver resolver_;
  NodeMetrics metrics_;
  std::unique_ptr<tfa::TfaRuntime> runtime_;
};

}  // namespace hyflow::runtime
