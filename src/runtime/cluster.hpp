// The simulated cluster: N nodes over a latency-modelled network.
//
// Construction wires every node's handler into the network and starts the
// dispatcher; `create_object` places initial objects (store slot at the
// owner, directory entry at the home node); `start_workers`/`stop_workers`
// drive a workload; `execute` runs a single transaction synchronously for
// examples and tests.
#pragma once

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "runtime/metrics.hpp"
#include "runtime/node.hpp"
#include "runtime/worker.hpp"

namespace hyflow::workloads {
class Workload;
}

namespace hyflow::runtime {

struct ClusterConfig {
  std::uint32_t nodes = 8;
  int workers_per_node = 2;
  int delivery_threads = 2;
  net::TopologyConfig topology;  // `nodes` is overridden to match
  core::SchedulerConfig scheduler;
  net::FaultPlan fault;  // fault injection (default off)
  std::uint64_t seed = 1;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::uint32_t size() const { return static_cast<std::uint32_t>(nodes_.size()); }
  Node& node(NodeId id) { return *nodes_.at(id); }
  net::Network& network() { return *network_; }
  const ClusterConfig& config() const { return cfg_; }

  // Places `obj` at `owner` and publishes it in the home-node directory.
  void create_object(std::unique_ptr<AbstractObject> obj, NodeId owner);

  // Locates the current owner's committed copy of an object by scanning
  // stores (post-quiesce audits only). Returns nullptr if absent.
  ObjectSnapshot committed_copy(ObjectId oid);

  // ---- workload driving ----
  void start_workers(workloads::Workload& workload);
  void stop_workers();

  // Runs one transaction synchronously on `node` (examples/tests).
  tfa::RunResult execute(NodeId node, std::uint32_t profile,
                         const std::function<void(tfa::Txn&)>& body);

  MetricsSnapshot total_metrics() const;
  // Cluster-wide commit-latency histogram (from per-node metrics); safe to
  // read live, not just after stop_workers().
  Histogram merged_latency() const;

  // Stops workers, unblocks pending calls, stops the network.
  void shutdown();

 private:
  ClusterConfig cfg_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Periodically expires unacknowledged Alg. 4 grants on every node so a
  // dropped hand-off re-serves the queue instead of stranding it.
  std::jthread maintenance_;
  bool shut_down_ = false;
};

}  // namespace hyflow::runtime
