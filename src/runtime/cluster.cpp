#include "runtime/cluster.hpp"

#include "dsm/directory.hpp"
#include "util/assert.hpp"
#include "workloads/workload.hpp"

namespace hyflow::runtime {

Cluster::Cluster(const ClusterConfig& cfg) : cfg_(cfg) {
  HYFLOW_ASSERT(cfg.nodes >= 1);
  net::TopologyConfig topo = cfg.topology;
  topo.nodes = cfg.nodes;
  network_ = std::make_unique<net::Network>(net::Topology(topo), cfg.delivery_threads,
                                            cfg.fault);

  nodes_.reserve(cfg.nodes);
  for (NodeId id = 0; id < cfg.nodes; ++id) {
    nodes_.push_back(std::make_unique<Node>(id, *network_, cfg.scheduler));
    network_->register_handler(id, [node = nodes_.back().get()](net::Message msg) {
      node->handle_message(std::move(msg));
    });
  }
  network_->start();
  maintenance_ = std::jthread([this](std::stop_token st) {
    while (!st.stop_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const SimTime now = sim_now();
      for (auto& n : nodes_) n->runtime().sweep_grants(now);
    }
  });
}

Cluster::~Cluster() { shutdown(); }

void Cluster::create_object(std::unique_ptr<AbstractObject> obj, NodeId owner) {
  HYFLOW_ASSERT(owner < size());
  const ObjectId oid = obj->id();
  HYFLOW_ASSERT_MSG(oid.valid(), "objects need a non-zero id");
  ObjectSnapshot snapshot{std::move(obj)};
  node(owner).store().install(snapshot, kInitialVersion);
  node(dsm::home_node(oid, size())).directory().publish(oid, owner);
}

ObjectSnapshot Cluster::committed_copy(ObjectId oid) {
  const NodeId home = dsm::home_node(oid, size());
  const auto owner = node(home).directory().lookup(oid);
  if (owner) {
    if (auto slot = node(*owner).store().get(oid)) return slot->object;
  }
  // Directory and store can disagree transiently around shutdown; fall back
  // to a scan.
  for (auto& n : nodes_) {
    if (auto slot = n->store().get(oid)) return slot->object;
  }
  return nullptr;
}

void Cluster::start_workers(workloads::Workload& workload) {
  HYFLOW_ASSERT_MSG(workers_.empty(), "workers already running");
  std::uint64_t seed = cfg_.seed * 0x9e3779b97f4a7c15ull + 1;
  for (NodeId id = 0; id < size(); ++id) {
    for (int w = 0; w < cfg_.workers_per_node; ++w) {
      workers_.push_back(std::make_unique<Worker>(node(id), workload, seed++));
    }
  }
  for (auto& w : workers_) w->start();
}

void Cluster::stop_workers() {
  if (workers_.empty()) return;
  // Graceful stop: workers finish their current transaction. Every RPC wait
  // is reply-bounded while the network runs, and a parked transaction's
  // backoff is capped, so joins converge without cutting pending calls —
  // cutting them would eat lock-grant replies mid-commit and leak locks.
  for (auto& w : workers_) w->request_stop();
  for (auto& w : workers_) w->join();
  workers_.clear();
  // Drain in-flight messages (ownership transfers, unlock notifications) so
  // post-run audits see a quiescent, consistent cluster.
  network_->wait_idle();
}

tfa::RunResult Cluster::execute(NodeId node_id, std::uint32_t profile,
                                const std::function<void(tfa::Txn&)>& body) {
  return node(node_id).runtime().run(profile, body);
}

MetricsSnapshot Cluster::total_metrics() const {
  MetricsSnapshot total;
  for (const auto& n : nodes_) total += n->metrics().snapshot();
  return total;
}

Histogram Cluster::merged_latency() const { return total_metrics().latency; }

void Cluster::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  stop_workers();
  if (maintenance_.joinable()) {
    maintenance_.request_stop();
    maintenance_.join();
  }
  for (auto& n : nodes_) n->close_pending();
  network_->stop();
}

}  // namespace hyflow::runtime
