// A worker thread: issues transactions for one node back-to-back (zero
// think time) until asked to stop. The paper drives each node with a pool
// of active transactions; a small number of saturating workers per node
// produces the same continuous offered load (see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <thread>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace hyflow::workloads {
class Workload;
}

namespace hyflow::runtime {

class Node;

class Worker {
 public:
  Worker(Node& node, workloads::Workload& workload, std::uint64_t seed);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void start();
  void request_stop();
  void join();

 private:
  void loop(std::stop_token st);

  Node& node_;
  workloads::Workload& workload_;
  Xoshiro256 rng_;
  std::jthread thread_;
};

}  // namespace hyflow::runtime
