// Scheduler-comparison example: runs the same workload under every
// registered policy (RTS, TFA, TFA+Backoff, Bi-interval, Greedy,
// Karma/Polka, steal-on-abort — see docs/SCHEDULERS.md) on identical
// clusters and prints a side-by-side summary — a minimal, self-contained
// version of the paper's evaluation loop, and a template for plugging a
// *custom* policy into the runtime (see core::Scheduler; a row of the
// registry in core/scheduler.cpp is the only place to add one).
//
//   ./build/examples/scheduler_comparison [--workload=bank] [--nodes=10]
//   [--read-ratio=0.1] [--duration-ms=400]
#include <cstdio>

#include "core/scheduler.hpp"
#include "runtime/experiment.hpp"
#include "util/config.hpp"
#include "workloads/registry.hpp"

using namespace hyflow;

int main(int argc, char** argv) {
  const auto cli = Config::from_args(argc, argv);
  const auto workload_name = cli.get_string("workload", "bank");
  const auto nodes = static_cast<std::uint32_t>(cli.get_int("nodes", 10));
  const double read_ratio = cli.get_double("read-ratio", 0.1);

  std::printf("workload=%s nodes=%u read-ratio=%.2f\n\n", workload_name.c_str(), nodes,
              read_ratio);
  std::printf("%-14s %10s %10s %10s %10s %10s %10s\n", "scheduler", "txn/s", "aborts/c",
              "nested-ar", "enqueued", "handoffs", "msgs/c");

  for (const auto& scheduler : core::scheduler_names()) {
    runtime::ExperimentConfig cfg;
    cfg.cluster.nodes = nodes;
    cfg.cluster.workers_per_node = 3;
    cfg.cluster.scheduler.kind = scheduler;
    cfg.cluster.scheduler.cl_threshold =
        static_cast<std::uint32_t>(cli.get_int("threshold", 4));
    cfg.warmup = sim_ms(cli.get_int("warmup-ms", 150));
    cfg.measure = sim_ms(cli.get_int("duration-ms", 400));

    workloads::WorkloadConfig wcfg;
    wcfg.read_ratio = read_ratio;
    auto workload = workloads::make_workload(workload_name, wcfg);
    const auto r = runtime::run_experiment(*workload, cfg);

    const double commits = std::max<double>(1.0, static_cast<double>(r.delta.commits_root));
    std::printf("%-14s %10.1f %10.2f %9.1f%% %10llu %10llu %10.1f%s\n", scheduler.c_str(),
                r.throughput, static_cast<double>(r.delta.aborts_total()) / commits,
                r.nested_abort_rate * 100.0,
                static_cast<unsigned long long>(r.delta.enqueued),
                static_cast<unsigned long long>(r.delta.handoffs_received),
                static_cast<double>(r.messages) / commits,
                r.verified ? "" : "  VERIFY-FAILED");
  }
  std::printf(
      "\ncolumns: aborts/c = root aborts per commit; nested-ar = parent-caused share of\n"
      "nested aborts (Table I metric); msgs/c = network messages per commit.\n");
  return 0;
}
