// hyflow_run — the repository's general-purpose experiment driver: run any
// workload on any scheduler with every knob exposed, print the experiment
// summary and optionally a per-node cluster report and latency percentiles.
//
//   hyflow_run --workload=bank --scheduler=rts --nodes=20 --read-ratio=0.1
//              --duration-ms=500 [--report] [--latency]
//
// Knobs (defaults in parentheses): --workload(bank) --scheduler(rts)
// --nodes(10) --workers(3) --read-ratio(0.5) --objects(6) --max-nested(4)
// --local-work-us(300) --threshold(tuned per workload)
// --min-delay-us(50) --max-delay-us(2500) --jitter(0.0)
// --warmup-ms(150) --duration-ms(400) --seed(42)
//
// Fault injection (see EXPERIMENTS.md): --fault-drop(0.0)
// --fault-dup(0.0) --fault-delay(0.0) --fault-delay-spike-us(2000)
// --fault-seed(1) --fault-partition-start-ms/-end-ms/-cut
// --fault-crash-node/-start-ms/-end-ms
#include <cstdio>

#include <thread>

#include "runtime/experiment.hpp"
#include "runtime/report.hpp"
#include "util/config.hpp"
#include "workloads/registry.hpp"

using namespace hyflow;

namespace {

std::uint32_t default_threshold(const std::string& workload) {
  if (workload == "vacation") return 8;
  if (workload == "bank") return 4;
  return 4;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = Config::from_args(argc, argv);
  if (cli.get_bool("help", false)) {
    std::printf("see the header of tools/hyflow_run.cpp for the full knob list\n");
    return 0;
  }

  const auto workload_name = cli.get_string("workload", "bank");
  const auto scheduler = cli.get_string("scheduler", "rts");
  const double read_ratio = cli.get_double("read-ratio", 0.5);

  runtime::ExperimentConfig cfg;
  cfg.cluster.nodes = static_cast<std::uint32_t>(cli.get_int("nodes", 10));
  cfg.cluster.workers_per_node = static_cast<int>(cli.get_int("workers", 3));
  cfg.cluster.scheduler.kind = scheduler;
  cfg.cluster.scheduler.cl_threshold = static_cast<std::uint32_t>(
      cli.get_int("threshold", default_threshold(workload_name)));
  cfg.cluster.topology.min_delay = sim_us(cli.get_int("min-delay-us", 50));
  cfg.cluster.topology.max_delay = sim_us(cli.get_int("max-delay-us", 2500));
  cfg.cluster.topology.jitter = cli.get_double("jitter", 0.0);
  cfg.cluster.topology.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  cfg.cluster.seed = cfg.cluster.topology.seed;
  cfg.cluster.fault = net::FaultPlan::from_config(cli);
  cfg.warmup = sim_ms(cli.get_int("warmup-ms", 150));
  cfg.measure = sim_ms(cli.get_int("duration-ms", 400));

  workloads::WorkloadConfig wcfg;
  wcfg.read_ratio = read_ratio;
  wcfg.objects_per_node = static_cast<int>(cli.get_int("objects", 6));
  wcfg.max_nested = static_cast<int>(cli.get_int("max-nested", 4));
  wcfg.local_work = sim_us(cli.get_int("local-work-us", 300));
  wcfg.seed = cfg.cluster.seed;

  auto workload = workloads::make_workload(workload_name, wcfg);

  // Run with an inline cluster (not run_experiment) so the report and
  // latency histogram can be collected before teardown.
  runtime::Cluster cluster(cfg.cluster);
  workload->setup(cluster);
  cluster.start_workers(*workload);
  std::this_thread::sleep_for(to_chrono(cfg.warmup));
  const auto before = cluster.total_metrics();
  const auto msgs_before = cluster.network().stats().messages.load();
  const SimTime t0 = sim_now();
  std::this_thread::sleep_for(to_chrono(cfg.measure));
  const auto after = cluster.total_metrics();
  const auto msgs_after = cluster.network().stats().messages.load();
  const SimTime t1 = sim_now();
  cluster.stop_workers();

  const auto delta = after - before;
  const double secs = static_cast<double>(t1 - t0) * 1e-9;
  const double throughput = static_cast<double>(delta.commits_root) / secs;
  const bool verified = workload->verify(cluster);

  std::printf("%s on %s: %u nodes, read-ratio %.2f\n", workload_name.c_str(),
              scheduler.c_str(), cluster.size(), read_ratio);
  std::printf("throughput          %10.1f txn/s\n", throughput);
  std::printf("aborts/commit       %10.2f\n",
              delta.commits_root
                  ? static_cast<double>(delta.aborts_total()) /
                        static_cast<double>(delta.commits_root)
                  : 0.0);
  std::printf("nested abort rate   %9.1f%%  (parent-caused share, Table I)\n",
              delta.nested_abort_rate() * 100.0);
  std::printf("enqueued/hand-offs  %10llu / %llu\n",
              static_cast<unsigned long long>(delta.enqueued),
              static_cast<unsigned long long>(delta.handoffs_received));
  std::printf("messages            %10llu (%.1f per commit)\n",
              static_cast<unsigned long long>(msgs_after - msgs_before),
              delta.commits_root ? static_cast<double>(msgs_after - msgs_before) /
                                       static_cast<double>(delta.commits_root)
                                 : 0.0);
  std::printf("invariants          %10s\n", verified ? "verified" : "VIOLATED");

  if (cli.get_bool("latency", false)) {
    const auto lat = cluster.merged_latency();
    std::printf("latency ms          p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
                static_cast<double>(lat.value_at_percentile(50)) / 1e6,
                static_cast<double>(lat.value_at_percentile(90)) / 1e6,
                static_cast<double>(lat.value_at_percentile(99)) / 1e6,
                static_cast<double>(lat.max()) / 1e6);
  }
  if (cli.get_bool("report", false)) {
    std::printf("\n%s", runtime::collect_report(cluster).to_string().c_str());
  }

  cluster.shutdown();
  return verified ? 0 : 1;
}
