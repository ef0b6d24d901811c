// Shared harness for the paper-reproduction benches: paper-derived default
// parameters, per-workload tuned CL thresholds (§IV-A fixes the threshold at
// the observed throughput peak), CLI overrides, and table printers.
//
// Common CLI knobs (every bench binary):
//   --nodes=10,20,40,80     node sweep (or single value where applicable)
//   --workers=3             workers per node (saturating load generators)
//   --duration-ms=400       measurement window
//   --warmup-ms=150         warmup before the window
//   --repeats=3             repetitions (median by throughput reported)
//   --read-ratio-low=0.9    "low contention" read fraction   (§IV-A)
//   --read-ratio-high=0.1   "high contention" read fraction  (§IV-A)
//   --objects=6             shared objects per node          (§IV-A: 5..10)
//   --min-delay-us / --max-delay-us  link delays (default: paper 1..50 ms
//                           scaled 1 ms -> 50 us; see DESIGN.md)
//   --local-work-us=300     local execution per nested child
//   --seed=42
//   --json=FILE             machine-readable result file (default
//                           BENCH_<bench>.json; "none" disables)
//   --workloads=a,b         restrict multi-workload benches to a subset
//   --schedulers=rts,tfa    restrict the policy sweep (default: every
//                           policy registered in core::scheduler_names())
#pragma once

#include <string>
#include <vector>

#include "runtime/experiment.hpp"
#include "util/config.hpp"
#include "workloads/registry.hpp"

namespace hyflow::bench {

class BenchResult;

struct HarnessOptions {
  std::vector<std::int64_t> node_sweep{10, 20, 40, 80};
  int workers = 3;
  SimDuration measure = sim_ms(400);
  SimDuration warmup = sim_ms(150);
  int repeats = 3;
  double read_ratio_low = 0.9;
  double read_ratio_high = 0.1;
  int objects_per_node = 6;
  SimDuration min_delay = sim_us(50);
  SimDuration max_delay = sim_us(2500);
  SimDuration local_work = sim_us(300);
  int max_nested = 4;
  std::uint64_t seed = 42;
  bool verify = true;
  std::string bench_name;  // names the BENCH JSON; set by each binary
  std::string json_path;   // "" = BENCH_<bench>.json, "none"/"off" disables
  // Workload subset for benches that sweep every registered workload
  // (empty = all). Lets CI smoke runs measure one workload cheaply.
  std::vector<std::string> workloads;
  // Scheduler-policy subset for benches that sweep the zoo (empty = every
  // registered policy, canonical names, factory order).
  std::vector<std::string> schedulers;
  // When set, run_point appends every measured point here (labels:
  // workload/scheduler/nodes/read_ratio/threshold + the standard metrics).
  BenchResult* sink = nullptr;

  static HarnessOptions from_config(const Config& cfg);
};

// BenchResult for this run with the harness parameters stamped as metadata
// (seed, workers, window, delays, ...). Uses `opt.bench_name`.
BenchResult make_bench_result(const HarnessOptions& opt);

// Writes `result` to opt.json_path (default BENCH_<name>.json) unless
// disabled; prints the path so runs are discoverable from the console.
void write_bench_json(const BenchResult& result, const HarnessOptions& opt);

// The workloads this run sweeps: opt.workloads if given, else all registered.
std::vector<std::string> selected_workloads(const HarnessOptions& opt);

// The scheduler policies this run sweeps: opt.schedulers (canonicalized —
// an unknown name dies in make_scheduler with the valid list) if given,
// else every policy in core::scheduler_names().
std::vector<std::string> selected_schedulers(const HarnessOptions& opt);

// CL threshold at the per-benchmark throughput peak (found by the
// ablation bench; the paper determines it the same way).
std::uint32_t tuned_threshold(const std::string& workload);

// Runs one experiment point; repeats and reports the median by throughput.
runtime::ExperimentResult run_point(const HarnessOptions& opt, const std::string& workload,
                                    const std::string& scheduler, std::uint32_t nodes,
                                    double read_ratio,
                                    std::uint32_t threshold_override = 0);

// Printing helpers.
void print_header(const std::string& title, const HarnessOptions& opt);
std::string pct(double fraction);

}  // namespace hyflow::bench
