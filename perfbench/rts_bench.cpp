// Closed-loop benchmark of a 4-node RTS cluster, timed from outside.
//
// One client thread per node calls Workload::next_op and then
// TfaRuntime::run back to back with zero think time (as runtime::Worker
// does), and stamps every call. In traced mode (and when a slowdown is
// injected) each Op::body is wrapped so the start and end of every attempt's
// body are stamped too, which splits a transaction's latency into
//   wasted  = run call -> start of the committing attempt's body
//             (aborted attempts, abort handling, stalls),
//   exec    = the committing attempt's body (opens, nested children, work),
//   commit  = body return -> run return (lock/validate/register/publish),
// without touching the library. Layer counters come from the public
// Cluster::total_metrics(), Network::stats() and Scheduler::total_queued().
//
// Prints one JSON object with every metric it computed; perfbench/run.py
// builds this program, selects the metrics BENCHMARK.json names and prints
// the result line. See README.md in this directory for the metric list.
//
//   rts_bench --workload bank-high --seed 1 --seconds 50 --trace 0
//             [--inject-delay-us US] [--trace-out FILE]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "runtime/cluster.hpp"
#include "util/json_writer.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace hyflow;

struct WorkloadSpec {
  const char* name;
  const char* kind;  // workloads::make_workload name
  double read_ratio;
  SimDuration min_delay;
  SimDuration max_delay;
  SimDuration local_work;  // per closed-nested child
  // A transaction that has not committed this long after its first attempt
  // counts as failed (starvation), whether or not it commits later.
  SimDuration latency_limit;
};

// Why these, and why bank-high, list-low and dht-fast are not in
// BENCHMARK.json: README.md. Links 50-2500 us are the paper's 1-50 ms scaled
// 1 ms -> 50 us, as in bench/common.hpp.
constexpr WorkloadSpec kWorkloads[] = {
    {"bank-mid", "bank", 0.5, sim_us(50), sim_us(2500), sim_us(300), sim_ms(5000)},
    {"bank-high", "bank", 0.1, sim_us(50), sim_us(2500), sim_us(300), sim_ms(5000)},
    {"bst-low", "bst", 0.9, sim_us(50), sim_us(2500), sim_us(300), sim_ms(5000)},
    {"list-low", "linked-list", 0.9, sim_us(50), sim_us(2500), sim_us(300), sim_ms(5000)},
    {"dht-fast", "dht", 0.9, sim_us(5), sim_us(20), 0, sim_ms(1000)},
};

constexpr std::uint32_t kNodes = 4;
// CL threshold at the throughput peak bench/common.cpp's tuned_threshold()
// records for bank, bst, linked-list and dht.
constexpr std::uint32_t kClThreshold = 4;
constexpr int kObjectsPerNode = 6;
constexpr int kMaxNested = 4;
// Node placement (hence every link delay) is fixed; --seed varies only the
// generated operations, so seeds compare the same system.
constexpr std::uint64_t kTopologySeed = 42;
// Chosen from the 100 ms series (runtime.settle_ms, README.md).
constexpr SimDuration kWarmup = sim_ms(1000);
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 101;
constexpr SimDuration kBucket = sim_ms(100);
constexpr SimDuration kQueueSamplePeriod = sim_ms(1);
// Traced transactions written to the trace file (all are measured).
constexpr std::size_t kMaxWrittenTxns = 20000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  SimDuration inject_delay = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "rts_bench: %s\n", msg);
  std::fprintf(stderr,
               "usage: rts_bench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--inject-delay-us US] [--trace-out FILE]\n");
  std::exit(2);
}

double parse_number(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0)
    usage(("bad value for " + flag).c_str());
  return v;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_number(flag, v));
    } else if (flag == "--seconds") {
      o.seconds = parse_number(flag, v);
    } else if (flag == "--trace") {
      o.trace = parse_number(flag, v) != 0;
    } else if (flag == "--inject-delay-us") {
      o.inject_delay = sim_us(static_cast<std::int64_t>(parse_number(flag, v)));
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

// ---------------------------------------------------------------------------
// Client-side records
// ---------------------------------------------------------------------------

struct TxnRecord {
  SimTime call = 0;  // run() called
  SimTime ret = 0;   // run() returned
  // Body of the last attempt (only when bodies are wrapped).
  SimTime exec_start = 0;
  SimTime exec_end = 0;
  std::uint32_t attempts = 0;
  std::uint32_t aborts_in_exec = 0;  // attempts whose body threw
  bool committed = false;
  bool is_read = false;
};

enum class SpanKind : std::uint8_t {
  kNextOp,
  kTxn,
  kExec,
  kCommit,
  kWastedExec,
  kWastedCommit
};

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kNextOp: return "next_op";
    case SpanKind::kTxn: return "txn";
    case SpanKind::kExec: return "attempt.exec";
    case SpanKind::kCommit: return "attempt.commit";
    case SpanKind::kWastedExec:
    case SpanKind::kWastedCommit: return "attempt.wasted";
  }
  return "?";
}

struct Span {
  SimTime start;
  SimTime end;
  std::uint64_t txn;  // index into the client's records; next_op: the txn it fed
  SpanKind kind;
};

struct AttemptStamp {
  SimTime start = 0;
  SimTime end = 0;
  bool threw = false;
};

struct Client {
  NodeId node = 0;
  Xoshiro256 rng;
  std::vector<TxnRecord> txns;
  std::vector<Span> spans;
  // next_op calls that started inside the window.
  std::uint64_t next_op_calls = 0;
  SimDuration next_op_ns = 0;
  std::string error;  // what ended the loop early, if anything did
};

struct Shared {
  workloads::Workload* workload = nullptr;
  runtime::Cluster* cluster = nullptr;
  bool wrap = false;
  bool trace = false;
  SimDuration inject_delay = 0;
  SimDuration latency_limit = 0;
  SimTime window_start = 0;  // planned window (next_op accounting)
  SimTime window_end = 0;
  std::atomic<bool> stop_new{false};
};

void client_loop(Client& c, Shared& sh) {
  tfa::TfaRuntime& rt = sh.cluster->node(c.node).runtime();
  std::vector<AttemptStamp> stamps;
  while (!sh.stop_new.load(std::memory_order_acquire)) {
    const SimTime op0 = sim_now();
    workloads::Workload::Op op = sh.workload->next_op(c.node, c.rng);
    const SimTime op1 = sim_now();
    if (op0 >= sh.window_start && op0 < sh.window_end) {
      ++c.next_op_calls;
      c.next_op_ns += op1 - op0;
    }
    const std::uint64_t idx = c.txns.size();
    if (sh.trace) c.spans.push_back({op0, op1, idx, SpanKind::kNextOp});

    stamps.clear();
    std::function<void(tfa::Txn&)> wrapped;
    if (sh.wrap) {
      wrapped = [&stamps, &op, &sh](tfa::Txn& tx) {
        stamps.push_back({sim_now(), 0, false});
        if (sh.inject_delay > 0) std::this_thread::sleep_for(to_chrono(sh.inject_delay));
        try {
          op.body(tx);
        } catch (...) {
          stamps.back().end = sim_now();
          stamps.back().threw = true;
          throw;
        }
        stamps.back().end = sim_now();
      };
    }
    TxnRecord rec;
    rec.is_read = op.is_read;
    rec.call = sim_now();
    const SimTime call = rec.call;
    const auto result =
        rt.run(op.profile, sh.wrap ? wrapped : op.body, [&sh, call] {
          return !sh.stop_new.load(std::memory_order_relaxed) ||
                 sim_now() - call < sh.latency_limit;
        });
    rec.ret = sim_now();
    rec.committed = result.committed;
    rec.attempts = result.attempts;
    if (sh.wrap && !stamps.empty()) {
      rec.attempts = static_cast<std::uint32_t>(stamps.size());
      for (const auto& s : stamps) rec.aborts_in_exec += s.threw ? 1 : 0;
      rec.exec_start = stamps.back().start;
      rec.exec_end = stamps.back().end;
    }
    if (sh.trace) {
      c.spans.push_back({rec.call, rec.ret, idx, SpanKind::kTxn});
      for (std::size_t i = 0; i < stamps.size(); ++i) {
        const bool final_commit = rec.committed && i + 1 == stamps.size();
        if (final_commit) {
          c.spans.push_back({stamps[i].start, stamps[i].end, idx, SpanKind::kExec});
          c.spans.push_back({stamps[i].end, rec.ret, idx, SpanKind::kCommit});
        } else {
          const SimTime end = i + 1 < stamps.size() ? stamps[i + 1].start : rec.ret;
          const SpanKind kind =
              stamps[i].threw ? SpanKind::kWastedExec : SpanKind::kWastedCommit;
          c.spans.push_back({stamps[i].start, end, idx, kind});
        }
      }
    }
    c.txns.push_back(rec);
  }
}

// ---------------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------------

double ms(SimDuration ns) { return static_cast<double>(ns) / 1e6; }

// Nearest-rank percentile of a sorted sample (q in [0,1]).
SimDuration percentile(const std::vector<SimDuration>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct Usage {
  double cpu_us = 0;
  double ctx_switches = 0;
};

Usage read_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

struct NetCounters {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t object_payloads = 0;
};

NetCounters read_net(const net::Network& net) {
  const auto& s = net.stats();
  return {s.messages.load(), s.bytes.load(), s.object_payloads.load()};
}

struct QueueSample {
  SimTime at;
  std::vector<std::uint32_t> per_node;
};

void sample_queues(runtime::Cluster& cluster, std::vector<QueueSample>& out,
                   const std::atomic<bool>& stop) {
  SimTime next = sim_now();
  while (!stop.load(std::memory_order_acquire)) {
    QueueSample s{sim_now(), {}};
    for (NodeId id = 0; id < cluster.size(); ++id) {
      const std::size_t queued = cluster.node(id).scheduler().total_queued();
      s.per_node.push_back(static_cast<std::uint32_t>(queued));
    }
    out.push_back(std::move(s));
    next += kQueueSamplePeriod;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(to_chrono(next)));
  }
}

// Chrome trace-event JSON (chrome://tracing, Perfetto). Timestamps are in
// microseconds from `origin`.
void write_trace(const std::string& path, const std::vector<Client>& clients,
                 const std::vector<QueueSample>& queues, SimTime origin, SimTime t0,
                 SimTime t1) {
  JsonWriter w(0);
  w.begin_object().key("traceEvents").begin_array();
  const auto us = [origin](SimTime t) { return static_cast<double>(t - origin) / 1e3; };
  const std::size_t per_client = kMaxWrittenTxns / std::max<std::size_t>(1, clients.size());
  for (std::size_t ci = 0; ci < clients.size(); ++ci) {
    const Client& c = clients[ci];
    std::size_t written = 0;
    std::uint64_t last_txn = ~0ull;
    for (const Span& s : c.spans) {
      if (s.end < t0 || s.start > t1) continue;
      if (s.txn != last_txn) {
        last_txn = s.txn;
        if (++written > per_client) break;
      }
      const TxnRecord& rec = c.txns[s.txn];
      w.begin_object()
          .field("name", span_name(s.kind))
          .field("ph", "X")
          .field("pid", 0)
          .field("tid", static_cast<std::int64_t>(ci))
          .field("ts", us(s.start))
          .field("dur", static_cast<double>(s.end - s.start) / 1e3)
          .key("args")
          .begin_object()
          .field("txn", static_cast<std::uint64_t>(ci) << 40 | s.txn);
      if (s.kind == SpanKind::kTxn) {
        w.field("attempts", static_cast<std::uint64_t>(rec.attempts))
            .field("committed", rec.committed)
            .field("read", rec.is_read);
      }
      if (s.kind == SpanKind::kWastedExec) w.field("aborted_in", "exec");
      if (s.kind == SpanKind::kWastedCommit) w.field("aborted_in", "commit");
      w.end_object().end_object();
    }
  }
  for (const QueueSample& q : queues) {
    if (q.at < t0 || q.at > t1) continue;
    w.begin_object().field("name", "queued").field("ph", "C").field("pid", 0);
    w.field("ts", us(q.at)).key("args").begin_object();
    for (std::size_t n = 0; n < q.per_node.size(); ++n)
      w.field("node" + std::to_string(n), static_cast<std::uint64_t>(q.per_node[n]));
    w.end_object().end_object();
  }
  w.end_array().end_object();
  write_text_file(path, w.str());
}

std::string metric_suffix(const char* cause) {
  std::string s = cause;
  std::replace(s.begin(), s.end(), '-', '_');
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads)
    if (opt.workload == w.name) spec = &w;
  if (!spec) usage(("unknown workload '" + opt.workload + "'").c_str());

  runtime::ClusterConfig ccfg;
  ccfg.nodes = kNodes;
  ccfg.scheduler.kind = "rts";
  ccfg.scheduler.cl_threshold = kClThreshold;
  ccfg.topology.min_delay = spec->min_delay;
  ccfg.topology.max_delay = spec->max_delay;
  ccfg.topology.seed = kTopologySeed;
  ccfg.seed = opt.seed;

  workloads::WorkloadConfig wcfg;
  wcfg.read_ratio = spec->read_ratio;
  wcfg.objects_per_node = kObjectsPerNode;
  wcfg.max_nested = kMaxNested;
  wcfg.local_work = spec->local_work;
  wcfg.seed = opt.seed;

  // ---- set-up, repeated; the last cluster is the one measured ----
  std::vector<double> setup_s;
  std::unique_ptr<runtime::Cluster> cluster;
  std::unique_ptr<workloads::Workload> workload;
  for (int k = 0; k < kSetups; ++k) {
    workload.reset();
    cluster.reset();
    const SimTime s0 = sim_now();
    cluster = std::make_unique<runtime::Cluster>(ccfg);
    workload = workloads::make_workload(spec->kind, wcfg);
    workload->setup(*cluster);
    setup_s.push_back(static_cast<double>(sim_now() - s0) / 1e9);
  }

  // ---- closed loop ----
  Shared sh;
  sh.workload = workload.get();
  sh.cluster = cluster.get();
  sh.wrap = opt.trace || opt.inject_delay > 0;
  sh.trace = opt.trace;
  sh.inject_delay = opt.inject_delay;
  sh.latency_limit = spec->latency_limit;

  const SimTime start = sim_now();
  const SimTime t0_plan = start + kWarmup;
  const SimTime t1_plan = t0_plan + static_cast<SimDuration>(opt.seconds * 1e9);
  sh.window_start = t0_plan;
  sh.window_end = t1_plan;

  std::vector<Client> clients(kNodes);
  std::uint64_t rng_seed = mix64(opt.seed ^ 0x5eedc11e47ull);
  for (NodeId id = 0; id < kNodes; ++id) {
    clients[id].node = id;
    clients[id].rng = Xoshiro256(rng_seed++);
  }
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back([&c, &sh] {
      try {
        client_loop(c, sh);
      } catch (const std::exception& e) {
        c.error = e.what();
      }
    });
  }

  std::vector<QueueSample> queue_samples;
  std::atomic<bool> sampler_stop{false};
  std::thread sampler;
  if (opt.trace)
    sampler = std::thread([&] { sample_queues(*cluster, queue_samples, sampler_stop); });

  const auto until = [](SimTime t) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(to_chrono(t)));
  };
  until(t0_plan);
  const SimTime t0 = sim_now();
  const runtime::MetricsSnapshot m0 = cluster->total_metrics();
  const NetCounters n0 = read_net(cluster->network());
  const Usage u0 = read_usage();
  until(t1_plan);
  const SimTime t1 = sim_now();
  const runtime::MetricsSnapshot m1 = cluster->total_metrics();
  const NetCounters n1 = read_net(cluster->network());
  const Usage u1 = read_usage();

  sh.stop_new.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  cluster->network().wait_idle();
  const SimTime drained = sim_now();
  if (sampler.joinable()) {
    sampler_stop.store(true, std::memory_order_release);
    sampler.join();
  }

  const SimTime v0 = sim_now();
  const bool verified = workload->verify(*cluster);
  const double verify_s = static_cast<double>(sim_now() - v0) / 1e9;
  cluster->shutdown();
  const std::uint64_t dropped_on_stop = cluster->network().stats().dropped_on_stop.load();

  // ---- end-to-end ----
  std::vector<std::string> errors;
  const double window_s = static_cast<double>(t1 - t0) / 1e9;
  std::vector<SimDuration> lat, lat_read, lat_write;
  std::uint64_t attempted = 0, failed = 0, early_stops = 0;
  double exec_ns = 0, commit_ns = 0, wasted_ns = 0;
  std::uint64_t attempts = 0, aborts_exec = 0, aborts_commit = 0;
  SimDuration max_inflight_age = 0;
  SimDuration max_latency = 0;
  std::vector<double> client_commits;
  // Commit latencies per 100 ms bucket, from the start of the warmup.
  const auto bucket_of = [start](SimTime t) {
    return static_cast<std::size_t>((t - start) / kBucket);
  };
  std::vector<std::vector<SimDuration>> buckets(bucket_of(t1) + 1);
  for (const Client& c : clients) {
    const std::size_t commits_before = lat.size();
    for (const TxnRecord& r : c.txns) {
      if (!r.committed && r.ret < t1) ++early_stops;
      if (r.call >= t0 && r.call < t1) {
        ++attempted;
        if (!r.committed || r.ret - r.call > spec->latency_limit) ++failed;
        max_latency = std::max(max_latency, r.ret - r.call);
      }
      if (r.call < t1 && (!r.committed || r.ret > t1))
        max_inflight_age = std::max(max_inflight_age, t1 - r.call);
      if (!r.committed) continue;
      if (r.ret < t1) buckets[bucket_of(r.ret)].push_back(r.ret - r.call);
      if (r.ret < t0 || r.ret >= t1) continue;
      const SimDuration l = r.ret - r.call;
      lat.push_back(l);
      (r.is_read ? lat_read : lat_write).push_back(l);
      attempts += r.attempts;
      aborts_exec += r.aborts_in_exec;
      aborts_commit += r.attempts - 1 - r.aborts_in_exec;
      if (sh.wrap) {
        exec_ns += static_cast<double>(r.exec_end - r.exec_start);
        commit_ns += static_cast<double>(r.ret - r.exec_end);
        wasted_ns += static_cast<double>(r.exec_start - r.call);
      }
    }
    client_commits.push_back(static_cast<double>(lat.size() - commits_before));
  }
  for (const Client& c : clients)
    if (!c.error.empty())
      errors.push_back("client on node " + std::to_string(c.node) + ": " + c.error);
  // run() returns uncommitted only once keep_going is false, i.e. after the
  // window for a transaction past its latency limit; earlier is a defect.
  if (early_stops > 0)
    errors.push_back(std::to_string(early_stops) + " transactions gave up inside the window");
  if (!verified) errors.push_back("Workload::verify failed");
  if (lat.empty()) errors.push_back("no transaction committed in the window");

  const auto commits = static_cast<double>(lat.size());
  const runtime::MetricsSnapshot dm = m1 - m0;
  const double cluster_commits = static_cast<double>(dm.commits_root);
  if (std::abs(cluster_commits - commits) > 2.0 * kNodes)
    errors.push_back("client-side commits " + std::to_string(lat.size()) +
                     " disagree with cluster commits " + std::to_string(dm.commits_root));

  std::sort(lat.begin(), lat.end());
  std::sort(lat_read.begin(), lat_read.end());
  std::sort(lat_write.begin(), lat_write.end());
  // A tail percentile is reported only where ten samples lie beyond it;
  // with fewer commits it falls back to the highest percentile that has.
  const auto tail = [&](double q) {
    return lat.size() > 10 ? std::min(q, (commits - 10.0) / commits) : 0.0;
  };
  const SimDuration p50 = percentile(lat, 0.5);

  std::vector<std::pair<std::string, double>> metrics;
  const auto put = [&metrics](std::string name, double v) {
    metrics.emplace_back(std::move(name), v);
  };
  const auto per_commit = [commits](double n) { return ratio(n, commits); };
  put("throughput_txn_s", commits / window_s);
  put("commit_p50_ms", ms(p50));
  put("commit_p90_ms", ms(percentile(lat, tail(0.90))));
  put("commit_p99_ms", ms(percentile(lat, tail(0.99))));
  put("commit_tail_pct", tail(0.99) * 100.0);
  put("commit_samples", commits);
  put("msgs_per_commit", per_commit(n1.messages - n0.messages));
  put("failed_frac", ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  put("setup_s", median_of(setup_s));

  // Degradation counters are reported on every run (fault-free runs should
  // read zero but are not asserted to).
  put("net.rpc_retries", static_cast<double>(dm.rpc_retries));
  put("net.dedup_hits", static_cast<double>(dm.dedup_hits));
  put("net.grant_reforwards", static_cast<double>(dm.grant_reforwards));
  put("net.dropped_on_stop", static_cast<double>(dropped_on_stop));
  put("net.bytes_per_commit", per_commit(n1.bytes - n0.bytes));
  for (std::size_t i = 1; i < dm.aborts_root.size(); ++i) {
    put("tfa.abort." + metric_suffix(tfa::abort_cause_name(static_cast<tfa::AbortCause>(i))) +
            "_per_commit",
        per_commit(dm.aborts_root[i]));
  }
  put("tfa.max_inflight_age_ms", ms(max_inflight_age));
  // Starvation, seen on every run rather than only past the latency limit:
  // the slowest transaction, and the commits of the client that got the
  // fewest as a share of the mean client's.
  put("tfa.max_latency_ms", ms(max_latency));
  put("tfa.min_client_share",
      ratio(*std::min_element(client_commits.begin(), client_commits.end()),
            commits / static_cast<double>(client_commits.size())));
  put("tfa.attempts_per_commit", per_commit(attempts));
  put("tfa.nested_abort_rate", dm.nested_abort_rate());
  put("tfa.forwardings_per_commit", per_commit(dm.forwardings));
  put("core.conflicts_per_commit", per_commit(dm.conflicts_seen));
  put("core.enqueued_per_commit", per_commit(dm.enqueued));
  put("core.backoff_expired_per_commit", per_commit(dm.backoff_expired));
  put("core.not_interested_per_commit", per_commit(dm.not_interested));
  put("core.handoff_ratio",
      ratio(static_cast<double>(dm.handoffs_received), static_cast<double>(dm.enqueued)));
  put("dsm.object_fetches_per_commit", per_commit(n1.object_payloads - n0.object_payloads));
  put("dsm.wrong_owner_retries_per_commit", per_commit(dm.wrong_owner_retries));
  put("runtime.cpu_us_per_commit", per_commit(u1.cpu_us - u0.cpu_us));
  put("runtime.ctx_switches_per_commit", per_commit(u1.ctx_switches - u0.ctx_switches));
  put("runtime.drain_ms", ms(drained - t1));

  // Steady-state series: 100 ms buckets of the window (and, for settle_ms,
  // of the warmup before it).
  const std::size_t first_window_bucket = bucket_of(t0) + 1;
  std::vector<double> window_counts;
  std::uint64_t slow = 0;
  const auto is_slow = [&](const std::vector<SimDuration>& b) {
    if (b.empty()) return true;
    std::vector<SimDuration> s = b;
    std::sort(s.begin(), s.end());
    return percentile(s, 0.5) > 3 * p50;
  };
  for (std::size_t i = first_window_bucket; i + 1 < buckets.size(); ++i) {
    window_counts.push_back(static_cast<double>(buckets[i].size()));
    slow += is_slow(buckets[i]) ? 1 : 0;
  }
  double cv = 0;
  if (!window_counts.empty()) {
    const double mean = std::accumulate(window_counts.begin(), window_counts.end(), 0.0) /
                        static_cast<double>(window_counts.size());
    double var = 0;
    for (double x : window_counts) var += (x - mean) * (x - mean);
    cv = ratio(std::sqrt(var / static_cast<double>(window_counts.size())), mean);
  }
  std::size_t settled = 0;  // first bucket after which the warmup has no slow bucket
  for (std::size_t i = 0; i < first_window_bucket && i < buckets.size(); ++i)
    if (is_slow(buckets[i])) settled = i + 1;
  put("runtime.bucket_cv", cv);
  put("runtime.slow_buckets", static_cast<double>(slow));
  put("runtime.settle_ms", ms(static_cast<SimDuration>(settled) * kBucket));

  put("workloads.read_p50_ms", ms(percentile(lat_read, 0.5)));
  put("workloads.write_p50_ms", ms(percentile(lat_write, 0.5)));
  put("workloads.read_share", per_commit(lat_read.size()));
  std::uint64_t next_op_calls = 0;
  SimDuration next_op_ns = 0;
  for (const Client& c : clients) {
    next_op_calls += c.next_op_calls;
    next_op_ns += c.next_op_ns;
  }
  put("workloads.next_op_us",
      ratio(static_cast<double>(next_op_ns) / 1e3, static_cast<double>(next_op_calls)));
  put("workloads.verify_s", verify_s);

  if (sh.wrap) {
    put("tfa.exec_ms", per_commit(exec_ns / 1e6));
    put("tfa.commit_ms", per_commit(commit_ns / 1e6));
    put("tfa.wasted_ms", per_commit(wasted_ns / 1e6));
    put("tfa.aborts_in_exec_per_commit", per_commit(aborts_exec));
    put("tfa.aborts_in_commit_per_commit", per_commit(aborts_commit));
  }

  if (opt.trace) {
    std::uint64_t depth_sum = 0, depth_max = 0, samples = 0;
    for (const QueueSample& q : queue_samples) {
      if (q.at < t0 || q.at > t1) continue;
      const std::uint64_t total = std::accumulate(q.per_node.begin(), q.per_node.end(), 0ull);
      depth_sum += total;
      depth_max = std::max(depth_max, total);
      ++samples;
    }
    put("core.queue_depth_mean",
        ratio(static_cast<double>(depth_sum), static_cast<double>(samples)));
    put("core.queue_depth_max", static_cast<double>(depth_max));
    put("runtime.traced_throughput_txn_s", commits / window_s);

    // Share of each client's window covered by its txn and next_op spans.
    double coverage = 1.0;
    for (const Client& c : clients) {
      SimDuration covered = 0;
      for (const Span& s : c.spans) {
        if (s.kind != SpanKind::kTxn && s.kind != SpanKind::kNextOp) continue;
        covered += std::max<SimDuration>(0, std::min(s.end, t1) - std::max(s.start, t0));
      }
      coverage = std::min(coverage, ratio(static_cast<double>(covered), window_s * 1e9));
    }
    put("runtime.trace_coverage", coverage);
    if (coverage < 0.99)
      errors.push_back("trace spans cover only " + std::to_string(coverage) + " of a window");
    if (!opt.trace_out.empty())
      write_trace(opt.trace_out, clients, queue_samples, start, t0, t1);
  }
  JsonWriter w(0);
  w.begin_object();
  w.field("workload", spec->name).field("seed", opt.seed).field("trace", opt.trace);
  w.key("provenance").begin_object();
  w.field("build_type", PERFBENCH_BUILD_TYPE)
      .field("compiler", PERFBENCH_COMPILER)
#ifdef HYFLOW_LOCK_RANK_CHECKS
      .field("hyflow_lock_rank", true)
#else
      .field("hyflow_lock_rank", false)
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
      .field("sanitizer", "yes")
#else
      .field("sanitizer", "none")
#endif
      .field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("nodes", static_cast<std::uint64_t>(kNodes))
      .field("clients", static_cast<std::uint64_t>(clients.size()))
      .field("scheduler", "rts")
      .field("cl_threshold", static_cast<std::uint64_t>(kClThreshold))
      .field("warmup_ms", ms(kWarmup))
      .field("window_s", window_s)
      .field("inject_delay_us", static_cast<double>(opt.inject_delay) / 1e3)
      .field("latency_limit_ms", ms(spec->latency_limit));
  w.end_object();
  w.field("correct", errors.empty()).key("errors").begin_array();
  for (const auto& e : errors) w.value(e);
  w.end_array();
  w.field("attempted", attempted).field("failed", failed);

  w.key("metrics").begin_object();
  for (const auto& [name, value] : metrics) w.field(name, value);
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
