// Per-node metrics: commit/abort counters broken down the way the paper's
// evaluation needs them.
//
//   * Throughput (Figs. 4/5/6) = root commits / wall time.
//   * Table I's "abort rate of nested transactions" = nested aborts caused
//     by a parent abort / total nested aborts.
//
// Counters are relaxed atomics (hot path); the commit-latency histogram is
// recorded by the TFA runtime under a per-node leaf mutex (one brief
// acquisition per root commit — negligible next to the commit round-trips)
// so live snapshots and measurement-window deltas include percentiles.
// Snapshots are plain structs so benches can diff two snapshots for a
// measurement window; the diff is saturating (a counter that appears to run
// backwards — e.g. around a crash window reset — clamps to 0 instead of
// wrapping to 2^64).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "tfa/abort.hpp"
#include "util/histogram.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hyflow::runtime {

struct MetricsSnapshot {
  std::uint64_t commits_root = 0;
  std::uint64_t commits_read_only = 0;
  std::uint64_t commits_write = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(tfa::AbortCause::kCauseCount)>
      aborts_root{};
  std::uint64_t nested_commits = 0;
  std::uint64_t nested_aborts_total = 0;
  std::uint64_t nested_aborts_parent_cause = 0;
  std::uint64_t nested_aborts_own_cause = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t handoffs_received = 0;
  std::uint64_t handoffs_sent = 0;
  std::uint64_t backoff_expired = 0;
  std::uint64_t not_interested = 0;
  std::uint64_t conflicts_seen = 0;
  std::uint64_t wrong_owner_retries = 0;
  std::uint64_t forwardings = 0;
  std::uint64_t open_nested_commits = 0;
  std::uint64_t compensations_run = 0;
  // Degradation counters (fault tolerance layer).
  std::uint64_t rpc_retries = 0;        // requests re-sent after a timeout
  std::uint64_t dedup_hits = 0;         // duplicate requests answered from cache
  std::uint64_t watchdog_aborts = 0;    // transactions aborted on retry exhaustion
  std::uint64_t grant_reforwards = 0;   // Alg. 4 grants re-forwarded after ack loss
  // Root-commit latency (ns), recorded at commit time. Bucket counts are
  // monotonic, so `after - before` yields the window's histogram.
  Histogram latency;

  std::uint64_t aborts_total() const {
    std::uint64_t sum = 0;
    for (auto v : aborts_root) sum += v;
    return sum;
  }

  MetricsSnapshot& operator+=(const MetricsSnapshot& other);
  MetricsSnapshot operator-(const MetricsSnapshot& other) const;

  // Table I: fraction of nested aborts caused by a parent abort.
  double nested_abort_rate() const {
    return nested_aborts_total == 0
               ? 0.0
               : static_cast<double>(nested_aborts_parent_cause) /
                     static_cast<double>(nested_aborts_total);
  }
};

class NodeMetrics {
 public:
  void add_commit(bool read_only) {
    commits_root_.fetch_add(1, std::memory_order_relaxed);
    (read_only ? commits_read_only_ : commits_write_).fetch_add(1, std::memory_order_relaxed);
  }
  void add_root_abort(tfa::AbortCause cause) {
    aborts_root_[static_cast<std::size_t>(cause)].fetch_add(1, std::memory_order_relaxed);
  }
  void add_nested_commit() { nested_commits_.fetch_add(1, std::memory_order_relaxed); }
  void add_nested_abort(bool parent_cause, std::uint64_t n = 1) {
    nested_aborts_total_.fetch_add(n, std::memory_order_relaxed);
    (parent_cause ? nested_aborts_parent_cause_ : nested_aborts_own_cause_)
        .fetch_add(n, std::memory_order_relaxed);
  }
  void add_enqueued() { enqueued_.fetch_add(1, std::memory_order_relaxed); }
  void add_handoff_received() { handoffs_received_.fetch_add(1, std::memory_order_relaxed); }
  void add_handoff_sent(std::uint64_t n = 1) {
    handoffs_sent_.fetch_add(n, std::memory_order_relaxed);
  }
  void add_backoff_expired() { backoff_expired_.fetch_add(1, std::memory_order_relaxed); }
  void add_not_interested() { not_interested_.fetch_add(1, std::memory_order_relaxed); }
  void add_conflict_seen() { conflicts_seen_.fetch_add(1, std::memory_order_relaxed); }
  void add_wrong_owner_retry() { wrong_owner_retries_.fetch_add(1, std::memory_order_relaxed); }
  void add_forwarding() { forwardings_.fetch_add(1, std::memory_order_relaxed); }
  void add_open_nested_commit() {
    open_nested_commits_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_compensation_run() { compensations_run_.fetch_add(1, std::memory_order_relaxed); }
  void add_rpc_retry() { rpc_retries_.fetch_add(1, std::memory_order_relaxed); }
  void add_dedup_hit() { dedup_hits_.fetch_add(1, std::memory_order_relaxed); }
  void add_watchdog_abort() { watchdog_aborts_.fetch_add(1, std::memory_order_relaxed); }
  void add_grant_reforward() { grant_reforwards_.fetch_add(1, std::memory_order_relaxed); }

  // Records one root-commit latency (ns) into the per-node histogram.
  void record_latency(std::uint64_t ns);

  MetricsSnapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> commits_root_{0};
  std::atomic<std::uint64_t> commits_read_only_{0};
  std::atomic<std::uint64_t> commits_write_{0};
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(tfa::AbortCause::kCauseCount)>
      aborts_root_{};
  std::atomic<std::uint64_t> nested_commits_{0};
  std::atomic<std::uint64_t> nested_aborts_total_{0};
  std::atomic<std::uint64_t> nested_aborts_parent_cause_{0};
  std::atomic<std::uint64_t> nested_aborts_own_cause_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> handoffs_received_{0};
  std::atomic<std::uint64_t> handoffs_sent_{0};
  std::atomic<std::uint64_t> backoff_expired_{0};
  std::atomic<std::uint64_t> not_interested_{0};
  std::atomic<std::uint64_t> conflicts_seen_{0};
  std::atomic<std::uint64_t> wrong_owner_retries_{0};
  std::atomic<std::uint64_t> forwardings_{0};
  std::atomic<std::uint64_t> open_nested_commits_{0};
  std::atomic<std::uint64_t> compensations_run_{0};
  std::atomic<std::uint64_t> rpc_retries_{0};
  std::atomic<std::uint64_t> dedup_hits_{0};
  std::atomic<std::uint64_t> watchdog_aborts_{0};
  std::atomic<std::uint64_t> grant_reforwards_{0};
  mutable Mutex latency_mu_{LockRank::kMetrics, "metrics-latency"};
  Histogram latency_ GUARDED_BY(latency_mu_);
};

}  // namespace hyflow::runtime
