// Serving-layer observability (DESIGN.md §8): a lock-free log-bucketed
// latency histogram plus the aggregate counter snapshot the QueryService
// exposes. Per-query detail (JobStats, plan::Metrics with cache/queue
// fields) travels in each Response; this header is the cross-query
// aggregate view.
#ifndef GUMBO_SERVE_METRICS_H_
#define GUMBO_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "common/scheduler.h"
#include "serve/query_cache.h"

namespace gumbo::serve {

/// Log2-bucketed latency histogram over milliseconds. Record is wait-free
/// (relaxed atomics: buckets are independent counters and readers only
/// need eventual totals); Percentile answers from bucket geometric
/// midpoints, so quantiles carry at most one bucket (~2x) of resolution
/// error — the right tool for "did p99 explode", not for microbenchmark
/// deltas (bench_serve computes exact percentiles from raw samples).
class LatencyHistogram {
 public:
  /// Bucket b counts latencies in [2^(b-1), 2^b) ms; bucket 0 is < 1 ms,
  /// the last bucket is open-ended (~9 hours).
  static constexpr size_t kBuckets = 26;

  void Record(double ms);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_ms() const {
    return static_cast<double>(sum_us_.load(std::memory_order_relaxed)) / 1e3;
  }
  double mean_ms() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum_ms() / static_cast<double>(n);
  }
  /// Approximate p-quantile (p in [0, 1]) in milliseconds.
  double Percentile(double p) const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
};

/// Aggregate service counters, captured atomically enough for monitoring
/// (individual fields are consistent; cross-field arithmetic can be off
/// by in-flight queries).
struct ServiceStats {
  uint64_t submitted = 0;   ///< Submit calls accepted into a queue
  uint64_t completed = 0;   ///< responses fulfilled with an OK status
  uint64_t failed = 0;      ///< responses fulfilled with an error status
  uint64_t rejected = 0;    ///< submissions refused (service shut down)
  // ---- Failure handling (DESIGN.md §11) ----
  uint64_t deadline_exceeded = 0;  ///< responses failed past their deadline
  uint64_t cancelled = 0;          ///< responses failed by explicit cancel
  /// Submissions rejected under saturation (kLow class or already past
  /// deadline while the service was at its shed watermark); these return
  /// ResourceExhausted from Submit without ever queueing.
  uint64_t shed = 0;
  uint64_t task_retries = 0;    ///< task attempts re-run (jobs + planner)
  uint64_t faults_injected = 0; ///< injected faults across all queries
  /// Cache misses that waited on a concurrent planning of the same key
  /// instead of planning redundantly (single-flight coalescing).
  uint64_t plan_coalesced = 0;
  /// Plans actually lowered by the planner (single-flight leaders and
  /// cache-off queries). Every successful query is exactly one of:
  /// result hit, delta hit, cache hit, coalesced wait, or plans_built.
  uint64_t plans_built = 0;
  int peak_inflight = 0;    ///< observed peak of concurrent executions
  /// The query cache's counters; hits and misses count only queries that
  /// reach the plan path.
  QueryCache::Counters cache;
  // ---- Incremental delta evaluation (DESIGN.md §12) ----
  /// Queries answered straight from the result cache (no execution).
  uint64_t result_hits = 0;
  /// Queries answered by delta-maintaining a cached result instead of
  /// re-executing it from scratch.
  uint64_t delta_hits = 0;
  /// Total input delta rows those maintenance passes consumed.
  uint64_t delta_rows = 0;
  /// Mean wall time of a delta maintenance pass (ms).
  double mean_delta_ms = 0.0;
  // Latency quantiles (ms) over completed+failed queries, end to end
  // (submit -> response) and per phase.
  double total_p50_ms = 0.0;
  double total_p95_ms = 0.0;
  double total_p99_ms = 0.0;
  double mean_queue_ms = 0.0;
  double mean_plan_ms = 0.0;
  /// Execution net of scheduler stalls; the stall share is
  /// mean_sched_wait_ms (DESIGN.md §9 attribution fix), so "queries got
  /// slower" and "queries waited their turn" are separate signals.
  double mean_exec_ms = 0.0;
  double mean_sched_wait_ms = 0.0;
  /// Mean wall time per response spent in abandoned (retried) task
  /// attempts — the latency cost of fault recovery, split out like
  /// mean_sched_wait_ms so a chaos run's p95 inflation is attributable.
  double mean_retry_ms = 0.0;
  /// Mean cancellation take-effect latency over cancelled /
  /// deadline-exceeded responses: token latch -> response fulfilled (how
  /// long cooperative cancellation took to drain the in-flight work).
  double mean_cancel_ms = 0.0;
  /// Morsel-scheduler counters of the engine's scheduler (steals, local
  /// hits, morsels, priority inversions avoided, ...). Process-wide when
  /// the service runs on Scheduler::Global().
  SchedulerStats scheduler;
};

}  // namespace gumbo::serve

#endif  // GUMBO_SERVE_METRICS_H_
