// Execution statistics of jobs and programs — the paper's four metrics
// (total time, net time, input bytes, communication bytes) plus per-task
// detail consumed by the net-time scheduler.
#ifndef GUMBO_MR_STATS_H_
#define GUMBO_MR_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gumbo::mr {

/// Live fault-tolerance counters one job's concurrent task chains share
/// (DESIGN.md §11): bumped with relaxed atomics while map/shuffle/reduce
/// tasks retry, snapshotted into JobStats once the job quiesces.
struct RetryCounters {
  std::atomic<uint64_t> task_retries{0};
  std::atomic<uint64_t> faults_injected{0};
  std::atomic<uint64_t> retry_us{0};  ///< wall time of abandoned attempts
};

/// Per-input-partition accounting (maps onto the cost model's (N_i, M_i)).
struct InputStats {
  std::string dataset;
  double input_mb = 0.0;     ///< N_i: HDFS bytes read
  double output_mb = 0.0;    ///< M_i: intermediate bytes produced
  double metadata_mb = 0.0;  ///< Mhat_i
  int num_map_tasks = 0;     ///< m_i
};

/// The counters a job accumulates (DESIGN.md §2). Each is declared once,
/// here, and ForEachField is their one enumeration: operator+= sums jobs
/// into a program or query total. Every field is 8 bytes wide.
struct JobCounters {
  double hdfs_read_mb = 0.0;
  /// Communication: mapper -> reducer bytes, measured once on the map
  /// side of the shuffle. This is the single source of truth for shuffle
  /// volume: the reduce-side partition totals are reconciled against it,
  /// never re-measured (tests/runtime_test.cc).
  double shuffle_mb = 0.0;
  double hdfs_write_mb = 0.0;

  // ---- Shuffle-volume optimization counters (DESIGN.md §5) ----
  uint64_t shuffle_records = 0;   ///< materialized records (post-packing)
  uint64_t shuffle_messages = 0;  ///< shuffled values
  /// Distinct keys whose 64-bit fingerprints collided in the map-side
  /// grouping table (DESIGN.md §3); resolved by full-key compares, so
  /// purely diagnostic for hash quality.
  uint64_t fingerprint_collisions = 0;
  /// Always 0: map-side combiners were removed (DESIGN.md §5.1). Kept
  /// because the repository benchmark reads `combined_messages` by name.
  uint64_t combined_messages = 0;
  uint64_t filtered_messages = 0; ///< emissions suppressed by Bloom filters

  // ---- Fault-tolerance counters (DESIGN.md §11) ----
  uint64_t task_retries = 0;    ///< task attempts abandoned and re-run
  uint64_t faults_injected = 0; ///< injected faults this job observed
  double retry_ms = 0.0;        ///< wall time spent in abandoned attempts

  /// Calls f(&JobCounters::field) once per field, in declaration order.
  template <typename F>
  static void ForEachField(F&& f) {
    f(&JobCounters::hdfs_read_mb);
    f(&JobCounters::shuffle_mb);
    f(&JobCounters::hdfs_write_mb);
    f(&JobCounters::shuffle_records);
    f(&JobCounters::shuffle_messages);
    f(&JobCounters::fingerprint_collisions);
    f(&JobCounters::combined_messages);
    f(&JobCounters::filtered_messages);
    f(&JobCounters::task_retries);
    f(&JobCounters::faults_injected);
    f(&JobCounters::retry_ms);
  }

  JobCounters& operator+=(const JobCounters& o) {
    ForEachField([&](auto field) { this->*field += o.*field; });
    return *this;
  }
};

struct JobStats : JobCounters {
  std::string job_name;
  std::vector<InputStats> inputs;
  std::vector<double> map_task_costs;     ///< cost-seconds per map task
  std::vector<double> reduce_task_costs;  ///< cost-seconds per reduce task
  int num_reducers = 0;

  // Not JobCounters: every shard computes these identically in Prepare,
  // so summing them across shards would multiply them.
  double job_overhead = 0.0;        ///< cost_h
  double filter_mb = 0.0;           ///< Bloom filter bitset MB (represented)
  double filter_broadcast_mb = 0.0; ///< filter_mb shipped to every map task
  double filter_build_cost = 0.0;   ///< cost-seconds to build the filters

  // ---- Distribution (DESIGN.md §13) ----
  /// Real bytes this job pushed through the shard transport (shuffle
  /// chunks, control frames, epilogues), summed across shards.
  /// Unlike shuffle_mb these are raw frame MB, not represented MB:
  /// they measure the wire format itself. 0 in single-process runs.
  double dist_wire_mb = 0.0;
  /// Cost-seconds charged for dist_wire_mb at the model's network
  /// transfer rate t (§5.3) — the measured counterpart of the t·M term.
  double dist_cost = 0.0;

  /// Aggregate cost of the job = cost_h + filter build + real wire
  /// transfer + all task costs (filter broadcast is inside the map task
  /// costs, DESIGN.md §5.3).
  double TotalCost() const {
    double c = job_overhead + filter_build_cost + dist_cost;
    for (double t : map_task_costs) c += t;
    for (double t : reduce_task_costs) c += t;
    return c;
  }
};

/// Per-round accounting of the round runtime (mr/runtime.h). A round is
/// one dependency-depth level of the program's job DAG; all jobs of a
/// round are independent and execute concurrently.
struct RoundStats {
  std::vector<size_t> jobs;   ///< program job indices executed this round
  int max_concurrent = 0;     ///< observed peak of jobs in flight at once
  double wall_ms = 0.0;       ///< real wall-clock of the round
};

/// A program's jobs and rounds. Its counter totals are not kept here:
/// plan::Metrics sums JobCounters over `jobs` (plan/executor.h).
struct ProgramStats {
  std::vector<JobStats> jobs;
  std::vector<RoundStats> round_stats;  ///< filled by the round runtime
  double total_time = 0.0;  ///< aggregate task time across all jobs
  double net_time = 0.0;    ///< simulated makespan (slot-constrained)
  double wall_ms = 0.0;     ///< real wall-clock of the whole program
  int rounds = 0;           ///< longest dependency chain of jobs

  /// Largest observed number of concurrently-executing jobs in any round.
  int MaxConcurrentJobs() const {
    int v = 0;
    for (const auto& r : round_stats) {
      if (r.max_concurrent > v) v = r.max_concurrent;
    }
    return v;
  }
};

}  // namespace gumbo::mr

#endif  // GUMBO_MR_STATS_H_
