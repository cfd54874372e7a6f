// Plan execution: the one way to run a lowered QueryPlan. Its MR program
// runs round by round in a private overlay over a read-only base; the
// plan's outputs move into the caller's database on success, the paper's
// metrics are collected, and intermediates never leave the overlay.
#ifndef GUMBO_PLAN_EXECUTOR_H_
#define GUMBO_PLAN_EXECUTOR_H_

#include "common/relation.h"
#include "common/result.h"
#include "cost/calibration.h"
#include "dist/cluster.h"
#include "mr/engine.h"
#include "mr/stats.h"
#include "plan/planner.h"
#include "sgf/sgf.h"

namespace gumbo::plan {

/// Everything an execution needs beyond the plan and the databases: the
/// query's scheduling identity and which runtime carries the rounds.
struct ExecutionContext {
  /// Scheduling identity of the query: priority class, cancel token,
  /// fault plan, metrics sink (common/scheduler.h). The scheduler field
  /// is ignored as usual — the engine's wins.
  SchedContext sched;
  /// When set (and num_shards > 1), the program runs on this shard of a
  /// real cluster via dist::ShardedRuntime — every shard of the cluster
  /// must execute the same plan. Borrowed.
  dist::Cluster* cluster = nullptr;
  /// When cluster is null and local_shards > 1, the program runs under
  /// dist::ExecuteShardedLocal: `local_shards` in-process worker shards
  /// over an InProcTransport, byte-identical to the default path.
  int local_shards = 1;
};

/// The paper's four performance metrics (§5.1) plus bookkeeping. The
/// inherited counters are the plan's jobs summed (mr::JobCounters):
/// hdfs_read_mb is the input cost, hdfs_write_mb the bytes written.
struct Metrics : mr::JobCounters {
  double net_time = 0.0;        ///< query submission -> final result
  double total_time = 0.0;      ///< aggregate task time
  /// Bytes shuffled mapper -> reducer, plus Bloom-filter broadcast bytes
  /// when filters are in use (DESIGN.md §5.3).
  double communication_mb = 0.0;
  double filter_broadcast_mb = 0.0;  ///< filter bits shipped to map tasks
  /// Real wire frame bytes exchanged between shards (DESIGN.md §13);
  /// zero for single-process executions. Charged to the cost model at
  /// the transfer rate via JobStats::dist_cost.
  double dist_wire_mb = 0.0;
  double wall_ms = 0.0;         ///< real wall-clock of the execution
  int jobs = 0;
  int rounds = 0;
  /// Largest number of jobs sharing one round (plan structure).
  int max_jobs_per_round = 0;
  /// Observed peak of concurrently-executing jobs (runtime behavior).
  int peak_concurrent_jobs = 0;
  // ---- Serving-layer bookkeeping (DESIGN.md §8, §12) ----
  // Filled by serve::QueryService; zero/false for direct executions.
  bool plan_cache_hit = false;  ///< lowered plan came from the plan cache
  double queue_ms = 0.0;        ///< admission-queue wait before execution
  double plan_ms = 0.0;         ///< planning wall time (0 on a cache hit)
  /// Outputs served straight from the result cache — no planning, no
  /// execution (the other fields describe an empty execution).
  bool result_cache_hit = false;
  /// Outputs delta-maintained from a cached result: the execution fields
  /// describe the (delta-sized) maintenance pass, not a full run.
  bool delta_applied = false;
  uint64_t delta_rows = 0;  ///< input delta rows the maintenance pass read
  // ---- Morsel-scheduling attribution (DESIGN.md §9) ----
  /// Wall time this query's morsels were runnable but unserved (its task
  /// groups had queued work and nothing running — "stolen-from" time).
  /// Summed over the query's groups, so concurrent stalls can exceed the
  /// enclosing wall span; exec_ms excludes this, so an inflated p95
  /// splits into "our work got slower" vs "our work waited its turn".
  double sched_wait_ms = 0.0;
  uint64_t sched_morsels = 0;  ///< morsels this query's groups executed
};

struct ExecutionResult {
  Metrics metrics;
  mr::ProgramStats stats;
};

/// Executes `plan` over `base`, which must hold every relation the plan
/// reads. The program runs in a private overlay over `base`: intermediates
/// and outputs materialize there and `base` is only read, so many callers
/// may execute plans against one `base` concurrently as long as nothing
/// mutates it meanwhile (the admission scheduler's contract). On success
/// the plan's declared output relations are moved into `*outputs` and the
/// overlay, intermediates included, is dropped; on failure — a cancel, a
/// deadline, a job error in any round — `*outputs` is left untouched.
///
/// `outputs` may be `&base`, which commits the outputs into the database
/// the plan read, but only when nothing else reads `base` at the same
/// time: the outputs are put into it after the run.
///
/// A lowered QueryPlan is a reusable, immutable artifact: execution never
/// writes into it (job factories instantiate fresh mappers/reducers per
/// task), so one plan may be executed many times — including concurrently
/// from multiple threads — which is what makes the serve-layer plan cache
/// sound (DESIGN.md §8).
Result<ExecutionResult> ExecutePlanOnSnapshot(const QueryPlan& plan,
                                              mr::Engine* engine,
                                              const Database& base,
                                              Database* outputs,
                                              const ExecutionContext& ctx = {});

/// Plans + executes + verifies in one call: evaluates `query` under
/// `planner`'s strategy on `engine`, commits the outputs into `db`, and
/// checks every produced relation against sgf::NaiveEvalSgf. Returns
/// FailedPrecondition on any mismatch.
Result<ExecutionResult> ExecuteAndVerify(const sgf::SgfQuery& query,
                                         const Planner& planner,
                                         mr::Engine* engine, Database* db);

/// Closes the calibration loop (DESIGN.md §10): matches the observed
/// per-input (N_i, M_i) and per-job output sizes of an executed program
/// against the estimates the planner recorded in `plan.job_estimates`,
/// and feeds each observed/estimated pair into `store`. Jobs and inputs
/// are matched positionally (ProgramStats::jobs is indexed by program
/// job id) with dataset-name sanity checks. Thread-safe via the store.
void CalibrateFromExecution(const QueryPlan& plan,
                            const mr::ProgramStats& stats,
                            cost::CalibrationStore* store);

}  // namespace gumbo::plan

#endif  // GUMBO_PLAN_EXECUTOR_H_
