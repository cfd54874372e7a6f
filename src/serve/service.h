// QueryService: the concurrent serving layer over the round-parallel
// runtime (DESIGN.md §8).
//
// Many callers submit SGF queries concurrently; the service runs them
// through
//   (a) an admission queue — one bounded backlog drained by max_inflight
//       worker threads in (priority, deadline, arrival) order, which
//       execute admitted queries simultaneously on the shared morsel
//       scheduler. A query's priority is also its morsel class (DESIGN.md
//       §9), and a small query (at most 4 atoms) left at kNormal is
//       raised to kHigh, so its morsels preempt — at morsel granularity —
//       the backlog of a running analytical monster instead of queueing
//       behind whole phases of it. After three consecutive dispatches
//       that passed over lower-priority work, the earliest-arrived such
//       task goes next, so no class starves;
//   (b) one query cache (serve/query_cache.h) — canonicalized query
//       signature -> the lowered immutable QueryPlan and, with the result
//       cache on, its materialized canonical outputs, validated against
//       the stats epochs of every relation the query reads. One lookup
//       classifies the entry: a *pure hit* (nothing moved: the stored
//       outputs are the answer, no execution), a *plan hit* (nothing
//       moved, no outputs stored: skip planning, sampling and grouping),
//       a *delta pass* (inserts into relations the query reads only
//       positively, guard or conditional: the cached plan re-runs with
//       each base guard shadowed by the slice of its rows that are new or
//       newly qualify — serve/delta.h — and cached ∪ pass output
//       refreshes the entry), or anything else (destructive writes,
//       inserts under NOT, slices a nested program cannot take): the
//       entry is invalidated and the query re-plans. Concurrent misses
//       for the same key are coalesced (single-flight): one worker plans,
//       the rest wait for its result instead of stampeding the planner
//       with redundant sampling runs. Coalescing applies with the cache
//       off too — identical in-flight queries share one planning run even
//       when nothing is ever stored. GUMBO_DISABLE_DELTA=1 turns the
//       result cache (pure hits and delta passes) off.
//
// Every query executes against the same immutable base Database snapshot
// through a private overlay (plan::ExecutePlanOnSnapshot), so results are
// byte-identical to a solo run regardless of admission order, pool
// contention, or cache hits: the engine's determinism is per-query, and
// queries share nothing mutable. Mutations go through the service's own
// write API (AddFact, available when constructed over a mutable
// database), which serializes against in-flight executions with a
// reader/writer lock; a caller holding the database directly must still
// only mutate it between quiesced periods.
#ifndef GUMBO_SERVE_SERVICE_H_
#define GUMBO_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/relation.h"
#include "common/scheduler.h"
#include "cost/constants.h"
#include "mr/engine.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "serve/metrics.h"
#include "serve/query_cache.h"

namespace gumbo::serve {

struct ServiceOptions {
  /// Concurrent query executions (admission worker threads). 1 =
  /// serialized admission (the pre-serve behavior, used as the bench
  /// baseline).
  size_t max_inflight = 4;
  /// Bounded backlog: Submit blocks once this many queries are queued
  /// (closed-loop callers self-throttle; open-loop callers feel
  /// backpressure instead of growing an unbounded queue).
  size_t max_queued = 1024;
  /// Plan cache switch: cached plans skip planning while their epochs
  /// hold.
  bool plan_cache = true;
  /// Result cache + incremental delta evaluation (DESIGN.md §12): cached
  /// query outputs are served without execution while their epochs hold,
  /// and maintained by a delta pass across insert-only writes instead of
  /// being recomputed. Off = every epoch movement invalidates (the
  /// pre-delta behavior). Forced off by GUMBO_DISABLE_DELTA=1.
  bool result_cache = true;
  /// Entries of the one query cache both switches above store into; each
  /// holds a plan and, with the result cache on, its outputs.
  size_t cache_capacity = 32;
  plan::PlannerOptions planner;
  cost::ClusterConfig cluster;
  /// Optional calibration feedback loop (DESIGN.md §10): when set, every
  /// successful execution's observed stats are fed back through
  /// plan::CalibrateFromExecution, and the planner estimates through the
  /// store (it is installed as planner.calibration if that is unset).
  /// Non-owning; must outlive the service. The store is thread-safe, so
  /// concurrent workers may feed it simultaneously.
  cost::CalibrationStore* calibration = nullptr;
  /// Default per-query deadline (ms) applied when a submission carries
  /// none; 0 = queries without their own deadline run unbounded. A
  /// per-query deadline composes with this to the stricter of the two
  /// (the token keeps the earliest deadline ever armed).
  double default_deadline_ms = 0.0;
  /// Saturation watermark for load shedding (DESIGN.md §11): once
  /// inflight + queued reaches this, Submit rejects kLow-priority and
  /// already-over-deadline queries with ResourceExhausted instead of
  /// queueing (or blocking) them. 0 = max_inflight + max_queued, i.e.
  /// shed only instead of blocking on a full backlog.
  size_t shed_watermark = 0;
  /// Fault injection for chaos runs (DESIGN.md §11). Non-owning; must
  /// outlive the service. nullptr = the process-wide GUMBO_FAULT_* env
  /// configuration (inactive unless GUMBO_FAULT_RATE is set).
  const FaultInjector* faults = nullptr;
};

/// Per-query submission options — the one place deadline, priority, and
/// cancellation live (callers used to thread them separately). Builder
/// style: `QueryOptions().WithDeadlineMs(50).WithPriority(kHigh)` reads
/// as the submission it configures; plain aggregate initialization still
/// works. All defaults preserve the plain Submit(query) behavior: no
/// deadline beyond the service default, normal priority, no external
/// cancellation.
struct QueryOptions {
  /// Wall-clock budget from submission (ms); <= 0 = only the service
  /// default applies. Past the deadline the query fails with
  /// kDeadlineExceeded — dropped before execution if still queued, or
  /// cooperatively cancelled at the next morsel boundary if in flight.
  double deadline_ms = 0.0;
  /// Admission class, and the morsel class the query executes at. kHigh
  /// queries leave the backlog before kNormal ones, kNormal before kLow;
  /// kLow is background work the service sheds first under saturation.
  /// A small query (at most 4 atoms) left at kNormal runs at kHigh.
  SchedPriority priority = SchedPriority::kNormal;
  /// Optional caller-owned cancellation token: Cancel() stops the query
  /// cooperatively whether it is still queued or already executing (the
  /// response then carries the token's terminal status). Deadlines are
  /// armed on this token when provided. Must outlive the response
  /// future's completion.
  CancelToken* cancel = nullptr;

  // ---- Builder surface ----
  QueryOptions& WithDeadlineMs(double ms) {
    deadline_ms = ms;
    return *this;
  }
  QueryOptions& WithPriority(SchedPriority p) {
    priority = p;
    return *this;
  }
  QueryOptions& WithCancel(CancelToken* token) {
    cancel = token;
    return *this;
  }
};

/// The typed outcome of one query — status, outputs, and metrics travel
/// together, so callers never fish through futures plus side-channel
/// stats accessors.
struct Response {
  Status status = Status::Ok();
  bool ok() const { return status.ok(); }
  /// The query's output relations (subquery output names), moved out of
  /// the per-query overlay. Base relations are not included.
  Database outputs;
  /// The paper's §5.1 figures plus the serving fields (plan_cache_hit,
  /// queue_ms, plan_ms, ...).
  plan::Metrics metrics;
  /// Per-job statistics of the execution (empty on failure).
  mr::ProgramStats stats;
  /// End-to-end submit -> response wall time.
  double wall_ms = 0.0;
};

class QueryService {
 public:
  /// `db` is the base snapshot every query reads; it must outlive the
  /// service and stay unmutated while queries are in flight. `scheduler`
  /// supplies morsel-level map/reduce parallelism (nullptr =
  /// Scheduler::Global()), shared by all in-flight queries.
  QueryService(const Database* db, ServiceOptions options,
               Scheduler* scheduler = nullptr);
  /// Mutable-base construction: same as above, and additionally enables
  /// the service's write API (AddFact), which serializes writes against
  /// in-flight query executions. Direct external mutation of `db` must
  /// still happen only while the service is quiesced.
  QueryService(Database* db, ServiceOptions options,
               Scheduler* scheduler = nullptr);
  /// Drains the backlog (every accepted query is answered), then joins.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues `query` and returns the future response. Blocks while the
  /// backlog is full (unless shedding applies, see ServiceOptions);
  /// after Shutdown the returned future holds a FailedPrecondition
  /// response immediately, and a shed query holds ResourceExhausted.
  std::future<Response> Submit(sgf::SgfQuery query, QueryOptions qopts = {});

  /// Submit + wait: the blocking convenience for closed-loop callers.
  Response Run(sgf::SgfQuery query, QueryOptions qopts = {});

  /// Stops accepting new queries; already-accepted ones still complete.
  void Shutdown();

  /// Appends a fact to base relation `name` (DESIGN.md §12). Requires
  /// mutable-base construction (FailedPrecondition otherwise). Takes the
  /// write half of the database lock, so the append is serialized against
  /// in-flight query executions; the insert-only epoch bump lets cached
  /// results be delta-maintained instead of invalidated.
  Status AddFact(const std::string& name, const Tuple& t);

  /// Aggregate counters + latency quantiles (serve/metrics.h).
  ServiceStats Stats() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct Task {
    sgf::SgfQuery query;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point submitted;
    /// Admission class and morsel priority of this query's execution.
    SchedPriority priority = SchedPriority::kNormal;
    /// The token the whole stack polls: the caller's when one was
    /// supplied, otherwise `owned` (created only when a deadline is
    /// armed). nullptr = uncancellable.
    CancelToken* token = nullptr;
    std::shared_ptr<CancelToken> owned;
    /// Absolute deadline for EDF dequeueing; time_point::max() = none.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  void WorkerLoop();
  void Execute(Task task);
  /// Removes and returns the backlog's next task: the minimum of
  /// (priority, deadline, arrival), except that after three consecutive
  /// pops that passed over lower-priority work the earliest-arrived task
  /// below the top queued class goes. Caller holds mu_.
  Task PopNext();

  /// Plans `query` (or waits for a concurrent planning of the same key —
  /// single-flight). `use_cache` additionally re-checks the query cache
  /// and publishes the plan to it as a plan-only entry; coalescing itself
  /// only needs the key, so identical concurrent queries share one
  /// planning run either way.
  Result<plan::PlanRef> PlanSingleFlight(const sgf::SgfQuery& query,
                                         const std::string& key,
                                         const std::vector<std::string>& names,
                                         const std::vector<uint64_t>& epochs,
                                         bool use_cache, bool* coalesced);

  /// The one cache lookup for `key` at the current `epochs`, classified:
  /// a pure hit or a delta pass fills `resp` and returns true (a delta
  /// pass that failed, e.g. cancelled mid-run, included); a plan hit sets
  /// `*plan` and returns false; anything else invalidates the entry and
  /// returns false with `*plan` null, so the caller plans. Caller holds
  /// the read half of db_mu_.
  bool LookupCache(const Task& task, const std::string& key,
                   const std::vector<std::string>& names,
                   const std::vector<uint64_t>& epochs, Response* resp,
                   plan::PlanRef* plan);

  /// The context every execution of `task` runs under — its priority,
  /// cancel token and the active fault plan — with `metrics` as the
  /// morsel-attribution sink (DESIGN.md §9). Full runs and delta passes
  /// pass it to the same plan::ExecutePlanOnSnapshot call.
  plan::ExecutionContext ContextFor(const Task& task,
                                    SchedGroupMetrics* metrics) const;

  const Database* db_;
  /// Non-null iff constructed over a mutable database; target of AddFact.
  Database* mutable_db_ = nullptr;
  ServiceOptions options_;
  /// The env-configured injector backing options_.faults when the caller
  /// supplied none; faults_ below is the one actually consulted.
  FaultInjector env_faults_;
  const FaultInjector* faults_;
  mr::Engine engine_;
  plan::Planner planner_;
  QueryCache cache_;
  /// Readers = query executions (epoch capture through cache
  /// refresh happens under one shared hold, so a write never interleaves
  /// with an execution's snapshot); writer = AddFact.
  mutable std::shared_mutex db_mu_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< workers wait for backlog items
  std::condition_variable cv_space_;  ///< submitters wait for backlog room
  /// The admission queue, in arrival order.
  std::deque<Task> backlog_;
  /// Consecutive pops that passed over lower-priority work (PopNext's
  /// starvation bound).
  size_t passed_over_ = 0;
  bool stopping_ = false;

  // Single-flight planning registry: key -> the shared outcome of the
  // one in-progress planning for that key.
  std::mutex plan_mu_;
  std::map<std::string, std::shared_future<Result<plan::PlanRef>>> planning_;

  // Aggregate metrics; counters under mu_, histograms lock-free.
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t deadline_exceeded_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t shed_ = 0;
  std::atomic<uint64_t> plan_coalesced_{0};
  std::atomic<uint64_t> plans_built_{0};
  std::atomic<uint64_t> result_hits_{0};
  std::atomic<uint64_t> delta_hits_{0};
  std::atomic<uint64_t> delta_rows_{0};
  std::atomic<uint64_t> delta_us_{0};  ///< wall time of delta passes
  std::atomic<uint64_t> task_retries_{0};
  std::atomic<uint64_t> faults_injected_{0};
  std::atomic<uint64_t> retry_us_{0};
  std::atomic<uint64_t> cancel_us_{0};     ///< token latch -> response
  std::atomic<uint64_t> cancel_count_{0};  ///< responses behind cancel_us_
  std::atomic<int> inflight_{0};
  std::atomic<int> peak_inflight_{0};
  LatencyHistogram total_latency_;
  std::atomic<uint64_t> queue_us_{0};
  std::atomic<uint64_t> plan_us_{0};
  /// Execution time net of scheduler stalls; the stall share lands in
  /// sched_wait_us_ instead, so a p95 regression is attributable
  /// (DESIGN.md §9).
  std::atomic<uint64_t> exec_us_{0};
  std::atomic<uint64_t> sched_wait_us_{0};

  std::vector<std::thread> workers_;
};

}  // namespace gumbo::serve

#endif  // GUMBO_SERVE_SERVICE_H_
