// Morsel-driven work-stealing scheduler (DESIGN.md §9).
//
// The execution stack used to parallelize with whole-phase ParallelFor
// calls on a shared FIFO thread pool: every in-flight query grabbed the
// pool for an entire map or reduce phase, so concurrent queries fought
// for workers with no notion of priority or granularity
// (BENCH_serve.json's speedup_concurrency 0.92 regression). This
// scheduler replaces that substrate with *morsel-sized tickets* on
// per-worker priority deques:
//
//   * work arrives as closures submitted into a TaskGroup; each closure
//     is one morsel (a bounded row/partition range over the flat
//     arenas), so a worker returns to the scheduler every few thousand
//     rows and a short query's morsels can overtake a long query's
//     backlog at morsel granularity instead of queueing behind a whole
//     phase;
//   * each worker owns one deque per priority class: local pop is LIFO
//     (the continuation it just created is the cache-hot one), stealing
//     and the shared injection queue are FIFO (steal the oldest, i.e.
//     coldest, ticket);
//   * dispatch is priority-major (own high deque, then the global high
//     queue, then stealing high, before any normal-priority source), so
//     an interactive query's morsels preempt an analytical monster's
//     backlog — with a periodic inversion of the scan order so the low
//     class cannot starve;
//   * Wait() *helps*: the waiting thread drains its own group's
//     closures directly, so nested groups (round -> job -> phase) and
//     external submitters always make progress even when every worker
//     is busy elsewhere — the same re-entrancy contract the old pool's
//     ParallelFor had, at morsel granularity.
//
// Determinism: the scheduler never decides *where* results go, only
// *when* closures run. Every user commits results by morsel index into
// preallocated slots (or chains morsels so order within a chain is
// program order), so outputs are byte-identical to a single-threaded
// run for any worker count, steal pattern, or priority mix (DESIGN.md
// §6, §9).
//
// Locking honesty: the deques share one scheduler mutex. At morsel
// granularity (thousands of rows per ticket) the lock is taken a few
// thousand times per second and is nowhere near contention; the deque
// discipline is about *locality and priority*, not lock-freedom. A
// lock-free Chase-Lev deque is a drop-in upgrade behind this interface
// if profiles ever say otherwise.
#ifndef GUMBO_COMMON_SCHEDULER_H_
#define GUMBO_COMMON_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gumbo {

class CancelToken;
class FaultInjector;

/// Priority classes, highest first. A serving-layer query runs its
/// morsels at its admission class (kHigh for interactive and small
/// queries, kNormal by default, kLow for background/maintenance work).
enum class SchedPriority : int { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr size_t kNumSchedPriorities = 3;

/// Aggregate scheduler counters (monotonic; snapshot via
/// Scheduler::stats). Relaxed atomics — readers want totals, not
/// ordering.
struct SchedulerStats {
  uint64_t submitted = 0;     ///< tickets submitted (morsels scheduled)
  uint64_t morsels = 0;       ///< closures executed (workers + waiters)
  uint64_t local_hits = 0;    ///< dispatches served from the worker's own deque
  uint64_t global_hits = 0;   ///< dispatches served from the injection queue
  uint64_t steals = 0;        ///< dispatches served from another worker's deque
  uint64_t stale_tickets = 0; ///< tickets whose closure a waiter already ran
  /// Dispatches of a kHigh ticket while lower-priority tickets were
  /// queued — each one is a priority inversion the old FIFO pool would
  /// have committed.
  uint64_t inversions_avoided = 0;
  /// Anti-starvation dispatches: the periodic low-before-high scan
  /// actually picked a lower class over a queued higher one.
  uint64_t starvation_grants = 0;
};

/// Per-group (and, summed by callers, per-query) scheduling metrics.
/// `stall_us` is wall time during which the group had queued closures
/// but none running — time the work was runnable but stolen-from
/// (serve::Metrics reports it as the sched_wait phase, DESIGN.md §9).
/// Sums over groups, so parallel stalls of sibling groups can exceed
/// the enclosing wall span (like CPU-seconds).
struct SchedGroupMetrics {
  std::atomic<uint64_t> stall_us{0};
  std::atomic<uint64_t> busy_us{0};   ///< summed closure run time
  std::atomic<uint64_t> morsels{0};
};

/// How a caller wants its work scheduled; threaded from the serving
/// layer through runtime and engine down to every group. Fields at
/// their zero values defer to the engine/scheduler defaults.
struct SchedContext {
  /// nullptr = Scheduler::Global() (or the engine's scheduler when the
  /// engine builds the context).
  class Scheduler* scheduler = nullptr;
  SchedPriority priority = SchedPriority::kNormal;
  /// Rows (map) / records (reduce) per morsel; 0 = the engine default
  /// (GUMBO_MORSEL_ROWS, see SchedOptions).
  size_t morsel_rows = 0;
  /// Optional per-query accumulator for stall/busy/morsel counts.
  SchedGroupMetrics* metrics = nullptr;
  /// Cooperative cancellation: morsel chains poll this at their chain
  /// boundaries and long scans poll it mid-morsel (common/cancel.h).
  /// nullptr = uncancellable.
  const CancelToken* cancel = nullptr;
  /// Deterministic chaos injection (common/fault.h). nullptr or an
  /// inactive injector = fault-free execution; the engine only consults
  /// it at task-retry boundaries, never inside committed output paths.
  const FaultInjector* faults = nullptr;
};

/// Process-wide scheduler tuning:
///   morsel_rows       rows per morsel (GUMBO_MORSEL_ROWS, default 4096)
///   max_task_retries  re-runs of a failed map/shuffle/reduce task before
///                     its fault escalates (default 3)
/// GUMBO_SCHED_WORKERS sizes Scheduler::Global().
struct SchedOptions {
  size_t morsel_rows = 4096;
  uint32_t max_task_retries = 3;
  static SchedOptions FromEnv();
};

class Scheduler {
 public:
  /// Creates a scheduler with `num_workers` workers (0 = hardware
  /// concurrency).
  explicit Scheduler(size_t num_workers = 0);
  /// Drains every queued ticket (all submitted closures run), then
  /// joins the workers. Groups with closures still queued are executed,
  /// not dropped — a TaskGroup outliving its scheduler sees all its
  /// work completed.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Process-wide scheduler (sized by GUMBO_SCHED_WORKERS, else
  /// hardware concurrency).
  static Scheduler& Global();

  SchedulerStats stats() const;

  /// A set of related morsels that one caller submits and waits on.
  /// Closures may submit further closures into their own group (morsel
  /// chains); Wait returns only when every submitted closure has run.
  /// Not thread-safe for concurrent Submit+Wait by *different* caller
  /// threads — the intended shape is one owner plus the owner's own
  /// closures chaining.
  class TaskGroup {
   public:
    /// `ctx.scheduler` null = Scheduler::Global(). `ctx.metrics`, when
    /// set, receives this group's stall/busy/morsel counts at Wait.
    explicit TaskGroup(const SchedContext& ctx);
    /// Waits for completion (helping) if Wait was not called.
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Enqueues one morsel. Safe to call from any thread, including
    /// from this group's own running closures (chains).
    void Submit(std::function<void()> fn);

    /// Runs this group's queued closures on the calling thread until
    /// none remain, then blocks until in-flight ones finish (resuming
    /// helping if new closures appear). Flushes metrics to
    /// `ctx.metrics` on return.
    void Wait();

   private:
    friend class Scheduler;
    struct State;
    std::shared_ptr<State> state_;
    Scheduler* scheduler_;
    SchedGroupMetrics* metrics_;
  };

  /// Convenience: runs fn(i) for i in [0, n) as one ticket per index at
  /// `ctx.priority` and blocks until done (helping). Each index is
  /// expected to already be morsel-sized (a partition, a chunk, a job);
  /// use a TaskGroup with chained closures for finer-grained phases.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const SchedContext& ctx);

 private:
  struct Ticket;
  friend class TaskGroup;

  void Push(std::shared_ptr<TaskGroup::State> state, SchedPriority prio);
  /// Runs one queued closure of `state` on the calling thread; false if
  /// none was queued (a stale ticket, counted when `stale` is set).
  static bool RunClosure(const std::shared_ptr<TaskGroup::State>& state,
                         std::atomic<uint64_t>* stale,
                         std::atomic<uint64_t>* morsels);
  void WorkerLoop(size_t worker);
  /// Pops the next ticket for `worker` under mu_; false if none.
  bool NextTicket(size_t worker, std::shared_ptr<TaskGroup::State>* out);

  struct WorkerState {
    std::deque<std::shared_ptr<TaskGroup::State>> deques[kNumSchedPriorities];
    uint64_t dispatches = 0;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::vector<WorkerState> queues_;  ///< one per worker
  std::deque<std::shared_ptr<TaskGroup::State>>
      global_[kNumSchedPriorities];  ///< injection queue (non-worker submits)
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

  // Counters (relaxed; see SchedulerStats).
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> morsels_{0};
  std::atomic<uint64_t> local_hits_{0};
  std::atomic<uint64_t> global_hits_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> stale_tickets_{0};
  std::atomic<uint64_t> inversions_avoided_{0};
  std::atomic<uint64_t> starvation_grants_{0};
};

}  // namespace gumbo

#endif  // GUMBO_COMMON_SCHEDULER_H_
