// Engine: executes one MapReduce job on real data with real parallelism,
// while accounting I/O in *represented* megabytes for the cost model
// (DESIGN.md §2, "real execution + modeled clock").
//
// Execution pipeline per job:
//   1. each input relation is split into map tasks of split_mb represented
//      megabytes (splits never span relations, matching HDFS);
//   2. map tasks run as *morsel chains* on the work-stealing scheduler
//      (DESIGN.md §9): each task's scan is a sequence of fixed-size row
//      ranges sharing one mapper + emission buffer, so a task yields the
//      worker between morsels without changing what it emits; emitted
//      key/values are handed to the shuffle subsystem (mr/shuffle.h);
//   3. the reducer count is chosen per the job's allocation policy;
//      the shuffle hash-partitions the records;
//   4. reduce tasks run as morsel chains over whole key groups, keys in
//      sorted order, and produce the output relations.
//
// RunDetached executes a job against a read-only database view and returns
// the outputs without committing them; the round runtime (mr/runtime.h)
// uses it to run independent jobs concurrently and commit their outputs in
// deterministic job order. Run is the single-job convenience wrapper that
// commits immediately.
//
// Results are deterministic: a morsel chain preserves its task's emission
// order exactly (morsels of one chain never run concurrently), outputs
// are collected per task index and concatenated in task order — both
// independent of worker count, stealing, and priority (DESIGN.md §9).
#ifndef GUMBO_MR_ENGINE_H_
#define GUMBO_MR_ENGINE_H_

#include <memory>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "common/scheduler.h"
#include "cost/constants.h"
#include "mr/job.h"
#include "mr/shuffle.h"
#include "mr/stats.h"

namespace gumbo::mr {

/// One map task: a contiguous slice of one input relation. The split is
/// a pure function of the resolved inputs and the cluster config, so
/// every shard of a cluster computes the identical task list and can
/// talk about "task ti" without exchanging specs (DESIGN.md §13).
struct MapTaskSpec {
  size_t input_index = 0;
  size_t begin = 0;
  size_t end = 0;
  double input_mb = 0.0;
};

class Engine {
 public:
  /// `scheduler`: morsel scheduler for map/reduce work and concurrent
  /// jobs (nullptr = the process-wide Scheduler::Global()). `options`
  /// carries the default morsel size (GUMBO_MORSEL_ROWS).
  explicit Engine(cost::ClusterConfig config, Scheduler* scheduler = nullptr,
                  SchedOptions options = SchedOptions::FromEnv())
      : config_(std::move(config)),
        scheduler_(scheduler),
        sched_options_(options) {}

  const cost::ClusterConfig& config() const { return config_; }
  Scheduler& scheduler() const {
    return scheduler_ != nullptr ? *scheduler_ : Scheduler::Global();
  }
  const SchedOptions& sched_options() const { return sched_options_; }

  /// A detached job execution: statistics plus the produced output
  /// relations, in JobSpec::outputs order, not yet visible in any database.
  struct JobResult {
    JobStats stats;
    std::vector<Relation> outputs;
  };

  /// Executes `job` against `db` without modifying it; the caller decides
  /// when (and where) to commit the outputs. Safe to call concurrently
  /// from multiple threads as long as nothing mutates `db` meanwhile.
  /// `ctx` sets the priority class / morsel size / metrics sink for this
  /// job's morsels; its scheduler field is ignored (the engine's wins).
  Result<JobResult> RunDetached(const JobSpec& job, const Database& db,
                                const SchedContext& ctx = {}) const;

  /// Runs `job` against `db`: reads the input relations, writes (replaces)
  /// the output relations, and returns the job's statistics.
  Result<JobStats> Run(const JobSpec& job, Database* db,
                       const SchedContext& ctx = {}) const;

 private:
  cost::ClusterConfig config_;
  Scheduler* scheduler_;
  SchedOptions sched_options_;
};

/// One job execution broken into resumable phases, so a caller can
/// interpose between them. RunDetached drives the whole sequence in one
/// process. The sharded runtime (src/dist/sharded.h) runs one
/// JobExecution per shard: it restricts RunMaps, Partition and
/// RunReduces to the units that shard owns, exchanges reducer counts and
/// shuffle records between the phases, and fills the other shards'
/// units (task_io, reduce_out, retry counts) from their epilogues before
/// it accounts every unit and calls Finish.
///
/// Phase order (each at most once):
///   Prepare -> RunMaps(owned) -> ChooseReducers(...)
///     -> [shuffle export/import] -> Partition(r, owned)
///     -> RunReduces(owned) -> [import the other shards' units]
///     -> AccountMaps() -> AccountReduces() -> Finish()
/// AccountMaps reads only the map tasks' records, so one process may call
/// it right after RunMaps.
///
/// The engine, job spec, and database passed to Prepare must outlive
/// the JobExecution; nothing may mutate the database meanwhile.
class JobExecution {
 public:
  /// What one map task's run leaves for AccountMaps.
  struct TaskIo {
    double output_mb = 0.0;    ///< represented MB of intermediate data
    double metadata_mb = 0.0;  ///< represented MB of per-record metadata
    ShuffleTaskIo io;          ///< raw record/message counts
    uint64_t filtered = 0;     ///< emissions suppressed by Bloom filters
  };

  /// What one reduce partition's run leaves for AccountReduces and Finish.
  struct ReduceOut {
    std::vector<RelationBuilder> outputs;  ///< [output_index] -> flat rows
    double shuffle_mb = 0.0;  ///< represented MB the partition received
    double output_mb = 0.0;   ///< represented MB the partition wrote
  };

  /// Validates the job, resolves inputs against `db`, plans the map
  /// tasks, builds Bloom filters, and initializes the stats skeleton.
  /// `ctx`'s scheduler field is ignored (the engine's wins).
  static Result<std::unique_ptr<JobExecution>> Prepare(
      const Engine& engine, const JobSpec& job, const Database& db,
      const SchedContext& ctx);

  /// The global map-task decomposition — identical on every shard.
  const std::vector<MapTaskSpec>& tasks() const { return tasks_; }

  /// Sum of input_mb over ALL map tasks (not just owned ones); a pure
  /// function of the task list, so every shard agrees without exchange.
  double TotalInputMb() const;

  /// Runs the owned map tasks as morsel chains, feeding the shuffle and
  /// filling their task_io records.
  Status RunMaps(const OwnedFn& owned = {});

  /// Accounts every map task's record into the stats: per-task costs,
  /// per-input I/O aggregates, hdfs_read_mb, shuffle_mb, and the shuffle
  /// counters — in task order, so any shard count sums alike.
  void AccountMaps();

  /// Intermediate (shuffle) MB produced by the owned map tasks. Shards
  /// exchange these sums to agree on the global reducer count.
  double OwnedIntermediateMb(const OwnedFn& owned = {}) const;

  /// Reducer count per the job's allocation policy, from *global* totals.
  int ChooseReducers(double total_intermediate_mb,
                     double total_input_mb) const;

  /// The shuffle holding the owned tasks' records. The sharded runtime
  /// exports wire frames from it, then move-assigns a freshly imported
  /// Shuffle over it before calling Partition.
  Shuffle& shuffle() { return shuffle_; }

  /// Hash-partitions the shuffle into `num_reducers` partitions and
  /// sorts the owned ones.
  Status Partition(int num_reducers, const OwnedFn& owned = {});

  /// Runs the owned reduce partitions as morsel chains, filling their
  /// reduce_out records.
  Status RunReduces(const OwnedFn& owned = {});

  /// Accounts every reduce partition's record into the stats:
  /// per-partition costs, hdfs_write_mb, and the received-MB tally that
  /// Finish() reconciles against shuffle_mb.
  void AccountReduces();

  /// Map task `ti`'s record. RunMaps fills the owned ones; the sharded
  /// runtime fills the rest from the shards that ran them.
  TaskIo& task_io(size_t ti) { return task_io_[ti]; }
  /// Reduce partition `rj`'s record (after Partition). RunReduces fills
  /// the owned ones; the sharded runtime fills the rest, rows included.
  ReduceOut& reduce_out(size_t rj) { return red_[rj]; }
  /// The job's live retry counters. A shard ships its own and adds its
  /// peers' before Finish snapshots them into the stats.
  RetryCounters& retry_counters() { return retry_counters_; }

  /// The epilogue, and the one place a job's outputs are assembled:
  /// reconciles sent vs. received MB, concatenates partition outputs in
  /// partition order, dedupes where the spec asks, snapshots the retry
  /// counters, and returns the stats + relations.
  Result<Engine::JobResult> Finish();

 private:
  JobExecution(const Engine& engine, const JobSpec& job);

  const Engine& engine_;
  const JobSpec& job_;
  std::vector<const Relation*> inputs_;
  double scale_ = 1.0;
  std::vector<MapTaskSpec> tasks_;
  std::shared_ptr<const FilterSet> filters_;
  SchedContext sched_ctx_;  // scheduler resolved, never null
  size_t morsel_rows_ = 0;
  uint32_t max_retries_ = 0;
  RetryCounters retry_counters_;
  Shuffle shuffle_;
  std::vector<TaskIo> task_io_;
  std::vector<ReduceOut> red_;
  JobStats stats_;
  double broadcast_cost_per_task_ = 0.0;
  double received_mb_ = 0.0;
};

}  // namespace gumbo::mr

#endif  // GUMBO_MR_ENGINE_H_
