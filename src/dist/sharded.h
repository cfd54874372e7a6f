// ShardedRuntime: the round runtime of DESIGN.md §4, run symmetrically on
// N worker shards that exchange shuffle partitions over a Transport
// (DESIGN.md §13).
//
// Execution model — full replication, task-ownership sharding:
//   * every shard holds a full replica of the database, so the map-task
//     decomposition (a pure function of inputs + config) is identical
//     everywhere, and shard s simply *runs* the map tasks with
//     ti % N == s and the reduce partitions with p % N == s;
//   * per job, shards proceed in lock step: run owned maps -> agree on
//     the global reducer count (workers ship their intermediate MB, the
//     coordinator broadcasts r) -> exchange shuffle records as wire
//     frames routed by Shuffle::PartitionIndex (each record travels to
//     the shard owning its partition — including self, through the same
//     transport path) -> partition + run owned reduces -> ship output
//     fragments and stats to the coordinator;
//   * the coordinator merges shard stats (the mr::JobCounters blocks sum
//     with +=, disjoint task/partition slots element-wise), reconciles
//     map-side vs reduce-side accounting globally, assembles outputs in
//     ascending partition order, and at the round barrier commits them
//     in job order — then broadcasts the committed relations so every
//     replica re-synchronizes before the next round.
//
// Byte-identity to the single-process runtime (the oracle pinned by
// tests/dist_test.cc, same pattern as tests/shuffle_flat_test.cc): the
// per-task emission and packing happen once, on the task's owner,
// exactly as in-process; the wire format ships the resulting flat
// records verbatim (no re-encoding, fingerprints included); the import
// preserves per-(task, partition) record order and global task indices,
// which is all the partition sort's tie-break (task, emission) can
// observe; and the coordinator concatenates partition outputs in the
// same ascending-partition order Finish() does. Every byte downstream of
// the shuffle is therefore independent of the shard count.
#ifndef GUMBO_DIST_SHARDED_H_
#define GUMBO_DIST_SHARDED_H_

#include "common/relation.h"
#include "common/result.h"
#include "common/scheduler.h"
#include "dist/cluster.h"
#include "mr/program.h"
#include "mr/stats.h"

namespace gumbo::dist {

class ShardedRuntime {
 public:
  /// `engine` and `cluster.transport` are borrowed. Every shard of the
  /// cluster must construct an equivalent runtime (same engine config).
  ShardedRuntime(mr::Engine* engine, Cluster cluster)
      : engine_(engine), cluster_(cluster) {}

  const Cluster& cluster() const { return cluster_; }

  /// Executes `program` against this shard's database replica, in lock
  /// step with every other shard (all shards must call Execute with the
  /// same program). On success every replica holds the same committed
  /// outputs, byte-identical to a single-process Runtime::Execute; the
  /// coordinator's ProgramStats carry the merged (global) accounting,
  /// including the real wire MB charged at the model's transfer rate —
  /// workers' stats are their local shares.
  Result<mr::ProgramStats> Execute(const mr::Program& program, Database* db,
                                   const SchedContext& ctx = {}) const;

 private:
  Result<mr::Engine::JobResult> RunJob(const mr::JobSpec& job,
                                       const Database& db,
                                       const SchedContext& ctx,
                                       uint32_t job_aux) const;

  mr::Engine* engine_;
  Cluster cluster_;
};

/// Test and benchmark harness: runs `program` across `shards` in-process
/// worker threads — each with its own overlay replica of `db` and an
/// InProcTransport — and commits the coordinator's outputs into `db`.
/// Semantically identical to Runtime::Execute (byte-identical outputs,
/// merged stats); exists so tests and benches can exercise real sharded
/// execution without spawning processes.
Result<mr::ProgramStats> ExecuteShardedLocal(mr::Engine* engine,
                                             const mr::Program& program,
                                             Database* db, int shards,
                                             const SchedContext& ctx = {});

}  // namespace gumbo::dist

#endif  // GUMBO_DIST_SHARDED_H_
