// ShardedRuntime: the round runtime of DESIGN.md §4, run symmetrically on
// N shards that exchange shuffle records and epilogues over a Transport
// (DESIGN.md §13). No shard coordinates: every protocol step is the same
// on every shard.
//
// Execution model — full replication, task-ownership sharding:
//   * every shard holds a full replica of the database, so the map-task
//     decomposition (a pure function of inputs + config) is identical
//     everywhere, and shard s runs the map tasks with ti % N == s and
//     the reduce partitions with p % N == s;
//   * per job, shards proceed in lock step: run owned maps -> send the
//     owned intermediate MB to every peer and choose the reducer count
//     from the N sums, added in shard order -> exchange shuffle records
//     as wire frames routed by Shuffle::PartitionIndex (each record
//     travels to the shard owning its partition — including self,
//     through the same transport path) -> partition (sorting only the
//     owned partitions) + run owned reduces -> send every peer one
//     epilogue: the owned units' accounting records and the owned
//     partitions' rows;
//   * each shard imports every peer's epilogue into its own
//     mr::JobExecution, so it holds every unit's record, and finishes
//     the job itself: JobExecution::Finish reconciles, concatenates and
//     dedupes, and mr::Runtime commits in job order at the round
//     barrier. Every replica builds the same outputs and the same
//     ProgramStats; nothing is gathered or re-broadcast.
//
// Byte-identity to the single-process runtime (the oracle pinned by
// tests/dist_test.cc, same pattern as tests/shuffle_flat_test.cc): the
// per-task emission and packing happen once, on the task's owner,
// exactly as in-process; the wire format ships the resulting flat
// records and rows verbatim (no re-encoding, fingerprints included); the
// import preserves per-(task, partition) record order and global task
// indices, which is all the partition sort's tie-break (task, emission)
// can observe; and every shard accounts the units and concatenates the
// partition outputs in the same ascending order Finish() uses in one
// process. Every byte downstream of the shuffle is therefore
// independent of the shard count.
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

  /// Executes `program` against this shard's database replica, in lock
  /// step with every other shard (all shards must call Execute with the
  /// same program). On success every replica holds the same committed
  /// outputs, byte-identical to a single-process Runtime::Execute, and
  /// every shard returns the same ProgramStats: the global accounting,
  /// including the real wire MB charged at the model's transfer rate.
  Result<mr::ProgramStats> Execute(const mr::Program& program, Database* db,
                                   const SchedContext& ctx = {}) const;

 private:
  mr::Engine* engine_;
  Cluster cluster_;
};

/// Test and benchmark harness: runs `program` across `shards` in-process
/// shard threads — each with its own overlay replica of `db` and an
/// InProcTransport — and moves shard 0's committed relations into `db`.
/// Semantically identical to Runtime::Execute (byte-identical outputs,
/// global stats); exists so tests and benches can exercise real sharded
/// execution without spawning processes.
Result<mr::ProgramStats> ExecuteShardedLocal(mr::Engine* engine,
                                             const mr::Program& program,
                                             Database* db, int shards,
                                             const SchedContext& ctx = {});

}  // namespace gumbo::dist

#endif  // GUMBO_DIST_SHARDED_H_
