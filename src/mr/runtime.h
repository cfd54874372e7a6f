// Runtime: the round scheduler of the execution stack (DESIGN.md §4).
//
// A Program is a DAG of MapReduce jobs; the paper's evaluation strategies
// differ exactly in how many *rounds* (dependency-depth levels) their
// programs need. The runtime makes that structure operational:
//
//   1. jobs are grouped into rounds by dependency depth (every dependency
//      of a round-k job completed in a round < k);
//   2. all jobs of a round execute concurrently on the engine's morsel
//      scheduler via Engine::RunDetached, reading a frozen database
//      snapshot;
//   3. after the round barrier, outputs are committed to the database in
//      job-index order, so results are byte-identical to a sequential run
//      regardless of worker count or scheduling;
//   4. per-round metrics (job set, observed peak concurrency, wall
//      clock) are recorded in ProgramStats.
//
// The modeled clock is unchanged: net_time still comes from the
// slot-constrained cluster simulation (mr/program.h), which overlaps
// independent jobs the same way the real concurrent execution does.
#ifndef GUMBO_MR_RUNTIME_H_
#define GUMBO_MR_RUNTIME_H_

#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "mr/engine.h"
#include "mr/program.h"
#include "mr/stats.h"

namespace gumbo::mr {

class Runtime {
 public:
  explicit Runtime(Engine* engine) : engine_(engine) {}

  /// The round structure of `program`: round k holds every job whose
  /// longest dependency chain has length k. Jobs within a round are
  /// mutually independent; rounds are ordered.
  static std::vector<std::vector<size_t>> JobRounds(const Program& program);

  /// Executes every job of `program` against `db` round by round and
  /// returns the aggregated statistics. On success all job outputs are
  /// committed to `db`; on failure `db` holds the outputs of completed
  /// rounds only (the failing round commits nothing). `ctx` carries the
  /// query's priority class and metrics sink down to every morsel the
  /// program schedules (DESIGN.md §9).
  Result<ProgramStats> Execute(const Program& program, Database* db,
                               const SchedContext& ctx = {}) const;

 private:
  Engine* engine_;
};

}  // namespace gumbo::mr

#endif  // GUMBO_MR_RUNTIME_H_
