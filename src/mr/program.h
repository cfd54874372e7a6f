// Program: a DAG of MapReduce jobs, plus the slot-constrained scheduler
// that yields the paper's two time metrics.
//
// Jobs are executed (for real) round by round — independent jobs of the
// same dependency depth run concurrently on the engine's thread pool (see
// mr/runtime.h); afterwards, the scheduler replays all task costs through
// an event-driven simulation of the cluster (nodes x slots), yielding:
//   * net time   — the makespan from query submission to the last job's
//     completion, with map/reduce tasks of concurrently-running jobs
//     competing for the same slot pools;
//   * total time — the aggregate cost of all tasks plus per-job overhead.
//
// Per the paper's Hadoop settings (Appendix B,
// mapreduce.job.reduce.slowstart.completedmaps = 1), a job's reduce tasks
// become available only once all its map tasks have finished.
#ifndef GUMBO_MR_PROGRAM_H_
#define GUMBO_MR_PROGRAM_H_

#include <string>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "mr/engine.h"
#include "mr/job.h"
#include "mr/stats.h"

namespace gumbo::mr {

class Program {
 public:
  /// Adds a job; `deps` are indices of jobs that must complete first
  /// (their outputs feed this job). Returns the job's index.
  size_t AddJob(JobSpec spec, std::vector<size_t> deps = {});

  size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }
  const JobSpec& job(size_t i) const { return jobs_[i]; }
  const std::vector<size_t>& deps(size_t i) const { return deps_[i]; }

  /// Length (in jobs) of the longest dependency chain — the paper's
  /// "number of rounds" (the size of Runtime::JobRounds).
  int Rounds() const;

  std::string ToString() const;

 private:
  std::vector<JobSpec> jobs_;
  std::vector<std::vector<size_t>> deps_;
};

/// The scheduling simulation alone (no data execution): computes net time
/// for the given per-job stats and dependency structure. Exposed for unit
/// tests and cost estimation.
double SimulateNetTime(const std::vector<JobStats>& jobs,
                       const std::vector<std::vector<size_t>>& deps,
                       const cost::ClusterConfig& config);

}  // namespace gumbo::mr

#endif  // GUMBO_MR_PROGRAM_H_
