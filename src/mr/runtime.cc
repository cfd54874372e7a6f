#include "mr/runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>

#include "common/cancel.h"

namespace gumbo::mr {

std::vector<std::vector<size_t>> Runtime::JobRounds(const Program& program) {
  const size_t n = program.size();
  std::vector<int> depth(n, 0);
  int max_depth = -1;
  // Dependency indices always point backwards (Program::AddJob asserts),
  // so one forward pass computes the longest-chain depth of every job.
  for (size_t i = 0; i < n; ++i) {
    int d = 0;
    for (size_t p : program.deps(i)) d = std::max(d, depth[p] + 1);
    depth[i] = d;
    max_depth = std::max(max_depth, d);
  }
  std::vector<std::vector<size_t>> rounds(static_cast<size_t>(max_depth + 1));
  for (size_t i = 0; i < n; ++i) {
    rounds[static_cast<size_t>(depth[i])].push_back(i);
  }
  return rounds;
}

Result<ProgramStats> Runtime::Execute(const Program& program, Database* db,
                                      const SchedContext& ctx) const {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point program_start = Clock::now();
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  ProgramStats stats;
  stats.jobs.resize(program.size());
  const std::vector<std::vector<size_t>> rounds = JobRounds(program);
  stats.round_stats.reserve(rounds.size());

  for (size_t ri = 0; ri < rounds.size(); ++ri) {
    const std::vector<size_t>& round = rounds[ri];
    const Clock::time_point round_start = Clock::now();

    // Cancellation barrier: a query cancelled between rounds never
    // starts the next one, and since a failing round commits nothing,
    // the database still holds exactly the snapshot of the last fully
    // committed round.
    GUMBO_RETURN_IF_ERROR(CheckCancel(ctx.cancel));

    // Every dependency of this round's jobs was committed in an earlier
    // round, so all jobs read `db` concurrently without synchronization;
    // nothing writes to it until the barrier below.
    std::vector<std::optional<Result<Engine::JobResult>>> results(
        round.size());
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    auto run_one = [&](size_t k) {
      int cur = in_flight.fetch_add(1) + 1;
      int seen = peak.load();
      while (cur > seen && !peak.compare_exchange_weak(seen, cur)) {
      }
      const JobSpec& job = program.job(round[k]);
      results[k] = run_job_ ? run_job_(job, round[k], *db, ctx)
                            : engine_->RunDetached(job, *db, ctx);
      in_flight.fetch_sub(1);
    };
    if (run_job_) {
      for (size_t k = 0; k < round.size(); ++k) {
        run_one(k);
        if (!results[k]->ok()) return results[k]->status();
      }
    } else {
      // One ticket per job at the query's priority; each job then chains
      // its own map/reduce morsels (nested groups — the waiter helps, so
      // this nests without deadlock on any worker count).
      engine_->scheduler().ParallelFor(round.size(), run_one, ctx);
    }

    // A failing round commits nothing; the first failure (by job index)
    // wins deterministically.
    for (size_t k = 0; k < round.size(); ++k) {
      if (!results[k]->ok()) return results[k]->status();
    }

    // Barrier: commit outputs in job-index order so the database contents
    // (and any output-name collisions) match a sequential run exactly.
    RoundStats rs;
    rs.jobs = round;
    rs.max_concurrent = peak.load();
    for (size_t k = 0; k < round.size(); ++k) {
      Engine::JobResult& r = **results[k];
      for (Relation& out : r.outputs) db->Put(std::move(out));
      stats.jobs[round[k]] = std::move(r.stats);
    }
    rs.wall_ms = ms_since(round_start);
    stats.round_stats.push_back(std::move(rs));
  }

  stats.rounds = static_cast<int>(rounds.size());
  stats.wall_ms = ms_since(program_start);
  for (const JobStats& js : stats.jobs) stats.total_time += js.TotalCost();
  std::vector<std::vector<size_t>> deps;
  deps.reserve(program.size());
  for (size_t i = 0; i < program.size(); ++i) deps.push_back(program.deps(i));
  stats.net_time = SimulateNetTime(stats.jobs, deps, engine_->config());
  return stats;
}

}  // namespace gumbo::mr
