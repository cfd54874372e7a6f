#include "plan/executor.h"

#include <algorithm>
#include <string>
#include <vector>

#include "dist/sharded.h"
#include "mr/runtime.h"
#include "sgf/naive_eval.h"

namespace gumbo::plan {

namespace {

// A real cluster shard wins over the local harness, which wins over the
// plain runtime. All three produce byte-identical outputs (DESIGN.md §13).
Result<mr::ProgramStats> RunRounds(const mr::Program& program,
                                   mr::Engine* engine, Database* db,
                                   const ExecutionContext& ctx) {
  if (ctx.cluster != nullptr && ctx.cluster->num_shards > 1) {
    return dist::ShardedRuntime(engine, *ctx.cluster)
        .Execute(program, db, ctx.sched);
  }
  if (ctx.local_shards > 1) {
    return dist::ExecuteShardedLocal(engine, program, db, ctx.local_shards,
                                     ctx.sched);
  }
  return mr::Runtime(engine).Execute(program, db, ctx.sched);
}

// The paper's four metrics plus the job counters and round structure,
// derived from the program statistics.
void FillMetrics(ExecutionResult* result) {
  // Full reset first: Metrics also carries serving fields (plan_cache_hit,
  // queue_ms, sched_wait_ms) that this derivation does not touch, and
  // the counters and max_jobs_per_round accumulate — a reused
  // ExecutionResult must not leak a previous execution's values into
  // this one (tests/serve_test.cc pins this).
  result->metrics = Metrics{};
  Metrics& m = result->metrics;
  const mr::ProgramStats& stats = result->stats;
  for (const mr::JobStats& js : stats.jobs) {
    m += js;
    m.filter_broadcast_mb += js.filter_broadcast_mb;
    m.dist_wire_mb += js.dist_wire_mb;
  }
  m.communication_mb = m.shuffle_mb + m.filter_broadcast_mb;
  m.net_time = stats.net_time;
  m.total_time = stats.total_time;
  m.wall_ms = stats.wall_ms;
  m.jobs = static_cast<int>(stats.jobs.size());
  m.rounds = stats.rounds;
  for (const mr::RoundStats& r : stats.round_stats) {
    m.max_jobs_per_round =
        std::max(m.max_jobs_per_round, static_cast<int>(r.jobs.size()));
  }
  m.peak_concurrent_jobs = stats.MaxConcurrentJobs();
}

}  // namespace

Result<ExecutionResult> ExecutePlanOnSnapshot(const QueryPlan& plan,
                                              mr::Engine* engine,
                                              const Database& base,
                                              Database* outputs,
                                              const ExecutionContext& ctx) {
  // Every write of the run lands in the overlay, so a run that fails in
  // any round leaves nothing behind, and `base` needs no locking.
  Database overlay(&base);
  ExecutionResult result;
  GUMBO_ASSIGN_OR_RETURN(result.stats,
                         RunRounds(plan.program, engine, &overlay, ctx));
  std::vector<Relation*> produced;
  produced.reserve(plan.outputs.size());
  for (const std::string& name : plan.outputs) {
    GUMBO_ASSIGN_OR_RETURN(Relation * rel, overlay.GetMutable(name));
    produced.push_back(rel);
  }
  for (Relation* rel : produced) outputs->Put(std::move(*rel));
  FillMetrics(&result);
  return result;
}

Result<ExecutionResult> ExecuteAndVerify(const sgf::SgfQuery& query,
                                         const Planner& planner,
                                         mr::Engine* engine, Database* db) {
  // Reference run first, on the pristine database.
  GUMBO_ASSIGN_OR_RETURN(Database expected, sgf::NaiveEvalSgf(query, *db));

  GUMBO_ASSIGN_OR_RETURN(QueryPlan plan, planner.Plan(query, *db));
  GUMBO_ASSIGN_OR_RETURN(ExecutionResult result,
                         ExecutePlanOnSnapshot(plan, engine, *db, db));

  for (const auto& q : query.subqueries()) {
    GUMBO_ASSIGN_OR_RETURN(const Relation* got, db->Get(q.output()));
    GUMBO_ASSIGN_OR_RETURN(const Relation* want, expected.Get(q.output()));
    if (!got->SetEquals(*want)) {
      return Status::FailedPrecondition(
          "strategy " + std::string(StrategyName(planner.options().strategy)) +
          " produced wrong result for " + q.output() + ": got " +
          std::to_string(got->size()) + " tuples, reference has " +
          std::to_string(want->size()));
    }
  }
  return result;
}

void CalibrateFromExecution(const QueryPlan& plan,
                            const mr::ProgramStats& stats,
                            cost::CalibrationStore* store) {
  if (store == nullptr) return;
  const size_t jobs = std::min(plan.job_estimates.size(), stats.jobs.size());
  for (size_t j = 0; j < jobs; ++j) {
    const JobEstimateRecord& rec = plan.job_estimates[j];
    const mr::JobStats& js = stats.jobs[j];
    const size_t inputs = std::min(rec.inputs.size(), js.inputs.size());
    for (size_t i = 0; i < inputs; ++i) {
      const cost::InputEstimateTag& tag = rec.inputs[i];
      const mr::InputStats& obs = js.inputs[i];
      if (!obs.dataset.empty() && obs.dataset != tag.dataset) continue;
      store->Observe(tag.channel, tag.regime, tag.output_mb, obs.output_mb);
      if (tag.channel == cost::Channel::kCatalogOutput) {
        store->Observe(cost::Channel::kCatalogInput, tag.regime, tag.input_mb,
                       obs.input_mb);
      }
    }
    if (rec.bound_defaulted) {
      store->Observe(cost::Channel::kOutputBound, rec.bound_regime,
                     rec.output_mb, js.hdfs_write_mb);
    }
    // Yields are meaningful only when the knob was actually on for this
    // job — otherwise a zero yield would just record the knob's absence.
    if (j < plan.program.size()) {
      const mr::JobSpec& spec = plan.program.job(j);
      const double shuffled = static_cast<double>(js.shuffle_messages);
      if (spec.combiner_factory) {
        const double combined = static_cast<double>(js.combined_messages);
        if (shuffled + combined > 0.0) {
          store->Observe(cost::Channel::kCombinerYield, rec.bound_regime, 1.0,
                         combined / (shuffled + combined));
        }
      }
      if (spec.filter_builder) {
        const double filtered = static_cast<double>(js.filtered_messages);
        const double emitted =
            shuffled + static_cast<double>(js.combined_messages) + filtered;
        if (emitted > 0.0) {
          store->Observe(cost::Channel::kFilterYield, rec.bound_regime, 1.0,
                         filtered / emitted);
        }
      }
    }
  }
}

}  // namespace gumbo::plan
