#include "plan/planner.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "mr/runtime.h"
#include "ops/chain.h"
#include "ops/eval.h"
#include "ops/one_round.h"
#include "plan/grouping.h"
#include "plan/toposort.h"
#include "sgf/analyzer.h"

namespace gumbo::plan {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kSeq:
      return "SEQ";
    case Strategy::kPar:
      return "PAR";
    case Strategy::kGreedy:
      return "GREEDY";
    case Strategy::kOpt:
      return "OPT";
    case Strategy::kOneRound:
      return "1-ROUND";
    case Strategy::kSeqUnit:
      return "SEQUNIT";
    case Strategy::kParUnit:
      return "PARUNIT";
    case Strategy::kGreedySgf:
      return "GREEDY-SGF";
    case Strategy::kOptSgf:
      return "OPT-SGF";
  }
  return "?";
}

Result<Strategy> StrategyFromName(const std::string& name) {
  static const std::map<std::string, Strategy> kMap = {
      {"SEQ", Strategy::kSeq},
      {"PAR", Strategy::kPar},
      {"GREEDY", Strategy::kGreedy},
      {"OPT", Strategy::kOpt},
      {"1-ROUND", Strategy::kOneRound},
      {"ONE-ROUND", Strategy::kOneRound},
      {"SEQUNIT", Strategy::kSeqUnit},
      {"PARUNIT", Strategy::kParUnit},
      {"GREEDY-SGF", Strategy::kGreedySgf},
      {"OPT-SGF", Strategy::kOptSgf},
  };
  // Case-insensitive: "greedy", "Greedy" and "GREEDY" all resolve.
  std::string upper = name;
  for (char& c : upper) c = static_cast<char>(std::toupper(
      static_cast<unsigned char>(c)));
  auto it = kMap.find(upper);
  if (it == kMap.end()) {
    std::string valid;
    for (const auto& [n, s] : kMap) {
      (void)s;
      if (!valid.empty()) valid += ", ";
      valid += n;
    }
    return Status::InvalidArgument("unknown strategy " + name +
                                   " (valid: " + valid + ")");
  }
  return it->second;
}

namespace {

// The OPT strategies' brute-force grouping limit: a batch of more
// equations fails to plan under OPT instead of enumerating its partitions.
constexpr size_t kOptMaxEquations = 10;

// Planning context threaded through batch planners.
struct PlanContext {
  PlanContext(const sgf::SgfQuery& q, const Database& d,
              const cost::ClusterConfig& c, const PlannerOptions& o)
      : query(&q),
        db(&d),
        config(&c),
        options(&o),
        estimator(c, o.cost_variant, &d, &catalog, o.sample_size,
                  o.calibration) {}
  // `estimator` points at `catalog`, so a copy would read the original's.
  PlanContext(const PlanContext&) = delete;
  PlanContext& operator=(const PlanContext&) = delete;

  const sgf::SgfQuery* query;
  const Database* db;
  const cost::ClusterConfig* config;
  const PlannerOptions* options;
  cost::StatsCatalog catalog;  // declared stats for produced datasets
  // Every estimate of this Plan call goes through one estimator, so each
  // skew regime and sampled map output is computed once (DESIGN.md §10).
  cost::CostEstimator estimator;
  QueryPlan plan;
  size_t name_counter = 0;

  std::string FreshName(const std::string& hint) {
    return "__" + hint + "_" + std::to_string(name_counter++);
  }
  void Describe(const std::string& line) {
    plan.description += line;
    plan.description += "\n";
  }
};

// Upper-bound stats for every produced dataset: the (transitive) base
// guard's tuple count, at the output's own tuple density (paper §4.1: K is
// bounded by the guard size). Each produced dataset inherits its guard's
// key-skew regime — a semi-join output is a subset of the guard, so its
// skew is the guard's (DESIGN.md §10).
Status RegisterProducedStats(PlanContext* ctx) {
  for (const auto& q : ctx->query->subqueries()) {
    // An earlier subquery's output is bounded by its own guard's stats.
    const std::string& g = q.guard().relation();
    GUMBO_ASSIGN_OR_RETURN(cost::RelationStats guard,
                           ctx->catalog.Contains(g)
                               ? ctx->catalog.Get(g)
                               : ctx->estimator.StatsOf(g));
    cost::RelationStats stats;
    stats.tuples = guard.tuples;
    stats.bytes_per_tuple = 10.0 * static_cast<double>(q.OutputArity());
    stats.regime = guard.regime;
    ctx->catalog.Put(q.output(), stats);
  }
  return Status::Ok();
}

// Extracts the semi-join equations of one BSGF query; X_i dataset names
// are freshly generated.
std::vector<ops::SemiJoinEquation> EquationsOf(const sgf::BsgfQuery& q,
                                               PlanContext* ctx,
                                               std::vector<std::string>* xs) {
  std::vector<ops::SemiJoinEquation> eqs;
  for (size_t i = 0; i < q.num_conditional_atoms(); ++i) {
    ops::SemiJoinEquation eq;
    eq.output = ctx->FreshName("x_" + q.output());
    eq.guard = q.guard();
    eq.guard_dataset = q.guard().relation();
    eq.conditional = q.conditional_atoms()[i];
    eq.conditional_dataset = q.conditional_atoms()[i].relation();
    xs->push_back(eq.output);
    eqs.push_back(std::move(eq));
  }
  return eqs;
}

std::string JobLabel(const std::string& kind,
                     const std::vector<std::string>& parts) {
  std::string out = kind + "(";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ", ";
    out += parts[i];
  }
  out += ")";
  return out;
}

// ---- Batch planners ---------------------------------------------------------
// Each plans a set of *independent* subqueries (a batch): inputs may only be
// base relations or outputs of earlier batches. `barrier` holds the job ids
// every first-stage job of this batch must depend on; the ids of this
// batch's final jobs are returned through `batch_jobs`.

// MSJ-partition-based planning (PAR / GREEDY / OPT): one MSJ job per group
// plus a single multi-formula EVAL.
Status PlanBatchPartitioned(const std::vector<size_t>& batch,
                            const std::vector<size_t>& barrier,
                            PlanContext* ctx,
                            std::vector<size_t>* batch_jobs) {
  const Strategy strategy = ctx->options->strategy;
  // Collect equations across the batch.
  std::vector<ops::SemiJoinEquation> eqs;
  std::vector<ops::EvalTask> eval_tasks;
  std::vector<ops::OneRoundTask> projection_tasks;  // condition-free queries
  // eq index -> (query, atom) bookkeeping handled via EvalTask x_datasets.
  for (size_t qi : batch) {
    const sgf::BsgfQuery& q = ctx->query->subqueries()[qi];
    if (!q.has_condition()) {
      ops::OneRoundTask t;
      t.query = q;
      t.guard_dataset = q.guard().relation();
      t.output_dataset = q.output();
      projection_tasks.push_back(std::move(t));
      continue;
    }
    ops::EvalTask t;
    t.query = q;
    t.guard_dataset = q.guard().relation();
    t.output_dataset = q.output();
    std::vector<ops::SemiJoinEquation> q_eqs = EquationsOf(q, ctx, &t.x_datasets);
    for (auto& e : q_eqs) eqs.push_back(std::move(e));
    eval_tasks.push_back(std::move(t));
  }

  // Group the equations.
  Grouping grouping;
  if (!eqs.empty()) {
    if (strategy == Strategy::kPar) {
      for (size_t i = 0; i < eqs.size(); ++i) grouping.groups.push_back({i});
    } else {
      // Register X_i stats (upper bound: guard size at payload density;
      // regime inherited from the guard — X_i is a guard subset).
      for (const auto& eq : eqs) {
        GUMBO_ASSIGN_OR_RETURN(cost::RelationStats gs,
                               ctx->estimator.StatsOf(eq.guard_dataset));
        cost::RelationStats xs;
        xs.tuples = gs.tuples;
        xs.bytes_per_tuple =
            ctx->options->op.tuple_id_refs
                ? 8.0
                : 10.0 * static_cast<double>(eq.guard.arity());
        xs.regime = gs.regime;
        ctx->catalog.Put(eq.output, xs);
      }
      if (strategy == Strategy::kOpt) {
        GUMBO_ASSIGN_OR_RETURN(
            grouping, OptimalGrouping(eqs, ctx->options->op, ctx->estimator,
                                      kOptMaxEquations));
      } else {
        GUMBO_ASSIGN_OR_RETURN(grouping,
                               GreedyBsgfGrouping(eqs, ctx->options->op,
                                                  ctx->estimator));
      }
    }
  }

  // MSJ jobs.
  std::vector<size_t> msj_jobs;
  for (const auto& group : grouping.groups) {
    std::vector<ops::SemiJoinEquation> subset;
    std::vector<std::string> labels;
    for (size_t i : group) {
      subset.push_back(eqs[i]);
      labels.push_back(eqs[i].output);
    }
    GUMBO_ASSIGN_OR_RETURN(
        mr::JobSpec spec,
        ops::BuildMsjJob(subset, ctx->options->op, JobLabel("MSJ", labels)));
    size_t id = ctx->plan.program.AddJob(std::move(spec), barrier);
    ctx->Describe(ctx->plan.program.job(id).name);
    msj_jobs.push_back(id);
  }

  // EVAL job (depends on all MSJ jobs of this batch plus the barrier).
  if (!eval_tasks.empty()) {
    std::vector<std::string> labels;
    for (const auto& t : eval_tasks) labels.push_back(t.output_dataset);
    GUMBO_ASSIGN_OR_RETURN(
        mr::JobSpec spec,
        ops::BuildEvalJob(eval_tasks, ctx->options->op, JobLabel("EVAL", labels)));
    std::vector<size_t> deps = msj_jobs;
    deps.insert(deps.end(), barrier.begin(), barrier.end());
    size_t id = ctx->plan.program.AddJob(std::move(spec), deps);
    ctx->Describe(ctx->plan.program.job(id).name);
    batch_jobs->push_back(id);
  }

  // Projection-only queries (no WHERE): one fused job.
  if (!projection_tasks.empty()) {
    std::vector<std::string> labels;
    for (const auto& t : projection_tasks) labels.push_back(t.output_dataset);
    GUMBO_ASSIGN_OR_RETURN(mr::JobSpec spec,
                           ops::BuildOneRoundJob(projection_tasks, ctx->options->op,
                                            JobLabel("PROJECT", labels)));
    size_t id = ctx->plan.program.AddJob(std::move(spec), barrier);
    ctx->Describe(ctx->plan.program.job(id).name);
    batch_jobs->push_back(id);
  }
  return Status::Ok();
}

// SEQ: per query, DNF clauses -> chains of semi-join / anti-join steps;
// chains run in parallel, a union job combines multi-clause queries.
Status PlanBatchSeq(const std::vector<size_t>& batch,
                    const std::vector<size_t>& barrier, PlanContext* ctx,
                    std::vector<size_t>* batch_jobs) {
  for (size_t qi : batch) {
    const sgf::BsgfQuery& q = ctx->query->subqueries()[qi];
    if (!q.has_condition()) {
      ops::OneRoundTask t;
      t.query = q;
      t.guard_dataset = q.guard().relation();
      t.output_dataset = q.output();
      GUMBO_ASSIGN_OR_RETURN(
          mr::JobSpec spec,
          ops::BuildOneRoundJob({t}, ctx->options->op,
                           JobLabel("PROJECT", {q.output()})));
      size_t id = ctx->plan.program.AddJob(std::move(spec), barrier);
      ctx->Describe(ctx->plan.program.job(id).name);
      batch_jobs->push_back(id);
      continue;
    }
    std::vector<std::vector<int>> clauses;
    GUMBO_RETURN_IF_ERROR(q.condition()->ToDnf(&clauses));
    // Dedupe identical literals within each clause.
    for (auto& clause : clauses) {
      std::sort(clause.begin(), clause.end());
      clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
    }
    const bool single_chain = clauses.size() == 1;
    std::vector<std::string> chain_outputs;
    std::vector<size_t> chain_last_jobs;
    for (size_t ci = 0; ci < clauses.size(); ++ci) {
      std::string current = q.guard().relation();
      std::vector<size_t> deps = barrier;
      for (size_t li = 0; li < clauses[ci].size(); ++li) {
        int lit = clauses[ci][li];
        size_t atom = static_cast<size_t>(std::abs(lit)) - 1;
        const bool last = li + 1 == clauses[ci].size();
        ops::ChainStepSpec step;
        step.guard = q.guard();
        step.input_dataset = current;
        step.conditional = q.conditional_atoms()[atom];
        step.conditional_dataset = q.conditional_atoms()[atom].relation();
        step.positive = lit > 0;
        step.filter_guard_pattern = (li == 0);
        if (last && single_chain) {
          step.emit_projection = true;
          step.select_vars = q.select_vars();
          step.output_dataset = q.output();
        } else {
          step.output_dataset =
              ctx->FreshName("seq_" + q.output() + "_c" + std::to_string(ci));
        }
        std::string label = std::string(lit > 0 ? "SJ" : "ASJ") + "[" +
                            q.output() + "/" + std::to_string(ci) + ":" +
                            step.conditional.ToString() + "]";
        GUMBO_ASSIGN_OR_RETURN(mr::JobSpec spec,
                               ops::BuildChainStepJob(step, ctx->options->op,
                                                      label));
        size_t id = ctx->plan.program.AddJob(std::move(spec), deps);
        ctx->Describe(ctx->plan.program.job(id).name);
        deps = {id};
        current = step.output_dataset;
        if (last) {
          chain_outputs.push_back(current);
          chain_last_jobs.push_back(id);
        }
      }
    }
    if (single_chain) {
      batch_jobs->push_back(chain_last_jobs.front());
    } else {
      GUMBO_ASSIGN_OR_RETURN(
          mr::JobSpec spec,
          ops::BuildUnionProjectJob(chain_outputs, q.guard(), q.select_vars(),
                                    q.output(),
                                    JobLabel("UNION", {q.output()})));
      size_t id = ctx->plan.program.AddJob(std::move(spec), chain_last_jobs);
      ctx->Describe(ctx->plan.program.job(id).name);
      batch_jobs->push_back(id);
    }
  }
  return Status::Ok();
}

// 1-ROUND: all queries of the batch fused into a single job.
Status PlanBatchOneRound(const std::vector<size_t>& batch,
                         const std::vector<size_t>& barrier, PlanContext* ctx,
                         std::vector<size_t>* batch_jobs) {
  std::vector<ops::OneRoundTask> tasks;
  std::vector<std::string> labels;
  for (size_t qi : batch) {
    const sgf::BsgfQuery& q = ctx->query->subqueries()[qi];
    if (!ops::CanOneRound(q)) {
      return Status::FailedPrecondition(
          "1-ROUND does not apply to " + q.output() +
          " (conjunction over distinct join keys)");
    }
    ops::OneRoundTask t;
    t.query = q;
    t.guard_dataset = q.guard().relation();
    for (const auto& atom : q.conditional_atoms()) {
      t.conditional_datasets.push_back(atom.relation());
    }
    t.output_dataset = q.output();
    labels.push_back(q.output());
    tasks.push_back(std::move(t));
  }
  GUMBO_ASSIGN_OR_RETURN(
      mr::JobSpec spec,
      ops::BuildOneRoundJob(tasks, ctx->options->op, JobLabel("1ROUND", labels)));
  size_t id = ctx->plan.program.AddJob(std::move(spec), barrier);
  ctx->Describe(ctx->plan.program.job(id).name);
  batch_jobs->push_back(id);
  return Status::Ok();
}

Status PlanBatch(Strategy strategy, const std::vector<size_t>& batch,
                 const std::vector<size_t>& barrier, PlanContext* ctx,
                 std::vector<size_t>* batch_jobs) {
  switch (strategy) {
    case Strategy::kSeq:
      return PlanBatchSeq(batch, barrier, ctx, batch_jobs);
    case Strategy::kOneRound:
      return PlanBatchOneRound(batch, barrier, ctx, batch_jobs);
    case Strategy::kPar:
    case Strategy::kGreedy:
    case Strategy::kOpt:
      return PlanBatchPartitioned(batch, barrier, ctx, batch_jobs);
    default:
      return Status::Internal("PlanBatch called with an SGF-level strategy");
  }
}

// Level decomposition: level(v) = longest path depth from sources.
Batches LevelBatches(const sgf::DependencyGraph& graph) {
  const size_t n = graph.size();
  std::vector<int> level(n, 0);
  int max_level = 0;
  for (size_t v = 0; v < n; ++v) {  // predecessors have smaller indices
    for (size_t p : graph.Predecessors(v)) {
      level[v] = std::max(level[v], level[p] + 1);
    }
    max_level = std::max(max_level, level[v]);
  }
  Batches batches(static_cast<size_t>(max_level) + 1);
  for (size_t v = 0; v < n; ++v) {
    batches[static_cast<size_t>(level[v])].push_back(v);
  }
  return batches;
}

// Estimated Equation-10 cost of evaluating the batches with GREEDY
// grouping inside (used by OPT-SGF).
Result<double> EstimateSortCost(const Batches& batches, PlanContext* ctx) {
  double total = 0.0;
  for (const auto& batch : batches) {
    std::vector<ops::SemiJoinEquation> eqs;
    size_t fresh = 0;
    double eval_input_mb = 0.0;
    for (size_t qi : batch) {
      const sgf::BsgfQuery& q = ctx->query->subqueries()[qi];
      GUMBO_ASSIGN_OR_RETURN(cost::RelationStats gs,
                             ctx->estimator.StatsOf(q.guard().relation()));
      eval_input_mb += gs.SizeMb();
      for (size_t ai = 0; ai < q.num_conditional_atoms(); ++ai) {
        ops::SemiJoinEquation eq;
        eq.output = "__cost_x" + std::to_string(fresh++);
        eq.guard = q.guard();
        eq.guard_dataset = q.guard().relation();
        eq.conditional = q.conditional_atoms()[ai];
        eq.conditional_dataset = q.conditional_atoms()[ai].relation();
        eval_input_mb += gs.tuples *
                         (ctx->options->op.tuple_id_refs ? 8.0 : 40.0) /
                         (1024.0 * 1024.0);
        eqs.push_back(std::move(eq));
      }
    }
    if (!eqs.empty()) {
      GUMBO_ASSIGN_OR_RETURN(
          Grouping g,
          GreedyBsgfGrouping(eqs, ctx->options->op, ctx->estimator));
      total += g.total_cost;
    }
    // Rough EVAL term: overhead + read + shuffle of its inputs.
    total += ctx->config->costs.job_overhead +
             (ctx->config->costs.hdfs_read + ctx->config->costs.transfer +
              ctx->config->costs.local_write) *
                 eval_input_mb;
  }
  return total;
}

// Post-pass over a lowered plan: estimate every job's §5.3 cost and record
// the per-input provenance tags (JobEstimateRecord). Walks jobs in program
// order (which is dependency order: AddJob only references earlier ids),
// registering catalog stats for each job's outputs as it goes, so inputs
// produced by strategies that don't register intermediates themselves
// (SEQ chain steps, PAR X_i) still estimate. These records make estimated
// totals comparable across strategies (ChoosePlan) and give the
// calibration feedback loop its "estimated" side (DESIGN.md §10).
Status EstimatePlanJobs(PlanContext* ctx) {
  QueryPlan& plan = ctx->plan;
  plan.job_estimates.clear();
  plan.estimated_cost = 0.0;
  plan.job_estimates.reserve(plan.program.size());
  for (size_t j = 0; j < plan.program.size(); ++j) {
    const mr::JobSpec& job = plan.program.job(j);
    // Upper bound for this job's outputs: the summed tuple bounds of its
    // inputs (a union can reach the sum; a semi-join stays below it).
    double input_tuple_bound = 0.0;
    cost::SkewRegime input_regime = cost::SkewRegime::kUniform;
    for (const mr::JobInput& input : job.inputs) {
      Result<cost::RelationStats> stats =
          ctx->estimator.StatsOf(input.dataset);
      if (stats.ok()) {
        input_tuple_bound += stats->tuples;
        if (stats->regime > input_regime) input_regime = stats->regime;
      }
    }
    GUMBO_ASSIGN_OR_RETURN(cost::JobEstimate est,
                           ctx->estimator.EstimateJob(job));
    JobEstimateRecord rec;
    rec.job_name = job.name;
    rec.cost = est.cost;
    rec.output_mb = est.output_mb;
    rec.bound_regime = est.bound_regime;
    rec.bound_defaulted = est.bound_defaulted;
    rec.inputs = std::move(est.input_tags);
    plan.estimated_cost += est.cost;
    plan.job_estimates.push_back(std::move(rec));
    // Register stats for datasets this job produces (skip ones already
    // bounded by RegisterProducedStats or the grouping path).
    for (const mr::JobOutput& out : job.outputs) {
      if (ctx->catalog.Contains(out.dataset)) continue;
      if (ctx->db != nullptr && ctx->db->Contains(out.dataset)) continue;
      cost::RelationStats stats;
      stats.tuples = input_tuple_bound;
      stats.bytes_per_tuple = out.bytes_per_tuple > 0.0
                                  ? out.bytes_per_tuple
                                  : 10.0 * static_cast<double>(out.arity);
      stats.regime = input_regime;
      ctx->catalog.Put(out.dataset, stats);
    }
  }
  return Status::Ok();
}

}  // namespace

Result<QueryPlan> Planner::Plan(const sgf::SgfQuery& query,
                                const Database& db) const {
  GUMBO_RETURN_IF_ERROR(sgf::ValidateSgf(query));
  for (const std::string& rel : query.BaseRelations()) {
    if (!db.Contains(rel)) {
      return Status::NotFound("base relation " + rel + " not in database");
    }
  }

  // The GUMBO_DISABLE_* environment overrides win over programmatic
  // settings so CI and benches can force an ablation (DESIGN.md §5.4).
  PlannerOptions options = options_;
  options.op = ops::ApplyEnvOverrides(options.op);

  PlanContext ctx(query, db, config_, options);
  GUMBO_RETURN_IF_ERROR(RegisterProducedStats(&ctx));
  for (const auto& q : query.subqueries()) {
    ctx.plan.outputs.push_back(q.output());
  }

  sgf::DependencyGraph graph = query.BuildDependencyGraph();

  // Decide the batch structure and the per-batch strategy.
  Batches batches;
  Strategy batch_strategy = options_.strategy;
  switch (options_.strategy) {
    case Strategy::kSeqUnit: {
      for (size_t i = 0; i < query.size(); ++i) batches.push_back({i});
      batch_strategy = Strategy::kPar;
      break;
    }
    case Strategy::kParUnit: {
      batches = LevelBatches(graph);
      batch_strategy = Strategy::kPar;
      break;
    }
    case Strategy::kGreedySgf: {
      GUMBO_ASSIGN_OR_RETURN(batches, GreedySgfSort(query));
      batch_strategy = Strategy::kGreedy;
      break;
    }
    case Strategy::kOptSgf: {
      GUMBO_ASSIGN_OR_RETURN(std::vector<Batches> all,
                             EnumerateMultiwayTopoSorts(graph));
      double best_cost = 0.0;
      bool have = false;
      for (const Batches& cand : all) {
        GUMBO_ASSIGN_OR_RETURN(double c, EstimateSortCost(cand, &ctx));
        if (!have || c < best_cost) {
          have = true;
          best_cost = c;
          batches = cand;
        }
      }
      if (!have) return Status::Internal("no multiway topological sort found");
      batch_strategy = Strategy::kGreedy;
      break;
    }
    default:
      batches = LevelBatches(graph);
      break;
  }

  std::vector<size_t> barrier;
  for (size_t b = 0; b < batches.size(); ++b) {
    ctx.Describe("-- batch " + std::to_string(b + 1) + " [" +
                 StrategyName(batch_strategy) + "]");
    std::vector<size_t> batch_jobs;
    GUMBO_RETURN_IF_ERROR(
        PlanBatch(batch_strategy, batches[b], barrier, &ctx, &batch_jobs));
    barrier = batch_jobs;
  }

  // Summarize the runtime's round structure: jobs listed on one line run
  // concurrently under the round scheduler (mr/runtime.h).
  const std::vector<std::vector<size_t>> rounds =
      mr::Runtime::JobRounds(ctx.plan.program);
  for (size_t r = 0; r < rounds.size(); ++r) {
    std::string line = "-- round " + std::to_string(r + 1) + " (" +
                       std::to_string(rounds[r].size()) + " job" +
                       (rounds[r].size() == 1 ? "" : "s") + "):";
    for (size_t j : rounds[r]) line += " [" + std::to_string(j) + "]";
    ctx.Describe(line);
  }
  GUMBO_RETURN_IF_ERROR(EstimatePlanJobs(&ctx));
  return std::move(ctx.plan);
}

Result<StrategyChoice> ChoosePlan(const sgf::SgfQuery& query,
                                  const Database& db,
                                  const cost::ClusterConfig& config,
                                  const PlannerOptions& base,
                                  std::vector<Strategy> candidates) {
  if (candidates.empty()) {
    candidates = {Strategy::kOneRound, Strategy::kSeq, Strategy::kPar,
                  Strategy::kGreedy};
  }
  StrategyChoice choice;
  bool have = false;
  Status last_error = Status::Ok();
  for (Strategy s : candidates) {
    PlannerOptions options = base;
    options.strategy = s;
    Planner planner(config, options);
    Result<QueryPlan> planned = planner.Plan(query, db);
    if (!planned.ok()) {
      // Inapplicable strategies (1-ROUND on a non-qualifying query) are
      // skipped; real failures surface if no candidate plans at all.
      last_error = planned.status();
      continue;
    }
    choice.candidates.push_back({s, planned->estimated_cost});
    if (!have || planned->estimated_cost < choice.plan.estimated_cost) {
      have = true;
      choice.strategy = s;
      choice.plan = std::move(*planned);
    }
  }
  if (!have) {
    return Status(last_error.code(),
                  "no candidate strategy planned: " + last_error.message());
  }
  return choice;
}

}  // namespace gumbo::plan
